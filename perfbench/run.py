#!/usr/bin/env python3
"""Builds and runs the Eco-FL benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark package (perfbench/) is
built in release mode into $CARGO_TARGET_DIR (default .bench_build), then
one process runs the workload; the flags go to it unchanged, and it
validates them. Its last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The metrics are checked
against BENCHMARK.json, names and units: with --trace 0 they are the
end-to-end metrics, to which this script adds peak_rss_mb, the peak
resident memory of the workload process measured from outside it; with
--trace 1 they are the per-layer metrics, where a layer the workload does
not run reads 0. `--workload all` runs every workload, one process each.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time

# A run must end well inside three minutes; the window itself is --seconds.
CHILD_TIMEOUT_S = 170.0


def git_revision():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(".git", ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        "--target-dir", target_dir,
    ]
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return res.returncode == 0


def flag(argv, name):
    """The value after `name` in argv, or None."""
    i = argv.index(name) if name in argv[:-1] else None
    return None if i is None else argv[i + 1]


def run_workload(cmd, env):
    """Runs one workload process; returns (exit code, stdout lines, peak RSS MB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
    reader.start()
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    status, rusage = None, None
    while status is None:
        pid, st, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            status, rusage = st, ru
        elif time.monotonic() > deadline:
            proc.kill()
            _, status, rusage = os.wait4(proc.pid, 0)
        else:
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stdout.close()
    # The workload's scratch directory, should it have been killed.
    workload = flag(cmd, "--workload")
    if workload:
        shutil.rmtree(os.path.join(".bench_tmp", f"{workload}-{proc.pid}"), ignore_errors=True)
    try:
        os.rmdir(".bench_tmp")
    except OSError:
        pass
    lines = b"".join(chunks).decode().splitlines()
    # ru_maxrss is in KiB on Linux.
    return proc.returncode, lines, rusage.ru_maxrss * 1024 / 1e6


def conform(result, peak_mb, schema):
    """Checks the metrics against BENCHMARK.json and orders them as it
    does; returns an error message, or None."""
    traced = result.pop("trace")
    metrics = result["metrics"]
    if not traced:
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        print(f"# metric: peak_rss_mb = {peak_mb} MB")
    wanted = schema["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            return f"metric {name} in {m['unit']} is not in BENCHMARK.json"
    missing = [name for name in units if name not in metrics]
    if missing and not traced:
        return f"end-to-end metrics missing: {', '.join(missing)}"
    if missing:
        print(f"# not run by this workload, reported as 0: {' '.join(missing)}")
    result["metrics"] = {
        name: metrics.get(name, {"value": 0, "unit": unit}) for name, unit in units.items()
    }
    return None


def main():
    argv = sys.argv[1:]
    with open("BENCHMARK.json") as f:
        schema = json.load(f)
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(target_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "ecofl-perfbench")
    nproc = os.cpu_count() or 1
    env = dict(os.environ)
    threads = int(env.get("ECOFL_THREADS", "2") or "2")
    env["ECOFL_THREADS"] = str(max(1, min(threads, nproc)))
    # `--workload all` becomes one run per workload; any other argv goes
    # to the binary unchanged.
    if flag(argv, "--workload") == "all":
        i = argv.index("--workload")
        rest = argv[:i] + argv[i + 2:]
        runs = [[w["name"], ["--workload", w["name"]] + rest] for w in schema["workloads"]]
    else:
        runs = [[flag(argv, "--workload"), argv]]
    code = 0
    for w, args in runs:
        rc, lines, peak_mb = run_workload([binary] + args, env)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        for line in lines[:-1] if result is not None else lines:
            print(line)
        print(f"# run: git_revision={git_revision()}")
        if rc != 0 or result is None:
            print(f"run.py: {w} exited with {rc} and no result", file=sys.stderr)
            code = 1
            continue
        error = conform(result, peak_mb, schema)
        if error is not None:
            print(f"run.py: {w}: {error}", file=sys.stderr)
            code = 1
            continue
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
