//! Benchmark of the Eco-FL two-level system.
//!
//! ```text
//! ecofl-perfbench --workload <fl-paper|pipe-1f1b|store-trace>
//!                 --seed N --seconds S --trace 0|1
//! ```
//!
//! One workload runs per process. With `--trace 0` the last line of
//! standard output carries the end-to-end metrics of untraced runs; with
//! `--trace 1` it carries the per-layer metrics of the layers the
//! workload runs, from spans the benchmark takes around calls into each
//! layer plus counters the program exposes. Lines starting with `#`
//! before it record the run (`nproc`, threads, kernel path), the
//! simulated outcomes, which are printed for exact diffs between commits
//! and are not metrics, and the raw per-pass timings behind the medians.

mod common;
mod fl;
mod pipe;
mod store;

use common::{Args, Outcome, Scratch};

/// End-to-end metrics every workload reports with `--trace 0` (peak
/// memory is measured from outside the process by `run.py`).
const END_TO_END: &[&[&str]] = &[&["setup_s", "run_s", "items_per_s"]];

/// Orders `out.metrics` as `required`. A required metric that is
/// missing, one that was not required, or a value that is not finite
/// fails the run. Names and units are checked against `BENCHMARK.json`
/// by `run.py`, which also fills in the layers a workload does not run.
fn conform(out: &mut Outcome, required: &[&[&str]]) {
    let mut metrics = Vec::new();
    for &name in required.iter().copied().flatten() {
        match out.metrics.iter().position(|m| m.0 == name) {
            Some(i) => {
                let m = out.metrics.swap_remove(i);
                if !m.1.is_finite() {
                    out.failures.push(format!("metric {name} is {}", m.1));
                } else {
                    metrics.push(m);
                }
            }
            None => out.failures.push(format!("metric {name} was not measured")),
        }
    }
    for (name, ..) in out.metrics.drain(..) {
        out.failures
            .push(format!("metric {name} is not one this workload reports"));
    }
    out.metrics = metrics;
}

fn result_line(out: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    // `trace` tells run.py which schema the metrics follow; it drops
    // the key before printing the result.
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"trace\": {trace}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ecofl-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let kernel_path = common::kernel_path();
    let mut scratch = match Scratch::new(&args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ecofl-perfbench: scratch directory: {e}");
            std::process::exit(1);
        }
    };
    let mut out = match args.workload.as_str() {
        "fl-paper" => fl::paper(&args),
        "pipe-1f1b" => pipe::run(&args, &mut scratch),
        "store-trace" => store::run(&args, &mut scratch),
        other => {
            eprintln!("ecofl-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    drop(scratch);
    if out.attempted == 0 {
        out.attempted = 1;
        out.failed = 1;
    }
    if args.trace {
        let layers = match args.workload.as_str() {
            "fl-paper" => fl::PAPER_LAYERS,
            "pipe-1f1b" => pipe::LAYERS,
            _ => store::LAYERS,
        };
        conform(&mut out, layers);
    } else {
        conform(&mut out, END_TO_END);
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "# run: workload={} seed={} seconds={} trace={} nproc={nproc} ECOFL_THREADS={} kernel_path={kernel_path} attempted={} failed={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("ECOFL_THREADS").unwrap_or_else(|_| "unset".into()),
        out.attempted,
        out.failed,
    );
    for line in &out.outcomes {
        println!("# outcome: {line}");
    }
    for line in &out.samples {
        println!("# samples: {line}");
    }
    for (name, value, unit) in &out.metrics {
        println!("# metric: {name} = {value} {unit}");
    }
    for f in &out.failures {
        eprintln!("ecofl-perfbench: check failed: {f}");
    }
    println!("{}", result_line(&out, args.trace));
}
