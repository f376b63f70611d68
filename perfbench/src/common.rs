//! Shared plumbing: arguments, timing statistics, the result line, and
//! the per-run scratch directory.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Command-line arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }

    /// The end of a window that is `share` of the measured seconds,
    /// starting now.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Metrics in print order: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Simulated outcomes, printed beside the metrics for exact diffs.
    pub outcomes: Vec<String>,
    /// Raw per-pass timings behind the reported medians.
    pub samples: Vec<String>,
    /// Check failures; any entry makes the run incorrect.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn outcome(&mut self, line: String) {
        self.outcomes.push(line);
    }

    pub fn samples(&mut self, name: &str, values: &[f64]) {
        let values: Vec<String> = values.iter().map(f64::to_string).collect();
        self.samples.push(format!("{name} {}", values.join(" ")));
    }

    /// Records a failed check unless `ok`; for checks that belong to no
    /// single operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records `n` attempted operations that stand or fall together:
    /// when `res` is an error (the operations failed, or their output
    /// failed its check), all `n` count as failed.
    pub fn ops(&mut self, n: u64, res: Result<(), String>) {
        self.attempted += n;
        if let Err(e) = res {
            self.failed += n;
            self.failures.push(e);
        }
    }

    /// Records a checker self-test: `res` is the checker's verdict on a
    /// deliberately wrong output and must be a rejection.
    pub fn expect_rejected(&mut self, what: &str, res: Result<(), String>) {
        if res.is_ok() {
            self.failures
                .push(format!("self-test: the check accepted {what}"));
        }
    }
}

/// Median of `v` (sorted in place); NaN when empty.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank `q`-quantile of `v` (sorted in place); NaN when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Wall seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Runs `setup` at least `SETUP_MIN_REPS` times and until
/// `SETUP_MIN_SECONDS` have passed; returns the last result and the
/// median wall seconds. Each result is dropped before the next set-up,
/// so peak memory holds one.
pub fn repeat_setup<R>(mut setup: impl FnMut() -> R) -> (R, f64) {
    const SETUP_MIN_REPS: usize = 5;
    const SETUP_MIN_SECONDS: f64 = 1.0;
    const SETUP_MAX_REPS: usize = 20_000;
    let t0 = Instant::now();
    let mut secs = Vec::new();
    loop {
        let (r, s) = timed(&mut setup);
        secs.push(s);
        let enough =
            secs.len() >= SETUP_MIN_REPS && t0.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS;
        if enough || secs.len() >= SETUP_MAX_REPS {
            return (r, median(&mut secs));
        }
    }
}

/// A scratch directory under the working directory, removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: u64,
}

impl Scratch {
    pub fn new(workload: &str) -> std::io::Result<Scratch> {
        let root = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A fresh, not yet existing path inside the scratch directory.
    pub fn fresh(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{tag}-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Removed only when no other run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The per-layer metrics of the tensor kernels a CPU MLP calls.
pub const TENSOR_LAYERS: &[&str] = &[
    "tensor.gemm.calls",
    "tensor.gemm.cpu_s",
    "tensor.gemm_tn.calls",
    "tensor.gemm_tn.cpu_s",
    "tensor.gemm_nt.calls",
    "tensor.gemm_nt.cpu_s",
];

/// The per-layer metrics of the whole run, which every workload reports.
pub const WHOLE_RUN_LAYERS: &[&str] = &[
    "unattributed_s",
    "trace.run_s",
    "trace.untraced_run_s",
    "trace.overhead",
];

/// Per-kernel calls and CPU seconds from `ecofl_tensor::kernel_stats`,
/// summed over ISA paths, for the kernels a CPU MLP calls.
pub fn kernel_metrics(out: &mut Outcome, passes: f64) {
    let stats = ecofl_tensor::kernel_stats();
    for kernel in ["gemm", "gemm_tn", "gemm_nt"] {
        let (calls, nanos) = stats
            .iter()
            .filter(|s| s.kernel == kernel)
            .fold((0u64, 0u64), |(c, n), s| (c + s.calls, n + s.nanos));
        // A kernel that never ran reports nothing, so that a workload
        // whose GEMMs went missing fails its metric check.
        if calls == 0 {
            continue;
        }
        out.metric(
            &format!("tensor.{kernel}.calls"),
            calls as f64 / passes,
            "count",
        );
        out.metric(
            &format!("tensor.{kernel}.cpu_s"),
            nanos as f64 * 1e-9 / passes,
            "s",
        );
    }
}

/// The ISA path the tensor kernels dispatch to, found by timing one
/// small product with kernel statistics switched on.
pub fn kernel_path() -> &'static str {
    let was_on = ecofl_tensor::kernel_stats_enabled();
    ecofl_tensor::set_kernel_stats_enabled(true);
    let a = ecofl_tensor::Tensor::full(&[4, 4], 1.0);
    std::hint::black_box(a.matmul(&a));
    let path = ecofl_tensor::kernel_stats()
        .first()
        .map_or("unknown", |s| s.path);
    ecofl_tensor::reset_kernel_stats();
    ecofl_tensor::set_kernel_stats_enabled(was_on);
    path
}

/// Prints the traced and untraced run times and their ratio.
pub fn trace_ratio(out: &mut Outcome, traced_s: f64, untraced_s: f64) {
    out.metric("trace.run_s", traced_s, "s");
    out.metric("trace.untraced_run_s", untraced_s, "s");
    out.metric("trace.overhead", traced_s / untraced_s, "ratio");
}
