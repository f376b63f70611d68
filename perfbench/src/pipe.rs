//! `pipe-1f1b`: the real threaded 1F1B-Sync runtime.
//!
//! A 256-wide MLP is split across two stage threads. Every pass launches
//! a supervised `PipelineTrainer` whose checkpoints persist to a fresh
//! `RunStore`, trains `ROUNDS` sync-rounds of `MICRO` micro-batches, and
//! restarts the pipeline through `PipelineTrainer::recover` every
//! `RESTART_EVERY` rounds, as §4.4's migration does. The benchmark's own
//! single-device gradient accumulation over the same batches is the
//! reference the final parameters must equal bit for bit.

use crate::common::{
    dir_bytes, median, quantile, timed, Args, Outcome, Scratch, TENSOR_LAYERS, WHOLE_RUN_LAYERS,
};
use ecofl_core::prelude::*;
use ecofl_obs::MetricsSnapshot;
use ecofl_tensor::{Layer, Linear, ReLU};
use std::path::Path;
use std::time::Instant;

/// Layer widths: input → hidden × 3 → classes.
const WIDTHS: [usize; 5] = [64, 256, 256, 256, 10];
/// Layers on stage 0 (the rest run on stage 1).
const STAGE0_LAYERS: usize = 4;
/// Micro-batches per sync-round and rows per micro-batch.
const MICRO: usize = 8;
const ROWS: usize = 32;
/// Sync-rounds per pass and the restart interval.
const ROUNDS: usize = 40;
const RESTART_EVERY: usize = 10;
const LR: f32 = 0.05;
/// Largest per-round loss difference from the reference.
const LOSS_TOL: f32 = 1e-5;
/// Operations of one pass, which stand or fall together: its sync-rounds
/// and its restarts.
const PASS_OPS: u64 = (ROUNDS + ROUNDS / RESTART_EVERY) as u64;

/// Layer metrics pipe-1f1b reports with `--trace 1`.
pub const LAYERS: &[&[&str]] = &[
    &[
        "pipeline.launch_s",
        "rt.fwd_compute_s",
        "rt.bwd_compute_s",
        "rt.recv_wait_s",
        "rt.checkpoint_s",
        "rt.checkpoints",
        "rt.restore_s",
        "rt.restores",
        "rt.fwd_bytes",
        "rt.bwd_bytes",
        "pipe.round_p50_ms",
        "pipe.round_p95_ms",
        "pipe.restart_ms",
        "store.raw_bytes",
        "store.bytes_written",
        "store.compression",
        "store.disk_mb",
    ],
    TENSOR_LAYERS,
    WHOLE_RUN_LAYERS,
];

type Batches = Vec<Vec<(Tensor, Vec<usize>)>>;

fn layers(seed: u64) -> Vec<Box<dyn Layer>> {
    let mut rng = Rng::new(seed ^ 0x1F1B);
    let mut out: Vec<Box<dyn Layer>> = Vec::new();
    for (i, w) in WIDTHS.windows(2).enumerate() {
        if i > 0 {
            out.push(Box::new(ReLU::new()));
        }
        out.push(Box::new(Linear::new(w[0], w[1], &mut rng)));
    }
    out
}

fn segments(seed: u64) -> Vec<Vec<Box<dyn Layer>>> {
    let mut all = layers(seed);
    let tail = all.split_off(STAGE0_LAYERS);
    vec![all, tail]
}

/// The inputs: `ROUNDS` rounds of `MICRO` labelled micro-batches.
fn batches(seed: u64) -> Batches {
    let mut rng = Rng::new(seed ^ 0xDA7A);
    (0..ROUNDS)
        .map(|_| {
            (0..MICRO)
                .map(|_| {
                    let x = Tensor::randn(&[ROWS, WIDTHS[0]], 1.0, &mut rng);
                    let y = (0..ROWS).map(|_| rng.range_usize(0, WIDTHS[4])).collect();
                    (x, y)
                })
                .collect()
        })
        .collect()
}

/// Single-device gradient accumulation over the same batches: SGD with
/// gradients scaled by 1/M. Returns each round's mean loss and the final
/// parameters.
fn reference(seed: u64, data: &Batches) -> (Vec<f32>, Vec<f32>) {
    let mut net = Network::new(layers(seed));
    let mut losses = Vec::with_capacity(data.len());
    for round in data {
        net.zero_grads();
        let loss: f32 = round.iter().map(|(x, y)| net.train_step(x, y)).sum();
        losses.push(loss / round.len() as f32);
        let mut params = net.params();
        let scale = 1.0 / round.len() as f32;
        for (p, g) in params.iter_mut().zip(net.grads()) {
            *p -= LR * g * scale;
        }
        net.set_params(&params);
    }
    (losses, net.params())
}

/// The pipeline's outputs against the reference.
pub fn check_pass(
    losses: &[f32],
    params: &[f32],
    stored: &[f32],
    want_losses: &[f32],
    want_params: &[f32],
) -> Result<(), String> {
    if losses.len() != want_losses.len() {
        return Err(format!(
            "{} round losses, expected {}",
            losses.len(),
            want_losses.len()
        ));
    }
    for (r, (a, b)) in losses.iter().zip(want_losses).enumerate() {
        // Written so that a NaN loss fails the check.
        let close = (a - b).abs() < LOSS_TOL;
        if !close {
            return Err(format!("round {r} loss {a} differs from the reference {b}"));
        }
    }
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(params) != bits(want_params) {
        return Err("final parameters differ from single-device accumulation".into());
    }
    if bits(stored) != bits(params) {
        return Err("the newest stored checkpoint does not decode to the final parameters".into());
    }
    Ok(())
}

/// What one pass produced.
struct Pass {
    launch_s: f64,
    run_s: f64,
    round_s: Vec<f64>,
    restart_s: Vec<f64>,
    losses: Vec<f32>,
    params: Vec<f32>,
    stored: Vec<f32>,
    checkpoints: usize,
    raw_bytes: u64,
    written_bytes: u64,
    disk_bytes: u64,
    comm: (u64, u64),
    hub: Option<MetricsSnapshot>,
}

/// Launches, trains and restarts one pipeline on a fresh store. With
/// `verify_restarts`, parameters are collected around every restart and
/// must not change.
fn pass(
    seed: u64,
    data: &Batches,
    dir: &Path,
    hub: Option<MetricsHub>,
    verify_restarts: bool,
) -> Result<Pass, String> {
    let opts = RuntimeOptions {
        store_path: Some(dir.to_path_buf()),
        metrics: hub.clone(),
        ..RuntimeOptions::default()
    };
    let (trainer, launch_s) = timed(|| {
        PipelineTrainer::launch_supervised(Box::new(move || segments(seed)), vec![2, 1], opts)
    });
    let mut trainer = trainer.map_err(|e| format!("launch: {e}"))?;
    let mut round_s = Vec::with_capacity(ROUNDS);
    let mut restart_s = Vec::new();
    let mut losses = Vec::with_capacity(ROUNDS);
    let t0 = Instant::now();
    for (r, micro) in data.iter().enumerate() {
        let (loss, s) = timed(|| trainer.train_round(micro, LR));
        losses.push(loss.map_err(|e| format!("round {r}: {e}"))?);
        round_s.push(s);
        if (r + 1) % RESTART_EVERY == 0 {
            let before = if verify_restarts {
                Some(trainer.params().map_err(|e| e.to_string())?)
            } else {
                None
            };
            let (res, s) = timed(|| trainer.recover());
            res.map_err(|e| format!("restart after round {r}: {e}"))?;
            restart_s.push(s);
            if let Some(before) = before {
                if trainer.params().map_err(|e| e.to_string())? != before {
                    return Err(format!(
                        "the restart after round {r} changed the parameters"
                    ));
                }
            }
        }
    }
    let run_s = t0.elapsed().as_secs_f64();
    let params = trainer.params().map_err(|e| format!("collect: {e}"))?;
    let comm = trainer.comm_stats();
    trainer.shutdown();
    let stored = load_latest_checkpoint(dir)
        .map_err(|e| e.to_string())?
        .ok_or("the store holds no checkpoint")?
        .params;
    let checkpoints = stored_checkpoints(dir).map_err(|e| e.to_string())?.len();
    let store = RunStore::open(dir).map_err(|e| e.to_string())?;
    let segs = store.segments();
    Ok(Pass {
        launch_s,
        run_s,
        round_s,
        restart_s,
        losses,
        params,
        stored,
        checkpoints,
        raw_bytes: segs.iter().map(|s| s.raw_bytes).sum(),
        written_bytes: segs.iter().map(|s| s.compressed_bytes).sum(),
        disk_bytes: dir_bytes(dir),
        comm: (comm.0.iter().sum(), comm.1.iter().sum()),
        hub: hub.map(|h| h.snapshot(0)),
    })
}

pub fn run(args: &Args, scratch: &mut Scratch) -> Outcome {
    let mut out = Outcome::default();
    let data = batches(args.seed);
    let (want_losses, want_params) = reference(args.seed, &data);

    // One verification pass, untimed: restarts must not move parameters.
    let dir = scratch.fresh("pipe");
    match pass(args.seed, &data, &dir, None, true) {
        Ok(p) => {
            let stored_all = if p.checkpoints == ROUNDS + 1 {
                Ok(())
            } else {
                Err(format!(
                    "{} stored checkpoints, expected {}",
                    p.checkpoints,
                    ROUNDS + 1
                ))
            };
            out.ops(
                PASS_OPS,
                check_pass(&p.losses, &p.params, &p.stored, &want_losses, &want_params)
                    .and(stored_all),
            );
            let mut flipped = p.params.clone();
            let mid = flipped.len() / 2;
            flipped[mid] = f32::from_bits(flipped[mid].to_bits() ^ 1);
            out.expect_rejected(
                "final parameters with one flipped bit",
                check_pass(&p.losses, &flipped, &flipped, &want_losses, &want_params),
            );
            out.outcome(format!(
                "pipe-1f1b: final_loss={} checkpoints={}",
                p.losses.last().copied().unwrap_or(f32::NAN),
                p.checkpoints
            ));
        }
        Err(e) => out.ops(PASS_OPS, Err(e)),
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut measure = |share: f64, hub: bool, into: &mut Vec<Pass>, out: &mut Outcome| {
        if hub {
            ecofl_tensor::reset_kernel_stats();
            ecofl_tensor::set_kernel_stats_enabled(true);
        }
        let deadline = args.deadline(share);
        while into.len() < 3 || Instant::now() < deadline {
            let dir = scratch.fresh("pipe");
            match pass(args.seed, &data, &dir, hub.then(MetricsHub::new), false) {
                Ok(mut p) => {
                    out.ops(
                        PASS_OPS,
                        check_pass(&p.losses, &p.params, &p.stored, &want_losses, &want_params),
                    );
                    // Checked: keep only the timings, so the benchmark's
                    // own memory does not grow with the pass count.
                    p.params = Vec::new();
                    p.stored = Vec::new();
                    into.push(p);
                }
                Err(e) => {
                    out.ops(PASS_OPS, Err(e));
                    break;
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        ecofl_tensor::set_kernel_stats_enabled(false);
    };
    measure(
        if args.trace { 0.5 } else { 1.0 },
        false,
        &mut plain,
        &mut out,
    );
    if plain.is_empty() {
        return out;
    }
    let mut runs: Vec<f64> = plain.iter().map(|p| p.run_s).collect();
    out.samples("run_s", &runs);
    let run_s = median(&mut runs);
    if !args.trace {
        let mut launches: Vec<f64> = plain.iter().map(|p| p.launch_s).collect();
        out.metric("setup_s", median(&mut launches), "s");
        out.metric("run_s", run_s, "s");
        out.metric("items_per_s", (ROUNDS * MICRO * ROWS) as f64 / run_s, "1/s");
        return out;
    }

    measure(1.0, true, &mut traced, &mut out);
    if traced.is_empty() {
        return out;
    }
    let n = traced.len() as f64;
    let mean = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(f).sum::<f64>() / n;
    let mut launches: Vec<f64> = traced.iter().map(|p| p.launch_s).collect();
    let mut rounds: Vec<f64> = traced.iter().flat_map(|p| p.round_s.clone()).collect();
    let mut restarts: Vec<f64> = traced.iter().flat_map(|p| p.restart_s.clone()).collect();
    out.metric("pipeline.launch_s", median(&mut launches), "s");
    // The runtime's own series, averaged per pass; a series the runtime
    // did not record is left out, which fails the metric check.
    let series = [
        ("rt.fwd_compute_s", "rt_fwd_compute_ns", "s"),
        ("rt.bwd_compute_s", "rt_bwd_compute_ns", "s"),
        ("rt.recv_wait_s", "rt_recv_wait_ns", "s"),
        ("rt.checkpoint_s", "rt_checkpoint_ns", "s"),
        ("rt.checkpoints", "rt_checkpoints", "count"),
        ("rt.restore_s", "rt_restore_ns", "s"),
        ("rt.restores", "rt_restores", "count"),
    ];
    for (metric, name, unit) in series {
        let per_pass = traced.iter().map(|p| {
            let snap = p.hub.as_ref()?;
            if unit == "count" {
                snap.counter(name).map(|c| c as f64)
            } else {
                snap.histogram(name).map(|h| h.sum * 1e-9)
            }
        });
        if let Some(sum) = per_pass.sum::<Option<f64>>() {
            out.metric(metric, sum / n, unit);
        }
    }
    out.metric("rt.fwd_bytes", mean(&|p| p.comm.0 as f64), "bytes");
    out.metric("rt.bwd_bytes", mean(&|p| p.comm.1 as f64), "bytes");
    out.metric("pipe.round_p50_ms", median(&mut rounds) * 1e3, "ms");
    out.metric("pipe.round_p95_ms", quantile(&mut rounds, 0.95) * 1e3, "ms");
    out.metric("pipe.restart_ms", median(&mut restarts) * 1e3, "ms");
    let raw = mean(&|p| p.raw_bytes as f64);
    let written = mean(&|p| p.written_bytes as f64);
    out.metric("store.raw_bytes", raw, "bytes");
    out.metric("store.bytes_written", written, "bytes");
    out.metric("store.compression", raw / written, "ratio");
    out.metric("store.disk_mb", mean(&|p| p.disk_bytes as f64) / 1e6, "MB");
    crate::common::kernel_metrics(&mut out, n);
    let spans = mean(&|p| p.round_s.iter().chain(&p.restart_s).sum::<f64>());
    out.metric("unattributed_s", mean(&|p| p.run_s) - spans, "s");
    let mut traced_runs: Vec<f64> = traced.iter().map(|p| p.run_s).collect();
    crate::common::trace_ratio(&mut out, median(&mut traced_runs), run_s);
    out
}
