//! The federated-learning workload, `fl-paper`: the §6 population of 300
//! smart homes, planned and run through `EcoFlSystem`.
//!
//! It re-drives its setup through `Scheduler::drive` with a [`Probe`]
//! wrapped around the strategy object, which observes every cohort from
//! outside the program. The probe-driven run must reproduce the plain
//! run's `RunResult` bit for bit.

use crate::common::{
    median, quantile, repeat_setup, timed, Args, Outcome, TENSOR_LAYERS, WHOLE_RUN_LAYERS,
};
use ecofl_core::prelude::*;
use ecofl_fl::sched::{Cohort, HorizonPolicy};
use ecofl_obs::{Domain, EventKind, TraceRecord, Tracer};
use std::time::Instant;

/// Chance accuracy of the ten-class tasks.
const CHANCE: f64 = 0.1;
/// Best accuracy must clear chance by this margin.
const MARGIN: f64 = 0.15;
/// The accuracy whose virtual time-to-reach is printed.
const TARGET_ACC: f64 = 0.3;
/// Eco-FL with Algorithm 1 dynamic re-grouping.
const STRATEGY: Strategy = Strategy::EcoFl {
    dynamic_grouping: true,
};

/// fl-paper: horizon in virtual seconds.
const PAPER_HORIZON: f64 = 3_000.0;
/// fl-paper: FL clients the home templates are replicated to.
const PAPER_CLIENTS: usize = 300;

/// Layer metrics the FL workload reports with `--trace 1`.
const FL_LAYERS: &[&str] = &[
    "data.generate_s",
    "fl.begin_s",
    "fl.cohorts",
    "fl.cohort_s",
    "fl.cohort_p50_ms",
    "fl.cohort_p95_ms",
    "fl.drive_other_s",
    "fl.clients_trained",
    "fl.regroups",
    "fl.dropped_final",
];
pub const PAPER_LAYERS: &[&[&str]] = &[
    FL_LAYERS,
    &["pipeline.plan_s"],
    TENSOR_LAYERS,
    WHOLE_RUN_LAYERS,
];

/// Smart-home templates from Table-1 devices.
fn home_templates() -> Vec<SmartHome> {
    let home = |name: &str, devices: Vec<DeviceSpec>| SmartHome::new(name, devices);
    vec![
        home(
            "tx2n+tx2q+nanoh+nanol",
            vec![tx2_n(), tx2_q(), nano_h(), nano_l()],
        ),
        home("tx2n+nanoh+nanol", vec![tx2_n(), nano_h(), nano_l()]),
        home("tx2q+nanoh", vec![tx2_q(), nano_h()]),
        home("nanoh+nanol", vec![nano_h(), nano_l()]),
        home("tx2n", vec![tx2_n()]),
    ]
}

fn paper_config() -> FlConfig {
    FlConfig {
        num_clients: PAPER_CLIENTS,
        clients_per_round: 20,
        num_groups: 5,
        horizon: PAPER_HORIZON,
        eval_interval: PAPER_HORIZON / 100.0,
        ..FlConfig::default()
    }
}

fn paper_builder(seed: u64) -> EcoFlSystemBuilder {
    EcoFlSystem::builder()
        .homes(home_templates())
        .replicate_homes(PAPER_CLIENTS)
        .fl_config(paper_config())
        .dataset(SyntheticSpec::cifar_like())
        .partition(PartitionScheme::ClassesPerClient(2))
        .samples_per_client(60)
        .test_per_class(50)
        .strategy(STRATEGY)
        .seed(seed)
}

/// Rebuilds the `FlSetup` an `EcoFlSystem` run drove, from its report:
/// the data it generated and the pipeline-derived client delays.
fn paper_setup(seed: u64, report: &EcoFlReport) -> (FlSetup, f64) {
    let n = report.client_delays.len();
    let (data, gen_s) = timed(|| {
        FederatedDataset::generate(
            &SyntheticSpec::cifar_like(),
            n,
            60,
            50,
            PartitionScheme::ClassesPerClient(2),
            None,
            seed,
        )
    });
    let config = FlConfig {
        num_clients: n,
        base_delay_override: Some(report.client_delays.clone()),
        seed,
        ..paper_config()
    };
    let setup = FlSetup {
        data,
        arch: ModelArch::Mlp,
        config,
    };
    (setup, gen_s)
}

/// Wraps a strategy object and observes, from outside the program,
/// every call `Scheduler::drive` makes into it.
pub struct Probe {
    inner: Box<dyn AggregationStrategy>,
    /// Reads the drop-out pool `Grouper::initial` left (a full
    /// membership scan, so off in timed runs).
    verify: bool,
    drive_start: Instant,
    /// Drive entry to the end of `begin`: latency model, first
    /// evaluation, `Grouper::initial` and the first dispatch.
    pub begin_s: f64,
    /// Wall seconds of each `on_cohort` call.
    pub cohort_s: Vec<f64>,
    pub nonempty_cohorts: u64,
    pub clients_trained: u64,
    /// Client samples × local epochs over every local training.
    pub samples: u64,
    /// The drop-out pool at the end of `begin`, when verifying.
    pub initial_pool: usize,
    pub population: usize,
}

impl Probe {
    pub fn new(strategy: Strategy, verify: bool) -> Probe {
        Probe {
            inner: strategy_object(strategy),
            verify,
            drive_start: Instant::now(),
            begin_s: 0.0,
            cohort_s: Vec::new(),
            nonempty_cohorts: 0,
            clients_trained: 0,
            samples: 0,
            initial_pool: 0,
            population: 0,
        }
    }

    /// Drives `setup` through the scheduler; returns the result and the
    /// wall seconds of the whole drive.
    pub fn drive(&mut self, setup: &FlSetup, tracer: Option<&Tracer>) -> (RunResult, f64) {
        self.drive_start = Instant::now();
        let r = Scheduler::drive(setup, tracer, self);
        (r, self.drive_start.elapsed().as_secs_f64())
    }
}

impl AggregationStrategy for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn seed_salt(&self) -> u64 {
        self.inner.seed_salt()
    }

    fn horizon_policy(&self) -> HorizonPolicy {
        self.inner.horizon_policy()
    }

    fn initial_eval_mark(&self) -> f64 {
        self.inner.initial_eval_mark()
    }

    fn begin(&mut self, sched: &mut Scheduler<'_>) {
        self.population = sched.config().num_clients;
        self.inner.begin(sched);
        self.begin_s = self.drive_start.elapsed().as_secs_f64();
        if self.verify {
            self.initial_pool = self.inner.dropped_final();
        }
    }

    fn on_cohort(&mut self, sched: &mut Scheduler<'_>, t: f64, cohort: Cohort) {
        let members = cohort.members.len() as u64;
        if members > 0 {
            let epochs = sched.config().local_epochs as u64;
            let data = &sched.setup().data;
            self.samples += cohort
                .members
                .iter()
                .map(|&c| data.client(c).len() as u64 * epochs)
                .sum::<u64>();
            self.nonempty_cohorts += 1;
            self.clients_trained += members;
        }
        let t0 = Instant::now();
        self.inner.on_cohort(sched, t, cohort);
        self.cohort_s.push(t0.elapsed().as_secs_f64());
    }

    fn regroup_events(&self) -> u64 {
        self.inner.regroup_events()
    }

    fn dropped_final(&self) -> usize {
        self.inner.dropped_final()
    }
}

/// Bit-exact equality of two run results.
pub fn same_result(a: &RunResult, b: &RunResult) -> Result<(), String> {
    let bits = |v: &[(f64, f64)]| -> Vec<(u64, u64)> {
        v.iter().map(|(t, x)| (t.to_bits(), x.to_bits())).collect()
    };
    let recall = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    let same = a.strategy == b.strategy
        && bits(a.accuracy.points()) == bits(b.accuracy.points())
        && a.final_accuracy.to_bits() == b.final_accuracy.to_bits()
        && a.best_accuracy.to_bits() == b.best_accuracy.to_bits()
        && a.global_updates == b.global_updates
        && a.regroup_events == b.regroup_events
        && a.dropped_final == b.dropped_final
        && recall(&a.final_recall) == recall(&b.final_recall);
    if same {
        Ok(())
    } else {
        Err(format!(
            "run results differ: {} updates / {} regroups / final {} vs {} / {} / {}",
            a.global_updates,
            a.regroup_events,
            a.final_accuracy,
            b.global_updates,
            b.regroup_events,
            b.final_accuracy
        ))
    }
}

/// The regroup events (moved, dropped, rejoined) a traced drive
/// recorded, in order.
pub fn regroup_events(records: &[TraceRecord]) -> Vec<EventKind> {
    records
        .iter()
        .filter_map(|rec| match rec {
            TraceRecord::Event(e) if e.domain == Domain::Grouping => Some(e.kind),
            _ => None,
        })
        .collect()
}

/// What the method guarantees of a finished FL run, given what the probe
/// observed while driving it and the regroup events it traced.
pub fn check_run(
    r: &RunResult,
    probe: &Probe,
    regroups: &[EventKind],
    horizon: f64,
) -> Result<(), String> {
    let pts = r.accuracy.points();
    let Some(&(_, initial)) = pts.first() else {
        return Err("no accuracy samples".into());
    };
    for &(t, acc) in pts {
        if !(0.0..=1.0).contains(&acc) || !(0.0..=horizon).contains(&t) {
            return Err(format!(
                "accuracy sample ({t}, {acc}) outside [0,1] x [0,{horizon}]"
            ));
        }
    }
    if !(r.best_accuracy > initial && r.best_accuracy >= CHANCE + MARGIN) {
        return Err(format!(
            "accuracy did not rise from {initial:.3} to chance + {MARGIN} (best {:.3})",
            r.best_accuracy
        ));
    }
    if r.global_updates != probe.nonempty_cohorts {
        return Err(format!(
            "{} global updates but {} non-empty cohorts observed",
            r.global_updates, probe.nonempty_cohorts
        ));
    }
    if r.regroup_events != regroups.len() as u64 {
        return Err(format!(
            "{} regroups counted but {} regroup events traced",
            r.regroup_events,
            regroups.len()
        ));
    }
    // The pool Grouper::initial left, plus drops, minus rejoins: it must
    // stay within the population all along and end at the pool reported.
    let mut pool = probe.initial_pool as i64;
    for (i, kind) in regroups.iter().enumerate() {
        match kind {
            EventKind::RegroupDropped => pool += 1,
            EventKind::RegroupRejoined => pool -= 1,
            _ => {}
        }
        if !(0..=probe.population as i64).contains(&pool) {
            return Err(format!(
                "after regroup event {i} the drop-out pool holds {pool} of {} clients",
                probe.population
            ));
        }
    }
    if pool != r.dropped_final as i64 {
        return Err(format!(
            "drops and rejoins leave a pool of {pool}, the run reports {}",
            r.dropped_final
        ));
    }
    Ok(())
}

/// The simulated outcomes of a run, printed for exact diffs.
fn outcome_line(workload: &str, r: &RunResult) -> String {
    let tta = r
        .accuracy
        .time_to_reach(TARGET_ACC)
        .map_or("never".to_string(), |t| format!("{t}"));
    format!(
        "{workload}: final_accuracy={} best_accuracy={} virtual_s_to_{TARGET_ACC}={tta} \
         global_updates={} regroups={} dropped_final={}",
        r.final_accuracy, r.best_accuracy, r.global_updates, r.regroup_events, r.dropped_final
    )
}

/// The verification drive, traced: checks what the method guarantees,
/// and that the result equals `expect`, then self-tests the checker.
fn verify(out: &mut Outcome, setup: &FlSetup, expect: &RunResult) -> Probe {
    let tracer = Tracer::new();
    let mut probe = Probe::new(STRATEGY, true);
    let (r, _) = probe.drive(setup, Some(&tracer));
    let regroups = regroup_events(&tracer.records());
    let horizon = setup.config.horizon;
    out.ops(
        1,
        check_run(&r, &probe, &regroups, horizon).and_then(|()| same_result(&r, expect)),
    );
    let mut wrong = r.clone();
    wrong.global_updates += 1;
    out.expect_rejected(
        "an update tally that disagrees with the observed cohorts",
        check_run(&wrong, &probe, &regroups, horizon),
    );
    let mut wrong = r.clone();
    wrong.dropped_final += 1;
    out.expect_rejected(
        "a drop-out pool that disagrees with the traced drops and rejoins",
        check_run(&wrong, &probe, &regroups, horizon),
    );
    probe
}

/// Per-layer metrics of the traced passes, averaged per pass.
#[derive(Default)]
struct Layers {
    /// Wall seconds of each traced pass.
    pass_s: Vec<f64>,
    generate_s: f64,
    drive_s: f64,
    begin_s: f64,
    cohort_s: Vec<f64>,
    clients_trained: f64,
    regroups: f64,
    dropped_final: f64,
}

impl Layers {
    /// Adds the drive of one pass.
    fn add(&mut self, generate_s: f64, drive_s: f64, probe: &Probe, r: &RunResult) {
        self.generate_s += generate_s;
        self.drive_s += drive_s;
        self.begin_s += probe.begin_s;
        self.cohort_s.extend_from_slice(&probe.cohort_s);
        self.clients_trained += probe.clients_trained as f64;
        self.regroups += r.regroup_events as f64;
        self.dropped_final += r.dropped_final as f64;
    }

    fn report(mut self, out: &mut Outcome, plan_s: f64, untraced_run_s: f64) {
        let p = self.pass_s.len() as f64;
        let wall_s: f64 = self.pass_s.iter().sum();
        let cohorts = self.cohort_s.len() as f64;
        let cohort_total: f64 = self.cohort_s.iter().sum();
        out.metric("data.generate_s", self.generate_s / p, "s");
        out.metric("pipeline.plan_s", plan_s, "s");
        out.metric("fl.begin_s", self.begin_s / p, "s");
        out.metric("fl.cohorts", cohorts / p, "count");
        out.metric("fl.cohort_s", cohort_total / p, "s");
        out.metric("fl.cohort_p50_ms", median(&mut self.cohort_s) * 1e3, "ms");
        out.metric(
            "fl.cohort_p95_ms",
            quantile(&mut self.cohort_s, 0.95) * 1e3,
            "ms",
        );
        out.metric(
            "fl.drive_other_s",
            (self.drive_s - self.begin_s - cohort_total) / p,
            "s",
        );
        out.metric("fl.clients_trained", self.clients_trained / p, "count");
        out.metric("fl.regroups", self.regroups / p, "count");
        out.metric("fl.dropped_final", self.dropped_final / p, "count");
        crate::common::kernel_metrics(out, p);
        out.metric(
            "unattributed_s",
            (wall_s - self.generate_s - self.drive_s) / p,
            "s",
        );
        crate::common::trace_ratio(out, median(&mut self.pass_s), untraced_run_s);
    }
}

pub fn paper(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (built, setup_s) = repeat_setup(|| paper_builder(args.seed).build());
    let system = match built {
        Ok(sys) => sys,
        Err(e) => {
            out.ops(1, Err(format!("EcoFlSystem build failed: {e}")));
            return out;
        }
    };

    // The first pass is untimed: it warms caches, the allocator and the
    // thread pool, and its report, checked by the verification drive, is
    // the reference every later pass must reproduce.
    let report = system.run();
    let (setup, _) = paper_setup(args.seed, &report);
    let probe = verify(&mut out, &setup, &report.fl);
    out.outcome(outcome_line("fl-paper", &report.fl));

    // Untraced passes; in a traced run they take the first half of the
    // window and give the overhead's base.
    let deadline = args.deadline(if args.trace { 0.5 } else { 1.0 });
    let mut run_s = Vec::new();
    while run_s.len() < 2 || Instant::now() < deadline {
        let (r, s) = timed(|| system.run());
        run_s.push(s);
        out.ops(1, same_result(&r.fl, &report.fl));
    }
    out.samples("run_s", &run_s);
    let untraced_run_s = median(&mut run_s);

    if !args.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("run_s", untraced_run_s, "s");
        out.metric("items_per_s", probe.samples as f64 / untraced_run_s, "1/s");
        return out;
    }

    ecofl_tensor::reset_kernel_stats();
    ecofl_tensor::set_kernel_stats_enabled(true);
    let deadline = args.deadline(0.5);
    let mut layers = Layers::default();
    while layers.pass_s.len() < 2 || Instant::now() < deadline {
        let t0 = Instant::now();
        let (setup, gen_s) = paper_setup(args.seed, &report);
        let mut probe = Probe::new(STRATEGY, false);
        let (r, drive_s) = probe.drive(&setup, None);
        layers.pass_s.push(t0.elapsed().as_secs_f64());
        out.ops(1, same_result(&r, &report.fl));
        layers.add(gen_s, drive_s, &probe, &r);
    }
    ecofl_tensor::set_kernel_stats_enabled(false);
    layers.report(&mut out, setup_s, untraced_run_s);
    out
}
