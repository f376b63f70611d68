//! `store-trace`: the run store's write and read paths.
//!
//! A seeded synthetic trace shaped like a pipeline-plus-FL run (spans,
//! events, counters and gauges across the four domains, in round order)
//! is appended through `RunStore`, sealed and reopened; then a seeded mix
//! of pruned `TraceQuery`s and full scans runs against it. Every query is
//! checked against the benchmark's own filter over the generated records.

use crate::common::{
    dir_bytes, median, quantile, repeat_setup, timed, Args, Outcome, Scratch, WHOLE_RUN_LAYERS,
};
use ecofl_obs::store::DEFAULT_BLOCK_RECORDS;
use ecofl_obs::{
    CounterRecord, Domain, EventKind, EventRecord, GaugeRecord, MetricsHub, RecordKind, RunStore,
    SpanKind, SpanRecord, TraceQuery, TraceRecord,
};
use ecofl_util::Rng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rounds of synthetic trace. Each holds one global FL update and one
/// sync-round of one home's pipeline: about 60 records.
const ROUNDS: usize = 2_000;
/// Virtual seconds between global updates: the mean measured on
/// `ecofl trace --scenario fl --clients 1000000 --shards 300`.
const ROUND_SECONDS: f64 = 19.3;
/// Pipeline shape: stages and micro-batches per sync-round.
const STAGES: usize = 2;
const MICRO: usize = 8;
/// FL shape: clients per round over groups, population and evaluation
/// interval.
const MEMBERS: usize = 4;
const GROUPS: usize = 5;
const CLIENTS: usize = 1_000_000;
const EVAL_SECONDS: f64 = 120.0;
/// Every `REJOIN_EVERY` rounds, a burst of drop-out-pool rejoins; every
/// `SPIKE_EVERY` rounds, a load spike's lagger, migration and restart.
const REJOIN_EVERY: usize = 76;
const SPIKE_EVERY: usize = 50;
/// Queries per pass besides the four fixed ones.
const SELECTIVE: usize = 68;
/// Operations of a pass before its queries: append, seal and reopen.
const PASS_WRITE_OPS: u64 = 3;

/// Layer metrics store-trace reports with `--trace 1`.
pub const LAYERS: &[&[&str]] = &[
    &[
        "store.append_s",
        "store.seal_s",
        "store.open_s",
        "store.queries",
        "store.query_s",
        "store.query_p50_ms",
        "store.query_p95_ms",
        "store.blocks_total",
        "store.blocks_decoded",
        "store.blocks_useful",
        "store.prune_yield",
        "store.raw_bytes",
        "store.bytes_written",
        "store.compression",
        "store.disk_mb",
    ],
    WHOLE_RUN_LAYERS,
];

fn span(
    domain: Domain,
    kind: SpanKind,
    entity: usize,
    round: usize,
    micro: usize,
    t0: f64,
    d: f64,
) -> TraceRecord {
    TraceRecord::Span(SpanRecord {
        domain,
        kind,
        entity,
        round,
        micro,
        t0,
        t1: t0 + d,
    })
}

fn event(domain: Domain, kind: EventKind, entity: usize, time: f64, value: f64) -> TraceRecord {
    TraceRecord::Event(EventRecord {
        domain,
        kind,
        entity,
        time,
        value,
    })
}

/// One 1F1B-Sync round from `base`, as the virtual-time executor traces
/// it: per stage, `STAGES - 1 - s` warm-up forwards, then one forward
/// and one backward in turn; activations and gradients cross each link
/// as comm spans. Sorted by start time.
fn pipeline_round(
    r: usize,
    base: f64,
    fwd: &[f64; STAGES],
    bwd: &[f64; STAGES],
    comm: f64,
) -> Vec<TraceRecord> {
    let order: Vec<Vec<(bool, usize)>> = (0..STAGES)
        .map(|s| {
            let warm = (STAGES - 1 - s).min(MICRO);
            let mut ops: Vec<(bool, usize)> = (0..warm).map(|m| (true, m)).collect();
            for m in 0..MICRO {
                if warm + m < MICRO {
                    ops.push((true, warm + m));
                }
                ops.push((false, m));
            }
            ops
        })
        .collect();
    let mut f_end = [[f64::NAN; MICRO]; STAGES];
    let mut b_end = [[f64::NAN; MICRO]; STAGES];
    let mut next = [0usize; STAGES];
    let mut free = [base; STAGES];
    let mut out = Vec::new();
    let op = |kind, stage, m, t0, d| span(Domain::Pipeline, kind, stage, r, m, t0, d);
    while (0..STAGES).any(|s| next[s] < order[s].len()) {
        for s in 0..STAGES {
            let Some(&(is_fwd, m)) = order[s].get(next[s]) else {
                continue;
            };
            // When the input this op waits for arrives; NaN until then.
            let ready = match (is_fwd, s) {
                (true, 0) => base,
                (true, _) => f_end[s - 1][m] + comm,
                (false, s) if s == STAGES - 1 => f_end[s][m],
                (false, _) => b_end[s + 1][m] + comm,
            };
            if ready.is_nan() {
                continue;
            }
            let t0 = free[s].max(ready);
            if is_fwd {
                out.push(op(SpanKind::Forward, s, m, t0, fwd[s]));
                f_end[s][m] = t0 + fwd[s];
                if s + 1 < STAGES {
                    let t = f_end[s][m];
                    out.push(op(SpanKind::CommForward, s, m, t, comm));
                }
            } else {
                out.push(op(SpanKind::Backward, s, m, t0, bwd[s]));
                b_end[s][m] = t0 + bwd[s];
                if s > 0 {
                    let t = b_end[s][m];
                    out.push(op(SpanKind::CommBackward, s, m, t, comm));
                }
            }
            free[s] = t0 + if is_fwd { fwd[s] } else { bwd[s] };
            next[s] += 1;
        }
    }
    let start = |rec: &TraceRecord| match rec {
        TraceRecord::Span(s) => s.t0,
        _ => unreachable!("a pipeline round holds spans only"),
    };
    out.sort_by(|a, b| start(a).total_cmp(&start(b)));
    out
}

/// A trace shaped like a pipeline-plus-FL run, in round order. The
/// proportions and durations are those measured on traces the program
/// writes (`ecofl trace --scenario pipeline|fl|spike`); perfbench/README.md
/// lists them. Per round: one 2-stage, 8-micro-batch 1F1B sync-round
/// (48 spans); the closing group round, its aggregation, the
/// `staleness_alpha` gauge and `global_updates` counter, seeded moves
/// and drops, an `accuracy` gauge per evaluation interval, and the next
/// cohort's four local-training spans; periodic rejoin bursts and load
/// spikes.
pub fn generate(seed: u64) -> Vec<TraceRecord> {
    let mut rng = Rng::new(seed ^ 0x5707E);
    let mut out = Vec::with_capacity(ROUNDS * 64);
    // Stage times are fixed per trace, as the executor's are.
    let fwd: [f64; STAGES] = std::array::from_fn(|_| rng.range_f64(0.067, 0.154));
    let bwd: [f64; STAGES] = std::array::from_fn(|s| fwd[s] * rng.range_f64(1.96, 2.0));
    let comm = rng.range_f64(0.036, 0.083);
    // Global update times, and the time each version was dispatched.
    let mut update_t = Vec::with_capacity(ROUNDS);
    let mut last_eval = 0.0;
    for r in 0..ROUNDS {
        let base = r as f64 * ROUND_SECONDS;
        out.extend(pipeline_round(r, base, &fwd, &bwd, comm));

        let t = base + ROUND_SECONDS * rng.range_f64(0.6, 1.4);
        update_t.push(t);
        let group = rng.range_usize(0, GROUPS);
        // The closing cohort started at an earlier version.
        let version = r.saturating_sub(rng.range_usize(0, GROUPS));
        let started = if version == 0 {
            0.0
        } else {
            update_t[version - 1]
        };
        out.push(span(
            Domain::Fl,
            SpanKind::Round,
            group,
            version,
            0,
            started,
            t - started,
        ));
        let alpha = rng.range_f64(0.1, 0.7);
        out.push(event(Domain::Fl, EventKind::Aggregation, group, t, alpha));
        out.push(TraceRecord::Gauge(GaugeRecord {
            name: "staleness_alpha".into(),
            time: t,
            value: alpha,
        }));
        out.push(TraceRecord::Counter(CounterRecord {
            name: "global_updates".into(),
            time: t,
            delta: 1.0,
        }));
        for (p, kind) in [
            (0.2, EventKind::RegroupMoved),
            (0.01, EventKind::RegroupDropped),
        ] {
            if rng.bernoulli(p) {
                let client = rng.range_usize(0, CLIENTS);
                out.push(event(Domain::Grouping, kind, client, t, group as f64));
            }
        }
        if r % REJOIN_EVERY == REJOIN_EVERY - 1 {
            for _ in 0..rng.range_usize(150, 300) {
                let client = rng.range_usize(0, CLIENTS);
                let to = rng.range_usize(0, GROUPS) as f64;
                out.push(event(
                    Domain::Grouping,
                    EventKind::RegroupRejoined,
                    client,
                    t,
                    to,
                ));
            }
        }
        if t - last_eval >= EVAL_SECONDS {
            last_eval = t;
            out.push(TraceRecord::Gauge(GaugeRecord {
                name: "accuracy".into(),
                time: t,
                value: 1.0 - 0.9 / (1.0 + r as f64 / 250.0),
            }));
        }
        // The next cohort: local-training times are log-normal around
        // the measured median of 60 s (quartiles 37 and 113 s), within
        // the measured 14..282 s.
        for _ in 0..MEMBERS {
            let client = rng.range_usize(0, CLIENTS);
            let d = (60.0 * (0.95 * rng.next_gaussian()).exp()).clamp(14.0, 282.0);
            out.push(span(
                Domain::Fl,
                SpanKind::LocalTrain,
                client,
                r + 1,
                0,
                t,
                d,
            ));
        }

        if r % SPIKE_EVERY == SPIKE_EVERY / 2 {
            let at = base + rng.range_f64(0.0, ROUND_SECONDS);
            let stall = rng.range_f64(1.0, 3.0);
            out.push(event(
                Domain::Scheduler,
                EventKind::LaggerDetected,
                1,
                at,
                rng.range_f64(0.3, 0.7),
            ));
            out.push(event(
                Domain::Scheduler,
                EventKind::Migration,
                1,
                at,
                rng.range_f64(1e6, 8e6),
            ));
            out.push(event(
                Domain::Scheduler,
                EventKind::Restart,
                1,
                at + stall,
                stall,
            ));
        }
    }
    out
}

/// The benchmark's own filter: the clauses of a `TraceQuery`, matched
/// here without calling into the program.
#[derive(Debug, Clone, Default)]
pub struct Filter {
    rounds: Option<(u64, u64)>,
    time: Option<(f64, f64)>,
    domain: Option<Domain>,
    kind: Option<RecordKind>,
    min_duration: Option<f64>,
}

impl Filter {
    pub fn query(&self) -> TraceQuery {
        let mut q = TraceQuery::new();
        if let Some((a, b)) = self.rounds {
            q = q.rounds(a..b);
        }
        if let Some((a, b)) = self.time {
            q = q.time(a..b);
        }
        if let Some(d) = self.domain {
            q = q.domain(d);
        }
        if let Some(k) = self.kind {
            q = q.kind(k);
        }
        if let Some(d) = self.min_duration {
            q = q.min_duration(d);
        }
        q
    }

    pub fn matches(&self, rec: &TraceRecord) -> bool {
        let (kind, time, domain, span) = match rec {
            TraceRecord::Span(s) => (RecordKind::Span, s.t0, Some(s.domain), Some(s)),
            TraceRecord::Event(e) => (RecordKind::Event, e.time, Some(e.domain), None),
            TraceRecord::Counter(c) => (RecordKind::Counter, c.time, None, None),
            TraceRecord::Gauge(g) => (RecordKind::Gauge, g.time, None, None),
        };
        self.kind.is_none_or(|k| k == kind)
            && self.time.is_none_or(|(a, b)| a <= time && time < b)
            && self.domain.is_none_or(|d| domain == Some(d))
            && self.rounds.is_none_or(|(a, b)| {
                span.is_some_and(|s| a <= s.round as u64 && (s.round as u64) < b)
            })
            && self
                .min_duration
                .is_none_or(|d| span.is_some_and(|s| s.t1 - s.t0 >= d))
    }
}

/// The seeded query mix. First four fixed queries, one per reader the
/// program has: a full scan (`RunStore::records`), the gauge scan of
/// `summarize_store`, pipeline spans over the middle half of the run (a
/// Gantt window) and spans of at least 60 s (`ecofl trace --store
/// --min-duration`). Then `SELECTIVE` queries of the shapes `ecofl trace
/// --store` takes, in turn: a round window; spans in a time window; one
/// domain's events in a time window; FL spans over a minimum duration in
/// a round window. A window is 1 round, like the program's
/// `trace_query_pruned` micro-benchmark, up to 5% of the run.
pub fn query_mix(seed: u64) -> Vec<Filter> {
    let mut rng = Rng::new(seed ^ 0x0E1E5);
    let horizon = ROUNDS as f64 * ROUND_SECONDS;
    // Fixed extents, so every seed pays the same for them.
    let mut out = vec![
        Filter::default(),
        Filter {
            kind: Some(RecordKind::Gauge),
            ..Filter::default()
        },
        Filter {
            domain: Some(Domain::Pipeline),
            time: Some((horizon / 4.0, horizon * 3.0 / 4.0)),
            ..Filter::default()
        },
        Filter {
            min_duration: Some(60.0),
            ..Filter::default()
        },
    ];
    let domains = [
        Domain::Pipeline,
        Domain::Scheduler,
        Domain::Fl,
        Domain::Grouping,
    ];
    for i in 0..SELECTIVE {
        let r0 = rng.range_usize(0, ROUNDS) as u64;
        let w = rng.range_usize(1, ROUNDS / 20) as u64;
        let t0 = r0 as f64 * ROUND_SECONDS + rng.range_f64(0.0, ROUND_SECONDS);
        let dt = w as f64 * ROUND_SECONDS;
        out.push(match i % 4 {
            0 => Filter {
                rounds: Some((r0, r0 + w)),
                ..Filter::default()
            },
            1 => Filter {
                time: Some((t0, t0 + dt)),
                kind: Some(RecordKind::Span),
                ..Filter::default()
            },
            2 => Filter {
                time: Some((t0, t0 + dt)),
                domain: Some(domains[rng.range_usize(0, 4)]),
                kind: Some(RecordKind::Event),
                ..Filter::default()
            },
            _ => Filter {
                rounds: Some((r0, r0 + w)),
                domain: Some(Domain::Fl),
                min_duration: Some(rng.range_f64(20.0, 60.0)),
                ..Filter::default()
            },
        });
    }
    out
}

/// What a query must return: the matching records' indices, and the
/// blocks holding at least one of them.
pub struct Expected {
    pub indices: Vec<usize>,
    pub useful_blocks: Vec<usize>,
}

pub fn expected(filter: &Filter, records: &[TraceRecord]) -> Expected {
    let indices: Vec<usize> = (0..records.len())
        .filter(|&i| filter.matches(&records[i]))
        .collect();
    let mut useful_blocks: Vec<usize> = indices.iter().map(|i| i / DEFAULT_BLOCK_RECORDS).collect();
    useful_blocks.dedup();
    Expected {
        indices,
        useful_blocks,
    }
}

/// A query's result against the benchmark's filter: the same records in
/// append order, and every block holding a match decoded.
pub fn check_query(
    got: &[TraceRecord],
    blocks_decoded: usize,
    admitted: &dyn Fn(usize) -> bool,
    want: &Expected,
    records: &[TraceRecord],
) -> Result<(), String> {
    if got.len() != want.indices.len() {
        return Err(format!(
            "query returned {} records, the filter selects {}",
            got.len(),
            want.indices.len()
        ));
    }
    if let Some(pos) = got
        .iter()
        .zip(&want.indices)
        .position(|(g, &i)| *g != records[i])
    {
        return Err(format!(
            "query record {pos} differs from generated record {}",
            want.indices[pos]
        ));
    }
    if let Some(b) = want.useful_blocks.iter().find(|&&b| !admitted(b)) {
        return Err(format!("block {b} holds a match but its summary prunes it"));
    }
    if blocks_decoded < want.useful_blocks.len() {
        return Err(format!(
            "{blocks_decoded} blocks decoded, {} hold matches",
            want.useful_blocks.len()
        ));
    }
    Ok(())
}

/// A store made by a set-up measurement; dropping it, untimed, closes
/// it and removes its directory.
struct Created {
    _store: RunStore,
    dir: PathBuf,
}

impl Drop for Created {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one pass measured.
struct Pass {
    append_s: f64,
    seal_s: f64,
    open_s: f64,
    query_s: Vec<f64>,
    blocks_total: usize,
    blocks_decoded: usize,
    raw_bytes: u64,
    written_bytes: u64,
    disk_bytes: u64,
    wall_s: f64,
}

fn pass(
    dir: &Path,
    records: &[TraceRecord],
    filters: &[Filter],
    want: &[Expected],
    out: &mut Outcome,
    hub: Option<&MetricsHub>,
    self_test: bool,
) -> Result<Pass, String> {
    let io = |e: std::io::Error| e.to_string();
    let store = RunStore::create(dir);
    let mut store = store.map_err(io)?;
    if let Some(hub) = hub {
        store.attach_metrics(hub);
    }
    let t0 = Instant::now();
    let (res, append_s) = timed(|| store.append(records));
    res.map_err(io)?;
    let (res, seal_s) = timed(|| store.flush());
    res.map_err(io)?;
    drop(store);
    let (store, open_s) = timed(|| RunStore::open(dir));
    let mut store = store.map_err(io)?;
    if let Some(hub) = hub {
        store.attach_metrics(hub);
    }
    let mut query_s = Vec::with_capacity(filters.len());
    let mut blocks_total = 0;
    let mut blocks_decoded = 0;
    let mut results = Vec::with_capacity(filters.len());
    for f in filters {
        let q = f.query();
        let (res, s) = timed(|| store.query(&q));
        let res = res.map_err(io)?;
        query_s.push(s);
        blocks_total += res.blocks_total;
        blocks_decoded += res.blocks_decoded;
        results.push(res);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    // Append, seal and reopen.
    let count = store.record_count();
    out.ops(
        PASS_WRITE_OPS,
        if count == records.len() as u64 {
            Ok(())
        } else {
            Err(format!(
                "reopened store counts {count} records of {}",
                records.len()
            ))
        },
    );
    let blocks = store.trace_blocks();
    for ((f, res), want) in filters.iter().zip(&mut results).zip(want) {
        let q = f.query();
        let admitted = |b: usize| blocks.get(b).is_some_and(|e| q.admits(&e.summary));
        out.ops(
            1,
            check_query(&res.records, res.blocks_decoded, &admitted, want, records),
        );
        if self_test && !res.records.is_empty() {
            let dropped = res.records.pop();
            out.expect_rejected(
                "a query result with one record dropped",
                check_query(&res.records, res.blocks_decoded, &admitted, want, records),
            );
            res.records.extend(dropped);
        }
    }
    let segs = store.segments();
    Ok(Pass {
        append_s,
        seal_s,
        open_s,
        query_s,
        blocks_total,
        blocks_decoded,
        raw_bytes: segs.iter().map(|s| s.raw_bytes).sum(),
        written_bytes: segs.iter().map(|s| s.compressed_bytes).sum(),
        disk_bytes: dir_bytes(dir),
        wall_s,
    })
}

pub fn run(args: &Args, scratch: &mut Scratch) -> Outcome {
    let mut out = Outcome::default();
    let records = generate(args.seed);
    let filters = query_mix(args.seed);
    let want: Vec<Expected> = filters.iter().map(|f| expected(f, &records)).collect();
    let useful: usize = want.iter().map(|w| w.useful_blocks.len()).sum();
    out.outcome(format!(
        "store-trace: records={} queries_per_pass={} matches_per_pass={}",
        records.len(),
        filters.len(),
        want.iter().map(|w| w.indices.len()).sum::<usize>()
    ));

    // Set-up: store creation alone, repeated for a steady median.
    let (created, setup_s) = repeat_setup(|| {
        let dir = scratch.fresh("create");
        RunStore::create(&dir).map(|store| Created { _store: store, dir })
    });
    out.ops(1, created.map(drop).map_err(|e| format!("create: {e}")));

    // An untimed first pass runs the checker self-test and warms the
    // page cache and the allocator before timing.
    let pass_ops = PASS_WRITE_OPS + filters.len() as u64;
    let dir = scratch.fresh("trace");
    if let Err(e) = pass(&dir, &records, &filters, &want, &mut out, None, true) {
        out.ops(pass_ops, Err(e));
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Untraced passes; in a traced run they take the first half of the
    // window, and the second half runs with the store's own counters
    // attached to a hub.
    let mut measure = |share: f64, hub: Option<&MetricsHub>, out: &mut Outcome| {
        let mut passes = Vec::new();
        let deadline = args.deadline(share);
        while passes.len() < 3 || Instant::now() < deadline {
            let dir = scratch.fresh("trace");
            let res = pass(&dir, &records, &filters, &want, out, hub, false);
            let _ = std::fs::remove_dir_all(&dir);
            match res {
                Ok(p) => passes.push(p),
                Err(e) => {
                    out.ops(pass_ops, Err(e));
                    break;
                }
            }
        }
        passes
    };
    let plain = measure(if args.trace { 0.5 } else { 1.0 }, None, &mut out);
    if plain.is_empty() {
        return out;
    }
    let mut walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    out.samples("run_s", &walls);
    let run_s = median(&mut walls);
    if !args.trace {
        let mut appends: Vec<f64> = plain.iter().map(|p| p.append_s + p.seal_s).collect();
        out.samples("append_seal_s", &appends);
        out.metric("setup_s", setup_s, "s");
        out.metric("run_s", run_s, "s");
        out.metric(
            "items_per_s",
            records.len() as f64 / median(&mut appends),
            "1/s",
        );
        return out;
    }
    let hub = MetricsHub::new();
    let passes = measure(1.0, Some(&hub), &mut out);
    if passes.is_empty() {
        return out;
    }
    let snap = hub.snapshot(0);
    let hub_decoded = snap.counter("store_query_blocks_decoded").unwrap_or(0);
    let our_decoded: usize = passes.iter().map(|p| p.blocks_decoded).sum();
    out.check(hub_decoded == our_decoded as u64, || {
        format!("store counter says {hub_decoded} blocks decoded, query results {our_decoded}")
    });
    let n = passes.len() as f64;
    let mean = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).sum::<f64>() / n;
    let mut queries: Vec<f64> = passes.iter().flat_map(|p| p.query_s.clone()).collect();
    out.metric("store.append_s", mean(&|p| p.append_s), "s");
    out.metric("store.seal_s", mean(&|p| p.seal_s), "s");
    out.metric("store.open_s", mean(&|p| p.open_s), "s");
    out.metric("store.queries", filters.len() as f64, "count");
    out.metric("store.query_s", mean(&|p| p.query_s.iter().sum()), "s");
    out.metric("store.query_p50_ms", median(&mut queries) * 1e3, "ms");
    out.metric(
        "store.query_p95_ms",
        quantile(&mut queries, 0.95) * 1e3,
        "ms",
    );
    let decoded = mean(&|p| p.blocks_decoded as f64);
    out.metric(
        "store.blocks_total",
        mean(&|p| p.blocks_total as f64),
        "count",
    );
    out.metric("store.blocks_decoded", decoded, "count");
    out.metric("store.blocks_useful", useful as f64, "count");
    out.metric("store.prune_yield", useful as f64 / decoded, "ratio");
    let raw = mean(&|p| p.raw_bytes as f64);
    let written = mean(&|p| p.written_bytes as f64);
    out.metric("store.raw_bytes", raw, "bytes");
    out.metric("store.bytes_written", written, "bytes");
    out.metric("store.compression", raw / written, "ratio");
    out.metric("store.disk_mb", mean(&|p| p.disk_bytes as f64) / 1e6, "MB");
    let spans = mean(&|p| p.append_s + p.seal_s + p.open_s + p.query_s.iter().sum::<f64>());
    let mut traced: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    out.metric("unattributed_s", mean(&|p| p.wall_s) - spans, "s");
    crate::common::trace_ratio(&mut out, median(&mut traced), run_s);
    out
}
