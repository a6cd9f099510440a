//! The three named workloads. Each runs its untimed set-up, one measured
//! pass with tracing off (the end-to-end metrics), and — in a traced run
//! — a second, traced pass on the same seed plus the in-process replays
//! and direct layer calls that give the per-layer split. Every answer is
//! checked after the timed regions.

use crate::data::{self, FIG12_AREAS, INGEST_AREAS};
use crate::host::{Steal, StealLog};
use crate::inproc::{self, InSample};
use crate::layers::{self, CoreProbe};
use crate::serve::{self, Conn, ConnRun, ServeProcess, Traffic};
use crate::stats::{mean, median, p50_p99, percentile, ratio, sorted, supports};
use crate::trace::{Trace, Tracer};
use crate::verify::{self, Mirror, Tally};
use ssq_core::QueryStats;
use ssq_engine::{Algorithm, DiagramConfig, Engine, EngineConfig, ServedBy};
use ssq_geom::Point;
use ssq_net::WireStats;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Load-generator connections (threads), each with one request in flight.
const CONNS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Queries replayed through the kernels directly in a traced run — enough
/// that ten lie beyond p99.
const PREFIX: usize = 1035;
/// Diagram lookups timed directly in a traced `hot-shapes` run.
const DIAGRAM_LOOKUPS: usize = 20_000;
/// Delta batches applied directly in a traced `ingest-mix` run.
const DELTA_PROBES: usize = 5;
/// `ingest-mix` writer schedule: one batch per interval. A publish costs
/// 50–80 ms of one core on the reference host, so this leaves the two
/// cores short of saturation: at 100 ms the publishes took most of a core
/// and the query metrics followed every change in host speed.
pub const INGEST_INTERVAL: Duration = Duration::from_millis(200);
/// Longest the diagram may take to serve every hot shape.
const WARM_LIMIT: Duration = Duration::from_secs(60);
/// Longest pass of a traced run. A traced run makes three passes (the
/// untraced one, the traced one and the in-process replay) and checks
/// them all, so its passes are kept short enough for the whole run to
/// end well within three minutes; the per-layer metrics it reports have
/// no bounds.
pub const TRACED_PASS_S: u64 = 12;
/// Stated tolerance for the stage reconciliation: the summed stage means
/// must be within this share of the client-observed mean.
pub const RECONCILE_TOLERANCE: f64 = 0.25;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fresh Fig. 12 grid queries against `ssq serve`.
    Fig12Sweep,
    /// Zipf repeats of 48 low-anchor shapes against `ssq serve --diagram`.
    HotShapes,
    /// In-process queries next to open-loop delta batches.
    IngestMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig12Sweep,
        Workload::HotShapes,
        Workload::IngestMix,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig12Sweep => "fig12-sweep",
            Workload::HotShapes => "hot-shapes",
            Workload::IngestMix => "ingest-mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `ssq serve` flags beyond `--data` (none for the in-process workload).
    pub fn server_flags(self) -> &'static [&'static str] {
        match self {
            Workload::Fig12Sweep | Workload::IngestMix => &[],
            Workload::HotShapes => &["--diagram"],
        }
    }
}

/// What a run hands to the reporter.
pub struct Outcome {
    /// Header facts only the workload knows (e.g. the server's ISA).
    pub facts: Vec<String>,
    /// End-to-end metrics, `(name, value, unit)`, from the untraced pass.
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced runs).
    pub layer: Vec<(String, f64, &'static str)>,
    /// Report lines (sample counts, shares, reconciliation, notes).
    pub lines: Vec<String>,
    /// Operations attempted across every pass.
    pub attempted: u64,
    /// Operations that failed (shed, error, timeout or wrong answer).
    pub failed: u64,
    /// Whether every checked answer matched its reference.
    pub correct: bool,
    /// Spans of the traced run.
    pub trace: Trace,
}

/// Inputs shared by every workload.
pub struct Inputs<'a> {
    /// The `ssq` binary.
    pub ssq: &'a Path,
    /// The dataset CSV.
    pub csv: &'a Path,
    /// The dataset.
    pub points: &'a [Point],
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per pass.
    pub seconds: u64,
    /// Whether this is a traced run.
    pub trace: bool,
}

/// Runs `workload`.
pub fn run(workload: Workload, inputs: &Inputs) -> Result<Outcome, String> {
    match workload {
        Workload::IngestMix => run_ingest(inputs),
        _ => run_served(workload, inputs),
    }
}

fn lat_us(samples: impl Iterator<Item = u64>) -> Vec<f64> {
    sorted(samples.map(|ns| ns as f64 / 1e3))
}

/// Steal share above which a second of a measured pass counts as
/// disturbed by the host.
const QUIET_STEAL: f64 = 0.01;

/// Throughput and latency of one measured pass, over its quiet seconds.
///
/// The pass is cut into one-second windows and the host's CPU steal is
/// read for each. A window in which the hypervisor gave more than
/// [`QUIET_STEAL`] of the CPU time to other guests is left out: a
/// microsecond request that waits for a descheduled vCPU waits
/// milliseconds, so such seconds measure the host, not the program. When
/// fewer than a quarter of the windows are quiet, the quarter with the
/// least steal is used. The metrics pool every answer of the windows
/// used: answers per second of those windows, and p50/p99 of their
/// latencies. Answers arriving after the pass's deadline (each
/// connection's last request) are not counted.
struct PassMetrics {
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    /// Answers the metrics rest on.
    answers: usize,
    /// Windows used, of all.
    used: usize,
    windows: usize,
    /// Per window: `(answers, steal share)`.
    each: Vec<(usize, f64)>,
}

fn pass_metrics(
    samples: &[(Instant, u64)],
    start: Instant,
    seconds: u64,
    steal: &Steal,
) -> PassMetrics {
    let count = seconds as usize;
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); count];
    for &(done, ns) in samples {
        let w = done.saturating_duration_since(start).as_secs() as usize;
        if let Some(w) = windows.get_mut(w) {
            w.push(ns as f64 / 1e3);
        }
    }
    let at = |i: usize| start + Duration::from_secs(i as u64);
    let st: Vec<f64> = (0..count).map(|i| steal.share(at(i), at(i + 1))).collect();
    let mut used: Vec<usize> = (0..count).filter(|&i| st[i] <= QUIET_STEAL).collect();
    let need = count.div_ceil(4);
    if used.len() < need {
        used = (0..count).collect();
        used.sort_by(|&a, &b| st[a].total_cmp(&st[b]));
        used.truncate(need);
    }
    let pooled = sorted(used.iter().flat_map(|&i| windows[i].iter().copied()));
    PassMetrics {
        qps: ratio(pooled.len() as f64, used.len() as f64),
        p50_us: percentile(&pooled, 0.5),
        p99_us: percentile(&pooled, 0.99),
        answers: pooled.len(),
        used: used.len(),
        windows: count,
        each: windows.iter().map(Vec::len).zip(st).collect(),
    }
}

fn pass_note(m: &PassMetrics) -> String {
    format!(
        "measured: queries_per_s, query_p50_us and query_p99_us over the {} of {} one-second windows with CPU steal <= {QUIET_STEAL} (or the least-stolen quarter), n={} answers{}\nwindows (answers/steal): {}",
        m.used,
        m.windows,
        m.answers,
        if supports(m.answers, 0.99) { "" } else { "; too few for 10 beyond p99" },
        m.each
            .iter()
            .map(|(n, s)| format!("{n}/{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    )
}

struct PassSummary {
    answered: u64,
    attempted: u64,
    failed: u64,
    wrong: u64,
    errors: u64,
    lat_us: Vec<f64>,
    wall_s: f64,
    served: [u64; 3],
    algorithms: [u64; 5],
    pings_us: Vec<f64>,
    wrapped: bool,
    first_failure: Option<String>,
}

fn summarize(runs: &[ConnRun], wall_s: f64) -> PassSummary {
    let mut s = PassSummary {
        answered: 0,
        attempted: 0,
        failed: 0,
        wrong: 0,
        errors: 0,
        lat_us: lat_us(
            runs.iter()
                .flat_map(|r| r.samples.iter().map(|&(ns, _)| ns)),
        ),
        wall_s,
        served: [0; 3],
        algorithms: [0; 5],
        pings_us: sorted(
            runs.iter()
                .flat_map(|r| r.pings.iter().map(|&ns| ns as f64 / 1e3)),
        ),
        wrapped: runs.iter().any(|r| r.wrapped),
        first_failure: runs.iter().find_map(|r| r.first_failure.clone()),
    };
    for r in runs {
        s.answered += r.samples.len() as u64;
        s.attempted += r.attempted;
        s.failed += r.failed();
        s.wrong += r.wrong;
        s.errors += r.errors + r.timeouts;
        for i in 0..3 {
            s.served[i] += r.served[i];
        }
        for i in 0..5 {
            s.algorithms[i] += r.algorithms[i];
        }
    }
    s
}

fn share_lines(lines: &mut Vec<String>, label: &str, served: &[u64; 3], algorithms: &[u64; 5]) {
    let total = served.iter().sum::<u64>() as f64;
    lines.push(format!(
        "shares {label}: served_by planner={:.4} cache={:.4} diagram={:.4} | plan naive={:.4} bbs={:.4} b2s2={:.4} vs2={:.4} routed={:.4} (n={})",
        ratio(served[0] as f64, total),
        ratio(served[1] as f64, total),
        ratio(served[2] as f64, total),
        ratio(algorithms[0] as f64, total),
        ratio(algorithms[1] as f64, total),
        ratio(algorithms[2] as f64, total),
        ratio(algorithms[3] as f64, total),
        ratio(algorithms[4] as f64, total),
        total
    ));
}

fn stats_delta(before: &WireStats, after: &WireStats) -> WireStats {
    let mut d = *after;
    d.cache_hits -= before.cache_hits.min(d.cache_hits);
    d.cache_misses -= before.cache_misses.min(d.cache_misses);
    d.diagram_hits -= before.diagram_hits.min(d.diagram_hits);
    d.diagram_misses -= before.diagram_misses.min(d.diagram_misses);
    d.net.bytes_in -= before.net.bytes_in.min(d.net.bytes_in);
    d.net.bytes_out -= before.net.bytes_out.min(d.net.bytes_out);
    d.net.shed_requests -= before.net.shed_requests.min(d.net.shed_requests);
    d
}

/// The served workloads: `fig12-sweep` and `hot-shapes`.
fn run_served(workload: Workload, inp: &Inputs) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let secs = Duration::from_secs(inp.seconds);
    let mut lines = Vec::new();
    let mut trace = Trace::default();
    let mirror = Mirror::new(inp.points.to_vec());
    let mut tally = Tally::default();

    // Inputs, and references known before the run.
    let hot = workload == Workload::HotShapes;
    let (fresh, shapes, hot_seqs, hot_ref) = if hot {
        let shapes = data::hot_shapes();
        let cap = (inp.seconds as usize * 60_000).max(DIAGRAM_LOOKUPS);
        let seqs: Vec<Vec<u16>> = (0..CONNS)
            .map(|c| data::hot_sequence(inp.seed, c, cap))
            .collect();
        let reference: Vec<Vec<u32>> = shapes.iter().map(|q| mirror.reference(q)).collect();
        for s in 0..3 {
            let oracle = mirror.oracle(&shapes[s]);
            tally.oracle(
                &format!("hot shape {s}"),
                &reference[s],
                &reference[s],
                &oracle,
            );
        }
        (Vec::new(), shapes, seqs, reference)
    } else {
        let cap = (inp.seconds as usize * 1_000).max(PREFIX);
        let fresh: Vec<Vec<Vec<Point>>> = (0..CONNS)
            .map(|c| data::grid_sequence(inp.seed, c, cap, &FIG12_AREAS))
            .collect();
        (fresh, Vec::new(), Vec::new(), Vec::new())
    };
    let traffic = if hot {
        Traffic::Hot {
            shapes: &shapes,
            seqs: &hot_seqs,
            reference: &hot_ref,
        }
    } else {
        Traffic::Fresh(&fresh)
    };

    // Set-up: spawn the server SETUPS times; keep the last one.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for i in 0..SETUPS {
        let (srv, s) = ServeProcess::start(inp.ssq, inp.csv, workload.server_flags())?;
        setups.push(s);
        if i + 1 < SETUPS {
            srv.stop()?;
        } else {
            server = Some(srv);
        }
    }
    let server = server.ok_or("no server")?;
    let mut facts = vec![
        format!("server_isa={}", server.kernel),
        format!("load=closed-loop connections={CONNS} depth=1"),
    ];
    if hot {
        let rounds = serve::warm_until_diagram(&server.addr, &shapes, WARM_LIMIT)?;
        lines.push(format!(
            "warm-up: {rounds} rounds over {} shapes until all were served by the diagram",
            shapes.len()
        ));
    }

    // The measured pass, tracing off.
    let mut ctl = Conn::connect(&server.addr)?;
    let before = ctl.stats()?;
    let steal_log = StealLog::start();
    let t0 = Instant::now();
    let runs = serve::drive(&server.addr, CONNS, t0 + secs, &traffic, false, epoch)?;
    let untraced = summarize(&runs, t0.elapsed().as_secs_f64());
    let steal = steal_log.finish();
    facts.push(steal.fact());
    let after = ctl.stats()?;
    let rss = server.vm_hwm_mb()?;

    // The traced pass on the same seed.
    let traced_runs = if inp.trace {
        let t1 = Instant::now();
        let runs = serve::drive(&server.addr, CONNS, t1 + secs, &traffic, true, epoch)?;
        let s = summarize(&runs, t1.elapsed().as_secs_f64());
        Some((runs, s))
    } else {
        None
    };
    drop(ctl);
    let server_report = server.stop()?;
    for l in server_report.iter().filter(|l| !l.trim().is_empty()) {
        lines.push(format!("server: {}", l.trim()));
    }

    // Check every reply of the fresh traffic: references for every
    // answered request, computed on two threads.
    let verify_start = Instant::now();
    let mut keys: Vec<(usize, u32)> = Vec::new();
    for pass in std::iter::once(&runs).chain(traced_runs.as_ref().map(|(r, _)| r)) {
        for (c, run) in pass.iter().enumerate() {
            keys.extend(run.replies.iter().map(|(k, _)| (c, *k)));
        }
    }
    keys.sort_unstable();
    keys.dedup();
    let computed = verify::par_map(&keys, |&(c, k)| {
        mirror.reference(traffic.query(c, k as usize))
    });
    let mut refs: HashMap<(usize, u32), Vec<u32>> = keys.into_iter().zip(computed).collect();
    let check_replies = |runs: &[ConnRun], pass: &str, tally: &mut Tally| {
        for (c, run) in runs.iter().enumerate() {
            for (k, reply) in &run.replies {
                let what = format!("{pass} reply to request {k} of connection {c}");
                if reply.generation != 0 {
                    tally.check(&what, &[reply.generation as u32], &[0]);
                } else {
                    tally.check(&what, &reply.skyline, &refs[&(c, *k)]);
                }
            }
        }
    };
    check_replies(&runs, "untraced", &mut tally);
    if let Some((runs, _)) = &traced_runs {
        check_replies(runs, "traced", &mut tally);
    }
    if !hot {
        for (c, run) in runs.iter().enumerate() {
            if let Some((k, reply)) = run.replies.iter().find(|(k, _)| *k == 0) {
                let q = traffic.query(c, *k as usize);
                let oracle = mirror.oracle(q);
                tally.oracle(
                    &format!("request 0 of connection {c}"),
                    &reply.skyline,
                    &refs[&(c, 0)],
                    &oracle,
                );
            }
        }
    }
    let hot_checked: u64 =
        runs.iter().map(|r| r.samples.len() as u64).sum::<u64>() * u64::from(hot);
    lines.push(format!(
        "verify: {} replies checked after the run against scalar b2s2 on a mirror R-tree, {} checked on arrival against precomputed b2s2 references, {} against naive_full; {} wrong ({:.1}s)",
        tally.checked.saturating_sub(2 * tally.oracle_checked),
        hot_checked,
        tally.oracle_checked,
        tally.wrong + untraced.wrong,
        verify_start.elapsed().as_secs_f64()
    ));

    // End-to-end metrics, from the untraced pass.
    let done: Vec<(Instant, u64)> = runs
        .iter()
        .flat_map(|r| r.samples.iter().map(|&(ns, at)| (at, ns)))
        .collect();
    let m = pass_metrics(&done, t0, inp.seconds, &steal);
    lines.push(pass_note(&m));
    let e2e = vec![
        ("setup_s", median(setups.iter().copied()), "s"),
        ("queries_per_s", m.qps, "1/s"),
        ("query_p50_us", m.p50_us, "us"),
        ("query_p99_us", m.p99_us, "us"),
        ("rss_peak_mb", rss, "MB"),
    ];
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed + tally.wrong;
    let mut errors_or_wrong = untraced.errors + untraced.wrong;
    if let Some((_, s)) = &traced_runs {
        attempted += s.attempted;
        failed += s.failed;
        errors_or_wrong += s.errors + s.wrong;
    }
    lines.push(format!(
        "samples: setup_s n={SETUPS} setups {:?}; latency n={} answered of {} attempted over {:.3}s; failed={} (shed+errors+timeouts+wrong)",
        setups.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>(),
        untraced.answered,
        untraced.attempted,
        untraced.wall_s,
        untraced.failed + tally.wrong
    ));
    if untraced.wrapped {
        lines.push(
            "note: a request sequence ran out and wrapped; later requests repeat earlier ones"
                .into(),
        );
    }
    if let Some(why) = &untraced.first_failure {
        lines.push(format!("first failure: {why}"));
    }
    share_lines(
        &mut lines,
        "(untraced pass, from reply bytes)",
        &untraced.served,
        &untraced.algorithms,
    );
    let delta = stats_delta(&before, &after);
    let error_rate = ratio(
        (untraced.failed + tally.wrong) as f64,
        untraced.attempted as f64,
    );
    lines.push(format!(
        "error_rate = {error_rate} (n={} attempted)",
        untraced.attempted
    ));

    let mut layer: Vec<(String, f64, &'static str)> = Vec::new();
    if let Some((traced, ts)) = traced_runs {
        for r in traced {
            trace.absorb(r.tracer);
        }
        let mut probe_tracer = Tracer::new(true, epoch);

        // In-process replay of the same sequences.
        let limits: Vec<usize> = runs.iter().map(|r| r.samples.len()).collect();
        let mut config = EngineConfig::default();
        if hot {
            config = config.with_diagram(DiagramConfig::default());
        }
        let engine = Engine::new(inp.points, config).map_err(|e| format!("Engine::new: {e}"))?;
        if hot {
            inproc::warm_engine_diagram(&engine, &shapes, WARM_LIMIT)?;
        }
        let deadline = Instant::now() + secs;
        let replayed = inproc::replay(&engine, &traffic, &limits, deadline, true, epoch);
        engine.shutdown();
        let (in_samples, in_tracers) = replayed?;
        for t in in_tracers {
            trace.absorb(t);
        }
        attempted += in_samples.len() as u64;
        let mut in_tally = Tally::default();
        for s in &in_samples {
            let what = format!(
                "in-process answer to request {} of connection {}",
                s.k, s.conn
            );
            let expected = match traffic.expected(s.conn as usize, s.k as usize) {
                Some(e) => e.to_vec(),
                None => refs
                    .entry((s.conn as usize, s.k))
                    .or_insert_with(|| {
                        mirror.reference(traffic.query(s.conn as usize, s.k as usize))
                    })
                    .clone(),
            };
            in_tally.check(&what, &s.skyline, &expected);
        }

        // Direct layer calls over a fixed prefix of connection 0's sequence.
        let prefix: Vec<&[Point]> = (0..PREFIX).map(|k| traffic.query(0, k)).collect();
        let core = layers::core_probe(inp.points, &prefix, &mut probe_tracer)?;
        let diagram = if hot {
            let seq = &hot_seqs[0][..DIAGRAM_LOOKUPS];
            Some(layers::diagram_probe(
                inp.points,
                &shapes,
                seq,
                &hot_ref,
                &mut in_tally,
                &mut probe_tracer,
            )?)
        } else {
            None
        };
        let shard = if hot {
            None
        } else {
            Some(layers::shard_probe(
                inp.points,
                &prefix,
                &core.skylines,
                &mut in_tally,
                &mut probe_tracer,
            )?)
        };
        trace.absorb(probe_tracer);
        failed += in_tally.wrong + core.tally.wrong;
        lines.push(format!(
            "verify (traced): {} in-process answers and {} kernel cross-checks; {} wrong",
            in_samples.len(),
            core.tally.checked,
            in_tally.wrong + core.tally.wrong
        ));
        tally.wrong += in_tally.wrong + core.tally.wrong;
        tally.first = tally
            .first
            .take()
            .or(in_tally.first)
            .or(core.tally.first.clone());

        // Per-layer metrics.
        let client_mean = mean(untraced.lat_us.iter().copied());
        let in_total = lat_us(in_samples.iter().map(|s| s.total_ns));
        let in_service = lat_us(in_samples.iter().map(|s| s.service_ns));
        let in_queue = lat_us(in_samples.iter().map(|s| s.total_ns - s.service_ns));
        // Whole-pass medians on both sides of every difference below.
        let p50 = percentile(&untraced.lat_us, 0.5);
        let net_self = p50 - percentile(&in_total, 0.5);
        let ping_mean = mean(ts.pings_us.iter().copied());
        let (q50, q99) = p50_p99(&in_queue);
        let (s50, s99) = p50_p99(&in_service);
        let stage_sum =
            ping_mean + mean(in_queue.iter().copied()) + mean(in_service.iter().copied());
        let residual = ratio(client_mean - stage_sum, client_mean);
        lines.push(format!(
            "reconcile: client mean {client_mean:.2}us vs net (ping mean) {ping_mean:.2} + engine queue mean {:.2} + engine service mean {:.2} = {stage_sum:.2}us; residual {:+.4} of client (tolerance ±{RECONCILE_TOLERANCE}) -> {}",
            mean(in_queue.iter().copied()),
            mean(in_service.iter().copied()),
            residual,
            if residual.abs() <= RECONCILE_TOLERANCE { "reconciled" } else { "NOT reconciled" }
        ));
        lines.push(format!(
            "samples (traced): traced pass n={} answered, {} pings; in-process n={}; kernel prefix n={}",
            ts.answered,
            ts.pings_us.len(),
            in_samples.len(),
            core.queries
        ));
        let (tp50, _) = p50_p99(&ts.lat_us);
        let durations = trace.durations();
        let span_p50 = |name: &str| {
            durations
                .get(name)
                .map_or(0.0, |v| percentile(&sorted(v.iter().copied()), 0.5))
        };

        layer.push(("net.self_us_p50".into(), net_self, "us"));
        layer.push((
            "net.ping_us_p50".into(),
            percentile(&ts.pings_us, 0.5),
            "us",
        ));
        layer.push(("net.encode_ns".into(), span_p50("net.encode"), "ns"));
        layer.push(("net.decode_ns".into(), span_p50("net.decode"), "ns"));
        layer.push((
            "net.bytes_in_per_query".into(),
            ratio(delta.net.bytes_in as f64, untraced.answered as f64),
            "B",
        ));
        layer.push((
            "net.bytes_out_per_query".into(),
            ratio(delta.net.bytes_out as f64, untraced.answered as f64),
            "B",
        ));
        layer.push((
            "net.shed_requests".into(),
            delta.net.shed_requests as f64,
            "count",
        ));
        layer.push(("engine.queue_wait_us_p50".into(), q50, "us"));
        layer.push(("engine.queue_wait_us_p99".into(), q99, "us"));
        layer.push(("engine.service_us_p50".into(), s50, "us"));
        layer.push(("engine.service_us_p99".into(), s99, "us"));
        layer.push((
            "engine.cache_hit_rate".into(),
            ratio(
                delta.cache_hits as f64,
                (delta.cache_hits + delta.cache_misses) as f64,
            ),
            "ratio",
        ));
        let total = untraced.served.iter().sum::<u64>() as f64;
        for (i, name) in ["planner", "cache", "diagram"].iter().enumerate() {
            layer.push((
                format!("engine.served_{name}_frac"),
                ratio(untraced.served[i] as f64, total),
                "ratio",
            ));
        }
        for alg in Algorithm::ALL {
            layer.push((
                format!("engine.plan_{}_frac", alg.name()),
                ratio(untraced.algorithms[alg.index()] as f64, total),
                "ratio",
            ));
        }
        push_ingest_placeholders(&mut layer);
        push_core(&mut layer, &core);
        layer.push(("rtree.apply_delta_ms".into(), 0.0, "ms"));
        layer.push(("delaunay.apply_delta_ms".into(), 0.0, "ms"));
        match &diagram {
            Some(d) => {
                layer.push((
                    "diagram.lookup_ns_p50".into(),
                    median(d.lookup_ns.iter().copied()),
                    "ns",
                ));
                layer.push((
                    "diagram.hit_rate".into(),
                    ratio(
                        delta.diagram_hits as f64,
                        (delta.diagram_hits + delta.diagram_misses) as f64,
                    ),
                    "ratio",
                ));
                layer.push((
                    "diagram.build_ms".into(),
                    after.diagram_build_nanos as f64 / 1e6,
                    "ms",
                ));
                layer.push(("diagram.cells".into(), after.diagram_cells as f64, "count"));
                lines.push(format!(
                    "diagram (direct): {} lookups, {} hits against a bench-built diagram of the {} shapes",
                    d.lookups,
                    d.hits,
                    shapes.len()
                ));
            }
            None => push_zeros(
                &mut layer,
                &[
                    ("diagram.lookup_ns_p50", "ns"),
                    ("diagram.hit_rate", "ratio"),
                    ("diagram.build_ms", "ms"),
                    ("diagram.cells", "count"),
                ],
            ),
        }
        match &shard {
            Some(sh) => {
                let (sh50, sh99) = p50_p99(&sorted(sh.query_us.iter().copied()));
                let n = sh.query_us.len() as f64;
                layer.push(("shard.query_us_p50".into(), sh50, "us"));
                layer.push(("shard.query_us_p99".into(), sh99, "us"));
                layer.push((
                    "shard.queried_mean".into(),
                    ratio(sh.queried as f64, n),
                    "count",
                ));
                layer.push((
                    "shard.pruned_frac".into(),
                    ratio(sh.pruned as f64, (sh.queried + sh.pruned) as f64),
                    "ratio",
                ));
            }
            None => push_zeros(
                &mut layer,
                &[
                    ("shard.query_us_p50", "us"),
                    ("shard.query_us_p99", "us"),
                    ("shard.queried_mean", "count"),
                    ("shard.pruned_frac", "ratio"),
                ],
            ),
        }
        layer.push(("publish_p50_ms".into(), 0.0, "ms"));
        layer.push(("publish_p90_ms".into(), 0.0, "ms"));
        layer.push(("error_rate".into(), error_rate, "ratio"));
        push_trace(
            &mut layer,
            &trace,
            tp50 - p50,
            ratio(tp50 - p50, p50),
            residual,
        );
        share_lines(
            &mut lines,
            "(in-process replay)",
            &served_counts(&in_samples),
            &algorithm_counts(&in_samples),
        );
    }
    Ok(Outcome {
        facts: {
            facts.push(format!("server_flags={:?}", workload.server_flags()));
            facts
        },
        e2e,
        layer,
        lines: with_first(lines, &tally),
        attempted,
        failed,
        correct: tally.wrong == 0 && errors_or_wrong == 0,
        trace,
    })
}

fn with_first(mut lines: Vec<String>, tally: &Tally) -> Vec<String> {
    if let Some(first) = &tally.first {
        lines.push(format!("first mismatch: {first}"));
    }
    lines
}

fn served_counts(samples: &[InSample]) -> [u64; 3] {
    let mut out = [0u64; 3];
    for s in samples {
        out[match s.served_by {
            ServedBy::Planner => 0,
            ServedBy::Cache => 1,
            ServedBy::Diagram => 2,
        }] += 1;
    }
    out
}

fn push_zeros(layer: &mut Vec<(String, f64, &'static str)>, names: &[(&str, &'static str)]) {
    for (name, unit) in names {
        layer.push(((*name).to_string(), 0.0, unit));
    }
}

fn push_ingest_placeholders(layer: &mut Vec<(String, f64, &'static str)>) {
    push_zeros(
        layer,
        &[
            ("engine.ingest_queue_ms", "ms"),
            ("engine.ingest_incremental_frac", "ratio"),
            ("engine.dirty_cells_per_batch", "count"),
        ],
    );
}

fn push_core(layer: &mut Vec<(String, f64, &'static str)>, core: &CoreProbe) {
    let n = core.queries as f64;
    let (b50, b99) = p50_p99(&sorted(core.b2s2_us.iter().copied()));
    let (v50, v99) = p50_p99(&sorted(core.vs2_us.iter().copied()));
    let s: &QueryStats = &core.planned;
    layer.push((
        "core.context_us".into(),
        median(core.context_us.iter().copied()),
        "us",
    ));
    layer.push(("core.b2s2_kernel_us_p50".into(), b50, "us"));
    layer.push(("core.b2s2_kernel_us_p99".into(), b99, "us"));
    layer.push(("core.vs2_kernel_us_p50".into(), v50, "us"));
    layer.push(("core.vs2_kernel_us_p99".into(), v99, "us"));
    layer.push((
        "core.dominance_checks".into(),
        ratio(s.dominance_checks as f64, n),
        "count",
    ));
    layer.push((
        "core.distance_computations".into(),
        ratio(s.distance_computations as f64, n),
        "count",
    ));
    layer.push((
        "core.points_examined".into(),
        ratio(s.points_examined as f64, n),
        "count",
    ));
    layer.push((
        "core.allocations".into(),
        ratio(s.allocations as f64, n),
        "count",
    ));
    layer.push((
        "core.skyline_size_mean".into(),
        ratio(core.skyline_total as f64, n),
        "count",
    ));
    layer.push((
        "core.skyline_per_examined".into(),
        ratio(core.skyline_total as f64, s.points_examined as f64),
        "ratio",
    ));
    layer.push((
        "rtree.node_accesses_per_query".into(),
        ratio(core.b2s2_planned.1 as f64, core.b2s2_planned.0 as f64),
        "count",
    ));
    layer.push((
        "delaunay.page_accesses_per_query".into(),
        ratio(core.vs2_planned.1 as f64, core.vs2_planned.0 as f64),
        "count",
    ));
    layer.push(("rtree.build_ms".into(), core.rtree_build_ms, "ms"));
    layer.push(("delaunay.build_ms".into(), core.delaunay_build_ms, "ms"));
}

/// Tracing overhead, the reconciliation residual and each layer's self
/// time.
fn push_trace(
    layer: &mut Vec<(String, f64, &'static str)>,
    trace: &Trace,
    overhead_us: f64,
    overhead_frac: f64,
    residual: f64,
) {
    layer.push(("trace.overhead_p50_us".into(), overhead_us, "us"));
    layer.push(("trace.overhead_frac".into(), overhead_frac, "ratio"));
    layer.push(("trace.residual_frac".into(), residual, "ratio"));
    let self_ns = trace.layer_self_ns();
    for l in [
        "client", "net", "engine", "shard", "core", "rtree", "delaunay", "diagram",
    ] {
        let ns = self_ns.get(l).copied().unwrap_or(0);
        layer.push((format!("trace.{l}_self_ms"), ns as f64 / 1e6, "ms"));
    }
}

/// `ingest-mix`: in-process, one query thread and one open-loop writer.
fn run_ingest(inp: &Inputs) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let secs = Duration::from_secs(inp.seconds);
    let passes = if inp.trace { 2 } else { 1 };
    let queries = data::grid_sequence(
        inp.seed,
        0,
        (inp.seconds as usize * 5_000 * passes).max(PREFIX),
        &INGEST_AREAS,
    );
    let per_pass = (secs.as_millis() / INGEST_INTERVAL.as_millis()) as usize + 1;
    let batches = data::ingest_batches(inp.seed, inp.points, per_pass * passes);
    let mut lines = Vec::new();
    let mut trace = Trace::default();

    // Set-up: load the CSV and construct the engine SETUPS times.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut engine: Option<Engine> = None;
    for _ in 0..SETUPS {
        if let Some(e) = engine.take() {
            e.shutdown();
        }
        let t = Instant::now();
        let file =
            std::fs::File::open(inp.csv).map_err(|e| format!("{}: {e}", inp.csv.display()))?;
        let table = ssq_cli::csv::read_points(std::io::BufReader::new(file))
            .map_err(|e| format!("csv: {e}"))?;
        let e = Engine::new(&table.points, EngineConfig::default())
            .map_err(|e| format!("Engine::new: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.ok_or("no engine")?;

    let steal_log = StealLog::start();
    let t0 = Instant::now();
    let first = inproc::run_ingest(
        &engine,
        &queries,
        0,
        &batches,
        0,
        INGEST_INTERVAL,
        t0,
        t0 + secs,
        false,
        epoch,
    )?;
    let wall = t0.elapsed().as_secs_f64();
    let steal = steal_log.finish();
    let rss = crate::serve::vm_hwm_mb("/proc/self/status")?;
    let second = if inp.trace {
        let t1 = Instant::now();
        let r = inproc::run_ingest(
            &engine,
            &queries,
            first.queries.len(),
            &batches,
            first.publishes.len(),
            INGEST_INTERVAL,
            t1,
            t1 + secs,
            true,
            epoch,
        )?;
        Some(r)
    } else {
        None
    };
    let metrics = engine.metrics();
    engine.shutdown();

    // Check every answer against scalar b2s2 on a mirror of the
    // generation it names, rebuilding the mirror generation by
    // generation from the batch sequence.
    let verify_start = Instant::now();
    let mut tally = Tally::default();
    let mut all: Vec<&InSample> = first.queries.iter().collect();
    let mut publishes: Vec<&inproc::Publish> = first.publishes.iter().collect();
    if let Some(s) = &second {
        all.extend(s.queries.iter());
        publishes.extend(s.publishes.iter());
    }
    for (i, p) in publishes.iter().enumerate() {
        if p.index != i || p.generation != i as u64 + 1 {
            tally.check(
                &format!("batch {i} generation"),
                &[p.generation as u32],
                &[i as u32 + 1],
            );
        }
    }
    let max_gen = all.iter().map(|s| s.generation).max().unwrap_or(0);
    let mut by_gen: HashMap<u64, Vec<&InSample>> = HashMap::new();
    for s in &all {
        by_gen.entry(s.generation).or_default().push(s);
    }
    let mut mirror = Mirror::new(inp.points.to_vec());
    for g in 0..=max_gen {
        let answers = by_gen.get(&g).map(Vec::as_slice).unwrap_or(&[]);
        let expected = verify::par_map(answers, |s| mirror.reference(&queries[s.k as usize]));
        for (s, expected) in answers.iter().zip(&expected) {
            tally.check(
                &format!("answer to query {} on generation {g}", s.k),
                &s.skyline,
                expected,
            );
            if s.k == 0 {
                let oracle = mirror.oracle(&queries[0]);
                tally.oracle("query 0", &s.skyline, expected, &oracle);
            }
        }
        if g < max_gen {
            let batch = batches
                .get(g as usize)
                .ok_or("an answer names a generation no batch produced")?;
            let next = data::apply_batch(&mirror.points, &mirror.rtree.universe(), batch);
            mirror = Mirror::new(next);
        }
    }
    lines.push(format!(
        "verify: {} answers over {} generations checked against scalar b2s2 on mirror R-trees, {} against naive_full; {} wrong ({:.1}s)",
        all.len(),
        max_gen + 1,
        tally.oracle_checked,
        tally.wrong,
        verify_start.elapsed().as_secs_f64()
    ));

    let lat = lat_us(first.queries.iter().map(|s| s.total_ns));
    let p50 = percentile(&lat, 0.5);
    let done: Vec<(Instant, u64)> = first.queries.iter().map(|s| (s.done, s.total_ns)).collect();
    let m = pass_metrics(&done, t0, inp.seconds, &steal);
    lines.push(pass_note(&m));
    // Publishes of every pass, so a traced run's short passes together
    // still support p90.
    let publish_ms = sorted(
        first
            .publishes
            .iter()
            .chain(second.iter().flat_map(|s| s.publishes.iter()))
            .map(|p| p.visible_ns as f64 / 1e6),
    );
    let pub50 = percentile(&publish_ms, 0.5);
    let pub90 = if supports(publish_ms.len(), 0.9) {
        percentile(&publish_ms, 0.9)
    } else {
        0.0
    };
    let e2e = vec![
        ("setup_s", median(setups.iter().copied()), "s"),
        ("queries_per_s", m.qps, "1/s"),
        ("query_p50_us", m.p50_us, "us"),
        ("query_p99_us", m.p99_us, "us"),
        ("rss_peak_mb", rss, "MB"),
    ];
    let attempted = all.len() as u64 + publishes.len() as u64;
    let error_rate = ratio(tally.wrong as f64, attempted as f64);
    lines.push(format!(
        "samples: setup_s n={SETUPS} setups {:?}; latency n={} queries over {wall:.3}s; publishes n={} at one per {:?}",
        setups.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>(),
        first.queries.len(),
        first.publishes.len(),
        INGEST_INTERVAL
    ));
    lines.push(format!(
        "publish_p50_ms = {pub50} ms, publish_p90_ms = {pub90} ms (n={}; from due time until the generation was visible)",
        publish_ms.len()
    ));
    let late = sorted(first.publishes.iter().map(|p| p.late_ns as f64 / 1e6));
    lines.push(format!(
        "writer lateness: p50 {:.3} ms, max {:.3} ms",
        percentile(&late, 0.5),
        late.last().copied().unwrap_or(0.0)
    ));
    lines.push(format!(
        "error_rate = {error_rate} (n={attempted} attempted)"
    ));
    share_lines(
        &mut lines,
        "(queries)",
        &served_counts(&first.queries),
        &algorithm_counts(&first.queries),
    );

    let mut layer: Vec<(String, f64, &'static str)> = Vec::new();
    if let Some(second) = second {
        for t in second.tracers {
            trace.absorb(t);
        }
        let mut probe_tracer = Tracer::new(true, epoch);
        let prefix: Vec<&[Point]> = queries[..PREFIX].iter().map(Vec::as_slice).collect();
        let core = layers::core_probe(inp.points, &prefix, &mut probe_tracer)?;
        let mut delta_tally = Tally::default();
        let (rt_ms, vo_ms) = layers::delta_probe(
            &core,
            &batches[..DELTA_PROBES],
            &mut delta_tally,
            &mut probe_tracer,
        )?;
        trace.absorb(probe_tracer);
        tally.wrong += core.tally.wrong + delta_tally.wrong;

        let in_service = lat_us(first.queries.iter().map(|s| s.service_ns));
        let in_queue = lat_us(first.queries.iter().map(|s| s.total_ns - s.service_ns));
        let (q50, q99) = p50_p99(&in_queue);
        let (s50, s99) = p50_p99(&in_service);
        let client_mean = mean(lat.iter().copied());
        let stage_sum = mean(in_queue.iter().copied()) + mean(in_service.iter().copied());
        let residual = ratio(client_mean - stage_sum, client_mean);
        lines.push(format!(
            "reconcile: in-process, no network stage: submit->answer mean {client_mean:.2}us = queue {:.2} + service {:.2}; residual {residual:+.4} (tolerance ±{RECONCILE_TOLERANCE})",
            mean(in_queue.iter().copied()),
            mean(in_service.iter().copied())
        ));
        let traced_lat = lat_us(second.queries.iter().map(|s| s.total_ns));
        let tp50 = percentile(&traced_lat, 0.5);
        let n = first.publishes.len() as f64;
        let ingest_queue = sorted(
            first
                .publishes
                .iter()
                .map(|p| (p.visible_ns.saturating_sub(p.build_ns)) as f64 / 1e6),
        );

        push_zeros(
            &mut layer,
            &[
                ("net.self_us_p50", "us"),
                ("net.ping_us_p50", "us"),
                ("net.encode_ns", "ns"),
                ("net.decode_ns", "ns"),
                ("net.bytes_in_per_query", "B"),
                ("net.bytes_out_per_query", "B"),
                ("net.shed_requests", "count"),
            ],
        );
        layer.push(("engine.queue_wait_us_p50".into(), q50, "us"));
        layer.push(("engine.queue_wait_us_p99".into(), q99, "us"));
        layer.push(("engine.service_us_p50".into(), s50, "us"));
        layer.push(("engine.service_us_p99".into(), s99, "us"));
        layer.push((
            "engine.cache_hit_rate".into(),
            metrics.cache_hit_rate(),
            "ratio",
        ));
        let served = served_counts(&first.queries);
        let total = first.queries.len() as f64;
        for (i, name) in ["planner", "cache", "diagram"].iter().enumerate() {
            layer.push((
                format!("engine.served_{name}_frac"),
                ratio(served[i] as f64, total),
                "ratio",
            ));
        }
        let algs = algorithm_counts(&first.queries);
        for alg in Algorithm::ALL {
            layer.push((
                format!("engine.plan_{}_frac", alg.name()),
                ratio(algs[alg.index()] as f64, total),
                "ratio",
            ));
        }
        layer.push((
            "engine.ingest_queue_ms".into(),
            percentile(&ingest_queue, 0.5),
            "ms",
        ));
        layer.push((
            "engine.ingest_incremental_frac".into(),
            ratio(
                first.publishes.iter().filter(|p| p.incremental).count() as f64,
                n,
            ),
            "ratio",
        ));
        layer.push((
            "engine.dirty_cells_per_batch".into(),
            ratio(
                first.publishes.iter().map(|p| p.dirty_cells as f64).sum(),
                n,
            ),
            "count",
        ));
        push_core(&mut layer, &core);
        layer.push((
            "rtree.apply_delta_ms".into(),
            median(rt_ms.iter().copied()),
            "ms",
        ));
        layer.push((
            "delaunay.apply_delta_ms".into(),
            median(vo_ms.iter().copied()),
            "ms",
        ));
        push_zeros(
            &mut layer,
            &[
                ("diagram.lookup_ns_p50", "ns"),
                ("diagram.hit_rate", "ratio"),
                ("diagram.build_ms", "ms"),
                ("diagram.cells", "count"),
                ("shard.query_us_p50", "us"),
                ("shard.query_us_p99", "us"),
                ("shard.queried_mean", "count"),
                ("shard.pruned_frac", "ratio"),
            ],
        );
        layer.push(("publish_p50_ms".into(), pub50, "ms"));
        layer.push(("publish_p90_ms".into(), pub90, "ms"));
        layer.push(("error_rate".into(), error_rate, "ratio"));
        push_trace(
            &mut layer,
            &trace,
            tp50 - p50,
            ratio(tp50 - p50, p50),
            residual,
        );
        lines.push(format!(
            "samples (traced): traced pass n={} queries, {} publishes; kernel prefix n={}; delta probes n={}",
            second.queries.len(),
            second.publishes.len(),
            core.queries,
            rt_ms.len()
        ));
    }
    Ok(Outcome {
        facts: vec![
            format!("server_isa={} (in-process)", ssq_geom::simd::path_name()),
            steal.fact(),
            format!(
                "load=closed-loop query_threads=1 depth=1 + open-loop writer every {}ms",
                INGEST_INTERVAL.as_millis()
            ),
            "engine_config=EngineConfig::default()".into(),
        ],
        e2e,
        layer,
        lines: with_first(lines, &tally),
        attempted,
        failed: tally.wrong,
        correct: tally.wrong == 0,
        trace,
    })
}

fn algorithm_counts(samples: &[InSample]) -> [u64; 5] {
    let mut out = [0u64; 5];
    for s in samples {
        out[s.algorithm.index()] += 1;
    }
    out
}
