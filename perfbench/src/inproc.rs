//! In-process load: the same request sequences submitted straight to
//! an `Engine` (no socket), and the `ingest-mix` workload, which has no
//! wire frame and runs in-process only.

use crate::serve::Traffic;
use crate::trace::Tracer;
use ssq_core::UpdateBatch;
use ssq_engine::{Algorithm, Engine, QueryRequest, ServedBy};
use ssq_geom::Point;
use std::time::{Duration, Instant};

/// One answered in-process request.
pub struct InSample {
    /// Connection (thread) that sent it.
    pub conn: u8,
    /// Index in that connection's sequence.
    pub k: u32,
    /// Submit → answer, ns.
    pub total_ns: u64,
    /// When the answer arrived.
    pub done: Instant,
    /// The engine's own service time (`QueryResponse::latency`), ns.
    pub service_ns: u64,
    /// Which path answered.
    pub served_by: ServedBy,
    /// The algorithm that ran (or, for a diagram hit, would have run).
    pub algorithm: Algorithm,
    /// The generation the answer is exact for.
    pub generation: u64,
    /// The answer.
    pub skyline: Vec<u32>,
}

/// Answers `q` through `Engine::submit` + `wait`, recording an
/// `engine.request` span with an `engine.service` child.
fn call(engine: &Engine, q: &[Point], conn: usize, k: usize, tracer: &mut Tracer) -> InSample {
    tracer.open("engine.request", ((conn as u64) << 32) | k as u64);
    let t0 = Instant::now();
    let resp = engine.submit(QueryRequest::new(q.to_vec())).wait();
    let done = Instant::now();
    let total_ns = (done - t0).as_nanos() as u64;
    let end = tracer.clock_ns();
    let service_ns = (resp.latency.as_nanos() as u64).min(total_ns);
    tracer.record_child("engine.service", end.saturating_sub(service_ns), end);
    tracer.close();
    InSample {
        conn: conn as u8,
        k: k as u32,
        total_ns,
        done,
        service_ns,
        served_by: resp.served_by,
        algorithm: resp.algorithm,
        generation: resp.generation,
        skyline: resp.skyline,
    }
}

/// Replays `traffic` closed-loop against `engine`, one thread per entry
/// of `limits`: thread `c` sends requests `0..limits[c]` of its
/// sequence, stopping early at `deadline`.
pub fn replay(
    engine: &Engine,
    traffic: &Traffic,
    limits: &[usize],
    deadline: Instant,
    trace: bool,
    epoch: Instant,
) -> Result<(Vec<InSample>, Vec<Tracer>), String> {
    let per_thread = std::thread::scope(|s| {
        let handles: Vec<_> = limits
            .iter()
            .enumerate()
            .map(|(c, &limit)| {
                s.spawn(move || {
                    let mut tracer = Tracer::new(trace, epoch);
                    let mut out = Vec::with_capacity(limit.min(1 << 20));
                    for k in 0..limit {
                        if Instant::now() >= deadline {
                            break;
                        }
                        out.push(call(engine, traffic.query(c, k), c, k, &mut tracer));
                    }
                    (out, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "replay thread panicked".to_string()))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut samples = Vec::new();
    let mut tracers = Vec::new();
    for (s, t) in per_thread {
        samples.extend(s);
        tracers.push(t);
    }
    Ok((samples, tracers))
}

/// Submits every shape until one whole round is served by the diagram.
pub fn warm_engine_diagram(
    engine: &Engine,
    shapes: &[Vec<Point>],
    limit: Duration,
) -> Result<usize, String> {
    let deadline = Instant::now() + limit;
    let mut rounds = 0;
    while Instant::now() < deadline {
        rounds += 1;
        let all = shapes.iter().all(|q| {
            engine.submit(QueryRequest::new(q.clone())).wait().served_by == ServedBy::Diagram
        });
        if all {
            return Ok(rounds);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Err(format!(
        "the in-process diagram did not serve every shape within {limit:?}"
    ))
}

/// One published ingest batch.
pub struct Publish {
    /// Position in the batch sequence.
    pub index: usize,
    /// The generation it produced.
    pub generation: u64,
    /// From the batch's due time until its generation was visible, ns.
    pub visible_ns: u64,
    /// How late the writer submitted it, ns.
    pub late_ns: u64,
    /// `IngestReport::build`, ns.
    pub build_ns: u64,
    /// Whether the incremental path ran.
    pub incremental: bool,
    /// Voronoi cells recomputed.
    pub dirty_cells: usize,
}

/// What an `ingest-mix` pass saw.
pub struct IngestRun {
    /// Query answers (one query thread).
    pub queries: Vec<InSample>,
    /// Publishes, in batch order.
    pub publishes: Vec<Publish>,
    /// Query-thread and writer-thread spans.
    pub tracers: Vec<Tracer>,
}

/// Runs `ingest-mix` until `deadline`: one thread queries closed-loop
/// through `queries` (continuing at `first_query`), one thread submits
/// `batches[first_batch..]` through `Engine::ingest` open-loop, one every
/// `interval` from `start`, and waits for each publish.
#[allow(clippy::too_many_arguments)]
pub fn run_ingest(
    engine: &Engine,
    queries: &[Vec<Point>],
    first_query: usize,
    batches: &[UpdateBatch],
    first_batch: usize,
    interval: Duration,
    start: Instant,
    deadline: Instant,
    trace: bool,
    epoch: Instant,
) -> Result<IngestRun, String> {
    let (reader, writer) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut tracer = Tracer::new(trace, epoch);
            let mut out = Vec::new();
            let mut k = first_query;
            while Instant::now() < deadline && k < queries.len() {
                out.push(call(engine, &queries[k], 0, k, &mut tracer));
                k += 1;
            }
            (out, tracer)
        });
        let writer = s.spawn(|| {
            let mut tracer = Tracer::new(trace, epoch);
            let mut out = Vec::new();
            for (i, batch) in batches.iter().enumerate().skip(first_batch) {
                let due = start + interval * (i - first_batch) as u32;
                if due >= deadline {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let late_ns = due.elapsed().as_nanos() as u64;
                tracer.open("engine.ingest", i as u64);
                let report = engine
                    .ingest(batch.clone())
                    .map_err(|e| format!("ingest refused batch {i}: {e}"))?
                    .wait()
                    .map_err(|e| format!("batch {i} failed to publish: {e}"))?;
                let visible_ns = due.elapsed().as_nanos() as u64;
                let end = tracer.clock_ns();
                let build_ns = report.build.as_nanos() as u64;
                tracer.record_child("engine.publish_build", end.saturating_sub(build_ns), end);
                tracer.close();
                out.push(Publish {
                    index: i,
                    generation: report.generation,
                    visible_ns,
                    late_ns,
                    build_ns,
                    incremental: report.stats.incremental,
                    dirty_cells: report.stats.dirty_cells,
                });
            }
            Ok::<_, String>((out, tracer))
        });
        (
            reader
                .join()
                .map_err(|_| "query thread panicked".to_string()),
            writer
                .join()
                .map_err(|_| "writer thread panicked".to_string()),
        )
    });
    let (queries, qt) = reader?;
    let (publishes, wt) = writer??;
    Ok(IngestRun {
        queries,
        publishes,
        tracers: vec![qt, wt],
    })
}
