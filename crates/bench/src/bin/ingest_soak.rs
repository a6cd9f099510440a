//! Streaming-ingest soak: delta publish cost vs full rebuilds, then a
//! sustained updates × queries mix.
//!
//! ```text
//! cargo run --release -p ssq-bench --bin ingest_soak [-- n batch_ops soak_batches]
//! cargo run --release -p ssq-bench --bin ingest_soak -- --smoke
//! ```
//!
//! Two sections, both written to `BENCH_INGEST.json`:
//!
//! 1. **Publish cost** — on `n` synthetic USGS points (default 100 000),
//!    a timed full `Snapshot::build` against the mean publish cost of
//!    [`Engine::apply_delta`] for constant-size batches of `batch_ops`
//!    mixed inserts/deletes (default 0.2% of the dataset, well under the
//!    1% acceptance bound). The run **exits nonzero unless the delta
//!    publish is at least 10× cheaper than the full rebuild** — this is
//!    the PR's acceptance gate, so the smoke mode measures the very same
//!    100k-point cell.
//! 2. **Sustained soak** — a producer thread streams `soak_batches`
//!    batches through the bounded [`Engine::ingest`] queue while client
//!    threads keep querying; the record is updates/sec, queries/sec, and
//!    the *client-observed* query latency (p50/p99), which is where a
//!    stop-the-world index rebuild would show up.
//!
//! Exits nonzero on any ingest error, non-finite measurement, zero
//! throughput, or a publish speedup below 10×. `--smoke` writes its
//! record to `target/bench-smoke/BENCH_INGEST.json`.

use ssq_bench::{uniform_query_sets, write_bench_json, Fixture};
use ssq_core::UpdateBatch;
use ssq_engine::{Engine, EngineConfig, QueryRequest, Snapshot};
use ssq_geom::{Point, Rect};
use ssq_workload::rng::Xoshiro256;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The publish-cost section of the record.
struct PublishCost {
    dataset_points: usize,
    batch_ops: usize,
    batches: usize,
    full_build_ms: f64,
    delta_mean_ms: f64,
    delta_p99_ms: f64,
    speedup: f64,
    incremental: usize,
}

/// The sustained-soak section of the record.
struct Soak {
    dataset_points: usize,
    batches: usize,
    ops_per_batch: usize,
    clients: usize,
    updates_per_sec: f64,
    queries_per_sec: f64,
    query_p50_us: f64,
    query_p99_us: f64,
    generations: u64,
    shed: u64,
}

/// A constant-size delta: `ops / 2` fresh uniform inserts plus `ops / 2`
/// distinct random deletes, so the dataset never drifts in cardinality
/// and delete ids stay valid for every queued batch.
fn random_batch(rng: &mut Xoshiro256, universe: &Rect, n: usize, ops: usize) -> UpdateBatch {
    let half = (ops / 2).max(1);
    let inserts: Vec<Point> = (0..half)
        .map(|_| {
            Point::new(
                rng.range_f64(universe.min.x, universe.max.x),
                rng.range_f64(universe.min.y, universe.max.y),
            )
        })
        .collect();
    let mut deletes: Vec<u32> = Vec::with_capacity(half);
    while deletes.len() < half {
        let id = rng.range_usize(n) as u32;
        if !deletes.contains(&id) {
            deletes.push(id);
        }
    }
    UpdateBatch { inserts, deletes }
}

/// Times one full `Snapshot::build` and `batches` delta publishes of
/// `batch_ops` mixed operations each, on the same dataset.
fn publish_cost(points: &[Point], batch_ops: usize, batches: usize) -> Result<PublishCost, String> {
    let t0 = Instant::now();
    let snapshot = Snapshot::build(0, points).map_err(|e| format!("full build: {e}"))?;
    let full_build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let universe = snapshot.universe();
    let engine = Engine::with_snapshot(Arc::new(snapshot), EngineConfig::default())
        .map_err(|e| format!("engine: {e}"))?;
    let mut rng = Xoshiro256::seed_from_u64(0xD311A);
    // One untimed warm-up publish, mirroring the hot-path bench: the
    // first delta pays one-off costs (allocator growth, cold index
    // pages) that steady-state streaming never sees again.
    let warmup = random_batch(&mut rng, &universe, points.len(), batch_ops);
    engine
        .apply_delta(&warmup)
        .map_err(|e| format!("warm-up delta: {e}"))?;
    let mut publish_ms: Vec<f64> = Vec::with_capacity(batches);
    let mut incremental = 0usize;
    for b in 0..batches {
        let batch = random_batch(&mut rng, &universe, points.len(), batch_ops);
        let t = Instant::now();
        let report = engine
            .apply_delta(&batch)
            .map_err(|e| format!("delta {b}: {e}"))?;
        publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if report.stats.incremental {
            incremental += 1;
        }
    }
    engine.shutdown();
    publish_ms.sort_unstable_by(f64::total_cmp);
    let mean = publish_ms.iter().sum::<f64>() / publish_ms.len().max(1) as f64;
    let p99 = publish_ms[(publish_ms.len() * 99 / 100).min(publish_ms.len() - 1)];
    Ok(PublishCost {
        dataset_points: points.len(),
        batch_ops,
        batches,
        full_build_ms,
        delta_mean_ms: mean,
        delta_p99_ms: p99,
        speedup: full_build_ms / mean.max(1e-9),
        incremental,
    })
}

/// Streams `batches` deltas through the bounded ingest queue while
/// `clients` threads query; all latencies are client-observed.
fn soak(
    points: &[Point],
    ops_per_batch: usize,
    batches: usize,
    clients: usize,
    seed: u64,
) -> Result<Soak, String> {
    let engine =
        Arc::new(Engine::new(points, EngineConfig::default()).map_err(|e| format!("engine: {e}"))?);
    let universe = engine.snapshot().universe();
    let sets = Arc::new(uniform_query_sets(points, 12, 5, seed));
    let done = Arc::new(AtomicBool::new(false));

    let queriers: Vec<std::thread::JoinHandle<Vec<f64>>> = (0..clients)
        .map(|c| {
            let engine = Arc::clone(&engine);
            let sets = Arc::clone(&sets);
            let done = Arc::clone(&done);
            std::thread::spawn(move || -> Vec<f64> {
                let mut lat_us = Vec::new();
                let mut i = c;
                while !done.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    let r = engine
                        .submit(QueryRequest::new(sets[i % sets.len()].clone()))
                        .wait();
                    lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                    std::hint::black_box(&r.skyline);
                    i += 1;
                }
                lat_us
            })
        })
        .collect();

    // The producer: pipelined submission through the bounded queue, so
    // the ingestor thread is never starved waiting on this loop. The
    // constant-size batches keep every delete id in range no matter how
    // deep the queue runs.
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x1261);
    let t0 = Instant::now();
    let mut handles = std::collections::VecDeque::new();
    let mut last_generation = 0u64;
    for b in 0..batches {
        let batch = random_batch(&mut rng, &universe, points.len(), ops_per_batch);
        handles.push_back(
            engine
                .ingest(batch)
                .map_err(|e| format!("ingest {b}: {e}"))?,
        );
        while handles.len() >= 8 {
            if let Some(h) = handles.pop_front() {
                let report = h.wait().map_err(|e| format!("publish: {e}"))?;
                last_generation = report.generation;
            }
        }
    }
    for h in handles {
        let report = h.wait().map_err(|e| format!("publish: {e}"))?;
        last_generation = report.generation;
    }
    let ingest_elapsed = t0.elapsed().as_secs_f64();
    done.store(true, Ordering::Relaxed);

    let mut lat_us: Vec<f64> = Vec::new();
    for (c, q) in queriers.into_iter().enumerate() {
        lat_us.extend(q.join().map_err(|_| format!("client {c} panicked"))?);
    }
    if lat_us.is_empty() {
        return Err("no queries completed during the soak".into());
    }
    lat_us.sort_unstable_by(f64::total_cmp);
    let queries = lat_us.len();
    let metrics = engine.metrics();
    if let Ok(engine) = Arc::try_unwrap(engine) {
        engine.shutdown();
    }
    Ok(Soak {
        dataset_points: points.len(),
        batches,
        ops_per_batch,
        clients,
        updates_per_sec: (batches * ops_per_batch) as f64 / ingest_elapsed.max(1e-9),
        queries_per_sec: queries as f64 / ingest_elapsed.max(1e-9),
        query_p50_us: lat_us[queries / 2],
        query_p99_us: lat_us[(queries * 99 / 100).min(queries - 1)],
        generations: last_generation,
        shed: metrics.ingest.shed,
    })
}

fn ingest_json(cost: &PublishCost, soak: &Soak) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"publish_cost\": {\n");
    out.push_str(&format!(
        "    \"dataset_points\": {},\n",
        cost.dataset_points
    ));
    out.push_str(&format!("    \"batch_ops\": {},\n", cost.batch_ops));
    out.push_str(&format!("    \"batches\": {},\n", cost.batches));
    out.push_str(&format!(
        "    \"full_build_ms\": {:.3},\n",
        cost.full_build_ms
    ));
    out.push_str(&format!(
        "    \"delta_mean_ms\": {:.3},\n",
        cost.delta_mean_ms
    ));
    out.push_str(&format!(
        "    \"delta_p99_ms\": {:.3},\n",
        cost.delta_p99_ms
    ));
    out.push_str(&format!("    \"speedup\": {:.1},\n", cost.speedup));
    out.push_str(&format!("    \"incremental\": {}\n", cost.incremental));
    out.push_str("  },\n");
    out.push_str("  \"soak\": {\n");
    out.push_str(&format!(
        "    \"dataset_points\": {},\n",
        soak.dataset_points
    ));
    out.push_str(&format!("    \"batches\": {},\n", soak.batches));
    out.push_str(&format!("    \"ops_per_batch\": {},\n", soak.ops_per_batch));
    out.push_str(&format!("    \"clients\": {},\n", soak.clients));
    out.push_str(&format!(
        "    \"updates_per_sec\": {:.1},\n",
        soak.updates_per_sec
    ));
    out.push_str(&format!(
        "    \"queries_per_sec\": {:.1},\n",
        soak.queries_per_sec
    ));
    out.push_str(&format!(
        "    \"query_p50_us\": {:.1},\n",
        soak.query_p50_us
    ));
    out.push_str(&format!(
        "    \"query_p99_us\": {:.1},\n",
        soak.query_p99_us
    ));
    out.push_str(&format!("    \"generations\": {},\n", soak.generations));
    out.push_str(&format!("    \"shed\": {}\n", soak.shed));
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let n: usize = positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let batch_ops: usize = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(n / 500);
    let soak_batches: usize = positional
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 24 } else { 150 });

    assert!(
        batch_ops * 100 <= n,
        "the acceptance bound is a batch of at most 1% of the dataset"
    );

    // Section 1: the acceptance cell. Smoke runs the same dataset size —
    // the criterion is about the 100k-point regime, so shrinking it
    // would gate nothing.
    let cost_batches = if smoke { 4 } else { 16 };
    println!(
        "# publish cost: {n} points, {cost_batches} delta batches of {batch_ops} ops \
         ({:.2}% of the dataset)",
        batch_ops as f64 * 100.0 / n as f64
    );
    let fix = Fixture::usgs(n, 0x5eed);
    let cost = match publish_cost(&fix.points, batch_ops, cost_batches) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("# FATAL: publish cost: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# full build {:.1}ms vs delta mean {:.1}ms (p99 {:.1}ms) -> {:.1}x cheaper; \
         {}/{} incremental",
        cost.full_build_ms,
        cost.delta_mean_ms,
        cost.delta_p99_ms,
        cost.speedup,
        cost.incremental,
        cost.batches
    );

    // Section 2: sustained mix on a smaller dataset, so the soak stays
    // seconds long while still crossing many generations.
    let soak_n = if smoke { 5_000 } else { 20_000 };
    let soak_ops = (soak_n / 200).max(2);
    let clients = std::thread::available_parallelism()
        .map_or(2, |c| c.get())
        .clamp(2, 6);
    println!(
        "# soak: {soak_n} points, {soak_batches} batches of {soak_ops} ops, {clients} query clients"
    );
    let soak_fix = Fixture::usgs(soak_n, 0xCAFE);
    let soak = match soak(&soak_fix.points, soak_ops, soak_batches, clients, 0x9e37) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("# FATAL: soak: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# {:.0} updates/s alongside {:.0} queries/s; query p50 {:.0}us p99 {:.0}us; \
         {} generations, {} shed",
        soak.updates_per_sec,
        soak.queries_per_sec,
        soak.query_p50_us,
        soak.query_p99_us,
        soak.generations,
        soak.shed
    );

    for (name, v) in [
        ("full_build_ms", cost.full_build_ms),
        ("delta_mean_ms", cost.delta_mean_ms),
        ("speedup", cost.speedup),
        ("updates_per_sec", soak.updates_per_sec),
        ("queries_per_sec", soak.queries_per_sec),
        ("query_p99_us", soak.query_p99_us),
    ] {
        if !v.is_finite() || v <= 0.0 {
            eprintln!("# FATAL: {name} measured {v}");
            std::process::exit(1);
        }
    }

    let json = ingest_json(&cost, &soak);
    write_bench_json("BENCH_INGEST.json", smoke, &json);

    if cost.speedup < 10.0 {
        eprintln!(
            "# FATAL: delta publish is only {:.1}x cheaper than a full rebuild (acceptance: 10x)",
            cost.speedup
        );
        std::process::exit(1);
    }
}
