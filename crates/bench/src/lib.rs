//! # ssq-bench
//!
//! The experiment harness reproducing §7 of *The Spatial Skyline Queries*.
//!
//! Each experiment of the paper maps to one function here; the `reproduce`
//! binary prints them as tables, and the Criterion benches under
//! `benches/` wrap the timing-sensitive ones. Absolute numbers differ
//! from the 2006 testbed; the comparisons (who wins, by what factor, in
//! which direction each curve moves) are the reproduction target — see
//! EXPERIMENTS.md.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::all)]

pub mod hotpath;

pub use hotpath::{
    dist_per_sec_of, hotpath_json, mean_allocs, mean_qps, mean_simd_qps, run_hotpath,
    validate_rows, HotpathRow, MIN_HOTPATH_SAMPLES,
};

use std::path::PathBuf;
use std::time::Instant;

use ssq_core::mixed::{mixed_b2s2, mixed_naive, mixed_vs2, MixedContext};
use ssq_core::{
    b2s2, bbs, vs2_with, ContinuousSkyline, QueryContext, RTreeIndex, VoronoiIndex, VsExpansion,
};
use ssq_geom::Point;
use ssq_workload::motion::{MotionConfig, MovingQuerySet};
use ssq_workload::queries::{random_query_set, QueryConfig};
use ssq_workload::rng::Xoshiro256;
use ssq_workload::usgs::{synthetic_usgs, UsgsConfig, CATEGORY_MIX};

/// Directory, relative to the repository root, that `--smoke` runs of
/// the bench binaries write their JSON artifacts to.
pub const SMOKE_DIR: &str = "target/bench-smoke";

/// Writes a bench binary's `BENCH_*.json` artifact `name` — to the
/// working directory for a full run, to [`SMOKE_DIR`] (created on demand)
/// for a `--smoke` run, so CI smoke passes never overwrite the committed
/// full-scale files — and reports where it went.
pub fn write_bench_json(name: &str, smoke: bool, json: &str) {
    let path = if smoke {
        std::fs::create_dir_all(SMOKE_DIR).expect("create the smoke artifact directory");
        PathBuf::from(SMOKE_DIR).join(name)
    } else {
        PathBuf::from(name)
    };
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("# wrote {}", path.display());
}

/// Which algorithm a measurement row belongss to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// The BBS competitor baseline.
    Bbs,
    /// B²S².
    B2s2,
    /// VS² (safe expansion).
    Vs2,
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algo::Bbs => write!(f, "BBS"),
            Algo::B2s2 => write!(f, "B2S2"),
            Algo::Vs2 => write!(f, "VS2"),
        }
    }
}

/// Averaged costs of one algorithm at one experiment setting.
#[derive(Clone, Copy, Debug, Default)]
pub struct Costs {
    /// Mean wall-clock time per query, milliseconds.
    pub time_ms: f64,
    /// Mean dominance checks per query.
    pub dominance_checks: f64,
    /// Mean index node/page accesses per query.
    pub node_accesses: f64,
    /// Mean skyline size.
    pub skyline_size: f64,
}

/// The shared experimental fixture: one dataset with both physical
/// designs built over it.
pub struct Fixture {
    /// The data points.
    pub points: Vec<Point>,
    /// R*-tree (BBS, B²S²).
    pub rtree: RTreeIndex,
    /// Delaunay graph + paged adjacency (VS², VCS²).
    pub voronoi: VoronoiIndex,
}

impl Fixture {
    /// Builds the fixture over the synthetic USGS dataset of size `n`.
    pub fn usgs(n: usize, seed: u64) -> Fixture {
        let points: Vec<Point> = synthetic_usgs(&UsgsConfig {
            n,
            seed,
            ..UsgsConfig::default()
        })
        .iter()
        .map(|u| u.location)
        .collect();
        Self::from_points(points)
    }

    /// Builds the fixture over an explicit point set.
    pub fn from_points(points: Vec<Point>) -> Fixture {
        let rtree = RTreeIndex::new(&points);
        let voronoi = VoronoiIndex::new(&points).expect("distinct points");
        Fixture {
            points,
            rtree,
            voronoi,
        }
    }
}

/// Runs `algo` once and returns `(time_ms, stats, skyline_len)`.
pub fn run_once(
    fix: &Fixture,
    algo: Algo,
    ctx: &QueryContext,
) -> (f64, ssq_core::QueryStats, usize) {
    let t0 = Instant::now();
    let result = match algo {
        Algo::Bbs => bbs(&fix.rtree, ctx),
        Algo::B2s2 => b2s2(&fix.rtree, ctx),
        Algo::Vs2 => vs2_with(&fix.voronoi, ctx, VsExpansion::Safe, None),
    };
    let dt = t0.elapsed().as_secs_f64() * 1e3;
    (dt, result.stats, result.skyline.len())
}

/// Averages `algo` over a batch of random query sets.
pub fn run_batch(
    fix: &Fixture,
    algo: Algo,
    count: usize,
    mbr_area_fraction: f64,
    batch: usize,
    seed: u64,
) -> Costs {
    let mut acc = Costs::default();
    for k in 0..batch {
        let q = random_query_set(&QueryConfig {
            count,
            mbr_area_fraction,
            universe: ssq_workload::usgs::universe(),
            seed: seed.wrapping_add(k as u64 * 7919),
        });
        let ctx = QueryContext::new(&q);
        let (t, stats, len) = run_once(fix, algo, &ctx);
        acc.time_ms += t;
        acc.dominance_checks += stats.dominance_checks as f64;
        acc.node_accesses += stats.node_accesses as f64;
        acc.skyline_size += len as f64;
    }
    let b = batch as f64;
    Costs {
        time_ms: acc.time_ms / b,
        dominance_checks: acc.dominance_checks / b,
        node_accesses: acc.node_accesses / b,
        skyline_size: acc.skyline_size / b,
    }
}

/// One row of the continuous (VCS²) experiment.
#[derive(Clone, Copy, Debug)]
pub struct ContinuousRow {
    /// Number of moving query objects.
    pub query_count: usize,
    /// Fraction of updates with outcome Unchanged (pattern I).
    pub unchanged_frac: f64,
    /// Fraction handled incrementally (patterns II-V).
    pub incremental_frac: f64,
    /// Fraction that required a full VS² recomputation.
    pub recomputed_frac: f64,
    /// Mean VCS² update time (ms), over all updates.
    pub vcs2_ms: f64,
    /// Mean VCS² update time (ms) over the *non-recompute* updates only —
    /// the population the paper's "factor of 3" speedup claim refers to
    /// ("For the other 97% of movements, VCS² outperforms VS²...").
    pub vcs2_fast_ms: f64,
    /// Mean fresh-VS² recomputation time (ms) on the same states.
    pub vs2_ms: f64,
}

/// Runs the continuous experiment for one `|Q|`: streams `updates`
/// movements, measuring VCS² update cost and, every few steps, the cost a
/// from-scratch VS² would have paid.
pub fn run_continuous(
    fix: &Fixture,
    query_count: usize,
    updates: usize,
    step: f64,
    seed: u64,
) -> ContinuousRow {
    let mut team = MovingQuerySet::new(MotionConfig {
        count: query_count,
        step,
        start_box: 0.05,
        seed,
        ..MotionConfig::default()
    });
    let mut cont = ContinuousSkyline::new(&fix.voronoi, team.positions());

    let mut vcs2_time = 0.0;
    let mut vcs2_fast_time = 0.0;
    let mut fast_updates = 0usize;
    let mut vs2_time = 0.0;
    let mut vs2_samples = 0usize;
    for i in 0..updates {
        let up = team.next_update();
        let t0 = Instant::now();
        let (outcome, _) = cont.update(up.index, up.location);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        vcs2_time += dt;
        if outcome != ssq_core::UpdateOutcome::Recomputed {
            vcs2_fast_time += dt;
            fast_updates += 1;
        }

        // Sample the rerun cost on a subset of states (it is the slow
        // side; sampling keeps the harness fast without biasing the mean).
        if i % 5 == 0 {
            let ctx = QueryContext::new(team.positions());
            let t1 = Instant::now();
            let _ = vs2_with(&fix.voronoi, &ctx, VsExpansion::Safe, None);
            vs2_time += t1.elapsed().as_secs_f64() * 1e3;
            vs2_samples += 1;
        }
    }
    let counts = cont.counts();
    let total = counts.total() as f64;
    ContinuousRow {
        query_count,
        unchanged_frac: counts.unchanged as f64 / total,
        incremental_frac: counts.incremental as f64 / total,
        recomputed_frac: counts.recomputed as f64 / total,
        vcs2_ms: vcs2_time / updates as f64,
        vcs2_fast_ms: vcs2_fast_time / fast_updates.max(1) as f64,
        vs2_ms: vs2_time / vs2_samples.max(1) as f64,
    }
}

/// One row of the mixed-skyline experiment.
#[derive(Clone, Copy, Debug)]
pub struct MixedRow {
    /// Number of static attributes.
    pub attr_count: usize,
    /// |S(A)|.
    pub static_size: usize,
    /// |S(Q)|.
    pub spatial_size: usize,
    /// |S(A, Q)|.
    pub mixed_size: usize,
    /// Naive oracle time (ms).
    pub naive_ms: f64,
    /// Mixed B²S² time (ms).
    pub b2s2_ms: f64,
    /// Mixed VS² time (ms).
    pub vs2_ms: f64,
}

/// Runs the §6 mixed-skyline experiment for one attribute arity.
pub fn run_mixed(fix: &Fixture, attr_count: usize, seed: u64) -> MixedRow {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let attrs: Vec<Vec<f64>> = (0..fix.points.len())
        .map(|_| (0..attr_count).map(|_| rng.f64()).collect())
        .collect();
    let q = random_query_set(&QueryConfig::paper_default(5, seed ^ 0xABCD));
    let ctx = QueryContext::new(&q);
    let mctx = MixedContext::new(&fix.points, &attrs, &ctx);

    let t0 = Instant::now();
    let naive = mixed_naive(&fix.points, &mctx);
    let naive_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let rb = mixed_b2s2(&fix.rtree, &mctx);
    let b2s2_ms = t1.elapsed().as_secs_f64() * 1e3;
    let t2 = Instant::now();
    let rv = mixed_vs2(&fix.voronoi, &mctx);
    let vs2_ms = t2.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        naive.skyline, rb.skyline,
        "mixed B2S2 disagrees with oracle"
    );
    assert_eq!(naive.skyline, rv.skyline, "mixed VS2 disagrees with oracle");

    let spatial = b2s2(&fix.rtree, &ctx);
    MixedRow {
        attr_count,
        static_size: mctx.static_skyline().len(),
        spatial_size: spatial.skyline.len(),
        mixed_size: naive.skyline.len(),
        naive_ms,
        b2s2_ms,
        vs2_ms,
    }
}

/// One row of the engine throughput-scaling experiment: the same request
/// stream pushed through [`ssq_engine::Engine`] pools of different sizes.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputRow {
    /// Worker threads in the pool.
    pub threads: usize,
    /// Requests served.
    pub requests: usize,
    /// Wall-clock service rate.
    pub reqs_per_sec: f64,
    /// Median per-query latency, microseconds (bucketed upper bound).
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds (bucketed upper bound).
    pub p99_us: f64,
    /// Context-cache hit rate over the run.
    pub cache_hit_rate: f64,
}

/// Serves `requests` queries (drawn from `distinct` random query sets of
/// `count` points, so repeats hit the context cache) through an engine
/// with `threads` workers, and reports the aggregate rates.
///
/// `batch == 0` submits every request individually
/// ([`ssq_engine::Engine::submit`], one queue hop per query); `batch > 0`
/// chunks the stream into [`ssq_engine::Engine::submit_batch`] calls of
/// that size, amortizing the queue hop, snapshot pin, and cache probe
/// across each chunk. Chunks are pool jobs, so they still spread over the
/// workers.
#[allow(clippy::too_many_arguments)]
pub fn run_throughput(
    points: &[Point],
    threads: usize,
    requests: usize,
    distinct: usize,
    count: usize,
    batch: usize,
    seed: u64,
) -> ThroughputRow {
    use ssq_engine::{Engine, EngineConfig, QueryRequest};

    let universe = ssq_geom::Rect::bounding(points.iter().copied());
    let query_sets: Vec<Vec<Point>> = (0..distinct)
        .map(|i| {
            random_query_set(&QueryConfig {
                count,
                mbr_area_fraction: 0.001,
                universe,
                seed: seed.wrapping_add(i as u64 * 131),
            })
        })
        .collect();
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xBEEF);
    let mut stream: Vec<QueryRequest> = (0..requests)
        .map(|_| QueryRequest::new(query_sets[rng.range_usize(distinct)].clone()))
        .collect();

    let config = EngineConfig::default().with_workers(threads);
    let engine = Engine::new(points, config).expect("distinct points");
    let t0 = Instant::now();
    if batch == 0 {
        let handles: Vec<_> = stream.into_iter().map(|r| engine.submit(r)).collect();
        for h in handles {
            h.wait();
        }
    } else {
        let mut tickets = Vec::new();
        while !stream.is_empty() {
            let rest = stream.split_off(batch.min(stream.len()));
            tickets.push(engine.submit_batch(stream));
            stream = rest;
        }
        for t in tickets {
            t.wait();
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let m = engine.metrics();
    let row = ThroughputRow {
        threads,
        requests,
        reqs_per_sec: requests as f64 / elapsed,
        p50_us: m.latency.percentile(0.50).as_nanos() as f64 / 1e3,
        p99_us: m.latency.percentile(0.99).as_nanos() as f64 / 1e3,
        cache_hit_rate: m.cache_hit_rate(),
    };
    engine.shutdown();
    row
}

/// [`run_throughput`] over a ladder of pool sizes — the single- vs
/// multi-thread scaling record. `batch` is forwarded to every rung.
pub fn throughput_scaling(
    points: &[Point],
    threads: &[usize],
    requests: usize,
    distinct: usize,
    batch: usize,
    seed: u64,
) -> Vec<ThroughputRow> {
    threads
        .iter()
        .map(|&t| run_throughput(points, t, requests, distinct, 5, batch, seed))
        .collect()
}

/// One row of the sharded scaling ladder: the same stream served by a
/// [`ssq_shard::ShardedEngine`] with a given shard count.
#[derive(Clone, Copy, Debug)]
pub struct ShardedThroughputRow {
    /// Target shard count.
    pub shards: usize,
    /// Requests served.
    pub requests: usize,
    /// Wall-clock service rate.
    pub reqs_per_sec: f64,
    /// Median end-to-end latency, microseconds (bucketed upper bound).
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds (bucketed upper bound).
    pub p99_us: f64,
    /// Mean shards executed per query.
    pub mean_fanout: f64,
    /// Fraction of shard visits skipped by the dominance bound.
    pub prune_rate: f64,
    /// Total shard visits skipped over the run.
    pub shards_pruned: u64,
}

/// `distinct` small-MBR query sets placed uniformly in the data universe.
pub fn uniform_query_sets(
    points: &[Point],
    distinct: usize,
    count: usize,
    seed: u64,
) -> Vec<Vec<Point>> {
    let universe = ssq_geom::Rect::bounding(points.iter().copied());
    (0..distinct)
        .map(|i| {
            random_query_set(&QueryConfig {
                count,
                mbr_area_fraction: 0.001,
                universe,
                seed: seed.wrapping_add(i as u64 * 131),
            })
        })
        .collect()
}

/// `distinct` query sets crowded into the low corner of the universe
/// (a box covering ~1% of each axis) — the workload where the shard
/// router's dominance bound prunes most aggressively, since the corner
/// shard's skyline dominates every far shard's best-possible vectors.
pub fn corner_query_sets(
    points: &[Point],
    distinct: usize,
    count: usize,
    seed: u64,
) -> Vec<Vec<Point>> {
    let universe = ssq_geom::Rect::bounding(points.iter().copied());
    let corner = ssq_geom::Rect::from_corners(
        universe.min,
        Point::new(
            universe.min.x + universe.width() * 0.01,
            universe.min.y + universe.height() * 0.01,
        ),
    );
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xC04E);
    (0..distinct)
        .map(|_| {
            (0..count)
                .map(|_| {
                    Point::new(
                        rng.range_f64(corner.min.x, corner.max.x),
                        rng.range_f64(corner.min.y, corner.max.y),
                    )
                })
                .collect()
        })
        .collect()
}

/// Serves `requests` queries (sampled from `query_sets`) through a
/// sharded engine with `shards` shards, driven by `clients` concurrent
/// client threads, and reports rates plus routing behaviour.
pub fn run_sharded_throughput(
    points: &[Point],
    shards: usize,
    clients: usize,
    query_sets: &[Vec<Point>],
    requests: usize,
    seed: u64,
) -> ShardedThroughputRow {
    use ssq_shard::{PartitionPolicy, ShardConfig, ShardedEngine};

    let config = ShardConfig::default()
        .with_shards(shards)
        .with_policy(PartitionPolicy::Grid);
    let engine = ShardedEngine::new(points, config).expect("valid sharded config");
    let clients = clients.max(1);

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let engine = &engine;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                // Every client replays the same deterministic sample
                // stream and serves the indices congruent to it.
                scope.spawn(move || {
                    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xBEEF);
                    for i in 0..requests {
                        let q = &query_sets[rng.range_usize(query_sets.len())];
                        if i % clients == c {
                            engine.query(q).expect("sharded query failed");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread panicked");
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let m = engine.metrics();
    let row = ShardedThroughputRow {
        shards,
        requests,
        reqs_per_sec: requests as f64 / elapsed,
        p50_us: m.latency.percentile(0.50).as_nanos() as f64 / 1e3,
        p99_us: m.latency.percentile(0.99).as_nanos() as f64 / 1e3,
        mean_fanout: m.mean_fanout(),
        prune_rate: m.prune_rate(),
        shards_pruned: m.shards_pruned,
    };
    engine.shutdown();
    row
}

/// [`run_sharded_throughput`] over a ladder of shard counts — the
/// sharded counterpart of [`throughput_scaling`].
pub fn sharded_scaling(
    points: &[Point],
    shard_counts: &[usize],
    clients: usize,
    requests: usize,
    distinct: usize,
    seed: u64,
) -> Vec<ShardedThroughputRow> {
    let query_sets = uniform_query_sets(points, distinct, 5, seed);
    shard_counts
        .iter()
        .map(|&s| run_sharded_throughput(points, s, clients, &query_sets, requests, seed))
        .collect()
}

/// One row of the swap-under-load experiment: the same mid-stream
/// dataset replacement served either as a **live** snapshot-catalog swap
/// ([`ssq_engine::Engine::reindex`]) or as a **cold restart**
/// (drain every in-flight query, drop the engine, rebuild from scratch,
/// then resume). Latencies are *client-observed* — measured around
/// `submit` + `wait` at the call site — because the engine's own
/// histogram excludes queue wait and any restart stall, which is exactly
/// the cost this experiment exists to show.
#[derive(Clone, Copy, Debug)]
pub struct SwapRow {
    /// `true` for the cold-restart arm, `false` for the live swap.
    pub cold_restart: bool,
    /// Requests served across the run (the swap lands halfway).
    pub requests: usize,
    /// Wall-clock service rate.
    pub reqs_per_sec: f64,
    /// Median client-observed latency, microseconds (bucketed upper
    /// bound).
    pub p50_us: f64,
    /// 99th-percentile client-observed latency, microseconds.
    pub p99_us: f64,
    /// The single worst client-observed latency, milliseconds — the
    /// stall a user at the wrong moment actually ate.
    pub max_stall_ms: f64,
    /// How long the dataset replacement itself took, milliseconds.
    pub swap_ms: f64,
}

/// Serves `requests` queries from `clients` concurrent client threads
/// and replaces the dataset with `new_points` halfway through — live
/// catalog swap when `cold_restart` is false, drain-and-rebuild when
/// true. In both arms every response's skyline ids are checked against
/// the dataset size of the generation it reports.
#[allow(clippy::too_many_arguments)]
pub fn run_swap_under_load(
    old_points: &[Point],
    new_points: &[Point],
    threads: usize,
    clients: usize,
    requests: usize,
    distinct: usize,
    seed: u64,
    cold_restart: bool,
) -> SwapRow {
    use ssq_engine::{Engine, EngineConfig, LatencyHistogram, QueryRequest};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::RwLock;

    let universe = ssq_geom::Rect::bounding(old_points.iter().chain(new_points).copied());
    let query_sets: Vec<Vec<Point>> = (0..distinct)
        .map(|i| {
            random_query_set(&QueryConfig {
                count: 5,
                mbr_area_fraction: 0.001,
                universe,
                seed: seed.wrapping_add(i as u64 * 131),
            })
        })
        .collect();
    let config = EngineConfig::default().with_workers(threads.max(1));
    // Both arms go through the same slot so the client code path is
    // identical; only the replacement strategy differs. The live arm
    // never takes the write lock — reindex works through `&Engine`.
    let slot = RwLock::new(Engine::new(old_points, config.clone()).expect("distinct points"));
    let observed = LatencyHistogram::new();
    let started = AtomicUsize::new(0);
    let max_nanos = AtomicU64::new(0);
    let swap_at = requests / 2;
    let clients = clients.max(1);

    let t0 = Instant::now();
    let swap_ms = std::thread::scope(|scope| {
        let slot = &slot;
        let observed = &observed;
        let started = &started;
        let max_nanos = &max_nanos;
        let query_sets = &query_sets;
        for c in 0..clients {
            scope.spawn(move || {
                let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x53_57 ^ c as u64);
                loop {
                    if started.fetch_add(1, Ordering::Relaxed) >= requests {
                        break;
                    }
                    let q = query_sets[rng.range_usize(query_sets.len())].clone();
                    let t = Instant::now();
                    let r = {
                        let engine = slot.read().unwrap();
                        engine.submit(QueryRequest::new(q)).wait()
                    };
                    let dt = t.elapsed();
                    observed.record(dt);
                    let nanos = u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX);
                    max_nanos.fetch_max(nanos, Ordering::Relaxed);
                    let limit = if r.generation == 0 {
                        old_points.len()
                    } else {
                        new_points.len()
                    };
                    assert!(
                        r.skyline.iter().all(|&i| (i as usize) < limit),
                        "response ids exceed generation {} dataset",
                        r.generation
                    );
                }
            });
        }
        while started.load(Ordering::Relaxed) < swap_at {
            std::thread::yield_now();
        }
        let ts = Instant::now();
        if cold_restart {
            // Write lock = drain: acquired only once every in-flight
            // query (read lock) finishes; clients then block until the
            // rebuilt engine is published. The replacement starts at
            // generation 1 so responses keep reporting which dataset
            // they were answered against.
            let replacement = ssq_engine::Snapshot::build(1, new_points).expect("distinct points");
            let mut engine = slot.write().unwrap();
            let old = std::mem::replace(
                &mut *engine,
                Engine::with_snapshot(std::sync::Arc::new(replacement), config.clone())
                    .expect("valid config"),
            );
            old.shutdown();
        } else {
            let engine = slot.read().unwrap();
            engine.reindex(new_points).expect("reindex failed");
        }
        ts.elapsed().as_secs_f64() * 1e3
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let snap = observed.snapshot();
    SwapRow {
        cold_restart,
        requests,
        reqs_per_sec: requests as f64 / elapsed,
        p50_us: snap.percentile(0.50).as_nanos() as f64 / 1e3,
        p99_us: snap.percentile(0.99).as_nanos() as f64 / 1e3,
        max_stall_ms: max_nanos.load(Ordering::Relaxed) as f64 / 1e6,
        swap_ms,
    }
}

/// Both arms of the swap experiment on the same datasets and stream:
/// `(live, cold)`.
#[allow(clippy::too_many_arguments)]
pub fn swap_comparison(
    old_points: &[Point],
    new_points: &[Point],
    threads: usize,
    clients: usize,
    requests: usize,
    distinct: usize,
    seed: u64,
) -> (SwapRow, SwapRow) {
    let live = run_swap_under_load(
        old_points, new_points, threads, clients, requests, distinct, seed, false,
    );
    let cold = run_swap_under_load(
        old_points, new_points, threads, clients, requests, distinct, seed, true,
    );
    (live, cold)
}

/// Prints the Table 5 substitute: the synthetic dataset's category mix.
pub fn table5(n: usize, seed: u64) -> Vec<(String, usize, f64)> {
    let data = synthetic_usgs(&UsgsConfig {
        n,
        seed,
        ..UsgsConfig::default()
    });
    CATEGORY_MIX
        .iter()
        .map(|&(cat, target)| {
            let count = data.iter().filter(|u| u.category == cat).count();
            (format!("{cat:?}"), count, target)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_runner_produces_consistent_costs() {
        let fix = Fixture::usgs(800, 1);
        for algo in [Algo::Bbs, Algo::B2s2, Algo::Vs2] {
            let c = run_batch(&fix, algo, 4, 0.001, 3, 99);
            assert!(c.time_ms >= 0.0);
            assert!(c.skyline_size >= 1.0, "{algo}: empty skylines");
        }
    }

    #[test]
    fn algorithms_agree_inside_the_harness() {
        let fix = Fixture::usgs(600, 2);
        let q = random_query_set(&QueryConfig::paper_default(5, 7));
        let ctx = QueryContext::new(&q);
        let a = bbs(&fix.rtree, &ctx);
        let b = b2s2(&fix.rtree, &ctx);
        let c = vs2_with(&fix.voronoi, &ctx, VsExpansion::Safe, None);
        assert_eq!(a.skyline, b.skyline);
        assert_eq!(a.skyline, c.skyline);
    }

    #[test]
    fn continuous_runner_smoke() {
        let fix = Fixture::usgs(500, 3);
        let row = run_continuous(&fix, 4, 40, 0.01, 11);
        let total = row.unchanged_frac + row.incremental_frac + row.recomputed_frac;
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_runner_smoke() {
        let fix = Fixture::usgs(300, 4);
        let row = run_mixed(&fix, 2, 21);
        assert!(row.mixed_size >= row.static_size.max(row.spatial_size));
    }

    #[test]
    fn throughput_runner_smoke() {
        let fix = Fixture::usgs(600, 6);
        let row = run_throughput(&fix.points, 2, 64, 8, 5, 0, 31);
        assert_eq!(row.threads, 2);
        assert_eq!(row.requests, 64);
        assert!(row.reqs_per_sec > 0.0);
        assert!(row.p99_us >= row.p50_us);
        // 64 requests over 8 distinct query sets must produce hits.
        assert!(row.cache_hit_rate > 0.0);
    }

    #[test]
    fn batched_throughput_runner_smoke() {
        let fix = Fixture::usgs(600, 6);
        let row = run_throughput(&fix.points, 2, 64, 8, 5, 16, 31);
        assert_eq!(row.requests, 64);
        assert!(row.reqs_per_sec > 0.0);
        assert!(row.p99_us >= row.p50_us);
        // The batch memo answers repeats inside a chunk as cache hits,
        // so the hit rate stays observable.
        assert!(row.cache_hit_rate > 0.0);
    }

    #[test]
    fn multi_thread_throughput_beats_single_thread() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores < 4 {
            // Scaling cannot be observed without real parallelism; the
            // smoke test above still covers correctness.
            return;
        }
        let fix = Fixture::usgs(2500, 8);
        // Warm-up build pass keeps page-cache noise out of the record.
        run_throughput(&fix.points, 1, 50, 4, 5, 0, 17);
        let single = run_throughput(&fix.points, 1, 1200, 16, 5, 0, 17);
        let multi = run_throughput(&fix.points, 4, 1200, 16, 5, 0, 17);
        assert!(
            multi.reqs_per_sec > single.reqs_per_sec,
            "4 workers ({:.0} req/s) not faster than 1 ({:.0} req/s)",
            multi.reqs_per_sec,
            single.reqs_per_sec
        );
    }

    #[test]
    fn sharded_runner_smoke() {
        let fix = Fixture::usgs(800, 9);
        let sets = uniform_query_sets(&fix.points, 8, 5, 23);
        let row = run_sharded_throughput(&fix.points, 4, 2, &sets, 64, 23);
        assert_eq!(row.shards, 4);
        assert_eq!(row.requests, 64);
        assert!(row.reqs_per_sec > 0.0);
        assert!(row.p99_us >= row.p50_us);
        assert!(row.mean_fanout >= 1.0 && row.mean_fanout <= 4.0);
    }

    #[test]
    fn corner_workload_makes_pruning_observable() {
        let fix = Fixture::usgs(1200, 10);
        let sets = corner_query_sets(&fix.points, 8, 4, 29);
        let row = run_sharded_throughput(&fix.points, 8, 2, &sets, 48, 29);
        assert!(
            row.shards_pruned > 0,
            "corner queries pruned nothing (fan-out {:.2})",
            row.mean_fanout
        );
        assert!(row.prune_rate > 0.0);
    }

    #[test]
    fn sharded_ladder_covers_requested_counts() {
        let fix = Fixture::usgs(600, 11);
        let rows = sharded_scaling(&fix.points, &[1, 2, 4], 2, 32, 6, 37);
        let shards: Vec<usize> = rows.iter().map(|r| r.shards).collect();
        assert_eq!(shards, vec![1, 2, 4]);
        for r in &rows {
            assert!(r.reqs_per_sec > 0.0);
        }
    }

    #[test]
    fn swap_under_load_smoke() {
        let old = Fixture::usgs(500, 12).points;
        let new = Fixture::usgs(700, 13).points;
        let live = run_swap_under_load(&old, &new, 2, 2, 80, 8, 41, false);
        assert!(!live.cold_restart);
        assert_eq!(live.requests, 80);
        assert!(live.reqs_per_sec > 0.0);
        assert!(live.p99_us >= live.p50_us);
        assert!(live.swap_ms > 0.0);
        let cold = run_swap_under_load(&old, &new, 2, 2, 80, 8, 41, true);
        assert!(cold.cold_restart);
        assert!(cold.max_stall_ms > 0.0);
    }

    #[test]
    fn table5_counts_sum_to_n() {
        let rows = table5(1000, 5);
        let total: usize = rows.iter().map(|r| r.1).sum();
        assert_eq!(total, 1000);
    }
}
