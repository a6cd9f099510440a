//! Records engine throughput as the worker pool grows, then as the
//! dataset is sharded.
//!
//! ```text
//! cargo run --release -p ssq-bench --bin throughput_scaling [-- n requests distinct]
//! cargo run --release -p ssq-bench --bin throughput_scaling -- --smoke
//! ```
//!
//! One synthetic USGS dataset, one randomized request stream (repeats
//! drawn from a fixed set of query sets so the context cache engages).
//! Sections:
//!
//! 1. **Kernel hot path** — scalar vs scratch-arena kernels per
//!    algorithm, written to `BENCH_hotpath.json` (latency percentiles,
//!    queries/sec, distance computations/sec, allocations/query).
//! 2. **Worker ladder** — pools of 1, 2, 4, ... workers up to the core
//!    count; the single-thread row is the baseline — plus one batched
//!    row showing amortized submission.
//! 3. **Shard ladder** — the same stream through a `ShardedEngine` with
//!    1, 2, 4, 8 shards (grid policy), concurrent clients driving it.
//! 4. **Corner workload** — query sets crowded into one corner of the
//!    universe, where the dominance bound prunes far shards; the pruned
//!    column must be nonzero here.
//! 5. **Swap under load** — the dataset is replaced mid-stream, once as
//!    a live snapshot-catalog swap and once as a drain-and-rebuild cold
//!    restart; latencies are client-observed, so the restart stall shows
//!    up in p99/max where the live swap stays flat.
//!
//! `--smoke` runs only the hot-path section on a tiny dataset — the CI
//! gate: it writes `target/bench-smoke/BENCH_hotpath.json` (never the
//! committed root file) and exits nonzero if any measurement comes back
//! non-finite.

use ssq_bench::{
    corner_query_sets, dist_per_sec_of, hotpath_json, mean_allocs, mean_qps, mean_simd_qps,
    run_hotpath, run_sharded_throughput, run_throughput, sharded_scaling, swap_comparison,
    throughput_scaling, uniform_query_sets, validate_rows, write_bench_json, Fixture, HotpathRow,
};

fn print_sharded(rows: &[ssq_bench::ShardedThroughputRow]) {
    let base = rows.first().map_or(1.0, |r| r.reqs_per_sec);
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "shards", "req/s", "speedup", "p50(us)", "p99(us)", "fanout", "prune%", "pruned"
    );
    for r in rows {
        println!(
            "{:>8} {:>12.1} {:>9.2}x {:>10.1} {:>10.1} {:>8.2} {:>7.1}% {:>8}",
            r.shards,
            r.reqs_per_sec,
            r.reqs_per_sec / base,
            r.p50_us,
            r.p99_us,
            r.mean_fanout,
            r.prune_rate * 100.0,
            r.shards_pruned
        );
    }
}

fn print_hotpath(rows: &[HotpathRow]) {
    println!(
        "{:>8} {:>8} {:>6} {:>10} {:>10} {:>12} {:>14} {:>12} {:>10}",
        "path", "isa", "algo", "p50(us)", "p99(us)", "q/s", "dist/s", "allocs/q", "dom/q"
    );
    for r in rows {
        println!(
            "{:>8} {:>8} {:>6} {:>10.1} {:>10.1} {:>12.1} {:>14.1} {:>12.3} {:>10.1}",
            r.path,
            r.kernel_path,
            r.algo,
            r.p50_us,
            r.p99_us,
            r.qps,
            r.dist_per_sec,
            r.allocs_per_query,
            r.dominance_per_query
        );
    }
}

/// Runs the scalar-vs-kernel microbench, prints it, writes the JSON
/// artifact, and dies loudly on non-finite measurements.
fn hotpath_section(fix: &Fixture, distinct: usize, repeats: usize, seed: u64, smoke: bool) {
    let sets = uniform_query_sets(&fix.points, distinct.clamp(4, 16), 5, seed);
    let rows = run_hotpath(fix, &sets, repeats);
    if let Err(e) = validate_rows(&rows) {
        eprintln!("# FATAL: non-finite hot-path measurement: {e}");
        std::process::exit(1);
    }
    print_hotpath(&rows);
    let (sa, ka) = mean_allocs(&rows);
    let (sq, kq) = mean_qps(&rows);
    let simd_q = mean_simd_qps(&rows);
    let total_queries: usize = rows.iter().map(|r| r.queries).sum();
    println!(
        "# allocations/query: scalar {sa:.2} vs kernel {ka:.2} ({:.0}x fewer)",
        sa / ka.max(1.0 / total_queries.max(1) as f64)
    );
    println!("# mean q/s: scalar {sq:.0} vs kernel {kq:.0} vs simd {simd_q:.0}");
    let json = hotpath_json(fix.points.len(), &rows);
    write_bench_json("BENCH_hotpath.json", smoke, &json);
    if ka * 2.0 > sa {
        println!("# WARNING: kernel path is not 2x below scalar on allocations/query");
    }
    // The SIMD-vs-scalar distance-throughput gate: the tiled arena and
    // the dispatched tile kernels must keep the naive scan's distance
    // pipeline at least at scalar parity.
    let scalar_naive = dist_per_sec_of(&rows, "scalar", "naive").unwrap_or(0.0);
    for path in ["kernel", "simd"] {
        let got = dist_per_sec_of(&rows, path, "naive").unwrap_or(0.0);
        if got < scalar_naive {
            println!("# WARNING: {path} naive dist/s {got:.0} below scalar {scalar_naive:.0}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let n: usize = positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let requests: usize = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4_000);
    let distinct: usize = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(32);

    if smoke {
        // CI gate: tiny dataset, hot-path section only. Any panic or
        // non-finite number exits nonzero; otherwise the JSON artifact
        // is written under target/ and the run is quick enough for every
        // CI pass.
        println!("# kernel hot path (smoke: 400 points)");
        let fix = Fixture::usgs(400, 42);
        hotpath_section(&fix, 6, 2, 42, true);
        return;
    }

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut ladder = vec![1usize];
    while ladder.last().copied().unwrap_or(1) * 2 <= cores {
        ladder.push(ladder.last().unwrap() * 2);
    }

    println!("# engine throughput scaling");
    println!("# dataset: {n} synthetic USGS points; {requests} requests over {distinct} query sets; {cores} cores");
    let fix = Fixture::usgs(n, 42);

    println!();
    println!("# kernel hot path (scalar vs scratch-arena kernels)");
    hotpath_section(&fix, distinct, 4, 42, false);

    println!();
    let rows = throughput_scaling(&fix.points, &ladder, requests, distinct, 0, 42);
    let base = rows.first().map_or(1.0, |r| r.reqs_per_sec);
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>10} {:>8}",
        "threads", "req/s", "speedup", "p50(us)", "p99(us)", "hit%"
    );
    for r in &rows {
        println!(
            "{:>8} {:>12.1} {:>9.2}x {:>10.1} {:>10.1} {:>7.1}%",
            r.threads,
            r.reqs_per_sec,
            r.reqs_per_sec / base,
            r.p50_us,
            r.p99_us,
            r.cache_hit_rate * 100.0
        );
    }
    let max_threads = ladder.last().copied().unwrap_or(1);
    let batched = run_throughput(&fix.points, max_threads, requests, distinct, 5, 32, 42);
    println!(
        "{:>8} {:>12.1} {:>9.2}x {:>10.1} {:>10.1} {:>7.1}%  (batch=32)",
        batched.threads,
        batched.reqs_per_sec,
        batched.reqs_per_sec / base,
        batched.p50_us,
        batched.p99_us,
        batched.cache_hit_rate * 100.0
    );

    let clients = cores.clamp(2, 8);
    println!();
    println!("# sharded scaling (grid policy, {clients} clients, uniform workload)");
    let sharded = sharded_scaling(&fix.points, &[1, 2, 4, 8], clients, requests, distinct, 42);
    print_sharded(&sharded);

    println!();
    println!("# sharded corner workload (8 shards — dominance bound prunes far shards)");
    let corner = corner_query_sets(&fix.points, distinct, 5, 42);
    let row = run_sharded_throughput(&fix.points, 8, clients, &corner, requests, 42);
    print_sharded(std::slice::from_ref(&row));
    if row.shards_pruned == 0 {
        println!("# WARNING: corner workload pruned no shards");
    }

    println!();
    println!("# swap under load ({clients} clients — live catalog swap vs cold restart, client-observed latency)");
    let next = Fixture::usgs(n, 43);
    let (live, cold) = swap_comparison(
        &fix.points,
        &next.points,
        cores,
        clients,
        requests,
        distinct,
        42,
    );
    println!(
        "{:>14} {:>12} {:>10} {:>10} {:>12} {:>10}",
        "mode", "req/s", "p50(us)", "p99(us)", "max(ms)", "swap(ms)"
    );
    for r in [&live, &cold] {
        println!(
            "{:>14} {:>12.1} {:>10.1} {:>10.1} {:>12.2} {:>10.1}",
            if r.cold_restart {
                "cold restart"
            } else {
                "live swap"
            },
            r.reqs_per_sec,
            r.p50_us,
            r.p99_us,
            r.max_stall_ms,
            r.swap_ms
        );
    }
    if cold.max_stall_ms <= live.max_stall_ms {
        println!("# NOTE: cold restart did not stall worse than the live swap on this run");
    }
}
