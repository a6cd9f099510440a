//! Measures the materialized skyline diagram against the planner it
//! short-circuits.
//!
//! ```text
//! cargo run --release -p ssq-bench --bin diagram_bench [-- n distinct repeats]
//! cargo run --release -p ssq-bench --bin diagram_bench -- --smoke
//! ```
//!
//! Three sections, all written to `BENCH_DIAGRAM.json`:
//!
//! 1. **Hit vs planner** — the same hot shapes, repeated, through two
//!    engines: one without a diagram (the planner path, context cache
//!    warm) and one whose diagram has materialized the shapes. Every
//!    measured diagram response is asserted to be a diagram hit.
//! 2. **Build cost** — wall-clock cost of `rebuild_diagram` and the
//!    cell count it produced, from the engine's own metrics.
//! 3. **Warm vs cold restart** — two fresh diagram engines serve the
//!    same first pass of hot shapes; one was seeded via `warm_start`
//!    (the `serve --warm` path) before any traffic, the other starts
//!    cold. The warm engine's first-pass p99 must not show the cold
//!    planner spike.
//!
//! `--smoke` shrinks the dataset and repeat counts to CI scale; it
//! writes the JSON artifact to `target/bench-smoke/` instead of the
//! repository root and exits nonzero on non-finite
//! measurements or a measured pass that never hit the diagram.

use std::time::Instant;

use ssq_bench::write_bench_json;
use ssq_core::QueryKey;
use ssq_engine::{DiagramConfig, Engine, EngineConfig, QueryRequest, ServedBy};
use ssq_geom::{Point, Rect};
use ssq_workload::usgs::{synthetic_usgs_points, UsgsConfig};
use ssq_workload::{random_query_set, QueryConfig};

const QUANTUM: f64 = 1e-9;

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

/// Hot query shapes inside the dataset MBR: a mix of 1-, 2-, and
/// 3-anchor sets so both the point-location grid and the per-key cells
/// are exercised.
fn hot_shapes(universe: Rect, distinct: usize, seed: u64) -> Vec<Vec<Point>> {
    (0..distinct)
        .map(|i| {
            random_query_set(&QueryConfig {
                count: 1 + i % 3,
                mbr_area_fraction: 0.01,
                universe,
                seed: seed.wrapping_add(i as u64),
            })
        })
        .collect()
}

/// Submits every shape `repeats` times and returns the sorted
/// per-request latencies in microseconds plus how many responses were
/// diagram hits.
fn measure(engine: &Engine, shapes: &[Vec<Point>], repeats: usize) -> (Vec<f64>, usize) {
    let mut lat_us = Vec::with_capacity(shapes.len() * repeats);
    let mut hits = 0usize;
    for _ in 0..repeats {
        for q in shapes {
            let t0 = Instant::now();
            let resp = engine.submit(QueryRequest::new(q.clone())).wait();
            lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if resp.served_by == ServedBy::Diagram {
                hits += 1;
            }
        }
    }
    lat_us.sort_by(f64::total_cmp);
    (lat_us, hits)
}

struct Report {
    dataset_points: usize,
    distinct: usize,
    repeats: usize,
    planner_p50_us: f64,
    planner_p99_us: f64,
    diagram_p50_us: f64,
    diagram_p99_us: f64,
    build_ms: f64,
    cells: u64,
    warmed: u64,
    cold_first_pass_p99_us: f64,
    warm_first_pass_p99_us: f64,
}

impl Report {
    fn json(&self) -> String {
        format!(
            "{{\n  \"dataset_points\": {},\n  \"distinct_shapes\": {},\n  \
             \"repeats\": {},\n  \"planner\": {{\"p50_us\": {:.3}, \"p99_us\": {:.3}}},\n  \
             \"diagram\": {{\"p50_us\": {:.3}, \"p99_us\": {:.3}}},\n  \
             \"speedup_p99\": {:.2},\n  \
             \"build\": {{\"cells\": {}, \"build_ms\": {:.3}, \"warmed_keys\": {}}},\n  \
             \"restart\": {{\"cold_first_pass_p99_us\": {:.3}, \
             \"warm_first_pass_p99_us\": {:.3}}}\n}}\n",
            self.dataset_points,
            self.distinct,
            self.repeats,
            self.planner_p50_us,
            self.planner_p99_us,
            self.diagram_p50_us,
            self.diagram_p99_us,
            self.planner_p99_us / self.diagram_p99_us.max(1e-9),
            self.cells,
            self.build_ms,
            self.warmed,
            self.cold_first_pass_p99_us,
            self.warm_first_pass_p99_us,
        )
    }

    fn finite(&self) -> bool {
        [
            self.planner_p50_us,
            self.planner_p99_us,
            self.diagram_p50_us,
            self.diagram_p99_us,
            self.build_ms,
            self.cold_first_pass_p99_us,
            self.warm_first_pass_p99_us,
        ]
        .iter()
        .all(|v| v.is_finite())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let (n, distinct, repeats) = if smoke {
        (400, 6, 20)
    } else {
        (
            positional
                .first()
                .and_then(|s| s.parse().ok())
                .unwrap_or(10_000),
            positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(12),
            positional
                .get(2)
                .and_then(|s| s.parse().ok())
                .unwrap_or(200),
        )
    };

    println!("# skyline-diagram bench: {n} points, {distinct} hot shapes x {repeats} repeats");
    let points = synthetic_usgs_points(&UsgsConfig {
        n,
        seed: 0xD1AB,
        ..UsgsConfig::default()
    });
    let universe = Rect::bounding(points.iter().copied());
    let shapes = hot_shapes(universe, distinct, 0xD1AC);
    let keys: Vec<QueryKey> = shapes
        .iter()
        .map(|q| QueryKey::canonical(q, QUANTUM))
        .collect();

    // Planner baseline: no diagram, context cache warm after the first
    // pass — exactly the path a hot repeated query takes today.
    let planner = Engine::new(&points, EngineConfig::default()).expect("planner engine");
    for q in &shapes {
        planner.submit(QueryRequest::new(q.clone())).wait();
    }
    let (planner_lat, planner_hits) = measure(&planner, &shapes, repeats);
    assert_eq!(planner_hits, 0, "planner engine must have no diagram");
    planner.shutdown();

    // Diagram engine: probe once to record the shapes as hot, rebuild
    // (timed), then every measured response must be a diagram hit.
    let config = DiagramConfig::default();
    let engine =
        Engine::new(&points, EngineConfig::default().with_diagram(config)).expect("diagram engine");
    for q in &shapes {
        engine.submit(QueryRequest::new(q.clone())).wait();
    }
    let t0 = Instant::now();
    engine.rebuild_diagram().expect("rebuild diagram");
    let rebuild_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (diagram_lat, diagram_hits) = measure(&engine, &shapes, repeats);
    let m = engine.metrics();
    if diagram_hits < shapes.len() * repeats {
        eprintln!(
            "# FATAL: only {diagram_hits}/{} measured responses hit the diagram",
            shapes.len() * repeats
        );
        std::process::exit(1);
    }
    engine.shutdown();

    // Restart comparison: same shapes, two fresh engines — one seeded
    // through warm_start before any traffic, one cold.
    let cold = Engine::new(&points, EngineConfig::default().with_diagram(config)).expect("cold");
    let (cold_lat, _) = measure(&cold, &shapes, 1);
    cold.shutdown();
    let warm = Engine::new(&points, EngineConfig::default().with_diagram(config)).expect("warm");
    let warmed = warm.warm_start(&keys).expect("warm start");
    let (warm_lat, warm_hits) = measure(&warm, &shapes, 1);
    warm.shutdown();

    let report = Report {
        dataset_points: n,
        distinct,
        repeats,
        planner_p50_us: percentile(&planner_lat, 0.50),
        planner_p99_us: percentile(&planner_lat, 0.99),
        diagram_p50_us: percentile(&diagram_lat, 0.50),
        diagram_p99_us: percentile(&diagram_lat, 0.99),
        build_ms: rebuild_ms,
        cells: m.diagram.cells,
        warmed: warmed as u64,
        cold_first_pass_p99_us: percentile(&cold_lat, 0.99),
        warm_first_pass_p99_us: percentile(&warm_lat, 0.99),
    };

    println!("{:>10} {:>10} {:>10}", "path", "p50(us)", "p99(us)");
    println!(
        "{:>10} {:>10.1} {:>10.1}",
        "planner", report.planner_p50_us, report.planner_p99_us
    );
    println!(
        "{:>10} {:>10.1} {:>10.1}",
        "diagram", report.diagram_p50_us, report.diagram_p99_us
    );
    println!(
        "# build: {} cells in {:.2}ms; warm_start seeded {} keys ({} first-pass hits)",
        report.cells, report.build_ms, warmed, warm_hits
    );
    println!(
        "# restart first-pass p99: cold {:.1}us vs warm {:.1}us",
        report.cold_first_pass_p99_us, report.warm_first_pass_p99_us
    );

    if !report.finite() {
        eprintln!("# FATAL: non-finite measurement in diagram bench");
        std::process::exit(1);
    }
    write_bench_json("BENCH_DIAGRAM.json", smoke, &report.json());
    if report.diagram_p99_us >= report.planner_p99_us {
        println!("# WARNING: diagram hit path did not beat the planner p99 on this run");
    }
    if report.warm_first_pass_p99_us >= report.cold_first_pass_p99_us {
        println!("# NOTE: warm restart did not beat the cold first pass on this run");
    }
}
