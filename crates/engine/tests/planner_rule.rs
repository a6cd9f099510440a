//! The planner's rule, pinned as a count rather than a timing.
//!
//! The engine plans B²S² for every indexed query (see `ssq_engine::planner`)
//! because, in memory, the exact Safe-expansion VS² examines more points
//! than B²S² on the paper's Fig. 12 shapes. This test fixes a clustered
//! dataset and a handful of |Q| ∈ {4, 6, 8} query sets at 0.3–0.7%
//! `MBR(Q)`, and checks three things:
//!
//! - summed over the shapes, `b2s2_kernel` examines no more points than
//!   `vs2_kernel`;
//! - both kernels return exactly `naive_full`'s skyline on every shape;
//! - an unforced engine plans B²S² for every shape and returns the same
//!   skyline.
//!
//! `points_examined` is a deterministic counter, so the test is stable
//! on any host.

use ssq_core::{
    b2s2_kernel, naive_full, vs2_kernel, DistanceScratch, QueryContext, RTreeIndex, VoronoiIndex,
};
use ssq_engine::{Algorithm, Engine, EngineConfig, QueryRequest};
use ssq_geom::Point;
use ssq_workload::usgs::{synthetic_usgs_points, universe};
use ssq_workload::{random_query_set, QueryConfig, UsgsConfig};

fn shapes() -> Vec<Vec<Point>> {
    let mut out = Vec::new();
    for (i, &count) in [4usize, 6, 8].iter().enumerate() {
        for (j, &area) in [0.003, 0.005, 0.007].iter().enumerate() {
            out.push(random_query_set(&QueryConfig {
                count,
                mbr_area_fraction: area,
                universe: universe(),
                seed: 1200 + 10 * i as u64 + j as u64,
            }));
        }
    }
    out
}

#[test]
fn b2s2_examines_no_more_points_than_vs2_on_fig12_shapes() {
    let points = synthetic_usgs_points(&UsgsConfig {
        n: 12_000,
        ..UsgsConfig::default()
    });
    let rtree = RTreeIndex::new(&points);
    let voronoi = VoronoiIndex::new(&points).unwrap();
    let engine = Engine::new(&points, EngineConfig::default().with_workers(1)).unwrap();
    let mut scratch = DistanceScratch::new();
    let (mut b2s2_examined, mut vs2_examined) = (0u64, 0u64);
    for (i, q) in shapes().into_iter().enumerate() {
        let ctx = QueryContext::new(&q);
        let want = naive_full(&points, &ctx).skyline;
        let b = b2s2_kernel(&rtree, &ctx, &mut scratch);
        assert_eq!(b.skyline, want, "b2s2_kernel, shape {i}");
        let v = vs2_kernel(&voronoi, &ctx, &mut scratch);
        assert_eq!(v.skyline, want, "vs2_kernel, shape {i}");
        b2s2_examined += b.stats.points_examined;
        vs2_examined += v.stats.points_examined;

        let got = engine.submit(QueryRequest::new(q)).wait();
        assert_eq!(
            got.algorithm,
            Algorithm::B2s2,
            "planned algorithm, shape {i}"
        );
        assert_eq!(got.skyline, want, "engine, shape {i}");
    }
    engine.shutdown();
    assert!(
        b2s2_examined <= vs2_examined,
        "b2s2_kernel examined {b2s2_examined} points, vs2_kernel {vs2_examined}"
    );
}
