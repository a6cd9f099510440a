//! Direct calls into single layers for the traced run: index builds,
//! `QueryContext::new`, both skyline kernels with a bench-owned
//! `DistanceScratch`, diagram lookups and delta application. Each call
//! is wrapped in a span; its answers are checked against each other or
//! against the references.

use crate::data;
use crate::trace::Tracer;
use crate::verify::Tally;
use ssq_core::{
    b2s2_kernel, vs2_kernel, DistanceScratch, QueryContext, QueryKey, QueryStats, RTreeIndex,
    UpdateBatch, VoronoiIndex,
};
use ssq_diagram::{DiagramConfig, LookupScratch, SkylineDiagram};
use ssq_engine::{Algorithm, ContextCache, EngineConfig, Planner};
use ssq_geom::Point;
use ssq_shard::{PartitionPolicy, ShardConfig, ShardedEngine};
use std::time::Instant;

/// Timings and counts from replaying a query sequence through the
/// kernels directly.
pub struct CoreProbe {
    /// `RTreeIndex::new`, ms.
    pub rtree_build_ms: f64,
    /// `VoronoiIndex::new`, ms.
    pub delaunay_build_ms: f64,
    /// `QueryContext::new` per query, µs.
    pub context_us: Vec<f64>,
    /// `b2s2_kernel` per query, µs.
    pub b2s2_us: Vec<f64>,
    /// `vs2_kernel` per query, µs.
    pub vs2_us: Vec<f64>,
    /// `QueryStats` of the kernel the planner picks, summed.
    pub planned: QueryStats,
    /// Queries the planner sends to B²S² and their R-tree node reads.
    pub b2s2_planned: (u64, u64),
    /// Queries the planner sends to VS² and their adjacency page reads.
    pub vs2_planned: (u64, u64),
    /// Skyline sizes, summed.
    pub skyline_total: u64,
    /// The planned kernel's answer per query.
    pub skylines: Vec<Vec<u32>>,
    /// Queries replayed.
    pub queries: u64,
    /// Both kernels against each other.
    pub tally: Tally,
    /// The Voronoi index, for the delta probe.
    pub voronoi: VoronoiIndex,
    /// The R-tree, for the delta probe.
    pub rtree: RTreeIndex,
}

/// Builds both indexes over `points` and replays `queries` through both
/// kernels, one thread, one warm scratch arena.
pub fn core_probe(
    points: &[Point],
    queries: &[&[Point]],
    tracer: &mut Tracer,
) -> Result<CoreProbe, String> {
    tracer.open("rtree.build", 0);
    let t = Instant::now();
    let rtree = RTreeIndex::new(points);
    let rtree_build_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.close();
    tracer.open("delaunay.build", 0);
    let t = Instant::now();
    let voronoi = VoronoiIndex::new(points).map_err(|e| format!("VoronoiIndex::new: {e}"))?;
    let delaunay_build_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.close();

    let planner = Planner::new(None);
    let mut scratch = DistanceScratch::new();
    let mut probe = CoreProbe {
        rtree_build_ms,
        delaunay_build_ms,
        context_us: Vec::with_capacity(queries.len()),
        b2s2_us: Vec::with_capacity(queries.len()),
        vs2_us: Vec::with_capacity(queries.len()),
        planned: QueryStats::default(),
        b2s2_planned: (0, 0),
        vs2_planned: (0, 0),
        skyline_total: 0,
        skylines: Vec::with_capacity(queries.len()),
        queries: 0,
        tally: Tally::default(),
        voronoi,
        rtree,
    };
    for (i, q) in queries.iter().enumerate() {
        tracer.open("core.context", i as u64);
        let t = Instant::now();
        let ctx = QueryContext::new(q);
        probe.context_us.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.close();

        tracer.open("core.b2s2_kernel", i as u64);
        let t = Instant::now();
        let b = b2s2_kernel(&probe.rtree, &ctx, &mut scratch);
        probe.b2s2_us.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.close();

        tracer.open("core.vs2_kernel", i as u64);
        let t = Instant::now();
        let v = vs2_kernel(&probe.voronoi, &ctx, &mut scratch);
        probe.vs2_us.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.close();

        probe.tally.check(
            &format!("query {i}: vs2_kernel vs b2s2_kernel"),
            &v.skyline,
            &b.skyline,
        );
        let planned = match planner.choose(points.len(), &ctx) {
            Algorithm::Vs2 => {
                probe.vs2_planned.0 += 1;
                probe.vs2_planned.1 += v.stats.node_accesses;
                v
            }
            _ => {
                probe.b2s2_planned.0 += 1;
                probe.b2s2_planned.1 += b.stats.node_accesses;
                b
            }
        };
        probe.planned.absorb(&planned.stats);
        probe.skyline_total += planned.skyline.len() as u64;
        probe.skylines.push(planned.skyline);
        probe.queries += 1;
    }
    Ok(probe)
}

/// Sharded fan-out costs, from `ShardedEngine::query` called directly.
pub struct ShardProbe {
    /// Per-query time, µs.
    pub query_us: Vec<f64>,
    /// Shards queried, summed.
    pub queried: u64,
    /// Shards pruned, summed.
    pub pruned: u64,
}

/// Builds a two-shard fleet the way `ssq serve --shards 2` does and
/// sends `queries` through `ShardedEngine::query` one at a time,
/// checking each answer against `expected`.
pub fn shard_probe(
    points: &[Point],
    queries: &[&[Point]],
    expected: &[Vec<u32>],
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<ShardProbe, String> {
    let config = ShardConfig::default()
        .with_shards(2)
        .with_policy(PartitionPolicy::Grid)
        .with_engine(EngineConfig::default());
    let fleet =
        ShardedEngine::new(points, config).map_err(|e| format!("ShardedEngine::new: {e}"))?;
    let mut probe = ShardProbe {
        query_us: Vec::with_capacity(queries.len()),
        queried: 0,
        pruned: 0,
    };
    let mut failure = None;
    for (i, q) in queries.iter().enumerate() {
        tracer.open("shard.query", i as u64);
        let t = Instant::now();
        let resp = fleet.query(q);
        probe.query_us.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.close();
        match resp {
            Ok(r) => {
                probe.queried += r.shards_queried as u64;
                probe.pruned += r.shards_pruned as u64;
                tally.check(
                    &format!("sharded answer to query {i}"),
                    &r.skyline,
                    &expected[i],
                );
            }
            Err(e) => {
                failure = Some(format!("sharded query {i} failed: {e}"));
                break;
            }
        }
    }
    fleet.shutdown();
    failure.map_or(Ok(probe), Err)
}

/// Diagram build and lookup costs over a bench-owned diagram holding
/// the hot shapes' cells.
pub struct DiagramProbe {
    /// Per-lookup time, ns.
    pub lookup_ns: Vec<f64>,
    /// Lookups answered by the diagram.
    pub hits: u64,
    /// Lookups made.
    pub lookups: u64,
}

/// Builds a diagram for `shapes` over `points` and looks up `sequence`
/// (shape ids), checking each hit against `reference`.
pub fn diagram_probe(
    points: &[Point],
    shapes: &[Vec<Point>],
    sequence: &[u16],
    reference: &[Vec<u32>],
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<DiagramProbe, String> {
    let quantum = ContextCache::DEFAULT_QUANTUM;
    let keys: Vec<QueryKey> = shapes
        .iter()
        .map(|q| QueryKey::canonical(q, quantum))
        .collect();
    tracer.open("diagram.build", 0);
    let diagram = SkylineDiagram::build(0, points, &keys, quantum, &DiagramConfig::default());
    tracer.close();
    let diagram = diagram.ok_or("SkylineDiagram::build returned no diagram")?;
    let mut scratch = LookupScratch::new();
    let mut probe = DiagramProbe {
        lookup_ns: Vec::with_capacity(sequence.len()),
        hits: 0,
        lookups: 0,
    };
    for (i, &shape) in sequence.iter().enumerate() {
        let q = &shapes[shape as usize];
        tracer.open("diagram.lookup", i as u64);
        let t = Instant::now();
        let hit = diagram.lookup(q, &mut scratch).map(<[u32]>::to_vec);
        probe.lookup_ns.push(t.elapsed().as_nanos() as f64);
        tracer.close();
        probe.lookups += 1;
        if let Some(ids) = hit {
            probe.hits += 1;
            tally.check(
                &format!("diagram lookup of shape {shape}"),
                &ids,
                &reference[shape as usize],
            );
        }
    }
    Ok(probe)
}

/// `RTreeIndex::apply_delta` and `VoronoiIndex::apply_delta` times, ms,
/// applying `batches` in turn from generation 0, with every resulting
/// point set checked against [`data::apply_batch`].
pub fn delta_probe(
    core: &CoreProbe,
    batches: &[UpdateBatch],
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut rtree_ms = Vec::new();
    let mut voronoi_ms = Vec::new();
    let mut owned: Option<(RTreeIndex, VoronoiIndex)> = None;
    for (i, batch) in batches.iter().enumerate() {
        let (rtree, voronoi) = match &owned {
            Some((r, v)) => (r, v),
            None => (&core.rtree, &core.voronoi),
        };
        let mut normalized = batch.clone();
        normalized.normalize(&rtree.universe());
        tracer.open("rtree.apply_delta", i as u64);
        let t = Instant::now();
        let next_rtree = rtree.apply_delta(&normalized);
        rtree_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.close();
        tracer.open("delaunay.apply_delta", i as u64);
        let t = Instant::now();
        let next_voronoi = voronoi.apply_delta(&normalized);
        voronoi_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.close();
        let (next_voronoi, _) =
            next_voronoi.map_err(|e| format!("VoronoiIndex::apply_delta: {e}"))?;
        let expected = data::apply_batch(rtree.points(), &rtree.universe(), batch);
        let same = |pts: &[Point]| {
            pts.len() == expected.len() && pts.iter().zip(&expected).all(|(a, b)| a == b)
        };
        tally.checked += 1;
        if !same(next_rtree.points()) || !same(next_voronoi.points()) {
            tally.wrong += 1;
            tally.first.get_or_insert(format!(
                "delta {i}: index points differ from the expected generation"
            ));
        }
        owned = Some((next_rtree, next_voronoi));
    }
    Ok((rtree_ms, voronoi_ms))
}
