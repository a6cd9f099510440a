//! VS² — the Voronoi-based Spatial Skyline algorithm (paper §4.2, Fig. 7).
//!
//! VS² never touches an R-tree: it walks the Delaunay graph of the data
//! points, starting from `NN(q₁)` (a guaranteed skyline point by Lemma 1),
//! visiting points in ascending `mindist(p, CHv(Q))` order with the
//! two-phase Visited/Extracted heap discipline of Fig. 7, and pruning with
//! the rectangle `B` (the running intersection of the skyline points'
//! `MBR(SR(p, Q))` boxes): a point is only enqueued if it lies in `B` or
//! its Voronoi cell intersects `B`.
//!
//! # Expansion policies
//!
//! Fig. 7 line 16 only expands a point's neighbours when the skyline is
//! still empty or the point already has a skyline Voronoi neighbour.
//! Follow-up work (Son et al., SSTD 2009) showed this gate can miss
//! skyline points on adversarial inputs. [`VsExpansion`] therefore selects
//! between:
//!
//! * [`VsExpansion::Paper`] — the verbatim Fig. 7 gate, for reproducing
//!   the paper's cost numbers;
//! * [`VsExpansion::Safe`] (default) — expansion gated only by `B`.
//!   Completeness argument: every true skyline point stays inside `B` at
//!   all times, `B` is convex (hence connected), and the cells meeting a
//!   connected region form a connected subgraph of the Delaunay graph, so
//!   the traversal reaches every skyline point from `NN(q₁)`.
//!
//! Under either policy a **final key-ordered resolution pass** runs over
//! the collected set (see `query::resolve_candidates`), which makes the
//! output exact even when the graph traversal discovers a dominator
//! *after* one of its dominatees was popped (possible because a
//! low-`mindist` point can hide behind higher-`mindist` cells on the
//! graph). Neither policy ever produces a point outside the true skyline
//! after this pass; `Paper` may miss points, `Safe` provably does not.
//!
//! # In-loop pruning
//!
//! Scalar [`vs2`] in Safe mode collects every popped point inside `B` and
//! leaves all dominance work to the final pass. [`vs2_kernel`] also drops
//! a popped point on the spot when a point it already kept dominates it
//! (points inside `CH(Q)` are kept unchecked, Theorem 1). That is sound
//! by transitivity — anything the dropped point dominates, its dominator
//! dominates too — and keeps the candidate set, and so the in-loop and
//! final dominance work, near the skyline's size instead of growing with
//! every point the traversal visits. The final pass stays: a kept row can
//! still be dominated by a point popped later. `B` evolves exactly as
//! before (a dropped point's box contains its kept dominator's), so the
//! traversal and its `points_examined` are unchanged.
//!
//! Serving does not plan VS² (B²S² examines fewer points in memory; see
//! the engine's planner); this kernel runs when a request, the engine
//! config or `--algorithm vs2` forces it.

use ssq_geom::circle::search_region_mbr;
use ssq_geom::kernel;

use crate::heap::MinHeap;
use crate::index::VoronoiIndex;
use crate::query::{dominated_by_any, resolve_candidates, Candidate, QueryContext};
use crate::scratch::DistanceScratch;
use crate::stats::{QueryStats, SkylineResult};

/// Neighbour-expansion policy for VS² — see the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VsExpansion {
    /// Verbatim Fig. 7 line 16 (may miss skyline points on adversarial
    /// inputs; reproduces the paper's traversal exactly).
    Paper,
    /// Expansion gated only by the pruning rectangle `B` (provably exact).
    #[default]
    Safe,
}

/// Runs VS² with the default (provably exact) expansion policy.
pub fn vs2(index: &VoronoiIndex, ctx: &QueryContext) -> SkylineResult {
    vs2_with(index, ctx, VsExpansion::Safe, None)
}

/// The kernel-path VS²: identical output to [`vs2`] (Safe expansion), but
/// the traversal reuses the scratch arena's heap and flag buffers, keys
/// the heap by the **squared**-distance sum (no `sqrt` anywhere on the
/// traversal — sound because any monotone-under-dominance key yields the
/// same resolved skyline, see [`ssq_geom::kernel`]), and stores candidate
/// vectors as squared-distance rows. Unlike scalar Safe mode it prunes
/// inside the loop: each popped row is tested against the rows kept so
/// far and dropped when dominated, so the final `resolve` only has to
/// remove the rows whose dominator was discovered later. Steady-state
/// queries allocate only for the returned id vector.
pub fn vs2_kernel(
    index: &VoronoiIndex,
    ctx: &QueryContext,
    scratch: &mut DistanceScratch,
) -> SkylineResult {
    let mut stats = QueryStats::default();
    index.reset_page_accesses();
    if index.is_empty() {
        return SkylineResult::default();
    }
    let n = index.len();
    let anchors = ctx.anchors();
    scratch.begin(anchors.len());
    let (mut visited, mut extracted) = scratch.take_flags(n);
    let mut heap = scratch.take_heap();

    let start = index.nearest(ctx.query()[0], 0);
    let mut b = search_region_mbr(index.point(start), anchors);
    heap.push(kernel::dist_sq_sum(index.point(start), anchors), start);
    stats.distance_computations += anchors.len() as u64;
    visited[start as usize] = true;

    while let Some((_, &p)) = heap.peek() {
        if extracted[p as usize] {
            // Second phase: pop, keep the survivor as an arena row unless
            // a kept row dominates it, and tighten B (Safe policy — see
            // `vs2_with` for the comments).
            heap.pop();
            let pt = index.point(p);
            if !b.contains(pt) {
                continue;
            }
            stats.points_examined += 1;
            let certain = ctx.hull().contains(pt);
            // Stage the row and retract it when a kept row dominates it,
            // as `b2s2_kernel` does (sound, and `B` unchanged: see the
            // module docs, "In-loop pruning").
            scratch.push_row(p, certain, pt, anchors);
            stats.distance_computations += anchors.len() as u64;
            if certain || !scratch.last_dominated(&mut stats) {
                b = b.intersection(&search_region_mbr(pt, anchors));
            } else {
                scratch.pop_row();
            }
        } else {
            // First phase: extract, enqueue the Voronoi neighbours.
            extracted[p as usize] = true;
            stats.entries_visited += 1;
            for &nb in index.neighbors(p) {
                if visited[nb as usize] {
                    continue;
                }
                let nbp = index.point(nb);
                if b.contains(nbp) || index.cell_intersects_rect(nb, &b) {
                    visited[nb as usize] = true;
                    heap.push(kernel::dist_sq_sum(nbp, anchors), nb);
                    stats.distance_computations += anchors.len() as u64;
                }
            }
        }
    }

    scratch.restore_flags(visited, extracted);
    scratch.restore_heap(heap);
    let skyline = scratch.resolve(&mut stats).to_vec();
    stats.node_accesses = index.page_accesses();
    stats.allocations += scratch.take_allocations();
    SkylineResult { skyline, stats }
}

/// Runs VS² with an explicit expansion policy and an optional walk hint
/// (a point index near `q₁`, e.g. carried over from a previous query).
pub fn vs2_with(
    index: &VoronoiIndex,
    ctx: &QueryContext,
    expansion: VsExpansion,
    start_hint: Option<u32>,
) -> SkylineResult {
    let mut stats = QueryStats::default();
    index.reset_page_accesses();
    if index.is_empty() {
        return SkylineResult::default();
    }
    let n = index.len();
    let anchors = ctx.anchors();

    // Fig. 7 lines 03-05: start at NN(q1), initialize B from its search
    // region.
    let start = index.nearest(ctx.query()[0], start_hint.unwrap_or(0));
    let mut b = search_region_mbr(index.point(start), anchors);

    let mut visited = vec![false; n];
    let mut extracted = vec![false; n];
    let mut in_skyline = vec![false; n];
    // Paper mode resolves dominance in-loop (the gate on line 16 needs to
    // know skyline membership during the traversal); Safe mode defers all
    // dominance work to one exact key-ordered pass at the end and instead
    // tightens B with EVERY surviving popped point — sound because every
    // true skyline point lies inside MBR(SR(x, Q)) of *any* data point x
    // (it beats x on at least one anchor, so it sits in one of x's
    // circles).
    let mut skyline: Vec<(u32, Vec<f64>)> = Vec::new();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut heap: MinHeap<u32> = MinHeap::new();
    heap.push(ctx.mindist(index.point(start)), start);
    stats.distance_computations += anchors.len() as u64;
    visited[start as usize] = true;

    while let Some((key, &p)) = heap.peek() {
        if extracted[p as usize] {
            // Second phase: pop and resolve (Fig. 7 lines 09-13).
            heap.pop();
            let pt = index.point(p);
            // B may have shrunk since p was enqueued; a point outside B is
            // outside some point's search region, i.e. strictly farther
            // than that point from every anchor — dominated, no check
            // needed (the same O(d) discard B²S² applies, Fig. 5 line 07).
            if !b.contains(pt) {
                continue;
            }
            stats.points_examined += 1;
            let v = ctx.dist_vector(pt, &mut stats);
            let certain = ctx.hull().contains(pt);
            match expansion {
                VsExpansion::Safe => {
                    b = b.intersection(&search_region_mbr(pt, anchors));
                    candidates.push(Candidate {
                        id: p,
                        key,
                        vector: v,
                        certain,
                    });
                }
                VsExpansion::Paper => {
                    if certain || !dominated_by_any(&v, &skyline, &mut stats) {
                        in_skyline[p as usize] = true;
                        skyline.push((p, v.clone()));
                        candidates.push(Candidate {
                            id: p,
                            key,
                            vector: v,
                            certain,
                        });
                        b = b.intersection(&search_region_mbr(pt, anchors));
                    }
                }
            }
        } else {
            // First phase: extract, i.e. enqueue the Voronoi neighbours
            // (Fig. 7 lines 15-21).
            extracted[p as usize] = true;
            stats.entries_visited += 1;
            let expand = match expansion {
                VsExpansion::Safe => true,
                VsExpansion::Paper => {
                    skyline.is_empty()
                        || index.neighbors(p).iter().any(|&nb| in_skyline[nb as usize])
                }
            };
            if expand {
                for &nb in index.neighbors(p) {
                    if visited[nb as usize] {
                        continue;
                    }
                    let nbp = index.point(nb);
                    // Line 19: inside B, or Voronoi cell intersecting B.
                    if b.contains(nbp) || index.cell_intersects_rect(nb, &b) {
                        visited[nb as usize] = true;
                        heap.push(ctx.mindist(nbp), nb);
                        stats.distance_computations += anchors.len() as u64;
                    }
                }
            }
        }
    }

    // Final exactness pass (see module docs). Both modes resolve their
    // collected set with one pass in ascending key order — spatial
    // dominance implies a strictly smaller key, so dominators always come
    // first and a single filtered sweep is exact.
    drop(skyline);
    let skyline = resolve_candidates(candidates, &mut stats);
    stats.node_accesses = index.page_accesses();
    let mut ids: Vec<u32> = skyline.into_iter().map(|(i, _)| i).collect();
    ids.sort_unstable();
    SkylineResult {
        skyline: ids,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_full;
    use ssq_geom::Point;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn pseudorandom(n: usize, seed: u64) -> Vec<Point> {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| p(next(), next())).collect()
    }

    #[test]
    fn safe_mode_matches_naive() {
        for trial in 0..12 {
            let points = pseudorandom(150, trial + 1);
            let q = pseudorandom(2 + (trial as usize % 6), 3000 + trial);
            let ctx = QueryContext::new(&q);
            let idx = VoronoiIndex::new(&points).unwrap();
            let got = vs2(&idx, &ctx);
            let want = naive_full(&points, &ctx);
            assert_eq!(got.skyline, want.skyline, "trial {trial}");
        }
    }

    #[test]
    fn paper_mode_is_subset_of_naive() {
        for trial in 0..12 {
            let points = pseudorandom(150, 100 + trial);
            let q = pseudorandom(3 + (trial as usize % 5), 4000 + trial);
            let ctx = QueryContext::new(&q);
            let idx = VoronoiIndex::new(&points).unwrap();
            let got = vs2_with(&idx, &ctx, VsExpansion::Paper, None);
            let want = naive_full(&points, &ctx);
            for id in &got.skyline {
                assert!(
                    want.contains(*id),
                    "paper mode produced a non-skyline point {id} in trial {trial}"
                );
            }
        }
    }

    #[test]
    fn points_inside_hull_are_all_reported() {
        // Theorem 1 end-to-end.
        let mut points = pseudorandom(100, 50);
        points.push(p(0.5, 0.5)); // certainly inside the hull below
        let q = [p(0.1, 0.1), p(0.9, 0.1), p(0.9, 0.9), p(0.1, 0.9)];
        let ctx = QueryContext::new(&q);
        let idx = VoronoiIndex::new(&points).unwrap();
        let r = vs2(&idx, &ctx);
        for (i, pt) in points.iter().enumerate() {
            if ctx.hull().contains(*pt) {
                assert!(r.contains(i as u32), "interior point {i} missing");
            }
        }
    }

    #[test]
    fn start_hint_does_not_change_result() {
        let points = pseudorandom(200, 8);
        let q = pseudorandom(4, 5000);
        let ctx = QueryContext::new(&q);
        let idx = VoronoiIndex::new(&points).unwrap();
        let a = vs2_with(&idx, &ctx, VsExpansion::Safe, None);
        let b = vs2_with(&idx, &ctx, VsExpansion::Safe, Some(137));
        assert_eq!(a.skyline, b.skyline);
    }

    #[test]
    fn visits_fewer_points_than_dataset() {
        // The whole point of VS²: locality. With a small query box in a
        // large dataset, only a small neighbourhood is visited.
        let points = pseudorandom(3000, 17);
        let q: Vec<Point> = pseudorandom(5, 6000)
            .into_iter()
            .map(|v| p(0.48 + v.x * 0.04, 0.48 + v.y * 0.04))
            .collect();
        let ctx = QueryContext::new(&q);
        let idx = VoronoiIndex::new(&points).unwrap();
        let r = vs2(&idx, &ctx);
        assert!(!r.skyline.is_empty());
        assert!(
            (r.stats.entries_visited as usize) < points.len() / 3,
            "visited {} of {}",
            r.stats.entries_visited,
            points.len()
        );
    }

    #[test]
    fn tiny_datasets() {
        let ctx = QueryContext::new(&[p(0.5, 0.5), p(0.7, 0.7)]);
        let idx = VoronoiIndex::new(&[p(0.1, 0.2)]).unwrap();
        assert_eq!(vs2(&idx, &ctx).skyline, vec![0]);
        let idx2 = VoronoiIndex::new(&[]).unwrap();
        assert!(vs2(&idx2, &ctx).skyline.is_empty());
        // Collinear dataset (degenerate Delaunay -> path graph).
        let idx3 =
            VoronoiIndex::new(&[p(0.0, 0.0), p(0.5, 0.0), p(1.0, 0.0), p(0.25, 0.0)]).unwrap();
        let want = naive_full(idx3.points(), &ctx);
        assert_eq!(vs2(&idx3, &ctx).skyline, want.skyline);
    }
}
