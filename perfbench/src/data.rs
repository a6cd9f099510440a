//! Inputs: the canonical dataset, the CSV the server loads, and every
//! query and update sequence. The dataset is fixed; every sequence is a
//! pure function of the workload seed, so the same seed replays the same
//! requests in the untraced pass, the traced pass and the in-process
//! replays.

use ssq_core::UpdateBatch;
use ssq_geom::{Point, Rect};
use ssq_rng::Xoshiro256;
use ssq_workload::usgs::{synthetic_usgs_points, universe, UsgsConfig};
use ssq_workload::{random_query_set, QueryConfig};
use std::collections::HashSet;
use std::io::Write;
use std::path::Path;

/// Points in the canonical dataset.
pub const DATASET_N: usize = 100_000;

/// The paper's Fig. 12 `|Q|` sweep.
pub const FIG12_COUNTS: [usize; 9] = [2, 3, 4, 5, 6, 7, 8, 9, 10];
/// The paper's Fig. 12 `MBR(Q)` area sweep, as fractions of the universe.
pub const FIG12_AREAS: [f64; 5] = [0.0001, 0.0005, 0.001, 0.003, 0.007];
/// The small-area rows of the grid that `ingest-mix` queries with.
pub const INGEST_AREAS: [f64; 3] = [0.0001, 0.0005, 0.001];

/// Distinct shapes in `hot-shapes`.
pub const HOT_SHAPES: usize = 48;
/// `MBR(Q)` area of every hot shape.
pub const HOT_AREA: f64 = 0.001;
/// Zipf exponent of the hot-shape popularity skew.
pub const HOT_ZIPF_S: f64 = 1.0;
/// Seed of the hot-shape table and its popularity order. Both are fixed,
/// so runs with different workload seeds do the same mix of work; the
/// workload seed sets only the order of the requests.
const HOT_TABLE_SEED: u64 = 0x686f_7473;

/// Inserts (and, separately, deletes) per ingest batch.
pub const INGEST_HALF_BATCH: usize = 100;

/// The synthetic USGS dataset every workload serves (fixed seed, so runs
/// with different workload seeds serve identical data).
pub fn dataset() -> Vec<Point> {
    synthetic_usgs_points(&UsgsConfig {
        n: DATASET_N,
        ..UsgsConfig::default()
    })
}

/// The seed the dataset generator uses.
pub fn dataset_seed() -> u64 {
    UsgsConfig::default().seed
}

/// Writes `points` as `x,y` rows. `f64` `Display` prints the shortest
/// string that parses back to the same value, so the server loads
/// bit-identical coordinates, in the same order (ids = row numbers).
pub fn write_csv(points: &[Point], path: &Path) -> std::io::Result<()> {
    let mut text = String::with_capacity(points.len() * 40);
    for p in points {
        text.push_str(&format!("{},{}\n", p.x, p.y));
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()
}

/// SplitMix64-style mixing of a seed with two stream coordinates.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Box positions per grid cell.
pub const GRID_POSITIONS: usize = 16;

/// Request `k` of connection `conn` on a `|Q|` × area grid: requests
/// cycle through every grid cell in turn (stratified, so each cell gets
/// an equal share of every run), connections starting at different
/// cells. Each request is a fresh query set built the paper's way
/// ([`random_query_set`]: two points on opposite corners of a square box
/// of the cell's area, the rest uniform inside). Each cell places its
/// box at one of [`GRID_POSITIONS`] fixed positions spread evenly over
/// the universe by a low-discrepancy (R2) sequence; the seed shuffles the
/// order the positions are visited in, a small shift of each visit's box
/// and the points inside it. Every run therefore covers each cell's positions about equally,
/// instead of hitting or missing the rare dense-cluster boxes that
/// dominate the cost tail by chance.
pub fn grid_query(seed: u64, conn: usize, k: usize, areas: &[f64]) -> Vec<Point> {
    const PLASTIC: f64 = 1.324_717_957_244_746;
    let cells = FIG12_COUNTS.len() * areas.len();
    let slot = k + conn * 7;
    let cell = slot % cells;
    let visit = (slot / cells) * 2 + conn;
    let mut order: Vec<usize> = (0..GRID_POSITIONS).collect();
    let mut rng = Xoshiro256::seed_from_u64(mix(
        seed,
        4_000,
        (cell + cells * (visit / GRID_POSITIONS)) as u64,
    ));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.range_usize(i + 1));
    }
    let m = (order[visit % GRID_POSITIONS] * cells + cell) as f64;
    let side = areas[cell / FIG12_COUNTS.len()].sqrt();
    // Each visit shifts the box by up to 1% of its side, so no two
    // requests repeat a query set (a repeat would hit the context cache).
    let mut jitter = Xoshiro256::seed_from_u64(mix(seed, 5_000 + conn as u64, k as u64));
    let fx = (0.5 + m / PLASTIC).fract() * (1.0 - 1.01 * side) + 0.01 * side * jitter.f64();
    let fy =
        (0.5 + m / (PLASTIC * PLASTIC)).fract() * (1.0 - 1.01 * side) + 0.01 * side * jitter.f64();
    let min = Point::new(fx, fy);
    random_query_set(&QueryConfig {
        count: FIG12_COUNTS[cell % FIG12_COUNTS.len()],
        mbr_area_fraction: 1.0,
        universe: Rect::from_corners(min, Point::new(min.x + side, min.y + side)),
        seed: mix(seed, conn as u64, k as u64),
    })
}

/// The first `len` grid queries of connection `conn`.
pub fn grid_sequence(seed: u64, conn: usize, len: usize, areas: &[f64]) -> Vec<Vec<Point>> {
    (0..len).map(|k| grid_query(seed, conn, k, areas)).collect()
}

/// The fixed hot-shape table: one, two and three anchors in turn, each
/// at [`HOT_AREA`].
pub fn hot_shapes() -> Vec<Vec<Point>> {
    (0..HOT_SHAPES)
        .map(|s| {
            random_query_set(&QueryConfig {
                count: 1 + s % 3,
                mbr_area_fraction: HOT_AREA,
                universe: universe(),
                seed: mix(HOT_TABLE_SEED, 1_000, s as u64),
            })
        })
        .collect()
}

/// Zipf-skewed shape ids for connection `conn`: popularity rank `r` has
/// weight `1 / (r + 1)^s`, and ranks map to shapes through a fixed
/// permutation (so the hottest shape is not shape 0); `seed` sets the
/// draws.
pub fn hot_sequence(seed: u64, conn: usize, len: usize) -> Vec<u16> {
    let mut rng = Xoshiro256::seed_from_u64(mix(HOT_TABLE_SEED, 2_000, 0));
    let mut by_rank: Vec<u16> = (0..HOT_SHAPES as u16).collect();
    for i in (1..by_rank.len()).rev() {
        by_rank.swap(i, rng.range_usize(i + 1));
    }
    let weights: Vec<f64> = (0..HOT_SHAPES)
        .map(|r| 1.0 / ((r + 1) as f64).powf(HOT_ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(HOT_SHAPES);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut rng = Xoshiro256::seed_from_u64(mix(seed, 2_001, conn as u64));
    (0..len)
        .map(|_| {
            let u = rng.f64();
            let rank = cdf.partition_point(|&c| c < u).min(HOT_SHAPES - 1);
            by_rank[rank]
        })
        .collect()
}

/// `count` update batches of [`INGEST_HALF_BATCH`] deletes and as many
/// inserts each. The point count stays constant, so every delete id is
/// valid in whichever generation the batch reaches. Inserts are jittered
/// copies of dataset points (keeping the clustered distribution), never
/// outside the unit square and never equal to a point seen before.
pub fn ingest_batches(seed: u64, base: &[Point], count: usize) -> Vec<UpdateBatch> {
    let n = base.len();
    let mut rng = Xoshiro256::seed_from_u64(mix(seed, 3_000, 0));
    let mut seen: HashSet<(u64, u64)> = base
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect();
    let unit: Rect = universe();
    (0..count)
        .map(|_| {
            let mut deletes = HashSet::with_capacity(INGEST_HALF_BATCH);
            while deletes.len() < INGEST_HALF_BATCH {
                deletes.insert(rng.range_usize(n) as u32);
            }
            let mut deletes: Vec<u32> = deletes.into_iter().collect();
            deletes.sort_unstable();
            let mut inserts = Vec::with_capacity(INGEST_HALF_BATCH);
            while inserts.len() < INGEST_HALF_BATCH {
                let anchor = base[rng.range_usize(n)];
                let (gx, gy) = rng.gaussian_pair();
                let p = Point::new(anchor.x + gx * 0.002, anchor.y + gy * 0.002);
                if unit.contains(p) && seen.insert((p.x.to_bits(), p.y.to_bits())) {
                    inserts.push(p);
                }
            }
            UpdateBatch { inserts, deletes }
        })
        .collect()
}

/// The points of the generation `batch` produces from `points`, by the
/// documented id semantics: survivors keep their order and are
/// renumbered densely, then the inserts follow in the order
/// normalization over the old generation's bounding box gives them.
pub fn apply_batch(points: &[Point], bbox: &Rect, batch: &UpdateBatch) -> Vec<Point> {
    let mut normalized = batch.clone();
    normalized.normalize(bbox);
    let mut next = Vec::with_capacity(points.len() + normalized.inserts.len());
    let mut deletes = normalized.deletes.iter().peekable();
    for (id, p) in points.iter().enumerate() {
        if deletes.peek() == Some(&&(id as u32)) {
            deletes.next();
        } else {
            next.push(*p);
        }
    }
    next.extend_from_slice(&normalized.inserts);
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_repeat_for_a_seed() {
        assert_eq!(
            grid_sequence(7, 1, 50, &FIG12_AREAS),
            grid_sequence(7, 1, 50, &FIG12_AREAS)
        );
        assert_ne!(
            grid_sequence(7, 1, 5, &FIG12_AREAS),
            grid_sequence(8, 1, 5, &FIG12_AREAS)
        );
        assert_eq!(hot_sequence(3, 0, 100), hot_sequence(3, 0, 100));
        assert_eq!(hot_shapes(), hot_shapes());
    }

    #[test]
    fn grid_covers_every_cell_once_per_cycle() {
        let cells = FIG12_COUNTS.len() * FIG12_AREAS.len();
        let counts: HashSet<usize> = grid_sequence(1, 0, cells, &FIG12_AREAS)
            .iter()
            .map(Vec::len)
            .collect();
        assert_eq!(counts.len(), FIG12_COUNTS.len());
    }

    #[test]
    fn grid_boxes_stay_inside_the_universe() {
        for k in 0..2_000 {
            for q in [
                grid_query(9, 0, k, &FIG12_AREAS),
                grid_query(9, 1, k, &FIG12_AREAS),
            ] {
                assert!(
                    q.iter().all(|p| universe().contains(*p)),
                    "request {k}: {q:?}"
                );
            }
        }
    }

    #[test]
    fn hot_sequence_is_skewed() {
        let seq = hot_sequence(5, 0, 20_000);
        let mut hits = vec![0usize; HOT_SHAPES];
        for &s in &seq {
            hits[s as usize] += 1;
        }
        hits.sort_unstable();
        assert!(hits[HOT_SHAPES - 1] > 10 * hits[0].max(1));
    }

    #[test]
    fn batches_keep_the_point_count() {
        let base: Vec<Point> = (0..1000)
            .map(|i| Point::new((i % 40) as f64 / 40.0 + 0.01, (i / 40) as f64 / 40.0 + 0.01))
            .collect();
        let bbox = Rect::bounding(base.iter().copied());
        let batches = ingest_batches(1, &base, 2);
        let next = apply_batch(&base, &bbox, &batches[0]);
        assert_eq!(next.len(), base.len());
        assert!(batches[0].validate(base.len()).is_ok());
    }
}
