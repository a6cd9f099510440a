//! Reference answers, computed outside the timed region by paths
//! independent of the serving stack: scalar `b2s2` over a bench-owned
//! R-tree of the generation a reply names, and `naive_full` (the
//! brute-force oracle) on a fixed sample.

use ssq_core::{b2s2, naive_full, QueryContext, RTreeIndex};
use ssq_geom::Point;

/// One dataset generation as the benchmark expects it.
pub struct Mirror {
    /// The generation's points, in id order.
    pub points: Vec<Point>,
    /// A freshly bulk-loaded R-tree over them.
    pub rtree: RTreeIndex,
}

impl Mirror {
    /// Indexes `points`.
    pub fn new(points: Vec<Point>) -> Mirror {
        let rtree = RTreeIndex::new(&points);
        Mirror { points, rtree }
    }

    /// The skyline of `q` by scalar B²S².
    pub fn reference(&self, q: &[Point]) -> Vec<u32> {
        b2s2(&self.rtree, &QueryContext::new(q)).skyline
    }

    /// The skyline of `q` by the brute-force oracle (slow: `O(|P|²)`
    /// worst case).
    pub fn oracle(&self, q: &[Point]) -> Vec<u32> {
        naive_full(&self.points, &QueryContext::new(q)).skyline
    }
}

/// Tally of checked answers.
#[derive(Default)]
pub struct Tally {
    /// Answers compared.
    pub checked: u64,
    /// Answers that differed from the reference.
    pub wrong: u64,
    /// Oracle comparisons made (the reference itself included).
    pub oracle_checked: u64,
    /// First mismatch, for the report.
    pub first: Option<String>,
}

impl Tally {
    /// Compares one answer.
    pub fn check(&mut self, what: &str, got: &[u32], expected: &[u32]) {
        self.checked += 1;
        if got != expected {
            self.wrong += 1;
            self.first.get_or_insert_with(|| {
                format!(
                    "{what}: got {} ids, expected {} (first difference at position {})",
                    got.len(),
                    expected.len(),
                    got.iter().zip(expected).take_while(|(a, b)| a == b).count()
                )
            });
        }
    }

    /// Counts one oracle comparison (the reference against `naive_full`
    /// and the answer against it).
    pub fn oracle(&mut self, what: &str, got: &[u32], reference: &[u32], oracle: &[u32]) {
        self.oracle_checked += 1;
        self.check(
            &format!("{what} (reference vs naive_full)"),
            reference,
            oracle,
        );
        self.check(&format!("{what} (answer vs naive_full)"), got, oracle);
    }
}

/// Maps `f` over `items` on two threads (the host's core count the
/// benchmark is written for), keeping their order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let (left, right) = items.split_at(items.len() / 2);
    std::thread::scope(|s| {
        let handle = s.spawn(|| left.iter().map(&f).collect::<Vec<R>>());
        let mut tail: Vec<R> = right.iter().map(&f).collect();
        let mut out = handle.join().expect("reference thread panicked");
        out.append(&mut tail);
        out
    })
}
