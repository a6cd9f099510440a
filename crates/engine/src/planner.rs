//! The planner: which algorithm should serve this query?
//!
//! The rule is measured, not the paper's ranking:
//!
//! * **Tiny datasets** (`|P| <` [`Planner::DEFAULT_NAIVE_CUTOFF`]) — index
//!   traversal overhead dominates; a sorted scan
//!   ([`naive_sorted_kernel`](ssq_core::naive_sorted_kernel)) wins
//!   outright.
//! * **Everything else** — B²S²
//!   ([`b2s2_kernel`](ssq_core::b2s2_kernel)), whatever the hull's shape.
//!
//! The paper ranks VS² first for proper hulls (Fig. 12), but it counts disk
//! page accesses and 2006 CPU time. In memory the cost is the points a
//! traversal examines, and the exact (Safe-expansion) VS² that serving
//! needs examines about twice the points B²S² does over the Fig. 12 sweep
//! (up to 4× on the 0.7% cells). On 100k USGS-like points B²S² answers
//! the sweep in a mean ~650 µs against VS²'s ~1.9 ms, within 0.5% of
//! choosing the faster kernel per query with hindsight (EXPERIMENTS.md,
//! "Serving stack"). The `planner_rule` integration test pins that reason
//! as a counter.
//!
//! A forced algorithm (engine-wide via
//! [`EngineConfig`](crate::EngineConfig), or per request via
//! [`QueryRequest`](crate::QueryRequest)) bypasses the rule — that is what
//! keeps VS² servable and lets benchmarks compare plans on identical
//! workloads.

use ssq_core::QueryContext;

/// The serving algorithms the engine can plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Sorted naive scan (`naive_sorted`) — no index.
    Naive,
    /// BBS adapted to spatial skylines (the paper's competitor, §7).
    Bbs,
    /// B²S² on the R*-tree (§4.1).
    B2s2,
    /// VS² on the Voronoi index (§4.2).
    Vs2,
}

impl Algorithm {
    /// Every algorithm, in [`Algorithm::index`] order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Naive,
        Algorithm::Bbs,
        Algorithm::B2s2,
        Algorithm::Vs2,
    ];

    /// Dense index (for metrics arrays).
    pub fn index(self) -> usize {
        match self {
            Algorithm::Naive => 0,
            Algorithm::Bbs => 1,
            Algorithm::B2s2 => 2,
            Algorithm::Vs2 => 3,
        }
    }

    /// Lower-case name, matching the CLI's `--algo` values.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Naive => "naive",
            Algorithm::Bbs => "bbs",
            Algorithm::B2s2 => "b2s2",
            Algorithm::Vs2 => "vs2",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Algorithm, String> {
        match s {
            "naive" => Ok(Algorithm::Naive),
            "bbs" => Ok(Algorithm::Bbs),
            "b2s2" => Ok(Algorithm::B2s2),
            "vs2" => Ok(Algorithm::Vs2),
            other => Err(format!(
                "unknown algorithm '{other}' (expected naive|bbs|b2s2|vs2)"
            )),
        }
    }
}

/// Chooses the algorithm for each query from the dataset size.
#[derive(Clone, Copy, Debug)]
pub struct Planner {
    force: Option<Algorithm>,
    naive_cutoff: usize,
}

impl Planner {
    /// Default `|P|` below which the sorted naive scan is chosen.
    pub const DEFAULT_NAIVE_CUTOFF: usize = 64;

    /// A planner following the module's rule; `force` pins every choice
    /// to one algorithm.
    pub fn new(force: Option<Algorithm>) -> Planner {
        Planner {
            force,
            naive_cutoff: Self::DEFAULT_NAIVE_CUTOFF,
        }
    }

    /// Overrides the naive cutoff (useful in tests).
    pub fn with_naive_cutoff(mut self, cutoff: usize) -> Planner {
        self.naive_cutoff = cutoff;
        self
    }

    /// The engine-wide forced algorithm, if any.
    pub fn forced(&self) -> Option<Algorithm> {
        self.force
    }

    /// Picks the algorithm for a query over `data_len` points. The rule
    /// reads only the dataset size, so the context is not consulted.
    pub fn choose(&self, data_len: usize, _ctx: &QueryContext) -> Algorithm {
        self.choose_for_len(data_len)
    }

    /// [`choose`](Self::choose) without a context — used by the diagram
    /// hit path, which never materializes a [`QueryContext`].
    pub fn choose_for_len(&self, data_len: usize) -> Algorithm {
        match self.force {
            Some(forced) => forced,
            None if data_len < self.naive_cutoff => Algorithm::Naive,
            None => Algorithm::B2s2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_geom::Point;

    fn ctx(q: &[(f64, f64)]) -> QueryContext {
        let pts: Vec<Point> = q.iter().map(|&(x, y)| Point::new(x, y)).collect();
        QueryContext::new(&pts)
    }

    #[test]
    fn small_datasets_scan() {
        let planner = Planner::new(None);
        let c = ctx(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]);
        assert_eq!(planner.choose(10, &c), Algorithm::Naive);
        assert_eq!(planner.choose(63, &c), Algorithm::Naive);
        assert_eq!(planner.choose(64, &c), Algorithm::B2s2);
        let planner = planner.with_naive_cutoff(1000);
        assert_eq!(planner.choose(999, &c), Algorithm::Naive);
        assert_eq!(planner.choose_for_len(1000), Algorithm::B2s2);
    }

    #[test]
    fn every_hull_shape_uses_b2s2() {
        let planner = Planner::new(None);
        let shapes = [
            // A single query point.
            ctx(&[(0.3, 0.7)]),
            // Collinear query points: the hull is a segment, 2 anchors.
            ctx(&[(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]),
            // A proper hull with an interior point.
            ctx(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, 0.4)]),
        ];
        for c in &shapes {
            assert_eq!(planner.choose(10_000, c), Algorithm::B2s2);
            assert_eq!(planner.choose_for_len(10_000), planner.choose(10_000, c));
        }
    }

    #[test]
    fn force_wins_over_every_heuristic() {
        let planner = Planner::new(Some(Algorithm::Bbs));
        let c = ctx(&[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]);
        assert_eq!(planner.choose(3, &c), Algorithm::Bbs);
        assert_eq!(planner.choose(1_000_000, &c), Algorithm::Bbs);
        assert_eq!(planner.choose_for_len(1_000_000), Algorithm::Bbs);
        let vs2 = Planner::new(Some(Algorithm::Vs2));
        assert_eq!(vs2.choose(1_000_000, &c), Algorithm::Vs2);
    }

    #[test]
    fn algorithm_names_round_trip() {
        for algo in Algorithm::ALL {
            assert_eq!(algo.name().parse::<Algorithm>().unwrap(), algo);
        }
        assert!("quantum".parse::<Algorithm>().is_err());
    }
}
