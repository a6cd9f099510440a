//! Order statistics over recorded samples.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A sorted copy of `values`.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (0 for none).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// The arithmetic mean of `values` (0 for none).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether a sample of `n` supports percentile `q`: at least ten
/// samples must lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0
}

/// `(p50, p99)` of an ascending slice; p99 is 0 unless at least ten
/// samples lie beyond it.
pub fn p50_p99(sorted: &[f64]) -> (f64, f64) {
    let p99 = if supports(sorted.len(), 0.99) {
        percentile(sorted, 0.99)
    } else {
        0.0
    };
    (percentile(sorted, 0.5), p99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v = sorted((1..=100).map(f64::from));
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
    }
}
