//! Order statistics over latency samples.

/// The `p`-th percentile (nearest rank) of `samples`; 0 when empty.
pub fn percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over already-sorted samples.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64
}

/// Median of floating-point values; 0 when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it, so it is not a single outlier's value.
pub fn deepest_tail(n: usize) -> f64 {
    // In basis points, so the "ten beyond" test is exact integer math.
    [9999, 9990, 9900, 9000]
        .into_iter()
        .find(|bp| n * (10_000 - bp) >= 10 * 10_000)
        .map_or(50.0, |bp| bp as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(deepest_tail(100_000), 99.99);
        assert_eq!(deepest_tail(10_000), 99.9);
        assert_eq!(deepest_tail(5_000), 99.0);
        assert_eq!(deepest_tail(50), 50.0);
    }
}
