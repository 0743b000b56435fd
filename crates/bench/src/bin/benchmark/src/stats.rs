//! Order statistics the report is built from.

/// Median of `values` (mean of the middle two for an even count; 0 for
/// none).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` of an ascending slice, with the number
/// of samples strictly beyond it — a tail percentile is only reported
/// when at least [`MIN_BEYOND`] samples lie past it.
pub fn percentile_with_beyond(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let idx = (((sorted.len() - 1) as f64) * p).round() as usize;
    let idx = idx.min(sorted.len() - 1);
    (sorted[idx], sorted.len() - 1 - idx)
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// (max − min) ÷ median, in percent (0 for fewer than two values).
pub fn spread_pct(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    100.0 * (max - min) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_counts_the_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // round(199 * 0.95) = 189 → the 190th value, ten beyond it.
        assert_eq!(percentile_with_beyond(&v, 0.95), (190.0, 10));
        assert_eq!(percentile_with_beyond(&v, 0.5), (101.0, 99));
        assert_eq!(percentile_with_beyond(&v[..10], 0.95), (10.0, 0));
        assert_eq!(percentile_with_beyond(&[], 0.95), (0.0, 0));
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread_pct(&[90.0, 100.0, 110.0]), 20.0);
        assert_eq!(spread_pct(&[5.0]), 0.0);
    }
}
