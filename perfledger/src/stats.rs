//! Order statistics over timing samples.

/// Samples needed strictly beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the middle two for an even count). `NaN` when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`th percentile, or `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond it — a percentile resting on fewer
/// samples is one or two outliers, not a property of the distribution.
pub fn steady_percentile(v: &[f64], p: f64) -> Option<f64> {
    if v.is_empty() || !(0.0..100.0).contains(&p) {
        return None;
    }
    let s = sorted(v);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    let beyond = s.len() - rank;
    (beyond >= MIN_BEYOND).then(|| s[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 99 samples: rank 90, only 9 beyond.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(steady_percentile(&v, 90.0), None);
        // 100 samples: rank 90, exactly 10 beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(steady_percentile(&v, 90.0), Some(90.0));
        // Order of arrival does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(steady_percentile(&rev, 90.0), Some(90.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(steady_percentile(&v, 99.0), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(steady_percentile(&v, 99.0), Some(990.0));
    }

    #[test]
    fn degenerate_inputs_have_no_percentile() {
        assert_eq!(steady_percentile(&[], 50.0), None);
        assert_eq!(steady_percentile(&[1.0; 100], 100.0), None);
    }
}
