//! Order statistics over host-time samples.

/// The `q`-quantile (`0 <= q <= 1`) of `values`, interpolating linearly
/// between the two closest ranks. Returns 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 101.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.25), 12.5);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let a = [9.0, 2.0, 7.0, 4.0, 5.0];
        let b = [2.0, 4.0, 5.0, 7.0, 9.0];
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(percentile(&a, q), percentile(&b, q));
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn percentile_rejects_bad_quantile() {
        percentile(&[1.0], 1.5);
    }
}
