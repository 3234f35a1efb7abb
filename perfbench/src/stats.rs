//! Small order statistics shared by every workload.

/// Median of a sample (mean of the two middle values for even sizes);
/// 0.0 for an empty sample.
pub fn median(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Nearest-rank percentile (`p` in [0, 100]); 0.0 for an empty sample.
/// The same definition `mbir_serve::report::percentile` uses, so serve
/// latencies here read like the program's own report.
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    mbir_serve::report::percentile(sample, p)
}

/// Arithmetic mean; 0.0 for an empty sample.
pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.iter().sum::<f64>() / sample.len() as f64
}

/// Jain fairness index `(Σx)² / (n·Σx²)`: 1.0 when every share is equal.
pub fn jain(sample: &[f64]) -> f64 {
    let sq: f64 = sample.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    let sum: f64 = sample.iter().sum();
    sum * sum / (sample.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), 2.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(jain(&[2.0, 2.0, 2.0]), 1.0);
        assert!((jain(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }
}
