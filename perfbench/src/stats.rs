//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated between
/// the two nearest ranks. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range of `values` as a share of their median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m
}

/// A metric measured once per repetition: the reported value is the median
/// across repetitions, and the spread is kept for the result file.
#[derive(Debug, Default, Clone)]
pub struct Reps(pub Vec<f64>);

impl Reps {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    pub fn spread(&self) -> f64 {
        relative_iqr(&self.0)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert!((relative_iqr(&v) - 1.5 / 2.5).abs() < 1e-12);
    }
}
