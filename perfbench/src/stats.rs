//! Order statistics over timing samples.

/// The `q`-quantile (`0 <= q <= 1`) of `xs` by linear interpolation
/// between closest ranks; `NaN` when `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median with first and third quartile.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Spread {
    pub fn of(xs: &[f64]) -> Self {
        Spread {
            q1: quantile(xs, 0.25),
            median: median(xs),
            q3: quantile(xs, 0.75),
            n: xs.len(),
        }
    }

    /// A deterministic value: every quartile is the value itself.
    pub fn exact(x: f64) -> Self {
        Spread {
            q1: x,
            median: x,
            q3: x,
            n: 1,
        }
    }
}

/// The tail percentile ladder: the highest rung that still leaves at
/// least ten samples beyond it is reported as a job's tail latency.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest ladder percentile of `n` samples with at least ten
/// samples beyond it (falls back to the median for tiny samples).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// Geometric mean of positive values (1.0 when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
