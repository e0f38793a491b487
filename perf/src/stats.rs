//! Order statistics for host timings.

use std::fmt;

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that the tail is noise, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum PercentileError {
    /// No samples at all.
    Empty,
    /// Too few samples lie above the requested rank.
    TooFewBeyond {
        /// The requested percentile, in `(0, 1]`.
        q: f64,
        /// Samples available.
        samples: usize,
        /// Samples strictly above the rank.
        beyond: usize,
    },
}

impl fmt::Display for PercentileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PercentileError::Empty => write!(f, "no samples"),
            PercentileError::TooFewBeyond { q, samples, beyond } => write!(
                f,
                "p{} of {samples} samples has only {beyond} beyond it (need {MIN_BEYOND})",
                q * 100.0
            ),
        }
    }
}

impl std::error::Error for PercentileError {}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `samples`, refused
/// when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, PercentileError> {
    if samples.is_empty() {
        return Err(PercentileError::Empty);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(PercentileError::TooFewBeyond {
            q,
            samples: n,
            beyond,
        });
    }
    Ok(sorted[rank - 1])
}

/// Median of a small set (set-up repeats, compare runs); no tail rule.
/// `NaN` for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) so numbers here match scripts that check them.
/// With a single sample all three are that sample; empty gives `NaN`s.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    match n {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (d[0], d[0], d[0]),
        _ => {}
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Ok(50.0));
        assert_eq!(percentile(&v, 0.9), Ok(90.0));
    }
}
