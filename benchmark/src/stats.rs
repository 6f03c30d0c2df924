//! Medians, percentiles and run-to-run spread.
//!
//! A timing is reported as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it; a percentile
//! with fewer is a statement about a handful of outliers, not about the
//! distribution, and is refused.

use crate::spec::Better;

/// Samples that must lie strictly beyond a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// `values` sorted ascending (total order, so a stray NaN cannot panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle samples for an even
/// count). Panics on an empty slice: every caller owns at least one
/// repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `(0, 1)` of an ascending slice, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it. The
/// median (`q <= 0.5`) is always reported.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (q <= 0.5 || beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Percentile `q`, falling back to the highest of p99, p90 and p50 that
/// the sample count supports. Returns the percentile actually used
/// beside its value so the report can say so.
pub fn percentile_or_lower(sorted: &[f64], q: f64) -> (f64, f64) {
    for cand in [q, 0.99, 0.9, 0.5] {
        if cand <= q {
            if let Some(v) = percentile(sorted, cand) {
                return (cand, v);
            }
        }
    }
    (0.5, f64::NAN)
}

/// One metric over the repetitions of a pass: the median, the extremes
/// and every value.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Median over the repetitions.
    pub median: f64,
    /// Smallest repetition.
    pub min: f64,
    /// Largest repetition.
    pub max: f64,
    /// Every repetition, in run order.
    pub values: Vec<f64>,
}

impl Summary {
    /// Summarize `values` (at least one).
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        Self {
            median: median(values),
            min: s[0],
            max: s[s.len() - 1],
            values: values.to_vec(),
        }
    }

    /// The best repetition: the smallest of a lower-is-better metric, the
    /// largest of a higher-is-better one. Interference on a shared host
    /// only ever makes a repetition worse, so this, not the median, is
    /// what a pass reports for set-up time and peak memory (host time is
    /// read through the interference slice by slice, see
    /// [`crate::slices`]; simulated metrics are identical in every
    /// repetition).
    pub fn best(&self, better: Better) -> f64 {
        match better {
            Better::Lower => self.min,
            Better::Higher => self.max,
        }
    }

    /// Run-to-run spread: the distance between the first and the third
    /// quartile as a share of the median, so that more repetitions narrow
    /// it where the full range could only widen.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        let v = sorted(&self.values);
        (quartile(&v, 3) - quartile(&v, 1)) / self.median.abs()
    }
}

/// Quartile `k` (1 or 3) of an ascending slice by the exclusive method
/// (position `k(n+1)/4`, interpolated, clamped to the extremes), the one
/// Python's `statistics.quantiles(values, n=4)` uses.
fn quartile(sorted: &[f64], k: usize) -> f64 {
    let n = sorted.len();
    let pos = (k * (n + 1)) as f64 / 4.0;
    let below = (pos.floor() as usize).clamp(1, n);
    let above = (below + 1).min(n);
    let frac = (pos - below as f64).clamp(0.0, 1.0);
    sorted[below - 1] + frac * (sorted[above - 1] - sorted[below - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1,000: rank 990, ten samples beyond — just enough.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // p99 of 999: rank 990, nine beyond — refused.
        assert_eq!(percentile(&v[..999], 0.99), None);
        // p90 of 144 (the sweep grid): rank 130, 14 beyond.
        assert_eq!(percentile(&v[..144], 0.9), Some(130.0));
        assert_eq!(percentile(&v[..99], 0.9), None);
        // The median is always available.
        assert_eq!(percentile(&v[..3], 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn unsupported_percentile_falls_back_to_a_lower_one() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: p99 has 2 beyond, p90 has 20.
        assert_eq!(percentile_or_lower(&v, 0.99), (0.9, 180.0));
        assert_eq!(percentile_or_lower(&v[..12], 0.99), (0.5, 6.0));
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile_or_lower(&big, 0.99), (0.99, 1980.0));
    }

    #[test]
    fn summary_reports_extremes_and_spread() {
        let s = Summary::of(&[10.0, 12.0, 11.0]);
        assert_eq!((s.median, s.min, s.max), (11.0, 10.0, 12.0));
        // Three values: the quartiles are the extremes.
        assert!((s.spread() - 2.0 / 11.0).abs() < 1e-12);
        // Seven values: the quartiles are the 2nd and the 6th, so one
        // disturbed repetition no longer sets the spread.
        let seven = Summary::of(&[10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 15.0]);
        assert!((seven.spread() - 0.4 / 10.3).abs() < 1e-12);
        // Interpolated positions (n = 4: 1.25 and 3.75).
        let four = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((four.spread() - (3.75 - 1.25) / 2.5).abs() < 1e-12);
        assert_eq!(s.values, vec![10.0, 12.0, 11.0]);
        assert_eq!(s.best(Better::Lower), 10.0);
        assert_eq!(s.best(Better::Higher), 12.0);
    }
}
