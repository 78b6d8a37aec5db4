//! Order statistics for timing samples.

/// Median and quartiles of one timing metric, with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// A percentile needs this many samples beyond it before it is reported.
pub const SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// The quantile at `p` in (0, 1) of an ascending slice, placed the way
/// Python's `statistics.quantiles` does by default (position `p·(n+1)`,
/// linear interpolation, clamped to the ends), so `compare` and the
/// acceptance check compute spreads the same way.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of an empty sample");
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n - 1);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        n: s.len(),
        median: quantile_sorted(&s, 0.5),
        q1: quantile_sorted(&s, 0.25),
        q3: quantile_sorted(&s, 0.75),
    }
}

/// The nearest-rank percentile `p` (0 < p < 100), or `None` when fewer than
/// [`SAMPLES_BEYOND`] samples lie above it: a tail read off a handful of
/// samples is noise, not a percentile.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank.min(n);
    (beyond >= SAMPLES_BEYOND).then(|| s[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_the_python_placement() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 10);
        assert!((s.q1 - 2.75).abs() < 1e-12);
        assert!((s.median - 5.5).abs() < 1e-12);
        assert!((s.q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0]), 4.0);
        // Two samples: the quartiles clamp to the ends.
        let two = summarize(&[1.0, 3.0]);
        assert_eq!((two.q1, two.median, two.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        // 999 samples leave only 9 above the 99th percentile.
        assert_eq!(percentile(&v[..999], 99.0), None);
        // The median needs 10 above it: 20 samples leave exactly 10.
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
