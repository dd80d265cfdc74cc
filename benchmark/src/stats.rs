//! Order statistics used for every reported number.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the acceptance
//! procedure for this benchmark computes; a spread is the distance between
//! the first and third quartile as a share of the median.

/// Sorted copy of `values` (NaN-free input assumed; NaNs sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v
}

/// Median of `values`; `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, or `None` with fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    const N: usize = 4;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..N) {
        let j = (i * (ld + 1) / N).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * N) as f64;
        *slot = (v[j - 1] * (N as f64 - delta) + v[j] * delta) / N as f64;
    }
    Some(out)
}

/// The `p`-th percentile (`0 < p < 100`, nearest rank), but only when at
/// least ten samples lie beyond it — a tail read off fewer samples is an
/// anecdote, not a percentile.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let beyond = v.len().saturating_sub(rank);
    (rank >= 1 && beyond >= 10).then(|| v[rank - 1])
}

/// Summary of one metric's samples as written to `results.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile (the median itself with a single sample).
    pub q1: f64,
    /// Third quartile (the median itself with a single sample).
    pub q3: f64,
}

impl Summary {
    /// Summarises `values` (must be non-empty).
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        let med = median(&v);
        let [q1, _, q3] = quartiles(&v).unwrap_or([med; 3]);
        Summary { n: v.len(), median: med, min: v[0], max: v[v.len() - 1], q1, q3 }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some([1.5, 4.0, 12.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(Summary::of(&v).spread(), 1.0); // (8.25 - 2.75) / 5.5
        assert_eq!(Summary::of(&[7.0]).spread(), 0.0);
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 samples: rank 190, exactly ten beyond.
        assert_eq!(tail_percentile(&v, 95.0), Some(190.0));
        // p99 of 200 samples leaves only two beyond.
        assert_eq!(tail_percentile(&v, 99.0), None);
        // One sample short of the rule.
        assert_eq!(tail_percentile(&v[..199], 95.0), None);
        assert_eq!(tail_percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }
}
