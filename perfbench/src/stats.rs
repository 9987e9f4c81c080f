//! Order statistics for the benchmark's reported figures.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A tail-latency figure: the value at `percentile`, which is the highest
/// whole percentile (at most 99) that leaves at least [`TAIL_SAMPLES`]
/// samples beyond it, or the maximum (`percentile == 100`) when even the
/// median does not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: u32,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank index of percentile `p` among `n` sorted samples.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1) - 1
}

/// The highest whole percentile in `50..=99` with at least
/// [`TAIL_SAMPLES`] of `n` samples strictly beyond it.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n > 0 && n - 1 - rank(p, n) >= TAIL_SAMPLES)
}

/// The tail figure of `values` (see [`Tail`]).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
#[must_use]
pub fn tail(values: &[f64]) -> Tail {
    tail_within(values, values.len())
}

/// The tail figure of `values` at the percentile [`tail`] would pick for
/// a sample of `min(values.len(), design)`: a run that completes at least
/// `design` operations always reports the same percentile, taken over
/// all of its samples, so the figure does not jump between percentiles
/// as the completed count wanders from run to run.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
#[must_use]
pub fn tail_within(values: &[f64], design: usize) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    match tail_percentile(n.min(design)) {
        Some(p) => {
            let i = rank(p, n);
            Tail {
                percentile: p,
                value: sorted[i],
                beyond: n - 1 - i,
            }
        }
        None => Tail {
            percentile: 100,
            value: sorted[n - 1],
            beyond: 0,
        },
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistics of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990 (0-based 989), ten beyond.
        assert_eq!(tail_percentile(1000), Some(99));
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.percentile, t.value, t.beyond), (99, 990.0, 10));
        // 999 samples leave only nine beyond p99, so p98 is the highest.
        assert_eq!(tail_percentile(999), Some(98));
    }

    #[test]
    fn picks_the_highest_qualifying_percentile() {
        // 100 samples: p90 leaves 10 beyond, p91 leaves 9.
        assert_eq!(tail_percentile(100), Some(90));
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.percentile, t.value, t.beyond), (90, 90.0, 10));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - 1 - rank(p, n) >= TAIL_SAMPLES, "n={n} p={p}");
                if p < 99 {
                    assert!(n - 1 - rank(p + 1, n) < TAIL_SAMPLES, "n={n} p={p}");
                }
            }
        }
    }

    #[test]
    fn a_design_count_pins_the_percentile() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 450 design samples allow p97; all 1000 samples are used.
        let t = tail_within(&values, 450);
        assert_eq!((t.percentile, t.value, t.beyond), (97, 970.0, 30));
        // Fewer samples than designed fall back to the plain rule.
        assert_eq!(tail_within(&values[..100], 450), tail(&values[..100]));
    }

    #[test]
    fn too_few_samples_report_the_maximum() {
        assert_eq!(tail_percentile(19), None);
        let t = tail(&[5.0, 1.0, 9.0]);
        assert_eq!((t.percentile, t.value, t.beyond), (100, 9.0, 0));
        // 20 samples: the median (rank 10) leaves ten beyond.
        assert_eq!(tail_percentile(20), Some(50));
    }
}
