//! Order statistics for timings: the median and the highest percentile
//! that still has at least ten samples beyond it.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile; with fewer, the percentile is one or two lucky samples.
pub const TAIL_SUPPORT: usize = 10;

/// Percentiles the tail helper considers, highest first.
const TAIL_LADDER: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Median of `values` (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted.get(mid).copied()
    } else {
        Some((sorted[mid - 1] + sorted[mid]) / 2.0)
    }
}

/// A tail percentile together with the sample count it was drawn from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile (e.g. 99.0).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// The highest percentile of the ladder that has at least
/// [`TAIL_SUPPORT`] samples beyond it; `None` when even p90 lacks them.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        let beyond = n as f64 * (1.0 - pct / 100.0);
        if beyond + 1e-9 >= TAIL_SUPPORT as f64 {
            percentile(values, pct).map(|value| Tail { pct, value, n })
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        // 99 samples: p90 has 9.9 beyond it, short of ten.
        assert_eq!(tail(&ramp(99)), None);
        // 100 samples: exactly ten beyond p90.
        let t = tail(&ramp(100)).expect("p90 supported");
        assert_eq!((t.pct, t.value, t.n), (90.0, 90.0, 100));
        // 999 samples: p99 has 9.99 beyond, so still p90.
        assert_eq!(tail(&ramp(999)).map(|t| t.pct), Some(90.0));
        // 1000 samples: p99 has ten beyond.
        let t = tail(&ramp(1000)).expect("p99 supported");
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        // 100 000 samples: p99.99 has ten beyond.
        assert_eq!(tail(&ramp(100_000)).map(|t| t.pct), Some(99.99));
    }
}
