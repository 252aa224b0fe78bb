//! Order statistics over timing samples.

/// Fewest samples a reported tail percentile must leave above it.
pub const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` (in percent) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (in percent, `0 < p <= 100`) of `samples`;
/// `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(sorted(samples)[rank(samples.len(), p) - 1])
}

/// Median of `samples` (the mean of the two middle values when the count
/// is even); `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Samples strictly above the nearest-rank percentile `p` among `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of `candidates` (percentiles, in percent) that leaves at
/// least [`MIN_TAIL_SAMPLES`] samples beyond it among `n` samples — the
/// highest tail percentile `n` samples can support.
pub fn tail_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= MIN_TAIL_SAMPLES)
        .max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAILS: &[f64] = &[50.0, 90.0, 99.0, 99.9];

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 162 cells: p90 leaves 16 beyond, p99 only 1.
        assert_eq!(tail_percentile(162, TAILS), Some(90.0));
        // 100 samples are the fewest that support p90 (exactly 10 beyond).
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(tail_percentile(100, TAILS), Some(90.0));
        assert_eq!(tail_percentile(99, TAILS), Some(50.0));
        // 20 cells support only the median; 19 support nothing.
        assert_eq!(tail_percentile(20, TAILS), Some(50.0));
        assert_eq!(tail_percentile(19, TAILS), None);
        assert_eq!(tail_percentile(1000, TAILS), Some(99.0));
        assert_eq!(tail_percentile(20_000, TAILS), Some(99.9));
        assert_eq!(tail_percentile(0, TAILS), None);
    }
}
