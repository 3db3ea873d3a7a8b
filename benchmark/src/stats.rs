//! Order statistics for the report: medians, the quartile spread the
//! driver computes, and a tail-percentile picker that refuses to name a
//! percentile the sample cannot support.

/// A tail percentile is only reported with at least this many samples
/// beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Percentiles the report may name, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method) — the
/// same arithmetic the driver applies to its ten runs. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The `p`-th percentile (nearest rank) of an ascending sample, or `None`
/// when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || rank > n || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The highest candidate percentile the sample supports, with its value.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    TAIL_CANDIDATES
        .iter()
        .find_map(|&p| percentile(&v, p).map(|x| (p, x)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 leaves exactly 10 beyond: allowed
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        // p99.9 leaves 1 beyond: refused
        assert_eq!(percentile(&v, 99.9), None);
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        // 100 samples: p99 and p95 refused, p90 leaves exactly 10
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), None);
        assert_eq!(percentile(&w, 95.0), None);
        assert_eq!(tail(&w), Some((90.0, 90.0)));
        // too few samples for any tail
        assert_eq!(tail(&w[..50]), None);
    }
}
