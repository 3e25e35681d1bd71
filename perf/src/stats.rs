//! Order statistics over per-pass samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so a reader recomputing a spread from the
//! raw samples in `perf/out/<workload>.json` gets the same numbers.

/// Median; the mean of the two middle values for even lengths.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles. One sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// Nearest-rank percentile, `p` in `0.0..=100.0`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_have_no_statistics() {
        assert_eq!(median(&[]), None);
        assert_eq!(quartiles(&[]), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn one_sample_is_every_statistic() {
        assert_eq!(median(&[3.5]), Some(3.5));
        assert_eq!(quartiles(&[3.5]), Some((3.5, 3.5)));
        assert_eq!(percentile(&[3.5], 0.0), Some(3.5));
        assert_eq!(percentile(&[3.5], 99.0), Some(3.5));
    }

    #[test]
    fn even_lengths_interpolate_like_python() {
        // statistics.median([4, 1, 3, 2]) == 2.5
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates on short inputs.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 99.0), Some(99.0));
        assert_eq!(percentile(&hundred, 100.0), Some(100.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0], 51.0), Some(2.0));
    }
}
