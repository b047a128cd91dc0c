//! Order statistics for the benchmark's reports.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed over the printed results. A tail percentile is only reported
//! when at least ten samples lie beyond it: with fewer, one outlier decides
//! the value.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL_SAMPLES: f64 = 10.0;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The mean, or `None` for no samples.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// computes them; `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let n = 4i64;
    let m = len as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, len as i64 - 1);
        // May be negative when the rank clamps up to the first pair.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a bound is compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let median = median(values)?;
    (median != 0.0).then(|| (q3 - q1) / median.abs())
}

/// The `q`-quantile (`0 < q < 1`) by the Harrell–Davis estimator, or
/// `None` when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
///
/// Harrell–Davis weighs every order statistic by the Beta((n+1)q,
/// (n+1)(1−q)) mass over its rank interval instead of picking one or two
/// of them. Latencies here are a mixture of job shapes with gaps between
/// their costs; a single order statistic jumps across a gap when the
/// shares shift by a few jobs, while the weighted mean moves smoothly.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let data = sorted(values);
    let n = data.len();
    // The epsilon keeps 100 × (1 − 0.9) = 9.999… from reading as < 10.
    if n == 0 || (n as f64) * (1.0 - q) < MIN_TAIL_SAMPLES - 1e-9 {
        return None;
    }
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    // The Beta density up to a constant, scaled by its mode so the
    // exponent cannot overflow; the weights are normalized below.
    let log_density = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    let peak = log_density((a - 1.0) / (a + b - 2.0));
    let density = |x: f64| {
        if x <= 0.0 || x >= 1.0 {
            0.0
        } else {
            (log_density(x) - peak).exp()
        }
    };
    let width = 1.0 / n as f64;
    let (mut weighted, mut total) = (0.0, 0.0);
    for (i, &value) in data.iter().enumerate() {
        // Simpson's rule over the rank interval [i/n, (i+1)/n].
        let lo = i as f64 * width;
        let weight = (density(lo) + 4.0 * density(lo + width / 2.0) + density(lo + width)) / 6.0;
        weighted += weight * value;
        total += weight;
    }
    Some(weighted / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 10]), Some(0.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&ninety_nine, 0.9),
            None,
            "9.9 samples beyond p90"
        );
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(percentile(&hundred, 0.9).is_some());
        assert_eq!(percentile(&hundred, 0.99), None);
    }

    #[test]
    fn harrell_davis_tracks_the_quantile_of_a_uniform_sample() {
        // For 1..=n the estimate is the Beta mean rescaled to ranks,
        // n·q + 1/2.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 0.5).unwrap() - 50.5).abs() < 1e-6);
        assert!((percentile(&hundred, 0.9).unwrap() - 90.5).abs() < 0.05);
        let shuffled: Vec<f64> = (0..1000).map(|i| f64::from((i * 7919) % 1000)).collect();
        assert!((percentile(&shuffled, 0.9).unwrap() - 899.5).abs() < 0.05);
    }

    #[test]
    fn harrell_davis_moves_smoothly_across_a_gap() {
        // 89 fast and 11 slow samples against 91 fast and 9 slow: the
        // order statistic at rank 90.9 jumps from 100 to 10; the weighted
        // estimate moves by a fraction of the gap.
        let mix = |fast: usize| -> Vec<f64> {
            let mut v = vec![10.0; fast];
            v.resize(100, 100.0);
            v
        };
        let (few, many) = (
            percentile(&mix(91), 0.9).unwrap(),
            percentile(&mix(89), 0.9).unwrap(),
        );
        assert!(few < many && many - few < 60.0, "{few} .. {many}");
    }
}
