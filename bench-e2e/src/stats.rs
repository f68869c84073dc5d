//! Order statistics, the host-drift adjustment, and the layer-share
//! arithmetic. Pure functions, unit-tested below.

/// Median of `xs` (mean of the two middle values for an even count), as
/// Python's `statistics.median` computes it.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles of `xs`, exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default `exclusive` method)
/// computes them. A single sample is its own quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Quartile spread as a share of the median: `(q3 - q1) / median`, the
/// steadiness figure the benchmark's bounds are checked against.
pub fn iqr_frac(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Scales a host time measured while the reference loop took
/// `ref_measured_s` to the time it would have taken at the reference
/// speed `ref_nominal_s`: `raw * (nominal / measured)^exponent`. With
/// exponent `e`, a slowdown that stretches the reference loop by `k`
/// is taken to stretch the measured work by `k^e`, and is cancelled.
pub fn drift_adjust(raw_s: f64, ref_measured_s: f64, ref_nominal_s: f64, exponent: f64) -> f64 {
    assert!(ref_measured_s > 0.0, "reference loop took no time");
    raw_s * (ref_nominal_s / ref_measured_s).powf(exponent)
}

/// One named layer's time, in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// Layer name (`sched`, `voq`, ...).
    pub name: &'static str,
    /// Seconds attributed to the layer.
    pub seconds: f64,
}

/// Turns attributed layer times into shares of `wall_s`, appending the
/// explicit `other` layer that holds whatever no named layer claims.
/// The shares sum to 1 (up to rounding), i.e. the layers plus `other`
/// sum to the wall time.
///
/// # Panics
/// Panics if the named layers claim more than the wall time by more
/// than rounding, which would make `other` negative.
pub fn shares(layers: &[LayerTime], wall_s: f64) -> Vec<(&'static str, f64)> {
    assert!(wall_s > 0.0, "share of an empty wall time");
    let claimed: f64 = layers.iter().map(|l| l.seconds).sum();
    let other = wall_s - claimed;
    assert!(
        other >= -1e-9 * wall_s,
        "layers claim {claimed} s of a {wall_s} s wall"
    );
    let mut out: Vec<(&'static str, f64)> = layers
        .iter()
        .map(|l| (l.name, l.seconds / wall_s))
        .collect();
    out.push(("other", other.max(0.0) / wall_s));
    out
}

/// Scales a cell's estimated layer times down, proportionally, so they
/// never claim more than the `measured_s` the cell actually ran. The
/// estimates are per-call replay costs times exact call counts, so on a
/// loaded host they can overshoot; whatever they leave unclaimed stays
/// for `other`.
pub fn fit_estimates(estimates: &mut [LayerTime], measured_s: f64) {
    let total: f64 = estimates.iter().map(|l| l.seconds).sum();
    if total > measured_s && total > 0.0 {
        let k = measured_s / total;
        for l in estimates.iter_mut() {
            l.seconds *= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn iqr_frac_of_ten_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_frac(&[2.0; 6]), 0.0);
    }

    #[test]
    fn drift_adjust_cancels_a_slowdown_of_the_stated_exponent() {
        // The host runs at 60 % speed for the reference loop; the measured
        // work, with exponent 1.5, is stretched by (1 / 0.6)^1.5.
        let k: f64 = 1.0 / 0.6;
        let calm = drift_adjust(0.080, 0.004, 0.004, 1.5);
        let slow = drift_adjust(0.080 * k.powf(1.5), 0.004 * k, 0.004, 1.5);
        assert!((calm - slow).abs() < 1e-12);
        assert_eq!(drift_adjust(1.0, 2.0, 1.0, 1.0), 0.5);
        assert_eq!(drift_adjust(0.5, 2.0, 1.0, 0.0), 0.5);
    }

    #[test]
    fn shares_plus_other_sum_to_wall() {
        let layers = [
            LayerTime {
                name: "sched",
                seconds: 0.25,
            },
            LayerTime {
                name: "voq",
                seconds: 0.5,
            },
        ];
        let s = shares(&layers, 2.0);
        assert_eq!(s, vec![("sched", 0.125), ("voq", 0.25), ("other", 0.625)]);
        let total: f64 = s.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "layers claim")]
    fn shares_refuse_overclaiming_layers() {
        shares(
            &[LayerTime {
                name: "sched",
                seconds: 3.0,
            }],
            2.0,
        );
    }

    #[test]
    fn fit_estimates_caps_at_measured_time() {
        let mut est = [
            LayerTime {
                name: "sched",
                seconds: 3.0,
            },
            LayerTime {
                name: "voq",
                seconds: 1.0,
            },
        ];
        fit_estimates(&mut est, 2.0);
        assert_eq!(est[0].seconds, 1.5);
        assert_eq!(est[1].seconds, 0.5);
        // Under the measured time, estimates are left alone.
        fit_estimates(&mut est, 10.0);
        assert_eq!(est[0].seconds, 1.5);
    }
}
