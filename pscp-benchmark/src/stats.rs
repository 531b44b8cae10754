//! Order statistics for benchmark samples.
//!
//! Throughputs are summarised as the median over repetitions, spreads
//! as the interquartile distance over the median, and tail latencies as
//! nearest-rank percentiles that are only reported when enough samples
//! lie beyond them to mean something.

/// The fewest samples that must lie beyond a tail percentile before it
/// is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count);
/// `None` when `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the
/// closest ranks (`numpy.quantile`'s default); `None` when `values` is
/// empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method); `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative at the ends of short samples: Python extrapolates.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The distance between the first and third quartile.
pub fn iqr(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|[q1, _, q3]| q3 - q1)
}

/// The interquartile distance as a share of the median — the spread a
/// metric's regression bound is checked against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    let d = iqr(values)?;
    (m != 0.0).then(|| d / m.abs())
}

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `values`, reported only
/// when at least [`MIN_TAIL_SAMPLES`] samples lie strictly above its
/// rank; `None` otherwise.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL_SAMPLES).then(|| v[rank - 1])
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Interquartile mean: the mean of the middle half of the sorted
/// samples. As robust to preempted outliers as the median, but it keeps
/// the resolution of the mean, so per-call timings of a few clock ticks
/// do not collapse onto one integer.
pub fn iq_mean(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    let (lo, hi) = (n / 4, n - n / 4);
    mean(&v[lo..hi.max(lo + 1).min(n)])
}
