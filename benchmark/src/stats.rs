//! Order statistics used by every report: nearest-rank percentiles over
//! one run's samples, and Python-compatible quartiles over a set of runs.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of ascending `sorted`: the smallest sample with at
/// least `q·n` samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Nearest-rank median of unsorted samples; NaN when empty.
pub fn p50(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 0.5).unwrap_or(f64::NAN)
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The `q` quantile only when at least [`MIN_BEYOND`] samples lie beyond
/// it — a p99 over 500 samples rests on five values and is not reported.
pub fn supported_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if samples_beyond(sorted.len(), q) < MIN_BEYOND {
        return None;
    }
    nearest_rank(sorted, q)
}

/// The highest percentile the sample supports, as `(q, value)`: `q` is the
/// requested one when it has [`MIN_BEYOND`] samples beyond it, otherwise the
/// rank that leaves exactly that many (or the maximum of a tiny sample).
pub fn tail(sorted: &[f64], q: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    if let Some(v) = supported_quantile(sorted, q) {
        return Some((q, v));
    }
    let rank = n.saturating_sub(MIN_BEYOND).max(1);
    Some((rank as f64 / n as f64, sorted[rank - 1]))
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of a set of run results (mean of the middle pair when even),
/// matching Python's `statistics.median`.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Geometric mean of positive values; 1 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
