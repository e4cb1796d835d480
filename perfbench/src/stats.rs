//! Summary statistics over latency samples.
//!
//! Quartiles follow the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so a spread computed here and one
//! computed from a set of result files agree.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// gives them (method "exclusive"). `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    if sorted.len() < 2 {
        return None;
    }
    Some((
        exclusive_quantile(&sorted, 1, 4),
        exclusive_quantile(&sorted, 3, 4),
    ))
}

/// Python's exclusive quantile: position `i * (n + 1) / parts`, clamped
/// to the sample, linearly interpolated.
fn exclusive_quantile(sorted: &[f64], i: usize, parts: usize) -> f64 {
    let n = sorted.len();
    let m = n + 1;
    let j = (i * m / parts).clamp(1, n - 1);
    // Negative when the clamp moved `j` up: Python extrapolates there too.
    let delta = (i * m) as f64 - (j * parts) as f64;
    let parts = parts as f64;
    (sorted[j - 1] * (parts - delta) + sorted[j] * delta) / parts
}

/// Geometric mean of strictly positive values. `None` when empty or
/// when any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Percentile ladder the tail rule chooses from.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples strictly beyond the `pct`-th percentile of `n` samples.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    // Rounded first so 99% of 1000 reads as exactly 10, not 9.999.
    let beyond = (n as f64 * (100.0 - pct) / 100.0 * 1e6).round() / 1e6;
    beyond.floor() as usize
}

/// The highest percentile of [`PERCENTILE_LADDER`] that has at least ten
/// samples beyond it, or `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Nearest-rank percentile (`pct` in 0..=100). `None` when empty.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
