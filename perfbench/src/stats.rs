//! Order statistics over latency samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`; 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
