//! Order statistics and small hashing helpers shared by the workloads.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation between
/// closest ranks; `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `xs`; `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// The highest whole percentile that still has at least ten samples beyond
/// it, with its value: `(percentile, value)`. `None` below twenty samples,
/// where no percentile above the median leaves ten samples in the tail.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n < 20 {
        return None;
    }
    // Samples beyond the p-th percentile: n·(100 − p)/100, at least 10.
    let p = (50..=99usize).rev().find(|p| n * (100 - *p) >= 1000)?;
    Some((p as u32, quantile(xs, p as f64 / 100.0)?))
}

/// The geometric mean of positive values; `None` when empty or when any
/// value is not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| x.is_nan() || *x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// 64-bit FNV-1a, the digest behind every determinism fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The tuner's acceptance test for an output against the golden
/// reference: same length, and every element within 1e-3 relative error
/// (absolute below magnitude 1). Returns the first mismatching index.
pub fn first_mismatch(got: &[f32], want: &[f32]) -> Option<usize> {
    if got.len() != want.len() {
        return Some(got.len().min(want.len()));
    }
    got.iter().zip(want).position(|(a, b)| {
        let d = (a - b).abs();
        d.is_nan() || d > 1e-3 * b.abs().max(1.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 19]), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(50));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(99));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(90));
    }

    #[test]
    fn geomean_rejects_non_positive_values() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn mismatch_uses_relative_tolerance_above_one() {
        assert_eq!(first_mismatch(&[100.05], &[100.0]), None);
        assert_eq!(first_mismatch(&[100.2], &[100.0]), Some(0));
        assert_eq!(first_mismatch(&[0.0005], &[0.0]), None);
        assert_eq!(first_mismatch(&[1.0], &[1.0, 2.0]), Some(1));
        assert_eq!(first_mismatch(&[f32::NAN], &[1.0]), Some(0));
    }
}
