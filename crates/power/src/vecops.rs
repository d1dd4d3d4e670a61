//! Explicit-width vector kernels for trace-synthesis hot loops.
//!
//! Same contract as `sca_analysis::kernels`: every kernel is strictly
//! element-wise (no horizontal reduction, no re-association), chunked
//! to a fixed width with a scalar tail, so every kernel is
//! bit-identical to its scalar reference at every length. The noise
//! loop is deliberately *not* here: Gaussian noise draws from a
//! sequential RNG stream whose order is part of the determinism
//! contract, so it stays scalar by construction.

/// Lane width of the `f64` kernels.
pub const F64_LANES: usize = 4;

/// Scalar reference: `accum[i] += samples[i]` over `min(len)` elements
/// — one execution folded into the per-trace average.
#[doc(hidden)]
pub fn add_assign_scalar(accum: &mut [f64], samples: &[f64]) {
    for (a, &s) in accum.iter_mut().zip(samples) {
        *a += s;
    }
}

/// Scalar reference of the average-and-narrow step: extends `out` with
/// `(accum[i] * inv) as f32`.
#[doc(hidden)]
pub fn scaled_narrow_extend_scalar(out: &mut Vec<f32>, accum: &[f64], inv: f64) {
    out.extend(accum.iter().map(|&s| (s * inv) as f32));
}

/// `accum[i] += samples[i]`, vectorized in [`F64_LANES`]-wide chunks.
pub fn add_assign(accum: &mut [f64], samples: &[f64]) {
    let n = accum.len().min(samples.len());
    let (acc, src) = (&mut accum[..n], &samples[..n]);
    let mut acc_c = acc.chunks_exact_mut(F64_LANES);
    let mut src_c = src.chunks_exact(F64_LANES);
    for (a, s) in (&mut acc_c).zip(&mut src_c) {
        for i in 0..F64_LANES {
            a[i] += s[i];
        }
    }
    add_assign_scalar(acc_c.into_remainder(), src_c.remainder());
}

/// Average-and-narrow, vectorized in [`F64_LANES`]-wide chunks.
pub fn scaled_narrow_extend(out: &mut Vec<f32>, accum: &[f64], inv: f64) {
    out.reserve(accum.len());
    let mut chunks = accum.chunks_exact(F64_LANES);
    for c in &mut chunks {
        // One push per element, same rounding op as the scalar path —
        // the widened loop body is what LLVM packs.
        for &v in c {
            out.push((v * inv) as f32);
        }
    }
    scaled_narrow_extend_scalar(out, chunks.remainder(), inv);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_matches_scalar_including_tails() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 9, 31, 64, 101] {
            let src: Vec<f64> = (0..len).map(|i| (i as f64).sqrt() * 0.3 - 1.0).collect();
            let mut a: Vec<f64> = (0..len).map(|i| i as f64 * 0.11).collect();
            let mut b = a.clone();
            add_assign(&mut a, &src);
            add_assign_scalar(&mut b, &src);
            assert_eq!(a, b, "len {len}");
        }
    }

    #[test]
    fn narrow_matches_scalar_including_tails() {
        for len in [0usize, 1, 3, 4, 5, 13, 40, 99] {
            let accum: Vec<f64> = (0..len).map(|i| (i as f64) * 0.7 - 3.0).collect();
            let mut a = vec![9.0f32];
            let mut b = a.clone();
            scaled_narrow_extend(&mut a, &accum, 1.0 / 7.0);
            scaled_narrow_extend_scalar(&mut b, &accum, 1.0 / 7.0);
            assert_eq!(a, b, "len {len}");
        }
    }
}
