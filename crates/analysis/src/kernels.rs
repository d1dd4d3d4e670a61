//! Explicit-width vector kernels for the CPA hot loops.
//!
//! The streaming accumulator's per-batch work is three element-wise
//! loops (the `Σy/Σy²` sweep and, per guess × trace, the `Σx·y` row
//! update). Those loops run in fixed-width chunks — [`F64_LANES`] elements at a time with a scalar
//! tail — which is the shape LLVM reliably turns into packed vector
//! code on stable Rust, with no nightly intrinsics and no external
//! crates.
//!
//! ## The bit-identity argument
//!
//! Every kernel here is *element-wise*: output element `i` is computed
//! from exactly the same inputs, with exactly the same operations in
//! the same order, as the scalar reference. Chunking only changes how
//! the iteration space is traversed, never the per-element arithmetic
//! — there is no horizontal reduction and no re-association anywhere —
//! so IEEE-754 guarantees the results are bit-identical at every lane
//! count, including the scalar tail. `tests/simd_conformance.rs`
//! enforces this differentially against the `*_scalar` references
//! below, which also compute the chunk tails.

/// Lane width of the `f64` kernels (AVX2-sized: 4 × 64-bit).
pub const F64_LANES: usize = 4;

/// Lane width of the `f32`-input kernels (8 × 32-bit loads widened to
/// two 4 × 64-bit vectors).
pub const F32_LANES: usize = 8;

/// Scalar reference: `sum_y[i] += trace[i]`, `sum_yy[i] += trace[i]²`
/// over `min(len)` elements, exactly one trace's second-moment sweep.
#[doc(hidden)]
pub fn moments_scalar(sum_y: &mut [f64], sum_yy: &mut [f64], trace: &[f32]) {
    for ((sy, syy), &y) in sum_y.iter_mut().zip(sum_yy.iter_mut()).zip(trace) {
        let y = f64::from(y);
        *sy += y;
        *syy += y * y;
    }
}

/// Scalar reference: `row[i] += x * trace[i]` — one guess × trace
/// update of the `Σx·y` matrix.
#[doc(hidden)]
pub fn axpy_scalar(row: &mut [f64], x: f64, trace: &[f32]) {
    for (r, &y) in row.iter_mut().zip(trace) {
        *r += x * f64::from(y);
    }
}

/// `Σy`/`Σy²` sweep, vectorized in [`F32_LANES`]-wide chunks.
pub fn moments(sum_y: &mut [f64], sum_yy: &mut [f64], trace: &[f32]) {
    let n = sum_y.len().min(sum_yy.len()).min(trace.len());
    let (sy, syy, tr) = (&mut sum_y[..n], &mut sum_yy[..n], &trace[..n]);
    let mut sy_c = sy.chunks_exact_mut(F32_LANES);
    let mut syy_c = syy.chunks_exact_mut(F32_LANES);
    let mut tr_c = tr.chunks_exact(F32_LANES);
    for ((sy, syy), tr) in (&mut sy_c).zip(&mut syy_c).zip(&mut tr_c) {
        for i in 0..F32_LANES {
            let y = f64::from(tr[i]);
            sy[i] += y;
            syy[i] += y * y;
        }
    }
    moments_scalar(
        sy_c.into_remainder(),
        syy_c.into_remainder(),
        tr_c.remainder(),
    );
}

/// `row[i] += x * trace[i]`, vectorized in [`F64_LANES`]-wide chunks.
pub fn axpy(row: &mut [f64], x: f64, trace: &[f32]) {
    let n = row.len().min(trace.len());
    let (row, tr) = (&mut row[..n], &trace[..n]);
    let mut row_c = row.chunks_exact_mut(F64_LANES);
    let mut tr_c = tr.chunks_exact(F64_LANES);
    for (r, t) in (&mut row_c).zip(&mut tr_c) {
        for i in 0..F64_LANES {
            r[i] += x * f64::from(t[i]);
        }
    }
    axpy_scalar(row_c.into_remainder(), x, tr_c.remainder());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_matches_scalar_including_tails() {
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100] {
            let trace: Vec<f32> = (0..len).map(|i| (i as f32).sin() * 3.7).collect();
            let mut sy_a = vec![0.25f64; len];
            let mut syy_a = vec![0.5f64; len];
            let mut sy_b = sy_a.clone();
            let mut syy_b = syy_a.clone();
            moments(&mut sy_a, &mut syy_a, &trace);
            moments_scalar(&mut sy_b, &mut syy_b, &trace);
            assert_eq!(sy_a, sy_b, "len {len}");
            assert_eq!(syy_a, syy_b, "len {len}");
        }
    }

    #[test]
    fn axpy_matches_scalar_including_tails() {
        for len in [0usize, 1, 2, 3, 4, 5, 11, 12, 13, 40, 97] {
            let trace: Vec<f32> = (0..len).map(|i| (i as f32).cos() * 1.9).collect();
            let mut a = vec![0.125f64; len];
            let mut b = a.clone();
            axpy(&mut a, 2.625, &trace);
            axpy_scalar(&mut b, 2.625, &trace);
            assert_eq!(a, b, "len {len}");
        }
    }
}
