//! Explicit-width vector kernels for the CPA hot loops.
//!
//! The streaming accumulator's per-batch work is two loops: the
//! `Σy/Σy²` sweep over every trace ([`moments`]), and the `Σx·y` update
//! that adds each trace, weighted by each guess's prediction, into the
//! `guess × sample` matrix ([`cross_moments`]). Both run in fixed-width
//! blocks, the shape LLVM reliably turns into packed vector code on
//! stable Rust, with no nightly intrinsics, no target features, no
//! external crates and nothing outside safe Rust.
//!
//! [`cross_moments`] is register-blocked over a scratch buffer. It
//! first copies each guess's predictions for the batch into one
//! contiguous run. Then, for each tile of [`XY_TILE`] samples, it
//! widens the batch's slice of the tile from `f32` to `f64`, once, and
//! for each guess loads [`XY_LANES`] `Σx·y` elements into registers
//! once, adds every trace of the batch into them in trace order from
//! the widened tile, and stores them once. The matrix is therefore read
//! and written once per batch instead of once per trace, each sample is
//! widened once per batch instead of once per guess, and a widened tile
//! (2 KiB per trace) is reused by every guess while it is still in L1
//! or L2.
//!
//! The kernel updates any contiguous range of guess rows, so callers
//! can split the rows over threads (`CpaAccumulator::with_threads`):
//! each range gets its own scratch buffer and touches only its rows.
//!
//! ## The bit-identity argument
//!
//! Every output element receives exactly the same products, rounded
//! the same way, in the same trace order, as in its scalar reference:
//! `Σx·y[g][s]` is still `((acc + x₀·y₀[s]) + x₁·y₁[s]) + …`. Widening
//! `f32` to `f64` is exact, so a product of a widened sample is the
//! product of the sample widened on the fly. Blocking, tiling and
//! splitting the rows only change which elements are in flight
//! together, on which thread, and where the running sum lives between
//! traces (a register instead of memory), never the per-element
//! arithmetic. There is no horizontal reduction and no re-association
//! anywhere, so IEEE-754 guarantees the results are bit-identical at
//! every tile, block width, batch size and row split, including the
//! ragged tails. `tests/simd_conformance.rs` enforces this
//! differentially against the `*_scalar` references below.

/// Lane width of the `f32`-input [`moments`] kernel (8 × 32-bit loads
/// widened to `f64`).
pub const F32_LANES: usize = 8;

/// Samples per tile of [`cross_moments`]: a 16-trace batch's tile,
/// widened, is 32 KiB of `f64`, which stays in L1 or L2 while every
/// guess reads it.
pub const XY_TILE: usize = 256;

/// `Σx·y` elements [`cross_moments`] holds in registers while it adds a
/// batch's traces into them.
pub const XY_LANES: usize = 16;

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

/// Scalar reference of [`cross_moments`]: for each guess, for each
/// trace in order, `row[s] += x · y[s]` along the whole row.
#[doc(hidden)]
pub fn cross_moments_scalar(
    sum_xy: &mut [f64],
    predictions: &[f64],
    traces: &[f32],
    samples: usize,
) {
    if samples == 0 {
        return;
    }
    let guesses = sum_xy.len() / samples;
    for (g, row) in sum_xy.chunks_exact_mut(samples).enumerate() {
        for (p, trace) in predictions
            .chunks_exact(guesses)
            .zip(traces.chunks_exact(samples))
        {
            let x = p[g];
            for (r, &y) in row.iter_mut().zip(trace) {
                *r += x * f64::from(y);
            }
        }
    }
}

/// `Σx·y[g][s] += Σ_t x_t[g] · y_t[s]` over a batch for the guess rows
/// `first..first + rows.len() / samples`, register-blocked (see the
/// module docs).
///
/// `rows` holds those rows of the row-major `guess × samples` matrix,
/// `predictions` is trace-major `batch × guesses` over every guess,
/// `traces` trace-major `batch × samples`. `wide` is scratch: the rows'
/// predictions guess-major, then the widened tile.
pub fn cross_moments(
    rows: &mut [f64],
    first: usize,
    predictions: &[f64],
    traces: &[f32],
    samples: usize,
    wide: &mut Vec<f64>,
) {
    if samples == 0 || traces.is_empty() {
        return;
    }
    let batch = traces.len() / samples;
    let guesses = predictions.len() / batch;
    wide.clear();
    for g in first..first + rows.len() / samples {
        wide.extend((0..batch).map(|t| predictions[t * guesses + g]));
    }
    let split = wide.len();
    for lo in (0..samples).step_by(XY_TILE) {
        let hi = (lo + XY_TILE).min(samples);
        let width = hi - lo;
        wide.truncate(split);
        for trace in traces.chunks_exact(samples) {
            wide.extend(trace[lo..hi].iter().map(|&y| f64::from(y)));
        }
        let (columns, tile) = wide.split_at(split);
        for (xs, row) in columns
            .chunks_exact(batch)
            .zip(rows.chunks_exact_mut(samples))
        {
            let mut s = 0;
            let mut blocks = row[lo..hi].chunks_exact_mut(XY_LANES);
            for out in &mut blocks {
                let mut acc = [0.0f64; XY_LANES];
                acc.copy_from_slice(out);
                for (t, &x) in xs.iter().enumerate() {
                    let y = &tile[t * width + s..][..XY_LANES];
                    for (a, &y) in acc.iter_mut().zip(y) {
                        *a += x * y;
                    }
                }
                out.copy_from_slice(&acc);
                s += XY_LANES;
            }
            for out in blocks.into_remainder() {
                for (t, &x) in xs.iter().enumerate() {
                    *out += x * tile[t * width + s];
                }
                s += 1;
            }
        }
    }
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

    /// Rows shorter than a block, exactly a block, ragged past one tile
    /// and past two; batches of 0, 1 and a few traces.
    #[test]
    fn cross_moments_matches_scalar_including_tails() {
        for samples in [0usize, 1, 7, 8, 9, XY_TILE, XY_TILE + 3, 2 * XY_TILE + 13] {
            for (guesses, batch) in [(1usize, 1usize), (3, 0), (3, 5), (5, 2)] {
                let predictions: Vec<f64> = (0..batch * guesses)
                    .map(|i| (i as f64).cos() * 2.625)
                    .collect();
                let traces: Vec<f32> = (0..batch * samples)
                    .map(|i| (i as f32).sin() * 1.9)
                    .collect();
                let mut a = vec![0.125f64; guesses * samples];
                let mut b = a.clone();
                cross_moments(&mut a, 0, &predictions, &traces, samples, &mut Vec::new());
                cross_moments_scalar(&mut b, &predictions, &traces, samples);
                assert_eq!(a, b, "{guesses} x {samples}, batch {batch}");
                // Row by row, each from its own first guess.
                let mut c = vec![0.125f64; guesses * samples];
                for (g, row) in c.chunks_mut(samples.max(1)).enumerate() {
                    cross_moments(row, g, &predictions, &traces, samples, &mut Vec::new());
                }
                assert_eq!(c, b, "{guesses} x {samples}, batch {batch}, by row");
            }
        }
    }
}
