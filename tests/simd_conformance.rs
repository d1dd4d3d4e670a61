//! Cross-path differential conformance: every SIMD kernel must be
//! **bit-identical** to its scalar reference at every shape — including
//! non-multiple-of-lane tails, empty batches and degenerate geometries.
//!
//! The hot-loop kernels are chunked to explicit widths so LLVM
//! vectorizes them; because every kernel is strictly element-wise (no
//! horizontal reduction, no re-association), IEEE-754 guarantees the
//! same bits as the scalar loop. These proptests pin that contract over
//! arbitrary `(guesses, samples, batch, tail)` shapes, so a future
//! "optimization" that silently re-associates gets caught here, not in
//! a wrong verdict three layers up.

use proptest::collection::vec;
use proptest::prelude::*;

use superscalar_sca::analysis::kernels;
use superscalar_sca::analysis::CpaAccumulator;
use superscalar_sca::power::vecops;

/// Finite f32s that exercise rounding without NaN/inf edge cases (a
/// power trace is always finite). The irrational multiplier keeps the
/// mantissas messy so reassociated sums would actually differ.
fn trace_values(n: usize) -> impl Strategy<Value = Vec<f32>> {
    vec(
        (-1.0e3f32..1.0e3).prop_map(|v| v * std::f32::consts::FRAC_PI_3),
        n..n + 1,
    )
}

fn sample_values(n: usize) -> impl Strategy<Value = Vec<f64>> {
    vec(
        (-1.0e6f64..1.0e6).prop_map(|v| v * std::f64::consts::FRAC_PI_4),
        n..n + 1,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `CpaAccumulator::absorb_batch` vs `absorb_batch_scalar`: stream
    /// the same random batches through both entry points and assert
    /// every raw moment (`n`, `Σx`, `Σx²`, `Σy`, `Σy²`, `Σx·y`) agrees
    /// bit-for-bit — not merely to some epsilon.
    #[test]
    fn absorb_batch_matches_scalar_reference(
        guesses in 1usize..12,
        samples in 0usize..70,
        batches in vec(0usize..5, 1..4),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut simd = CpaAccumulator::new(guesses, samples);
        let mut scalar = CpaAccumulator::new(guesses, samples);
        for batch in batches {
            let preds: Vec<f64> =
                (0..batch * guesses).map(|_| rng.gen_range(-8.0..8.0)).collect();
            let traces: Vec<f32> =
                (0..batch * samples).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
            simd.absorb_batch(&preds, &traces);
            scalar.absorb_batch_scalar(&preds, &traces);
        }
        let a = simd.raw_moments();
        let b = scalar.raw_moments();
        prop_assert_eq!(a.0, b.0);
        for (x, y) in [(a.1, b.1), (a.2, b.2), (a.3, b.3), (a.4, b.4), (a.5, b.5)] {
            prop_assert_eq!(x.len(), y.len());
            for (u, v) in x.iter().zip(y) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    /// The analysis-side kernels at raw-slice level, across lane tails:
    /// lengths straddling multiples of the chunk width must all agree.
    #[test]
    fn analysis_kernels_match_scalar_at_every_tail(
        len in 0usize..40,
        x in -8.0f64..8.0,
        trace in trace_values(40),
        init in sample_values(40),
    ) {
        let trace = &trace[..len];
        let mut sy_a: Vec<f64> = init[..len].to_vec();
        let mut syy_a: Vec<f64> = init[..len].iter().map(|v| v * 0.5).collect();
        let mut sy_b = sy_a.clone();
        let mut syy_b = syy_a.clone();
        kernels::moments(&mut sy_a, &mut syy_a, trace);
        kernels::moments_scalar(&mut sy_b, &mut syy_b, trace);
        prop_assert_eq!(bits64(&sy_a), bits64(&sy_b));
        prop_assert_eq!(bits64(&syy_a), bits64(&syy_b));

        let mut row_a: Vec<f64> = init[..len].to_vec();
        let mut row_b = row_a.clone();
        kernels::axpy(&mut row_a, x, trace);
        kernels::axpy_scalar(&mut row_b, x, trace);
        prop_assert_eq!(bits64(&row_a), bits64(&row_b));
    }

    /// The synthesis-side kernels: execution folding and the final
    /// average-and-narrow step, across lane tails and an empty input.
    #[test]
    fn power_vecops_match_scalar_at_every_tail(
        len in 0usize..40,
        inv in 0.01f64..2.0,
        accum in sample_values(40),
        samples in sample_values(40),
    ) {
        let mut a = accum[..len].to_vec();
        let mut b = a.clone();
        vecops::add_assign(&mut a, &samples[..len]);
        vecops::add_assign_scalar(&mut b, &samples[..len]);
        prop_assert_eq!(bits64(&a), bits64(&b));

        // The narrow step appends — seed both outputs with a prefix to
        // check extend semantics, not just the fresh-vector case.
        let mut out_a = vec![1.5f32, -2.5];
        let mut out_b = out_a.clone();
        vecops::scaled_narrow_extend(&mut out_a, &a, inv);
        vecops::scaled_narrow_extend_scalar(&mut out_b, &b, inv);
        prop_assert_eq!(bits32(&out_a), bits32(&out_b));
    }
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic (non-proptest) edge cases the shrinker can miss: the
/// empty batch, the zero-sample accumulator, and exact lane-multiple
/// lengths for both chunk widths.
#[test]
fn empty_and_exact_lane_shapes() {
    for (guesses, samples) in [(1, 0), (3, 8), (256, 16), (2, kernels::F32_LANES * 3)] {
        let mut simd = CpaAccumulator::new(guesses, samples);
        let mut scalar = CpaAccumulator::new(guesses, samples);
        // Empty batch: no traces at all.
        simd.absorb_batch(&[], &[]);
        scalar.absorb_batch_scalar(&[], &[]);
        // One all-zeros trace.
        simd.absorb_batch(&vec![0.25; guesses], &vec![0.0; samples]);
        scalar.absorb_batch_scalar(&vec![0.25; guesses], &vec![0.0; samples]);
        let a = simd.raw_moments();
        let b = scalar.raw_moments();
        assert_eq!(a.0, b.0);
        assert_eq!(a.5, b.5, "sum_xy at ({guesses}, {samples})");
    }

    let mut a: Vec<f64> = Vec::new();
    let mut out = Vec::new();
    vecops::add_assign(&mut a, &[]);
    vecops::scaled_narrow_extend(&mut out, &a, 1.0);
    assert!(out.is_empty());
}
