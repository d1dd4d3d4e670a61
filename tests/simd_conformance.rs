//! Cross-path differential conformance: every SIMD kernel must be
//! **bit-identical** to its scalar reference at every shape — including
//! non-multiple-of-lane tails, empty batches and degenerate geometries.
//!
//! The hot-loop kernels are blocked to explicit widths so LLVM
//! vectorizes them; because every output element still receives the
//! same operations on the same inputs in the same order (no horizontal
//! reduction, no re-association), IEEE-754 guarantees the same bits as
//! the scalar loop. These proptests pin that contract over arbitrary
//! `(guesses, samples, batch, tail)` shapes — rows past two 256-sample
//! tiles with ragged tails, batches from empty to past the campaign
//! engine's default of 64, up to a key byte's 256 guesses, its guess
//! rows split over 1, 2, 3 and 7 threads — and the deterministic cases
//! below pin the portfolio's own shapes, so a future "optimization"
//! that silently re-associates gets caught here, not in a wrong verdict
//! three layers up.

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

/// `(guesses, samples, batches)` for the absorb proptest, in three
/// families that keep each case's work small: long rows (past two
/// 256-sample tiles, ragged tails) for a few guesses; many guesses over
/// short rows; many guesses over long rows a trace or two at a time.
/// Every family draws batches from empty to past 64, including 1.
fn absorb_shapes() -> impl Strategy<Value = (usize, usize, Vec<usize>)> {
    prop_oneof![
        (1usize..6, 0usize..600, vec(0usize..71, 1..4)),
        (1usize..257, 0usize..40, vec(0usize..71, 1..4)),
        (1usize..257, 0usize..600, vec(0usize..3, 1..4)),
    ]
}

/// Guess-row splits of the absorb properties.
const SPLITS: [usize; 4] = [1, 2, 3, 7];

/// Streams `batches` random batches through `absorb_batch`, its guess
/// rows split over `threads`, and through `absorb_batch_scalar`, and
/// returns both accumulators.
fn absorb_both(
    guesses: usize,
    samples: usize,
    batches: &[usize],
    seed: u64,
    threads: usize,
) -> (CpaAccumulator, CpaAccumulator) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut simd = CpaAccumulator::new(guesses, samples).with_threads(threads);
    let mut scalar = CpaAccumulator::new(guesses, samples);
    for &batch in batches {
        let preds: Vec<f64> = (0..batch * guesses)
            .map(|_| rng.gen_range(-8.0..8.0))
            .collect();
        let traces: Vec<f32> = (0..batch * samples)
            .map(|_| rng.gen_range(-100.0f32..100.0))
            .collect();
        simd.absorb_batch(&preds, &traces);
        scalar.absorb_batch_scalar(&preds, &traces);
    }
    (simd, scalar)
}

/// Every raw moment (`n`, `Σx`, `Σx²`, `Σy`, `Σy²`, `Σx·y`) of an
/// accumulator as bit patterns, in one comparable value.
fn moment_bits(acc: &CpaAccumulator) -> (u64, [Vec<u64>; 5]) {
    let (n, sx, sxx, sy, syy, sxy) = acc.raw_moments();
    (n, [sx, sxx, sy, syy, sxy].map(bits64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `CpaAccumulator::absorb_batch` vs `absorb_batch_scalar`: stream
    /// the same random batches through both entry points and assert
    /// every raw moment (`n`, `Σx`, `Σx²`, `Σy`, `Σy²`, `Σx·y`) agrees
    /// bit-for-bit — not merely to some epsilon — whichever guess-row
    /// split the batch path runs on.
    #[test]
    fn absorb_batch_matches_scalar_reference(
        (guesses, samples, batches) in absorb_shapes(),
        seed in any::<u64>(),
    ) {
        for threads in SPLITS {
            let (simd, scalar) = absorb_both(guesses, samples, &batches, seed, threads);
            prop_assert!(
                moment_bits(&simd) == moment_bits(&scalar),
                "raw moments differ at {} guesses x {} samples, batches {:?}, {} threads",
                guesses,
                samples,
                batches,
                threads
            );
        }
    }

    /// The `Σy`/`Σy²` kernel at raw-slice level, across lane tails:
    /// lengths straddling multiples of the chunk width must all agree.
    /// (The `Σx·y` kernel is covered through `absorb_batch` above.)
    #[test]
    fn analysis_kernels_match_scalar_at_every_tail(
        len in 0usize..40,
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
/// empty batch, the zero-sample accumulator, and rows of exact
/// multiples of the block width.
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

/// The portfolio's CPA shapes — a key byte's 256 guesses over the
/// `aes128` (2,509 samples) and `aes128-masked` (4,642 samples) windows
/// — at a 16-trace batch and at the engine's default 64, absorbed one
/// after the other into the same accumulators.
#[test]
fn portfolio_shapes_match_scalar_reference() {
    for samples in [2509, 4642] {
        let (simd, scalar) = absorb_both(256, samples, &[16, 64], samples as u64, 1);
        assert!(
            moment_bits(&simd) == moment_bits(&scalar),
            "raw moments differ at 256 x {samples}"
        );
    }
}

/// The re-analysis shape — 256 guesses over the `aes128-masked`
/// window, in batches of 64 and a ragged 5 — with its guess rows split
/// over 2, 3 and 7 threads.
#[test]
fn split_portfolio_shape_matches_scalar_reference() {
    for threads in [2, 3, 7] {
        let (simd, scalar) = absorb_both(256, 4642, &[64, 5], 4642, threads);
        assert!(
            moment_bits(&simd) == moment_bits(&scalar),
            "raw moments differ at 256 x 4642 over {threads} threads"
        );
    }
}
