//! Correlation Power Analysis.
//!
//! For every key-byte guess, correlate the predicted leakage (from a
//! [`SelectionFunction`]) with the measured traces at every sample point;
//! the guess whose correlation peaks highest is the attack's key
//! candidate. This reproduces the attacks of Section 5 of the paper
//! (Figures 3 and 4).
//!
//! Two evaluation styles share the same mathematics:
//!
//! * [`cpa_attack`] — the *batch* attack over a materialized
//!   [`TraceSet`], parallelized across guesses;
//! * [`CpaAccumulator`] — the *online* attack: each trace is folded into
//!   running sums the moment it is acquired and then discarded, so a
//!   campaign's memory footprint is `O(guesses × samples)` regardless of
//!   trace count. Accumulators over disjoint trace shards merge by plain
//!   addition, which is what lets the `sca-campaign` engine spread one
//!   campaign across worker threads.
//!
//! ## The online-accumulator math
//!
//! Pearson's coefficient between a guess's predicted leakage `x` and the
//! power at sample `s`, `y_s`, only needs five raw moments besides the
//! trace count `n`:
//!
//! ```text
//! Σx, Σx², Σy_s, Σy_s², Σx·y_s
//!
//!              n·Σxy − Σx·Σy
//! r(x, y) = ─────────────────────────────────────
//!           √(n·Σx² − (Σx)²) · √(n·Σy² − (Σy)²)
//! ```
//!
//! Every moment is a sum over traces, so updating with one more trace is
//! `O(guesses × samples)` work and merging two shard accumulators is an
//! element-wise add. The division by `n` is deferred to
//! [`CpaAccumulator::finish`], exactly as in [`PearsonAccumulator`] —
//! a single-shard streaming run is therefore bit-identical to the batch
//! attack, and a sharded run agrees to floating-point association
//! (≲ 1e-12 over realistic campaigns).

use crate::{distinguishing_confidence, PearsonAccumulator, SelectionFunction, TraceSet};

/// CPA attack parameters.
#[derive(Clone, Copy, Debug)]
pub struct CpaConfig {
    /// Number of key guesses (256 for a key byte).
    pub guesses: usize,
    /// Worker threads across guesses.
    pub threads: usize,
}

impl CpaConfig {
    /// One key byte, eight threads.
    pub fn key_byte() -> CpaConfig {
        CpaConfig {
            guesses: 256,
            threads: 8,
        }
    }
}

impl Default for CpaConfig {
    fn default() -> CpaConfig {
        CpaConfig::key_byte()
    }
}

/// Result of a CPA attack: the full guess × sample correlation matrix.
#[derive(Clone, Debug)]
pub struct CpaResult {
    guesses: usize,
    samples: usize,
    /// Row-major `guess × sample` correlations.
    corr: Vec<f64>,
    /// Traces used.
    n: u64,
}

impl CpaResult {
    /// Number of traces the attack consumed.
    pub fn traces_used(&self) -> u64 {
        self.n
    }

    /// Number of samples per trace.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of guesses evaluated.
    pub fn guesses(&self) -> usize {
        self.guesses
    }

    /// Correlation series for one guess.
    ///
    /// # Panics
    ///
    /// Panics if `guess` is out of range.
    pub fn series(&self, guess: usize) -> &[f64] {
        &self.corr[guess * self.samples..(guess + 1) * self.samples]
    }

    /// Peak absolute correlation of a guess, with its sample index.
    pub fn peak(&self, guess: usize) -> (usize, f64) {
        let series = self.series(guess);
        let mut best = (0usize, 0.0f64);
        for (i, &r) in series.iter().enumerate() {
            if r.abs() > best.1.abs() {
                best = (i, r);
            }
        }
        best
    }

    /// Every guess's peak |correlation|, each series scanned once.
    fn peaks(&self) -> Vec<f64> {
        (0..self.guesses).map(|g| self.peak(g).1.abs()).collect()
    }

    /// The guess with the highest peak |correlation| (the last of tied
    /// guesses).
    pub fn best_guess(&self) -> usize {
        let peaks = self.peaks();
        (0..self.guesses)
            .max_by(|&a, &b| {
                peaks[a]
                    .partial_cmp(&peaks[b])
                    .expect("correlations are finite")
            })
            .expect("at least one guess")
    }

    /// Guesses ordered best-first by peak |correlation| (tied guesses in
    /// guess order).
    pub fn ranking(&self) -> Vec<usize> {
        let peaks = self.peaks();
        let mut order: Vec<usize> = (0..self.guesses).collect();
        order.sort_by(|&a, &b| {
            peaks[b]
                .partial_cmp(&peaks[a])
                .expect("correlations are finite")
        });
        order
    }

    /// Rank of a guess (0 = best) — the key-rank metric.
    pub fn rank_of(&self, guess: usize) -> usize {
        self.ranking()
            .iter()
            .position(|&g| g == guess)
            .expect("guess in range")
    }

    /// Peak |correlation| of the best *wrong* guess, given the correct
    /// key.
    pub fn best_wrong_peak(&self, correct: usize) -> f64 {
        (0..self.guesses)
            .filter(|&g| g != correct)
            .map(|g| self.peak(g).1.abs())
            .fold(0.0, f64::max)
    }

    /// Confidence that the correct guess's peak exceeds the best wrong
    /// guess's — the paper's Figure 4 success criterion (>99%).
    pub fn success_confidence(&self, correct: usize) -> f64 {
        let r_correct = self.peak(correct).1.abs();
        let r_wrong = self.best_wrong_peak(correct);
        distinguishing_confidence(r_correct, r_wrong, self.n)
    }
}

/// One-pass, mergeable CPA state — the streaming core of the campaign
/// engine.
///
/// Holds the raw moments described in the module docs: per guess
/// `Σx, Σx²`, per sample `Σy, Σy²`, and the `guess × sample` matrix
/// `Σx·y`. Feed traces with [`absorb`](CpaAccumulator::absorb) (or the
/// cache-blocked [`absorb_batch`](CpaAccumulator::absorb_batch)), combine
/// worker shards with [`merge`](CpaAccumulator::merge), and extract the
/// correlation matrix with [`finish`](CpaAccumulator::finish).
///
/// Streaming a trace set through one accumulator reproduces
/// [`cpa_attack`] bit-for-bit; sharding only perturbs the sums'
/// floating-point association:
///
/// ```
/// use sca_analysis::{cpa_attack, hw8, CpaAccumulator, CpaConfig, FnSelection, SelectionFunction};
///
/// let model = FnSelection::new("hw(pt ^ k)", |input: &[u8], k: u8| {
///     f64::from(hw8(input[0] ^ k))
/// });
/// let mut set = sca_analysis::TraceSet::new(2);
/// for pt in [0x00u8, 0x5a, 0xa5, 0xff, 0x3c, 0xc3] {
///     set.push(vec![f32::from(pt), 1.0], vec![pt]);
/// }
///
/// // Stream the same traces through two shards, then merge.
/// let mut shard_a = CpaAccumulator::new(256, 2);
/// let mut shard_b = CpaAccumulator::new(256, 2);
/// let mut predictions = vec![0.0f64; 256];
/// for (i, (input, trace)) in set.iter().enumerate() {
///     for (g, p) in predictions.iter_mut().enumerate() {
///         *p = model.predict(input, g as u8);
///     }
///     let shard = if i % 2 == 0 { &mut shard_a } else { &mut shard_b };
///     shard.absorb(&predictions, trace);
/// }
/// shard_a.merge(&shard_b);
/// let streamed = shard_a.finish();
///
/// let batch = cpa_attack(&set, &model, &CpaConfig::key_byte());
/// for g in 0..256 {
///     for (r, b) in streamed.series(g).iter().zip(batch.series(g)) {
///         assert!((r - b).abs() < 1e-12);
///     }
/// }
/// ```
#[derive(Clone, Debug)]
pub struct CpaAccumulator {
    guesses: usize,
    samples: usize,
    n: u64,
    /// Per guess: Σx.
    sum_x: Vec<f64>,
    /// Per guess: Σx².
    sum_xx: Vec<f64>,
    /// Per sample: Σy.
    sum_y: Vec<f64>,
    /// Per sample: Σy².
    sum_yy: Vec<f64>,
    /// Row-major `guess × sample`: Σx·y.
    sum_xy: Vec<f64>,
}

impl CpaAccumulator {
    /// Creates an empty accumulator for `guesses × samples` correlations.
    pub fn new(guesses: usize, samples: usize) -> CpaAccumulator {
        let guesses = guesses.max(1);
        CpaAccumulator {
            guesses,
            samples,
            n: 0,
            sum_x: vec![0.0; guesses],
            sum_xx: vec![0.0; guesses],
            sum_y: vec![0.0; samples],
            sum_yy: vec![0.0; samples],
            sum_xy: vec![0.0; guesses * samples],
        }
    }

    /// Number of traces absorbed.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether any trace was absorbed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of guesses tracked.
    pub fn guesses(&self) -> usize {
        self.guesses
    }

    /// Samples per trace.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Folds one trace into the sums. `predictions[g]` is the modeled
    /// leakage of this trace's input under guess `g`.
    ///
    /// # Panics
    ///
    /// Panics if `predictions` or `trace` have the wrong length.
    pub fn absorb(&mut self, predictions: &[f64], trace: &[f32]) {
        self.absorb_batch(predictions, trace);
    }

    /// Folds a batch of traces into the sums in one cache-blocked pass.
    ///
    /// `predictions` is trace-major `batch × guesses`, `traces` is
    /// trace-major `batch × samples`. Per element the update order equals
    /// repeated [`absorb`](CpaAccumulator::absorb) calls, so batching
    /// never changes the result — it only sweeps the large `Σx·y` matrix
    /// once per batch instead of once per trace, which is where a
    /// streaming campaign spends most of its memory bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are inconsistent with the accumulator
    /// geometry.
    pub fn absorb_batch(&mut self, predictions: &[f64], traces: &[f32]) {
        assert_eq!(
            predictions.len() % self.guesses,
            0,
            "predictions not a whole number of traces"
        );
        let batch = predictions.len() / self.guesses;
        assert_eq!(
            traces.len(),
            batch * self.samples,
            "traces length disagrees with predictions"
        );
        self.n += batch as u64;
        // `chunks_exact(0)` panics; a zero-sample geometry (fully
        // clipped window) still counts traces and prediction moments.
        if self.samples > 0 {
            for trace in traces.chunks_exact(self.samples) {
                crate::kernels::moments(&mut self.sum_y, &mut self.sum_yy, trace);
            }
        }
        for g in 0..self.guesses {
            let row = &mut self.sum_xy[g * self.samples..(g + 1) * self.samples];
            for t in 0..batch {
                let x = predictions[t * self.guesses + g];
                self.sum_x[g] += x;
                self.sum_xx[g] += x * x;
                let trace = &traces[t * self.samples..(t + 1) * self.samples];
                crate::kernels::axpy(row, x, trace);
            }
        }
    }

    /// The scalar reference of [`absorb_batch`](Self::absorb_batch):
    /// plain per-element loops, compiled identically under every feature
    /// setting. The SIMD conformance harness streams the same data
    /// through both entry points and asserts bit-identical state; it is
    /// `#[doc(hidden)]` because campaigns should always use
    /// `absorb_batch`.
    ///
    /// # Panics
    ///
    /// As [`absorb_batch`](Self::absorb_batch).
    #[doc(hidden)]
    pub fn absorb_batch_scalar(&mut self, predictions: &[f64], traces: &[f32]) {
        assert_eq!(
            predictions.len() % self.guesses,
            0,
            "predictions not a whole number of traces"
        );
        let batch = predictions.len() / self.guesses;
        assert_eq!(
            traces.len(),
            batch * self.samples,
            "traces length disagrees with predictions"
        );
        self.n += batch as u64;
        if self.samples > 0 {
            for trace in traces.chunks_exact(self.samples) {
                crate::kernels::moments_scalar(&mut self.sum_y, &mut self.sum_yy, trace);
            }
        }
        for g in 0..self.guesses {
            let row = &mut self.sum_xy[g * self.samples..(g + 1) * self.samples];
            for t in 0..batch {
                let x = predictions[t * self.guesses + g];
                self.sum_x[g] += x;
                self.sum_xx[g] += x * x;
                let trace = &traces[t * self.samples..(t + 1) * self.samples];
                crate::kernels::axpy_scalar(row, x, trace);
            }
        }
    }

    /// Raw moment state `(n, Σx, Σx², Σy, Σy², Σx·y)` — exposed for the
    /// SIMD conformance harness, which asserts bit-identity of every
    /// moment rather than of the (rounded) correlation output.
    #[doc(hidden)]
    #[allow(clippy::type_complexity)]
    pub fn raw_moments(&self) -> (u64, &[f64], &[f64], &[f64], &[f64], &[f64]) {
        (
            self.n,
            &self.sum_x,
            &self.sum_xx,
            &self.sum_y,
            &self.sum_yy,
            &self.sum_xy,
        )
    }

    /// Merges a shard that absorbed a disjoint set of traces.
    ///
    /// # Panics
    ///
    /// Panics on geometry mismatch.
    pub fn merge(&mut self, other: &CpaAccumulator) {
        assert_eq!(self.guesses, other.guesses, "guess count mismatch");
        assert_eq!(self.samples, other.samples, "sample count mismatch");
        self.n += other.n;
        let add = |a: &mut Vec<f64>, b: &Vec<f64>| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        };
        add(&mut self.sum_x, &other.sum_x);
        add(&mut self.sum_xx, &other.sum_xx);
        add(&mut self.sum_y, &other.sum_y);
        add(&mut self.sum_yy, &other.sum_yy);
        add(&mut self.sum_xy, &other.sum_xy);
    }

    /// Appends this accumulator's exact state (bit patterns, not
    /// decimal) to a checkpoint snapshot.
    pub fn write_state(&self, out: &mut Vec<u8>) {
        let mut w = crate::StateWriter::new(out);
        w.tag(b"CPAS");
        w.u64(self.guesses as u64);
        w.u64(self.samples as u64);
        w.u64(self.n);
        w.f64_slice(&self.sum_x);
        w.f64_slice(&self.sum_xx);
        w.f64_slice(&self.sum_y);
        w.f64_slice(&self.sum_yy);
        w.f64_slice(&self.sum_xy);
    }

    /// Restores state written by [`write_state`](Self::write_state) into
    /// an accumulator of the same geometry.
    ///
    /// # Errors
    ///
    /// Fails on truncation, a foreign frame tag, or a geometry mismatch.
    pub fn load_state(&mut self, r: &mut crate::StateReader<'_>) -> Result<(), crate::StateError> {
        r.expect_tag(b"CPAS")?;
        let guesses = r.u64()?;
        let samples = r.u64()?;
        if guesses != self.guesses as u64 || samples != self.samples as u64 {
            return Err(crate::StateError::new(format!(
                "CPA snapshot is {guesses} x {samples}, accumulator is {} x {}",
                self.guesses, self.samples
            )));
        }
        self.n = r.u64()?;
        r.f64_into(&mut self.sum_x)?;
        r.f64_into(&mut self.sum_xx)?;
        r.f64_into(&mut self.sum_y)?;
        r.f64_into(&mut self.sum_yy)?;
        r.f64_into(&mut self.sum_xy)?;
        Ok(())
    }

    /// Extracts the correlation matrix (same formula, in the same
    /// evaluation order, as [`PearsonAccumulator::correlations`]).
    pub fn finish(&self) -> CpaResult {
        let mut corr = vec![0.0f64; self.guesses * self.samples];
        if self.n >= 2 {
            let n = self.n as f64;
            let var_y: Vec<f64> = self
                .sum_y
                .iter()
                .zip(&self.sum_yy)
                .map(|(&sy, &syy)| syy - sy * sy / n)
                .collect();
            for g in 0..self.guesses {
                let var_x = self.sum_xx[g] - self.sum_x[g] * self.sum_x[g] / n;
                let row = &mut corr[g * self.samples..(g + 1) * self.samples];
                for (s, r) in row.iter_mut().enumerate() {
                    let cov = self.sum_xy[g * self.samples + s] - self.sum_x[g] * self.sum_y[s] / n;
                    *r = if var_x <= 0.0 || var_y[s] <= 0.0 {
                        0.0
                    } else {
                        cov / (var_x.sqrt() * var_y[s].sqrt())
                    };
                }
            }
        }
        CpaResult {
            guesses: self.guesses,
            samples: self.samples,
            corr,
            n: self.n,
        }
    }
}

/// Runs a CPA attack over a trace set.
///
/// ```no_run
/// use sca_analysis::{cpa_attack, CpaConfig, FnSelection, hw8};
/// # let traces = sca_power::TraceSet::new(0);
/// let model = FnSelection::new("hw(pt ^ k)", |input: &[u8], k: u8| {
///     f64::from(hw8(input[0] ^ k))
/// });
/// let result = cpa_attack(&traces, &model, &CpaConfig::key_byte());
/// let recovered = result.best_guess();
/// # let _ = recovered;
/// ```
pub fn cpa_attack(
    traces: &TraceSet,
    selection: &dyn SelectionFunction,
    config: &CpaConfig,
) -> CpaResult {
    let samples = traces.samples_per_trace();
    let guesses = config.guesses.max(1);
    let n = traces.len() as u64;
    let mut corr = vec![0.0f64; guesses * samples];

    let threads = config.threads.max(1).min(guesses);
    let chunk = guesses.div_ceil(threads);
    // Split the output matrix into disjoint per-thread slices.
    let mut slices: Vec<&mut [f64]> = corr.chunks_mut(chunk * samples).collect();
    std::thread::scope(|scope| {
        for (w, slice) in slices.iter_mut().enumerate() {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(guesses);
            scope.spawn(move || {
                for guess in lo..hi {
                    let mut acc = PearsonAccumulator::new(samples);
                    for (input, trace) in traces.iter() {
                        acc.add(selection.predict(input, guess as u8), trace);
                    }
                    let series = acc.correlations();
                    let base = (guess - lo) * samples;
                    slice[base..base + samples].copy_from_slice(&series);
                }
            });
        }
    });

    CpaResult {
        guesses,
        samples,
        corr,
        n,
    }
}

/// Evaluates a single key-less model against the traces, returning its
/// correlation series — the characterization primitive behind Table 2.
pub fn model_correlation(traces: &TraceSet, model: &dyn SelectionFunction) -> Vec<f64> {
    let mut acc = PearsonAccumulator::new(traces.samples_per_trace());
    for (input, trace) in traces.iter() {
        acc.add(model.predict(input, 0), trace);
    }
    acc.correlations()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hw8, FnSelection};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A nonlinear 8-bit permutation (x ↦ x^3-like construction). An
    /// affine map would create perfectly anticorrelated "ghost" keys and
    /// make CPA ranks meaningless.
    fn sbox(x: u8) -> u8 {
        let y = u32::from(x).wrapping_add(113);
        let cube = y.wrapping_mul(y).wrapping_mul(y);
        (cube ^ (cube >> 8) ^ (cube >> 17)) as u8
    }

    /// Builds a synthetic campaign: power at sample 3 is HW(S(pt ^ key))
    /// plus noise, other samples are noise.
    fn synthetic_traces(key: u8, traces: usize, noise_sd: f64) -> TraceSet {
        let mut rng = StdRng::seed_from_u64(1);
        let mut set = TraceSet::new(8);
        for _ in 0..traces {
            let pt: u8 = rng.gen();
            let leak = f64::from(hw8(sbox(pt ^ key)));
            let mut trace = vec![0.0f32; 8];
            for (i, t) in trace.iter_mut().enumerate() {
                let noise: f64 = rng.gen_range(-noise_sd..noise_sd);
                *t = (noise + if i == 3 { leak } else { 0.0 }) as f32;
            }
            set.push(trace, vec![pt]);
        }
        set
    }

    fn sbox_model() -> FnSelection<impl Fn(&[u8], u8) -> f64 + Send + Sync> {
        FnSelection::new("hw(S(pt^k))", |input: &[u8], k: u8| {
            f64::from(hw8(sbox(input[0] ^ k)))
        })
    }

    #[test]
    fn recovers_key_from_clean_traces() {
        let set = synthetic_traces(0x3c, 300, 0.5);
        let result = cpa_attack(
            &set,
            &sbox_model(),
            &CpaConfig {
                guesses: 256,
                threads: 4,
            },
        );
        assert_eq!(result.best_guess(), 0x3c);
        assert_eq!(result.rank_of(0x3c), 0);
        let (sample, r) = result.peak(0x3c);
        assert_eq!(sample, 3, "leak localized at the right instant");
        assert!(r > 0.9, "peak correlation {r}");
        assert!(result.success_confidence(0x3c) > 0.99);
    }

    #[test]
    fn noisy_traces_need_more_data() {
        let few = synthetic_traces(0x77, 40, 8.0);
        let many = synthetic_traces(0x77, 2000, 8.0);
        let config = CpaConfig {
            guesses: 256,
            threads: 4,
        };
        let result_many = cpa_attack(&many, &sbox_model(), &config);
        assert_eq!(result_many.best_guess(), 0x77, "2000 noisy traces suffice");
        let rank_few = cpa_attack(&few, &sbox_model(), &config).rank_of(0x77);
        let rank_many = result_many.rank_of(0x77);
        assert!(rank_many <= rank_few, "more traces cannot hurt the rank");
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let set = synthetic_traces(0x11, 200, 1.0);
        let a = cpa_attack(
            &set,
            &sbox_model(),
            &CpaConfig {
                guesses: 256,
                threads: 1,
            },
        );
        let b = cpa_attack(
            &set,
            &sbox_model(),
            &CpaConfig {
                guesses: 256,
                threads: 7,
            },
        );
        for g in 0..256 {
            assert_eq!(a.series(g), b.series(g), "guess {g}");
        }
    }

    /// Ties keep their order: `best_guess` takes the last of the tied
    /// best guesses (`max_by`), `ranking` lists tied guesses in guess
    /// order (a stable sort), whatever the peaks' signs and positions.
    #[test]
    fn verdicts_order_tied_peaks_by_guess() {
        let result = CpaResult {
            guesses: 5,
            samples: 3,
            corr: vec![
                0.2, -0.1, 0.0, // guess 0: 0.2
                0.0, 0.7, 0.1, // guess 1: 0.7
                -0.7, 0.3, 0.0, // guess 2: 0.7 (negative)
                0.1, 0.2, 0.2, // guess 3: 0.2, peak first reached at sample 1
                0.0, 0.0, 0.7, // guess 4: 0.7
            ],
            n: 10,
        };
        assert_eq!(result.best_guess(), 4);
        assert_eq!(result.ranking(), [1, 2, 4, 0, 3]);
        assert_eq!(result.rank_of(2), 1);
        assert_eq!(result.rank_of(3), 4);
    }

    #[test]
    fn ranking_is_a_permutation() {
        let set = synthetic_traces(0x00, 100, 2.0);
        let result = cpa_attack(
            &set,
            &sbox_model(),
            &CpaConfig {
                guesses: 256,
                threads: 4,
            },
        );
        let mut ranking = result.ranking();
        ranking.sort_unstable();
        assert_eq!(ranking, (0..256).collect::<Vec<_>>());
    }

    fn predictions_for(model: &dyn crate::SelectionFunction, input: &[u8]) -> Vec<f64> {
        (0..256).map(|g| model.predict(input, g as u8)).collect()
    }

    #[test]
    fn streaming_single_shard_is_bit_identical_to_batch() {
        let set = synthetic_traces(0x3c, 120, 1.5);
        let model = sbox_model();
        let mut acc = CpaAccumulator::new(256, set.samples_per_trace());
        for (input, trace) in set.iter() {
            acc.absorb(&predictions_for(&model, input), trace);
        }
        let streamed = acc.finish();
        let batch = cpa_attack(
            &set,
            &model,
            &CpaConfig {
                guesses: 256,
                threads: 3,
            },
        );
        assert_eq!(streamed.traces_used(), batch.traces_used());
        for g in 0..256 {
            assert_eq!(streamed.series(g), batch.series(g), "guess {g}");
        }
    }

    #[test]
    fn batched_absorb_is_bit_identical_to_single_absorb() {
        let set = synthetic_traces(0x77, 50, 2.0);
        let model = sbox_model();
        let samples = set.samples_per_trace();
        let mut one_by_one = CpaAccumulator::new(256, samples);
        for (input, trace) in set.iter() {
            one_by_one.absorb(&predictions_for(&model, input), trace);
        }
        // Same traces in batches of 7 (last one ragged).
        let mut batched = CpaAccumulator::new(256, samples);
        let mut preds = Vec::new();
        let mut flat = Vec::new();
        for (i, (input, trace)) in set.iter().enumerate() {
            preds.extend(predictions_for(&model, input));
            flat.extend_from_slice(trace);
            if (i + 1) % 7 == 0 || i + 1 == set.len() {
                batched.absorb_batch(&preds, &flat);
                preds.clear();
                flat.clear();
            }
        }
        assert_eq!(one_by_one.len(), batched.len());
        let a = one_by_one.finish();
        let b = batched.finish();
        for g in 0..256 {
            assert_eq!(a.series(g), b.series(g), "guess {g}");
        }
    }

    #[test]
    fn merged_shards_match_batch_cpa() {
        let set = synthetic_traces(0x11, 90, 1.0);
        let model = sbox_model();
        let samples = set.samples_per_trace();
        let mut shards: Vec<CpaAccumulator> =
            (0..4).map(|_| CpaAccumulator::new(256, samples)).collect();
        for (i, (input, trace)) in set.iter().enumerate() {
            shards[i % 4].absorb(&predictions_for(&model, input), trace);
        }
        let mut merged = shards.remove(0);
        for shard in &shards {
            merged.merge(shard);
        }
        let streamed = merged.finish();
        let batch = cpa_attack(
            &set,
            &model,
            &CpaConfig {
                guesses: 256,
                threads: 2,
            },
        );
        assert_eq!(streamed.best_guess(), batch.best_guess());
        for g in 0..256 {
            for (r, b) in streamed.series(g).iter().zip(batch.series(g)) {
                assert!((r - b).abs() < 1e-12, "guess {g}: {r} vs {b}");
            }
        }
    }

    #[test]
    fn empty_accumulator_finishes_to_zeros() {
        let acc = CpaAccumulator::new(8, 3);
        assert!(acc.is_empty());
        let result = acc.finish();
        assert_eq!(result.guesses(), 8);
        assert_eq!(result.samples(), 3);
        assert!(result.series(0).iter().all(|&r| r == 0.0));
    }

    #[test]
    fn model_correlation_detects_input_leak() {
        let set = synthetic_traces(0x00, 400, 0.5);
        // With key 0, the leak is hw(sbox(pt)).
        let model =
            crate::InputModel::new("hw(S(pt))", |input: &[u8]| f64::from(hw8(sbox(input[0]))));
        let series = model_correlation(&set, &model);
        assert!(series[3] > 0.9, "corr at leak sample: {}", series[3]);
        assert!(series[0].abs() < 0.2, "corr elsewhere: {}", series[0]);
    }
}
