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
//!   [`TraceSet`], its guess rows split over threads;
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
//! [`CpaAccumulator::finish`], exactly as in [`PearsonAccumulator`], and
//! [`cpa_attack`] itself streams through [`CpaAccumulator`]s, so a
//! single-shard streaming run is bit-identical to the batch attack and a
//! sharded run agrees to floating-point association (≲ 1e-12 over
//! realistic campaigns).
//!
//! A batch's `Σx·y` update is register-blocked
//! ([`crate::kernels::cross_moments`]): per sample tile, the batch's
//! samples are widened to `f64` once, then per guess a few sums stay in
//! registers while every trace of the batch is added in. Each element
//! still receives the same products in the same trace order as one
//! trace at a time, so batching, tiling and blocking never change a bit
//! of any moment.
//!
//! ## Rows, peaks and the guess split
//!
//! One row routine computes a guess's correlations and its peak |r|.
//! [`CpaAccumulator::finish`] runs it into the whole correlation matrix
//! (for the figures, which plot series); [`CpaAccumulator::peaks`] runs
//! it into one reused row buffer and keeps only the peaks, which is all
//! a verdict reads ([`CpaPeaks::best_guess`], [`CpaPeaks::ranking`],
//! [`CpaPeaks::rank_of`], [`CpaPeaks::best_wrong_peak`],
//! [`CpaPeaks::success_confidence`]). Both give every guess the same
//! peak, bit for bit.
//!
//! [`CpaAccumulator::with_threads`] splits the guess rows into
//! contiguous ranges, one per scoped thread, for the `Σx·y` update and
//! for both passes. Every element still gets its own arithmetic in its
//! own order, on whichever thread owns its row, so the split changes no
//! bit either.

use std::ops::Range;

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

/// Result of a CPA attack: the full guess × sample correlation matrix,
/// with each guess's peak |correlation|.
#[derive(Clone, Debug)]
pub struct CpaResult {
    samples: usize,
    /// Row-major `guess × sample` correlations.
    corr: Vec<f64>,
    /// Every guess's peak |r|, which the verdicts read.
    peaks: CpaPeaks,
}

impl CpaResult {
    /// Number of traces the attack consumed.
    pub fn traces_used(&self) -> u64 {
        self.peaks.traces_used()
    }

    /// Number of samples per trace.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of guesses evaluated.
    pub fn guesses(&self) -> usize {
        self.peaks.guesses()
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

    /// Every guess's peak |correlation|, taken by
    /// [`CpaAccumulator::finish`] (`peaks().peak(g)` equals
    /// `peak(g).1.abs()`).
    pub fn peaks(&self) -> &CpaPeaks {
        &self.peaks
    }

    /// [`CpaPeaks::best_guess`].
    pub fn best_guess(&self) -> usize {
        self.peaks.best_guess()
    }

    /// [`CpaPeaks::ranking`].
    pub fn ranking(&self) -> Vec<usize> {
        self.peaks.ranking()
    }

    /// [`CpaPeaks::rank_of`].
    pub fn rank_of(&self, guess: usize) -> usize {
        self.peaks.rank_of(guess)
    }

    /// [`CpaPeaks::best_wrong_peak`].
    pub fn best_wrong_peak(&self, correct: usize) -> f64 {
        self.peaks.best_wrong_peak(correct)
    }

    /// [`CpaPeaks::success_confidence`].
    pub fn success_confidence(&self, correct: usize) -> f64 {
        self.peaks.success_confidence(correct)
    }
}

/// Every guess's peak |correlation| over the traces absorbed so far:
/// all a CPA verdict reads ([`CpaAccumulator::peaks`]).
#[derive(Clone, Debug, PartialEq)]
pub struct CpaPeaks {
    /// Per guess: the largest |r| of its row (0 for an all-zero row),
    /// bit for bit `CpaResult::peak(g).1.abs()`.
    peaks: Vec<f64>,
    /// Traces used.
    n: u64,
}

impl CpaPeaks {
    /// Number of traces the peaks were taken over.
    pub fn traces_used(&self) -> u64 {
        self.n
    }

    /// Number of guesses evaluated.
    pub fn guesses(&self) -> usize {
        self.peaks.len()
    }

    /// Peak |correlation| of a guess.
    ///
    /// # Panics
    ///
    /// Panics if `guess` is out of range.
    pub fn peak(&self, guess: usize) -> f64 {
        self.peaks[guess]
    }

    /// The guess with the highest peak |correlation| (the last of tied
    /// guesses).
    pub fn best_guess(&self) -> usize {
        let peaks = &self.peaks;
        (0..peaks.len())
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
        let peaks = &self.peaks;
        let mut order: Vec<usize> = (0..peaks.len()).collect();
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
        self.peaks
            .iter()
            .enumerate()
            .filter(|&(g, _)| g != correct)
            .map(|(_, &p)| p)
            .fold(0.0, f64::max)
    }

    /// Confidence that the correct guess's peak exceeds the best wrong
    /// guess's — the paper's Figure 4 success criterion (>99%).
    pub fn success_confidence(&self, correct: usize) -> f64 {
        let r_correct = self.peaks[correct];
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
/// register-blocked [`absorb_batch`](CpaAccumulator::absorb_batch)), combine
/// worker shards with [`merge`](CpaAccumulator::merge), and extract the
/// correlation matrix with [`finish`](CpaAccumulator::finish) or just
/// the verdicts' peaks with [`peaks`](CpaAccumulator::peaks).
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
    /// Threads the guess rows are split over.
    threads: usize,
    /// Per thread: the absorb kernel's scratch (a batch's predictions
    /// by guess and its widened tile), not state.
    wide: Vec<Vec<f64>>,
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
            threads: 1,
            wide: Vec::new(),
        }
    }

    /// Splits the guess rows into `threads` contiguous ranges, one per
    /// scoped thread, for every absorb and for [`finish`](Self::finish)
    /// and [`peaks`](Self::peaks) (clamped to `1..=guesses`; the
    /// default is 1). Every element keeps its arithmetic and its order,
    /// so the state and results are bit-identical at any split.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> CpaAccumulator {
        self.threads = threads.clamp(1, self.guesses);
        self
    }

    /// Guess rows per range of the split.
    fn rows_per_range(&self) -> usize {
        self.guesses.div_ceil(self.threads)
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

    /// Folds a batch of traces into the sums in one register-blocked
    /// pass.
    ///
    /// `predictions` is trace-major `batch × guesses`, `traces` is
    /// trace-major `batch × samples`. Per element the update order equals
    /// repeated [`absorb`](CpaAccumulator::absorb) calls, so batching
    /// never changes the result — it only reads and writes the large
    /// `Σx·y` matrix once per batch instead of once per trace, which is
    /// where a streaming campaign spends most of its memory bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are inconsistent with the accumulator
    /// geometry.
    pub fn absorb_batch(&mut self, predictions: &[f64], traces: &[f32]) {
        self.absorb_moments(predictions, traces, crate::kernels::moments);
        let (samples, rows) = (self.samples, self.rows_per_range());
        if samples == 0 {
            return;
        }
        self.wide.resize_with(self.threads, Vec::new);
        let ranges = self.sum_xy.chunks_mut(rows * samples).zip(&mut self.wide);
        on_threads(ranges.enumerate(), |(i, (range, wide))| {
            crate::kernels::cross_moments(range, i * rows, predictions, traces, samples, wide);
        });
    }

    /// The scalar reference of [`absorb_batch`](Self::absorb_batch):
    /// plain per-element loops, one trace at a time along each whole
    /// row, on one thread. The SIMD conformance harness streams the same
    /// data through both entry points and asserts bit-identical state;
    /// it is `#[doc(hidden)]` because campaigns should always use
    /// `absorb_batch`.
    ///
    /// # Panics
    ///
    /// As [`absorb_batch`](Self::absorb_batch).
    #[doc(hidden)]
    pub fn absorb_batch_scalar(&mut self, predictions: &[f64], traces: &[f32]) {
        self.absorb_moments(predictions, traces, crate::kernels::moments_scalar);
        crate::kernels::cross_moments_scalar(&mut self.sum_xy, predictions, traces, self.samples);
    }

    /// Checks a batch's geometry, then folds in everything but `Σx·y`:
    /// `Σx`/`Σx²` per guess in trace order, `moments` per trace.
    fn absorb_moments(
        &mut self,
        predictions: &[f64],
        traces: &[f32],
        moments: fn(&mut [f64], &mut [f64], &[f32]),
    ) {
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
        for p in predictions.chunks_exact(self.guesses) {
            for ((sx, sxx), &x) in self.sum_x.iter_mut().zip(&mut self.sum_xx).zip(p) {
                *sx += x;
                *sxx += x * x;
            }
        }
        // `chunks_exact(0)` panics; a zero-sample geometry (fully
        // clipped window) still counts traces and prediction moments.
        if self.samples > 0 {
            for trace in traces.chunks_exact(self.samples) {
                moments(&mut self.sum_y, &mut self.sum_yy, trace);
            }
        }
    }

    /// Absorbs `traces[range]` with every guess's prediction from
    /// `selection`, in batches of [`SET_BATCH`] traces.
    pub(crate) fn absorb_set(
        &mut self,
        traces: &TraceSet,
        range: Range<usize>,
        selection: &dyn SelectionFunction,
    ) {
        let mut predictions = Vec::with_capacity(SET_BATCH * self.guesses);
        let mut flat = Vec::with_capacity(SET_BATCH * self.samples);
        for lo in range.clone().step_by(SET_BATCH) {
            let hi = (lo + SET_BATCH).min(range.end);
            predictions.clear();
            flat.clear();
            for index in lo..hi {
                let input = traces.input(index);
                predictions
                    .extend((0..self.guesses).map(|guess| selection.predict(input, guess as u8)));
                flat.extend_from_slice(traces.trace(index));
            }
            self.absorb_batch(&predictions, &flat);
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

    /// Extracts the correlation matrix and each guess's peak |r|, one
    /// row at a time through the row routine (see the module docs).
    pub fn finish(&self) -> CpaResult {
        let mut corr = vec![0.0f64; self.guesses * self.samples];
        let peaks = self.correlate(Some(&mut corr));
        CpaResult {
            samples: self.samples,
            corr,
            peaks,
        }
    }

    /// Every guess's peak |r| alone: the row routine of
    /// [`finish`](Self::finish) into one reused row buffer per thread,
    /// so a verdict never allocates the matrix. Bit for bit
    /// `finish().peaks()`.
    pub fn peaks(&self) -> CpaPeaks {
        self.correlate(None)
    }

    /// Runs the row routine for every guess on the guess split: each
    /// row into its place in `matrix` (row-major `guess × samples`) when
    /// given, else into a row buffer of its thread, keeping its peak.
    /// All zeros below two traces.
    fn correlate(&self, matrix: Option<&mut [f64]>) -> CpaPeaks {
        let mut peaks = vec![0.0f64; self.guesses];
        if self.n >= 2 {
            let n = self.n as f64;
            let var_y: Vec<f64> = self
                .sum_y
                .iter()
                .zip(&self.sum_yy)
                .map(|(&sy, &syy)| syy - sy * sy / n)
                .collect();
            let (samples, rows) = (self.samples, self.rows_per_range());
            let mut matrix = matrix.map(|m| m.chunks_mut((rows * samples).max(1)));
            let ranges = peaks
                .chunks_mut(rows)
                .map(|peaks| (peaks, matrix.as_mut().and_then(Iterator::next)));
            on_threads(ranges.enumerate(), |(i, (peaks, mut range))| {
                let mut buffer = Vec::new();
                for (j, peak) in peaks.iter_mut().enumerate() {
                    let row = match range.as_deref_mut() {
                        Some(range) => &mut range[j * samples..(j + 1) * samples],
                        None => {
                            buffer.resize(samples, 0.0);
                            &mut buffer[..]
                        }
                    };
                    *peak = self.correlation_row(i * rows + j, n, &var_y, row);
                }
            });
        }
        CpaPeaks { peaks, n: self.n }
    }

    /// The row routine: guess `g`'s correlations into `row` (the same
    /// formula, in the same evaluation order, as
    /// [`PearsonAccumulator::correlations`]) and its peak |r|, taken
    /// right after writing it. `var_y` holds each sample's
    /// `Σy² − (Σy)²/n`.
    fn correlation_row(&self, g: usize, n: f64, var_y: &[f64], row: &mut [f64]) -> f64 {
        let sum_x = self.sum_x[g];
        let var_x = self.sum_xx[g] - sum_x * sum_x / n;
        let len = row.len();
        let sum_xy = &self.sum_xy[g * self.samples..][..len];
        let (sum_y, var_y) = (&self.sum_y[..len], &var_y[..len]);
        for s in 0..len {
            let cov = sum_xy[s] - sum_x * sum_y[s] / n;
            row[s] = if var_x <= 0.0 || var_y[s] <= 0.0 {
                0.0
            } else {
                cov / (var_x.sqrt() * var_y[s].sqrt())
            };
        }
        peak_abs(row)
    }
}

/// Runs `work` on each part, the first on the calling thread and every
/// other on a scoped thread of its own; returns once all are done. The
/// guess split of [`CpaAccumulator::with_threads`].
fn on_threads<T: Send>(parts: impl Iterator<Item = T>, work: impl Fn(T) + Sync) {
    let mut parts = parts.peekable();
    let Some(first) = parts.next() else {
        return;
    };
    if parts.peek().is_none() {
        work(first);
        return;
    }
    std::thread::scope(|scope| {
        let work = &work;
        for part in parts {
            scope.spawn(move || work(part));
        }
        work(first);
    });
}

/// The largest |r| of a correlation series, 0 if none is above 0 —
/// bit for bit `CpaResult::peak(g).1.abs()`. The |r| that are not NaN
/// are all at least +0, so their maximum is the same value whatever
/// order they are compared in; keeping [`PEAK_LANES`] running maxima
/// (each skipping NaN, as `peak` does) lets the comparisons vectorize.
fn peak_abs(series: &[f64]) -> f64 {
    let above = |best: f64, r: f64| if r.abs() > best { r.abs() } else { best };
    let mut lanes = [0.0f64; PEAK_LANES];
    let mut chunks = series.chunks_exact(PEAK_LANES);
    for chunk in &mut chunks {
        for (best, &r) in lanes.iter_mut().zip(chunk) {
            *best = above(*best, r);
        }
    }
    chunks
        .remainder()
        .iter()
        .chain(&lanes)
        .fold(0.0, |best, &r| above(best, r))
}

/// Running maxima [`peak_abs`] keeps.
const PEAK_LANES: usize = 4;

/// Traces per [`CpaAccumulator::absorb_batch`] call when a trace set is
/// streamed through an accumulator ([`cpa_attack`],
/// [`crate::rank_evolution`]); like the campaign engine's default batch.
const SET_BATCH: usize = 64;

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
    let mut acc = CpaAccumulator::new(config.guesses, traces.samples_per_trace())
        .with_threads(config.threads);
    acc.absorb_set(traces, 0..traces.len(), selection);
    acc.finish()
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

    /// A result over a given row-major matrix, its peaks scanned.
    fn result_of(guesses: usize, samples: usize, corr: Vec<f64>, n: u64) -> CpaResult {
        let mut result = CpaResult {
            samples,
            corr,
            peaks: CpaPeaks {
                peaks: vec![0.0; guesses],
                n,
            },
        };
        result.peaks.peaks = (0..guesses).map(|g| result.peak(g).1.abs()).collect();
        result
    }

    /// Ties keep their order: `best_guess` takes the last of the tied
    /// best guesses (`max_by`), `ranking` lists tied guesses in guess
    /// order (a stable sort), whatever the peaks' signs and positions.
    #[test]
    fn verdicts_order_tied_peaks_by_guess() {
        let result = result_of(
            5,
            3,
            vec![
                0.2, -0.1, 0.0, // guess 0: 0.2
                0.0, 0.7, 0.1, // guess 1: 0.7
                -0.7, 0.3, 0.0, // guess 2: 0.7 (negative)
                0.1, 0.2, 0.2, // guess 3: 0.2, peak first reached at sample 1
                0.0, 0.0, 0.7, // guess 4: 0.7
            ],
            10,
        );
        assert_eq!(result.best_guess(), 4);
        assert_eq!(result.ranking(), [1, 2, 4, 0, 3]);
        assert_eq!(result.rank_of(2), 1);
        assert_eq!(result.rank_of(3), 4);
    }

    /// The verdict helpers as scans of every guess's series through
    /// [`CpaResult::peak`]: `(best_guess, ranking, rank_of,
    /// best_wrong_peak, success_confidence)`.
    fn scanned_verdicts(
        result: &CpaResult,
        correct: usize,
    ) -> (usize, Vec<usize>, usize, f64, f64) {
        let peak = |g: usize| result.peak(g).1.abs();
        let guesses = 0..result.guesses();
        let best = guesses
            .clone()
            .max_by(|&a, &b| peak(a).partial_cmp(&peak(b)).expect("finite"))
            .expect("one guess");
        let mut ranking: Vec<usize> = guesses.clone().collect();
        ranking.sort_by(|&a, &b| peak(b).partial_cmp(&peak(a)).expect("finite"));
        let rank = ranking
            .iter()
            .position(|&g| g == correct)
            .expect("in range");
        let wrong = guesses
            .filter(|&g| g != correct)
            .map(peak)
            .fold(0.0, f64::max);
        let confidence = distinguishing_confidence(peak(correct), wrong, result.traces_used());
        (best, ranking, rank, wrong, confidence)
    }

    /// Asserts the stored peaks are `peak(g).1.abs()` bit for bit and
    /// every verdict helper equals its scan-based definition.
    fn assert_verdicts_match_scans(result: &CpaResult, label: &str) {
        for g in 0..result.guesses() {
            assert_eq!(
                result.peaks().peak(g).to_bits(),
                result.peak(g).1.abs().to_bits(),
                "{label}: guess {g}"
            );
        }
        for correct in [0, 2, result.guesses() - 1] {
            let (best, ranking, rank, wrong, confidence) = scanned_verdicts(result, correct);
            assert_eq!(result.best_guess(), best, "{label}");
            assert_eq!(result.ranking(), ranking, "{label}");
            assert_eq!(result.rank_of(correct), rank, "{label}: {correct}");
            assert_eq!(
                result.best_wrong_peak(correct).to_bits(),
                wrong.to_bits(),
                "{label}: {correct}"
            );
            assert_eq!(
                result.success_confidence(correct).to_bits(),
                confidence.to_bits(),
                "{label}: {correct}"
            );
        }
    }

    /// Stored peaks against series scans: with fewer than two traces
    /// (all-zero rows), at two (every |r| is 0 or about 1, so peaks
    /// tie), on a converged attack, through `cpa_attack`'s joined guess
    /// ranges, and on a hand-built matrix of tied peaks.
    #[test]
    fn stored_peaks_and_verdicts_match_series_scans() {
        let set = synthetic_traces(0x3c, 60, 2.0);
        let model = sbox_model();
        for traces in [0, 1, 2, 3, 60] {
            let mut acc = CpaAccumulator::new(256, set.samples_per_trace());
            for (input, trace) in set.iter().take(traces) {
                acc.absorb(&predictions_for(&model, input), trace);
            }
            let result = acc.finish();
            if traces < 2 {
                assert!(result.peaks().peaks.iter().all(|&p| p.to_bits() == 0));
            }
            assert_verdicts_match_scans(&result, &format!("{traces} traces"));
        }
        let config = CpaConfig {
            guesses: 256,
            threads: 3,
        };
        assert_verdicts_match_scans(&cpa_attack(&set, &model, &config), "cpa_attack");
        let tied = result_of(4, 2, vec![0.5, -0.5, -0.5, 0.25, 0.0, 0.5, 0.25, -0.25], 10);
        assert_verdicts_match_scans(&tied, "tied");
    }

    /// The peaks pass against `finish()`'s stored peaks and its series
    /// scans, bit for bit, at every guess split: below two traces, at
    /// two and three (peaks of about 1 that tie), and at 60; rows of
    /// one sample, around a 256-sample tile and at the masked AES
    /// window; with a zero-variance sample and a guess whose prediction
    /// never changes (both correlate to 0).
    #[test]
    fn peaks_pass_matches_the_matrix_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        for samples in [1usize, 255, 256, 257, 4642] {
            let traces: Vec<(u8, Vec<f32>)> = (0..60)
                .map(|_| {
                    let trace = (0..samples)
                        .map(|s| {
                            if s == samples / 2 {
                                3.5
                            } else {
                                rng.gen_range(-4.0..4.0)
                            }
                        })
                        .collect();
                    (rng.gen(), trace)
                })
                .collect();
            let predict = |pt: u8, g: usize| {
                if g == 7 {
                    1.0
                } else {
                    f64::from(hw8(sbox(pt ^ g as u8)))
                }
            };
            for n in [0usize, 1, 2, 3, 60] {
                let mut acc = CpaAccumulator::new(256, samples);
                for (pt, trace) in &traces[..n] {
                    let predictions: Vec<f64> = (0..256).map(|g| predict(*pt, g)).collect();
                    acc.absorb(&predictions, trace);
                }
                let result = acc.finish();
                for threads in [1, 2, 3] {
                    let acc = acc.clone().with_threads(threads);
                    let peaks = acc.peaks();
                    assert_eq!(&peaks, result.peaks(), "{samples} samples, {n} traces");
                    assert_eq!(peaks.traces_used(), n as u64);
                    let split = acc.finish();
                    for g in 0..256 {
                        let scanned = result.peak(g).1.abs().to_bits();
                        assert_eq!(peaks.peak(g).to_bits(), scanned, "{samples}, {n}: {g}");
                        assert_eq!(split.series(g), result.series(g), "{samples}, {n}: {g}");
                    }
                }
                assert_eq!(result.peaks().peak(7).to_bits(), 0, "constant prediction");
                if n >= 2 {
                    let quiet = samples / 2;
                    assert!((0..256).all(|g| result.series(g)[quiet].to_bits() == 0));
                }
            }
        }
    }

    /// `peak_abs` against `peak`'s scan on rows shorter and longer than
    /// its lanes, with NaN, signed zeros and tied maxima of both signs.
    #[test]
    fn peak_abs_matches_the_series_scan() {
        let values = [
            0.25,
            -0.0,
            f64::NAN,
            -0.75,
            0.5,
            0.75,
            -0.25,
            0.0,
            f64::NAN,
            0.125,
        ];
        for len in 0..=values.len() {
            for rotate in 0..values.len() {
                let mut series = values.to_vec();
                series.rotate_left(rotate);
                series.truncate(len);
                let scanned = result_of(1, len, series.clone(), 10).peak(0).1.abs();
                assert_eq!(peak_abs(&series).to_bits(), scanned.to_bits(), "{series:?}");
            }
        }
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
