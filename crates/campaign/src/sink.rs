//! Streaming sinks: what a campaign folds its traces into.
//!
//! A sink receives each batch of `(input, trace)` pairs the moment a
//! worker produces it and reduces them on the spot, so no trace outlives
//! its batch. Sinks are [`Mergeable`]: each worker owns a private sink
//! and the engine recombines them in worker order.

use sca_analysis::{
    CpaAccumulator, CpaPeaks, CpaResult, PearsonAccumulator, SelectionFunction, StateError,
    StateReader, TtestAccumulator,
};
use sca_power::TraceSet;

use crate::Mergeable;

/// A streaming consumer of campaign traces.
///
/// `traces` is trace-major `inputs.len() × samples`. Implementations
/// must reduce in index order so results do not depend on batch size.
pub trait CampaignSink: Mergeable + Send {
    /// Folds one batch of traces (in index order) into the sink.
    fn absorb_batch(&mut self, inputs: &[Vec<u8>], traces: &[f32], samples: usize);
}

impl<A: CampaignSink, B: CampaignSink> CampaignSink for (A, B) {
    fn absorb_batch(&mut self, inputs: &[Vec<u8>], traces: &[f32], samples: usize) {
        self.0.absorb_batch(inputs, traces, samples);
        self.1.absorb_batch(inputs, traces, samples);
    }
}

/// Feeds every batch to each sink of the list, in list order — the
/// fan-out of one acquisition into several analyses.
impl<K: CampaignSink> CampaignSink for Vec<K> {
    fn absorb_batch(&mut self, inputs: &[Vec<u8>], traces: &[f32], samples: usize) {
        for sink in self {
            sink.absorb_batch(inputs, traces, samples);
        }
    }
}

/// Keeps every trace with its input, in index order: the sink of a
/// caller that needs the whole trace matrix (batch CPA, persistence).
impl Mergeable for TraceSet {
    fn merge(&mut self, other: TraceSet) {
        TraceSet::merge(self, other);
    }
}

impl CampaignSink for TraceSet {
    fn absorb_batch(&mut self, inputs: &[Vec<u8>], traces: &[f32], samples: usize) {
        for (i, input) in inputs.iter().enumerate() {
            self.push(
                traces[i * samples..(i + 1) * samples].to_vec(),
                input.clone(),
            );
        }
    }
}

/// One correlation series per characterization cell.
impl Mergeable for PearsonAccumulator {
    fn merge(&mut self, other: PearsonAccumulator) {
        PearsonAccumulator::merge(self, &other);
    }
}

/// Hands its inner sink samples `[offset, offset + samples)` of every
/// trace, so analyses with different windows can share one campaign
/// run over the union of their windows.
///
/// The inner sink's state is bit-identical to that of a campaign over
/// the sub-window alone: clipped synthesis leaves every in-window sample
/// (and the per-trace RNG stream) unchanged for any enclosing window,
/// and the inner sink sees the same values in the same batches.
#[derive(Debug)]
pub struct CropSink<K> {
    offset: usize,
    samples: usize,
    inner: K,
    /// The batch's cropped traces, trace-major `inputs.len() × samples`.
    cropped: Vec<f32>,
}

impl<K> CropSink<K> {
    /// Wraps `inner`, which must be sized for `samples` points, to see
    /// the sub-window starting `offset` samples into each trace.
    pub fn new(offset: usize, samples: usize, inner: K) -> CropSink<K> {
        CropSink {
            offset,
            samples,
            inner,
            cropped: Vec::new(),
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &K {
        &self.inner
    }
}

impl<K: Mergeable> Mergeable for CropSink<K> {
    fn merge(&mut self, other: CropSink<K>) {
        self.inner.merge(other.inner);
    }
}

impl<K: CampaignSink> CampaignSink for CropSink<K> {
    fn absorb_batch(&mut self, inputs: &[Vec<u8>], traces: &[f32], samples: usize) {
        let end = self.offset + self.samples;
        assert!(
            end <= samples,
            "sub-window {}..{end} outside {samples}-sample traces",
            self.offset
        );
        if self.samples == samples {
            self.inner.absorb_batch(inputs, traces, samples);
            return;
        }
        self.cropped.clear();
        // A zero-length sub-window hands over no samples at all (and
        // `chunks_exact(0)` would panic).
        if self.samples > 0 {
            for trace in traces.chunks_exact(samples) {
                self.cropped.extend_from_slice(&trace[self.offset..end]);
            }
        }
        self.inner.absorb_batch(inputs, &self.cropped, self.samples);
    }
}

/// A sink whose statistical state can be snapshotted exactly and
/// restored later — the contract behind crash-safe resumable campaigns.
///
/// `save_state` must append the *bit patterns* of every accumulated
/// value (via [`sca_analysis::StateWriter`]); restoring the snapshot
/// into a freshly built sink of the same shape and absorbing further
/// traces must be byte-identical to never having stopped. Scratch
/// buffers and closures are not part of the state — only the
/// accumulators are.
pub trait Checkpointable {
    /// Appends this sink's exact accumulator state to `out`.
    fn save_state(&self, out: &mut Vec<u8>);

    /// Restores state written by
    /// [`save_state`](Checkpointable::save_state) into a sink of the
    /// same shape.
    ///
    /// # Errors
    ///
    /// Fails on truncation, foreign frame tags, or a geometry mismatch.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError>;
}

impl<A: Checkpointable, B: Checkpointable> Checkpointable for (A, B) {
    fn save_state(&self, out: &mut Vec<u8>) {
        self.0.save_state(out);
        self.1.save_state(out);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.0.load_state(r)?;
        self.1.load_state(r)
    }
}

/// Streaming CPA: evaluates a [`SelectionFunction`] for every key guess
/// and folds each batch into a [`CpaAccumulator`].
///
/// Memory is `O(guesses × samples)` — the full trace matrix of the
/// batch attack never exists. Every absorb adds batch × guesses ×
/// samples to the `analysis/cells_absorbed` work counter.
#[derive(Debug)]
pub struct CpaSink<S> {
    selection: S,
    guesses: usize,
    acc: CpaAccumulator,
    /// Scratch prediction buffer, trace-major `batch × guesses`.
    predictions: Vec<f64>,
}

impl<S: SelectionFunction> CpaSink<S> {
    /// Creates a sink attacking `guesses` candidates over traces of
    /// `samples` points.
    pub fn new(selection: S, guesses: usize, samples: usize) -> CpaSink<S> {
        let guesses = guesses.max(1);
        CpaSink {
            selection,
            guesses,
            acc: CpaAccumulator::new(guesses, samples),
            predictions: Vec::new(),
        }
    }

    /// Traces absorbed so far.
    pub fn len(&self) -> u64 {
        self.acc.len()
    }

    /// Whether no trace was absorbed.
    pub fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }

    /// Splits the accumulator's guess rows over `threads` scoped threads
    /// ([`CpaAccumulator::with_threads`]); bit-identical at any count.
    /// A campaign's worker sinks keep the default of one, since each
    /// worker already occupies a core.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> CpaSink<S> {
        self.acc = self.acc.with_threads(threads);
        self
    }

    /// Extracts the guess × sample correlation matrix.
    pub fn finish(&self) -> CpaResult {
        self.acc.finish()
    }

    /// Every guess's peak |r|, without the matrix: what a verdict reads.
    pub fn peaks(&self) -> CpaPeaks {
        self.acc.peaks()
    }

    /// The underlying accumulator (e.g. to keep merging across
    /// campaigns).
    pub fn accumulator(&self) -> &CpaAccumulator {
        &self.acc
    }
}

impl<S: SelectionFunction> Mergeable for CpaSink<S> {
    fn merge(&mut self, other: CpaSink<S>) {
        self.acc.merge(&other.acc);
    }
}

impl<S: SelectionFunction> Checkpointable for CpaSink<S> {
    fn save_state(&self, out: &mut Vec<u8>) {
        self.acc.write_state(out);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.acc.load_state(r)
    }
}

impl<S: SelectionFunction> CampaignSink for CpaSink<S> {
    fn absorb_batch(&mut self, inputs: &[Vec<u8>], traces: &[f32], samples: usize) {
        debug_assert_eq!(traces.len(), inputs.len() * samples);
        self.predictions.clear();
        for input in inputs {
            for g in 0..self.guesses {
                self.predictions
                    .push(self.selection.predict(input, g as u8));
            }
        }
        self.acc.absorb_batch(&self.predictions, traces);
        sca_telemetry::counter!("analysis/cells_absorbed")
            .add((inputs.len() * self.guesses * samples) as u64);
    }
}

/// Streaming model correlation: one key-less leakage model against every
/// sample point — the characterization primitive behind Table 2, in
/// `O(samples)` memory.
#[derive(Debug)]
pub struct CorrSink<F> {
    model: F,
    acc: PearsonAccumulator,
}

impl<F: Fn(&[u8]) -> f64 + Send> CorrSink<F> {
    /// Creates a sink correlating `model(input)` over traces of
    /// `samples` points.
    pub fn new(model: F, samples: usize) -> CorrSink<F> {
        CorrSink {
            model,
            acc: PearsonAccumulator::new(samples),
        }
    }

    /// Traces absorbed so far.
    pub fn len(&self) -> u64 {
        self.acc.len()
    }

    /// Whether no trace was absorbed.
    pub fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }

    /// Correlation of the model with every sample point.
    pub fn correlations(&self) -> Vec<f64> {
        self.acc.correlations()
    }

    /// Peak |correlation| across the window.
    pub fn peak(&self) -> f64 {
        self.correlations()
            .iter()
            .map(|c| c.abs())
            .fold(0.0, f64::max)
    }
}

impl<F: Fn(&[u8]) -> f64 + Send> Mergeable for CorrSink<F> {
    fn merge(&mut self, other: CorrSink<F>) {
        self.acc.merge(&other.acc);
    }
}

impl<F: Fn(&[u8]) -> f64 + Send> Checkpointable for CorrSink<F> {
    fn save_state(&self, out: &mut Vec<u8>) {
        self.acc.write_state(out);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.acc.load_state(r)
    }
}

impl<F: Fn(&[u8]) -> f64 + Send> CampaignSink for CorrSink<F> {
    fn absorb_batch(&mut self, inputs: &[Vec<u8>], traces: &[f32], samples: usize) {
        for (input, trace) in inputs.iter().zip(traces.chunks_exact(samples)) {
            self.acc.add((self.model)(input), trace);
        }
    }
}

/// Streaming fixed-vs-random Welch t-test (TVLA): each trace is routed
/// into the fixed or random population by a classifier over its input
/// bytes, and folded into a mergeable [`TtestAccumulator`] —
/// `O(samples)` memory, the countermeasure-assessment primitive behind
/// the `masked` experiment.
///
/// The classifier sees the raw campaign input (for the masked AES that
/// is `plaintext ‖ masks`), so a fixed-plaintext/random-mask TVLA
/// campaign classifies on the plaintext prefix alone.
#[derive(Debug)]
pub struct TtestSink<F> {
    classify: F,
    acc: TtestAccumulator,
}

impl<F: Fn(&[u8]) -> bool + Send> TtestSink<F> {
    /// Creates a sink over traces of `samples` points; `classify`
    /// returns `true` for inputs belonging to the fixed population.
    pub fn new(classify: F, samples: usize) -> TtestSink<F> {
        TtestSink {
            classify,
            acc: TtestAccumulator::new(samples),
        }
    }

    /// Traces absorbed as `(fixed, random)`.
    pub fn counts(&self) -> (u64, u64) {
        self.acc.counts()
    }

    /// Point-wise Welch t statistics.
    ///
    /// # Panics
    ///
    /// Panics if either population holds fewer than two traces.
    pub fn t_statistics(&self) -> Vec<f64> {
        self.acc.t_statistics()
    }

    /// Largest |t| across the window.
    ///
    /// # Panics
    ///
    /// Panics if either population holds fewer than two traces.
    pub fn max_t(&self) -> f64 {
        self.t_statistics()
            .iter()
            .map(|t| t.abs())
            .fold(0.0, f64::max)
    }

    /// Whether any sample crosses the TVLA threshold.
    ///
    /// # Panics
    ///
    /// Panics if either population holds fewer than two traces.
    pub fn leaks(&self) -> bool {
        self.acc.leaks()
    }
}

impl<F: Fn(&[u8]) -> bool + Send> Mergeable for TtestSink<F> {
    fn merge(&mut self, other: TtestSink<F>) {
        self.acc.merge(&other.acc);
    }
}

impl<F: Fn(&[u8]) -> bool + Send> Checkpointable for TtestSink<F> {
    fn save_state(&self, out: &mut Vec<u8>) {
        self.acc.write_state(out);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.acc.load_state(r)
    }
}

impl<F: Fn(&[u8]) -> bool + Send> CampaignSink for TtestSink<F> {
    fn absorb_batch(&mut self, inputs: &[Vec<u8>], traces: &[f32], samples: usize) {
        for (input, trace) in inputs.iter().zip(traces.chunks_exact(samples)) {
            if (self.classify)(input) {
                self.acc.add_fixed(trace);
            } else {
                self.acc.add_random(trace);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sca_analysis::{cpa_attack, hw8, CpaConfig, FnSelection, TraceSet};

    fn tiny_set() -> TraceSet {
        let mut set = TraceSet::new(3);
        for pt in [0x00u8, 0x13, 0x37, 0x5a, 0xa5, 0xc3, 0xff, 0x42] {
            let leak = hw8(pt) as f32;
            set.push(vec![leak, 1.0, -leak], vec![pt]);
        }
        set
    }

    fn model() -> FnSelection<impl Fn(&[u8], u8) -> f64 + Send + Sync> {
        FnSelection::new("hw(pt^k)", |input: &[u8], k: u8| {
            f64::from(hw8(input[0] ^ k))
        })
    }

    #[test]
    fn cpa_sink_matches_batch_attack() {
        let set = tiny_set();
        let mut sink = CpaSink::new(model(), 256, 3);
        let mut inputs = Vec::new();
        let mut flat = Vec::new();
        for (input, trace) in set.iter() {
            inputs.push(input.to_vec());
            flat.extend_from_slice(trace);
        }
        sink.absorb_batch(&inputs, &flat, 3);
        assert_eq!(sink.len(), set.len() as u64);
        let streamed = sink.finish();
        let batch = cpa_attack(
            &set,
            &model(),
            &CpaConfig {
                guesses: 256,
                threads: 1,
            },
        );
        for g in 0..256 {
            assert_eq!(streamed.series(g), batch.series(g), "guess {g}");
        }
    }

    #[test]
    fn corr_sink_matches_model_correlation() {
        let set = tiny_set();
        let mut sink = CorrSink::new(|input: &[u8]| f64::from(hw8(input[0])), 3);
        for (input, trace) in set.iter() {
            sink.absorb_batch(&[input.to_vec()], trace, 3);
        }
        let reference = sca_analysis::model_correlation(
            &set,
            &sca_analysis::InputModel::new("hw(pt)", |input: &[u8]| f64::from(hw8(input[0]))),
        );
        assert_eq!(sink.correlations(), reference);
        assert!(sink.peak() > 0.99, "direct leak: {}", sink.peak());
    }

    #[test]
    fn ttest_sink_matches_batch_welch() {
        use sca_analysis::welch_t;
        let mut fixed = TraceSet::new(3);
        let mut random = TraceSet::new(3);
        let mut sink = TtestSink::new(|input: &[u8]| input[0] == 0, 3);
        for i in 0..20u32 {
            let wobble = f64::from(i).sin() as f32;
            let f = vec![2.0 + wobble, 0.0, 1.0];
            let r = vec![-1.0 - wobble, 0.0, 1.0 + wobble];
            sink.absorb_batch(&[vec![0u8], vec![1u8]], &[f.clone(), r.clone()].concat(), 3);
            fixed.push(f, vec![0]);
            random.push(r, vec![1]);
        }
        assert_eq!(sink.counts(), (20, 20));
        let batch = welch_t(&fixed, &random);
        for (s, b) in sink.t_statistics().iter().zip(&batch) {
            assert!((s - b).abs() < 1e-9, "{s} vs {b}");
        }
        assert!(sink.leaks());
        assert!(sink.max_t() > sca_analysis::TVLA_THRESHOLD);
    }

    #[test]
    fn ttest_sink_merges_across_shards() {
        let make = || TtestSink::new(|input: &[u8]| input[0] == 0, 1);
        let mut whole = make();
        let mut shard0 = make();
        let mut shard1 = make();
        for i in 0..30u32 {
            let input = vec![(i % 2) as u8];
            let trace = vec![if i % 2 == 0 { 5.0 } else { -5.0 } + (i as f32 * 0.37).sin()];
            whole.absorb_batch(std::slice::from_ref(&input), &trace, 1);
            let shard = if i < 13 { &mut shard0 } else { &mut shard1 };
            shard.absorb_batch(&[input], &trace, 1);
        }
        shard0.merge(shard1);
        assert_eq!(shard0.counts(), whole.counts());
        for (a, b) in shard0.t_statistics().iter().zip(whole.t_statistics()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn tuple_sink_feeds_both() {
        let set = tiny_set();
        let mut pair = (
            CpaSink::new(model(), 256, 3),
            CorrSink::new(|input: &[u8]| f64::from(hw8(input[0])), 3),
        );
        for (input, trace) in set.iter() {
            pair.absorb_batch(&[input.to_vec()], trace, 3);
        }
        assert_eq!(pair.0.len(), set.len() as u64);
        assert_eq!(pair.1.len(), set.len() as u64);
    }

    #[test]
    fn zero_length_sub_windows_count_traces_without_panicking() {
        let set = tiny_set();
        let make = || {
            vec![
                CropSink::new(3, 0, CpaSink::new(model(), 256, 0)),
                CropSink::new(1, 0, CpaSink::new(model(), 256, 0)),
            ]
        };
        let (mut sinks, mut other) = (make(), make());
        for (i, (input, trace)) in set.iter().enumerate() {
            let sink = if i % 2 == 0 { &mut sinks } else { &mut other };
            sink.absorb_batch(&[input.to_vec()], trace, 3);
        }
        sinks.merge(other);
        for sink in &sinks {
            assert_eq!(sink.inner().len(), set.len() as u64);
            assert_eq!(sink.inner().finish().samples(), 0);
        }
        // A zero-sample campaign hands every sink empty traces.
        let mut empty = CropSink::new(0, 0, CpaSink::new(model(), 256, 0));
        empty.absorb_batch(&[vec![1], vec![2]], &[], 0);
        assert_eq!(empty.inner().len(), 2);
    }
}
