//! Store-backed campaigns: persistent corpora, crash-safe checkpoints,
//! resumable runs, and zero-resimulation re-analysis.
//!
//! ## Segmented execution
//!
//! A stored campaign runs in *segments* of `checkpoint_every` traces.
//! Each segment runs through the one sharded loop a plain
//! [`Campaign::run`] takes (a plain run is a single segment over every
//! trace, with nothing stored); its workers append every trace to the
//! [`TraceStore`] as they simulate, and the segment's merged sink folds
//! into a master sink in segment order. After each segment the master's
//! exact accumulator state (f64 bit patterns) and the high-water trace
//! index are appended to the store's checkpoint log — pages are synced
//! *before* the claim, so a checkpoint never overstates what is durable.
//!
//! ## The resume determinism contract
//!
//! Resuming restores the master sink from the last valid checkpoint and
//! re-runs the remaining segments. Because every trace is a pure
//! function of `(seed, index)` and the snapshot restores the master
//! bit-for-bit, a killed-and-resumed run's verdict is **byte-identical**
//! to an uninterrupted stored run with the same `checkpoint_every` and
//! thread count — the floating-point association is pinned by the
//! segment boundaries, not by where the crash happened. Traces already
//! on disk beyond the checkpoint are simply rewritten with identical
//! bytes (slot appends are idempotent).
//!
//! ## Fault injection
//!
//! [`KillPoint`] aborts a run at a chosen point — after a trace, midway
//! through a page write, or midway through a checkpoint record — leaving
//! the directory exactly as a crash would. The crash-recovery test suite
//! sweeps these points and asserts the resume contract above.

use std::path::PathBuf;

use rand::rngs::StdRng;

use sca_analysis::{StateError, StateReader};
use sca_store::{analysis_tag, CheckpointRecord, CorpusKey, StoreError, StoreMeta, TraceStore};
use sca_uarch::{Cpu, UarchError};

use crate::engine::no_post;
use crate::{Campaign, CampaignSink, Checkpointable};

/// Where (if anywhere) a stored campaign injects a crash.
///
/// Kill points emulate the process dying at the most awkward moments:
/// the run returns [`CampaignError::Killed`] and the store directory is
/// left exactly as a real crash would leave it (unsynced appends, torn
/// tails). They exist for the fault-injection tests and the CI
/// crash-resume job; production campaigns use [`KillPoint::None`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KillPoint {
    /// Run to completion.
    #[default]
    None,
    /// Die right after trace `0`-based index `N` is simulated and
    /// appended (no checkpoint covers it yet).
    AfterTrace(u64),
    /// Die midway through trace `at`'s page-slot write, persisting only
    /// the first `keep` bytes of its record — a torn page.
    MidPage {
        /// Trace whose slot write is torn.
        at: u64,
        /// Record bytes that reach the disk.
        keep: usize,
    },
    /// Die midway through the first checkpoint record covering trace
    /// `at`, persisting only the first `keep` bytes of the record — a
    /// torn WAL tail.
    MidCheckpoint {
        /// The checkpoint whose segment contains this trace is torn.
        at: u64,
        /// Record bytes that reach the disk.
        keep: usize,
    },
}

/// Store knobs of a persistent campaign.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Store directory (created if absent).
    pub dir: PathBuf,
    /// Target label recorded in the corpus key.
    pub label: String,
    /// Analysis name — checkpoints are tagged with it, so one corpus
    /// can carry interleaved checkpoint streams for several analyses.
    pub analysis: String,
    /// Traces per segment (a checkpoint lands after each segment).
    pub checkpoint_every: u64,
    /// Resume from the last valid checkpoint instead of starting over.
    pub resume: bool,
    /// Fault injection for the crash-recovery tests.
    pub kill: KillPoint,
    /// Display-only window span in cycles, recorded in the header.
    pub window_cycles: u64,
}

impl StoreOptions {
    /// Options for a fresh stored campaign in `dir`.
    pub fn new(dir: impl Into<PathBuf>, label: &str, analysis: &str) -> StoreOptions {
        StoreOptions {
            dir: dir.into(),
            label: label.to_owned(),
            analysis: analysis.to_owned(),
            checkpoint_every: 1024,
            resume: false,
            kill: KillPoint::None,
            window_cycles: 0,
        }
    }
}

/// What a stored run did: where it resumed, how much it simulated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoredRunReport {
    /// Trace index the run resumed from (0 = from scratch).
    pub resumed_from: u64,
    /// Traces simulated by this run (0 = fully restored from disk).
    pub simulated: u64,
    /// Checkpoints appended by this run.
    pub checkpoints: u64,
    /// Samples per (windowed) trace.
    pub samples: usize,
    /// Highest checkpointed trace index when the run returned — equal
    /// to `total` when the campaign is finished, lower when a bounded
    /// run ([`Campaign::run_stored_bounded`]) yielded early.
    pub high_water: u64,
    /// Total traces the campaign wants.
    pub total: u64,
}

impl StoredRunReport {
    /// Whether the campaign's full trace budget is checkpointed — a
    /// bounded run returns `false` while slices remain.
    pub fn complete(&self) -> bool {
        self.high_water >= self.total
    }
}

/// Everything that can go wrong in a stored campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignError {
    /// Simulator fault during trace synthesis.
    Uarch(UarchError),
    /// Store I/O failure, corruption, or fingerprint mismatch.
    Store(StoreError),
    /// A checkpoint snapshot did not fit the sink it was restored into.
    State(StateError),
    /// The injected [`KillPoint`] fired after `at` traces were durable
    /// or attempted.
    Killed {
        /// Trace index (or checkpoint high-water) at the kill.
        at: u64,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Uarch(e) => write!(f, "simulator fault: {e}"),
            CampaignError::Store(e) => write!(f, "trace store: {e}"),
            CampaignError::State(e) => write!(f, "checkpoint state: {e}"),
            CampaignError::Killed { at } => write!(f, "killed by fault injection at {at}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<UarchError> for CampaignError {
    fn from(e: UarchError) -> CampaignError {
        CampaignError::Uarch(e)
    }
}

impl From<StoreError> for CampaignError {
    fn from(e: StoreError) -> CampaignError {
        CampaignError::Store(e)
    }
}

impl From<StateError> for CampaignError {
    fn from(e: StateError) -> CampaignError {
        CampaignError::State(e)
    }
}

impl Campaign {
    /// The corpus identity this campaign would stamp on a store.
    fn corpus_key(&self, label: &str) -> CorpusKey {
        let cfg = self.synth.config();
        CorpusKey {
            label: label.to_owned(),
            seed: cfg.seed,
            noise_sd_bits: cfg.noise.sd.to_bits(),
            noise_baseline_bits: cfg.noise.baseline.to_bits(),
            executions_per_trace: cfg.executions_per_trace as u64,
        }
    }

    /// Runs the campaign against a persistent [`TraceStore`]: workers
    /// append every trace as they simulate, and the sink's exact state
    /// is checkpointed every `opts.checkpoint_every` traces, so a killed
    /// run resumes from the last checkpoint instead of starting over.
    ///
    /// With `opts.resume` and a store whose last checkpoint already
    /// covers the whole campaign, the sink is restored from disk. When
    /// the store also matches everything the campaign stamps without
    /// probing (its configured window length included), **nothing is
    /// simulated at all** (not even the window probe); otherwise the
    /// probe runs and its window is checked first.
    ///
    /// Determinism: a resumed run's sink is byte-identical to an
    /// uninterrupted stored run with the same `checkpoint_every` and
    /// thread count (see the module docs). Like [`Campaign::run`], this
    /// is the no-post-hook path — synthesis clips to the window.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults, store I/O/corruption (including a
    /// [`StoreError::FingerprintMismatch`] when `opts.dir` holds a
    /// different corpus), snapshot mismatches, and reports an injected
    /// crash as [`CampaignError::Killed`].
    pub fn run_stored<G, S, K>(
        &self,
        cpu: &Cpu,
        entry: u32,
        generate: G,
        stage: S,
        sink: impl Fn(usize) -> K + Sync,
        opts: &StoreOptions,
    ) -> Result<(K, StoredRunReport), CampaignError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        K: CampaignSink + Checkpointable,
    {
        self.run_stored_bounded(cpu, entry, generate, stage, sink, opts, u64::MAX)
    }

    /// Like [`Campaign::run_stored`], but simulates at most
    /// `max_new_traces` traces (rounded up to whole checkpoint
    /// segments) before checkpointing and returning — the *job-slice*
    /// primitive of the campaign server's cooperative scheduler.
    ///
    /// The returned sink holds the exact accumulator state of every
    /// trace checkpointed so far, so callers can derive incremental
    /// verdicts from it; `report.complete()` says whether slices
    /// remain. Because each call resumes from the last checkpoint and
    /// the segment boundaries pin the floating-point association, a
    /// campaign executed as any sequence of bounded calls (with
    /// `opts.resume` after the first) finishes byte-identical to one
    /// uninterrupted [`Campaign::run_stored`] with the same
    /// `checkpoint_every` and thread count.
    ///
    /// If work remains, at least one segment runs even when
    /// `max_new_traces` is smaller than the segment length (a slice
    /// must make progress to terminate).
    ///
    /// # Errors
    ///
    /// As [`Campaign::run_stored`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_stored_bounded<G, S, K>(
        &self,
        cpu: &Cpu,
        entry: u32,
        generate: G,
        stage: S,
        sink: impl Fn(usize) -> K + Sync,
        opts: &StoreOptions,
        max_new_traces: u64,
    ) -> Result<(K, StoredRunReport), CampaignError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        K: CampaignSink + Checkpointable,
    {
        let total = self.synth.config().traces as u64;
        let tag = analysis_tag(&opts.analysis);
        let input_len = self.synth.input_for(0, &generate).len() as u64;
        let stamp = |window_start: usize, samples: usize| StoreMeta {
            key: self.corpus_key(&opts.label),
            window_start: window_start as u64,
            samples: samples as u64,
            window_cycles: opts.window_cycles,
            total_traces: total,
            input_len,
            page_capacity: 0, // filled in by `create`
        };
        // One handle serves the whole run, and its log is read once.
        let existing = TraceStore::open_if_exists(&opts.dir)?;
        let last = match &existing {
            Some(store) if opts.resume => store.last_checkpoint(tag)?,
            _ => None,
        };

        // Fast path: a last checkpoint that covers the whole campaign,
        // in a store matching all the campaign stamps without probing
        // (its configured window too), restores the sink with zero
        // simulator work. Without a configured window only the probe
        // knows the trace's length, so the stored one is taken.
        if let Some(store) = &existing {
            let (start, samples) = self.window.unwrap_or((0, store.meta().samples as usize));
            if stamp(start, samples).check_corpus(store.meta()).is_ok() {
                if let Some(master) = restore_record(last.as_ref(), store.meta(), &sink)? {
                    let report = StoredRunReport {
                        resumed_from: total,
                        samples,
                        high_water: total,
                        total,
                        ..StoredRunReport::default()
                    };
                    return Ok((master, report));
                }
            }
        }

        // Slow path: probe the window, check (or create) the store, and
        // run segment by segment from the last checkpoint.
        let window = self.probe_window(cpu, entry, &generate, &stage, true)?;
        let samples = window.samples;
        let expected = stamp(window.start, samples);
        let store = match existing {
            Some(store) => {
                expected.check_corpus(store.meta())?;
                store
            }
            None => TraceStore::create(&opts.dir, expected)?,
        };

        let mut master = sink(samples);
        let mut resumed_from = 0u64;
        if let Some(ck) = last {
            load_state(&mut master, &ck.state)?;
            resumed_from = ck.high_water.min(total);
        }

        // Appends each synthesized group in index order, with the disk
        // and kill-point semantics of a one-trace-at-a-time run.
        let persist = |first: usize, inputs: &[Vec<u8>], traces: &[f32]| {
            for (offset, input) in inputs.iter().enumerate() {
                let index = (first + offset) as u64;
                let trace = &traces[offset * samples..(offset + 1) * samples];
                match opts.kill {
                    KillPoint::MidPage { at, keep } if index == at => {
                        store.append_torn(index, input, trace, keep)?;
                        return Err(CampaignError::Killed { at: index });
                    }
                    _ => store.append(index, input, trace)?,
                }
                if opts.kill == KillPoint::AfterTrace(index) {
                    return Err(CampaignError::Killed { at: index });
                }
            }
            Ok(())
        };
        let every = opts.checkpoint_every.max(1);
        let mut high_water = resumed_from;
        let mut checkpoints = 0u64;
        // A sink's snapshot keeps its size from segment to segment, so
        // each buffer is sized from the last one rather than grown.
        let mut state_len = 0;
        while high_water < total && high_water - resumed_from < max_new_traces {
            sca_telemetry::counter!("campaign/segments").inc();
            let seg_end = (high_water + every).min(total);
            let segment = self.run_range(
                cpu,
                entry,
                (&generate, &stage, &no_post),
                &sink,
                window,
                high_water as usize..seg_end as usize,
                Some(&persist),
            )?;
            master.merge(segment);
            high_water = seg_end;

            let _span = sca_telemetry::span!("checkpoint");
            let mut state = Vec::with_capacity(state_len);
            master.save_state(&mut state);
            state_len = state.len();
            if let KillPoint::MidCheckpoint { at, keep } = opts.kill {
                if at < high_water {
                    store.checkpoint_torn(high_water, tag, state, keep)?;
                    return Err(CampaignError::Killed { at: high_water });
                }
            }
            store.checkpoint(high_water, tag, state)?;
            checkpoints += 1;
        }

        Ok((
            master,
            StoredRunReport {
                resumed_from,
                simulated: high_water - resumed_from,
                checkpoints,
                samples,
                high_water,
                total,
            },
        ))
    }
}

/// Restores `sink(samples per trace)` from the last `analysis`
/// checkpoint of `store` when that checkpoint covers the store's whole
/// trace budget — zero simulator work, zero page reads; `None` while
/// traces remain. `sca-target`'s `restore_*` serve finished campaigns
/// through it.
///
/// # Errors
///
/// Propagates checkpoint-log I/O, and a snapshot that does not fit the
/// sink as [`CampaignError::State`].
pub fn restore_complete<K: Checkpointable>(
    store: &TraceStore,
    analysis: &str,
    sink: impl FnOnce(usize) -> K,
) -> Result<Option<K>, CampaignError> {
    let last = store.last_checkpoint(analysis_tag(analysis))?;
    restore_record(last.as_ref(), store.meta(), sink)
}

/// Restores `sink(meta's samples per trace)` from `last` when it covers
/// `meta`'s whole trace budget; `None` otherwise.
fn restore_record<K: Checkpointable>(
    last: Option<&CheckpointRecord>,
    meta: &StoreMeta,
    sink: impl FnOnce(usize) -> K,
) -> Result<Option<K>, CampaignError> {
    match last {
        Some(ck) if ck.high_water >= meta.total_traces => {
            let mut restored = sink(meta.samples as usize);
            load_state(&mut restored, &ck.state)?;
            Ok(Some(restored))
        }
        _ => Ok(None),
    }
}

/// Loads a checkpoint snapshot into `sink`, which must consume it whole.
fn load_state<K: Checkpointable>(sink: &mut K, state: &[u8]) -> Result<(), StateError> {
    let mut r = StateReader::new(state);
    sink.load_state(&mut r)?;
    r.finish()
}

/// Streams a stored corpus through a fresh sink — re-analysis with
/// **zero** simulator work (`sca_power::simulator_runs` does not move).
///
/// Traces are visited in strictly increasing index order in batches of
/// `batch`, so the result is byte-identical to a single-threaded
/// [`Campaign::run`] of the same corpus with the same batch size — and
/// independent of how the corpus was produced (straight run, resumed
/// run, or any merge order of partial stores).
///
/// # Errors
///
/// Returns [`StoreError::Incomplete`] (wrapped) at the first missing
/// trace and propagates store I/O errors.
pub fn reanalyze_store<K: CampaignSink>(
    store: &TraceStore,
    batch: usize,
    mut sink: K,
) -> Result<K, CampaignError> {
    let samples = store.meta().samples as usize;
    let total = store.meta().total_traces;
    let batch = batch.max(1);
    let mut inputs: Vec<Vec<u8>> = Vec::with_capacity(batch);
    let mut flat: Vec<f32> = Vec::new();
    store.stream::<CampaignError>(0..total, |_, input, trace| {
        inputs.push(input.to_vec());
        flat.extend_from_slice(trace);
        if inputs.len() >= batch {
            sink.absorb_batch(&inputs, &flat, samples);
            inputs.clear();
            flat.clear();
        }
        Ok(())
    })?;
    if !inputs.is_empty() {
        sink.absorb_batch(&inputs, &flat, samples);
    }
    Ok(sink)
}
