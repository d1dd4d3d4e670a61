//! Target-generic campaigns: CPA and TVLA over any [`CipherTarget`],
//! through the `sca-campaign` streaming engine.
//!
//! This is the layer the portfolio adds between the targets and the
//! engine: sinks and shard plans never see the concrete cipher — they
//! receive a staging closure, an input generator and a selection
//! function, all derived from the trait object.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;

use sca_campaign::{
    reanalyze_store, restore_complete, Campaign, CampaignConfig, CpaSink, CropSink, KillPoint,
    StoreOptions, StoredRunReport, TtestSink, DEFAULT_BATCH,
};
use sca_power::{GaussianNoise, LeakageWeights, SamplingConfig};
use sca_store::{analysis_tag, TraceStore};
use sca_uarch::{Cpu, UarchConfig};

use crate::{resolve_window, CipherTarget, ModelKind, TargetError, TargetModel};

/// Parameters of one target's campaigns.
#[derive(Clone, Debug)]
pub struct TargetCampaignConfig {
    /// Averaged traces per campaign.
    pub traces: usize,
    /// Executions averaged into each trace.
    pub executions_per_trace: usize,
    /// Master seed (per-target salting is the caller's business).
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Traces buffered per worker between sink updates.
    pub batch: usize,
    /// Lockstep lanes: consecutive traces simulated together through
    /// one `CpuBlock` pipeline walk (1 disables lockstep). Results are
    /// bit-identical at every setting.
    pub lanes: usize,
    /// Measurement noise.
    pub noise: GaussianNoise,
}

impl Default for TargetCampaignConfig {
    fn default() -> TargetCampaignConfig {
        TargetCampaignConfig {
            traces: 300,
            executions_per_trace: 8,
            seed: 0xdac_2018,
            threads: 8,
            batch: sca_campaign::DEFAULT_BATCH,
            lanes: sca_campaign::DEFAULT_LANES,
            noise: GaussianNoise::bare_metal(),
        }
    }
}

/// Persistent-store knobs of a target's campaigns: where the corpora
/// live and how often the sink state is checkpointed.
///
/// Each (target, analysis) pair gets its own store directory under
/// `root` (see [`store_dir_name`]) — CPA campaigns per model and the
/// TVLA campaign use different seeds/windows, so they are distinct
/// corpora by construction.
#[derive(Clone, Debug)]
pub struct TargetStoreConfig {
    /// Directory holding one store subdirectory per (target, analysis).
    pub root: PathBuf,
    /// Traces per checkpoint segment.
    pub checkpoint_every: u64,
    /// Resume from the last valid checkpoint instead of starting over.
    pub resume: bool,
    /// Fault injection for the crash-recovery tests and CI job.
    pub kill: KillPoint,
}

impl TargetStoreConfig {
    /// Store configuration rooted at `root`, checkpointing every 1024
    /// traces, not resuming, no fault injection.
    pub fn new(root: impl Into<PathBuf>) -> TargetStoreConfig {
        TargetStoreConfig {
            root: root.into(),
            checkpoint_every: 1024,
            resume: false,
            kill: KillPoint::None,
        }
    }

    /// The store options of `label`'s `analysis` campaign: its directory
    /// under `root` ([`store_dir_name`]), with this configuration's
    /// checkpointing, resume and fault injection.
    fn options(&self, label: &str, analysis: &str, window_cycles: u64) -> StoreOptions {
        StoreOptions {
            dir: self.root.join(store_dir_name(label, analysis)),
            label: label.to_owned(),
            analysis: analysis.to_owned(),
            checkpoint_every: self.checkpoint_every,
            resume: self.resume,
            kill: self.kill,
            window_cycles,
        }
    }
}

/// The store subdirectory for one (target, analysis) pair. Plain
/// analysis names pass through (`aes128-tvla`); names with punctuation
/// (model formulas) are replaced by their 64-bit FNV tag in hex, the
/// same tag that labels their checkpoints.
pub fn store_dir_name(label: &str, analysis: &str) -> String {
    let plain = !analysis.is_empty()
        && analysis
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
    if plain {
        format!("{label}-{analysis}")
    } else {
        format!("{label}-{:016x}", analysis_tag(analysis))
    }
}

/// One CPA attack's verdict against one target.
#[derive(Clone, Debug)]
pub struct CpaVerdict {
    /// Attack model name.
    pub model: String,
    /// Model kind (value-level HW / microarchitecture-aware HD).
    pub kind: ModelKind,
    /// Best-ranked key guess.
    pub recovered: u8,
    /// The true key byte.
    pub correct: u8,
    /// Rank of the true key byte (0 = recovered).
    pub rank: usize,
    /// Peak |corr| of the true key byte.
    pub peak: f64,
    /// Peak |corr| over all wrong guesses.
    pub best_wrong: f64,
    /// Cycles in the analyzed window.
    pub window_cycles: u64,
}

impl CpaVerdict {
    /// Whether the attack recovered the key byte.
    pub fn success(&self) -> bool {
        self.rank == 0
    }

    /// The verdict line the portfolio binary prints and the regression
    /// tests pin.
    pub fn verdict(&self) -> String {
        format!(
            "{}: {} (recovered 0x{:02x}, true 0x{:02x}, rank {})",
            self.model,
            if self.success() { "SUCCESS" } else { "FAILURE" },
            self.recovered,
            self.correct,
            self.rank,
        )
    }
}

/// One fixed-vs-random TVLA assessment's verdict.
#[derive(Clone, Debug)]
pub struct TvlaVerdict {
    /// Largest |t| across the window.
    pub max_t: f64,
    /// Whether any sample crosses the TVLA threshold.
    pub leaks: bool,
    /// Traces in the (fixed, random) populations.
    pub counts: (u64, u64),
}

impl TvlaVerdict {
    /// The verdict line the portfolio binary prints and the regression
    /// tests pin.
    pub fn verdict(&self) -> String {
        let call = if self.leaks { "LEAKS" } else { "clean" };
        format!("TVLA fixed-vs-random: {call}")
    }
}

/// The `(start, len)` sample window covering a `(start, len)` cycle
/// window, with the end-exclusive rounding the characterization layer
/// shares, so the fractional sampling rate keeps the window's tail
/// sample.
fn sample_window((start, len): (u64, u64)) -> (usize, usize) {
    SamplingConfig::picoscope_500msps_120mhz().window_to_samples(start, len)
}

/// `model`'s verdict from its sink, timed as the phase's `verdict`
/// span: the correlation matrix and its peaks (`finish`), then the
/// verdict helpers, which read only the peaks.
fn cpa_verdict(
    model: &TargetModel,
    sink: &CpaSink<&TargetModel>,
    window_cycles: u64,
) -> CpaVerdict {
    let _span = sca_telemetry::span("verdict");
    let result = sink.finish();
    let correct = usize::from(model.correct);
    CpaVerdict {
        model: model.name.clone(),
        kind: model.kind,
        recovered: result.best_guess() as u8,
        correct: model.correct,
        rank: result.rank_of(correct),
        peak: result.peak(correct).1.abs(),
        best_wrong: result.best_wrong_peak(correct),
        window_cycles,
    }
}

/// CPA and TVLA campaigns against one built target.
pub struct TargetCampaign<'a> {
    target: &'a dyn CipherTarget,
    cpu: Cpu,
    config: TargetCampaignConfig,
}

impl std::fmt::Debug for TargetCampaign<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TargetCampaign")
            .field("target", &self.target.name())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<'a> TargetCampaign<'a> {
    /// Builds the target's template CPU for a microarchitecture.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from the build's warm-up run.
    pub fn new(
        target: &'a dyn CipherTarget,
        uarch: &UarchConfig,
        config: TargetCampaignConfig,
    ) -> Result<TargetCampaign<'a>, TargetError> {
        Ok(TargetCampaign {
            cpu: target.build(uarch)?,
            target,
            config,
        })
    }

    /// The warmed template CPU (for audits and characterizations that
    /// want to reuse it).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The campaign engine at `seed_salt`, cropped to a `(start, len)`
    /// sample window.
    fn engine(&self, seed_salt: u64, (start, len): (usize, usize)) -> Campaign {
        Campaign::new(
            LeakageWeights::cortex_a7(),
            CampaignConfig {
                traces: self.config.traces,
                executions_per_trace: self.config.executions_per_trace,
                sampling: SamplingConfig::picoscope_500msps_120mhz(),
                noise: self.config.noise,
                seed: self.config.seed ^ seed_salt,
                threads: self.config.threads,
                batch: self.config.batch,
            },
        )
        .with_lanes(self.config.lanes)
        .with_window(start, len)
    }

    /// Runs one CPA campaign for all of `models` and returns one verdict
    /// per model, in order.
    ///
    /// Every model attacks the same acquisition (seed salt `0x0`), so the
    /// campaign simulates once over the union of the models' windows and
    /// crops each trace to each model's own window ([`CropSink`]). Each
    /// verdict is bit-identical to a campaign over its model's window
    /// alone, i.e. to `cpa(&[model])`.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from any worker, and window
    /// misconfiguration as [`TargetError::Window`].
    pub fn cpa(&self, models: &[TargetModel]) -> Result<Vec<CpaVerdict>, TargetError> {
        let windows = {
            let _span = sca_telemetry::span("windows");
            models
                .iter()
                .map(|model| {
                    let cycles =
                        resolve_window(self.target, &self.cpu, &model.window)?.trigger_relative;
                    Ok((cycles.1, sample_window(cycles)))
                })
                .collect::<Result<Vec<_>, TargetError>>()?
        };
        let Some(start) = windows.iter().map(|(_, (start, _))| *start).min() else {
            return Ok(Vec::new());
        };
        let end = windows
            .iter()
            .map(|(_, (start, len))| start + len)
            .max()
            .unwrap_or(start);
        let target = self.target;
        let sinks = self.engine(0x0, (start, end - start)).run(
            &self.cpu,
            target.program().entry(),
            |rng, index| target.generate(rng, index),
            |cpu, input| target.stage(cpu, input),
            |samples| {
                // The engine clamps the union window to the trace
                // length; clamp each model's window to the same end, as
                // the engine would have clamped it alone.
                let end = start + samples;
                models
                    .iter()
                    .zip(&windows)
                    .map(|(model, &(_, (lo, len)))| {
                        let (lo, hi) = (lo.min(end), (lo + len).min(end));
                        CropSink::new(lo - start, hi - lo, CpaSink::new(model, 256, hi - lo))
                    })
                    .collect::<Vec<_>>()
            },
        )?;
        Ok(models
            .iter()
            .zip(&windows)
            .zip(&sinks)
            .map(|((model, &(cycles, _)), sink)| cpa_verdict(model, sink.inner(), cycles))
            .collect())
    }

    /// Like [`TargetCampaign::cpa`] for one model, against a persistent
    /// trace store (corpora are kept per model, so stored campaigns do
    /// not share an acquisition): traces land in
    /// `store.root/<label>-<model tag>` as they are
    /// simulated and the accumulator state is checkpointed every
    /// `store.checkpoint_every` traces, so a killed campaign resumes
    /// from the last checkpoint with a byte-identical verdict.
    ///
    /// # Errors
    ///
    /// As [`TargetCampaign::cpa`], plus store I/O/corruption and
    /// fault-injection kills as [`TargetError::Campaign`].
    pub fn cpa_stored(
        &self,
        model: &TargetModel,
        store: &TargetStoreConfig,
    ) -> Result<(CpaVerdict, StoredRunReport), TargetError> {
        self.cpa_stored_bounded(model, store, u64::MAX)
    }

    /// Like [`TargetCampaign::cpa_stored`], but simulates at most
    /// `max_new_traces` traces (whole checkpoint segments) before
    /// returning — the campaign server's job-slice unit. The verdict is
    /// computed from the partial accumulator, so callers get an
    /// *incremental* verdict (current rank, peak) after every slice;
    /// `report.complete()` says whether the campaign finished.
    ///
    /// # Errors
    ///
    /// As [`TargetCampaign::cpa_stored`].
    pub fn cpa_stored_bounded(
        &self,
        model: &TargetModel,
        store: &TargetStoreConfig,
        max_new_traces: u64,
    ) -> Result<(CpaVerdict, StoredRunReport), TargetError> {
        let window = {
            let _span = sca_telemetry::span("windows");
            resolve_window(self.target, &self.cpu, &model.window)?
        };
        let target = self.target;
        let opts = store.options(target.name(), &model.name, window.trigger_relative.1);
        let (sink, report) = self
            .engine(0x0, sample_window(window.trigger_relative))
            .run_stored_bounded(
                &self.cpu,
                target.program().entry(),
                |rng, index| target.generate(rng, index),
                |cpu, input| target.stage(cpu, input),
                |samples| CpaSink::new(model, 256, samples),
                &opts,
                max_new_traces,
            )
            .map_err(TargetError::from)?;
        Ok((cpa_verdict(model, &sink, window.trigger_relative.1), report))
    }

    /// Runs a fixed-vs-random TVLA campaign in the target's primary
    /// window (even trace indices form the fixed population; any
    /// victim-side randomness in the input suffix stays random in
    /// both).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from any worker, window
    /// misconfiguration as [`TargetError::Window`], and a campaign too
    /// small for the Welch statistic as [`TargetError::TooFewTraces`].
    pub fn tvla(&self) -> Result<TvlaVerdict, TargetError> {
        let (sink, _) = self.tvla_run(None)?;
        tvla_verdict(&sink)
    }

    /// Like [`TargetCampaign::tvla`], against a persistent trace store
    /// in `store.root/<label>-tvla`; the fixed/random split is carried
    /// by the stored inputs themselves (the classifier re-derives each
    /// trace's population from its input bytes), so re-analysis needs no
    /// side table.
    ///
    /// # Errors
    ///
    /// As [`TargetCampaign::tvla`], plus store I/O/corruption and
    /// fault-injection kills as [`TargetError::Campaign`].
    pub fn tvla_stored(
        &self,
        store: &TargetStoreConfig,
    ) -> Result<(TvlaVerdict, StoredRunReport), TargetError> {
        let (sink, report) = self.tvla_run(Some((store, u64::MAX)))?;
        Ok((tvla_verdict(&sink)?, report))
    }

    /// Like [`TargetCampaign::tvla_stored`], but simulates at most
    /// `max_new_traces` traces (whole checkpoint segments) before
    /// returning. The verdict is `None` until both TVLA populations
    /// hold at least two traces (the Welch statistic is undefined
    /// before that).
    ///
    /// # Errors
    ///
    /// As [`TargetCampaign::tvla_stored`].
    pub fn tvla_stored_bounded(
        &self,
        store: &TargetStoreConfig,
        max_new_traces: u64,
    ) -> Result<(Option<TvlaVerdict>, StoredRunReport), TargetError> {
        let (sink, report) = self.tvla_run(Some((store, max_new_traces)))?;
        Ok((tvla_verdict(&sink).ok(), report))
    }

    /// The TVLA campaign behind [`TargetCampaign::tvla`] and its stored
    /// variants — the one place its generator, stage and sink are
    /// built: unstored, or against `store` for at most the given new
    /// traces. Returns its t-test sink and the stored run's report (the
    /// default report when unstored).
    #[allow(clippy::type_complexity)]
    fn tvla_run(
        &self,
        store: Option<(&TargetStoreConfig, u64)>,
    ) -> Result<
        (
            TtestSink<impl Fn(&[u8]) -> bool + Send + '_>,
            StoredRunReport,
        ),
        TargetError,
    > {
        let window = resolve_window(self.target, &self.cpu, &self.target.primary_window())?;
        let target = self.target;
        let engine = self.engine(0x77e5, sample_window(window.trigger_relative));
        let entry = target.program().entry();
        let generate = |rng: &mut StdRng, index| {
            if index != usize::MAX && index % 2 == 0 {
                target.finish_input(target.fixed_plaintext(), rng)
            } else {
                target.generate(rng, index)
            }
        };
        let stage = |cpu: &mut Cpu, input: &[u8]| target.stage(cpu, input);
        let sink = |samples| tvla_sink(target, samples);
        Ok(match store {
            None => (
                engine.run(&self.cpu, entry, generate, stage, sink)?,
                StoredRunReport::default(),
            ),
            Some((store, max_new_traces)) => engine.run_stored_bounded(
                &self.cpu,
                entry,
                generate,
                stage,
                sink,
                &store.options(target.name(), "tvla", window.trigger_relative.1),
                max_new_traces,
            )?,
        })
    }
}

/// The fixed-vs-random t-test sink of `target`'s TVLA campaigns: the
/// target's classifier re-derives each trace's population from its
/// input.
fn tvla_sink(target: &dyn CipherTarget, samples: usize) -> TtestSink<impl Fn(&[u8]) -> bool + '_> {
    TtestSink::new(|input: &[u8]| target.is_fixed_class(input), samples)
}

/// Fewest traces the Welch statistic takes in each TVLA population.
const MIN_POPULATION: u64 = 2;

/// Smallest TVLA campaign with a verdict: the populations alternate by
/// trace index (even indices are fixed, see [`TargetCampaign::tvla`]),
/// so both reach [`MIN_POPULATION`] at twice that.
pub const MIN_TVLA_TRACES: u64 = 2 * MIN_POPULATION;

/// Checks, before any simulation, that a TVLA campaign of `traces`
/// traces reaches [`MIN_TVLA_TRACES`].
///
/// # Errors
///
/// [`TargetError::TooFewTraces`] below it, with the population sizes
/// the campaign would end with.
pub fn check_tvla_traces(traces: u64) -> Result<(), TargetError> {
    if traces < MIN_TVLA_TRACES {
        return Err(TargetError::TooFewTraces {
            fixed: traces.div_ceil(2),
            random: traces / 2,
        });
    }
    Ok(())
}

/// The TVLA verdict of a (possibly partial) t-test sink, or
/// [`TargetError::TooFewTraces`] while either population holds fewer
/// than [`MIN_POPULATION`] traces (the Welch statistic is undefined
/// before that).
fn tvla_verdict<F: Fn(&[u8]) -> bool + Send>(
    sink: &TtestSink<F>,
) -> Result<TvlaVerdict, TargetError> {
    let (fixed, random) = sink.counts();
    if fixed < MIN_POPULATION || random < MIN_POPULATION {
        return Err(TargetError::TooFewTraces { fixed, random });
    }
    Ok(TvlaVerdict {
        max_t: sink.max_t(),
        leaks: sink.leaks(),
        counts: (fixed, random),
    })
}

/// Re-runs a CPA attack over a stored corpus by streaming its pages
/// into a fresh accumulator — zero simulator invocations, any model
/// (including ones the corpus was not originally collected for).
///
/// The result is byte-identical to a single-threaded, non-segmented
/// campaign over the same traces; verdict fields (recovered byte, rank)
/// always match the stored run that produced the corpus.
///
/// # Errors
///
/// Store I/O/corruption as [`TargetError::Campaign`].
pub fn reanalyze_cpa(dir: &Path, model: &TargetModel) -> Result<CpaVerdict, TargetError> {
    let store = TraceStore::open_any(dir)?;
    let (samples, window_cycles) = {
        let meta = store.meta();
        (meta.samples as usize, meta.window_cycles)
    };
    let sink = reanalyze_store(&store, DEFAULT_BATCH, CpaSink::new(model, 256, samples))
        .map_err(TargetError::from)?;
    Ok(cpa_verdict(model, &sink, window_cycles))
}

/// Restores a CPA verdict from a *finished* stored campaign's last
/// checkpoint — zero simulator invocations and zero page reads: the
/// exact accumulator snapshot the campaign wrote through the
/// [`sca_campaign::Checkpointable`] codecs is loaded back into a fresh
/// sink. Returns `None` when the directory holds no store or its
/// checkpoints do not yet cover the full trace budget (the caller
/// should then run or resume the campaign).
///
/// This is how the campaign server serves a resubmitted spec after a
/// restart: the verdict is byte-identical to the one the stored run
/// printed, and `sca_power::simulator_runs` does not move.
///
/// # Errors
///
/// Store I/O/corruption and snapshot mismatches as
/// [`TargetError::Campaign`].
pub fn restore_cpa(dir: &Path, model: &TargetModel) -> Result<Option<CpaVerdict>, TargetError> {
    let Some(store) = TraceStore::open_if_exists(dir)? else {
        return Ok(None);
    };
    let window_cycles = store.meta().window_cycles;
    let sink = restore_complete(&store, &model.name, |samples| {
        CpaSink::new(model, 256, samples)
    })?;
    Ok(sink.map(|sink| cpa_verdict(model, &sink, window_cycles)))
}

/// Restores a TVLA verdict from a finished stored campaign's last
/// checkpoint — the fixed-vs-random counterpart of [`restore_cpa`],
/// with the same zero-simulation contract.
///
/// # Errors
///
/// Store I/O/corruption and snapshot mismatches as
/// [`TargetError::Campaign`].
pub fn restore_tvla(
    dir: &Path,
    target: &dyn CipherTarget,
) -> Result<Option<TvlaVerdict>, TargetError> {
    let Some(store) = TraceStore::open_if_exists(dir)? else {
        return Ok(None);
    };
    let sink = restore_complete(&store, "tvla", |samples| tvla_sink(target, samples))?;
    Ok(sink.and_then(|sink| tvla_verdict(&sink).ok()))
}

/// Re-runs the fixed-vs-random TVLA assessment over a stored corpus —
/// zero simulator invocations; the population split is re-derived from
/// each stored input via the target's classifier.
///
/// # Errors
///
/// Store I/O/corruption as [`TargetError::Campaign`], and a corpus too
/// small for the Welch statistic as [`TargetError::TooFewTraces`].
pub fn reanalyze_tvla(dir: &Path, target: &dyn CipherTarget) -> Result<TvlaVerdict, TargetError> {
    let store = TraceStore::open_any(dir)?;
    let samples = store.meta().samples as usize;
    let sink = reanalyze_store(&store, DEFAULT_BATCH, tvla_sink(target, samples))
        .map_err(TargetError::from)?;
    tvla_verdict(&sink)
}
