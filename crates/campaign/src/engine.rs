//! The campaign engine: deterministic acquisition fanned across workers,
//! streamed into mergeable sinks.

use std::ops::Range;

use rand::rngs::StdRng;

use sca_power::{
    AcquisitionConfig, Clip, GaussianNoise, LeakageWeights, SamplingConfig, TraceSynthesizer,
};
use sca_uarch::{Cpu, UarchError};

use crate::arena::SimArena;
use crate::{run_sharded, CampaignSink, ShardPlan, DEFAULT_BATCH};

/// Default lockstep lane width: the widest block the simulator
/// supports ([`sca_uarch::MAX_LANES`]). Campaigns synthesize traces in
/// groups of this many through one [`sca_uarch::CpuBlock`] pipeline
/// walk; results are bit-identical at every lane count (1 disables the
/// block entirely), so the only trade-off is throughput.
pub const DEFAULT_LANES: usize = sca_uarch::MAX_LANES;

/// Campaign parameters: the acquisition knobs of
/// [`AcquisitionConfig`] plus the sharding batch size.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of averaged traces to acquire.
    pub traces: usize,
    /// Executions averaged into each trace (the paper uses 16).
    pub executions_per_trace: usize,
    /// Sampling chain model.
    pub sampling: SamplingConfig,
    /// Per-execution measurement noise.
    pub noise: GaussianNoise,
    /// Master seed; every trace's RNG stream derives from it.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Traces buffered per worker between sink updates (`--batch`).
    pub batch: usize,
}

impl CampaignConfig {
    /// A quick default campaign of `traces` averaged traces.
    pub fn new(traces: usize) -> CampaignConfig {
        CampaignConfig {
            traces,
            executions_per_trace: 16,
            sampling: SamplingConfig::default(),
            noise: GaussianNoise::bare_metal(),
            seed: 0x5ca_1ab1e,
            threads: 1,
            batch: DEFAULT_BATCH,
        }
    }
}

/// A streaming trace-acquisition campaign over a simulated CPU.
///
/// Wraps a [`TraceSynthesizer`] (trace `i` is its
/// [`TraceSynthesizer::synth_into`] trace at index `i`) and drives it
/// through the sharded engine over the synthesizer's thread count:
/// workers synthesize batches of traces and fold them straight into
/// per-worker [`CampaignSink`]s, which merge in worker order at the
/// end. Peak memory is the sink's accumulator plus one batch of traces
/// per worker — never the full `traces × samples` matrix, unless the
/// sink is a [`sca_power::TraceSet`] that keeps every trace.
#[derive(Clone, Debug)]
pub struct Campaign {
    pub(crate) synth: TraceSynthesizer,
    pub(crate) batch: usize,
    pub(crate) lanes: usize,
    pub(crate) window: Option<(usize, usize)>,
}

impl Campaign {
    /// Creates a campaign engine.
    pub fn new(weights: LeakageWeights, config: CampaignConfig) -> Campaign {
        let acquisition = AcquisitionConfig {
            traces: config.traces,
            executions_per_trace: config.executions_per_trace,
            sampling: config.sampling,
            noise: config.noise,
            seed: config.seed,
            threads: config.threads.max(1),
        };
        Campaign {
            synth: TraceSynthesizer::new(weights, acquisition),
            batch: config.batch.max(1),
            lanes: DEFAULT_LANES,
            window: None,
        }
    }

    /// Sets the lockstep lane width (builder style): consecutive traces
    /// are synthesized `lanes` at a time through one
    /// [`sca_uarch::CpuBlock`]. Each worker's [`crate::Lockstep`]
    /// clamps it to `1..=`[`sca_uarch::MAX_LANES`]; 1 disables lockstep
    /// entirely.
    /// Results are bit-identical at every setting — the differential
    /// tests in `tests/lockstep_conformance.rs` pin this.
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Campaign {
        self.lanes = lanes;
        self
    }

    /// Restricts the analysis to `samples` points starting at `start`
    /// (builder style). Traces are cropped *before* they reach the
    /// sinks, so accumulators only pay for the window — this is how
    /// `figure3` keeps to round 1 and `figure4` to the SubBytes stores.
    #[must_use]
    pub fn with_window(mut self, start: usize, samples: usize) -> Campaign {
        self.window = Some((start, samples));
        self
    }

    /// The underlying acquisition configuration.
    pub fn config(&self) -> &AcquisitionConfig {
        self.synth.config()
    }

    /// Runs the campaign, returning the merged sink.
    ///
    /// * `cpu` — loaded (and ideally warmed) template CPU;
    /// * `entry` — program entry point;
    /// * `generate` — draws one input (opaque bytes) per trace from the
    ///   trace's own RNG stream;
    /// * `stage` — writes an input into CPU registers/memory; called
    ///   before *every* execution. Each trace starts from the
    ///   template's registers, flags and memory, and each execution
    ///   from what the earlier executions of its trace left;
    /// * `sink` — builds one worker's empty sink, given the (windowed)
    ///   samples per trace.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from any worker.
    pub fn run<G, S, K>(
        &self,
        cpu: &Cpu,
        entry: u32,
        generate: G,
        stage: S,
        sink: impl Fn(usize) -> K + Sync,
    ) -> Result<K, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        K: CampaignSink,
    {
        // No post hook ⇒ everything outside the analysis window is
        // discarded unseen, so synthesis may clip to the window and stop
        // each walk at its horizon (in-window samples stay bit-identical;
        // see `synth_into`).
        let window = self.probe_window(cpu, entry, &generate, &stage, true)?;
        self.run_range(
            cpu,
            entry,
            (&generate, &stage, &no_post),
            &sink,
            window,
            0..self.config().traces,
            None,
        )
    }

    /// Like [`Campaign::run`], with a post-processing hook applied to
    /// each raw execution's samples after leakage expansion and Gaussian
    /// noise (the OS-noise environments in `sca-osnoise` inject
    /// co-resident workload power and jitter through it).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from any worker.
    pub fn run_with<G, S, P, K>(
        &self,
        cpu: &Cpu,
        entry: u32,
        generate: G,
        stage: S,
        post: P,
        sink: impl Fn(usize) -> K + Sync,
    ) -> Result<K, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
        K: CampaignSink,
    {
        // A post hook sees (and may shift) the whole trace — e.g. the
        // OS-noise jitter moves samples into the window — so synthesis
        // must stay unclipped here.
        let window = self.probe_window(cpu, entry, &generate, &stage, false)?;
        self.run_range(
            cpu,
            entry,
            (&generate, &stage, &post),
            &sink,
            window,
            0..self.config().traces,
            None,
        )
    }

    /// Probes the trace length and fixes the run's [`Window`]: the
    /// campaign's window clamped to the probe's trace, clipped when
    /// `clip` (legal only with no post hook).
    pub(crate) fn probe_window<G, S>(
        &self,
        cpu: &Cpu,
        entry: u32,
        generate: &G,
        stage: &S,
        clip: bool,
    ) -> Result<Window, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
    {
        let probe = {
            let _span = sca_telemetry::span!("probe");
            self.synth.probe(cpu, entry, generate, stage)?
        };
        let full = probe.samples();
        let (start, len) = self.window.unwrap_or((0, full));
        let start = start.min(full);
        let samples = len.min(full - start);
        Ok(Window {
            start,
            samples,
            clip: clip.then(|| self.synth.clip(&probe, (start, start + samples))),
        })
    }

    /// The sharded batch loop of every run: traces `range` split across
    /// the workers, each worker's batches synthesized one lockstep group
    /// at a time and absorbed into its own `sink(samples)`, the worker
    /// sinks merged in worker order. An unstored run is one call over
    /// every trace; a stored run calls it once per checkpoint segment,
    /// with a `persist` hook that takes each group as soon as it is
    /// synthesized: its first index, inputs and windowed traces. Each
    /// batch publishes its traces and their lockstep/scalar split.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_range<G, S, P, K, E>(
        &self,
        cpu: &Cpu,
        entry: u32,
        (generate, stage, post): (&G, &S, &P),
        sink: &(impl Fn(usize) -> K + Sync),
        window: Window,
        range: Range<usize>,
        persist: Option<Persist<'_, E>>,
    ) -> Result<K, E>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
        K: CampaignSink,
        E: From<UarchError> + Send,
    {
        let samples = window.samples;
        let plan = ShardPlan {
            items: range.len(),
            threads: self.synth.config().threads,
            batch: self.batch,
        };
        sca_telemetry::counter!("campaign/traces_planned").add(plan.items as u64);
        // Worker threads have empty span stacks; graft their phase spans
        // under the caller's current span so the tree stays hierarchical.
        let parent = sca_telemetry::current_span_path();
        run_sharded(
            &plan,
            || SimArena::new(&self.synth, cpu, self.lanes),
            || sink(samples),
            |arena, acc, batch| {
                let (start, end) = (range.start + batch.start, range.start + batch.end);
                let (inputs, flat) = &mut arena.batch;
                inputs.clear();
                flat.clear();
                // One `simulate` span per batch, closed while `persist`
                // writes each group, so store I/O is timed apart.
                let mut simulate = None;
                let mut lockstep = 0;
                for index in (start..end).step_by(arena.sims.lanes()) {
                    let group = arena.sims.lanes().min(end - index);
                    simulate.get_or_insert_with(|| {
                        sca_telemetry::span_at(sca_telemetry::child_path(&parent, "simulate"))
                    });
                    if arena.push_windowed_group(
                        &self.synth,
                        entry,
                        (index, group),
                        window,
                        (generate, stage, post),
                    )? {
                        lockstep += group as u64;
                    }
                    if let Some(persist) = persist {
                        simulate = None;
                        let _span =
                            sca_telemetry::span_at(sca_telemetry::child_path(&parent, "store-io"));
                        let (inputs, flat) = &arena.batch;
                        let first = inputs.len() - group;
                        persist(index, &inputs[first..], &flat[first * samples..])?;
                    }
                }
                drop(simulate);
                {
                    let _span =
                        sca_telemetry::span_at(sca_telemetry::child_path(&parent, "absorb"));
                    let (inputs, flat) = &arena.batch;
                    acc.absorb_batch(inputs, flat, samples);
                }
                // Every trace takes exactly one path; both counts are
                // published even at zero.
                sca_telemetry::counter!("campaign/traces_simulated").add(batch.len() as u64);
                sca_telemetry::counter!("campaign/lockstep_traces").add(lockstep);
                sca_telemetry::counter!("campaign/scalar_traces")
                    .add(batch.len() as u64 - lockstep);
                sca_telemetry::counter!("campaign/batches").inc();
                Ok(())
            },
        )
    }
}

/// The post hook of a run that post-processes nothing.
pub(crate) fn no_post(_: &mut StdRng, _: &mut Vec<f64>) {}

/// What a run's probe fixes for all its traces: the kept
/// `(start, samples)` window, clamped to the probe's trace, and the
/// clip synthesis takes of it when nothing post-processes the traces.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Window {
    pub(crate) start: usize,
    pub(crate) samples: usize,
    pub(crate) clip: Option<Clip>,
}

/// A stored run's persist hook: a synthesized group's first trace
/// index, its inputs and its windowed traces.
pub(crate) type Persist<'a, E> = &'a (dyn Fn(usize, &[Vec<u8>], &[f32]) -> Result<(), E> + Sync);
