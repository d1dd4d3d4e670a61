//! Trace synthesis: run a program with an input and turn its activity
//! into the averaged oscilloscope trace an attacker would capture.
//!
//! The protocol mirrors the paper's Section 4 setup:
//!
//! 1. the caller warms a [`Cpu`] (run the benchmark once so both cache
//!    levels are hot);
//! 2. for each trace, an input is drawn from a seeded RNG and staged into
//!    registers/memory;
//! 3. the benchmark runs `executions_per_trace` times (16 in the paper)
//!    with the *same* input; each execution's windowed per-cycle power is
//!    expanded to samples and gets fresh Gaussian noise;
//! 4. the executions are averaged into one stored trace.
//!
//! A trace is a pure function of `(seed, index)`: every trace derives
//! its own RNG stream. The campaign engine in `sca-campaign` fans the
//! indices out over worker threads and lockstep lanes.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sca_uarch::{
    CacheCounts, Cpu, CpuBlock, LaneSim, RecordingObserver, SharedWalk, UarchError, MAX_LANES,
};

use crate::noise::NoiseSkips;
use crate::recorder::{horizon, trigger_window};
use crate::{
    BlockPowerRecorder, GaussianNoise, LanePowerRecorder, LeakageWeights, PowerRecorder,
    SamplingConfig,
};

/// Acquisition campaign parameters.
#[derive(Clone, Debug)]
pub struct AcquisitionConfig {
    /// Number of traces to record.
    pub traces: usize,
    /// Executions averaged into each trace (the paper uses 16).
    pub executions_per_trace: usize,
    /// Sampling chain model.
    pub sampling: SamplingConfig,
    /// Per-execution measurement noise.
    pub noise: GaussianNoise,
    /// Master seed; all randomness (inputs and noise) derives from it.
    pub seed: u64,
    /// Worker threads of the campaign engine (1 = serial). Results are
    /// identical regardless.
    pub threads: usize,
}

impl AcquisitionConfig {
    /// A quick default: 1000 averaged traces, paper-like sampling.
    pub fn new(traces: usize) -> AcquisitionConfig {
        AcquisitionConfig {
            traces,
            executions_per_trace: 16,
            sampling: SamplingConfig::default(),
            noise: GaussianNoise::bare_metal(),
            seed: 0x5ca_1ab1e,
            threads: 1,
        }
    }
}

/// The `power/simulator_runs` telemetry counter: simulator executions
/// of trace synthesis — every window probe
/// ([`TraceSynthesizer::probe`]) and every execution a
/// [`TraceSynthesizer::synth_into`] or
/// [`TraceSynthesizer::synth_block_into`] run synthesizes, per lane,
/// across all threads: walked, stopped at its horizon, or sharing an
/// earlier execution's walk (`power/walks` counts the walks).
///
/// Re-analysis paths that replay a stored corpus assert this counter
/// does not move — stored traces must never trigger resimulation. The
/// count is pure work, never wall clock, so it is byte-identical across
/// thread and lane counts (a diverged lockstep group counts nothing;
/// its scalar rerun counts once per trace, like every other trace).
fn simulator_runs_counter() -> &'static std::sync::Arc<sca_telemetry::Counter> {
    sca_telemetry::counter!("power/simulator_runs")
}

/// The `power/walks` telemetry counter: the executions of
/// `power/simulator_runs` that walked the pipeline, per lane, probes
/// included. The rest shared the walk of an earlier execution of their
/// trace ([`SharedWalk`]). A work counter: a lockstep group that walks
/// for some of its lanes counts only those.
fn walks_counter() -> &'static std::sync::Arc<sca_telemetry::Counter> {
    sca_telemetry::counter!("power/walks")
}

/// The `uarch/cycles` telemetry counter: lane-cycles walked by the
/// executions `power/walks` counts — to `halt`, or to the horizon where
/// a clipped execution stopped. A work counter, published with it, like
/// the cache counters (`uarch/{l1i,l1d,l2}/{accesses,misses}`), which
/// count the same walks' accesses.
fn cycles_counter() -> &'static std::sync::Arc<sca_telemetry::Counter> {
    sca_telemetry::counter!("uarch/cycles")
}

/// The `campaign/horizon_fallbacks` telemetry counter: clipped
/// executions (per lane) that stopped at their horizon with the trigger
/// window open but whose timing so far was not the probe's, so they
/// walked on to `halt`. Observability: zero on a constant-time target.
fn fallbacks_counter() -> &'static std::sync::Arc<sca_telemetry::Counter> {
    sca_telemetry::counter!("campaign/horizon_fallbacks")
}

/// The `campaign/walk_fallbacks` telemetry counter: executions (per
/// lane) after a trace's second that still walked the pipeline, because
/// they started from other registers, flags or memory than the last
/// walk did, or that walk missed in a cache. Published by both engines;
/// observability, zero on the portfolio.
fn walk_fallbacks_counter() -> &'static std::sync::Arc<sca_telemetry::Counter> {
    sca_telemetry::counter!("campaign/walk_fallbacks")
}

/// The `power/samples` telemetry counter: samples synthesized (expanded
/// and noised) by [`TraceSynthesizer::synth_into`] and
/// [`TraceSynthesizer::synth_block_into`], per execution and lane —
/// the kept window of a clipped synthesis, the whole trace otherwise.
/// A work counter, published like `power/simulator_runs`.
fn samples_counter() -> &'static std::sync::Arc<sca_telemetry::Counter> {
    sca_telemetry::counter!("power/samples")
}

/// The `power/samples_skipped` telemetry counter: samples of those
/// executions that clipping never materialized (nor integrated the
/// cycles of, nor drew the noise of). Zero when nothing was clipped;
/// with `power/samples` it sums to every execution's full length.
fn skipped_counter() -> &'static std::sync::Arc<sca_telemetry::Counter> {
    sca_telemetry::counter!("power/samples_skipped")
}

/// The work of one synthesis call, published once the call succeeds (a
/// diverged lockstep group publishes nothing; its scalar rerun does).
#[derive(Clone, Copy, Debug, Default)]
struct Work {
    runs: u64,
    cycles: u64,
    samples: u64,
    skipped: u64,
    fallbacks: u64,
}

impl Work {
    fn publish(&self, shared: &SharedWalk) {
        publish_walks(self.runs, self.cycles, shared);
        samples_counter().add(self.samples);
        skipped_counter().add(self.skipped);
        fallbacks_counter().add(self.fallbacks);
    }
}

/// Publishes the walk work of one lockstep group or scalar trace:
/// `runs` executions (per lane), of which `shared` counted the walks and
/// their cache work, walking `cycles` lane-cycles in all. Moves
/// `power/simulator_runs`, `power/walks`, `uarch/cycles`, the cache
/// counters and `campaign/walk_fallbacks`. Both campaign engines and
/// the node audit publish through it, once per group that did not
/// diverge.
pub fn publish_walks(runs: u64, cycles: u64, shared: &SharedWalk) {
    simulator_runs_counter().add(runs);
    walks_counter().add(shared.walks);
    cycles_counter().add(cycles);
    publish_cache(&shared.cache);
    walk_fallbacks_counter().add(shared.fallbacks);
}

/// Publishes the cache work of walks in the `uarch/{l1i,l1d,l2}`
/// counters.
fn publish_cache(cache: &CacheCounts) {
    if !cache.is_zero() {
        sca_telemetry::counter!("uarch/l1i/accesses").add(cache.l1i_hits + cache.l1i_misses);
        sca_telemetry::counter!("uarch/l1i/misses").add(cache.l1i_misses);
        sca_telemetry::counter!("uarch/l1d/accesses").add(cache.l1d_hits + cache.l1d_misses);
        sca_telemetry::counter!("uarch/l1d/misses").add(cache.l1d_misses);
        sca_telemetry::counter!("uarch/l2/accesses").add(cache.l2_hits + cache.l2_misses);
        sca_telemetry::counter!("uarch/l2/misses").add(cache.l2_misses);
    }
}

/// A campaign's probe run ([`TraceSynthesizer::probe`]): one execution
/// of a throwaway input, walked to `halt`. Its trigger window is the
/// whole-trace length every campaign window is clamped to, and its
/// timing is what a clipped execution stopped at its horizon is checked
/// against ([`TraceSynthesizer::clip`]).
#[derive(Clone, Debug)]
pub struct Probe {
    /// Samples of the trigger window.
    samples: usize,
    /// The cycle the trigger first rose at.
    rise: Option<u64>,
    /// The first cycle past the trigger window.
    end: u64,
    /// The cycle each instruction retired at, in order.
    retirements: Vec<u64>,
}

impl Probe {
    /// Samples in the probe's trigger window (the whole run without a
    /// trigger).
    pub fn samples(&self) -> usize {
        self.samples
    }
}

/// A clipped synthesis ([`TraceSynthesizer::clip`]): the sample window
/// it keeps, and the probe's timing at that window's horizon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Clip {
    /// The end-exclusive sample window `(start, end)` kept.
    pub window: (usize, usize),
    /// The probe's trigger rise, the instructions it retired before the
    /// horizon, and its trigger window's length in cycles — `None` when
    /// its window was not open at the horizon.
    at_horizon: Option<(u64, u64, usize)>,
}

impl Clip {
    /// The probe's trigger-window length in cycles, when an execution
    /// stopped at its horizon with the trigger window open, after rising
    /// at `rise` and retiring `retired` instructions, has been timed like
    /// the probe so far.
    fn probe_cycles(&self, rise: u64, retired: u64) -> Option<usize> {
        self.at_horizon
            .filter(|&(r, n, _)| (r, n) == (rise, retired))
            .map(|(_, _, cycles)| cycles)
    }
}

/// How many simulator executions trace synthesis has run in this
/// process so far. Monotonic; sample it before and after an operation
/// to count the runs it caused.
///
/// A thin shim over the `power/simulator_runs` counter in
/// [`sca_telemetry::global`] — kept so the exact-delta assertions
/// written against the old process-global counter stay valid verbatim.
pub fn simulator_runs() -> u64 {
    simulator_runs_counter().get()
}

/// Derives a statistically-independent child seed (SplitMix64 step).
fn child_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reusable per-worker scratch for the allocation-free synthesis path
/// ([`TraceSynthesizer::synth_into`]): the f64 accumulation buffer the
/// averaged executions sum into, the per-execution expanded-sample
/// buffer — both in window coordinates, holding only the samples a
/// clipped synthesis keeps — and the noise-skip jumps, one per distance
/// skipped (a campaign skips the same few distances every execution, so
/// each jump polynomial is computed once per worker). A campaign worker
/// owns one of these per lane of its scalar CPU and of its lockstep
/// block, for its entire index range.
#[derive(Clone, Debug, Default)]
pub struct SynthScratch {
    /// Execution-averaged power, in f64 (converted to f32 only at the
    /// end).
    accum: Vec<f64>,
    /// One execution's expanded (and noised) samples of the window.
    samples: Vec<f64>,
    /// Cached jumps over the noise draws of unkept samples.
    skips: NoiseSkips,
}

impl SynthScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> SynthScratch {
        SynthScratch::default()
    }
}

/// Synthesizes traces from a CPU, a leakage model and an acquisition
/// configuration.
#[derive(Clone, Debug)]
pub struct TraceSynthesizer {
    weights: LeakageWeights,
    config: AcquisitionConfig,
}

impl TraceSynthesizer {
    /// Creates a synthesizer.
    pub fn new(weights: LeakageWeights, config: AcquisitionConfig) -> TraceSynthesizer {
        TraceSynthesizer { weights, config }
    }

    /// The acquisition configuration.
    pub fn config(&self) -> &AcquisitionConfig {
        &self.config
    }

    /// The leakage weights (what a reusable [`PowerRecorder`] must be
    /// built with to reproduce this synthesizer's traces).
    pub fn weights(&self) -> &LeakageWeights {
        &self.weights
    }

    /// Draws trace `index`'s input without running the simulator.
    ///
    /// Replays the same RNG stream prefix [`TraceSynthesizer::synth_into`]
    /// uses (the input is drawn *before* any execution), so the returned
    /// bytes are bit-identical to the input the full synthesis would
    /// stage. Persistent trace stores use this to learn the input width
    /// — and to re-derive inputs — with zero simulator work.
    pub fn input_for<G>(&self, index: usize, generate: &G) -> Vec<u8>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
    {
        let mut rng = StdRng::seed_from_u64(child_seed(self.config.seed, index as u64));
        generate(&mut rng, index)
    }

    /// Probe run: executes once, to `halt`, with a throwaway input
    /// (index `usize::MAX`, so the probe's RNG stream never collides
    /// with a real trace's), recording the trace window's length in
    /// samples and the run's timing.
    ///
    /// Campaign engines call this up front so streaming sinks can size
    /// their accumulators before the first real trace exists, and clip
    /// their syntheses with it ([`TraceSynthesizer::clip`]).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn probe<G, S>(
        &self,
        cpu: &Cpu,
        entry: u32,
        generate: &G,
        stage: &S,
    ) -> Result<Probe, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
    {
        let mut probe_cpu = cpu.clone();
        // Only the probe's own walk counts, not what the template did.
        let _ = probe_cpu.drain_cache_counts();
        let mut rng = StdRng::seed_from_u64(child_seed(self.config.seed, u64::MAX));
        let input = generate(&mut rng, usize::MAX);
        probe_cpu.restart_seeded(entry, 0);
        stage(&mut probe_cpu, &input);
        let mut timing = RecordingObserver::new();
        let stats = probe_cpu.run(&mut timing)?;
        simulator_runs_counter().add(1);
        walks_counter().add(1);
        cycles_counter().add(stats.cycles);
        publish_cache(&probe_cpu.drain_cache_counts());
        let (start, end) = trigger_window(&timing.triggers, stats.cycles as usize);
        Ok(Probe {
            samples: self.config.sampling.sample_count(end - start),
            rise: timing
                .triggers
                .iter()
                .find(|(_, high)| *high)
                .map(|(c, _)| *c),
            end: end as u64,
            retirements: timing.retirements.iter().map(|&(cycle, _)| cycle).collect(),
        })
    }

    /// The probe's trace window length in samples
    /// ([`TraceSynthesizer::probe`]).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn probe_samples<G, S>(
        &self,
        cpu: &Cpu,
        entry: u32,
        generate: &G,
        stage: &S,
    ) -> Result<usize, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
    {
        self.probe(cpu, entry, generate, stage)
            .map(|probe| probe.samples)
    }

    /// Clips synthesis to the end-exclusive sample `window`, for
    /// executions of the program `probe` ran.
    ///
    /// A clipped execution integrates only the cycles whose pulses reach
    /// the window, and its walk stops at the first cycle whose pulse
    /// reaches none: its horizon, `rise + cycles_reaching(window).1`.
    /// What it does not walk, it must not need. The one thing it needs
    /// is its trigger window's whole length, when that window is still
    /// open at the horizon: the noise draws of the samples past the
    /// window, which the next execution's draws follow, are skipped by
    /// that length. The execution then takes the probe's length if its
    /// trigger rose at the probe's cycle, it retired as many
    /// instructions before the horizon as the probe did, and the probe's
    /// window was still open there too. Otherwise it walks on to `halt`
    /// and uses its own length (`campaign/horizon_fallbacks` counts
    /// these), so an execution whose timing left the probe's by its
    /// horizon synthesizes exactly what a whole walk would.
    pub fn clip(&self, probe: &Probe, window: (usize, usize)) -> Clip {
        let (_, reach) = self.config.sampling.cycles_reaching(window);
        let at_horizon = probe.rise.and_then(|rise| {
            let horizon = horizon(rise, reach);
            (probe.end >= horizon).then(|| {
                let retired = probe.retirements.partition_point(|&c| c < horizon);
                (rise, retired as u64, (probe.end - rise) as usize)
            })
        });
        Clip { window, at_horizon }
    }

    /// The allocation-free synthesis path: synthesizes the trace at
    /// `index` into caller-owned buffers — the simulator, the power
    /// recorder, the f64 accumulation scratch and the output f32 trace —
    /// that are reused across calls. `recorder` must have been built with
    /// this synthesizer's [`TraceSynthesizer::weights`]; `trace` is
    /// cleared and filled with the averaged trace. Returns the input.
    ///
    /// The trace is a pure function of `(config.seed, index)` no matter
    /// how many traces the buffers have already produced — the
    /// differential tests in `tests/campaign_determinism.rs` pin this.
    ///
    /// `clip` ([`TraceSynthesizer::clip`]), when `Some`, synthesizes
    /// only its end-exclusive sample window `(start, end)`, and `trace`
    /// holds just its samples (`trace[i]` is sample `start + i`; fewer
    /// than `end - start` when the execution is shorter). Each execution
    /// then costs the walk up to the window's horizon plus O(window): the
    /// walk stops at the first cycle whose pulse reaches no kept sample,
    /// the recorder integrates only the cycles whose pulses reach the
    /// window, only the window is expanded and noised, and the noise
    /// draws of the other samples are jumped over, so every kept sample
    /// is bit-identical to the same sample of the unclipped trace. With
    /// several executions per trace, an execution whose timing changes
    /// only after its horizon skips the probe's window length instead of
    /// its own, which moves the later executions' noise draws (see
    /// [`TraceSynthesizer::clip`]). `None` is the whole-trace window,
    /// walked to `halt`. Only pass a clip when `post` ignores the samples
    /// (it sees the window alone; the windowed engine passes a no-op post
    /// on the clipped path, and OS-noise jitter, which shifts samples
    /// into the window, runs unclipped).
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    #[allow(clippy::too_many_arguments)]
    pub fn synth_into<G, S, P>(
        &self,
        cpu: &mut Cpu,
        recorder: &mut PowerRecorder,
        scratch: &mut SynthScratch,
        trace: &mut Vec<f32>,
        entry: u32,
        index: usize,
        clip: Option<Clip>,
        generate: &G,
        stage: &S,
        post: &P,
    ) -> Result<Vec<u8>, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
    {
        let mut inputs = self.synth_lanes(
            cpu,
            recorder,
            std::slice::from_mut(scratch),
            std::slice::from_mut(trace),
            entry,
            index,
            1,
            clip,
            generate,
            stage,
            post,
        )?;
        Ok(inputs.swap_remove(0))
    }

    /// Lockstep multi-trace synthesis: `count` consecutive
    /// [`TraceSynthesizer::synth_into`] calls for indices
    /// `base_index..base_index + count`, with every execution stepping
    /// all traces through one [`CpuBlock`] in a single pipeline walk.
    /// Both run the same synthesis body, so each lane's trace is the
    /// one-lane trace of its index.
    ///
    /// Returns `None` when the block detects lockstep divergence (data-
    /// dependent control flow or timing); the caller must then fall back
    /// to the scalar path for these indices. No simulator runs are
    /// counted for a diverged group.
    ///
    /// `scratches` and `traces` must each hold at least `count` entries;
    /// `traces[0..count]` are cleared and filled.
    #[allow(clippy::too_many_arguments)]
    pub fn synth_block_into<G, S, P>(
        &self,
        block: &mut CpuBlock,
        recorder: &mut BlockPowerRecorder,
        scratches: &mut [SynthScratch],
        traces: &mut [Vec<f32>],
        entry: u32,
        base_index: usize,
        count: usize,
        clip: Option<Clip>,
        generate: &G,
        stage: &S,
        post: &P,
    ) -> Option<Vec<Vec<u8>>>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
    {
        assert!(count >= 1 && count <= block.max_lanes(), "bad lane count");
        assert!(scratches.len() >= count && traces.len() >= count);
        self.synth_lanes(
            block, recorder, scratches, traces, entry, base_index, count, clip, generate, stage,
            post,
        )
        .ok()
    }

    /// The one synthesis body: traces `base_index..base_index + count`,
    /// one per lane of `sim`. Each lane draws from its own per-index RNG
    /// streams (input, noise, scrambles), and the recorder accumulates
    /// each lane's events in the order a one-lane run emits them, so
    /// the `f64` sums — and hence the traces — do not depend on the
    /// lane count. Everything after the pipeline walk works in the
    /// coordinates of the kept sample window (`clip`, or the whole
    /// trace).
    ///
    /// Each trace starts from the template ([`SharedWalk::start`]), and
    /// its executions walk only until one starts where the last walk
    /// did: from then on, the recorder's walk is rescrambled for each
    /// execution's seeds instead, bit-identical to walking it.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn synth_lanes<C, const L: usize, G, S, P>(
        &self,
        sim: &mut C,
        recorder: &mut LanePowerRecorder<L>,
        scratches: &mut [SynthScratch],
        traces: &mut [Vec<f32>],
        entry: u32,
        base_index: usize,
        count: usize,
        clip: Option<Clip>,
        generate: &G,
        stage: &S,
        post: &P,
    ) -> Result<Vec<Vec<u8>>, C::Error>
    where
        C: LaneSim,
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
    {
        let config = &self.config;
        let sampling = &config.sampling;
        let mut rngs: Vec<StdRng> = (base_index..base_index + count)
            .map(|index| StdRng::seed_from_u64(child_seed(config.seed, index as u64)))
            .collect();
        let inputs: Vec<Vec<u8>> = rngs
            .iter_mut()
            .zip(base_index..)
            .map(|(rng, index)| generate(rng, index))
            .collect();
        let scratches = &mut scratches[..count];
        for scratch in scratches.iter_mut() {
            scratch.accum.clear();
        }
        let executions = config.executions_per_trace.max(1);
        let (first, last) = clip.map_or((0, usize::MAX), |clip| clip.window);
        // Keep a cycle if its pulse can reach a kept sample; the walk
        // stops at the first cycle whose pulse reaches none.
        recorder.keep_cycles(clip.map(|clip| sampling.cycles_reaching(clip.window)));
        // One lane's windowed series, gathered out of a lockstep
        // recorder's interleaved storage (a one-lane recorder lends its
        // own, so this never allocates on the scalar path).
        let mut gather = Vec::new();
        let mut seeds = [0u64; MAX_LANES];
        let mut work = Work::default();
        let mut shared = SharedWalk::start(sim, count);
        // The probe's window length, when the last walk took it.
        let mut probe_cycles = None;
        for execution in 0..executions {
            for (seed, index) in seeds[..count].iter_mut().zip(base_index..) {
                *seed = child_seed(
                    config.seed ^ 0x5eed_0f0d_e500,
                    (index as u64) << 8 | execution as u64,
                );
            }
            sim.restart_lanes(entry, &seeds[..count]);
            for (lane, input) in inputs.iter().enumerate() {
                stage(sim.lane_cpu(lane), input);
            }
            if shared.must_walk(sim) {
                recorder.reset();
                let mut stats = sim.run_lanes(recorder)?;
                // A walk stopped at its horizon with the trigger window
                // open takes the probe's window length if it has been
                // timed like the probe, and otherwise walks on to learn
                // its own.
                probe_cycles = None;
                if let Some(rise) = recorder.open_rise().filter(|_| !sim.finished()) {
                    probe_cycles =
                        clip.and_then(|clip| clip.probe_cycles(rise, stats.instructions));
                    if probe_cycles.is_none() {
                        work.fallbacks += shared.walking();
                        recorder.resume_to_halt();
                        stats = sim.run_lanes(recorder)?;
                    }
                }
                work.cycles += stats.cycles * shared.walking();
                shared.walked(sim);
            } else {
                recorder.rescramble(&seeds[..count]);
            }
            work.runs += count as u64;
            for (lane, (scratch, rng)) in scratches.iter_mut().zip(&mut rngs).enumerate() {
                let (power, first_cycle, cycles) = recorder.lane_window(lane, &mut gather);
                let samples = sampling.sample_count(probe_cycles.unwrap_or(cycles));
                let window = (first.min(samples), last.min(samples));
                sampling.expand_window_into(power, first_cycle, window, &mut scratch.samples);
                config.noise.add_to_window(
                    rng,
                    &mut scratch.samples,
                    (window.0, samples - window.1),
                    &mut scratch.skips,
                );
                post(rng, &mut scratch.samples);
                if scratch.accum.is_empty() {
                    scratch.accum.extend_from_slice(&scratch.samples);
                } else {
                    crate::vecops::add_assign(&mut scratch.accum, &scratch.samples);
                }
                work.samples += (window.1 - window.0) as u64;
                work.skipped += (samples - (window.1 - window.0)) as u64;
            }
        }
        let inv = 1.0 / executions as f64;
        for (trace, scratch) in traces.iter_mut().zip(scratches.iter()) {
            trace.clear();
            crate::vecops::scaled_narrow_extend(trace, &scratch.accum, inv);
        }
        work.publish(&shared);
        Ok(inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sca_isa::{assemble, Reg};
    use sca_uarch::UarchConfig;

    fn fixture() -> (Cpu, u32) {
        // A benchmark that loads a word (driving the MDR) inside a trigger
        // window; the loaded value is the staged input. As in the paper,
        // nops pad the window so in-flight activity (the load completes 3
        // cycles after issue) lands before the trigger falls.
        let program = assemble(
            "
            trig #1
            ldr r1, [r10]
            nop
            nop
            nop
            nop
            nop
            nop
            trig #0
            halt
        ",
        )
        .unwrap();
        let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
        cpu.load(&program).unwrap();
        cpu.set_reg(Reg::R10, 0x800);
        (cpu, program.entry())
    }

    fn stage(cpu: &mut Cpu, input: &[u8]) {
        let word = u32::from_le_bytes([input[0], input[1], input[2], input[3]]);
        cpu.mem_mut().write_u32(0x800, word).unwrap();
    }

    fn random_word(rng: &mut StdRng, _: usize) -> Vec<u8> {
        use rand::Rng;
        rng.gen::<u32>().to_le_bytes().to_vec()
    }

    /// Every `(trace, input)` of the configured campaign, each
    /// synthesized on a fresh CPU clone and fresh buffers.
    fn synthesize_all<G>(
        synth: &TraceSynthesizer,
        cpu: &Cpu,
        entry: u32,
        generate: G,
    ) -> Vec<(Vec<f32>, Vec<u8>)>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
    {
        (0..synth.config().traces)
            .map(|index| {
                let mut trace = Vec::new();
                let input = synth
                    .synth_into(
                        &mut cpu.clone(),
                        &mut PowerRecorder::new(synth.weights().clone()),
                        &mut SynthScratch::new(),
                        &mut trace,
                        entry,
                        index,
                        None,
                        &generate,
                        &stage,
                        &|_: &mut StdRng, _: &mut Vec<f64>| {},
                    )
                    .unwrap();
                (trace, input)
            })
            .collect()
    }

    #[test]
    fn acquisition_is_deterministic() {
        let (cpu, entry) = fixture();
        let config = AcquisitionConfig {
            traces: 6,
            executions_per_trace: 4,
            sampling: SamplingConfig::per_cycle(),
            noise: GaussianNoise {
                sd: 1.0,
                baseline: 0.0,
            },
            seed: 99,
            threads: 1,
        };
        let synth = TraceSynthesizer::new(LeakageWeights::cortex_a7(), config);
        let a = synthesize_all(&synth, &cpu, entry, random_word);
        let b = synthesize_all(&synth, &cpu, entry, random_word);
        assert_eq!(a.len(), 6);
        assert_eq!(a, b);
    }

    #[test]
    fn input_for_matches_acquired_inputs_without_simulating() {
        let (cpu, entry) = fixture();
        let config = AcquisitionConfig {
            traces: 5,
            executions_per_trace: 2,
            sampling: SamplingConfig::per_cycle(),
            noise: GaussianNoise {
                sd: 1.0,
                baseline: 0.0,
            },
            seed: 77,
            threads: 1,
        };
        let synth = TraceSynthesizer::new(LeakageWeights::cortex_a7(), config);
        for (i, (_, input)) in synthesize_all(&synth, &cpu, entry, random_word)
            .iter()
            .enumerate()
        {
            assert_eq!(&synth.input_for(i, &random_word), input, "trace {i}");
        }
        // Exact simulator-run-counter assertions live in the dedicated
        // single-test binary `tests/sim_counter.rs` (the counter is
        // process-global, so parallel unit tests would race it).
    }

    #[test]
    fn averaging_reduces_noise() {
        let (cpu, entry) = fixture();
        let with_averaging = |executions| {
            let config = AcquisitionConfig {
                traces: 40,
                executions_per_trace: executions,
                sampling: SamplingConfig::per_cycle(),
                noise: GaussianNoise {
                    sd: 8.0,
                    baseline: 0.0,
                },
                seed: 7,
                threads: 1,
            };
            let synth = TraceSynthesizer::new(LeakageWeights::zero(), config);
            synthesize_all(&synth, &cpu, entry, |_, _| vec![0, 0, 0, 0])
        };
        // With zero leakage weights and a fixed input, traces are pure
        // noise; their variance should shrink with averaging.
        let variance = |set: &[(Vec<f32>, Vec<u8>)]| {
            let samples: Vec<f64> = set
                .iter()
                .flat_map(|(trace, _)| trace.iter().map(|&s| f64::from(s)))
                .collect();
            samples.iter().map(|s| s * s).sum::<f64>() / samples.len() as f64
        };
        let raw = variance(&with_averaging(1));
        let averaged = variance(&with_averaging(16));
        assert!(averaged < raw / 8.0, "raw {raw} averaged {averaged}");
    }

    #[test]
    fn signal_survives_averaging() {
        let (cpu, entry) = fixture();
        let config = AcquisitionConfig {
            traces: 2,
            executions_per_trace: 8,
            sampling: SamplingConfig::per_cycle(),
            noise: GaussianNoise::none(),
            seed: 3,
            threads: 1,
        };
        let synth = TraceSynthesizer::new(LeakageWeights::cortex_a7(), config);
        // Two fixed, different inputs: all-zeros vs all-ones word.
        let set = synthesize_all(&synth, &cpu, entry, |_, t| {
            if t % 2 == 0 {
                vec![0, 0, 0, 0]
            } else {
                vec![0xff; 4]
            }
        });
        let e0: f32 = set[0].0.iter().sum();
        let e1: f32 = set[1].0.iter().sum();
        assert!(
            e1 > e0 + 1.0,
            "loading 0xffffffff must consume more modeled power: {e0} vs {e1}"
        );
    }
}
