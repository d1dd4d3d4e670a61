//! The per-worker simulator arena of the trace-generation fast path.
//!
//! Synthesizing one trace needs a staged simulator, a power recorder,
//! an f64 accumulation buffer, an expanded-sample buffer, an f32 trace
//! buffer and — at the engine layer — a batch of inputs and a flat
//! windowed-trace matrix for the sink. Before the arena existed, most
//! of these were allocated per trace (or per execution); a `--full`
//! campaign churned through millions of short-lived vectors. A
//! [`SimArena`] bundles all of them as worker-owned state: the sharded
//! engine creates one arena per worker (cloning the warmed template CPU
//! exactly once) and reuses it across the worker's entire index range,
//! so the steady-state hot loop performs no heap allocation at all.
//!
//! Reuse never changes results: every trace returns the simulator to
//! the template's registers, flags and memory
//! (`Cpu::restore_template`), each execution re-points it at the
//! program with [`Cpu::restart_seeded`] (the cheap reset — pipeline,
//! node and trigger state are overwritten in place, while registers,
//! memory and caches persist across the executions of a trace exactly
//! as they do on silicon), and every buffer is cleared before refill.
//! Traces remain a pure function of `(seed, index)`; the differential
//! tests in `tests/campaign_determinism.rs` pin arena-vs-fresh
//! byte-identity.

use rand::rngs::StdRng;

use sca_power::{BlockPowerRecorder, PowerRecorder, SynthScratch, TraceSynthesizer};
use sca_uarch::{Cpu, CpuBlock, UarchError};

use crate::engine::Window;

/// The lockstep half of an arena: a [`CpuBlock`] stepping several traces
/// through one pipeline walk, with per-lane recorder/scratch buffers.
///
/// Present only when the campaign runs with more than one lane. Dropped
/// (`SimArena::block = None`) the moment a group diverges: divergence
/// means the lanes' cache/memory histories were perturbed mid-run, so
/// the rest of the worker's range falls back to the scalar path, whose
/// per-trace results never depend on such history.
#[derive(Clone, Debug)]
struct BlockSim {
    block: CpuBlock,
    recorder: BlockPowerRecorder,
    scratches: Vec<SynthScratch>,
    traces: Vec<Vec<f32>>,
}

/// Scheduling counts a worker accumulates locally (plain integers, no
/// atomics on the hot path) and publishes to the global telemetry
/// registry at batch boundaries via [`SimArena::publish_metrics`]. The
/// work counters, cache work included, are published by the synthesis
/// itself, once per trace or lockstep group.
#[derive(Clone, Copy, Debug, Default)]
struct WorkerTally {
    /// Traces synthesized through the lockstep block.
    lockstep_traces: u64,
    /// Traces synthesized on the scalar path.
    scalar_traces: u64,
    /// Lockstep blocks retired by divergence.
    blocks_poisoned: u64,
}

/// One campaign worker's reusable simulation state: a staged CPU cloned
/// once from the warmed template, a [`PowerRecorder`], and the scratch
/// buffers of the allocation-free synthesis path
/// ([`TraceSynthesizer::synth_into`]).
#[derive(Clone, Debug)]
pub struct SimArena {
    pub(crate) cpu: Cpu,
    pub(crate) recorder: PowerRecorder,
    pub(crate) scratch: SynthScratch,
    /// The current trace (full length, before windowing).
    pub(crate) trace: Vec<f32>,
    /// The batch's inputs, in index order.
    pub(crate) inputs: Vec<Vec<u8>>,
    /// The batch's windowed traces, trace-major `inputs.len() × samples`
    /// — handed to [`crate::CampaignSink::absorb_batch`] directly.
    pub(crate) flat: Vec<f32>,
    /// Lockstep lanes, when enabled (and not poisoned by divergence).
    block: Option<BlockSim>,
    /// Locally-buffered telemetry, published at batch boundaries.
    tally: WorkerTally,
}

impl SimArena {
    /// Creates a worker arena for `synth`, cloning the warmed template
    /// CPU once. The recorder is built with the synthesizer's leakage
    /// weights, as [`TraceSynthesizer::synth_into`] requires.
    pub fn new(synth: &TraceSynthesizer, template: &Cpu) -> SimArena {
        SimArena {
            cpu: template.clone(),
            recorder: PowerRecorder::new(synth.weights().clone()),
            scratch: SynthScratch::new(),
            trace: Vec::new(),
            inputs: Vec::new(),
            flat: Vec::new(),
            block: None,
            tally: WorkerTally::default(),
        }
    }

    /// Like [`SimArena::new`], but additionally equips the arena with a
    /// `lanes`-wide lockstep [`CpuBlock`] (when `lanes > 1`), so
    /// `SimArena::push_windowed_group` can synthesize whole groups of
    /// traces in one pipeline walk. `lanes` is clamped to
    /// `1..=`[`sca_uarch::MAX_LANES`].
    pub fn with_lanes(synth: &TraceSynthesizer, template: &Cpu, lanes: usize) -> SimArena {
        let mut arena = SimArena::new(synth, template);
        let lanes = lanes.clamp(1, sca_uarch::MAX_LANES);
        if lanes > 1 {
            arena.block = Some(BlockSim {
                block: CpuBlock::from_template(template, lanes),
                recorder: BlockPowerRecorder::new(synth.weights().clone(), lanes),
                scratches: vec![SynthScratch::new(); lanes],
                traces: vec![Vec::new(); lanes],
            });
        }
        arena
    }

    /// The worker's CPU (staged template clone).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Synthesizes the trace at `index` into the arena's buffers and
    /// returns `(trace, input)` — byte-identical to a
    /// [`TraceSynthesizer::synth_into`] on a fresh CPU clone and fresh
    /// buffers, for any prior arena history.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn synthesize<G, S, P>(
        &mut self,
        synth: &TraceSynthesizer,
        entry: u32,
        index: usize,
        generate: &G,
        stage: &S,
        post: &P,
    ) -> Result<(&[f32], Vec<u8>), UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
    {
        let input = synth.synth_into(
            &mut self.cpu,
            &mut self.recorder,
            &mut self.scratch,
            &mut self.trace,
            entry,
            index,
            None,
            generate,
            stage,
            post,
        )?;
        Ok((&self.trace, input))
    }

    /// Starts a new sink batch: clears the input and flat-trace buffers
    /// (keeping their capacity).
    pub(crate) fn begin_batch(&mut self) {
        self.inputs.clear();
        self.flat.clear();
    }

    /// Synthesizes the `count` consecutive traces starting at
    /// `base_index` and appends each trace's `window` (zero-padded past
    /// the trace's end) and its input to the current batch, in index
    /// order. A window's clip clips the synthesis itself to the window
    /// (legal only when the post hook is a no-op — out-of-window samples
    /// are then discarded unseen), so each trace arrives holding only
    /// the window's samples.
    ///
    /// When the arena has a lockstep block (and `count > 1`), the whole
    /// group runs through it in one pipeline walk. The results are
    /// bit-identical either way; on lockstep divergence the block is
    /// dropped and this group — and every later group of this arena —
    /// takes the scalar path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_windowed_group<G, S, P>(
        &mut self,
        synth: &TraceSynthesizer,
        entry: u32,
        base_index: usize,
        count: usize,
        window: Window,
        generate: &G,
        stage: &S,
        post: &P,
    ) -> Result<(), UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
    {
        let Window { samples, clip, .. } = window;
        // Where the window starts in each synthesized trace.
        let offset = if clip.is_some() { 0 } else { window.start };
        let mut push = |trace: &mut Vec<f32>, input: Vec<u8>| {
            trace.resize(trace.len().max(offset + samples), 0.0);
            self.flat
                .extend_from_slice(&trace[offset..offset + samples]);
            self.inputs.push(input);
        };
        if let Some(block) = self.block.as_mut().filter(|_| count > 1) {
            debug_assert!(count <= block.block.max_lanes());
            let got = synth.synth_block_into(
                &mut block.block,
                &mut block.recorder,
                &mut block.scratches,
                &mut block.traces,
                entry,
                base_index,
                count,
                clip,
                generate,
                stage,
                post,
            );
            if let Some(inputs) = got {
                self.tally.lockstep_traces += count as u64;
                for (trace, input) in block.traces.iter_mut().zip(inputs) {
                    push(trace, input);
                }
                return Ok(());
            }
            // Divergence: the lanes' microarchitectural state was
            // perturbed mid-run, so retire the block for good and re-run
            // this group (and all later ones) scalar — `synth_into` is
            // self-contained per trace. A diverged group publishes no
            // work: only the scalar rerun counts, keeping the totals
            // identical to a single-lane run.
            self.tally.blocks_poisoned += 1;
            self.block = None;
        }
        for index in base_index..base_index + count {
            let input = synth.synth_into(
                &mut self.cpu,
                &mut self.recorder,
                &mut self.scratch,
                &mut self.trace,
                entry,
                index,
                clip,
                generate,
                stage,
                post,
            )?;
            push(&mut self.trace, input);
            self.tally.scalar_traces += 1;
        }
        Ok(())
    }

    /// The current batch, `(inputs, flat windowed traces)`.
    pub(crate) fn batch(&self) -> (&[Vec<u8>], &[f32]) {
        (&self.inputs, &self.flat)
    }

    /// Publishes the worker's locally-buffered tally to the global
    /// telemetry registry and resets it. Called at batch boundaries so
    /// the hot loop itself never touches shared atomics.
    pub(crate) fn publish_metrics(&mut self) {
        let tally = std::mem::take(&mut self.tally);
        // Published even at zero, so an export can tell "lockstep never
        // fell back" from "not instrumented".
        sca_telemetry::counter!("campaign/lockstep_traces").add(tally.lockstep_traces);
        sca_telemetry::counter!("campaign/scalar_traces").add(tally.scalar_traces);
        sca_telemetry::counter!("campaign/blocks_poisoned").add(tally.blocks_poisoned);
    }
}
