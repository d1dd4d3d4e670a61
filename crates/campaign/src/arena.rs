//! The per-worker simulator arena of the trace-generation fast path.
//!
//! Synthesizing one trace needs a staged simulator, a power recorder,
//! an f64 accumulation buffer, an expanded-sample buffer, an f32 trace
//! buffer and — at the engine layer — a batch of inputs and a flat
//! windowed-trace matrix for the sink. Before the arena existed, most
//! of these were allocated per trace (or per execution); a `--full`
//! campaign churned through millions of short-lived vectors. A
//! `SimArena` bundles all of them as worker-owned state: the sharded
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
//! tests in `tests/campaign_determinism.rs` pin reused-vs-fresh
//! byte-identity.

use rand::rngs::StdRng;

use sca_power::{BlockPowerRecorder, PowerRecorder, SynthScratch, TraceSynthesizer};
use sca_uarch::{Cpu, CpuBlock, UarchError};

use crate::engine::Window;
use crate::Lockstep;

// The scalar CPU and the lockstep block, each with its power recorder
// and a synthesis scratch and trace buffer per lane.
type Scalar = (Cpu, PowerRecorder, SynthScratch, Vec<f32>);
type Block = (
    CpuBlock,
    BlockPowerRecorder,
    Vec<SynthScratch>,
    Vec<Vec<f32>>,
);

/// A sink batch: its inputs, in index order, and its windowed traces,
/// trace-major `inputs.len() × samples` — handed to
/// [`crate::CampaignSink::absorb_batch`] directly.
type Batch = (Vec<Vec<u8>>, Vec<f32>);

/// One campaign worker's reusable state: its [`Lockstep`] simulators
/// and the current sink batch.
#[derive(Debug)]
pub(crate) struct SimArena {
    pub(crate) sims: Lockstep<Scalar, Block>,
    pub(crate) batch: Batch,
}

impl SimArena {
    /// A worker arena for `synth` with `lanes` lockstep lanes, cloning
    /// the warmed template CPU once. The recorders carry the
    /// synthesizer's leakage weights, as synthesis requires.
    pub(crate) fn new(synth: &TraceSynthesizer, template: &Cpu, lanes: usize) -> SimArena {
        let weights = synth.weights();
        let scalar = (
            template.clone(),
            PowerRecorder::new(weights.clone()),
            SynthScratch::new(),
            Vec::new(),
        );
        SimArena {
            sims: Lockstep::new(lanes, scalar, |lanes| {
                (
                    CpuBlock::from_template(template, lanes),
                    BlockPowerRecorder::new(weights.clone(), lanes),
                    vec![SynthScratch::new(); lanes],
                    vec![Vec::new(); lanes],
                )
            }),
            batch: (Vec::new(), Vec::new()),
        }
    }

    /// Synthesizes the `count` consecutive traces starting at `base`
    /// and appends each trace's `window` (zero-padded past the trace's
    /// end) and its input to the current batch, in index order, through
    /// one [`Lockstep::group`]; returns whether the block ran them. A
    /// window's clip clips the synthesis itself to the window (legal
    /// only when the post hook is a no-op — out-of-window samples are
    /// then discarded unseen), so each trace arrives holding only the
    /// window's samples.
    pub(crate) fn push_windowed_group<G, S, P>(
        &mut self,
        synth: &TraceSynthesizer,
        entry: u32,
        (base, count): (usize, usize),
        window: Window,
        (generate, stage, post): (&G, &S, &P),
    ) -> Result<bool, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        P: Fn(&mut StdRng, &mut Vec<f64>) + Sync,
    {
        let Window { samples, clip, .. } = window;
        // Where the window starts in each synthesized trace.
        let offset = if clip.is_some() { 0 } else { window.start };
        let push = |(inputs, flat): &mut Batch, trace: &mut Vec<f32>, input| {
            trace.resize(trace.len().max(offset + samples), 0.0);
            flat.extend_from_slice(&trace[offset..offset + samples]);
            inputs.push(input);
        };
        self.sims.group(
            &mut self.batch,
            (base, count),
            |(block, recorder, scratches, traces), batch| {
                let inputs = synth.synth_block_into(
                    block, recorder, scratches, traces, entry, base, count, clip, generate, stage,
                    post,
                )?;
                for (trace, input) in traces.iter_mut().zip(inputs) {
                    push(batch, trace, input);
                }
                Some(())
            },
            |(cpu, recorder, scratch, trace), batch, index| {
                let input = synth.synth_into(
                    cpu, recorder, scratch, trace, entry, index, clip, generate, stage, post,
                )?;
                push(batch, trace, input);
                Ok(())
            },
        )
    }
}
