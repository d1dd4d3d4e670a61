//! The per-component campaign: one execution-averaged power series per
//! pipeline component and trace — the acquisition behind every
//! Table-2-style characterization.
//!
//! [`Campaign`](crate::Campaign) records what a probe sees: every
//! component's power summed into one trace. A characterization needs the
//! attribution instead — the paper ascribes "the power consumption of a
//! signal to its driving circuit" — so each trace here carries one
//! channel per requested [`NodeKind`], cropped to a cycle window and
//! noised per execution. The portfolio's `characterize_target` and the
//! Table 2 micro-benchmarks both run through this one loop, lockstep
//! lanes included.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sca_power::{
    BlockComponentPowerRecorder, ComponentPowerRecorder, GaussianNoise, LaneComponentRecorder,
    LeakageWeights, NoiseSource,
};
use sca_uarch::{Cpu, CpuBlock, LaneSim, NodeKind, SharedWalk, UarchError, MAX_LANES};

use crate::{run_sharded, Lockstep, Mergeable, ShardPlan};

/// A per-component acquisition campaign, recorded with the Cortex-A7
/// leakage weights.
///
/// Trace `t` draws its input, then its noise, from one RNG stream
/// seeded with `seed + t·0x9e37`; execution `e` of trace `t` scrambles
/// the stale node state with `seed ^ (t << 8 | e)`. Every trace starts
/// from the template, so a trace is a pure function of `(seed, t)`,
/// whichever worker or lane runs it. Its executions share one walk as
/// `Campaign`'s do ([`SharedWalk`]).
#[derive(Clone, Debug)]
pub struct ComponentCampaign<'a> {
    /// The components recorded, one channel each, in this order.
    pub components: &'a [NodeKind],
    /// `(start, len)`: each channel keeps cycles `start..start + len` of
    /// the trigger window, zero-padded past its end.
    pub window: (usize, usize),
    /// Master seed of the input, noise and scramble streams.
    pub seed: u64,
    /// Measurement noise, drawn per execution and channel.
    pub noise: GaussianNoise,
    /// Executions averaged into each trace.
    pub executions: usize,
    /// Lockstep lanes: consecutive traces simulated together through one
    /// `CpuBlock` pipeline walk (1 disables lockstep). Results are
    /// bit-identical at every setting.
    pub lanes: usize,
    /// How the trace indices are split across workers.
    pub plan: ShardPlan,
}

/// One simulator of a worker, with its recorder and its lanes'
/// per-trace buffers.
struct Sim<C, const L: usize> {
    sim: C,
    recorder: LaneComponentRecorder<L>,
    /// `lanes × components` execution-summed power.
    sums: Vec<Vec<Vec<f64>>>,
    /// One component's per-cycle power of one execution, in window
    /// coordinates.
    samples: Vec<f64>,
    /// One trace's averaged channels, as handed to the sink.
    channels: Vec<Vec<f32>>,
}

impl ComponentCampaign<'_> {
    /// Runs the campaign on clones of `template` (loaded and warmed),
    /// handing every trace to `absorb(sink, input, channels)`, where
    /// `channels[c]` is the averaged series of `components[c]`. Each
    /// worker absorbs its traces in index order into its own `sink()`,
    /// and the worker sinks merge in worker order.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn run<G, S, K, A>(
        &self,
        template: &Cpu,
        entry: u32,
        generate: G,
        stage: S,
        sink: impl Fn() -> K + Sync,
        absorb: A,
    ) -> Result<K, UarchError>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        K: Mergeable + Send,
        A: Fn(&mut K, &[u8], &[Vec<f32>]) + Sync,
    {
        let worker = || {
            let recorder = ComponentPowerRecorder::new(LeakageWeights::cortex_a7());
            Lockstep::new(
                self.lanes,
                self.sim(template.clone(), recorder, 1),
                |lanes| {
                    let recorder =
                        BlockComponentPowerRecorder::new(LeakageWeights::cortex_a7(), lanes);
                    self.sim(CpuBlock::from_template(template, lanes), recorder, lanes)
                },
            )
        };
        let closures = (&generate, &stage, &absorb);
        run_sharded(&self.plan, worker, sink, |sims, sink, range| {
            for base in range.clone().step_by(sims.lanes()) {
                let count = sims.lanes().min(range.end - base);
                sims.group(
                    sink,
                    (base, count),
                    |block, sink| {
                        self.trace_group(block, sink, (entry, base, count), closures)
                            .ok()
                    },
                    |cpu, sink, index| self.trace_group(cpu, sink, (entry, index, 1), closures),
                )?;
            }
            Ok(())
        })
    }

    /// A simulator with `lanes` lanes' buffers and a recorder that
    /// integrates only the window's cycles.
    fn sim<C, const L: usize>(
        &self,
        sim: C,
        mut recorder: LaneComponentRecorder<L>,
        lanes: usize,
    ) -> Sim<C, L> {
        let (start, len) = self.window;
        recorder.keep_cycles(Some((start, start.saturating_add(len))));
        let components = self.components.len();
        Sim {
            sim,
            recorder,
            sums: vec![vec![Vec::new(); components]; lanes],
            samples: Vec::new(),
            channels: vec![Vec::new(); components],
        }
    }

    /// Records traces `base..base + count`, one per lane of `sim`, and
    /// hands each, averaged over its executions, to the sink in index
    /// order. Each lane draws from its own per-index streams and the
    /// recorder keeps each lane's events in one-lane order, so the
    /// channels do not depend on the lane count. An execution that
    /// starts where the last walk did rescrambles that walk instead of
    /// walking. A group that does not diverge publishes its walk work,
    /// as `Campaign`'s do ([`sca_power::publish_walks`]); one that does
    /// neither publishes nor absorbs anything.
    #[inline]
    fn trace_group<C: LaneSim, const L: usize, G, S, K, A>(
        &self,
        Sim {
            sim,
            recorder,
            sums,
            samples,
            channels,
        }: &mut Sim<C, L>,
        sink: &mut K,
        (entry, base, count): (u32, usize, usize),
        (generate, stage, absorb): (&G, &S, &A),
    ) -> Result<(), C::Error>
    where
        G: Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
        S: Fn(&mut Cpu, &[u8]) + Sync,
        A: Fn(&mut K, &[u8], &[Vec<f32>]) + Sync,
    {
        let len = self.window.1;
        let executions = self.executions.max(1);
        let mut rngs: Vec<StdRng> = (base..base + count)
            .map(|t| StdRng::seed_from_u64(self.seed.wrapping_add(t as u64 * 0x9e37)))
            .collect();
        let inputs: Vec<Vec<u8>> = rngs
            .iter_mut()
            .zip(base..)
            .map(|(rng, t)| generate(rng, t))
            .collect();
        let sums = &mut sums[..count];
        for channel in sums.iter_mut().flatten() {
            channel.clear();
            channel.resize(len, 0.0);
        }
        let mut seeds = [0u64; MAX_LANES];
        let mut shared = SharedWalk::start(sim, count);
        let mut cycles = 0;
        for e in 0..executions {
            for (seed, t) in seeds[..count].iter_mut().zip(base..) {
                *seed = self.seed ^ ((t as u64) << 8 | e as u64);
            }
            sim.restart_lanes(entry, &seeds[..count]);
            for (lane, input) in inputs.iter().enumerate() {
                stage(sim.lane_cpu(lane), input);
            }
            if shared.must_walk(sim) {
                recorder.reset();
                cycles += sim.run_lanes(recorder)?.cycles * shared.walking();
                shared.walked(sim);
            } else {
                recorder.rescramble(&seeds[..count]);
            }
            for (lane, (rng, channels)) in rngs.iter_mut().zip(sums.iter_mut()).enumerate() {
                let mut noise = self.noise;
                for (&kind, channel) in self.components.iter().zip(channels) {
                    // The window's kept cycles, zero-padded past the
                    // trigger window's end.
                    recorder.windowed_power_into(lane, kind, samples);
                    samples.resize(len, 0.0);
                    noise.add_to(rng, samples);
                    for (sum, s) in channel.iter_mut().zip(&*samples) {
                        *sum += s;
                    }
                }
            }
        }
        sca_power::publish_walks((count * executions) as u64, cycles, &shared);
        let inv = 1.0 / executions as f64;
        for (input, sums) in inputs.iter().zip(&*sums) {
            for (channel, sum) in channels.iter_mut().zip(sums) {
                channel.clear();
                channel.extend(sum.iter().map(|&s| (s * inv) as f32));
            }
            absorb(sink, input, channels);
        }
        Ok(())
    }
}
