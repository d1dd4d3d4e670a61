//! Table-2-style per-component characterization of a cipher target.
//!
//! The paper's Table 2 characterizes each pipeline component against
//! per-kernel model expressions; this module does the same against a
//! *cipher*: the target's attack models, evaluated at the true key,
//! are correlated against each component's own power sub-trace inside
//! the target's analysis window, and each `(component, model)` cell
//! gets a RED/black verdict at the configured Fisher-z confidence —
//! exactly the characterization step the paper runs before mounting an
//! attack, generalized over the portfolio.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sca_analysis::{significance_threshold, PearsonAccumulator};
use sca_campaign::{run_sharded, Mergeable, ShardPlan};
use sca_power::{
    BlockComponentPowerRecorder, ComponentPowerRecorder, GaussianNoise, LeakageWeights, NoiseSource,
};
use sca_uarch::{Cpu, CpuBlock, NodeKind, UarchError};

use crate::{resolve_window, CipherTarget, TargetCampaignConfig, TargetError, TargetModel};

/// The components characterized — Table 2's seven columns.
pub const CHARZ_COMPONENTS: [NodeKind; 7] = [
    NodeKind::RegisterFile,
    NodeKind::IsExBuffer,
    NodeKind::ShiftBuffer,
    NodeKind::Alu,
    NodeKind::ExWbBuffer,
    NodeKind::Mdr,
    NodeKind::AlignBuffer,
];

/// One `(component, model)` cell.
#[derive(Clone, Debug)]
pub struct NodeCharacterization {
    /// The pipeline component.
    pub component: NodeKind,
    /// Peak |correlation| inside the window.
    pub peak_corr: f64,
    /// RED (significant) or black.
    pub significant: bool,
}

/// One model's characterization row across all components.
#[derive(Clone, Debug)]
pub struct TargetCharacterization {
    /// The model (evaluated at the true key).
    pub model: String,
    /// Traces used.
    pub traces: usize,
    /// Detection confidence.
    pub confidence: f64,
    /// Per-component cells, in [`CHARZ_COMPONENTS`] order.
    pub cells: Vec<NodeCharacterization>,
}

impl TargetCharacterization {
    /// The compact RED/black verdict line the portfolio binary prints
    /// and the regression tests pin.
    pub fn verdict_line(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{}={}",
                    match c.component {
                        NodeKind::RegisterFile => "RF",
                        NodeKind::IsExBuffer => "ISEX",
                        NodeKind::ShiftBuffer => "SHIFT",
                        NodeKind::Alu => "ALU",
                        NodeKind::ExWbBuffer => "EXWB",
                        NodeKind::Mdr => "MDR",
                        NodeKind::AlignBuffer => "ALIGN",
                        NodeKind::FetchPath => "FETCH",
                    },
                    if c.significant { "RED" } else { "black" }
                )
            })
            .collect();
        format!("{}: {}", self.model, cells.join(" "))
    }
}

struct CharzSink {
    /// `models × components` Pearson accumulators.
    accs: Vec<Vec<PearsonAccumulator>>,
}

/// One characterization worker's reusable state — the multi-channel
/// analog of `sca_campaign::SimArena`: a staged CPU clone, a
/// per-component power recorder, and the per-trace scratch buffers, all
/// created once per shard and reused across its index range.
struct CharzWorker {
    cpu: Cpu,
    recorder: ComponentPowerRecorder,
    /// Lockstep group state; `None` at one lane, or permanently after a
    /// divergence (same poison policy as `sca_campaign::SimArena`).
    block: Option<CharzBlock>,
    /// Per-component execution-averaged power (f64, one per component).
    accumulated: Vec<Vec<f64>>,
    /// One component's windowed per-cycle power.
    samples: Vec<f64>,
    /// The same, cropped to the analysis window and noised.
    cropped: Vec<f64>,
    /// Per-component averaged f32 channels handed to the accumulators.
    channels: Vec<Vec<f32>>,
}

/// The lockstep counterpart of the scalar worker fields: a `CpuBlock`
/// stepping up to `lanes` characterization traces together, a per-lane
/// per-component recorder, and per-lane accumulation buffers.
struct CharzBlock {
    block: CpuBlock,
    recorder: BlockComponentPowerRecorder,
    /// `lanes × components` execution-averaged power.
    accumulated: Vec<Vec<Vec<f64>>>,
}

impl CharzWorker {
    fn new(template: &Cpu, components: usize, lanes: usize) -> CharzWorker {
        CharzWorker {
            cpu: template.clone(),
            recorder: ComponentPowerRecorder::new(LeakageWeights::cortex_a7()),
            block: (lanes > 1).then(|| CharzBlock {
                block: CpuBlock::from_template(template, lanes),
                recorder: BlockComponentPowerRecorder::new(LeakageWeights::cortex_a7(), lanes),
                accumulated: vec![vec![Vec::new(); components]; lanes],
            }),
            accumulated: vec![Vec::new(); components],
            samples: Vec::new(),
            cropped: Vec::new(),
            channels: vec![Vec::new(); components],
        }
    }
}

impl Mergeable for CharzSink {
    fn merge(&mut self, other: CharzSink) {
        for (row, theirs) in self.accs.iter_mut().zip(&other.accs) {
            for (acc, that) in row.iter_mut().zip(theirs) {
                acc.merge(that);
            }
        }
    }
}

/// Runs one lockstep group of `count` characterization traces starting
/// at index `base` through the worker's `CpuBlock`, absorbing each
/// lane's channels into the sink in trace-index order.
///
/// Every lane computes exactly what the scalar path computes for its
/// index — same RNG streams, same noise draw order, same `f64`
/// accumulation order — so the result is bit-identical. Returns
/// `Ok(false)` on cross-lane divergence *before* touching the sink, so
/// the caller can re-run the group on the scalar path.
#[allow(clippy::too_many_arguments)]
fn charz_block_group(
    worker: &mut CharzWorker,
    sink: &mut CharzSink,
    target: &dyn CipherTarget,
    models: &[TargetModel],
    entry: u32,
    seed: u64,
    noise: GaussianNoise,
    executions: usize,
    start: usize,
    len: usize,
    base: usize,
    count: usize,
) -> Result<bool, UarchError> {
    let Some(blk) = worker.block.as_mut() else {
        return Ok(false);
    };
    debug_assert!(count > 1 && count <= blk.block.max_lanes());
    let mut rngs: Vec<StdRng> = (0..count)
        .map(|l| StdRng::seed_from_u64(seed.wrapping_add((base + l) as u64 * 0x9e37)))
        .collect();
    let inputs: Vec<Vec<u8>> = rngs
        .iter_mut()
        .enumerate()
        .map(|(l, rng)| target.generate(rng, base + l))
        .collect();
    for lane in 0..count {
        for channel in &mut blk.accumulated[lane] {
            channel.clear();
            channel.resize(len, 0.0);
        }
    }
    let mut seeds = [0u64; sca_uarch::MAX_LANES];
    for e in 0..executions {
        for (l, s) in seeds[..count].iter_mut().enumerate() {
            *s = seed ^ (((base + l) as u64) << 8 | e as u64);
        }
        blk.block.restart_seeded(entry, &seeds[..count]);
        for (l, input) in inputs.iter().enumerate() {
            target.stage(blk.block.lane_mut(l), input);
        }
        blk.recorder.reset();
        if blk.block.run(&mut blk.recorder).is_err() {
            return Ok(false);
        }
        for (l, rng) in rngs.iter_mut().enumerate() {
            let mut gauss = noise;
            for (c, &kind) in CHARZ_COMPONENTS.iter().enumerate() {
                blk.recorder
                    .windowed_power_into(l, kind, &mut worker.samples);
                worker.samples.resize(start + len, 0.0);
                worker.cropped.clear();
                worker
                    .cropped
                    .extend_from_slice(&worker.samples[start..start + len]);
                gauss.add_to(rng, &mut worker.cropped);
                for (a, s) in blk.accumulated[l][c].iter_mut().zip(&worker.cropped) {
                    *a += s;
                }
            }
        }
    }
    let inv = 1.0 / executions as f64;
    for (l, input) in inputs.iter().enumerate() {
        for (channel, accumulated) in worker.channels.iter_mut().zip(&blk.accumulated[l]) {
            channel.clear();
            channel.extend(accumulated.iter().map(|&s| (s * inv) as f32));
        }
        for (model, row) in models.iter().zip(&mut sink.accs) {
            let prediction = model.predict_true(input);
            for (acc, channel) in row.iter_mut().zip(&worker.channels) {
                acc.add(prediction, channel);
            }
        }
    }
    Ok(true)
}

/// Characterizes a target's models against every pipeline component.
///
/// One sharded acquisition serves every `(model, component)` cell:
/// each trace records one power sub-trace per component (averaged over
/// the configured executions, with per-execution noise), cropped to
/// the target's primary window, and folds into per-cell Pearson
/// accumulators — the leakage-characterization analog of the CPA
/// campaigns, and deterministic under the same contract.
///
/// # Errors
///
/// Propagates simulator faults, and window misconfiguration as
/// [`TargetError::Window`].
pub fn characterize_target(
    target: &dyn CipherTarget,
    cpu: &Cpu,
    models: &[TargetModel],
    config: &TargetCampaignConfig,
    confidence: f64,
) -> Result<Vec<TargetCharacterization>, TargetError> {
    let window = resolve_window(target, cpu, &target.primary_window())?;
    // The characterization records per-cycle power (one sample per
    // cycle), so the shared end-exclusive conversion is the identity
    // here — but it keeps this crop on the same rounding contract as
    // the campaign engine's sample-rate expansion.
    let (start, len) = sca_power::cycle_window_to_samples(
        1.0,
        window.trigger_relative.0,
        window.trigger_relative.1,
    );

    let plan = ShardPlan {
        items: config.traces,
        threads: config.threads.max(1),
        batch: config.batch.max(1),
    };
    let entry = target.program().entry();
    let seed = config.seed ^ 0xc4a12;
    let noise = config.noise;
    let executions = config.executions_per_trace.max(1);
    let lanes = config.lanes.clamp(1, sca_uarch::MAX_LANES);
    let sink = run_sharded(
        &plan,
        || CharzWorker::new(cpu, CHARZ_COMPONENTS.len(), lanes),
        || CharzSink {
            accs: models
                .iter()
                .map(|_| {
                    CHARZ_COMPONENTS
                        .iter()
                        .map(|_| PearsonAccumulator::new(len))
                        .collect()
                })
                .collect(),
        },
        |worker, sink, range| {
            let mut t = range.start;
            while t < range.end {
                let width = worker.block.as_ref().map_or(1, |b| b.block.max_lanes());
                let group = width.min(range.end - t);
                if group > 1 {
                    if charz_block_group(
                        worker, sink, target, models, entry, seed, noise, executions, start, len,
                        t, group,
                    )? {
                        t += group;
                        continue;
                    }
                    // Divergence: poison the block for this worker and
                    // re-run the whole group on the self-contained
                    // scalar path (nothing was absorbed yet).
                    worker.block = None;
                }
                for i in t..t + group {
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64 * 0x9e37));
                    let input = target.generate(&mut rng, i);
                    for channel in &mut worker.accumulated {
                        channel.clear();
                        channel.resize(len, 0.0);
                    }
                    for e in 0..executions {
                        worker
                            .cpu
                            .restart_seeded(entry, seed ^ ((i as u64) << 8 | e as u64));
                        target.stage(&mut worker.cpu, &input);
                        worker.recorder.reset();
                        worker.cpu.run(&mut worker.recorder)?;
                        let mut gauss = noise;
                        for (c, &kind) in CHARZ_COMPONENTS.iter().enumerate() {
                            worker
                                .recorder
                                .windowed_power_into(0, kind, &mut worker.samples);
                            worker.samples.resize(start + len, 0.0);
                            worker.cropped.clear();
                            worker
                                .cropped
                                .extend_from_slice(&worker.samples[start..start + len]);
                            gauss.add_to(&mut rng, &mut worker.cropped);
                            for (a, s) in worker.accumulated[c].iter_mut().zip(&worker.cropped) {
                                *a += s;
                            }
                        }
                    }
                    let inv = 1.0 / executions as f64;
                    for (channel, accumulated) in
                        worker.channels.iter_mut().zip(&worker.accumulated)
                    {
                        channel.clear();
                        channel.extend(accumulated.iter().map(|&s| (s * inv) as f32));
                    }
                    for (model, row) in models.iter().zip(&mut sink.accs) {
                        let prediction = model.predict_true(&input);
                        for (acc, channel) in row.iter_mut().zip(&worker.channels) {
                            acc.add(prediction, channel);
                        }
                    }
                }
                t += group;
            }
            Ok::<(), UarchError>(())
        },
    )?;

    // Bonferroni over the window keeps the per-cell false-positive rate
    // at (1 - confidence).
    let corrected = 1.0 - (1.0 - confidence) / len.max(1) as f64;
    let threshold = significance_threshold(config.traces as u64, corrected);
    Ok(models
        .iter()
        .zip(&sink.accs)
        .map(|(model, row)| TargetCharacterization {
            model: model.name.clone(),
            traces: config.traces,
            confidence,
            cells: CHARZ_COMPONENTS
                .iter()
                .zip(row)
                .map(|(&component, acc)| {
                    let peak = acc
                        .correlations()
                        .iter()
                        .map(|c| c.abs())
                        .fold(0.0, f64::max);
                    NodeCharacterization {
                        component,
                        peak_corr: peak,
                        significant: peak >= threshold,
                    }
                })
                .collect(),
        })
        .collect())
}
