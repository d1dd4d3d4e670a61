//! The probe suite of a traced run: fixed, small calls into the
//! `uarch`, `power`, `analysis` and `store` entry points, timed from
//! outside.
//!
//! Per-call costs (ns per simulated cycle, per sample, per cell, per
//! store slot) come from here, normalized by the work each call did, so
//! they compare across workloads and machines' runs of the same code.

use std::error::Error;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sca_analysis::{CpaAccumulator, TtestAccumulator};
use sca_power::{
    AcquisitionConfig, BlockPowerRecorder, GaussianNoise, LeakageWeights, PowerRecorder,
    SamplingConfig, SynthScratch, TraceSynthesizer,
};
use sca_store::{CorpusKey, StoreError, StoreMeta, TraceStore};
use sca_target::CipherTarget;
use sca_uarch::{BlockObserver, Cpu, CpuBlock, NullObserver, MAX_LANES};

use crate::trace::span;
use crate::{pool, stats, Metric, Options, Setup};

/// A block observer that ignores everything: the bare lockstep walk.
struct NullBlockObserver;

impl BlockObserver for NullBlockObserver {}

/// Runs the whole suite, returning its normalized per-call costs.
///
/// # Errors
///
/// Simulator and store faults.
pub fn run(setup: &Setup, opts: &Options) -> Result<Vec<Metric>, Box<dyn Error>> {
    let executions = if opts.smoke { 8 } else { 48 };
    let mut metrics = pipeline(setup, executions)?;
    metrics.extend(analysis(if opts.smoke { 4 } else { 64 }));
    let root = crate::corpus::prepare("probe")?;
    metrics.extend(store(
        &root.join("store"),
        if opts.smoke { 64 } else { 1024 },
    )?);
    std::fs::remove_dir_all(&root)?;
    Ok(metrics)
}

/// Walk, power integration and synthesis costs, scalar and lockstep,
/// over `executions` executions of every target; the median of three
/// repetitions.
fn pipeline(setup: &Setup, executions: usize) -> Result<Vec<Metric>, Box<dyn Error>> {
    let mut samples: [Vec<f64>; 6] = Default::default();
    for _ in 0..3 {
        let mut scalar = Costs::default();
        let mut block = Costs::default();
        for prepared in &setup.targets {
            let target = prepared.target.as_ref();
            scalar.add(&scalar_costs(target, &prepared.cpu, executions)?);
            block.add(&block_costs(target, &prepared.cpu, executions)?);
        }
        for (i, value) in scalar
            .per_unit()
            .into_iter()
            .chain(block.per_unit())
            .enumerate()
        {
            samples[i].push(value);
        }
    }
    let names = [
        "uarch.walk_ns_per_cycle.scalar",
        "power.integrate_ns_per_cycle.scalar",
        "power.synth_ns_per_sample.scalar",
        "uarch.walk_ns_per_cycle.block",
        "power.integrate_ns_per_cycle.block",
        "power.synth_ns_per_sample.block",
    ];
    Ok(names
        .iter()
        .zip(&samples)
        .map(|(name, values)| Metric::new(*name, stats::median(values), "ns"))
        .collect())
}

/// Seconds and work of the three pipeline probes.
#[derive(Default)]
struct Costs {
    walk_s: f64,
    record_s: f64,
    synth_s: f64,
    /// Simulated cycles (lane-cycles for the block path) of each probe.
    cycles: u64,
    /// Samples synthesized.
    samples: u64,
}

impl Costs {
    fn add(&mut self, other: &Costs) {
        self.walk_s += other.walk_s;
        self.record_s += other.record_s;
        self.synth_s += other.synth_s;
        self.cycles += other.cycles;
        self.samples += other.samples;
    }

    /// Walk ns/cycle, integration ns/cycle (recorder run minus bare
    /// walk) and synthesis ns/sample (full synthesis minus recorder run).
    fn per_unit(&self) -> [f64; 3] {
        let cycles = self.cycles as f64;
        [
            self.walk_s * 1e9 / cycles,
            (self.record_s - self.walk_s) * 1e9 / cycles,
            (self.synth_s - self.record_s) * 1e9 / self.samples as f64,
        ]
    }
}

fn synthesizer(executions: usize) -> TraceSynthesizer {
    TraceSynthesizer::new(
        LeakageWeights::cortex_a7(),
        AcquisitionConfig {
            traces: executions,
            executions_per_trace: 1,
            sampling: SamplingConfig::picoscope_500msps_120mhz(),
            noise: GaussianNoise::bare_metal(),
            seed: 0x9e0b,
            threads: 1,
        },
    )
}

fn inputs(target: &dyn CipherTarget, count: usize) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(0x1a7e);
    (0..count).map(|i| target.generate(&mut rng, i)).collect()
}

fn scalar_costs(
    target: &dyn CipherTarget,
    template: &Cpu,
    n: usize,
) -> Result<Costs, Box<dyn Error>> {
    let entry = target.program().entry();
    let inputs = inputs(target, n);
    let mut cpu = template.clone();
    let mut costs = Costs::default();

    let start = Instant::now();
    span("uarch.walk", || -> Result<(), Box<dyn Error>> {
        for (i, input) in inputs.iter().enumerate() {
            cpu.restart_seeded(entry, i as u64);
            target.stage(&mut cpu, input);
            costs.cycles += cpu.run(&mut NullObserver)?.cycles;
        }
        Ok(())
    })?;
    costs.walk_s = start.elapsed().as_secs_f64();

    let mut recorder = PowerRecorder::new(LeakageWeights::cortex_a7());
    let start = Instant::now();
    span("power.integrate", || -> Result<(), Box<dyn Error>> {
        for (i, input) in inputs.iter().enumerate() {
            cpu.restart_seeded(entry, i as u64);
            target.stage(&mut cpu, input);
            recorder.reset();
            cpu.run(&mut recorder)?;
        }
        Ok(())
    })?;
    costs.record_s = start.elapsed().as_secs_f64();

    let synth = synthesizer(n);
    let mut scratch = SynthScratch::new();
    let mut trace = Vec::new();
    let start = Instant::now();
    span("power.synth", || -> Result<(), Box<dyn Error>> {
        for i in 0..n {
            synth.synth_into(
                &mut cpu,
                &mut recorder,
                &mut scratch,
                &mut trace,
                entry,
                i,
                None,
                &|rng: &mut StdRng, index| target.generate(rng, index),
                &|cpu: &mut Cpu, input: &[u8]| target.stage(cpu, input),
                &|_: &mut StdRng, _: &mut Vec<f64>| {},
            )?;
            costs.samples += trace.len() as u64;
        }
        Ok(())
    })?;
    costs.synth_s = start.elapsed().as_secs_f64();
    Ok(costs)
}

fn block_costs(
    target: &dyn CipherTarget,
    template: &Cpu,
    n: usize,
) -> Result<Costs, Box<dyn Error>> {
    let entry = target.program().entry();
    let inputs = inputs(target, n);
    let mut block = CpuBlock::from_template(template, MAX_LANES);
    let mut costs = Costs::default();
    let groups: Vec<&[Vec<u8>]> = inputs.chunks_exact(MAX_LANES).collect();
    let seeds: Vec<u64> = (0..MAX_LANES as u64).collect();
    let restart = |block: &mut CpuBlock, group: &[Vec<u8>]| {
        block.restart_seeded(entry, &seeds);
        for (lane, input) in group.iter().enumerate() {
            target.stage(block.lane_mut(lane), input);
        }
    };

    let start = Instant::now();
    span("uarch.walk", || -> Result<(), Box<dyn Error>> {
        for group in &groups {
            restart(&mut block, group);
            let stats = block.run(&mut NullBlockObserver)?;
            costs.cycles += stats.cycles * MAX_LANES as u64;
        }
        Ok(())
    })?;
    costs.walk_s = start.elapsed().as_secs_f64();

    let mut recorder = BlockPowerRecorder::new(LeakageWeights::cortex_a7(), MAX_LANES);
    let start = Instant::now();
    span("power.integrate", || -> Result<(), Box<dyn Error>> {
        for group in &groups {
            restart(&mut block, group);
            recorder.reset();
            block.run(&mut recorder)?;
        }
        Ok(())
    })?;
    costs.record_s = start.elapsed().as_secs_f64();

    let synth = synthesizer(n);
    let mut scratches = vec![SynthScratch::new(); MAX_LANES];
    let mut traces = vec![Vec::new(); MAX_LANES];
    let start = Instant::now();
    span("power.synth", || -> Result<(), Box<dyn Error>> {
        for g in 0..groups.len() {
            synth
                .synth_block_into(
                    &mut block,
                    &mut recorder,
                    &mut scratches,
                    &mut traces,
                    entry,
                    g * MAX_LANES,
                    MAX_LANES,
                    None,
                    &|rng: &mut StdRng, index| target.generate(rng, index),
                    &|cpu: &mut Cpu, input: &[u8]| target.stage(cpu, input),
                    &|_: &mut StdRng, _: &mut Vec<f64>| {},
                )
                .ok_or("lockstep divergence in the synthesis probe")?;
            costs.samples += traces.iter().map(|t| t.len() as u64).sum::<u64>();
        }
        Ok(())
    })?;
    costs.synth_s = start.elapsed().as_secs_f64();
    Ok(costs)
}

/// CPA absorb cost per (trace, guess, sample) cell and t-test cost per
/// sample, over `batches` batches of 32 traces of 400 samples.
fn analysis(batches: usize) -> Vec<Metric> {
    const GUESSES: usize = 256;
    const SAMPLES: usize = 400;
    const BATCH: usize = 32;
    let mut state = 0x5eed_u64;
    let mut next = || {
        state = pool::splitmix64(state);
        (state >> 40) as f64 / (1u64 << 24) as f64
    };
    let predictions: Vec<f64> = (0..BATCH * GUESSES).map(|_| next() * 8.0).collect();
    let traces: Vec<f32> = (0..BATCH * SAMPLES).map(|_| next() as f32).collect();

    let mut cpa = CpaAccumulator::new(GUESSES, SAMPLES);
    let start = Instant::now();
    span("analysis.absorb", || {
        for _ in 0..batches {
            cpa.absorb_batch(&predictions, &traces);
        }
    });
    let cells = (batches * BATCH * GUESSES * SAMPLES) as f64;
    let absorb = start.elapsed().as_secs_f64() * 1e9 / cells;
    std::hint::black_box(cpa.len());

    let mut ttest = TtestAccumulator::new(SAMPLES);
    let start = Instant::now();
    span("analysis.ttest", || {
        for _ in 0..batches {
            for (i, trace) in traces.chunks_exact(SAMPLES).enumerate() {
                if i % 2 == 0 {
                    ttest.add_fixed(trace);
                } else {
                    ttest.add_random(trace);
                }
            }
        }
    });
    let ttest_ns = start.elapsed().as_secs_f64() * 1e9 / (batches * BATCH * SAMPLES) as f64;
    std::hint::black_box(ttest.counts());
    vec![
        Metric::new("analysis.cpa_absorb_ns_per_cell", absorb, "ns"),
        Metric::new("analysis.ttest_ns_per_sample", ttest_ns, "ns"),
    ]
}

/// Append, checkpoint and stream costs of a fresh store of `slots`
/// traces of 400 samples.
fn store(dir: &Path, slots: u64) -> Result<Vec<Metric>, Box<dyn Error>> {
    const SAMPLES: usize = 400;
    let meta = StoreMeta {
        key: CorpusKey {
            label: "probe".to_owned(),
            seed: 1,
            noise_sd_bits: 1.0f64.to_bits(),
            noise_baseline_bits: 0.0f64.to_bits(),
            executions_per_trace: 1,
        },
        window_start: 0,
        samples: SAMPLES as u64,
        window_cycles: 100,
        total_traces: slots,
        input_len: 16,
        page_capacity: 0,
    };
    let store = TraceStore::create(dir, meta)?;
    let trace: Vec<f32> = (0..SAMPLES).map(|s| s as f32 * 0.25).collect();
    let start = Instant::now();
    span("store.append", || -> Result<(), StoreError> {
        for index in 0..slots {
            store.append(index, &index.to_le_bytes().repeat(2), &trace)?;
        }
        Ok(())
    })?;
    let append_us = start.elapsed().as_secs_f64() * 1e6 / slots as f64;

    let state = vec![0x5a_u8; 64 << 10];
    let mut checkpoints = Vec::new();
    for tag in 0..4 {
        let start = Instant::now();
        span("store.checkpoint", || {
            store.checkpoint(slots, tag, state.clone())
        })?;
        checkpoints.push(start.elapsed().as_secs_f64());
    }
    drop(store);

    let store = TraceStore::open_any(dir)?;
    let start = Instant::now();
    span("store.stream", || {
        store.stream::<StoreError>(0..slots, |_, input, samples| {
            std::hint::black_box((input, samples));
            Ok(())
        })
    })?;
    let stream_us = start.elapsed().as_secs_f64() * 1e6 / slots as f64;
    Ok(vec![
        Metric::new("store.append_us_per_slot", append_us, "us"),
        Metric::new("store.stream_us_per_slot", stream_us, "us"),
        Metric::new("store.checkpoint_s", stats::median(&checkpoints), "s"),
    ])
}
