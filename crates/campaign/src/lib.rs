//! # sca-campaign — sharded, streaming side-channel campaigns
//!
//! Every experiment in this reproduction — the Figure 3/4 CPA attacks,
//! the Table 2 characterization, the ablations — is the same pipeline,
//! run by one of two engines: [`Campaign`] for single-channel traces
//! (what a probe sees) and [`ComponentCampaign`] for per-component
//! traces (one channel per pipeline component):
//!
//! ```text
//!  seed ──► per-trace RNG streams ──► simulate + synthesize ──► statistics
//!            (one per index)           (batched, sharded         (online,
//!                                       across workers)           mergeable)
//! ```
//!
//! This crate owns that pipeline. It splits a campaign's trace indices
//! into contiguous, batch-aligned shards ([`ShardPlan`]), hands each
//! shard to a worker thread that synthesizes its traces with
//! [`sca_power::TraceSynthesizer`] and folds them immediately into a
//! streaming [`CampaignSink`] (online CPA, model correlation), and
//! merges the per-worker sinks in worker order. No trace outlives its
//! batch: a 100k-trace `--full` campaign peaks at the accumulator size —
//! `O(guesses × samples)` for CPA — instead of the `O(traces × samples)`
//! matrix a [`sca_power::TraceSet`] sink keeps for callers that want
//! the materialized traces.
//!
//! ## The determinism contract
//!
//! 1. **Trace level** — trace `i` is a pure function of
//!    `(seed, i)`: its input and its noise come from an RNG stream
//!    derived from the master seed by a SplitMix64 step. Any worker can
//!    produce any trace, bit-for-bit.
//! 2. **Shard level** — the index→worker assignment is a pure function
//!    of the [`ShardPlan`] (no work stealing), and worker sinks merge in
//!    worker order. A campaign is therefore reproducible run-to-run.
//! 3. **Across thread counts** — changing `threads` only re-associates
//!    floating-point sums: accumulated statistics agree to ~1e-12, so
//!    verdicts (recovered key bytes, significance calls) and printed
//!    correlations are identical at any thread count. Changing `batch`
//!    changes nothing at all — it only bounds the transient buffer.
//!
//! ## Example
//!
//! A miniature end-to-end campaign: a kernel that loads a secret-free
//! random word (driving the memory data register), attacked with a
//! Hamming-weight model over all 256 guesses of its low byte — streamed,
//! sharded over 4 workers, and verified against the batch attack.
//!
//! ```
//! use sca_analysis::{cpa_attack, hw8, CpaConfig, FnSelection};
//! use sca_campaign::{Campaign, CampaignConfig, CpaSink};
//! use sca_isa::{assemble, Reg};
//! use sca_power::{GaussianNoise, LeakageWeights, SamplingConfig, TraceSet};
//! use sca_uarch::{Cpu, UarchConfig};
//!
//! let program = assemble(
//!     "
//!     trig #1
//!     ldr r1, [r10]
//!     nop
//!     nop
//!     nop
//!     trig #0
//!     halt
//! ",
//! )?;
//! let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
//! cpu.load(&program)?;
//! cpu.set_reg(Reg::R10, 0x800);
//!
//! let generate = |rng: &mut rand::rngs::StdRng, _| {
//!     use rand::Rng;
//!     rng.gen::<u32>().to_le_bytes().to_vec()
//! };
//! let stage = |cpu: &mut Cpu, input: &[u8]| {
//!     let word = u32::from_le_bytes([input[0], input[1], input[2], input[3]]);
//!     cpu.mem_mut().write_u32(0x800, word).unwrap();
//! };
//! let model = FnSelection::new("hw(b0 ^ k)", |input: &[u8], k: u8| {
//!     f64::from(hw8(input[0] ^ k))
//! });
//!
//! let config = CampaignConfig {
//!     traces: 40,
//!     executions_per_trace: 2,
//!     sampling: SamplingConfig::per_cycle(),
//!     noise: GaussianNoise { sd: 0.4, baseline: 0.0 },
//!     seed: 7,
//!     threads: 4,
//!     batch: 8,
//! };
//!
//! // Streaming, sharded campaign...
//! let campaign = Campaign::new(LeakageWeights::cortex_a7(), config);
//! let sink = campaign.run(
//!     &cpu,
//!     program.entry(),
//!     generate,
//!     stage,
//!     |samples| CpaSink::new(&model, 256, samples),
//! )?;
//! let streamed = sink.finish();
//!
//! // ...agrees with materializing every trace and running batch CPA.
//! let set = campaign.run(&cpu, program.entry(), generate, stage, TraceSet::new)?;
//! let batch = cpa_attack(&set, &model, &CpaConfig { guesses: 256, threads: 1 });
//! assert_eq!(streamed.best_guess(), batch.best_guess());
//! for g in 0..256 {
//!     for (s, b) in streamed.series(g).iter().zip(batch.series(g)) {
//!         assert!((s - b).abs() < 1e-12);
//!     }
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Layering
//!
//! * [`ShardPlan`] / [`run_sharded`] / [`Mergeable`] — the generic
//!   deterministic map-reduce both engines (and `sca-core`'s node audit)
//!   run on;
//! * [`Lockstep`] — one worker's simulators, a scalar one and a lockstep
//!   block, and the one step all three loops take per group: on the
//!   block until it diverges, then retired (counted in
//!   `campaign/blocks_poisoned`) and rerun item by item on the scalar
//!   simulator;
//! * [`Campaign`] / [`CampaignConfig`] — the standard power-trace
//!   campaign (probe for the window length, synthesize, crop, stream).
//!   Each worker keeps one reusable arena (its [`Lockstep`] simulators
//!   with their recorders and synthesis buffers, and the batch buffers),
//!   created once per shard, so the steady-state trace loop is
//!   allocation-free; the loop counts the lockstep/scalar trace split;
//! * [`ComponentCampaign`] — the per-component campaign of the Table 2
//!   characterization and `sca-target`'s `characterize_target`: one
//!   execution-averaged channel per requested component, handed trace
//!   by trace to a caller-supplied sink;
//! * [`CampaignSink`] / [`CpaSink`] / [`CorrSink`] / [`TtestSink`] —
//!   streaming reducers built on the mergeable accumulators in
//!   [`sca_analysis`]; `TtestSink` routes each trace into the fixed or
//!   random TVLA population by classifying its input, which is how the
//!   `masked` countermeasure campaigns run fixed-vs-random assessments
//!   through the same sharded engine; a [`sca_power::TraceSet`] sink
//!   keeps every trace, in index order;
//! * [`CropSink`] plus the `Vec<K>` sink impl — one campaign over the
//!   union of several analysis windows, fanned out into one cropped
//!   sink per analysis, bit-identical to one campaign per window.
//!
//! Nothing in this crate names a cipher: generation, staging and
//! selection functions arrive as closures/trait objects. The
//! `sca-target` crate exploits exactly that to run its whole cipher
//! portfolio (AES, SPECK64/128, PRESENT-80) through one generic
//! `TargetCampaign` wrapper — sinks and shard plans are target-agnostic
//! by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod component;
mod engine;
mod lockstep;
mod shard;
mod sink;
mod store_run;

pub use component::ComponentCampaign;
pub use engine::{Campaign, CampaignConfig, DEFAULT_LANES};
pub use lockstep::Lockstep;
pub use shard::{run_sharded, Mergeable, ShardPlan, DEFAULT_BATCH};
pub use sink::{CampaignSink, Checkpointable, CorrSink, CpaSink, CropSink, TtestSink};
pub use store_run::{
    reanalyze_store, restore_complete, CampaignError, KillPoint, StoreOptions, StoredRunReport,
};
