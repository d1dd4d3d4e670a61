//! # sca-power — leakage modeling and trace synthesis
//!
//! Converts the microarchitectural activity streamed by `sca-uarch` into
//! synthetic power traces, following the leakage hypothesis of Barenghi &
//! Pelosi (DAC 2018, Section 4): power is the weighted Hamming
//! distance/weight of value transitions on pipeline buffers, measured
//! through a band-limited sampling chain with Gaussian noise, acquired as
//! averages of 16 executions per input.
//!
//! * [`LeakageWeights`] — per-component weights (register file silent,
//!   shifter at 1/10, etc.);
//! * [`PowerRecorder`]/[`ComponentPowerRecorder`] — observers integrating
//!   per-cycle power (total, or per component), one-lane instances of
//!   recorders written once for any lane count;
//! * [`SamplingConfig`] — 500 MS/s-style cycle→sample expansion;
//! * [`GaussianNoise`]/[`NoiseSource`] — measurement and environment noise;
//! * [`TraceSynthesizer`]/[`AcquisitionConfig`] — deterministic per-trace
//!   synthesis, one body for a one-lane `Cpu` and a lockstep `CpuBlock`
//!   (`sca-campaign` runs it across threads and lanes);
//! * [`TraceSet`] — a materialized trace matrix with its inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod io;
mod model;
mod noise;
mod recorder;
mod sampling;
mod synth;
mod trace;
#[doc(hidden)]
pub mod vecops;

pub use io::{read_traces, write_traces};
pub use model::LeakageWeights;
pub use noise::{GaussianNoise, NoiseSource};
pub use recorder::{
    BlockComponentPowerRecorder, BlockPowerRecorder, ComponentPowerRecorder, LaneComponentRecorder,
    LanePowerRecorder, PowerRecorder,
};
pub use sampling::{cycle_window_to_samples, SamplingConfig};
pub use synth::{
    publish_walks, simulator_runs, AcquisitionConfig, Clip, Probe, SynthScratch, TraceSynthesizer,
};
pub use trace::TraceSet;
