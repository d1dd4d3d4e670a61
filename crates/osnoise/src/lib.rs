//! # sca-osnoise — realistic operating-system measurement environments
//!
//! Reproduces the Figure 4 conditions of the DAC 2018 paper: the AES
//! victim runs as an unpinned userspace process on a loaded Ubuntu while
//! Apache serves 1000 requests/s on the second core. Three effects are
//! modeled, each contributing to the ~5x drop in correlation amplitude
//! the paper reports:
//!
//! * [`WorkloadProfile`] — additive power from a co-resident workload,
//!   profiled by actually running an Apache-like request loop on its own
//!   simulated core;
//! * [`PreemptionModel`] — scheduler time slices replacing segments of
//!   the capture with foreign activity;
//! * [`TraceJitter`] — per-execution trigger/clock misalignment;
//! * [`LinuxEnvironment`] — the composition, pluggable into
//!   `sca_campaign::Campaign::run_with`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod scheduler;
mod system;
mod workload;

pub use scheduler::{PreemptionModel, TraceJitter};
pub use system::LinuxEnvironment;
pub use workload::WorkloadProfile;
