//! # sca-analysis — side-channel attack and assessment statistics
//!
//! The analysis layer of the DAC 2018 reproduction: Pearson-correlation
//! CPA (the paper's distinguisher), the Fisher-z confidence tests behind
//! its ">99.5% leakage detection" and ">99% key distinguishability"
//! criteria, plus Welch t-test (TVLA) and SNR assessments.
//!
//! * [`pearson`] / [`PearsonAccumulator`] — correlation, one-pass and
//!   mergeable;
//! * [`SelectionFunction`] / [`FnSelection`] / [`InputModel`] — attack and
//!   characterization leakage models;
//! * [`cpa_attack`] / [`CpaResult`] / [`CpaPeaks`] — the guess × sample
//!   correlation matrix, and every guess's peak with the ranking and
//!   success metrics read from it;
//! * [`CpaAccumulator`] / [`TtestAccumulator`] — streaming, shard-
//!   mergeable versions of CPA and the Welch t-test; the `sca-campaign`
//!   engine runs its CPA campaigns through [`CpaAccumulator`] in
//!   `O(guesses × samples)` memory, and [`TtestAccumulator`] offers the
//!   same one-pass contract for TVLA-style assessments;
//! * [`significance_threshold`] / [`distinguishing_confidence`] — the
//!   paper's statistical criteria;
//! * [`welch_t`] / [`snr`] — complementary leakage assessments;
//! * [`StateWriter`] / [`StateReader`] — exact bit-pattern snapshots of
//!   accumulator state (`write_state`/`load_state` on every streaming
//!   accumulator), the serialization layer under `sca-store`'s
//!   checkpoint log.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cpa;
#[doc(hidden)]
pub mod kernels;
mod metrics;
mod models;
mod pearson;
mod snapshot;
mod snr;
mod stats;
mod ttest;

pub use cpa::{cpa_attack, model_correlation, CpaAccumulator, CpaConfig, CpaPeaks, CpaResult};
pub use metrics::{estimate_traces_to_disclosure, rank_evolution, traces_to_rank0, RankPoint};
pub use models::{hd32, hw32, hw8, input_word, FnSelection, InputModel, SelectionFunction};
pub use pearson::{pearson, PearsonAccumulator};
pub use snapshot::{StateError, StateReader, StateWriter};
pub use snr::snr;
pub use stats::{
    correlation_confidence, distinguishing_confidence, fisher_z, normal_cdf, normal_quantile,
    significance_threshold, significant,
};
pub use ttest::{leaks, welch_t, TtestAccumulator, TVLA_THRESHOLD};

// Re-exported so attack code only needs this crate.
pub use sca_power::TraceSet;
