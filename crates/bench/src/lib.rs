//! # sca-bench — experiment drivers and regeneration harness
//!
//! One driver per table/figure of the paper, shared between the
//! regeneration binaries (`cargo run -p sca-bench --bin table1` etc.) and
//! the Criterion benches. Each driver returns a structured result so
//! integration tests can assert the paper's qualitative findings — who
//! leaks, where, and whether the attacks succeed.
//!
//! The trace-driven experiments (`figure3`, `figure4`, and — via
//! `sca-core` — `table2`/`ablation`) all acquire through the
//! `sca-campaign` streaming engine, so campaigns run in accumulator-
//! bounded memory and scale across `--threads` without changing
//! verdicts. [`CommonArgs`] wires
//! `--traces/--seed/--threads/--batch/--full` into the engine and
//! rejects anything it does not recognize.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod figure3;
pub mod figure4;
pub mod masked;
pub mod plot;
pub mod portfolio;

pub use args::{validate_lanes, write_total_timing, CommonArgs};
pub use figure3::{run_figure3, Figure3Config, Figure3Result, PhaseRegion};
pub use figure4::{run_figure4, Figure4Config, Figure4Result};
pub use masked::{
    masked_sched_target, run_masked, AblationRow, AuditSummary, MaskedConfig, MaskedResult,
    TargetResult,
};
pub use portfolio::{
    run_portfolio, run_portfolio_reanalyze, PhaseTiming, PortfolioConfig, PortfolioResult,
    PortfolioStoreConfig, ReanalyzeReport, TargetReport,
};
