//! # sca-core — the paper's methodology, executable
//!
//! The primary contribution of *"Side-channel security of superscalar
//! CPUs"* (Barenghi & Pelosi, DAC 2018) is a method: infer the
//! microarchitecture of a CPU from timing, characterize the side-channel
//! leakage of each pipeline component, and use the resulting model to
//! attack (or audit) software. This crate implements all three steps
//! against the simulated core in [`sca_uarch`]:
//!
//! * [`CpiBenchmark`] / [`measure_cpi`] — the Section 3.2 CPI
//!   micro-benchmarks (200 instruction pairs framed by 100 `nop`s,
//!   nop-calibrated);
//! * [`DualIssueMap`] — the measured Table 1 dual-issue matrix;
//! * [`PipelineHypothesis`] — the Figure 2 deduction chain (number of
//!   ALUs, shifter placement, RF ports, unit pipelining, fetch width);
//! * [`table2_benchmarks`] / [`characterize`] — the seven Table 2 leakage
//!   benchmarks with per-component model expressions and >99.5%
//!   Fisher-z significance verdicts;
//! * [`audit_program`] — the leakage audit for arbitrary assembly that
//!   the paper proposes integrating into development toolchains;
//! * [`audit_cipher_target`] — the same audit wired generically to the
//!   `sca-target` cipher portfolio (models at the true key become the
//!   secret expressions; the target's window resolves the cycle span);
//! * [`masking_scenarios`] — the Section 4.2 share-recombination
//!   schedules (vulnerable, spacer-hardened, operand-swapped, and the
//!   `sca-sched` rewriter outputs), shared by the `masking_audit`
//!   example and the integration tests that enforce its findings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
mod cpi;
mod infer;
mod leakchar;
mod scenarios;
mod targets;

pub use audit::{audit_program, AuditConfig, AuditError, AuditReport, Finding, SecretModel};
pub use cpi::{
    insn_of_class, measure_cpi, stage_cpi_registers, CpiBenchmark, CpiMeasurement, LDST_BASE_A,
    LDST_BASE_B, LDST_SCRATCH,
};
pub use infer::{DualIssueMap, PipelineHypothesis};
pub use leakchar::{
    characterize, run_benchmark, table2_benchmarks, CellResult, CharacterizationConfig,
    Expectation, LeakBenchmark, ModelSpec, RowResult, Table2Report, PAD_NOPS,
};
pub use scenarios::{
    audit_scenario, masking_scenarios, operand_path_leaks, share_models, stage_shares,
    MaskingScenario,
};
pub use targets::{audit_cipher_target, leak_paths};
