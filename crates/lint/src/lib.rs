//! # sca-lint — static leakage analysis for `sca-isa` programs
//!
//! The paper's central claim is that side-channel leakage on a
//! superscalar core is decided by microarchitectural features the ISA
//! hides: operand buses and IS/EX buffers rewritten by consecutively
//! issued instructions, dual-issue pairing, the write-back path, and
//! the LSU's memory-data register and align buffer. The rest of this
//! workspace *measures* those effects by simulating millions of traces
//! and running CPA/TVLA over them; this crate *predicts* them from the
//! program text alone — a pre-silicon assessment tool in the spirit of
//! the dynamic pipeline, and validated against it.
//!
//! ## Architecture
//!
//! Two passes share one taint domain ([`Taint`]):
//!
//! * the **concrete-path taint machine** (`exec`) executes the
//!   target's canonical staged input with the same semantics tables as
//!   the reference interpreter, shadowing every register, flag and
//!   memory byte with labels — secret bytes, input bytes, and an
//!   *exact linear model of Boolean masking* that reproduces mask
//!   cancellation (`HD(a ^ m, b ^ m) = HD(a, b)`) algebraically. It
//!   evaluates the pairwise leak-node rules `SL101`–`SL107` at every
//!   sharing point, joining findings across loop revisits;
//! * the **CFG pass** ([`cfg`]) runs a classic any-path forward
//!   dataflow fixed point for the control/addressing rules
//!   `SL108`/`SL109`.
//!
//! Targets describe their staging and labels with a [`LintSpec`]
//! (wired through `sca-target`'s `CipherTarget::lint_spec`), and the
//! scheduler verifies its own output with [`schedule`]. The
//! `lint_differential` test at the workspace root joins this crate's
//! predictions against the dynamic Table-2 characterization — every
//! dynamically RED cell on the unprotected targets must be covered by
//! a diagnostic of the matching rule class, and the scheduled masked
//! AES must lint clean.
//!
//! ```
//! use sca_isa::assemble;
//! use sca_lint::{lint_program, LintRegion, LintSpec, RegionKind};
//!
//! // An unmasked table lookup of key ^ plaintext, stored twice in a
//! // row: the paper's consecutive-store leak, found statically.
//! let program = assemble("
//!     mov   r1, #0x100
//!     ldrb  r2, [r1]         ; key byte
//!     mov   r1, #0x200
//!     ldrb  r3, [r1]         ; plaintext byte
//!     eor   r2, r2, r3
//!     mov   r4, #0x300
//!     ldrb  r5, [r4, r2]     ; S-box lookup
//!     mov   r6, #0x400
//!     strb  r2, [r6], #1
//!     strb  r5, [r6], #1     ; back-to-back stores
//!     halt
//! ")?;
//! let spec = LintSpec {
//!     regions: vec![
//!         LintRegion { name: "K".into(), addr: 0x100, len: 1, kind: RegionKind::Secret },
//!         LintRegion { name: "PT".into(), addr: 0x200, len: 1, kind: RegionKind::Input },
//!     ],
//!     ..LintSpec::default()
//! };
//! let report = lint_program(&program, &spec)?;
//! assert!(!report.is_clean());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cfg;
mod exec;
mod report;
mod rules;
pub mod schedule;
mod spec;
mod taint;

pub use report::{Diagnostic, LintReport};
pub use rules::{Rule, Severity};
pub use spec::{LintRegion, LintSpec, RegionKind, ReleaseSpan};
pub use taint::Taint;

use sca_isa::Program;

/// Why the linter could not analyze a program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LintError {
    /// No decodable instruction at the concrete path's PC.
    BadInstruction(u32),
    /// Staging or a data access fell outside the configured memory.
    BadAddress(u32),
    /// The concrete pass hit its step budget before `halt`.
    StepBudgetExceeded(u64),
    /// A release span names a symbol the program lacks.
    MissingSymbol(String),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::BadInstruction(addr) => {
                write!(f, "no decodable instruction at {addr:#x}")
            }
            LintError::BadAddress(addr) => write!(f, "access out of range at {addr:#x}"),
            LintError::StepBudgetExceeded(steps) => write!(f, "no halt within {steps} steps"),
            LintError::MissingSymbol(sym) => {
                write!(f, "release span names unknown symbol `{sym}`")
            }
        }
    }
}

impl std::error::Error for LintError {}

/// Lints a program against a spec: runs the concrete-path taint
/// machine and the CFG fixed point, and merges their findings into one
/// deterministic report.
///
/// # Errors
///
/// Propagates [`LintError`] from either pass (bad staging, undecodable
/// concrete path, step budget, unresolved release symbols).
pub fn lint_program(program: &Program, spec: &LintSpec) -> Result<LintReport, LintError> {
    let mut machine = exec::TaintMachine::new(program, spec)?;
    let mut findings = machine.run(spec, spec.step_budget())?;
    findings.extend(cfg::analyze(program, spec)?);
    Ok(LintReport::from_findings(findings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sca_isa::assemble;

    fn kp_spec() -> LintSpec {
        LintSpec {
            regions: vec![
                LintRegion {
                    name: "K".into(),
                    addr: 0x100,
                    len: 2,
                    kind: RegionKind::Secret,
                },
                LintRegion {
                    name: "PT".into(),
                    addr: 0x200,
                    len: 2,
                    kind: RegionKind::Input,
                },
            ],
            mem_init: vec![(0x100, vec![0x2b, 0x7e]), (0x200, vec![0x32, 0x43])],
            ..LintSpec::default()
        }
    }

    #[test]
    fn consecutive_exposed_stores_fire_align_and_mdr_rules() {
        let program = assemble(
            "
        mov   r1, #0x100
        ldrb  r2, [r1]
        ldrb  r4, [r1, #1]
        mov   r1, #0x200
        ldrb  r3, [r1]
        ldrb  r5, [r1, #1]
        eor   r2, r2, r3
        eor   r4, r4, r5
        mov   r6, #0x400
        strb  r2, [r6], #1
        strb  r4, [r6], #1
        halt
        ",
        )
        .unwrap();
        let report = lint_program(&program, &kp_spec()).unwrap();
        for rule in [Rule::Sl106, Rule::Sl107, Rule::Sl101] {
            assert!(
                !report.by_rule(rule).is_empty(),
                "{rule:?} should fire:\n{}",
                report.render(&program)
            );
        }
    }

    #[test]
    fn shared_mask_cancels_in_pairs_but_distinct_masks_do_not() {
        // Masks are applied to the key bytes BEFORE the plaintext is
        // mixed in, so no single intermediate is ever exposed. With
        // the SAME mask on both shares the pair distance is exposed
        // (m cancels in the XOR); with distinct masks it stays blind.
        let src = |mask_b: &str| {
            format!(
                "
        mov   r1, #0x100
        ldrb  r2, [r1]         ; k0
        ldrb  r4, [r1, #1]     ; k1
        mov   r1, #0x300
        ldrb  r3, [r1]
        eor   r2, r2, r3       ; k0 ^ m0
        ldrb  r5, [r1, {mask_b}]
        eor   r4, r4, r5       ; k1 ^ m?
        mov   r1, #0x200
        ldrb  r3, [r1]
        eor   r2, r2, r3       ; k0 ^ pt0 ^ m0
        ldrb  r5, [r1, #1]
        eor   r4, r4, r5       ; k1 ^ pt1 ^ m?
        mov   r6, #0x400
        strb  r2, [r6], #1
        strb  r4, [r6], #1
        halt
        "
            )
        };
        let spec = LintSpec {
            regions: vec![
                LintRegion {
                    name: "K".into(),
                    addr: 0x100,
                    len: 2,
                    kind: RegionKind::Secret,
                },
                LintRegion {
                    name: "PT".into(),
                    addr: 0x200,
                    len: 2,
                    kind: RegionKind::Input,
                },
                LintRegion {
                    name: "M".into(),
                    addr: 0x300,
                    len: 2,
                    kind: RegionKind::Mask,
                },
            ],
            mem_init: vec![
                (0x100, vec![0x2b, 0x7e]),
                (0x200, vec![0x32, 0x43]),
                (0x300, vec![0x5f, 0xa1]),
            ],
            ..LintSpec::default()
        };
        let same = lint_program(&assemble(&src("#0")).unwrap(), &spec).unwrap();
        assert!(
            !same.by_rule(Rule::Sl107).is_empty(),
            "shared mask cancels:\n{}",
            same.render(&assemble(&src("#0")).unwrap())
        );
        assert!(same.by_rule(Rule::Sl103).is_empty(), "singles stay blinded");
        let distinct = lint_program(&assemble(&src("#1")).unwrap(), &spec).unwrap();
        assert!(
            distinct.is_clean(),
            "distinct masks survive the pair:\n{}",
            distinct.render(&assemble(&src("#1")).unwrap())
        );
    }

    #[test]
    fn release_span_suppresses_but_does_not_launder() {
        let program = assemble(
            "
        mov   r1, #0x100
        ldrb  r2, [r1]
        mov   r1, #0x200
        ldrb  r3, [r1]
out:    eor   r2, r2, r3       ; released: public output
fin:    mov   r5, r2           ; taint still propagates
        add   r5, r5, r2
        halt
        ",
        )
        .unwrap();
        let mut spec = kp_spec();
        spec.release.push(ReleaseSpan {
            start: "out".into(),
            end: "fin".into(),
        });
        let report = lint_program(&program, &spec).unwrap();
        assert!(
            report.by_rule(Rule::Sl103).iter().all(|d| d.addr_a != 16),
            "released site is quiet:\n{}",
            report.render(&program)
        );
        assert!(
            !report.by_rule(Rule::Sl103).is_empty(),
            "downstream exposure is still caught:\n{}",
            report.render(&program)
        );
    }

    #[test]
    fn missing_release_symbol_is_an_error() {
        let program = assemble("halt\n").unwrap();
        let mut spec = LintSpec::default();
        spec.release.push(ReleaseSpan {
            start: "nope".into(),
            end: "nope".into(),
        });
        assert_eq!(
            lint_program(&program, &spec),
            Err(LintError::MissingSymbol("nope".into()))
        );
    }
}
