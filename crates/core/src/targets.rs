//! Target-generic leakage audits: the [`audit_program`] machinery wired
//! to the `sca-target` cipher portfolio.
//!
//! A [`sca_target::CipherTarget`] already carries everything the audit
//! needs — the program image, the memory-contract staging, leakage
//! models with the true key, and a symbol-level analysis window — so
//! auditing a cipher reduces to adapting the trait: the target's
//! models (evaluated at the true key) become the audit's secret
//! expressions, and its primary window, resolved into absolute cycles,
//! bounds the audit. No cipher is named anywhere.
//!
//! [`audit_program`]: crate::audit_program

use sca_target::{CipherTarget, ResolvedWindow, TargetError};
use sca_uarch::{Cpu, Node};

use crate::audit::audit_template;
use crate::{AuditConfig, AuditError, AuditReport, SecretModel};

/// Audits a cipher target's models against every microarchitectural
/// node inside `window` (the target's primary window, resolved).
///
/// Every execution starts from `template` — the target's loaded,
/// constant-staged and warmed CPU ([`CipherTarget::build`]), as the
/// campaigns use it — and stages only its input.
///
/// # Errors
///
/// Propagates simulator faults; fewer than four executions fail with
/// [`TargetError::TooFewObservations`] before any simulation.
pub fn audit_cipher_target(
    target: &dyn CipherTarget,
    template: &Cpu,
    window: &ResolvedWindow,
    config: &AuditConfig,
) -> Result<AuditReport, TargetError> {
    // The audit draws raw random input bytes itself, bypassing the
    // target's `generate`/`finish_input` path — canonicalize before
    // both prediction and staging so derived suffixes (e.g. SPECK's
    // appended ciphertext) are recomputed from the plaintext prefix
    // instead of being read as garbage.
    let canon = target.input_canonicalizer();
    let models: Vec<SecretModel> = target
        .models()
        .into_iter()
        .map(|model| {
            let canon = canon.clone();
            SecretModel::new(model.name.clone(), move |input: &[u8]| {
                model.predict_true(&canon(input))
            })
        })
        .collect();
    audit_template(
        template,
        target.program(),
        target.input_len(),
        &|cpu: &mut Cpu, input: &[u8]| target.stage(cpu, &canon(input)),
        &models,
        &AuditConfig {
            window: Some(window.absolute),
            ..config.clone()
        },
    )
    .map_err(|e| match e {
        AuditError::TooFewExecutions { executions, needed } => TargetError::TooFewObservations {
            traces: executions,
            needed,
        },
        AuditError::Uarch(e) => e.into(),
    })
}

/// Counts a report's findings on the operand path (operand buses,
/// IS/EX buffers) and the memory data path (MDR, align buffer) — the
/// two node families the paper's Section 4.2 argument tracks.
pub fn leak_paths(report: &AuditReport) -> (usize, usize) {
    let operand = report
        .findings
        .iter()
        .filter(|f| matches!(f.node, Node::OperandBus(_) | Node::IsExOp { .. }))
        .count();
    let memory = report
        .findings
        .iter()
        .filter(|f| matches!(f.node, Node::Mdr | Node::AlignBuf))
        .count();
    (operand, memory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sca_target::{resolve_window, AesTarget};
    use sca_uarch::UarchConfig;

    /// The unprotected AES target must audit dirty (its S-box outputs
    /// cross the pipeline in the clear) — through the fully generic
    /// trait path.
    #[test]
    fn unprotected_aes_audits_dirty_through_the_trait() {
        let target = AesTarget::default();
        let template = target
            .build(&UarchConfig::cortex_a7().with_ideal_memory())
            .expect("target builds");
        let window =
            resolve_window(&target, &template, &target.primary_window()).expect("window resolves");
        let report = audit_cipher_target(
            &target,
            &template,
            &window,
            &AuditConfig {
                executions: 150,
                ..AuditConfig::default()
            },
        )
        .expect("audit runs");
        assert!(!report.is_clean(), "unprotected AES must leak");
        let (operand, memory) = leak_paths(&report);
        assert!(
            operand + memory > 0,
            "expected operand/memory-path findings, got {:?}",
            report.findings
        );
    }

    /// Too few executions fail typed, before any simulation.
    #[test]
    fn too_few_executions_are_a_typed_error() {
        let target = AesTarget::default();
        let template = target
            .build(&UarchConfig::cortex_a7().with_ideal_memory())
            .expect("target builds");
        let window =
            resolve_window(&target, &template, &target.primary_window()).expect("window resolves");
        for executions in [0, 3] {
            let result = audit_cipher_target(
                &target,
                &template,
                &window,
                &AuditConfig {
                    executions,
                    ..AuditConfig::default()
                },
            );
            assert!(
                matches!(
                    result,
                    Err(TargetError::TooFewObservations { traces, needed: 4 }) if traces == executions
                ),
                "{executions} executions: {result:?}"
            );
        }
    }
}
