//! Typed errors of the target-generic layers.
//!
//! A misconfigured target — a window hint naming a symbol the program
//! lacks, or a visit count the execution never reaches — used to abort
//! the whole portfolio binary with a panic in the middle of a campaign.
//! These are packaging mistakes the *caller* should be able to report
//! (which target, which symbol), so window resolution now returns a
//! typed [`WindowError`], and every target-generic entry point
//! (`TargetCampaign`, `characterize_target`, `audit_cipher_target`)
//! propagates a [`TargetError`] combining it with simulator faults.

use std::fmt;

use sca_campaign::CampaignError;
use sca_store::StoreError;
use sca_uarch::UarchError;

/// Why a symbol-level [`crate::WindowHint`] failed to resolve against a
/// target — always a target-definition (packaging) problem, never an
/// input-dependent one: the programs under test are constant-time, so
/// one probe run stands for all executions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WindowError {
    /// The hint names a symbol the target's program does not define.
    MissingSymbol {
        /// Target (registry) name.
        target: String,
        /// The missing symbol.
        symbol: String,
    },
    /// The symbol exists but is not retired `visit + 1` times after the
    /// trigger rises.
    MissingVisit {
        /// Target (registry) name.
        target: String,
        /// The symbol.
        symbol: String,
        /// 0-based visit index that was requested.
        visit: usize,
    },
    /// The probe execution never raised the trigger.
    NoTrigger {
        /// Target (registry) name.
        target: String,
    },
    /// The hint resolved to an empty (or inverted) cycle span.
    Empty {
        /// Target (registry) name.
        target: String,
    },
}

impl WindowError {
    /// The name of the misconfigured target.
    pub fn target(&self) -> &str {
        match self {
            WindowError::MissingSymbol { target, .. }
            | WindowError::MissingVisit { target, .. }
            | WindowError::NoTrigger { target }
            | WindowError::Empty { target } => target,
        }
    }
}

impl fmt::Display for WindowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowError::MissingSymbol { target, symbol } => {
                write!(f, "target '{target}': no '{symbol}' symbol in its program")
            }
            WindowError::MissingVisit {
                target,
                symbol,
                visit,
            } => write!(
                f,
                "target '{target}': fewer than {} visits to '{symbol}' inside the trigger window",
                visit + 1
            ),
            WindowError::NoTrigger { target } => {
                write!(f, "target '{target}': probe run raised no trigger")
            }
            WindowError::Empty { target } => {
                write!(
                    f,
                    "target '{target}': window hint resolves to an empty window"
                )
            }
        }
    }
}

impl std::error::Error for WindowError {}

/// An error from a target-generic campaign, characterization or audit:
/// either the target is misconfigured ([`WindowError`]) or the
/// simulator faulted ([`UarchError`]).
#[derive(Clone, Debug)]
pub enum TargetError {
    /// Simulator fault (bad fetch, cycle budget, memory access).
    Uarch(UarchError),
    /// Window-hint resolution failure (target packaging bug).
    Window(WindowError),
    /// A stored campaign failed: trace-store I/O or corruption, a
    /// checkpoint snapshot mismatch, or an injected kill point firing.
    Campaign(CampaignError),
    /// A TVLA campaign ended with fewer than two traces in a population,
    /// where the Welch statistic is undefined.
    TooFewTraces {
        /// Traces in the fixed population.
        fixed: u64,
        /// Traces in the random population.
        random: u64,
    },
    /// A characterization asked for fewer traces than its significance
    /// threshold needs.
    TooFewObservations {
        /// Traces requested.
        traces: usize,
        /// Traces needed at least.
        needed: usize,
    },
}

impl TargetError {
    /// Whether this error is a [`CampaignError::Killed`] fault-injection
    /// abort — the one callers handle specially (exit code 3, resume).
    pub fn is_killed(&self) -> bool {
        matches!(self, TargetError::Campaign(CampaignError::Killed { .. }))
    }
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::Uarch(e) => write!(f, "simulator fault: {e}"),
            TargetError::Window(e) => write!(f, "window resolution failed: {e}"),
            TargetError::Campaign(e) => write!(f, "stored campaign failed: {e}"),
            TargetError::TooFewTraces { fixed, random } => write!(
                f,
                "TVLA needs at least two traces per population, got {fixed} fixed and \
                 {random} random"
            ),
            TargetError::TooFewObservations { traces, needed } => write!(
                f,
                "a characterization needs at least {needed} traces, got {traces}"
            ),
        }
    }
}

impl std::error::Error for TargetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TargetError::Uarch(e) => Some(e),
            TargetError::Window(e) => Some(e),
            TargetError::Campaign(e) => Some(e),
            TargetError::TooFewTraces { .. } | TargetError::TooFewObservations { .. } => None,
        }
    }
}

impl From<UarchError> for TargetError {
    fn from(e: UarchError) -> TargetError {
        TargetError::Uarch(e)
    }
}

impl From<WindowError> for TargetError {
    fn from(e: WindowError) -> TargetError {
        TargetError::Window(e)
    }
}

impl From<CampaignError> for TargetError {
    fn from(e: CampaignError) -> TargetError {
        // A simulator fault is a simulator fault no matter which engine
        // path surfaced it — unwrap it so callers match one variant.
        match e {
            CampaignError::Uarch(e) => TargetError::Uarch(e),
            other => TargetError::Campaign(other),
        }
    }
}

impl From<StoreError> for TargetError {
    fn from(e: StoreError) -> TargetError {
        TargetError::Campaign(CampaignError::Store(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_errors_name_the_target() {
        let e = WindowError::MissingSymbol {
            target: "speck64128".into(),
            symbol: "no_such_label".into(),
        };
        assert_eq!(e.target(), "speck64128");
        let text = e.to_string();
        assert!(
            text.contains("speck64128") && text.contains("no_such_label"),
            "{text}"
        );

        let e = WindowError::MissingVisit {
            target: "present80".into(),
            symbol: "round".into(),
            visit: 31,
        };
        assert!(e.to_string().contains("fewer than 32"), "{e}");
    }

    #[test]
    fn target_error_wraps_and_sources() {
        use std::error::Error as _;
        let e = TargetError::from(WindowError::NoTrigger {
            target: "aes128".into(),
        });
        assert!(e.to_string().contains("aes128"));
        assert!(e.source().is_some());
        let e = TargetError::from(UarchError::BadAddress(0xdead));
        assert!(matches!(e, TargetError::Uarch(_)));
    }
}
