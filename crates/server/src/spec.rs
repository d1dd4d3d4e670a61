//! Campaign specs: what a tenant asks the service to evaluate.
//!
//! A spec pins everything that determines a verdict — target, analysis,
//! trace budget, executions per trace, master seed, noise profile — and
//! nothing that doesn't (tenant identity, scheduling weight, worker
//! threads: verdicts are thread-count invariant by the campaign
//! engine's contract). Two specs with equal [fingerprints](
//! CampaignSpec::fingerprint) therefore denote the *same corpus and the
//! same verdict*, which is what makes store-backed dedup sound:
//! concurrent identical submissions coalesce onto one simulation, and a
//! resubmission after restart is served from the persisted checkpoints.

use std::fmt;

use sca_power::GaussianNoise;
use sca_store::fnv1a64;
use sca_target::check_tvla_traces;

use crate::ServerError;

/// Hard ceiling on a spec's trace budget — a tenant typo of `1e9`
/// should be rejected at the door, not simulated for a week.
pub const MAX_SPEC_TRACES: u64 = 1_000_000;

/// Hard ceiling on executions averaged per trace.
pub const MAX_SPEC_EXECUTIONS: u64 = 10_000;

/// Which analysis of the paper's methodology the spec requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AnalysisSel {
    /// Value-level Hamming-weight CPA (the target's first `ValueHw`
    /// model).
    Hw,
    /// Microarchitecture-aware Hamming-distance CPA (the target's first
    /// `TransitionHd` model).
    Hd,
    /// Fixed-vs-random TVLA.
    Tvla,
}

impl AnalysisSel {
    /// Parses the wire token (`hw` / `hd` / `tvla`).
    ///
    /// # Errors
    ///
    /// [`ServerError::Spec`] on anything else.
    pub fn parse(token: &str) -> Result<AnalysisSel, ServerError> {
        match token {
            "hw" => Ok(AnalysisSel::Hw),
            "hd" => Ok(AnalysisSel::Hd),
            "tvla" => Ok(AnalysisSel::Tvla),
            other => Err(ServerError::Spec(format!(
                "unknown analysis '{other}' (expected hw, hd or tvla)"
            ))),
        }
    }
}

impl fmt::Display for AnalysisSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AnalysisSel::Hw => "hw",
            AnalysisSel::Hd => "hd",
            AnalysisSel::Tvla => "tvla",
        })
    }
}

/// One tenant's evaluation request.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Who is asking — scheduling identity only, never part of the
    /// dedup fingerprint.
    pub tenant: String,
    /// Registry name of the cipher target (`aes128`, `speck64128`, …).
    pub target: String,
    /// Which analysis to run.
    pub analysis: AnalysisSel,
    /// Averaged traces in the campaign.
    pub traces: u64,
    /// Executions averaged into each trace.
    pub executions_per_trace: u64,
    /// Master seed; the runner applies the same per-target registry
    /// salt the one-shot portfolio applies, so equal seeds mean equal
    /// verdict lines.
    pub seed: u64,
    /// Measurement noise profile.
    pub noise: GaussianNoise,
}

impl CampaignSpec {
    /// A quick AES-128 HW probe — the smallest useful spec, used as the
    /// base of tests and examples.
    #[must_use]
    pub fn quick(tenant: &str) -> CampaignSpec {
        CampaignSpec {
            tenant: tenant.to_owned(),
            target: "aes128".to_owned(),
            analysis: AnalysisSel::Hw,
            traces: 150,
            executions_per_trace: 2,
            seed: 0xdac_2018,
            noise: GaussianNoise {
                sd: 2.0,
                baseline: 30.0,
            },
        }
    }

    /// Range-checks the numeric fields. Target-name resolution happens
    /// at submission (it needs the registry).
    ///
    /// # Errors
    ///
    /// [`ServerError::Spec`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServerError> {
        if self.tenant.is_empty() {
            return Err(ServerError::Spec("tenant must be non-empty".to_owned()));
        }
        if self.traces == 0 || self.traces > MAX_SPEC_TRACES {
            return Err(ServerError::Spec(format!(
                "traces must be in 1..={MAX_SPEC_TRACES}, got {}",
                self.traces
            )));
        }
        if self.analysis == AnalysisSel::Tvla {
            check_tvla_traces(self.traces)
                .map_err(|e| ServerError::Spec(format!("traces={}: {e}", self.traces)))?;
        }
        if self.executions_per_trace == 0 || self.executions_per_trace > MAX_SPEC_EXECUTIONS {
            return Err(ServerError::Spec(format!(
                "executions must be in 1..={MAX_SPEC_EXECUTIONS}, got {}",
                self.executions_per_trace
            )));
        }
        if !self.noise.sd.is_finite() || self.noise.sd < 0.0 {
            return Err(ServerError::Spec(format!(
                "noise-sd must be finite and non-negative, got {}",
                self.noise.sd
            )));
        }
        if !self.noise.baseline.is_finite() {
            return Err(ServerError::Spec(format!(
                "noise-baseline must be finite, got {}",
                self.noise.baseline
            )));
        }
        Ok(())
    }

    /// The canonical identity string the fingerprint hashes — every
    /// verdict-determining field, bit-exact (floats as IEEE-754 bit
    /// patterns), and nothing else.
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "target={} analysis={} traces={} executions={} seed={:016x} \
             noise-sd={:016x} noise-baseline={:016x}",
            self.target,
            self.analysis,
            self.traces,
            self.executions_per_trace,
            self.seed,
            self.noise.sd.to_bits(),
            self.noise.baseline.to_bits(),
        )
    }

    /// The dedup key: FNV-1a64 of [`canonical`](CampaignSpec::canonical).
    /// Equal fingerprints ⇔ same corpus directory, same verdict.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use sca_target::MIN_TVLA_TRACES;

    use super::*;

    #[test]
    fn fingerprint_ignores_tenant_and_tracks_every_physical_field() {
        let base = CampaignSpec::quick("ci");
        let mut other_tenant = base.clone();
        other_tenant.tenant = "dev".to_owned();
        assert_eq!(base.fingerprint(), other_tenant.fingerprint());

        let mut tweaked = base.clone();
        tweaked.traces += 1;
        assert_ne!(base.fingerprint(), tweaked.fingerprint());

        let mut reseeded = base.clone();
        reseeded.seed ^= 1;
        assert_ne!(base.fingerprint(), reseeded.fingerprint());

        let mut renoised = base.clone();
        renoised.noise.sd += 0.5;
        assert_ne!(base.fingerprint(), renoised.fingerprint());

        let mut reanalyzed = base.clone();
        reanalyzed.analysis = AnalysisSel::Tvla;
        assert_ne!(base.fingerprint(), reanalyzed.fingerprint());
    }

    #[test]
    fn validate_rejects_degenerate_budgets() {
        let mut spec = CampaignSpec::quick("ci");
        assert!(spec.validate().is_ok());
        spec.traces = 0;
        assert!(spec.validate().is_err());
        spec.traces = MAX_SPEC_TRACES + 1;
        assert!(spec.validate().is_err());
        spec.traces = MIN_TVLA_TRACES - 1;
        assert!(spec.validate().is_ok(), "a CPA spec may be this small");
        spec.analysis = AnalysisSel::Tvla;
        assert!(spec.validate().is_err());
        spec.traces = MIN_TVLA_TRACES;
        assert!(spec.validate().is_ok());
        spec.traces = 10;
        spec.executions_per_trace = 0;
        assert!(spec.validate().is_err());
        spec.executions_per_trace = 2;
        spec.noise.sd = f64::NAN;
        assert!(spec.validate().is_err());
        spec.noise.sd = 1.0;
        spec.tenant = String::new();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn analysis_tokens_roundtrip() {
        for sel in [AnalysisSel::Hw, AnalysisSel::Hd, AnalysisSel::Tvla] {
            assert_eq!(AnalysisSel::parse(&sel.to_string()).unwrap(), sel);
        }
        assert!(AnalysisSel::parse("cpa").is_err());
    }
}
