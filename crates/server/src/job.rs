//! Stateless execution of one job slice.
//!
//! A slice is the scheduler's unit of cooperative preemption: resume
//! the spec's stored campaign from its last checkpoint, simulate up to
//! a bounded number of new traces (whole checkpoint segments), persist
//! the new checkpoint, and report the *partial* verdict the accumulator
//! holds so far. Slices carry no in-memory state between each other —
//! the store's checkpoint WAL is the only hand-off — so any worker can
//! run any job's next slice, and a server restart loses nothing.
//!
//! Every spec gets its own store directory under the corpus root, named
//! by the spec fingerprint, so distinct specs never contend on a store
//! and identical specs (the dedup case) always land on the same one.

use std::path::{Path, PathBuf};

use sca_campaign::{KillPoint, StoredRunReport, DEFAULT_BATCH};
use sca_power::GaussianNoise;
use sca_target::{
    portfolio, restore_cpa, restore_tvla, store_dir_name, CipherTarget, CpaVerdict, ModelKind,
    TargetCampaign, TargetCampaignConfig, TargetModel, TargetStoreConfig, TvlaVerdict,
};
use sca_uarch::UarchConfig;

use crate::{AnalysisSel, CampaignSpec, ServerError};

/// The analysis verdict a slice computed — partial until the slice that
/// reaches the spec's full trace budget.
#[derive(Clone, Debug)]
pub enum SliceVerdict {
    /// A CPA verdict from the accumulator state so far.
    Cpa(CpaVerdict),
    /// A TVLA verdict; `None` until both populations hold two traces.
    Tvla(Option<TvlaVerdict>),
}

/// What one slice produced.
#[derive(Clone, Debug)]
pub struct SliceOutcome {
    /// The (possibly partial) verdict after this slice.
    pub verdict: SliceVerdict,
    /// The underlying stored-run report: traces resumed/simulated and
    /// the campaign's high-water mark vs its total budget.
    pub report: StoredRunReport,
}

impl SliceOutcome {
    /// Whether the campaign has absorbed its full trace budget.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.report.complete()
    }

    /// The final verdict line, in the exact format the one-shot
    /// `portfolio` binary prints (and the regression tests pin).
    ///
    /// # Panics
    ///
    /// On a TVLA outcome whose populations are still degenerate — a
    /// complete campaign of ≥ 4 traces always has both.
    #[must_use]
    pub fn final_line(&self, target: &str) -> String {
        match &self.verdict {
            SliceVerdict::Cpa(v) => format!("[{target}] {}", v.verdict()),
            SliceVerdict::Tvla(v) => {
                let v = v.as_ref().expect("complete TVLA run has both populations");
                format!("[{target}] {}", v.verdict())
            }
        }
    }
}

/// Executes job slices against a corpus root. One runner is shared by
/// all workers; it holds only configuration.
#[derive(Debug)]
pub struct JobRunner {
    uarch: UarchConfig,
    store_root: PathBuf,
    /// Worker threads per slice. Verdicts are thread-count invariant,
    /// so this is pure throughput policy.
    pub threads: usize,
    /// Lockstep lanes per simulation group.
    pub lanes: usize,
    /// Traces per checkpoint segment — also the slice granularity:
    /// a slice runs whole segments.
    pub checkpoint_every: u64,
}

impl JobRunner {
    /// A runner storing corpora under `store_root`.
    #[must_use]
    pub fn new(store_root: impl Into<PathBuf>) -> JobRunner {
        JobRunner {
            uarch: UarchConfig::cortex_a7(),
            store_root: store_root.into(),
            threads: 4,
            lanes: sca_campaign::DEFAULT_LANES,
            checkpoint_every: 64,
        }
    }

    /// Resolves a spec's target against the portfolio registry,
    /// returning the boxed target and its campaign seed salt (registry
    /// index + 1 — the exact salt the one-shot portfolio applies, which
    /// is what makes server and one-shot verdicts byte-identical).
    ///
    /// # Errors
    ///
    /// [`ServerError::Spec`] for unregistered names.
    pub fn resolve(
        &self,
        spec: &CampaignSpec,
    ) -> Result<(Box<dyn CipherTarget>, u64), ServerError> {
        portfolio()
            .into_iter()
            .enumerate()
            .find(|(_, t)| t.name() == spec.target)
            .map(|(i, t)| (t, i as u64 + 1))
            .ok_or_else(|| ServerError::Spec(format!("unknown target '{}'", spec.target)))
    }

    /// The spec's private store directory under the corpus root.
    #[must_use]
    pub fn spec_dir(&self, spec: &CampaignSpec) -> PathBuf {
        self.store_root
            .join(format!("spec-{:016x}", spec.fingerprint()))
    }

    fn campaign_config(&self, spec: &CampaignSpec, salt: u64) -> TargetCampaignConfig {
        TargetCampaignConfig {
            traces: spec.traces as usize,
            executions_per_trace: spec.executions_per_trace as usize,
            seed: spec.seed ^ (salt << 24),
            threads: self.threads,
            batch: DEFAULT_BATCH,
            lanes: self.lanes,
            noise: GaussianNoise {
                sd: spec.noise.sd,
                baseline: spec.noise.baseline,
            },
        }
    }

    fn store_config(&self, dir: &Path) -> TargetStoreConfig {
        TargetStoreConfig {
            root: dir.to_path_buf(),
            checkpoint_every: self.checkpoint_every,
            resume: true,
            kill: KillPoint::None,
        }
    }

    fn model_for(
        target: &dyn CipherTarget,
        analysis: AnalysisSel,
    ) -> Result<TargetModel, ServerError> {
        let kind = match analysis {
            AnalysisSel::Hw => ModelKind::ValueHw,
            AnalysisSel::Hd => ModelKind::TransitionHd,
            AnalysisSel::Tvla => unreachable!("TVLA selects no model"),
        };
        target
            .models()
            .into_iter()
            .find(|m| m.kind == kind)
            .ok_or_else(|| ServerError::Spec(format!("{} declares no {kind} model", target.name())))
    }

    /// Serves a spec's *final* verdict straight from its store, when the
    /// persisted checkpoints already cover the full trace budget — zero
    /// simulator invocations (not even a window probe). This is the
    /// dedup fast path for resubmissions, including after a restart.
    ///
    /// # Errors
    ///
    /// Spec-resolution failures and store I/O/corruption.
    pub fn try_restore(&self, spec: &CampaignSpec) -> Result<Option<SliceOutcome>, ServerError> {
        let (target, _) = self.resolve(spec)?;
        let dir = self.spec_dir(spec);
        let restored = match spec.analysis {
            AnalysisSel::Hw | AnalysisSel::Hd => {
                let model = JobRunner::model_for(target.as_ref(), spec.analysis)?;
                let store = dir.join(store_dir_name(target.name(), &model.name));
                restore_cpa(&store, &model)?.map(SliceVerdict::Cpa)
            }
            AnalysisSel::Tvla => {
                let store = dir.join(store_dir_name(target.name(), "tvla"));
                restore_tvla(&store, target.as_ref())?.map(|v| SliceVerdict::Tvla(Some(v)))
            }
        };
        Ok(restored.map(|verdict| SliceOutcome {
            verdict,
            report: StoredRunReport {
                resumed_from: spec.traces,
                simulated: 0,
                checkpoints: 0,
                samples: 0,
                high_water: spec.traces,
                total: spec.traces,
            },
        }))
    }

    /// Runs one slice: resume the spec's stored campaign and simulate
    /// up to `max_new_traces` new traces (whole checkpoint segments).
    ///
    /// # Errors
    ///
    /// Spec-resolution failures, simulator faults, and store
    /// I/O/corruption.
    pub fn run_slice(
        &self,
        spec: &CampaignSpec,
        max_new_traces: u64,
    ) -> Result<SliceOutcome, ServerError> {
        let (target, salt) = self.resolve(spec)?;
        let campaign = TargetCampaign::new(
            target.as_ref(),
            &self.uarch,
            self.campaign_config(spec, salt),
        )?;
        let store = self.store_config(&self.spec_dir(spec));
        let (verdict, report) = match spec.analysis {
            AnalysisSel::Hw | AnalysisSel::Hd => {
                let model = JobRunner::model_for(target.as_ref(), spec.analysis)?;
                let (v, report) = campaign.cpa_stored_bounded(&model, &store, max_new_traces)?;
                (SliceVerdict::Cpa(v), report)
            }
            AnalysisSel::Tvla => {
                let (v, report) = campaign.tvla_stored_bounded(&store, max_new_traces)?;
                (SliceVerdict::Tvla(v), report)
            }
        };
        Ok(SliceOutcome { verdict, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_compose_to_the_full_verdict_and_restore_serves_it_back() {
        let dir = std::env::temp_dir().join(format!("sca-server-job-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = CampaignSpec::quick("ci");
        spec.traces = 48;
        let mut runner = JobRunner::new(&dir);
        runner.threads = 2;
        runner.checkpoint_every = 16;

        // 48 traces at 16/segment with 16-trace slices: three slices.
        let mut outcomes = Vec::new();
        loop {
            let outcome = runner.run_slice(&spec, 16).expect("slice runs");
            let done = outcome.complete();
            outcomes.push(outcome);
            if done {
                break;
            }
        }
        assert_eq!(outcomes.len(), 3, "three 16-trace slices cover 48");
        assert!(outcomes[..2].iter().all(|o| !o.complete()));

        // The restore fast path must reproduce the final line exactly.
        let line = outcomes.last().unwrap().final_line(&spec.target);
        let restored = runner
            .try_restore(&spec)
            .expect("restore reads the store")
            .expect("complete campaign restores");
        assert_eq!(restored.final_line(&spec.target), line);
        assert_eq!(restored.report.simulated, 0);

        // An incomplete spec (different fingerprint ⇒ fresh store) does
        // not restore.
        let mut fresh = spec.clone();
        fresh.seed ^= 0x5eed;
        assert!(runner
            .try_restore(&fresh)
            .expect("no store is ok")
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
