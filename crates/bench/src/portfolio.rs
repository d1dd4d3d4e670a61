//! The cipher-portfolio experiment: the paper's methodology — Table-2
//! style per-component characterization, value-level HW and
//! microarchitecture-aware HD CPA, fixed-vs-random TVLA, node-level
//! audit — run against every registered [`sca_target::CipherTarget`].
//!
//! The point is the generalization claim: the leakage characterization
//! and the microarchitecture-aware attack models are properties of the
//! *pipeline*, not of AES. The portfolio therefore spans cipher
//! families the baseline never exercises — SPECK64/128's ARX rounds
//! drive the barrel shifter and the adder's carry chain, PRESENT-80's
//! nibble S-box layer drives sub-word align-buffer remanence — and
//! every driver below is generic over the trait: no cipher is named
//! outside the registry.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sca_campaign::KillPoint;
use sca_core::{audit_cipher_target, leak_paths, AuditConfig};
use sca_power::GaussianNoise;
use sca_target::{
    characterize_target, portfolio, reanalyze_cpa, reanalyze_tvla, resolve_window, store_dir_name,
    CipherTarget, CpaVerdict, ModelKind, TargetCampaign, TargetCampaignConfig,
    TargetCharacterization, TargetError, TargetStoreConfig, TvlaVerdict,
};
use sca_uarch::UarchConfig;

/// Portfolio campaign parameters.
#[derive(Clone, Debug)]
pub struct PortfolioConfig {
    /// Averaged traces per CPA / TVLA campaign.
    pub traces: usize,
    /// Executions averaged per trace.
    pub executions_per_trace: usize,
    /// Master seed (salted per target).
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Traces buffered per worker between accumulator updates.
    pub batch: usize,
    /// Lockstep lanes per simulation group (`--lanes`; 1 = scalar).
    pub lanes: usize,
    /// Measurement noise.
    pub noise: GaussianNoise,
    /// Traces for the per-component characterization.
    pub charz_traces: usize,
    /// Executions for the node-level audit.
    pub audit_executions: usize,
    /// When set, every CPA/TVLA campaign runs against a persistent
    /// trace store under this configuration (characterizations and
    /// audits stay unstored — they are cheap and deterministic).
    pub store: Option<PortfolioStoreConfig>,
}

/// Persistent-store knobs of a portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioStoreConfig {
    /// Directory holding one store per (target, analysis) pair.
    pub root: PathBuf,
    /// Traces per checkpoint segment.
    pub checkpoint_every: u64,
    /// Resume each stored campaign from its last valid checkpoint.
    pub resume: bool,
    /// Abort the run (a [`sca_campaign::CampaignError::Killed`] fault)
    /// after this many traces have been persisted, counted across the
    /// whole run's stored campaigns in execution order — the crash-
    /// recovery CI job kills a run roughly halfway with this.
    pub kill_after: Option<u64>,
}

impl PortfolioStoreConfig {
    /// Store configuration rooted at `root`: checkpoint every 1024
    /// traces, no resume, no fault injection.
    pub fn new(root: impl Into<PathBuf>) -> PortfolioStoreConfig {
        PortfolioStoreConfig {
            root: root.into(),
            checkpoint_every: 1024,
            resume: false,
            kill_after: None,
        }
    }

    /// The kill point for the next stored campaign, given how many
    /// traces previous campaigns planned, and advances the counter.
    /// Campaign-local trace `t` is global trace `planned + t`, so a
    /// `--kill-after G` inside this campaign's range becomes
    /// [`KillPoint::AfterTrace`]`(G - planned)`.
    fn next_kill(&self, planned: &mut u64, traces: u64) -> KillPoint {
        let start = *planned;
        *planned += traces;
        match self.kill_after {
            Some(global) if (start..*planned).contains(&global) => {
                KillPoint::AfterTrace(global - start)
            }
            _ => KillPoint::None,
        }
    }
}

impl Default for PortfolioConfig {
    fn default() -> PortfolioConfig {
        PortfolioConfig {
            traces: 300,
            executions_per_trace: 8,
            seed: 0xdac_2018,
            threads: 8,
            batch: sca_campaign::DEFAULT_BATCH,
            lanes: sca_campaign::DEFAULT_LANES,
            noise: GaussianNoise::bare_metal(),
            charz_traces: 200,
            audit_executions: 250,
            store: None,
        }
    }
}

/// Everything measured against one target.
#[derive(Clone, Debug)]
pub struct TargetReport {
    /// Registry name.
    pub name: String,
    /// One CPA verdict per declared model, in declaration order.
    pub cpa: Vec<CpaVerdict>,
    /// The fixed-vs-random assessment.
    pub tvla: TvlaVerdict,
    /// Table-2-style RED/black row per model.
    pub charz: Vec<TargetCharacterization>,
    /// Node-audit findings on the operand path (operand bus / IS-EX).
    pub audit_operand: usize,
    /// Node-audit findings on the memory data path (MDR / align).
    pub audit_memory: usize,
    /// Cycles in the primary analysis window.
    pub window_cycles: u64,
}

impl TargetReport {
    /// The verdict for a model kind (first match).
    pub fn cpa_for(&self, kind: ModelKind) -> &CpaVerdict {
        self.cpa
            .iter()
            .find(|v| v.kind == kind)
            .expect("every target declares both model kinds")
    }
}

/// One phase's wall-clock timing, for `--bench-json`.
#[derive(Clone, Debug)]
pub struct PhaseTiming {
    /// `portfolio/<target>/<phase>` key.
    pub name: String,
    /// Seconds elapsed.
    pub seconds: f64,
}

/// The portfolio run's outputs.
#[derive(Clone, Debug)]
pub struct PortfolioResult {
    /// Per-target reports, in registry order.
    pub targets: Vec<TargetReport>,
    /// Wall-clock timings per campaign phase (machine-dependent; never
    /// printed to stdout).
    pub timings: Vec<PhaseTiming>,
}

impl PortfolioResult {
    /// The report by target name.
    pub fn target(&self, name: &str) -> &TargetReport {
        self.targets
            .iter()
            .find(|t| t.name == name)
            .expect("known target name")
    }

    /// The headline verdict lines (printed by the binary, pinned by the
    /// regression tests).
    pub fn verdict_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for target in &self.targets {
            for verdict in &target.cpa {
                lines.push(format!("[{}] {}", target.name, verdict.verdict()));
            }
            lines.push(format!("[{}] {}", target.name, target.tvla.verdict()));
            for row in &target.charz {
                lines.push(format!("[{}] charz {}", target.name, row.verdict_line()));
            }
            lines.push(format!(
                "[{}] audit: {} operand-path leak(s), {} memory-path leak(s)",
                target.name, target.audit_operand, target.audit_memory,
            ));
        }
        lines
    }

    /// Renders the timings in the `customSmallerIsBetter` JSON shape
    /// CI benchmark trackers ingest.
    pub fn timings_json(&self) -> String {
        let entries: Vec<String> = self
            .timings
            .iter()
            .map(|t| {
                format!(
                    "  {{ \"name\": \"{}\", \"unit\": \"s\", \"value\": {:.6} }}",
                    t.name, t.seconds
                )
            })
            .collect();
        format!("[\n{}\n]\n", entries.join(",\n"))
    }
}

fn assess_target(
    target: &dyn CipherTarget,
    uarch: &UarchConfig,
    config: &PortfolioConfig,
    salt: u64,
    timings: &mut Vec<PhaseTiming>,
    planned: &mut u64,
) -> Result<TargetReport, Box<dyn std::error::Error>> {
    let time = |phase: &str, timings: &mut Vec<PhaseTiming>, start: Instant| {
        timings.push(PhaseTiming {
            name: format!("portfolio/{}/{}", target.name(), phase),
            seconds: start.elapsed().as_secs_f64(),
        });
    };

    let campaign_config = TargetCampaignConfig {
        traces: config.traces,
        executions_per_trace: config.executions_per_trace,
        seed: config.seed ^ (salt << 24),
        threads: config.threads,
        batch: config.batch,
        lanes: config.lanes,
        noise: config.noise,
    };
    let campaign = TargetCampaign::new(target, uarch, campaign_config.clone())?;
    let window = resolve_window(target, campaign.cpu(), &target.primary_window())?;

    // One campaign ⇒ one TargetStoreConfig: the kill counter advances
    // per campaign, so each gets its own kill point (usually None).
    let store_for = |store: &PortfolioStoreConfig, planned: &mut u64| TargetStoreConfig {
        root: store.root.clone(),
        checkpoint_every: store.checkpoint_every,
        resume: store.resume,
        kill: store.next_kill(planned, config.traces as u64),
    };

    // Every model attacks one acquisition: unstored, a single campaign
    // feeds all of them; stored corpora stay one per (target, model).
    let models = target.models();
    let kinds: Vec<String> = models
        .iter()
        .map(|model| model.kind.to_string().to_lowercase())
        .collect();
    let phase = format!("cpa-{}", kinds.join("-"));
    let start = Instant::now();
    let cpa = {
        let _span = sca_telemetry::span!("{phase}");
        match &config.store {
            Some(store) => models
                .iter()
                .map(|model| Ok(campaign.cpa_stored(model, &store_for(store, planned))?.0))
                .collect::<Result<Vec<_>, TargetError>>()?,
            None => campaign.cpa(&models)?,
        }
    };
    time(&phase, timings, start);

    let start = Instant::now();
    let tvla = {
        let _span = sca_telemetry::span!("tvla");
        match &config.store {
            Some(store) => campaign.tvla_stored(&store_for(store, planned))?.0,
            None => campaign.tvla()?,
        }
    };
    time("tvla", timings, start);

    let start = Instant::now();
    let charz = {
        let _span = sca_telemetry::span!("charz");
        characterize_target(
            target,
            campaign.cpu(),
            &models,
            &TargetCampaignConfig {
                traces: config.charz_traces,
                ..campaign_config
            },
            0.995,
        )?
    };
    time("charz", timings, start);

    let start = Instant::now();
    let audit = {
        let _span = sca_telemetry::span!("audit");
        audit_cipher_target(
            target,
            campaign.cpu(),
            &window,
            &AuditConfig {
                executions: config.audit_executions,
                seed: config.seed ^ 0xa0d17 ^ salt,
                threads: config.threads,
                lanes: config.lanes,
                ..AuditConfig::default()
            },
        )?
    };
    time("audit", timings, start);
    let (audit_operand, audit_memory) = leak_paths(&audit);

    Ok(TargetReport {
        name: target.name().to_owned(),
        cpa,
        tvla,
        charz,
        audit_operand,
        audit_memory,
        window_cycles: window.trigger_relative.1,
    })
}

/// Runs the full portfolio.
///
/// # Errors
///
/// Propagates simulator and campaign faults.
pub fn run_portfolio(
    config: &PortfolioConfig,
) -> Result<PortfolioResult, Box<dyn std::error::Error>> {
    let started = Instant::now();
    // Root of the telemetry span tree; every target/phase/worker span
    // nests under it, so `span/portfolio` is the run's wall clock.
    let _root = sca_telemetry::span!("portfolio");
    let uarch = UarchConfig::cortex_a7();
    let mut targets = Vec::new();
    let mut timings = Vec::new();
    let mut planned = 0u64;
    for (i, target) in portfolio().iter().enumerate() {
        let _span = sca_telemetry::span!("{}", target.name());
        targets.push(assess_target(
            target.as_ref(),
            &uarch,
            config,
            i as u64 + 1,
            &mut timings,
            &mut planned,
        )?);
    }
    // The headline number CI's perf-regression gate tracks: one wall
    // clock over every target's campaigns, characterizations and
    // audits.
    timings.push(PhaseTiming {
        name: "portfolio/total".to_owned(),
        seconds: started.elapsed().as_secs_f64(),
    });
    Ok(PortfolioResult { targets, timings })
}

/// One target's verdicts from re-analyzing stored corpora — the subset
/// of a [`TargetReport`] a corpus can answer without simulating
/// (characterizations and audits need live multi-channel runs).
#[derive(Clone, Debug)]
pub struct ReanalyzeReport {
    /// Registry name.
    pub name: String,
    /// One CPA verdict per declared model, in declaration order.
    pub cpa: Vec<CpaVerdict>,
    /// The fixed-vs-random assessment.
    pub tvla: TvlaVerdict,
}

impl ReanalyzeReport {
    /// The verdict lines, in the same format as the corresponding
    /// subset of [`PortfolioResult::verdict_lines`] — a stored run and
    /// its re-analysis print identical CPA/TVLA lines.
    pub fn verdict_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for verdict in &self.cpa {
            lines.push(format!("[{}] {}", self.name, verdict.verdict()));
        }
        lines.push(format!("[{}] {}", self.name, self.tvla.verdict()));
        lines
    }
}

/// Re-runs every registered target's CPA and TVLA analyses by streaming
/// the corpora under `root` — zero simulator invocations, no
/// characterization or audit phases.
///
/// # Errors
///
/// Propagates store I/O/corruption faults, including a missing corpus
/// for any registered target.
pub fn run_portfolio_reanalyze(
    root: &Path,
) -> Result<Vec<ReanalyzeReport>, Box<dyn std::error::Error>> {
    let mut reports = Vec::new();
    for target in &portfolio() {
        let target = target.as_ref();
        let mut cpa = Vec::new();
        for model in &target.models() {
            let dir = root.join(store_dir_name(target.name(), &model.name));
            cpa.push(reanalyze_cpa(&dir, model)?);
        }
        let tvla = reanalyze_tvla(&root.join(store_dir_name(target.name(), "tvla")), target)?;
        reports.push(ReanalyzeReport {
            name: target.name().to_owned(),
            cpa,
            tvla,
        });
    }
    Ok(reports)
}
