//! The countermeasure evaluation suite: masked AES-128 with and without
//! scheduling defenses, attacked with the paper's two CPA models plus a
//! fixed-vs-random TVLA assessment, and audited at the node level.
//!
//! Three cipher targets run through the portfolio's campaign layer
//! ([`TargetCampaign`]), the same one the unprotected portfolio uses:
//!
//! 1. **unprotected** — [`AesTarget`], the Figure 3/4 AES
//!    implementation;
//! 2. **masked** — [`MaskedAesTarget`], the first-order
//!    table-recomputation masking of `sca_aes::MaskedAesSim`
//!    (ISA-level first-order secure);
//! 3. **masked + scheduled** — the same program hardened by the
//!    `sca-sched` share-distance scheduler (public scrub stores between
//!    the SubBytes share stores), [`masked_sched_target`].
//!
//! The paper's story, reproduced end to end: the microarchitecture-
//! unaware `HW(SubBytes out)` model breaks the unprotected target and
//! *fails* against masking; the microarchitecture-aware consecutive-
//! store `HD` model keeps breaking the masked target — the shared store
//! mask cancels in the LSU's operand-path transitions (IS/EX buffers,
//! operand buses, align buffer) — until scheduling distance scrubs
//! those buffers, which restores the masking's security.

use sca_aes::{aes128_masked_program, SBOX};
use sca_core::{audit_program, leak_paths, AuditConfig, SecretModel};
use sca_isa::Reg;
use sca_power::GaussianNoise;
use sca_sched::{harden_program, HardenConfig, HardenReport, SharePolicy};
use sca_target::{
    resolve_window, AesTarget, CipherTarget, CpaVerdict, MaskedAesTarget, ModelKind,
    TargetCampaign, TargetCampaignConfig, TvlaVerdict,
};
use sca_uarch::{Cpu, UarchConfig};

/// Countermeasure-suite campaign parameters.
#[derive(Clone, Debug)]
pub struct MaskedConfig {
    /// Averaged traces per CPA / TVLA campaign.
    pub traces: usize,
    /// Executions averaged per trace.
    pub executions_per_trace: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Traces buffered per worker between accumulator updates.
    pub batch: usize,
    /// The AES key under attack.
    pub key: [u8; 16],
    /// Targeted state byte (attacked with `HD(store byte-1 -> byte)`;
    /// the byte pair must be a SubBytes store pair, i.e. `byte` odd).
    pub target_byte: usize,
    /// Measurement noise.
    pub noise: GaussianNoise,
    /// Executions for the node-level audits.
    pub audit_executions: usize,
}

impl Default for MaskedConfig {
    fn default() -> MaskedConfig {
        MaskedConfig {
            traces: 400,
            executions_per_trace: 8,
            seed: 0x3a5ced,
            threads: 8,
            batch: sca_campaign::DEFAULT_BATCH,
            key: *b"\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c",
            target_byte: 1,
            noise: GaussianNoise::bare_metal(),
            audit_executions: 250,
        }
    }
}

/// All assessments against one target.
#[derive(Clone, Debug)]
pub struct TargetResult {
    /// Target name (`unprotected`, `masked`, `masked+sched`).
    pub name: String,
    /// The microarchitecture-unaware Figure 3 model, over round 1.
    pub hw: CpaVerdict,
    /// The microarchitecture-aware Figure 4 consecutive-store model,
    /// over the SubBytes window.
    pub hd: CpaVerdict,
    /// The fixed-vs-random assessment, over the SubBytes window.
    pub tvla: TvlaVerdict,
}

/// One masked-target attack under an ablated microarchitecture.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Feature description.
    pub name: String,
    /// The HD-store attack outcome against the *masked* target.
    pub hd: CpaVerdict,
}

/// Node-level audit summary for a masked target.
#[derive(Clone, Debug)]
pub struct AuditSummary {
    /// Findings on operand-path nodes (operand buses, IS/EX buffers)
    /// for the share-recombination model.
    pub operand_path: usize,
    /// Findings on the memory data path (MDR, align buffer).
    pub memory_path: usize,
    /// Findings for the value-level `HW(SubBytes out)` model — zero for
    /// a sound first-order masking.
    pub hw_findings: usize,
    /// All findings.
    pub total: usize,
}

/// The countermeasure suite's outputs.
#[derive(Clone, Debug)]
pub struct MaskedResult {
    /// Unprotected, masked, and masked+scheduled targets, in order.
    pub targets: Vec<TargetResult>,
    /// Audit of the masked (unscheduled) target.
    pub audit_masked: AuditSummary,
    /// Audit of the masked+scheduled target.
    pub audit_scheduled: AuditSummary,
    /// What the scheduler inserted.
    pub harden: HardenReport,
    /// The masked target re-attacked under microarchitectural ablations.
    pub ablations: Vec<AblationRow>,
}

impl MaskedResult {
    /// The result by target name.
    pub fn target(&self, name: &str) -> &TargetResult {
        self.targets
            .iter()
            .find(|t| t.name == name)
            .expect("known target name")
    }

    /// The headline verdict lines (printed by the binary, pinned by the
    /// verdict-regression tests).
    pub fn verdict_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for target in &self.targets {
            lines.push(format!("[{}] {}", target.name, target.hw.verdict()));
            lines.push(format!("[{}] {}", target.name, target.hd.verdict()));
            lines.push(format!("[{}] {}", target.name, target.tvla.verdict()));
        }
        lines.push(format!(
            "[masked] audit: {} operand-path leak(s), {} HW-model leak(s)",
            self.audit_masked.operand_path, self.audit_masked.hw_findings,
        ));
        lines.push(format!(
            "[masked+sched] audit: {} operand-path leak(s), {} HW-model leak(s)",
            self.audit_scheduled.operand_path, self.audit_scheduled.hw_findings,
        ));
        lines
    }
}

/// The masked AES hardened with the countermeasure suite's
/// share-distance policy, as the `aes128-masked+sched` target, with the
/// scheduler's report. Exposed so the `lint` binary and the
/// static-vs-dynamic differential validation analyze the *same*
/// program text the dynamic verdicts here run against.
///
/// The scrub scope covers the whole masked span that moves SubBytes
/// outputs: [subbytes, mixcolumns) — SubBytes past its internal
/// sb_loop label *and* ShiftRows, whose byte shuffle drags same-mask
/// bytes through the align buffer back to back. The scoped secret
/// registers extend it to the ALU `mov` pair shuttling the table
/// outputs into the next iteration's stores (`r1/r9` fed from
/// `r5/r11`): its back-to-back same-pipe reads recombine the shared
/// output mask on the IS/EX operand path — the residual the TVLA
/// assessment used to flag.
///
/// # Errors
///
/// Propagates assembler and scheduler faults.
pub fn masked_sched_target(
    key: [u8; 16],
    target_byte: usize,
) -> Result<(MaskedAesTarget, HardenReport), Box<dyn std::error::Error>> {
    let masked_program = aes128_masked_program()?;
    let policy = SharePolicy::new()
        .with_span(&masked_program, "subbytes", "mixcolumns")?
        .with_scoped_secret_regs(
            &masked_program,
            "subbytes",
            "shiftrows",
            [Reg::R1, Reg::R5, Reg::R9, Reg::R11],
        )?;
    let hardened = harden_program(&masked_program, &policy, &HardenConfig::default())?;
    let target = MaskedAesTarget::scheduled(key, target_byte, hardened.program);
    Ok((target, hardened.report))
}

/// One target's CPA campaign (both models on one acquisition) and its
/// TVLA campaign, on the target's built `campaign`.
fn assess_target(
    name: &str,
    target: &dyn CipherTarget,
    campaign: &TargetCampaign<'_>,
) -> Result<TargetResult, Box<dyn std::error::Error>> {
    let [hw, hd]: [CpaVerdict; 2] = campaign
        .cpa(&target.models())?
        .try_into()
        .expect("the AES targets declare an HW and an HD model");
    Ok(TargetResult {
        name: name.to_owned(),
        hw,
        hd,
        tvla: campaign.tvla()?,
    })
}

/// The audit's share-recombination model: the HD between the two
/// SubBytes outputs of the attacked store pair — predictable from the
/// (public) plaintext and the key the auditor knows, never computed
/// architecturally by the masked program.
fn audit_models(config: &MaskedConfig) -> [SecretModel; 2] {
    let byte = config.target_byte;
    let key = config.key;
    [
        SecretModel::new(
            format!("HD(SubBytes out {} , {})", byte - 1, byte),
            move |input: &[u8]| {
                let prev = SBOX[usize::from(input[byte - 1] ^ key[byte - 1])];
                let cur = SBOX[usize::from(input[byte] ^ key[byte])];
                f64::from((prev ^ cur).count_ones())
            },
        ),
        SecretModel::new(format!("HW(SubBytes out {byte})"), move |input: &[u8]| {
            f64::from(SBOX[usize::from(input[byte] ^ key[byte])].count_ones())
        }),
    ]
}

/// Audits a masked target in its primary (SubBytes) window, resolved
/// on the campaign's warmed `template`. The audit builds its own bare
/// CPU, so every execution stages the whole memory contract: the
/// constants, then the input (state + masks).
fn audit_target(
    config: &MaskedConfig,
    target: &dyn CipherTarget,
    template: &Cpu,
    uarch: &UarchConfig,
) -> Result<AuditSummary, Box<dyn std::error::Error>> {
    let window = resolve_window(target, template, &target.primary_window())?;
    let models = audit_models(config);
    let stage = |cpu: &mut Cpu, input: &[u8]| {
        target
            .stage_constants(cpu)
            .expect("S-box and round keys are mapped");
        target.stage(cpu, input);
    };
    let mut report = audit_program(
        uarch,
        target.program(),
        target.input_len(),
        stage,
        &models,
        &AuditConfig {
            executions: config.audit_executions,
            window: Some(window.absolute),
            seed: config.seed ^ 0xa0d17,
            threads: config.threads,
            ..AuditConfig::default()
        },
    )?;
    let hw_findings = report.findings_for(&models[1].name).len();
    let total = report.findings.len();
    // The leak paths count the share-recombination model's findings only.
    report.findings.retain(|f| f.model == models[0].name);
    let (operand_path, memory_path) = leak_paths(&report);
    Ok(AuditSummary {
        operand_path,
        memory_path,
        hw_findings,
        total,
    })
}

/// Runs the full countermeasure suite.
///
/// # Errors
///
/// Propagates simulator, scheduler and campaign faults.
pub fn run_masked(config: &MaskedConfig) -> Result<MaskedResult, Box<dyn std::error::Error>> {
    let uarch = UarchConfig::cortex_a7();
    let campaign_config = TargetCampaignConfig {
        traces: config.traces,
        executions_per_trace: config.executions_per_trace,
        seed: config.seed,
        threads: config.threads,
        batch: config.batch,
        noise: config.noise,
        ..TargetCampaignConfig::default()
    };
    let unprotected = AesTarget::new(config.key, config.target_byte);
    let masked = MaskedAesTarget::new(config.key, config.target_byte);
    let (scheduled, harden) = masked_sched_target(config.key, config.target_byte)?;

    let targets: [(&str, &dyn CipherTarget); 3] = [
        ("unprotected", &unprotected),
        ("masked", &masked),
        ("masked+sched", &scheduled),
    ];
    let campaigns = targets
        .iter()
        .map(|&(_, target)| TargetCampaign::new(target, &uarch, campaign_config.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let results = targets
        .iter()
        .zip(&campaigns)
        .map(|(&(name, target), campaign)| assess_target(name, target, campaign))
        .collect::<Result<Vec<_>, _>>()?;

    let audit_masked = audit_target(config, &masked, campaigns[1].cpu(), &uarch)?;
    let audit_scheduled = audit_target(config, &scheduled, campaigns[2].cpu(), &uarch)?;

    // Re-attack the *masked* target under the uarch ablations the paper
    // singles out: scalar issue and the align buffer.
    let hd_model: Vec<_> = masked
        .models()
        .into_iter()
        .filter(|model| model.kind == ModelKind::TransitionHd)
        .collect();
    let ablated = [
        ("dual-issue off (scalar)", UarchConfig::scalar()),
        (
            "align buffer off",
            UarchConfig {
                align_buffer: false,
                ..uarch
            },
        ),
    ];
    let ablations = ablated
        .iter()
        .map(|(name, ablated)| {
            let campaign = TargetCampaign::new(&masked, ablated, campaign_config.clone())?;
            Ok(AblationRow {
                name: (*name).to_owned(),
                hd: campaign.cpa(&hd_model)?.remove(0),
            })
        })
        .collect::<Result<Vec<_>, Box<dyn std::error::Error>>>()?;

    Ok(MaskedResult {
        targets: results,
        audit_masked,
        audit_scheduled,
        harden,
        ablations,
    })
}
