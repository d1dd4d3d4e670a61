//! The countermeasure evaluation suite: masked AES-128 with and without
//! scheduling defenses, attacked with the paper's two CPA models plus a
//! fixed-vs-random TVLA assessment, and audited at the node level.
//!
//! Three targets run through the same campaign engine:
//!
//! 1. **unprotected** — the Figure 3/4 AES implementation;
//! 2. **masked** — the first-order table-recomputation masking of
//!    `sca_aes::MaskedAesSim` (ISA-level first-order secure);
//! 3. **masked + scheduled** — the same program hardened by the
//!    `sca-sched` share-distance scheduler (public scrub stores between
//!    the SubBytes share stores).
//!
//! The paper's story, reproduced end to end: the microarchitecture-
//! unaware `HW(SubBytes out)` model breaks the unprotected target and
//! *fails* against masking; the microarchitecture-aware consecutive-
//! store `HD` model keeps breaking the masked target — the shared store
//! mask cancels in the LSU's operand-path transitions (IS/EX buffers,
//! operand buses, align buffer) — until scheduling distance scrubs
//! those buffers, which restores the masking's security.

use rand::Rng;

use sca_aes::{
    aes128_masked_program, aes128_program, expand_key, AesSim, MaskedAesSim, SubBytesHw,
    SubBytesStoreHd, MASKED_INPUT_LEN, RK_ADDR, SBOX, SBOX_ADDR,
};
use sca_campaign::{Campaign, CampaignConfig, CpaSink, TtestSink};
use sca_core::{audit_program, AuditConfig, SecretModel};
use sca_isa::{Program, Reg};
use sca_power::{GaussianNoise, LeakageWeights, SamplingConfig};
use sca_sched::{harden_program, HardenConfig, HardenReport, SharePolicy};
use sca_uarch::{Cpu, Node, UarchConfig};

use crate::probe::RetireLog;

/// The fixed plaintext of the TVLA fixed-vs-random populations.
pub const TVLA_FIXED_PT: [u8; 16] =
    *b"\x5a\x5a\x5a\x5a\x5a\x5a\x5a\x5a\x5a\x5a\x5a\x5a\x5a\x5a\x5a\x5a";

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
    /// Whether to re-attack the masked target under uarch ablations
    /// (the verdict-regression tests skip this section for speed).
    pub ablations: bool,
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
            ablations: true,
        }
    }
}

/// One CPA attack's verdict against one target.
#[derive(Clone, Debug)]
pub struct AttackOutcome {
    /// Attack model name.
    pub model: String,
    /// Best-ranked key guess.
    pub recovered: u8,
    /// The true key byte.
    pub correct: u8,
    /// Rank of the true key byte (0 = recovered).
    pub rank: usize,
    /// Peak |corr| of the true key byte.
    pub peak: f64,
    /// Peak |corr| over all wrong guesses.
    pub best_wrong: f64,
}

impl AttackOutcome {
    /// Whether the attack recovered the key byte.
    pub fn success(&self) -> bool {
        self.rank == 0
    }

    /// The verdict line the binary prints and the regression tests pin.
    pub fn verdict(&self) -> String {
        format!(
            "{}: {} (recovered 0x{:02x}, true 0x{:02x}, rank {})",
            self.model,
            if self.success() { "SUCCESS" } else { "FAILURE" },
            self.recovered,
            self.correct,
            self.rank,
        )
    }
}

/// All assessments against one target.
#[derive(Clone, Debug)]
pub struct TargetResult {
    /// Target name (`unprotected`, `masked`, `masked+sched`).
    pub name: String,
    /// The microarchitecture-unaware Figure 3 model.
    pub hw: AttackOutcome,
    /// The microarchitecture-aware Figure 4 consecutive-store model.
    pub hd: AttackOutcome,
    /// Largest |t| of the fixed-vs-random assessment.
    pub tvla_max_t: f64,
    /// Whether the t-test crosses the TVLA threshold anywhere.
    pub tvla_leaks: bool,
    /// Traces in the (fixed, random) populations.
    pub tvla_counts: (u64, u64),
    /// Cycles in the analyzed round-1 window.
    pub window_cycles: u64,
}

/// One masked-target attack under an ablated microarchitecture.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Feature description.
    pub name: String,
    /// The HD-store attack outcome against the *masked* target.
    pub hd: AttackOutcome,
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
            lines.push(format!(
                "[{}] TVLA fixed-vs-random: {}",
                target.name,
                if target.tvla_leaks { "LEAKS" } else { "clean" },
            ));
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

/// One attackable target: a warmed CPU template plus its program.
struct Target {
    name: &'static str,
    cpu: Cpu,
    entry: u32,
    input_len: usize,
    stage: fn(&mut Cpu, &[u8]),
    program: Program,
}

fn probe_retirements(target: &Target) -> Result<RetireLog, Box<dyn std::error::Error>> {
    let mut probe = target.cpu.clone();
    probe.restart(target.entry);
    let mut log = RetireLog::default();
    probe.run(&mut log)?;
    log.start.ok_or("no trigger in AES run")?;
    Ok(log)
}

/// Trigger-relative cycles of the `n`-th retirement at `symbol` (the
/// program is constant-time, so one probe run stands for all).
fn nth_visit(
    target: &Target,
    log: &RetireLog,
    symbol: &str,
    n: usize,
) -> Result<u64, Box<dyn std::error::Error>> {
    let addr = target
        .program
        .symbol(symbol)
        .ok_or_else(|| format!("no '{symbol}' symbol in {}", target.name))?;
    let t0 = log.start.expect("probed");
    log.retirements
        .iter()
        .filter(|&&(cycle, a)| a == addr && cycle >= t0)
        .nth(n)
        .map(|&(cycle, _)| cycle - t0)
        .ok_or_else(|| format!("fewer than {} visits to '{symbol}'", n + 1).into())
}

/// The round-1 SubBytes analysis window: `trigger_relative` is the
/// `(start_cycle, len_cycles)` the campaigns crop to, `absolute` the
/// `[start, end)` cycle window the audit records in. Both run from the
/// first visit of `subbytes` to the first visit of `shiftrows`, widened
/// so the in-flight stores' buffer updates stay inside — the span both
/// attack models peak in, exactly like Figure 4's 0.7 µs crop.
struct SubBytesWindow {
    trigger_relative: (u64, u64),
    absolute: (u64, u64),
    /// Trigger to the start of round 2 — the whole first round, where
    /// the value-level HW model hunts (its strongest leaks sit in the
    /// MixColumns manipulations, as in Figure 3).
    round1: (u64, u64),
}

fn subbytes_window(target: &Target) -> Result<SubBytesWindow, Box<dyn std::error::Error>> {
    let log = probe_retirements(target)?;
    let t0 = log.start.expect("probed");
    let start = nth_visit(target, &log, "subbytes", 0)?.saturating_sub(4);
    let end = nth_visit(target, &log, "shiftrows", 0)? + 12;
    let round1_end = nth_visit(target, &log, "round", 1)? + 16;
    Ok(SubBytesWindow {
        trigger_relative: (start, end - start),
        absolute: (t0 + start, t0 + end),
        round1: (0, round1_end),
    })
}

fn stage_unprotected(cpu: &mut Cpu, input: &[u8]) {
    AesSim::stage_plaintext(cpu, input);
}

fn stage_masked(cpu: &mut Cpu, input: &[u8]) {
    MaskedAesSim::stage_input(cpu, input);
}

/// Hardens the masked AES program with the countermeasure suite's
/// share-distance policy, returning the scheduled program and the
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
pub fn masked_sched_program() -> Result<(Program, HardenReport), Box<dyn std::error::Error>> {
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
    Ok((hardened.program, hardened.report))
}

/// Builds the three targets (and reports what the scheduler did).
fn build_targets(
    config: &MaskedConfig,
    uarch: &UarchConfig,
) -> Result<(Vec<Target>, HardenReport), Box<dyn std::error::Error>> {
    let unprotected = AesSim::new(uarch.clone(), &config.key)?;
    let masked = MaskedAesSim::new(uarch.clone(), &config.key)?;
    let masked_program = aes128_masked_program()?;
    let (sched_program, harden_report) = masked_sched_program()?;
    let scheduled = MaskedAesSim::from_program(uarch.clone(), &config.key, &sched_program)?;
    let targets = vec![
        Target {
            name: "unprotected",
            cpu: unprotected.cpu().clone(),
            entry: unprotected.entry(),
            input_len: 16,
            stage: stage_unprotected,
            program: aes128_program()?,
        },
        Target {
            name: "masked",
            cpu: masked.cpu().clone(),
            entry: masked.entry(),
            input_len: MASKED_INPUT_LEN,
            stage: stage_masked,
            program: masked_program,
        },
        Target {
            name: "masked+sched",
            cpu: scheduled.cpu().clone(),
            entry: scheduled.entry(),
            input_len: MASKED_INPUT_LEN,
            stage: stage_masked,
            program: sched_program,
        },
    ];
    Ok((targets, harden_report))
}

fn campaign(config: &MaskedConfig, seed_salt: u64, window_cycles: (u64, u64)) -> Campaign {
    let sampling = SamplingConfig::picoscope_500msps_120mhz();
    let start = (window_cycles.0 as f64 * sampling.samples_per_cycle) as usize;
    let len = (window_cycles.1 as f64 * sampling.samples_per_cycle) as usize;
    Campaign::new(
        LeakageWeights::cortex_a7(),
        CampaignConfig {
            traces: config.traces,
            executions_per_trace: config.executions_per_trace,
            sampling,
            noise: config.noise,
            seed: config.seed ^ seed_salt,
            threads: config.threads,
            batch: config.batch,
        },
    )
    .with_window(start, len)
}

fn random_input(rng: &mut rand::rngs::StdRng, input_len: usize) -> Vec<u8> {
    let mut input = vec![0u8; input_len];
    rng.fill(&mut input[..]);
    input
}

fn cpa_outcome<S>(
    config: &MaskedConfig,
    target: &Target,
    window: (u64, u64),
    seed_salt: u64,
    model: S,
    correct: u8,
) -> Result<AttackOutcome, Box<dyn std::error::Error>>
where
    S: sca_analysis::SelectionFunction + Send + Sync,
{
    let input_len = target.input_len;
    let name = model.name();
    let sink = campaign(config, seed_salt, window).run(
        &target.cpu,
        target.entry,
        |rng, _| random_input(rng, input_len),
        target.stage,
        |samples| CpaSink::new(&model, 256, samples),
    )?;
    let result = sink.finish();
    Ok(AttackOutcome {
        model: name,
        recovered: result.best_guess() as u8,
        correct,
        rank: result.rank_of(usize::from(correct)),
        peak: result.peak(usize::from(correct)).1.abs(),
        best_wrong: result.best_wrong_peak(usize::from(correct)),
    })
}

/// `(max |t|, leaks, (fixed, random) trace counts)`.
type TvlaOutcome = (f64, bool, (u64, u64));

fn tvla_outcome(
    config: &MaskedConfig,
    target: &Target,
    window: (u64, u64),
) -> Result<TvlaOutcome, Box<dyn std::error::Error>> {
    let input_len = target.input_len;
    let sink = campaign(config, 0x77e5, window).run(
        &target.cpu,
        target.entry,
        |rng, index| {
            let mut input = random_input(rng, input_len);
            // Even trace indices form the fixed population; masks (any
            // bytes past 16) stay random in both.
            if index != usize::MAX && index % 2 == 0 {
                input[..16].copy_from_slice(&TVLA_FIXED_PT);
            }
            input
        },
        target.stage,
        |samples| TtestSink::new(|input: &[u8]| input[..16] == TVLA_FIXED_PT, samples),
    )?;
    let (fixed, random) = sink.counts();
    if fixed < 2 || random < 2 {
        return Err(sca_target::TargetError::TooFewTraces { fixed, random }.into());
    }
    Ok((sink.max_t(), sink.leaks(), (fixed, random)))
}

fn assess_target(
    config: &MaskedConfig,
    target: &Target,
    windows: &SubBytesWindow,
) -> Result<TargetResult, Box<dyn std::error::Error>> {
    let window = windows.trigger_relative;
    let hw = cpa_outcome(
        config,
        target,
        windows.round1,
        0x0,
        SubBytesHw {
            byte: config.target_byte,
        },
        config.key[config.target_byte],
    )?;
    let hd = cpa_outcome(
        config,
        target,
        window,
        0x0,
        SubBytesStoreHd {
            byte: config.target_byte,
            prev_key: config.key[config.target_byte - 1],
        },
        config.key[config.target_byte],
    )?;
    let (tvla_max_t, tvla_leaks, tvla_counts) = tvla_outcome(config, target, window)?;
    Ok(TargetResult {
        name: target.name.to_owned(),
        hw,
        hd,
        tvla_max_t,
        tvla_leaks,
        tvla_counts,
        window_cycles: window.1,
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

fn audit_target(
    config: &MaskedConfig,
    target: &Target,
    uarch: &UarchConfig,
    windows: &SubBytesWindow,
) -> Result<AuditSummary, Box<dyn std::error::Error>> {
    let window = windows.absolute;
    let models = audit_models(config);
    // The audit builds its own bare CPU, so the stage closure must set
    // up the whole memory contract: S-box and round keys, then the
    // per-execution input (state + masks).
    let rk = expand_key(&config.key);
    let stage = move |cpu: &mut Cpu, input: &[u8]| {
        cpu.mem_mut()
            .write_bytes(SBOX_ADDR, &SBOX)
            .expect("S-box is mapped");
        cpu.mem_mut()
            .write_bytes(RK_ADDR, &rk)
            .expect("round keys are mapped");
        stage_masked(cpu, input);
    };
    let report = audit_program(
        uarch,
        &target.program,
        target.input_len,
        stage,
        &models,
        &AuditConfig {
            executions: config.audit_executions,
            window: Some(window),
            seed: config.seed ^ 0xa0d17,
            threads: config.threads,
            ..AuditConfig::default()
        },
    )?;
    let hd_model = models[0].name.clone();
    let hw_model = models[1].name.clone();
    let operand_path = report
        .findings
        .iter()
        .filter(|f| {
            f.model == hd_model && matches!(f.node, Node::OperandBus(_) | Node::IsExOp { .. })
        })
        .count();
    let memory_path = report
        .findings
        .iter()
        .filter(|f| f.model == hd_model && matches!(f.node, Node::Mdr | Node::AlignBuf))
        .count();
    Ok(AuditSummary {
        operand_path,
        memory_path,
        hw_findings: report.findings_for(&hw_model).len(),
        total: report.findings.len(),
    })
}

/// Runs the full countermeasure suite.
///
/// # Errors
///
/// Propagates simulator, scheduler and campaign faults.
pub fn run_masked(config: &MaskedConfig) -> Result<MaskedResult, Box<dyn std::error::Error>> {
    let uarch = UarchConfig::cortex_a7();
    let (targets, harden) = build_targets(config, &uarch)?;

    // One pipeline probe per target resolves every analysis window.
    let windows = targets
        .iter()
        .map(subbytes_window)
        .collect::<Result<Vec<_>, _>>()?;

    let mut results = Vec::new();
    for (target, window) in targets.iter().zip(&windows) {
        results.push(assess_target(config, target, window)?);
    }

    let audit_masked = audit_target(config, &targets[1], &uarch, &windows[1])?;
    let audit_scheduled = audit_target(config, &targets[2], &uarch, &windows[2])?;

    // Re-attack the *masked* target under the uarch ablations the paper
    // singles out: scalar issue and the align buffer.
    let mut ablations = Vec::new();
    let ablation_matrix: Vec<(&str, UarchConfig)> = if config.ablations {
        vec![
            ("dual-issue off (scalar)", UarchConfig::scalar()),
            ("align buffer off", {
                let mut c = uarch.clone();
                c.align_buffer = false;
                c
            }),
        ]
    } else {
        Vec::new()
    };
    for (name, ablated) in &ablation_matrix {
        let masked = MaskedAesSim::new(ablated.clone(), &config.key)?;
        let target = Target {
            name: "masked",
            cpu: masked.cpu().clone(),
            entry: masked.entry(),
            input_len: MASKED_INPUT_LEN,
            stage: stage_masked,
            program: aes128_masked_program()?,
        };
        let window = subbytes_window(&target)?.trigger_relative;
        let hd = cpa_outcome(
            config,
            &target,
            window,
            0x0,
            SubBytesStoreHd {
                byte: config.target_byte,
                prev_key: config.key[config.target_byte - 1],
            },
            config.key[config.target_byte],
        )?;
        ablations.push(AblationRow {
            name: (*name).to_owned(),
            hd,
        });
    }

    Ok(MaskedResult {
        targets: results,
        audit_masked,
        audit_scheduled,
        harden,
        ablations,
    })
}
