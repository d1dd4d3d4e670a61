//! Leakage audit of arbitrary programs — the "static analysis /
//! countermeasure checking" integration the paper proposes (Sections 2
//! and 5).
//!
//! Given a program, a way to stage random inputs, and a set of *secret
//! expressions* (e.g. "the Hamming distance between share 0 and share 1
//! of a masked value"), the auditor runs the program many times under a
//! [`sca_uarch::RecordingObserver`], collects the per-node transition
//! activity, and reports every `(node, cycle)` whose switching correlates
//! with a secret expression. No power model or noise is involved: this is
//! the noise-free, microarchitecture-aware upper bound on what an
//! attacker could see — exactly what a developer wants from a
//! pre-silicon/pre-deployment check.
//!
//! The flagship use case is the paper's Section 4.2 warning: swapping the
//! operands of a commutative instruction, or letting two shares of a
//! masked secret ride the same operand bus in consecutive instructions,
//! creates leakage invisible to ISA-level reasoning. The audit finds it
//! in seconds.

use std::collections::BTreeMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sca_analysis::{pearson, significance_threshold};
use sca_isa::{Insn, Program};
use sca_uarch::{
    Cpu, Node, NodeEvent, PipelineObserver, RecordingObserver, UarchConfig, UarchError,
};

/// Boxed secret-expression function.
pub type SecretFn = Box<dyn Fn(&[u8]) -> f64 + Send + Sync>;

/// A named secret-dependent expression evaluated over the staged input.
pub struct SecretModel {
    /// Name shown in findings (e.g. `HD(share0, share1)`).
    pub name: String,
    /// The expression.
    pub f: SecretFn,
}

impl SecretModel {
    /// Creates a named secret expression.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&[u8]) -> f64 + Send + Sync + 'static,
    ) -> SecretModel {
        SecretModel {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl fmt::Debug for SecretModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecretModel({})", self.name)
    }
}

/// Audit campaign parameters.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Number of random-input executions.
    pub executions: usize,
    /// Detection confidence for the correlation test.
    pub confidence: f64,
    /// Master seed for input generation.
    pub seed: u64,
    /// Restricts the audit to events in `[start, end)` cycles. Programs
    /// under audit are constant-time, so a cycle window selects the same
    /// program region in every execution; without one, auditing a full
    /// cipher would record per-execution activity for every (node,
    /// cycle) pair of the whole run. The countermeasure experiments use
    /// this to focus on the round-1 SubBytes of the masked AES. Every
    /// execution but the first (whose retirements locate findings in
    /// the source) stops its walk at `end`.
    pub window: Option<(u64, u64)>,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig {
            executions: 600,
            confidence: 0.9999,
            seed: 0xaadd17,
            window: None,
        }
    }
}

/// One detected leak.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The leaking microarchitectural node.
    pub node: Node,
    /// Cycle (relative to execution start) of the correlated transition.
    pub cycle: u64,
    /// The secret expression that correlates.
    pub model: String,
    /// Correlation coefficient observed.
    pub corr: f64,
    /// Source line of the instruction retiring closest to the event, if
    /// the program carries a source map.
    pub source_line: Option<usize>,
}

/// The audit outcome.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// All findings, strongest first.
    pub findings: Vec<Finding>,
    /// Executions used.
    pub executions: usize,
}

impl AuditReport {
    /// Whether any secret expression leaks anywhere.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings involving a specific secret expression.
    pub fn findings_for(&self, model: &str) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.model == model).collect()
    }

    /// Renders a human-readable report.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return format!(
                "audit clean: no secret expression correlates with any \
                 microarchitectural node ({} executions)\n",
                self.executions
            );
        }
        let mut out = format!(
            "audit found {} leaking (node, cycle, model) combinations ({} executions):\n",
            self.findings.len(),
            self.executions
        );
        for f in &self.findings {
            out.push_str(&format!(
                "  {:<18} cycle {:<6} {} corr {:+.3}{}\n",
                f.node.to_string(),
                f.cycle,
                f.model,
                f.corr,
                f.source_line
                    .map(|l| format!("  (source line {l})"))
                    .unwrap_or_default(),
            ));
        }
        out
    }
}

/// A recording observer whose walk stops at `horizon`.
struct Walk {
    recording: RecordingObserver,
    horizon: u64,
}

impl PipelineObserver for Walk {
    fn node_event(&mut self, event: NodeEvent) {
        self.recording.node_event(event);
    }

    fn retire(&mut self, cycle: u64, addr: u32, insn: Insn) {
        self.recording.retire(cycle, addr, insn);
    }

    fn horizon(&self) -> u64 {
        self.horizon
    }
}

/// Runs the audit.
///
/// `stage` receives the CPU and the input bytes before every execution;
/// inputs are uniform random bytes of length `input_len`.
///
/// # Errors
///
/// Propagates simulator faults.
pub fn audit_program(
    uarch: &UarchConfig,
    program: &Program,
    input_len: usize,
    stage: impl Fn(&mut Cpu, &[u8]),
    models: &[SecretModel],
    config: &AuditConfig,
) -> Result<AuditReport, UarchError> {
    use rand::Rng;

    let mut cpu = Cpu::new(uarch.clone());
    cpu.load(program)?;
    // Warm-up.
    stage(&mut cpu, &vec![0u8; input_len]);
    cpu.run(&mut sca_uarch::NullObserver)?;

    let mut rng = StdRng::seed_from_u64(config.seed);
    // (node, cycle) -> per-execution Hamming distance of the transition.
    let mut activity: BTreeMap<(Node, u64), Vec<f64>> = BTreeMap::new();
    let mut inputs: Vec<Vec<u8>> = Vec::with_capacity(config.executions);
    let mut retire_lines: BTreeMap<u64, usize> = BTreeMap::new();

    for execution in 0..config.executions {
        let mut input = vec![0u8; input_len];
        rng.fill(&mut input[..]);
        cpu.restart_seeded(program.entry(), 0xaad017 ^ execution as u64);
        stage(&mut cpu, &input);
        let mut walk = Walk {
            recording: RecordingObserver::new(),
            horizon: match config.window {
                Some((_, end)) if execution > 0 => end,
                _ => u64::MAX,
            },
        };
        cpu.run(&mut walk)?;
        let obs = walk.recording;
        for event in &obs.events {
            if let Some((start, end)) = config.window {
                if event.cycle < start || event.cycle >= end {
                    continue;
                }
            }
            activity
                .entry((event.node, event.cycle))
                .or_insert_with(|| vec![0.0; config.executions])[execution] =
                f64::from(event.hamming_distance());
        }
        if execution == 0 {
            for &(cycle, addr) in &obs.retirements {
                if let Some(line) = program.source_line(addr) {
                    retire_lines.insert(cycle, line);
                }
            }
        }
        inputs.push(input);
    }

    let threshold = significance_threshold(config.executions as u64, config.confidence);
    let mut findings = Vec::new();
    for model in models {
        let predictions: Vec<f64> = inputs.iter().map(|i| (model.f)(i)).collect();
        for ((node, cycle), series) in &activity {
            let corr = pearson(&predictions, series);
            if corr.abs() >= threshold {
                // Attribute to the closest retirement at or after the
                // event cycle (approximate source location).
                let source_line = retire_lines
                    .range(cycle..)
                    .next()
                    .or_else(|| retire_lines.range(..cycle).next_back())
                    .map(|(_, &line)| line);
                findings.push(Finding {
                    node: *node,
                    cycle: *cycle,
                    model: model.name.clone(),
                    corr,
                    source_line,
                });
            }
        }
    }
    findings.sort_by(|a, b| b.corr.abs().partial_cmp(&a.corr.abs()).expect("finite"));
    Ok(AuditReport {
        findings,
        executions: config.executions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sca_analysis::input_word;
    use sca_isa::assemble;
    use sca_isa::Reg;

    fn a7() -> UarchConfig {
        UarchConfig::cortex_a7().with_ideal_memory()
    }

    /// Two shares of a masked secret processed back-to-back: their HD
    /// appears on the shared operand bus / IS-EX buffer.
    #[test]
    fn detects_share_recombination_on_operand_bus() {
        let program = assemble(
            "
            nop
            nop
            eor r2, r0, r4     ; uses share0 (r0)
            eor r3, r1, r4     ; uses share1 (r1) -> same bus position
            nop
            nop
            halt
        ",
        )
        .unwrap();
        let models = [SecretModel::new("HD(share0, share1)", |i: &[u8]| {
            f64::from((input_word(i, 0) ^ input_word(i, 1)).count_ones())
        })];
        let report = audit_program(
            &a7(),
            &program,
            8,
            |cpu, input| {
                cpu.set_reg(Reg::R0, input_word(input, 0));
                cpu.set_reg(Reg::R1, input_word(input, 1));
                cpu.set_reg(Reg::R4, 0x5a5a_5a5a);
            },
            &models,
            &AuditConfig {
                executions: 300,
                ..AuditConfig::default()
            },
        )
        .unwrap();
        assert!(!report.is_clean(), "share recombination must be flagged");
        // The leak must involve an IS/EX-class node.
        assert!(
            report
                .findings
                .iter()
                .any(|f| matches!(f.node, Node::OperandBus(_) | Node::IsExOp { .. })),
            "expected an operand-path finding, got {:?}",
            report.findings
        );
    }

    /// The same computation with an unrelated instruction in between and
    /// distinct bus positions: the recombination disappears.
    #[test]
    fn scheduling_distance_removes_the_leak() {
        let program = assemble(
            "
            nop
            nop
            eor r2, r0, r4
            mov r6, r7          ; spacer rewrites the bus
            mov r6, r7
            eor r3, r1, r4
            nop
            nop
            halt
        ",
        )
        .unwrap();
        let models = [SecretModel::new("HD(share0, share1)", |i: &[u8]| {
            f64::from((input_word(i, 0) ^ input_word(i, 1)).count_ones())
        })];
        let report = audit_program(
            &a7(),
            &program,
            8,
            |cpu, input| {
                cpu.set_reg(Reg::R0, input_word(input, 0));
                cpu.set_reg(Reg::R1, input_word(input, 1));
                cpu.set_reg(Reg::R4, 0x5a5a_5a5a);
                cpu.set_reg(Reg::R7, 0x1234_5678);
            },
            &models,
            &AuditConfig {
                executions: 300,
                ..AuditConfig::default()
            },
        )
        .unwrap();
        let bus_findings: Vec<_> = report
            .findings
            .iter()
            .filter(|f| {
                matches!(f.node, Node::OperandBus(_) | Node::IsExOp { .. })
                    && f.model == "HD(share0, share1)"
            })
            .collect();
        assert!(
            bus_findings.is_empty(),
            "spacers should break the recombination: {bus_findings:?}"
        );
    }

    /// A cycle window hides findings outside it without disturbing the
    /// ones inside.
    #[test]
    fn window_restricts_findings() {
        let program = assemble(
            "
            nop
            mov r2, r0      ; the secret crosses the bus early
            nop
            nop
            nop
            nop
            nop
            mov r3, r0      ; ...and again late
            nop
            halt
        ",
        )
        .unwrap();
        let models = || {
            [SecretModel::new("HW(secret)", |i: &[u8]| {
                f64::from(input_word(i, 0).count_ones())
            })]
        };
        let stage = |cpu: &mut Cpu, input: &[u8]| cpu.set_reg(Reg::R0, input_word(input, 0));
        let config = AuditConfig {
            executions: 200,
            ..AuditConfig::default()
        };
        let full = audit_program(&a7(), &program, 4, stage, &models(), &config).unwrap();
        assert!(!full.is_clean());
        let last = full.findings.iter().map(|f| f.cycle).max().unwrap();
        let windowed = audit_program(
            &a7(),
            &program,
            4,
            stage,
            &models(),
            &AuditConfig {
                window: Some((0, 4)),
                ..config
            },
        )
        .unwrap();
        assert!(windowed.findings.iter().all(|f| f.cycle < 4));
        assert!(
            windowed.findings.len() < full.findings.len(),
            "window must exclude the late findings (full had one at cycle {last})"
        );
    }

    #[test]
    fn clean_program_reports_clean() {
        let program = assemble(
            "
            nop
            mov r2, r7
            nop
            halt
        ",
        )
        .unwrap();
        let models = [SecretModel::new("secret", |i: &[u8]| {
            f64::from(input_word(i, 0).count_ones())
        })];
        let report = audit_program(
            &a7(),
            &program,
            4,
            |cpu, _input| {
                // The secret never enters the CPU.
                cpu.set_reg(Reg::R7, 42);
            },
            &models,
            &AuditConfig {
                executions: 200,
                ..AuditConfig::default()
            },
        )
        .unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.render().contains("clean"));
    }

    #[test]
    fn findings_carry_source_lines() {
        let program = assemble(
            "
            nop
            mov r2, r0      ; line 3: secret touches the bus
            nop
            halt
        ",
        )
        .unwrap();
        let models = [SecretModel::new("HW(secret)", |i: &[u8]| {
            f64::from(input_word(i, 0).count_ones())
        })];
        let report = audit_program(
            &a7(),
            &program,
            4,
            |cpu, input| cpu.set_reg(Reg::R0, input_word(input, 0)),
            &models,
            &AuditConfig {
                executions: 200,
                ..AuditConfig::default()
            },
        )
        .unwrap();
        assert!(!report.is_clean());
        assert!(report.findings.iter().any(|f| f.source_line.is_some()));
        assert!(report.render().contains("HW(secret)"));
    }
}
