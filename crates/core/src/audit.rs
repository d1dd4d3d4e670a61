//! Leakage audit of arbitrary programs — the "static analysis /
//! countermeasure checking" integration the paper proposes (Sections 2
//! and 5).
//!
//! Given a program, a way to stage random inputs, and a set of *secret
//! expressions* (e.g. "the Hamming distance between share 0 and share 1
//! of a masked value"), the auditor runs the program many times, keeps
//! the Hamming distance of every node transition, and reports every
//! `(node, cycle)` whose switching correlates with a secret expression.
//! No power model or noise is involved: this is the noise-free,
//! microarchitecture-aware upper bound on what an attacker could see —
//! exactly what a developer wants from a pre-silicon/pre-deployment
//! check.
//!
//! The executions run on the lane-generic walk, as the campaign
//! engines' traces do: sharded over worker threads and stepped in
//! lockstep lanes, each from the warmed template. A report does not
//! depend on the thread or lane count.
//!
//! The flagship use case is the paper's Section 4.2 warning: swapping the
//! operands of a commutative instruction, or letting two shares of a
//! masked secret ride the same operand bus in consecutive instructions,
//! creates leakage invisible to ISA-level reasoning. The audit finds it
//! in seconds.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sca_analysis::{pearson, significance_threshold};
use sca_campaign::{run_sharded, Lockstep, Mergeable, ShardPlan, DEFAULT_BATCH, DEFAULT_LANES};
use sca_isa::{Insn, Program};
use sca_uarch::{
    BlockObserver, Cpu, CpuBlock, LaneSim, Node, NodeEvent, NullObserver, SharedWalk, UarchConfig,
    UarchError, MAX_LANES,
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
///
/// Execution `e` takes the `e`-th input drawn from
/// `StdRng::seed_from_u64(seed)` and scrambles the stale node state
/// with `0xaad017 ^ e`; it starts from the warmed template, so it is a
/// pure function of `(seed, e)` whichever worker or lane runs it.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Number of random-input executions (at least 4, which the
    /// significance threshold needs).
    pub executions: usize,
    /// Detection confidence for the correlation test.
    pub confidence: f64,
    /// Master seed for input generation.
    pub seed: u64,
    /// Restricts the audit to events in `[start, end)` cycles. Programs
    /// under audit are constant-time, so a cycle window selects the same
    /// program region in every execution; without one, auditing a full
    /// cipher would keep per-execution activity for every (node, cycle)
    /// pair of the whole run. The countermeasure experiments use this to
    /// focus on the round-1 SubBytes of the masked AES. Every execution
    /// but the first stops its walk at `end`; the first, whose
    /// retirements locate findings in the source, walks on until the
    /// first source-mapped retirement at or after the window's last
    /// cycle.
    pub window: Option<(u64, u64)>,
    /// Worker threads the executions are sharded over.
    pub threads: usize,
    /// Lockstep lanes: consecutive executions simulated together through
    /// one `CpuBlock` walk (1 disables lockstep).
    pub lanes: usize,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig {
            executions: 600,
            confidence: 0.9999,
            seed: 0xaadd17,
            window: None,
            threads: 1,
            lanes: DEFAULT_LANES,
        }
    }
}

/// Executions the significance threshold needs at least.
const NEEDED_EXECUTIONS: usize = 4;

/// Why an audit did not produce a report.
#[derive(Debug)]
pub enum AuditError {
    /// Fewer executions than the significance threshold needs; nothing
    /// was simulated.
    TooFewExecutions {
        /// Executions requested.
        executions: usize,
        /// Executions needed at least.
        needed: usize,
    },
    /// A simulator fault.
    Uarch(UarchError),
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::TooFewExecutions { executions, needed } => write!(
                f,
                "an audit needs at least {needed} executions, got {executions}"
            ),
            AuditError::Uarch(e) => write!(f, "simulator fault: {e}"),
        }
    }
}

impl std::error::Error for AuditError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AuditError::Uarch(e) => Some(e),
            AuditError::TooFewExecutions { .. } => None,
        }
    }
}

impl From<UarchError> for AuditError {
    fn from(e: UarchError) -> AuditError {
        AuditError::Uarch(e)
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

/// Execution 0's source-mapped retirements: `(cycle, line)` in cycle
/// order, one per cycle (the cycle's last).
type Lines = Vec<(u64, usize)>;

/// The line of the first retirement at or after `cycle`, else of the
/// last before it (approximate source location).
fn source_line(lines: &Lines, cycle: u64) -> Option<usize> {
    let after = lines.partition_point(|&(c, _)| c < cycle);
    lines.get(after).or(lines.last()).map(|&(_, line)| line)
}

/// Records one lockstep group's in-window activity: lane `l`'s
/// transitions land in `rows[l]`, one byte per `(cycle, node)` cell at
/// `(cycle - start) · Node::COUNT + node.dense_index()`, holding the
/// Hamming distance plus one (0: no transition). A cell hit twice keeps
/// the later transition. Rows grow with the cycles seen, so executions
/// may run for different numbers of cycles.
struct Recorder<'a> {
    rows: &'a mut [Vec<u8>],
    window: (u64, u64),
    /// On execution 0's walk: its program, for the source map, and the
    /// lines its retirements reach.
    lines: Option<(&'a Program, &'a mut Lines)>,
    horizon: u64,
}

impl BlockObserver for Recorder<'_> {
    #[inline]
    fn node_events(&mut self, events: &[NodeEvent]) {
        let Some(first) = events.first() else {
            return;
        };
        let (start, end) = self.window;
        if first.cycle < start || first.cycle >= end {
            return;
        }
        let offset = (first.cycle - start) as usize * Node::COUNT;
        let cell = offset + first.node.dense_index();
        for (row, event) in self.rows.iter_mut().zip(events) {
            if row.len() <= cell {
                row.resize(offset + Node::COUNT, 0);
            }
            row[cell] = event.hamming_distance() as u8 + 1;
        }
    }

    fn retire(&mut self, cycle: u64, addr: u32, _insn: Insn) {
        let Some((program, lines)) = &mut self.lines else {
            return;
        };
        let Some(line) = program.source_line(addr) else {
            return;
        };
        match lines.last_mut() {
            Some(last) if last.0 == cycle => last.1 = line,
            _ => lines.push((cycle, line)),
        }
        // Findings lie before the window's end, so a lookup never reads
        // past the first line at or after the window's last cycle: the
        // walk ends once that cycle completes.
        if cycle >= self.window.1.saturating_sub(1) {
            self.horizon = cycle + 1;
        }
    }

    fn horizon(&self) -> u64 {
        self.horizon
    }
}

/// One worker's share of the audit: a row per execution, in execution
/// order, and execution 0's source lines.
#[derive(Default)]
struct Activity {
    rows: Vec<Vec<u8>>,
    lines: Lines,
}

impl Mergeable for Activity {
    fn merge(&mut self, other: Activity) {
        self.rows.extend(other.rows);
        self.lines.extend(other.lines);
    }
}

/// The executions' shared inputs.
struct Executions<'a, S> {
    program: &'a Program,
    stage: &'a S,
    inputs: &'a [Vec<u8>],
    window: (u64, u64),
}

impl<S: Fn(&mut Cpu, &[u8]) + Sync> Executions<'_, S> {
    /// Walks executions `base..base + count`, one per lane of `sim`, and
    /// returns their rows. Every execution starts from the template and
    /// walks: each is a trace of its own, with nothing to share. A walk
    /// that does not diverge publishes its work, as the campaign
    /// engines' do ([`sca_power::publish_walks`]).
    fn walk<C: LaneSim>(
        &self,
        sim: &mut C,
        base: usize,
        count: usize,
        lines: Option<&mut Lines>,
    ) -> Result<Vec<Vec<u8>>, C::Error> {
        let mut seeds = [0u64; MAX_LANES];
        for (seed, e) in seeds[..count].iter_mut().zip(base..) {
            *seed = 0xaad017 ^ e as u64;
        }
        let mut shared = SharedWalk::start(sim, count);
        sim.restart_lanes(self.program.entry(), &seeds[..count]);
        for (lane, input) in self.inputs[base..base + count].iter().enumerate() {
            (self.stage)(sim.lane_cpu(lane), input);
        }
        let walks = shared.must_walk(sim);
        debug_assert!(walks, "a trace's first execution walks");
        let mut rows = vec![Vec::new(); count];
        let mut recorder = Recorder {
            rows: &mut rows,
            window: self.window,
            horizon: if lines.is_some() {
                u64::MAX
            } else {
                self.window.1
            },
            lines: lines.map(|lines| (self.program, lines)),
        };
        let cycles = sim.run_lanes(&mut recorder)?.cycles * shared.walking();
        shared.walked(sim);
        sca_power::publish_walks(count as u64, cycles, &shared);
        Ok(rows)
    }
}

/// Runs the audit.
///
/// The template is a fresh CPU with `program` loaded, warmed by one
/// execution of an all-zero input; `stage` receives a CPU and the input
/// bytes before every execution, and inputs are uniform random bytes of
/// length `input_len`.
///
/// # Errors
///
/// [`AuditError::TooFewExecutions`] below four executions, before any
/// simulation; propagates simulator faults.
pub fn audit_program(
    uarch: &UarchConfig,
    program: &Program,
    input_len: usize,
    stage: impl Fn(&mut Cpu, &[u8]) + Sync,
    models: &[SecretModel],
    config: &AuditConfig,
) -> Result<AuditReport, AuditError> {
    check_executions(config.executions)?;
    let mut template = Cpu::new(uarch.clone());
    template.load(program)?;
    // Warm-up.
    stage(&mut template, &vec![0u8; input_len]);
    template.run(&mut NullObserver)?;
    audit_template(&template, program, input_len, &stage, models, config)
}

fn check_executions(executions: usize) -> Result<(), AuditError> {
    if executions < NEEDED_EXECUTIONS {
        return Err(AuditError::TooFewExecutions {
            executions,
            needed: NEEDED_EXECUTIONS,
        });
    }
    Ok(())
}

/// The audit of `program` on clones of the loaded, warmed `template`
/// (see [`audit_program`]).
pub(crate) fn audit_template<S>(
    template: &Cpu,
    program: &Program,
    input_len: usize,
    stage: &S,
    models: &[SecretModel],
    config: &AuditConfig,
) -> Result<AuditReport, AuditError>
where
    S: Fn(&mut Cpu, &[u8]) + Sync,
{
    check_executions(config.executions)?;
    let executions = config.executions;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let inputs: Vec<Vec<u8>> = (0..executions)
        .map(|_| {
            let mut input = vec![0u8; input_len];
            rng.fill(&mut input[..]);
            input
        })
        .collect();
    let window = config.window.unwrap_or((0, u64::MAX));
    let run = Executions {
        program,
        stage,
        inputs: &inputs,
        window,
    };
    let plan = ShardPlan {
        items: executions,
        threads: config.threads.max(1),
        batch: DEFAULT_BATCH,
    };
    let worker = || {
        Lockstep::new(config.lanes, template.clone(), |lanes| {
            CpuBlock::from_template(template, lanes)
        })
    };
    let Activity { rows, lines } =
        run_sharded(&plan, worker, Activity::default, |sims, activity, range| {
            let mut e = range.start;
            while e < range.end {
                // Execution 0 walks past the window, alone: its
                // retirements place findings in the source.
                let count = if e == 0 {
                    1
                } else {
                    sims.lanes().min(range.end - e)
                };
                sims.group(
                    activity,
                    (e, count),
                    |block, activity| {
                        activity.rows.extend(run.walk(block, e, count, None).ok()?);
                        Some(())
                    },
                    |cpu, activity, e| {
                        let lines = (e == 0).then_some(&mut activity.lines);
                        run.walk(cpu, e, 1, lines)
                            .map(|rows| activity.rows.extend(rows))
                    },
                )?;
                e += count;
            }
            Ok::<(), UarchError>(())
        })?;

    // Every (node, cycle) cell some execution touched, in (node, cycle)
    // order; an execution without a transition there contributes 0.
    let threshold = significance_threshold(executions as u64, config.confidence);
    let predictions: Vec<Vec<f64>> = models
        .iter()
        .map(|model| inputs.iter().map(|input| (model.f)(input)).collect())
        .collect();
    let width = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut touched = vec![false; width];
    for row in &rows {
        for (touched, &cell) in touched.iter_mut().zip(row) {
            *touched |= cell != 0;
        }
    }
    let mut found: Vec<Vec<Finding>> = vec![Vec::new(); models.len()];
    let mut series = vec![0.0; executions];
    for dense in 0..Node::COUNT {
        let node = Node::from_dense_index(dense);
        for cell in (dense..width).step_by(Node::COUNT) {
            if !touched[cell] {
                continue;
            }
            for (value, row) in series.iter_mut().zip(&rows) {
                *value = f64::from(row.get(cell).map_or(0, |&hd| hd.saturating_sub(1)));
            }
            let cycle = window.0 + (cell / Node::COUNT) as u64;
            for ((model, predictions), found) in models.iter().zip(&predictions).zip(&mut found) {
                let corr = pearson(predictions, &series);
                if corr.abs() >= threshold {
                    found.push(Finding {
                        node,
                        cycle,
                        model: model.name.clone(),
                        corr,
                        source_line: source_line(&lines, cycle),
                    });
                }
            }
        }
    }
    let mut findings: Vec<Finding> = found.into_iter().flatten().collect();
    findings.sort_by(|a, b| b.corr.abs().partial_cmp(&a.corr.abs()).expect("finite"));
    Ok(AuditReport {
        findings,
        executions,
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
