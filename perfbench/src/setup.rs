//! The set-up every workload shares: assemble the target programs,
//! build and warm each target's template CPU, resolve its analysis
//! windows, and probe one execution for its per-execution work.

use std::error::Error;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sca_target::{portfolio, resolve_window, CipherTarget};
use sca_uarch::{Cpu, NodeEvent, PipelineObserver, UarchConfig};

/// Counts node events; the benchmark's measure of pipeline activity.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeEventCounter {
    /// Node events seen.
    pub events: u64,
}

impl PipelineObserver for NodeEventCounter {
    fn node_event(&mut self, _event: NodeEvent) {
        self.events += 1;
    }
}

/// Simulated work of one execution of a target's program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecWork {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Node events emitted.
    pub node_events: u64,
}

/// One registered target, built and probed.
pub struct PreparedTarget {
    /// The target.
    pub target: Box<dyn CipherTarget>,
    /// Its warmed template CPU.
    pub cpu: Cpu,
    /// One execution's simulated work (the programs are constant-time,
    /// so every execution does the same).
    pub per_exec: ExecWork,
}

/// The shared set-up, with the time its two costly steps took.
pub struct Setup {
    /// The modelled microarchitecture.
    pub uarch: UarchConfig,
    /// Every portfolio target, in registry order.
    pub targets: Vec<PreparedTarget>,
    /// Seconds spent assembling the four target programs from source.
    pub assemble_s: f64,
    /// Seconds spent building (loading and warming) the targets.
    pub build_s: f64,
}

impl Setup {
    /// Assembles, builds and probes every portfolio target.
    ///
    /// # Errors
    ///
    /// Assembler, simulator and window faults.
    pub fn new() -> Result<Setup, Box<dyn Error>> {
        let start = Instant::now();
        for source in [
            sca_aes::AES128_ASM,
            sca_aes::AES128_MASKED_ASM,
            sca_target::SPECK64128_ASM,
            sca_target::PRESENT80_ASM,
        ] {
            std::hint::black_box(sca_isa::assemble(source)?);
        }
        let assemble_s = start.elapsed().as_secs_f64();

        let uarch = UarchConfig::cortex_a7();
        let mut build_s = 0.0;
        let mut targets = Vec::new();
        for target in portfolio() {
            let start = Instant::now();
            let cpu = target.build(&uarch)?;
            build_s += start.elapsed().as_secs_f64();
            for model in target.models() {
                resolve_window(target.as_ref(), &cpu, &model.window)?;
            }
            resolve_window(target.as_ref(), &cpu, &target.primary_window())?;
            let per_exec = probe_execution(target.as_ref(), &cpu)?;
            targets.push(PreparedTarget {
                target,
                cpu,
                per_exec,
            });
        }
        Ok(Setup {
            uarch,
            targets,
            assemble_s,
            build_s,
        })
    }

    /// Simulated work of `runs` measured `power/simulator_runs`, split
    /// evenly over the targets: every workload gives each target the same
    /// campaigns, so each target ran `runs / targets` executions. `None`
    /// when `runs` does not split evenly, i.e. the split does not hold.
    pub fn work_of_runs(&self, runs: u64) -> Option<ExecWork> {
        let targets = self.targets.len() as u64;
        if !runs.is_multiple_of(targets) {
            return None;
        }
        let per_target = runs / targets;
        let mut total = ExecWork::default();
        for prepared in &self.targets {
            total.cycles += per_target * prepared.per_exec.cycles;
            total.instructions += per_target * prepared.per_exec.instructions;
            total.node_events += per_target * prepared.per_exec.node_events;
        }
        Some(total)
    }
}

/// Runs one execution of `target` on a clone of `cpu` with a fixed
/// input, counting its cycles, instructions and node events.
fn probe_execution(target: &dyn CipherTarget, cpu: &Cpu) -> Result<ExecWork, Box<dyn Error>> {
    let mut cpu = cpu.clone();
    let input = target.generate(&mut StdRng::seed_from_u64(0x9e0b), 0);
    cpu.restart_seeded(target.program().entry(), 0);
    target.stage(&mut cpu, &input);
    let mut counter = NodeEventCounter::default();
    let stats = cpu.run(&mut counter)?;
    Ok(ExecWork {
        cycles: stats.cycles,
        instructions: stats.instructions,
        node_events: counter.events,
    })
}
