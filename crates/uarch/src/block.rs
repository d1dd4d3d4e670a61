//! Lockstep multi-trace simulation: the pipeline (`pipeline.rs`)
//! driving up to [`MAX_LANES`] independent architectural lanes.
//!
//! The portfolio ciphers are constant-time straight-line code: every
//! trace executes the same instruction sequence with the same timing,
//! differing only in the *data* flowing through the pipeline. A
//! [`CpuBlock`] exploits that by cloning one warmed template [`Cpu`]
//! into N lanes and stepping them in lockstep, each lane's event stream
//! byte-identical to what [`Cpu::run`] over the same trace would emit.
//! Any disagreement between the lanes on control flow or timing, and any
//! fault in one of them, aborts the run with a [`Divergence`]; callers
//! then fall back to per-lane scalar simulation, so divergence affects
//! throughput, never results.

use std::fmt;

use sca_isa::Insn;

use crate::pipeline::{Core, Lane, Lanes, Stop};
use crate::{CacheCounts, Cpu, ExecStats, NodeEvent, PipelineObserver, UarchError};

/// Maximum number of lanes a [`CpuBlock`] can step at once.
pub const MAX_LANES: usize = 8;

/// The lockstep invariant broke: some per-lane quantity that the shared
/// control path depends on differed across lanes (or a lane faulted).
///
/// This is not a simulator error — it means the block fast path does
/// not apply to these traces, and the caller must re-run them through
/// the scalar [`Cpu`] path, which reproduces byte-identical results
/// (and surfaces any genuine fault with full fidelity).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Divergence {
    /// What broke lockstep, for diagnostics.
    pub reason: &'static str,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lockstep divergence: {}", self.reason)
    }
}

impl std::error::Error for Divergence {}

impl From<Stop> for Divergence {
    fn from(stop: Stop) -> Divergence {
        // Faults are per-trace business: the block bows out and lets the
        // scalar fallback surface them.
        let reason = match stop {
            Stop::Diverged(reason) => reason,
            Stop::Fault(UarchError::CycleBudgetExceeded(_)) => "cycle budget exceeded",
            Stop::Fault(UarchError::BadInstruction { .. }) => {
                "undecodable instruction reached issue"
            }
            Stop::Fault(UarchError::BadAddress(_) | UarchError::ImageTooLarge { .. }) => {
                "memory fault inside a lockstep block"
            }
        };
        Divergence { reason }
    }
}

/// Receives per-lane microarchitectural activity from the pipeline: the
/// lanes of a [`CpuBlock`], or the one lane of a [`Cpu`].
///
/// The shape mirrors [`crate::PipelineObserver`] with a lane index on
/// [`BlockObserver::node_event`]; cycle boundaries, trigger edges and
/// retirements are shared across lanes by construction.
pub trait BlockObserver {
    /// Whether the pipeline hands this observer its stale batches apart,
    /// through [`BlockObserver::stale_node_events`]. Telling them apart
    /// costs the walk a few instructions per batch, so the default,
    /// false, leaves it out: every batch then goes to `node_events`.
    /// Fixed per type, so constant over a walk.
    const STALE_EVENTS: bool = false;

    /// Called once at the start of every simulated cycle.
    fn begin_cycle(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// A value was asserted on a tracked node of one lane.
    fn node_event(&mut self, lane: usize, event: NodeEvent) {
        let _ = (lane, event);
    }

    /// One node's assertions across all active lanes of one cycle,
    /// delivered as a batch: `events[l]` is lane `l`'s event, and all
    /// entries share the same cycle and node.
    ///
    /// The default forwards to [`BlockObserver::node_event`] lane by
    /// lane, so implementing it is purely an optimization — recorders
    /// on the hot path override it to resolve the node's kind and
    /// weights once per batch instead of once per lane, without
    /// changing the per-lane event order (and hence without changing
    /// any accumulated value).
    fn node_events(&mut self, events: &[NodeEvent]) {
        for (lane, &event) in events.iter().enumerate() {
            self.node_event(lane, event);
        }
    }

    /// In place of [`BlockObserver::node_events`] when
    /// [`BlockObserver::STALE_EVENTS`] is set, for a batch whose
    /// `before` values are stale: the node's first non-precharged
    /// assertion since the restart, reporting what
    /// [`crate::NodeState::scramble`] left in it
    /// ([`crate::NodeState::stale_value`] of each lane's seed). No other
    /// part of a walk depends on the scramble seeds. The default forwards
    /// to `node_events`; the power recorders also note where these
    /// events land, so an execution that shares the walk can redo those
    /// sums for its own seeds.
    fn stale_node_events(&mut self, events: &[NodeEvent]) {
        self.node_events(events);
    }

    /// The GPIO trigger pin changed level (all lanes switch together).
    fn trigger(&mut self, cycle: u64, high: bool) {
        let _ = (cycle, high);
    }

    /// An instruction retired (in every lane at once).
    fn retire(&mut self, cycle: u64, addr: u32, insn: Insn) {
        let _ = (cycle, addr, insn);
    }

    /// The first cycle this observer no longer needs: a run returns
    /// before beginning it, and calling `run` again resumes there. Asked
    /// before every cycle, so it may move as the run unfolds (the power
    /// recorders set it when the trigger rises). The default,
    /// `u64::MAX`, walks to `halt`.
    fn horizon(&self) -> u64 {
        u64::MAX
    }
}

/// A pipeline observer watches lane 0 (a [`Cpu`]'s only lane).
impl<T: PipelineObserver + ?Sized> BlockObserver for T {
    #[inline]
    fn begin_cycle(&mut self, cycle: u64) {
        PipelineObserver::begin_cycle(self, cycle);
    }

    fn node_event(&mut self, lane: usize, event: NodeEvent) {
        if lane == 0 {
            PipelineObserver::node_event(self, event);
        }
    }

    #[inline(always)]
    fn node_events(&mut self, events: &[NodeEvent]) {
        if let Some(&event) = events.first() {
            PipelineObserver::node_event(self, event);
        }
    }

    #[inline]
    fn trigger(&mut self, cycle: u64, high: bool) {
        PipelineObserver::trigger(self, cycle, high);
    }

    #[inline]
    fn retire(&mut self, cycle: u64, addr: u32, insn: Insn) {
        PipelineObserver::retire(self, cycle, addr, insn);
    }

    #[inline]
    fn horizon(&self) -> u64 {
        PipelineObserver::horizon(self)
    }
}

/// A block's lanes: template clones whose architectural state the
/// shared pipeline drives (their own pipelines stay idle).
#[derive(Clone, Debug)]
struct BlockLanes {
    cpus: Vec<Cpu>,
    /// Lanes driven by the current run (`restart_seeded` sets it from
    /// the seed count; trailing lanes stay untouched).
    active: usize,
}

impl Lanes for BlockLanes {
    #[inline]
    fn active(&self) -> usize {
        self.active
    }

    #[inline]
    fn get(&self, l: usize) -> &Lane {
        &self.cpus[l].core.lanes
    }

    #[inline]
    fn get_mut(&mut self, l: usize) -> &mut Lane {
        &mut self.cpus[l].core.lanes
    }
}

/// N architectural lanes behind one shared pipeline control path.
///
/// Built from a warmed template [`Cpu`] (each lane starts as a clone,
/// so caches and memory begin identical), restarted per execution with
/// per-lane scramble seeds, and run to completion like a scalar CPU.
/// All timing state — front end, hazard scoreboard, LSU occupancy,
/// retire queue, event schedule — is shared; registers, flags, memory,
/// caches and node values are per-lane.
#[derive(Clone, Debug)]
pub struct CpuBlock {
    core: Core<MAX_LANES, BlockLanes>,
}

impl CpuBlock {
    /// Builds a block of `lanes` clones of `template`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is outside `1..=`[`MAX_LANES`].
    pub fn from_template(template: &Cpu, lanes: usize) -> CpuBlock {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "lane count {lanes} outside 1..={MAX_LANES}"
        );
        let cpus = (0..lanes).map(|_| template.clone()).collect();
        CpuBlock {
            core: Core::new(
                template.config().clone(),
                BlockLanes {
                    cpus,
                    active: lanes,
                },
            ),
        }
    }

    /// The block's lane capacity.
    pub fn max_lanes(&self) -> usize {
        self.core.lanes.cpus.len()
    }

    /// One lane's CPU (for staging inputs and reading results).
    pub fn lane(&self, lane: usize) -> &Cpu {
        &self.core.lanes.cpus[lane]
    }

    /// Mutable access to one lane's CPU.
    pub fn lane_mut(&mut self, lane: usize) -> &mut Cpu {
        &mut self.core.lanes.cpus[lane]
    }

    /// Restarts the first `scramble_seeds.len()` lanes at `entry` (each
    /// with its own node-scramble seed, exactly as the scalar
    /// [`Cpu::restart_seeded`] would) and resets the shared control
    /// state. Lanes beyond the seed count are left untouched and not
    /// driven by the next run.
    ///
    /// # Panics
    ///
    /// Panics if the seed count is zero or exceeds the lane capacity.
    pub fn restart_seeded(&mut self, entry: u32, scramble_seeds: &[u64]) {
        let lanes = &mut self.core.lanes;
        assert!(
            !scramble_seeds.is_empty() && scramble_seeds.len() <= lanes.cpus.len(),
            "seed count {} outside 1..={}",
            scramble_seeds.len(),
            lanes.cpus.len()
        );
        lanes.active = scramble_seeds.len();
        for (cpu, &seed) in lanes.cpus.iter_mut().zip(scramble_seeds) {
            cpu.restart_seeded(entry, seed);
        }
        self.core.restart(entry);
    }

    /// Runs all active lanes in lockstep to `halt` or to the observer's
    /// [`BlockObserver::horizon`], streaming per-lane activity to
    /// `observer`; calling again resumes where the last run stopped.
    ///
    /// # Errors
    ///
    /// Returns [`Divergence`] when the lanes stop agreeing on control
    /// flow or timing (or a lane faults); the caller must re-simulate
    /// the affected traces through the scalar path.
    pub fn run<O: BlockObserver>(&mut self, observer: &mut O) -> Result<ExecStats, Divergence> {
        self.core.run(observer).map_err(Divergence::from)
    }
}

/// A simulator stepping one or more lanes through one pipeline: a
/// [`Cpu`] (one lane, faults as [`UarchError`]) or a [`CpuBlock`] (up
/// to [`MAX_LANES`] lanes, any disagreement or fault as
/// [`Divergence`]).
///
/// Acquisition loops are written once against this trait, so what a
/// lockstep group records for a lane is, by construction, what a
/// one-lane run records for the same trace.
pub trait LaneSim {
    /// Why a run stopped before `halt`.
    type Error;

    /// Restarts the first `seeds.len()` lanes at `entry`, each with its
    /// own node-scramble seed (see [`Cpu::restart_seeded`]).
    fn restart_lanes(&mut self, entry: u32, seeds: &[u64]);

    /// Lane `lane`'s CPU, for staging its input.
    fn lane_cpu(&mut self, lane: usize) -> &mut Cpu;

    /// Runs the restarted lanes to `halt` or to the observer's
    /// [`BlockObserver::horizon`], streaming their activity to
    /// `observer`; calling again resumes where the last run stopped. The
    /// statistics count every cycle since the restart.
    ///
    /// # Errors
    ///
    /// A simulator fault, or for a block any lane disagreement.
    fn run_lanes<O: BlockObserver>(&mut self, observer: &mut O) -> Result<ExecStats, Self::Error>;

    /// Whether the lanes reached `halt` and drained: false after a run
    /// stopped at its observer's horizon.
    fn finished(&self) -> bool;
}

impl LaneSim for Cpu {
    type Error = UarchError;

    #[inline]
    fn restart_lanes(&mut self, entry: u32, seeds: &[u64]) {
        let &[seed] = seeds else {
            panic!("a Cpu has one lane, got {} seeds", seeds.len());
        };
        self.restart_seeded(entry, seed);
    }

    #[inline]
    fn lane_cpu(&mut self, lane: usize) -> &mut Cpu {
        debug_assert_eq!(lane, 0, "a Cpu has one lane");
        self
    }

    #[inline]
    fn run_lanes<O: BlockObserver>(&mut self, observer: &mut O) -> Result<ExecStats, UarchError> {
        self.run(observer)
    }

    #[inline]
    fn finished(&self) -> bool {
        self.core.finished()
    }
}

impl LaneSim for CpuBlock {
    type Error = Divergence;

    #[inline]
    fn restart_lanes(&mut self, entry: u32, seeds: &[u64]) {
        self.restart_seeded(entry, seeds);
    }

    #[inline]
    fn lane_cpu(&mut self, lane: usize) -> &mut Cpu {
        self.lane_mut(lane)
    }

    #[inline]
    fn run_lanes<O: BlockObserver>(&mut self, observer: &mut O) -> Result<ExecStats, Divergence> {
        self.run(observer)
    }

    #[inline]
    fn finished(&self) -> bool {
        self.core.finished()
    }
}

/// Walk sharing across the executions of one trace, on the first
/// `lanes` lanes of a [`LaneSim`].
///
/// A trace runs one input several times, each execution restarted with
/// its own node-scramble seeds. An execution whose lane starts with the
/// registers, flags and memory the lane's last walk started from, after
/// a walk with no cache miss, would walk exactly that walk again (true
/// LRU with every access hitting is idempotent): the same cycles,
/// instructions, addresses and node events, but for the stale `before`
/// of each node's first assertion, a pure function of the seed
/// ([`crate::NodeState::stale_value`]). It need not be walked. Each
/// lane decides for itself; a lockstep group walks when any of its lanes
/// must, and counts only those lanes, so the counts are those of a
/// one-lane run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SharedWalk {
    /// Lanes the trace runs on.
    lanes: usize,
    /// Executions begun.
    executions: usize,
    /// Lanes whose last walk had no cache miss.
    clean: [bool; MAX_LANES],
    /// Lanes the current execution walks for.
    walking: [bool; MAX_LANES],
    /// Lane-executions walked.
    pub walks: u64,
    /// Lane-executions after the trace's second that were walked.
    pub fallbacks: u64,
    /// The cache work of the walked lane-executions.
    pub cache: CacheCounts,
}

impl SharedWalk {
    /// Starts a trace on the first `lanes` lanes of `sim`: returns each
    /// to its template (`Cpu::restore_template`), so nothing of an
    /// earlier trace carries over, and there is no walk to share yet.
    /// Cache counts the lanes carry in (a template's warm-up, a diverged
    /// group's partial walk) are drained and discarded: only walks
    /// count.
    pub fn start<C: LaneSim>(sim: &mut C, lanes: usize) -> SharedWalk {
        for lane in 0..lanes {
            let cpu = sim.lane_cpu(lane);
            cpu.restore_template();
            let _ = cpu.drain_cache_counts();
        }
        SharedWalk {
            lanes,
            ..SharedWalk::default()
        }
    }

    /// Decides, after an execution's restart and staging, whether it
    /// must be walked: false when every lane can share its last walk.
    /// Otherwise marks every lane's starting state; run the lanes, then
    /// call [`SharedWalk::walked`].
    pub fn must_walk<C: LaneSim>(&mut self, sim: &mut C) -> bool {
        self.executions += 1;
        for lane in 0..self.lanes {
            self.walking[lane] = !(self.clean[lane] && sim.lane_cpu(lane).unchanged_since_mark());
        }
        if !self.walking.contains(&true) {
            return false;
        }
        for lane in 0..self.lanes {
            sim.lane_cpu(lane).mark();
        }
        true
    }

    /// Lanes the current execution walks for: 0 when it shares the last
    /// walk.
    pub fn walking(&self) -> u64 {
        self.walking.iter().filter(|&&walking| walking).count() as u64
    }

    /// Ends the current execution's walk: counts it for the lanes that
    /// needed it, with their cache work, and notes which lanes' walks
    /// had no cache miss. Every lane's cache counts are drained, so a
    /// lane that was walked only because its group was counts nothing.
    pub fn walked<C: LaneSim>(&mut self, sim: &mut C) {
        for lane in 0..self.lanes {
            let counts = sim.lane_cpu(lane).drain_cache_counts();
            self.clean[lane] = counts.l1i_misses + counts.l1d_misses + counts.l2_misses == 0;
            if self.walking[lane] {
                self.cache.accumulate(&counts);
            }
        }
        let walking = self.walking();
        self.walks += walking;
        if self.executions > 2 {
            self.fallbacks += walking;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Node, NodeState, NullObserver, UarchConfig};
    use sca_isa::assemble;

    /// Collects one scalar-shaped event stream per lane, walking to
    /// `horizon`.
    struct PerLaneRecorder {
        events: Vec<Vec<(u64, Node, u32, u32)>>,
        triggers: Vec<(u64, bool)>,
        retirements: Vec<(u64, u32)>,
        horizon: u64,
    }

    impl PerLaneRecorder {
        fn new(lanes: usize) -> PerLaneRecorder {
            PerLaneRecorder {
                events: vec![Vec::new(); lanes],
                triggers: Vec::new(),
                retirements: Vec::new(),
                horizon: u64::MAX,
            }
        }
    }

    impl BlockObserver for PerLaneRecorder {
        fn node_event(&mut self, lane: usize, event: NodeEvent) {
            self.events[lane].push((event.cycle, event.node, event.before, event.after));
        }

        fn trigger(&mut self, cycle: u64, high: bool) {
            self.triggers.push((cycle, high));
        }

        fn retire(&mut self, cycle: u64, addr: u32, _insn: Insn) {
            self.retirements.push((cycle, addr));
        }

        fn horizon(&self) -> u64 {
            self.horizon
        }
    }

    /// Scalar observer with the same tuple shape for direct comparison,
    /// walking to `horizon`.
    struct ScalarRecorder {
        events: Vec<(u64, Node, u32, u32)>,
        triggers: Vec<(u64, bool)>,
        retirements: Vec<(u64, u32)>,
        horizon: u64,
    }

    impl Default for ScalarRecorder {
        fn default() -> ScalarRecorder {
            ScalarRecorder {
                events: Vec::new(),
                triggers: Vec::new(),
                retirements: Vec::new(),
                horizon: u64::MAX,
            }
        }
    }

    impl crate::PipelineObserver for ScalarRecorder {
        fn node_event(&mut self, event: NodeEvent) {
            self.events
                .push((event.cycle, event.node, event.before, event.after));
        }

        fn trigger(&mut self, cycle: u64, high: bool) {
            self.triggers.push((cycle, high));
        }

        fn retire(&mut self, cycle: u64, addr: u32, _insn: Insn) {
            self.retirements.push((cycle, addr));
        }

        fn horizon(&self) -> u64 {
            self.horizon
        }
    }

    /// A small data-dependent (in values, not control) program: loads a
    /// per-lane word, mixes it through ALU/shifter/multiplier paths and
    /// stores it back.
    const MIX_SRC: &str = "
        nop
        nop
        trig #1
        adr r10, data
        ldr r0, [r10]
        add r1, r0, r0, lsl #3
        mul r2, r1, r0
        eor r3, r2, r0, ror #7
        umull r4, r5, r3, r1
        strb r3, [r10, #4]
        ldrh r6, [r10, #4]
        stmia r10!, {r3, r4, r5}
        sub r10, r10, #12
        str r4, [r10, #8]
        trig #0
        halt
        .org 0x100
data:   .word 0
        .word 0
        .word 0
        .word 0
    ";

    fn template() -> Cpu {
        let program = assemble(MIX_SRC).expect("assembles");
        let mut cpu = Cpu::new(UarchConfig::cortex_a7());
        cpu.load(&program).expect("loads");
        // Warm caches exactly like the acquisition protocol does.
        cpu.run(&mut NullObserver).expect("warm-up runs");
        cpu
    }

    #[test]
    fn lockstep_event_streams_match_scalar_lanes() {
        let template = template();
        let inputs: [u32; 5] = [0xdead_beef, 0, 0xffff_ffff, 0x1234_5678, 0x0f0f_0f0f];
        for lanes in [1usize, 2, 5] {
            let seeds: Vec<u64> = (0..lanes as u64).map(|l| 0x1000 + 7 * l).collect();

            let mut block = CpuBlock::from_template(&template, lanes);
            block.restart_seeded(0, &seeds);
            for (l, &input) in inputs.iter().take(lanes).enumerate() {
                block.lane_mut(l).mem_mut().write_u32(0x100, input).unwrap();
            }
            let mut rec = PerLaneRecorder::new(lanes);
            let block_stats = block.run(&mut rec).expect("no divergence");

            for (l, &input) in inputs.iter().take(lanes).enumerate() {
                let mut cpu = template.clone();
                cpu.restart_seeded(0, seeds[l]);
                cpu.mem_mut().write_u32(0x100, input).unwrap();
                let mut scalar = ScalarRecorder::default();
                let stats = cpu.run(&mut scalar).expect("scalar runs");
                assert_eq!(stats, block_stats, "stats (lane {l} of {lanes})");
                assert_eq!(scalar.triggers, rec.triggers, "triggers (lane {l})");
                assert_eq!(
                    scalar.events, rec.events[l],
                    "event stream (lane {l} of {lanes})"
                );
                for r in 0..16 {
                    assert_eq!(
                        cpu.core.lanes.regs[r],
                        block.lane(l).core.lanes.regs[r],
                        "r{r} (lane {l} of {lanes})"
                    );
                }
            }
        }
    }

    /// A run stopped at a horizon (or several, one after another) and
    /// then resumed to `halt` emits exactly the events, trigger edges
    /// and retirements of one run to `halt`, and ends in the same state —
    /// for a `Cpu` and for every lane of a `CpuBlock`.
    #[test]
    fn runs_stopped_at_a_horizon_resume_to_the_whole_walk() {
        let template = template();
        let inputs: [u32; 3] = [0xdead_beef, 0x1234_5678, 0];
        let seeds = [0x51u64, 0x52, 0x53];
        let stage = |cpu: &mut Cpu, input: u32| cpu.mem_mut().write_u32(0x100, input).unwrap();

        let mut whole_cpu = template.clone();
        whole_cpu.restart_seeded(0, seeds[0]);
        stage(&mut whole_cpu, inputs[0]);
        let mut whole = ScalarRecorder::default();
        let whole_stats = whole_cpu.run(&mut whole).expect("runs");
        let full = whole_stats.cycles;
        assert!(full > 8, "the fixture runs {full} cycles");

        let mut whole_block = CpuBlock::from_template(&template, 3);
        whole_block.restart_seeded(0, &seeds);
        for (l, &input) in inputs.iter().enumerate() {
            stage(whole_block.lane_mut(l), input);
        }
        let mut whole_lanes = PerLaneRecorder::new(3);
        whole_block.run(&mut whole_lanes).expect("no divergence");
        assert_eq!(whole_lanes.events[0], whole.events);

        let schedules: [&[u64]; 5] = [
            &[0],
            &[1],
            &[full / 2],
            &[3, 3, full / 2 + 1, full - 1],
            &[full, full + 10],
        ];
        for stops in schedules {
            let mut cpu = template.clone();
            cpu.restart_seeded(0, seeds[0]);
            stage(&mut cpu, inputs[0]);
            let mut rec = ScalarRecorder::default();
            let mut block = CpuBlock::from_template(&template, 3);
            block.restart_seeded(0, &seeds);
            for (l, &input) in inputs.iter().enumerate() {
                stage(block.lane_mut(l), input);
            }
            let mut lanes = PerLaneRecorder::new(3);
            for &stop in stops {
                rec.horizon = stop;
                lanes.horizon = stop;
                let stats = cpu.run(&mut rec).expect("runs");
                let block_stats = block.run(&mut lanes).expect("no divergence");
                assert_eq!(stats.cycles, stop.min(full), "stopped at {stop}");
                assert_eq!(stats, block_stats, "stopped at {stop}");
                assert_eq!(LaneSim::finished(&cpu), stop >= full, "stop {stop}");
                assert_eq!(LaneSim::finished(&block), stop >= full, "stop {stop}");
                assert!(rec.events.iter().all(|e| e.0 < stop), "stop {stop}");
            }
            rec.horizon = u64::MAX;
            lanes.horizon = u64::MAX;
            assert_eq!(cpu.run(&mut rec).expect("resumes"), whole_stats);
            assert_eq!(block.run(&mut lanes).expect("resumes"), whole_stats);
            assert!(LaneSim::finished(&cpu) && LaneSim::finished(&block));
            assert_eq!(rec.events, whole.events, "schedule {stops:?}");
            assert_eq!(rec.triggers, whole.triggers, "schedule {stops:?}");
            assert_eq!(rec.retirements, whole.retirements, "schedule {stops:?}");
            assert_eq!(lanes.events, whole_lanes.events, "schedule {stops:?}");
            assert_eq!(lanes.triggers, whole_lanes.triggers, "schedule {stops:?}");
            assert_eq!(
                lanes.retirements, whole_lanes.retirements,
                "schedule {stops:?}"
            );
            assert_eq!(cpu.core.lanes.regs, whole_cpu.core.lanes.regs);
            for l in 0..3 {
                assert_eq!(
                    block.lane(l).core.lanes.regs,
                    whole_block.lane(l).core.lanes.regs,
                    "lane {l}"
                );
            }
        }
    }

    /// Every event of each lane, with whether it came as stale.
    struct StaleRecorder(Vec<Vec<(NodeEvent, bool)>>);

    impl BlockObserver for StaleRecorder {
        const STALE_EVENTS: bool = true;

        fn node_events(&mut self, events: &[NodeEvent]) {
            for (lane, &event) in events.iter().enumerate() {
                self.0[lane].push((event, false));
            }
        }

        fn stale_node_events(&mut self, events: &[NodeEvent]) {
            for (lane, &event) in events.iter().enumerate() {
                self.0[lane].push((event, true));
            }
        }
    }

    /// A batch comes as stale exactly when it is its node's first
    /// assertion since the restart and the node is not precharged; its
    /// `before` is then the node's stale value under the lane's seed.
    #[test]
    fn first_assertions_of_scrambled_nodes_come_as_stale() {
        let template = template();
        let seeds = [0x71u64, 0x72, 0x73];
        let check = |events: &[(NodeEvent, bool)], seed: u64| {
            let mut seen = std::collections::HashSet::new();
            let mut stale = 0;
            for &(event, flagged) in events {
                let first = seen.insert(event.node);
                let precharged = matches!(event.node, Node::ShiftBuf | Node::AluOut(_));
                assert_eq!(flagged, first && !precharged, "{event:?}");
                if flagged {
                    assert_eq!(event.before, NodeState::stale_value(seed, event.node));
                    stale += 1;
                }
            }
            assert!(stale > 5, "{stale} stale events");
        };
        let mut cpu = template.clone();
        cpu.restart_seeded(0, seeds[0]);
        let mut rec = StaleRecorder(vec![Vec::new()]);
        cpu.run(&mut rec).expect("runs");
        check(&rec.0[0], seeds[0]);
        let mut block = CpuBlock::from_template(&template, 3);
        block.restart_seeded(0, &seeds);
        let mut rec = StaleRecorder(vec![Vec::new(); 3]);
        block.run(&mut rec).expect("no divergence");
        for (lane, &seed) in seeds.iter().enumerate() {
            check(&rec.0[lane], seed);
        }
        // Without a restart there is no scramble, and nothing is stale.
        let mut fresh = Cpu::new(UarchConfig::cortex_a7());
        fresh
            .load(&assemble(MIX_SRC).expect("assembles"))
            .expect("loads");
        let mut rec = StaleRecorder(vec![Vec::new()]);
        fresh.run(&mut rec).expect("runs");
        assert!(rec.0[0].iter().all(|&(_, flagged)| !flagged));
    }

    #[test]
    fn divergent_control_flow_is_detected() {
        // A conditional whose outcome depends on the loaded value: lanes
        // disagree, so the block must refuse rather than corrupt.
        let src = "
            adr r10, data
            ldr r0, [r10]
            cmp r0, #1
            moveq r1, #7
            halt
            .org 0x100
data:       .word 0
        ";
        let program = assemble(src).expect("assembles");
        let mut cpu = Cpu::new(UarchConfig::cortex_a7());
        cpu.load(&program).expect("loads");
        cpu.run(&mut NullObserver).expect("warm-up");
        let mut block = CpuBlock::from_template(&cpu, 2);
        block.restart_seeded(0, &[1, 2]);
        block.lane_mut(0).mem_mut().write_u32(0x100, 1).unwrap();
        block.lane_mut(1).mem_mut().write_u32(0x100, 2).unwrap();
        let err = block.run(&mut NullRec).expect_err("must diverge");
        assert!(err.reason.contains("conditional"), "{err}");
    }

    struct NullRec;

    impl BlockObserver for NullRec {}

    /// Runs `executions` executions of the store-over-load fixture on
    /// the first `inputs.len()` lanes of `sim` through a [`SharedWalk`],
    /// returning it and which executions walked.
    fn share<C: LaneSim>(sim: &mut C, inputs: &[u32], executions: usize) -> (SharedWalk, Vec<bool>)
    where
        C::Error: fmt::Debug,
    {
        let seeds = [0x5eu64, 0x5f];
        let mut shared = SharedWalk::start(sim, inputs.len());
        let mut walked = Vec::new();
        for _ in 0..executions {
            sim.restart_lanes(0, &seeds[..inputs.len()]);
            for (lane, &input) in inputs.iter().enumerate() {
                sim.lane_cpu(lane).set_reg(sca_isa::Reg::R1, input);
            }
            let walk = shared.must_walk(sim);
            if walk {
                sim.run_lanes(&mut NullRec).expect("runs");
                shared.walked(sim);
            }
            walked.push(walk);
        }
        (shared, walked)
    }

    /// Each execution loads a word and stores its input over it. A lane
    /// whose input is the word's template value starts its second
    /// execution where its first did; any other lane loads its own input
    /// in the third, and shares only from the fourth on. A block walks
    /// while any lane must, and counts per lane exactly what one-lane
    /// runs count.
    #[test]
    fn shared_walk_decides_and_counts_per_lane() {
        let program = assemble(
            "
            adr r10, data
            ldr r0, [r10]
            str r1, [r10]
            halt
            .org 0x100
data:       .word 0
        ",
        )
        .expect("assembles");
        let mut template = Cpu::new(UarchConfig::cortex_a7());
        template.load(&program).expect("loads");
        template.run(&mut NullObserver).expect("warm-up runs");
        let inputs = [0, 5];

        let (zero, walked) = share(&mut template.clone(), &inputs[..1], 5);
        assert_eq!(walked, [true, false, false, false, false]);
        assert_eq!((zero.walks, zero.fallbacks), (1, 0));
        let (five, walked) = share(&mut template.clone(), &inputs[1..], 5);
        assert_eq!(walked, [true, true, true, false, false]);
        assert_eq!((five.walks, five.fallbacks), (3, 1));

        let (block, walked) = share(&mut CpuBlock::from_template(&template, 2), &inputs, 5);
        assert_eq!(walked, [true, true, true, false, false]);
        assert_eq!((block.walks, block.fallbacks), (4, 1));
        let mut cache = zero.cache;
        cache.accumulate(&five.cache);
        assert_eq!(block.cache, cache, "lane 0's extra walks count nothing");
        assert!(cache.l1i_hits > 0 && cache.l1i_misses + cache.l1d_misses == 0);
    }

    #[test]
    fn lane_count_bounds_are_enforced() {
        let cpu = Cpu::new(UarchConfig::cortex_a7());
        let result = std::panic::catch_unwind(|| CpuBlock::from_template(&cpu, 0));
        assert!(result.is_err());
        let result = std::panic::catch_unwind(|| CpuBlock::from_template(&cpu, MAX_LANES + 1));
        assert!(result.is_err());
    }
}
