//! The pipeline, written once for any number of lockstep lanes.
//!
//! An in-order, partial dual-issue, 8-stage-equivalent pipeline modeled
//! after the ARM Cortex-A7 as characterized in the paper:
//!
//! ```text
//!            ┌────────────┐  3 operand buses   ┌─ ALU0 (shifter, mul, 3-stage)
//!  Fetch ──▶ │ Prefetch   │ ──▶ Decode ──▶ Issue ──┼─ ALU1 (1-stage)
//!  (2/cyc)   │ buffer     │        ▲  RF 3R/2W └─ LSU  (3-stage, MDR, align)
//!            └────────────┘        │ immediate path
//!                           write-back buses (2) ◀── EX/WB buffers
//! ```
//!
//! Architectural execution is eager (results computed at issue) while the
//! *timing* — forwarding latencies, dual-issue legality, retire-port
//! arbitration, cache penalties — is modeled cycle by cycle. Every buffer
//! from Figure 2 of the paper is a tracked [`Node`] whose transitions are
//! streamed to an observer.
//!
//! A [`Core`] holds that timing state once — front end, hazard
//! scoreboard, LSU occupancy, retire queue, event schedule — and drives
//! `N` lanes of architectural state through it: registers, flags,
//! memory, caches and node values are per lane, and so is every node
//! event. [`crate::Cpu`] is the one-lane instance and
//! [`crate::CpuBlock`] the [`crate::MAX_LANES`] instance; both run this
//! code.
//!
//! Every per-lane quantity the shared timing depends on — conditional
//! outcomes, branch targets, cache penalties, fetched instruction words
//! — is checked for agreement across the active lanes where it would
//! influence timing, and a disagreement stops the run with
//! [`Stop::Diverged`]. One lane always agrees with itself, so the
//! one-lane instance only ever stops on a genuine [`Stop::Fault`].

use std::collections::VecDeque;

use sca_isa::{
    apply_shift, decode, eval_dp, eval_mul, Flags, IndexMode, Insn, InsnClass, InsnKind, MemDir,
    MemMultiMode, MemOffset, MemSize, Operand2, Reg, ShiftAmount,
};

use crate::{
    BlockObserver, CacheHierarchy, ExecStats, Memory, Node, NodeEvent, NodeState, Pipe, StallCause,
    UarchConfig, UarchError,
};

/// One value per lane (entries past the active lane count are unused).
type Vals<const N: usize> = [u32; N];

/// A lane's registers and flags at a checkpoint or mark; its memory
/// logs the words written since ([`Memory`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Registers {
    regs: [u32; 16],
    flags: Flags,
}

/// One lane's state: architectural registers, flags and memory, plus the
/// lane's own caches and node values.
#[derive(Clone, Debug)]
pub(crate) struct Lane {
    pub(crate) regs: [u32; 16],
    pub(crate) flags: Flags,
    pub(crate) mem: Memory,
    pub(crate) icache: CacheHierarchy,
    pub(crate) dcache: CacheHierarchy,
    pub(crate) nodes: NodeState,
}

impl Lane {
    /// Zeroed registers and memory, cold caches.
    pub(crate) fn new(config: &UarchConfig) -> Lane {
        Lane {
            regs: [0; 16],
            flags: Flags::default(),
            mem: Memory::new(config.mem_size),
            icache: CacheHierarchy::new(config.icache, config.l2, config.memory_latency),
            dcache: CacheHierarchy::new(config.dcache, config.l2, config.memory_latency),
            nodes: NodeState::new(),
        }
    }

    /// The lane's registers and flags.
    fn registers(&self) -> Registers {
        Registers {
            regs: self.regs,
            flags: self.flags,
        }
    }

    /// Makes the lane's architectural state a checkpoint that
    /// [`Lane::restore`] returns to.
    pub(crate) fn checkpoint(&mut self) -> Registers {
        self.mem.checkpoint();
        self.registers()
    }

    /// Returns registers, flags and memory to the checkpoint taken with
    /// `registers`. Caches and node values are not architecture: the
    /// caches keep their lines, and a restart scrambles the nodes.
    pub(crate) fn restore(&mut self, registers: &Registers) {
        let Lane {
            regs,
            flags,
            mem,
            icache: _,
            dcache: _,
            nodes: _,
        } = self;
        *regs = registers.regs;
        *flags = registers.flags;
        mem.restore();
    }

    /// Remembers the architectural state an execution starts from, for
    /// [`Lane::unchanged_since`].
    pub(crate) fn mark(&mut self) -> Registers {
        self.mem.mark();
        self.registers()
    }

    /// Whether the lane would walk exactly as it did from the mark taken
    /// with `registers`: its registers, flags and memory are the same.
    /// Every field is named, so a new one fails to compile here until
    /// it is decided whether a walk depends on it.
    pub(crate) fn unchanged_since(&self, registers: &Registers) -> bool {
        let Lane {
            regs,
            flags,
            mem,
            // A walk with no cache miss left the same lines resident,
            // and true LRU then replays it exactly; the caller checks
            // the misses (`SharedWalk`).
            icache: _,
            dcache: _,
            // Scrambled by every restart, and never read by the walk:
            // only the events' stale `before` values depend on them.
            nodes: _,
        } = self;
        *regs == registers.regs && *flags == registers.flags && mem.unchanged_since_mark()
    }

    /// Reads a register as an operand (PC reads yield `addr + 8`).
    fn operand(&self, reg: Reg, addr: u32) -> u32 {
        if reg == Reg::PC {
            addr.wrapping_add(8)
        } else {
            self.regs[reg.index()]
        }
    }
}

/// The lanes a [`Core`] drives: a single inline [`Lane`], or the lanes
/// of a block.
pub(crate) trait Lanes {
    /// Lanes driven by the current run.
    fn active(&self) -> usize;
    /// Lane `l`.
    fn get(&self, l: usize) -> &Lane;
    /// Lane `l`, mutably.
    fn get_mut(&mut self, l: usize) -> &mut Lane;
}

impl Lanes for Lane {
    #[inline(always)]
    fn active(&self) -> usize {
        1
    }

    #[inline(always)]
    fn get(&self, _: usize) -> &Lane {
        self
    }

    #[inline(always)]
    fn get_mut(&mut self, _: usize) -> &mut Lane {
        self
    }
}

/// Why a run stopped before draining.
#[derive(Clone, Debug)]
pub(crate) enum Stop {
    /// The program faulted (in some lane) or ran out of cycles.
    Fault(UarchError),
    /// The lanes disagreed on a quantity the shared timing depends on.
    Diverged(&'static str),
}

impl From<UarchError> for Stop {
    fn from(error: UarchError) -> Stop {
        Stop::Fault(error)
    }
}

/// One instruction sitting in the front end (fetched, being decoded).
#[derive(Clone, Copy, Debug)]
struct FrontendEntry {
    addr: u32,
    /// `Err` marks a word that did not decode; it only faults if issue
    /// actually reaches it (the fetch unit runs ahead of `halt`).
    insn: Result<Insn, u32>,
    /// Cycle from which the instruction is visible to the issue stage.
    ready_at: u64,
}

/// An instruction in flight between issue and retirement.
#[derive(Clone, Copy, Debug)]
struct RetireEntry<const N: usize> {
    addr: u32,
    insn: Insn,
    complete_at: u64,
    /// Per-lane result bound for the register file (drives EX/WB nodes).
    wb_values: Option<Vals<N>>,
    /// Pipe that produced the result.
    pipe: Option<Pipe>,
    /// Retiring `nop`s reset the write-back buses.
    is_nop: bool,
}

/// A node assertion scheduled for a future cycle (e.g. a load's MDR
/// update three cycles after issue), with one value per lane.
#[derive(Clone, Copy, Debug)]
struct PendingEvent<const N: usize> {
    node: Node,
    values: Vals<N>,
    precharged: bool,
}

/// The future-event queue: one slot of pending node assertions per
/// upcoming cycle, kept as a ring so the hot `schedule`/`drain` pair
/// never touches an ordered map. Slot vectors are recycled through a
/// small pool — after the first few traces of a campaign the queue runs
/// allocation-free.
#[derive(Clone, Debug, Default)]
struct EventQueue<const N: usize> {
    /// `slots[i]` holds the events for cycle `base + i`, in scheduling
    /// order (the order observers must see them in).
    slots: VecDeque<Vec<PendingEvent<N>>>,
    /// Cycle the front slot corresponds to.
    base: u64,
    /// Drained slot vectors awaiting reuse.
    pool: Vec<Vec<PendingEvent<N>>>,
}

impl<const N: usize> EventQueue<N> {
    /// Empties the queue (keeping slot capacity for reuse) and re-bases
    /// it at cycle zero.
    fn clear(&mut self) {
        while let Some(slot) = self.slots.pop_front() {
            self.recycle(slot);
        }
        self.base = 0;
    }

    /// Appends an event at cycle `at` (which must not be in the past —
    /// the pipeline only schedules into future cycles).
    fn push(&mut self, at: u64, event: PendingEvent<N>) {
        debug_assert!(at >= self.base, "scheduling into the past");
        let index = (at - self.base) as usize;
        while self.slots.len() <= index {
            self.slots.push_back(self.pool.pop().unwrap_or_default());
        }
        self.slots[index].push(event);
    }

    /// Removes and returns the events due at `cycle`, advancing the ring
    /// past it. Returns `None` when the cycle has no events; the slot
    /// vector must be handed back through [`EventQueue::recycle`].
    fn drain(&mut self, cycle: u64) -> Option<Vec<PendingEvent<N>>> {
        while self.base < cycle {
            if let Some(slot) = self.slots.pop_front() {
                debug_assert!(slot.is_empty(), "skipped a cycle with pending events");
                self.recycle(slot);
            }
            self.base += 1;
        }
        if self.base == cycle {
            if let Some(slot) = self.slots.pop_front() {
                self.base += 1;
                if slot.is_empty() {
                    self.pool.push(slot);
                    return None;
                }
                return Some(slot);
            }
        }
        None
    }

    /// Returns a drained slot vector to the reuse pool.
    fn recycle(&mut self, mut slot: Vec<PendingEvent<N>>) {
        slot.clear();
        self.pool.push(slot);
    }
}

/// The pipeline's timing state, driving the lanes `L` with `N` value
/// slots per node assertion.
#[derive(Clone, Debug)]
pub(crate) struct Core<const N: usize, L> {
    pub(crate) config: UarchConfig,
    pub(crate) lanes: L,
    pub(crate) pc: u32,
    pub(crate) cycle: u64,
    pub(crate) halted: bool,
    pub(crate) stats: ExecStats,
    frontend: VecDeque<FrontendEntry>,
    fetch_ready_at: u64,
    lsu_ready_at: u64,
    reg_ready: [u64; 16],
    flags_ready: u64,
    retire_queue: VecDeque<RetireEntry<N>>,
    pending: EventQueue<N>,
    /// One bit per node ([`Node::dense_index`]) not asserted since the
    /// restart: every restart scrambles the lanes' node values, so these
    /// still hold their stale values (in every lane, since the lanes
    /// assert the same nodes in the same order). Kept only while the
    /// observer takes stale batches apart
    /// ([`BlockObserver::STALE_EVENTS`]).
    unasserted: u64,
}

impl<const N: usize, L: Lanes> Core<N, L> {
    /// A core at cycle zero, fetching from address zero.
    pub(crate) fn new(config: UarchConfig, lanes: L) -> Core<N, L> {
        Core {
            config,
            lanes,
            pc: 0,
            cycle: 0,
            halted: false,
            stats: ExecStats::default(),
            frontend: VecDeque::new(),
            fetch_ready_at: 0,
            lsu_ready_at: 0,
            reg_ready: [0; 16],
            flags_ready: 0,
            retire_queue: VecDeque::new(),
            pending: EventQueue::default(),
            unasserted: 0,
        }
    }

    /// Resets the timing state (front end, in-flight instructions,
    /// statistics, cycle counter) and re-points fetch at `entry`. Lane
    /// state is left to the caller, who scrambles the node values with
    /// it. Fixed-size state is overwritten in place and the queues keep
    /// their capacity, so nothing here allocates once warm.
    pub(crate) fn restart(&mut self, entry: u32) {
        self.unasserted = (1 << Node::COUNT) - 1;
        self.pc = entry;
        self.halted = false;
        self.cycle = 0;
        self.stats = ExecStats::default();
        self.frontend.clear();
        self.retire_queue.clear();
        self.pending.clear();
        self.fetch_ready_at = 0;
        self.lsu_ready_at = 0;
        self.reg_ready = [0; 16];
        self.flags_ready = 0;
    }

    /// Runs until `halt`, then drains the in-flight instructions so their
    /// write-back activity and retire counts are not lost (trailing
    /// cycles outside any measurement window). Returns early, before
    /// beginning the observer's [`BlockObserver::horizon`] cycle; the
    /// state is then that of a walk paused there, and the next call
    /// resumes it.
    pub(crate) fn run<O: BlockObserver + ?Sized>(
        &mut self,
        observer: &mut O,
    ) -> Result<ExecStats, Stop> {
        while !self.finished() {
            if self.cycle >= observer.horizon() {
                break;
            }
            if !self.halted && self.cycle >= self.config.max_cycles {
                return Err(UarchError::CycleBudgetExceeded(self.config.max_cycles).into());
            }
            self.step(observer)?;
        }
        Ok(self.stats)
    }

    /// Whether the run reached `halt` and drained its in-flight
    /// instructions.
    pub(crate) fn finished(&self) -> bool {
        self.halted && self.retire_queue.is_empty()
    }

    fn step<O: BlockObserver + ?Sized>(&mut self, observer: &mut O) -> Result<(), Stop> {
        let cycle = self.cycle;
        observer.begin_cycle(cycle);
        if let Some(events) = self.pending.drain(cycle) {
            for event in &events {
                self.emit(observer, event.node, &event.values, event.precharged);
            }
            self.pending.recycle(events);
        }
        self.retire(observer);
        if !self.halted {
            self.issue(observer)?;
            self.fetch(observer)?;
        }
        self.cycle += 1;
        self.stats.cycles += 1;
        Ok(())
    }

    // ---- lanes -----------------------------------------------------------

    /// Asserts `values[l]` on `node` in every active lane this cycle and
    /// hands the per-lane events to the observer as one batch; each
    /// lane's own event sequence is exactly a one-lane run's.
    #[inline(always)]
    fn emit<O: BlockObserver + ?Sized>(
        &mut self,
        observer: &mut O,
        node: Node,
        values: &Vals<N>,
        precharged: bool,
    ) {
        let cycle = self.cycle;
        let active = self.lanes.active();
        // A node's first assertion since the restart reports the stale
        // value the scramble left in it, unless it is precharged. Only
        // an observer that takes stale batches apart pays for telling.
        let stale = O::STALE_EVENTS && {
            let bit = 1 << node.dense_index();
            let first = self.unasserted & bit != 0;
            self.unasserted &= !bit;
            first && !precharged
        };
        let mut batch = [NodeEvent {
            cycle,
            node,
            before: 0,
            after: 0,
        }; N];
        for (l, event) in batch.iter_mut().enumerate().take(active) {
            let nodes = &mut self.lanes.get_mut(l).nodes;
            *event = if precharged {
                nodes.assert_precharged(cycle, node, values[l])
            } else {
                nodes.assert(cycle, node, values[l])
            };
        }
        if stale {
            observer.stale_node_events(&batch[..active]);
        } else {
            observer.node_events(&batch[..active]);
        }
    }

    /// Gathers one value per active lane.
    #[inline]
    fn gather<T: Copy + Default>(&self, f: impl Fn(&Lane) -> T) -> [T; N] {
        let mut values = [T::default(); N];
        for (l, value) in values.iter_mut().enumerate().take(self.lanes.active()) {
            *value = f(self.lanes.get(l));
        }
        values
    }

    /// One register operand's value in every lane.
    fn operands(&self, reg: Reg, addr: u32) -> Vals<N> {
        self.gather(|lane| lane.operand(reg, addr))
    }

    /// Writes `values[l]` to `reg` in every lane; dependent instructions
    /// may issue from `forward_at` on (two cycles later without
    /// forwarding).
    fn write_reg(&mut self, reg: Reg, values: &Vals<N>, forward_at: u64) {
        for (l, &value) in values.iter().enumerate().take(self.lanes.active()) {
            self.lanes.get_mut(l).regs[reg.index()] = value;
        }
        self.reg_ready[reg.index()] = if self.config.forwarding {
            forward_at
        } else {
            forward_at + 2
        };
    }

    /// The target of an indirect branch to `values`, on which the lanes
    /// must agree.
    fn branch_target(&self, values: &Vals<N>) -> Result<u32, Stop> {
        let target = values[0] & !3;
        if values[1..self.lanes.active()]
            .iter()
            .any(|&v| v & !3 != target)
        {
            return Err(Stop::Diverged(
                "indirect branch target differs across lanes",
            ));
        }
        Ok(target)
    }

    /// Evaluates `insn`'s condition in every lane; all must agree (a
    /// split outcome would need per-lane squashing, which the shared
    /// timing cannot express).
    fn cond_passes(&self, insn: &Insn) -> Result<bool, Stop> {
        let first = insn.cond.passes(self.lanes.get(0).flags);
        for l in 1..self.lanes.active() {
            if insn.cond.passes(self.lanes.get(l).flags) != first {
                return Err(Stop::Diverged("conditional outcome differs across lanes"));
            }
        }
        Ok(first)
    }

    /// Per-lane cache access (data cache at `addrs[l]`, or instruction
    /// cache) with a shared penalty: a miss in every lane is fine (the
    /// shared timing absorbs it), a split hit/miss diverges.
    fn cache_penalty(&mut self, data: bool, addrs: &Vals<N>) -> Result<u64, Stop> {
        let access = |lane: &mut Lane, addr| {
            if data {
                lane.dcache.access(addr)
            } else {
                lane.icache.access(addr)
            }
        };
        let first = access(self.lanes.get_mut(0), addrs[0]);
        for (l, &addr) in (1..self.lanes.active()).zip(&addrs[1..]) {
            if access(self.lanes.get_mut(l), addr) != first {
                return Err(Stop::Diverged(if data {
                    "dcache penalty differs across lanes"
                } else {
                    "icache penalty differs across lanes"
                }));
            }
        }
        Ok(first)
    }

    // ---- retire stage ----------------------------------------------------

    fn retire<O: BlockObserver + ?Sized>(&mut self, observer: &mut O) {
        let cycle = self.cycle;
        let mut slot = 0u8;
        while slot < self.config.retire_width as u8 {
            let Some(head) = self.retire_queue.front() else {
                break;
            };
            if head.complete_at > cycle {
                break;
            }
            let entry = self.retire_queue.pop_front().expect("checked front");
            if entry.is_nop && self.config.nop_zeroes_wb {
                // The A7 nop flows to write-back as a bubble that resets
                // the buses — the source of the paper's † boundary
                // leakage.
                for bus in 0..self.config.retire_width as u8 {
                    self.emit(observer, Node::WbBus(bus), &[0; N], false);
                }
            } else if let Some(values) = entry.wb_values {
                if let Some(pipe) = entry.pipe {
                    self.emit(observer, Node::ExWbBuf(pipe), &values, false);
                }
                self.emit(observer, Node::WbBus(slot), &values, false);
            }
            observer.retire(cycle, entry.addr, entry.insn);
            self.stats.instructions += 1;
            if entry.insn.is_branch() {
                self.stats.branches += 1;
            }
            slot += 1;
        }
    }

    // ---- issue stage -----------------------------------------------------

    fn issue<O: BlockObserver + ?Sized>(&mut self, observer: &mut O) -> Result<(), Stop> {
        let cycle = self.cycle;
        let Some(head) = self.frontend.front().copied() else {
            self.stats.count_stall(StallCause::Frontend);
            return Ok(());
        };
        if head.ready_at > cycle {
            self.stats.count_stall(StallCause::Frontend);
            return Ok(());
        }
        let older = head.insn.map_err(|word| UarchError::BadInstruction {
            addr: head.addr,
            word: Some(word),
        })?;
        if let Some(cause) = self.issue_blocker(&older) {
            self.stats.count_stall(cause);
            return Ok(());
        }

        self.frontend.pop_front();
        let redirected = self.dispatch(observer, older, head.addr, 0, Pipe::Alu0)?;
        if self.halted || redirected || !self.config.dual_issue {
            self.stats.single_issue_cycles += 1;
            return Ok(());
        }

        // Try to pair a younger instruction.
        let Some(second) = self.frontend.front().copied() else {
            self.stats.single_issue_cycles += 1;
            return Ok(());
        };
        let (Ok(younger), true) = (second.insn, second.ready_at <= cycle) else {
            self.stats.single_issue_cycles += 1;
            return Ok(());
        };
        let structurally_ok = self.pair_structurally_legal(&older, &younger);
        if structurally_ok && !self.config.policy.allows(older.class(), younger.class()) {
            self.stats.policy_rejections += 1;
            self.stats.single_issue_cycles += 1;
            return Ok(());
        }
        if !structurally_ok || self.issue_blocker(&younger).is_some() {
            self.stats.single_issue_cycles += 1;
            return Ok(());
        }
        self.frontend.pop_front();
        let bus_base = older.read_ports().min(self.config.rf_read_ports) as u8;
        let younger_pipe = younger_default_pipe(&older, &younger);
        self.dispatch(observer, younger, second.addr, bus_base, younger_pipe)?;
        self.stats.dual_issue_cycles += 1;
        Ok(())
    }

    /// Why `insn` cannot issue this cycle, if anything.
    fn issue_blocker(&self, insn: &Insn) -> Option<StallCause> {
        let cycle = self.cycle;
        for reg in insn.reads().iter() {
            if reg != Reg::PC && self.reg_ready[reg.index()] > cycle {
                return Some(StallCause::RawHazard);
            }
        }
        if insn.reads_flags() && self.flags_ready > cycle {
            return Some(StallCause::FlagsHazard);
        }
        if insn.is_mem() && self.lsu_ready_at > cycle {
            return Some(StallCause::Structural);
        }
        None
    }

    /// Structural legality of a dual-issue pair, independent of the
    /// pairing policy: read-port budget, write-port (WAW) conflicts,
    /// intra-group RAW/flag dependences, and a taken-branch guard.
    fn pair_structurally_legal(&self, older: &Insn, younger: &Insn) -> bool {
        if older.read_ports() + younger.read_ports() > self.config.rf_read_ports {
            return false;
        }
        if older.writes().intersects(younger.writes()) {
            return false;
        }
        if older.writes().intersects(younger.reads()) {
            return false;
        }
        if older.sets_flags() && (younger.reads_flags() || younger.sets_flags()) {
            return false;
        }
        // Both needing the shifter/multiplier pipe or both needing the
        // LSU is illegal; the measured policy already excludes these, but
        // custom policies must not break the structural model.
        let needs_pipe0 = |i: &Insn| matches!(i.class(), InsnClass::Shift | InsnClass::Mul);
        if needs_pipe0(older) && needs_pipe0(younger) {
            return false;
        }
        !(older.is_mem() && younger.is_mem())
    }

    // ---- dispatch / execute ------------------------------------------------

    /// Reads one operand through the register file onto the next shared
    /// operand bus, `*bus`, and advances `*bus`. The read-port node
    /// switches in the issue cycle and the bus driver is scheduled for
    /// the next cycle — the issue/execute clock boundary. The one-cycle
    /// offset matters for characterization: it is what lets the paper's
    /// "correlation in the correct clock cycle" criterion tell the
    /// (silent) read ports apart from the (leaky) operand buses carrying
    /// the same values. Operands past the last bus drive nothing.
    fn drive_bus<O: BlockObserver + ?Sized>(
        &mut self,
        observer: &mut O,
        bus: &mut u8,
        values: &Vals<N>,
    ) {
        if usize::from(*bus) < self.config.operand_buses() {
            self.emit(observer, Node::RfRead(*bus), values, false);
            let at = self.cycle + 1;
            self.schedule(at, Node::OperandBus(*bus), *values, false);
        }
        *bus += 1;
    }

    /// Latches the per-pipe IS/EX operand buffers (at the issue/execute
    /// boundary, one cycle after the register read).
    fn latch_is_ex(&mut self, pipe: Pipe, slots: [Option<Vals<N>>; 2]) {
        let at = self.cycle + 1;
        for (slot, values) in slots.into_iter().enumerate() {
            if let Some(values) = values {
                let node = Node::IsExOp {
                    pipe,
                    slot: slot as u8,
                };
                self.schedule(at, node, values, false);
            }
        }
    }

    fn schedule(&mut self, at: u64, node: Node, values: Vals<N>, precharged: bool) {
        self.pending.push(
            at.max(self.cycle + 1),
            PendingEvent {
                node,
                values,
                precharged,
            },
        );
    }

    fn push_retire(
        &mut self,
        addr: u32,
        insn: Insn,
        complete_at: u64,
        wb_values: Option<Vals<N>>,
        pipe: Option<Pipe>,
        is_nop: bool,
    ) {
        self.retire_queue.push_back(RetireEntry {
            addr,
            insn,
            complete_at,
            wb_values,
            pipe,
            is_nop,
        });
    }

    fn redirect(&mut self, target: u32, resume_at: u64) {
        self.frontend.clear();
        self.pc = target;
        self.fetch_ready_at = resume_at;
        self.stats.taken_branches += 1;
    }

    /// Issues one instruction: reads operands (driving the shared buses
    /// from `bus` on, in operand-position order), executes eagerly in
    /// every lane, emits/schedules node events and enqueues the
    /// retirement. Returns `true` when the front end was redirected.
    fn dispatch<O: BlockObserver + ?Sized>(
        &mut self,
        observer: &mut O,
        insn: Insn,
        addr: u32,
        mut bus: u8,
        preferred_pipe: Pipe,
    ) -> Result<bool, Stop> {
        let cycle = self.cycle;
        let active = self.lanes.active();
        match insn.kind {
            InsnKind::Nop => {
                // A never-executed conditional with zero-valued operands:
                // drives zeros on the operand buses (and, through the
                // read ports, keeps those cycling with data-independent
                // values), latches nothing, and resets the WB buses at
                // retirement.
                if self.config.nop_drives_operand_buses {
                    self.drive_bus(observer, &mut bus, &[0; N]);
                    self.drive_bus(observer, &mut bus, &[0; N]);
                }
                let complete_at = cycle + self.config.alu_latency;
                self.push_retire(addr, insn, complete_at, None, None, true);
                Ok(false)
            }
            InsnKind::Trig { high } => {
                observer.trigger(cycle, high);
                self.push_retire(addr, insn, cycle + 1, None, None, false);
                Ok(false)
            }
            InsnKind::Halt => {
                self.halted = true;
                self.push_retire(addr, insn, cycle + 1, None, None, false);
                Ok(false)
            }
            InsnKind::Dp {
                op,
                set_flags,
                rd,
                rn,
                op2,
            } => {
                let cond_pass = self.cond_passes(&insn)?;
                let rn_vals = rn.map(|r| self.operands(r, addr));
                if let Some(rn_vals) = &rn_vals {
                    self.drive_bus(observer, &mut bus, rn_vals);
                }
                // Operand-2 evaluation through the immediate path or the
                // barrel shifter.
                let carries = self.gather(|lane| lane.flags.c);
                let (op2_vals, carries, shifted) = match op2 {
                    Operand2::Imm(v) => ([v; N], carries, false),
                    Operand2::Reg(rm) => {
                        let rm_vals = self.operands(rm, addr);
                        self.drive_bus(observer, &mut bus, &rm_vals);
                        (rm_vals, carries, false)
                    }
                    Operand2::ShiftedReg { rm, kind, amount } => {
                        let rm_vals = self.operands(rm, addr);
                        self.drive_bus(observer, &mut bus, &rm_vals);
                        let amounts = match amount {
                            ShiftAmount::Imm(n) => [u32::from(n); N],
                            ShiftAmount::Reg(rs) => {
                                let rs_vals = self.operands(rs, addr);
                                self.drive_bus(observer, &mut bus, &rs_vals);
                                rs_vals.map(|v| v & 0xff)
                            }
                        };
                        let mut values = [0; N];
                        let mut shifter_carries = [false; N];
                        for l in 0..active {
                            let out = apply_shift(kind, rm_vals[l], amounts[l], carries[l]);
                            values[l] = out.value;
                            shifter_carries[l] = out.carry;
                        }
                        (values, shifter_carries, true)
                    }
                };

                let pipe = if shifted { Pipe::Alu0 } else { preferred_pipe };
                let latency = if shifted {
                    self.config.shift_latency
                } else {
                    self.config.alu_latency
                };
                if !cond_pass {
                    // Condition failed: occupies the pipe as a bubble.
                    self.push_retire(addr, insn, cycle + latency, None, None, false);
                    return Ok(false);
                }

                // IS/EX buffers latch only for instructions that proceed
                // to execute.
                let first_slot = rn_vals.unwrap_or(op2_vals);
                self.latch_is_ex(pipe, [Some(first_slot), rn_vals.map(|_| op2_vals)]);
                if shifted {
                    let at = cycle + self.config.shift_latency;
                    self.schedule(at, Node::ShiftBuf, op2_vals, true);
                }
                let writes_flags = set_flags || op.is_compare();
                let mut out = [0; N];
                for l in 0..active {
                    let rn_val = rn_vals.map_or(0, |v| v[l]);
                    let lane = self.lanes.get_mut(l);
                    let result = eval_dp(op, rn_val, op2_vals[l], carries[l], lane.flags);
                    out[l] = result.value;
                    if writes_flags {
                        lane.flags = result.flags;
                    }
                }
                self.schedule(cycle + latency, Node::AluOut(pipe), out, true);
                if writes_flags {
                    self.flags_ready = cycle + 1;
                }
                match rd {
                    // mov pc, … acts as an indirect branch.
                    Some(Reg::PC) => {
                        let target = self.branch_target(&out)?;
                        self.redirect(target, cycle + 1);
                        self.push_retire(addr, insn, cycle + latency, None, Some(pipe), false);
                        Ok(true)
                    }
                    Some(rd) => {
                        self.write_reg(rd, &out, cycle + latency);
                        self.push_retire(addr, insn, cycle + latency, Some(out), Some(pipe), false);
                        Ok(false)
                    }
                    // Compare/test: flags only.
                    None => {
                        self.push_retire(addr, insn, cycle + latency, None, Some(pipe), false);
                        Ok(false)
                    }
                }
            }
            InsnKind::Mul {
                op: _,
                set_flags,
                rd,
                rm,
                rs,
                ra,
            } => {
                let cond_pass = self.cond_passes(&insn)?;
                let rm_vals = self.operands(rm, addr);
                self.drive_bus(observer, &mut bus, &rm_vals);
                let rs_vals = self.operands(rs, addr);
                self.drive_bus(observer, &mut bus, &rs_vals);
                let ra_vals = ra.map(|r| self.operands(r, addr));
                if let Some(ra_vals) = &ra_vals {
                    self.drive_bus(observer, &mut bus, ra_vals);
                }
                let latency = self.config.mul_latency;
                if !cond_pass {
                    self.push_retire(addr, insn, cycle + latency, None, None, false);
                    return Ok(false);
                }
                self.latch_is_ex(Pipe::Alu0, [Some(rm_vals), Some(rs_vals)]);
                let mut values = [0; N];
                for l in 0..active {
                    let value = eval_mul(rm_vals[l], rs_vals[l], ra_vals.map(|v| v[l]));
                    values[l] = value;
                    if set_flags {
                        let flags = &mut self.lanes.get_mut(l).flags;
                        flags.n = value >> 31 != 0;
                        flags.z = value == 0;
                    }
                }
                self.schedule(cycle + latency, Node::AluOut(Pipe::Alu0), values, true);
                if set_flags {
                    self.flags_ready = cycle + 1;
                }
                self.write_reg(rd, &values, cycle + latency);
                let complete_at = cycle + latency;
                self.push_retire(
                    addr,
                    insn,
                    complete_at,
                    Some(values),
                    Some(Pipe::Alu0),
                    false,
                );
                Ok(false)
            }
            InsnKind::Mem {
                dir,
                size,
                rd,
                addr: mode,
            } => {
                let cond_pass = self.cond_passes(&insn)?;
                // Buses: base, then offset register, then store data.
                let base_vals = self.operands(mode.base, addr);
                self.drive_bus(observer, &mut bus, &base_vals);
                let offsets = match mode.offset {
                    MemOffset::Imm(imm) => [i64::from(imm); N],
                    MemOffset::Reg {
                        rm,
                        kind,
                        amount,
                        sub,
                    } => {
                        let rm_vals = self.operands(rm, addr);
                        self.drive_bus(observer, &mut bus, &rm_vals);
                        let mut offsets = [0i64; N];
                        for (l, offset) in offsets.iter_mut().enumerate().take(active) {
                            let carry = self.lanes.get(l).flags.c;
                            let shifted = apply_shift(kind, rm_vals[l], u32::from(amount), carry);
                            let shifted = i64::from(shifted.value);
                            *offset = if sub { -shifted } else { shifted };
                        }
                        offsets
                    }
                };
                let mut effective = [0; N];
                for l in 0..active {
                    effective[l] = (i64::from(base_vals[l]) + offsets[l]) as u32;
                }
                let access = if mode.index == IndexMode::PostIndex {
                    base_vals
                } else {
                    effective
                };
                let data_vals = (dir == MemDir::Store).then(|| self.operands(rd, addr));
                if let Some(data_vals) = &data_vals {
                    self.drive_bus(observer, &mut bus, data_vals);
                }

                if !cond_pass {
                    let complete_at = cycle + self.config.load_latency;
                    self.push_retire(addr, insn, complete_at, None, None, false);
                    return Ok(false);
                }

                // Address generation happens in the issue stage (paper,
                // Section 3.2), so base writeback is fast.
                if mode.writes_base() {
                    self.write_reg(mode.base, &effective, cycle + 1);
                }

                self.latch_is_ex(Pipe::Lsu, [Some(access), data_vals]);

                let penalty = self.cache_penalty(true, &access)?;
                if penalty > 0 {
                    self.stats.dcache_misses += 1;
                    self.lsu_ready_at = cycle + 1 + penalty;
                }
                let complete_at = cycle + self.config.load_latency + penalty;
                let subword = size.is_subword() && self.config.align_buffer;
                let mut words = [0; N];

                match dir {
                    MemDir::Load => {
                        let mut values = [0; N];
                        for l in 0..active {
                            let mem = &self.lanes.get(l).mem;
                            values[l] = match size {
                                MemSize::Word => mem.read_u32(access[l])?,
                                MemSize::Byte => u32::from(mem.read_u8(access[l])?),
                                MemSize::Half => u32::from(mem.read_u16(access[l])?),
                            };
                            words[l] = mem.containing_word(access[l])?;
                        }
                        self.schedule(complete_at, Node::Mdr, words, false);
                        if subword {
                            self.schedule(complete_at, Node::AlignBuf, values, false);
                        }
                        if rd == Reg::PC {
                            let target = self.branch_target(&values)?;
                            self.redirect(target, complete_at);
                            self.push_retire(addr, insn, complete_at, None, Some(Pipe::Lsu), false);
                            return Ok(true);
                        }
                        self.write_reg(rd, &values, complete_at);
                        let wb = Some(values);
                        self.push_retire(addr, insn, complete_at, wb, Some(Pipe::Lsu), false);
                    }
                    MemDir::Store => {
                        let data = data_vals.expect("stores read their data register");
                        let mut subs = [0; N];
                        for l in 0..active {
                            let value = data[l];
                            let mem = &mut self.lanes.get_mut(l).mem;
                            match size {
                                MemSize::Word => mem.write_u32(access[l], value)?,
                                MemSize::Byte => mem.write_u8(access[l], value as u8)?,
                                MemSize::Half => mem.write_u16(access[l], value as u16)?,
                            }
                            // The MDR carries the full merged word even
                            // for sub-word stores (paper, Section 4.1).
                            words[l] = mem.containing_word(access[l])?;
                            subs[l] = match size {
                                MemSize::Byte => value & 0xff,
                                _ => value & 0xffff,
                            };
                        }
                        self.schedule(complete_at, Node::Mdr, words, false);
                        if subword {
                            self.schedule(complete_at, Node::AlignBuf, subs, false);
                        }
                        self.push_retire(addr, insn, complete_at, None, None, false);
                    }
                }
                Ok(false)
            }
            InsnKind::MemMulti {
                dir,
                base,
                writeback,
                regs,
                mode,
            } => {
                let cond_pass = self.cond_passes(&insn)?;
                let base_vals = self.operands(base, addr);
                let n = regs.len() as u32;
                let start = match mode {
                    MemMultiMode::Ia => base_vals,
                    MemMultiMode::Db => base_vals.map(|b| b.wrapping_sub(4 * n)),
                };
                self.drive_bus(observer, &mut bus, &base_vals);
                if !cond_pass {
                    let complete_at = cycle + self.config.load_latency;
                    self.push_retire(addr, insn, complete_at, None, None, false);
                    return Ok(false);
                }
                self.latch_is_ex(Pipe::Lsu, [Some(start), None]);

                // Base writeback is resolved by the AGU in the issue
                // stage; a load that also targets the base lets the
                // loaded value win (writeback suppressed).
                let base_reloaded = dir == MemDir::Load && regs.contains(base);
                if writeback && !base_reloaded {
                    let new_base = match mode {
                        MemMultiMode::Ia => base_vals.map(|b| b.wrapping_add(4 * n)),
                        MemMultiMode::Db => start,
                    };
                    self.write_reg(base, &new_base, cycle + 1);
                }

                // One LSU beat per register, lowest register at the
                // lowest address; each beat moves a full word through the
                // MDR.
                let mut penalty_total: u64 = 0;
                let mut last_values = [0; N];
                let mut redirect_target: Option<(u32, u64)> = None;
                for (i, reg) in regs.iter().enumerate() {
                    let beat_addrs = start.map(|s| s.wrapping_add(4 * i as u32));
                    let penalty = self.cache_penalty(true, &beat_addrs)?;
                    if penalty > 0 {
                        self.stats.dcache_misses += 1;
                    }
                    penalty_total += penalty;
                    let beat_complete = cycle + self.config.load_latency + i as u64 + penalty_total;
                    let values = match dir {
                        MemDir::Load => {
                            let mut values = [0; N];
                            for l in 0..active {
                                values[l] = self.lanes.get(l).mem.read_u32(beat_addrs[l])?;
                            }
                            values
                        }
                        MemDir::Store => {
                            let values = self.operands(reg, addr);
                            for l in 0..active {
                                let mem = &mut self.lanes.get_mut(l).mem;
                                mem.write_u32(beat_addrs[l], values[l])?;
                            }
                            values
                        }
                    };
                    self.schedule(beat_complete, Node::Mdr, values, false);
                    if dir == MemDir::Load {
                        if reg == Reg::PC {
                            redirect_target = Some((self.branch_target(&values)?, beat_complete));
                        } else {
                            self.write_reg(reg, &values, beat_complete);
                        }
                    }
                    last_values = values;
                }
                let beats = u64::from(n.max(1));
                let complete = cycle + self.config.load_latency + beats - 1 + penalty_total;
                self.lsu_ready_at = cycle + beats + penalty_total;
                let wb_values = (dir == MemDir::Load).then_some(last_values);
                self.push_retire(addr, insn, complete, wb_values, Some(Pipe::Lsu), false);
                if let Some((target, at)) = redirect_target {
                    self.redirect(target, at);
                    return Ok(true);
                }
                Ok(false)
            }
            InsnKind::MulLong {
                signed,
                rd_hi,
                rd_lo,
                rm,
                rs,
            } => {
                let cond_pass = self.cond_passes(&insn)?;
                let rm_vals = self.operands(rm, addr);
                self.drive_bus(observer, &mut bus, &rm_vals);
                let rs_vals = self.operands(rs, addr);
                self.drive_bus(observer, &mut bus, &rs_vals);
                // The 64-bit result drains through the write-back path
                // over two cycles (lo, then hi).
                let latency = self.config.mul_latency + 1;
                if !cond_pass {
                    self.push_retire(addr, insn, cycle + latency, None, None, false);
                    return Ok(false);
                }
                self.latch_is_ex(Pipe::Alu0, [Some(rm_vals), Some(rs_vals)]);
                let mut lo = [0; N];
                let mut hi = [0; N];
                for l in 0..active {
                    let product = if signed {
                        (i64::from(rm_vals[l] as i32) * i64::from(rs_vals[l] as i32)) as u64
                    } else {
                        u64::from(rm_vals[l]) * u64::from(rs_vals[l])
                    };
                    lo[l] = product as u32;
                    hi[l] = (product >> 32) as u32;
                }
                self.schedule(cycle + latency - 1, Node::AluOut(Pipe::Alu0), lo, true);
                self.schedule(cycle + latency, Node::AluOut(Pipe::Alu0), hi, true);
                self.write_reg(rd_lo, &lo, cycle + latency - 1);
                self.write_reg(rd_hi, &hi, cycle + latency);
                let complete_at = cycle + latency;
                self.push_retire(addr, insn, complete_at, Some(hi), Some(Pipe::Alu0), false);
                Ok(false)
            }
            InsnKind::Branch { link, offset } => {
                let cond_pass = self.cond_passes(&insn)?;
                self.push_retire(addr, insn, cycle + 1, None, None, false);
                if !cond_pass {
                    return Ok(false);
                }
                if link {
                    self.write_reg(Reg::LR, &[addr.wrapping_add(4); N], cycle + 1);
                }
                let target = addr
                    .wrapping_add(4)
                    .wrapping_add((offset as u32).wrapping_mul(4));
                self.redirect(target, cycle + 1);
                Ok(true)
            }
            InsnKind::Bx { rm } => {
                let cond_pass = self.cond_passes(&insn)?;
                let rm_vals = self.operands(rm, addr);
                self.drive_bus(observer, &mut bus, &rm_vals);
                if cond_pass {
                    let target = self.branch_target(&rm_vals)?;
                    self.redirect(target, cycle + 1);
                }
                self.push_retire(addr, insn, cycle + 1, None, None, false);
                Ok(cond_pass)
            }
        }
    }

    // ---- fetch stage -----------------------------------------------------

    fn fetch<O: BlockObserver + ?Sized>(&mut self, observer: &mut O) -> Result<(), Stop> {
        let cycle = self.cycle;
        if cycle < self.fetch_ready_at {
            return Ok(());
        }
        let mut fetched = 0u8;
        while fetched < self.config.fetch_width as u8
            && self.frontend.len() < self.config.frontend_capacity
        {
            let addr = self.pc;
            // Lanes share the program image, so the fetched word (and
            // whether it could be read at all) must agree everywhere.
            let first = self.lanes.get(0).mem.read_u32(addr).ok();
            for l in 1..self.lanes.active() {
                if self.lanes.get(l).mem.read_u32(addr).ok() != first {
                    return Err(Stop::Diverged(
                        "fetched instruction word differs across lanes",
                    ));
                }
            }
            let Some(word) = first else {
                // Running off the image: stop fetching; issue faults only
                // if execution actually gets here.
                break;
            };
            let penalty = self.cache_penalty(false, &[addr; N])?;
            if penalty > 0 {
                self.stats.icache_misses += 1;
                self.fetch_ready_at = cycle + penalty;
            }
            self.emit(observer, Node::FetchWord(fetched), &[word; N], false);
            self.frontend.push_back(FrontendEntry {
                addr,
                insn: decode(word).map_err(|_| word),
                ready_at: cycle + self.config.frontend_latency + penalty,
            });
            self.pc = addr.wrapping_add(4);
            fetched += 1;
            if penalty > 0 {
                break;
            }
        }
        Ok(())
    }
}

/// Pipe for the younger instruction of a dual-issued pair.
fn younger_default_pipe(older: &Insn, younger: &Insn) -> Pipe {
    let older_takes_alu0 = matches!(
        older.class(),
        InsnClass::Mov | InsnClass::Alu | InsnClass::AluImm | InsnClass::Shift | InsnClass::Mul
    );
    let younger_needs_alu0 = matches!(younger.class(), InsnClass::Shift | InsnClass::Mul);
    if younger_needs_alu0 || !older_takes_alu0 {
        Pipe::Alu0
    } else {
        Pipe::Alu1
    }
}
