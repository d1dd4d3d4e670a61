//! Turning pipeline activity into per-cycle power.
//!
//! Two recorders, each written once for any lane count `L`: a
//! [`LanePowerRecorder`] integrates the total power of every lane, a
//! [`LaneComponentRecorder`] keeps one series per component kind. Their
//! one-lane instances ([`PowerRecorder`], [`ComponentPowerRecorder`])
//! observe a [`sca_uarch::Cpu`]; their [`MAX_LANES`] instances
//! ([`BlockPowerRecorder`], [`BlockComponentPowerRecorder`]) observe a
//! [`sca_uarch::CpuBlock`]. Each lane's series is computed exactly as a
//! one-lane recorder observing that lane alone would compute it: the
//! lane's events arrive in the same order and accumulate into the same
//! `f64` slots (same addition order, hence bit-identical), and the
//! shared trigger edges delimit the same window for every lane.
//!
//! Both recorders share one kept-range mechanism (`Frame`): by default
//! they integrate every cycle of a run, and `keep_cycles` narrows that to
//! a range of trigger-relative cycles — the cycles a windowed campaign
//! can ever see — so the rest of the run is never integrated or stored,
//! and the walk stops at the range's end ([`BlockObserver::horizon`]).
//!
//! Both also note where the walk's stale node values entered their sums
//! (`StaleSums`), so that `rescramble` turns the recorded walk into the
//! record of an execution that shares it under other scramble seeds.

use std::ops::Range;

use sca_uarch::{BlockObserver, Node, NodeEvent, NodeKind, NodeState, MAX_LANES};

use crate::LeakageWeights;

/// One run's trigger edges and the cycles a recorder keeps of it.
///
/// By default every cycle is kept. A kept range `[lo, hi)` of
/// trigger-relative cycles narrows that. Until the trigger rises, the
/// recorder keeps cycles `lo..hi` of the run (a run that never triggers
/// is its own window) and, when `lo == 0`, integrates the current cycle
/// into a spare row: it may become the window's cycle 0, whose
/// pending-drain and retire events reach the observer before the `trig`
/// edge. At the first rising edge, at cycle `T`, that row moves to row 0
/// and the recorder keeps cycles `T + lo..T + hi`. Kept cycles are
/// stored as contiguous rows, row 0 holding absolute cycle `base`.
///
/// The first rising edge also sets the walk's horizon to `T + hi`: no
/// later cycle is kept. Until then, and without a kept range, the walk
/// goes to `halt`.
#[derive(Clone, Debug)]
struct Frame {
    /// The `(cycle, level)` trigger edges.
    edges: Vec<(u64, bool)>,
    /// Trigger-relative cycles `[lo, hi)` to keep; `None` keeps all.
    keep: Option<(usize, usize)>,
    /// The absolute cycle stored in row 0.
    base: usize,
    /// The first absolute cycle past the kept ones.
    limit: usize,
    /// Whether an unkept current cycle goes to the spare row (before
    /// the trigger rises, when the window's cycle 0 is kept).
    spare: bool,
    /// Cycles the run has begun.
    cycles: usize,
    /// The cycle begun last (`u64::MAX` before the first).
    current: u64,
    /// The current cycle's row, when it is integrated.
    row: Option<usize>,
    /// The first cycle the walk need not begin.
    horizon: u64,
}

impl Default for Frame {
    fn default() -> Frame {
        Frame {
            edges: Vec::new(),
            keep: None,
            base: 0,
            limit: usize::MAX,
            spare: false,
            cycles: 0,
            current: u64::MAX,
            row: None,
            horizon: u64::MAX,
        }
    }
}

impl Frame {
    /// Forgets the run, keeping the kept range.
    fn reset(&mut self) {
        let (lo, hi) = self.keep.unwrap_or((0, usize::MAX));
        self.edges.clear();
        self.base = lo;
        self.limit = hi.max(lo);
        self.spare = self.keep.is_some() && lo == 0 && hi > 0;
        self.cycles = 0;
        self.current = u64::MAX;
        self.row = None;
        self.horizon = u64::MAX;
    }

    /// Begins `cycle`; returns its row when it is integrated. A reused
    /// (spare) row must be zeroed by the recorder.
    #[inline]
    fn begin(&mut self, cycle: u64) -> Option<usize> {
        self.current = cycle;
        let c = cycle as usize;
        self.cycles = self.cycles.max(c.saturating_add(1));
        self.row = if (self.base..self.limit).contains(&c) {
            Some(c - self.base)
        } else if self.spare {
            Some(self.limit - self.base)
        } else {
            None
        };
        self.row
    }

    /// The row of an event at `cycle`, when its cycle is integrated.
    /// Events belong to the cycle begun last: the pipeline emits every
    /// event of a cycle after that cycle's `begin_cycle`.
    #[inline]
    fn row_of(&self, cycle: u64) -> Option<usize> {
        debug_assert_eq!(cycle, self.current, "event outside the current cycle");
        self.row
    }

    /// Records a trigger edge. At the first rising edge of a narrowed
    /// frame, returns the row the recorder must move to row 0 (the
    /// window's cycle 0, when kept) before dropping every other row.
    fn trigger(&mut self, cycle: u64, high: bool) -> Option<Option<usize>> {
        let first_rise = high && !self.edges.iter().any(|&(_, h)| h);
        self.edges.push((cycle, high));
        let (lo, hi) = self.keep.filter(|_| first_rise)?;
        debug_assert_eq!(cycle, self.current, "trigger outside the current cycle");
        let start = cycle as usize;
        let kept = self.row.filter(|_| lo == 0 && hi > 0);
        self.base = start.saturating_add(lo);
        self.limit = start.saturating_add(hi);
        self.spare = false;
        self.row = kept.map(|_| 0);
        self.horizon = horizon(cycle, hi);
        Some(kept)
    }

    /// The absolute cycles `[start, end)` of the first high-trigger
    /// window; the whole run when no trigger rose (bench code without
    /// `trig` instructions).
    fn window(&self) -> (usize, usize) {
        trigger_window(&self.edges, self.cycles)
    }

    /// The row absolute `cycle` is stored in, among `rows`, when the
    /// run keeps it.
    fn stored_row(&self, cycle: u64, rows: usize) -> Option<usize> {
        let cycle = cycle as usize;
        (self.base..self.limit)
            .contains(&cycle)
            .then(|| cycle - self.base)
            .filter(|&row| row < rows)
    }

    /// The cycle the trigger first rose at, while its window is still
    /// open: no falling edge has followed it.
    fn open_rise(&self) -> Option<u64> {
        let rise = self.edges.iter().find(|(_, h)| *h)?.0;
        (!self.edges.iter().any(|&(c, h)| !h && c >= rise)).then_some(rise)
    }

    /// The kept cycles of the window, given the `stored` rows: their
    /// rows, the trigger-relative cycle of the first, and the window's
    /// length in cycles.
    fn kept(&self, stored: usize) -> (Range<usize>, usize, usize) {
        let (start, end) = self.window();
        let (lo, hi) = self.keep.unwrap_or((0, usize::MAX));
        let row = |cycle: usize| cycle.saturating_sub(self.base).min(stored);
        let first = row(start.saturating_add(lo));
        let last = row(end.min(start.saturating_add(hi))).max(first);
        (first..last, self.base + first - start, end - start)
    }
}

/// The sums a walk's stale node values entered, kept so that an
/// execution sharing the walk can redo them for its own scramble seeds.
///
/// A recorder sums each slot — one kept cycle's power, or one
/// component's share of it — in emission order. Where a stale event
/// lands, the slot's sum so far does not depend on the seeds, and
/// neither does any later event that is not stale. So the slot is kept
/// as that prefix, per lane, followed by its terms: the fixed
/// contributions, and each stale event as its node and the values
/// asserted. Redone in that order, with the stale values
/// [`NodeState::scramble`] gives the new seeds, every sum comes out bit
/// for bit as a walk under those seeds would have left it.
#[derive(Clone, Debug)]
struct StaleSums<const L: usize> {
    /// The slots a stale event landed in, in the order met.
    slots: Vec<StaleSlot<L>>,
    /// The tracked slots' terms, in emission order.
    terms: Vec<Term<L>>,
    /// The current cycle's tracked sub-slots, one bit each.
    tracked: u32,
    /// The index in `slots` of each tracked sub-slot of the current
    /// cycle.
    current: [usize; NodeKind::COUNT],
    /// Each slot's sums, while redoing them.
    sums: Vec<[f64; L]>,
}

/// A slot a stale event landed in.
#[derive(Clone, Copy, Debug)]
struct StaleSlot<const L: usize> {
    /// The absolute cycle.
    cycle: u64,
    /// The slot within the cycle: 0 for total power, the component's
    /// index for per-component power.
    sub: usize,
    /// Each lane's sum before the slot's first stale event.
    prefix: [f64; L],
}

/// One batch's addition to a tracked slot.
#[derive(Clone, Copy, Debug)]
struct Term<const L: usize> {
    /// The slot's index in `StaleSums::slots`.
    slot: usize,
    value: TermValue<L>,
}

#[derive(Clone, Copy, Debug)]
enum TermValue<const L: usize> {
    /// Each lane's contribution of an event whose `before` did not come
    /// from the scramble.
    Fixed([f64; L]),
    /// A stale event: its node and kind, and each lane's new value.
    Stale {
        node: Node,
        kind: NodeKind,
        after: [u32; L],
    },
}

impl<const L: usize> Default for StaleSums<L> {
    fn default() -> StaleSums<L> {
        StaleSums {
            slots: Vec::new(),
            terms: Vec::new(),
            tracked: 0,
            current: [0; NodeKind::COUNT],
            sums: Vec::new(),
        }
    }
}

impl<const L: usize> StaleSums<L> {
    /// Forgets the walk (capacity kept).
    fn clear(&mut self) {
        self.slots.clear();
        self.terms.clear();
        self.tracked = 0;
    }

    /// A new cycle begins: none of its slots is tracked yet.
    #[inline]
    fn begin_cycle(&mut self) {
        self.tracked = 0;
    }

    /// Whether sub-slot `sub` of the current cycle met a stale event.
    #[inline]
    fn tracks(&self, sub: usize) -> bool {
        self.tracked & (1 << sub) != 0
    }

    /// A stale batch lands in sub-slot `sub` of `cycle`, whose lanes
    /// summed to `sum(lane)` so far.
    fn stale(&mut self, cycle: u64, sub: usize, sum: impl Fn(usize) -> f64, events: &[NodeEvent]) {
        if !self.tracks(sub) {
            let mut prefix = [0.0; L];
            for (lane, value) in prefix.iter_mut().enumerate().take(events.len()) {
                *value = sum(lane);
            }
            self.tracked |= 1 << sub;
            self.current[sub] = self.slots.len();
            self.slots.push(StaleSlot { cycle, sub, prefix });
        }
        let mut after = [0; L];
        for (value, event) in after.iter_mut().zip(events) {
            *value = event.after;
        }
        let node = events[0].node;
        self.terms.push(Term {
            slot: self.current[sub],
            value: TermValue::Stale {
                node,
                kind: node.kind(),
                after,
            },
        });
    }

    /// A batch that is not stale adds `contributions` to the tracked
    /// sub-slot `sub`.
    fn fixed(&mut self, sub: usize, contributions: impl Iterator<Item = f64>) {
        let mut values = [0.0; L];
        for (value, contribution) in values.iter_mut().zip(contributions) {
            *value = contribution;
        }
        self.terms.push(Term {
            slot: self.current[sub],
            value: TermValue::Fixed(values),
        });
    }

    /// Redoes every tracked slot for lanes scrambled with `seeds`,
    /// handing each result to `store(cycle, sub, lane, sum)`.
    fn redo(
        &mut self,
        weights: &LeakageWeights,
        seeds: &[u64],
        mut store: impl FnMut(u64, usize, usize, f64),
    ) {
        self.sums.clear();
        self.sums.extend(self.slots.iter().map(|slot| slot.prefix));
        for term in &self.terms {
            let sum = &mut self.sums[term.slot];
            match term.value {
                TermValue::Fixed(values) => {
                    for (sum, value) in sum.iter_mut().zip(values).take(seeds.len()) {
                        *sum += value;
                    }
                }
                TermValue::Stale { node, kind, after } => {
                    let cycle = self.slots[term.slot].cycle;
                    for ((sum, &seed), after) in sum.iter_mut().zip(seeds).zip(after) {
                        let event = NodeEvent {
                            cycle,
                            node,
                            before: NodeState::stale_value(seed, node),
                            after,
                        };
                        *sum += weights.power_of_kind(kind, &event);
                    }
                }
            }
        }
        for (slot, sums) in self.slots.iter().zip(&self.sums) {
            for (lane, &sum) in sums.iter().enumerate().take(seeds.len()) {
                store(slot.cycle, slot.sub, lane, sum);
            }
        }
    }
}

/// The horizon of a run whose trigger rose at cycle `rise` and which
/// keeps trigger-relative cycles up to `reach`: the first cycle it need
/// not begin (past `rise` itself, which has begun when the edge comes).
pub(crate) fn horizon(rise: u64, reach: usize) -> u64 {
    rise.saturating_add((reach as u64).max(1))
}

/// The absolute cycles `[start, end)` of the first high-trigger window
/// of a run of `cycles` cycles with trigger `edges`: from the first
/// rising edge to the first falling edge at or after it, or to the
/// run's end; the whole run when no trigger rose.
pub(crate) fn trigger_window(edges: &[(u64, bool)], cycles: usize) -> (usize, usize) {
    let Some(start) = edges.iter().find(|(_, h)| *h).map(|(c, _)| *c as usize) else {
        return (0, cycles);
    };
    let end = edges
        .iter()
        .find(|(c, h)| !*h && *c as usize >= start)
        .map_or(cycles, |(c, _)| *c as usize)
        .min(cycles);
    (start.min(end), end)
}

/// The lane count a recorder was built for: `L` itself for the one-lane
/// instance, so its layout arithmetic folds away at compile time.
fn lanes<const L: usize>(lanes: usize) -> usize {
    if L == 1 {
        1
    } else {
        lanes
    }
}

/// Integrates node switching activity into a per-cycle power series per
/// lane, and records trigger edges for windowing.
///
/// One recorder observes one execution (of every lane); the trace
/// synthesizer then expands cycles to oscilloscope samples, adds noise
/// and averages executions. Storage is lane-interleaved
/// (`power[row * lanes + lane]`, one row per kept cycle): a block emits
/// each node's events lane by lane, so the writes of one batch land on
/// adjacent slots — this recorder sits on the busiest observer path of
/// the whole campaign engine.
#[derive(Clone, Debug)]
pub struct LanePowerRecorder<const L: usize> {
    weights: LeakageWeights,
    lanes: usize,
    /// Lane-interleaved per-cycle power of the kept cycles.
    power: Vec<f64>,
    frame: Frame,
    stale: StaleSums<L>,
}

/// The one-lane power recorder, observing a [`sca_uarch::Cpu`].
pub type PowerRecorder = LanePowerRecorder<1>;

/// The power recorder of a lockstep [`sca_uarch::CpuBlock`].
pub type BlockPowerRecorder = LanePowerRecorder<MAX_LANES>;

impl PowerRecorder {
    /// Creates a recorder with the given leakage weights.
    pub fn new(weights: LeakageWeights) -> PowerRecorder {
        LanePowerRecorder::with_lanes(weights, 1)
    }

    /// The raw per-cycle power series of the kept cycles: the whole
    /// execution unless [`LanePowerRecorder::keep_cycles`] narrowed it.
    pub fn cycle_power(&self) -> &[f64] {
        &self.power
    }

    /// The per-cycle power inside the first high-trigger window (the
    /// whole series when no trigger fired) — its kept cycles only, when
    /// [`LanePowerRecorder::keep_cycles`] narrowed them.
    pub fn windowed_power(&self) -> &[f64] {
        let (rows, _, _) = self.frame.kept(self.power.len());
        &self.power[rows]
    }
}

impl BlockPowerRecorder {
    /// Creates a recorder for up to `lanes` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds [`MAX_LANES`].
    pub fn new(weights: LeakageWeights, lanes: usize) -> BlockPowerRecorder {
        LanePowerRecorder::with_lanes(weights, lanes)
    }
}

impl<const L: usize> LanePowerRecorder<L> {
    fn with_lanes(weights: LeakageWeights, lanes: usize) -> LanePowerRecorder<L> {
        assert!(lanes <= L, "lane count {lanes} above {L}");
        LanePowerRecorder {
            weights,
            lanes: lanes.max(1),
            power: Vec::new(),
            frame: Frame::default(),
            stale: StaleSums::default(),
        }
    }

    fn stride(&self) -> usize {
        lanes::<L>(self.lanes)
    }

    /// Integrates only the trigger-relative cycles `[lo, hi)` of each
    /// run from now on (`None`, the default, keeps every cycle), and
    /// clears the recorded data. Cycles outside the range are never
    /// integrated; the window accessors then return the kept part of
    /// the trigger window. Once the trigger rises at cycle `T`, the walk
    /// stops at its horizon `T + hi`.
    pub fn keep_cycles(&mut self, cycles: Option<(usize, usize)>) {
        self.frame.keep = cycles;
        self.reset();
    }

    /// Recorded trigger edges.
    pub fn triggers(&self) -> &[(u64, bool)] {
        &self.frame.edges
    }

    /// Fills `out` (cleared first, capacity reused) with one lane's
    /// per-cycle power inside the first high-trigger window (its kept
    /// cycles).
    pub fn windowed_power_into(&self, lane: usize, out: &mut Vec<f64>) {
        let stride = self.stride();
        let (rows, _, _) = self.frame.kept(self.power.len() / stride);
        out.clear();
        out.extend(
            self.power[rows.start * stride..rows.end * stride]
                .iter()
                .skip(lane)
                .step_by(stride),
        );
    }

    /// One lane's kept per-cycle power inside the first high-trigger
    /// window, with the trigger-relative cycle of its first entry and
    /// the window's length in cycles. The series is borrowed in place
    /// from a one-lane recorder, gathered into `gather` (cleared first,
    /// capacity reused) otherwise.
    #[inline]
    pub(crate) fn lane_window<'a>(
        &'a self,
        lane: usize,
        gather: &'a mut Vec<f64>,
    ) -> (&'a [f64], usize, usize) {
        let (rows, first, cycles) = self.frame.kept(self.power.len() / self.stride());
        if L == 1 {
            return (&self.power[rows], first, cycles);
        }
        self.windowed_power_into(lane, gather);
        (gather, first, cycles)
    }

    /// Clears recorded data, keeping the weights, the kept range and
    /// the allocated capacity (reuse across the averaged executions of
    /// a trace).
    pub fn reset(&mut self) {
        self.power.clear();
        self.frame.reset();
        self.stale.clear();
    }

    /// Turns the recorded walk into the record of an execution that
    /// shares it with lanes scrambled by `seeds`: redoes the sums its
    /// stale node values entered ([`BlockObserver::stale_node_events`]),
    /// bit for bit as a walk under those seeds would have left them.
    /// Every other kept sum, the trigger edges and the horizon stay.
    pub(crate) fn rescramble(&mut self, seeds: &[u64]) {
        let stride = self.stride();
        let rows = self.power.len() / stride;
        let (frame, power) = (&self.frame, &mut self.power);
        self.stale
            .redo(&self.weights, seeds, |cycle, _, lane, sum| {
                if let Some(row) = frame.stored_row(cycle, rows) {
                    power[row * stride + lane] = sum;
                }
            });
    }

    /// Adds one batch's contributions to `row`.
    #[inline(always)]
    fn add(&mut self, row: usize, kind: NodeKind, events: &[NodeEvent]) {
        let base = row * self.stride();
        for (slot, event) in self.power[base..base + events.len()].iter_mut().zip(events) {
            *slot += self.weights.power_of_kind(kind, event);
        }
    }

    /// The cycle the trigger first rose at, when the run so far left its
    /// window open: a walk stopped at the horizon then does not know the
    /// window's length.
    pub(crate) fn open_rise(&self) -> Option<u64> {
        self.frame.open_rise()
    }

    /// Lifts the current run's horizon: the next `run` resumes the walk
    /// to `halt`.
    pub(crate) fn resume_to_halt(&mut self) {
        self.frame.horizon = u64::MAX;
    }
}

impl<const L: usize> BlockObserver for LanePowerRecorder<L> {
    const STALE_EVENTS: bool = true;

    #[inline]
    fn begin_cycle(&mut self, cycle: u64) {
        self.stale.begin_cycle();
        if let Some(row) = self.frame.begin(cycle) {
            let stride = self.stride();
            let (start, end) = (row * stride, (row + 1) * stride);
            if self.power.len() < end {
                self.power.resize(end, 0.0);
            } else {
                self.power[start..end].fill(0.0);
            }
        }
    }

    fn node_event(&mut self, lane: usize, event: NodeEvent) {
        let Some(row) = self.frame.row_of(event.cycle) else {
            return;
        };
        let slot = row * self.stride() + lane;
        self.power[slot] += self.weights.power_of(&event);
    }

    #[inline(always)]
    fn node_events(&mut self, events: &[NodeEvent]) {
        let Some(first) = events.first() else {
            return;
        };
        let Some(row) = self.frame.row_of(first.cycle) else {
            return;
        };
        // One kind resolution for the whole batch.
        let kind = first.node.kind();
        if self.stale.tracks(0) {
            let weights = &self.weights;
            let contributions = events.iter().map(|e| weights.power_of_kind(kind, e));
            self.stale.fixed(0, contributions);
        }
        self.add(row, kind, events);
    }

    fn stale_node_events(&mut self, events: &[NodeEvent]) {
        let Some(first) = events.first() else {
            return;
        };
        let Some(row) = self.frame.row_of(first.cycle) else {
            return;
        };
        let base = row * self.stride();
        let power = &self.power[base..base + events.len()];
        self.stale.stale(first.cycle, 0, |lane| power[lane], events);
        self.add(row, first.node.kind(), events);
    }

    fn trigger(&mut self, cycle: u64, high: bool) {
        if let Some(kept) = self.frame.trigger(cycle, high) {
            let stride = self.stride();
            if let Some(row) = kept {
                self.power.copy_within(row * stride..(row + 1) * stride, 0);
            }
            self.power.truncate(kept.map_or(0, |_| stride));
        }
    }

    #[inline]
    fn horizon(&self) -> u64 {
        self.frame.horizon
    }
}

/// A recorder that keeps one power series *per component kind* and lane.
///
/// The paper attributes measured leakage to pipeline components
/// "following the common practice employed in EDA tools of ascribing the
/// power consumption of a signal to its driving circuit". The overall
/// probe signal superimposes all components (that is what the attacks
/// see), but the per-component characterization of Table 2 needs the
/// attribution; in simulation it is exact.
///
/// Each lane has its own cycle-major buffer
/// (`power[lane][cycle * COUNT + kind]`): the node events of one cycle
/// then land on one cache line, and extracting a lane's component series
/// re-walks that lane's (L1-resident) buffer — interleaving the lanes
/// would spread every extraction stride across `lanes` cache lines.
/// [`Self::reset`] clears the data but keeps the capacity, so a
/// characterization worker reuses one recorder across its whole index
/// range without reallocating.
#[derive(Clone, Debug)]
pub struct LaneComponentRecorder<const L: usize> {
    weights: LeakageWeights,
    lanes: usize,
    /// One cycle-major series (`rows × NodeKind::COUNT`, one row per
    /// kept cycle) per lane.
    power: [Vec<f64>; L],
    frame: Frame,
    stale: StaleSums<L>,
}

/// The one-lane component recorder, observing a [`sca_uarch::Cpu`].
pub type ComponentPowerRecorder = LaneComponentRecorder<1>;

/// The component recorder of a lockstep block.
pub type BlockComponentPowerRecorder = LaneComponentRecorder<MAX_LANES>;

impl ComponentPowerRecorder {
    /// Creates a recorder with the given leakage weights.
    pub fn new(weights: LeakageWeights) -> ComponentPowerRecorder {
        LaneComponentRecorder::with_lanes(weights, 1)
    }
}

impl BlockComponentPowerRecorder {
    /// Creates a recorder for up to `lanes` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds [`MAX_LANES`].
    pub fn new(weights: LeakageWeights, lanes: usize) -> BlockComponentPowerRecorder {
        LaneComponentRecorder::with_lanes(weights, lanes)
    }
}

impl<const L: usize> LaneComponentRecorder<L> {
    fn with_lanes(weights: LeakageWeights, lanes: usize) -> LaneComponentRecorder<L> {
        assert!(lanes <= L, "lane count {lanes} above {L}");
        LaneComponentRecorder {
            weights,
            lanes: lanes.max(1),
            power: std::array::from_fn(|_| Vec::new()),
            frame: Frame::default(),
            stale: StaleSums::default(),
        }
    }

    /// Rows recorded so far (every lane's series grows together).
    fn rows(&self) -> usize {
        self.power[0].len() / NodeKind::COUNT
    }

    /// Integrates only the trigger-relative cycles `[lo, hi)` of each
    /// run from now on (`None`, the default, keeps every cycle), and
    /// clears the recorded data. Once the trigger rises at cycle `T`,
    /// the walk stops at its horizon `T + hi`: a walk stopped there kept
    /// the same cycles as a whole walk.
    pub fn keep_cycles(&mut self, cycles: Option<(usize, usize)>) {
        self.frame.keep = cycles;
        self.reset();
    }

    /// Clears recorded data while keeping the weights, the kept range
    /// and the allocated capacity (reuse across the averaged executions
    /// of a campaign).
    pub fn reset(&mut self) {
        for series in &mut self.power {
            series.clear();
        }
        self.frame.reset();
        self.stale.clear();
    }

    /// Turns the recorded walk into the record of an execution that
    /// shares it with lanes scrambled by `seeds`: redoes the sums its
    /// stale node values entered ([`BlockObserver::stale_node_events`]),
    /// bit for bit as a walk under those seeds would have left them.
    /// Every other kept sum, the trigger edges and the horizon stay.
    pub fn rescramble(&mut self, seeds: &[u64]) {
        let rows = self.rows();
        let (frame, power) = (&self.frame, &mut self.power);
        self.stale
            .redo(&self.weights, seeds, |cycle, kind, lane, sum| {
                if let Some(row) = frame.stored_row(cycle, rows) {
                    power[lane][row * NodeKind::COUNT + kind] = sum;
                }
            });
    }

    /// Adds one batch's contributions at `offset` of each lane's series.
    #[inline(always)]
    fn add(&mut self, offset: usize, kind: NodeKind, events: &[NodeEvent]) {
        for (series, event) in self.power.iter_mut().zip(events) {
            series[offset] += self.weights.power_of_kind(kind, event);
        }
    }

    /// Fills `out` (cleared first, capacity reused) with one lane's
    /// per-cycle power for one component inside the first high-trigger
    /// window — with a kept range `[lo, hi)`, its cycles `lo..hi` (fewer
    /// where the window ends first).
    pub fn windowed_power_into(&self, lane: usize, kind: NodeKind, out: &mut Vec<f64>) {
        const COUNT: usize = NodeKind::COUNT;
        let (rows, _, _) = self.frame.kept(self.rows());
        out.clear();
        out.extend(
            self.power[lane][rows.start * COUNT..rows.end * COUNT]
                .iter()
                .skip(kind.index())
                .step_by(COUNT),
        );
    }
}

impl<const L: usize> BlockObserver for LaneComponentRecorder<L> {
    const STALE_EVENTS: bool = true;

    #[inline]
    fn begin_cycle(&mut self, cycle: u64) {
        self.stale.begin_cycle();
        if let Some(row) = self.frame.begin(cycle) {
            let (start, end) = (row * NodeKind::COUNT, (row + 1) * NodeKind::COUNT);
            for series in &mut self.power[..lanes::<L>(self.lanes)] {
                if series.len() < end {
                    series.resize(end, 0.0);
                } else {
                    series[start..end].fill(0.0);
                }
            }
        }
    }

    fn node_event(&mut self, lane: usize, event: NodeEvent) {
        let Some(row) = self.frame.row_of(event.cycle) else {
            return;
        };
        let kind = event.node.kind();
        let offset = row * NodeKind::COUNT + kind.index();
        self.power[lane][offset] += self.weights.power_of_kind(kind, &event);
    }

    #[inline(always)]
    fn node_events(&mut self, events: &[NodeEvent]) {
        let Some(first) = events.first() else {
            return;
        };
        let Some(row) = self.frame.row_of(first.cycle) else {
            return;
        };
        let kind = first.node.kind();
        if self.stale.tracks(kind.index()) {
            let weights = &self.weights;
            let contributions = events.iter().map(|e| weights.power_of_kind(kind, e));
            self.stale.fixed(kind.index(), contributions);
        }
        self.add(row * NodeKind::COUNT + kind.index(), kind, events);
    }

    fn stale_node_events(&mut self, events: &[NodeEvent]) {
        let Some(first) = events.first() else {
            return;
        };
        let Some(row) = self.frame.row_of(first.cycle) else {
            return;
        };
        let kind = first.node.kind();
        let offset = row * NodeKind::COUNT + kind.index();
        let power = &self.power;
        let sum = |lane: usize| power[lane][offset];
        self.stale.stale(first.cycle, kind.index(), sum, events);
        self.add(offset, kind, events);
    }

    fn trigger(&mut self, cycle: u64, high: bool) {
        if let Some(kept) = self.frame.trigger(cycle, high) {
            const COUNT: usize = NodeKind::COUNT;
            for series in &mut self.power[..lanes::<L>(self.lanes)] {
                if let Some(row) = kept {
                    series.copy_within(row * COUNT..(row + 1) * COUNT, 0);
                }
                series.truncate(kept.map_or(0, |_| COUNT));
            }
        }
    }

    #[inline]
    fn horizon(&self) -> u64 {
        self.frame.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sca_uarch::Node;

    fn ev(cycle: u64, before: u32, after: u32) -> NodeEvent {
        NodeEvent {
            cycle,
            node: Node::Mdr,
            before,
            after,
        }
    }

    #[test]
    fn accumulates_power_per_cycle() {
        let mut rec =
            PowerRecorder::new(LeakageWeights::zero().with_hd(sca_uarch::NodeKind::Mdr, 1.0));
        rec.begin_cycle(0);
        rec.node_event(0, ev(0, 0, 0b111));
        rec.node_event(0, ev(0, 0, 0b1));
        rec.begin_cycle(1);
        rec.node_event(0, ev(1, 0, 0b11));
        assert_eq!(rec.cycle_power(), &[4.0, 2.0]);
    }

    #[test]
    fn window_extraction() {
        let mut rec =
            PowerRecorder::new(LeakageWeights::zero().with_hd(sca_uarch::NodeKind::Mdr, 1.0));
        for c in 0..10 {
            rec.begin_cycle(c);
            rec.node_event(0, ev(c, 0, 1));
        }
        rec.trigger(3, true);
        rec.trigger(7, false);
        assert_eq!(rec.windowed_power().len(), 4); // cycles 3..7
    }

    #[test]
    fn no_trigger_returns_everything() {
        let mut rec = PowerRecorder::new(LeakageWeights::cortex_a7());
        for c in 0..5 {
            rec.begin_cycle(c);
        }
        assert_eq!(rec.windowed_power().len(), 5);
    }

    /// Ten cycles of one `c + 1`-bit event each, the trigger rising at
    /// cycle 3 — after that cycle's first event, as the pipeline emits
    /// pending-drain and retire events before the `trig` edge — and
    /// falling at 8.
    fn run(rec: &mut PowerRecorder, trigger: bool) {
        rec.reset();
        for c in 0..10 {
            rec.begin_cycle(c);
            rec.node_event(0, ev(c, 0, (1 << (c + 1)) - 1));
            if trigger && c == 3 {
                rec.trigger(3, true);
                rec.node_event(0, ev(c, 0, 1));
            }
            if trigger && c == 8 {
                rec.trigger(8, false);
            }
        }
    }

    #[test]
    fn kept_range_integrates_only_its_trigger_relative_cycles() {
        let weights = LeakageWeights::zero().with_hd(sca_uarch::NodeKind::Mdr, 1.0);
        let mut whole = PowerRecorder::new(weights.clone());
        run(&mut whole, true);
        assert_eq!(whole.windowed_power(), &[5.0, 5.0, 6.0, 7.0, 8.0]);
        let mut kept = PowerRecorder::new(weights);
        for (range, want) in [
            ((0, 2), &[5.0, 5.0][..]),
            ((0, 9), &[5.0, 5.0, 6.0, 7.0, 8.0]),
            ((1, 3), &[5.0, 6.0]),
            ((3, 9), &[7.0, 8.0]),
            ((6, 9), &[]),
            ((2, 2), &[]),
        ] {
            kept.keep_cycles(Some(range));
            run(&mut kept, true);
            assert_eq!(kept.windowed_power(), want, "kept {range:?}");
            // Nothing outside the kept range is stored.
            assert!(
                kept.cycle_power().len() <= range.1 - range.0,
                "kept {range:?}"
            );
            let (_, first, cycles) = kept.lane_window(0, &mut Vec::new());
            assert_eq!((first, cycles), (range.0, 5), "kept {range:?}");
        }
        // Without a trigger the whole run is the window.
        kept.keep_cycles(Some((2, 4)));
        run(&mut kept, false);
        assert_eq!(kept.windowed_power(), &[3.0, 4.0]);
        kept.keep_cycles(Some((0, 4)));
        run(&mut kept, false);
        assert_eq!(kept.windowed_power(), &[1.0, 2.0, 3.0, 4.0]);
        kept.keep_cycles(Some((20, 30)));
        run(&mut kept, false);
        assert!(kept.windowed_power().is_empty(), "past the run's end");
        kept.keep_cycles(None);
        run(&mut kept, true);
        assert_eq!(kept.windowed_power(), whole.windowed_power());
    }

    #[test]
    fn reset_clears_data() {
        let mut rec = PowerRecorder::new(LeakageWeights::cortex_a7());
        rec.begin_cycle(0);
        rec.trigger(0, true);
        rec.reset();
        assert!(rec.cycle_power().is_empty());
        assert!(rec.triggers().is_empty());
    }
}
