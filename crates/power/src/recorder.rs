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

use sca_uarch::{BlockObserver, NodeEvent, NodeKind, MAX_LANES};

use crate::LeakageWeights;

/// The `(cycle, level)` trigger edges of one run.
#[derive(Clone, Debug, Default)]
struct Triggers(Vec<(u64, bool)>);

impl Triggers {
    /// The cycles `[start, end)` of the first high-trigger window within
    /// `cycles` recorded cycles; all of them when no trigger rose (bench
    /// code without `trig` instructions).
    fn window(&self, cycles: usize) -> (usize, usize) {
        let Some(start) = self.0.iter().find(|(_, h)| *h).map(|(c, _)| *c as usize) else {
            return (0, cycles);
        };
        let end = self
            .0
            .iter()
            .find(|(c, h)| !*h && *c as usize >= start)
            .map_or(cycles, |(c, _)| *c as usize)
            .min(cycles);
        (start.min(end), end)
    }
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
/// (`power[cycle * lanes + lane]`): a block emits each node's events
/// lane by lane, so the writes of one batch land on adjacent slots — this
/// recorder sits on the busiest observer path of the whole campaign
/// engine.
#[derive(Clone, Debug)]
pub struct LanePowerRecorder<const L: usize> {
    weights: LeakageWeights,
    lanes: usize,
    /// Lane-interleaved per-cycle power.
    power: Vec<f64>,
    triggers: Triggers,
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

    /// The raw per-cycle power series for the whole execution.
    pub fn cycle_power(&self) -> &[f64] {
        &self.power
    }

    /// The per-cycle power inside the first high-trigger window (the
    /// whole series when no trigger fired).
    pub fn windowed_power(&self) -> &[f64] {
        let (start, end) = self.window();
        &self.power[start..end]
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
            triggers: Triggers::default(),
        }
    }

    fn window(&self) -> (usize, usize) {
        self.triggers
            .window(self.power.len() / lanes::<L>(self.lanes))
    }

    /// Recorded trigger edges.
    pub fn triggers(&self) -> &[(u64, bool)] {
        &self.triggers.0
    }

    /// Fills `out` (cleared first, capacity reused) with one lane's
    /// per-cycle power inside the first high-trigger window.
    pub fn windowed_power_into(&self, lane: usize, out: &mut Vec<f64>) {
        let stride = lanes::<L>(self.lanes);
        let (start, end) = self.window();
        out.clear();
        out.extend(
            self.power[start * stride..end * stride]
                .iter()
                .skip(lane)
                .step_by(stride),
        );
    }

    /// One lane's per-cycle power inside the first high-trigger window:
    /// borrowed in place from a one-lane recorder, gathered into
    /// `gather` (cleared first, capacity reused) otherwise.
    #[inline]
    pub(crate) fn lane_window<'a>(&'a self, lane: usize, gather: &'a mut Vec<f64>) -> &'a [f64] {
        if L == 1 {
            let (start, end) = self.window();
            return &self.power[start..end];
        }
        self.windowed_power_into(lane, gather);
        gather
    }

    /// Clears recorded data, keeping the weights and the allocated
    /// capacity (reuse across the averaged executions of a trace).
    pub fn reset(&mut self) {
        self.power.clear();
        self.triggers.0.clear();
    }

    /// Grows the series to cover `cycle`.
    #[inline]
    fn cover(&mut self, cycle: u64) {
        let needed = (cycle as usize + 1) * lanes::<L>(self.lanes);
        if self.power.len() < needed {
            self.power.resize(needed, 0.0);
        }
    }
}

impl<const L: usize> BlockObserver for LanePowerRecorder<L> {
    #[inline]
    fn begin_cycle(&mut self, cycle: u64) {
        self.cover(cycle);
    }

    fn node_event(&mut self, lane: usize, event: NodeEvent) {
        self.cover(event.cycle);
        let slot = event.cycle as usize * lanes::<L>(self.lanes) + lane;
        self.power[slot] += self.weights.power_of(&event);
    }

    #[inline(always)]
    fn node_events(&mut self, events: &[NodeEvent]) {
        let Some(first) = events.first() else {
            return;
        };
        self.cover(first.cycle);
        // One kind resolution for the whole batch.
        let kind = first.node.kind();
        let base = first.cycle as usize * lanes::<L>(self.lanes);
        for (slot, event) in self.power[base..base + events.len()].iter_mut().zip(events) {
            *slot += self.weights.power_of_kind(kind, event);
        }
    }

    fn trigger(&mut self, cycle: u64, high: bool) {
        self.triggers.0.push((cycle, high));
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
    /// One cycle-major series (`cycles × NodeKind::COUNT`) per lane.
    power: [Vec<f64>; L],
    triggers: Triggers,
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
            triggers: Triggers::default(),
        }
    }

    /// Cycles recorded so far (every lane's series grows together).
    fn cycles(&self) -> usize {
        self.power[0].len() / NodeKind::COUNT
    }

    /// Clears recorded data while keeping the weights and the allocated
    /// capacity (reuse across the averaged executions of a campaign).
    pub fn reset(&mut self) {
        for series in &mut self.power {
            series.clear();
        }
        self.triggers.0.clear();
    }

    /// Fills `out` (cleared first, capacity reused) with one lane's
    /// per-cycle power for one component inside the first high-trigger
    /// window.
    pub fn windowed_power_into(&self, lane: usize, kind: NodeKind, out: &mut Vec<f64>) {
        const COUNT: usize = NodeKind::COUNT;
        let (start, end) = self.triggers.window(self.cycles());
        out.clear();
        out.extend(
            self.power[lane][start * COUNT..end * COUNT]
                .iter()
                .skip(kind.index())
                .step_by(COUNT),
        );
    }

    /// Grows every lane's series to cover `cycle`.
    #[inline]
    fn cover(&mut self, cycle: u64) {
        let needed = (cycle as usize + 1) * NodeKind::COUNT;
        if self.power[0].len() < needed {
            for series in &mut self.power[..lanes::<L>(self.lanes)] {
                series.resize(needed, 0.0);
            }
        }
    }
}

impl<const L: usize> BlockObserver for LaneComponentRecorder<L> {
    #[inline]
    fn begin_cycle(&mut self, cycle: u64) {
        self.cover(cycle);
    }

    fn node_event(&mut self, lane: usize, event: NodeEvent) {
        self.cover(event.cycle);
        let kind = event.node.kind();
        let offset = event.cycle as usize * NodeKind::COUNT + kind.index();
        self.power[lane][offset] += self.weights.power_of_kind(kind, &event);
    }

    #[inline(always)]
    fn node_events(&mut self, events: &[NodeEvent]) {
        let Some(first) = events.first() else {
            return;
        };
        self.cover(first.cycle);
        let kind = first.node.kind();
        let offset = first.cycle as usize * NodeKind::COUNT + kind.index();
        for (series, event) in self.power.iter_mut().zip(events) {
            series[offset] += self.weights.power_of_kind(kind, event);
        }
    }

    fn trigger(&mut self, cycle: u64, high: bool) {
        self.triggers.0.push((cycle, high));
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
