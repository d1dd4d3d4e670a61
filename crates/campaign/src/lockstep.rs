//! The lockstep-group step of every acquisition loop.
//!
//! [`Campaign`](crate::Campaign), [`ComponentCampaign`](crate::ComponentCampaign)
//! and the node audit in `sca-core` all walk groups of consecutive items
//! (traces, executions) through one [`sca_uarch::CpuBlock`] walk, and
//! all fall back the same way when the lanes leave lockstep. That policy
//! lives here, once: a worker holds a [`Lockstep`] and hands it each
//! group with two closures, one for the block and one for a single item
//! on the scalar simulator.

use sca_uarch::MAX_LANES;

/// One worker's simulators: a scalar `S` and, until its first
/// divergence, a block `B` of [`Lockstep::lanes`] lanes.
///
/// A group runs on the block in one walk. When its lanes diverge
/// (data-dependent control flow or timing, or a fault in one lane), the
/// block is retired for the rest of the worker's range and counted in
/// `campaign/blocks_poisoned`, and the group reruns item by item on the
/// scalar simulator, which is self-contained per item and surfaces any
/// fault. Both paths give bit-identical results; only the time differs.
#[derive(Debug)]
pub struct Lockstep<S, B> {
    lanes: usize,
    scalar: S,
    block: Option<B>,
}

impl<S, B> Lockstep<S, B> {
    /// A worker's simulators: `scalar`, and `build_block(lanes)` when
    /// `lanes`, clamped to `1..=`[`MAX_LANES`], exceeds 1.
    pub fn new(lanes: usize, scalar: S, build_block: impl FnOnce(usize) -> B) -> Lockstep<S, B> {
        // Registered even at zero, so an export can tell "lockstep never
        // fell back" from "not instrumented".
        sca_telemetry::counter!("campaign/blocks_poisoned").add(0);
        let lanes = lanes.clamp(1, MAX_LANES);
        Lockstep {
            lanes,
            scalar,
            block: (lanes > 1).then(|| build_block(lanes)),
        }
    }

    /// The clamped lane count: the widest group [`Lockstep::group`]
    /// takes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Runs items `base..base + count` into `out`: all at once with
    /// `block` while the block lives and `count > 1`, else one at a time
    /// with `scalar(sim, out, index)`, in index order. `block` returns
    /// `None` when the lanes diverged; it must then have left `out`
    /// untouched and published no work, since the group reruns on the
    /// scalar path. Returns whether the block ran the group.
    ///
    /// # Errors
    ///
    /// The first error of `scalar`.
    pub fn group<O, E>(
        &mut self,
        out: &mut O,
        (base, count): (usize, usize),
        block: impl FnOnce(&mut B, &mut O) -> Option<()>,
        mut scalar: impl FnMut(&mut S, &mut O, usize) -> Result<(), E>,
    ) -> Result<bool, E> {
        debug_assert!(count <= self.lanes, "a group of {count} items");
        if let Some(sim) = self.block.as_mut().filter(|_| count > 1) {
            if block(sim, out).is_some() {
                return Ok(true);
            }
            self.block = None;
            sca_telemetry::counter!("campaign/blocks_poisoned").inc();
        }
        for index in base..base + count {
            scalar(&mut self.scalar, out, index)?;
        }
        Ok(false)
    }
}
