//! Microarchitectural *nodes* — the observable buffers and buses whose
//! value transitions drive side-channel leakage.
//!
//! Section 4 of the paper models the Cortex-A7's leakage as the switching
//! activity of gates driving large capacitive loads: the register-file
//! read ports, the IS/EX inter-stage buffers, the ALU and barrel-shifter
//! output buffers, the EX/WB buffers, the write-back buses, the Memory
//! Data Register (MDR) and the LSU's sub-word *align buffer*. Each of
//! those is a [`Node`] here. Every cycle the pipeline asserts values on
//! nodes; the old/new pair is delivered to observers as a [`NodeEvent`],
//! from which the power model computes Hamming-distance/weight terms.
//!
//! Two families deserve comment, because their split is what lets the
//! model reproduce *all* of Table 2 simultaneously:
//!
//! * **Operand buses vs. IS/EX buffers.** The three shared register-read
//!   buses ([`Node::OperandBus`]) are driven by *every* issued instruction
//!   — including the `nop`, which drives zeros (it is a never-executed
//!   conditional with zero operands). The per-pipe IS/EX buffers
//!   ([`Node::IsExOp`]) latch only for instructions actually dispatched to
//!   that pipe, so a `nop` between two `mov`s leaves the pipe-0 buffer
//!   transitioning directly `rB → rD`. Together these explain the paper's
//!   observation that `mov rA, rB; nop; mov rC, rD` leaks both
//!   `HW(rB)`/`HW(rD)` *and* `rB ⊕ rD`.
//! * **EX/WB buffers vs. WB buses.** The per-pipe output buffer
//!   ([`Node::ExWbBuf`]) holds results of successive instructions executed
//!   on the same pipe (`rA ⊕ rD` leakage when single-issued), while the
//!   write-back buses ([`Node::WbBus`]) are zeroed by retiring `nop`s,
//!   producing the boundary Hamming-weight leakage the paper marks with †.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifies an execution pipe for node bookkeeping.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[repr(u8)]
pub enum Pipe {
    /// ALU pipe 0: three stages, owns the barrel shifter and the
    /// multiplier.
    Alu0 = 0,
    /// ALU pipe 1: single-stage simple ALU.
    Alu1 = 1,
    /// Load/store unit: three stages, fully pipelined.
    Lsu = 2,
    /// Floating-point/NEON placeholder pipe (four stages, unused by the
    /// integer ISA but kept for structural fidelity with Figure 2).
    Fpu = 3,
}

impl Pipe {
    /// All pipes.
    pub const ALL: [Pipe; 4] = [Pipe::Alu0, Pipe::Alu1, Pipe::Lsu, Pipe::Fpu];

    /// Index for array storage.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Pipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pipe::Alu0 => f.write_str("ALU0"),
            Pipe::Alu1 => f.write_str("ALU1"),
            Pipe::Lsu => f.write_str("LSU"),
            Pipe::Fpu => f.write_str("FPU"),
        }
    }
}

/// A tracked microarchitectural storage/bus element.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Node {
    /// Register-file read port `0..=2`. The paper found these do **not**
    /// leak measurably (short capacitive load); the default power weight
    /// is therefore zero, but the node is still tracked so that the
    /// characterization can *test* the RF models and report them black.
    RfRead(u8),
    /// Shared RF→issue operand bus `0..=2`. Driven by every issued
    /// instruction in operand-position order; `nop`s drive zeros.
    OperandBus(u8),
    /// Per-pipe IS/EX operand buffer; `slot` 0 = first source position,
    /// 1 = second source position.
    IsExOp {
        /// Execution pipe owning the buffer.
        pipe: Pipe,
        /// Operand position (0 or 1).
        slot: u8,
    },
    /// Barrel-shifter output buffer (pipe 0 only). Zero-precharged; leaks
    /// the Hamming weight of the shifted value at roughly one tenth of the
    /// other nodes' weight (paper, Section 4.1).
    ShiftBuf,
    /// ALU result signals, zero-precharged each operation, so the
    /// transition weight equals the Hamming weight of the result.
    AluOut(Pipe),
    /// Per-pipe EX→WB output buffer, holding the last result produced by
    /// that pipe.
    ExWbBuf(Pipe),
    /// Write-back bus `0..=1` from the EX/WB buffers to the register-file
    /// write ports. Retiring `nop`s reset bus 0 to zero.
    WbBus(u8),
    /// Memory Data Register: the full 32-bit word moved to/from the data
    /// cache, even for sub-word accesses.
    Mdr,
    /// LSU sub-word alignment buffer: the extracted byte/halfword value.
    /// Exhibits data remanence across intervening word-sized accesses.
    AlignBuf,
    /// Instruction words entering the prefetch buffer (fetch-path
    /// leakage; negligible weight by default, tracked for completeness).
    FetchWord(u8),
}

impl Node {
    /// Number of distinct trackable nodes (the dense index space of
    /// [`Node::dense_index`]).
    pub const COUNT: usize = 35;

    /// Dense storage index, enumerating the node set in the same order
    /// as the derived `Ord` (the order [`NodeState::scramble`] has always
    /// walked the nodes in — the scrambled stale values each node
    /// receives are pinned by the verdict-regression tests, so this
    /// enumeration must never change).
    ///
    /// # Panics
    ///
    /// Panics for bus/port/slot indices ≥ 4 — no modeled configuration
    /// reaches them (the A7 has 3 operand buses, 2 write-back buses and
    /// fetch width 2), and silently widening the set would shift every
    /// node's scramble stream.
    #[inline(always)]
    pub fn dense_index(self) -> usize {
        #[cold]
        #[inline(never)]
        fn out_of_range() -> ! {
            panic!("node index out of the tracked set");
        }
        let sub = |i: usize, width: usize| {
            if i >= width {
                out_of_range();
            }
            i
        };
        match self {
            Node::RfRead(i) => sub(i as usize, 4),
            Node::OperandBus(i) => 4 + sub(i as usize, 4),
            Node::IsExOp { pipe, slot } => 8 + pipe.index() * 2 + sub(slot as usize, 2),
            Node::ShiftBuf => 16,
            Node::AluOut(p) => 17 + p.index(),
            Node::ExWbBuf(p) => 21 + p.index(),
            Node::WbBus(i) => 25 + sub(i as usize, 4),
            Node::Mdr => 29,
            Node::AlignBuf => 30,
            Node::FetchWord(i) => 31 + sub(i as usize, 4),
        }
    }

    /// The node at dense index `index`: the inverse of
    /// [`Node::dense_index`].
    ///
    /// # Panics
    ///
    /// Panics for `index >= Node::COUNT`.
    pub fn from_dense_index(index: usize) -> Node {
        let sub = |base: usize| (index - base) as u8;
        match index {
            0..=3 => Node::RfRead(sub(0)),
            4..=7 => Node::OperandBus(sub(4)),
            8..=15 => Node::IsExOp {
                pipe: Pipe::ALL[(index - 8) / 2],
                slot: sub(8) % 2,
            },
            16 => Node::ShiftBuf,
            17..=20 => Node::AluOut(Pipe::ALL[index - 17]),
            21..=24 => Node::ExWbBuf(Pipe::ALL[index - 21]),
            25..=28 => Node::WbBus(sub(25)),
            29 => Node::Mdr,
            30 => Node::AlignBuf,
            31..=34 => Node::FetchWord(sub(31)),
            _ => panic!("dense index {index} outside the tracked set"),
        }
    }

    /// The coarse component this node belongs to, used for weight lookup
    /// and for grouping in characterization reports (the columns of
    /// Table 2).
    pub fn kind(self) -> NodeKind {
        match self {
            Node::RfRead(_) => NodeKind::RegisterFile,
            Node::OperandBus(_) | Node::IsExOp { .. } => NodeKind::IsExBuffer,
            Node::ShiftBuf => NodeKind::ShiftBuffer,
            Node::AluOut(_) => NodeKind::Alu,
            Node::ExWbBuf(_) | Node::WbBus(_) => NodeKind::ExWbBuffer,
            Node::Mdr => NodeKind::Mdr,
            Node::AlignBuf => NodeKind::AlignBuffer,
            Node::FetchWord(_) => NodeKind::FetchPath,
        }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::RfRead(p) => write!(f, "RF.read{p}"),
            Node::OperandBus(b) => write!(f, "bus{b}"),
            Node::IsExOp { pipe, slot } => write!(f, "IS/EX.{pipe}.op{}", slot + 1),
            Node::ShiftBuf => f.write_str("shift.out"),
            Node::AluOut(p) => write!(f, "{p}.out"),
            Node::ExWbBuf(p) => write!(f, "EX/WB.{p}"),
            Node::WbBus(b) => write!(f, "WB.bus{b}"),
            Node::Mdr => f.write_str("MDR"),
            Node::AlignBuf => f.write_str("align"),
            Node::FetchWord(s) => write!(f, "fetch{s}"),
        }
    }
}

/// Coarse component classes, one per column of the paper's Table 2 (plus
/// the fetch path, an extension).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[repr(u8)]
pub enum NodeKind {
    /// Register-file read ports.
    RegisterFile = 0,
    /// Issue→execute operand buffers and shared operand buses.
    IsExBuffer = 1,
    /// Barrel-shifter output buffer.
    ShiftBuffer = 2,
    /// ALU output signals.
    Alu = 3,
    /// Execute→write-back buffers and write-back buses.
    ExWbBuffer = 4,
    /// Memory data register.
    Mdr = 5,
    /// Sub-word align buffer.
    AlignBuffer = 6,
    /// Instruction-fetch path.
    FetchPath = 7,
}

impl NodeKind {
    /// All kinds, in Table 2 column order.
    pub const ALL: [NodeKind; 8] = [
        NodeKind::RegisterFile,
        NodeKind::IsExBuffer,
        NodeKind::ShiftBuffer,
        NodeKind::Alu,
        NodeKind::ExWbBuffer,
        NodeKind::Mdr,
        NodeKind::AlignBuffer,
        NodeKind::FetchPath,
    ];

    /// Number of kinds.
    pub const COUNT: usize = 8;

    /// Index for array storage.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable label matching the paper's column headers.
    pub fn label(self) -> &'static str {
        match self {
            NodeKind::RegisterFile => "Register File",
            NodeKind::IsExBuffer => "Is/Ex Buffer",
            NodeKind::ShiftBuffer => "Shift Buffer",
            NodeKind::Alu => "ALU",
            NodeKind::ExWbBuffer => "Ex/Wb Buffer",
            NodeKind::Mdr => "MDR",
            NodeKind::AlignBuffer => "Align Buffer",
            NodeKind::FetchPath => "Fetch Path",
        }
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A value transition on a node at a given cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct NodeEvent {
    /// Cycle at which the new value is asserted.
    pub cycle: u64,
    /// The node.
    pub node: Node,
    /// Value previously held (zero for precharged nodes).
    pub before: u32,
    /// Newly asserted value.
    pub after: u32,
}

impl NodeEvent {
    /// Hamming distance of the transition — the paper's primary leakage
    /// quantity.
    pub fn hamming_distance(&self) -> u32 {
        (self.before ^ self.after).count_ones()
    }

    /// Hamming weight of the new value.
    pub fn hamming_weight(&self) -> u32 {
        self.after.count_ones()
    }
}

/// Tracks the current value of every node and emits [`NodeEvent`]s on
/// change.
///
/// Storage is a flat array indexed by [`Node::dense_index`] — this sits
/// on the hottest path of the whole simulator (every pipeline stage
/// asserts nodes every cycle, millions of times per campaign), and the
/// dense index enumerates the node set in exactly the `Ord` order the
/// previous tree-map storage iterated in, so [`NodeState::scramble`]
/// assigns every node the same stale value it always has.
///
/// The state is write-only outside tests: node values reach observers
/// only as the `before` of an event, never the pipeline's architecture
/// or timing. That is what lets two executions that differ only in
/// their scramble seeds share one walk, recomputing just the events
/// whose `before` was stale ([`NodeState::stale_value`]).
#[derive(Clone, Debug)]
pub struct NodeState {
    values: [u32; Node::COUNT],
}

/// The stale value of the node at dense index `ordinal` under scramble
/// `seed`: one SplitMix64 step of the seed and the ordinal.
fn splitmix(seed: u64, ordinal: usize) -> u32 {
    let mut z = seed ^ (ordinal as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as u32
}

impl Default for NodeState {
    fn default() -> NodeState {
        NodeState::new()
    }
}

impl NodeState {
    /// Creates an all-zero node state covering the full node set.
    ///
    /// Every possible node is pre-registered so that [`NodeState::scramble`]
    /// acts on the same set regardless of execution history — cloned CPUs
    /// and long-running CPUs must behave identically.
    pub fn new() -> NodeState {
        NodeState {
            values: [0; Node::COUNT],
        }
    }

    /// Current value of a node (zero if never asserted).
    #[cfg(test)]
    pub(crate) fn value(&self, node: Node) -> u32 {
        self.values[node.dense_index()]
    }

    /// The stale value [`NodeState::scramble`] with `seed` gives `node`.
    pub fn stale_value(seed: u64, node: Node) -> u32 {
        splitmix(seed, node.dense_index())
    }

    /// Asserts `value` on `node`, returning the transition event.
    ///
    /// The event is returned (not swallowed) so the caller can forward it
    /// to observers; identical-value assertions still produce an event
    /// with `before == after` (zero Hamming distance), because downstream
    /// statistics need to know the node was *driven* this cycle.
    #[inline]
    pub fn assert(&mut self, cycle: u64, node: Node, value: u32) -> NodeEvent {
        let slot = &mut self.values[node.dense_index()];
        let before = std::mem::replace(slot, value);
        NodeEvent {
            cycle,
            node,
            before,
            after: value,
        }
    }

    /// Asserts a value on a zero-precharged node: the transition is always
    /// measured from zero, and the stored value returns to zero afterwards
    /// (so the next assertion is again measured from zero).
    #[inline]
    pub fn assert_precharged(&mut self, cycle: u64, node: Node, value: u32) -> NodeEvent {
        self.values[node.dense_index()] = 0;
        NodeEvent {
            cycle,
            node,
            before: 0,
            after: value,
        }
    }

    /// Resets every node to zero (used between independent benchmark
    /// runs).
    pub fn reset(&mut self) {
        self.values = [0; Node::COUNT];
    }

    /// Scrambles every tracked node to a pseudorandom value derived from
    /// `seed` (SplitMix64 per node).
    ///
    /// Real buffers keep whatever the previous execution left in them;
    /// resetting them to zero between measured executions would fabricate
    /// Hamming-weight leakage on every first use of a node — leakage the
    /// paper does not observe. Scrambling models the "unknown stale
    /// value" state while keeping runs deterministic.
    pub fn scramble(&mut self, seed: u64) {
        for (i, value) in self.values.iter_mut().enumerate() {
            *value = splitmix(seed, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_hamming_quantities() {
        let ev = NodeEvent {
            cycle: 0,
            node: Node::Mdr,
            before: 0b1100,
            after: 0b1010,
        };
        assert_eq!(ev.hamming_distance(), 2);
        assert_eq!(ev.hamming_weight(), 2);
    }

    #[test]
    fn node_state_tracks_old_values() {
        let mut state = NodeState::new();
        let ev = state.assert(1, Node::Mdr, 0xff);
        assert_eq!(ev.before, 0);
        assert_eq!(ev.after, 0xff);
        let ev = state.assert(2, Node::Mdr, 0x0f);
        assert_eq!(ev.before, 0xff);
        assert_eq!(ev.hamming_distance(), 4);
        assert_eq!(state.value(Node::Mdr), 0x0f);
    }

    #[test]
    fn precharged_nodes_measure_from_zero() {
        let mut state = NodeState::new();
        let ev = state.assert_precharged(1, Node::AluOut(Pipe::Alu0), 0xf0);
        assert_eq!(ev.hamming_distance(), 4);
        let ev = state.assert_precharged(2, Node::AluOut(Pipe::Alu0), 0xf0);
        assert_eq!(ev.before, 0, "precharge resets between assertions");
        assert_eq!(ev.hamming_distance(), 4);
    }

    #[test]
    fn node_kinds_cover_table2_columns() {
        assert_eq!(Node::RfRead(0).kind(), NodeKind::RegisterFile);
        assert_eq!(Node::OperandBus(1).kind(), NodeKind::IsExBuffer);
        assert_eq!(
            Node::IsExOp {
                pipe: Pipe::Alu0,
                slot: 0
            }
            .kind(),
            NodeKind::IsExBuffer
        );
        assert_eq!(Node::ShiftBuf.kind(), NodeKind::ShiftBuffer);
        assert_eq!(Node::AluOut(Pipe::Alu1).kind(), NodeKind::Alu);
        assert_eq!(Node::ExWbBuf(Pipe::Lsu).kind(), NodeKind::ExWbBuffer);
        assert_eq!(Node::WbBus(0).kind(), NodeKind::ExWbBuffer);
        assert_eq!(Node::Mdr.kind(), NodeKind::Mdr);
        assert_eq!(Node::AlignBuf.kind(), NodeKind::AlignBuffer);
        assert_eq!(Node::FetchWord(0).kind(), NodeKind::FetchPath);
    }

    #[test]
    fn distinct_nodes_do_not_alias() {
        let mut state = NodeState::new();
        state.assert(0, Node::WbBus(0), 1);
        state.assert(0, Node::WbBus(1), 2);
        state.assert(
            0,
            Node::IsExOp {
                pipe: Pipe::Alu0,
                slot: 0,
            },
            3,
        );
        state.assert(
            0,
            Node::IsExOp {
                pipe: Pipe::Alu0,
                slot: 1,
            },
            4,
        );
        assert_eq!(state.value(Node::WbBus(0)), 1);
        assert_eq!(state.value(Node::WbBus(1)), 2);
        assert_eq!(
            state.value(Node::IsExOp {
                pipe: Pipe::Alu0,
                slot: 0
            }),
            3
        );
        assert_eq!(
            state.value(Node::IsExOp {
                pipe: Pipe::Alu0,
                slot: 1
            }),
            4
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut state = NodeState::new();
        state.assert(0, Node::Mdr, 0xdead);
        state.reset();
        assert_eq!(state.value(Node::Mdr), 0);
    }

    /// Every tracked node, in `Ord` order — the enumeration the scramble
    /// streams are keyed by.
    fn all_nodes_in_ord_order() -> Vec<Node> {
        let mut nodes = Vec::new();
        for i in 0..4u8 {
            nodes.push(Node::RfRead(i));
            nodes.push(Node::OperandBus(i));
            nodes.push(Node::WbBus(i));
            nodes.push(Node::FetchWord(i));
        }
        for pipe in Pipe::ALL {
            for slot in 0..2u8 {
                nodes.push(Node::IsExOp { pipe, slot });
            }
            nodes.push(Node::AluOut(pipe));
            nodes.push(Node::ExWbBuf(pipe));
        }
        nodes.push(Node::ShiftBuf);
        nodes.push(Node::Mdr);
        nodes.push(Node::AlignBuf);
        nodes.sort();
        nodes
    }

    /// The dense index must enumerate nodes in exactly the derived-`Ord`
    /// order the old tree-map storage iterated in: the per-node scramble
    /// stream is `SplitMix64(seed, enumeration index)`, and the stale
    /// values it produces are baked into every pinned verdict.
    #[test]
    fn dense_index_matches_ord_enumeration() {
        let nodes = all_nodes_in_ord_order();
        assert_eq!(nodes.len(), Node::COUNT);
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.dense_index(), i, "{node}");
            assert_eq!(Node::from_dense_index(i), *node);
        }
    }

    #[test]
    fn scramble_streams_are_keyed_by_ord_position() {
        let mut state = NodeState::new();
        state.scramble(0xfeed);
        let splitmix = |seed: u64, i: u64| {
            let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u32
        };
        for (i, node) in all_nodes_in_ord_order().into_iter().enumerate() {
            assert_eq!(state.value(node), splitmix(0xfeed, i as u64), "{node}");
            assert_eq!(NodeState::stale_value(0xfeed, node), state.value(node));
        }
    }
}
