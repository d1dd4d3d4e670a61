//! # sca-uarch — cycle-level superscalar CPU simulator
//!
//! A Cortex-A7-like, in-order, partial dual-issue CPU model built for
//! *side-channel* evaluation rather than performance studies: alongside
//! architectural execution it tracks every pipeline buffer the paper
//! identifies as a leakage source (IS/EX operand buffers, shared operand
//! buses, ALU and shifter outputs, EX/WB buffers, write-back buses, MDR,
//! sub-word align buffer) and streams their value transitions to
//! [`PipelineObserver`]s.
//!
//! The microarchitecture follows Figure 2 of Barenghi & Pelosi (DAC 2018):
//! dual fetch with a prefetch buffer, three register-file read ports and
//! two write ports, two asymmetric ALUs (only pipe 0 has the barrel
//! shifter and the pipelined multiplier), a three-stage pipelined LSU with
//! address generation in the issue stage, and the measured Table 1 pairing
//! policy ([`DualIssuePolicy::cortex_a7`]).
//!
//! ```
//! use sca_isa::assemble;
//! use sca_uarch::{Cpu, RecordingObserver, UarchConfig, Node};
//!
//! let program = assemble("
//!     mov r0, #0xff
//!     mov r1, r0
//!     halt
//! ")?;
//! let mut cpu = Cpu::new(UarchConfig::cortex_a7());
//! cpu.load(&program)?;
//! let mut observer = RecordingObserver::new();
//! cpu.run(&mut observer)?;
//! // The register mov drove its operand onto shared bus 0.
//! assert!(!observer.events_on(Node::OperandBus(0)).is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block;
mod cache;
mod config;
mod cpu;
mod error;
mod mem;
mod nodes;
mod observer;
mod pipeline;
mod policy;
mod stats;

pub use block::{BlockObserver, CpuBlock, Divergence, LaneSim, SharedWalk, MAX_LANES};
pub use cache::{Cache, CacheAccess, CacheCounts, CacheHierarchy};
pub use config::{CacheConfig, UarchConfig};
pub use cpu::Cpu;
pub use error::UarchError;
pub use mem::Memory;
pub use nodes::{Node, NodeEvent, NodeKind, NodeState, Pipe};
pub use observer::{NullObserver, PipelineObserver, RecordingObserver};
pub use policy::DualIssuePolicy;
pub use stats::{ExecStats, StallCause};
