//! Multi-tenant campaign service: leakage assessment as a long-running
//! server.
//!
//! The ROADMAP's "millions of users" shape is a CI fleet submitting
//! every firmware build for automatic side-channel evaluation. This
//! crate turns the one-shot experiment binaries into that service:
//!
//! * [`spec`] — [`CampaignSpec`]: target × analysis × trace budget ×
//!   seed × noise, fingerprinted over exactly the verdict-determining
//!   fields so identical requests are *provably* the same work.
//! * [`sched`] — [`FairScheduler`]: bounded submission queue and
//!   weighted deficit round-robin over tenants at job-slice
//!   granularity, with a deterministic emission order (a pure function
//!   of arrival order and weights, independent of worker count).
//! * [`job`] — [`JobRunner`]: a slice resumes the spec's stored
//!   campaign from its last checkpoint, simulates a bounded number of
//!   new traces, and reports the partial verdict; the store's
//!   checkpoint WAL is the only state between slices.
//! * [`server`] — [`CampaignServer`]: worker pool, fingerprint-keyed
//!   dedup (concurrent identical submissions coalesce onto one
//!   simulation; resubmissions of finished specs are served from the
//!   store with zero simulation), and per-subscriber event streams of
//!   incremental verdicts ending in a final line byte-identical to the
//!   one-shot `portfolio` binary's.
//! * [`wire`] — the strict `key=value` line protocol shared by the
//!   socket front end (`sca-bench`'s `serve`/`submit`) and the harness.
//! * [`harness`] — [`ServerHarness`]: a real server with a paused
//!   dispatcher, scripted client sessions and a [`VirtualClock`], so
//!   every concurrency property above is asserted on byte-exact
//!   transcripts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod error;
pub mod harness;
pub mod job;
pub mod sched;
pub mod server;
pub mod spec;
pub mod wire;

pub use clock::{Clock, VirtualClock, WallClock};
pub use error::ServerError;
pub use harness::{ServerHarness, SessionId};
pub use job::{JobRunner, SliceOutcome, SliceVerdict};
pub use sched::{FairScheduler, JobId, SchedConfig};
pub use server::{
    CampaignServer, Disclosure, Event, ProgressDetail, ProgressSnapshot, ServerConfig, ServerStats,
};
pub use spec::{AnalysisSel, CampaignSpec, MAX_SPEC_EXECUTIONS, MAX_SPEC_TRACES};
pub use wire::{
    final_verdict, format_event, format_stats, parse_request, read_line, LineError, Request,
    MAX_LINE,
};
