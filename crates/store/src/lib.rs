//! Persistent trace corpus for crash-safe, resumable side-channel
//! campaigns.
//!
//! A trace in this workspace is a pure function of `(seed, index)`, so a
//! corpus is worth keeping: re-analyzing under a new leakage model or
//! window should stream stored samples, not resimulate a superscalar
//! pipeline. This crate provides the storage layer the campaign engine
//! builds that on:
//!
//! * [`meta`] — the index header: a [`CorpusKey`] fingerprint of
//!   `(target, seed, noise profile, executions)` plus the analysis
//!   window and page geometry, checksummed and written atomically.
//! * [`page`] — fixed-size page files of quantized samples. Each slot
//!   carries a checksum salted with its `(page, slot)` home, so
//!   validity is per-record: torn writes damage exactly one slot, and
//!   appends are idempotent single-`pwrite`s with no read-modify-write.
//! * [`pool`] — a bounded buffer pool with pin counts and clock
//!   (second-chance) eviction feeding the streaming read path.
//! * [`wal`] — the write-ahead checkpoint log: framed, checksummed
//!   records of `(high-water trace index, serialized sink state)`;
//!   pages are fsynced *before* the claim is logged, torn tails are
//!   skipped on scan and truncated before the next append. A handle
//!   scans its log at most once.
//! * [`store`] — [`TraceStore`], one handle per stored run, tying the
//!   layers together with `append`/`stream`/`checkpoint`/`merge_from`,
//!   plus the fault injection entry points (`append_torn`,
//!   `checkpoint_torn`) the crash-recovery test suite drives. A store
//!   assumes one writer per directory.
//!
//! Page and log headers carry a format version that selects their
//! checksum: FNV-1a in version 1, the files written before version 2
//! existed, and a word-wise XXH64 in version 2, which new files get.
//! Existing files keep their version, so old stores stay readable and
//! appendable.
//!
//! # Determinism contract
//!
//! Because slot encodings are deterministic and traces are functions of
//! `(seed, index)`, rewriting a slot after a crash reproduces identical
//! bytes, and merging partial stores is a plain set union — commutative
//! and order-independent. The campaign layer builds its byte-identical
//! resume/merge verdict guarantees on exactly these two properties.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checksum;
mod error;
pub mod meta;
pub mod page;
pub mod pool;
pub mod store;
pub mod wal;

pub use error::{fnv1a64, fnv1a64_continue, StoreError};
pub use meta::{CorpusKey, StoreMeta, META_FILE};
pub use page::{PageFile, PageGeometry, TraceRecord, PAGE_HEADER_BYTES, TARGET_PAGE_BYTES};
pub use pool::{BufferPool, PinnedPage, PoolStats};
pub use store::{TraceStore, DEFAULT_POOL_FRAMES};
pub use wal::{analysis_tag, CheckpointLog, CheckpointRecord, WAL_FILE};
