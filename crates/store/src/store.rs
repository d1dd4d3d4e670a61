//! The trace store: one directory holding a corpus of quantized traces
//! in checksummed pages, plus the checkpoint log that makes campaigns
//! over it crash-safe.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::error::StoreError;
use crate::meta::{StoreMeta, META_FILE};
use crate::page::{PageFile, PageGeometry, TraceRecord};
use crate::pool::BufferPool;
use crate::wal::{CheckpointLog, CheckpointRecord};

/// Default number of page buffers the read path keeps resident.
pub const DEFAULT_POOL_FRAMES: usize = 64;

/// The page geometry a header describes.
fn geometry(meta: &StoreMeta) -> Result<PageGeometry, StoreError> {
    let size = |field: u64| {
        usize::try_from(field).map_err(|_| StoreError::Geometry {
            what: format!("{field} does not fit this platform's sizes"),
        })
    };
    PageGeometry::new(size(meta.input_len)?, size(meta.samples)?)
}

/// A persistent, crash-safe corpus of power traces.
///
/// Appends are per-slot `pwrite`s (idempotent — rewriting a trace
/// produces identical bytes), reads go through a pinning [`BufferPool`],
/// and [`checkpoint`](TraceStore::checkpoint) syncs the pages written
/// since the last sync before logging the claim, so a checkpoint's
/// `high_water` never overstates what is durable. One handle carries a
/// stored run: it reads its checkpoint log at most once
/// ([`CheckpointLog`]), and only appends and checkpoints write to the
/// directory.
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    meta: StoreMeta,
    geom: PageGeometry,
    pool: BufferPool,
    writers: Mutex<HashMap<u64, Arc<PageFile>>>,
    wal: Mutex<CheckpointLog>,
}

impl TraceStore {
    /// Creates a store directory for a new corpus, writing its header.
    /// The directory may exist but must not already hold a store.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Geometry`] for impossible record shapes and
    /// propagates I/O errors.
    pub fn create(dir: &Path, meta: StoreMeta) -> Result<TraceStore, StoreError> {
        let geom = geometry(&meta)?;
        fs::create_dir_all(dir)?;
        let mut meta = meta;
        meta.page_capacity = geom.capacity() as u64;
        meta.save(dir)?;
        Ok(TraceStore::assemble(dir, meta, geom))
    }

    /// Opens an existing store, whatever its fingerprint (the caller
    /// inspects [`meta`](TraceStore::meta) — used by merge/re-analysis).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] on a damaged header, `Io` when
    /// absent, `Geometry` if the header describes an impossible layout.
    pub fn open_any(dir: &Path) -> Result<TraceStore, StoreError> {
        let meta = StoreMeta::load(dir)?;
        let geom = geometry(&meta)?;
        if meta.page_capacity != geom.capacity() as u64 {
            return Err(StoreError::Geometry {
                what: format!(
                    "header page capacity {} does not match derived {}",
                    meta.page_capacity,
                    geom.capacity()
                ),
            });
        }
        Ok(TraceStore::assemble(dir, meta, geom))
    }

    /// Opens the store in `dir` as [`open_any`](Self::open_any) does,
    /// or returns `None` when `dir` holds no store header.
    ///
    /// # Errors
    ///
    /// As [`open_any`](Self::open_any).
    pub fn open_if_exists(dir: &Path) -> Result<Option<TraceStore>, StoreError> {
        if !dir.join(META_FILE).exists() {
            return Ok(None);
        }
        TraceStore::open_any(dir).map(Some)
    }

    fn assemble(dir: &Path, meta: StoreMeta, geom: PageGeometry) -> TraceStore {
        TraceStore {
            dir: dir.to_path_buf(),
            meta,
            geom,
            pool: BufferPool::new(DEFAULT_POOL_FRAMES),
            writers: Mutex::new(HashMap::new()),
            wal: Mutex::new(CheckpointLog::new(dir)),
        }
    }

    /// The store's header.
    #[must_use]
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// The store's record layout.
    #[must_use]
    pub fn geometry(&self) -> PageGeometry {
        self.geom
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn writer(&self, page_index: u64) -> Result<Arc<PageFile>, StoreError> {
        let mut writers = self.writers.lock().expect("writers lock");
        if let Some(page) = writers.get(&page_index) {
            return Ok(Arc::clone(page));
        }
        let page = Arc::new(PageFile::open_or_create(&self.dir, self.geom, page_index)?);
        writers.insert(page_index, Arc::clone(&page));
        Ok(page)
    }

    fn check_shape(&self, index: u64, input: &[u8], trace: &[f32]) -> Result<(), StoreError> {
        if input.len() != self.geom.input_len() || trace.len() != self.geom.samples() {
            return Err(StoreError::Geometry {
                what: format!(
                    "append of {} input bytes x {} samples into a {} x {} store",
                    input.len(),
                    trace.len(),
                    self.geom.input_len(),
                    self.geom.samples()
                ),
            });
        }
        self.check_index(index)
    }

    /// Refuses an index past the declared corpus.
    fn check_index(&self, index: u64) -> Result<(), StoreError> {
        let total = self.meta.total_traces;
        if index >= total {
            return Err(StoreError::Geometry {
                what: format!("trace index {index} out of range (store holds {total})"),
            });
        }
        Ok(())
    }

    /// Writes trace `index`. Safe to call from several shard workers at
    /// once, and idempotent for a fixed `(seed, index)` trace.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Geometry`] on shape mismatch and propagates
    /// I/O errors.
    pub fn append(&self, index: u64, input: &[u8], trace: &[f32]) -> Result<(), StoreError> {
        self.check_shape(index, input, trace)?;
        let page_index = self.geom.page_of(index);
        self.writer(page_index)?
            .write_slot(self.geom.slot_of(index), input, trace)?;
        self.pool.invalidate(page_index);
        sca_telemetry::counter!("store/slots_written").inc();
        Ok(())
    }

    /// Fault injection: writes only a prefix of trace `index`'s record,
    /// simulating a crash mid-write.
    ///
    /// # Errors
    ///
    /// As [`append`](Self::append).
    pub fn append_torn(
        &self,
        index: u64,
        input: &[u8],
        trace: &[f32],
        keep_bytes: usize,
    ) -> Result<(), StoreError> {
        self.check_shape(index, input, trace)?;
        let page_index = self.geom.page_of(index);
        self.writer(page_index)?.write_slot_torn(
            self.geom.slot_of(index),
            input,
            trace,
            keep_bytes,
        )?;
        self.pool.invalidate(page_index);
        Ok(())
    }

    /// Flushes every page written through this handle since its last
    /// sync to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn sync_pages(&self) -> Result<(), StoreError> {
        let writers = self.writers.lock().expect("writers lock");
        for page in writers.values() {
            page.sync()?;
        }
        Ok(())
    }

    /// Durably records that traces `0..high_water` are on disk and
    /// folded into the serialized sink `state`: pages are synced first,
    /// then the claim is appended to the log.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and a damaged log header.
    pub fn checkpoint(
        &self,
        high_water: u64,
        analysis_tag: u64,
        state: Vec<u8>,
    ) -> Result<(), StoreError> {
        self.sync_pages()?;
        sca_telemetry::counter!("store/checkpoint_bytes").add(state.len() as u64);
        self.wal
            .lock()
            .expect("wal lock")
            .append(&CheckpointRecord {
                high_water,
                analysis_tag,
                state,
            })
    }

    /// Fault injection: like [`checkpoint`](Self::checkpoint) but tears
    /// the log record after `keep_bytes` bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn checkpoint_torn(
        &self,
        high_water: u64,
        analysis_tag: u64,
        state: Vec<u8>,
        keep_bytes: usize,
    ) -> Result<(), StoreError> {
        self.sync_pages()?;
        let record = CheckpointRecord {
            high_water,
            analysis_tag,
            state,
        };
        self.wal
            .lock()
            .expect("wal lock")
            .append_torn(&record, keep_bytes)
    }

    /// The most recent valid checkpoint for `analysis_tag`, if any: the
    /// handle's first log read scans the whole log, later ones read
    /// and verify only the record returned ([`CheckpointLog::last`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from the log.
    pub fn last_checkpoint(
        &self,
        analysis_tag: u64,
    ) -> Result<Option<CheckpointRecord>, StoreError> {
        self.wal.lock().expect("wal lock").last(analysis_tag)
    }

    /// Reads trace `index`, or `None` when its slot has never been
    /// (fully) written.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Geometry`] for out-of-range indices and
    /// propagates I/O errors; a missing page file reads as `None`.
    pub fn read_trace(&self, index: u64) -> Result<Option<TraceRecord>, StoreError> {
        self.check_index(index)?;
        let page_index = self.geom.page_of(index);
        let page = match self.fetch_page(page_index) {
            Ok(page) => page,
            // Only a pool miss reaches the disk: a page file that was
            // never created holds no traces.
            Err(_) if !PageFile::path(&self.dir, page_index).exists() => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(self
            .geom
            .decode_slot(page_index, self.geom.slot_of(index), &page))
    }

    fn fetch_page(&self, page_index: u64) -> Result<crate::pool::PinnedPage<'_>, StoreError> {
        self.pool.fetch(page_index, || {
            PageFile::open_existing(&self.dir, self.geom, page_index)?.read_page()
        })
    }

    /// Visits every valid declared trace in index order. The work is
    /// bounded by the page files on disk, not by the header's count.
    fn for_each_valid(
        &self,
        mut visit: impl FnMut(u64, TraceRecord) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let mut pages = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            pages.extend(name.to_str().and_then(PageGeometry::page_of_file));
        }
        pages.sort_unstable();
        let (capacity, total) = (self.geom.capacity() as u64, self.meta.total_traces);
        for page_index in pages {
            let Some(first) = page_index.checked_mul(capacity).filter(|&f| f < total) else {
                break;
            };
            let page = self.fetch_page(page_index)?;
            for (slot, index) in (first..total).take(self.geom.capacity()).enumerate() {
                if let Some(record) = self.geom.decode_slot(page_index, slot, &page) {
                    visit(index, record)?;
                }
            }
        }
        Ok(())
    }

    /// How many of the declared traces are durably present.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and damaged page headers.
    pub fn valid_count(&self) -> Result<u64, StoreError> {
        let mut count = 0;
        self.for_each_valid(|_, _| {
            count += 1;
            Ok(())
        })?;
        Ok(count)
    }

    /// Whether every declared trace is present.
    ///
    /// # Errors
    ///
    /// As [`valid_count`](Self::valid_count).
    pub fn is_complete(&self) -> Result<bool, StoreError> {
        Ok(self.valid_count()? == self.meta.total_traces)
    }

    /// Streams traces `range` in strictly increasing index order through
    /// `visit(index, input, samples)` — the re-analysis hot path. Page
    /// buffers come from the pool, so repeated streams of a small corpus
    /// do no repeat I/O.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Incomplete`] at the first missing trace,
    /// [`StoreError::Geometry`] at an index past the declared corpus, and
    /// propagates I/O errors and `visit` failures.
    pub fn stream<E: From<StoreError>>(
        &self,
        range: std::ops::Range<u64>,
        mut visit: impl FnMut(u64, &[u8], &[f32]) -> Result<(), E>,
    ) -> Result<(), E> {
        let total = self.meta.total_traces;
        for index in range {
            let (input, trace) = self.read_trace(index)?.ok_or(StoreError::Incomplete {
                missing: index,
                total,
            })?;
            visit(index, &input, &trace)?;
        }
        Ok(())
    }

    /// Copies every valid trace of `other` into this store. Both must
    /// describe the identical corpus; because slot writes are idempotent
    /// encodings of identical traces, merging is a plain set union —
    /// commutative and order-independent by construction.
    ///
    /// Returns how many traces were copied.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::FingerprintMismatch`] naming the first
    /// field where `other` differs ([`StoreMeta::check_corpus`]), and
    /// propagates I/O errors.
    pub fn merge_from(&self, other: &TraceStore) -> Result<u64, StoreError> {
        self.meta.check_corpus(&other.meta)?;
        let mut copied = 0u64;
        other.for_each_valid(|index, (input, trace)| {
            copied += 1;
            self.append(index, &input, &trace)
        })?;
        self.sync_pages()?;
        Ok(copied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::CorpusKey;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta(total: u64) -> StoreMeta {
        StoreMeta {
            key: CorpusKey {
                label: "unit".to_owned(),
                seed: 7,
                noise_sd_bits: 0.5f64.to_bits(),
                noise_baseline_bits: 1.0f64.to_bits(),
                executions_per_trace: 2,
            },
            window_start: 0,
            samples: 9,
            window_cycles: 9,
            total_traces: total,
            input_len: 4,
            page_capacity: 0, // filled in by create()
        }
    }

    fn trace_for(index: u64) -> (Vec<u8>, Vec<f32>) {
        let input = (index as u32).to_le_bytes().to_vec();
        let trace = (0..9).map(|s| (index * 100 + s) as f32 * 0.5).collect();
        (input, trace)
    }

    fn fill(store: &TraceStore, range: std::ops::Range<u64>) {
        for index in range {
            let (input, trace) = trace_for(index);
            store.append(index, &input, &trace).unwrap();
        }
    }

    #[test]
    fn append_stream_and_coverage_agree() {
        let dir = scratch("sca_store_store_basic");
        let store = TraceStore::create(&dir, meta(10)).unwrap();
        fill(&store, 0..6);
        assert_eq!(store.valid_count().unwrap(), 6);
        assert!(!store.is_complete().unwrap());
        let mut seen = Vec::new();
        store
            .stream::<StoreError>(0..6, |index, input, trace| {
                let (want_input, want_trace) = trace_for(index);
                assert_eq!(input, &want_input[..]);
                assert_eq!(trace, &want_trace[..]);
                seen.push(index);
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, (0..6).collect::<Vec<_>>());
        // Streaming past the filled prefix names the first hole.
        let err = store
            .stream::<StoreError>(0..10, |_, _, _| Ok(()))
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::Incomplete {
                missing: 6,
                total: 10
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_checks_the_fingerprint() {
        let dir = scratch("sca_store_store_fp");
        drop(TraceStore::create(&dir, meta(10)).unwrap());
        let reopen = |expected: &StoreMeta| {
            let store = TraceStore::open_if_exists(&dir).unwrap().unwrap();
            expected.check_corpus(store.meta())
        };
        assert!(reopen(&meta(10)).is_ok());
        let mut other = meta(10);
        other.key.seed ^= 1;
        assert!(matches!(
            reopen(&other),
            Err(StoreError::FingerprintMismatch { .. })
        ));
        let mut resized = meta(11);
        resized.page_capacity = 0;
        assert!(matches!(
            reopen(&resized),
            Err(StoreError::FingerprintMismatch { .. })
        ));
        assert!(TraceStore::open_if_exists(&dir.join("absent"))
            .unwrap()
            .is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_round_trip_per_analysis() {
        let dir = scratch("sca_store_store_ckpt");
        let store = TraceStore::create(&dir, meta(10)).unwrap();
        fill(&store, 0..4);
        store.checkpoint(4, 11, vec![1, 2, 3]).unwrap();
        store.checkpoint(4, 22, vec![9]).unwrap();
        fill(&store, 4..8);
        store.checkpoint(8, 11, vec![4, 5]).unwrap();
        let ck = store.last_checkpoint(11).unwrap().unwrap();
        assert_eq!((ck.high_water, ck.state), (8, vec![4, 5]));
        let ck = store.last_checkpoint(22).unwrap().unwrap();
        assert_eq!((ck.high_water, ck.state), (4, vec![9]));
        assert_eq!(store.last_checkpoint(33).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_is_a_union_and_order_independent() {
        let dir_a = scratch("sca_store_store_merge_a");
        let dir_b = scratch("sca_store_store_merge_b");
        let dir_c = scratch("sca_store_store_merge_c");
        let a = TraceStore::create(&dir_a, meta(10)).unwrap();
        let b = TraceStore::create(&dir_b, meta(10)).unwrap();
        fill(&a, 0..5);
        fill(&b, 3..10); // overlap on 3..5 writes identical bytes
        let c = TraceStore::create(&dir_c, meta(10)).unwrap();
        assert_eq!(c.merge_from(&b).unwrap(), 7);
        assert_eq!(c.merge_from(&a).unwrap(), 5);
        assert!(c.is_complete().unwrap());
        c.stream::<StoreError>(0..10, |index, input, trace| {
            let (want_input, want_trace) = trace_for(index);
            assert_eq!((input, trace), (&want_input[..], &want_trace[..]));
            Ok(())
        })
        .unwrap();
        for dir in [&dir_a, &dir_b, &dir_c] {
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn merge_refuses_foreign_corpora() {
        let dir_a = scratch("sca_store_store_merge_fa");
        let dir_b = scratch("sca_store_store_merge_fb");
        let a = TraceStore::create(&dir_a, meta(10)).unwrap();
        let mut foreign = meta(10);
        foreign.key.label = "other".to_owned();
        let b = TraceStore::create(&dir_b, foreign).unwrap();
        assert!(matches!(
            a.merge_from(&b),
            Err(StoreError::FingerprintMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn torn_append_reads_as_missing_until_rewritten() {
        let dir = scratch("sca_store_store_torn");
        let store = TraceStore::create(&dir, meta(10)).unwrap();
        let (input, trace) = trace_for(2);
        store.append_torn(2, &input, &trace, 5).unwrap();
        assert_eq!(store.read_trace(2).unwrap(), None);
        store.append(2, &input, &trace).unwrap();
        assert_eq!(store.read_trace(2).unwrap(), Some((input, trace)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_hostile_trace_count_costs_only_the_pages_on_disk() {
        let dir = scratch("sca_store_store_hostile");
        let merged_dir = scratch("sca_store_store_hostile_merged");
        let store = TraceStore::create(&dir, meta(u64::MAX)).unwrap();
        assert_eq!(store.valid_count().unwrap(), 0);
        assert!(!store.is_complete().unwrap());
        fill(&store, 0..3);
        let reopened = TraceStore::open_any(&dir).unwrap();
        assert_eq!(reopened.valid_count().unwrap(), 3);
        assert!(!reopened.is_complete().unwrap());
        let merged = TraceStore::create(&merged_dir, meta(u64::MAX)).unwrap();
        assert_eq!(merged.merge_from(&reopened).unwrap(), 3);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&merged_dir);
    }

    #[test]
    fn impossible_geometry_on_disk_is_a_typed_error() {
        let dir = scratch("sca_store_store_geometry");
        fs::create_dir_all(&dir).unwrap();
        let mut header = meta(10);
        header.samples = u64::MAX / 2;
        header.page_capacity = 1;
        header.save(&dir).unwrap();
        assert!(matches!(
            TraceStore::open_any(&dir),
            Err(StoreError::Geometry { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shape_violations_are_rejected() {
        let dir = scratch("sca_store_store_shape");
        let store = TraceStore::create(&dir, meta(4)).unwrap();
        let (input, trace) = trace_for(0);
        assert!(matches!(
            store.append(0, &input[..2], &trace),
            Err(StoreError::Geometry { .. })
        ));
        assert!(matches!(
            store.append(4, &input, &trace),
            Err(StoreError::Geometry { .. })
        ));
        assert!(matches!(
            store.read_trace(4),
            Err(StoreError::Geometry { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
