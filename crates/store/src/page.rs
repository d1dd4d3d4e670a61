//! Fixed-size trace pages with per-slot checksums.
//!
//! A page file holds `capacity` trace records at fixed offsets after a
//! small header. Each record carries its own FNV-1a checksum salted with
//! `(page_index, slot)`, so validity is decided **per slot**: a torn
//! write corrupts exactly the slot it tore, appends are idempotent
//! single-`pwrite` operations (no read-modify-write), and a resumed
//! campaign can rewrite slots at or above the checkpoint high-water mark
//! without first repairing the rest of the page.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::error::{fnv1a64_continue, StoreError};

/// Target page size the capacity is derived from. Pages hold at least
/// one record even when a record exceeds this.
pub const TARGET_PAGE_BYTES: usize = 32 * 1024;

/// Bytes of page header before the first slot.
pub const PAGE_HEADER_BYTES: usize = 16;

/// A decoded trace record: the campaign input bytes and the windowed
/// power samples, exactly as appended.
pub type TraceRecord = (Vec<u8>, Vec<f32>);

const PAGE_MAGIC: &[u8; 4] = b"SCPG";
const PAGE_VERSION: u32 = 1;

/// Salt every slot checksum starts from, binding a record to its exact
/// `(page, slot)` location so a misplaced-but-intact record never
/// validates.
fn slot_salt(page_index: u64, slot: usize) -> u64 {
    let mut hash = fnv1a64_continue(0xcbf2_9ce4_8422_2325, &page_index.to_le_bytes());
    hash = fnv1a64_continue(hash, &(slot as u64).to_le_bytes());
    hash
}

/// The store's record layout: how traces map onto pages and slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageGeometry {
    /// Campaign input bytes per trace.
    pub input_len: usize,
    /// Samples per trace (each stored as an `f32` bit pattern).
    pub samples: usize,
    /// Records per page.
    pub capacity: usize,
}

impl PageGeometry {
    /// Derives the geometry for a record shape, sizing pages near
    /// [`TARGET_PAGE_BYTES`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Geometry`] when `samples` is zero.
    pub fn new(input_len: usize, samples: usize) -> Result<PageGeometry, StoreError> {
        if samples == 0 {
            return Err(StoreError::Geometry {
                what: "a trace must have at least one sample".to_owned(),
            });
        }
        let record = input_len + 4 * samples + 8;
        Ok(PageGeometry {
            input_len,
            samples,
            capacity: (TARGET_PAGE_BYTES / record).max(1),
        })
    }

    /// Bytes per record: input, samples as `f32` LE, slot checksum.
    #[must_use]
    pub fn record_bytes(&self) -> usize {
        self.input_len + 4 * self.samples + 8
    }

    /// Total bytes of one page file.
    #[must_use]
    pub fn page_bytes(&self) -> usize {
        PAGE_HEADER_BYTES + self.capacity * self.record_bytes()
    }

    /// Page holding trace `index`.
    #[must_use]
    pub fn page_of(&self, index: u64) -> u64 {
        index / self.capacity as u64
    }

    /// Slot of trace `index` within its page.
    #[must_use]
    pub fn slot_of(&self, index: u64) -> usize {
        (index % self.capacity as u64) as usize
    }

    /// Byte offset of `slot` within the page.
    #[must_use]
    pub fn slot_offset(&self, slot: usize) -> usize {
        PAGE_HEADER_BYTES + slot * self.record_bytes()
    }

    /// Encodes one record: input bytes, sample bit patterns, then the
    /// salted slot checksum over everything before it.
    #[must_use]
    pub fn encode_slot(
        &self,
        page_index: u64,
        slot: usize,
        input: &[u8],
        trace: &[f32],
    ) -> Vec<u8> {
        debug_assert_eq!(input.len(), self.input_len);
        debug_assert_eq!(trace.len(), self.samples);
        let mut out = Vec::with_capacity(self.record_bytes());
        out.extend_from_slice(input);
        for &sample in trace {
            out.extend_from_slice(&sample.to_bits().to_le_bytes());
        }
        let checksum = fnv1a64_continue(slot_salt(page_index, slot), &out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes the record in `slot` from a whole-page buffer, or `None`
    /// when the slot checksum does not validate (never written, or torn).
    #[must_use]
    pub fn decode_slot(&self, page_index: u64, slot: usize, page: &[u8]) -> Option<TraceRecord> {
        let start = self.slot_offset(slot);
        let end = start + self.record_bytes();
        if end > page.len() {
            return None;
        }
        let record = &page[start..end];
        let payload = &record[..record.len() - 8];
        let stored = u64::from_le_bytes(record[record.len() - 8..].try_into().expect("8 bytes"));
        if fnv1a64_continue(slot_salt(page_index, slot), payload) != stored {
            return None;
        }
        let input = payload[..self.input_len].to_vec();
        let trace = payload[self.input_len..]
            .chunks_exact(4)
            .map(|b| f32::from_bits(u32::from_le_bytes(b.try_into().expect("4 bytes"))))
            .collect();
        Some((input, trace))
    }

    /// File name of a page inside a store directory.
    #[must_use]
    pub fn file_name(page_index: u64) -> String {
        format!("page-{page_index:08}.scp")
    }
}

/// One open page file; slot writes are positioned (`pwrite`) and need
/// only `&self`, so shard workers can append through a shared handle.
#[derive(Debug)]
pub struct PageFile {
    file: File,
    page_index: u64,
    geom: PageGeometry,
    /// Written since the last [`PageFile::sync`]: set by every write,
    /// cleared by the sync that covers it.
    dirty: AtomicBool,
}

impl PageFile {
    /// Path of page `page_index` under `dir`.
    #[must_use]
    pub fn path(dir: &Path, page_index: u64) -> PathBuf {
        dir.join(PageGeometry::file_name(page_index))
    }

    /// Opens page `page_index` for writing, creating (and sizing) the
    /// file when absent. A damaged header — e.g. a crash tore the very
    /// creation of this page — is rewritten; slot checksums, not the
    /// header, decide record validity.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn open_or_create(
        dir: &Path,
        geom: PageGeometry,
        page_index: u64,
    ) -> Result<PageFile, StoreError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(PageFile::path(dir, page_index))?;
        let expected = geom.page_bytes() as u64;
        if file.metadata()?.len() != expected {
            file.set_len(expected)?;
        }
        let mut header = [0u8; PAGE_HEADER_BYTES];
        let valid_header = file.read_exact_at(&mut header, 0).is_ok()
            && PageFile::check_header(&header, page_index).is_ok();
        if !valid_header {
            file.write_all_at(&PageFile::header_bytes(page_index), 0)?;
        }
        // Sizing or repairing the file counts as a write.
        Ok(PageFile {
            file,
            page_index,
            geom,
            dirty: AtomicBool::new(true),
        })
    }

    /// Opens an existing page read-only, validating the header.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] on a bad header and propagates
    /// I/O errors (including `NotFound` when the page was never written).
    pub fn open_existing(
        dir: &Path,
        geom: PageGeometry,
        page_index: u64,
    ) -> Result<PageFile, StoreError> {
        let file = File::open(PageFile::path(dir, page_index))?;
        let mut header = [0u8; PAGE_HEADER_BYTES];
        file.read_exact_at(&mut header, 0)
            .map_err(StoreError::from)?;
        PageFile::check_header(&header, page_index)?;
        Ok(PageFile {
            file,
            page_index,
            geom,
            dirty: AtomicBool::new(false),
        })
    }

    fn header_bytes(page_index: u64) -> [u8; PAGE_HEADER_BYTES] {
        let mut header = [0u8; PAGE_HEADER_BYTES];
        header[..4].copy_from_slice(PAGE_MAGIC);
        header[4..8].copy_from_slice(&PAGE_VERSION.to_le_bytes());
        header[8..16].copy_from_slice(&page_index.to_le_bytes());
        header
    }

    fn check_header(header: &[u8; PAGE_HEADER_BYTES], page_index: u64) -> Result<(), StoreError> {
        let corrupt = |what: String| StoreError::Corrupt { file: "page", what };
        if &header[..4] != PAGE_MAGIC {
            return Err(corrupt("bad magic".to_owned()));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != PAGE_VERSION {
            return Err(corrupt(format!("unsupported version {version}")));
        }
        let stored = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        if stored != page_index {
            return Err(corrupt(format!(
                "page index {stored} does not match file name ({page_index})"
            )));
        }
        Ok(())
    }

    /// Writes one record into `slot`. Idempotent: rewriting a slot with
    /// the same trace produces identical bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_slot(&self, slot: usize, input: &[u8], trace: &[f32]) -> Result<(), StoreError> {
        let record = self.geom.encode_slot(self.page_index, slot, input, trace);
        self.file
            .write_all_at(&record, self.geom.slot_offset(slot) as u64)?;
        self.dirty.store(true, Ordering::Release);
        Ok(())
    }

    /// Fault injection: writes only the first `keep_bytes` of the
    /// record, simulating a crash mid-`pwrite` (a half-written slot).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_slot_torn(
        &self,
        slot: usize,
        input: &[u8],
        trace: &[f32],
        keep_bytes: usize,
    ) -> Result<(), StoreError> {
        let record = self.geom.encode_slot(self.page_index, slot, input, trace);
        let keep = keep_bytes.min(record.len());
        self.file
            .write_all_at(&record[..keep], self.geom.slot_offset(slot) as u64)?;
        self.dirty.store(true, Ordering::Release);
        Ok(())
    }

    /// Reads the whole page into memory (for the buffer pool).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn read_page(&self) -> Result<Vec<u8>, StoreError> {
        let mut buf = vec![0u8; self.geom.page_bytes()];
        self.file.read_exact_at(&mut buf, 0)?;
        Ok(buf)
    }

    /// Flushes the page's writes since its last sync to stable storage
    /// (called before a checkpoint record may claim its traces are
    /// durable). A page not written since is not synced again.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the page then stays due for a sync.
    pub fn sync(&self) -> Result<(), StoreError> {
        // Cleared before the flush: a write racing it sets the flag
        // again, and the next sync covers it.
        if !self.dirty.swap(false, Ordering::AcqRel) {
            return Ok(());
        }
        if let Err(e) = self.file.sync_all() {
            self.dirty.store(true, Ordering::Release);
            return Err(e.into());
        }
        sca_telemetry::counter!("store/fsyncs").inc();
        Ok(())
    }

    /// This page's index.
    #[must_use]
    pub fn page_index(&self) -> u64 {
        self.page_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(i: u32) -> (Vec<u8>, Vec<f32>) {
        let input = vec![i as u8, (i >> 8) as u8, 0xab, 0xcd];
        let trace: Vec<f32> = (0..7).map(|s| (i * 10 + s) as f32 * 0.25).collect();
        (input, trace)
    }

    #[test]
    fn slots_round_trip_and_unwritten_slots_read_none() {
        let dir = scratch("sca_store_page_rt");
        let geom = PageGeometry::new(4, 7).unwrap();
        let page = PageFile::open_or_create(&dir, geom, 3).unwrap();
        let (input, trace) = record(42);
        page.write_slot(2, &input, &trace).unwrap();
        let buf = page.read_page().unwrap();
        assert_eq!(geom.decode_slot(3, 2, &buf), Some((input, trace)));
        assert_eq!(geom.decode_slot(3, 0, &buf), None);
        assert_eq!(geom.decode_slot(3, 1, &buf), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_slot_fails_checksum_and_rewrite_is_idempotent() {
        let dir = scratch("sca_store_page_torn");
        let geom = PageGeometry::new(4, 7).unwrap();
        let page = PageFile::open_or_create(&dir, geom, 0).unwrap();
        let (input, trace) = record(7);
        // The crash tears the slot's very first write: only a prefix
        // lands, so the checksum (at the record's tail) never does.
        page.write_slot_torn(1, &input, &trace, geom.record_bytes() / 2)
            .unwrap();
        let buf = page.read_page().unwrap();
        assert_eq!(
            geom.decode_slot(0, 1, &buf),
            None,
            "torn slot must not validate"
        );
        // Resume rewrites the slot and it validates...
        page.write_slot(1, &input, &trace).unwrap();
        let clean = page.read_page().unwrap();
        assert!(geom.decode_slot(0, 1, &clean).is_some());
        // ...and rewriting again is byte-idempotent.
        page.write_slot(1, &input, &trace).unwrap();
        assert_eq!(page.read_page().unwrap(), clean);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_binds_record_to_its_location() {
        let geom = PageGeometry::new(4, 7).unwrap();
        let (input, trace) = record(3);
        let rec = geom.encode_slot(5, 2, &input, &trace);
        let mut page = vec![0u8; geom.page_bytes()];
        // Plant the slot-2 record into slot 0: intact bytes, wrong home.
        let at = geom.slot_offset(0);
        page[at..at + rec.len()].copy_from_slice(&rec);
        assert_eq!(geom.decode_slot(5, 0, &page), None);
        let at2 = geom.slot_offset(2);
        page[at2..at2 + rec.len()].copy_from_slice(&rec);
        assert!(geom.decode_slot(5, 2, &page).is_some());
        assert_eq!(geom.decode_slot(6, 2, &page), None, "wrong page index");
    }

    #[test]
    fn geometry_targets_32k_pages_and_holds_at_least_one_record() {
        let geom = PageGeometry::new(16, 300).unwrap();
        assert!(geom.capacity >= 1);
        assert!(geom.page_bytes() <= TARGET_PAGE_BYTES + PAGE_HEADER_BYTES + geom.record_bytes());
        let huge = PageGeometry::new(16, 1_000_000).unwrap();
        assert_eq!(huge.capacity, 1);
        assert!(PageGeometry::new(16, 0).is_err());
        // page/slot arithmetic
        assert_eq!(geom.page_of(0), 0);
        let cap = geom.capacity as u64;
        assert_eq!(geom.page_of(cap), 1);
        assert_eq!(geom.slot_of(cap + 3), 3);
    }

    #[test]
    fn open_or_create_repairs_a_torn_header() {
        let dir = scratch("sca_store_page_header");
        let geom = PageGeometry::new(4, 7).unwrap();
        {
            let page = PageFile::open_or_create(&dir, geom, 9).unwrap();
            let (input, trace) = record(1);
            page.write_slot(0, &input, &trace).unwrap();
        }
        // Damage the header in place.
        let path = PageFile::path(&dir, 9);
        let bytes = {
            let mut b = fs::read(&path).unwrap();
            b[0] ^= 0xff;
            b
        };
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            PageFile::open_existing(&dir, geom, 9),
            Err(StoreError::Corrupt { .. })
        ));
        let page = PageFile::open_or_create(&dir, geom, 9).unwrap();
        let buf = page.read_page().unwrap();
        assert!(
            geom.decode_slot(9, 0, &buf).is_some(),
            "slot survives header repair"
        );
        assert!(PageFile::open_existing(&dir, geom, 9).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }
}
