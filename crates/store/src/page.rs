//! Fixed-size trace pages with per-slot checksums.
//!
//! A page file holds `capacity` trace records at fixed offsets after a
//! small header. Each record carries its own checksum salted with
//! `(page_index, slot)` — FNV-1a in a version-1 page, XXH64 in a
//! version-2 one, as the header says — so validity is decided **per
//! slot**: a torn write corrupts exactly the slot it tore, appends are
//! idempotent single-`pwrite` operations (no read-modify-write), and a
//! resumed campaign can rewrite slots at or above the checkpoint
//! high-water mark without first repairing the rest of the page.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::checksum::Version;
use crate::error::StoreError;

/// Target page size the capacity is derived from. Pages hold at least
/// one record even when a record exceeds this.
pub const TARGET_PAGE_BYTES: usize = 32 * 1024;

/// Bytes of page header before the first slot.
pub const PAGE_HEADER_BYTES: usize = 16;

/// A decoded trace record: the campaign input bytes and the windowed
/// power samples, exactly as appended.
pub type TraceRecord = (Vec<u8>, Vec<f32>);

const PAGE_MAGIC: &[u8; 4] = b"SCPG";

/// The store's record layout: how traces map onto pages and slots.
///
/// Built only by [`PageGeometry::new`], which checks that a whole page
/// fits in memory, so every size and offset below is in range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageGeometry {
    input_len: usize,
    samples: usize,
    capacity: usize,
}

impl PageGeometry {
    /// Derives the geometry for a record shape, sizing pages near
    /// [`TARGET_PAGE_BYTES`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Geometry`] when `samples` is zero, or when
    /// one record is too large to hold in memory.
    pub fn new(input_len: usize, samples: usize) -> Result<PageGeometry, StoreError> {
        if samples == 0 {
            return Err(StoreError::Geometry {
                what: "a trace must have at least one sample".to_owned(),
            });
        }
        let record = samples
            .checked_mul(4)
            .and_then(|bytes| bytes.checked_add(input_len))
            .and_then(|bytes| bytes.checked_add(8))
            // A page of one record must fit one allocation; larger
            // capacities stay within the target size.
            .filter(|&record| record <= isize::MAX as usize - PAGE_HEADER_BYTES);
        let Some(record) = record else {
            return Err(StoreError::Geometry {
                what: format!(
                    "a record of {input_len} input bytes and {samples} samples does not fit a page"
                ),
            });
        };
        Ok(PageGeometry {
            input_len,
            samples,
            capacity: (TARGET_PAGE_BYTES / record).max(1),
        })
    }

    /// Campaign input bytes per trace.
    #[must_use]
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Samples per trace (each stored as an `f32` bit pattern).
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Records per page.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
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

    /// Byte offset of `slot` within the page, or `None` when the page
    /// has no such slot.
    #[must_use]
    pub fn slot_offset(&self, slot: usize) -> Option<usize> {
        (slot < self.capacity).then(|| PAGE_HEADER_BYTES + slot * self.record_bytes())
    }

    /// The checksum of the record in `slot` of page `page_index`.
    fn slot_checksum(version: Version, page_index: u64, slot: usize, payload: &[u8]) -> u64 {
        version.checksum(&[
            &page_index.to_le_bytes(),
            &(slot as u64).to_le_bytes(),
            payload,
        ])
    }

    /// Encodes one record for a page of `version`: input bytes, sample
    /// bit patterns, then the salted slot checksum over everything
    /// before it.
    fn encode_slot(
        &self,
        version: Version,
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
        let checksum = PageGeometry::slot_checksum(version, page_index, slot, &out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes the record in `slot` from a whole-page buffer, whose
    /// header's version selects the checksum, or `None` when the slot
    /// checksum does not validate (never written, or torn) or the
    /// buffer holds no such slot.
    #[must_use]
    pub fn decode_slot(&self, page_index: u64, slot: usize, page: &[u8]) -> Option<TraceRecord> {
        let version = Version::from_u32(u32::from_le_bytes(page.get(4..8)?.try_into().ok()?))?;
        let start = self.slot_offset(slot)?;
        let record = page.get(start..start + self.record_bytes())?;
        let (payload, stored) = record.split_at(record.len() - 8);
        let stored = u64::from_le_bytes(stored.try_into().expect("8 bytes"));
        if PageGeometry::slot_checksum(version, page_index, slot, payload) != stored {
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

    /// The page index a store file is named for, if `name` names a page.
    #[must_use]
    pub(crate) fn page_of_file(name: &str) -> Option<u64> {
        let digits = name.strip_prefix("page-")?.strip_suffix(".scp")?;
        let index = digits.parse().ok()?;
        (PageGeometry::file_name(index) == name).then_some(index)
    }
}

/// One open page file; slot writes are positioned (`pwrite`) and need
/// only `&self`, so shard workers can append through a shared handle.
#[derive(Debug)]
pub struct PageFile {
    file: File,
    page_index: u64,
    geom: PageGeometry,
    /// The header's version: the checksum written slots carry.
    version: Version,
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
    /// file when absent; a new page is written in the current version,
    /// an existing one keeps its own. A damaged header — e.g. a crash
    /// tore the very creation of this page — is rewritten, at the
    /// version it still names if that is a known one; slot checksums,
    /// not the header, decide record validity.
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
        file.read_exact_at(&mut header, 0)?;
        let version = match PageFile::check_header(&header, page_index) {
            Ok(version) => version,
            Err(_) => {
                let named = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
                let version = Version::from_u32(named).unwrap_or(Version::CURRENT);
                file.write_all_at(&PageFile::header_bytes(version, page_index), 0)?;
                version
            }
        };
        // Sizing or repairing the file counts as a write.
        Ok(PageFile {
            file,
            page_index,
            geom,
            version,
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
        let version = PageFile::check_header(&header, page_index)?;
        Ok(PageFile {
            file,
            page_index,
            geom,
            version,
            dirty: AtomicBool::new(false),
        })
    }

    fn header_bytes(version: Version, page_index: u64) -> [u8; PAGE_HEADER_BYTES] {
        let mut header = [0u8; PAGE_HEADER_BYTES];
        header[..4].copy_from_slice(PAGE_MAGIC);
        header[4..8].copy_from_slice(&(version as u32).to_le_bytes());
        header[8..16].copy_from_slice(&page_index.to_le_bytes());
        header
    }

    fn check_header(
        header: &[u8; PAGE_HEADER_BYTES],
        page_index: u64,
    ) -> Result<Version, StoreError> {
        let corrupt = |what: String| StoreError::Corrupt { file: "page", what };
        if &header[..4] != PAGE_MAGIC {
            return Err(corrupt("bad magic".to_owned()));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let version = Version::from_u32(version)
            .ok_or_else(|| corrupt(format!("unsupported version {version}")))?;
        let stored = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        if stored != page_index {
            return Err(corrupt(format!(
                "page index {stored} does not match file name ({page_index})"
            )));
        }
        Ok(version)
    }

    /// The encoded record for `slot` and its offset in the file.
    fn encode_at(
        &self,
        slot: usize,
        input: &[u8],
        trace: &[f32],
    ) -> Result<(Vec<u8>, u64), StoreError> {
        let offset = self
            .geom
            .slot_offset(slot)
            .ok_or_else(|| StoreError::Geometry {
                what: format!("slot {slot} of a {}-slot page", self.geom.capacity),
            })?;
        let record = self
            .geom
            .encode_slot(self.version, self.page_index, slot, input, trace);
        Ok((record, offset as u64))
    }

    /// Writes one record into `slot`. Idempotent: rewriting a slot with
    /// the same trace produces identical bytes.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Geometry`] for a slot past the page's
    /// capacity and propagates I/O errors.
    pub fn write_slot(&self, slot: usize, input: &[u8], trace: &[f32]) -> Result<(), StoreError> {
        let (record, offset) = self.encode_at(slot, input, trace)?;
        self.file.write_all_at(&record, offset)?;
        self.dirty.store(true, Ordering::Release);
        Ok(())
    }

    /// Fault injection: writes only the first `keep_bytes` of the
    /// record, simulating a crash mid-`pwrite` (a half-written slot).
    ///
    /// # Errors
    ///
    /// As [`write_slot`](Self::write_slot).
    pub fn write_slot_torn(
        &self,
        slot: usize,
        input: &[u8],
        trace: &[f32],
        keep_bytes: usize,
    ) -> Result<(), StoreError> {
        let (record, offset) = self.encode_at(slot, input, trace)?;
        let keep = keep_bytes.min(record.len());
        self.file.write_all_at(&record[..keep], offset)?;
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

    /// An empty in-memory page of `version`.
    fn blank_page(geom: PageGeometry, version: Version, page_index: u64) -> Vec<u8> {
        let mut page = vec![0u8; geom.page_bytes()];
        page[..PAGE_HEADER_BYTES].copy_from_slice(&PageFile::header_bytes(version, page_index));
        page
    }

    #[test]
    fn checksum_binds_record_to_its_location() {
        let geom = PageGeometry::new(4, 7).unwrap();
        let (input, trace) = record(3);
        for version in [Version::V1, Version::V2] {
            let rec = geom.encode_slot(version, 5, 2, &input, &trace);
            let mut page = blank_page(geom, version, 5);
            // Plant the slot-2 record into slot 0: intact bytes, wrong home.
            let at = geom.slot_offset(0).unwrap();
            page[at..at + rec.len()].copy_from_slice(&rec);
            assert_eq!(geom.decode_slot(5, 0, &page), None);
            let at2 = geom.slot_offset(2).unwrap();
            page[at2..at2 + rec.len()].copy_from_slice(&rec);
            assert!(geom.decode_slot(5, 2, &page).is_some());
            assert_eq!(geom.decode_slot(6, 2, &page), None, "wrong page index");
            assert_eq!(
                geom.decode_slot(5, geom.capacity, &page),
                None,
                "no such slot"
            );
        }
    }

    #[test]
    fn every_bit_flip_and_truncation_of_a_v2_slot_is_rejected() {
        for (input_len, samples) in [(4, 7), (16, 1021)] {
            let geom = PageGeometry::new(input_len, samples).unwrap();
            let input: Vec<u8> = (0..input_len).map(|i| i as u8 ^ 0x5a).collect();
            let trace: Vec<f32> = (0..samples).map(|s| s as f32 * -0.75).collect();
            let slot = geom.capacity - 1;
            let at = geom.slot_offset(slot).unwrap();
            let rec = geom.encode_slot(Version::V2, 9, slot, &input, &trace);
            let mut page = blank_page(geom, Version::V2, 9);
            page[at..at + rec.len()].copy_from_slice(&rec);
            assert_eq!(geom.decode_slot(9, slot, &page), Some((input, trace)));
            for bit in at * 8..(at + rec.len()) * 8 {
                page[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(geom.decode_slot(9, slot, &page), None, "bit {bit}");
                page[bit / 8] ^= 1 << (bit % 8);
            }
            for cut in at..at + rec.len() {
                assert_eq!(geom.decode_slot(9, slot, &page[..cut]), None, "cut {cut}");
                // A torn write lands a prefix of the record over zeros.
                let mut torn = blank_page(geom, Version::V2, 9);
                torn[at..cut].copy_from_slice(&rec[..cut - at]);
                assert_eq!(geom.decode_slot(9, slot, &torn), None, "torn at {cut}");
            }
        }
    }

    #[test]
    fn geometry_targets_32k_pages_and_holds_at_least_one_record() {
        let geom = PageGeometry::new(16, 300).unwrap();
        assert!(geom.capacity >= 1);
        assert!(geom.page_bytes() <= TARGET_PAGE_BYTES + PAGE_HEADER_BYTES + geom.record_bytes());
        let huge = PageGeometry::new(16, 1_000_000).unwrap();
        assert_eq!(huge.capacity, 1);
        assert!(PageGeometry::new(16, 0).is_err());
        // Records too large to size a page are refused, not overflowed.
        for (input_len, samples) in [
            (16, usize::MAX / 2),
            (16, usize::MAX / 4),
            (usize::MAX - 8, 1),
            (0, isize::MAX as usize / 4),
        ] {
            assert!(
                matches!(
                    PageGeometry::new(input_len, samples),
                    Err(StoreError::Geometry { .. })
                ),
                "{input_len} x {samples}"
            );
        }
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
