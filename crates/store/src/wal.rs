//! The write-ahead checkpoint log.
//!
//! An append-only file of framed records, each carrying the campaign's
//! high-water trace index and a serialized sink snapshot. A frame is a
//! 32-byte header `[payload_len][checksum][high_water][analysis_tag]`
//! followed by the state; the payload is `high_water ‖ analysis_tag ‖
//! state`, and the checksum covers it (FNV-1a in a version-1 log,
//! XXH64 in a version-2 one). A crash mid-append leaves a torn tail
//! that fails its checksum, so a scan stops at the first invalid frame
//! and resume recovers from the last checkpoint that was fully written.
//!
//! A [`CheckpointLog`] handle reads its file at most once: its first
//! [`last`](CheckpointLog::last) or append scans the whole log and
//! keeps each valid frame's tag, high-water mark and position, and the
//! valid length. Later reads fetch and re-verify only the record they
//! return, and the first append truncates a torn tail to the scanned
//! length, so the resumed run's own records never land after garbage.
//! Reading creates, truncates and writes nothing.

use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::checksum::Version;
use crate::error::{fnv1a64, StoreError};

/// File name of the checkpoint log inside a store directory.
pub const WAL_FILE: &str = "checkpoints.wal";

const WAL_MAGIC: &[u8; 4] = b"SCWL";
const WAL_HEADER_BYTES: usize = 8;
/// Payload length, checksum, high-water index and analysis tag.
const FRAME_HEADER_BYTES: usize = 32;

/// Hashes an analysis name into the tag stored with each checkpoint, so
/// one corpus can carry interleaved checkpoints for several analyses
/// (per leakage model, TVLA) without restoring the wrong sink state.
#[must_use]
pub fn analysis_tag(name: &str) -> u64 {
    fnv1a64(name.as_bytes())
}

/// One recovered checkpoint: every trace below `high_water` is durable
/// in the page files, and `state` restores the analysis sink to the
/// exact bit pattern it had at that boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// Traces `0..high_water` are on disk and folded into `state`.
    pub high_water: u64,
    /// Which analysis this snapshot belongs to (see [`analysis_tag`]).
    pub analysis_tag: u64,
    /// Serialized sink state (exact `f64` bit patterns).
    pub state: Vec<u8>,
}

impl CheckpointRecord {
    /// The frame header that precedes `state` in a log of `version`.
    fn frame_header(&self, version: Version) -> [u8; FRAME_HEADER_BYTES] {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        header[..8].copy_from_slice(&(16 + self.state.len() as u64).to_le_bytes());
        header[16..24].copy_from_slice(&self.high_water.to_le_bytes());
        header[24..].copy_from_slice(&self.analysis_tag.to_le_bytes());
        let checksum = version.checksum(&[&header[16..], &self.state]);
        header[8..16].copy_from_slice(&checksum.to_le_bytes());
        header
    }
}

/// A frame that verified, located in the log.
#[derive(Debug)]
struct Frame {
    high_water: u64,
    analysis_tag: u64,
    state: Range<usize>,
}

/// The valid frame starting at `at` in a log of `version`, or `None`
/// when `bytes` hold no whole frame there whose checksum verifies.
fn frame_at(version: Version, bytes: &[u8], at: usize) -> Option<Frame> {
    let header = bytes.get(at..at.checked_add(FRAME_HEADER_BYTES)?)?;
    let field =
        |i: usize| u64::from_le_bytes(header[8 * i..8 * i + 8].try_into().expect("8 bytes"));
    let start = at + FRAME_HEADER_BYTES;
    let end = start.checked_add(usize::try_from(field(0)).ok()?.checked_sub(16)?)?;
    let state = bytes.get(start..end)?;
    (version.checksum(&[&header[16..], state]) == field(1)).then(|| Frame {
        high_water: field(2),
        analysis_tag: field(3),
        state: start..end,
    })
}

/// What a scan found: the log's version, its valid frames in file
/// order and the byte length of the valid prefix (0 while the log has
/// no header).
#[derive(Debug)]
struct Scan {
    version: Version,
    frames: Vec<Frame>,
    valid_len: u64,
}

/// Verifies a log's bytes; an empty file is an empty log.
fn scan(bytes: &[u8]) -> Result<Scan, StoreError> {
    let mut scan = Scan {
        version: Version::CURRENT,
        frames: Vec::new(),
        valid_len: 0,
    };
    if bytes.is_empty() {
        return Ok(scan);
    }
    let corrupt = |what: &str| StoreError::Corrupt {
        file: WAL_FILE,
        what: what.to_owned(),
    };
    if bytes.len() < WAL_HEADER_BYTES || &bytes[..4] != WAL_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    scan.version = Version::from_u32(version)
        .ok_or_else(|| corrupt(&format!("unsupported version {version}")))?;
    // Anything that fails to parse from here on is a torn tail: stop,
    // keeping what validated so far.
    let mut at = WAL_HEADER_BYTES;
    while let Some(frame) = frame_at(scan.version, bytes, at) {
        at = frame.state.end;
        scan.frames.push(frame);
    }
    scan.valid_len = at as u64;
    Ok(scan)
}

/// The checkpoint log of one store directory, read at most once (see
/// the module docs).
#[derive(Debug)]
pub struct CheckpointLog {
    path: PathBuf,
    /// What the one scan found, once the first read or append made it.
    scan: Option<Scan>,
    /// The log opened for appending, by the first append.
    file: Option<File>,
}

impl CheckpointLog {
    /// The log of store directory `dir`. Nothing is read until the first
    /// [`last`](Self::last) or append.
    #[must_use]
    pub fn new(dir: &Path) -> CheckpointLog {
        CheckpointLog {
            path: dir.join(WAL_FILE),
            scan: None,
            file: None,
        }
    }

    /// Reads and verifies the whole log, the one scan this handle
    /// makes, and returns the bytes read. A missing log reads as an
    /// empty one.
    fn scan_once(&mut self) -> Result<Vec<u8>, StoreError> {
        let bytes = match std::fs::read(&self.path) {
            Ok(bytes) => {
                sca_telemetry::counter!("store/wal_scans").inc();
                bytes
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        self.scan = Some(scan(&bytes)?);
        Ok(bytes)
    }

    /// The most recent valid checkpoint for `analysis_tag`, or `None`
    /// when the log is missing or holds none for that analysis. The
    /// first call scans the whole log and copies the record out of the
    /// bytes read; later calls read only the record they return and
    /// verify it again.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] on a damaged header or a record
    /// that no longer verifies, and propagates I/O errors other than a
    /// missing log.
    pub fn last(&mut self, analysis_tag: u64) -> Result<Option<CheckpointRecord>, StoreError> {
        let scanned = self.scan.is_none().then(|| self.scan_once()).transpose()?;
        let scan = self.scan.as_ref().expect("scanned");
        let Some(frame) = scan.frames.iter().rfind(|f| f.analysis_tag == analysis_tag) else {
            return Ok(None);
        };
        let state = match scanned {
            Some(bytes) => bytes[frame.state.clone()].to_vec(),
            None => {
                let at = frame.state.start - FRAME_HEADER_BYTES;
                let mut bytes = vec![0u8; FRAME_HEADER_BYTES + frame.state.len()];
                File::open(&self.path)?.read_exact_at(&mut bytes, at as u64)?;
                match frame_at(scan.version, &bytes, 0) {
                    Some(f)
                        if (f.high_water, f.analysis_tag, f.state.end)
                            == (frame.high_water, analysis_tag, bytes.len()) =>
                    {
                        bytes.split_off(FRAME_HEADER_BYTES)
                    }
                    _ => {
                        return Err(StoreError::Corrupt {
                            file: WAL_FILE,
                            what: format!("record at byte {at} changed since the scan"),
                        })
                    }
                }
            }
        };
        Ok(Some(CheckpointRecord {
            high_water: frame.high_water,
            analysis_tag,
            state,
        }))
    }

    /// Writes the first `keep` bytes of `record`'s frame at the end of
    /// the valid log and fsyncs; returns the frame's offset. The first
    /// write scans the log if no read has, creates it when missing (a
    /// new log in the current version, an existing one keeps its own)
    /// and truncates a torn tail to the scanned length.
    fn write_frame(&mut self, record: &CheckpointRecord, keep: usize) -> Result<u64, StoreError> {
        if self.scan.is_none() {
            self.scan_once()?;
        }
        let scan = self.scan.as_mut().expect("scanned");
        if self.file.is_none() {
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&self.path)?;
            if file.metadata()?.len() > scan.valid_len {
                file.set_len(scan.valid_len)?;
                file.sync_all()?;
            }
            if scan.valid_len == 0 {
                let header = [&WAL_MAGIC[..], &(scan.version as u32).to_le_bytes()].concat();
                file.write_all_at(&header, 0)?;
                file.sync_all()?;
                scan.valid_len = WAL_HEADER_BYTES as u64;
            }
            self.file = Some(file);
        }
        let file = self.file.as_ref().expect("opened");
        let at = scan.valid_len;
        let header = record.frame_header(scan.version);
        let state = keep
            .saturating_sub(FRAME_HEADER_BYTES)
            .min(record.state.len());
        file.write_all_at(&header[..keep.min(FRAME_HEADER_BYTES)], at)?;
        file.write_all_at(&record.state[..state], at + FRAME_HEADER_BYTES as u64)?;
        file.sync_all()?;
        Ok(at)
    }

    /// Appends one checkpoint record and fsyncs: the frame header, then
    /// the state straight from the record. The caller must have synced
    /// the page files covering `record.high_water` first — the
    /// write-ahead contract is "pages durable, then the claim".
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] when the log's header is damaged,
    /// and propagates I/O errors.
    pub fn append(&mut self, record: &CheckpointRecord) -> Result<(), StoreError> {
        let start = self.write_frame(record, usize::MAX)? as usize + FRAME_HEADER_BYTES;
        sca_telemetry::counter!("store/wal_fsyncs").inc();
        let scan = self.scan.as_mut().expect("scanned");
        let state = start..start + record.state.len();
        scan.valid_len = state.end as u64;
        scan.frames.push(Frame {
            high_water: record.high_water,
            analysis_tag: record.analysis_tag,
            state,
        });
        Ok(())
    }

    /// Fault injection: appends only the first `keep_bytes` of the
    /// framed record, simulating a crash mid-checkpoint. The next
    /// append writes over them.
    ///
    /// # Errors
    ///
    /// As [`append`](Self::append).
    pub fn append_torn(
        &mut self,
        record: &CheckpointRecord,
        keep_bytes: usize,
    ) -> Result<(), StoreError> {
        self.write_frame(record, keep_bytes).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(high_water: u64, tag: u64) -> CheckpointRecord {
        CheckpointRecord {
            high_water,
            analysis_tag: tag,
            state: vec![high_water as u8; 5],
        }
    }

    fn log_len(dir: &Path) -> u64 {
        fs::metadata(dir.join(WAL_FILE)).unwrap().len()
    }

    #[test]
    fn last_returns_the_newest_record_per_tag() {
        let dir = scratch("sca_store_wal_last");
        let mut log = CheckpointLog::new(&dir);
        log.append(&record(10, 1)).unwrap();
        log.append(&record(10, 2)).unwrap();
        log.append(&record(20, 1)).unwrap();
        // The appending handle reads from what it wrote; a new one
        // scans the file.
        for mut log in [log, CheckpointLog::new(&dir)] {
            assert_eq!(log.last(1).unwrap(), Some(record(20, 1)));
            assert_eq!(log.last(2).unwrap(), Some(record(10, 2)));
            assert_eq!(log.last(3).unwrap(), None);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_ignored_and_truncated_on_reopen() {
        let dir = scratch("sca_store_wal_torn");
        let full_len;
        {
            let mut log = CheckpointLog::new(&dir);
            log.append(&record(10, 1)).unwrap();
            full_len = log_len(&dir);
            // A torn tail longer than the frame appended after it, so an
            // append over an untruncated tail would leave bytes behind.
            let long = CheckpointRecord {
                state: vec![20; 64],
                ..record(20, 1)
            };
            log.append_torn(&long, 60).unwrap();
        }
        let torn_len = log_len(&dir);
        assert_eq!(torn_len, full_len + 60);
        // The torn record does not shadow the valid one, and reading
        // leaves it in place...
        let mut log = CheckpointLog::new(&dir);
        assert_eq!(log.last(1).unwrap(), Some(record(10, 1)));
        assert_eq!(log_len(&dir), torn_len);
        // ...until the reopened log's first append truncates it away.
        log.append(&record(30, 1)).unwrap();
        let frame_len = (FRAME_HEADER_BYTES + record(30, 1).state.len()) as u64;
        assert!(frame_len < 60);
        assert_eq!(log_len(&dir), full_len + frame_len);
        assert_eq!(log.last(1).unwrap(), Some(record(30, 1)));
        // A fresh handle's scan ends at the end of the file.
        let mut fresh = CheckpointLog::new(&dir);
        assert_eq!(fresh.last(1).unwrap(), Some(record(30, 1)));
        assert_eq!(fresh.scan.as_ref().unwrap().valid_len, full_len + frame_len);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_changed_after_the_scan_is_corrupt() {
        let dir = scratch("sca_store_wal_reverify");
        let mut log = CheckpointLog::new(&dir);
        log.append(&record(10, 1)).unwrap();
        log.append(&record(20, 2)).unwrap();
        // A new handle scans once; the second read fetches the record
        // alone and verifies it against what the scan found.
        let mut reader = CheckpointLog::new(&dir);
        assert_eq!(reader.last(1).unwrap(), Some(record(10, 1)));
        let path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(reader.last(1).unwrap(), Some(record(10, 1)));
        assert!(matches!(reader.last(2), Err(StoreError::Corrupt { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes an empty log of `version`, which a log's appends then
    /// keep.
    fn empty_log(dir: &Path, version: Version) {
        let mut header = WAL_MAGIC.to_vec();
        header.extend_from_slice(&(version as u32).to_le_bytes());
        fs::write(dir.join(WAL_FILE), header).unwrap();
    }

    #[test]
    fn every_torn_prefix_keeps_earlier_records_recoverable() {
        // Sweep all tear lengths of the second record's frame, in logs
        // of both versions.
        let frame_len = FRAME_HEADER_BYTES + record(20, 7).state.len();
        for version in [Version::V1, Version::V2] {
            for keep in 0..=frame_len {
                let dir = scratch(&format!("sca_store_wal_sweep_v{}_{keep}", version as u32));
                empty_log(&dir, version);
                let mut log = CheckpointLog::new(&dir);
                log.append(&record(10, 7)).unwrap();
                log.append_torn(&record(20, 7), keep).unwrap();
                let last = CheckpointLog::new(&dir).last(7).unwrap().unwrap();
                if keep == frame_len {
                    assert_eq!(last.high_water, 20);
                } else {
                    assert_eq!(last.high_water, 10, "v{} keep={keep}", version as u32);
                }
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn every_bit_flip_and_truncation_of_a_v2_frame_is_rejected() {
        for len in [0usize, 1, 31, 32, 33, 4101] {
            let frame = |record: &CheckpointRecord| {
                let mut bytes = record.frame_header(Version::V2).to_vec();
                bytes.extend_from_slice(&record.state);
                bytes
            };
            let second = CheckpointRecord {
                high_water: 20,
                analysis_tag: 3,
                state: (0..len).map(|i| (i * 7 + 1) as u8).collect(),
            };
            let mut bytes = WAL_MAGIC.to_vec();
            bytes.extend_from_slice(&2u32.to_le_bytes());
            bytes.extend_from_slice(&frame(&record(10, 3)));
            let first_end = bytes.len();
            bytes.extend_from_slice(&frame(&second));
            let whole = scan(&bytes).unwrap();
            assert_eq!(whole.frames.len(), 2);
            assert_eq!(&bytes[whole.frames[1].state.clone()], &second.state[..]);
            // The scan stops before the damaged frame, keeping the first.
            let stops_before = |bytes: &[u8]| {
                let scan = scan(bytes).unwrap();
                scan.frames.len() == 1 && scan.valid_len == first_end as u64
            };
            for bit in first_end * 8..bytes.len() * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert!(stops_before(&bytes), "state of {len} bytes, bit {bit}");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            for cut in first_end..bytes.len() {
                assert!(
                    stops_before(&bytes[..cut]),
                    "state of {len} bytes, cut {cut}"
                );
            }
        }
    }

    #[test]
    fn missing_log_reads_as_no_checkpoint() {
        let dir = scratch("sca_store_wal_missing");
        assert_eq!(CheckpointLog::new(&dir).last(1).unwrap(), None);
        assert!(!dir.join(WAL_FILE).exists(), "reading created the log");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_header_is_corrupt_not_empty() {
        let dir = scratch("sca_store_wal_header");
        CheckpointLog::new(&dir).append(&record(10, 1)).unwrap();
        fs::write(dir.join(WAL_FILE), b"XXXXYYYY").unwrap();
        assert!(matches!(
            CheckpointLog::new(&dir).last(1),
            Err(StoreError::Corrupt { .. })
        ));
        // Nor is it appended to.
        assert!(matches!(
            CheckpointLog::new(&dir).append(&record(20, 1)),
            Err(StoreError::Corrupt { .. })
        ));
        assert_eq!(fs::read(dir.join(WAL_FILE)).unwrap(), b"XXXXYYYY");
        let _ = fs::remove_dir_all(&dir);
    }
}
