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
//! Opening the log for append first truncates the torn tail so the
//! resumed run's own records never land after garbage.

use std::fs::OpenOptions;
use std::io::Write;
use std::ops::Range;
use std::path::Path;

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

/// A frame that verified, located in the scanned bytes.
#[derive(Debug)]
struct Frame {
    high_water: u64,
    analysis_tag: u64,
    state: Range<usize>,
}

/// A verified log: its version, its valid frames in file order, and the
/// byte length of the valid prefix. Nothing is copied out of the bytes.
#[derive(Debug)]
struct Scan {
    version: Version,
    frames: Vec<Frame>,
    valid_len: u64,
}

fn scan(bytes: &[u8]) -> Result<Scan, StoreError> {
    let corrupt = |what: &str| StoreError::Corrupt {
        file: WAL_FILE,
        what: what.to_owned(),
    };
    if bytes.len() < WAL_HEADER_BYTES || &bytes[..4] != WAL_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let version = Version::from_u32(version)
        .ok_or_else(|| corrupt(&format!("unsupported version {version}")))?;
    let mut frames = Vec::new();
    let mut at = WAL_HEADER_BYTES;
    // Anything that fails to parse from here on is a torn tail: stop,
    // keeping what validated so far.
    while let Some(header) = bytes.get(at..at + FRAME_HEADER_BYTES) {
        let field =
            |i: usize| u64::from_le_bytes(header[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let (len, checksum, high_water, analysis_tag) = (field(0), field(1), field(2), field(3));
        let start = at + FRAME_HEADER_BYTES;
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| len.checked_sub(16))
            .and_then(|state_len| start.checked_add(state_len));
        let Some(state) = end.and_then(|end| bytes.get(start..end)) else {
            break;
        };
        if version.checksum(&[&header[16..], state]) != checksum {
            break;
        }
        at = start + state.len();
        frames.push(Frame {
            high_water,
            analysis_tag,
            state: start..at,
        });
    }
    Ok(Scan {
        version,
        frames,
        valid_len: at as u64,
    })
}

/// The open checkpoint log of one store directory.
#[derive(Debug)]
pub struct CheckpointLog {
    file: std::fs::File,
    /// The log header's version: the checksum appended frames carry.
    version: Version,
}

impl CheckpointLog {
    /// Opens (creating if needed) the log for appending. A torn tail
    /// left by a crash is truncated away first. A new log is written in
    /// the current version; an existing one keeps its own.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] when the header itself is
    /// damaged, and propagates I/O errors.
    pub fn open(dir: &Path) -> Result<CheckpointLog, StoreError> {
        let path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let len = file.metadata()?.len();
        let version = if len == 0 {
            let mut header = Vec::with_capacity(WAL_HEADER_BYTES);
            header.extend_from_slice(WAL_MAGIC);
            header.extend_from_slice(&(Version::CURRENT as u32).to_le_bytes());
            file.write_all(&header)?;
            file.sync_all()?;
            Version::CURRENT
        } else {
            let bytes = std::fs::read(&path)?;
            let valid = scan(&bytes)?;
            if valid.valid_len < len {
                file.set_len(valid.valid_len)?;
                file.sync_all()?;
            }
            valid.version
        };
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(CheckpointLog { file, version })
    }

    /// Appends one checkpoint record and fsyncs: the frame header, then
    /// the state straight from the record. The caller must have synced
    /// the page files covering `record.high_water` first — the
    /// write-ahead contract is "pages durable, then the claim".
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append(&mut self, record: &CheckpointRecord) -> Result<(), StoreError> {
        self.file.write_all(&record.frame_header(self.version))?;
        self.file.write_all(&record.state)?;
        self.file.sync_all()?;
        sca_telemetry::counter!("store/wal_fsyncs").inc();
        Ok(())
    }

    /// Fault injection: appends only the first `keep_bytes` of the
    /// framed record, simulating a crash mid-checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append_torn(
        &mut self,
        record: &CheckpointRecord,
        keep_bytes: usize,
    ) -> Result<(), StoreError> {
        let header = record.frame_header(self.version);
        self.file
            .write_all(&header[..keep_bytes.min(FRAME_HEADER_BYTES)])?;
        let keep_state = keep_bytes.saturating_sub(FRAME_HEADER_BYTES);
        self.file
            .write_all(&record.state[..keep_state.min(record.state.len())])?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Reads the most recent valid checkpoint for `analysis_tag`, or
    /// `None` when the log is missing or holds none for that analysis.
    /// Every frame is verified; only the one returned is copied.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] on a damaged header and
    /// propagates I/O errors other than `NotFound`.
    pub fn last(dir: &Path, analysis_tag: u64) -> Result<Option<CheckpointRecord>, StoreError> {
        let bytes = match std::fs::read(dir.join(WAL_FILE)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let valid = scan(&bytes)?;
        Ok(valid
            .frames
            .into_iter()
            .rev()
            .find(|f| f.analysis_tag == analysis_tag)
            .map(|f| CheckpointRecord {
                high_water: f.high_water,
                analysis_tag,
                state: bytes[f.state].to_vec(),
            }))
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

    #[test]
    fn last_returns_the_newest_record_per_tag() {
        let dir = scratch("sca_store_wal_last");
        let mut log = CheckpointLog::open(&dir).unwrap();
        log.append(&record(10, 1)).unwrap();
        log.append(&record(10, 2)).unwrap();
        log.append(&record(20, 1)).unwrap();
        assert_eq!(CheckpointLog::last(&dir, 1).unwrap(), Some(record(20, 1)));
        assert_eq!(CheckpointLog::last(&dir, 2).unwrap(), Some(record(10, 2)));
        assert_eq!(CheckpointLog::last(&dir, 3).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_ignored_and_truncated_on_reopen() {
        let dir = scratch("sca_store_wal_torn");
        let full_len;
        {
            let mut log = CheckpointLog::open(&dir).unwrap();
            log.append(&record(10, 1)).unwrap();
            full_len = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
            log.append_torn(&record(20, 1), 9).unwrap();
        }
        // The torn record does not shadow the valid one...
        assert_eq!(CheckpointLog::last(&dir, 1).unwrap(), Some(record(10, 1)));
        // ...and reopening for append truncates it away.
        let mut log = CheckpointLog::open(&dir).unwrap();
        assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), full_len);
        log.append(&record(30, 1)).unwrap();
        assert_eq!(CheckpointLog::last(&dir, 1).unwrap(), Some(record(30, 1)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes an empty log of `version`, which `CheckpointLog::open`
    /// then keeps.
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
                let mut log = CheckpointLog::open(&dir).unwrap();
                log.append(&record(10, 7)).unwrap();
                log.append_torn(&record(20, 7), keep).unwrap();
                let last = CheckpointLog::last(&dir, 7).unwrap().unwrap();
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
        assert_eq!(CheckpointLog::last(&dir, 1).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_header_is_corrupt_not_empty() {
        let dir = scratch("sca_store_wal_header");
        drop(CheckpointLog::open(&dir).unwrap());
        fs::write(dir.join(WAL_FILE), b"XXXXYYYY").unwrap();
        assert!(matches!(
            CheckpointLog::last(&dir, 1),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
