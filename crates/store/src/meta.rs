//! The store's index header: what corpus this is and how it is laid
//! out on disk.
//!
//! A trace corpus is a pure function of `(seed, target, window,
//! noise profile)` — the [`CorpusKey`] captures exactly those fields, so
//! opening a store under a different campaign configuration fails with a
//! [`StoreError::FingerprintMismatch`] instead of silently analyzing the
//! wrong traces.

use std::fs;
use std::io::Write;
use std::path::Path;

use crate::error::{fnv1a64, StoreError};

/// File name of the index header inside a store directory.
pub const META_FILE: &str = "store.meta";

const META_MAGIC: &[u8; 4] = b"SCAM";
const META_VERSION: u32 = 1;

/// Identity of a trace corpus: every field that changes the traces
/// themselves. Two campaigns with equal keys (and equal windows, held in
/// [`StoreMeta`]) produce bit-identical corpora, which is what makes a
/// store reusable across analyses and mergeable across machines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusKey {
    /// Target label (registry name of the cipher under attack).
    pub label: String,
    /// Campaign master seed (already salted per phase by the caller).
    pub seed: u64,
    /// Bit pattern of the per-execution noise standard deviation.
    pub noise_sd_bits: u64,
    /// Bit pattern of the noise baseline.
    pub noise_baseline_bits: u64,
    /// Executions averaged into each trace.
    pub executions_per_trace: u64,
}

/// The store's on-disk index header: corpus identity plus page-file
/// geometry. Written once at store creation and never mutated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreMeta {
    /// Corpus identity fingerprint.
    pub key: CorpusKey,
    /// First analyzed sample of each trace (window start, in samples).
    pub window_start: u64,
    /// Samples per stored trace (the analysis window length).
    pub samples: u64,
    /// The window's span in CPU cycles — display metadata for verdict
    /// headings; not part of the fingerprint proper.
    pub window_cycles: u64,
    /// Total traces the finished campaign holds.
    pub total_traces: u64,
    /// Campaign input bytes per trace.
    pub input_len: u64,
    /// Trace records per page.
    pub page_capacity: u64,
}

impl StoreMeta {
    /// Checks that `found` describes the corpus this header does: the
    /// same corpus key, window and layout (`window_cycles` is display
    /// metadata and `page_capacity` follows from the layout).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::FingerprintMismatch`] naming the first field
    /// that differs.
    pub fn check_corpus(&self, found: &StoreMeta) -> Result<(), StoreError> {
        let (want, got) = (&self.key, &found.key);
        let what = if want.label != got.label {
            format!("label '{}' vs '{}'", want.label, got.label)
        } else if want.seed != got.seed {
            format!("seed {:#x} vs {:#x}", want.seed, got.seed)
        } else if want.noise_sd_bits != got.noise_sd_bits
            || want.noise_baseline_bits != got.noise_baseline_bits
        {
            "noise profile differs".to_owned()
        } else if want.executions_per_trace != got.executions_per_trace {
            format!(
                "executions per trace {} vs {}",
                want.executions_per_trace, got.executions_per_trace
            )
        } else if let Some((name, want, got)) = [
            ("window start", self.window_start, found.window_start),
            ("samples", self.samples, found.samples),
            ("total traces", self.total_traces, found.total_traces),
            ("input length", self.input_len, found.input_len),
        ]
        .into_iter()
        .find(|(_, want, got)| want != got)
        {
            format!("{name} {got} on disk vs {want} expected")
        } else {
            return Ok(());
        };
        Err(StoreError::FingerprintMismatch { what })
    }

    /// The fingerprint hash over every identity field (key + window) —
    /// handy for naming store directories.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(&self.encode_identity())
    }

    fn encode_identity(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.key.label.len() as u64).to_le_bytes());
        out.extend_from_slice(self.key.label.as_bytes());
        for v in [
            self.key.seed,
            self.key.noise_sd_bits,
            self.key.noise_baseline_bits,
            self.key.executions_per_trace,
            self.window_start,
            self.samples,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = self.encode_identity();
        for v in [
            self.window_cycles,
            self.total_traces,
            self.input_len,
            self.page_capacity,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<StoreMeta, StoreError> {
        let corrupt = |what: &str| StoreError::Corrupt {
            file: META_FILE,
            what: what.to_owned(),
        };
        struct Cursor<'a> {
            at: usize,
            payload: &'a [u8],
        }
        impl<'a> Cursor<'a> {
            fn take(&mut self, n: usize) -> Option<&'a [u8]> {
                let end = self.at.checked_add(n)?;
                let slice = self.payload.get(self.at..end)?;
                self.at = end;
                Some(slice)
            }
            fn u64(&mut self) -> Option<u64> {
                self.take(8)
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            }
        }
        let mut cur = Cursor { at: 0, payload };
        let label_len = cur.u64().ok_or_else(|| corrupt("truncated payload"))? as usize;
        let label_bytes = cur
            .take(label_len)
            .ok_or_else(|| corrupt("truncated payload"))?;
        let label =
            String::from_utf8(label_bytes.to_vec()).map_err(|_| corrupt("label is not UTF-8"))?;
        let mut fields = [0u64; 10];
        for f in &mut fields {
            *f = cur.u64().ok_or_else(|| corrupt("truncated payload"))?;
        }
        if cur.at != payload.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(StoreMeta {
            key: CorpusKey {
                label,
                seed: fields[0],
                noise_sd_bits: fields[1],
                noise_baseline_bits: fields[2],
                executions_per_trace: fields[3],
            },
            window_start: fields[4],
            samples: fields[5],
            window_cycles: fields[6],
            total_traces: fields[7],
            input_len: fields[8],
            page_capacity: fields[9],
        })
    }

    /// Writes the header to `dir/store.meta` (atomically: temp file +
    /// rename) and fsyncs it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        let payload = self.encode();
        let mut bytes = Vec::with_capacity(payload.len() + 16);
        bytes.extend_from_slice(META_MAGIC);
        bytes.extend_from_slice(&META_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        let tmp = dir.join("store.meta.tmp");
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, dir.join(META_FILE))?;
        Ok(())
    }

    /// Loads and verifies the header from `dir/store.meta`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] on bad magic, version, length or
    /// checksum, and propagates I/O errors (including `NotFound`).
    pub fn load(dir: &Path) -> Result<StoreMeta, StoreError> {
        let corrupt = |what: &str| StoreError::Corrupt {
            file: META_FILE,
            what: what.to_owned(),
        };
        let bytes = fs::read(dir.join(META_FILE))?;
        if bytes.len() < 16 || &bytes[..4] != META_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != META_VERSION {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
        if bytes.len() != 16 + len + 8 {
            return Err(corrupt("wrong length"));
        }
        let payload = &bytes[16..16 + len];
        let checksum = u64::from_le_bytes(bytes[16 + len..].try_into().expect("8 bytes"));
        if fnv1a64(payload) != checksum {
            return Err(corrupt("checksum mismatch"));
        }
        StoreMeta::decode(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> StoreMeta {
        StoreMeta {
            key: CorpusKey {
                label: "aes128".to_owned(),
                seed: 0xdac_2018,
                noise_sd_bits: 4.5f64.to_bits(),
                noise_baseline_bits: 80.0f64.to_bits(),
                executions_per_trace: 8,
            },
            window_start: 120,
            samples: 333,
            window_cycles: 80,
            total_traces: 700,
            input_len: 16,
            page_capacity: 24,
        }
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = std::env::temp_dir().join("sca_store_meta_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let meta = sample_meta();
        meta.save(&dir).unwrap();
        let back = StoreMeta::load(&dir).unwrap();
        assert_eq!(back, meta);
        assert_eq!(back.fingerprint(), meta.fingerprint());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected() {
        let dir = std::env::temp_dir().join("sca_store_meta_corrupt_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        sample_meta().save(&dir).unwrap();
        let path = dir.join(META_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            StoreMeta::load(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_diff_names_the_field() {
        let a = sample_meta();
        let mut b = a.clone();
        assert_eq!(a.check_corpus(&b), Ok(()));
        let names = |b: &StoreMeta| match a.check_corpus(b) {
            Err(StoreError::FingerprintMismatch { what }) => what,
            other => panic!("{other:?}"),
        };
        b.key.seed ^= 1;
        assert!(names(&b).contains("seed"));
        b = a.clone();
        b.key.label = "speck".into();
        assert!(names(&b).contains("label"));
        b = a.clone();
        b.samples += 1;
        assert_eq!(names(&b), "samples 334 on disk vs 333 expected");
        // Display metadata and derived layout are not identity.
        b = a.clone();
        b.window_cycles += 1;
        b.page_capacity += 1;
        assert_eq!(a.check_corpus(&b), Ok(()));
    }

    #[test]
    fn fingerprint_tracks_identity_not_display_fields() {
        let a = sample_meta();
        let mut b = a.clone();
        b.window_cycles = 999; // display metadata only
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.samples = 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
