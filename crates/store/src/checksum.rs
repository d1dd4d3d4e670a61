//! The store's checksums, and the format versions that choose them.
//!
//! Version 1 files checksum every page slot and log record with FNV-1a,
//! one dependent multiply per byte. Version 2 files use [`WordHash`],
//! XXH64: four independent lanes over little-endian words, so a
//! multi-megabyte checkpoint is verified at memory speed. The version
//! in each file's header selects its checksum; the framing around it is
//! the same in both.

use crate::error::fnv1a64_continue;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// Bytes the four lanes take per round.
const STRIPE: usize = 32;

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// Runs the four lanes over every whole stripe of `bytes`; returns how
/// many bytes that took.
fn stripes(lanes: &mut [u64; 4], bytes: &[u8]) -> usize {
    let [mut a, mut b, mut c, mut d] = *lanes;
    let mut chunks = bytes.chunks_exact(STRIPE);
    for stripe in &mut chunks {
        a = round(a, word(&stripe[..8]));
        b = round(b, word(&stripe[8..16]));
        c = round(c, word(&stripe[16..24]));
        d = round(d, word(&stripe[24..]));
    }
    *lanes = [a, b, c, d];
    bytes.len() - chunks.remainder().len()
}

/// Seeded, incremental XXH64: the version-2 checksum.
///
/// Feeding the bytes in any number of [`update`](WordHash::update)
/// calls gives the hash of their concatenation, so a record is
/// checksummed across its fields without joining them into one buffer.
#[derive(Debug)]
pub(crate) struct WordHash {
    seed: u64,
    lanes: [u64; 4],
    /// The bytes of an unfinished stripe.
    pending: [u8; STRIPE],
    pending_len: usize,
    total: u64,
}

impl WordHash {
    pub(crate) fn new(seed: u64) -> WordHash {
        WordHash {
            seed,
            lanes: [
                seed.wrapping_add(P1).wrapping_add(P2),
                seed.wrapping_add(P2),
                seed,
                seed.wrapping_sub(P1),
            ],
            pending: [0; STRIPE],
            pending_len: 0,
            total: 0,
        }
    }

    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (STRIPE - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < STRIPE {
                return;
            }
            stripes(&mut self.lanes, &self.pending);
            self.pending_len = 0;
        }
        let rest = &bytes[stripes(&mut self.lanes, bytes)..];
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    pub(crate) fn finish(&self) -> u64 {
        let mut hash = if self.total >= STRIPE as u64 {
            let [a, b, c, d] = self.lanes;
            let mut hash = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            for lane in self.lanes {
                hash = (hash ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
            }
            hash
        } else {
            self.seed.wrapping_add(P5)
        };
        hash = hash.wrapping_add(self.total);
        let mut tail = &self.pending[..self.pending_len];
        while tail.len() >= 8 {
            hash ^= round(0, word(tail));
            hash = hash.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let half = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
            hash ^= u64::from(half).wrapping_mul(P1);
            hash = hash.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            tail = &tail[4..];
        }
        for &byte in tail {
            hash ^= u64::from(byte).wrapping_mul(P5);
            hash = hash.rotate_left(11).wrapping_mul(P1);
        }
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(P2);
        hash ^= hash >> 29;
        hash = hash.wrapping_mul(P3);
        hash ^ (hash >> 32)
    }
}

/// The format version of a page or log file, as its header stores it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub(crate) enum Version {
    /// FNV-1a checksums: every store written before version 2.
    V1 = 1,
    /// [`WordHash`] checksums: what this code writes into new files.
    V2 = 2,
}

impl Version {
    /// The version new pages and logs are written in.
    pub(crate) const CURRENT: Version = Version::V2;

    pub(crate) fn from_u32(version: u32) -> Option<Version> {
        match version {
            1 => Some(Version::V1),
            2 => Some(Version::V2),
            _ => None,
        }
    }

    /// This version's checksum over the concatenation of `parts`.
    pub(crate) fn checksum(self, parts: &[&[u8]]) -> u64 {
        match self {
            Version::V1 => parts
                .iter()
                .fold(FNV_OFFSET, |hash, part| fnv1a64_continue(hash, part)),
            Version::V2 => {
                let mut hash = WordHash::new(0);
                for part in parts {
                    hash.update(part);
                }
                hash.finish()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::fnv1a64;

    fn word_hash(seed: u64, bytes: &[u8]) -> u64 {
        let mut hash = WordHash::new(seed);
        hash.update(bytes);
        hash.finish()
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    const LENS: [usize; 8] = [0, 1, 7, 8, 31, 32, 33, 4101];

    #[test]
    fn matches_the_reference_xxh64() {
        // XXH64's published values at seed 0.
        assert_eq!(word_hash(0, b""), 0xef46_db37_51d8_e999);
        assert_eq!(word_hash(0, b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(word_hash(0, b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    #[test]
    fn pinned_vectors() {
        // Computed once: a change here changes every version-2 file.
        let pins: [(u64, u64); 8] = [
            (0xef46_db37_51d8_e999, 0x2a4c_dd20_4d34_4fad),
            (0xa96c_7f0c_e858_bbb7, 0xf6c4_0b79_47f2_360a),
            (0xafbe_fc3d_6c6f_9a8e, 0x0c93_88c0_1948_d9df),
            (0x3da5_c7aa_2696_83e0, 0xe756_9f23_651a_644a),
            (0x4a74_f3a1_a39a_d4a1, 0x86f4_701f_ddd8_f5ab),
            (0x8d57_d6a4_671c_c43d, 0x739e_48a5_80a3_42cb),
            (0x62c9_fd21_ed85_7664, 0xb3ea_7096_ace0_0f3a),
            (0xe226_120d_befd_7f5b, 0x0764_c290_79c9_47b7),
        ];
        for (len, (unseeded, seeded)) in LENS.into_iter().zip(pins) {
            let bytes = pattern(len);
            assert_eq!(word_hash(0, &bytes), unseeded, "{len} bytes");
            assert_eq!(
                word_hash(0x5ca1_ab1e, &bytes),
                seeded,
                "{len} bytes, seeded"
            );
        }
    }

    #[test]
    fn updates_split_anywhere_equal_one_update() {
        for len in LENS {
            let bytes = pattern(len);
            let whole = word_hash(7, &bytes);
            for at in 0..=len {
                let mut hash = WordHash::new(7);
                hash.update(&bytes[..at]);
                hash.update(&bytes[at..]);
                assert_eq!(hash.finish(), whole, "{len} bytes split at {at}");
            }
        }
    }

    #[test]
    fn versions_checksum_the_concatenation_of_their_parts() {
        let bytes = pattern(100);
        let parts: [&[u8]; 3] = [&bytes[..9], &bytes[9..40], &bytes[40..]];
        assert_eq!(Version::V1.checksum(&parts), fnv1a64(&bytes));
        assert_eq!(Version::V2.checksum(&parts), word_hash(0, &bytes));
        for version in [Version::V1, Version::V2] {
            assert_eq!(Version::from_u32(version as u32), Some(version));
        }
        assert_eq!(Version::from_u32(0), None);
        assert_eq!(Version::from_u32(3), None);
    }
}
