//! Stores written in format version 1 — FNV-1a over every checkpoint
//! record and page slot — stay readable.
//!
//! The v1 files are built here from the format's description and the
//! public `fnv1a64`, independently of the crate's writers, so the test
//! pins what existing stores on disk hold, not what the current code
//! would write:
//!
//! * a page is `SCPG`, version `1u32`, its index `u64`, then fixed-size
//!   slots of `input ‖ samples (f32 LE) ‖ fnv1a64(page ‖ slot ‖ input ‖
//!   samples)`;
//! * the log is `SCWL`, version `1u32`, then frames of `len u64 ‖
//!   fnv1a64(payload) ‖ payload`, where the payload is `high_water ‖ tag
//!   ‖ state`.

use std::fs;
use std::path::{Path, PathBuf};

use sca_store::{
    analysis_tag, fnv1a64, CorpusKey, StoreError, StoreMeta, TraceStore, META_FILE, WAL_FILE,
};

const INPUT_LEN: usize = 8;
const SAMPLES: usize = 2000;
const TOTAL: u64 = 11;
/// `input ‖ samples ‖ checksum`: four records fit a 32 KiB page.
const RECORD: usize = INPUT_LEN + 4 * SAMPLES + 8;
const CAPACITY: usize = 32 * 1024 / RECORD;
const PAGE_HEADER: usize = 16;

const STREAM_DIGEST: u64 = 0x247d_95ef_2b17_70fe;
const CPA_DIGEST: u64 = 0x8c37_8d71_f4f8_63fe;
const TVLA_DIGEST: u64 = 0xfed4_0af4_997d_6207;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sca_store_v1_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn trace_for(index: u64) -> (Vec<u8>, Vec<f32>) {
    let input = (index * 0x0101_0101_0101_0101).to_le_bytes().to_vec();
    let trace = (0..SAMPLES as u64)
        .map(|s| ((index * 7919 + s * 31) % 1000) as f32 * 0.125 - 40.0)
        .collect();
    (input, trace)
}

fn v1_slot(page: u64, slot: usize, input: &[u8], trace: &[f32]) -> Vec<u8> {
    let mut body = Vec::with_capacity(RECORD);
    body.extend_from_slice(input);
    for sample in trace {
        body.extend_from_slice(&sample.to_bits().to_le_bytes());
    }
    let mut salted = Vec::with_capacity(16 + body.len());
    salted.extend_from_slice(&page.to_le_bytes());
    salted.extend_from_slice(&(slot as u64).to_le_bytes());
    salted.extend_from_slice(&body);
    body.extend_from_slice(&fnv1a64(&salted).to_le_bytes());
    body
}

fn v1_frame(high_water: u64, tag: u64, state: &[u8]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&high_water.to_le_bytes());
    payload.extend_from_slice(&tag.to_le_bytes());
    payload.extend_from_slice(state);
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn state_for(high_water: u64, tag: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (i * 13 + high_water * 101 + tag) as u8)
        .collect()
}

/// The checkpoints of the fixture log, in file order; a torn copy of a
/// later CPA record follows them.
fn checkpoints() -> Vec<(u64, u64, Vec<u8>)> {
    let cpa = analysis_tag("cpa-hw");
    let tvla = analysis_tag("tvla");
    vec![
        (4, cpa, state_for(4, cpa, 300)),
        (4, tvla, state_for(4, tvla, 33)),
        (8, cpa, state_for(8, cpa, 300)),
        (TOTAL, cpa, state_for(TOTAL, cpa, 300)),
        (8, tvla, state_for(8, tvla, 33)),
    ]
}

/// Writes a complete v1 store of `TOTAL` traces plus its log to `dir`.
fn write_v1_store(dir: &Path) {
    StoreMeta {
        key: CorpusKey {
            label: "v1".to_owned(),
            seed: 0x5eed,
            noise_sd_bits: 2.0f64.to_bits(),
            noise_baseline_bits: 10.0f64.to_bits(),
            executions_per_trace: 1,
        },
        window_start: 3,
        samples: SAMPLES as u64,
        window_cycles: 500,
        total_traces: TOTAL,
        input_len: INPUT_LEN as u64,
        page_capacity: CAPACITY as u64,
    }
    .save(dir)
    .unwrap();
    let pages = TOTAL.div_ceil(CAPACITY as u64);
    for page in 0..pages {
        let mut bytes = vec![0u8; PAGE_HEADER + CAPACITY * RECORD];
        bytes[..4].copy_from_slice(b"SCPG");
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        bytes[8..16].copy_from_slice(&page.to_le_bytes());
        for slot in 0..CAPACITY {
            let index = page * CAPACITY as u64 + slot as u64;
            if index >= TOTAL {
                break;
            }
            let (input, trace) = trace_for(index);
            let at = PAGE_HEADER + slot * RECORD;
            bytes[at..at + RECORD].copy_from_slice(&v1_slot(page, slot, &input, &trace));
        }
        fs::write(dir.join(format!("page-{page:08}.scp")), bytes).unwrap();
    }
    let mut log = b"SCWL".to_vec();
    log.extend_from_slice(&1u32.to_le_bytes());
    for (high_water, tag, state) in checkpoints() {
        log.extend_from_slice(&v1_frame(high_water, tag, &state));
    }
    let torn = v1_frame(12, analysis_tag("cpa-hw"), &[0xee; 64]);
    log.extend_from_slice(&torn[..torn.len() - 5]);
    fs::write(dir.join(WAL_FILE), log).unwrap();
}

fn stream_digest(store: &TraceStore) -> u64 {
    let mut bytes = Vec::new();
    store
        .stream::<StoreError>(0..TOTAL, |index, input, trace| {
            assert_eq!((input.to_vec(), trace.to_vec()), trace_for(index));
            bytes.extend_from_slice(&index.to_le_bytes());
            bytes.extend_from_slice(input);
            for sample in trace {
                bytes.extend_from_slice(&sample.to_bits().to_le_bytes());
            }
            Ok(())
        })
        .unwrap();
    fnv1a64(&bytes)
}

fn checkpoint_digest(store: &TraceStore, analysis: &str) -> u64 {
    let ck = store
        .last_checkpoint(analysis_tag(analysis))
        .unwrap()
        .unwrap();
    let mut bytes = ck.high_water.to_le_bytes().to_vec();
    bytes.extend_from_slice(&ck.state);
    fnv1a64(&bytes)
}

#[test]
fn v1_store_streams_and_restores_its_pinned_contents() {
    let dir = scratch("read");
    write_v1_store(&dir);
    let store = TraceStore::open_any(&dir).unwrap();
    assert!(store.is_complete().unwrap());
    assert_eq!(stream_digest(&store), STREAM_DIGEST);
    // The torn tail does not shadow the last whole CPA record.
    let cpa = store
        .last_checkpoint(analysis_tag("cpa-hw"))
        .unwrap()
        .unwrap();
    assert_eq!(cpa.high_water, TOTAL);
    assert_eq!(checkpoint_digest(&store, "cpa-hw"), CPA_DIGEST);
    assert_eq!(checkpoint_digest(&store, "tvla"), TVLA_DIGEST);
    assert_eq!(store.last_checkpoint(analysis_tag("ttest")).unwrap(), None);
    assert!(dir.join(META_FILE).exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resumed_appends_to_v1_files_stay_fnv_framed() {
    let dir = scratch("append");
    write_v1_store(&dir);
    let log_before = fs::read(dir.join(WAL_FILE)).unwrap();
    let store = TraceStore::open_any(&dir).unwrap();
    // A rewritten trace lands in its v1 page with a v1 slot, byte for
    // byte what the v1 writer put there.
    let page_path = dir.join("page-00000001.scp");
    let page_before = fs::read(&page_path).unwrap();
    let (input, trace) = trace_for(5);
    store.append(5, &input, &trace).unwrap();
    assert_eq!(fs::read(&page_path).unwrap(), page_before);

    let tag = analysis_tag("tvla");
    let state = state_for(TOTAL, tag, 77);
    store.checkpoint(TOTAL, tag, state.clone()).unwrap();
    // Reopening truncated the torn tail; the new record follows the
    // last whole one as a v1 frame.
    let whole: usize = checkpoints()
        .iter()
        .map(|(high_water, tag, state)| v1_frame(*high_water, *tag, state).len())
        .sum();
    let log = fs::read(dir.join(WAL_FILE)).unwrap();
    assert_eq!(&log[..8 + whole], &log_before[..8 + whole]);
    assert_eq!(&log[8 + whole..], &v1_frame(TOTAL, tag, &state)[..]);
    let last = store.last_checkpoint(tag).unwrap().unwrap();
    assert_eq!((last.high_water, last.state), (TOTAL, state));
    assert_eq!(stream_digest(&store), STREAM_DIGEST);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version_3_headers_are_corrupt() {
    let dir = scratch("v3");
    write_v1_store(&dir);
    let set_version = |file: &str, version: u32| {
        let path = dir.join(file);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        fs::write(&path, bytes).unwrap();
    };
    set_version(WAL_FILE, 3);
    let store = TraceStore::open_any(&dir).unwrap();
    assert!(matches!(
        store.last_checkpoint(analysis_tag("cpa-hw")),
        Err(StoreError::Corrupt { .. })
    ));
    assert!(matches!(
        store.checkpoint(TOTAL, analysis_tag("cpa-hw"), vec![1]),
        Err(StoreError::Corrupt { .. })
    ));
    set_version("page-00000002.scp", 3);
    let store = TraceStore::open_any(&dir).unwrap();
    assert!(store.read_trace(3).unwrap().is_some());
    assert!(matches!(
        store.read_trace(2 * CAPACITY as u64),
        Err(StoreError::Corrupt { .. })
    ));
    assert!(matches!(
        store.stream::<StoreError>(0..TOTAL, |_, _, _| Ok(())),
        Err(StoreError::Corrupt { .. })
    ));
    let _ = fs::remove_dir_all(&dir);
}
