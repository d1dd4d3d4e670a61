//! Checkpoints sync only the pages written since their last sync: the
//! pages are durable before the claim, and a page no append touched is
//! not synced again.
//!
//! `store/fsyncs` is process-global; this binary holds this one test,
//! so no other store moves it meanwhile.

use sca_store::{CorpusKey, StoreMeta, TraceStore, TARGET_PAGE_BYTES};

/// Samples per trace: one record fills a page.
const SAMPLES: usize = TARGET_PAGE_BYTES / 4;

fn meta(total: u64) -> StoreMeta {
    StoreMeta {
        key: CorpusKey {
            label: "fsync".to_owned(),
            seed: 7,
            noise_sd_bits: 0.5f64.to_bits(),
            noise_baseline_bits: 1.0f64.to_bits(),
            executions_per_trace: 1,
        },
        window_start: 0,
        samples: SAMPLES as u64,
        window_cycles: SAMPLES as u64,
        total_traces: total,
        input_len: 4,
        page_capacity: 0,
    }
}

fn append(store: &TraceStore, index: u64) {
    let trace: Vec<f32> = (0..SAMPLES).map(|s| (index as usize + s) as f32).collect();
    store
        .append(index, &(index as u32).to_le_bytes(), &trace)
        .expect("append");
}

/// The page fsyncs a checkpoint at `high_water` makes.
fn checkpoint_fsyncs(store: &TraceStore, high_water: u64) -> u64 {
    let before = sca_telemetry::global().snapshot();
    store
        .checkpoint(high_water, 1, vec![high_water as u8])
        .expect("checkpoint");
    sca_telemetry::global()
        .snapshot()
        .counter_delta(&before, "store/fsyncs")
}

#[test]
fn checkpoints_sync_only_pages_written_since_the_last() {
    let dir = std::env::temp_dir().join(format!("sca_store_fsync_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::create(&dir, meta(4)).expect("create");
    assert_eq!(store.meta().page_capacity, 1, "one record per page");

    append(&store, 0);
    append(&store, 1);
    assert_eq!(checkpoint_fsyncs(&store, 2), 2, "both written pages");
    assert_eq!(checkpoint_fsyncs(&store, 2), 0, "nothing appended since");
    append(&store, 2);
    assert_eq!(checkpoint_fsyncs(&store, 3), 1, "only the new page");
    // A page rewritten after a checkpoint is synced again.
    append(&store, 0);
    assert_eq!(checkpoint_fsyncs(&store, 3), 1, "the rewritten page");

    drop(store);
    let reopened = TraceStore::open_any(&dir).expect("reopen");
    assert!(reopened.read_trace(2).expect("read").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
