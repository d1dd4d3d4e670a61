//! What a stored run refuses, and what reading a store leaves alone.
//!
//! A directory that holds another corpus is refused with a
//! [`StoreError::FingerprintMismatch`] naming the field that differs —
//! whether or not the run asked to resume — and the refusal writes
//! nothing. The read paths (`restore_complete`, `last_checkpoint`,
//! `reanalyze_store`) change no byte of a store, torn log tail or not,
//! and never create a checkpoint log where there is none.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use superscalar_sca::analysis::{hw8, FnSelection};
use superscalar_sca::campaign::{
    reanalyze_store, restore_complete, Campaign, CampaignConfig, CampaignError, CpaSink, KillPoint,
    StoreOptions, StoredRunReport,
};
use superscalar_sca::isa::{assemble, Reg};
use superscalar_sca::power::{GaussianNoise, LeakageWeights, SamplingConfig};
use superscalar_sca::store::{analysis_tag, StoreError, TraceStore, WAL_FILE};
use superscalar_sca::uarch::{Cpu, UarchConfig};

const TRACES: usize = 48;
const SEED: u64 = 0xdac_2018;
const LABEL: &str = "refusal-fixture";
const ANALYSIS: &str = "hw-cpa";
/// The stored window: `(start, samples)` of the fixture's trace.
const WINDOW: (usize, usize) = (1, 4);

fn scratch(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "sca_store_refusals_{}_{name}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One staged random word loaded inside the trigger window.
fn fixture() -> (Cpu, u32) {
    let program = assemble(
        "
        trig #1
        ldr r1, [r10]
        nop
        nop
        nop
        trig #0
        halt
    ",
    )
    .expect("fixture assembles");
    let mut cpu = Cpu::new(UarchConfig::cortex_a7().with_ideal_memory());
    cpu.load(&program).expect("fixture loads");
    cpu.set_reg(Reg::R10, 0x800);
    (cpu, program.entry())
}

fn generate(rng: &mut rand::rngs::StdRng, _index: usize) -> Vec<u8> {
    use rand::Rng;
    rng.gen::<u32>().to_le_bytes().to_vec()
}

fn stage(cpu: &mut Cpu, input: &[u8]) {
    let word = u32::from_le_bytes([input[0], input[1], input[2], input[3]]);
    cpu.mem_mut()
        .write_u32(0x800, word)
        .expect("scratch mapped");
}

fn sink(samples: usize) -> CpaSink<FnSelection<impl Fn(&[u8], u8) -> f64 + Send + Sync>> {
    CpaSink::new(
        FnSelection::new("hw(b0 ^ k)", |input: &[u8], k: u8| {
            f64::from(hw8(input[0] ^ k))
        }),
        256,
        samples,
    )
}

/// The fixture campaign over `traces` traces of `seed`, windowed.
fn campaign(traces: usize, seed: u64, window: (usize, usize)) -> Campaign {
    Campaign::new(
        LeakageWeights::cortex_a7(),
        CampaignConfig {
            traces,
            executions_per_trace: 2,
            sampling: SamplingConfig::per_cycle(),
            noise: GaussianNoise {
                sd: 0.5,
                baseline: 1.0,
            },
            seed,
            threads: 2,
            batch: 8,
        },
    )
    .with_window(window.0, window.1)
}

fn run(
    campaign: &Campaign,
    dir: &Path,
    label: &str,
    resume: bool,
    kill: KillPoint,
    max_new_traces: u64,
) -> Result<StoredRunReport, CampaignError> {
    let (cpu, entry) = fixture();
    let opts = StoreOptions {
        checkpoint_every: 16,
        resume,
        kill,
        ..StoreOptions::new(dir, label, ANALYSIS)
    };
    campaign
        .run_stored_bounded(&cpu, entry, generate, stage, sink, &opts, max_new_traces)
        .map(|(_, report)| report)
}

/// Every file of `dir`, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("store directory lists")
        .map(|entry| {
            let path = entry.expect("entry").path();
            let name = path
                .file_name()
                .expect("name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&path).expect("file reads"))
        })
        .collect()
}

/// A store of the base corpus holding `stored` of its traces.
fn base_store(name: &str, stored: u64) -> PathBuf {
    let dir = scratch(name);
    let report = run(
        &campaign(TRACES, SEED, WINDOW),
        &dir,
        LABEL,
        false,
        KillPoint::None,
        stored,
    )
    .expect("base store is written");
    assert_eq!(report.samples, WINDOW.1, "the stored window is not clamped");
    dir
}

#[test]
fn another_corpus_is_refused_by_name_and_left_untouched() {
    for (state, stored) in [("partial", 16), ("complete", TRACES as u64)] {
        let dir = base_store(state, stored);
        let before = files(&dir);
        let variants = [
            ("label", campaign(TRACES, SEED, WINDOW), "other-fixture"),
            ("seed", campaign(TRACES, SEED ^ 1, WINDOW), LABEL),
            ("total traces", campaign(TRACES - 8, SEED, WINDOW), LABEL),
            (
                "window start",
                campaign(TRACES, SEED, (WINDOW.0 + 1, WINDOW.1)),
                LABEL,
            ),
        ];
        for (field, campaign, label) in &variants {
            for resume in [false, true] {
                let error = run(campaign, &dir, label, resume, KillPoint::None, u64::MAX)
                    .expect_err("another corpus is refused");
                match &error {
                    CampaignError::Store(StoreError::FingerprintMismatch { what }) => assert!(
                        what.contains(field),
                        "{state} store, resume {resume}: '{what}' does not name {field}"
                    ),
                    other => panic!("{state} store, {field}, resume {resume}: {other}"),
                }
                assert!(
                    files(&dir) == before,
                    "{state} store, {field}, resume {resume}: the refusal wrote"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Restores, reads the last checkpoint and re-analyzes the store in
/// `dir` through one handle, and checks that no byte changed.
fn read_paths_leave_alone(dir: &Path, complete: bool, last: Option<u64>) {
    let before = files(dir);
    let store = TraceStore::open_any(dir).expect("store opens");
    let restored = restore_complete(&store, ANALYSIS, sink).expect("restore reads");
    assert_eq!(restored.is_some(), complete && last == Some(TRACES as u64));
    let high_water = store
        .last_checkpoint(analysis_tag(ANALYSIS))
        .expect("the log reads")
        .map(|ck| ck.high_water);
    assert_eq!(high_water, last);
    let reanalyzed = reanalyze_store(&store, 8, sink(WINDOW.1));
    assert_eq!(reanalyzed.is_ok(), complete);
    drop(store);
    assert!(
        files(dir) == before,
        "a read path wrote to {}",
        dir.display()
    );
}

#[test]
fn read_paths_change_no_byte_and_create_no_log() {
    let tag = analysis_tag(ANALYSIS);

    // A finished store whose log ends in a torn record.
    let dir = base_store("torn_complete", u64::MAX);
    {
        let store = TraceStore::open_any(&dir).expect("store opens");
        store
            .checkpoint_torn(TRACES as u64, tag, vec![7; 64], 40)
            .expect("torn checkpoint");
    }
    read_paths_leave_alone(&dir, true, Some(TRACES as u64));
    let _ = std::fs::remove_dir_all(&dir);

    // A killed store: one checkpoint, then a torn one.
    let dir = scratch("torn_partial");
    let killed = run(
        &campaign(TRACES, SEED, WINDOW),
        &dir,
        LABEL,
        false,
        KillPoint::MidCheckpoint { at: 20, keep: 10 },
        u64::MAX,
    );
    assert!(matches!(killed, Err(CampaignError::Killed { at: 32 })));
    read_paths_leave_alone(&dir, false, Some(16));
    let _ = std::fs::remove_dir_all(&dir);

    // A finished store without a log.
    let dir = base_store("no_log", u64::MAX);
    std::fs::remove_file(dir.join(WAL_FILE)).expect("log removed");
    read_paths_leave_alone(&dir, true, None);
    assert!(!dir.join(WAL_FILE).exists(), "a read path created the log");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A finished store is restored without a probe only into the window
/// it was written for: resuming it with a shorter configured window
/// takes the probe path, whose check refuses the stored sample count.
#[test]
fn a_finished_store_is_never_restored_into_another_window() {
    let dir = base_store("window", u64::MAX);
    let before = files(&dir);
    let narrower = campaign(TRACES, SEED, (WINDOW.0, WINDOW.1 - 2));
    for resume in [true, false] {
        match run(&narrower, &dir, LABEL, resume, KillPoint::None, u64::MAX) {
            Err(CampaignError::Store(StoreError::FingerprintMismatch { what })) => {
                assert_eq!(what, "samples 4 on disk vs 2 expected", "resume {resume}");
            }
            other => panic!("resume {resume}: {other:?}"),
        }
        assert!(files(&dir) == before, "resume {resume}: the refusal wrote");
    }
    // The window it was written for still restores, simulating nothing.
    let report = run(
        &campaign(TRACES, SEED, WINDOW),
        &dir,
        LABEL,
        true,
        KillPoint::None,
        u64::MAX,
    )
    .expect("the finished store restores");
    assert_eq!((report.simulated, report.samples), (0, WINDOW.1));
    let _ = std::fs::remove_dir_all(&dir);
}
