//! Fault-injection tests for store-backed campaigns: kill a run at an
//! awkward point — right after a trace, midway through a page-slot
//! write, midway through a checkpoint record — and assert that resuming
//! yields a sink **byte-identical** to an uninterrupted stored run with
//! the same segmentation and thread count (the resume determinism
//! contract in `sca_campaign::run_stored`'s module docs).
//!
//! The property test sweeps kill points and checkpoint intervals; the
//! deterministic tests pin the contract's edges (torn first checkpoint,
//! fast-path resume of a complete store) and lift the whole thing to
//! portfolio scale, where a killed-and-resumed run must reproduce the
//! uninterrupted run's verdicts and correlation bit patterns.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use superscalar_sca::analysis::{hw8, FnSelection};
use superscalar_sca::campaign::{
    Campaign, CampaignConfig, CampaignError, Checkpointable, CpaSink, KillPoint, StoreOptions,
    StoredRunReport, TtestSink,
};
use superscalar_sca::isa::{assemble, Reg};
use superscalar_sca::power::{GaussianNoise, LeakageWeights, SamplingConfig};
use superscalar_sca::uarch::{Cpu, UarchConfig};

const TRACES: u64 = 48;

/// A fresh scratch directory; unique per call so parallel tests never
/// collide.
fn scratch(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "sca_crash_recovery_{}_{name}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The smallest attackable kernel: one staged random word loaded inside
/// the trigger window (the MDR transition leaks its Hamming weight).
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

fn model() -> FnSelection<impl Fn(&[u8], u8) -> f64 + Send + Sync> {
    FnSelection::new("hw(b0 ^ k)", |input: &[u8], k: u8| {
        f64::from(hw8(input[0] ^ k))
    })
}

fn campaign() -> Campaign {
    campaign_with(2)
}

/// The fixture campaign at `threads` worker threads.
fn campaign_with(threads: usize) -> Campaign {
    Campaign::new(
        LeakageWeights::cortex_a7(),
        CampaignConfig {
            traces: TRACES as usize,
            executions_per_trace: 2,
            sampling: SamplingConfig::per_cycle(),
            noise: GaussianNoise {
                sd: 0.5,
                baseline: 1.0,
            },
            seed: 0xdac_2018,
            threads,
            batch: 8,
        },
    )
}

/// Runs the fixture campaign against `dir` and returns the sink's
/// exact serialized state alongside the run report.
fn run_stored(
    dir: &PathBuf,
    checkpoint_every: u64,
    resume: bool,
    kill: KillPoint,
) -> Result<(Vec<u8>, StoredRunReport), CampaignError> {
    let (cpu, entry) = fixture();
    let opts = StoreOptions {
        checkpoint_every,
        resume,
        kill,
        ..StoreOptions::new(dir, "crash-fixture", "hw-cpa")
    };
    let (sink, report) = campaign().run_stored(
        &cpu,
        entry,
        generate,
        stage,
        |samples| CpaSink::new(model(), 256, samples),
        &opts,
    )?;
    let mut state = Vec::new();
    sink.save_state(&mut state);
    Ok((state, report))
}

/// The uninterrupted stored reference for a checkpoint interval.
fn reference(checkpoint_every: u64) -> Vec<u8> {
    let dir = scratch("ref");
    let (state, report) =
        run_stored(&dir, checkpoint_every, false, KillPoint::None).expect("reference runs");
    assert_eq!(report.simulated, TRACES);
    assert_eq!(report.resumed_from, 0);
    let _ = std::fs::remove_dir_all(&dir);
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// The tentpole property: for any kill kind, kill position,
    /// torn-record length and checkpoint interval, kill-then-resume
    /// reproduces the uninterrupted stored run's sink byte-for-byte.
    #[test]
    fn any_kill_point_resumes_byte_identically(
        every in 1u64..20,
        at in 0..TRACES,
        kind in 0usize..3,
        keep in 0usize..48,
    ) {
        let kill = match kind {
            0 => KillPoint::AfterTrace(at),
            1 => KillPoint::MidPage { at, keep },
            _ => KillPoint::MidCheckpoint { at, keep },
        };
        let expected = reference(every);

        let dir = scratch("kill");
        let error = run_stored(&dir, every, false, kill)
            .expect_err("the kill point always fires before completion");
        prop_assert!(matches!(error, CampaignError::Killed { .. }), "{error}");

        let (state, report) = run_stored(&dir, every, true, KillPoint::None)
            .expect("resume completes");
        prop_assert_eq!(&state, &expected, "resumed sink diverged (kill {:?})", kill);
        // Whatever survived the crash, the resume point is a durable
        // checkpoint boundary at or before the campaign's end.
        prop_assert!(report.resumed_from <= TRACES);
        prop_assert_eq!(report.simulated, TRACES - report.resumed_from);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A torn tail on the *first* checkpoint record leaves no valid
/// checkpoint at all: resume must fall back to a from-scratch run and
/// still match the reference (torn-WAL-tail recovery).
#[test]
fn torn_first_checkpoint_resumes_from_scratch() {
    let every = 16;
    let expected = reference(every);
    let dir = scratch("torn_wal");
    let error = run_stored(
        &dir,
        every,
        false,
        KillPoint::MidCheckpoint { at: 0, keep: 3 },
    )
    .expect_err("torn checkpoint kills the run");
    assert!(matches!(error, CampaignError::Killed { .. }));

    let (state, report) = run_stored(&dir, every, true, KillPoint::None).expect("resumes");
    assert_eq!(
        report.resumed_from, 0,
        "a 3-byte checkpoint record must not validate"
    );
    assert_eq!(state, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn page slot (half-written trace record) is detected by the slot
/// checksum and rewritten on resume; the slot index right after a
/// checkpoint boundary is the awkward case — its checkpoint claims
/// nothing about it.
#[test]
fn half_written_page_slot_is_rewritten_on_resume() {
    let every = 12;
    let expected = reference(every);
    let dir = scratch("torn_page");
    // Trace 12 is the first of segment two; tear its record mid-write.
    let error = run_stored(&dir, every, false, KillPoint::MidPage { at: 12, keep: 5 })
        .expect_err("torn page kills the run");
    assert!(matches!(error, CampaignError::Killed { at: 12 }));

    let (state, report) = run_stored(&dir, every, true, KillPoint::None).expect("resumes");
    assert_eq!(report.resumed_from, 12, "segment one's checkpoint survives");
    assert_eq!(state, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming a store that already holds the whole campaign restores the
/// sink from its final checkpoint without simulating anything.
#[test]
fn fast_path_resume_of_a_complete_store_simulates_nothing() {
    let dir = scratch("fast_path");
    let (expected, first) = run_stored(&dir, 16, false, KillPoint::None).expect("first run");
    assert_eq!(first.simulated, TRACES);

    let (state, report) = run_stored(&dir, 16, true, KillPoint::None).expect("fast resume");
    assert_eq!(report.simulated, 0);
    assert_eq!(report.resumed_from, TRACES);
    assert_eq!(report.checkpoints, 0);
    assert_eq!(state, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Different checkpoint intervals re-associate the floating-point
/// folds, so sinks need not match bitwise across intervals — but the
/// discrete verdict (key ranking) must not move.
#[test]
fn checkpoint_interval_never_changes_the_verdict() {
    let run = |every: u64| {
        let dir = scratch("interval");
        let (cpu, entry) = fixture();
        let opts = StoreOptions {
            checkpoint_every: every,
            ..StoreOptions::new(&dir, "crash-fixture", "hw-cpa")
        };
        let (sink, _) = campaign()
            .run_stored(
                &cpu,
                entry,
                generate,
                stage,
                |samples| CpaSink::new(model(), 256, samples),
                &opts,
            )
            .expect("stored run completes");
        let _ = std::fs::remove_dir_all(&dir);
        sink.finish()
    };
    let reference = run(TRACES);
    for every in [1, 7, 13] {
        let other = run(every);
        assert_eq!(reference.best_guess(), other.best_guess(), "every {every}");
        assert_eq!(reference.ranking(), other.ranking(), "every {every}");
    }
}

/// An unstored run is a stored run's single segment: with
/// `checkpoint_every` covering the whole campaign, `run_stored` leaves
/// the accumulator bytes `run` leaves, for a CPA and a t-test sink
/// alike, at every lane and thread count.
#[test]
fn one_segment_stored_run_matches_the_unstored_run() {
    let (cpu, entry) = fixture();
    let sink = |samples| {
        (
            CpaSink::new(model(), 256, samples),
            TtestSink::new(|input: &[u8]| input[0] & 1 == 0, samples),
        )
    };
    for lanes in [1, 8] {
        for threads in [1, 2] {
            let campaign = campaign_with(threads).with_lanes(lanes);
            let unstored = campaign
                .run(&cpu, entry, generate, stage, sink)
                .expect("unstored run completes");
            let dir = scratch("one_segment");
            let opts = StoreOptions {
                checkpoint_every: TRACES,
                ..StoreOptions::new(&dir, "crash-fixture", "hw-cpa+tvla")
            };
            let (stored, report) = campaign
                .run_stored(&cpu, entry, generate, stage, sink, &opts)
                .expect("stored run completes");
            assert_eq!((report.simulated, report.checkpoints), (TRACES, 1));
            let (mut want, mut got) = (Vec::new(), Vec::new());
            unstored.save_state(&mut want);
            stored.save_state(&mut got);
            assert!(!want.is_empty());
            assert!(want == got, "lanes {lanes} threads {threads}: sinks differ");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
