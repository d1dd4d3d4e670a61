//! The telemetry determinism contract: *work counters* — traces
//! planned/simulated, simulator runs and walks, per-level cache
//! accesses and misses, store slots and checkpoint bytes — are a pure
//! function of the campaign, independent of how the work was scheduled.
//! Running the same campaign with 1 or 4 threads and with scalar or
//! 8-wide lockstep simulation must move every one of them by exactly
//! the same amount, through either engine (`Campaign` and
//! `ComponentCampaign`) and through the node audit.
//!
//! Observability counters (batch counts, lockstep/scalar split, page
//! pool statistics) deliberately *do* depend on scheduling and are
//! excluded from that property; one test pins instead how every engine
//! counts a lockstep block it retires.
//!
//! The tests read deltas of the process-global registry, so they
//! serialize on [`COUNTER_LOCK`]: two campaigns running concurrently
//! would blend their counter movements.

use std::sync::Mutex;

use proptest::prelude::*;

use superscalar_sca::analysis::{hw8, input_word, FnSelection};
use superscalar_sca::campaign::{
    Campaign, CampaignConfig, ComponentCampaign, CpaSink, Mergeable, ShardPlan, StoreOptions,
};
use superscalar_sca::core::{audit_program, AuditConfig, SecretModel};
use superscalar_sca::isa::{assemble, Program, Reg};
use superscalar_sca::power::{GaussianNoise, LeakageWeights, SamplingConfig};
use superscalar_sca::target::{
    portfolio, reanalyze_cpa, restore_cpa, store_dir_name, TargetCampaign, TargetCampaignConfig,
    TargetStoreConfig,
};
use superscalar_sca::telemetry::{self, Snapshot};
use superscalar_sca::uarch::{Cpu, NodeKind, UarchConfig};

/// Serializes global-counter delta measurements across tests.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// The work-counter allowlist: every name here must move identically
/// whatever the thread and lane counts. `campaign/batches`,
/// `campaign/lockstep_traces`, `campaign/scalar_traces`,
/// `campaign/blocks_poisoned` and the `store/page_*` family are
/// scheduling-dependent by design and absent deliberately.
const WORK_COUNTERS: &[&str] = &[
    "campaign/traces_planned",
    "campaign/traces_simulated",
    "power/simulator_runs",
    "power/walks",
    "power/samples",
    "power/samples_skipped",
    "uarch/cycles",
    "uarch/l1i/accesses",
    "uarch/l1i/misses",
    "uarch/l1d/accesses",
    "uarch/l1d/misses",
    "uarch/l2/accesses",
    "uarch/l2/misses",
    "store/slots_written",
    "store/checkpoint_bytes",
];

/// The campaign-determinism kernel, but on the *real* memory hierarchy
/// (caches enabled) so the `uarch/*` counters move: one staged load in
/// a trigger window. The template is warmed with one execution first —
/// the paper's steady-state methodology — so every trace runs from the
/// same cache state whether it executes on the reused scalar CPU or on
/// a freshly seeded lockstep lane. (A cold template would charge the
/// compulsory misses once per scalar arena but once per lane per
/// block, which is scheduling, not work.)
fn fixture() -> (Cpu, u32) {
    let program = kernel();
    let mut cpu = Cpu::new(UarchConfig::cortex_a7());
    cpu.load(&program).expect("fixture loads");
    cpu.set_reg(Reg::R10, 0x800);
    cpu.run(&mut superscalar_sca::uarch::NullObserver)
        .expect("warm-up run");
    (cpu, program.entry())
}

/// The fixture's kernel: one staged load in a trigger window.
fn kernel() -> Program {
    assemble(
        "
        trig #1
        ldr r1, [r10]
        nop
        nop
        trig #0
        halt
    ",
    )
    .expect("fixture assembles")
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

fn config(seed: u64, traces: usize, threads: usize) -> CampaignConfig {
    CampaignConfig {
        traces,
        executions_per_trace: 2,
        sampling: SamplingConfig::per_cycle(),
        noise: GaussianNoise {
            sd: 0.5,
            baseline: 1.0,
        },
        seed,
        threads,
        batch: 8,
    }
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

/// A `ComponentCampaign` sink that only counts its traces.
struct Traces(usize);

impl Mergeable for Traces {
    fn merge(&mut self, other: Traces) {
        self.0 += other.0;
    }
}

/// The fixture's per-component campaign: two channels over the
/// trigger window's first four cycles, two executions per trace.
fn component_campaign(seed: u64, traces: usize, threads: usize, lanes: usize) {
    let (cpu, entry) = fixture();
    let counted = ComponentCampaign {
        components: &[NodeKind::Mdr, NodeKind::ExWbBuffer],
        window: (0, 4),
        seed,
        noise: GaussianNoise {
            sd: 0.5,
            baseline: 1.0,
        },
        executions: 2,
        lanes,
        plan: ShardPlan {
            items: traces,
            threads,
            batch: 8,
        },
    }
    .run(
        &cpu,
        entry,
        generate,
        stage,
        || Traces(0),
        |sink, _, _| sink.0 += 1,
    )
    .expect("component campaign runs");
    assert_eq!(counted.0, traces);
}

/// The fixture's kernel audited over a window that ends cycles before
/// the kernel does, so every execution but the first stops early and
/// execution 0 walks on past it alone.
fn audit(seed: u64, executions: usize, threads: usize, lanes: usize) {
    let report = audit_program(
        &UarchConfig::cortex_a7(),
        &kernel(),
        4,
        |cpu: &mut Cpu, input: &[u8]| {
            cpu.set_reg(Reg::R10, 0x800);
            stage(cpu, input);
        },
        &[SecretModel::new("HW(word)", |input: &[u8]| {
            f64::from(input_word(input, 0).count_ones())
        })],
        &AuditConfig {
            executions,
            seed,
            window: Some((1, 4)),
            threads,
            lanes,
            ..AuditConfig::default()
        },
    )
    .expect("audit runs");
    assert_eq!(report.executions, executions);
}

/// The allowlisted counter movements caused by `run`.
fn deltas(run: impl FnOnce()) -> Vec<(&'static str, u64)> {
    let before = telemetry::global().snapshot();
    run();
    let after: Snapshot = telemetry::global().snapshot();
    WORK_COUNTERS
        .iter()
        .map(|name| (*name, after.counter_delta(&before, name)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// Property: for any seed and campaign size, the work-counter
    /// deltas of `--threads {1,4} x --lanes {1,8}` are element-wise
    /// identical, and the campaign actually did the work it planned —
    /// for both engines and the audit.
    #[test]
    fn work_counters_are_thread_and_lane_invariant(
        seed in 0u64..1_000_000,
        traces in 24usize..64,
    ) {
        let _guard = COUNTER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (cpu, entry) = fixture();
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            for lanes in [1usize, 8] {
                let moved = deltas(|| {
                    Campaign::new(LeakageWeights::cortex_a7(), config(seed, traces, threads))
                        .with_lanes(lanes)
                        .with_window(1, 2)
                        .run(&cpu, entry, generate, stage, sink)
                        .expect("campaign runs");
                });
                let component = deltas(|| component_campaign(seed, traces, threads, lanes));
                let audited = deltas(|| audit(seed, traces, threads, lanes));
                runs.push((threads, lanes, [moved, component, audited]));
            }
        }
        let (_, _, first) = &runs[0];
        let [reference, component, audited] = first;
        // The campaign did what it planned: all traces simulated, the
        // probe plus two executions per trace through the simulator,
        // and the load kernel touched the data cache.
        let get = |name: &str| {
            reference.iter().find(|(n, _)| *n == name).expect("allowlisted").1
        };
        prop_assert_eq!(get("campaign/traces_planned"), traces as u64);
        prop_assert_eq!(get("campaign/traces_simulated"), traces as u64);
        prop_assert_eq!(get("power/simulator_runs"), 1 + 2 * traces as u64);
        // Window clipping engaged: two executions keep two samples
        // each, and the rest of every execution was never synthesized.
        prop_assert_eq!(get("power/samples"), 2 * 2 * traces as u64);
        prop_assert!(get("power/samples_skipped") > 0, "clipping skipped nothing");
        prop_assert!(get("uarch/l1d/accesses") > 0, "load kernel must hit L1D");
        prop_assert!(get("uarch/l1i/accesses") > 0, "fetch must hit L1I");
        // The component engine publishes its walks, with no probe, and
        // neither plans traces nor synthesizes samples.
        let component = |name: &str| {
            component.iter().find(|(n, _)| *n == name).expect("allowlisted").1
        };
        prop_assert_eq!(component("power/simulator_runs"), 2 * traces as u64);
        prop_assert!(component("power/walks") > 0, "the component engine must walk");
        prop_assert!(component("uarch/cycles") > 0, "walks must count their cycles");
        prop_assert!(component("uarch/l1d/accesses") > 0, "load kernel must hit L1D");
        for name in ["campaign/traces_planned", "campaign/traces_simulated", "power/samples"] {
            prop_assert_eq!(component(name), 0, "{} moved", name);
        }
        // The audit publishes the same: one walk per execution.
        let audited = |name: &str| {
            audited.iter().find(|(n, _)| *n == name).expect("allowlisted").1
        };
        prop_assert_eq!(audited("power/simulator_runs"), traces as u64);
        prop_assert_eq!(audited("power/walks"), traces as u64);
        prop_assert!(audited("uarch/cycles") > 0, "walks must count their cycles");
        prop_assert!(audited("uarch/l1d/accesses") > 0, "load kernel must hit L1D");
        for name in ["campaign/traces_planned", "campaign/traces_simulated", "power/samples"] {
            prop_assert_eq!(audited(name), 0, "{} moved", name);
        }
        for (threads, lanes, moved) in &runs[1..] {
            prop_assert_eq!(
                first, moved,
                "threads {} lanes {} moved different work counters", threads, lanes
            );
        }
    }
}

/// A campaign's probe walks once, and its walk's cache accesses count
/// with it: a campaign of no traces moves `power/walks` by one and the
/// cache counters with it.
#[test]
fn the_probe_publishes_its_cache_accesses() {
    let _guard = COUNTER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (cpu, entry) = fixture();
    let moved = deltas(|| {
        Campaign::new(LeakageWeights::cortex_a7(), config(7, 0, 1))
            .run(&cpu, entry, generate, stage, sink)
            .expect("campaign runs");
    });
    let get = |name: &str| {
        moved
            .iter()
            .find(|(n, _)| *n == name)
            .expect("allowlisted")
            .1
    };
    assert_eq!(get("power/walks"), 1);
    assert!(get("uarch/cycles") > 0);
    assert!(get("uarch/l1i/accesses") > 0, "the probe fetches");
    assert!(get("uarch/l1d/accesses") > 0, "the probe loads");
}

/// The same invariance through the persistent-store path: a stored
/// campaign writes the same slots and checkpoint bytes no matter how
/// it was scheduled. (Fsync and page-pool counts are scheduling- and
/// cache-pressure-dependent, so they stay off the allowlist.)
#[test]
fn stored_campaigns_write_identical_work_counters() {
    let _guard = COUNTER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (cpu, entry) = fixture();
    let base = std::env::temp_dir().join(format!("sca_telemetry_det_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut reference: Option<Vec<(&'static str, u64)>> = None;
    for (threads, lanes) in [(1usize, 1usize), (4, 8)] {
        let dir = base.join(format!("t{threads}l{lanes}"));
        let opts = StoreOptions {
            checkpoint_every: 16,
            ..StoreOptions::new(&dir, "telemetry-fixture", "hw-cpa")
        };
        let moved = deltas(|| {
            Campaign::new(LeakageWeights::cortex_a7(), config(7, 48, threads))
                .with_lanes(lanes)
                .run_stored(&cpu, entry, generate, stage, sink, &opts)
                .expect("stored campaign runs");
        });
        let slots = moved
            .iter()
            .find(|(n, _)| *n == "store/slots_written")
            .expect("allowlisted")
            .1;
        assert_eq!(
            slots, 48,
            "threads {threads} lanes {lanes}: one slot per trace"
        );
        match &reference {
            None => reference = Some(moved),
            Some(reference) => assert_eq!(
                reference, &moved,
                "threads {threads} lanes {lanes} moved different work counters"
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// A bounded stored run — the campaign server's job slice — plans what
/// it simulates: a 16-trace slice over 64-trace segments runs one whole
/// segment, and `campaign/traces_planned` moves with
/// `campaign/traces_simulated`.
#[test]
fn a_bounded_slice_plans_what_it_simulates() {
    let _guard = COUNTER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (cpu, entry) = fixture();
    let dir = std::env::temp_dir().join(format!("sca_telemetry_slice_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions {
        checkpoint_every: 64,
        ..StoreOptions::new(&dir, "telemetry-fixture", "hw-cpa")
    };
    let mut report = None;
    let moved = deltas(|| {
        let (_, slice) = Campaign::new(LeakageWeights::cortex_a7(), config(7, 150, 2))
            .run_stored_bounded(&cpu, entry, generate, stage, sink, &opts, 16)
            .expect("slice runs");
        report = Some(slice);
    });
    let _ = std::fs::remove_dir_all(&dir);
    let get = |name: &str| {
        moved
            .iter()
            .find(|(n, _)| *n == name)
            .expect("allowlisted")
            .1
    };
    assert_eq!(report.map(|r| r.simulated), Some(64));
    assert_eq!(get("campaign/traces_simulated"), 64);
    assert_eq!(
        get("campaign/traces_planned"),
        get("campaign/traces_simulated"),
        "the slice planned other than it simulated"
    );
}

/// How far `run` moves `store/wal_scans`, the reads of an existing
/// checkpoint log.
fn log_scans(run: impl FnOnce()) -> u64 {
    let before = telemetry::global().snapshot();
    run();
    telemetry::global()
        .snapshot()
        .counter_delta(&before, "store/wal_scans")
}

/// A stored run reads its checkpoint log at most once: a fresh run
/// never reads it, a resumed slice over several checkpoints reads it
/// once and appends to it without reading it again, a restore reads it
/// once, and a re-analysis not at all.
#[test]
fn a_stored_run_scans_its_checkpoint_log_at_most_once() {
    let _guard = COUNTER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let base = std::env::temp_dir().join(format!("sca_telemetry_scans_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let (cpu, entry) = fixture();
    let slice = |resume: bool| {
        let opts = StoreOptions {
            checkpoint_every: 16,
            resume,
            ..StoreOptions::new(base.join("fixture"), "telemetry-fixture", "hw-cpa")
        };
        let (_, report) = Campaign::new(LeakageWeights::cortex_a7(), config(7, 96, 2))
            .run_stored_bounded(&cpu, entry, generate, stage, sink, &opts, 48)
            .expect("slice runs");
        report
    };
    assert_eq!(log_scans(|| assert_eq!(slice(false).checkpoints, 3)), 0);
    let resumed = log_scans(|| {
        let report = slice(true);
        assert_eq!((report.resumed_from, report.checkpoints), (48, 3));
    });
    assert_eq!(resumed, 1, "a resumed slice read its log {resumed} times");

    let target = portfolio().into_iter().nth(2).expect("a third target");
    let model = target.models().remove(0);
    let campaign = TargetCampaign::new(
        target.as_ref(),
        &UarchConfig::cortex_a7(),
        TargetCampaignConfig {
            traces: 8,
            executions_per_trace: 1,
            seed: 7,
            threads: 1,
            batch: 4,
            ..TargetCampaignConfig::default()
        },
    )
    .expect("campaign builds");
    let store = TargetStoreConfig {
        checkpoint_every: 4,
        ..TargetStoreConfig::new(&base)
    };
    let dir = base.join(store_dir_name(target.name(), &model.name));
    let fresh = log_scans(|| drop(campaign.cpa_stored(&model, &store).expect("stored run")));
    assert_eq!(fresh, 0, "a fresh stored run read its log");
    let restored = log_scans(|| assert!(restore_cpa(&dir, &model).expect("restores").is_some()));
    assert_eq!(restored, 1, "a restore read the log {restored} times");
    let reanalyzed = log_scans(|| drop(reanalyze_cpa(&dir, &model).expect("re-analyzes")));
    assert_eq!(reanalyzed, 0, "a re-analysis read the log");
    let _ = std::fs::remove_dir_all(&base);
}

/// A kernel whose timing follows its input: `r1 & 7` + 1 turns of a
/// `subs`/`bne` spin inside the trigger window, so lanes with
/// different inputs leave lockstep. Loaded and warmed with `r1 = 0`.
fn divergent_fixture() -> (Program, Cpu) {
    let program = assemble(
        "
        trig #1
        eor r3, r1, r1, ror #7
        and r2, r1, #7
        add r2, r2, #1
spin:   subs r2, r2, #1
        bne spin
        mov r4, r3
        nop
        nop
        trig #0
        halt
    ",
    )
    .expect("divergent kernel assembles");
    let mut cpu = Cpu::new(UarchConfig::cortex_a7());
    cpu.load(&program).expect("divergent kernel loads");
    cpu.run(&mut superscalar_sca::uarch::NullObserver)
        .expect("warm-up run");
    (program, cpu)
}

fn stage_r1(cpu: &mut Cpu, input: &[u8]) {
    cpu.set_reg(Reg::R1, input_word(input, 0));
}

/// Every engine retires a diverged lockstep block through the same
/// step: at 8 lanes and one worker, a divergent kernel moves
/// `campaign/blocks_poisoned` by exactly one through `Campaign`,
/// `ComponentCampaign` and the node audit alike. Only `Campaign`'s
/// traces are split into lockstep and scalar ones; the other two leave
/// that split alone.
#[test]
fn every_engine_counts_its_poisoned_block() {
    let _guard = COUNTER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (program, cpu) = divergent_fixture();
    let entry = program.entry();
    let moved = |run: &dyn Fn()| {
        let before = telemetry::global().snapshot();
        run();
        let after = telemetry::global().snapshot();
        [
            "campaign/blocks_poisoned",
            "campaign/lockstep_traces",
            "campaign/scalar_traces",
        ]
        .map(|name| after.counter_delta(&before, name))
    };

    let [poisoned, lockstep, scalar] = moved(&|| {
        Campaign::new(LeakageWeights::cortex_a7(), config(11, 16, 1))
            .with_lanes(8)
            .run(&cpu, entry, generate, stage_r1, sink)
            .expect("campaign runs");
    });
    assert_eq!(poisoned, 1, "Campaign");
    assert_eq!(lockstep + scalar, 16, "Campaign splits every trace");

    let characterized = moved(&|| {
        ComponentCampaign {
            components: &[NodeKind::IsExBuffer, NodeKind::Alu],
            window: (0, 32),
            seed: 11,
            noise: GaussianNoise::bare_metal(),
            executions: 2,
            lanes: 8,
            plan: ShardPlan {
                items: 16,
                threads: 1,
                batch: 8,
            },
        }
        .run(
            &cpu,
            entry,
            generate,
            stage_r1,
            || Traces(0),
            |sink, _, _| sink.0 += 1,
        )
        .expect("component campaign runs");
    });
    assert_eq!(characterized, [1, 0, 0], "ComponentCampaign");

    let audited = moved(&|| {
        audit_program(
            &UarchConfig::cortex_a7(),
            &program,
            4,
            stage_r1,
            &[SecretModel::new("HW(r1)", |input: &[u8]| {
                f64::from(input_word(input, 0).count_ones())
            })],
            &AuditConfig {
                executions: 16,
                seed: 11,
                threads: 1,
                lanes: 8,
                ..AuditConfig::default()
            },
        )
        .expect("audit runs");
    });
    assert_eq!(audited, [1, 0, 0], "audit");
}
