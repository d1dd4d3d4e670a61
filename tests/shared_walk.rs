//! Campaigns whose traces average several executions, against pinned
//! per-trace hashes.
//!
//! Every hash below is FNV-1a over the `f32` bit patterns of one trace
//! (of every channel, in order, for the per-component engine), taken
//! from the code that walked the pipeline once per execution. A
//! campaign must reproduce them bit for bit at every lane and thread
//! count, however it shares walks between the executions of a trace.
//!
//! The cases cover each portfolio target at its CPA-union and TVLA
//! windows, a window starting at the trigger, one ending at the last
//! sample and the unclipped trace; `ComponentCampaign` at narrow cycle
//! windows; and the input-dependent programs of `tests/horizon_timing.rs`
//! — each at 1, 3 and 8 executions per trace.
//!
//! To print the hashes of the current code instead of checking them,
//! run with `SHARED_WALK_PRINT=1` and `--nocapture`.
//!
//! One case cannot be pinned that way: a program that counts its
//! executions in memory, whose traces depended on what ran before them
//! until every trace started from the template. It must walk every
//! execution and agree with itself across lanes and threads.

use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use rand::rngs::StdRng;
use rand::Rng;

use sca_target::{portfolio, resolve_window, CipherTarget, WindowHint};
use superscalar_sca::campaign::{Campaign, CampaignConfig, ComponentCampaign, ShardPlan};
use superscalar_sca::isa::{assemble, Reg};
use superscalar_sca::power::{
    AcquisitionConfig, GaussianNoise, LeakageWeights, SamplingConfig, TraceSet, TraceSynthesizer,
};
use superscalar_sca::telemetry::{self, Snapshot};
use superscalar_sca::uarch::{Cpu, NodeKind, NullObserver, UarchConfig};

/// Traces per campaign: a partial lockstep group at 8 lanes, and at two
/// threads a two-lane group plus a lone trace.
const TRACES: usize = 3;

/// Executions averaged per trace.
const EXECUTIONS: [usize; 3] = [1, 3, 8];

/// `(lanes, threads)` settings every case runs at.
const SETTINGS: [(usize, usize); 4] = [(1, 1), (8, 1), (1, 2), (8, 2)];

/// Keeps campaigns off the process-global counters while the counter
/// case reads their deltas.
static COUNTERS: RwLock<()> = RwLock::new(());

/// Held by every pinned case while it runs campaigns.
fn campaigning() -> RwLockReadGuard<'static, ()> {
    COUNTERS.read().unwrap_or_else(PoisonError::into_inner)
}

/// FNV-1a over the bit patterns of `series`, in order.
fn fnv(series: &[&[f32]]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for values in series {
        for value in *values {
            for byte in value.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

fn hashes(set: &TraceSet) -> Vec<u64> {
    set.iter().map(|(_, trace)| fnv(&[trace])).collect()
}

/// Per-trace hashes over every channel, given one set per channel.
fn channel_hashes(sets: &[TraceSet]) -> Vec<u64> {
    let channels: Vec<Vec<&[f32]>> = sets
        .iter()
        .map(|set| set.iter().map(|(_, trace)| trace).collect())
        .collect();
    (0..sets.first().map_or(0, TraceSet::len))
        .map(|t| fnv(&channels.iter().map(|c| c[t]).collect::<Vec<_>>()))
        .collect()
}

/// A `ComponentCampaign` sink: one set per channel. (The engine hands
/// its absorb hook the sink itself, `&mut K`.)
#[allow(clippy::ptr_arg)]
fn absorb_channels(sets: &mut Vec<TraceSet>, input: &[u8], channels: &[Vec<f32>]) {
    for (set, channel) in sets.iter_mut().zip(channels) {
        set.push(channel.clone(), input.to_vec());
    }
}

/// Checks `got` against the pin of `case`, or prints it.
fn check(case: &str, context: &str, got: &[u64]) {
    if std::env::var_os("SHARED_WALK_PRINT").is_some() {
        if context.ends_with("lanes 1 threads 1") {
            let list: Vec<String> = got.iter().map(|h| format!("0x{h:016x}")).collect();
            println!("    (\"{case}\", [{}]),", list.join(", "));
        }
        return;
    }
    let want = PINS
        .iter()
        .find(|(name, _)| *name == case)
        .unwrap_or_else(|| panic!("{case}: no pin"))
        .1;
    assert_eq!(got, want, "{case} at {context}");
}

fn config(executions: usize, threads: usize, seed: u64) -> CampaignConfig {
    CampaignConfig {
        traces: TRACES,
        executions_per_trace: executions,
        sampling: SamplingConfig::picoscope_500msps_120mhz(),
        noise: GaussianNoise::bare_metal(),
        seed,
        threads,
        batch: 2,
    }
}

/// One program under test: its warmed template, entry, input generator
/// and staging.
struct Subject<'a> {
    name: &'a str,
    template: &'a Cpu,
    entry: u32,
    generate: &'a (dyn Fn(&mut StdRng, usize) -> Vec<u8> + Sync),
    stage: &'a (dyn Fn(&mut Cpu, &[u8]) + Sync),
}

impl Subject<'_> {
    /// Samples of the probe's trigger window: what every campaign window
    /// is clamped to.
    fn samples(&self) -> usize {
        TraceSynthesizer::new(
            LeakageWeights::cortex_a7(),
            AcquisitionConfig {
                traces: 1,
                executions_per_trace: 1,
                sampling: SamplingConfig::picoscope_500msps_120mhz(),
                noise: GaussianNoise::bare_metal(),
                seed: 0,
                threads: 1,
            },
        )
        .probe_samples(self.template, self.entry, &self.generate, &self.stage)
        .expect("probe runs")
    }

    /// Runs every execution count and setting at `window` (`None`:
    /// unclipped, through `run_with`), checking each against its pin.
    fn check_window(&self, label: &str, window: Option<(usize, usize)>, seed: u64) {
        let _campaigning = campaigning();
        for executions in EXECUTIONS {
            let case = format!("{}/{label}/e{executions}", self.name);
            for (lanes, threads) in SETTINGS {
                let campaign = Campaign::new(
                    LeakageWeights::cortex_a7(),
                    config(executions, threads, seed),
                )
                .with_lanes(lanes);
                let set = match window {
                    Some((start, len)) => campaign.with_window(start, len).run(
                        self.template,
                        self.entry,
                        self.generate,
                        self.stage,
                        TraceSet::new,
                    ),
                    None => campaign.run_with(
                        self.template,
                        self.entry,
                        self.generate,
                        self.stage,
                        |_: &mut StdRng, _: &mut Vec<f64>| {},
                        TraceSet::new,
                    ),
                }
                .expect("campaign runs");
                assert_eq!(set.len(), TRACES, "{case}");
                check(
                    &case,
                    &format!("lanes {lanes} threads {threads}"),
                    &hashes(&set),
                );
            }
        }
    }
}

/// A target's CPA union window and its TVLA window, in samples.
fn campaign_windows(target: &dyn CipherTarget, template: &Cpu) -> [(usize, usize); 2] {
    let sampling = SamplingConfig::picoscope_500msps_120mhz();
    let samples = |hint: &WindowHint| {
        let (start, len) = resolve_window(target, template, hint)
            .expect("window resolves")
            .trigger_relative;
        sampling.window_to_samples(start, len)
    };
    let models: Vec<(usize, usize)> = target.models().iter().map(|m| samples(&m.window)).collect();
    let start = models.iter().map(|w| w.0).min().expect("models");
    let end = models.iter().map(|w| w.0 + w.1).max().expect("models");
    [(start, end - start), samples(&target.primary_window())]
}

fn check_target(name: &str) {
    let targets = portfolio();
    let target = targets
        .iter()
        .find(|t| t.name() == name)
        .expect("portfolio target")
        .as_ref();
    let template = target.build(&UarchConfig::cortex_a7()).expect("builds");
    let generate = |rng: &mut StdRng, index: usize| target.generate(rng, index);
    let stage = |cpu: &mut Cpu, input: &[u8]| target.stage(cpu, input);
    let subject = Subject {
        name,
        template: &template,
        entry: target.program().entry(),
        generate: &generate,
        stage: &stage,
    };
    let full = subject.samples();
    let [union, tvla] = campaign_windows(target, &template);
    let seed = 0x5a4e_d000 ^ name.len() as u64;
    subject.check_window("cpa-union", Some(union), seed);
    subject.check_window("tvla", Some(tvla), seed);
    subject.check_window("from-trigger", Some((0, 40)), seed);
    subject.check_window("to-end", Some((full - 40, 40)), seed);
    subject.check_window("unclipped", None, seed);
}

#[test]
fn aes128_matches_one_walk_per_execution() {
    check_target("aes128");
}

#[test]
fn aes128_masked_matches_one_walk_per_execution() {
    check_target("aes128-masked");
}

#[test]
fn present80_matches_one_walk_per_execution() {
    check_target("present80");
}

#[test]
fn speck64128_matches_one_walk_per_execution() {
    check_target("speck64128");
}

#[test]
fn component_campaigns_match_one_walk_per_execution() {
    let targets = portfolio();
    let target = targets
        .iter()
        .find(|t| t.name() == "present80")
        .expect("portfolio registers present80")
        .as_ref();
    let template = target.build(&UarchConfig::cortex_a7()).expect("builds");
    let (start, len) = resolve_window(target, &template, &target.primary_window())
        .expect("window resolves")
        .trigger_relative;
    let windows = [
        ("primary", (start as usize, len as usize)),
        ("from-trigger", (0, 6)),
        ("narrow", (start as usize + 3, 4)),
    ];
    let _campaigning = campaigning();
    for (label, window) in windows {
        for executions in EXECUTIONS {
            let case = format!("component/{label}/e{executions}");
            for (lanes, threads) in SETTINGS {
                let traces = ComponentCampaign {
                    components: &NodeKind::ALL,
                    window,
                    seed: 0xc0_3903,
                    noise: GaussianNoise::bare_metal(),
                    executions,
                    lanes,
                    plan: ShardPlan {
                        items: TRACES,
                        threads,
                        batch: 2,
                    },
                }
                .run(
                    &template,
                    target.program().entry(),
                    |rng, index| target.generate(rng, index),
                    |cpu, input| target.stage(cpu, input),
                    || vec![TraceSet::new(window.1); NodeKind::COUNT],
                    absorb_channels,
                )
                .expect("component campaign runs");
                check(
                    &case,
                    &format!("lanes {lanes} threads {threads}"),
                    &channel_hashes(&traces),
                );
            }
        }
    }
}

/// The input-dependent loop of `tests/horizon_timing.rs`.
const LOOP: &str = "
        and r2, r1, #7
        add r2, r2, #1
spin:   subs r2, r2, #1
        bne spin
";

/// Straight-line activity on the input.
const MIX: &str = "
        eor r3, r1, r1, ror #7
        mov r4, r3
        add r5, r3, r1
";

#[test]
fn input_dependent_timing_matches_one_walk_per_execution() {
    let nops = |n: usize| "        nop\n".repeat(n);
    let programs = [
        (
            "loop-in-window",
            format!(
                "trig #1\n{MIX}{LOOP}{}        trig #0\n        halt\n",
                nops(80)
            ),
            48,
        ),
        (
            "loop-after-window",
            format!(
                "trig #1\n{MIX}{}{LOOP}{}        trig #0\n        halt\n",
                nops(80),
                nops(8)
            ),
            12,
        ),
    ];
    let generate = |rng: &mut StdRng, _: usize| rng.gen::<u32>().to_le_bytes().to_vec();
    let stage = |cpu: &mut Cpu, input: &[u8]| {
        cpu.set_reg(
            Reg::R1,
            u32::from_le_bytes(input.try_into().expect("4 bytes")),
        );
    };
    for (name, source, cycles) in programs {
        let program = assemble(&source).expect("assembles");
        let mut template = Cpu::new(UarchConfig::cortex_a7());
        template.load(&program).expect("loads");
        template.run(&mut NullObserver).expect("warm-up runs");
        let subject = Subject {
            name,
            template: &template,
            entry: program.entry(),
            generate: &generate,
            stage: &stage,
        };
        let window = SamplingConfig::picoscope_500msps_120mhz().window_to_samples(0, cycles);
        subject.check_window("clipped", Some(window), 0x7e57);
        subject.check_window("unclipped", None, 0x7e57);
    }
}

/// A program that counts its executions in a memory word and reads the
/// count inside its window: each execution starts from other memory
/// than the last walk did, so every one walks (`power/walks` equals
/// `power/simulator_runs`, and `campaign/walk_fallbacks` moves), in both
/// engines. The counter restarts at every trace, so the traces agree at
/// every lane and thread count.
#[test]
fn an_execution_counter_in_memory_walks_every_execution() {
    let _counters = COUNTERS.write().unwrap_or_else(PoisonError::into_inner);
    let program = assemble(&format!(
        "
        adr r10, count
        trig #1
        ldr r0, [r10]
        add r0, r0, #1
        str r0, [r10]
        eor r3, r0, r1, ror #3
        mov r4, r3
{}        trig #0
        halt
        .org 0x200
count:  .word 0
",
        "        nop\n".repeat(12)
    ))
    .expect("assembles");
    let mut template = Cpu::new(UarchConfig::cortex_a7());
    template.load(&program).expect("loads");
    template.run(&mut NullObserver).expect("warm-up runs");
    let generate = |rng: &mut StdRng, _: usize| rng.gen::<u32>().to_le_bytes().to_vec();
    let stage = |cpu: &mut Cpu, input: &[u8]| {
        cpu.set_reg(
            Reg::R1,
            u32::from_le_bytes(input.try_into().expect("4 bytes")),
        );
    };
    let (traces, executions) = (7, 4);
    let window = SamplingConfig::picoscope_500msps_120mhz().window_to_samples(0, 16);
    let mut reference: Option<(Vec<u64>, Vec<u64>)> = None;
    for lanes in [1, 3, 8] {
        for threads in [1, 2] {
            let context = format!("lanes {lanes} threads {threads}");
            let before = telemetry::global().snapshot();
            let set = Campaign::new(
                LeakageWeights::cortex_a7(),
                CampaignConfig {
                    traces,
                    ..config(executions, threads, 0xc0_47e2)
                },
            )
            .with_lanes(lanes)
            .with_window(window.0, window.1)
            .run(&template, program.entry(), generate, stage, TraceSet::new)
            .expect("campaign runs");
            let moved = |after: &Snapshot, name: &str| after.counter_delta(&before, name);
            let after = telemetry::global().snapshot();
            let runs = moved(&after, "power/simulator_runs");
            assert_eq!(runs, 1 + (traces * executions) as u64, "{context}");
            assert_eq!(moved(&after, "power/walks"), runs, "{context}");
            let fallbacks = moved(&after, "campaign/walk_fallbacks");
            assert_eq!(fallbacks, (traces * (executions - 2)) as u64, "{context}");

            let channels = ComponentCampaign {
                components: &[NodeKind::Mdr, NodeKind::ExWbBuffer],
                window: (0, 12),
                seed: 0xc0_47e2,
                noise: GaussianNoise::bare_metal(),
                executions,
                lanes,
                plan: ShardPlan {
                    items: traces,
                    threads,
                    batch: 2,
                },
            }
            .run(
                &template,
                program.entry(),
                generate,
                stage,
                || vec![TraceSet::new(12); 2],
                absorb_channels,
            )
            .expect("component campaign runs");
            let later = telemetry::global().snapshot();
            assert_eq!(
                later.counter_delta(&after, "campaign/walk_fallbacks"),
                fallbacks,
                "{context}: the component engine"
            );
            let component_runs = later.counter_delta(&after, "power/simulator_runs");
            assert_eq!(
                component_runs,
                (traces * executions) as u64,
                "{context}: the component engine"
            );
            assert_eq!(
                later.counter_delta(&after, "power/walks"),
                component_runs,
                "{context}: the component engine"
            );
            let got = (hashes(&set), channel_hashes(&channels));
            match &reference {
                None => reference = Some(got),
                Some(reference) => assert_eq!(&got, reference, "{context}"),
            }
        }
    }
}

/// Per-trace hashes, by `subject/window/e<executions>`.
#[rustfmt::skip]
const PINS: &[(&str, [u64; TRACES])] = &[
    ("aes128-masked/cpa-union/e1", [0x6464211c3498f66e, 0x7ffcc6f748fd71ad, 0xcdb983178032af3d]),
    ("aes128-masked/cpa-union/e3", [0x8c98fba9ad766a76, 0x868a7d7703e0f876, 0xcecf77f354ce9987]),
    ("aes128-masked/cpa-union/e8", [0xd92ffaa03cbc0be7, 0x5d1c7ccfef9841a4, 0x55f9d1478ab16bb9]),
    ("aes128-masked/tvla/e1", [0xa892acf433ccfcb1, 0x74a5426315baac48, 0x62ab127d43b06e69]),
    ("aes128-masked/tvla/e3", [0x4dd81d6c5be823a3, 0x3cdfea68ab547549, 0x9a18bfd62f1e7d1e]),
    ("aes128-masked/tvla/e8", [0xd70308a0467c297e, 0xeb44f8fc6f3c2bee, 0x3f5f039810534ae0]),
    ("aes128-masked/from-trigger/e1", [0x26ad08438db5169f, 0x72bff9dadbb775a7, 0x5bbc8dfc01f885ff]),
    ("aes128-masked/from-trigger/e3", [0x3e56cce67106d66e, 0xfe418ba7cc91a34e, 0xd2ded2a4173a0091]),
    ("aes128-masked/from-trigger/e8", [0x46be902bf0fb9007, 0xa0f3d10c0b01862f, 0x02c951ad90c61e5b]),
    ("aes128-masked/to-end/e1", [0xa04aebbed78587a2, 0xfddff7f18919b8fd, 0x7dde154b64045b20]),
    ("aes128-masked/to-end/e3", [0x579daacf5025b59d, 0x5440234693e22d2b, 0x38e89e456842e884]),
    ("aes128-masked/to-end/e8", [0xf66182e62e88230a, 0xc4fbc6385baf36e8, 0x2309088273ed8291]),
    ("aes128-masked/unclipped/e1", [0x012d65d6490f7143, 0xa74ce1a794c1d293, 0xe1def5fc1033d7fd]),
    ("aes128-masked/unclipped/e3", [0x3971e25c531c7206, 0xbd3574d4b3cc5add, 0x8e232100283707d0]),
    ("aes128-masked/unclipped/e8", [0xb79f0a261e296de6, 0x32938d259e5f19c6, 0xd79fbfd68ba9b8ec]),
    ("aes128/cpa-union/e1", [0x97985aceb54a1af4, 0x496c4ba5f3d45028, 0x821721d6969e0177]),
    ("aes128/cpa-union/e3", [0x680f1f55c42ddfac, 0x240fecd2ab69a068, 0x02246c0af649fb0f]),
    ("aes128/cpa-union/e8", [0xb5fafe8dbcbfcdc5, 0x785898129ba35e66, 0x31c167d96dc0249b]),
    ("aes128/tvla/e1", [0x61e75a77bbf84179, 0xadcd1d621a3dd04d, 0x12fe5dd4752b2915]),
    ("aes128/tvla/e3", [0x817ed90f88ce1d87, 0x0a6084e6aeb6dbc9, 0x59ce52f0649199c1]),
    ("aes128/tvla/e8", [0x3c920a5ed4d498c5, 0x5051dc6d22d3f7b6, 0x345bd6fa84b32332]),
    ("aes128/from-trigger/e1", [0x6e68f61d9f0b2669, 0xde27ca0e23c7677f, 0xbd3887d017300cbb]),
    ("aes128/from-trigger/e3", [0x9ecd9759b9ca8769, 0x99539fc4749cea66, 0x4d7a6cc1937c409b]),
    ("aes128/from-trigger/e8", [0x311052e1eb4221a0, 0x98d8461f3ad563c1, 0x801d9d37a5f99044]),
    ("aes128/to-end/e1", [0x3ae3e0499d3cc192, 0x5afdb83702093010, 0xde34334dad990912]),
    ("aes128/to-end/e3", [0xf22192a71e3cb5fe, 0x7ee1ef91ea507b66, 0xd3e022e09a1ad5de]),
    ("aes128/to-end/e8", [0xfea1fecf3819fda8, 0x2257e38bd6173c21, 0xc154cb7088840231]),
    ("aes128/unclipped/e1", [0x277dac2f494fc224, 0xa7789e5e0b44dcce, 0x68612d0815dfc07d]),
    ("aes128/unclipped/e3", [0x5783b72d916583b4, 0x573e8381de7f76c3, 0x4c39f692ab803762]),
    ("aes128/unclipped/e8", [0x22984b15fc0bc4c3, 0x0f3f86b22c72c90f, 0x04cc6da1f67c1511]),
    ("component/primary/e1", [0xf1b72c22ff7c157b, 0x9de425db79434c1b, 0x14009360496230d0]),
    ("component/primary/e3", [0x0339198c20e80e0a, 0x3e8c53d3f69f5329, 0x2a0e408f91425f79]),
    ("component/primary/e8", [0x0718c4cfee1d51ff, 0x02e7d8852db1fb51, 0x398f6756e471fc9a]),
    ("component/from-trigger/e1", [0xdbfe98a67e8adb38, 0x9578f0c23bb148b1, 0x9e81e95ff94ce2c4]),
    ("component/from-trigger/e3", [0x107997d78b8da3d5, 0xdc1627d8c9dead9c, 0xdb5190b538fee3cf]),
    ("component/from-trigger/e8", [0x7d8a447077002a9a, 0xbf18c1ee600b3c5a, 0xe116a16387d98140]),
    ("component/narrow/e1", [0xf3e84fac802c935b, 0xdd651919ceddb217, 0x6ab1c123a00279e1]),
    ("component/narrow/e3", [0x8149485bc4e079bb, 0xf2d2898ff274a5e8, 0x5b4cfd6ff2d41dc1]),
    ("component/narrow/e8", [0x595da12f1b13f7aa, 0x13a2f11b41c4b5b5, 0x100f42851dee7408]),
    ("loop-in-window/clipped/e1", [0x07deddb6badb0996, 0x4dc09f17525232dc, 0x08245cf09b1c3e92]),
    ("loop-in-window/clipped/e3", [0x463716f6cb94310c, 0xd376932063621333, 0x008b0c9cdef981df]),
    ("loop-in-window/clipped/e8", [0x9a3855eeffea8c00, 0xedd360a48e16c040, 0x563499286d5b7eea]),
    ("loop-in-window/unclipped/e1", [0xbcfa4f1b40d53aec, 0x010fb7613ce282dc, 0x33ec5cdd0461636c]),
    ("loop-in-window/unclipped/e3", [0x8ecd94aaa57fb56d, 0x3668154bec14d898, 0x139e2df82c8c88f5]),
    ("loop-in-window/unclipped/e8", [0x79fcad8f27332d6d, 0xea9a809697b02ec9, 0x1c93921e39164bf6]),
    ("loop-after-window/clipped/e1", [0x7bbfb970926b36f4, 0x24f95e0b83a92cdc, 0x93acc757ad9d484f]),
    ("loop-after-window/clipped/e3", [0x75d98fd88e1b5fc1, 0x2feb3c68ae39198f, 0x50f68cf368028443]),
    ("loop-after-window/clipped/e8", [0x796b265b1868695f, 0x4074e1357a86ce72, 0xa711d9249ce9f7f2]),
    ("loop-after-window/unclipped/e1", [0x4e1eee7c74d6f101, 0xe5559693b9e047c3, 0x59565720122af9d4]),
    ("loop-after-window/unclipped/e3", [0xc2c67ca1e995eb4d, 0x6a53f93bc83ac4d5, 0x439d020c9ffdec6b]),
    ("loop-after-window/unclipped/e8", [0x9ca9602026a7ff8a, 0xbdc3722d1cf24bab, 0x05a82b015f453193]),
    ("present80/cpa-union/e1", [0x25e4765a8f0c2672, 0xf7471a87ebf3c462, 0x22e71c1c6155614f]),
    ("present80/cpa-union/e3", [0x472e287016fb52ab, 0xc620f5e073b731fa, 0x172e075d1cd6154c]),
    ("present80/cpa-union/e8", [0x9a773c575431290b, 0x9cfad0eea5b9a099, 0x123b9b30773291a8]),
    ("present80/tvla/e1", [0x25e4765a8f0c2672, 0xf7471a87ebf3c462, 0x22e71c1c6155614f]),
    ("present80/tvla/e3", [0x472e287016fb52ab, 0xc620f5e073b731fa, 0x172e075d1cd6154c]),
    ("present80/tvla/e8", [0x9a773c575431290b, 0x9cfad0eea5b9a099, 0x123b9b30773291a8]),
    ("present80/from-trigger/e1", [0x5c6a7090046dbce4, 0x13685a5ba7b225fa, 0xe1bf5db813b1d9e2]),
    ("present80/from-trigger/e3", [0x951f0737f6f95961, 0xc822848ed347cf0b, 0x4215c9752831e592]),
    ("present80/from-trigger/e8", [0xa23dee39c53d98b2, 0xe9af78ab94064a0b, 0xb9fd08b1864d62f0]),
    ("present80/to-end/e1", [0xf4ad2e1c87d40a2e, 0x558b3c5e33e20386, 0x9557c4949f31824a]),
    ("present80/to-end/e3", [0xef6e86c27cee9d3f, 0xb33d89927a828ad7, 0x86f0079d49fed103]),
    ("present80/to-end/e8", [0x17765a96c82daaa0, 0xf55b135515fd83aa, 0xdf482eeadcd6ab91]),
    ("present80/unclipped/e1", [0x62cbc43b5d1977c5, 0x45a791663b349744, 0x11fd3a66213d56c6]),
    ("present80/unclipped/e3", [0x05a7188bd8408579, 0xdbdf538bf7b00571, 0xf4fb848735e98229]),
    ("present80/unclipped/e8", [0xa354c5dc15205a12, 0xb20acc8b4dbde1d4, 0xbf425ee5e5258ef7]),
    ("speck64128/cpa-union/e1", [0x6c6bda763643fe0e, 0x8bf64b1a2ecb5200, 0x4a3443c9ad0a6214]),
    ("speck64128/cpa-union/e3", [0x121ce4a5bef3d8bf, 0x83be938e7f78be63, 0x8574533779c13125]),
    ("speck64128/cpa-union/e8", [0x2cc10d3ef46955da, 0x99bfbeccd109f712, 0xbd02002caf989505]),
    ("speck64128/tvla/e1", [0x6c6bda763643fe0e, 0x8bf64b1a2ecb5200, 0x4a3443c9ad0a6214]),
    ("speck64128/tvla/e3", [0x121ce4a5bef3d8bf, 0x83be938e7f78be63, 0x8574533779c13125]),
    ("speck64128/tvla/e8", [0x2cc10d3ef46955da, 0x99bfbeccd109f712, 0xbd02002caf989505]),
    ("speck64128/from-trigger/e1", [0x2dab2e72c28341ee, 0x929420596252b498, 0xf3927a4136b295f2]),
    ("speck64128/from-trigger/e3", [0xe5faa0ba81848f31, 0x2278c3a44ef813a2, 0x2bb0eaadedd4df27]),
    ("speck64128/from-trigger/e8", [0xb61bd0db7a5843a1, 0xb58b1002c32c0ece, 0xec82b0443f772512]),
    ("speck64128/to-end/e1", [0x7457c38115cc1f5c, 0xc2334b392a234ada, 0x0c0df7ce1c9b1582]),
    ("speck64128/to-end/e3", [0x43b7d5c11e17dd06, 0x4861b765aace99d0, 0x2de1e8bf76a5b694]),
    ("speck64128/to-end/e8", [0xc92ca194e7e8a22e, 0xa8b1778615b7b276, 0x35a8f1fbc659b62c]),
    ("speck64128/unclipped/e1", [0x4041c91e9a4deaf1, 0x80fd8ef868e3683f, 0xaf99652b495e700e]),
    ("speck64128/unclipped/e3", [0x2118423aded1020c, 0x099a97f4a504d075, 0xbd7b19cb763cd937]),
    ("speck64128/unclipped/e8", [0x090c518c66d73ff3, 0xd04c07ac87b189d8, 0x282f27364362eb10]),
];
