//! Window-only acquisition against its whole-trace oracle.
//!
//! A windowed [`Campaign::run`] may synthesize only the samples its
//! window keeps (the recorder, the expansion and the noise all work in
//! window coordinates). Its traces must still be **bit-identical** to
//! the whole trace cropped to the same window — the reference here is
//! [`Campaign::run_with`] with a no-op post hook, which always
//! synthesizes every sample of every execution. The same holds for
//! [`ComponentCampaign`]: a narrow cycle window against the whole
//! trigger window, cropped.
//!
//! The windows are the ones campaigns really use (each portfolio
//! target's CPA union and TVLA windows) plus the edges: a window at
//! trigger-relative cycle 0 (whose pending-drain and retire events reach
//! the recorder before the rising `trig` edge), one ending at the last
//! sample, one sample long, empty, and a run without any `trig`, whose
//! whole run is the window.

use rand::rngs::StdRng;

use sca_target::{portfolio, resolve_window, CipherTarget, WindowHint};
use superscalar_sca::campaign::{Campaign, CampaignConfig, ComponentCampaign, ShardPlan};
use superscalar_sca::isa::{assemble, Reg};
use superscalar_sca::power::{
    ComponentPowerRecorder, GaussianNoise, LeakageWeights, SamplingConfig, TraceSet,
};
use superscalar_sca::uarch::{Cpu, NodeKind, UarchConfig};

/// Traces per campaign: one full 8-lane group plus a remainder.
const TRACES: usize = 9;

fn campaign(seed: u64, lanes: usize) -> Campaign {
    Campaign::new(
        LeakageWeights::cortex_a7(),
        CampaignConfig {
            traces: TRACES,
            executions_per_trace: 2,
            sampling: SamplingConfig::picoscope_500msps_120mhz(),
            noise: GaussianNoise::bare_metal(),
            seed,
            threads: 1,
            batch: 4,
        },
    )
    .with_lanes(lanes)
}

/// Every trace of the campaign, whole: `run_with` never clips.
fn whole_traces(
    template: &Cpu,
    entry: u32,
    seed: u64,
    generate: impl Fn(&mut StdRng, usize) -> Vec<u8> + Sync,
    stage: impl Fn(&mut Cpu, &[u8]) + Sync,
) -> TraceSet {
    campaign(seed, 1)
        .run_with(
            template,
            entry,
            generate,
            stage,
            |_: &mut StdRng, _: &mut Vec<f64>| {},
            TraceSet::new,
        )
        .expect("reference campaign runs")
}

fn assert_bit_identical(got: &TraceSet, want: &TraceSet, context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: trace count");
    assert_eq!(
        got.samples_per_trace(),
        want.samples_per_trace(),
        "{context}: window width"
    );
    for (t, ((gi, gt), (wi, wt))) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(gi, wi, "{context} trace {t}: input");
        for (s, (a, b)) in gt.iter().zip(wt).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{context} trace {t} sample {s}");
        }
    }
}

/// Runs `(start, len)`-windowed campaigns at lanes 1 and 8 and checks
/// each against `whole` cropped the way the engine clamps windows.
#[allow(clippy::too_many_arguments)]
fn check_windows(
    label: &str,
    template: &Cpu,
    entry: u32,
    seed: u64,
    generate: &(impl Fn(&mut StdRng, usize) -> Vec<u8> + Sync),
    stage: &(impl Fn(&mut Cpu, &[u8]) + Sync),
    whole: &TraceSet,
    windows: &[(&str, (usize, usize))],
) {
    for &(name, (start, len)) in windows {
        let want = whole.window(start, len);
        for lanes in [1, 8] {
            let got = campaign(seed, lanes)
                .with_window(start, len)
                .run(template, entry, generate, stage, TraceSet::new)
                .expect("windowed campaign runs");
            let context = format!("[{label}] {name} ({start}, {len}) lanes {lanes}");
            assert_bit_identical(&got, &want, &context);
        }
    }
}

/// A target's CPA union window (every model's window, as
/// `TargetCampaign::cpa` acquires them) and its TVLA window, in samples.
fn campaign_windows(
    target: &dyn CipherTarget,
    template: &Cpu,
) -> [(&'static str, (usize, usize)); 2] {
    let sampling = SamplingConfig::picoscope_500msps_120mhz();
    let samples = |hint: &WindowHint| {
        let (start, len) = resolve_window(target, template, hint)
            .expect("window resolves")
            .trigger_relative;
        sampling.window_to_samples(start, len)
    };
    let models: Vec<(usize, usize)> = target.models().iter().map(|m| samples(&m.window)).collect();
    let start = models
        .iter()
        .map(|w| w.0)
        .min()
        .expect("targets have models");
    let end = models
        .iter()
        .map(|w| w.0 + w.1)
        .max()
        .expect("targets have models");
    [
        ("cpa-union", (start, end - start)),
        ("tvla", samples(&target.primary_window())),
    ]
}

#[test]
fn clipped_campaigns_match_the_cropped_whole_trace_for_every_target() {
    let uarch = UarchConfig::cortex_a7();
    for target in &portfolio() {
        let target = target.as_ref();
        let template = target.build(&uarch).expect("target builds");
        let entry = target.program().entry();
        let seed = 0xc11_9000 ^ target.name().len() as u64;
        let generate = |rng: &mut StdRng, index: usize| target.generate(rng, index);
        let stage = |cpu: &mut Cpu, input: &[u8]| target.stage(cpu, input);
        let whole = whole_traces(&template, entry, seed, generate, stage);
        let windows = campaign_windows(target, &template);
        for (name, (start, len)) in windows {
            assert!(
                len > 0 && start + len <= whole.samples_per_trace(),
                "[{}] {name} window inside the trace",
                target.name()
            );
        }
        check_windows(
            target.name(),
            &template,
            entry,
            seed,
            &generate,
            &stage,
            &whole,
            &windows,
        );
    }
}

#[test]
fn edge_windows_match_the_cropped_whole_trace() {
    let uarch = UarchConfig::cortex_a7();
    let targets = portfolio();
    let target = targets
        .iter()
        .find(|t| t.name() == "speck64128")
        .expect("portfolio registers speck64128")
        .as_ref();
    let template = target.build(&uarch).expect("target builds");
    let entry = target.program().entry();
    let seed = 0xed6e;
    let generate = |rng: &mut StdRng, index: usize| target.generate(rng, index);
    let stage = |cpu: &mut Cpu, input: &[u8]| target.stage(cpu, input);
    let whole = whole_traces(&template, entry, seed, generate, stage);
    let full = whole.samples_per_trace();
    check_windows(
        target.name(),
        &template,
        entry,
        seed,
        &generate,
        &stage,
        &whole,
        &[
            ("from cycle 0", (0, 37)),
            ("ending at full", (full - 29, 29)),
            ("one sample", (full / 2, 1)),
            ("empty", (full / 3, 0)),
            ("whole", (0, full)),
            ("past the end", (full - 5, 50)),
        ],
    );
}

#[test]
fn a_run_without_a_trigger_keeps_the_whole_run_as_its_window() {
    let program = assemble(
        "
        ldr r1, [r10]
        eor r2, r1, r1, lsl #3
        add r3, r2, r1
        str r3, [r10, #4]
        ldr r4, [r10, #4]
        eor r5, r4, r1
        halt
    ",
    )
    .expect("assembles");
    let mut template = Cpu::new(UarchConfig::cortex_a7());
    template.load(&program).expect("loads");
    template.set_reg(Reg::R10, 0x800);
    let stage = |cpu: &mut Cpu, input: &[u8]| {
        let word = u32::from_le_bytes(input.try_into().expect("4-byte input"));
        cpu.mem_mut()
            .write_u32(0x800, word)
            .expect("scratch mapped");
    };
    stage(&mut template, &[0; 4]);
    template
        .run(&mut superscalar_sca::uarch::NullObserver)
        .expect("warm-up run");
    let generate = |rng: &mut StdRng, _: usize| {
        use rand::Rng;
        rng.gen::<u32>().to_le_bytes().to_vec()
    };
    let seed = 0x7e1e;
    let whole = whole_traces(&template, program.entry(), seed, generate, stage);
    let full = whole.samples_per_trace();
    assert!(full > 20, "the run spans {full} samples");
    check_windows(
        "no trigger",
        &template,
        program.entry(),
        seed,
        &generate,
        &stage,
        &whole,
        &[
            ("from cycle 0", (0, 9)),
            ("middle", (full / 3, full / 3)),
            ("ending at full", (full - 7, 7)),
        ],
    );
}

/// The component campaigns' noise baseline (exact in `f32`).
const BASELINE: f64 = 0.25;

/// Collects every channel of every trace, one [`TraceSet`] per component.
fn component_traces(
    target: &dyn CipherTarget,
    template: &Cpu,
    (start, len): (usize, usize),
    lanes: usize,
) -> Vec<TraceSet> {
    ComponentCampaign {
        components: &NodeKind::ALL,
        window: (start, len),
        seed: 0xc0_3903,
        // Noise is drawn over each channel's window, so only a
        // noiseless campaign has a window-independent reference.
        noise: GaussianNoise {
            sd: 0.0,
            baseline: BASELINE,
        },
        executions: 2,
        lanes,
        plan: ShardPlan {
            items: TRACES,
            threads: 1,
            batch: 4,
        },
    }
    .run(
        template,
        target.program().entry(),
        |rng, index| target.generate(rng, index),
        |cpu, input| target.stage(cpu, input),
        || vec![TraceSet::new(len); NodeKind::COUNT],
        |sets: &mut Vec<TraceSet>, input, channels| {
            for (set, channel) in sets.iter_mut().zip(channels) {
                set.push(channel.clone(), input.to_vec());
            }
        },
    )
    .expect("component campaign runs")
}

#[test]
fn component_windows_match_the_cropped_whole_trigger_window() {
    let uarch = UarchConfig::cortex_a7();
    let targets = portfolio();
    let target = targets
        .iter()
        .find(|t| t.name() == "present80")
        .expect("portfolio registers present80")
        .as_ref();
    let template = target.build(&uarch).expect("target builds");
    // The whole trigger window, in cycles.
    let cycles = {
        let mut probe = template.clone();
        probe.restart(target.program().entry());
        let input = target.generate(&mut rand::SeedableRng::seed_from_u64(1), 0);
        target.stage(&mut probe, &input);
        let mut recorder = ComponentPowerRecorder::new(LeakageWeights::cortex_a7());
        probe.run(&mut recorder).expect("probe runs");
        let mut series = Vec::new();
        recorder.windowed_power_into(0, NodeKind::Mdr, &mut series);
        series.len()
    };
    let whole = component_traces(target, &template, (0, cycles), 1);
    let (start, len) = resolve_window(target, &template, &target.primary_window())
        .expect("window resolves")
        .trigger_relative;
    let (start, len) = (start as usize, len as usize);
    for window in [(start, len), (0, 5), (cycles - 3, 10), (cycles / 2, 1)] {
        for lanes in [1, 8] {
            let got = component_traces(target, &template, window, lanes);
            for (kind, (g, w)) in NodeKind::ALL.iter().zip(got.iter().zip(&whole)) {
                // Past the trigger window a channel is zero-padded
                // before noising, so it averages to the baseline.
                let mut want = TraceSet::new(window.1);
                for (input, trace) in w.window(window.0, window.1).iter() {
                    let mut trace = trace.to_vec();
                    trace.resize(window.1, BASELINE as f32);
                    want.push(trace, input.to_vec());
                }
                assert_bit_identical(g, &want, &format!("{window:?} lanes {lanes} {kind:?}"));
            }
        }
    }
}
