//! Clipped campaigns over programs whose timing depends on the input.
//!
//! A clipped execution stops its walk at its horizon: the first cycle
//! whose pulse reaches no kept sample. When its trigger window is still
//! open there, the execution does not know the window's length, which
//! places the next execution's noise draws. It takes the probe's length
//! if its trigger rose at the probe's cycle and it retired as many
//! instructions before the horizon as the probe did; otherwise it walks
//! on to `halt` and counts a `campaign/horizon_fallbacks`.
//!
//! Two programs with an input-dependent loop (`r1 & 7` + 1 iterations)
//! check both sides:
//!
//! - the loop inside the clip window: executions fall back, and the
//!   clipped traces stay bit-identical to the whole traces (`run_with`
//!   with a no-op post hook) cropped to the window;
//! - the loop after the clip window, before `trig #0`: nothing falls
//!   back and no lockstep block diverges (the walk never reaches the
//!   loop), traces are identical across lanes and threads, and at one
//!   execution per trace they equal the cropped whole traces. With
//!   several executions the noise layout follows the probe's length by
//!   design, so there they differ from the whole-walk traces.
//!
//! The counters are process-global, so the tests serialize on
//! [`COUNTER_LOCK`].

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::Rng;

use superscalar_sca::campaign::{Campaign, CampaignConfig};
use superscalar_sca::isa::{assemble, Reg};
use superscalar_sca::power::{GaussianNoise, LeakageWeights, SamplingConfig, TraceSet};
use superscalar_sca::telemetry::{self, Snapshot};
use superscalar_sca::uarch::{Cpu, NullObserver, UarchConfig};

/// Serializes global-counter delta measurements across tests.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// Traces per campaign: one full 8-lane group plus a remainder.
const TRACES: usize = 11;

/// Data-dependent straight-line activity for the window to see.
const MIX: &str = "
        eor r3, r1, r1, ror #7
        mov r4, r3
        add r5, r3, r1
";

/// `r1 & 7` + 1 turns of a `subs`/`bne` spin.
const LOOP: &str = "
        and r2, r1, #7
        add r2, r2, #1
spin:   subs r2, r2, #1
        bne spin
";

/// The loop inside the clip window: right after the trigger rises.
fn loop_in_window() -> String {
    format!(
        "trig #1\n{MIX}{LOOP}{}        trig #0\n        halt\n",
        "        nop\n".repeat(80)
    )
}

/// The loop after the clip window, well before `trig #0`.
fn loop_after_window() -> String {
    format!(
        "trig #1\n{MIX}{}{LOOP}{}        trig #0\n        halt\n",
        "        nop\n".repeat(80),
        "        nop\n".repeat(8)
    )
}

/// The program loaded and warmed by one execution, so every execution
/// and the probe share their timing except where the input steers it.
fn template(src: &str) -> (Cpu, u32) {
    let program = assemble(src).expect("assembles");
    let mut cpu = Cpu::new(UarchConfig::cortex_a7());
    cpu.load(&program).expect("loads");
    cpu.run(&mut NullObserver).expect("warm-up runs");
    (cpu, program.entry())
}

fn generate(rng: &mut StdRng, _: usize) -> Vec<u8> {
    rng.gen::<u32>().to_le_bytes().to_vec()
}

fn stage(cpu: &mut Cpu, input: &[u8]) {
    cpu.set_reg(
        Reg::R1,
        u32::from_le_bytes(input.try_into().expect("4-byte input")),
    );
}

/// Whole-run cycles of one execution with `r1 = input`.
fn cycles_with(template: &Cpu, entry: u32, input: u32) -> u64 {
    let mut cpu = template.clone();
    cpu.restart_seeded(entry, 0);
    cpu.set_reg(Reg::R1, input);
    cpu.run(&mut NullObserver).expect("runs").cycles
}

fn campaign(executions: usize, lanes: usize, threads: usize) -> Campaign {
    Campaign::new(
        LeakageWeights::cortex_a7(),
        CampaignConfig {
            traces: TRACES,
            executions_per_trace: executions,
            sampling: SamplingConfig::picoscope_500msps_120mhz(),
            noise: GaussianNoise::bare_metal(),
            seed: 0x7e57 ^ executions as u64,
            threads,
            batch: 4,
        },
    )
    .with_lanes(lanes)
}

/// Every trace, whole: `run_with` never clips or stops a walk early.
fn whole_traces(template: &Cpu, entry: u32, executions: usize) -> TraceSet {
    campaign(executions, 1, 1)
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

/// The clipped campaign at `window` (start, samples), with the deltas
/// of the counters it moved.
fn clipped(
    template: &Cpu,
    entry: u32,
    (executions, lanes, threads): (usize, usize, usize),
    (start, samples): (usize, usize),
) -> (TraceSet, Snapshot, Snapshot) {
    let before = telemetry::global().snapshot();
    let set = campaign(executions, lanes, threads)
        .with_window(start, samples)
        .run(template, entry, generate, stage, TraceSet::new)
        .expect("windowed campaign runs");
    (set, before, telemetry::global().snapshot())
}

fn bit_identical(got: &TraceSet, want: &TraceSet) -> Result<(), String> {
    if (got.len(), got.samples_per_trace()) != (want.len(), want.samples_per_trace()) {
        return Err(format!(
            "shape {}x{} vs {}x{}",
            got.len(),
            got.samples_per_trace(),
            want.len(),
            want.samples_per_trace()
        ));
    }
    for (t, ((gi, gt), (wi, wt))) in got.iter().zip(want.iter()).enumerate() {
        if gi != wi {
            return Err(format!("trace {t}: input"));
        }
        for (s, (a, b)) in gt.iter().zip(wt).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(format!("trace {t} sample {s}: {a} vs {b}"));
            }
        }
    }
    Ok(())
}

/// The first `cycles` trigger-relative cycles, in samples.
fn window_of(cycles: u64) -> (usize, usize) {
    SamplingConfig::picoscope_500msps_120mhz().window_to_samples(0, cycles)
}

#[test]
fn timing_that_varies_inside_the_window_falls_back_to_the_whole_walk() {
    let _guard = COUNTER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (template, entry) = template(&loop_in_window());
    assert!(
        cycles_with(&template, entry, 0) < cycles_with(&template, entry, 7),
        "the loop must steer the timing"
    );
    // Past the longest loop, inside the trigger window.
    let (start, samples) = window_of(48);
    for executions in [1, 3] {
        let whole = whole_traces(&template, entry, executions);
        let want = whole.window(start, samples);
        assert_eq!(want.samples_per_trace(), samples, "window inside the trace");
        for lanes in [1, 8] {
            for threads in [1, 2] {
                let context = format!("executions {executions} lanes {lanes} threads {threads}");
                let (got, before, after) = clipped(
                    &template,
                    entry,
                    (executions, lanes, threads),
                    (start, samples),
                );
                if let Err(what) = bit_identical(&got, &want) {
                    panic!("{context}: {what}");
                }
                let fallbacks = after.counter_delta(&before, "campaign/horizon_fallbacks");
                assert!(fallbacks > 0, "{context}: no execution fell back");
            }
        }
    }
}

#[test]
fn timing_that_varies_after_the_window_stops_at_the_horizon() {
    let _guard = COUNTER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (template, entry) = template(&loop_after_window());
    let shortest = cycles_with(&template, entry, 0);
    assert!(
        shortest < cycles_with(&template, entry, 7),
        "the loop must steer the timing"
    );
    // A window that closes well before the loop starts.
    let (start, samples) = window_of(12);
    for executions in [1, 3] {
        let whole = whole_traces(&template, entry, executions);
        let want = whole.window(start, samples);
        let mut reference: Option<TraceSet> = None;
        for lanes in [1, 3, 8] {
            for threads in [1, 2] {
                let context = format!("executions {executions} lanes {lanes} threads {threads}");
                let (got, before, after) = clipped(
                    &template,
                    entry,
                    (executions, lanes, threads),
                    (start, samples),
                );
                let moved = |name: &str| after.counter_delta(&before, name);
                assert_eq!(moved("campaign/horizon_fallbacks"), 0, "{context}");
                assert_eq!(moved("campaign/blocks_poisoned"), 0, "{context}");
                // Every execution (the probe aside) stopped short of the
                // shortest whole run.
                let runs = moved("power/simulator_runs");
                assert_eq!(runs, 1 + (TRACES * executions) as u64, "{context}");
                let walked = moved("uarch/cycles");
                assert!(
                    walked < runs * shortest,
                    "{context}: walked {walked} cycles in {runs} runs of >= {shortest}"
                );
                match &reference {
                    None => reference = Some(got),
                    Some(reference) => {
                        if let Err(what) = bit_identical(&got, reference) {
                            panic!("{context} vs lanes 1 threads 1: {what}");
                        }
                    }
                }
            }
        }
        let got = reference.expect("ran");
        let cropped = bit_identical(&got, &want);
        if executions == 1 {
            if let Err(what) = cropped {
                panic!("one execution per trace vs the whole walk: {what}");
            }
        } else {
            assert!(
                cropped.is_err(),
                "{executions} executions: the noise layout follows the probe's length"
            );
        }
    }
}
