//! One acquisition, many windows: a campaign over the union of several
//! sample windows, fanned out through one [`CropSink`] per window, must
//! leave every window's CPA accumulator bit-identical to a campaign run
//! over that window alone — whatever the window shapes, lane count,
//! thread count and batch size.

use proptest::prelude::*;

use sca_analysis::{hw8, CpaAccumulator, FnSelection};
use sca_campaign::{Campaign, CampaignConfig, CpaSink, CropSink};
use sca_isa::{assemble, Reg};
use sca_power::{
    AcquisitionConfig, GaussianNoise, LeakageWeights, SamplingConfig, TraceSynthesizer,
};
use sca_uarch::{Cpu, UarchConfig};

/// A kernel whose staged word crosses the load path, the ALU and the
/// store path inside the trigger window, so different windows see
/// different leaks. Warmed once, as every campaign template is.
fn fixture() -> (Cpu, u32) {
    let program = assemble(
        "
        trig #1
        ldr r1, [r10]
        eor r2, r1, r11
        nop
        str r2, [r10, #4]
        ldr r3, [r10, #4]
        nop
        nop
        trig #0
        halt
    ",
    )
    .expect("fixture assembles");
    let mut cpu = Cpu::new(UarchConfig::cortex_a7());
    cpu.load(&program).expect("fixture loads");
    cpu.set_reg(Reg::R10, 0x800);
    cpu.set_reg(Reg::R11, 0x5a5a_a5a5);
    cpu.run(&mut sca_uarch::NullObserver).expect("warm-up run");
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

fn config(seed: u64, traces: usize, threads: usize, batch: usize) -> CampaignConfig {
    CampaignConfig {
        traces,
        executions_per_trace: 2,
        // A fractional rate with a multi-sample pulse: a cycle's power
        // straddles window edges, the case clipped synthesis must get
        // right.
        sampling: SamplingConfig::picoscope_500msps_120mhz(),
        noise: GaussianNoise {
            sd: 0.5,
            baseline: 1.0,
        },
        seed,
        threads,
        batch,
    }
}

/// Every raw moment as bit patterns, so `-0.0`/`0.0` or NaN payloads
/// cannot compare equal by accident.
fn moment_bits(acc: &CpaAccumulator) -> (u64, Vec<Vec<u64>>) {
    let (n, sx, sxx, sy, syy, sxy) = acc.raw_moments();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (n, vec![bits(sx), bits(sxx), bits(sy), bits(syy), bits(sxy)])
}

/// Two `(start, len)` windows of the given shape from four cut points
/// inside a `full`-sample trace: identical, nested, overlapping or
/// disjoint. Windows may be empty.
fn windows(shape: usize, cuts: [usize; 4], full: usize) -> [(usize, usize); 2] {
    let mut x = cuts.map(|c| c % (full + 1));
    x.sort_unstable();
    match shape {
        0 => [(x[0], x[3] - x[0]), (x[0], x[3] - x[0])],
        1 => [(x[0], x[3] - x[0]), (x[1], x[2] - x[1])],
        2 => [(x[0], x[2] - x[0]), (x[1], x[3] - x[1])],
        _ => [(x[0], x[1] - x[0]), (x[2], x[3] - x[2])],
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    #[test]
    fn fanned_out_windows_match_one_campaign_per_window(
        seed in 0u64..1_000_000,
        traces in 9usize..30,
        shape in 0usize..4,
        cuts in (0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000),
    ) {
        let (cpu, entry) = fixture();
        let full = TraceSynthesizer::new(
            LeakageWeights::cortex_a7(),
            AcquisitionConfig {
                sampling: SamplingConfig::picoscope_500msps_120mhz(),
                ..AcquisitionConfig::new(1)
            },
        )
        .probe_samples(&cpu, entry, &generate, &stage)
        .expect("probe runs");
        let windows = windows(shape, [cuts.0, cuts.1, cuts.2, cuts.3], full);
        let start = windows.iter().map(|w| w.0).min().expect("two windows");
        let end = windows.iter().map(|w| w.0 + w.1).max().expect("two windows");
        for lanes in [1usize, 8] {
            for threads in [1usize, 3] {
                for batch in [1usize, 7, 64] {
                    let engine = |window: (usize, usize)| {
                        Campaign::new(
                            LeakageWeights::cortex_a7(),
                            config(seed, traces, threads, batch),
                        )
                        .with_lanes(lanes)
                        .with_window(window.0, window.1)
                    };
                    let fanned = engine((start, end - start))
                        .run(&cpu, entry, generate, stage, |samples| {
                            assert_eq!(samples, end - start, "union lies inside the trace");
                            windows
                                .iter()
                                .map(|&(lo, len)| CropSink::new(lo - start, len, sink(len)))
                                .collect::<Vec<_>>()
                        })
                        .expect("fanned-out campaign runs");
                    for (window, cropped) in windows.iter().zip(&fanned) {
                        let alone = engine(*window)
                            .run(&cpu, entry, generate, stage, sink)
                            .expect("single-window campaign runs");
                        prop_assert_eq!(
                            moment_bits(cropped.inner().accumulator()),
                            moment_bits(alone.accumulator()),
                            "shape {} windows {:?} lanes {} threads {} batch {}",
                            shape, windows, lanes, threads, batch
                        );
                    }
                }
            }
        }
    }
}
