//! Lockstep conformance: a `CpuBlock` stepping N traces together must
//! be **byte-identical** to N independent scalar `Cpu` runs — per
//! target, per lane count, at the synthesis layer and through the full
//! campaign engine.
//!
//! This is the harness that makes the lockstep fast path safe to leave
//! on by default: the block shares one pipeline walk across lanes, so
//! any divergence it fails to detect (or any per-lane event it emits in
//! the wrong order) would silently corrupt every downstream statistic.
//! Here every portfolio target — AES-128, masked AES, SPECK64/128,
//! PRESENT-80 — runs at N ∈ {1, 2, 5, 8} against the scalar reference,
//! and the traces are compared bit-for-bit, not to an epsilon.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sca_target::{characterize_target, portfolio, TargetCampaignConfig};
use superscalar_sca::campaign::{
    Campaign, CampaignConfig, ComponentCampaign, Mergeable, ShardPlan,
};
use superscalar_sca::core::{audit_program, AuditConfig, AuditError, SecretModel};
use superscalar_sca::isa::{assemble, Reg};
use superscalar_sca::power::{
    AcquisitionConfig, BlockPowerRecorder, GaussianNoise, PowerRecorder, SamplingConfig,
    SynthScratch, TraceSet, TraceSynthesizer,
};
use superscalar_sca::uarch::{Cpu, CpuBlock, NodeKind, NullObserver, UarchConfig, UarchError};

const LANE_COUNTS: [usize; 4] = [1, 2, 5, 8];

fn synthesizer(seed: u64) -> TraceSynthesizer {
    TraceSynthesizer::new(
        superscalar_sca::power::LeakageWeights::cortex_a7(),
        AcquisitionConfig {
            traces: 16,
            executions_per_trace: 2,
            sampling: SamplingConfig::picoscope_500msps_120mhz(),
            noise: GaussianNoise::bare_metal(),
            seed,
            threads: 1,
        },
    )
}

/// The direct differential: `synth_block_into` at every lane count vs
/// one `synth_into` per index, for every portfolio target — identical
/// inputs and bit-identical f32 traces, from a nonzero base index so
/// lane→index mapping is exercised too.
#[test]
fn block_synthesis_matches_scalar_per_target_and_lane_count() {
    let uarch = UarchConfig::cortex_a7();
    for target in &portfolio() {
        let target = target.as_ref();
        let template = target.build(&uarch).expect("target builds");
        let entry = target.program().entry();
        let synth = synthesizer(0x010c_45e7 ^ target.name().len() as u64);
        let generate = |rng: &mut StdRng, index: usize| target.generate(rng, index);
        let stage = |cpu: &mut Cpu, input: &[u8]| target.stage(cpu, input);
        let post = |_: &mut StdRng, _: &mut Vec<f64>| {};

        for lanes in LANE_COUNTS {
            let base = 3; // nonzero: lane l must map to trace base + l
                          // Scalar reference: one self-contained synthesis per index.
            let mut scalar_cpu = template.clone();
            let mut recorder = PowerRecorder::new(synth.weights().clone());
            let mut scratch = SynthScratch::new();
            let mut want: Vec<(Vec<f32>, Vec<u8>)> = Vec::new();
            for index in base..base + lanes {
                let mut trace = Vec::new();
                let input = synth
                    .synth_into(
                        &mut scalar_cpu,
                        &mut recorder,
                        &mut scratch,
                        &mut trace,
                        entry,
                        index,
                        None,
                        &generate,
                        &stage,
                        &post,
                    )
                    .expect("scalar synthesis runs");
                want.push((trace, input));
            }

            // Lockstep: all lanes in one pipeline walk.
            let mut block = CpuBlock::from_template(&template, lanes);
            let mut block_recorder = BlockPowerRecorder::new(synth.weights().clone(), lanes);
            let mut scratches = vec![SynthScratch::new(); lanes];
            let mut traces = vec![Vec::new(); lanes];
            let inputs = synth
                .synth_block_into(
                    &mut block,
                    &mut block_recorder,
                    &mut scratches,
                    &mut traces,
                    entry,
                    base,
                    lanes,
                    None,
                    &generate,
                    &stage,
                    &post,
                )
                .unwrap_or_else(|| {
                    panic!("[{}] lanes {lanes}: unexpected divergence", target.name())
                });

            for l in 0..lanes {
                assert_eq!(
                    inputs[l],
                    want[l].1,
                    "[{}] lanes {lanes} lane {l}: input",
                    target.name()
                );
                assert_eq!(
                    traces[l].len(),
                    want[l].0.len(),
                    "[{}] lanes {lanes} lane {l}: trace length",
                    target.name()
                );
                for (s, (a, b)) in traces[l].iter().zip(&want[l].0).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "[{}] lanes {lanes} lane {l} sample {s}",
                        target.name()
                    );
                }
            }
        }
    }
}

/// End-to-end through the campaign engine: every trace the engine
/// delivers to its sinks is bit-identical at every lane count — across
/// group-boundary remainders (traces % lanes ≠ 0), batch chunking and
/// the clipped-window path, for a representative target.
#[test]
fn campaign_results_are_lane_count_invariant() {
    let targets = portfolio();
    let target = targets
        .iter()
        .find(|t| t.name() == "speck64128")
        .expect("portfolio registers speck64128")
        .as_ref();
    let uarch = UarchConfig::cortex_a7();
    let template = target.build(&uarch).expect("target builds");
    let entry = target.program().entry();

    let run = |lanes: usize| -> TraceSet {
        let campaign = Campaign::new(
            superscalar_sca::power::LeakageWeights::cortex_a7(),
            CampaignConfig {
                traces: 21, // deliberately not a multiple of any lane count
                executions_per_trace: 2,
                sampling: SamplingConfig::picoscope_500msps_120mhz(),
                noise: GaussianNoise::bare_metal(),
                seed: 0xb10c,
                threads: 2,
                batch: 6,
            },
        )
        .with_lanes(lanes)
        .with_window(2, 40);
        campaign
            .run(
                &template,
                entry,
                |rng: &mut StdRng, index| target.generate(rng, index),
                |cpu: &mut Cpu, input: &[u8]| target.stage(cpu, input),
                TraceSet::new,
            )
            .expect("campaign runs")
    };

    let reference = run(1);
    assert_eq!(reference.len(), 21);
    for lanes in [2, 5, 8] {
        let got = run(lanes);
        assert_eq!(got.len(), reference.len(), "lanes {lanes}: size");
        assert_eq!(
            got.samples_per_trace(),
            reference.samples_per_trace(),
            "lanes {lanes}: width"
        );
        for (t, ((gi, gt), (ri, rt))) in got.iter().zip(reference.iter()).enumerate() {
            assert_eq!(gi, ri, "lanes {lanes} trace {t}: input");
            for (s, (a, b)) in gt.iter().zip(rt).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "lanes {lanes} trace {t} sample {s}"
                );
            }
        }
    }
}

/// A fault is per-trace business: one trace whose staged input sends its
/// load outside RAM fails the whole campaign with that load's
/// `BadAddress`, at one lane (straight from the scalar path) and at
/// eight (the block diverges, and the scalar fallback re-runs the group
/// and surfaces the fault). The same holds for a characterization and
/// for a node audit with one such execution.
#[test]
fn a_faulting_trace_fails_the_campaign_with_its_bad_address() {
    const GOOD: u32 = 0x800;
    const BAD: u32 = 0x4000_0000;
    let program = assemble(
        "
        trig #1
        ldr r1, [r10]
        nop
        nop
        nop
        nop
        trig #0
        halt
    ",
    )
    .expect("assembles");
    let mut template = Cpu::new(UarchConfig::cortex_a7());
    template.load(&program).expect("loads");
    assert!(template.mem().size() <= BAD);

    let run = |lanes: usize| {
        Campaign::new(
            superscalar_sca::power::LeakageWeights::cortex_a7(),
            CampaignConfig {
                traces: 16,
                executions_per_trace: 2,
                sampling: SamplingConfig::per_cycle(),
                noise: GaussianNoise::bare_metal(),
                seed: 0xbad,
                threads: 2,
                batch: 8,
            },
        )
        .with_lanes(lanes)
        .run(
            &template,
            program.entry(),
            |_: &mut StdRng, index| {
                (if index == 11 { BAD } else { GOOD })
                    .to_le_bytes()
                    .to_vec()
            },
            |cpu: &mut Cpu, input: &[u8]| {
                let addr = u32::from_le_bytes(input.try_into().expect("4-byte input"));
                cpu.set_reg(Reg::R10, addr);
            },
            TraceSet::new,
        )
        .map(|set| set.len())
    };

    let stage = |cpu: &mut Cpu, input: &[u8]| {
        let addr = u32::from_le_bytes(input.try_into().expect("4-byte input"));
        cpu.set_reg(Reg::R10, addr);
    };
    let characterize = |lanes: usize| {
        ComponentCampaign {
            components: &[NodeKind::Mdr],
            window: (0, 4),
            seed: 0xbad,
            noise: GaussianNoise::bare_metal(),
            executions: 2,
            lanes,
            plan: ShardPlan {
                items: 16,
                threads: 2,
                batch: 8,
            },
        }
        .run(
            &template,
            program.entry(),
            |_: &mut StdRng, index| {
                (if index == 11 { BAD } else { GOOD })
                    .to_le_bytes()
                    .to_vec()
            },
            stage,
            Channels::default,
            |_, _, _| {},
        )
    };

    // The audit's input stream: execution `e` takes the `e`-th draw, and
    // execution 11's input is staged as the unmapped address.
    const AUDIT_SEED: u64 = 0xbad;
    let faulting: [u8; 4] = {
        let mut rng = StdRng::seed_from_u64(AUDIT_SEED);
        let mut input = [0u8; 4];
        for _ in 0..12 {
            rng.fill(&mut input[..]);
        }
        input
    };
    let audit = |lanes: usize| {
        audit_program(
            &UarchConfig::cortex_a7(),
            &program,
            4,
            |cpu: &mut Cpu, input: &[u8]| {
                let addr = if input == faulting { BAD } else { GOOD };
                cpu.set_reg(Reg::R10, addr);
            },
            &[SecretModel::new("b0", |input: &[u8]| f64::from(input[0]))],
            &AuditConfig {
                executions: 16,
                seed: AUDIT_SEED,
                threads: 2,
                lanes,
                ..AuditConfig::default()
            },
        )
    };

    for lanes in [1, 8] {
        assert_eq!(
            run(lanes),
            Err(UarchError::BadAddress(BAD)),
            "lanes {lanes}"
        );
        assert_eq!(
            characterize(lanes).err(),
            Some(UarchError::BadAddress(BAD)),
            "characterization, lanes {lanes}"
        );
        let audited = audit(lanes);
        assert!(
            matches!(audited, Err(AuditError::Uarch(UarchError::BadAddress(BAD)))),
            "audit, lanes {lanes}: {audited:?}"
        );
    }
}

/// The per-component characterization rides the same lockstep block
/// (`ComponentCampaign` + `BlockComponentPowerRecorder`): every
/// `(model, component)` peak correlation must be bit-identical at every
/// lane count, for every portfolio target — including the trailing
/// partial group (traces % lanes != 0) and the threaded shard split.
#[test]
fn characterization_is_lane_count_invariant() {
    let uarch = UarchConfig::cortex_a7();
    for target in &portfolio() {
        let target = target.as_ref();
        let template = target.build(&uarch).expect("target builds");
        let models = target.models();

        let run = |lanes: usize| {
            let config = TargetCampaignConfig {
                traces: 19, // not a multiple of any lane count
                executions_per_trace: 2,
                seed: 0xc4a7_2e11,
                threads: 2,
                batch: 6,
                lanes,
                noise: GaussianNoise::bare_metal(),
            };
            characterize_target(target, &template, &models, &config, 0.995)
                .expect("characterization runs")
        };

        let reference = run(1);
        for lanes in [2, 5, 8] {
            let got = run(lanes);
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(g.model, r.model);
                for (gc, rc) in g.cells.iter().zip(&r.cells) {
                    assert_eq!(
                        gc.peak_corr.to_bits(),
                        rc.peak_corr.to_bits(),
                        "[{}] lanes {lanes} model {} component {:?}",
                        target.name(),
                        g.model,
                        gc.component
                    );
                    assert_eq!(gc.significant, rc.significant);
                }
            }
        }
    }
}

/// Every trace's averaged channels, in index order.
#[derive(Default)]
struct Channels(Vec<(Vec<u8>, Vec<Vec<f32>>)>);

impl Mergeable for Channels {
    fn merge(&mut self, other: Channels) {
        self.0.extend(other.0);
    }
}

/// A characterization whose window holds an input-dependent loop
/// (`r1 & 7` + 1 turns of a `subs`/`bne` spin): its lockstep groups
/// diverge, and the scalar fallback must still produce channels
/// bit-identical to one lane's at every lane and thread count —
/// including the partial groups of 3 lanes and the 2-thread split.
#[test]
fn a_divergent_characterization_is_lane_and_thread_invariant() {
    let program = assemble(&format!(
        "
        trig #1
        eor r3, r1, r1, ror #7
        mov r4, r3
        add r5, r3, r1
        and r2, r1, #7
        add r2, r2, #1
spin:   subs r2, r2, #1
        bne spin
{}        trig #0
        halt
    ",
        "        nop\n".repeat(16)
    ))
    .expect("assembles");
    let mut template = Cpu::new(UarchConfig::cortex_a7());
    template.load(&program).expect("loads");
    template.run(&mut NullObserver).expect("warm-up runs");
    let stage = |cpu: &mut Cpu, input: &[u8]| {
        cpu.set_reg(
            Reg::R1,
            u32::from_le_bytes(input.try_into().expect("4-byte input")),
        );
    };
    let cycles = |r1: u32| {
        let mut cpu = template.clone();
        cpu.restart_seeded(program.entry(), 0);
        cpu.set_reg(Reg::R1, r1);
        cpu.run(&mut NullObserver).expect("runs").cycles
    };
    assert!(cycles(0) < cycles(7), "the loop must steer the timing");

    let run = |lanes: usize, threads: usize| {
        ComponentCampaign {
            components: &[NodeKind::IsExBuffer, NodeKind::ExWbBuffer, NodeKind::Alu],
            window: (0, 40),
            seed: 0xd1e5,
            noise: GaussianNoise::bare_metal(),
            executions: 2,
            lanes,
            plan: ShardPlan {
                items: 11,
                threads,
                batch: 4,
            },
        }
        .run(
            &template,
            program.entry(),
            |rng: &mut StdRng, _| rng.gen::<u32>().to_le_bytes().to_vec(),
            stage,
            Channels::default,
            |sink, input, channels| sink.0.push((input.to_vec(), channels.to_vec())),
        )
        .expect("characterization runs")
        .0
    };

    let bits = |traces: &[(Vec<u8>, Vec<Vec<f32>>)]| -> Vec<(Vec<u8>, Vec<Vec<u32>>)> {
        traces
            .iter()
            .map(|(input, channels)| {
                let channels = channels
                    .iter()
                    .map(|c| c.iter().map(|s| s.to_bits()).collect())
                    .collect();
                (input.clone(), channels)
            })
            .collect()
    };
    let reference = bits(&run(1, 1));
    assert_eq!(reference.len(), 11);
    for lanes in [1, 3, 8] {
        for threads in [1, 2] {
            assert_eq!(
                bits(&run(lanes, threads)),
                reference,
                "lanes {lanes} threads {threads}"
            );
        }
    }
}
