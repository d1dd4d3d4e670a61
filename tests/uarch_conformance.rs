//! Differential conformance: the pipeline simulator against the ISA's
//! architectural golden model.
//!
//! `tests/differential.rs` checks that microarchitectural configurations
//! agree with *each other*; this suite pins them all to an independent
//! oracle — the one-instruction-at-a-time [`Interp`] in `sca-isa`, which
//! shares only the pure semantics functions (`eval_dp`, `apply_shift`,
//! `eval_mul`) with the pipeline. Randomized straight-line programs (with
//! conditional execution, shifter operands, long multiplies and
//! load/store-multiple in the mix) must leave identical architectural
//! state on the `Cpu` under a matrix of `UarchConfig` ablations and on
//! the interpreter — and so must every lane of a lockstep `CpuBlock`
//! whose lanes agree on control flow.

use proptest::prelude::*;

use superscalar_sca::isa::{
    AddrMode, Cond, DpOp, Insn, InsnKind, Interp, Operand2, Program, Reg, RegSet, ShiftAmount,
    ShiftKind,
};
use superscalar_sca::uarch::{
    Cpu, CpuBlock, Divergence, DualIssuePolicy, NullObserver, UarchConfig,
};

/// Scratch RAM used by generated memory instructions.
const SCRATCH: u32 = 0x4000;
/// Bytes of scratch compared after the run.
const SCRATCH_LEN: u32 = 64;
/// RAM size for both executors.
const MEM_SIZE: u32 = 1 << 16;

fn arb_reg() -> impl Strategy<Value = Reg> {
    // r0..r7 for data; r10 reserved as the memory base, r13-r15 excluded
    // so generated programs cannot branch or smash a stack.
    (0u8..8).prop_map(|i| Reg::from_index(i).expect("index < 8"))
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop::sample::select(vec![
        Cond::Al,
        Cond::Eq,
        Cond::Ne,
        Cond::Cs,
        Cond::Cc,
        Cond::Mi,
        Cond::Pl,
        Cond::Ge,
        Cond::Lt,
    ])
}

fn arb_dp_op() -> impl Strategy<Value = DpOp> {
    prop::sample::select(vec![
        DpOp::And,
        DpOp::Eor,
        DpOp::Sub,
        DpOp::Rsb,
        DpOp::Add,
        DpOp::Adc,
        DpOp::Sbc,
        DpOp::Bic,
        DpOp::Orr,
        DpOp::Mov,
        DpOp::Mvn,
        DpOp::Cmp,
        DpOp::Cmn,
        DpOp::Tst,
        DpOp::Teq,
    ])
}

fn arb_operand2() -> impl Strategy<Value = Operand2> {
    prop_oneof![
        (0u32..256).prop_map(Operand2::Imm),
        arb_reg().prop_map(Operand2::Reg),
        (
            arb_reg(),
            prop::sample::select(ShiftKind::ALL.to_vec()),
            0u8..32
        )
            .prop_map(|(rm, kind, amount)| Operand2::ShiftedReg {
                rm,
                kind,
                amount: ShiftAmount::Imm(amount)
            }),
        // Register-specified shift amounts exercise the third read port.
        (
            arb_reg(),
            prop::sample::select(ShiftKind::ALL.to_vec()),
            arb_reg()
        )
            .prop_map(|(rm, kind, rs)| Operand2::ShiftedReg {
                rm,
                kind,
                amount: ShiftAmount::Reg(rs)
            }),
    ]
}

fn arb_insn() -> impl Strategy<Value = Insn> {
    let dp = (
        arb_dp_op(),
        any::<bool>(),
        arb_reg(),
        arb_reg(),
        arb_operand2(),
        arb_cond(),
    )
        .prop_map(|(op, set_flags, rd, rn, op2, cond)| {
            Insn::new(InsnKind::Dp {
                op,
                set_flags: set_flags || op.is_compare(),
                rd: if op.is_compare() { None } else { Some(rd) },
                rn: if op.is_move() { None } else { Some(rn) },
                op2,
            })
            .with_cond(cond)
        });
    let mul = (arb_reg(), arb_reg(), arb_reg(), arb_cond())
        .prop_map(|(rd, rm, rs, cond)| Insn::mul(rd, rm, rs).with_cond(cond));
    let mla = (arb_reg(), arb_reg(), arb_reg(), arb_reg())
        .prop_map(|(rd, rm, rs, ra)| Insn::mla(rd, rm, rs, ra));
    let mull = (arb_reg(), arb_reg(), arb_reg(), arb_reg(), any::<bool>()).prop_map(
        |(lo, hi, rm, rs, signed)| {
            // umull/smull require distinct destination registers.
            let hi = if hi == lo {
                Reg::from_index((hi.index() as u8 + 1) % 8).expect("index < 8")
            } else {
                hi
            };
            if signed {
                Insn::smull(lo, hi, rm, rs)
            } else {
                Insn::umull(lo, hi, rm, rs)
            }
        },
    );
    // Loads/stores inside the scratch window via r10 + small immediate.
    let mem = (any::<bool>(), 0u8..3, arb_reg(), 0i32..60, arb_cond()).prop_map(
        |(load, size, rd, off, cond)| {
            let addr = AddrMode::imm_offset(Reg::R10, off).expect("small offset");
            let insn = match (load, size) {
                (true, 0) => Insn::ldr(rd, addr),
                (true, 1) => Insn::ldrb(rd, addr),
                (true, _) => Insn::ldrh(rd, addr),
                (false, 0) => Insn::str(rd, addr),
                (false, 1) => Insn::strb(rd, addr),
                (false, _) => Insn::strh(rd, addr),
            };
            insn.with_cond(cond)
        },
    );
    // Multi-transfers over the scratch window (no writeback: r10 stays
    // the shared base).
    let multi = (any::<bool>(), prop::collection::vec(arb_reg(), 1..4)).prop_map(|(load, regs)| {
        let set: RegSet = regs.into_iter().collect();
        if load {
            Insn::ldmia(Reg::R10, false, set)
        } else {
            Insn::new(InsnKind::MemMulti {
                dir: superscalar_sca::isa::MemDir::Store,
                base: Reg::R10,
                writeback: false,
                regs: set,
                mode: superscalar_sca::isa::MemMultiMode::Ia,
            })
        }
    });
    let misc = prop_oneof![Just(Insn::nop())];
    prop_oneof![6 => dp, 1 => mul, 1 => mla, 1 => mull, 3 => mem, 1 => multi, 1 => misc]
}

fn arb_program() -> impl Strategy<Value = Vec<Insn>> {
    prop::collection::vec(arb_insn(), 1..60)
}

#[derive(Debug, PartialEq)]
struct ArchState {
    regs: Vec<u32>,
    flags: superscalar_sca::isa::Flags,
    scratch: Vec<u8>,
}

fn seed_reg(seed: u64, i: u8) -> u32 {
    (seed as u32)
        .wrapping_mul(2654435761)
        .wrapping_add(u32::from(i) * 97)
}

fn build(insns: &[Insn]) -> Program {
    let mut body = insns.to_vec();
    body.push(Insn::halt());
    Program::from_insns(0, &body).expect("encodes")
}

/// The registers a run starts from: seeded data in r0..r7 and the
/// scratch base in r10.
fn initial_regs(seed: u64) -> impl Iterator<Item = (Reg, u32)> {
    (0..8u8)
        .map(move |i| (Reg::from_index(i).expect("reg"), seed_reg(seed, i)))
        .chain([(Reg::R10, SCRATCH)])
}

fn run_on_cpu(program: &Program, mut config: UarchConfig, seed: u64) -> ArchState {
    config.mem_size = MEM_SIZE;
    let mut cpu = Cpu::new(config);
    cpu.load(program).expect("loads");
    for (reg, value) in initial_regs(seed) {
        cpu.set_reg(reg, value);
    }
    cpu.run(&mut NullObserver).expect("runs");
    cpu_state(&cpu)
}

fn cpu_state(cpu: &Cpu) -> ArchState {
    ArchState {
        regs: (0..13u8)
            .map(|i| cpu.reg(Reg::from_index(i).expect("reg")))
            .collect(),
        flags: cpu.flags(),
        scratch: cpu
            .mem()
            .read_bytes(SCRATCH, SCRATCH_LEN)
            .expect("scratch")
            .to_vec(),
    }
}

fn staged_interp(program: &Program, seed: u64) -> Interp {
    let mut interp = Interp::new(MEM_SIZE);
    interp.load(program).expect("loads");
    for (reg, value) in initial_regs(seed) {
        interp.set_reg(reg, value);
    }
    interp
}

fn run_on_interp(program: &Program, seed: u64) -> ArchState {
    let mut interp = staged_interp(program, seed);
    interp.run(1_000_000).expect("halts");
    interp_state(&interp)
}

fn interp_state(interp: &Interp) -> ArchState {
    ArchState {
        regs: (0..13u8)
            .map(|i| interp.reg(Reg::from_index(i).expect("reg")))
            .collect(),
        flags: interp.flags(),
        scratch: interp
            .read_bytes(SCRATCH, SCRATCH_LEN)
            .expect("scratch")
            .to_vec(),
    }
}

/// The ablation matrix: every microarchitectural variant the experiments
/// toggle must remain architecturally equivalent to the golden model.
fn ablations() -> Vec<(&'static str, UarchConfig)> {
    let a7 = UarchConfig::cortex_a7;
    let mut quiet = a7().with_ideal_memory();
    quiet.nop_zeroes_wb = false;
    quiet.nop_drives_operand_buses = false;
    quiet.align_buffer = false;
    let mut no_fwd = a7().with_ideal_memory();
    no_fwd.forwarding = false;
    let mut aggressive = a7().with_ideal_memory();
    aggressive.policy = DualIssuePolicy::structural_only();
    vec![
        ("cortex_a7 ideal", a7().with_ideal_memory()),
        ("cortex_a7 cached", a7()),
        ("scalar", UarchConfig::scalar().with_ideal_memory()),
        ("scalar cached", UarchConfig::scalar()),
        ("no forwarding", no_fwd),
        ("structural-only policy", aggressive),
        ("quiet leakage knobs", quiet),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn pipeline_conforms_to_the_golden_model(insns in arb_program(), seed in any::<u64>()) {
        let program = build(&insns);
        let golden = run_on_interp(&program, seed);
        for (name, config) in ablations() {
            let state = run_on_cpu(&program, config, seed);
            prop_assert_eq!(
                &state, &golden,
                "uarch '{}' diverged from the ISA interpreter", name
            );
        }
    }
}

/// One interpreter per lane, stepped through the straight-line program
/// together: their final states, and whether the lanes agreed on the
/// outcome of every instruction's condition.
fn run_lanes_on_interp(program: &Program, insns: &[Insn], seeds: &[u64]) -> (Vec<ArchState>, bool) {
    let mut interps: Vec<Interp> = seeds.iter().map(|&s| staged_interp(program, s)).collect();
    let mut agree = true;
    for insn in insns {
        let first = insn.cond.passes(interps[0].flags());
        agree &= interps.iter().all(|i| insn.cond.passes(i.flags()) == first);
        for interp in &mut interps {
            interp.step().expect("steps");
        }
    }
    for interp in &mut interps {
        interp.run(1).expect("halts");
    }
    (interps.iter().map(interp_state).collect(), agree)
}

fn run_on_block(
    program: &Program,
    mut config: UarchConfig,
    seeds: &[u64],
) -> Result<Vec<ArchState>, Divergence> {
    config.mem_size = MEM_SIZE;
    let mut template = Cpu::new(config);
    template.load(program).expect("loads");
    let mut block = CpuBlock::from_template(&template, seeds.len());
    block.restart_seeded(program.entry(), seeds);
    for (lane, &seed) in seeds.iter().enumerate() {
        for (reg, value) in initial_regs(seed) {
            block.lane_mut(lane).set_reg(reg, value);
        }
    }
    block.run(&mut NullObserver)?;
    Ok((0..seeds.len()).map(|l| cpu_state(block.lane(l))).collect())
}

/// The lockstep path against the same oracle: a block at 2 and 8 lanes,
/// each lane with its own register seed. Where the lanes' interpreters
/// agree on every condition the block must complete with every lane
/// matching its interpreter; where they disagree it must refuse with a
/// `Divergence`. Half the programs drop their conditions, so both
/// outcomes are exercised.
#[test]
fn lockstep_block_conforms_to_the_golden_model() {
    let strategy = (arb_program(), any::<u64>(), any::<bool>());
    let mut rng = proptest::fresh_rng("lockstep_block_conforms_to_the_golden_model");
    let (mut completed, mut diverged) = (0, 0);
    for case in 0..40 {
        let (mut insns, seed, unconditional) = strategy.sample(&mut rng);
        if unconditional {
            for insn in &mut insns {
                *insn = insn.with_cond(Cond::Al);
            }
        }
        let program = build(&insns);
        for lanes in [2u64, 8] {
            let seeds: Vec<u64> = (0..lanes)
                .map(|l| seed ^ l.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect();
            let (golden, agree) = run_lanes_on_interp(&program, &insns, &seeds);
            for (name, config) in ablations() {
                match run_on_block(&program, config, &seeds) {
                    Ok(states) => {
                        assert!(agree, "case {case}, {lanes} lanes, '{name}': lanes disagree on a condition, yet the block completed");
                        assert_eq!(states, golden, "case {case}, {lanes} lanes, '{name}'");
                        completed += 1;
                    }
                    Err(divergence) => {
                        assert!(!agree, "case {case}, {lanes} lanes, '{name}': {divergence}");
                        assert!(divergence.reason.contains("conditional"), "{divergence}");
                        diverged += 1;
                    }
                }
            }
        }
    }
    assert!(
        completed > 0 && diverged > 0,
        "both outcomes must be exercised: {completed} completed, {diverged} diverged"
    );
}

/// A deterministic corner-case battery (kept out of proptest so failures
/// name the kernel): flag chains through conditional execution, shifted
/// stores, multi-transfers and long multiplies.
#[test]
fn handwritten_kernels_conform() {
    use superscalar_sca::isa::assemble;
    let kernels = [
        "
            mov r0, #0
            subs r1, r0, #1     ; borrow clears C
            sbc r2, r1, #2
            adcs r3, r2, r2
            movmi r4, #0x80
            halt
        ",
        "
            mov r10, #0x4000
            mov r0, #0xff
            strb r0, [r10, #3]
            ldr r1, [r10]
            mov r2, r1, lsr #24
            strh r2, [r10, #4]
            ldmia r10, {r3, r4}
            halt
        ",
        "
            mvn r0, #0
            mov r1, #7
            smull r2, r3, r0, r1
            umull r4, r5, r0, r1
            muls r6, r0, r1
            halt
        ",
        "
            mov r10, #0x4000
            mov r0, #1
            mov r1, #2
            stmia r10, {r0, r1}
            ldrsh0: ldrh r2, [r10, #1]  ; unaligned halfword aligns down
            ldr r3, [r10, #2]           ; unaligned word aligns down
            halt
        ",
    ];
    for (k, src) in kernels.iter().enumerate() {
        let program = assemble(src).expect("assembles");
        let mut interp = Interp::new(MEM_SIZE);
        interp.load(&program).expect("loads");
        interp.run(10_000).expect("halts");
        for (name, mut config) in ablations() {
            config.mem_size = MEM_SIZE;
            let mut cpu = Cpu::new(config);
            cpu.load(&program).expect("loads");
            cpu.run(&mut NullObserver).expect("runs");
            for i in 0..13u8 {
                let reg = Reg::from_index(i).expect("reg");
                assert_eq!(
                    cpu.reg(reg),
                    interp.reg(reg),
                    "kernel {k}, uarch '{name}', {reg}"
                );
            }
            assert_eq!(cpu.flags(), interp.flags(), "kernel {k}, uarch '{name}'");
        }
    }
}
