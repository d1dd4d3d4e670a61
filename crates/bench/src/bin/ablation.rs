//! Ablation studies: the title claim — "evaluating the impact of
//! micro-architectural features" — made quantitative.
//!
//! Each ablation toggles one feature of the modeled core and re-runs the
//! relevant characterization, showing how the leakage verdicts move:
//!
//! 1. **dual-issue off** — the row-3 pair no longer issues together, so
//!    its operands/results start sharing buffers and leak (Section 4.2's
//!    remark that dual-issuing two shares can *improve* security);
//! 2. **nop WB-zeroing off** — the † boundary leaks vanish ("nops are
//!    semantically neutral but not security neutral", inverted);
//! 3. **align buffer off** — the sub-word remanence leak of row 7
//!    disappears;
//! 4. **operand swap** — swapping the operands of a commutative `eor`
//!    changes which bus positions the shares occupy, creating leakage
//!    that ISA-level reasoning cannot see (audited, not measured).
//!
//! Usage: `cargo run --release -p sca-bench --bin ablation [--traces N]`

use sca_analysis::input_word;
use sca_bench::CommonArgs;
use sca_core::{
    audit_program, run_benchmark, table2_benchmarks, AuditConfig, CharacterizationConfig,
    SecretModel,
};
use sca_isa::{assemble, Reg};
use sca_uarch::{Node, UarchConfig};

fn characterization(args: &CommonArgs) -> CharacterizationConfig {
    CharacterizationConfig {
        traces: args.trace_count(800, 20_000),
        executions_per_trace: 2,
        threads: args.threads,
        batch: args.batch,
        seed: args.seed,
        ..CharacterizationConfig::default()
    }
}

fn cell_corr(row: &sca_core::RowResult, component: sca_uarch::NodeKind, expr: &str) -> (f64, bool) {
    row.cells
        .iter()
        .find(|c| c.component == component && c.expr == expr)
        .map_or((0.0, false), |c| (c.peak_corr.abs(), c.significant))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse();
    args.reject_bench_json("ablation");
    args.reject_metrics_json("ablation");
    args.reject_store_flags("ablation");
    args.reject_lanes("ablation");
    let config = characterization(&args);
    let benchmarks = table2_benchmarks();
    println!("Ablations — impact of individual microarchitectural features\n");

    // 1. Dual issue.
    {
        let row3 = &benchmarks[2];
        let on = run_benchmark(row3, &UarchConfig::cortex_a7(), &config)?;
        let off = run_benchmark(row3, &UarchConfig::scalar(), &config)?;
        let (corr_on, sig_on) = cell_corr(&on, sca_uarch::NodeKind::ExWbBuffer, "rA ^ rD");
        let (corr_off, sig_off) = cell_corr(&off, sca_uarch::NodeKind::ExWbBuffer, "rA ^ rD");
        println!("1. dual-issue and result combination (row 3, EX/WB model rA ^ rD):");
        println!("   dual-issue ON  (A7):      |corr| {corr_on:.4}  leak detected: {sig_on}");
        println!("   dual-issue OFF (scalar):  |corr| {corr_off:.4}  leak detected: {sig_off}");
        println!(
            "   -> pairing the instructions keeps their results on separate WB buses{}\n",
            if !sig_on && sig_off {
                " (leak appears only when scalar)"
            } else {
                ""
            }
        );
    }

    // 2. nop write-back zeroing.
    {
        let row1 = &benchmarks[0];
        let mut no_zeroing = UarchConfig::cortex_a7();
        no_zeroing.nop_zeroes_wb = false;
        let on = run_benchmark(row1, &UarchConfig::cortex_a7(), &config)?;
        let off = run_benchmark(row1, &no_zeroing, &config)?;
        let (corr_on, sig_on) = cell_corr(&on, sca_uarch::NodeKind::ExWbBuffer, "rB (†)");
        let (corr_off, sig_off) = cell_corr(&off, sca_uarch::NodeKind::ExWbBuffer, "rB (†)");
        println!("2. nop WB-bus zeroing and the † boundary leaks (row 1, EX/WB model rB):");
        println!("   nop zeroes WB (A7):       |corr| {corr_on:.4}  leak detected: {sig_on}");
        println!("   nop leaves WB alone:      |corr| {corr_off:.4}  leak detected: {sig_off}");
        println!("   -> the A7's never-executed-conditional nop is not security neutral\n");
    }

    // 3. Align buffer.
    {
        let row7 = &benchmarks[6];
        let mut no_align = UarchConfig::cortex_a7();
        no_align.align_buffer = false;
        let on = run_benchmark(row7, &UarchConfig::cortex_a7(), &config)?;
        let off = run_benchmark(row7, &no_align, &config)?;
        let (corr_on, sig_on) = cell_corr(&on, sca_uarch::NodeKind::AlignBuffer, "rC ^ rG");
        let (corr_off, sig_off) = cell_corr(&off, sca_uarch::NodeKind::AlignBuffer, "rC ^ rG");
        println!("3. LSU align buffer and sub-word remanence (row 7, align model rC ^ rG):");
        println!("   align buffer present:     |corr| {corr_on:.4}  leak detected: {sig_on}");
        println!("   align buffer removed:     |corr| {corr_off:.4}  leak detected: {sig_off}");
        println!(
            "   -> byte values recombine across an intervening word load only via the buffer\n"
        );
    }

    // 4. Operand swap (Section 4.2's "apparently harmless change").
    {
        let straight = assemble(
            "
            nop
            eor r2, r0, r4
            eor r3, r4, r1
            nop
            halt
        ",
        )?;
        let swapped = assemble(
            "
            nop
            eor r2, r0, r4
            eor r3, r1, r4    ; operands of the commutative eor swapped
            nop
            halt
        ",
        )?;
        let models = || {
            [SecretModel::new("HD(share0, share1)", |i: &[u8]| {
                f64::from((input_word(i, 0) ^ input_word(i, 1)).count_ones())
            })]
        };
        let stage = |cpu: &mut sca_uarch::Cpu, input: &[u8]| {
            cpu.set_reg(Reg::R0, input_word(input, 0));
            cpu.set_reg(Reg::R1, input_word(input, 1));
            cpu.set_reg(Reg::R4, 0x5a5a_5a5a);
        };
        let audit_cfg = AuditConfig {
            executions: 400,
            threads: args.threads,
            ..AuditConfig::default()
        };
        let uarch = UarchConfig::cortex_a7().with_ideal_memory();
        let report_straight = audit_program(&uarch, &straight, 8, stage, &models(), &audit_cfg)?;
        let report_swapped = audit_program(&uarch, &swapped, 8, stage, &models(), &audit_cfg)?;
        let bus_leaks = |report: &sca_core::AuditReport| {
            report
                .findings
                .iter()
                .filter(|f| matches!(f.node, Node::OperandBus(_) | Node::IsExOp { .. }))
                .count()
        };
        println!("4. operand swap on a commutative instruction (audited share recombination):");
        println!(
            "   eor r3, r4, r1 (shares in different positions): {} operand-path leaks",
            bus_leaks(&report_straight)
        );
        println!(
            "   eor r3, r1, r4 (share aligned with share0's bus): {} operand-path leaks",
            bus_leaks(&report_swapped)
        );
        println!("   -> a semantically identical swap changes pipeline resource sharing\n");
    }

    Ok(())
}
