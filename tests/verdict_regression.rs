//! Verdict non-regression snapshots.
//!
//! Each experiment driver runs here at a reduced, fixed-seed scale and
//! its *verdict* — recovered key bytes, success flags, ranks, audit
//! counts — is pinned exactly. A pipeline, power-model or uarch change
//! that silently flips an attack outcome now fails `cargo test` instead
//! of only showing up in a full campaign; an intentional model change
//! must update these snapshots (and say so in review).
//!
//! The campaigns are deterministic by the engine's contract (seed →
//! per-trace RNG streams, thread-count invariant verdicts), so these
//! snapshots hold on any machine and at any `--threads`; the configs
//! below use 4 workers to keep tier-1 fast.

use sca_bench::{
    run_figure3, run_figure4, run_masked, run_portfolio, Figure3Config, Figure4Config,
    MaskedConfig, PortfolioConfig,
};
use superscalar_sca::power::GaussianNoise;
use superscalar_sca::target::ModelKind;

/// A quiet probe chain: the test-scale campaigns keep the full sampling
/// and OS models but lower the probe noise so a few hundred traces
/// resolve the verdicts in debug builds. The full-noise quick/paper
/// scales run through the binaries (and CI regenerates them).
fn quiet_probe() -> GaussianNoise {
    GaussianNoise {
        sd: 2.0,
        baseline: 30.0,
    }
}

/// Figure 3 at 200 traces: the HW model recovers key byte 0 on bare
/// metal, with the leakage localized in round-1 primitives.
#[test]
fn figure3_quick_verdict_is_stable() {
    let result = run_figure3(&Figure3Config {
        traces: 250,
        executions_per_trace: 2,
        threads: 4,
        noise: quiet_probe(),
        ..Figure3Config::default()
    })
    .expect("figure3 runs");
    assert_eq!(
        (result.recovered, result.correct, result.success()),
        (0x2b, 0x2b, true),
        "figure3 verdict changed: peak {:.4}",
        result.peak()
    );
    assert!(!result.regions.is_empty(), "round-1 regions disappeared");
}

/// Figure 4 at 200 traces under the loaded-Linux environment: at this
/// scale the OS-noise attack has not converged (key recovery at scale
/// is asserted by `tests/attack_reproduction.rs` and the `figure4`
/// binary), so the snapshot pins the exact deterministic outcome — any
/// silent pipeline or environment-model change still flips it.
#[test]
fn figure4_quick_verdict_is_stable() {
    let result = run_figure4(&Figure4Config {
        traces: 200,
        executions_per_trace: 4,
        threads: 4,
        noise: quiet_probe(),
        ..Figure4Config::default()
    })
    .expect("figure4 runs");
    assert_eq!(
        (result.recovered, result.correct, result.success()),
        (0xf6, 0x7e, false),
        "figure4 verdict changed: peak {:.4}, confidence {:.3}",
        result.peak(),
        result.success_confidence
    );
    assert!(
        result.bare_metal_peak > result.peak(),
        "the OS environment must cost amplitude: bare {:.4} vs loaded {:.4}",
        result.bare_metal_peak,
        result.peak()
    );
}

/// The countermeasure suite at 120 traces: every verdict line — all
/// three targets × (HW CPA, HD CPA, TVLA) plus the two audit summaries
/// — pinned byte for byte, with each target's HD window and both
/// ablation verdicts.
#[test]
fn masked_quick_verdict_lines_are_stable() {
    let result = run_masked(&MaskedConfig {
        traces: 120,
        executions_per_trace: 2,
        threads: 4,
        audit_executions: 250,
        ..MaskedConfig::default()
    })
    .expect("masked suite runs");
    let expected = [
        "[unprotected] HW(SubBytes(pt[1] ^ k)): FAILURE (recovered 0xa7, true 0x7e, rank 64)",
        "[unprotected] HD(SubBytes stores 0 -> 1): FAILURE (recovered 0x41, true 0x7e, rank 131)",
        "[unprotected] TVLA fixed-vs-random: LEAKS",
        "[masked] HW(SubBytes(pt[1] ^ k)): FAILURE (recovered 0x19, true 0x7e, rank 136)",
        "[masked] HD(SubBytes stores 0 -> 1): FAILURE (recovered 0x3c, true 0x7e, rank 40)",
        // Leaks like the portfolio's `[aes128-masked]` TVLA line, which
        // draws its fixed-class inputs the same way (the fixed
        // plaintext, then fresh masks), and as the audit's two
        // operand-path leaks below predict.
        "[masked] TVLA fixed-vs-random: LEAKS",
        // The two masked+sched byte values moved when the scheduler
        // stopped counting control flow as share separation (it now
        // scrubs call boundaries too — the residual align-buffer hazard
        // `sca-lint` flagged); the verdicts themselves are unchanged.
        "[masked+sched] HW(SubBytes(pt[1] ^ k)): FAILURE (recovered 0x52, true 0x7e, rank 233)",
        "[masked+sched] HD(SubBytes stores 0 -> 1): FAILURE (recovered 0xcf, true 0x7e, rank 119)",
        "[masked+sched] TVLA fixed-vs-random: clean",
        "[masked] audit: 2 operand-path leak(s), 0 HW-model leak(s)",
        "[masked+sched] audit: 0 operand-path leak(s), 0 HW-model leak(s)",
    ];
    let lines = result.verdict_lines();
    assert_eq!(
        lines,
        expected,
        "masked verdict lines changed:\n{}",
        lines.join("\n")
    );

    // The SubBytes (HD) window of each target: the scheduler's scrubs
    // widen the masked span from 116 to 265 cycles.
    let windows: Vec<u64> = result.targets.iter().map(|t| t.hd.window_cycles).collect();
    assert_eq!(windows, [116, 116, 265], "HD windows changed");

    // The masked target under the two uarch ablations.
    let ablations: Vec<String> = result
        .ablations
        .iter()
        .map(|row| format!("{}: {}", row.name, row.hd.verdict()))
        .collect();
    assert_eq!(
        ablations,
        [
            "dual-issue off (scalar): HD(SubBytes stores 0 -> 1): FAILURE \
             (recovered 0xc0, true 0x7e, rank 71)",
            "align buffer off: HD(SubBytes stores 0 -> 1): FAILURE \
             (recovered 0x3c, true 0x7e, rank 44)",
        ],
        "ablation verdicts changed:\n{}",
        ablations.join("\n")
    );

    // The acceptance-critical structure holds even at this scale (the
    // CPA ranks need the binary's larger campaigns, but the noise-free
    // audit does not): the masked-but-unscheduled target recombines the
    // shares on operand-bus/IS-EX nodes, the value-level HW model is
    // blind to the masked implementation, and the scheduler's scrubs
    // silence the recombination entirely.
    assert!(result.audit_masked.operand_path > 0);
    assert_eq!(result.audit_masked.hw_findings, 0);
    assert_eq!(
        (
            result.audit_scheduled.operand_path,
            result.audit_scheduled.memory_path,
            result.audit_scheduled.hw_findings
        ),
        (0, 0, 0)
    );
    assert!(result.harden.mem_scrubs > 0);
    // The closed TVLA caveat: the extended scrub scope (store+reload
    // pairs over SubBytes *and* ShiftRows, ALU scrub pairs for the mov
    // shuttle) leaves the scheduled target clean under fixed-vs-random
    // assessment.
    let sched = result.target("masked+sched");
    assert!(
        !sched.tvla.leaks,
        "masked+sched must assess TVLA-clean (max |t| {:.2})",
        sched.tvla.max_t
    );
}

/// The cipher portfolio at reduced scale: every verdict line — four
/// targets × (HW CPA, HD CPA, TVLA, two Table-2-style characterization
/// rows, audit) — pinned byte for byte, plus the acceptance-critical
/// structure: the microarchitecture-aware HD model recovers the key
/// byte (rank 0) for the two new, unprotected cipher families.
#[test]
fn portfolio_quick_verdict_lines_are_stable() {
    let result = run_portfolio(&PortfolioConfig {
        traces: 150,
        executions_per_trace: 2,
        threads: 4,
        charz_traces: 150,
        audit_executions: 200,
        noise: quiet_probe(),
        ..PortfolioConfig::default()
    })
    .expect("portfolio runs");
    let expected = [
        "[aes128] HW(SubBytes(pt[1] ^ k)): SUCCESS (recovered 0x7e, true 0x7e, rank 0)",
        "[aes128] HD(SubBytes stores 0 -> 1): SUCCESS (recovered 0x7e, true 0x7e, rank 0)",
        "[aes128] TVLA fixed-vs-random: LEAKS",
        "[aes128] charz HW(SubBytes(pt[1] ^ k)): RF=black ISEX=black SHIFT=black ALU=black \
         EXWB=black MDR=black ALIGN=black",
        "[aes128] charz HD(SubBytes stores 0 -> 1): RF=black ISEX=RED SHIFT=black ALU=black \
         EXWB=black MDR=black ALIGN=RED",
        "[aes128] audit: 2 operand-path leak(s), 1 memory-path leak(s)",
        "[aes128-masked] HW(SubBytes(pt[1] ^ k)): FAILURE (recovered 0x79, true 0x7e, rank 89)",
        "[aes128-masked] HD(SubBytes stores 0 -> 1): SUCCESS (recovered 0x7e, true 0x7e, rank 0)",
        "[aes128-masked] TVLA fixed-vs-random: LEAKS",
        "[aes128-masked] charz HW(SubBytes(pt[1] ^ k)): RF=black ISEX=black SHIFT=black \
         ALU=black EXWB=black MDR=black ALIGN=black",
        "[aes128-masked] charz HD(SubBytes stores 0 -> 1): RF=black ISEX=RED SHIFT=black \
         ALU=black EXWB=black MDR=black ALIGN=RED",
        "[aes128-masked] audit: 2 operand-path leak(s), 1 memory-path leak(s)",
        "[speck64128] HW(x26 commit byte 1): SUCCESS (recovered 0x3a, true 0x3a, rank 0)",
        "[speck64128] HD(x26 commit bytes 1 -> 2): SUCCESS (recovered 0x52, true 0x52, rank 0)",
        "[speck64128] TVLA fixed-vs-random: LEAKS",
        "[speck64128] charz HW(x26 commit byte 1): RF=black ISEX=RED SHIFT=black ALU=RED \
         EXWB=RED MDR=black ALIGN=black",
        "[speck64128] charz HD(x26 commit bytes 1 -> 2): RF=black ISEX=RED SHIFT=black \
         ALU=black EXWB=RED MDR=black ALIGN=RED",
        "[speck64128] audit: 17 operand-path leak(s), 1 memory-path leak(s)",
        "[present80] HW(sBoxLayer(pt[1] ^ k)): FAILURE (recovered 0x1c, true 0x7e, rank 42)",
        "[present80] HD(sBoxLayer stores 0 -> 1): SUCCESS (recovered 0x7e, true 0x7e, rank 0)",
        "[present80] TVLA fixed-vs-random: LEAKS",
        "[present80] charz HW(sBoxLayer(pt[1] ^ k)): RF=black ISEX=black SHIFT=black ALU=black \
         EXWB=black MDR=RED ALIGN=black",
        "[present80] charz HD(sBoxLayer stores 0 -> 1): RF=black ISEX=RED SHIFT=black \
         ALU=black EXWB=RED MDR=RED ALIGN=RED",
        "[present80] audit: 2 operand-path leak(s), 6 memory-path leak(s)",
    ];
    let lines = result.verdict_lines();
    assert_eq!(
        lines,
        expected,
        "portfolio verdict lines changed:\n{}",
        lines.join("\n")
    );

    for name in ["speck64128", "present80"] {
        let hd = result.target(name).cpa_for(ModelKind::TransitionHd);
        assert!(
            hd.success(),
            "[{name}] the HD model must recover the key byte: {}",
            hd.verdict()
        );
    }
}
