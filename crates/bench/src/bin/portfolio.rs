//! Cipher-portfolio evaluation: Table-2-style characterization, HW and
//! HD CPA, TVLA and node audits for every registered cipher target —
//! AES-128 (unprotected and masked), SPECK64/128 and PRESENT-80.
//!
//! Usage: `cargo run --release -p sca-bench --bin portfolio
//! [--traces N] [--quick|--full] [--bench-json PATH] [--metrics-json PATH]
//! [--store DIR [--checkpoint-every N] [--resume] [--kill-after N]]
//! [--store DIR --reanalyze]`
//!
//! `--metrics-json` additionally writes the run's telemetry snapshot
//! (span phase times, work counters) as a `customSmallerIsBetter` JSON
//! array and prints the human-readable tree to stderr. Telemetry never
//! touches stdout: the verdict lines stay byte-identical with or
//! without it.
//!
//! With `--store`, every CPA/TVLA campaign persists its traces and
//! checkpoints its accumulator state; a run killed mid-campaign (or by
//! `--kill-after`, which exits 3) is picked up by `--resume` with
//! byte-identical stdout. `--reanalyze` skips simulation entirely and
//! streams the stored corpora back through the attack statistics; its
//! `--metrics-json` carries `power/simulator_runs` (0) and
//! `analysis/cells_absorbed`, which equals the stored run's.

use std::path::Path;

use sca_bench::{
    run_portfolio, run_portfolio_reanalyze, CommonArgs, PortfolioConfig, PortfolioStoreConfig,
};
use sca_target::{ModelKind, TargetError};

fn reanalyze(root: &Path) -> Result<(), Box<dyn std::error::Error>> {
    // Reading the counter registers it, so the metrics show the zero
    // resimulation instead of leaving the counter out.
    let _ = sca_power::simulator_runs();
    println!("Cipher portfolio — re-analysis of the stored corpora under {root:?}\n");
    let reports = run_portfolio_reanalyze(root)?;
    println!("verdicts:");
    for report in &reports {
        for line in report.verdict_lines() {
            println!("  {line}");
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse();
    if args.reanalyze {
        let root = args.store.as_deref().expect("parser requires --store");
        reanalyze(Path::new(root))?;
    } else {
        evaluate(&args)?;
    }
    if let Some(path) = &args.metrics_json {
        let snap = sca_telemetry::global().snapshot();
        std::fs::write(path, sca_telemetry::render_metrics_json(&snap))?;
        // The human-readable tree goes to stderr: stdout carries only
        // the byte-deterministic verdicts.
        eprintln!("{}", sca_telemetry::render_summary(&snap));
        eprintln!(
            "wrote {} metrics to {path}",
            snap.counters.len() + snap.spans.len()
        );
    }
    Ok(())
}

/// Runs the portfolio and prints its report.
fn evaluate(args: &CommonArgs) -> Result<(), Box<dyn std::error::Error>> {
    let config = PortfolioConfig {
        traces: args.trace_count(700, 4_000),
        executions_per_trace: if args.quick() { 8 } else { 16 },
        charz_traces: if args.quick() { 400 } else { 2_000 },
        audit_executions: if args.quick() { 250 } else { 600 },
        seed: args.seed,
        threads: args.threads,
        batch: args.batch,
        lanes: args.lanes,
        store: args.store.as_ref().map(|root| PortfolioStoreConfig {
            root: root.into(),
            checkpoint_every: args.checkpoint_every,
            resume: args.resume,
            kill_after: args.kill_after,
        }),
        ..PortfolioConfig::default()
    };
    println!(
        "Cipher portfolio — the paper's methodology across cipher families, \
         {} traces per campaign\n",
        config.traces
    );
    let result = match run_portfolio(&config) {
        Ok(result) => result,
        // The --kill-after fault injection fired: everything up to the
        // last checkpoint is durable. Exit 3 so the crash-recovery CI
        // job can tell "killed as planned" from a real failure.
        Err(e) if matches!(e.downcast_ref::<TargetError>(), Some(e) if e.is_killed()) => {
            eprintln!("killed by --kill-after fault injection: {e}");
            std::process::exit(3);
        }
        Err(e) => return Err(e),
    };

    for target in &result.targets {
        println!(
            "== {} (primary window {} cycles) ==",
            target.name, target.window_cycles
        );
        for verdict in &target.cpa {
            println!(
                "  {:<44} peak correct |corr| {:.4}, best wrong {:.4}",
                verdict.verdict(),
                verdict.peak,
                verdict.best_wrong,
            );
        }
        println!(
            "  TVLA fixed-vs-random: max |t| {:.2} -> {} ({} fixed / {} random traces)",
            target.tvla.max_t,
            if target.tvla.leaks { "LEAKS" } else { "clean" },
            target.tvla.counts.0,
            target.tvla.counts.1,
        );
        println!(
            "  Table-2-style characterization ({} traces, 99.5% confidence):",
            config.charz_traces
        );
        for row in &target.charz {
            println!("    model {}", row.model);
            for cell in &row.cells {
                println!(
                    "      {:<14} corr {:+.4} -> {}",
                    cell.component.label(),
                    cell.peak_corr,
                    if cell.significant { "RED" } else { "black" },
                );
            }
        }
        println!(
            "  node audit: {} operand-path leak(s), {} memory-path leak(s)\n",
            target.audit_operand, target.audit_memory,
        );
    }

    println!("verdicts:");
    for line in result.verdict_lines() {
        println!("  {line}");
    }

    let speck = result.target("speck64128");
    let present = result.target("present80");
    println!();
    println!(
        "portfolio claim: the microarchitecture-aware HD models generalize beyond AES — \
         SPECK64/128 (ARX: shifter + adder carry chains) key byte recovered: {}; \
         PRESENT-80 (4-bit S-box: sub-word align remanence) key byte recovered: {}",
        speck.cpa_for(ModelKind::TransitionHd).success(),
        present.cpa_for(ModelKind::TransitionHd).success(),
    );

    if let Some(path) = &args.bench_json {
        std::fs::write(path, result.timings_json())?;
        eprintln!("wrote {} kernel timings to {path}", result.timings.len());
    }
    Ok(())
}
