//! Countermeasure evaluation: first-order masked AES-128, with and
//! without scheduling defenses, versus the paper's two CPA models, a
//! fixed-vs-random TVLA assessment, and the node-level audit.
//!
//! Usage: `cargo run --release -p sca-bench --bin masked [--traces N] [--quick|--full]`

use sca_bench::{run_masked, CommonArgs, MaskedConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse();
    args.reject_bench_json("masked");
    args.reject_metrics_json("masked");
    args.reject_store_flags("masked");
    args.reject_lanes("masked");
    let config = MaskedConfig {
        traces: args.trace_count(400, 5_000),
        executions_per_trace: if args.quick() { 8 } else { 16 },
        audit_executions: if args.quick() { 250 } else { 600 },
        seed: args.seed,
        threads: args.threads,
        batch: args.batch,
        ..MaskedConfig::default()
    };
    println!(
        "Countermeasure suite — masked AES-128 vs scheduling defenses, {} traces per campaign\n",
        config.traces
    );
    let result = run_masked(&config)?;

    println!(
        "scheduler: {} store+reload and {} ALU scrub pair(s) inserted into the masked \
         SubBytes/ShiftRows span ({} -> {} instructions)\n",
        result.harden.mem_scrubs,
        result.harden.bus_scrubs,
        result.harden.original_insns,
        result.harden.hardened_insns
    );

    for target in &result.targets {
        println!(
            "== {} (round-1 window {} cycles, SubBytes window {} cycles) ==",
            target.name, target.hw.window_cycles, target.hd.window_cycles
        );
        for outcome in [&target.hw, &target.hd] {
            println!(
                "  {:<40} peak correct |corr| {:.4}, best wrong {:.4}",
                outcome.verdict(),
                outcome.peak,
                outcome.best_wrong,
            );
        }
        let tvla = &target.tvla;
        println!(
            "  TVLA fixed-vs-random: max |t| {:.2} -> {} ({} fixed / {} random traces)",
            tvla.max_t,
            if tvla.leaks { "LEAKS" } else { "clean" },
            tvla.counts.0,
            tvla.counts.1,
        );
        println!();
    }

    println!("node-level audit of the masked implementations (round-1 SubBytes window):");
    for (name, audit) in [
        ("masked", &result.audit_masked),
        ("masked+sched", &result.audit_scheduled),
    ] {
        println!(
            "  {:<14} {} operand-path leak(s) (operand bus / IS-EX), {} memory-path \
             (MDR/align), {} HW-model, {} total",
            name, audit.operand_path, audit.memory_path, audit.hw_findings, audit.total,
        );
    }
    println!();

    println!("masked target under microarchitectural ablations (HD store model):");
    for row in &result.ablations {
        println!(
            "  {:<26} {}  peak {:.4}",
            row.name,
            row.hd.verdict(),
            row.hd.peak
        );
    }
    println!();

    println!("verdicts:");
    for line in result.verdict_lines() {
        println!("  {line}");
    }

    let masked = result.target("masked");
    let sched = result.target("masked+sched");
    let unprotected = result.target("unprotected");
    println!();
    println!(
        "paper comparison: unprotected falls to both models ({}), masking defeats the \
         value-level HW model ({}) but NOT the microarchitectural HD store model ({}), \
         because the shared output mask cancels in the LSU transition — scheduling \
         distance restores it ({}; correct-key rank degraded to {})",
        unprotected.hd.success() && unprotected.hw.success(),
        !masked.hw.success(),
        masked.hd.success(),
        !sched.hd.success(),
        sched.hd.rank,
    );
    Ok(())
}
