//! Regenerates Table 2: per-component leakage characterization of the
//! seven micro-benchmarks.
//!
//! Usage: `cargo run --release -p sca-bench --bin table2 [--traces N] [--full]
//! [--bench-json PATH]`

use sca_bench::{write_total_timing, CommonArgs};
use sca_core::{characterize, CharacterizationConfig};
use sca_uarch::UarchConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse();
    args.reject_metrics_json("table2");
    args.reject_store_flags("table2");
    args.reject_lanes("table2");
    let config = CharacterizationConfig {
        traces: args.trace_count(4000, 100_000),
        executions_per_trace: if args.full { 16 } else { 4 },
        threads: args.threads,
        batch: args.batch,
        seed: args.seed,
        ..CharacterizationConfig::default()
    };
    println!(
        "Table 2 — leakage characterization ({} traces x {} averaged executions per benchmark)\n",
        config.traces, config.executions_per_trace
    );
    let started = std::time::Instant::now();
    let report = characterize(&UarchConfig::cortex_a7(), &config)?;
    if let Some(path) = &args.bench_json {
        write_total_timing(path, "table2/total", started.elapsed().as_secs_f64())?;
    }
    println!("{}", report.render());
    Ok(())
}
