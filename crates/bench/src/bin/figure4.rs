//! Regenerates Figure 4: CPA against AES as a userspace process on a
//! loaded Linux system (Apache at 1000 req/s on the second core), with
//! the HD-between-consecutive-SubBytes-stores model.
//!
//! Usage: `cargo run --release -p sca-bench --bin figure4 [--traces N]
//! [--bench-json PATH]`

use sca_bench::{plot, run_figure4, write_total_timing, CommonArgs, Figure4Config};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse();
    args.reject_metrics_json("figure4");
    args.reject_store_flags("figure4");
    args.reject_lanes("figure4");
    let config = Figure4Config {
        traces: args.trace_count(2500, 10_000),
        seed: args.seed,
        threads: args.threads,
        batch: args.batch,
        ..Figure4Config::default()
    };
    println!(
        "Figure 4 — CPA under loaded Linux, model HD(two consecutive SubBytes stores), {} traces (avg of {})\n",
        config.traces, config.executions_per_trace
    );
    let started = std::time::Instant::now();
    let result = run_figure4(&config)?;
    if let Some(path) = &args.bench_json {
        write_total_timing(path, "figure4/total", started.elapsed().as_secs_f64())?;
    }

    let us_per_sample = 1.0 / (500.0 / 120.0 * 120.0);
    println!("correlation of the correct key guess:");
    print!(
        "{}",
        plot::ascii_plot(&result.series_correct, 10, 100, "us", us_per_sample)
    );
    let wrong_peak = result.series_best_wrong.iter().copied().fold(0.0, f64::max);
    println!(
        "\nkey byte: recovered 0x{:02x}, true 0x{:02x} -> {}",
        result.recovered,
        result.correct,
        if result.success() {
            "SUCCESS"
        } else {
            "FAILURE"
        }
    );
    println!(
        "peak correct |corr| {:.4}; best wrong {:.4}; distinguishing confidence {:.2}% (paper requires > 99%)",
        result.peak(),
        wrong_peak,
        result.success_confidence * 100.0
    );
    println!(
        "same model on bare metal peaks at {:.4}: the OS environment costs a {:.1}x amplitude reduction (paper: ~5x)",
        result.bare_metal_peak,
        result.amplitude_reduction()
    );
    println!("\nseries (decimated):");
    print!(
        "{}",
        plot::series_table(&result.series_correct, 40, us_per_sample, "time_us", "corr")
    );
    Ok(())
}
