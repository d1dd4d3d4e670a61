//! Regenerates Figure 3: CPA against bare-metal AES with the Hamming
//! weight of the SubBytes output as the leakage model.
//!
//! Usage: `cargo run --release -p sca-bench --bin figure3 [--traces N] [--full]`

use sca_bench::{plot, run_figure3, CommonArgs, Figure3Config};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse();
    args.reject_bench_json("figure3");
    args.reject_metrics_json("figure3");
    args.reject_store_flags("figure3");
    args.reject_lanes("figure3");
    let config = Figure3Config {
        traces: args.trace_count(1500, 100_000),
        executions_per_trace: if args.full { 16 } else { 4 },
        seed: args.seed,
        threads: args.threads,
        batch: args.batch,
        ..Figure3Config::default()
    };
    println!(
        "Figure 3 — CPA vs time on bare metal, model HW(SubBytes out), {} traces\n",
        config.traces
    );
    let result = run_figure3(&config)?;

    let us_per_sample = 1.0 / (result.samples_per_cycle * 120.0);
    println!("correlation of the correct key guess over round 1:");
    print!(
        "{}",
        plot::ascii_plot(&result.series_correct, 10, 100, "us", us_per_sample)
    );
    println!("\nround-primitive regions (sample ranges):");
    for region in &result.regions {
        let peak = result.peak_in(&region.name);
        println!(
            "  {:<4} [{:>5}..{:>5}]  ({:>6.3} us .. {:>6.3} us)   peak |corr| in region {:.4}",
            region.name,
            region.start,
            region.end,
            region.start as f64 * us_per_sample,
            region.end as f64 * us_per_sample,
            peak
        );
    }
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
        "peak correct-key |corr| {:.4}; best wrong guess {:.4}",
        result.peak(),
        wrong_peak
    );
    println!("\nseries (decimated):");
    print!(
        "{}",
        plot::series_table(&result.series_correct, 40, us_per_sample, "time_us", "corr")
    );
    Ok(())
}
