//! Regime-matrix benchmark: the microarchitecture-aware HD CPA run at
//! every `threads x batch` operating point, for every portfolio target.
//!
//! Usage: `cargo run --release -p sca-bench --bin regime_matrix
//! [--traces N] [--seed N] [--lanes N] [--quick|--full]
//! [--bench-json PATH]`
//!
//! The sweep owns its `threads`/`batch` grid (that is the point of a
//! regime matrix), so those flags are *not* accepted here. Verdict
//! lines go to stdout and are byte-deterministic — the engine's
//! determinism contract makes every cell of one target print the same
//! verdict, which this binary asserts. Wall-clock timings are
//! machine-dependent and go only to `--bench-json`, one
//! `regime/<target>/t<threads>/b<batch>` entry per cell, the
//! per-cell counterpart of `portfolio --bench-json`'s phase entries.

use std::time::Instant;

use sca_target::{portfolio, ModelKind, TargetCampaign, TargetCampaignConfig};
use sca_uarch::UarchConfig;

const THREAD_GRID: [usize; 3] = [1, 2, 4];
const BATCH_GRID: [usize; 2] = [16, 64];

const USAGE: &str = "known flags: --traces N, --seed N, --lanes N, --quick, --full, \
     --bench-json PATH (the threads x batch grid is fixed)";

#[derive(Clone, Debug)]
struct MatrixArgs {
    traces: Option<usize>,
    seed: u64,
    lanes: usize,
    full: bool,
    bench_json: Option<String>,
}

fn fail(msg: String) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, raw: String) -> T {
    raw.parse()
        .unwrap_or_else(|_| fail(format!("flag '{flag}' got unparsable value '{raw}'")))
}

fn parse_args() -> MatrixArgs {
    let mut out = MatrixArgs {
        traces: None,
        seed: 0xdac_2018,
        lanes: sca_campaign::DEFAULT_LANES,
        full: false,
        bench_json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(format!("flag '{flag}' expects a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--traces" => out.traces = Some(parse(&arg, value(&arg))),
            "--seed" => out.seed = parse(&arg, value(&arg)),
            "--lanes" => out.lanes = parse(&arg, value(&arg)),
            "--quick" => out.full = false,
            "--full" => out.full = true,
            "--bench-json" => out.bench_json = Some(value(&arg)),
            unknown => fail(format!("unrecognized argument '{unknown}'")),
        }
    }
    if out.lanes == 0 || out.lanes > sca_uarch::MAX_LANES {
        fail(format!("'--lanes' must be in 1..={}", sca_uarch::MAX_LANES));
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();
    let traces = args.traces.unwrap_or(if args.full { 400 } else { 120 });
    println!(
        "Regime matrix — HD CPA per (target, threads, batch) cell, {traces} traces, \
         {} lanes\n",
        args.lanes
    );

    let uarch = UarchConfig::cortex_a7();
    let mut entries: Vec<(String, f64)> = Vec::new();
    for (i, target) in portfolio().iter().enumerate() {
        let target = target.as_ref();
        let model = target
            .models()
            .into_iter()
            .find(|m| m.kind == ModelKind::TransitionHd)
            .expect("every target declares an HD model");
        let mut verdicts: Vec<String> = Vec::new();
        for threads in THREAD_GRID {
            for batch in BATCH_GRID {
                let config = TargetCampaignConfig {
                    traces,
                    executions_per_trace: 8,
                    seed: args.seed ^ ((i as u64 + 1) << 24),
                    threads,
                    batch,
                    lanes: args.lanes,
                    noise: sca_power::GaussianNoise::bare_metal(),
                };
                let campaign = TargetCampaign::new(target, &uarch, config)?;
                let started = Instant::now();
                let verdict = campaign.cpa(std::slice::from_ref(&model))?.remove(0);
                entries.push((
                    format!("regime/{}/t{threads}/b{batch}", target.name()),
                    started.elapsed().as_secs_f64(),
                ));
                println!(
                    "[{} t{threads} b{batch}] {}",
                    target.name(),
                    verdict.verdict()
                );
                verdicts.push(verdict.verdict());
            }
        }
        // The determinism contract across operating points: threads
        // re-associate floating-point sums (~1e-12) and batch changes
        // nothing, so every cell of a target prints one verdict.
        assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "[{}] verdict changed across the regime grid",
            target.name()
        );
        println!();
    }

    if let Some(path) = &args.bench_json {
        let rows: Vec<String> = entries
            .iter()
            .map(|(name, seconds)| {
                format!("  {{ \"name\": \"{name}\", \"unit\": \"s\", \"value\": {seconds:.6} }}")
            })
            .collect();
        std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))?;
        eprintln!("wrote {} cell timings to {path}", entries.len());
    }
    Ok(())
}
