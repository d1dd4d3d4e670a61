//! `perfbench`: runs one workload (or all of them) and prints every
//! metric, then the result as one JSON object on the last line.
//!
//! Usage: `perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//! [--smoke]`, or `perfbench --record-expected FILE` to
//! regenerate the recorded reference verdicts. Exit status: 0 when
//! every output check passed, 1 on a wrong output, 2 on bad arguments,
//! 3 on a fault.

use std::process::{Command, ExitCode};

use sca_perfbench::{out_dir, pool, run_traced, run_untraced, Options, Outcome, Workload};

const USAGE: &str = "usage: perfbench --workload portfolio-lanes8|corpus|service|all \
                     --seed N --seconds S --trace 0|1 [--smoke] \
                     | perfbench --record-expected FILE";

enum Request {
    Run(Options),
    All(Vec<String>),
    Record(String),
}

fn parse(args: &[String]) -> Result<Request, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                });
            }
            "--smoke" => smoke = true,
            "--record-expected" => return Ok(Request::Record(value()?.clone())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let (Some(seed), Some(seconds), Some(trace)) = (seed, seconds, trace) else {
        return Err("--seed, --seconds and --trace are required".to_owned());
    };
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err(format!(
            "--seconds must be a non-negative number, got {seconds}"
        ));
    }
    if name == "all" {
        return Ok(Request::All(args.to_vec()));
    }
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(Request::Run(Options {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        threads: 2,
    }))
}

/// Runs this binary again with `args`, returning its stdout.
fn child(args: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let output = Command::new(std::env::current_exe()?).args(args).output()?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("child run {args:?} exited with {}", output.status).into());
    }
    Ok(String::from_utf8(output.stdout)?)
}

/// The `wall_ref_s` value in a result line.
fn wall_of(result_line: &str) -> Option<f64> {
    const KEY: &str = "\"wall_ref_s\": {\"value\": ";
    let rest = &result_line[result_line.find(KEY)? + KEY.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn run(opts: &Options) -> Result<Outcome, Box<dyn std::error::Error>> {
    if !opts.trace {
        return run_untraced(opts);
    }
    // The same unit of work, untraced, in a process of its own (tracing
    // is switched per process): the base of the overhead figure.
    let mut args: Vec<String> = [
        "--workload",
        opts.workload.name(),
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        "0",
        "--trace",
        "0",
    ]
    .map(String::from)
    .to_vec();
    if opts.smoke {
        args.push("--smoke".to_owned());
    }
    let out = child(&args)?;
    let untraced = out
        .lines()
        .last()
        .and_then(wall_of)
        .ok_or("untraced child printed no wall_ref_s")?;
    let (outcome, log) = run_traced(opts, untraced)?;
    let path = out_dir().join(format!(
        "trace-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(&path, log.to_json())?;
    eprintln!("wrote the spans to {}", path.display());
    Ok(outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let request = match parse(&args) {
        Ok(request) => request,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match request {
        Request::Record(path) => {
            match pool::record().and_then(|text| Ok(std::fs::write(path, text)?)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("recording failed: {e}");
                    ExitCode::from(3)
                }
            }
        }
        Request::All(args) => {
            let mut code = ExitCode::SUCCESS;
            for workload in Workload::ALL {
                let mut child_args = args.clone();
                let at = child_args
                    .iter()
                    .position(|a| a == "all")
                    .expect("parsed 'all'");
                child_args[at] = workload.name().to_owned();
                println!("== {} ==", workload.name());
                match child(&child_args) {
                    Ok(out) => print!("{out}"),
                    Err(e) => {
                        eprintln!("{e}");
                        code = ExitCode::from(1);
                    }
                }
            }
            code
        }
        Request::Run(opts) => {
            // Program-side telemetry spans follow the benchmark's own:
            // off for the end-to-end metrics, on for the traced run.
            std::env::set_var("SCA_TELEMETRY", if opts.trace { "1" } else { "0" });
            match run(&opts) {
                Ok(outcome) => {
                    print!("{}", outcome.table());
                    println!("{}", outcome.json());
                    if outcome.correct() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("{} failed: {e}", opts.workload.name());
                    ExitCode::from(3)
                }
            }
        }
    }
}
