//! Minimal command-line parsing shared by the regeneration binaries.

use std::fmt;

/// Common knobs: `--traces N`, `--seed N`, `--threads N`, `--batch N`,
/// `--lanes N`, `--quick`, `--full`, `--bench-json PATH`, plus the
/// persistent-store family `--store DIR`, `--checkpoint-every N`,
/// `--resume`, `--reanalyze`, `--kill-after N` (only `portfolio`
/// accepts it).
///
/// `--full` raises trace counts to the paper's scale (100k traces for
/// the characterizations, Figure 3); without it the defaults are sized
/// for a quick run with the same qualitative outcome. `--batch` sets how
/// many traces each campaign worker buffers between accumulator updates
/// (it bounds transient memory and never changes results).
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Trace count override.
    pub traces: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Traces buffered per worker between sink updates.
    pub batch: usize,
    /// Lockstep lanes per simulation group (1 = scalar path). Results
    /// are bit-identical at every setting; only throughput changes.
    pub lanes: usize,
    /// Whether `--lanes` was given, so binaries without lockstep lanes
    /// can refuse it.
    lanes_given: bool,
    /// Paper-scale campaign.
    pub full: bool,
    /// Write per-kernel wall-clock timings to this path, as a JSON
    /// array in the `customSmallerIsBetter` shape
    /// (`[{"name", "value", "unit"}]`) that CI benchmark trackers
    /// ingest. Timings are machine-dependent and go to the file only —
    /// stdout stays byte-deterministic.
    pub bench_json: Option<String>,
    /// Write the run's telemetry snapshot (span phase times, work
    /// counters, gauges, histograms) to this path as a
    /// `customSmallerIsBetter` JSON array. Like `--bench-json`, the file
    /// is the only output touched — stdout stays byte-deterministic.
    pub metrics_json: Option<String>,
    /// Persist campaign traces under this directory (one store per
    /// target/analysis pair) and checkpoint accumulator state as the
    /// campaigns run.
    pub store: Option<String>,
    /// Traces per checkpoint segment in stored campaigns.
    pub checkpoint_every: u64,
    /// Resume stored campaigns from their last valid checkpoint.
    pub resume: bool,
    /// Skip simulation entirely: stream the stored corpora back through
    /// the attack accumulators and print the CPA/TVLA verdicts.
    pub reanalyze: bool,
    /// Fault injection for the crash-recovery CI job: abort the run
    /// (exit 3) after this many traces have been persisted, counting
    /// across every stored campaign of the run in execution order.
    pub kill_after: Option<u64>,
}

impl CommonArgs {
    /// Whether the quick defaults are in effect (no `--full`); `--quick`
    /// states it explicitly, which is what CI and the docs spell out for
    /// the `masked` countermeasure suite.
    pub fn quick(&self) -> bool {
        !self.full
    }
}

impl Default for CommonArgs {
    fn default() -> CommonArgs {
        CommonArgs {
            traces: None,
            seed: 0xdac_2018,
            threads: 8,
            batch: sca_campaign::DEFAULT_BATCH,
            lanes: sca_campaign::DEFAULT_LANES,
            lanes_given: false,
            full: false,
            bench_json: None,
            metrics_json: None,
            store: None,
            checkpoint_every: 1024,
            resume: false,
            reanalyze: false,
            kill_after: None,
        }
    }
}

/// A rejected command line: the offending argument and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgsError(String);

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgsError {}

const USAGE: &str = "known flags: --traces N, --seed N, --threads N, --batch N, --lanes N, \
     --quick, --full, --bench-json PATH, --metrics-json PATH, --store DIR, \
     --checkpoint-every N, --resume, --reanalyze, --kill-after N";

impl CommonArgs {
    /// Parses `std::env::args`, exiting with status 2 on anything it
    /// does not recognize — a typo like `--trace` must fail loudly, not
    /// silently run the default campaign. `--help`/`-h` print the flag
    /// list and exit 0.
    pub fn parse() -> CommonArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{USAGE}");
            std::process::exit(0);
        }
        match CommonArgs::parse_from(args) {
            Ok(args) => args,
            Err(error) => {
                eprintln!("error: {error}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns an error for an unrecognized flag, a flag missing its
    /// value, or a value that does not parse.
    pub fn parse_from<I>(args: I) -> Result<CommonArgs, ArgsError>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut out = CommonArgs::default();
        let mut args = args.into_iter().map(Into::into);
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| -> Result<String, ArgsError> {
                args.next()
                    .ok_or_else(|| ArgsError(format!("flag '{flag}' expects a value")))
            };
            match arg.as_str() {
                "--traces" => out.traces = Some(parse_value(&arg, &value(&arg)?)?),
                "--seed" => out.seed = parse_value(&arg, &value(&arg)?)?,
                "--threads" => out.threads = parse_value(&arg, &value(&arg)?)?,
                "--batch" => out.batch = parse_value(&arg, &value(&arg)?)?,
                "--lanes" => {
                    out.lanes = parse_value(&arg, &value(&arg)?)?;
                    out.lanes_given = true;
                }
                "--quick" => out.full = false,
                "--full" => out.full = true,
                "--bench-json" => out.bench_json = Some(value(&arg)?),
                "--metrics-json" => out.metrics_json = Some(value(&arg)?),
                "--store" => out.store = Some(value(&arg)?),
                "--checkpoint-every" => out.checkpoint_every = parse_value(&arg, &value(&arg)?)?,
                "--resume" => out.resume = true,
                "--reanalyze" => out.reanalyze = true,
                "--kill-after" => out.kill_after = Some(parse_value(&arg, &value(&arg)?)?),
                unknown => {
                    return Err(ArgsError(format!("unrecognized argument '{unknown}'")));
                }
            }
        }
        if out.threads == 0 {
            return Err(ArgsError("'--threads' must be at least 1".to_owned()));
        }
        if out.batch == 0 {
            return Err(ArgsError("'--batch' must be at least 1".to_owned()));
        }
        validate_lanes(out.lanes)?;
        if out.checkpoint_every == 0 {
            return Err(ArgsError(
                "'--checkpoint-every' must be at least 1".to_owned(),
            ));
        }
        if out.store.is_none() {
            // The strict-args contract: a flag must act or fail, never be
            // silently ignored — every store-family flag implies a store.
            let orphan = [
                (out.resume, "--resume"),
                (out.reanalyze, "--reanalyze"),
                (out.kill_after.is_some(), "--kill-after"),
            ]
            .into_iter()
            .find_map(|(set, flag)| set.then_some(flag));
            if let Some(flag) = orphan {
                return Err(ArgsError(format!("'{flag}' requires '--store DIR'")));
            }
        }
        if out.reanalyze && (out.resume || out.kill_after.is_some()) {
            return Err(ArgsError(
                "'--reanalyze' streams an existing corpus; it cannot be combined with \
                 '--resume' or '--kill-after'"
                    .to_owned(),
            ));
        }
        Ok(out)
    }

    /// Rejects `--bench-json` in binaries that emit no benchmark
    /// timings (`portfolio`, `figure4` and `table2` do), exiting with
    /// status 2 — the strict-args contract: a flag must never be
    /// silently ignored.
    pub fn reject_bench_json(&self, binary: &str) {
        if self.bench_json.is_some() {
            eprintln!(
                "error: '--bench-json' is not supported by '{binary}' \
                 (only 'portfolio', 'figure4' and 'table2')"
            );
            std::process::exit(2);
        }
    }

    /// Rejects the persistent-store flag family in binaries whose
    /// campaigns do not run against a trace store (only `portfolio`
    /// does), exiting with status 2. `--store` gates the whole family,
    /// so rejecting it suffices: the parser already refuses `--resume`,
    /// `--reanalyze` and `--kill-after` without it.
    pub fn reject_store_flags(&self, binary: &str) {
        if self.store.is_some() {
            eprintln!("error: '--store' is not supported by '{binary}' (only 'portfolio')");
            std::process::exit(2);
        }
    }

    /// Rejects `--metrics-json` in binaries that do not export a
    /// telemetry snapshot (only `portfolio` does), exiting with status 2
    /// — the same never-silently-ignored contract as
    /// [`reject_bench_json`](CommonArgs::reject_bench_json).
    pub fn reject_metrics_json(&self, binary: &str) {
        if self.metrics_json.is_some() {
            eprintln!("error: '--metrics-json' is not supported by '{binary}' (only 'portfolio')");
            std::process::exit(2);
        }
    }

    /// Rejects `--lanes` in binaries whose campaigns take no lane count
    /// (only `portfolio` does), exiting with status 2 — the same
    /// never-silently-ignored contract as
    /// [`reject_bench_json`](CommonArgs::reject_bench_json).
    pub fn reject_lanes(&self, binary: &str) {
        if self.lanes_given {
            eprintln!("error: '--lanes' is not supported by '{binary}' (only 'portfolio')");
            std::process::exit(2);
        }
    }

    /// Picks the trace count: explicit override, else `full_default` when
    /// `--full`, else `quick_default`.
    pub fn trace_count(&self, quick_default: usize, full_default: usize) -> usize {
        self.traces.unwrap_or(if self.full {
            full_default
        } else {
            quick_default
        })
    }
}

/// Validates a `--lanes` value against the lockstep engine's bounds:
/// zero lanes is meaningless and more than [`sca_uarch::MAX_LANES`]
/// overruns the SIMD group width. Shared by every binary that accepts
/// the flag (`CommonArgs` and the `serve` front end), so the bound is
/// enforced — and reported — identically everywhere.
///
/// # Errors
///
/// Returns the canonical `'--lanes' must be in 1..=MAX` rejection for
/// an out-of-range value.
pub fn validate_lanes(lanes: usize) -> Result<(), ArgsError> {
    if lanes == 0 || lanes > sca_uarch::MAX_LANES {
        return Err(ArgsError(format!(
            "'--lanes' must be in 1..={}",
            sca_uarch::MAX_LANES
        )));
    }
    Ok(())
}

fn parse_value<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, ArgsError> {
    raw.parse()
        .map_err(|_| ArgsError(format!("flag '{flag}' got unparsable value '{raw}'")))
}

/// Writes a single wall-clock timing entry to `path` in the
/// `customSmallerIsBetter` JSON shape CI benchmark trackers ingest —
/// the one-entry counterpart of
/// [`crate::PortfolioResult::timings_json`], used by the `figure4` and
/// `table2` binaries' `--bench-json`. Timings are machine-dependent and
/// go to the file only; stdout stays byte-deterministic.
///
/// # Errors
///
/// Propagates file-write failures.
pub fn write_total_timing(path: &str, name: &str, seconds: f64) -> std::io::Result<()> {
    std::fs::write(
        path,
        format!("[\n  {{ \"name\": \"{name}\", \"unit\": \"s\", \"value\": {seconds:.6} }}\n]\n"),
    )?;
    eprintln!("wrote 1 kernel timing to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CommonArgs, ArgsError> {
        CommonArgs::parse_from(args.iter().copied().map(str::to_owned))
    }

    #[test]
    fn trace_count_precedence() {
        let mut args = CommonArgs::default();
        assert_eq!(args.trace_count(100, 100_000), 100);
        args.full = true;
        assert_eq!(args.trace_count(100, 100_000), 100_000);
        args.traces = Some(42);
        assert_eq!(args.trace_count(100, 100_000), 42);
    }

    #[test]
    fn parses_all_flags() {
        let args = parse(&[
            "--traces",
            "500",
            "--seed",
            "9",
            "--threads",
            "3",
            "--batch",
            "32",
            "--lanes",
            "4",
            "--full",
            "--bench-json",
            "out.json",
            "--metrics-json",
            "metrics.json",
            "--store",
            "corpus/",
            "--checkpoint-every",
            "64",
            "--resume",
            "--kill-after",
            "123",
        ])
        .unwrap();
        assert_eq!(args.traces, Some(500));
        assert_eq!(args.seed, 9);
        assert_eq!(args.threads, 3);
        assert_eq!(args.batch, 32);
        assert_eq!(args.lanes, 4);
        assert!(args.full);
        assert_eq!(args.bench_json.as_deref(), Some("out.json"));
        assert_eq!(args.metrics_json.as_deref(), Some("metrics.json"));
        assert_eq!(args.store.as_deref(), Some("corpus/"));
        assert_eq!(args.checkpoint_every, 64);
        assert!(args.resume);
        assert_eq!(args.kill_after, Some(123));
    }

    #[test]
    fn empty_args_yield_defaults() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.traces, None);
        assert_eq!(args.seed, 0xdac_2018);
        assert_eq!(args.threads, 8);
        assert_eq!(args.batch, sca_campaign::DEFAULT_BATCH);
        assert_eq!(args.lanes, sca_campaign::DEFAULT_LANES);
        assert!(!args.full);
        assert!(args.bench_json.is_none());
        assert!(args.metrics_json.is_none());
        assert!(args.store.is_none());
        assert_eq!(args.checkpoint_every, 1024);
        assert!(!args.resume);
        assert!(!args.reanalyze);
        assert!(args.kill_after.is_none());
    }

    #[test]
    fn quick_is_the_default_and_overrides_full() {
        assert!(parse(&[]).unwrap().quick());
        assert!(parse(&["--quick"]).unwrap().quick());
        // Later flags win, in either order.
        assert!(parse(&["--full", "--quick"]).unwrap().quick());
        assert!(!parse(&["--quick", "--full"]).unwrap().quick());
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let error = parse(&["--trace", "500"]).unwrap_err();
        assert!(error.to_string().contains("--trace"), "{error}");
    }

    #[test]
    fn missing_and_bad_values_are_rejected() {
        assert!(parse(&["--traces"]).is_err());
        assert!(parse(&["--bench-json"]).is_err());
        assert!(parse(&["--metrics-json"]).is_err());
        assert!(parse(&["--seed", "not-a-number"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--batch", "0"]).is_err());
        assert!(parse(&["--lanes", "0"]).is_err());
        assert!(parse(&["--lanes", "9"]).is_err());
        assert_eq!(parse(&["--lanes", "8"]).unwrap().lanes, 8);
        assert!(parse(&["--store"]).is_err());
        assert!(parse(&["--store", "d", "--checkpoint-every", "0"]).is_err());
        assert!(parse(&["--store", "d", "--kill-after", "many"]).is_err());
    }

    #[test]
    fn store_family_flags_require_a_store() {
        for orphan in ["--resume", "--reanalyze"] {
            let error = parse(&[orphan]).unwrap_err();
            assert!(error.to_string().contains("--store"), "{error}");
        }
        let error = parse(&["--kill-after", "5"]).unwrap_err();
        assert!(error.to_string().contains("--store"), "{error}");
        // With a store they all parse.
        assert!(parse(&["--store", "d", "--resume"]).unwrap().resume);
        assert!(parse(&["--store", "d", "--reanalyze"]).unwrap().reanalyze);
    }

    #[test]
    fn lanes_bounds_are_enforced_and_reported() {
        // Regression: `--lanes 0` and `--lanes > MAX_LANES` must be
        // rejected (exit 2 at the CLI), never silently clamped — a
        // zero-lane campaign would divide by zero in the shard plan and
        // an over-wide one would overrun the SIMD group.
        for bad in [0, sca_uarch::MAX_LANES + 1, usize::MAX] {
            let error = validate_lanes(bad).unwrap_err();
            assert!(error.to_string().contains("--lanes"), "{error}");
            assert!(
                parse(&["--lanes", &bad.to_string()]).is_err(),
                "parser accepted --lanes {bad}"
            );
        }
        // Every in-range width parses, including both edges.
        for good in 1..=sca_uarch::MAX_LANES {
            assert!(validate_lanes(good).is_ok());
            assert_eq!(parse(&["--lanes", &good.to_string()]).unwrap().lanes, good);
        }
    }

    #[test]
    fn reanalyze_excludes_mutating_store_flags() {
        assert!(parse(&["--store", "d", "--reanalyze", "--resume"]).is_err());
        assert!(parse(&["--store", "d", "--reanalyze", "--kill-after", "5"]).is_err());
    }
}
