//! `corpus`: write a stored CPA + TVLA corpus for every target, then
//! re-analyze it.
//!
//! The write half runs one execution per trace, so store appends,
//! fsyncs and checkpoints carry a real share of its time. The read half
//! is the only phase in any workload where the simulator does no work
//! at all: `power/simulator_runs` must not move during it.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sca_power::{simulator_runs, GaussianNoise};
use sca_target::{
    reanalyze_cpa, reanalyze_tvla, store_dir_name, TargetCampaign, TargetCampaignConfig,
    TargetStoreConfig,
};

use crate::pool::splitmix64;
use crate::{stats, Measured, Metric, Options, Setup};

/// Re-analysis passes over each written corpus.
const READ_PASSES: usize = 2;

/// The corpus's master seed for a benchmark seed.
pub fn corpus_seed(seed: u64) -> u64 {
    splitmix64(seed ^ 0xc0_4b05)
}

/// A fresh, empty store root for this process.
///
/// # Errors
///
/// I/O errors.
pub fn prepare(name: &str) -> Result<PathBuf, Box<dyn Error>> {
    let root = crate::out_dir().join(format!("{name}-{}", std::process::id()));
    if root.exists() {
        std::fs::remove_dir_all(&root)?;
    }
    std::fs::create_dir_all(&root)?;
    Ok(root)
}

/// Repeats the unit until `seconds` have elapsed (at least one unit):
/// write the corpus into a fresh directory under `root`, re-analyze it
/// [`READ_PASSES`] times, remove it. Every unit writes the same corpus.
///
/// # Errors
///
/// Campaign and store faults.
pub fn run(
    setup: &Setup,
    opts: &Options,
    root: &Path,
    seconds: f64,
) -> Result<Measured, Box<dyn Error>> {
    let sizes = opts.sizes();
    let traces = sizes.corpus_traces;
    let seed = corpus_seed(opts.seed);
    let mut measured = Measured::new(opts);
    let (mut write_walls, mut read_walls) = (Vec::new(), Vec::new());
    let mut corpus_traces = 0.0;
    let mut first_written: Option<Vec<String>> = None;
    let start = Instant::now();
    for unit in 0.. {
        let dir = root.join(format!("unit-{unit}"));
        let store = TargetStoreConfig {
            checkpoint_every: sizes.checkpoint_every,
            ..TargetStoreConfig::new(&dir)
        };
        let unit_start = Instant::now();
        let runs_before = simulator_runs();
        let mut written = Vec::new();
        for (i, prepared) in setup.targets.iter().enumerate() {
            let target = prepared.target.as_ref();
            let campaign = TargetCampaign::new(
                target,
                &setup.uarch,
                TargetCampaignConfig {
                    traces,
                    executions_per_trace: 1,
                    seed: seed ^ ((i as u64 + 1) << 24),
                    threads: opts.threads,
                    batch: sca_campaign::DEFAULT_BATCH,
                    lanes: 8,
                    noise: GaussianNoise::bare_metal(),
                },
            )?;
            for model in target.models() {
                let (verdict, _) =
                    measured.call("campaign.cpa", || campaign.cpa_stored(&model, &store))?;
                written.push(format!("[{}] {}", target.name(), verdict.verdict()));
            }
            let (tvla, _) = measured.call("campaign.tvla", || campaign.tvla_stored(&store))?;
            written.push(tvla_line(target.name(), tvla.leaks));
        }
        let write_s = unit_start.elapsed().as_secs_f64();
        match &first_written {
            None => first_written = Some(written.clone()),
            Some(first) => measured.checks.check(*first == written, || {
                format!("unit {unit} wrote {written:?}, the first wrote {first:?}")
            }),
        }
        measured.add_sim(setup, simulator_runs() - runs_before, write_s);
        write_walls.push(write_s);
        corpus_traces = (written.len() * traces) as f64;

        for _ in 0..READ_PASSES {
            let runs_before = simulator_runs();
            let pass = Instant::now();
            let lines = reanalyze_pass(setup, &dir, &mut measured)?;
            let wall = pass.elapsed().as_secs_f64();
            read_walls.push(wall);
            measured.add_trace_rate(corpus_traces / wall);
            let moved = simulator_runs() - runs_before;
            measured.checks.check(moved == 0, || {
                format!("re-analysis ran the simulator {moved} times")
            });
            let want: Vec<&str> = written.iter().map(String::as_str).collect();
            measured.checks.lines(&lines, &want);
        }
        measured.end_unit(unit_start.elapsed().as_secs_f64())?;
        std::fs::remove_dir_all(&dir)?;
        if start.elapsed() >= Duration::from_secs_f64(seconds) {
            break;
        }
    }
    let (write_s, pass_s) = (stats::median(&write_walls), stats::median(&read_walls));
    measured.extras = vec![
        Metric::new("write_traces_per_s", corpus_traces / write_s, "1/s"),
        Metric::new("reanalyze_traces_per_s", corpus_traces / pass_s, "1/s"),
        Metric::new("write_s", write_s, "s"),
        Metric::new("reanalyze_pass_s", pass_s, "s"),
        Metric::new("units", write_walls.len() as f64, "count"),
    ];
    Ok(measured)
}

/// One re-analysis of every stored campaign under `root`, as verdict
/// lines.
fn reanalyze_pass(
    setup: &Setup,
    root: &Path,
    measured: &mut Measured,
) -> Result<Vec<String>, Box<dyn Error>> {
    let mut lines = Vec::new();
    for prepared in &setup.targets {
        let target = prepared.target.as_ref();
        for model in target.models() {
            let dir = root.join(store_dir_name(target.name(), &model.name));
            let verdict = measured.call("campaign.reanalyze", || reanalyze_cpa(&dir, &model))?;
            lines.push(format!("[{}] {}", target.name(), verdict.verdict()));
        }
        let dir = root.join(store_dir_name(target.name(), "tvla"));
        let tvla = measured.call("campaign.reanalyze", || reanalyze_tvla(&dir, target))?;
        lines.push(tvla_line(target.name(), tvla.leaks));
    }
    Ok(lines)
}

fn tvla_line(target: &str, leaks: bool) -> String {
    format!(
        "[{target}] TVLA fixed-vs-random: {}",
        if leaks { "LEAKS" } else { "clean" }
    )
}
