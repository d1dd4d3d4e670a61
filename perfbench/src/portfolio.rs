//! `portfolio-lanes8`: the quick cipher portfolio (CPA HW + HD, TVLA,
//! characterization and audit on all four targets), as `portfolio
//! --quick --lanes 8` runs it, at a smaller trace budget.

use std::error::Error;
use std::time::{Duration, Instant};

use sca_bench::run_portfolio;
use sca_power::simulator_runs;

use crate::pool::{self, POOL};
use crate::trace::span;
use crate::{Measured, Options, Setup};

/// The layer call behind one of `run_portfolio`'s phase timings
/// (`portfolio/<target>/<phase>`), `None` for its total.
fn phase_call(timing_name: &str) -> Option<&'static str> {
    match timing_name.rsplit('/').next()? {
        phase if phase.starts_with("cpa-") => Some("campaign.cpa"),
        "tvla" => Some("campaign.tvla"),
        "charz" => Some("target.charz"),
        "audit" => Some("core.audit"),
        _ => None,
    }
}

/// Runs portfolio passes until `seconds` have elapsed (at least one),
/// checking every pass's verdict lines against the recorded ones.
///
/// The call walls are `run_portfolio`'s own phase timings; the
/// simulating phases are its CPA and TVLA campaigns.
///
/// # Errors
///
/// Campaign faults.
pub fn run(setup: &Setup, opts: &Options, seconds: f64) -> Result<Measured, Box<dyn Error>> {
    let size = opts.sizes().portfolio;
    let index = opts.seed % POOL;
    let config = pool::portfolio_config(&size, index, opts.threads, 8);
    let expected = pool::expected(pool::portfolio_tag(&opts.sizes()), index);
    let traces_per_pass = (setup.targets.len() * (3 * size.traces + size.charz_traces)) as f64;

    let mut measured = Measured::new(opts);
    let start = Instant::now();
    loop {
        let runs_before = simulator_runs();
        let pass = Instant::now();
        let result = span("bench.run_portfolio", || run_portfolio(&config))?;
        let wall = pass.elapsed().as_secs_f64();
        let runs = simulator_runs() - runs_before;
        measured.checks.lines(&result.verdict_lines(), &expected);
        let mut campaign_s = 0.0;
        for timing in &result.timings {
            if let Some(call) = phase_call(&timing.name) {
                if call.starts_with("campaign.") {
                    campaign_s += timing.seconds;
                }
                measured.calls.push((call, timing.seconds));
            }
        }
        measured.add_sim(setup, runs, campaign_s);
        measured.add_trace_rate(traces_per_pass / wall);
        measured.end_unit(wall)?;
        if start.elapsed() >= Duration::from_secs_f64(seconds) {
            break;
        }
    }
    Ok(measured)
}
