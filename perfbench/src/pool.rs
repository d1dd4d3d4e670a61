//! Recorded reference verdicts.
//!
//! A verdict can only be checked against a reference made for the same
//! inputs. The benchmark therefore draws its campaign seeds from a pool
//! of [`POOL`] master seeds, and `expected.txt` holds the one-shot
//! portfolio's verdict lines for every pool seed, once per recorded
//! configuration. `perfbench --record-expected FILE` regenerates it.

use std::error::Error;
use std::fmt::Write as _;

use sca_bench::{run_portfolio, PortfolioConfig};

use crate::{PortfolioSize, Sizes};

/// Number of master seeds with recorded verdicts.
pub const POOL: u64 = 12;

const EXPECTED: &str = include_str!("../expected.txt");

/// SplitMix64: the benchmark's only source of derived randomness.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The master seed of pool entry `index`.
pub fn pool_seed(index: u64) -> u64 {
    splitmix64(0xdac_2018 ^ index)
}

/// The recorded portfolio lines of pool entry `index` under `tag`, in
/// print order.
pub fn expected(tag: &str, index: u64) -> Vec<&'static str> {
    EXPECTED
        .lines()
        .filter_map(|line| {
            let mut fields = line.splitn(3, '\t');
            let (t, i, text) = (fields.next()?, fields.next()?, fields.next()?);
            (t == tag && i.parse() == Ok(index)).then_some(text)
        })
        .collect()
}

/// The recorded line of pool entry `index` under `tag` that starts with
/// `prefix` (e.g. `[aes128] TVLA fixed-vs-random:`).
pub fn expected_line(tag: &str, index: u64, prefix: &str) -> Option<&'static str> {
    expected(tag, index)
        .into_iter()
        .find(|line| line.starts_with(prefix))
}

/// The tag of the full portfolio lines for a size set.
pub fn portfolio_tag(sizes: &Sizes) -> &'static str {
    if sizes.smoke {
        "smoke-portfolio"
    } else {
        "portfolio"
    }
}

/// The tag of the service-spec lines for a size set.
pub fn service_tag(sizes: &Sizes) -> &'static str {
    if sizes.smoke {
        "smoke-service"
    } else {
        "service"
    }
}

/// The portfolio configuration for a pool entry and lane count.
pub fn portfolio_config(
    size: &PortfolioSize,
    index: u64,
    threads: usize,
    lanes: usize,
) -> PortfolioConfig {
    PortfolioConfig {
        traces: size.traces,
        executions_per_trace: size.executions_per_trace,
        charz_traces: size.charz_traces,
        audit_executions: size.audit_executions,
        seed: pool_seed(index),
        threads,
        lanes,
        ..PortfolioConfig::default()
    }
}

/// Runs the one-shot portfolio for every pool entry of both size sets
/// and renders `expected.txt`.
///
/// # Errors
///
/// Campaign faults.
pub fn record() -> Result<String, Box<dyn Error>> {
    let mut out = String::new();
    for sizes in [crate::SMOKE, crate::FULL] {
        // The service lines come from a portfolio run at the spec's
        // budget; its characterization and audit lines are not used.
        let spec_size = PortfolioSize {
            traces: sizes.spec_traces as usize,
            executions_per_trace: sizes.spec_executions as usize,
            charz_traces: 16,
            audit_executions: 16,
        };
        for (tag, size) in [
            (portfolio_tag(&sizes), sizes.portfolio),
            (service_tag(&sizes), spec_size),
        ] {
            for index in 0..POOL {
                let result = run_portfolio(&portfolio_config(&size, index, 2, 8))?;
                for line in result.verdict_lines() {
                    let _ = writeln!(out, "{tag}\t{index}\t{line}");
                }
                eprintln!("recorded {tag} {index}");
            }
        }
    }
    Ok(out)
}
