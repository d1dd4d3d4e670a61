//! Campaigns too small for their statistic are a caller error, not a
//! crash: a TVLA verdict needs two traces per population, and a
//! characterization's or a CPA figure's significance threshold four
//! traces. The binaries must exit non-zero with a one-line error instead
//! of panicking in the t-test or the threshold, or printing a verdict
//! that means nothing.

use std::process::Command;

/// Runs `bin` with `args`; returns (success, stderr).
fn run(bin: &str, args: &[&str]) -> (bool, String) {
    let output = Command::new(bin)
        .args(args)
        .output()
        .expect("binary spawns");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// A failed run whose stderr is exactly one line naming `error`.
fn assert_clean_failure(name: &str, error: &str, (success, stderr): (bool, String)) {
    assert!(!success, "{name} succeeded with too few traces");
    assert!(!stderr.contains("panicked"), "{name} panicked:\n{stderr}");
    let lines: Vec<&str> = stderr.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(
        lines.len(),
        1,
        "{name}: expected a one-line error:\n{stderr}"
    );
    assert!(
        lines[0].contains(error),
        "{name}: unexpected error: {}",
        lines[0]
    );
}

#[test]
fn portfolio_rejects_too_few_tvla_traces() {
    let bin = env!("CARGO_BIN_EXE_portfolio");
    for traces in ["0", "3"] {
        assert_clean_failure(
            &format!("portfolio --traces {traces}"),
            "TooFewTraces",
            run(bin, &["--quick", "--traces", traces, "--threads", "2"]),
        );
    }
    let store = std::env::temp_dir().join(format!("sca_small_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let store_arg = store.to_str().expect("utf-8 temp path");
    assert_clean_failure(
        "portfolio --store --traces 3",
        "TooFewTraces",
        run(
            bin,
            &[
                "--quick",
                "--traces",
                "3",
                "--threads",
                "2",
                "--store",
                store_arg,
            ],
        ),
    );
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn masked_rejects_too_few_tvla_traces() {
    assert_clean_failure(
        "masked --traces 3",
        "TooFewTraces",
        run(
            env!("CARGO_BIN_EXE_masked"),
            &["--quick", "--traces", "3", "--threads", "2"],
        ),
    );
}

#[test]
fn characterizations_reject_too_few_traces() {
    for (name, bin) in [
        ("table2", env!("CARGO_BIN_EXE_table2")),
        ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ] {
        for traces in ["0", "3"] {
            assert_clean_failure(
                &format!("{name} --traces {traces}"),
                "TooFewObservations",
                run(bin, &["--traces", traces, "--threads", "2"]),
            );
        }
    }
}

/// The CPA figures print a recovered key byte and a correlation plot:
/// below four traces both are meaningless (at 0 traces a flat plot and
/// a "recovered" 0xff, at 2–3 every |corr| is 1), so they fail up front.
#[test]
fn cpa_figures_reject_too_few_traces() {
    for (name, bin) in [
        ("figure3", env!("CARGO_BIN_EXE_figure3")),
        ("figure4", env!("CARGO_BIN_EXE_figure4")),
    ] {
        for traces in ["0", "1", "3"] {
            assert_clean_failure(
                &format!("{name} --traces {traces}"),
                "TooFewObservations",
                run(bin, &["--traces", traces, "--threads", "2"]),
            );
        }
    }
}

#[test]
fn characterize_target_rejects_too_few_traces() {
    use sca_target::{characterize_target, portfolio, TargetCampaignConfig, TargetError};
    use sca_uarch::UarchConfig;

    let targets = portfolio();
    let target = targets[0].as_ref();
    let cpu = target
        .build(&UarchConfig::cortex_a7())
        .expect("target builds");
    let config = TargetCampaignConfig {
        traces: 3,
        ..TargetCampaignConfig::default()
    };
    let got = characterize_target(target, &cpu, &target.models(), &config, 0.995);
    assert!(
        matches!(
            got,
            Err(TargetError::TooFewObservations {
                traces: 3,
                needed: 4
            })
        ),
        "{got:?}"
    );
}
