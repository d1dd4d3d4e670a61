//! Campaigns too small for a TVLA verdict (fewer than two traces in a
//! population) are a caller error, not a crash: the binaries must exit
//! non-zero with a one-line error instead of panicking in the t-test.

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

fn assert_clean_failure(name: &str, (success, stderr): (bool, String)) {
    assert!(!success, "{name} succeeded with too few traces");
    assert!(!stderr.contains("panicked"), "{name} panicked:\n{stderr}");
    let lines: Vec<&str> = stderr.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(
        lines.len(),
        1,
        "{name}: expected a one-line error:\n{stderr}"
    );
    assert!(
        lines[0].contains("TooFewTraces"),
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
            run(bin, &["--quick", "--traces", traces, "--threads", "2"]),
        );
    }
    let store = std::env::temp_dir().join(format!("sca_small_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let store_arg = store.to_str().expect("utf-8 temp path");
    assert_clean_failure(
        "portfolio --store --traces 3",
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
        run(
            env!("CARGO_BIN_EXE_masked"),
            &["--quick", "--traces", "3", "--threads", "2"],
        ),
    );
}
