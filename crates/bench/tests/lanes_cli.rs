//! `--lanes` under the strict-args contract: a flag must act or fail,
//! never be silently ignored. Only `portfolio` runs lockstep lanes; every
//! other campaign binary that parses the common flags refuses `--lanes`
//! with exit 2 before doing any work.

use std::process::Command;

#[test]
fn binaries_without_lanes_reject_the_flag_with_exit_2() {
    for (binary, path) in [
        ("figure3", env!("CARGO_BIN_EXE_figure3")),
        ("figure4", env!("CARGO_BIN_EXE_figure4")),
        ("masked", env!("CARGO_BIN_EXE_masked")),
        ("table2", env!("CARGO_BIN_EXE_table2")),
        ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ] {
        let out = Command::new(path)
            .args(["--traces", "40", "--lanes", "2"])
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{binary} --lanes 2 must exit 2\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stdout.is_empty(),
            "{binary} printed output before rejecting --lanes"
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--lanes"),
            "{binary} must name the rejected flag"
        );
    }
}
