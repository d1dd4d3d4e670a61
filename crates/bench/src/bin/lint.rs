//! Static leakage lint over the cipher portfolio.
//!
//! ```text
//! lint [TARGET...]
//! ```
//!
//! Runs `sca-lint` over the named targets (default: all of them, in
//! the fixed order below) and prints one compiler-style report per
//! target. The output is fully deterministic — no simulation, no
//! randomness, no thread scheduling — and is pinned byte-for-byte by
//! `LINT_PINS.txt` in CI.
//!
//! Known targets:
//!
//! * `aes128` — the unprotected baseline (expected: RED);
//! * `aes128-masked` — first-order masked, unscheduled (expected: the
//!   pair rules fire where the shared output mask cancels);
//! * `aes128-masked+sched` — the same program hardened by `sca-sched`
//!   (expected: clean);
//! * `speck64128`, `present80` — the other unprotected portfolio
//!   members (expected: RED).
//!
//! The analysis is single-threaded by construction, so the campaign
//! flags `--threads`/`--lanes` are rejected (exit 2) rather than
//! silently ignored: a pinned output must not advertise knobs that
//! cannot change it. Unknown arguments also exit 2.

use sca_bench::masked_sched_target;
use sca_lint::lint_program;
use sca_target::{
    AesTarget, CipherTarget, MaskedAesTarget, PresentTarget, SpeckTarget, PORTFOLIO_AES_KEY,
};

/// The portfolio plus the scheduled masked AES, in pinned print order.
fn lint_targets() -> Result<Vec<Box<dyn CipherTarget>>, Box<dyn std::error::Error>> {
    let (scheduled, _) = masked_sched_target(PORTFOLIO_AES_KEY, 1)?;
    Ok(vec![
        Box::new(AesTarget::default()),
        Box::new(MaskedAesTarget::default()),
        Box::new(scheduled),
        Box::new(SpeckTarget::default()),
        Box::new(PresentTarget::default()),
    ])
}

fn usage() -> ! {
    eprintln!(
        "usage: lint [TARGET...]\n\
         targets: aes128 aes128-masked aes128-masked+sched speck64128 present80\n\
         (output is deterministic and single-threaded; --threads/--lanes do not apply)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for arg in &args {
        if arg.starts_with("--threads") || arg.starts_with("--lanes") {
            eprintln!(
                "lint: '{arg}' does not apply: the analysis is deterministic and single-threaded"
            );
            std::process::exit(2);
        }
        if arg.starts_with('-') {
            usage();
        }
    }

    let targets = match lint_targets() {
        Ok(targets) => targets,
        Err(e) => {
            eprintln!("lint: {e}");
            std::process::exit(1);
        }
    };
    for arg in &args {
        if !targets.iter().any(|target| target.name() == arg) {
            eprintln!("lint: unknown target '{arg}'");
            usage();
        }
    }

    let mut any_error = false;
    for target in &targets {
        let name = target.name();
        if !args.is_empty() && !args.iter().any(|a| a == name) {
            continue;
        }
        println!("== {name} ==");
        match lint_program(target.program(), &target.lint_spec()) {
            Ok(report) => {
                print!("{}", report.render(target.program()));
                any_error |= !report.is_clean();
            }
            Err(e) => {
                eprintln!("lint: {name}: {e}");
                std::process::exit(1);
            }
        }
        println!();
    }
    // Diagnostics are the expected outcome on the unprotected targets;
    // the exit status reports them only when the user narrowed the run
    // to targets they expect clean.
    if any_error && !args.is_empty() {
        std::process::exit(3);
    }
}
