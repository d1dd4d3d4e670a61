//! The static-vs-dynamic differential validation — the contract that
//! keeps `sca-lint` honest.
//!
//! The linter predicts, from the program text alone, which pipeline
//! components leak; the Table-2-style dynamic characterization
//! (`characterize_target`) measures which ones actually do. This test
//! runs both over the unprotected portfolio and joins the results:
//!
//! * **soundness on RED cells** — for every `(model, component)` cell
//!   the dynamic characterization marks significant on an unprotected
//!   target, at least one static diagnostic of the matching rule class
//!   ([`Rule::for_node`]) must fire inside the model's instruction
//!   window ([`static_window`]);
//! * **no unexplainable components** — a dynamically RED component
//!   with *no* static rule (the register file, by design) fails
//!   loudly: it would mean the rule set no longer spans the measured
//!   leakage;
//! * **precision on the hardened target** — the scheduled masked AES,
//!   the one program the toolchain claims is safe, must lint clean.
//!
//! Static over-approximation in the other direction (a diagnostic
//! where the dynamic cell stays black) is expected and not asserted:
//! the linter models possible transitions, the measurement sees one
//! microarchitecture's realized ones at finite trace count.
//!
//! The dynamic side reuses the exact configuration of the pinned
//! portfolio snapshot in `tests/verdict_regression.rs` (150
//! characterization traces, quiet probe, per-target seed salts), so
//! the ground truth here is the same one pinned there.

use sca_bench::masked_sched_target;
use superscalar_sca::campaign::{DEFAULT_BATCH, DEFAULT_LANES};
use superscalar_sca::lint::{lint_program, Rule};
use superscalar_sca::power::GaussianNoise;
use superscalar_sca::target::{
    characterize_target, portfolio, static_window, CipherTarget, MaskedAesTarget, TargetCampaign,
    TargetCampaignConfig, PORTFOLIO_AES_KEY,
};
use superscalar_sca::uarch::UarchConfig;

/// The `verdict_regression` portfolio scale: quiet probe, 150 traces,
/// 2 executions per trace, the per-target seed salt of `run_portfolio`.
fn charz_config(salt: u64) -> TargetCampaignConfig {
    TargetCampaignConfig {
        traces: 150,
        executions_per_trace: 2,
        seed: 0xdac_2018 ^ (salt << 24),
        threads: 4,
        batch: DEFAULT_BATCH,
        lanes: DEFAULT_LANES,
        noise: GaussianNoise {
            sd: 2.0,
            baseline: 30.0,
        },
    }
}

#[test]
fn every_dynamic_red_cell_has_a_matching_static_diagnostic() {
    let uarch = UarchConfig::cortex_a7();
    let targets = portfolio();
    let mut red_cells = 0usize;
    // Unprotected targets only (the masked pair is covered by the
    // clean-target test below); salts follow `run_portfolio`'s
    // enumeration of the full registry.
    for (index, target) in targets.iter().enumerate() {
        let target: &dyn CipherTarget = target.as_ref();
        if target.name().contains("masked") {
            continue;
        }
        let salt = index as u64 + 1;
        let program = target.program().clone();
        let report = lint_program(&program, &target.lint_spec()).expect("lint runs");
        assert!(
            !report.is_clean(),
            "{}: an unprotected target must not lint clean",
            target.name()
        );

        let models = target.models();
        let config = charz_config(salt);
        let campaign = TargetCampaign::new(target, &uarch, config.clone()).expect("campaign");
        let charz = characterize_target(target, campaign.cpu(), &models, &config, 0.995)
            .expect("characterization runs");

        for (model, row) in models.iter().zip(&charz) {
            let (start, end) = static_window(&program, &model.window).unwrap_or_else(|| {
                panic!("{}: {} window does not resolve", target.name(), model.name)
            });
            for cell in row.cells.iter().filter(|c| c.significant) {
                let rules = Rule::for_node(cell.component);
                assert!(
                    !rules.is_empty(),
                    "{}: {} marks {:?} RED dynamically but no static rule models \
                     that component — the rule set no longer spans the measured leakage",
                    target.name(),
                    model.name,
                    cell.component
                );
                let covered = report.diagnostics.iter().any(|d| {
                    rules.contains(&d.rule)
                        && ((start..end).contains(&d.addr_a) || (start..end).contains(&d.addr_b))
                });
                assert!(
                    covered,
                    "{}: dynamic characterization marks {:?} RED for model `{}` \
                     (peak |r| = {:.4}), but no {} diagnostic fires in the window \
                     {start:#x}..{end:#x}:\n{}",
                    target.name(),
                    cell.component,
                    model.name,
                    cell.peak_corr,
                    rules.iter().map(|r| r.id()).collect::<Vec<_>>().join("/"),
                    report.render(&program)
                );
                red_cells += 1;
            }
        }
    }
    assert!(
        red_cells >= 3,
        "the dynamic ground truth went quiet ({red_cells} RED cells) — \
         the differential validation is vacuous"
    );
}

/// The flip side of the contract: the one program the toolchain claims
/// is first-order safe — the masked AES after `sca-sched` hardening —
/// must produce zero diagnostics. (The unscheduled masked AES still
/// lints dirty: the shared output mask cancels in pair distances, which
/// is exactly what the scheduler's scrubs break.)
#[test]
fn scheduled_masked_aes_lints_clean_and_unscheduled_does_not() {
    let masked = MaskedAesTarget::default();
    let unscheduled = lint_program(masked.program(), &masked.lint_spec()).expect("lint runs");
    assert!(
        !unscheduled.is_clean(),
        "the unscheduled masked AES must still show the pair-distance leaks"
    );

    let (scheduled, report) = masked_sched_target(PORTFOLIO_AES_KEY, 1).expect("scheduler runs");
    assert!(report.mem_scrubs > 0, "the scheduler must have intervened");
    let linted = lint_program(scheduled.program(), &scheduled.lint_spec()).expect("lint runs");
    assert!(
        linted.is_clean(),
        "masked+sched AES must lint clean:\n{}",
        linted.render(scheduled.program())
    );
}
