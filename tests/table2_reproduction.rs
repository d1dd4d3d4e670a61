//! Integration reproduction of Table 2: every cell of the leakage
//! characterization must reach the verdict the paper reports (red =
//! statistically sound leakage at the >99.5% level, black = silent).
//!
//! The campaign here is smaller than the paper's 100k traces but uses a
//! correspondingly quieter probe; the `table2` bench binary runs the
//! full-noise version.

use superscalar_sca::core::{characterize, CharacterizationConfig};
use superscalar_sca::power::GaussianNoise;
use superscalar_sca::uarch::{NodeKind, UarchConfig};

fn quick_config() -> CharacterizationConfig {
    CharacterizationConfig {
        traces: 500,
        executions_per_trace: 1,
        noise: GaussianNoise {
            sd: 1.5,
            baseline: 10.0,
        },
        threads: 4,
        ..CharacterizationConfig::default()
    }
}

#[test]
fn every_cell_matches_the_paper() {
    let report = characterize(
        &UarchConfig::cortex_a7().with_ideal_memory(),
        &quick_config(),
    )
    .expect("characterizes");
    let mut failures = Vec::new();
    for row in &report.rows {
        for cell in &row.cells {
            if !cell.matches_paper() {
                failures.push(format!(
                    "row {} {} / {}: got {} expected {} (corr {:+.4})",
                    row.row,
                    cell.component.label(),
                    cell.expr,
                    if cell.significant { "RED" } else { "black" },
                    cell.expected,
                    cell.peak_corr,
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "mismatching cells:\n{}",
        failures.join("\n")
    );
    assert_eq!(report.matching_cells(), report.total_cells());
}

#[test]
fn register_file_is_silent_everywhere() {
    let report = characterize(
        &UarchConfig::cortex_a7().with_ideal_memory(),
        &quick_config(),
    )
    .expect("characterizes");
    for row in &report.rows {
        for cell in row
            .cells
            .iter()
            .filter(|c| c.component == NodeKind::RegisterFile)
        {
            assert!(
                !cell.significant,
                "RF leaked in row {} model {} (corr {})",
                row.row, cell.expr, cell.peak_corr
            );
        }
    }
}

#[test]
fn dual_issue_detection_matches_declared_rows() {
    let report = characterize(
        &UarchConfig::cortex_a7().with_ideal_memory(),
        &quick_config(),
    )
    .expect("characterizes");
    let declared: Vec<bool> = superscalar_sca::core::table2_benchmarks()
        .iter()
        .map(|b| b.dual_issued)
        .collect();
    let observed: Vec<bool> = report.rows.iter().map(|r| r.dual_issued).collect();
    assert_eq!(declared, observed);
}

#[test]
fn shifter_leak_is_weakest() {
    // Section 4.1: the shifter buffer's correlation is about one tenth of
    // the other components'.
    let report = characterize(
        &UarchConfig::cortex_a7().with_ideal_memory(),
        &quick_config(),
    )
    .expect("characterizes");
    let row4 = &report.rows[3];
    let shift_peak = row4
        .cells
        .iter()
        .filter(|c| c.component == NodeKind::ShiftBuffer)
        .map(|c| c.peak_corr.abs())
        .fold(0.0, f64::max);
    let alu_peak = row4
        .cells
        .iter()
        .filter(|c| c.component == NodeKind::Alu)
        .map(|c| c.peak_corr.abs())
        .fold(0.0, f64::max);
    assert!(shift_peak > 0.0 && alu_peak > 0.0);
    let ratio = shift_peak / alu_peak;
    assert!(
        (0.03..0.4).contains(&ratio),
        "shifter/ALU correlation ratio {ratio} should be near the paper's ~1/10"
    );
}

/// Table 2's exact rendering at a small fixed campaign, pinned byte for
/// byte: every correlation, peak instant and verdict. The verdict tests
/// above would not notice an acquisition change that moves correlations
/// without flipping a cell; this one does.
#[test]
fn render_is_pinned_at_a_small_campaign() {
    let report = characterize(
        &UarchConfig::cortex_a7(),
        &CharacterizationConfig {
            traces: 96,
            executions_per_trace: 1,
            noise: GaussianNoise {
                sd: 1.5,
                baseline: 10.0,
            },
            threads: 2,
            ..CharacterizationConfig::default()
        },
    )
    .expect("characterizes");
    let got = report.render();
    assert!(
        got == include_str!("table2_pin.txt"),
        "Table 2 rendering drifted from tests/table2_pin.txt; got:\n<<<{got}>>>"
    );
}
