//! Self-tests of the benchmark, at the smoke sizes. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use sca_perfbench::{
    pool, run_traced, run_untraced, Metric, Options, Workload, END_TO_END, PER_LAYER, WORK_COUNTERS,
};

/// The telemetry counters are process-global: one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: Workload, seed: u64, trace: bool, threads: usize) -> Options {
    std::env::set_var("SCA_TELEMETRY", "0");
    Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        smoke: true,
        threads,
    }
}

fn names_and_units(metrics: &[Metric]) -> Vec<(String, &'static str)> {
    metrics.iter().map(|m| (m.name.clone(), m.unit)).collect()
}

fn declared(list: &[(&str, &'static str)]) -> Vec<(String, &'static str)> {
    list.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect()
}

/// The exact work counts of a traced smoke run.
fn fingerprint(workload: Workload, threads: usize) -> Vec<(String, f64)> {
    let (outcome, _) = run_traced(&smoke(workload, 3, true, threads), 1.0).expect("traced run");
    assert!(
        outcome.correct(),
        "{workload:?} traced smoke run failed its checks"
    );
    let exact: Vec<String> = ["uarch.cycles", "uarch.instructions", "uarch.node_events"]
        .into_iter()
        .map(String::from)
        .chain(WORK_COUNTERS.iter().map(|c| c.replace('/', ".")))
        .collect();
    outcome
        .metrics
        .into_iter()
        .filter(|m| exact.contains(&m.name))
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn names_are_well_formed_and_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let well_formed = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let mut all: Vec<&str> = workloads.clone();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        all.push(name);
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    for name in &workloads {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing"
        );
    }
    for name in &all {
        assert!(well_formed(name), "bad name {name}");
    }
    let mut sorted = all.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "names must be unique");
    assert_eq!(
        json.matches("\"name\":").count(),
        all.len(),
        "BENCHMARK.json declares metrics or workloads the benchmark does not"
    );
}

#[test]
fn every_workload_prints_every_metric_and_seeds_change_inputs_only() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let mut sets = Vec::new();
        for seed in [1, 2] {
            let opts = smoke(workload, seed, false, 2);
            let start = Instant::now();
            let outcome = run_untraced(&opts).expect("smoke run");
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "{workload:?} smoke run took {:?}",
                start.elapsed()
            );
            assert!(
                outcome.correct(),
                "{workload:?} seed {seed} failed its checks"
            );
            assert_eq!(names_and_units(&outcome.metrics), declared(&END_TO_END));
            for m in &outcome.metrics {
                assert!(m.value.is_finite() && m.value > 0.0, "{workload:?} {m:?}");
            }
            assert!(outcome.json().ends_with("}}"));
            sets.push((opts.input_seed(), names_and_units(&outcome.metrics)));
        }
        assert_ne!(
            sets[0].0, sets[1].0,
            "{workload:?}: the seed must change the inputs"
        );
        assert_eq!(
            sets[0].1, sets[1].1,
            "{workload:?}: the seed must not change the metrics"
        );
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric_with_repeatable_counts() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        let (outcome, log) = run_traced(&smoke(workload, 3, true, 2), 1.0).expect("traced run");
        assert_eq!(names_and_units(&outcome.metrics), declared(&PER_LAYER));
        assert!(!log.probes.is_empty());
        for m in outcome
            .metrics
            .iter()
            .filter(|m| m.unit != "count" && m.unit != "ratio")
        {
            assert!(m.value.is_finite(), "{workload:?} {m:?}");
        }
        let first = fingerprint(workload, 2);
        assert!(
            first.iter().any(|(_, v)| *v > 0.0),
            "{workload:?} did no work"
        );
        assert_eq!(
            first,
            fingerprint(workload, 2),
            "{workload:?}: counts differ run to run"
        );
        assert_eq!(
            first,
            fingerprint(workload, 1),
            "{workload:?}: counts depend on threads"
        );
    }
}

#[test]
fn scalar_lanes_give_the_recorded_portfolio_lines() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sizes = sca_perfbench::SMOKE;
    for index in [0, 5] {
        let config = pool::portfolio_config(&sizes.portfolio, index, 2, 1);
        let result = sca_bench::run_portfolio(&config).expect("portfolio at lanes 1");
        assert_eq!(
            result.verdict_lines(),
            pool::expected(pool::portfolio_tag(&sizes), index),
            "lanes 1 and the lines recorded at lanes 8 differ for pool entry {index}"
        );
    }
}

#[test]
fn recorded_verdicts_cover_every_pool_seed() {
    for tag in ["portfolio", "service", "smoke-portfolio", "smoke-service"] {
        for index in 0..pool::POOL {
            assert!(
                !pool::expected(tag, index).is_empty(),
                "no recorded {tag} verdicts for pool entry {index}"
            );
        }
        assert_ne!(pool::expected(tag, 0), pool::expected(tag, 1));
    }
}
