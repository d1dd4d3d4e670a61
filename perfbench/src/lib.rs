//! The repository benchmark: three workloads driven through the public
//! entry points, end-to-end metrics from untraced runs, per-layer
//! metrics from a separate traced run. See `README.md` beside this
//! crate for what each workload and metric is for.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod host;
pub mod pool;
pub mod portfolio;
pub mod probes;
pub mod service;
pub mod setup;
pub mod stats;
pub mod trace;

use std::error::Error;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

pub use setup::Setup;
pub use stats::Metric;

/// The workloads, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The quick portfolio through the lockstep 8-lane path.
    PortfolioLanes8,
    /// Stored campaigns written, then re-analyzed.
    Corpus,
    /// The campaign server under a closed loop of two clients.
    Service,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PortfolioLanes8,
        Workload::Corpus,
        Workload::Service,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PortfolioLanes8 => "portfolio-lanes8",
            Workload::Corpus => "corpus",
            Workload::Service => "service",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The sizes of one portfolio pass.
#[derive(Clone, Copy, Debug)]
pub struct PortfolioSize {
    /// Averaged traces per CPA / TVLA campaign.
    pub traces: usize,
    /// Executions averaged per trace.
    pub executions_per_trace: usize,
    /// Traces of the characterization.
    pub charz_traces: usize,
    /// Executions of the node audit.
    pub audit_executions: usize,
}

/// Every size the workloads use.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Whether these are the smoke sizes.
    pub smoke: bool,
    /// One portfolio pass (`portfolio --quick`, at a smaller budget).
    pub portfolio: PortfolioSize,
    /// Traces per stored campaign of the corpus.
    pub corpus_traces: usize,
    /// Traces per checkpoint segment (and per server slice).
    pub checkpoint_every: u64,
    /// Trace budget of a service spec.
    pub spec_traces: u64,
    /// Executions per trace of a service spec.
    pub spec_executions: u64,
}

/// The benchmark's sizes: each unit of work takes a few seconds, so a
/// run repeats it several times (see [`run_untraced`]).
pub const FULL: Sizes = Sizes {
    smoke: false,
    portfolio: PortfolioSize {
        traces: 32,
        executions_per_trace: 8,
        charz_traces: 48,
        audit_executions: 32,
    },
    corpus_traces: 128,
    checkpoint_every: 32,
    spec_traces: 64,
    spec_executions: 4,
};

/// Sizes of the smoke mode: every code path, in seconds.
pub const SMOKE: Sizes = Sizes {
    smoke: true,
    portfolio: PortfolioSize {
        traces: 24,
        executions_per_trace: 2,
        charz_traces: 24,
        audit_executions: 40,
    },
    corpus_traces: 32,
    checkpoint_every: 8,
    spec_traces: 16,
    spec_executions: 2,
};

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long the timed phase measures (at least one unit of work).
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Smoke sizes.
    pub smoke: bool,
    /// Campaign threads (server workers for `service`).
    pub threads: usize,
}

impl Options {
    /// The sizes this run uses.
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            SMOKE
        } else {
            FULL
        }
    }

    /// The master seed the workload's inputs derive from: a pool seed
    /// for the portfolio workload, a fresh one for `corpus`, and the
    /// seed of the request shuffle for `service`.
    pub fn input_seed(&self) -> u64 {
        match self.workload {
            Workload::PortfolioLanes8 => pool::pool_seed(self.seed % pool::POOL),
            Workload::Corpus => corpus::corpus_seed(self.seed),
            Workload::Service => pool::splitmix64(self.seed),
        }
    }
}

/// End-to-end metrics, with units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("wall_ref_s", "s")];

/// The eleven deterministic telemetry work counters.
pub const WORK_COUNTERS: [&str; 11] = [
    "campaign/traces_planned",
    "campaign/traces_simulated",
    "power/simulator_runs",
    "uarch/l1i/accesses",
    "uarch/l1i/misses",
    "uarch/l1d/accesses",
    "uarch/l1d/misses",
    "uarch/l2/accesses",
    "uarch/l2/misses",
    "store/slots_written",
    "store/checkpoint_bytes",
];

/// Per-layer metrics, with units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("uarch.walk_ns_per_cycle.scalar", "ns"),
    ("uarch.walk_ns_per_cycle.block", "ns"),
    ("uarch.cycles", "count"),
    ("uarch.instructions", "count"),
    ("uarch.node_events", "count"),
    ("uarch.l1i.accesses", "count"),
    ("uarch.l1i.misses", "count"),
    ("uarch.l1d.accesses", "count"),
    ("uarch.l1d.misses", "count"),
    ("uarch.l2.accesses", "count"),
    ("uarch.l2.misses", "count"),
    ("power.integrate_ns_per_cycle.scalar", "ns"),
    ("power.integrate_ns_per_cycle.block", "ns"),
    ("power.synth_ns_per_sample.scalar", "ns"),
    ("power.synth_ns_per_sample.block", "ns"),
    ("power.simulator_runs", "count"),
    ("campaign.traces_planned", "count"),
    ("campaign.traces_simulated", "count"),
    ("campaign.lockstep_share", "ratio"),
    ("campaign.blocks_poisoned", "count"),
    ("campaign.cpa_s", "s"),
    ("campaign.cpa_calls", "count"),
    ("campaign.tvla_s", "s"),
    ("campaign.tvla_calls", "count"),
    ("campaign.reanalyze_s", "s"),
    ("campaign.reanalyze_calls", "count"),
    ("target.build_s", "s"),
    ("target.charz_s", "s"),
    ("target.charz_calls", "count"),
    ("core.audit_s", "s"),
    ("core.audit_calls", "count"),
    ("isa.assemble_s", "s"),
    ("analysis.cpa_absorb_ns_per_cell", "ns"),
    ("analysis.ttest_ns_per_sample", "ns"),
    ("store.append_us_per_slot", "us"),
    ("store.stream_us_per_slot", "us"),
    ("store.checkpoint_s", "s"),
    ("store.page_hit_ratio", "ratio"),
    ("store.page_lookups", "count"),
    ("store.slots_written", "count"),
    ("store.checkpoint_bytes", "count"),
    ("store.fsyncs", "count"),
    ("server.queue_wait_s", "s"),
    ("server.slice_s", "s"),
    ("server.dedup_ratio", "ratio"),
    ("server.submissions", "count"),
    ("server.queue_peak", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Pass/fail tally of the output checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Counts one check, reporting a failure on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("mismatch: {}", what());
        }
    }

    /// Checks `got` line by line against `want`.
    pub fn lines(&mut self, got: &[String], want: &[&str]) {
        let n = got.len().max(want.len());
        for i in 0..n {
            let (g, w) = (got.get(i).map(String::as_str), want.get(i).copied());
            self.check(g == w, || format!("line {i}: got {g:?}, expected {w:?}"));
        }
    }
}

/// What a workload's timed phase produced.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Host seconds of each unit of work (portfolio pass, corpus
    /// write + re-analysis passes, service round).
    pub unit_walls: Vec<f64>,
    /// Host kernel seconds ([`host::calibrate`]) before the first unit
    /// and after each one.
    pub host_cals: Vec<f64>,
    /// Simulated instructions per host second of each simulating phase
    /// (portfolio pass campaigns, corpus write half, service round),
    /// with the index of its unit.
    pub sim_rates: Vec<(usize, f64)>,
    /// Averaged traces delivered (analyzed into a verdict) per host
    /// second of each delivering phase (portfolio pass, re-analysis
    /// pass, service round), with the index of its unit.
    pub trace_rates: Vec<(usize, f64)>,
    /// Every call into a layer's entry point: the call's name (as
    /// `campaign.cpa`) and its wall, seconds.
    pub calls: Vec<(&'static str, f64)>,
    /// Output checks.
    pub checks: Checks,
    /// Workload-specific metrics, printed but not part of the result.
    pub extras: Vec<Metric>,
    /// Walls of the set-ups timed between units, at the reference host's
    /// speed.
    pub setup_ref_walls: Vec<f64>,
    /// The run's options: the host kernel runs on its threads, and the
    /// set-ups between units are its workload's.
    opts: Option<Options>,
}

impl Measured {
    /// An empty record for a run with `opts`; times the host kernel
    /// before the first unit.
    pub fn new(opts: &Options) -> Measured {
        Measured {
            host_cals: vec![host::calibrate(opts.threads)],
            opts: Some(opts.clone()),
            ..Measured::default()
        }
    }

    /// Ends a unit of work that took `wall` seconds: times a few
    /// throwaway set-ups (untraced runs only, so a traced run's counts
    /// cover its unit alone), then the host kernel.
    ///
    /// # Errors
    ///
    /// Set-up faults.
    pub fn end_unit(&mut self, wall: f64) -> Result<(), Box<dyn Error>> {
        let opts = self.opts.as_ref().expect("a record made by Measured::new");
        self.unit_walls.push(wall);
        let before = *self
            .host_cals
            .last()
            .expect("a kernel time before each unit");
        let walls = if opts.trace {
            Vec::new()
        } else {
            let burst = set_up(opts, SETUPS_BETWEEN_UNITS, "setup-sample")?;
            tear_down(burst.state)?;
            burst.walls
        };
        let after = host::calibrate(opts.threads);
        self.host_cals.push(after);
        let speed = host::speed(before, after);
        self.setup_ref_walls
            .extend(walls.iter().map(|wall| wall * speed));
        Ok(())
    }

    /// The host's speed during each unit ([`host::speed`]).
    pub fn host_speeds(&self) -> Vec<f64> {
        self.host_cals
            .windows(2)
            .map(|w| host::speed(w[0], w[1]))
            .collect()
    }

    /// Each unit's wall at the reference host's speed.
    pub fn ref_walls(&self) -> Vec<f64> {
        self.unit_walls
            .iter()
            .zip(self.host_speeds())
            .map(|(wall, speed)| wall * speed)
            .collect()
    }

    /// Adds a trace rate to the unit in progress.
    pub fn add_trace_rate(&mut self, rate: f64) {
        self.trace_rates.push((self.unit_walls.len(), rate));
    }

    /// Adds a simulating phase from its measured `power/simulator_runs`
    /// and host seconds. Checks that the runs split evenly over the
    /// targets, which the per-target instruction count assumes.
    pub fn add_sim(&mut self, setup: &Setup, runs: u64, seconds: f64) {
        let work = setup.work_of_runs(runs).filter(|_| runs > 0);
        self.checks.check(work.is_some(), || {
            format!(
                "{runs} simulator runs do not split evenly over {} targets",
                setup.targets.len()
            )
        });
        let instructions = work.map_or(0, |work| work.instructions);
        self.sim_rates
            .push((self.unit_walls.len(), instructions as f64 / seconds));
    }

    /// Runs `f` as one call named `name` into a layer's entry point,
    /// inside a span of that name, and records its wall.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = trace::span(name, f);
        self.calls.push((name, start.elapsed().as_secs_f64()));
        out
    }
}

/// A finished run: the checks and every metric.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// The declared metrics (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Workload-specific metrics.
    pub extras: Vec<Metric>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable lines: every metric and extra, name = value unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.extras) {
            let _ = writeln!(out, "{:<40} {:>18.6} {}", m.name, m.value, m.unit);
        }
        let ratio = stats::ratio(self.checks.failed as f64, self.checks.attempted as f64);
        let _ = writeln!(
            out,
            "{:<40} {:>18.6} ratio ({} of {} checks)",
            "failed_ratio", ratio, self.checks.failed, self.checks.attempted
        );
        out
    }
}

/// Where runs keep their stores and traces: `.bench_out` under the
/// working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// Set-ups before the timed phase, after it, and between its units.
/// `setup_s` is the fastest tenth of them all, at the reference host's
/// speed. On a shared host a set-up's wall flips between two modes about
/// 2x apart, for seconds at a time, which the host kernel does not read;
/// set-ups spread over the whole run catch the fast mode.
const SETUP_REPS: usize = 10;
const SETUPS_BETWEEN_UNITS: usize = 3;

/// Per-workload state built during set-up.
enum State {
    Portfolio,
    Corpus(PathBuf),
    Service(service::Service),
}

/// A burst of set-ups: the kept one and every wall, raw and at the
/// reference host's speed.
struct Burst {
    setup: Setup,
    state: State,
    walls: Vec<f64>,
    ref_walls: Vec<f64>,
}

/// Set-up repeated `reps` times between two timings of the host kernel;
/// the last one is kept. Stores go under `.bench_out/<root>-<pid>`.
fn set_up(opts: &Options, reps: usize, root: &str) -> Result<Burst, Box<dyn Error>> {
    let (mut walls, mut assemble, mut build) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    let before = host::calibrate(opts.threads);
    for _ in 0..reps {
        if let Some((_, state)) = kept.take() {
            tear_down(state)?;
        }
        let start = Instant::now();
        let setup = Setup::new()?;
        let state = match opts.workload {
            Workload::PortfolioLanes8 => State::Portfolio,
            Workload::Corpus => State::Corpus(corpus::prepare(root)?),
            Workload::Service => State::Service(service::prepare(opts, root)?),
        };
        walls.push(start.elapsed().as_secs_f64());
        assemble.push(setup.assemble_s);
        build.push(setup.build_s);
        kept = Some((setup, state));
    }
    let speed = host::speed(before, host::calibrate(opts.threads));
    let (mut setup, state) = kept.expect("at least one set-up");
    setup.assemble_s = stats::quantile(&assemble, 0.0);
    setup.build_s = stats::quantile(&build, 0.0);
    let ref_walls = walls.iter().map(|wall| wall * speed).collect();
    Ok(Burst {
        setup,
        state,
        walls,
        ref_walls,
    })
}

/// Runs the timed phase of the workload.
fn run_timed(
    setup: &Setup,
    state: &State,
    opts: &Options,
    seconds: f64,
) -> Result<(Measured, Vec<service::RequestLog>), Box<dyn Error>> {
    Ok(match state {
        State::Portfolio => (portfolio::run(setup, opts, seconds)?, Vec::new()),
        State::Corpus(root) => (corpus::run(setup, opts, root, seconds)?, Vec::new()),
        State::Service(svc) => service::run(setup, opts, svc, seconds)?,
    })
}

/// Releases the workload's state: stops the server, removes stores.
fn tear_down(state: State) -> Result<(), Box<dyn Error>> {
    match state {
        State::Portfolio => {}
        State::Corpus(root) => std::fs::remove_dir_all(root)?,
        State::Service(svc) => {
            svc.server.shutdown();
            std::fs::remove_dir_all(svc.root)?;
        }
    }
    Ok(())
}

/// Peak resident set of this process, MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable.
pub fn peak_rss_mib() -> Result<f64, Box<dyn Error>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The untraced run: set up, repeat the workload's unit for
/// `opts.seconds`, check outputs, set up again, report the end-to-end
/// metrics.
///
/// Times are medians over the run's units, at the reference host's
/// speed ([`host`]): the host's speed drifts by a fifth and more over
/// minutes, which moves the raw walls of whole runs together, and the
/// median of a dozen short units, each a full pass of the workload,
/// absorbs the drift within a run.
///
/// # Errors
///
/// Any fault of the workload (a wrong verdict is a failed check, not an
/// error).
pub fn run_untraced(opts: &Options) -> Result<Outcome, Box<dyn Error>> {
    let reps = if opts.smoke { 1 } else { SETUP_REPS };
    let first = set_up(opts, reps, opts.workload.name())?;
    let (measured, _) = run_timed(&first.setup, &first.state, opts, opts.seconds)?;
    tear_down(first.state)?;
    let peak_rss_mib = peak_rss_mib()?;
    let last = set_up(opts, reps, opts.workload.name())?;
    tear_down(last.state)?;
    let setup_walls: Vec<f64> = first.walls.iter().chain(&last.walls).copied().collect();
    let setup_ref_walls: Vec<f64> = first
        .ref_walls
        .iter()
        .chain(&last.ref_walls)
        .chain(&measured.setup_ref_walls)
        .copied()
        .collect();
    let speeds = measured.host_speeds();
    let walls: Vec<String> = measured
        .unit_walls
        .iter()
        .zip(&speeds)
        .map(|(wall, speed)| format!("{wall:.3}@{speed:.3}"))
        .collect();
    eprintln!("unit walls (s) @ host speed: {}", walls.join(" "));
    let at_reference = |rates: &[(usize, f64)]| -> f64 {
        let rates: Vec<f64> = rates.iter().map(|(u, r)| r / speeds[*u]).collect();
        stats::median(&rates)
    };
    let raw = |rates: &[(usize, f64)]| -> f64 {
        let rates: Vec<f64> = rates.iter().map(|(_, r)| *r).collect();
        stats::median(&rates)
    };
    let metrics = vec![
        Metric::new("setup_s", stats::quantile(&setup_ref_walls, 0.1), "s"),
        Metric::new("wall_ref_s", stats::median(&measured.ref_walls()), "s"),
    ];
    // Printed, not part of the result. The rates cover single phases of
    // a unit, and the phases follow the host's speed unequally: the
    // corpus re-analysis hardly at all, its write half more than the
    // kernel. The raw figures move with the host's speed. On `service`
    // the peak resident set moves by a fifth from run to run with how
    // the two workers' jobs overlap.
    let mut extras = vec![
        Metric::new(
            "sim_insns_per_ref_s",
            at_reference(&measured.sim_rates),
            "1/s",
        ),
        Metric::new(
            "traces_per_ref_s",
            at_reference(&measured.trace_rates),
            "1/s",
        ),
        Metric::new("wall_s", stats::median(&measured.unit_walls), "s"),
        Metric::new("sim_insns_per_s", raw(&measured.sim_rates), "1/s"),
        Metric::new("traces_per_s", raw(&measured.trace_rates), "1/s"),
        Metric::new("setup_raw_s", stats::quantile(&setup_walls, 0.0), "s"),
        Metric::new("host_speed", stats::median(&speeds), "ratio"),
        Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
    ];
    extras.extend(measured.extras);
    Ok(Outcome {
        checks: measured.checks,
        metrics,
        extras,
    })
}

/// The traced run: one unit of the workload with spans on, then the
/// probe suite; reports the per-layer metrics. `untraced_wall_s` is the
/// same unit's `wall_ref_s` from an untraced run, for the overhead
/// figure.
///
/// Counts, call walls and `server.*` figures cover the unit alone: they
/// are taken before the probe suite runs. Where the unit makes no call
/// of a kind, its wall is 0 over a base of 0 calls.
///
/// # Errors
///
/// Any fault of the workload or the probes.
pub fn run_traced(
    opts: &Options,
    untraced_wall_s: f64,
) -> Result<(Outcome, trace::TraceLog), Box<dyn Error>> {
    trace::set_enabled(true);
    let reps = if opts.smoke { 1 } else { SETUP_REPS };
    let Burst { setup, state, .. } = set_up(opts, reps, opts.workload.name())?;
    trace::take();

    let before = sca_telemetry::global().snapshot();
    let (measured, requests) = run_timed(&setup, &state, opts, 0.0)?;
    let after = sca_telemetry::global().snapshot();
    let unit_spans = trace::take();
    let server = match &state {
        State::Service(svc) => svc.server.stats(),
        _ => sca_server::ServerStats::default(),
    };
    tear_down(state)?;
    let probe_metrics = probes::run(&setup, opts)?;
    let log = trace::TraceLog {
        unit: unit_spans,
        telemetry: trace::telemetry_delta(&before, &after),
        probes: trace::take(),
    };

    let delta = |name: &str| after.counter_delta(&before, name) as f64;
    let work = setup
        .work_of_runs(after.counter_delta(&before, "power/simulator_runs"))
        .unwrap_or_default();
    let mut metrics = Vec::new();
    let mut push = |name: &str, value: f64| {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("count", |(_, u)| *u);
        metrics.push(Metric::new(name, value, unit));
    };
    push("uarch.cycles", work.cycles as f64);
    push("uarch.instructions", work.instructions as f64);
    push("uarch.node_events", work.node_events as f64);
    for counter in WORK_COUNTERS {
        push(&counter.replace('/', "."), delta(counter));
    }
    let simulated = delta("campaign/traces_simulated");
    push(
        "campaign.lockstep_share",
        stats::ratio(delta("campaign/lockstep_traces"), simulated),
    );
    push(
        "campaign.blocks_poisoned",
        delta("campaign/blocks_poisoned"),
    );
    for call in [
        "campaign.cpa",
        "campaign.tvla",
        "campaign.reanalyze",
        "target.charz",
        "core.audit",
    ] {
        let walls: Vec<f64> = measured
            .calls
            .iter()
            .filter(|(name, _)| *name == call)
            .map(|(_, wall)| *wall)
            .collect();
        push(
            &format!("{call}_s"),
            walls.iter().fold(0.0, |sum, wall| sum + wall),
        );
        push(&format!("{call}_calls"), walls.len() as f64);
    }
    push("target.build_s", setup.build_s);
    push("isa.assemble_s", setup.assemble_s);
    let lookups = delta("store/page_hits") + delta("store/page_misses");
    push(
        "store.page_hit_ratio",
        stats::ratio(delta("store/page_hits"), lookups),
    );
    push("store.page_lookups", lookups);
    push(
        "store.fsyncs",
        delta("store/fsyncs") + delta("store/wal_fsyncs"),
    );
    let waits: Vec<f64> = requests.iter().filter_map(|r| r.queue_wait_s).collect();
    let gaps: Vec<f64> = requests.iter().flat_map(|r| r.slice_gaps.clone()).collect();
    push("server.queue_wait_s", stats::median(&waits));
    push("server.slice_s", stats::median(&gaps));
    push(
        "server.dedup_ratio",
        stats::ratio(
            (server.coalesced + server.store_served) as f64,
            server.submitted as f64,
        ),
    );
    push("server.submissions", server.submitted as f64);
    push("server.queue_peak", server.queue_peak as f64);
    let traced_wall_s = stats::median(&measured.ref_walls());
    push(
        "trace.overhead_pct",
        (traced_wall_s / untraced_wall_s - 1.0) * 100.0,
    );
    push("trace.spans", log.unit_span_count() as f64);
    metrics.extend(probe_metrics);

    // Declared order.
    metrics.sort_by_key(|m| PER_LAYER.iter().position(|(n, _)| *n == m.name));
    let mut extras = measured.extras;
    extras.push(Metric::new("trace.traced_unit_ref_s", traced_wall_s, "s"));
    extras.push(Metric::new(
        "trace.untraced_unit_ref_s",
        untraced_wall_s,
        "s",
    ));
    Ok((
        Outcome {
            checks: measured.checks,
            metrics,
            extras,
        },
        log,
    ))
}
