//! `service`: an in-process campaign server under a closed loop of two
//! clients.
//!
//! Every round submits each of the twelve (target, analysis) specs once
//! as new work, so every round simulates the same amount. Each client
//! waits for its request's final verdict before sending the next one.
//! The scripted mix has three kinds of request: fresh specs (simulate
//! and write slices), duplicates that both clients send at the same
//! moment (the second coalesces onto the first), and resubmissions of
//! finished specs (served from the store with zero simulation).

use std::error::Error;
use std::path::PathBuf;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use sca_power::{simulator_runs, GaussianNoise};
use sca_server::{AnalysisSel, CampaignServer, CampaignSpec, Event, ServerConfig, ServerStats};
use sca_target::ModelKind;

use crate::pool::{self, pool_seed, splitmix64, POOL};
use crate::trace::span;
use crate::{stats, Measured, Metric, Options, Setup};

/// A running server and its store root.
pub struct Service {
    /// The server.
    pub server: CampaignServer,
    /// Its corpus root.
    pub root: PathBuf,
}

/// Starts a server over a fresh store root: one worker per benchmark
/// thread, one campaign thread per slice.
///
/// # Errors
///
/// I/O errors creating the root.
pub fn prepare(opts: &Options, name: &str) -> Result<Service, Box<dyn Error>> {
    let root = crate::corpus::prepare(name)?;
    let every = opts.sizes().checkpoint_every;
    let server = CampaignServer::start(ServerConfig {
        workers: opts.threads,
        threads_per_slice: 1,
        lanes: 8,
        slice_traces: every,
        checkpoint_every: every,
        ..ServerConfig::new(&root)
    });
    Ok(Service { server, root })
}

/// What one request saw.
#[derive(Clone, Debug, Default)]
pub struct RequestLog {
    /// Submission to final verdict, seconds.
    pub latency_s: f64,
    /// Submission to first progress event, seconds.
    pub queue_wait_s: Option<f64>,
    /// Gaps between consecutive progress events, seconds.
    pub slice_gaps: Vec<f64>,
}

/// A scripted request: an index into the round's twelve specs.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Both clients send this spec at the same moment.
    Dup(usize),
    /// New work for this client alone.
    Fresh(usize),
    /// A spec this client already finished.
    Resub(usize),
}

use Step::{Dup, Fresh, Resub};

const SCRIPTS: [[Step; 10]; 2] = [
    [
        Dup(0),
        Fresh(4),
        Fresh(5),
        Resub(4),
        Dup(1),
        Fresh(6),
        Fresh(7),
        Resub(6),
        Dup(2),
        Dup(3),
    ],
    [
        Dup(0),
        Fresh(8),
        Fresh(9),
        Resub(8),
        Dup(1),
        Fresh(10),
        Fresh(11),
        Resub(10),
        Dup(2),
        Dup(3),
    ],
];

/// Submissions, coalesced duplicates and store-served resubmissions per
/// round.
const ROUND_REQUESTS: u64 = 20;
const ROUND_COALESCED: u64 = 4;
const ROUND_STORE_SERVED: u64 = 4;

/// A scripted request and the recorded verdict it must produce.
struct Request {
    spec: CampaignSpec,
    expected: Option<&'static str>,
}

/// What a client got back for one request.
struct Answer {
    log: RequestLog,
    line: String,
    expected: Option<&'static str>,
}

/// One client's closed loop: each request waits for the previous one's
/// final verdict; duplicates first meet the other client at `barrier`.
fn run_script(
    server: &CampaignServer,
    barrier: &Barrier,
    requests: &[Request],
    client: usize,
    script: &[Step],
) -> Result<Vec<Answer>, String> {
    let tenant = format!("client-{client}");
    script
        .iter()
        .map(|step| {
            let index = match *step {
                Dup(i) => {
                    barrier.wait();
                    i
                }
                Fresh(i) | Resub(i) => i,
            };
            let request = &requests[index];
            let spec = CampaignSpec {
                tenant: tenant.clone(),
                ..request.spec.clone()
            };
            let (log, line) = span("server.request", || submit(server, &spec))?;
            Ok(Answer {
                log,
                line,
                expected: request.expected,
            })
        })
        .collect()
}

/// Runs rounds of the request mix until `seconds` have elapsed (at
/// least one round, at most one per pool seed).
///
/// # Errors
///
/// Server faults, rejected submissions and lost event streams.
pub fn run(
    setup: &Setup,
    opts: &Options,
    service: &Service,
    seconds: f64,
) -> Result<(Measured, Vec<RequestLog>), Box<dyn Error>> {
    let sizes = opts.sizes();
    let tag = pool::service_tag(&sizes);
    let combos: Vec<(usize, AnalysisSel)> = (0..setup.targets.len())
        .flat_map(|t| [AnalysisSel::Hw, AnalysisSel::Hd, AnalysisSel::Tvla].map(|a| (t, a)))
        .collect();
    // Each combo walks its own shuffled order of pool seeds, so no spec
    // repeats across rounds.
    let pool_index =
        |c: usize, round: usize| shuffled(POOL as usize, opts.seed ^ ((c as u64) << 40))[round];

    let before = service.server.stats();
    let mut measured = Measured::new(opts);
    let mut logs = Vec::new();
    let start = Instant::now();
    for round in 0..POOL as usize {
        // Slots 0-3 hold the duplicates, 4-7 client 0's and 8-11 client
        // 1's fresh specs. Position p of each group is the same target and
        // each target's three analyses go one to each group, so whatever
        // the seed, both clients carry the same targets between the same
        // barriers and neither waits on a heavier chain of the other.
        let round_seed = splitmix64(opts.seed) ^ round as u64;
        let targets = shuffled(setup.targets.len(), round_seed);
        let order: Vec<usize> = (0..3)
            .flat_map(|group| {
                targets.iter().map(move |&t| {
                    let analyses = shuffled(3, splitmix64(round_seed ^ (t as u64 + 1)));
                    t * 3 + analyses[group]
                })
            })
            .collect();
        let requests: Vec<Request> = order
            .iter()
            .map(|&c| {
                let (t, analysis) = combos[c];
                let index = pool_index(c, round) as u64;
                let target = setup.targets[t].target.as_ref();
                let prefix = match analysis {
                    AnalysisSel::Tvla => format!("[{}] TVLA fixed-vs-random:", target.name()),
                    _ => {
                        let kind = if analysis == AnalysisSel::Hw {
                            ModelKind::ValueHw
                        } else {
                            ModelKind::TransitionHd
                        };
                        let model = target
                            .models()
                            .into_iter()
                            .find(|m| m.kind == kind)
                            .expect("every target declares both model kinds");
                        format!("[{}] {}:", target.name(), model.name)
                    }
                };
                Request {
                    spec: CampaignSpec {
                        tenant: String::new(),
                        target: target.name().to_owned(),
                        analysis,
                        traces: sizes.spec_traces,
                        executions_per_trace: sizes.spec_executions,
                        seed: pool_seed(index),
                        noise: GaussianNoise::bare_metal(),
                    },
                    expected: pool::expected_line(tag, index, &prefix),
                }
            })
            .collect();

        let runs_before = simulator_runs();
        let round_start = Instant::now();
        let barrier = Barrier::new(SCRIPTS.len());
        let results: Vec<Result<Vec<Answer>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = SCRIPTS
                .iter()
                .enumerate()
                .map(|(client, script)| {
                    let (barrier, requests) = (&barrier, &requests);
                    let server = &service.server;
                    scope.spawn(move || run_script(server, barrier, requests, client, script))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = round_start.elapsed().as_secs_f64();
        for result in results {
            for answer in result? {
                let (line, expected) = (&answer.line, answer.expected);
                measured.checks.check(Some(line.as_str()) == expected, || {
                    format!("service verdict {line:?}, expected {expected:?}")
                });
                logs.push(answer.log);
            }
        }
        measured.add_sim(setup, simulator_runs() - runs_before, wall);
        measured.add_trace_rate((ROUND_REQUESTS * sizes.spec_traces) as f64 / wall);
        measured.end_unit(wall)?;
        if start.elapsed() >= Duration::from_secs_f64(seconds) {
            break;
        }
    }

    let rounds = measured.unit_walls.len() as u64;
    let stats = stats_delta(&service.server.stats(), &before);
    for (what, got, want) in [
        ("submissions", stats.submitted, ROUND_REQUESTS * rounds),
        ("coalesced", stats.coalesced, ROUND_COALESCED * rounds),
        (
            "store-served",
            stats.store_served,
            ROUND_STORE_SERVED * rounds,
        ),
        ("failed jobs", stats.failed + stats.rejected, 0),
    ] {
        measured.checks.check(got == want, || {
            format!("server {what}: {got}, expected {want}")
        });
    }
    let latencies: Vec<f64> = logs.iter().map(|l| l.latency_s).collect();
    measured.extras = vec![
        Metric::new("latency_p50_s", stats::median(&latencies), "s"),
        Metric::new(
            "jobs_per_s",
            latencies.len() as f64 / measured.unit_walls.iter().sum::<f64>(),
            "1/s",
        ),
        Metric::new("rounds", rounds as f64, "count"),
        Metric::new("latency_samples", latencies.len() as f64, "count"),
    ];
    if let Some(q) = stats::tail_fraction(latencies.len()) {
        measured.extras.push(Metric::new(
            "latency_tail_s",
            stats::quantile(&latencies, q),
            "s",
        ));
        measured
            .extras
            .push(Metric::new("latency_tail_pct", q * 100.0, "%"));
    }
    Ok((measured, logs))
}

/// Submits `spec` and follows its events to the final verdict line.
pub(crate) fn submit(
    server: &CampaignServer,
    spec: &CampaignSpec,
) -> Result<(RequestLog, String), String> {
    let start = Instant::now();
    let (_, events, _) = server.submit(spec, None).map_err(|e| e.to_string())?;
    let mut log = RequestLog::default();
    let mut last_progress = None;
    let mut line = None;
    loop {
        let event = events
            .recv_timeout(Duration::from_secs(120))
            .map_err(|e: RecvTimeoutError| format!("event stream of {}: {e}", spec.canonical()))?;
        let now = start.elapsed().as_secs_f64();
        match event {
            Event::Accepted { .. } => {}
            Event::Progress { .. } => {
                match last_progress {
                    None => log.queue_wait_s = Some(now),
                    Some(last) => log.slice_gaps.push(now - last),
                }
                last_progress = Some(now);
            }
            Event::Final {
                line: final_line, ..
            } => {
                log.latency_s = now;
                line = Some(final_line);
            }
            Event::Failed { message, .. } => return Err(message),
            Event::Done { .. } => break,
        }
    }
    let line = line.ok_or_else(|| format!("no verdict for {}", spec.canonical()))?;
    Ok((log, line))
}

/// `now - before`, field by field (the peak is kept as is).
fn stats_delta(now: &ServerStats, before: &ServerStats) -> ServerStats {
    ServerStats {
        submitted: now.submitted - before.submitted,
        coalesced: now.coalesced - before.coalesced,
        rejected: now.rejected - before.rejected,
        completed: now.completed - before.completed,
        failed: now.failed - before.failed,
        slices: now.slices - before.slices,
        store_served: now.store_served - before.store_served,
        queue_peak: now.queue_peak,
    }
}

/// A seeded permutation of `0..n` (Fisher-Yates over SplitMix64).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}
