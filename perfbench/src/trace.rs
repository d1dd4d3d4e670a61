//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files around every call into
//! a layer's public entry points, kept in memory, and written out once
//! at the end of a traced run. With tracing off, [`span`] is a plain
//! call: nothing is timed or stored.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use sca_telemetry::{Snapshot, SpanStat};

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique id within the run.
    pub id: u64,
    /// The span open on the same thread when this one started (0 = root).
    pub parent: u64,
    /// Layer-qualified name (`campaign.cpa`, `store.append`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn records() -> &'static Mutex<Vec<SpanRecord>> {
    static RECORDS: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    RECORDS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name` (a plain call when tracing is
/// off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    let start = epoch().elapsed().as_nanos() as u64;
    let out = f();
    let end = epoch().elapsed().as_nanos() as u64;
    OPEN.with(|open| open.borrow_mut().pop());
    records()
        .lock()
        .expect("span log poisoned")
        .push(SpanRecord {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        });
    out
}

/// Every span recorded so far, in completion order.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(&mut *records().lock().expect("span log poisoned"))
}

/// The spans of a traced run.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// The benchmark's own spans around the unit of work's calls.
    pub unit: Vec<SpanRecord>,
    /// The program's telemetry spans the unit completed: path, seconds,
    /// count.
    pub telemetry: Vec<(String, SpanStat)>,
    /// The benchmark's spans around the probe suite's calls.
    pub probes: Vec<SpanRecord>,
}

impl TraceLog {
    /// Spans the unit of work completed, the benchmark's and the
    /// program's.
    pub fn unit_span_count(&self) -> u64 {
        self.unit.len() as u64 + self.telemetry.iter().map(|(_, s)| s.count).sum::<u64>()
    }

    /// Renders the log as one JSON object.
    pub fn to_json(&self) -> String {
        let records = |spans: &[SpanRecord]| -> String {
            let rows: Vec<String> = spans
                .iter()
                .map(|s| {
                    format!(
                        "    {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                        s.id, s.parent, s.name, s.start_ns, s.end_ns
                    )
                })
                .collect();
            rows.join(",\n")
        };
        let telemetry: Vec<String> = self
            .telemetry
            .iter()
            .map(|(path, s)| {
                format!(
                    "    {{\"path\": \"{path}\", \"seconds\": {}, \"count\": {}}}",
                    s.seconds, s.count
                )
            })
            .collect();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"unit\": [\n{}\n  ],\n  \"telemetry\": [\n{}\n  ],\n  \"probes\": [\n{}\n  ]\n}}\n",
            records(&self.unit),
            telemetry.join(",\n"),
            records(&self.probes)
        );
        out
    }
}

/// The telemetry spans completed between two snapshots of the same
/// registry: per path, the seconds and count added.
pub fn telemetry_delta(before: &Snapshot, after: &Snapshot) -> Vec<(String, SpanStat)> {
    after
        .spans
        .iter()
        .filter_map(|(path, now)| {
            let was = before.span(path).unwrap_or_default();
            (now.count > was.count).then(|| {
                let stat = SpanStat {
                    seconds: now.seconds - was.seconds,
                    count: now.count - was.count,
                };
                (path.clone(), stat)
            })
        })
        .collect()
}
