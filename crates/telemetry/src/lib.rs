//! Deterministic, dependency-free telemetry for the whole stack.
//!
//! One [`Registry`] holds three metric families plus a span-time tree:
//!
//! * [`Counter`] — monotonic `u64` work counters (traces simulated,
//!   pages written, cache accesses). Counters measure *work*, never
//!   time, so their values are a pure function of the campaign — the
//!   determinism tests assert byte-identical counts across thread and
//!   lane counts.
//! * [`Gauge`] — a current level plus its high-water mark (queue
//!   depth).
//! * [`Histogram`] — fixed log-spaced buckets of `u64` (slice
//!   latencies). Wall-clock valued, so observability-only.
//! * spans — RAII timers ([`span()`] / [`span!`]) that build a
//!   hierarchical phase-time tree (`portfolio/aes128/cpa-hw-hd/simulate`)
//!   from a thread-local path stack. Worker threads graft their spans
//!   under the path their spawner captured with
//!   [`current_span_path`] + [`span_at`].
//!
//! # The determinism contract
//!
//! Telemetry must never perturb results: nothing here touches stdout
//! (exporters write to strings; the binaries route them to stderr or
//! files), nothing draws from any RNG, and counters are plain relaxed
//! atomics. Counter *values* are part of the reproducibility surface —
//! work counters are identical across `--threads` and `--lanes` — while
//! span durations and histograms are wall clock and therefore excluded
//! from every invariance assertion.
//!
//! Hot paths stay allocation-free by caching handles: resolve a metric
//! once ([`counter!`] keeps a per-call-site `OnceLock`) and bump the
//! returned atomic thereafter. Span bookkeeping locks a mutex only at
//! span *end* (a few times per worker batch, never per trace).
//!
//! Most code uses the process-wide [`global`] registry; the campaign
//! server additionally owns a private `Registry` instance so that
//! several servers in one test process keep separate books.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

mod export;

pub use export::{render_metrics_json, render_summary, render_wire, top_level_seconds};

/// A monotonic `u64` counter. Cheap to bump from any thread.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A current level plus its high-water mark.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    peak: AtomicI64,
}

impl Gauge {
    /// Sets the level (and raises the peak if exceeded).
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
        self.peak.fetch_max(value, Ordering::Relaxed);
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever set.
    #[must_use]
    pub fn peak(&self) -> i64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Default histogram bucket bounds (seconds): log-spaced from 1 ms to
/// 10 s, a fit for slice latencies.
pub const LATENCY_BUCKETS: [f64; 9] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0];

/// A fixed-bucket histogram of seconds. Bucket `i` counts observations
/// `<= bounds[i]`; one implicit overflow bucket catches the rest. The
/// sum is kept in integer microseconds so observation never needs a
/// compare-and-swap loop.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Records one observation of `seconds`.
    pub fn observe(&self, seconds: f64) {
        let at = self
            .bounds
            .iter()
            .position(|&b| seconds <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[at].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let micros = (seconds * 1e6).max(0.0) as u64;
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations, in seconds (microsecond resolution).
    #[must_use]
    pub fn sum_seconds(&self) -> f64 {
        self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum_seconds: self.sum_seconds(),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds, seconds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1` entries; last = overflow).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations, seconds.
    pub sum_seconds: f64,
}

/// Accumulated time under one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStat {
    /// Total seconds spent under this path.
    pub seconds: f64,
    /// Completed spans recorded at this path.
    pub count: u64,
}

/// A metric registry: named counters, gauges, histograms and the span
/// tree. Handles are `Arc`s — resolve once, bump forever.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock().expect("telemetry lock");
        Arc::clone(
            counters
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut gauges = self.gauges.lock().expect("telemetry lock");
        Arc::clone(
            gauges
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// The histogram named `name`, created with `bounds` on first use
    /// (later calls keep the original bounds).
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock().expect("telemetry lock");
        Arc::clone(
            histograms
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Folds `seconds` into the span stat at `path`.
    pub fn record_span(&self, path: &str, seconds: f64) {
        let mut spans = self.spans.lock().expect("telemetry lock");
        let stat = spans.entry(path.to_owned()).or_default();
        stat.seconds += seconds;
        stat.count += 1;
    }

    /// A point-in-time copy of every metric, sorted by name (BTreeMap
    /// order), so exports are deterministic given the values.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .expect("telemetry lock")
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("telemetry lock")
                .iter()
                .map(|(name, g)| (name.clone(), (g.get(), g.peak())))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("telemetry lock")
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
            spans: self
                .spans
                .lock()
                .expect("telemetry lock")
                .iter()
                .map(|(path, stat)| (path.clone(), *stat))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`Registry`], ready for export or
/// delta arithmetic. All vectors are name-sorted.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// `(name, (value, peak))` gauges.
    pub gauges: Vec<(String, (i64, i64))>,
    /// `(name, snapshot)` histograms.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(path, stat)` span tree, path-sorted.
    pub spans: Vec<(String, SpanStat)>,
}

impl Snapshot {
    /// The counter's value (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The span stat at `path`, if any span ended there.
    #[must_use]
    pub fn span(&self, path: &str) -> Option<SpanStat> {
        self.spans.iter().find(|(p, _)| p == path).map(|(_, s)| *s)
    }

    /// `self.counter(name) - earlier.counter(name)` — the exact-delta
    /// idiom the determinism tests are written in.
    #[must_use]
    pub fn counter_delta(&self, earlier: &Snapshot, name: &str) -> u64 {
        self.counter(name).saturating_sub(earlier.counter(name))
    }

    /// Folds another snapshot in (e.g. a per-server registry merged with
    /// the process-global one), restoring name-sorted order. Names are
    /// expected to be disjoint; on a collision both entries are kept,
    /// sorted adjacently.
    pub fn merge(&mut self, other: Snapshot) {
        self.counters.extend(other.counters);
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.extend(other.gauges);
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.extend(other.histograms);
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        self.spans.extend(other.spans);
        self.spans.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

/// The process-wide default registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Whether span timing is enabled (counters are unconditionally on —
/// exact-delta tests depend on them). `SCA_TELEMETRY=0|off|false`
/// disables span collection; anything else (including unset) enables
/// it. Read once per process.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("SCA_TELEMETRY").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        )
    })
}

std::thread_local! {
    static SPAN_STACK: std::cell::RefCell<Vec<String>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The calling thread's current span path (`"a/b/c"`), empty outside
/// any span. Capture it before handing work to other threads and graft
/// their spans under it with [`span_at`].
#[must_use]
pub fn current_span_path() -> String {
    SPAN_STACK.with(|stack| stack.borrow().join("/"))
}

/// Joins a (possibly empty) parent path and a child name.
#[must_use]
pub fn child_path(parent: &str, name: &str) -> String {
    if parent.is_empty() {
        name.to_owned()
    } else {
        format!("{parent}/{name}")
    }
}

/// An RAII span timer: records elapsed wall clock into the global
/// registry's span tree when dropped. A no-op when [`enabled`] is off.
#[derive(Debug)]
pub struct Span {
    /// Full path this span records under; `None` = disabled no-op.
    path: Option<String>,
    /// Whether the path was pushed on the thread-local stack.
    stacked: bool,
    start: Instant,
}

impl Span {
    fn disabled() -> Span {
        Span {
            path: None,
            stacked: false,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.stacked {
            SPAN_STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
        if let Some(path) = self.path.take() {
            global().record_span(&path, self.start.elapsed().as_secs_f64());
        }
    }
}

/// Opens a span named `name` nested under the thread's current span
/// (pushing onto the thread-local path stack).
#[must_use]
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span::disabled();
    }
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name.to_owned());
        stack.join("/")
    });
    Span {
        path: Some(path),
        stacked: true,
        start: Instant::now(),
    }
}

/// Opens a span at an explicit full `path`, ignoring (and not touching)
/// the thread-local stack — how worker threads nest under the phase
/// their spawner captured with [`current_span_path`].
#[must_use]
pub fn span_at(path: String) -> Span {
    if !enabled() {
        return Span::disabled();
    }
    Span {
        path: Some(path),
        stacked: false,
        start: Instant::now(),
    }
}

/// [`span()`] with `format!` arguments: `span!("cpa-{kind}")`.
#[macro_export]
macro_rules! span {
    ($($arg:tt)*) => {
        $crate::span(&format!($($arg)*))
    };
}

/// A cached global-counter handle, resolved once per call site:
/// `counter!("campaign/traces_simulated").add(n)`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::global().counter($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = Registry::new();
        let c = reg.counter("a/b");
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        // Same name, same counter.
        reg.counter("a/b").add(1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a/b"), 5);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn gauges_track_peaks() {
        let reg = Registry::new();
        let g = reg.gauge("queue");
        g.set(3);
        g.set(7);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.peak(), 7);
    }

    #[test]
    fn histograms_bucket_observations() {
        let h = Histogram::new(&[0.01, 0.1, 1.0]);
        h.observe(0.005);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0); // overflow bucket
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![1, 1, 1, 1]);
        assert_eq!(snap.count, 4);
        assert!((snap.sum_seconds - 5.555).abs() < 1e-3);
    }

    #[test]
    fn snapshots_are_name_sorted_and_delta_friendly() {
        let reg = Registry::new();
        reg.counter("z").add(1);
        reg.counter("a").add(2);
        let before = reg.snapshot();
        reg.counter("a").add(40);
        let after = reg.snapshot();
        let names: Vec<&str> = after.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "z"]);
        assert_eq!(after.counter_delta(&before, "a"), 40);
        assert_eq!(after.counter_delta(&before, "z"), 0);
    }

    #[test]
    fn span_paths_nest_on_one_thread_and_graft_across_threads() {
        // Serialize with the other span test: the stack is thread-local
        // but the recorded tree lives in the global registry.
        let outer = span("t-outer");
        assert_eq!(current_span_path(), "t-outer");
        let parent = current_span_path();
        {
            let _inner = span("t-inner");
            assert_eq!(current_span_path(), "t-outer/t-inner");
        }
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    // Worker threads see an empty stack...
                    assert_eq!(current_span_path(), "");
                    // ...and graft under the captured parent explicitly.
                    let _w = span_at(child_path(&parent, "t-worker"));
                })
                .join()
                .expect("worker");
        });
        drop(outer);
        let snap = global().snapshot();
        assert!(snap.span("t-outer").is_some());
        assert!(snap.span("t-outer/t-inner").is_some());
        assert!(snap.span("t-outer/t-worker").is_some());
        let outer = snap.span("t-outer").expect("recorded");
        assert!(outer.seconds >= 0.0 && outer.count >= 1);
    }

    #[test]
    fn counter_macro_caches_one_handle() {
        let a = counter!("t-macro/hits");
        a.add(2);
        counter!("t-macro/hits").add(3);
        assert_eq!(global().counter("t-macro/hits").get(), 5);
    }

    #[test]
    fn child_path_handles_empty_parents() {
        assert_eq!(child_path("", "simulate"), "simulate");
        assert_eq!(child_path("a/b", "simulate"), "a/b/simulate");
    }
}
