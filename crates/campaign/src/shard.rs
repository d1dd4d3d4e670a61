//! Deterministic sharded map-reduce over trace indices.
//!
//! A campaign is a pure function of `(seed, trace index)`: every trace
//! derives its input and noise from its own RNG stream, so any worker can
//! produce any trace. The engine therefore only has to decide *which*
//! indices each worker owns and *how* the workers' partial statistics
//! recombine:
//!
//! * indices are split into contiguous ranges, one per worker, as a
//!   pure function of `(items, threads)` (no work stealing — assignment
//!   never depends on timing);
//! * each worker folds its range, in index order, into its own sink, in
//!   sub-batches of `batch` indices;
//! * worker sinks merge back in worker order.
//!
//! The result is reproducible run-to-run at any fixed `(seed, threads)`,
//! and changing the thread count only re-associates the floating-point
//! sums (agreement to ~1e-12 over realistic campaigns — verdicts and
//! printed correlations are identical). Changing the batch size never
//! changes anything, bit-for-bit: batches only bound how much transient
//! trace data a worker buffers between sink updates, and shard
//! boundaries are deliberately independent of them.

use std::ops::Range;

/// Default batch size: traces buffered per worker between sink updates.
pub const DEFAULT_BATCH: usize = 64;

/// How a campaign's item indices are split across workers.
#[derive(Clone, Copy, Debug)]
pub struct ShardPlan {
    /// Total number of items (traces) to produce.
    pub items: usize,
    /// Worker threads (1 = run on the calling thread).
    pub threads: usize,
    /// Items buffered per worker between sink updates.
    pub batch: usize,
}

impl ShardPlan {
    /// A serial plan with the default batch size.
    pub fn new(items: usize) -> ShardPlan {
        ShardPlan {
            items,
            threads: 1,
            batch: DEFAULT_BATCH,
        }
    }

    /// Sets the worker-thread count (builder style).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> ShardPlan {
        self.threads = threads.max(1);
        self
    }

    /// Sets the batch size (builder style).
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> ShardPlan {
        self.batch = batch.max(1);
        self
    }

    /// The contiguous index range each worker owns. A pure function of
    /// `(items, threads)` — deliberately independent of `batch`, so the
    /// batch size can never move a shard boundary (and therefore never
    /// changes results, bit-for-bit). Empty ranges are dropped, so the
    /// result may hold fewer entries than `threads`.
    pub fn shards(&self) -> Vec<Range<usize>> {
        let threads = self.threads.max(1).min(self.items.max(1));
        let chunk = self.items.div_ceil(threads);
        (0..threads)
            .filter_map(|w| {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(self.items);
                (lo < hi).then_some(lo..hi)
            })
            .collect()
    }
}

/// Partial state that can recombine with another shard's.
///
/// Implementations must make `merge` equivalent (up to floating-point
/// association) to having absorbed the other shard's items directly.
pub trait Mergeable {
    /// Folds `other` — the state of a worker that processed a disjoint
    /// index range — into `self`.
    fn merge(&mut self, other: Self);
}

impl<A: Mergeable, B: Mergeable> Mergeable for (A, B) {
    fn merge(&mut self, other: (A, B)) {
        self.0.merge(other.0);
        self.1.merge(other.1);
    }
}

/// Element-wise: every worker builds the same list of states, so entry
/// `i` merges with the other worker's entry `i`.
impl<K: Mergeable> Mergeable for Vec<K> {
    fn merge(&mut self, other: Vec<K>) {
        assert_eq!(self.len(), other.len(), "merging lists of unequal length");
        for (mine, theirs) in self.iter_mut().zip(other) {
            mine.merge(theirs);
        }
    }
}

/// Runs a deterministic sharded map-reduce over `plan.items` indices.
///
/// * `worker` builds one worker's private state (e.g. a cloned CPU) —
///   called once per shard, on the worker's own thread;
/// * `sink` builds one worker's empty accumulator;
/// * `process` folds one batch of indices into the worker's sink, in
///   index order.
///
/// Worker sinks are merged in worker order, so the reduction tree is a
/// pure function of the plan.
///
/// ```
/// use sca_campaign::{run_sharded, Mergeable, ShardPlan};
///
/// struct Sum(f64);
/// impl Mergeable for Sum {
///     fn merge(&mut self, other: Sum) {
///         self.0 += other.0;
///     }
/// }
///
/// let plan = ShardPlan::new(1000).with_threads(4).with_batch(64);
/// let sum = run_sharded(
///     &plan,
///     || (), // no per-worker state needed here
///     || Sum(0.0),
///     |_, sum, range| {
///         for i in range {
///             sum.0 += i as f64;
///         }
///         Ok::<(), std::convert::Infallible>(())
///     },
/// )
/// .unwrap();
/// assert_eq!(sum.0, 499_500.0);
/// ```
///
/// # Errors
///
/// Returns the first error in shard order; remaining shards may or may
/// not have run.
pub fn run_sharded<W, A, E>(
    plan: &ShardPlan,
    worker: impl Fn() -> W + Sync,
    sink: impl Fn() -> A + Sync,
    process: impl Fn(&mut W, &mut A, Range<usize>) -> Result<(), E> + Sync,
) -> Result<A, E>
where
    A: Mergeable + Send,
    E: Send,
{
    let shards = plan.shards();
    let batch = plan.batch.max(1);
    let run_shard = |range: Range<usize>| -> Result<A, E> {
        let mut state = worker();
        let mut acc = sink();
        let mut lo = range.start;
        while lo < range.end {
            let hi = (lo + batch).min(range.end);
            process(&mut state, &mut acc, lo..hi)?;
            lo = hi;
        }
        Ok(acc)
    };

    if shards.len() <= 1 {
        return match shards.into_iter().next() {
            Some(range) => run_shard(range),
            None => Ok(sink()),
        };
    }

    let mut partials: Vec<Result<A, E>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for range in shards {
            let run_shard = &run_shard;
            handles.push(scope.spawn(move || run_shard(range)));
        }
        for handle in handles {
            partials.push(handle.join().expect("campaign worker panicked"));
        }
    });
    // An empty campaign reduces to the identity-merged (empty) sink —
    // never a panic: `shards()` drops empty ranges, so `items == 0`
    // reaches this fold with no partials at all.
    let mut partials = partials.into_iter();
    let Some(first) = partials.next() else {
        return Ok(sink());
    };
    let mut merged = first?;
    for partial in partials {
        merged.merge(partial?);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_all_indices_exactly_once() {
        for items in [0usize, 1, 63, 64, 65, 1000] {
            for threads in [1usize, 2, 3, 8, 40] {
                for batch in [1usize, 7, 64] {
                    let plan = ShardPlan {
                        items,
                        threads,
                        batch,
                    };
                    let shards = plan.shards();
                    let mut covered = 0usize;
                    let mut next = 0usize;
                    for range in &shards {
                        assert_eq!(range.start, next, "contiguous from the left");
                        assert!(range.start < range.end, "no empty shards");
                        covered += range.len();
                        next = range.end;
                    }
                    assert_eq!(
                        covered, items,
                        "items {items} threads {threads} batch {batch}"
                    );
                    assert!(shards.len() <= threads.max(1));
                    // Batch can never move a shard boundary.
                    assert_eq!(
                        shards,
                        ShardPlan {
                            items,
                            threads,
                            batch: 1
                        }
                        .shards()
                    );
                }
            }
        }
    }

    #[derive(Debug, PartialEq)]
    struct Collect(Vec<usize>);
    impl Mergeable for Collect {
        fn merge(&mut self, other: Collect) {
            self.0.extend(other.0);
        }
    }

    #[test]
    fn worker_order_merge_preserves_index_order() {
        for threads in [1usize, 2, 5, 8] {
            let plan = ShardPlan::new(103).with_threads(threads).with_batch(10);
            let out = run_sharded(
                &plan,
                || (),
                || Collect(Vec::new()),
                |_, acc, range| {
                    acc.0.extend(range);
                    Ok::<(), std::convert::Infallible>(())
                },
            )
            .unwrap();
            assert_eq!(out.0, (0..103).collect::<Vec<_>>(), "threads {threads}");
        }
    }

    #[test]
    fn errors_propagate() {
        let plan = ShardPlan::new(10).with_threads(2).with_batch(2);
        let result = run_sharded(
            &plan,
            || (),
            || Collect(Vec::new()),
            |_, _, range| {
                if range.contains(&7) {
                    Err("boom")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(result.err(), Some("boom"));
    }

    #[test]
    fn zero_items_yield_the_empty_sink() {
        let plan = ShardPlan::new(0).with_threads(4);
        let out = run_sharded(
            &plan,
            || (),
            || Collect(Vec::new()),
            |_, _, _| Ok::<(), std::convert::Infallible>(()),
        )
        .unwrap();
        assert!(out.0.is_empty());
    }

    /// Regression: an empty campaign must return the identity-merged
    /// sink at *any* thread/batch combination — the worker and process
    /// closures must never run, and nothing may panic on the empty
    /// partial list.
    #[test]
    fn empty_campaigns_never_panic_and_never_invoke_workers() {
        for threads in [1usize, 2, 4, 17] {
            for batch in [1usize, 7, 64] {
                let plan = ShardPlan {
                    items: 0,
                    threads,
                    batch,
                };
                assert!(plan.shards().is_empty());
                let out = run_sharded(
                    &plan,
                    || panic!("no worker state for an empty campaign"),
                    || Collect(Vec::new()),
                    |_: &mut (), _, _| -> Result<(), &'static str> {
                        panic!("no batches for an empty campaign")
                    },
                )
                .expect("empty campaign yields the empty sink");
                assert!(out.0.is_empty(), "threads {threads} batch {batch}");
            }
        }
    }
}
