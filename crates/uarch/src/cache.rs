//! Set-associative cache model with true-LRU replacement.
//!
//! The Allwinner A20 carries two cache levels; the paper warms them by
//! looping the benchmark so that measured executions run from a steady
//! state. This model reproduces that behaviour: cold runs incur miss
//! penalties, warmed runs are deterministic hits.

use serde::{Deserialize, Serialize};

use crate::CacheConfig;

/// Result of one cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// Extra latency contributed by this level (0 on hit).
    pub penalty: u64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct CacheSet {
    /// Tags of resident lines, most recently used first.
    lines: Vec<u32>,
}

/// One level of set-associative cache.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<CacheSet>,
    hits: u64,
    misses: u64,
    /// Cached geometry: `config.sets()`, so the per-access address split
    /// does not re-derive it (two divisions) on the hot path.
    set_count: u32,
    /// `log2(line_size)` when the line size is a power of two.
    line_shift: Option<u32>,
    /// `log2(set_count)` when the set count is a power of two.
    set_shift: Option<u32>,
}

impl Cache {
    /// Builds an empty (cold) cache.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = (0..config.sets())
            .map(|_| CacheSet {
                lines: Vec::with_capacity(config.ways as usize),
            })
            .collect();
        let set_count = config.sets();
        Cache {
            sets,
            hits: 0,
            misses: 0,
            set_count,
            line_shift: config
                .line_size
                .is_power_of_two()
                .then(|| config.line_size.trailing_zeros()),
            set_shift: set_count
                .is_power_of_two()
                .then(|| set_count.trailing_zeros()),
            config,
        }
    }

    #[inline]
    fn index_and_tag(&self, addr: u32) -> (usize, u32) {
        // All modeled geometries are powers of two, turning the address
        // split into shifts/masks; odd geometries fall back to division.
        let line = match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.config.line_size,
        };
        match self.set_shift {
            Some(shift) => ((line & (self.set_count - 1)) as usize, line >> shift),
            None => ((line % self.set_count) as usize, line / self.set_count),
        }
    }

    /// Performs an access, updating LRU state and allocating on miss.
    pub fn access(&mut self, addr: u32) -> CacheAccess {
        let ways = self.config.ways as usize;
        let (index, tag) = self.index_and_tag(addr);
        let set = &mut self.sets[index];
        if let Some(pos) = set.lines.iter().position(|&t| t == tag) {
            // Hot path: sequential code and warm data hit the MRU line
            // almost every access, so only rotate when the hit is not
            // already at the front.
            if pos != 0 {
                set.lines[..=pos].rotate_right(1);
            }
            self.hits += 1;
            CacheAccess {
                hit: true,
                penalty: 0,
            }
        } else {
            set.lines.insert(0, tag);
            set.lines.truncate(ways);
            self.misses += 1;
            CacheAccess {
                hit: false,
                penalty: self.config.miss_penalty,
            }
        }
    }

    /// Checks residency without touching LRU state or counters.
    pub fn probe(&self, addr: u32) -> bool {
        let (index, tag) = self.index_and_tag(addr);
        self.sets[index].lines.contains(&tag)
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidates all lines but keeps counters.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.lines.clear();
        }
    }

    /// Returns `(hits, misses)` accumulated since the last drain and
    /// zeroes both counters. Line state is untouched, so draining never
    /// perturbs timing — it only re-bases the counts, which is how the
    /// campaign arena discards the warm-up accesses inherited by each
    /// worker's template clone before attributing counts to traces.
    pub fn drain_counts(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.hits),
            std::mem::take(&mut self.misses),
        )
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }
}

/// The two-level cache hierarchy in front of main memory.
#[derive(Clone, Debug, Default)]
pub struct CacheHierarchy {
    /// L1 (instruction or data, one instance each).
    pub l1: Option<Cache>,
    /// Shared L2 (the same instance is referenced from the I and D sides
    /// in `Cpu`, approximated here as private halves; the Allwinner A20's
    /// L2 is large enough that partitioning does not change benchmark
    /// behaviour).
    pub l2: Option<Cache>,
    /// Memory latency applied when the last level misses.
    pub memory_latency: u64,
}

impl CacheHierarchy {
    /// Builds a hierarchy from optional level configs.
    pub fn new(
        l1: Option<CacheConfig>,
        l2: Option<CacheConfig>,
        memory_latency: u64,
    ) -> CacheHierarchy {
        CacheHierarchy {
            l1: l1.map(Cache::new),
            l2: l2.map(Cache::new),
            memory_latency,
        }
    }

    /// Total extra latency for an access at `addr` (0 when everything
    /// hits or no caches are configured — the ideal-memory case).
    #[inline]
    pub fn access(&mut self, addr: u32) -> u64 {
        let Some(l1) = &mut self.l1 else { return 0 };
        let a1 = l1.access(addr);
        if a1.hit {
            return 0;
        }
        let mut penalty = a1.penalty;
        match &mut self.l2 {
            Some(l2) => {
                let a2 = l2.access(addr);
                if !a2.hit {
                    penalty += a2.penalty + self.memory_latency;
                }
            }
            None => penalty += self.memory_latency,
        }
        penalty
    }

    /// Invalidates every level.
    pub fn flush(&mut self) {
        if let Some(l1) = &mut self.l1 {
            l1.flush();
        }
        if let Some(l2) = &mut self.l2 {
            l2.flush();
        }
    }

    /// Drains both levels' counters: `((l1_hits, l1_misses),
    /// (l2_hits, l2_misses))`, zeros when a level is absent.
    pub fn drain_counts(&mut self) -> ((u64, u64), (u64, u64)) {
        (
            self.l1.as_mut().map_or((0, 0), Cache::drain_counts),
            self.l2.as_mut().map_or((0, 0), Cache::drain_counts),
        )
    }
}

/// Hit/miss counts across a CPU's cache instances, drained by
/// [`crate::Cpu::drain_cache_counts`]. The I- and D-side L2 halves (see
/// [`CacheHierarchy::l2`]) are summed into one L2 figure.
///
/// These are *work* counts: for a warmed, constant-address-trace
/// workload they are a pure function of the instruction stream, so the
/// campaign telemetry asserts they are byte-identical across thread and
/// lane counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// L1 instruction-cache hits.
    pub l1i_hits: u64,
    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// L1 data-cache hits.
    pub l1d_hits: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// L2 hits (I- and D-side halves summed).
    pub l2_hits: u64,
    /// L2 misses (I- and D-side halves summed).
    pub l2_misses: u64,
}

impl CacheCounts {
    /// Folds `other` into `self`.
    pub fn accumulate(&mut self, other: &CacheCounts) {
        self.l1i_hits += other.l1i_hits;
        self.l1i_misses += other.l1i_misses;
        self.l1d_hits += other.l1d_hits;
        self.l1d_misses += other.l1d_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
    }

    /// Whether every count is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == CacheCounts::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        // 4 sets x 2 ways x 16-byte lines = 128 bytes.
        CacheConfig {
            capacity: 128,
            ways: 2,
            line_size: 16,
            miss_penalty: 10,
        }
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut cache = Cache::new(tiny());
        assert!(!cache.access(0x40).hit);
        assert!(cache.access(0x40).hit);
        assert!(cache.access(0x4c).hit, "same line");
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut cache = Cache::new(tiny());
        // Set 0 holds lines whose (addr/16) % 4 == 0: 0x000, 0x040, 0x080...
        cache.access(0x000);
        cache.access(0x040);
        // Touch 0x000 so 0x040 becomes LRU.
        cache.access(0x000);
        // Third distinct line in the set evicts 0x040.
        cache.access(0x080);
        assert!(cache.probe(0x000));
        assert!(!cache.probe(0x040));
        assert!(cache.probe(0x080));
    }

    #[test]
    fn warming_makes_runs_deterministic() {
        let mut cache = Cache::new(tiny());
        let addrs = [0x00u32, 0x10, 0x20, 0x30];
        for &a in &addrs {
            cache.access(a);
        }
        let misses_after_warm = cache.misses();
        for _ in 0..3 {
            for &a in &addrs {
                assert!(cache.access(a).hit);
            }
        }
        assert_eq!(cache.misses(), misses_after_warm);
    }

    #[test]
    fn hierarchy_accumulates_penalties() {
        let mut h = CacheHierarchy::new(
            Some(tiny()),
            Some(CacheConfig {
                capacity: 256,
                ways: 2,
                line_size: 16,
                miss_penalty: 20,
            }),
            100,
        );
        // Cold: L1 miss + L2 miss + memory.
        assert_eq!(h.access(0x40), 10 + 20 + 100);
        // Warm: free.
        assert_eq!(h.access(0x40), 0);
        h.flush();
        assert_eq!(h.access(0x40), 130);
    }

    #[test]
    fn no_caches_means_zero_latency() {
        let mut h = CacheHierarchy::new(None, None, 100);
        assert_eq!(h.access(0x1234), 0);
    }

    #[test]
    fn l1_only_hierarchy() {
        let mut h = CacheHierarchy::new(Some(tiny()), None, 50);
        assert_eq!(h.access(0x40), 60);
        assert_eq!(h.access(0x40), 0);
    }
}
