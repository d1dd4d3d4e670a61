//! Host speed, measured with a fixed kernel timed between units of work.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by a fifth and more over minutes, with no steal time to show for it:
//! the cores themselves run slower. A run's raw walls therefore say as
//! much about when it ran as about the program. The kernel below is the
//! benchmark's own code, fixed for good, so no change to the program
//! moves it; its time just before and just after a unit says how fast
//! the host was while the unit ran, and the unit's wall scaled by that
//! speed reads much the same whenever it ran.
//!
//! The kernel mixes the kinds of work the workloads do: a branchy
//! integer walk over an L1-sized table (the pipeline model's control), the
//! same walk over an L2-sized table (its caches and arenas), and a
//! floating-point multiply-add sweep (trace synthesis and absorb). Each
//! part takes about 20 ms on the reference host, long enough that the
//! host's millisecond jitter averages out.

use std::hint::black_box;
use std::time::Instant;

/// Words of the small and the large table of the integer walk: 4 KiB
/// and 256 KiB.
const SMALL_WORDS: usize = 1 << 9;
const LARGE_WORDS: usize = 1 << 15;

/// Dependent steps of each integer walk.
const WALK_STEPS: usize = 1 << 21;

/// Length of the floating-point vectors, and sweeps over them.
const SWEEP_LEN: usize = 1 << 14;
const SWEEPS: usize = 1 << 10;

/// The kernel's seconds on the reference host (2 vCPUs of an
/// `Intel(R) Xeon(R) Processor`, 2 threads). A unit's `*_ref_s` figures
/// are its raw figures at that host's speed.
pub const REFERENCE_S: f64 = 0.06;

/// A dependent walk over a table of `words` words (a power of two) with
/// data-dependent branches and stores.
fn walk(seed: u64, words: usize) -> u64 {
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut table: Vec<u64> = (0..words).map(|_| next()).collect();
    let mut acc = 0u64;
    for step in 0..WALK_STEPS {
        let r = next();
        let j = (r ^ acc) as usize & (words - 1);
        let v = table[j];
        acc = if v & 1 == 0 {
            acc.wrapping_add(v.rotate_left(step as u32 & 63))
        } else {
            acc.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ r
        };
        table[j] = v ^ acc;
    }
    acc
}

/// Multiply-add sweeps over two vectors, with a running dot product.
fn sweep(seed: u64) -> u64 {
    let mut a: Vec<f64> = (0..SWEEP_LEN)
        .map(|i| (i as f64 + seed as f64).sin())
        .collect();
    let b: Vec<f64> = (0..SWEEP_LEN).map(|i| (i as f64 * 0.5).cos()).collect();
    let mut dot = 0.0;
    for round in 0..SWEEPS {
        let k = 1.0 + round as f64 * 1e-9;
        for (x, y) in a.iter_mut().zip(&b) {
            *x = *x * k + y;
            dot += *x * y;
        }
    }
    dot.to_bits()
}

/// The kernel on one thread.
fn kernel(seed: u64) -> u64 {
    walk(seed, SMALL_WORDS) ^ walk(seed, LARGE_WORDS) ^ sweep(seed)
}

/// Seconds of one kernel call on each of `threads` threads at once (the
/// threads the workload itself uses).
pub fn calibrate(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads.max(1) {
            scope.spawn(move || black_box(kernel(black_box(t as u64 + 1))));
        }
    });
    start.elapsed().as_secs_f64()
}

/// The host's speed relative to the reference host, from the kernel
/// times just before and just after a unit: above 1 is faster.
pub fn speed(before_s: f64, after_s: f64) -> f64 {
    REFERENCE_S / ((before_s + after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_relative_to_the_reference() {
        assert_eq!(speed(REFERENCE_S, REFERENCE_S), 1.0);
        assert_eq!(speed(REFERENCE_S * 2.0, REFERENCE_S * 2.0), 0.5);
        assert_eq!(kernel(7), kernel(7));
    }
}
