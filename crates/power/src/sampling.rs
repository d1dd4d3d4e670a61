//! Oscilloscope sampling model.
//!
//! The paper samples a 120 MHz core with a Picoscope 5203 at 500 MS/s —
//! about 4.17 samples per clock cycle. Each cycle's switching activity is
//! a current pulse that the probe chain low-pass filters; this module
//! expands a per-cycle power series into a sample series by convolving
//! with a decaying pulse kernel.

use serde::{Deserialize, Serialize};

/// Sampling-chain configuration.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SamplingConfig {
    /// Oscilloscope samples per core clock cycle.
    pub samples_per_cycle: f64,
    /// Pulse shape: relative amplitude at successive samples after the
    /// cycle's switching instant. Normalized internally.
    pub kernel: Vec<f64>,
}

impl SamplingConfig {
    /// 500 MS/s against a 120 MHz clock, with an empirically-shaped
    /// current pulse decaying over roughly one cycle.
    pub fn picoscope_500msps_120mhz() -> SamplingConfig {
        SamplingConfig {
            samples_per_cycle: 500.0 / 120.0,
            kernel: vec![1.0, 0.75, 0.45, 0.2, 0.08],
        }
    }

    /// One sample per cycle, identity kernel — keeps sample indices equal
    /// to cycle indices (convenient in unit tests and audits).
    pub fn per_cycle() -> SamplingConfig {
        SamplingConfig {
            samples_per_cycle: 1.0,
            kernel: vec![1.0],
        }
    }

    /// Number of samples produced for a given cycle count.
    pub fn sample_count(&self, cycles: usize) -> usize {
        // The epsilon keeps exact ratios (500/120 × 120) from rounding up.
        (cycles as f64 * self.samples_per_cycle - 1e-9)
            .ceil()
            .max(0.0) as usize
    }

    /// Expands per-cycle power into a sample series.
    ///
    /// Sample `s` receives contributions from every cycle `c` whose pulse
    /// (starting at sample `c * samples_per_cycle`) covers `s`.
    pub fn expand(&self, cycle_power: &[f64]) -> Vec<f64> {
        let mut samples = Vec::new();
        self.expand_into(cycle_power, &mut samples);
        samples
    }

    /// Allocation-free variant of [`SamplingConfig::expand`]: clears
    /// `out` and fills it with the expanded sample series, reusing its
    /// capacity — bit-identical to `expand` (same accumulation order).
    pub fn expand_into(&self, cycle_power: &[f64], out: &mut Vec<f64>) {
        let samples = self.sample_count(cycle_power.len());
        self.expand_window_into(cycle_power, 0, (0, samples), out);
    }

    /// Expands cycles into samples `lo..hi` of the series only, in
    /// window coordinates: `out` is cleared and filled with `hi - lo`
    /// samples. `cycle_power[i]` is the power of cycle
    /// `first_cycle + i`; it must hold every cycle whose pulse reaches
    /// the window ([`SamplingConfig::cycles_reaching`]), and `hi` must
    /// not pass the series' [`SamplingConfig::sample_count`].
    ///
    /// Each window sample is bit-identical to the same sample of
    /// [`SamplingConfig::expand`]: it receives the same per-cycle
    /// contributions in the same order. This is the per-execution path
    /// of trace synthesis, which expands only what a campaign keeps.
    pub fn expand_window_into(
        &self,
        cycle_power: &[f64],
        first_cycle: usize,
        (lo, hi): (usize, usize),
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(hi - lo, 0.0);
        let norm: f64 = self.kernel.iter().sum::<f64>().max(f64::MIN_POSITIVE);
        for (c, &p) in (first_cycle..).zip(cycle_power) {
            if p == 0.0 {
                continue;
            }
            let start = c as f64 * self.samples_per_cycle;
            let first = start.floor() as usize;
            // Linear placement: fractional starting position splits the
            // kernel between adjacent samples.
            let frac = start - start.floor();
            for (k, &amp) in self.kernel.iter().enumerate() {
                let contribution = p * amp / norm;
                let idx = first + k;
                if idx >= lo && idx < hi {
                    out[idx - lo] += contribution * (1.0 - frac);
                }
                if idx + 1 >= lo && idx + 1 < hi {
                    out[idx + 1 - lo] += contribution * frac;
                }
            }
        }
    }

    /// The cycles `[start, end)` whose pulses reach samples
    /// `[lo, hi)`: cycle `c`'s pulse covers samples `floor(c · spc)`
    /// through `floor(c · spc) + kernel.len()`. An unbounded window
    /// (`hi == usize::MAX`) reaches every cycle from `start` on.
    pub fn cycles_reaching(&self, (lo, hi): (usize, usize)) -> (usize, usize) {
        let spc = self.samples_per_cycle;
        if lo >= hi {
            return (0, 0);
        }
        if spc <= 0.0 || spc.is_nan() {
            // A degenerate rate: keep every cycle.
            return (0, usize::MAX);
        }
        let first = |c: usize| (c as f64 * spc).floor() as usize;
        // The first cycle whose pulse starts at or after `sample`
        // (`first` is non-decreasing): estimate, then settle exactly.
        let first_at = |sample: usize| {
            let mut c = (sample as f64 / spc) as usize;
            while c > 0 && first(c - 1) >= sample {
                c -= 1;
            }
            while first(c) < sample {
                c += 1;
            }
            c
        };
        let start = first_at(lo.saturating_sub(self.kernel.len()));
        let end = if hi == usize::MAX {
            usize::MAX
        } else {
            first_at(hi)
        };
        (start, end)
    }

    /// Maps a cycle offset (within a window) to its nominal sample index.
    pub fn sample_of_cycle(&self, cycle: usize) -> usize {
        (cycle as f64 * self.samples_per_cycle).floor() as usize
    }

    /// Converts a `(start, len)` cycle window into the `(start, len)`
    /// sample window that covers it: end-exclusive rounding via
    /// [`cycle_window_to_samples`], so fractional sampling rates keep
    /// the tail sample instead of truncating it.
    pub fn window_to_samples(&self, start_cycle: u64, len_cycles: u64) -> (usize, usize) {
        cycle_window_to_samples(self.samples_per_cycle, start_cycle, len_cycles)
    }
}

/// Converts a `(start, len)` cycle window into an end-exclusive sample
/// window at `samples_per_cycle` samples per cycle: the start rounds
/// *down* and the end (`start + len`, exclusive) rounds *up*, so every
/// sample touched by the window's cycles is covered. Truncating
/// `len * samples_per_cycle` instead — the historical bug — silently
/// dropped the final sample whenever the rate is fractional, and read a
/// window *end* as if it were a length.
///
/// The epsilons mirror [`SamplingConfig::sample_count`]: exact products
/// (e.g. 120 cycles × 500/120) stay exact instead of picking up a
/// spurious extra sample.
///
/// ```
/// use sca_power::cycle_window_to_samples;
///
/// // Integer rate: cycle windows map 1:1.
/// assert_eq!(cycle_window_to_samples(1.0, 3, 4), (3, 4));
/// // Fractional rate: the window [1, 2) in cycles covers samples 4..9.
/// let (start, len) = cycle_window_to_samples(500.0 / 120.0, 1, 1);
/// assert_eq!((start, len), (4, 5));
/// ```
pub fn cycle_window_to_samples(
    samples_per_cycle: f64,
    start_cycle: u64,
    len_cycles: u64,
) -> (usize, usize) {
    let start = (start_cycle as f64 * samples_per_cycle + 1e-9)
        .floor()
        .max(0.0) as usize;
    let end_cycle = start_cycle + len_cycles;
    let end = (end_cycle as f64 * samples_per_cycle - 1e-9)
        .ceil()
        .max(0.0) as usize;
    (start, end.saturating_sub(start))
}

impl Default for SamplingConfig {
    fn default() -> SamplingConfig {
        SamplingConfig::picoscope_500msps_120mhz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_cycle_is_identity() {
        let cfg = SamplingConfig::per_cycle();
        let out = cfg.expand(&[1.0, 2.0, 3.0]);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn energy_is_preserved_up_to_truncation() {
        let cfg = SamplingConfig::picoscope_500msps_120mhz();
        let cycles = vec![4.0; 50];
        let out = cfg.expand(&cycles);
        let in_energy: f64 = cycles.iter().sum();
        let out_energy: f64 = out.iter().sum();
        // The tail of the last kernel may be truncated; allow 5%.
        assert!(
            (out_energy - in_energy).abs() / in_energy < 0.05,
            "in {in_energy} out {out_energy}"
        );
    }

    #[test]
    fn sample_count_scales() {
        let cfg = SamplingConfig::picoscope_500msps_120mhz();
        assert_eq!(cfg.sample_count(120), 500);
        assert_eq!(cfg.sample_of_cycle(120), 500);
    }

    #[test]
    fn expand_into_matches_expand_and_reuses_capacity() {
        let cfg = SamplingConfig::picoscope_500msps_120mhz();
        let cycles: Vec<f64> = (0..40).map(|c| (c % 7) as f64).collect();
        let reference = cfg.expand(&cycles);
        let mut out = vec![0.0; 1000]; // stale, oversized
        cfg.expand_into(&cycles, &mut out);
        assert_eq!(out, reference);
        let capacity = out.capacity();
        cfg.expand_into(&cycles, &mut out);
        assert_eq!(out.capacity(), capacity, "no reallocation on reuse");
    }

    /// Regression for the sample-window truncation bug: at a fractional
    /// rate, truncating `len * samples_per_cycle` dropped the tail
    /// sample of the window. End-exclusive rounding must cover every
    /// sample the window's cycles touch.
    #[test]
    fn fractional_rate_windows_keep_the_tail_sample() {
        let spc = 500.0 / 120.0; // ≈ 4.1667 samples per cycle
        for start_cycle in 0u64..30 {
            for len_cycles in 1u64..30 {
                let (start, len) = cycle_window_to_samples(spc, start_cycle, len_cycles);
                let end_exact = (start_cycle + len_cycles) as f64 * spc;
                assert!(
                    (start + len) as f64 >= end_exact - 1e-6,
                    "window ({start_cycle}, {len_cycles}) truncated: \
                     samples ({start}, {len}) vs exact end {end_exact}"
                );
                assert!(start as f64 <= start_cycle as f64 * spc + 1e-6);
                // The old truncating conversion loses the tail at
                // non-integer products.
                let old_len = (len_cycles as f64 * spc) as usize;
                assert!(len >= old_len, "end-exclusive rounding never shrinks");
            }
        }
        // The concrete case from the issue: one mid-stream cycle.
        assert_eq!(cycle_window_to_samples(spc, 1, 1), (4, 5));
        assert_eq!((1.0 * spc) as usize, 4, "old truncation gave 4 samples");
    }

    #[test]
    fn integer_rate_windows_are_identity() {
        for start in 0u64..10 {
            for len in 0u64..10 {
                assert_eq!(
                    cycle_window_to_samples(1.0, start, len),
                    (start as usize, len as usize)
                );
            }
        }
        // Exact products stay exact at the paper's fractional rate.
        let cfg = SamplingConfig::picoscope_500msps_120mhz();
        assert_eq!(cfg.window_to_samples(0, 120), (0, 500));
    }

    #[test]
    fn windows_match_the_whole_expansion_from_the_cycles_reaching_them() {
        let cfg = SamplingConfig::picoscope_500msps_120mhz();
        let cycles: Vec<f64> = (0..60).map(|c| ((c * 7) % 11) as f64).collect();
        let whole = cfg.expand(&cycles);
        let n = whole.len();
        let mut out = Vec::new();
        for window in [
            (0, 1),
            (0, 40),
            (17, 18),
            (100, 180),
            (n - 9, n),
            (0, n),
            (30, 30),
        ] {
            let (start, end) = cfg.cycles_reaching(window);
            let end = end.min(cycles.len());
            cfg.expand_window_into(&cycles[start..end], start, window, &mut out);
            assert_eq!(out, &whole[window.0..window.1], "window {window:?}");
            // Every cycle outside the range leaves the window untouched.
            for c in (0..start).chain(end..cycles.len()) {
                let mut lone = vec![0.0; cycles.len()];
                lone[c] = 1.0;
                let spread = cfg.expand(&lone);
                assert!(
                    spread[window.0..window.1].iter().all(|&s| s == 0.0),
                    "cycle {c} reaches window {window:?}"
                );
            }
        }
        assert_eq!(cfg.cycles_reaching((5, usize::MAX)).1, usize::MAX);
    }

    #[test]
    fn pulse_spreads_forward_only() {
        let cfg = SamplingConfig {
            samples_per_cycle: 4.0,
            kernel: vec![1.0, 0.5],
        };
        let out = cfg.expand(&[0.0, 3.0, 0.0]);
        // Cycle 1 starts at sample 4.
        assert_eq!(out[0], 0.0);
        assert!(out[4] > 0.0);
        assert!(out[5] > 0.0);
        assert_eq!(out[2], 0.0);
        let total: f64 = out.iter().sum();
        assert!((total - 3.0).abs() < 1e-9);
    }
}
