//! Measurement noise.
//!
//! Side-channel acquisitions carry random noise (thermal/amplifier) and
//! systematic components. The synthesizer adds white Gaussian noise per
//! raw execution — averaging the 16 executions of one trace then improves
//! SNR by √16, exactly as in the paper's acquisition protocol — plus an
//! optional external noise source (the OS/second-core model from
//! `sca-osnoise` plugs in through [`NoiseSource`]).

use rand::rngs::{Jump, StdRng};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A pluggable additive noise source (e.g. co-resident workload power).
pub trait NoiseSource: Send {
    /// Adds this source's contribution to a sample series in place.
    fn add_to(&mut self, rng: &mut StdRng, samples: &mut [f64]);
}

/// White Gaussian measurement noise plus a constant baseline.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct GaussianNoise {
    /// Standard deviation, in the same unit as node switching power.
    pub sd: f64,
    /// Constant baseline offset (static power; irrelevant to CPA but kept
    /// for realistic-looking traces).
    pub baseline: f64,
}

impl GaussianNoise {
    /// A bare-metal-quality acquisition: moderate noise.
    pub fn bare_metal() -> GaussianNoise {
        GaussianNoise {
            sd: 12.0,
            baseline: 40.0,
        }
    }

    /// An ideal noiseless probe (unit tests and audits).
    pub fn none() -> GaussianNoise {
        GaussianNoise {
            sd: 0.0,
            baseline: 0.0,
        }
    }

    /// Samples one Gaussian value via Box–Muller (keeps us independent of
    /// `rand_distr`, which is outside the approved dependency set).
    fn sample(&self, rng: &mut StdRng) -> f64 {
        if self.sd == 0.0 {
            return 0.0;
        }
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        z * self.sd
    }
}

impl GaussianNoise {
    /// Noises the `window` of a longer sample series exactly as
    /// [`NoiseSource::add_to`] over the whole series would:
    /// `(before, after)` samples precede and follow the window. Each
    /// sample costs two RNG draws whenever `sd != 0`, so the draws of
    /// the samples outside the window are skipped with exact
    /// [`rand::rngs::Jump`]s (cached per distance in `skips`): the
    /// window's values and the RNG's final position are bit-identical to
    /// the whole-series path. Only the window is ever materialized.
    ///
    /// This is the campaign fast path: a windowed campaign keeps a few
    /// hundred of the ~12k samples of a full AES execution. Callers that
    /// post-process whole traces (e.g. the OS-noise jitter, which shifts
    /// samples *into* the window) pass the whole series as the window.
    pub(crate) fn add_to_window(
        &self,
        rng: &mut StdRng,
        window: &mut [f64],
        (before, after): (usize, usize),
        skips: &mut NoiseSkips,
    ) {
        if self.sd == 0.0 {
            // No draws at all: nothing to skip.
            for s in window.iter_mut() {
                *s += self.baseline;
            }
            return;
        }
        skips.skip(rng, before);
        for s in window.iter_mut() {
            *s += self.baseline + self.sample(rng);
        }
        skips.skip(rng, after);
    }
}

/// The [`Jump`]s a worker skips noise samples with, one per distance.
/// A campaign skips the same few distances — the samples before and
/// after its window — execution after execution, so each jump
/// polynomial is computed once and reused.
#[derive(Clone, Debug, Default)]
pub(crate) struct NoiseSkips(Vec<Jump>);

impl NoiseSkips {
    /// Distinct distances kept before the cache starts over.
    const CAPACITY: usize = 8;

    /// Advances `rng` past the draws of `samples` noise samples.
    fn skip(&mut self, rng: &mut StdRng, samples: usize) {
        if samples == 0 {
            return;
        }
        // `sample` makes two draws: `gen_range` and `gen`.
        let steps = 2 * samples as u64;
        let index = match self.0.iter().position(|jump| jump.steps() == steps) {
            Some(index) => index,
            None => {
                if self.0.len() == Self::CAPACITY {
                    self.0.clear();
                }
                self.0.push(Jump::new(steps));
                self.0.len() - 1
            }
        };
        rng.jump(&self.0[index]);
    }
}

impl NoiseSource for GaussianNoise {
    fn add_to(&mut self, rng: &mut StdRng, samples: &mut [f64]) {
        for s in samples.iter_mut() {
            *s += self.baseline + self.sample(rng);
        }
    }
}

impl Default for GaussianNoise {
    fn default() -> GaussianNoise {
        GaussianNoise::bare_metal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zero_noise_only_shifts_baseline() {
        let mut noise = GaussianNoise {
            sd: 0.0,
            baseline: 5.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut samples = vec![1.0, 2.0];
        noise.add_to(&mut rng, &mut samples);
        assert_eq!(samples, vec![6.0, 7.0]);
    }

    #[test]
    fn gaussian_statistics_are_plausible() {
        let mut noise = GaussianNoise {
            sd: 3.0,
            baseline: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(42);
        let mut samples = vec![0.0; 20_000];
        noise.add_to(&mut rng, &mut samples);
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let var: f64 =
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.1, "sd {}", var.sqrt());
    }

    /// Noises `len` samples with [`GaussianNoise::add_to_window`],
    /// keeping `[start, end)`; returns the window.
    fn windowed(
        noise: GaussianNoise,
        rng: &mut StdRng,
        skips: &mut NoiseSkips,
        len: usize,
        (start, end): (usize, usize),
    ) -> Vec<f64> {
        let mut window = vec![0.0f64; end - start];
        noise.add_to_window(rng, &mut window, (start, len - end), skips);
        window
    }

    #[test]
    fn clipped_noise_is_bit_identical_inside_the_window() {
        let mut noise = GaussianNoise {
            sd: 4.0,
            baseline: 7.0,
        };
        let mut full = vec![0.0f64; 64];
        noise.add_to(&mut StdRng::seed_from_u64(99), &mut full);
        let mut skips = NoiseSkips::default();
        // Middle, either end, one sample, empty and whole windows.
        for window in [(20, 40), (0, 3), (61, 64), (0, 64), (33, 34), (50, 50)] {
            let mut rng = StdRng::seed_from_u64(99);
            let got = windowed(noise, &mut rng, &mut skips, 64, window);
            assert_eq!(got, &full[window.0..window.1], "window {window:?}");
            // The RNG ends where the whole-series pass leaves it.
            let mut whole = StdRng::seed_from_u64(99);
            noise.add_to(&mut whole, &mut vec![0.0; 64]);
            assert_eq!(rng.gen::<u64>(), whole.gen::<u64>(), "window {window:?}");
        }
    }

    #[test]
    fn consecutive_windows_stay_aligned_across_executions() {
        // Three executions of one trace draw from one stream, as the
        // synthesizer's executions do; lengths vary like pipeline drain.
        let mut noise = GaussianNoise {
            sd: 2.5,
            baseline: 1.0,
        };
        let executions = [(80, (10, 30)), (80, (10, 30)), (81, (0, 5))];
        let mut whole_rng = StdRng::seed_from_u64(0xe4ec);
        let mut rng = StdRng::seed_from_u64(0xe4ec);
        let mut skips = NoiseSkips::default();
        for (e, &(len, window)) in executions.iter().enumerate() {
            let mut full = vec![0.0f64; len];
            noise.add_to(&mut whole_rng, &mut full);
            let got = windowed(noise, &mut rng, &mut skips, len, window);
            assert_eq!(got, &full[window.0..window.1], "execution {e}");
        }
        assert_eq!(rng.gen::<u64>(), whole_rng.gen::<u64>());
    }

    #[test]
    fn clipped_noise_with_zero_sd_draws_nothing() {
        let noise = GaussianNoise {
            sd: 0.0,
            baseline: 2.0,
        };
        let mut a = StdRng::seed_from_u64(5);
        let mut skips = NoiseSkips::default();
        assert_eq!(
            windowed(noise, &mut a, &mut skips, 8, (2, 4)),
            vec![2.0, 2.0]
        );
        // sd == 0 consumes no randomness, so there is nothing to jump.
        assert!(skips.0.is_empty(), "no jump computed");
        let mut b = StdRng::seed_from_u64(5);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn determinism_with_same_seed() {
        let run = || {
            let mut noise = GaussianNoise {
                sd: 1.0,
                baseline: 0.0,
            };
            let mut rng = StdRng::seed_from_u64(7);
            let mut samples = vec![0.0; 8];
            noise.add_to(&mut rng, &mut samples);
            samples
        };
        assert_eq!(run(), run());
    }
}
