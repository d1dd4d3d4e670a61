//! The composite Linux environment model.
//!
//! Combines the three effects that separate the paper's Figure 4 from its
//! Figure 3: additive second-core workload power (Apache under HTTPerf at
//! 1000 requests/s), occasional preemption of the victim process, and
//! per-execution trigger jitter. Plugs into
//! `sca_campaign::Campaign::run_with` as the post-processing
//! hook.

use rand::rngs::StdRng;

use sca_power::SamplingConfig;
use sca_uarch::UarchError;

use crate::{PreemptionModel, TraceJitter, WorkloadProfile};

/// A full operating-system noise environment.
#[derive(Clone, Debug)]
pub struct LinuxEnvironment {
    /// Second-core workload mixed into every execution.
    pub workload: Option<WorkloadProfile>,
    /// Scheduler preemption model.
    pub preemption: PreemptionModel,
    /// Trigger/clock jitter.
    pub jitter: TraceJitter,
}

impl LinuxEnvironment {
    /// No OS at all — bare metal, as in Sections 3–4 of the paper.
    pub fn bare_metal() -> LinuxEnvironment {
        LinuxEnvironment {
            workload: None,
            preemption: PreemptionModel::none(),
            jitter: TraceJitter::none(),
        }
    }

    /// An idle Ubuntu: background GUI activity, light preemption.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults while profiling the workload.
    pub fn idle_linux(sampling: &SamplingConfig) -> Result<LinuxEnvironment, UarchError> {
        Ok(LinuxEnvironment {
            workload: Some(WorkloadProfile::idle_like(sampling)?.with_gain(0.5)),
            preemption: PreemptionModel {
                probability: 0.02,
                min_slice: 20,
                max_slice: 100,
                foreign_power: 15.0,
            },
            jitter: TraceJitter { max_shift: 1 },
        })
    }

    /// The paper's Figure 4 environment: Apache serving 1000 requests/s
    /// with both cores at full load, GUI running, no affinity/priority for
    /// the victim.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults while profiling the workload.
    pub fn loaded_apache(sampling: &SamplingConfig) -> Result<LinuxEnvironment, UarchError> {
        Ok(LinuxEnvironment {
            // Both cores at full load: the second core's switching power
            // rides the shared rail at full amplitude.
            workload: Some(WorkloadProfile::apache_like(sampling)?.with_gain(2.0)),
            preemption: PreemptionModel::loaded(),
            jitter: TraceJitter { max_shift: 2 },
        })
    }

    /// Applies the environment to one execution's samples — pass this to
    /// `sca_campaign::Campaign::run_with` as the `post` hook:
    ///
    /// ```no_run
    /// # use sca_campaign::Campaign;
    /// # use sca_power::{SamplingConfig, TraceSet};
    /// # use sca_osnoise::LinuxEnvironment;
    /// # fn demo(campaign: &Campaign, cpu: &sca_uarch::Cpu) -> Result<(), Box<dyn std::error::Error>> {
    /// let env = LinuxEnvironment::loaded_apache(&SamplingConfig::default())?;
    /// let traces = campaign.run_with(
    ///     cpu,
    ///     0,
    ///     |rng, _| { use rand::Rng; vec![rng.gen::<u8>(); 16] },
    ///     |cpu, input| { /* stage input */ },
    ///     |rng, samples| env.apply(rng, samples),
    ///     TraceSet::new,
    /// )?;
    /// # Ok(()) }
    /// ```
    pub fn apply(&self, rng: &mut StdRng, samples: &mut Vec<f64>) {
        if let Some(workload) = &self.workload {
            workload.add_window(rng, samples);
        }
        self.preemption.apply(rng, samples);
        self.jitter.apply(rng, samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn bare_metal_is_identity() {
        let env = LinuxEnvironment::bare_metal();
        let mut rng = StdRng::seed_from_u64(1);
        let mut samples = vec![1.0, 2.0, 3.0];
        env.apply(&mut rng, &mut samples);
        assert_eq!(samples, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn loaded_environment_raises_power_and_variance() {
        let sampling = SamplingConfig::per_cycle();
        let env = LinuxEnvironment::loaded_apache(&sampling).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut mean_delta = 0.0;
        const RUNS: usize = 50;
        for _ in 0..RUNS {
            let mut samples = vec![0.0; 200];
            env.apply(&mut rng, &mut samples);
            mean_delta += samples.iter().sum::<f64>() / samples.len() as f64;
        }
        mean_delta /= RUNS as f64;
        assert!(mean_delta > 1.0, "added mean power {mean_delta}");
    }

    #[test]
    fn idle_is_quieter_than_loaded() {
        let sampling = SamplingConfig::per_cycle();
        let idle = LinuxEnvironment::idle_linux(&sampling).unwrap();
        let loaded = LinuxEnvironment::loaded_apache(&sampling).unwrap();
        let mean_added = |env: &LinuxEnvironment, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut total = 0.0;
            for _ in 0..30 {
                let mut samples = vec![0.0; 300];
                env.apply(&mut rng, &mut samples);
                total += samples.iter().sum::<f64>();
            }
            total
        };
        assert!(mean_added(&idle, 3) < mean_added(&loaded, 3));
    }

    #[test]
    fn environment_is_deterministic_per_seed() {
        let sampling = SamplingConfig::per_cycle();
        let env = LinuxEnvironment::loaded_apache(&sampling).unwrap();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut samples = vec![1.0; 64];
            env.apply(&mut rng, &mut samples);
            samples
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
