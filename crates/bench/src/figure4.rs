//! Figure 4: CPA against AES running as a userspace process on a loaded
//! Linux system.
//!
//! Apache serves 1000 requests/s on the second core, the GUI runs, the
//! victim has no affinity or priority. The attack switches to the
//! microarchitecture-*aware* model — the Hamming distance between two
//! consecutively stored SubBytes output bytes (the MDR/align-buffer leak
//! characterized in Table 2) — and succeeds on the order of a hundred
//! averaged traces despite a ~5x lower correlation amplitude.

use rand::Rng;

use sca_aes::{AesSim, SubBytesStoreHd};
use sca_analysis::SelectionFunction;
use sca_campaign::{Campaign, CampaignConfig, CorrSink, CpaSink};
use sca_osnoise::LinuxEnvironment;
use sca_power::{GaussianNoise, LeakageWeights, SamplingConfig};
use sca_target::check_charz_traces;
use sca_uarch::UarchConfig;

/// Figure 4 campaign parameters.
#[derive(Clone, Debug)]
pub struct Figure4Config {
    /// Number of averaged traces (the paper succeeds with 100).
    pub traces: usize,
    /// Executions averaged per trace (paper: 16).
    pub executions_per_trace: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Traces buffered per worker between accumulator updates.
    pub batch: usize,
    /// The AES key under attack.
    pub key: [u8; 16],
    /// Target byte (its predecessor's key byte is assumed recovered).
    pub target_byte: usize,
    /// Measurement noise (bare-metal probe chain by default; the OS
    /// environment adds its own on top).
    pub noise: GaussianNoise,
}

impl Default for Figure4Config {
    fn default() -> Figure4Config {
        Figure4Config {
            traces: 2500,
            executions_per_trace: 16,
            seed: 0xf1947,
            threads: 8,
            batch: sca_campaign::DEFAULT_BATCH,
            key: *b"\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c",
            target_byte: 1,
            noise: GaussianNoise::bare_metal(),
        }
    }
}

/// Figure 4 outputs.
#[derive(Clone, Debug)]
pub struct Figure4Result {
    /// Correlation of the correct key guess, per sample.
    pub series_correct: Vec<f64>,
    /// Per-sample maximum |correlation| over all wrong guesses.
    pub series_best_wrong: Vec<f64>,
    /// Recovered key byte.
    pub recovered: u8,
    /// True key byte.
    pub correct: u8,
    /// Confidence that the correct guess beats the best wrong one (the
    /// paper reports > 99%).
    pub success_confidence: f64,
    /// Peak |correlation| of the same model measured on bare metal (no
    /// OS, no co-resident load) — the reference the paper's ~5x
    /// amplitude reduction is relative to.
    pub bare_metal_peak: f64,
    /// Traces used.
    pub traces: usize,
}

impl Figure4Result {
    /// Whether the attack recovered the key byte.
    pub fn success(&self) -> bool {
        self.recovered == self.correct
    }

    /// Peak |correlation| of the correct key.
    pub fn peak(&self) -> f64 {
        self.series_correct
            .iter()
            .map(|c| c.abs())
            .fold(0.0, f64::max)
    }

    /// How much the OS environment reduced the correlation amplitude
    /// (the paper reports roughly 5x between Figures 3 and 4).
    pub fn amplitude_reduction(&self) -> f64 {
        if self.peak() <= 0.0 {
            f64::INFINITY
        } else {
            self.bare_metal_peak / self.peak()
        }
    }
}

/// Runs the Figure 4 experiment through the streaming campaign engine:
/// the loaded-Linux acquisition and the bare-metal reference are both
/// sharded campaigns whose traces fold straight into online accumulators
/// — no trace matrix is ever materialized.
///
/// # Errors
///
/// Propagates simulator faults; fewer than four traces fail with
/// [`sca_target::TargetError::TooFewObservations`] before any
/// simulation.
pub fn run_figure4(config: &Figure4Config) -> Result<Figure4Result, Box<dyn std::error::Error>> {
    check_charz_traces(config.traces)?;
    let sim = AesSim::new(UarchConfig::cortex_a7(), &config.key)?;
    let sampling = SamplingConfig::picoscope_500msps_120mhz();
    let environment = LinuxEnvironment::loaded_apache(&sampling)?;

    // Focus the analysis on the round-1 SubBytes region, as the paper's
    // 0.7 µs Figure 4 span does; a narrow window both localizes the
    // targeted stores and keeps the wrong-guess extreme-value floor low.
    let (window_start, window_len) = {
        let regions = crate::figure3::round1_regions(&sim)?;
        let sb = regions
            .iter()
            .find(|(name, _, _)| name == "SB")
            .map_or((40, 340), |&(_, s, e)| (s, e));
        let spc = 500.0 / 120.0;
        let start = (sb.0 as f64 * spc) as usize;
        let len = ((sb.1 - sb.0 + 24) as f64 * spc) as usize;
        (start.saturating_sub(8), len + 16)
    };

    let generate = |rng: &mut rand::rngs::StdRng, _| {
        let mut pt = vec![0u8; 16];
        rng.fill(&mut pt[..]);
        pt
    };
    let model = SubBytesStoreHd {
        byte: config.target_byte,
        prev_key: config.key[config.target_byte - 1],
    };

    // Bare-metal reference: same model, same window, quiet environment —
    // quantifies the amplitude the OS noise costs.
    let bare_metal_peak = {
        let quiet = Campaign::new(
            LeakageWeights::cortex_a7(),
            CampaignConfig {
                traces: 300,
                executions_per_trace: config.executions_per_trace,
                sampling: SamplingConfig::picoscope_500msps_120mhz(),
                noise: config.noise,
                seed: config.seed ^ 0xbabe,
                threads: config.threads,
                batch: config.batch,
            },
        )
        .with_window(window_start, window_len);
        let reference = quiet.run(
            sim.cpu(),
            sim.entry(),
            generate,
            AesSim::stage_plaintext,
            |samples| {
                CorrSink::new(
                    move |input: &[u8]| model.predict(input, config.key[config.target_byte]),
                    samples,
                )
            },
        )?;
        reference.peak()
    };

    let campaign = Campaign::new(
        LeakageWeights::cortex_a7(),
        CampaignConfig {
            traces: config.traces,
            executions_per_trace: config.executions_per_trace,
            sampling,
            noise: config.noise,
            seed: config.seed,
            threads: config.threads,
            batch: config.batch,
        },
    )
    .with_window(window_start, window_len);
    let sink = campaign.run_with(
        sim.cpu(),
        sim.entry(),
        generate,
        AesSim::stage_plaintext,
        |rng, samples| environment.apply(rng, samples),
        |samples| CpaSink::new(model, 256, samples),
    )?;
    let traces_used = sink.len() as usize;
    let result = sink.finish();

    let correct = config.key[config.target_byte];
    let series_correct = result.series(usize::from(correct)).to_vec();
    let mut series_best_wrong = vec![0.0f64; series_correct.len()];
    for guess in 0..256usize {
        if guess == usize::from(correct) {
            continue;
        }
        for (b, &r) in series_best_wrong.iter_mut().zip(result.series(guess)) {
            if r.abs() > *b {
                *b = r.abs();
            }
        }
    }

    Ok(Figure4Result {
        series_correct,
        series_best_wrong,
        recovered: result.best_guess() as u8,
        correct,
        success_confidence: result.success_confidence(usize::from(correct)),
        bare_metal_peak,
        traces: traces_used,
    })
}
