//! Integration reproduction of the Section 5 attacks (Figures 3 and 4)
//! at test scale: low-noise campaigns small enough for debug builds,
//! asserting the qualitative results — key recovery, leakage
//! localization, and the microarchitecture-aware model's survival under
//! OS noise. Full-noise campaigns run through the `sca-bench` binaries.

use rand::Rng;

use superscalar_sca::aes::{AesSim, SubBytesHw, SubBytesStoreHd};
use superscalar_sca::analysis::{cpa_attack, CpaConfig};
use superscalar_sca::campaign::{Campaign, CampaignConfig};
use superscalar_sca::osnoise::LinuxEnvironment;
use superscalar_sca::power::{GaussianNoise, LeakageWeights, SamplingConfig};
use superscalar_sca::prelude::TraceSet;
use superscalar_sca::uarch::UarchConfig;

const KEY: [u8; 16] = *b"\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c";

fn acquire(traces: usize, noisy_os: bool, seed: u64) -> TraceSet {
    let sim = AesSim::new(UarchConfig::cortex_a7().with_ideal_memory(), &KEY).expect("builds");
    let sampling = SamplingConfig::per_cycle();
    let config = CampaignConfig {
        executions_per_trace: 1,
        sampling: sampling.clone(),
        noise: GaussianNoise {
            sd: 2.0,
            baseline: 10.0,
        },
        seed,
        threads: 4,
        ..CampaignConfig::new(traces)
    };
    // Round 1 only (per-cycle sampling: ~350 cycles).
    let campaign = Campaign::new(LeakageWeights::cortex_a7(), config).with_window(0, 380);
    let generate = |rng: &mut rand::rngs::StdRng, _| {
        let mut pt = vec![0u8; 16];
        rng.fill(&mut pt[..]);
        pt
    };
    if noisy_os {
        let environment = LinuxEnvironment::idle_linux(&sampling).expect("environment");
        campaign
            .run_with(
                sim.cpu(),
                sim.entry(),
                generate,
                AesSim::stage_plaintext,
                |rng, s| environment.apply(rng, s),
                TraceSet::new,
            )
            .expect("acquires")
    } else {
        campaign
            .run(
                sim.cpu(),
                sim.entry(),
                generate,
                AesSim::stage_plaintext,
                TraceSet::new,
            )
            .expect("acquires")
    }
}

#[test]
fn figure3_style_attack_recovers_key_byte() {
    let traces = acquire(250, false, 11);
    let model = SubBytesHw { byte: 0 };
    let result = cpa_attack(
        &traces,
        &model,
        &CpaConfig {
            guesses: 256,
            threads: 4,
        },
    );
    assert_eq!(
        result.best_guess() as u8,
        KEY[0],
        "rank: {}",
        result.rank_of(usize::from(KEY[0]))
    );
    // Leakage must be present well inside the round, not only at t=0.
    let (sample, corr) = result.peak(usize::from(KEY[0]));
    assert!(sample > 20, "leak localized at sample {sample}");
    assert!(corr.abs() > 0.2, "peak corr {corr}");
}

#[test]
fn figure4_style_attack_with_hd_store_model() {
    // OS jitter smears the single-sample leak instants, so this campaign
    // needs more traces than the bare-metal one.
    let traces = acquire(1000, true, 13);
    let model = SubBytesStoreHd {
        byte: 1,
        prev_key: KEY[0],
    };
    let result = cpa_attack(
        &traces,
        &model,
        &CpaConfig {
            guesses: 256,
            threads: 4,
        },
    );
    assert_eq!(
        result.best_guess() as u8,
        KEY[1],
        "rank: {}",
        result.rank_of(usize::from(KEY[1]))
    );
    // Rank-1 recovery is the core claim at this scale; the paper's >99%
    // distinguishing confidence is demonstrated by the full-scale
    // `figure4` bench binary.
    assert!(
        result.success_confidence(usize::from(KEY[1])) > 0.7,
        "confidence {}",
        result.success_confidence(usize::from(KEY[1]))
    );
}

#[test]
fn os_noise_reduces_correlation_amplitude() {
    // The paper's Figure 3 -> Figure 4 observation: same victim, noisy
    // environment, smaller correlation.
    let quiet = acquire(200, false, 17);
    let noisy = acquire(200, true, 17);
    let model = SubBytesStoreHd {
        byte: 1,
        prev_key: KEY[0],
    };
    let config = CpaConfig {
        guesses: 256,
        threads: 4,
    };
    let quiet_peak = cpa_attack(&quiet, &model, &config)
        .peak(usize::from(KEY[1]))
        .1
        .abs();
    let noisy_peak = cpa_attack(&noisy, &model, &config)
        .peak(usize::from(KEY[1]))
        .1
        .abs();
    assert!(
        noisy_peak < quiet_peak,
        "OS noise must reduce the amplitude: quiet {quiet_peak} vs noisy {noisy_peak}"
    );
}

#[test]
fn wrong_fixed_model_fails_where_right_model_succeeds() {
    // Sanity: a selection function built on the wrong intermediate (raw
    // plaintext byte instead of the SubBytes output) must not beat the
    // proper model's correct key.
    let traces = acquire(250, false, 19);
    let good = cpa_attack(
        &traces,
        &SubBytesHw { byte: 0 },
        &CpaConfig {
            guesses: 256,
            threads: 4,
        },
    );
    let good_peak = good.peak(usize::from(KEY[0])).1.abs();
    let bad_model =
        superscalar_sca::analysis::FnSelection::new("hw(pt^k)", |input: &[u8], k: u8| {
            f64::from((input[0] ^ k).count_ones())
        });
    let bad = cpa_attack(
        &traces,
        &bad_model,
        &CpaConfig {
            guesses: 256,
            threads: 4,
        },
    );
    let bad_peak = bad.peak(usize::from(KEY[0])).1.abs();
    assert!(
        good_peak > bad_peak,
        "nonlinear SubBytes model should dominate: {good_peak} vs {bad_peak}"
    );
}
