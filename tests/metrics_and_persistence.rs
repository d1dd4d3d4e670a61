//! Integration tests for the extension features: full-key recovery,
//! rank-evolution metrics, and trace persistence — the acquire-once,
//! analyze-many workflow a downstream evaluator would actually run.

use rand::Rng;

use superscalar_sca::aes::{recover_full_key, AesSim, SubBytesHw};
use superscalar_sca::analysis::{rank_evolution, traces_to_rank0};
use superscalar_sca::campaign::{Campaign, CampaignConfig};
use superscalar_sca::power::{GaussianNoise, LeakageWeights, SamplingConfig};
use superscalar_sca::prelude::TraceSet;
use superscalar_sca::uarch::UarchConfig;

const KEY: [u8; 16] = *b"\xde\xad\xbe\xef\x01\x23\x45\x67\x89\xab\xcd\xef\x10\x32\x54\x76";

fn acquire(traces: usize) -> TraceSet {
    let sim = AesSim::new(UarchConfig::cortex_a7().with_ideal_memory(), &KEY).expect("builds");
    let config = CampaignConfig {
        executions_per_trace: 1,
        sampling: SamplingConfig::per_cycle(),
        noise: GaussianNoise {
            sd: 2.0,
            baseline: 10.0,
        },
        seed: 31,
        threads: 4,
        ..CampaignConfig::new(traces)
    };
    Campaign::new(LeakageWeights::cortex_a7(), config)
        .with_window(0, 380)
        .run(
            sim.cpu(),
            sim.entry(),
            |rng, _| {
                let mut pt = vec![0u8; 16];
                rng.fill(&mut pt[..]);
                pt
            },
            AesSim::stage_plaintext,
            TraceSet::new,
        )
        .expect("acquires")
}

#[test]
fn acquire_save_load_attack_pipeline() {
    let traces = acquire(300);
    // Persist and reload — the attack must not notice.
    let path = std::env::temp_dir().join("superscalar_sca_integration.traces");
    traces.save(&path).expect("saves");
    let reloaded = TraceSet::load(&path).expect("loads");
    let _ = std::fs::remove_file(&path);
    assert_eq!(reloaded.len(), traces.len());

    let recovered = recover_full_key(&reloaded, 4);
    assert_eq!(
        recovered.key,
        KEY,
        "{}/16 bytes recovered from reloaded traces",
        recovered.correct_bytes(&KEY)
    );
}

#[test]
fn rank_evolution_converges_on_simulated_aes() {
    let traces = acquire(300);
    let curve = rank_evolution(
        &traces,
        &SubBytesHw { byte: 0 },
        KEY[0],
        &[50, 100, 200, 300],
    );
    assert_eq!(curve.len(), 4);
    let final_point = curve.last().expect("nonempty");
    assert_eq!(final_point.rank, 0, "300 clean traces must reach rank 0");
    assert!(final_point.correct_peak > final_point.best_wrong_peak);
    let needed = traces_to_rank0(&curve).expect("attack converges");
    assert!(needed <= 300);
}
