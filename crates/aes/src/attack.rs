//! Full-key recovery orchestration.
//!
//! The paper demonstrates single-byte CPA; a practical attacker chains it
//! over the whole key. This module implements the chaining strategy that
//! matches the implementation's store schedule: SubBytes processes the
//! state in byte *pairs* (lookup two, store two back-to-back), so
//!
//! * even bytes are recovered independently with the Hamming-weight model
//!   ([`SubBytesHw`], the Figure 3 model), and
//! * odd bytes are recovered with the consecutive-stores Hamming-distance
//!   model ([`SubBytesStoreHd`], the Figure 4 model), seeded with the
//!   even byte recovered just before.

use sca_analysis::{cpa_attack, CpaConfig, TraceSet};

use crate::{SubBytesHw, SubBytesStoreHd};

/// Outcome of a full-key recovery.
#[derive(Clone, Debug)]
pub struct RecoveredKey {
    /// The 16 recovered key bytes.
    pub key: [u8; 16],
    /// Rank-0 confirmation margin per byte: peak |corr| of the winner
    /// minus peak |corr| of the runner-up.
    pub margins: [f64; 16],
}

impl RecoveredKey {
    /// Number of bytes matching a reference key.
    pub fn correct_bytes(&self, reference: &[u8; 16]) -> usize {
        self.key
            .iter()
            .zip(reference)
            .filter(|(a, b)| a == b)
            .count()
    }
}

/// Recovers all sixteen key bytes from one trace set.
///
/// Runs sixteen CPA attacks: HW-model for even state bytes, chained
/// HD-store-model for odd bytes. The traces should cover the round-1
/// SubBytes (e.g. `TraceSet::truncated` to the first round).
pub fn recover_full_key(traces: &TraceSet, threads: usize) -> RecoveredKey {
    let config = CpaConfig {
        guesses: 256,
        threads,
    };
    let mut key = [0u8; 16];
    let mut margins = [0.0f64; 16];
    for byte in 0..16 {
        let result = if byte % 2 == 0 {
            cpa_attack(traces, &SubBytesHw { byte }, &config)
        } else {
            cpa_attack(
                traces,
                &SubBytesStoreHd {
                    byte,
                    prev_key: key[byte - 1],
                },
                &config,
            )
        };
        let ranking = result.ranking();
        let winner = ranking[0];
        let runner_up = ranking[1];
        key[byte] = winner as u8;
        margins[byte] = result.peak(winner).1.abs() - result.peak(runner_up).1.abs();
    }
    RecoveredKey { key, margins }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AesSim;
    use rand::Rng;
    use sca_campaign::{Campaign, CampaignConfig};
    use sca_power::{GaussianNoise, LeakageWeights, SamplingConfig, TraceSet};
    use sca_uarch::UarchConfig;

    #[test]
    fn recovers_every_byte_of_the_key() {
        let key = *b"\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f";
        let sim = AesSim::new(UarchConfig::cortex_a7().with_ideal_memory(), &key).expect("builds");
        let config = CampaignConfig {
            executions_per_trace: 1,
            sampling: SamplingConfig::per_cycle(),
            noise: GaussianNoise {
                sd: 2.0,
                baseline: 10.0,
            },
            seed: 5,
            threads: 4,
            ..CampaignConfig::new(300)
        };
        let traces = Campaign::new(LeakageWeights::cortex_a7(), config)
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
            .expect("acquires");
        let recovered = recover_full_key(&traces, 4);
        assert_eq!(
            recovered.key,
            key,
            "full key recovery ({}/16 bytes correct)",
            recovered.correct_bytes(&key)
        );
        assert!(recovered.margins.iter().all(|&m| m > 0.0));
    }
}
