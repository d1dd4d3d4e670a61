//! End-to-end CPA attack against the AES-128 implementation running on
//! the simulated superscalar CPU (the paper's Section 5 validation).
//!
//! Recovers two key bytes: the first with the microarchitecture-unaware
//! Hamming-weight model (Figure 3 style), the second with the
//! microarchitecture-aware consecutive-stores model (Figure 4 style),
//! chained off the first.
//!
//! Run with: `cargo run --release --example attack_aes`

use superscalar_sca::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let key = *b"\x13\x37\xc0\xde\xca\xfe\xba\xbe\x00\x11\x22\x33\x44\x55\x66\x77";
    println!("victim key (pretend we don't know it): {key:02x?}\n");

    // Build the victim: AES-128 on the simulated Cortex-A7, caches warm.
    let sim = AesSim::new(UarchConfig::cortex_a7(), &key)?;

    // Acquire 800 averaged traces with random plaintexts — the attacker
    // controls/observes plaintexts and the power probe only. Only
    // round 1 is kept (the first ~1500 samples cover ARK+SB).
    let config = CampaignConfig {
        executions_per_trace: 4,
        sampling: SamplingConfig::picoscope_500msps_120mhz(),
        noise: GaussianNoise {
            sd: 6.0,
            baseline: 40.0,
        },
        seed: 1,
        threads: 8,
        ..CampaignConfig::new(800)
    };
    let traces = Campaign::new(LeakageWeights::cortex_a7(), config)
        .with_window(0, 1500)
        .run(
            sim.cpu(),
            sim.entry(),
            |rng, _| {
                use rand::Rng;
                let mut pt = vec![0u8; 16];
                rng.fill(&mut pt[..]);
                pt
            },
            AesSim::stage_plaintext,
            TraceSet::new,
        )?;
    println!(
        "acquired {} traces x {} samples\n",
        traces.len(),
        traces.samples_per_trace()
    );

    // Step 1: recover key byte 0 with HW(SubBytes out) — no
    // microarchitectural knowledge needed.
    let hw_model = SubBytesHw { byte: 0 };
    let result = cpa_attack(&traces, &hw_model, &CpaConfig::key_byte());
    let k0 = result.best_guess() as u8;
    let (sample, corr) = result.peak(usize::from(k0));
    println!(
        "byte 0 via HW(SubBytes): guess 0x{k0:02x} (true 0x{:02x}) — corr {corr:+.3} at sample {sample}",
        key[0]
    );
    assert_eq!(k0, key[0], "attack should recover byte 0");

    // Step 2: recover key byte 1 with the microarchitecture-aware model:
    // HD between the two consecutively stored SubBytes outputs — the
    // MDR/align-buffer leak the paper characterizes in Table 2.
    let hd_model = SubBytesStoreHd {
        byte: 1,
        prev_key: k0,
    };
    let result = cpa_attack(&traces, &hd_model, &CpaConfig::key_byte());
    let k1 = result.best_guess() as u8;
    let (sample, corr) = result.peak(usize::from(k1));
    println!(
        "byte 1 via HD(stores):   guess 0x{k1:02x} (true 0x{:02x}) — corr {corr:+.3} at sample {sample}",
        key[1]
    );
    assert_eq!(k1, key[1], "attack should recover byte 1");

    println!("\nboth key bytes recovered; chaining over the remaining bytes works the same way");
    Ok(())
}
