//! The Figure 4 scenario in miniature: attack AES running as a userspace
//! process on a loaded Linux system — Apache at 1000 requests/s on the
//! other core, scheduler preemption, trigger jitter — using the
//! microarchitecture-aware consecutive-stores model.
//!
//! Run with: `cargo run --release --example os_noise_attack`

use superscalar_sca::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let key = *b"\xa0\xa1\xa2\xa3\xa4\xa5\xa6\xa7\xa8\xa9\xaa\xab\xac\xad\xae\xaf";
    let sim = AesSim::new(UarchConfig::cortex_a7(), &key)?;

    let sampling = SamplingConfig::picoscope_500msps_120mhz();
    let environment = LinuxEnvironment::loaded_apache(&sampling)?;
    println!("environment: Apache-like workload on core 2, preemptive scheduler, trigger jitter");

    let config = CampaignConfig {
        executions_per_trace: 16, // the paper's averaging factor
        sampling,
        noise: GaussianNoise::bare_metal(),
        seed: 7,
        threads: 8,
        // The paper needs 100k traces in this environment; the simulated
        // rail is kinder, but the loaded-system campaign still wants a
        // few thousand.
        ..CampaignConfig::new(3000)
    };
    // Keep the SubBytes region (the byte-1 store lands ~sample 200); a
    // narrow window keeps the wrong-guess noise floor low, exactly as
    // the paper's 0.7 us Figure 4 span does.
    let traces = Campaign::new(LeakageWeights::cortex_a7(), config)
        .with_window(100, 600)
        .run_with(
            sim.cpu(),
            sim.entry(),
            |rng, _| {
                use rand::Rng;
                let mut pt = vec![0u8; 16];
                rng.fill(&mut pt[..]);
                pt
            },
            AesSim::stage_plaintext,
            |rng, samples| environment.apply(rng, samples),
            TraceSet::new,
        )?;
    println!(
        "acquired {} traces (each an average of 16 executions)\n",
        traces.len()
    );

    // Chained attack: byte 0 is assumed already recovered (e.g. from a
    // quieter phase); byte 1 falls to the HD-between-stores model.
    let model = SubBytesStoreHd {
        byte: 1,
        prev_key: key[0],
    };
    let result = cpa_attack(&traces, &model, &CpaConfig::key_byte());
    let guess = result.best_guess() as u8;
    let (_, corr) = result.peak(usize::from(guess));
    let confidence = result.success_confidence(usize::from(key[1]));

    println!("recovered byte 1: 0x{guess:02x} (true 0x{:02x})", key[1]);
    println!(
        "peak correlation {corr:+.3}; rank of true key: {}",
        result.rank_of(usize::from(key[1]))
    );
    println!("distinguishing confidence {:.1}%", confidence * 100.0);
    println!(
        "\nthe microarchitecture-aware model survives an environment where both cores are busy \
         and the victim is an ordinary, unpinned process"
    );
    Ok(())
}
