//! How many traces does the attack need? The measurement-to-disclosure
//! curve for both of the paper's models, computed in one streaming pass.
//!
//! Run with: `cargo run --release --example trace_count_study`

use superscalar_sca::analysis::{rank_evolution, traces_to_rank0};
use superscalar_sca::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let key = *b"\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c";
    let sim = AesSim::new(UarchConfig::cortex_a7(), &key)?;

    let config = CampaignConfig {
        executions_per_trace: 2,
        sampling: SamplingConfig::picoscope_500msps_120mhz(),
        noise: GaussianNoise {
            sd: 10.0,
            baseline: 40.0,
        },
        seed: 21,
        threads: 8,
        ..CampaignConfig::new(2400)
    };
    let traces = Campaign::new(LeakageWeights::cortex_a7(), config)
        .with_window(0, 1600)
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

    let checkpoints = [50, 100, 200, 400, 800, 1600, 2400];
    for (name, curve) in [
        (
            "HW(SubBytes out)        [Figure 3 model]",
            rank_evolution(&traces, &SubBytesHw { byte: 0 }, key[0], &checkpoints),
        ),
        (
            "HD(consecutive stores)  [Figure 4 model]",
            rank_evolution(
                &traces,
                &SubBytesStoreHd {
                    byte: 1,
                    prev_key: key[0],
                },
                key[1],
                &checkpoints,
            ),
        ),
    ] {
        println!("model: {name}");
        println!(
            "{:>8} {:>6} {:>14} {:>14}",
            "traces", "rank", "correct peak", "best wrong"
        );
        for point in &curve {
            println!(
                "{:>8} {:>6} {:>14.4} {:>14.4}",
                point.traces, point.rank, point.correct_peak, point.best_wrong_peak
            );
        }
        match traces_to_rank0(&curve) {
            Some(n) => println!("-> stable rank 0 from {n} traces\n"),
            None => println!("-> rank 0 not reached within this budget\n"),
        }
    }
    Ok(())
}
