//! Simulate once, analyze many: `TargetCampaign::cpa` runs one campaign
//! over the union of its models' windows. Every verdict must be
//! bit-identical to a campaign for that model alone, on every portfolio
//! target.

use sca_power::GaussianNoise;
use sca_target::{portfolio, TargetCampaign, TargetCampaignConfig};
use sca_uarch::UarchConfig;

fn config(salt: u64) -> TargetCampaignConfig {
    TargetCampaignConfig {
        traces: 24,
        executions_per_trace: 2,
        seed: 0xdac_2018 ^ (salt << 24),
        threads: 2,
        batch: 7,
        noise: GaussianNoise {
            sd: 2.0,
            baseline: 30.0,
        },
        ..TargetCampaignConfig::default()
    }
}

#[test]
fn shared_campaign_matches_one_campaign_per_model() {
    for (i, target) in portfolio().iter().enumerate() {
        let target = target.as_ref();
        let campaign = TargetCampaign::new(target, &UarchConfig::cortex_a7(), config(i as u64 + 1))
            .expect("target builds");
        let models = target.models();
        let shared = campaign.cpa(&models).expect("shared campaign runs");
        assert_eq!(shared.len(), models.len(), "[{}]", target.name());
        for (model, together) in models.iter().zip(&shared) {
            let alone = campaign
                .cpa(std::slice::from_ref(model))
                .expect("single-model campaign runs")
                .remove(0);
            let fields = |v: &sca_target::CpaVerdict| {
                (
                    v.model.clone(),
                    v.recovered,
                    v.rank,
                    v.peak.to_bits(),
                    v.best_wrong.to_bits(),
                    v.window_cycles,
                )
            };
            assert_eq!(
                fields(together),
                fields(&alone),
                "[{}] {}",
                target.name(),
                model.name
            );
        }
        // No models, no campaign. (This binary's only test, so nothing
        // else moves the process-global counter meanwhile.)
        let runs = sca_power::simulator_runs();
        assert!(campaign.cpa(&[]).expect("nothing to run").is_empty());
        assert_eq!(sca_power::simulator_runs(), runs, "[{}]", target.name());
    }
}
