//! The acceptance-critical portfolio attacks at test scale: the
//! microarchitecture-aware HD model must recover the targeted key byte
//! (rank 0) for the two new, unprotected cipher families, through the
//! fully generic `TargetCampaign` path.

use sca_power::GaussianNoise;
use sca_target::{
    CipherTarget, ModelKind, PresentTarget, SpeckTarget, TargetCampaign, TargetCampaignConfig,
};
use sca_uarch::UarchConfig;

fn quick_config() -> TargetCampaignConfig {
    TargetCampaignConfig {
        traces: 200,
        executions_per_trace: 2,
        threads: 4,
        noise: GaussianNoise {
            sd: 2.0,
            baseline: 30.0,
        },
        ..TargetCampaignConfig::default()
    }
}

fn assert_hd_recovers(target: &dyn CipherTarget) {
    let campaign = TargetCampaign::new(target, &UarchConfig::cortex_a7(), quick_config())
        .expect("target builds");
    let models = target.models();
    let hd = models
        .iter()
        .find(|m| m.kind == ModelKind::TransitionHd)
        .expect("target has an HD model");
    let verdict = campaign
        .cpa(std::slice::from_ref(hd))
        .expect("campaign runs")
        .remove(0);
    assert!(
        verdict.success(),
        "[{}] {} (peak {:.4}, best wrong {:.4})",
        target.name(),
        verdict.verdict(),
        verdict.peak,
        verdict.best_wrong,
    );
}

#[test]
fn speck_hd_model_recovers_the_key_byte() {
    assert_hd_recovers(&SpeckTarget::default());
}

#[test]
fn present_hd_model_recovers_the_key_byte() {
    assert_hd_recovers(&PresentTarget::default());
}
