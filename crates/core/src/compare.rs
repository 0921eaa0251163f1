//! Paired campaign comparison: quantify how much a fault degrades the
//! system relative to a baseline, with bootstrap confidence on the
//! difference.
//!
//! AVFI "provides methods for statistical analysis of traffic violations";
//! this module implements the paired design its campaigns enable: because
//! runs are seeded, the *same* missions can be driven under two fault
//! plans, and per-mission differences cancel scenario difficulty.

use crate::campaign::{CampaignResult, RunResult};
use crate::metrics;
use crate::stats::bootstrap_mean_ci;
use serde::{Deserialize, Serialize};

/// Paired comparison of one metric between a baseline and a treatment
/// campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairedComparison {
    /// Metric name.
    pub metric: String,
    /// Baseline fault label.
    pub baseline: String,
    /// Treatment fault label.
    pub treatment: String,
    /// Number of paired runs.
    pub n: usize,
    /// Mean of (treatment − baseline) per paired run.
    pub mean_delta: f64,
    /// Bootstrap 95% CI on the mean delta.
    pub ci95: (f64, f64),
}

impl PairedComparison {
    /// `true` when the 95% CI excludes zero (the fault effect is
    /// statistically distinguishable at that level).
    pub fn is_significant(&self) -> bool {
        self.ci95.0 > 0.0 || self.ci95.1 < 0.0
    }
}

fn paired_deltas(
    baseline: &CampaignResult,
    treatment: &CampaignResult,
    metric: impl Fn(&RunResult) -> f64,
) -> Vec<f64> {
    baseline
        .runs()
        .iter()
        .zip(treatment.runs())
        .filter(|(b, t)| b.seed == t.seed)
        .map(|(b, t)| metric(t) - metric(b))
        .collect()
}

/// Compares violations-per-km between two campaigns run on the same seeds.
///
/// # Panics
///
/// Panics if the campaigns share no seeds (they were not paired).
pub fn compare_vpk(baseline: &CampaignResult, treatment: &CampaignResult) -> PairedComparison {
    compare_metric("VPK", baseline, treatment, metrics::violations_per_km)
}

/// Compares accidents-per-km between two paired campaigns.
///
/// # Panics
///
/// Panics if the campaigns share no seeds.
pub fn compare_apk(baseline: &CampaignResult, treatment: &CampaignResult) -> PairedComparison {
    compare_metric("APK", baseline, treatment, metrics::accidents_per_km)
}

/// Compares mission success (0/1 per run) between two paired campaigns;
/// `mean_delta` is the success-probability difference.
///
/// # Panics
///
/// Panics if the campaigns share no seeds.
pub fn compare_success(baseline: &CampaignResult, treatment: &CampaignResult) -> PairedComparison {
    compare_metric("success", baseline, treatment, |r| {
        if r.outcome.is_success() {
            1.0
        } else {
            0.0
        }
    })
}

/// Generic paired comparison of a per-run metric.
///
/// # Panics
///
/// Panics if the campaigns share no seeds.
pub fn compare_metric(
    name: &str,
    baseline: &CampaignResult,
    treatment: &CampaignResult,
    metric: impl Fn(&RunResult) -> f64,
) -> PairedComparison {
    let deltas = paired_deltas(baseline, treatment, metric);
    assert!(
        !deltas.is_empty(),
        "campaigns are not paired (no shared seeds)"
    );
    let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
    let ci = bootstrap_mean_ci(&deltas, 2000, 0.95, 0xC0FFEE);
    PairedComparison {
        metric: name.to_string(),
        baseline: baseline.fault.clone(),
        treatment: treatment.fault.clone(),
        n: deltas.len(),
        mean_delta: mean,
        ci95: ci,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{AgentSpec, CampaignConfig};
    use crate::engine::Engine;
    use crate::fault::timing::TimingFault;
    use crate::fault::FaultSpec;
    use avfi_sim::scenario::{Scenario, TownSpec};

    fn campaign(fault: FaultSpec) -> CampaignResult {
        let mut town = TownSpec::grid(2, 2);
        town.signalized = false;
        let scenario = Scenario::builder(town)
            .seed(5)
            .npc_vehicles(0)
            .pedestrians(0)
            .time_budget(30.0)
            .min_route_length(60.0)
            .build();
        Engine::new().run_campaign(
            CampaignConfig::builder(vec![scenario])
                .runs_per_scenario(4)
                .fault(fault)
                .agent(AgentSpec::Expert)
                .build(),
        )
    }

    #[test]
    fn identical_campaigns_have_zero_delta() {
        let a = campaign(FaultSpec::None);
        let b = campaign(FaultSpec::None);
        let cmp = compare_vpk(&a, &b);
        assert_eq!(cmp.n, 4);
        assert_eq!(cmp.mean_delta, 0.0);
        assert!(!cmp.is_significant());
    }

    #[test]
    fn severe_delay_shows_positive_vpk_delta() {
        let base = campaign(FaultSpec::None);
        let hurt = campaign(FaultSpec::Timing(TimingFault::OutputDelay { frames: 30 }));
        let cmp = compare_vpk(&base, &hurt);
        assert!(cmp.mean_delta > 0.0, "delta={}", cmp.mean_delta);
        let s = compare_success(&base, &hurt);
        assert!(s.mean_delta <= 0.0);
    }

    #[test]
    #[should_panic(expected = "not paired")]
    fn unpaired_campaigns_rejected() {
        let a = campaign(FaultSpec::None);
        let mut b = campaign(FaultSpec::None);
        // Forge different seeds.
        let runs = b.runs().to_vec();
        let _ = runs;
        // Easiest unpaired case: compare against a campaign built from a
        // different scenario seed.
        let mut town = TownSpec::grid(2, 2);
        town.signalized = false;
        let other = Engine::new().run_campaign(
            CampaignConfig::builder(vec![Scenario::builder(town)
                .seed(999)
                .npc_vehicles(0)
                .pedestrians(0)
                .time_budget(10.0)
                .min_route_length(60.0)
                .build()])
            .runs_per_scenario(2)
            .agent(AgentSpec::Expert)
            .build(),
        );
        b = other;
        let _ = compare_vpk(&a, &b);
    }
}
