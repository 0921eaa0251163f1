//! Resilience metrics from §II of the paper: MSR, VPK, APK, TTV.

use crate::campaign::RunResult;

/// Floor on per-run distance when normalizing to per-km rates, km. A car
/// that never moved has no exposure; rates below this floor would explode.
pub const MIN_KM: f64 = 0.05;

/// Mission Success Rate: the percentage of runs that completed their
/// navigation mission in the allotted time. Higher is more resilient.
pub fn mission_success_rate(runs: &[RunResult]) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    100.0 * runs.iter().filter(|r| r.outcome.is_success()).count() as f64 / runs.len() as f64
}

/// Traffic Violations Per Kilometer for one run. Lower is more resilient.
pub fn violations_per_km(run: &RunResult) -> f64 {
    run.violations.len() as f64 / run.distance_km.max(MIN_KM)
}

/// Accidents (collision violations) Per Kilometer for one run.
pub fn accidents_per_km(run: &RunResult) -> f64 {
    let accidents = run
        .violations
        .iter()
        .filter(|v| v.kind.is_accident())
        .count();
    accidents as f64 / run.distance_km.max(MIN_KM)
}

/// Per-run VPK distribution across a campaign.
pub fn vpk_distribution(runs: &[RunResult]) -> Vec<f64> {
    runs.iter().map(violations_per_km).collect()
}

/// Per-run APK distribution across a campaign.
pub fn apk_distribution(runs: &[RunResult]) -> Vec<f64> {
    runs.iter().map(accidents_per_km).collect()
}

/// Campaign-aggregate VPK: total violations over total kilometers (the
/// "per fault injection campaign" definition in §II).
pub fn aggregate_vpk(runs: &[RunResult]) -> f64 {
    let violations: usize = runs.iter().map(|r| r.violations.len()).sum();
    let km: f64 = runs.iter().map(|r| r.distance_km).sum();
    violations as f64 / km.max(MIN_KM)
}

/// Campaign-aggregate APK.
pub fn aggregate_apk(runs: &[RunResult]) -> f64 {
    let accidents: usize = runs
        .iter()
        .flat_map(|r| &r.violations)
        .filter(|v| v.kind.is_accident())
        .count();
    let km: f64 = runs.iter().map(|r| r.distance_km).sum();
    accidents as f64 / km.max(MIN_KM)
}

/// Time to Traffic Violation for one run: seconds from the first injection
/// to the first violation occurring at or after it. `None` when nothing
/// was injected or no violation followed. Higher means the system has more
/// time to detect and correct its state.
pub fn time_to_violation(run: &RunResult) -> Option<f64> {
    let t0 = run.injection_time?;
    run.violations
        .iter()
        .filter(|v| v.time >= t0 - 1e-9)
        .map(|v| v.time - t0)
        .fold(None, |best, t| match best {
            Some(b) if b <= t => Some(b),
            _ => Some(t),
        })
}

/// TTV distribution across a campaign (runs with a post-injection
/// violation only).
pub fn ttv_distribution(runs: &[RunResult]) -> Vec<f64> {
    runs.iter().filter_map(time_to_violation).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::MissionOutcome;
    use avfi_sim::math::Vec2;
    use avfi_sim::violation::{Violation, ViolationKind};

    fn run(success: bool, km: f64, violations: Vec<Violation>, inj: Option<f64>) -> RunResult {
        RunResult {
            fault: "test".into(),
            agent: "expert".into(),
            scenario_index: 0,
            run_index: 0,
            seed: 0,
            outcome: if success {
                MissionOutcome::Success { time: 10.0 }
            } else {
                MissionOutcome::Timeout
            },
            duration: 60.0,
            distance_km: km,
            violations,
            injection_time: inj,
        }
    }

    fn violation(kind: ViolationKind, time: f64) -> Violation {
        Violation {
            kind,
            time,
            frame: (time * 15.0) as u64,
            position: Vec2::ZERO,
            odometer: 0.0,
        }
    }

    #[test]
    fn msr_counts_successes() {
        let runs = vec![
            run(true, 0.5, vec![], None),
            run(false, 0.5, vec![], None),
            run(true, 0.5, vec![], None),
            run(true, 0.5, vec![], None),
        ];
        assert_eq!(mission_success_rate(&runs), 75.0);
        assert_eq!(mission_success_rate(&[]), 0.0);
    }

    #[test]
    fn vpk_and_apk() {
        let r = run(
            true,
            2.0,
            vec![
                violation(ViolationKind::LaneDeparture, 1.0),
                violation(ViolationKind::CollisionVehicle, 2.0),
                violation(ViolationKind::Speeding, 3.0),
            ],
            None,
        );
        assert_eq!(violations_per_km(&r), 1.5);
        assert_eq!(accidents_per_km(&r), 0.5);
    }

    #[test]
    fn vpk_guard_against_zero_distance() {
        let r = run(
            false,
            0.0,
            vec![violation(ViolationKind::OffRoad, 1.0)],
            None,
        );
        assert!(violations_per_km(&r) <= 1.0 / MIN_KM);
    }

    #[test]
    fn aggregate_pools_distance() {
        let runs = vec![
            run(
                true,
                1.0,
                vec![violation(ViolationKind::Speeding, 1.0)],
                None,
            ),
            run(true, 3.0, vec![], None),
        ];
        assert_eq!(aggregate_vpk(&runs), 0.25);
        assert_eq!(aggregate_apk(&runs), 0.0);
    }

    #[test]
    fn ttv_first_violation_after_injection() {
        let r = run(
            false,
            1.0,
            vec![
                violation(ViolationKind::Speeding, 2.0), // before injection
                violation(ViolationKind::OffRoad, 7.5),
                violation(ViolationKind::CurbDriving, 9.0),
            ],
            Some(5.0),
        );
        assert_eq!(time_to_violation(&r), Some(2.5));
    }

    #[test]
    fn ttv_none_cases() {
        let no_inj = run(
            true,
            1.0,
            vec![violation(ViolationKind::OffRoad, 1.0)],
            None,
        );
        assert_eq!(time_to_violation(&no_inj), None);
        let no_viol = run(true, 1.0, vec![], Some(3.0));
        assert_eq!(time_to_violation(&no_viol), None);
        let all_before = run(
            true,
            1.0,
            vec![violation(ViolationKind::OffRoad, 1.0)],
            Some(3.0),
        );
        assert_eq!(time_to_violation(&all_before), None);
    }
}
