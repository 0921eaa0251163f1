//! Adaptive-vs-uniform gain at matched budget — the artifact stored as
//! `BENCH_pr8.json` at the repo root.
//!
//! Both searches spend the *same* total-run budget over the *same* arm
//! lattice (scenario × channel × magnitude × onset, the paper channel
//! set) with the same per-pull seed semantics and the same engine seam:
//!
//! * **uniform**: round-robin laps of the lattice — the exhaustive
//!   grid every `fig*`/`ext_*` campaign sweeps, just expressed as arm
//!   pulls;
//! * **adaptive**: the Thompson-sampling planner, batch after batch.
//!
//! The headline metric is failures-per-run; the acceptance gate is
//! adaptive ≥ 2× uniform. Emits one JSON record on stdout.
//!
//! The default subject is the **expert** agent: its failure landscape is
//! sparse and physically interpretable (stuck actuators, whole-second
//! output delay), which is the regime guided search is for. The IL
//! agent's landscape at this reproduction's fidelity is chaotic — on
//! 150 s missions nearly any input perturbation eventually diverges the
//! trajectory, so most of the lattice "fails" and no search strategy
//! can beat uniform (pass `--agent neural` to see that saturation).
//!
//! Usage: `cargo run --release -p avfi-bench --bin adaptive_gain --
//! [--budget N] [--batch N] [--seed S] [--workers N]
//! [--agent expert|neural] [--dump]`
//! (default budget = two lattice laps: lap one is where uniform ends,
//! lap two is the exploitation phase uniform cannot have; `--dump`
//! first probes every arm once, at run 0, and prints each outcome to
//! stderr — runs extra to the budget, which leave the record unchanged).

use avfi_bench::experiments::{adaptive_space, neural_agent, Scale};
use avfi_core::adaptive::{
    run_adaptive, run_uniform, AdaptiveConfig, AdaptiveOracle, EngineOracle, Proposal,
    UniformReport,
};
use avfi_core::campaign::AgentSpec;
use avfi_core::engine::Engine;
use avfi_server::cli::Args;
use serde::Serialize;

#[derive(Serialize)]
struct GainRecord {
    bench: &'static str,
    description: &'static str,
    lattice_arms: usize,
    budget: usize,
    batch: usize,
    seed: u64,
    uniform: UniformReport,
    adaptive: UniformReport,
    /// `None` (`null`) when uniform found no failure.
    gain: Option<f64>,
    gate_2x: bool,
    notes: &'static str,
}

fn main() {
    let mut args = Args::from_env();
    let budget: Option<usize> = args.value("--budget");
    let batch = args.value("--batch").unwrap_or(12);
    let seed = args.value("--seed").unwrap_or(2018);
    let workers = args.value("--workers").unwrap_or(0);
    let neural = match args.value::<String>("--agent").as_deref() {
        None | Some("expert") => false,
        Some("neural") => true,
        Some(other) => {
            args.refuse(format!("--agent {other:?}: expected expert or neural"));
            false
        }
    };
    let dump = args.flag("--dump");
    if budget == Some(0) || batch == 0 {
        args.refuse("--budget and --batch must be positive");
    }
    args.finish();

    // Two evaluation scenarios keep the bench tractable, but missions
    // run at the full 150 s budget: at the quick 90 s budget the IL
    // agent times out on most routes and the failure landscape
    // saturates, which would make *any* search look uniform.
    let space = adaptive_space(Scale {
        scenarios: 2,
        runs: 1,
        budget: 150.0,
    });
    let arms = space.arms().len();
    let budget = budget.unwrap_or(2 * arms);
    let agent = if neural {
        neural_agent()
    } else {
        AgentSpec::Expert
    };
    let engine = Engine::new().workers(workers);
    eprintln!("[adaptive-gain] lattice = {arms} arms, budget = {budget}, batch = {batch}");

    let mut uniform_oracle = EngineOracle::new(
        &engine,
        agent.clone(),
        space.scenarios.clone(),
        "gain-uniform",
    );
    if dump {
        // Print-only probe lap, extra to the matched budget below.
        let specs = space.arms();
        let probes: Vec<Proposal> = specs
            .iter()
            .map(|spec| Proposal {
                arm: spec.descriptor.index,
                scenario_index: spec.descriptor.scenario_index,
                run_index: 0,
                fault: spec.fault.clone(),
            })
            .collect();
        let observations = uniform_oracle.evaluate(&probes);
        for (spec, o) in specs.iter().zip(&observations) {
            let d = &spec.descriptor;
            eprintln!(
                "[dump] arm {:3} s{} {:18} mag {:.2} onset {:3}: {} {}",
                d.index,
                d.scenario_index,
                d.channel,
                d.magnitude,
                d.onset,
                if o.failed { "FAIL" } else { "ok" },
                o.class.as_deref().unwrap_or("-"),
            );
        }
    }
    let uniform = run_uniform(&space, budget, batch, &mut uniform_oracle);
    eprintln!(
        "[adaptive-gain] uniform: {} failures in {} runs ({:.3}/run)",
        uniform.failures, uniform.spent, uniform.failures_per_run
    );

    let config = AdaptiveConfig {
        budget,
        batch,
        seed,
    };
    let outcome = run_adaptive(&engine, &space, config, &agent, "gain-adaptive");
    let report = &outcome.trajectory.report;
    let adaptive = UniformReport {
        spent: report.spent,
        failures: report.failures,
        failures_per_run: report.failures_per_run,
    };
    eprintln!(
        "[adaptive-gain] adaptive: {} failures in {} runs ({:.3}/run)",
        adaptive.failures, adaptive.spent, adaptive.failures_per_run
    );

    let (gain, gate_2x) = gain_gate(&uniform, &adaptive);
    let record = GainRecord {
        bench: "adaptive_gain",
        description: "failures found per run at matched total-run budget over the same \
             (scenario x channel x magnitude x onset) arm lattice and identical per-pull seeds; \
             uniform = round-robin laps of the lattice (the exhaustive grid), adaptive = \
             Thompson-sampling planner over Beta-Bernoulli per-arm posteriors proposing \
             batches through Engine::evaluate_jobs; expert agent, 150 s missions",
        lattice_arms: arms,
        budget,
        batch,
        seed,
        uniform,
        adaptive,
        gain,
        gate_2x,
        notes: "the expert agent's failure landscape is sparse (~8% of arms: stuck \
             brake/throttle, 1 s output delay), so the uniform grid spends >90% of its budget \
             on benign arms while the planner spends its first lap finding the failing region \
             and the second concentrating there — the trajectory is byte-identical for any \
             --workers count (see the adaptive_determinism test); the IL agent saturates this \
             landscape (most perturbations of a 150 s mission diverge), run --agent neural to \
             reproduce that",
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&record).expect("record serializes")
    );
}

/// Adaptive failures-per-run over uniform's (`None` when uniform found
/// no failure), and whether the 2× gate passes: adaptive must find a
/// failure, at a rate at least twice uniform's.
fn gain_gate(uniform: &UniformReport, adaptive: &UniformReport) -> (Option<f64>, bool) {
    let gain = (uniform.failures_per_run > 0.0)
        .then(|| adaptive.failures_per_run / uniform.failures_per_run);
    (gain, adaptive.failures > 0 && gain.is_none_or(|g| g >= 2.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(spent: usize, failures: usize) -> UniformReport {
        UniformReport {
            spent,
            failures,
            failures_per_run: failures as f64 / spent as f64,
        }
    }

    #[test]
    fn the_gate_needs_an_adaptive_failure_at_twice_the_uniform_rate() {
        assert_eq!(gain_gate(&tally(1, 0), &tally(1, 0)), (None, false));
        assert_eq!(gain_gate(&tally(24, 0), &tally(24, 3)), (None, true));
        // BENCH_pr8.json's record.
        let bench_pr8 = gain_gate(&tally(252, 19), &tally(252, 123));
        assert_eq!(bench_pr8, (Some(6.473684210526316), true));
    }
}
