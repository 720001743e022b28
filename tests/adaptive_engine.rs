//! Adaptive policy engine: behaviour-preservation, determinism and
//! effectiveness tests.
//!
//! The refactor's central guarantee is that the engine is invisible until a
//! dynamic selector actually switches: a machine driven by the `static`
//! selector must be **bit-for-bit** the legacy static machine (across every
//! fetch policy, at both SMT widths, and on a chip), and
//! [`smt_core::pipeline::Core::swap_policy`] to the installed kind must be a
//! no-op on [`smt_types::MachineStats`]. On top of that, random
//! selector-switch schedules must stay deterministic across repeat runs and
//! engine thread counts (chip core stepping order is pinned by `smt-core`'s
//! chip unit tests) — and on a mixed ILP/MLP four-thread workload a dynamic selector must beat the best static
//! policy on harmonic-mean IPC (the whole point of the engine).

use proptest::prelude::*;
use smt_core::chip::ChipSimulator;
use smt_core::experiments::{engine, ExperimentRegistry};
use smt_core::pipeline::SmtSimulator;
use smt_core::runner::{self, build_trace, RunScale};
use smt_trace::TraceSource;
use smt_types::config::FetchPolicyKind;
use smt_types::{AdaptiveConfig, ChipConfig, MachineStats, SelectorKind, SmtConfig};

fn traces_for(benchmarks: &[&str], scale: RunScale) -> Vec<Box<dyn TraceSource>> {
    benchmarks
        .iter()
        .map(|b| build_trace(b, scale).expect("known benchmark"))
        .collect()
}

fn chip_traces(assignments: &[&[&str]], scale: RunScale) -> Vec<Vec<Box<dyn TraceSource>>> {
    assignments
        .iter()
        .map(|core| traces_for(core, scale))
        .collect()
}

#[test]
fn static_selector_is_bit_for_bit_the_legacy_machine() {
    // The golden fixtures pin the legacy machine; this pins the adaptive
    // wrapper to it: a static selector over any candidate list starting with
    // the fixture policy must reproduce the exact same statistics, for all
    // policies at 2T and 4T.
    let scale = RunScale::tiny();
    for benchmarks in [vec!["mcf", "gcc"], vec!["mcf", "swim", "gcc", "twolf"]] {
        for policy in FetchPolicyKind::ALL {
            let config = SmtConfig::baseline(benchmarks.len());
            let legacy =
                runner::run_multiprogram(&benchmarks, policy, &config, scale).expect("legacy run");
            let adaptive = AdaptiveConfig::new(SelectorKind::Static, vec![policy]);
            let mut sim =
                SmtSimulator::with_adaptive(config, traces_for(&benchmarks, scale), adaptive)
                    .expect("adaptive machine builds");
            let stats = sim.run(scale.sim_options());
            assert_eq!(
                stats,
                legacy,
                "static selector diverged from the legacy machine for `{}` on {benchmarks:?}",
                policy.name()
            );
            let residency = sim.core().policy_residency().expect("adaptive residency");
            assert_eq!(residency.len(), 1);
            assert_eq!(residency[0].0, policy);
            assert!((residency[0].1 - 1.0).abs() < 1e-12);
        }
    }
}

#[test]
fn static_selector_chip_is_bit_for_bit_the_legacy_chip() {
    let scale = RunScale::tiny();
    let assignments: &[&[&str]] = &[&["mcf", "gcc"], &["swim", "twolf"]];
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush] {
        let config = ChipConfig::baseline(2, 2).with_policy(policy);
        let mut legacy = ChipSimulator::new(config.clone(), chip_traces(assignments, scale))
            .expect("legacy chip builds");
        let legacy_stats = legacy.run(scale.sim_options());
        let adaptive = AdaptiveConfig::new(SelectorKind::Static, vec![policy]);
        let mut wrapped =
            ChipSimulator::new_adaptive(config, chip_traces(assignments, scale), adaptive)
                .expect("adaptive chip builds");
        let wrapped_stats = wrapped.run(scale.sim_options());
        assert_eq!(
            wrapped_stats,
            legacy_stats,
            "static selector diverged from the legacy chip for `{}`",
            policy.name()
        );
    }
}

#[test]
fn swap_policy_to_the_installed_kind_is_a_noop_on_machine_stats() {
    let scale = RunScale::tiny();
    let benchmarks = ["mcf", "gcc"];
    let config = SmtConfig::baseline(2).with_policy(FetchPolicyKind::MlpFlush);
    let build = || {
        SmtSimulator::new(config.clone(), traces_for(&benchmarks, scale)).expect("machine builds")
    };
    let mut reference = build();
    let mut swapped = build();
    for cycle in 0..4_000u64 {
        if cycle % 97 == 0 {
            // Same-kind swap: must leave the running policy instance (and
            // with it all simulated behaviour) untouched.
            assert!(!swapped.swap_policy(FetchPolicyKind::MlpFlush));
        }
        reference.step();
        swapped.step();
    }
    assert_eq!(
        swapped.stats(),
        reference.stats(),
        "same-policy swap_policy mid-run perturbed MachineStats"
    );
    assert_eq!(swapped.measured_cycles(), reference.measured_cycles());
    // A different kind does swap (and reports it).
    assert!(swapped.swap_policy(FetchPolicyKind::Icount));
    assert_eq!(swapped.core().current_policy(), FetchPolicyKind::Icount);
}

/// Runs a fixed swap schedule — switch to `schedule[k]` after `(k + 1) *
/// interval` cycles — and returns the statistics.
fn run_swap_schedule(
    benchmarks: &[&str],
    schedule: &[FetchPolicyKind],
    interval: u64,
    seed: u64,
) -> MachineStats {
    let scale = RunScale {
        instructions_per_thread: 2_000,
        warmup_instructions: 0,
        seed,
        max_cycles: None,
    };
    let config = SmtConfig::baseline(benchmarks.len());
    let mut sim = SmtSimulator::new(config, traces_for(benchmarks, scale)).expect("machine builds");
    let total = interval * (schedule.len() as u64 + 1);
    for cycle in 0..total {
        if cycle > 0 && cycle % interval == 0 {
            let step = (cycle / interval - 1) as usize;
            sim.swap_policy(schedule[step]);
        }
        sim.step();
    }
    sim.stats().clone()
}

/// The policies random schedules draw from: the baseline, both headline
/// MLP-aware policies, flush/stall reactions, and a resource-partitioning
/// scheme — every structurally distinct policy-state shape.
const SWAP_POOL: [FetchPolicyKind; 6] = [
    FetchPolicyKind::Icount,
    FetchPolicyKind::MlpFlush,
    FetchPolicyKind::MlpStall,
    FetchPolicyKind::Flush,
    FetchPolicyKind::Stall,
    FetchPolicyKind::Dcra,
];

const SWAP_BENCHMARKS: [&str; 4] = ["mcf", "gcc", "swim", "twolf"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_swap_schedules_are_deterministic(
        schedule_indices in prop::collection::vec(0usize..SWAP_POOL.len(), 1..6),
        interval in 64u64..512,
        bench_a in 0usize..SWAP_BENCHMARKS.len(),
        bench_b in 0usize..SWAP_BENCHMARKS.len(),
        seed in 1u64..10_000,
    ) {
        let schedule: Vec<FetchPolicyKind> =
            schedule_indices.iter().map(|&i| SWAP_POOL[i]).collect();
        let benchmarks = [SWAP_BENCHMARKS[bench_a], SWAP_BENCHMARKS[bench_b]];
        let first = run_swap_schedule(&benchmarks, &schedule, interval, seed);
        let second = run_swap_schedule(&benchmarks, &schedule, interval, seed);
        prop_assert_eq!(&first, &second, "identical swap schedules diverged");
        let committed: u64 = first.threads.iter().map(|t| t.committed_instructions).sum();
        prop_assert!(committed > 0, "swap schedule starved the machine");
    }
}

#[test]
fn adaptive_grid_results_are_engine_thread_count_invariant() {
    let mut spec = ExperimentRegistry::builtin()
        .get("adaptive_2t")
        .expect("adaptive_2t is registered")
        .clone()
        .with_scale(RunScale::tiny())
        .with_workload_limit(2);
    // Keep the grid small: one dynamic and the static selector.
    spec.adaptive.as_mut().expect("adaptive spec").selectors =
        vec![SelectorKind::Static, SelectorKind::MlpThreshold];
    let serial = engine::run_spec_with_threads(&spec, 1).expect("serial run");
    let parallel = engine::run_spec_with_threads(&spec, 4).expect("parallel run");
    assert_eq!(serial.policy_cells, parallel.policy_cells);
    assert_eq!(serial.summaries, parallel.summaries);
    // Selector and residency columns are populated.
    assert!(serial.policy_cells.iter().all(|c| c.selector.is_some()));
    for cell in &serial.policy_cells {
        let residency = cell.policy_residency.as_ref().expect("residency column");
        let total: f64 = residency.iter().map(|r| r.fraction).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "residency fractions must sum to 1, got {total}"
        );
    }
}

#[test]
fn a_dynamic_selector_beats_the_best_static_policy_on_a_mixed_workload() {
    // The acceptance bar of the adaptive engine: on a mixed ILP/MLP
    // four-thread workload of the `adaptive_4t` matrix, runtime policy
    // selection must beat *every* static policy on harmonic-mean IPC. The
    // simulator is deterministic, so this is a stable regression test, not a
    // statistical one.
    let workload = "gzip-wupwise-apsi-twolf";
    let mut spec = ExperimentRegistry::builtin()
        .get("adaptive_4t")
        .expect("adaptive_4t is registered")
        .clone()
        .with_scale(RunScale::test());
    spec.workloads.retain(|w| w.join("-") == workload);
    assert_eq!(
        spec.workloads.len(),
        1,
        "mixed workload present in adaptive_4t"
    );
    let report = engine::run_spec(&spec).expect("adaptive_4t runs");
    let hmean = |ipcs: &[f64]| ipcs.len() as f64 / ipcs.iter().map(|v| 1.0 / v).sum::<f64>();
    let mut best_static: Option<(FetchPolicyKind, f64)> = None;
    let mut best_dynamic: Option<(SelectorKind, f64)> = None;
    for cell in &report.policy_cells {
        let selector = cell.selector.expect("adaptive cell has a selector");
        let score = hmean(&cell.per_thread_ipc);
        if selector == SelectorKind::Static {
            if best_static.is_none_or(|(_, s)| score > s) {
                best_static = Some((cell.policy, score));
            }
        } else if best_dynamic.is_none_or(|(_, s)| score > s) {
            best_dynamic = Some((selector, score));
        }
    }
    let (static_policy, static_score) = best_static.expect("static baselines in the grid");
    let (dynamic_selector, dynamic_score) = best_dynamic.expect("dynamic selectors in the grid");
    assert!(
        dynamic_score > static_score,
        "no dynamic selector beat the best static policy on {workload}: best static \
         `{}` hmean IPC {static_score:.4}, best dynamic `{}` hmean IPC {dynamic_score:.4}",
        static_policy.name(),
        dynamic_selector.name(),
    );
}
