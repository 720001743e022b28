//! Next-event cycle skipping is invisible in the results.
//!
//! [`SmtSimulator::run`] jumps over quiet cycles; [`SmtSimulator::step`]
//! always advances exactly one cycle. Every test here runs the same machine
//! both ways, with the same stop rules, and requires identical
//! [`MachineStats`], final cycle and (for adaptive machines) policy
//! residency and swap count.

use proptest::prelude::*;

use smt_core::pipeline::{SimOptions, SmtSimulator};
use smt_core::runner::{build_trace, RunScale};
use smt_trace::{spec, SyntheticTraceGenerator, TraceSource};
use smt_types::config::FetchPolicyKind;
use smt_types::{AdaptiveConfig, MachineStats, SelectorKind, SmtConfig};

/// `SmtSimulator::run`, stepped one cycle at a time from outside.
fn run_stepped(sim: &mut SmtSimulator, options: SimOptions) -> MachineStats {
    let committed = |sim: &SmtSimulator| -> Vec<u64> {
        sim.stats()
            .threads
            .iter()
            .map(|t| t.committed_instructions)
            .collect()
    };
    let warmup = options.warmup_instructions_per_thread;
    if warmup > 0 {
        let targets: Vec<u64> = committed(sim).iter().map(|c| c + warmup).collect();
        while sim.cycle() < options.max_cycles
            && committed(sim).iter().zip(&targets).any(|(c, t)| c < t)
        {
            sim.step();
        }
        sim.reset_stats();
    }
    let budget = options.max_instructions_per_thread;
    while sim.cycle() < options.max_cycles && !committed(sim).iter().any(|&c| c >= budget) {
        sim.step();
    }
    let mut stats = sim.stats().clone();
    stats.cycles = sim.measured_cycles();
    stats
}

/// Runs `build()` once skipping and once stepping and requires equal
/// results. `label` names the case in a failure message.
fn assert_skip_matches_step(label: &str, options: SimOptions, build: impl Fn() -> SmtSimulator) {
    let mut skipping = build();
    let skipped = skipping.run(options);
    let mut stepping = build();
    let stepped = run_stepped(&mut stepping, options);
    assert_eq!(skipped, stepped, "{label}: statistics diverged");
    assert_eq!(
        skipping.cycle(),
        stepping.cycle(),
        "{label}: final cycle diverged"
    );
    assert_eq!(
        skipping.core().policy_residency(),
        stepping.core().policy_residency(),
        "{label}: policy residency diverged"
    );
    assert_eq!(
        skipping.core().policy_swaps(),
        stepping.core().policy_swaps(),
        "{label}: policy swaps diverged"
    );
}

/// Names of every modelled benchmark.
fn benchmark_names() -> Vec<String> {
    spec::all_benchmarks().into_iter().map(|b| b.name).collect()
}

/// Synthetic traces for `benchmarks`, seeded from `seed`.
fn traces(benchmarks: &[String], seed: u64) -> Vec<Box<dyn TraceSource>> {
    benchmarks
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let profile = spec::benchmark(name).expect("known benchmark");
            Box::new(SyntheticTraceGenerator::new(profile, seed + i as u64)) as Box<dyn TraceSource>
        })
        .collect()
}

/// A random machine: 1-4 threads, memory latency 100-800, ROB 64-256,
/// write buffer 1-8 entries.
#[derive(Clone, Debug)]
struct Machine {
    config: SmtConfig,
    benchmarks: Vec<String>,
    seed: u64,
    options: SimOptions,
}

/// Strategy over [`Machine`]s. The picks are raw indices, resolved against
/// the policy and benchmark lists.
fn machines() -> impl Strategy<Value = Machine> {
    (
        1usize..5,
        100u64..801,
        64u32..257,
        1u32..9,
        0usize..FetchPolicyKind::ALL.len(),
        prop::collection::vec(any::<usize>(), 4..5),
        any::<u64>(),
        (200u64..1_500, 0u64..500, any::<bool>(), 1_000u64..20_000),
    )
        .prop_map(|(threads, latency, rob, wb, policy, picks, seed, run)| {
            let names = benchmark_names();
            let (budget, warmup, capped, cap) = run;
            let mut config = SmtConfig::baseline(threads);
            config.memory_latency = latency;
            config.rob_size = rob;
            config.write_buffer_entries = wb;
            config.fetch_policy = FetchPolicyKind::ALL[policy];
            Machine {
                config,
                benchmarks: picks[..threads]
                    .iter()
                    .map(|p| names[p % names.len()].clone())
                    .collect(),
                seed: seed % 1_000_000,
                options: SimOptions {
                    max_instructions_per_thread: budget,
                    warmup_instructions_per_thread: warmup,
                    max_cycles: if capped { cap } else { 10_000_000 },
                },
            }
        })
}

/// An adaptive configuration drawn from `picks`: the sampling selector
/// over two or three distinct candidates, or the MLP-threshold selector over
/// one MLP-aware and one other policy, with an interval of 16-128 cycles so
/// boundaries fall inside idle stretches.
fn adaptive_config(mlp_threshold: bool, picks: &[usize], interval: u64) -> AdaptiveConfig {
    let candidates = if mlp_threshold {
        let aware: Vec<_> = FetchPolicyKind::ALL
            .into_iter()
            .filter(|p| p.is_mlp_aware())
            .collect();
        let other: Vec<_> = FetchPolicyKind::ALL
            .into_iter()
            .filter(|p| !p.is_mlp_aware())
            .collect();
        let (a, b) = (aware[picks[0] % aware.len()], other[picks[1] % other.len()]);
        if picks[2].is_multiple_of(2) {
            vec![a, b]
        } else {
            vec![b, a]
        }
    } else {
        let mut candidates = Vec::new();
        for &p in &picks[..2 + picks[3] % 2] {
            let kind = FetchPolicyKind::ALL[p % FetchPolicyKind::ALL.len()];
            if !candidates.contains(&kind) {
                candidates.push(kind);
            }
        }
        candidates
    };
    let selector = if mlp_threshold {
        SelectorKind::MlpThreshold
    } else {
        SelectorKind::Sampling
    };
    AdaptiveConfig::new(selector, candidates).with_interval_cycles(interval)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn run_matches_step_loop_on_random_machines(machine in machines()) {
        let label = format!("{machine:?}");
        assert_skip_matches_step(&label, machine.options, || {
            SmtSimulator::new(
                machine.config.clone(),
                traces(&machine.benchmarks, machine.seed),
            )
            .expect("valid machine")
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn adaptive_run_matches_step_loop(
        machine in machines(),
        mlp_threshold in any::<bool>(),
        picks in prop::collection::vec(any::<usize>(), 4..5),
        interval in 16u64..129,
    ) {
        let adaptive = adaptive_config(mlp_threshold, &picks, interval);
        let label = format!("{machine:?} {adaptive:?}");
        assert_skip_matches_step(&label, machine.options, || {
            SmtSimulator::with_adaptive(
                machine.config.clone(),
                traces(&machine.benchmarks, machine.seed),
                adaptive.clone(),
            )
            .expect("valid adaptive machine")
        });
    }
}

/// A registry-style cell: `benchmarks` on the baseline machine at tiny
/// scale (2K instructions after a 1K warm-up, seed 42).
fn registry_cell(
    label: &str,
    benchmarks: &[&str],
    build: impl Fn(SmtConfig, Vec<Box<dyn TraceSource>>) -> SmtSimulator,
) {
    let scale = RunScale::tiny();
    assert_skip_matches_step(label, scale.sim_options(), || {
        let traces = benchmarks
            .iter()
            .map(|b| build_trace(b, scale).expect("known benchmark"))
            .collect();
        build(SmtConfig::baseline(benchmarks.len()), traces)
    });
}

fn static_cell(label: &str, benchmarks: &[&str], policy: FetchPolicyKind) {
    registry_cell(label, benchmarks, |mut config, traces| {
        config.fetch_policy = policy;
        SmtSimulator::new(config, traces).expect("valid machine")
    });
}

/// Regression: a front-end op whose `frontend_ready_at` equals the cycle
/// after a quiet one dispatches in that very cycle, so it must stop the
/// jump (a strict `>` comparison skipped it).
#[test]
fn regression_frontend_ready_now_galgel_twolf_gcc_gap_mlp_flush() {
    static_cell(
        "galgel-twolf-gcc-gap / mlp-flush",
        &["galgel", "twolf", "gcc", "gap"],
        FetchPolicyKind::MlpFlush,
    );
}

/// Regression: as above, on the mix and policy where it showed second.
#[test]
fn regression_frontend_ready_now_vortex_parser_crafty_twolf_mlp_stall() {
    static_cell(
        "vortex-parser-crafty-twolf / mlp-stall",
        &["vortex", "parser", "crafty", "twolf"],
        FetchPolicyKind::MlpStall,
    );
}

/// Regression: an adaptive interval tick may swap the policy at the end of
/// an otherwise quiet cycle, so the tick itself must count as activity.
#[test]
fn regression_adaptive_tick_counts_as_activity() {
    let candidates = vec![FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush];
    for selector in [SelectorKind::Sampling, SelectorKind::MlpThreshold] {
        for mix in [
            &["mcf", "swim"][..],
            &["mcf", "swim", "perlbmk", "mesa"][..],
            &["equake", "perlbmk", "applu", "vortex"][..],
        ] {
            let adaptive = AdaptiveConfig::new(selector, candidates.clone());
            registry_cell(
                &format!("{} / {selector:?}", mix.join("-")),
                mix,
                |config, traces| {
                    SmtSimulator::with_adaptive(config, traces, adaptive.clone())
                        .expect("valid adaptive machine")
                },
            );
        }
    }
}
