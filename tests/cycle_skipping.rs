//! Next-event cycle skipping is invisible in the results.
//!
//! [`SmtSimulator::run`] jumps over quiet cycles; [`SmtSimulator::step`]
//! always advances exactly one cycle. [`ChipSimulator::run`] lets each quiet
//! core sleep until its own next event; [`ChipSimulator::step`] steps every
//! core for exactly one cycle. Every test here runs the same machine both
//! ways, with the same stop rules, and requires identical statistics and
//! final cycle.

use proptest::prelude::*;

use smt_core::chip::ChipSimulator;
use smt_core::pipeline::{SimOptions, SmtSimulator};
use smt_core::runner::{build_trace, RunScale};
use smt_trace::{spec, ScriptedTrace, SyntheticTraceGenerator, TraceSource};
use smt_types::config::FetchPolicyKind;
use smt_types::{BusConfig, ChipConfig, ChipStats, MachineStats, SmtConfig, TraceOp};

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

/// A registry-style cell: `benchmarks` under `policy` on the baseline
/// machine at tiny scale (2K instructions after a 1K warm-up, seed 42).
fn static_cell(label: &str, benchmarks: &[&str], policy: FetchPolicyKind) {
    let scale = RunScale::tiny();
    assert_skip_matches_step(label, scale.sim_options(), || {
        let traces = benchmarks
            .iter()
            .map(|b| build_trace(b, scale).expect("known benchmark"))
            .collect();
        let mut config = SmtConfig::baseline(benchmarks.len());
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

/// Everything a caller can read off a chip between run loops, with each
/// core's `cycles` field set to the live measured count (only `run`
/// finalizes it).
#[derive(PartialEq, Debug)]
struct ChipView {
    cycle: u64,
    measured_cycles: u64,
    core_stats: Vec<MachineStats>,
    chip_stats: ChipStats,
}

fn chip_view(sim: &ChipSimulator) -> ChipView {
    let measured_cycles = sim.measured_cycles();
    let finalized = |mut stats: MachineStats| {
        stats.cycles = measured_cycles;
        stats
    };
    let mut chip_stats = sim.chip_stats();
    chip_stats.cores = chip_stats.cores.into_iter().map(finalized).collect();
    ChipView {
        cycle: sim.cycle(),
        measured_cycles,
        core_stats: (0..sim.num_cores())
            .map(|c| finalized(sim.core_stats(c).clone()))
            .collect(),
        chip_stats,
    }
}

/// Committed instructions of every thread of every core this phase.
fn chip_committed(sim: &ChipSimulator) -> Vec<u64> {
    (0..sim.num_cores())
        .flat_map(|c| {
            sim.core_stats(c)
                .threads
                .iter()
                .map(|t| t.committed_instructions)
        })
        .collect()
}

/// `ChipSimulator::warm_up`, stepped one chip cycle at a time from outside.
fn warm_up_chip_stepped(sim: &mut ChipSimulator, instructions: u64, max_cycles: u64) {
    if instructions == 0 {
        return;
    }
    let targets: Vec<u64> = chip_committed(sim)
        .iter()
        .map(|c| c + instructions)
        .collect();
    while sim.cycle() < max_cycles && chip_committed(sim).iter().zip(&targets).any(|(c, t)| c < t) {
        sim.step();
    }
    sim.reset_stats();
}

/// `ChipSimulator::run`, stepped one chip cycle at a time from outside.
fn run_chip_stepped(sim: &mut ChipSimulator, options: SimOptions) -> ChipStats {
    warm_up_chip_stepped(
        sim,
        options.warmup_instructions_per_thread,
        options.max_cycles,
    );
    let budget = options.max_instructions_per_thread;
    let baselines = chip_committed(sim);
    while sim.cycle() < options.max_cycles
        && !chip_committed(sim)
            .iter()
            .zip(&baselines)
            .any(|(c, base)| c - base >= budget)
    {
        sim.step();
    }
    chip_view(sim).chip_stats
}

/// Runs `build()` once skipping and once stepping and requires equal
/// results, and equal observables once each `run` has returned. `label`
/// names the case in a failure message.
fn assert_chip_skip_matches_step(
    label: &str,
    options: SimOptions,
    build: impl Fn() -> ChipSimulator,
) {
    let mut skipping = build();
    let skipped = skipping.run(options);
    let mut stepping = build();
    let stepped = run_chip_stepped(&mut stepping, options);
    assert_eq!(skipped, stepped, "{label}: chip statistics diverged");
    assert_eq!(
        chip_view(&skipping),
        chip_view(&stepping),
        "{label}: chip state after run diverged"
    );
}

/// Synthetic traces for a chip: `benchmarks` dealt out core-major,
/// `threads` per core.
fn chip_traces(benchmarks: &[String], threads: usize, seed: u64) -> Vec<Vec<Box<dyn TraceSource>>> {
    benchmarks
        .chunks(threads)
        .enumerate()
        .map(|(core, names)| traces(names, seed + (core * threads) as u64))
        .collect()
}

/// A random chip: 2-4 cores of 1-2 threads, an unlimited or a 16 B/cycle
/// bus, memory latency 100-800.
#[derive(Clone, Debug)]
struct Chip {
    config: ChipConfig,
    benchmarks: Vec<String>,
    seed: u64,
    options: SimOptions,
}

impl Chip {
    fn traces(&self) -> Vec<Vec<Box<dyn TraceSource>>> {
        chip_traces(&self.benchmarks, self.config.core.num_threads, self.seed)
    }
}

/// Strategy over [`Chip`]s. The picks are raw indices, resolved against
/// the policy and benchmark lists.
fn chips() -> impl Strategy<Value = Chip> {
    (
        (2usize..5, 1usize..3, any::<bool>()),
        100u64..801,
        0usize..FetchPolicyKind::ALL.len(),
        prop::collection::vec(any::<usize>(), 8..9),
        any::<u64>(),
        (200u64..1_500, 0u64..500, any::<bool>(), 1_000u64..20_000),
    )
        .prop_map(|(shape, latency, policy, picks, seed, run)| {
            let (cores, threads, contended) = shape;
            let names = benchmark_names();
            let (budget, warmup, capped, cap) = run;
            let mut config =
                ChipConfig::baseline(cores, threads).with_policy(FetchPolicyKind::ALL[policy]);
            config.core.memory_latency = latency;
            config.bus = if contended {
                BusConfig::contended()
            } else {
                BusConfig::unlimited()
            };
            Chip {
                config,
                benchmarks: picks[..cores * threads]
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chip_run_matches_step_loop_on_random_chips(chip in chips()) {
        let label = format!("{chip:?}");
        assert_chip_skip_matches_step(&label, chip.options, || {
            ChipSimulator::new(chip.config.clone(), chip.traces()).expect("valid chip")
        });
    }
}

fn named_chip(benchmarks: &[&str], threads: usize) -> Chip {
    Chip {
        config: ChipConfig::baseline(benchmarks.len() / threads, threads),
        benchmarks: benchmarks.iter().map(|b| b.to_string()).collect(),
        seed: 42,
        options: RunScale::tiny().sim_options(),
    }
}

/// Regression: a core that is never quiet (pure ALU loops, which never
/// wait on memory) next to memory-bound cores that sleep most cycles. The
/// chip cycle must never jump while the busy core is awake.
#[test]
fn regression_compute_bound_core_beside_sleeping_cores() {
    let alu = || -> Box<dyn TraceSource> {
        Box::new(ScriptedTrace::looping(
            "alu-loop",
            (0..64).map(|i| TraceOp::int_alu(0x2000 + 4 * i)).collect(),
        ))
    };
    let chip = named_chip(&["mcf", "swim", "art", "mcf", "equake", "lucas"], 2);
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush] {
        assert_chip_skip_matches_step(
            &format!("alu beside mlp / {policy:?}"),
            chip.options,
            || {
                let mut traces = chip.traces();
                traces[1] = vec![alu(), alu()];
                ChipSimulator::new(chip.config.clone().with_policy(policy), traces)
                    .expect("valid chip")
            },
        );
    }
}

/// Regression: `max_cycles` reached while every core sleeps. From cold
/// caches every load goes to memory, so a few hundred cycles in, every core
/// of an all-`mcf` chip waits on memory at once; sweeping the cap across
/// that stretch lands it inside sleeps, and `run` must then bring every
/// core up to the cap.
#[test]
fn regression_max_cycles_reached_while_every_core_sleeps() {
    let mut chip = named_chip(&["mcf", "mcf", "mcf", "mcf"], 1);
    chip.config.core.memory_latency = 800;
    for cap in (100..=1_200).step_by(25) {
        let options = SimOptions {
            max_instructions_per_thread: 1_000_000,
            warmup_instructions_per_thread: 0,
            max_cycles: cap,
        };
        assert_chip_skip_matches_step(&format!("all-mcf cap {cap}"), options, || {
            ChipSimulator::new(chip.config.clone(), chip.traces()).expect("valid chip")
        });
    }
}

/// Regression: `warm_up` must leave no core lagging the chip cycle, or the
/// `step()` calls that follow it would step a core from a stale cycle; and
/// it must leave no core asleep, or a `run` after those `step()` calls
/// would let a core sleep through cycles in which it acts. Warming up, then
/// stepping, then running must equal pure stepping throughout.
#[test]
fn regression_warm_up_then_step_matches_pure_stepping() {
    let chip = named_chip(&["mcf", "gcc", "swim", "twolf", "art", "applu"], 2);
    let build = || ChipSimulator::new(chip.config.clone(), chip.traces()).expect("valid chip");
    let (warmup, max_cycles) = (1_000, 10_000_000);
    let measured = SimOptions {
        warmup_instructions_per_thread: 0,
        ..chip.options
    };
    for steps in [0, 1, 5, 2_000] {
        let mut skipping = build();
        skipping.warm_up(warmup, max_cycles);
        let mut stepping = build();
        warm_up_chip_stepped(&mut stepping, warmup, max_cycles);
        assert_eq!(
            chip_view(&skipping),
            chip_view(&stepping),
            "state after warm-up diverged"
        );
        for step in 1..=steps {
            skipping.step();
            stepping.step();
            if step <= 8 || step % 500 == 0 {
                assert_eq!(
                    chip_view(&skipping),
                    chip_view(&stepping),
                    "state {step} steps after warm-up diverged"
                );
            }
        }
        let skipped = skipping.run(measured);
        let stepped = run_chip_stepped(&mut stepping, measured);
        assert_eq!(skipped, stepped, "run {steps} steps after warm-up diverged");
        assert_eq!(
            chip_view(&skipping),
            chip_view(&stepping),
            "state after a run {steps} steps after warm-up diverged"
        );
    }
}

/// Regression: completion events due far beyond the completion queue's
/// 64-cycle wheel. Serialized long-latency loads at a memory latency of 800
/// queue behind one another, so loads complete hundreds to thousands of
/// cycles after they issue, and a 16 B/cycle bus stretches them further on
/// a chip. Those events wait in the far heap and must come due in exactly
/// the cycle stepping pops them.
#[test]
fn regression_far_completion_events_with_serialized_loads() {
    let benchmarks = ["mcf", "swim", "art", "applu"];
    let scale = RunScale::tiny();
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush] {
        let mut config = SmtConfig::baseline(benchmarks.len()).with_policy(policy);
        config.memory_latency = 800;
        config.serialize_long_latency_loads = true;
        assert_skip_matches_step(
            &format!("serialized loads, single core / {policy:?}"),
            scale.sim_options(),
            || {
                let traces = benchmarks
                    .iter()
                    .map(|b| build_trace(b, scale).expect("known benchmark"))
                    .collect();
                SmtSimulator::new(config.clone(), traces).expect("valid machine")
            },
        );

        let mut chip = named_chip(&benchmarks, 2);
        chip.config = chip.config.with_policy(policy);
        chip.config.core.memory_latency = 800;
        chip.config.core.serialize_long_latency_loads = true;
        chip.config.bus = BusConfig::contended();
        assert_chip_skip_matches_step(
            &format!("serialized loads, chip / {policy:?}"),
            chip.options,
            || ChipSimulator::new(chip.config.clone(), chip.traces()).expect("valid chip"),
        );
    }
}
