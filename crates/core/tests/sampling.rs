//! Sampled-simulation and checkpoint correctness tests:
//!
//! * sampled IPC estimates stay within the 2% error bound of exact runs while
//!   spending at most 10% of instructions in detailed mode (the wall-clock
//!   speedup proxy — cycles simulated per instruction is deterministic where
//!   wall-clock time is not);
//! * checkpoint save → load → run is bit-for-bit identical to the
//!   uninterrupted run (deterministic cases plus a property test over
//!   fast-forward lengths and budgets);
//! * every warm structure's state round-trips through a fresh simulator,
//!   and a state that does not fit changes nothing.

use proptest::prelude::*;
use serde::{Serialize, Value};

use smt_core::pipeline::{SimOptions, SmtSimulator};
use smt_core::runner::{build_trace, RunScale};
use smt_types::config::{CacheConfig, FetchPolicyKind};
use smt_types::warm::WarmState;
use smt_types::{SamplingConfig, SimError, SmtConfig};

fn build_sim(benchmarks: &[&str], policy: FetchPolicyKind, scale: RunScale) -> SmtSimulator {
    let mut config = SmtConfig::baseline(benchmarks.len());
    config.fetch_policy = policy;
    build_on(config, benchmarks, scale)
}

fn build_on(config: SmtConfig, benchmarks: &[&str], scale: RunScale) -> SmtSimulator {
    let traces = benchmarks
        .iter()
        .map(|b| build_trace(b, scale).expect("known benchmark"))
        .collect();
    SmtSimulator::new(config, traces).expect("valid configuration")
}

#[test]
fn sampled_ipc_within_two_percent_of_exact() {
    let scale = RunScale::tiny();
    let benchmarks = ["mcf", "gcc"];
    let budget = 480_000;

    let mut exact_sim = build_sim(&benchmarks, FetchPolicyKind::Icount, scale);
    let exact = exact_sim.run(SimOptions {
        max_instructions_per_thread: budget,
        warmup_instructions_per_thread: 10_000,
        max_cycles: 500_000_000,
    });
    let exact_ipc = exact.total_ipc();

    let sampling = SamplingConfig::default();
    let mut sampled_sim = build_sim(&benchmarks, FetchPolicyKind::Icount, scale);
    let run = sampled_sim
        .run_sampled(
            SimOptions {
                max_instructions_per_thread: budget,
                warmup_instructions_per_thread: 0,
                max_cycles: 500_000_000,
            },
            &sampling,
        )
        .expect("sampled run succeeds");

    assert!(u64::from(run.estimate.windows) >= u64::from(sampling.min_windows));
    let err = (run.estimate.total_ipc.mean - exact_ipc).abs() / exact_ipc;
    assert!(
        err <= 0.02,
        "sampled IPC {} vs exact {} — relative error {:.4} exceeds 2%",
        run.estimate.total_ipc.mean,
        exact_ipc,
        err
    );
    // The speedup target's deterministic proxy: at most 10% of instructions
    // run in detailed mode, so sampled mode simulates ≤ ~10% of the cycles.
    assert!(
        run.estimate.detailed_fraction <= 0.10,
        "detailed fraction {} exceeds 0.10",
        run.estimate.detailed_fraction
    );
}

#[test]
fn sampled_reports_per_thread_estimates_with_intervals() {
    let scale = RunScale::tiny();
    let mut sim = build_sim(&["mcf", "swim"], FetchPolicyKind::MlpFlush, scale);
    let run = sim
        .run_sampled(
            SimOptions {
                max_instructions_per_thread: 30_000,
                warmup_instructions_per_thread: 0,
                max_cycles: 50_000_000,
            },
            &SamplingConfig::default(),
        )
        .expect("sampled run succeeds");
    assert_eq!(run.estimate.per_thread_ipc.len(), 2);
    for est in &run.estimate.per_thread_ipc {
        assert!(est.mean > 0.0);
        assert!(est.ci95 >= 0.0);
    }
    assert_eq!(run.window_cycles.len(), run.estimate.windows as usize);
    assert_eq!(
        run.window_thread_committed.len(),
        run.estimate.windows as usize
    );
}

#[test]
fn checkpoint_requires_pure_fast_forward_boundary() {
    let scale = RunScale::tiny();
    let mut sim = build_sim(&["mcf", "gcc"], FetchPolicyKind::Icount, scale);
    sim.run(SimOptions::with_instructions(1_000));
    assert!(
        sim.checkpoint(scale.seed).is_err(),
        "checkpoint after a detailed run must be rejected"
    );
}

#[test]
fn checkpoint_restore_rejects_geometry_mismatch() {
    let scale = RunScale::tiny();
    let mut donor = build_sim(&["mcf", "gcc"], FetchPolicyKind::Icount, scale);
    donor.fast_forward(5_000);
    let ck = donor.checkpoint(scale.seed).expect("checkpointable");

    let mut four_thread = build_sim(
        &["mcf", "gcc", "swim", "twolf"],
        FetchPolicyKind::Icount,
        scale,
    );
    assert!(four_thread.restore_checkpoint(&ck).is_err());

    let mut wrong_workload = build_sim(&["swim", "twolf"], FetchPolicyKind::Icount, scale);
    assert!(wrong_workload.restore_checkpoint(&ck).is_err());
}

/// The field `name` of a captured thread state, as it serializes.
fn field(thread: &WarmState, name: &str) -> Value {
    let state = thread.serialize();
    let fields = state.as_map().expect("a thread state is a map");
    Value::map_get(fields, name)
        .expect("a captured field")
        .clone()
}

/// A checkpoint whose last thread's trace position belongs to another
/// benchmark fails naming that field, and changes nothing: the earlier
/// threads' traces, pending ops and committed counts stay as built.
#[test]
fn failed_restore_changes_nothing() {
    let scale = RunScale::tiny();
    let mut donor = build_sim(&["mcf", "gcc"], FetchPolicyKind::Icount, scale);
    donor.fast_forward(5_000);
    let json = serde_json::to_string(&donor.checkpoint(scale.seed).unwrap()).unwrap();
    let hostile = json.replacen("\"name\":\"gcc\"", "\"name\":\"gzip\"", 1);
    assert_ne!(hostile, json);
    let ck = smt_core::SimCheckpoint::from_json(&hostile).expect("parses and validates");

    let mut target = build_sim(&["mcf", "gcc"], FetchPolicyKind::Icount, scale);
    let err = target.restore_checkpoint(&ck).unwrap_err();
    assert!(
        matches!(&err, SimError::Checkpoint(e) if e.field == "threads[1].trace.name"),
        "{err}"
    );
    let mut fresh = build_sim(&["mcf", "gcc"], FetchPolicyKind::Icount, scale);
    assert_eq!(
        target.checkpoint(scale.seed).unwrap(),
        fresh.checkpoint(scale.seed).unwrap()
    );
}

/// Every sparse table of a serialized state, found by its shape (a map of
/// exactly `len`, `indices` and `values`): its dotted path, length and
/// number of listed entries.
fn sparse_tables(path: String, value: &Value, out: &mut Vec<(String, u64, usize)>) {
    match value {
        Value::Map(fields) => {
            let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
            if names == ["len", "indices", "values"] {
                let len = match fields[0].1 {
                    Value::Int(len) => len as u64,
                    _ => panic!("{path}.len is not an integer"),
                };
                let listed = fields[1].1.as_seq().map_or(0, <[Value]>::len);
                out.push((path, len, listed));
                return;
            }
            for (name, field) in fields {
                let path = if path.is_empty() {
                    name.clone()
                } else {
                    format!("{path}.{name}")
                };
                sparse_tables(path, field, out);
            }
        }
        Value::Seq(items) => {
            for (i, item) in items.iter().enumerate() {
                sparse_tables(format!("{path}[{i}]"), item, out);
            }
        }
        _ => {}
    }
}

fn tables_of(ck: &smt_core::SimCheckpoint) -> Vec<(String, u64, usize)> {
    let mut tables = Vec::new();
    sparse_tables(String::new(), &serde_json::to_value(ck), &mut tables);
    tables
}

/// A freshly built simulator holds nothing but reset entries, so its
/// checkpoint lists zero entries in every sparse table, each at its full
/// configured length.
#[test]
fn fresh_simulator_captures_no_sparse_entries() {
    let scale = RunScale::tiny();
    let benchmarks = ["mcf", "swim", "perlbmk", "mesa"];
    let c = SmtConfig::baseline(benchmarks.len());
    let mut sim = build_sim(&benchmarks, FetchPolicyKind::MlpFlush, scale);
    let ck = sim.checkpoint(scale.seed).expect("checkpointable");
    ck.validate().expect("a fresh checkpoint validates");
    let lines = |cache: CacheConfig| cache.size_bytes / u64::from(cache.line_bytes);
    let threads = benchmarks.len() as u32;
    let mut want = vec![
        ("memory.l1d.ways".to_string(), lines(c.l1d)),
        ("memory.l2.ways".to_string(), lines(c.l2)),
        (
            "memory.dtlb.entries".to_string(),
            u64::from(c.dtlb.entries * threads),
        ),
        (
            "memory.prefetcher.stride_table".to_string(),
            u64::from(c.prefetcher.stride_table_entries),
        ),
        ("shared.llc.ways".to_string(), lines(c.l3)),
    ];
    for t in 0..benchmarks.len() {
        for (table, entries) in [
            ("branch_predictor.gshare.counters", c.gshare_entries),
            ("branch_predictor.btb.entries", c.btb_entries),
            ("lll_predictor.entries", c.lll_predictor_entries),
            ("mlp_predictor.table", c.mlp_predictor_entries),
            ("binary_mlp_predictor.table", c.mlp_predictor_entries),
        ] {
            want.push((format!("threads[{t}].{table}"), u64::from(entries)));
        }
    }
    want.sort();
    let mut found = tables_of(&ck);
    found.sort();
    assert_eq!(found.len(), 5 + 5 * benchmarks.len());
    for ((path, len, listed), (want_path, want_len)) in found.into_iter().zip(want) {
        assert_eq!(
            (path.as_str(), len, listed),
            (want_path.as_str(), want_len, 0)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The one round-trip property of every warm structure: the state
    /// captured after any warm prefix, read back from JSON and restored
    /// into a fresh simulator, is captured again unchanged, table by table,
    /// and both machines then run alike. A simulator whose BTB or L2 has
    /// another geometry rejects it, naming the field, and keeps its own
    /// fresh state: nothing is written unless everything fits.
    #[test]
    fn warm_state_round_trips_through_a_fresh_simulator(
        picks in prop::collection::vec(0usize..5, 1..5),
        ff in 0u64..12_000,
        wider_l2 in any::<bool>(),
    ) {
        let names = ["mcf", "gcc", "swim", "twolf", "applu"];
        let mix: Vec<&str> = picks.iter().map(|&i| names[i]).collect();
        let scale = RunScale::tiny();
        let mut donor = build_sim(&mix, FetchPolicyKind::Icount, scale);
        donor.fast_forward(ff);
        let ck = donor.checkpoint(scale.seed).expect("checkpointable");
        prop_assert!(ff == 0 || tables_of(&ck).iter().any(|&(_, _, listed)| listed > 0));
        let parsed: smt_core::SimCheckpoint =
            serde_json::from_str(&serde_json::to_string(&ck).unwrap()).unwrap();

        let mut restored = build_sim(&mix, FetchPolicyKind::Icount, scale);
        restored.restore_checkpoint(&parsed).expect("restores into its own geometry");
        let again = restored.checkpoint(scale.seed).expect("checkpointable");
        prop_assert_eq!(tables_of(&again), tables_of(&ck));
        prop_assert_eq!(again, ck.clone());
        let options = SimOptions {
            max_instructions_per_thread: 1_500,
            warmup_instructions_per_thread: 0,
            max_cycles: 10_000_000,
        };
        prop_assert_eq!(restored.run(options), donor.run(options));

        let mut config = SmtConfig::baseline(mix.len());
        let field = if wider_l2 {
            config.l2.size_bytes *= 2;
            "memory.l2.ways.len: geometry mismatch"
        } else {
            config.btb_entries *= 2;
            "threads[0].branch_predictor.btb.entries.len: geometry mismatch"
        };
        let mut other = build_on(config.clone(), &mix, scale);
        let err = other.restore_checkpoint(&ck).unwrap_err();
        let named = matches!(&err, SimError::Checkpoint(e) if e.to_string().starts_with(field));
        prop_assert!(named, "{}", err);
        let fresh = build_on(config, &mix, scale).checkpoint(scale.seed).unwrap();
        prop_assert_eq!(other.checkpoint(scale.seed).unwrap(), fresh);
    }
}

#[test]
fn checkpoint_json_roundtrip_preserves_state() {
    let scale = RunScale::tiny();
    let mut sim = build_sim(&["mcf", "swim"], FetchPolicyKind::MlpFlush, scale);
    sim.fast_forward(12_345);
    let ck = sim.checkpoint(scale.seed).expect("checkpointable");
    let json = serde_json::to_string(&ck).expect("serializes");
    let parsed: smt_core::SimCheckpoint = serde_json::from_str(&json).expect("parses");
    assert_eq!(ck, parsed);
    assert_eq!(parsed.meta.benchmarks, vec!["mcf", "swim"]);
    assert_eq!(parsed.meta.num_threads, 2);
    assert_eq!(parsed.meta.warmed_instructions, 12_345);
}

/// The tentpole determinism property: fast-forwarding `n` instructions and
/// running is bit-for-bit identical to fast-forwarding `n`, checkpointing,
/// restoring into a fresh simulator (via a JSON round-trip), and running.
fn roundtrip_case(policy: FetchPolicyKind, benchmarks: &[&str], ff: u64, budget: u64) {
    let scale = RunScale::tiny();
    let options = SimOptions {
        max_instructions_per_thread: budget,
        warmup_instructions_per_thread: 0,
        max_cycles: 10_000_000,
    };

    let mut direct = build_sim(benchmarks, policy, scale);
    direct.fast_forward(ff);
    let direct_stats = direct.run(options);

    let mut donor = build_sim(benchmarks, policy, scale);
    donor.fast_forward(ff);
    let ck = donor.checkpoint(scale.seed).expect("checkpointable");
    let json = serde_json::to_string(&ck).expect("serializes");
    let ck: smt_core::SimCheckpoint = serde_json::from_str(&json).expect("parses");

    let mut restored = build_sim(benchmarks, policy, scale);
    restored
        .restore_checkpoint(&ck)
        .expect("restore into a fresh equal-geometry simulator");
    let restored_stats = restored.run(options);

    assert_eq!(
        direct_stats, restored_stats,
        "restored run diverged from the uninterrupted run"
    );
}

#[test]
fn checkpoint_roundtrip_bit_for_bit_icount() {
    roundtrip_case(FetchPolicyKind::Icount, &["mcf", "gcc"], 20_000, 3_000);
}

#[test]
fn checkpoint_roundtrip_bit_for_bit_mlpflush() {
    roundtrip_case(FetchPolicyKind::MlpFlush, &["mcf", "swim"], 20_000, 3_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn checkpoint_roundtrip_bit_for_bit_any_prefix(
        ff in 1u64..30_000,
        budget in 500u64..3_000,
        policy_mlp in any::<bool>(),
    ) {
        let policy = if policy_mlp {
            FetchPolicyKind::MlpFlush
        } else {
            FetchPolicyKind::Icount
        };
        roundtrip_case(policy, &["mcf", "twolf"], ff, budget);
    }
}

/// The headline sampled cadence for 10x-budget scenarios: a long raw-speed
/// skip, a 44k-instruction functional-warming horizon, and a short detailed
/// window (~1% detailed fraction, 25 windows at a 4.8M budget).
fn ten_x_cadence() -> SamplingConfig {
    SamplingConfig {
        skip_instructions: 150_000,
        ff_instructions: 44_000,
        warm_instructions: 500,
        measure_instructions: 1_500,
        min_windows: 3,
    }
}

#[test]
fn skip_forward_freezes_warm_state_and_advances_trace() {
    let scale = RunScale::tiny();
    let mut sim = build_sim(&["mcf", "gcc"], FetchPolicyKind::Icount, scale);
    sim.fast_forward(10_000);
    let before = sim.checkpoint(scale.seed).expect("checkpointable");
    sim.skip_forward(5_000);
    let after = sim
        .checkpoint(scale.seed)
        .expect("still a pure-ff boundary");

    // The trace position moved...
    for (b, a) in before.threads.iter().zip(&after.threads) {
        let committed = |t: &WarmState| match field(t, "committed") {
            Value::Int(n) => n,
            other => panic!("committed is {other:?}"),
        };
        assert_eq!(committed(a), committed(b) + 5_000);
        assert_ne!(
            field(a, "trace"),
            field(b, "trace"),
            "trace source did not advance"
        );
    }
    // ...but every warm structure is bit-for-bit frozen.
    assert_eq!(after.memory, before.memory);
    assert_eq!(after.shared, before.shared);
    for (b, a) in before.threads.iter().zip(&after.threads) {
        for part in [
            "branch_predictor",
            "lll_predictor",
            "mlp_predictor",
            "binary_mlp_predictor",
            "llsr",
            "pending_mlp_evals",
        ] {
            assert_eq!(field(a, part), field(b, part), "{part}");
        }
    }
}

#[test]
fn sampled_run_with_skip_phase_is_deterministic() {
    let scale = RunScale::tiny();
    let sampling = SamplingConfig {
        skip_instructions: 6_000,
        ff_instructions: 3_000,
        warm_instructions: 300,
        measure_instructions: 700,
        min_windows: 3,
    };
    let options = SimOptions {
        max_instructions_per_thread: 60_000,
        warmup_instructions_per_thread: 0,
        max_cycles: 50_000_000,
    };
    let run = |_: u32| {
        let mut sim = build_sim(&["mcf", "swim"], FetchPolicyKind::MlpFlush, scale);
        sim.run_sampled(options, &sampling)
            .expect("sampled run succeeds")
    };
    let first = run(0);
    assert!(u64::from(first.estimate.windows) >= u64::from(sampling.min_windows));
    assert!(first.estimate.total_ipc.mean > 0.0);
    assert_eq!(
        first,
        run(1),
        "sampled run with a skip phase is not deterministic"
    );
}

/// Release-scale acceptance check, exercised by the `sampled-smoke` CI job:
/// on a 10x instruction budget the headline cadence stays within 2% of the
/// exact IPC on both registry mixes and runs at >= 10x the exact
/// simulator's wall-clock rate on the 4T headline mix.
#[test]
#[ignore = "release-scale acceptance check; run explicitly (sampled-smoke CI job)"]
fn sampled_ten_x_budget_speedup_and_error() {
    let budget = 4_800_000u64;
    let scale = RunScale::tiny();
    let sampling = ten_x_cadence();
    let mixes: [&[&str]; 2] = [&["mcf", "gcc"], &["mcf", "gcc", "swim", "twolf"]];
    for mix in mixes {
        let mut exact_sim = build_sim(mix, FetchPolicyKind::Icount, scale);
        let t0 = std::time::Instant::now();
        let exact = exact_sim.run(SimOptions {
            max_instructions_per_thread: budget,
            warmup_instructions_per_thread: 10_000,
            max_cycles: 500_000_000,
        });
        let t_exact = t0.elapsed();
        let exact_ipc = exact.total_ipc();

        let mut sampled_sim = build_sim(mix, FetchPolicyKind::Icount, scale);
        let t0 = std::time::Instant::now();
        let run = sampled_sim
            .run_sampled(
                SimOptions {
                    max_instructions_per_thread: budget,
                    warmup_instructions_per_thread: 0,
                    max_cycles: 500_000_000,
                },
                &sampling,
            )
            .expect("sampled run succeeds");
        let t_sampled = t0.elapsed();

        let err = (run.estimate.total_ipc.mean - exact_ipc).abs() / exact_ipc;
        let speedup = t_exact.as_secs_f64() / t_sampled.as_secs_f64();
        eprintln!(
            "{}T: exact={exact_ipc:.4} sampled={:.4} err={err:.4} windows={} speedup={speedup:.1}x",
            mix.len(),
            run.estimate.total_ipc.mean,
            run.estimate.windows
        );
        assert!(
            err <= 0.02,
            "{}T mix: sampled IPC error {err:.4} exceeds 2%",
            mix.len()
        );
        if mix.len() == 4 {
            assert!(
                speedup >= 10.0,
                "4T mix: sampled speedup {speedup:.1}x is below the 10x target"
            );
        }
    }
}
