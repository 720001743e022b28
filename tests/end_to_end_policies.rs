//! End-to-end integration tests: full simulations across fetch policies, checking
//! the qualitative results the paper reports.

use smt_core::experiments::{engine, ExperimentKind, ExperimentSpec, PolicyCell};
use smt_core::runner::{
    evaluate_cell, run_multiprogram, CellSpec, CheckpointCache, RunScale, StReferenceCache,
};
use smt_core::workloads::Workload;
use smt_types::config::FetchPolicyKind;
use smt_types::SmtConfig;

fn scale() -> RunScale {
    RunScale::test()
}

/// One exact cell on the baseline configuration.
fn evaluate(benchmarks: &[&str], policy: FetchPolicyKind, scale: RunScale) -> PolicyCell {
    let workload = Workload::new(benchmarks.to_vec()).unwrap();
    let cell = CellSpec::baseline(&workload, policy, scale);
    evaluate_cell(&cell, &StReferenceCache::new(), &CheckpointCache::new()).unwrap()
}

#[test]
fn every_policy_completes_an_mlp_intensive_workload() {
    let cfg = SmtConfig::baseline(2);
    for policy in [
        FetchPolicyKind::Icount,
        FetchPolicyKind::Stall,
        FetchPolicyKind::PredictiveStall,
        FetchPolicyKind::Flush,
        FetchPolicyKind::MlpStall,
        FetchPolicyKind::MlpFlush,
        FetchPolicyKind::MlpBinaryFlush,
        FetchPolicyKind::MlpDistanceFlushAtStall,
        FetchPolicyKind::MlpBinaryFlushAtStall,
        FetchPolicyKind::StaticPartition,
        FetchPolicyKind::Dcra,
    ] {
        let stats = run_multiprogram(&["mcf", "swim"], policy, &cfg, scale()).unwrap();
        let max_committed = stats
            .threads
            .iter()
            .map(|t| t.committed_instructions)
            .max()
            .unwrap();
        assert!(
            max_committed >= scale().instructions_per_thread,
            "{}: did not reach the instruction budget",
            policy.name()
        );
        assert!(stats.cycles > 0);
        for t in &stats.threads {
            assert!(
                t.committed_instructions > 0,
                "{}: a thread starved",
                policy.name()
            );
        }
    }
}

#[test]
fn long_latency_aware_policies_beat_icount_on_mlp_workloads() {
    let policies = [
        FetchPolicyKind::Icount,
        FetchPolicyKind::Flush,
        FetchPolicyKind::MlpFlush,
    ];
    let spec = ExperimentSpec {
        name: "mlp-workloads".to_string(),
        title: "long-latency-aware policies on two MLP-intensive mixes".to_string(),
        paper_ref: String::new(),
        kind: ExperimentKind::PolicyGrid,
        policies: policies.to_vec(),
        workloads: vec![
            vec!["mcf".to_string(), "swim".to_string()],
            vec!["mcf".to_string(), "galgel".to_string()],
        ],
        sweep: None,
        overrides: None,
        chip: None,
        adaptive: None,
        resilience: None,
        sampling: None,
        scale: scale(),
    };
    let report = engine::run_spec(&spec).unwrap();
    // The all-workloads aggregate of each policy, in `policies` order.
    let results: Vec<_> = policies
        .iter()
        .map(|&policy| {
            report
                .summaries
                .iter()
                .find(|row| row.policy == policy && row.group.is_none())
                .unwrap()
        })
        .collect();
    assert!(results.iter().all(|row| row.workloads == 2));
    let (icount, flush, mlp_flush) = (results[0], results[1], results[2]);
    assert!(
        flush.avg_stp > icount.avg_stp,
        "flush STP {} should beat ICOUNT {}",
        flush.avg_stp,
        icount.avg_stp
    );
    assert!(
        mlp_flush.avg_stp > icount.avg_stp,
        "MLP-aware flush STP {} should beat ICOUNT {}",
        mlp_flush.avg_stp,
        icount.avg_stp
    );
    assert!(
        mlp_flush.avg_antt < icount.avg_antt,
        "MLP-aware flush ANTT {} should beat ICOUNT {}",
        mlp_flush.avg_antt,
        icount.avg_antt
    );
    // The headline claim: MLP awareness improves turnaround time over plain flush
    // for MLP-intensive workloads.
    assert!(
        mlp_flush.avg_antt <= flush.avg_antt * 1.02,
        "MLP-aware flush ANTT {} should not be worse than flush {}",
        mlp_flush.avg_antt,
        flush.avg_antt
    );
}

#[test]
fn mlp_flush_beats_icount_on_mlp_intensive_workload() {
    let icount = evaluate(&["mcf", "swim"], FetchPolicyKind::Icount, scale());
    let mlp_flush = evaluate(&["mcf", "swim"], FetchPolicyKind::MlpFlush, scale());
    assert!(
        mlp_flush.stp >= icount.stp * 0.98,
        "MLP-aware flush STP {} should not trail ICOUNT {} on an MLP-intensive mix",
        mlp_flush.stp,
        icount.stp
    );
}

#[test]
fn simulations_are_deterministic() {
    let cfg = SmtConfig::baseline(2);
    let run = || run_multiprogram(&["mcf", "swim"], FetchPolicyKind::MlpFlush, &cfg, scale());
    let (a, b) = (run().unwrap(), run().unwrap());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(
        a.threads[0].committed_instructions,
        b.threads[0].committed_instructions
    );
    let a = evaluate(&["mcf", "swim"], FetchPolicyKind::MlpFlush, scale());
    let b = evaluate(&["mcf", "swim"], FetchPolicyKind::MlpFlush, scale());
    assert_eq!(a.stp, b.stp);
    assert_eq!(a.antt, b.antt);
}

#[test]
fn different_seeds_change_the_timing() {
    let mut other = scale();
    other.seed = 1234;
    let cfg = SmtConfig::baseline(2);
    let cycles = |scale| {
        run_multiprogram(&["mcf", "swim"], FetchPolicyKind::Icount, &cfg, scale)
            .unwrap()
            .cycles
    };
    assert_ne!(cycles(scale()), cycles(other));
}

#[test]
fn four_thread_workload_runs_under_mlp_flush() {
    let cfg = SmtConfig::baseline(4);
    let stats = run_multiprogram(
        &["mcf", "swim", "gcc", "twolf"],
        FetchPolicyKind::MlpFlush,
        &cfg,
        RunScale::tiny(),
    )
    .unwrap();
    assert_eq!(stats.threads.len(), 4);
    for t in &stats.threads {
        assert!(t.committed_instructions > 0);
    }
}

#[test]
fn stp_and_antt_are_within_theoretical_bounds() {
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush] {
        let r = evaluate(&["swim", "twolf"], policy, scale());
        assert!(r.stp > 0.0 && r.stp <= 2.05, "STP {} out of bounds", r.stp);
        assert!(
            r.antt >= 0.85,
            "ANTT {} below the no-slowdown bound",
            r.antt
        );
    }
}

#[test]
fn flush_policies_actually_flush_and_refetch() {
    let cfg = SmtConfig::baseline(2);
    let stats =
        run_multiprogram(&["mcf", "equake"], FetchPolicyKind::Flush, &cfg, scale()).unwrap();
    let squashes: u64 = stats.threads.iter().map(|t| t.squashed_by_policy).sum();
    let flushes: u64 = stats.threads.iter().map(|t| t.policy_flushes).sum();
    assert!(
        flushes > 0,
        "the flush policy never flushed on an MLP-heavy mix"
    );
    assert!(squashes > 0);
    // ICOUNT never flushes.
    let stats =
        run_multiprogram(&["mcf", "equake"], FetchPolicyKind::Icount, &cfg, scale()).unwrap();
    let squashes: u64 = stats.threads.iter().map(|t| t.squashed_by_policy).sum();
    assert_eq!(squashes, 0);
}

#[test]
fn dcra_and_static_partitioning_respect_thread_progress() {
    let cfg = SmtConfig::baseline(2);
    for policy in [FetchPolicyKind::StaticPartition, FetchPolicyKind::Dcra] {
        let stats = run_multiprogram(&["mcf", "gcc"], policy, &cfg, scale()).unwrap();
        for t in &stats.threads {
            assert!(
                t.committed_instructions > scale().instructions_per_thread / 20,
                "{}: a thread made almost no progress",
                policy.name()
            );
        }
    }
}
