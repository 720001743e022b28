//! Consistency checks of the STP/ANTT methodology across the runner and metrics
//! modules.

use smt_core::experiments::PolicyCell;
use smt_core::metrics::{antt, arithmetic_mean, harmonic_mean, stp};
use smt_core::runner::{
    evaluate_cell, run_multiprogram, run_single_thread, CellSpec, CheckpointCache, RunScale,
    StReferenceCache,
};
use smt_core::workloads::Workload;
use smt_types::config::FetchPolicyKind;
use smt_types::SmtConfig;

/// One exact cell on the baseline configuration.
fn evaluate(benchmarks: &[&str], policy: FetchPolicyKind, scale: RunScale) -> PolicyCell {
    let workload = Workload::new(benchmarks.to_vec()).unwrap();
    let cell = CellSpec::baseline(&workload, policy, scale);
    evaluate_cell(&cell, &StReferenceCache::new(), &CheckpointCache::new()).unwrap()
}

#[test]
fn stp_and_antt_agree_with_manual_computation() {
    let r = evaluate(&["gcc", "gap"], FetchPolicyKind::Icount, RunScale::tiny());
    let st_cpi: Vec<f64> = r.per_thread_st_ipc.iter().map(|ipc| 1.0 / ipc).collect();
    let mt_cpi: Vec<f64> = r.per_thread_ipc.iter().map(|ipc| 1.0 / ipc).collect();
    assert!((stp(&st_cpi, &mt_cpi) - r.stp).abs() < 1e-9);
    assert!((antt(&st_cpi, &mt_cpi) - r.antt).abs() < 1e-9);
}

#[test]
fn single_thread_execution_is_an_upper_bound_for_per_thread_ipc() {
    // Running together can never make an individual program faster than running
    // alone by more than measurement noise (cache warm-up differences).
    let r = evaluate(
        &["swim", "twolf"],
        FetchPolicyKind::Icount,
        RunScale::test(),
    );
    for (mt, st) in r.per_thread_ipc.iter().zip(&r.per_thread_st_ipc) {
        assert!(
            mt <= &(st * 1.15),
            "a co-scheduled program should not be faster than running alone: MT {mt} vs ST {st}"
        );
    }
}

#[test]
fn harmonic_mean_is_never_above_arithmetic_mean() {
    let values = [1.3, 0.9, 2.4, 1.7];
    assert!(harmonic_mean(&values) <= arithmetic_mean(&values) + 1e-12);
}

#[test]
fn identical_benchmarks_share_the_machine_roughly_equally() {
    // Two copies of the same benchmark under ICOUNT should commit similar
    // instruction counts (no starvation).
    let stats = run_multiprogram(
        &["gcc", "gcc"],
        FetchPolicyKind::Icount,
        &SmtConfig::baseline(2),
        RunScale::test(),
    )
    .unwrap();
    let a = stats.threads[0].committed_instructions as f64;
    let b = stats.threads[1].committed_instructions as f64;
    let ratio = a.max(b) / a.min(b);
    assert!(ratio < 1.6, "identical threads diverged: {a} vs {b}");
}

#[test]
fn st_reference_runs_are_policy_independent() {
    // The single-threaded reference CPI depends only on the benchmark and the
    // configuration, not on the SMT fetch policy being evaluated. Because each
    // policy stops its co-runners at different instruction counts, the reference
    // CPIs are sampled at different points of the same curve; they must still be
    // positive and of the same magnitude.
    let icount = evaluate(
        &["swim", "twolf"],
        FetchPolicyKind::Icount,
        RunScale::test(),
    );
    let flush = evaluate(&["swim", "twolf"], FetchPolicyKind::Flush, RunScale::test());
    for (a, b) in icount
        .per_thread_st_ipc
        .iter()
        .zip(&flush.per_thread_st_ipc)
    {
        assert!(a > &0.0 && b > &0.0);
        let ratio = (a / b).max(b / a);
        assert!(ratio < 2.0, "ST references diverged: {a} vs {b}");
    }
}

#[test]
fn single_thread_stats_are_self_consistent() {
    let cfg = SmtConfig::baseline(1);
    let stats = run_single_thread("equake", &cfg, RunScale::test()).unwrap();
    let t = &stats.threads[0];
    assert!(t.loads + t.stores <= t.committed_instructions);
    assert!(t.long_latency_loads <= t.loads);
    assert!(t.l2_load_misses <= t.l1d_load_misses);
    assert!(t.l3_load_misses <= t.l2_load_misses);
    assert!(t.branch_mispredictions <= t.branches + 64);
    // Statistics are reset after the warm-up phase, so instructions fetched during
    // warm-up but committed afterwards leave `fetched` slightly below `committed`;
    // the gap is bounded by the in-flight window.
    assert!(t.fetched_instructions + 1024 >= t.committed_instructions);
    assert!(t.mlp_cycles <= stats.cycles);
}
