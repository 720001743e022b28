//! Integration tests of the declarative experiment API: registry entries
//! against direct evaluations on the paper's configurations, spec
//! serialization round-trips, and exactly-once semantics of the shared
//! single-threaded reference cache under concurrency.
//!
//! The "legacy" tests rebuild what the retired per-figure entry points
//! computed — each workload evaluated on its own through
//! [`runner::evaluate_cell`] on the Table IV baseline, then averaged — and
//! require the registry entry's report to reproduce it, which pins that each
//! entry runs the paper's configuration, policies and workload groups.
//! Report stability itself is pinned by `tests/registry_reports.rs`.

use smt_core::experiments::{
    characterization, engine, ExperimentRegistry, ExperimentReport, ExperimentSpec, PolicyCell,
    SummaryRow, ALTERNATIVE_POLICIES,
};
use smt_core::metrics::{arithmetic_mean, harmonic_mean};
use smt_core::runner::{
    self, run_single_thread, CellMachine, CellSpec, CheckpointCache, RunScale, StReferenceCache,
};
use smt_core::workloads::{
    four_thread_workloads, representative_two_thread_workloads, two_thread_workloads, Workload,
    WorkloadGroup,
};
use smt_types::config::FetchPolicyKind;
use smt_types::SmtConfig;

const TOLERANCE: f64 = 1e-12;

const PARTITIONING: [FetchPolicyKind; 3] = [
    FetchPolicyKind::MlpFlush,
    FetchPolicyKind::StaticPartition,
    FetchPolicyKind::Dcra,
];

fn scale() -> RunScale {
    RunScale::tiny()
}

fn spec(name: &str) -> ExperimentSpec {
    ExperimentRegistry::builtin()
        .get(name)
        .unwrap_or_else(|| panic!("registry entry `{name}` missing"))
        .clone()
        .with_scale(scale())
}

fn summary<'a>(
    report: &'a ExperimentReport,
    policy: FetchPolicyKind,
    group: Option<&str>,
    parameter: Option<u64>,
) -> &'a SummaryRow {
    report
        .summaries
        .iter()
        .find(|row| {
            row.policy == policy && row.group.as_deref() == group && row.parameter == parameter
        })
        .unwrap_or_else(|| panic!("no summary for {policy:?} {group:?} {parameter:?}"))
}

/// One workload evaluated on its own on `config`.
fn direct_cell(workload: &Workload, policy: FetchPolicyKind, config: &SmtConfig) -> PolicyCell {
    let cell = CellSpec {
        machine: CellMachine::Core(config.clone()),
        ..CellSpec::baseline(workload, policy, scale())
    };
    runner::evaluate_cell(&cell, &StReferenceCache::new(), &CheckpointCache::new()).unwrap()
}

/// Requires `row` to aggregate `workloads` under `row.policy` on `config`:
/// harmonic-mean STP and arithmetic-mean ANTT of the direct evaluations.
fn assert_row_matches(row: &SummaryRow, workloads: &[Workload], config: &SmtConfig) {
    let cells: Vec<PolicyCell> = workloads
        .iter()
        .map(|w| direct_cell(w, row.policy, config))
        .collect();
    let stps: Vec<f64> = cells.iter().map(|c| c.stp).collect();
    let antts: Vec<f64> = cells.iter().map(|c| c.antt).collect();
    assert_eq!(row.workloads, workloads.len() as u64);
    assert!(
        (row.avg_stp - harmonic_mean(&stps)).abs() < TOLERANCE,
        "{:?}/{:?}: engine STP {} vs direct {}",
        row.policy,
        row.group,
        row.avg_stp,
        harmonic_mean(&stps)
    );
    assert!(
        (row.avg_antt - arithmetic_mean(&antts)).abs() < TOLERANCE,
        "{:?}/{:?}: engine ANTT {} vs direct {}",
        row.policy,
        row.group,
        row.avg_antt,
        arithmetic_mean(&antts)
    );
}

/// Per group, the first `per_group` Table II two-thread workloads.
fn two_thread_groups(per_group: usize) -> Vec<(WorkloadGroup, Vec<Workload>)> {
    [
        WorkloadGroup::IlpIntensive,
        WorkloadGroup::MlpIntensive,
        WorkloadGroup::Mixed,
    ]
    .into_iter()
    .map(|group| {
        let workloads = two_thread_workloads()
            .into_iter()
            .filter(|w| w.group == group)
            .take(per_group)
            .collect();
        (group, workloads)
    })
    .collect()
}

/// Runs a two-thread registry entry at one workload per group and checks
/// every (policy, group) row against the direct evaluation.
fn assert_two_thread_entry_matches(name: &str, policies: &[FetchPolicyKind]) {
    let report = engine::run_spec(&spec(name).with_workload_limit_per_group(1).unwrap()).unwrap();
    let config = SmtConfig::baseline(2);
    for (group, workloads) in two_thread_groups(1) {
        for &policy in policies {
            let row = summary(&report, policy, Some(group.label()), None);
            assert_row_matches(row, &workloads, &config);
        }
    }
}

#[test]
fn fig09_spec_matches_legacy_two_thread_comparison() {
    assert_two_thread_entry_matches(
        "fig09_two_thread_policies",
        &FetchPolicyKind::MAIN_COMPARISON,
    );
}

#[test]
fn fig09_cells_reproduce_legacy_ipc_stacks() {
    // The first MLP-intensive Table II workload: the Figure 11/12 IPC stacks
    // are the per-thread IPCs of its cells.
    let (_, mlp) = &two_thread_groups(1)[1];
    let mut fig09 = spec("fig09_two_thread_policies");
    fig09.workloads = vec![mlp[0].benchmarks.clone()];
    assert_eq!(mlp[0].name(), "apsi-mesa");
    let report = engine::run_spec(&fig09).unwrap();
    assert_eq!(
        report.policy_cells.len(),
        FetchPolicyKind::MAIN_COMPARISON.len()
    );
    for cell in &report.policy_cells {
        let direct = direct_cell(&mlp[0], cell.policy, &SmtConfig::baseline(2));
        assert_eq!(
            cell.per_thread_ipc, direct.per_thread_ipc,
            "{:?}",
            cell.policy
        );
    }
}

#[test]
fn fig13_spec_matches_legacy_four_thread_comparison() {
    let report =
        engine::run_spec(&spec("fig13_four_thread_policies").with_workload_limit(2)).unwrap();
    let workloads: Vec<Workload> = four_thread_workloads().into_iter().take(2).collect();
    for policy in FetchPolicyKind::MAIN_COMPARISON {
        let row = summary(&report, policy, None, None);
        assert_row_matches(row, &workloads, &SmtConfig::baseline(4));
    }
}

#[test]
fn fig15_spec_matches_legacy_memory_latency_sweep() {
    let mut sweep_spec = spec("fig15_memory_latency_sweep");
    sweep_spec.sweep.as_mut().unwrap().values = vec![200];
    let report = engine::run_spec(&sweep_spec).unwrap();
    let config = SmtConfig::baseline(2).with_memory_latency(200);
    for policy in FetchPolicyKind::MAIN_COMPARISON {
        let row = summary(&report, policy, None, Some(200));
        assert_row_matches(row, &representative_two_thread_workloads(), &config);
    }
}

#[test]
fn fig20_spec_matches_legacy_alternative_policies() {
    assert_two_thread_entry_matches("fig20_alternative_policies", &ALTERNATIVE_POLICIES);
}

#[test]
fn fig22_specs_match_legacy_partitioning_comparison() {
    assert_two_thread_entry_matches("fig22_partitioning_two_thread", &PARTITIONING);
    let four =
        engine::run_spec(&spec("fig22_partitioning_four_thread").with_workload_limit(1)).unwrap();
    let workloads: Vec<Workload> = four_thread_workloads().into_iter().take(1).collect();
    for policy in PARTITIONING {
        let row = summary(&four, policy, None, None);
        assert_row_matches(row, &workloads, &SmtConfig::baseline(4));
    }
}

#[test]
fn table1_spec_matches_legacy_characterization() {
    let mut characterization_spec = spec("table1_characterization");
    characterization_spec.workloads = vec![vec!["mcf".to_string()], vec!["bzip2".to_string()]];
    let report = engine::run_spec(&characterization_spec).unwrap();
    for row in &report.bench_rows {
        let direct = characterization::characterize(&row.benchmark, scale()).unwrap();
        assert_eq!(
            row.lll_per_kinst,
            Some(direct.lll_per_kinst),
            "{}",
            row.benchmark
        );
        assert_eq!(row.mlp, Some(direct.mlp));
        assert_eq!(row.mlp_impact, Some(direct.mlp_impact));
        assert_eq!(row.class.as_deref(), Some(direct.measured_class.label()));
        assert_eq!(row.ipc, direct.ipc);
    }
}

#[test]
fn fig04_and_fig05_specs_match_legacy_rows() {
    // Figure 4: a 256-entry ROB with a 128-entry LLSR.
    let mut cdf_spec = spec("fig04_mlp_distance_cdf");
    cdf_spec.workloads.truncate(2);
    let report = engine::run_spec(&cdf_spec).unwrap();
    let mut cdf_config = SmtConfig::baseline(1);
    cdf_config.llsr_length_override = Some(128);
    for row in &report.bench_rows {
        let stats = run_single_thread(&row.benchmark, &cdf_config, scale()).unwrap();
        let cdf = stats.threads[0].mlp_distance_cdf();
        assert_eq!(
            row.mlp_distance_cdf.as_ref(),
            Some(&cdf),
            "{}",
            row.benchmark
        );
    }

    // Figure 5: the same benchmark with and without the prefetcher.
    let mut prefetch_spec = spec("fig05_prefetcher");
    prefetch_spec.workloads = vec![vec!["swim".to_string()]];
    let report = engine::run_spec(&prefetch_spec).unwrap();
    let ipc = |prefetcher| {
        let config = SmtConfig::baseline(1).with_prefetcher(prefetcher);
        let stats = run_single_thread("swim", &config, scale()).unwrap();
        stats.threads[0].ipc(stats.cycles)
    };
    assert_eq!(report.bench_rows[0].ipc, ipc(true));
    assert_eq!(report.bench_rows[0].ipc_without_prefetch, Some(ipc(false)));
}

#[test]
fn fig06_08_spec_matches_legacy_predictor_characterization() {
    let mut predictor_spec = spec("fig06_08_predictor_accuracy");
    predictor_spec.workloads = vec![vec!["swim".to_string()], vec!["mcf".to_string()]];
    let report = engine::run_spec(&predictor_spec).unwrap();
    // Predictors are characterized on the raw miss stream (prefetcher off).
    let config = SmtConfig::baseline(1).with_prefetcher(false);
    for row in &report.bench_rows {
        let stats = run_single_thread(&row.benchmark, &config, scale()).unwrap();
        let t = &stats.threads[0];
        assert_eq!(row.lll_accuracy, Some(t.lll_predictor_accuracy()));
        assert_eq!(row.lll_miss_accuracy, Some(t.lll_predictor_miss_accuracy()));
        let outcomes = (t.mlp_pred_true_positive
            + t.mlp_pred_true_negative
            + t.mlp_pred_false_positive
            + t.mlp_pred_false_negative)
            .max(1) as f64;
        let correct = (t.mlp_pred_true_positive + t.mlp_pred_true_negative) as f64 / outcomes;
        assert!((row.mlp_accuracy.unwrap() - correct).abs() < TOLERANCE);
        assert_eq!(row.mlp_distance_accuracy, Some(t.mlp_distance_accuracy()));
    }
}

#[test]
fn report_round_trips_through_json_and_toml() {
    let report = engine::run_spec(
        &spec("fig09_two_thread_policies")
            .with_workload_limit_per_group(1)
            .unwrap(),
    )
    .unwrap();
    let json = report.to_json().unwrap();
    let from_json: ExperimentReport = serde_json::from_str(&json).unwrap();
    assert_eq!(from_json, report);
    let toml_text = report.to_toml().unwrap();
    let from_toml: ExperimentReport = toml::from_str(&toml_text).unwrap();
    assert_eq!(from_toml, report);
}

#[test]
fn shared_reference_cache_simulates_each_reference_exactly_once() {
    let cache = StReferenceCache::new();
    let run_scale = scale();
    let baseline = SmtConfig::baseline(2);
    let slow_memory = baseline.clone().with_memory_latency(600);
    // 4 benchmarks x 2 configurations = 8 distinct references.
    let benchmarks = ["mcf", "swim", "gcc", "gap"];
    let configs = [&baseline, &slow_memory];
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let cache = &cache;
            let configs = &configs;
            scope.spawn(move || {
                // Each worker asks for every reference, in a different order.
                for step in 0..benchmarks.len() * configs.len() {
                    let index = (step + worker) % (benchmarks.len() * configs.len());
                    let benchmark = benchmarks[index % benchmarks.len()];
                    let config = configs[index / benchmarks.len()];
                    let cpi = cache.st_cpi(benchmark, config, run_scale, 1_000).unwrap();
                    assert!(cpi > 0.0);
                }
            });
        }
    });
    assert_eq!(
        cache.reference_runs(),
        8,
        "every reference must be simulated exactly once across 8 threads"
    );
}

#[test]
fn engine_results_do_not_depend_on_thread_count() {
    let grid_spec = spec("fig09_two_thread_policies")
        .with_workload_limit_per_group(1)
        .unwrap();
    let serial = engine::run_spec_with_threads(&grid_spec, 1).unwrap();
    let parallel = engine::run_spec_with_threads(&grid_spec, 8).unwrap();
    assert_eq!(serial.policy_cells, parallel.policy_cells);
    assert_eq!(serial.summaries, parallel.summaries);
    assert_eq!(serial.reference_runs, parallel.reference_runs);
}
