//! The declarative experiment API: every table and figure of the paper's
//! evaluation as data, run by one engine.
//!
//! [`registry`] exposes each table/figure as a named, serde-serializable
//! [`spec::ExperimentSpec`]. The [`engine`] expands a spec into its cells and
//! runs them in parallel across OS threads through
//! [`crate::runner::evaluate_cell`], with a shared single-threaded reference
//! cache, producing a uniform [`report::ExperimentReport`].
//! [`characterization`] holds the Table I measurement behind the
//! `table1_characterization` rows.

pub mod characterization;
pub mod engine;
pub mod registry;
pub mod report;
pub mod spec;

pub use characterization::{characterize, Table1Row};
pub use engine::{run_spec, run_spec_with_threads};
pub use registry::{ExperimentRegistry, ALTERNATIVE_POLICIES};
pub use report::{BenchRow, ExperimentReport, PolicyCell, SummaryRow};
pub use spec::{
    ChipSpec, ConfigOverrides, ExperimentKind, ExperimentSpec, SamplingSpec, SweepParameter,
    SweepSpec,
};

// Figure-level checks run end to end through the registry specs: the policy
// comparison (Figures 9-12), the predictor figures (4 and 6) and the
// machine-parameter sweeps (Figures 15-18).

#[cfg(test)]
mod policies {
    mod tests {
        use smt_types::config::FetchPolicyKind;

        use crate::experiments::{engine, ExperimentRegistry, ExperimentSpec};
        use crate::runner::RunScale;
        use crate::workloads::{Workload, WorkloadGroup};

        fn fig09() -> ExperimentSpec {
            ExperimentRegistry::builtin()
                .get("fig09_two_thread_policies")
                .unwrap()
                .clone()
                .with_scale(RunScale::tiny())
        }

        #[test]
        fn two_thread_selection_respects_per_group_limit() {
            // Table II: twelve workloads in each of the ILP, MLP and mixed groups.
            let limited = fig09().with_workload_limit_per_group(2).unwrap();
            assert_eq!(limited.workloads.len(), 6);
            let all = fig09().with_workload_limit_per_group(usize::MAX).unwrap();
            assert_eq!(all.workloads.len(), 36);
        }

        #[test]
        fn ipc_stacks_have_one_entry_per_policy() {
            // Figures 11/12: per-thread IPC stacks of the first MLP-intensive
            // workload.
            let mut spec = fig09().with_workload_limit_per_group(1).unwrap();
            spec.workloads.retain(|benchmarks| {
                Workload::new(benchmarks.clone()).unwrap().group == WorkloadGroup::MlpIntensive
            });
            assert_eq!(spec.workloads.len(), 1);
            let report = engine::run_spec_with_threads(&spec, 2).unwrap();
            assert_eq!(
                report.policy_cells.len(),
                FetchPolicyKind::MAIN_COMPARISON.len()
            );
            for (cell, policy) in report
                .policy_cells
                .iter()
                .zip(FetchPolicyKind::MAIN_COMPARISON)
            {
                assert_eq!(cell.policy, policy);
                assert_eq!(cell.group, WorkloadGroup::MlpIntensive.label());
                assert_eq!(cell.per_thread_ipc.len(), 2);
                assert!(
                    cell.per_thread_ipc.iter().all(|&v| v > 0.0),
                    "{}: {:?}",
                    policy.name(),
                    cell.per_thread_ipc
                );
            }
        }

        #[test]
        fn format_output_mentions_every_policy() {
            let spec = fig09().with_workload_limit_per_group(1).unwrap();
            let report = engine::run_spec_with_threads(&spec, 2).unwrap();
            let text = report.format_text();
            for p in FetchPolicyKind::MAIN_COMPARISON {
                assert!(text.contains(p.name()), "missing {}", p.name());
            }
            for group in [
                WorkloadGroup::IlpIntensive,
                WorkloadGroup::MlpIntensive,
                WorkloadGroup::Mixed,
            ] {
                assert!(
                    report
                        .summaries
                        .iter()
                        .any(|r| r.group.as_deref() == Some(group.label())),
                    "no {} summary rows",
                    group.label()
                );
                assert!(
                    text.contains(&format!("  {:<5}  ", group.label())),
                    "missing {} rows in\n{text}",
                    group.label()
                );
            }
        }
    }
}

#[cfg(test)]
mod predictors {
    mod tests {
        use smt_types::SmtConfig;

        use crate::experiments::{engine, ExperimentRegistry};
        use crate::metrics::cdf_fraction_within;
        use crate::runner::{run_single_thread, RunScale};

        #[test]
        fn lll_predictor_is_accurate_on_memory_intensive_benchmark() {
            let config = SmtConfig::baseline(1).with_prefetcher(false);
            let stats = run_single_thread("swim", &config, RunScale::test()).unwrap();
            let acc = stats.threads[0].lll_predictor_accuracy();
            assert!(acc > 0.90, "swim long-latency predictor accuracy {acc}");
        }

        #[test]
        fn figure4_cdf_reaches_one_and_orders_lucas_before_mcf() {
            let spec = ExperimentRegistry::builtin()
                .get("fig04_mlp_distance_cdf")
                .unwrap()
                .clone()
                .with_scale(RunScale::test());
            let report = engine::run_spec_with_threads(&spec, 2).unwrap();
            assert_eq!(report.bench_rows.len(), 6);
            let cdf = |name: &str| {
                let row = report.bench_rows.iter().find(|r| r.benchmark == name);
                row.unwrap().mlp_distance_cdf.clone().unwrap()
            };
            let (lucas, mcf) = (cdf("lucas"), cdf("mcf"));
            assert!(!lucas.is_empty() && !mcf.is_empty());
            assert!((lucas.last().unwrap().1 - 1.0).abs() < 1e-9);
            // lucas exposes its MLP over short distances, mcf over long
            // distances (Section 4.2): at 48 instructions lucas has seen most
            // of its MLP.
            let (lucas_48, mcf_48) = (
                cdf_fraction_within(&lucas, 48),
                cdf_fraction_within(&mcf, 48),
            );
            assert!(lucas_48 > mcf_48, "lucas {lucas_48} vs mcf {mcf_48}");
        }
    }
}

#[cfg(test)]
mod sweeps {
    mod tests {
        use smt_types::config::FetchPolicyKind;

        use crate::experiments::{
            engine, ExperimentRegistry, ExperimentReport, ExperimentSpec, SummaryRow,
        };
        use crate::runner::RunScale;

        fn sweep_spec(name: &str, values: &[u64]) -> ExperimentSpec {
            let mut spec = ExperimentRegistry::builtin()
                .get(name)
                .unwrap()
                .clone()
                .with_scale(RunScale::tiny());
            spec.sweep.as_mut().unwrap().values = values.to_vec();
            spec
        }

        /// The all-workloads summary rows at one sweep point.
        fn overall_rows(report: &ExperimentReport, value: u64) -> Vec<&SummaryRow> {
            report
                .summaries
                .iter()
                .filter(|r| r.group.is_none() && r.parameter == Some(value))
                .collect()
        }

        fn overall(report: &ExperimentReport, value: u64, policy: FetchPolicyKind) -> &SummaryRow {
            overall_rows(report, value)
                .into_iter()
                .find(|r| r.policy == policy)
                .unwrap()
        }

        #[test]
        fn memory_latency_sweep_produces_points() {
            let spec = sweep_spec("fig15_memory_latency_sweep", &[200, 600]);
            let report = engine::run_spec_with_threads(&spec, 2).unwrap();
            assert!(report
                .summaries
                .iter()
                .all(|r| matches!(r.parameter, Some(200 | 600))));
            for value in [200, 600] {
                assert_eq!(
                    overall_rows(&report, value).len(),
                    FetchPolicyKind::MAIN_COMPARISON.len()
                );
                let rel = overall(&report, value, FetchPolicyKind::MlpFlush).avg_stp
                    / overall(&report, value, FetchPolicyKind::Icount).avg_stp;
                assert!(
                    rel > 0.5 && rel < 2.0,
                    "relative STP {rel} out of range at {value}"
                );
            }
            assert!(report.format_text().contains("mlp-flush"));
        }

        #[test]
        fn window_sweep_scales_configuration() {
            let spec = sweep_spec("fig17_window_size_sweep", &[128]);
            assert_eq!(spec.config_for(2, Some(128)).rob_size, 128);
            let report = engine::run_spec_with_threads(&spec, 2).unwrap();
            assert!(report.summaries.iter().all(|r| r.parameter == Some(128)));
            let rel = overall(&report, 128, FetchPolicyKind::Flush).avg_antt
                / overall(&report, 128, FetchPolicyKind::Icount).avg_antt;
            assert!(
                rel.is_finite() && rel > 0.0,
                "relative ANTT {rel} at window 128"
            );
        }
    }
}
