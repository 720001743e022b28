//! The named registry of built-in experiments.
//!
//! Every table and figure of the paper's evaluation section is exposed as an
//! introspectable [`ExperimentSpec`] keyed by a stable name
//! (`table1_characterization`, `fig09_two_thread_policies`, …). The CLI
//! (`smt-cli list | describe | run`) and the bench harness drive experiments
//! exclusively through this registry; `EXPERIMENTS.md` documents each entry.

use smt_sched::AllocationPolicyKind;
use smt_trace::spec as trace_spec;
use smt_types::config::FetchPolicyKind;

use crate::experiments::spec::{
    ChipSpec, ExperimentKind, ExperimentSpec, SamplingSpec, SweepParameter, SweepSpec,
};
use crate::runner::RunScale;
use crate::workloads::{
    four_thread_workloads, representative_two_thread_workloads, two_thread_workloads, Workload,
};

/// The five alternative policies of Figures 20/21: (a) flush, (b) MLP distance +
/// flush, (c) binary MLP + flush, (d) MLP distance + flush at resource stall,
/// (e) binary MLP + flush at resource stall.
pub const ALTERNATIVE_POLICIES: [FetchPolicyKind; 5] = [
    FetchPolicyKind::Flush,
    FetchPolicyKind::MlpFlush,
    FetchPolicyKind::MlpBinaryFlush,
    FetchPolicyKind::MlpDistanceFlushAtStall,
    FetchPolicyKind::MlpBinaryFlushAtStall,
];

/// A named collection of ready-to-run experiment specs.
#[derive(Clone, Debug)]
pub struct ExperimentRegistry {
    specs: Vec<ExperimentSpec>,
}

impl ExperimentRegistry {
    /// Builds the registry of all built-in (paper) experiments, at the
    /// default [`RunScale::standard`] scale.
    pub fn builtin() -> Self {
        let two_thread = workload_names(&two_thread_workloads());
        let four_thread = workload_names(&four_thread_workloads());
        let representative = workload_names(&representative_two_thread_workloads());
        let all_benchmarks: Vec<Vec<String>> = trace_spec::all_benchmarks()
            .into_iter()
            .map(|profile| vec![profile.name])
            .collect();
        let figure4: Vec<Vec<String>> = trace_spec::figure4_benchmarks()
            .into_iter()
            .map(|name| vec![name.to_string()])
            .collect();
        let partitioning = vec![
            FetchPolicyKind::MlpFlush,
            FetchPolicyKind::StaticPartition,
            FetchPolicyKind::Dcra,
        ];

        let specs = vec![
            single_thread(
                "table1_characterization",
                "Per-benchmark MLP characterization: long-latency loads per 1K instructions, \
                 MLP, and MLP impact",
                "Table I / Figure 1",
                ExperimentKind::Characterization,
                all_benchmarks.clone(),
            ),
            single_thread(
                "fig04_mlp_distance_cdf",
                "Predicted MLP-distance CDFs for the six most MLP-intensive benchmarks",
                "Figure 4",
                ExperimentKind::MlpDistanceCdf,
                figure4,
            ),
            single_thread(
                "fig05_prefetcher",
                "Single-thread IPC with and without the stream-buffer prefetcher",
                "Figure 5",
                ExperimentKind::PrefetcherImpact,
                all_benchmarks.clone(),
            ),
            single_thread(
                "fig06_08_predictor_accuracy",
                "Long-latency load, binary MLP, and MLP-distance predictor accuracies",
                "Figures 6-8",
                ExperimentKind::PredictorAccuracy,
                all_benchmarks,
            ),
            grid(
                "fig09_two_thread_policies",
                "STP and ANTT of the six main fetch policies over the Table II two-thread \
                 workloads (per-thread IPCs give Figures 11/12)",
                "Figures 9-12",
                FetchPolicyKind::MAIN_COMPARISON.to_vec(),
                two_thread.clone(),
                None,
            ),
            grid(
                "fig13_four_thread_policies",
                "STP and ANTT of the six main fetch policies over the Table III four-thread \
                 workloads",
                "Figures 13/14",
                FetchPolicyKind::MAIN_COMPARISON.to_vec(),
                four_thread.clone(),
                None,
            ),
            grid(
                "fig15_memory_latency_sweep",
                "Main-memory latency sweep (200-800 cycles) over representative two-thread \
                 workloads",
                "Figures 15/16",
                FetchPolicyKind::MAIN_COMPARISON.to_vec(),
                representative.clone(),
                Some(SweepSpec {
                    parameter: SweepParameter::MemoryLatency,
                    values: vec![200, 400, 600, 800],
                }),
            ),
            grid(
                "fig17_window_size_sweep",
                "Window size sweep (128-1024 ROB entries, resources scaled proportionally) \
                 over representative two-thread workloads",
                "Figures 17/18",
                FetchPolicyKind::MAIN_COMPARISON.to_vec(),
                representative,
                Some(SweepSpec {
                    parameter: SweepParameter::WindowSize,
                    values: vec![128, 256, 512, 1024],
                }),
            ),
            {
                let mut spec = grid(
                    "sampled_4t_policies",
                    "Sampled-mode STP and ANTT of ICOUNT versus MLP-aware flush over the \
                     Table III four-thread workloads: SMARTS-style fast-forward/measure \
                     interleaving, shared warm checkpoints, per-metric confidence intervals",
                    "Figures 13/14",
                    vec![FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush],
                    four_thread.clone(),
                    None,
                );
                spec.sampling = Some(SamplingSpec::default());
                spec
            },
            grid(
                "fig20_alternative_policies",
                "The five alternative MLP-aware flush policies over the Table II two-thread \
                 workloads",
                "Figures 20/21",
                ALTERNATIVE_POLICIES.to_vec(),
                two_thread.clone(),
                None,
            ),
            grid(
                "fig22_partitioning_two_thread",
                "MLP-aware flush versus static partitioning and DCRA, two-thread workloads",
                "Figures 22/23",
                partitioning.clone(),
                two_thread,
                None,
            ),
            grid(
                "fig22_partitioning_four_thread",
                "MLP-aware flush versus static partitioning and DCRA, four-thread workloads",
                "Figures 22/23",
                partitioning,
                four_thread,
                None,
            ),
            chip_grid(
                "chip_2c2t_allocation_matrix",
                "Fetch policy x thread-to-core allocation matrix on a 2-core x 2-thread chip with a shared LLC and contended memory bus",
                2,
                vec![
                    vec_of(&["mcf", "swim", "perlbmk", "mesa"]),
                    vec_of(&["vortex", "parser", "crafty", "twolf"]),
                    vec_of(&["applu", "galgel", "swim", "mesa"]),
                    vec_of(&["mcf", "galgel", "vortex", "gcc"]),
                ],
            ),
            grid(
                "trace_2t_replay",
                "ICOUNT versus MLP-aware flush on a two-thread workload replayed from the \
                 checked-in `.smtt` golden trace: the trace-driven ingestion path exercised \
                 end to end from on-disk records",
                "",
                vec![FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush],
                vec![vec_of(&[
                    "trace:tests/golden/trace_2t_replay.smtt",
                    "trace:tests/golden/trace_2t_replay.smtt",
                ])],
                None,
            ),
            chip_grid(
                "chip_4c2t_allocation_matrix",
                "Fetch policy x thread-to-core allocation matrix on a 4-core x 2-thread chip with a shared LLC and contended memory bus",
                4,
                vec![
                    vec_of(&[
                        "mcf", "swim", "perlbmk", "mesa", "vortex", "parser", "crafty", "twolf",
                    ]),
                    vec_of(&[
                        "applu", "galgel", "swim", "mesa", "gzip", "wupwise", "apsi", "twolf",
                    ]),
                ],
            ),
        ];
        ExperimentRegistry { specs }
    }

    /// The specs in registration (paper) order.
    pub fn specs(&self) -> &[ExperimentSpec] {
        &self.specs
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.specs.iter().map(|s| s.name.as_str()).collect()
    }

    /// Looks up one spec by name.
    pub fn get(&self, name: &str) -> Option<&ExperimentSpec> {
        self.specs.iter().find(|s| s.name == name)
    }
}

impl Default for ExperimentRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

fn workload_names(workloads: &[Workload]) -> Vec<Vec<String>> {
    workloads.iter().map(|w| w.benchmarks.clone()).collect()
}

fn vec_of(benchmarks: &[&str]) -> Vec<String> {
    benchmarks.iter().map(|b| b.to_string()).collect()
}

/// A chip-level policy x allocation matrix over the paper's two headline
/// fetch policies and every implemented allocation policy.
fn chip_grid(
    name: &str,
    title: &str,
    num_cores: usize,
    workloads: Vec<Vec<String>>,
) -> ExperimentSpec {
    ExperimentSpec {
        name: name.to_string(),
        title: title.to_string(),
        paper_ref: String::new(),
        kind: ExperimentKind::ChipGrid,
        policies: vec![FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush],
        workloads,
        sweep: None,
        overrides: None,
        chip: Some(ChipSpec {
            num_cores,
            allocations: AllocationPolicyKind::ALL.to_vec(),
            bus_bytes_per_cycle: 16,
            shared_llc: None,
            chip_threads: None,
        }),
        adaptive: None,
        resilience: None,
        sampling: None,
        scale: RunScale::standard(),
    }
}

fn single_thread(
    name: &str,
    title: &str,
    paper_ref: &str,
    kind: ExperimentKind,
    workloads: Vec<Vec<String>>,
) -> ExperimentSpec {
    ExperimentSpec {
        name: name.to_string(),
        title: title.to_string(),
        paper_ref: paper_ref.to_string(),
        kind,
        policies: Vec::new(),
        workloads,
        sweep: None,
        overrides: None,
        chip: None,
        adaptive: None,
        resilience: None,
        sampling: None,
        scale: RunScale::standard(),
    }
}

fn grid(
    name: &str,
    title: &str,
    paper_ref: &str,
    policies: Vec<FetchPolicyKind>,
    workloads: Vec<Vec<String>>,
    sweep: Option<SweepSpec>,
) -> ExperimentSpec {
    ExperimentSpec {
        name: name.to_string(),
        title: title.to_string(),
        paper_ref: paper_ref.to_string(),
        kind: ExperimentKind::PolicyGrid,
        policies,
        workloads,
        sweep,
        overrides: None,
        chip: None,
        adaptive: None,
        resilience: None,
        sampling: None,
        scale: RunScale::standard(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_spec_validates() {
        let registry = ExperimentRegistry::builtin();
        assert!(registry.specs().len() >= 12);
        for spec in registry.specs() {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn names_are_unique_and_lookup_works() {
        let registry = ExperimentRegistry::builtin();
        let names = registry.names();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        let fig09 = registry.get("fig09_two_thread_policies").unwrap();
        assert_eq!(fig09.workloads.len(), 36);
        assert_eq!(fig09.policies.len(), 6);
        assert!(registry.get("fig99_imaginary").is_none());
    }

    #[test]
    fn every_builtin_spec_round_trips_through_toml() {
        for spec in ExperimentRegistry::builtin().specs() {
            let text = toml::to_string(spec).unwrap();
            let back: ExperimentSpec =
                toml::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(&back, spec, "{} did not round-trip", spec.name);
        }
    }

    #[test]
    fn chip_matrices_cover_policies_and_allocations() {
        let registry = ExperimentRegistry::builtin();
        for (name, cores, threads) in [
            ("chip_2c2t_allocation_matrix", 2usize, 4usize),
            ("chip_4c2t_allocation_matrix", 4, 8),
        ] {
            let spec = registry.get(name).unwrap();
            assert_eq!(spec.kind, ExperimentKind::ChipGrid);
            let chip = spec.chip.as_ref().unwrap();
            assert_eq!(chip.num_cores, cores);
            assert_eq!(chip.allocations.len(), AllocationPolicyKind::ALL.len());
            assert!(chip.bus_bytes_per_cycle > 0, "chip matrices model the bus");
            for workload in &spec.workloads {
                assert_eq!(workload.len(), threads);
            }
        }
    }

    #[test]
    fn sweeps_cover_the_paper_parameter_values() {
        let registry = ExperimentRegistry::builtin();
        let latency = registry.get("fig15_memory_latency_sweep").unwrap();
        assert_eq!(
            latency.sweep.as_ref().unwrap().values,
            vec![200, 400, 600, 800]
        );
        let window = registry.get("fig17_window_size_sweep").unwrap();
        assert_eq!(
            window.sweep.as_ref().unwrap().values,
            vec![128, 256, 512, 1024]
        );
    }
}
