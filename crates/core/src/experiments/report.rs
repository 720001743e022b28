//! The uniform, serializable result of running an [`ExperimentSpec`].
//!
//! Every experiment — policy grids, sweeps, and single-thread
//! characterizations — produces an [`ExperimentReport`]: raw per-cell results
//! ([`PolicyCell`] / [`BenchRow`]) plus aggregated [`SummaryRow`]s, ready to
//! serialize to JSON or TOML or to pretty-print as text.

use serde::{Deserialize, Serialize};
use smt_sched::AllocationPolicyKind;
use smt_types::config::FetchPolicyKind;
use smt_types::{CellOutcome, MetricEstimate, RunHealth, SimError};

use crate::experiments::spec::{ExperimentKind, ExperimentSpec};
use crate::metrics;
use crate::runner::RunScale;

/// One multiprogram grid cell: a (policy, workload, sweep point) evaluation,
/// built by [`crate::runner::evaluate_cell`].
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PolicyCell {
    /// The fetch policy evaluated.
    pub policy: FetchPolicyKind,
    /// Workload name (benchmarks joined with dashes).
    pub workload: String,
    /// The constituent benchmarks, one per hardware thread.
    pub benchmarks: Vec<String>,
    /// Workload group label (`ILP`, `MLP` or `MIX`).
    pub group: String,
    /// The sweep value this cell was evaluated at, when sweeping.
    pub parameter: Option<u64>,
    /// System throughput (higher is better).
    pub stp: f64,
    /// Average normalized turnaround time (lower is better).
    pub antt: f64,
    /// Per-thread IPC in the multithreaded run (Figures 11/12).
    pub per_thread_ipc: Vec<f64>,
    /// Per-thread single-threaded reference IPC at the same instruction counts.
    pub per_thread_st_ipc: Vec<f64>,
    /// Chip cells: the thread-to-core allocation policy evaluated.
    pub allocation: Option<AllocationPolicyKind>,
    /// Chip cells: number of cores on the chip.
    pub num_cores: Option<u64>,
    /// Chip cells: benchmarks per core after allocation (slots joined with `+`).
    pub core_assignments: Option<Vec<String>>,
    /// Chip cells: aggregate IPC per core.
    pub per_core_ipc: Option<Vec<f64>>,
    /// Chip cells: each core's contribution to the cell STP.
    pub per_core_stp: Option<Vec<f64>>,
    /// Sampled cells: the statistical pedigree of the estimates. `None` for
    /// exact (full-detail) cells; when present, `stp`/`antt` and the IPC
    /// columns above carry the estimate means.
    pub sampled: Option<SampledCellStats>,
}

/// Statistical metadata of one sampled cell: how much detailed simulation
/// backs the estimates and the 95% confidence interval of each headline
/// metric.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SampledCellStats {
    /// Measurement windows the estimates aggregate.
    pub windows: u32,
    /// Fraction of committed instructions simulated in detailed mode.
    pub detailed_fraction: f64,
    /// System throughput with its confidence interval.
    pub stp: MetricEstimate,
    /// Average normalized turnaround time with its confidence interval.
    pub antt: MetricEstimate,
    /// Aggregate multithreaded IPC with its confidence interval.
    pub total_ipc: MetricEstimate,
}

/// Warm-checkpoint traffic of one sampled experiment run: how many functional
/// fast-forward prefixes were actually simulated versus served from the
/// shared [`crate::runner::CheckpointCache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CheckpointSummary {
    /// Warm checkpoints captured (distinct workload × configuration prefixes).
    pub captures: u64,
    /// Cell evaluations that reused an already-captured checkpoint.
    pub hits: u64,
}

/// Aggregate over the workloads of one (sweep point, policy, group) slice.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SummaryRow {
    /// The fetch policy aggregated.
    pub policy: FetchPolicyKind,
    /// Workload group label, or `None` for the all-workloads aggregate.
    pub group: Option<String>,
    /// The sweep value, when sweeping.
    pub parameter: Option<u64>,
    /// Chip grids: the thread-to-core allocation policy aggregated.
    pub allocation: Option<AllocationPolicyKind>,
    /// Number of workloads aggregated.
    pub workloads: u64,
    /// Harmonic-mean STP (higher is better).
    pub avg_stp: f64,
    /// Arithmetic-mean ANTT (lower is better).
    pub avg_antt: f64,
}

/// One single-thread characterization row; which optional columns are present
/// depends on the [`ExperimentKind`].
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct BenchRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Single-thread IPC of the run behind this row.
    pub ipc: f64,
    /// Long-latency loads per 1 K instructions (Table I).
    pub lll_per_kinst: Option<f64>,
    /// Measured MLP (Table I).
    pub mlp: Option<f64>,
    /// MLP impact on single-thread performance (Table I).
    pub mlp_impact: Option<f64>,
    /// Measured ILP/MLP classification label (Table I).
    pub class: Option<String>,
    /// Classification reported in the paper (Table I).
    pub paper_class: Option<String>,
    /// Single-thread IPC without the prefetcher (Figure 5).
    pub ipc_without_prefetch: Option<f64>,
    /// Prefetcher speedup (Figure 5).
    pub prefetch_speedup: Option<f64>,
    /// Long-latency load predictor accuracy over all loads (Figure 6).
    pub lll_accuracy: Option<f64>,
    /// Long-latency load predictor accuracy over actual misses.
    pub lll_miss_accuracy: Option<f64>,
    /// Binary MLP prediction accuracy (Figure 7).
    pub mlp_accuracy: Option<f64>,
    /// MLP-distance "far enough" accuracy (Figure 8).
    pub mlp_distance_accuracy: Option<f64>,
    /// Predicted MLP-distance CDF as `(distance, fraction)` points (Figure 4).
    pub mlp_distance_cdf: Option<Vec<(u32, f64)>>,
}

/// The complete result of running one experiment spec.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ExperimentReport {
    /// Name of the experiment that produced this report.
    pub experiment: String,
    /// The paper table/figure reference carried over from the spec.
    pub paper_ref: String,
    /// The experiment kind.
    pub kind: ExperimentKind,
    /// The scale the experiment ran at.
    pub scale: RunScale,
    /// Worker threads used by the execution engine.
    pub threads_used: u64,
    /// Single-threaded reference simulations actually performed (cache
    /// misses of the shared [`crate::runner::StReferenceCache`]).
    pub reference_runs: u64,
    /// Wall-clock run time in milliseconds.
    pub wall_ms: u64,
    /// Multiprogram grid cells (policy-grid kinds; empty otherwise).
    pub policy_cells: Vec<PolicyCell>,
    /// Aggregated rows over the grid cells (policy-grid kinds).
    pub summaries: Vec<SummaryRow>,
    /// Per-benchmark rows (single-thread kinds; empty otherwise).
    pub bench_rows: Vec<BenchRow>,
    /// Outcome of every planned cell, in cell order. `None` only in reports
    /// written before per-cell outcomes were recorded.
    pub cell_outcomes: Option<Vec<CellOutcome>>,
    /// Whole-run health classification. `None` only in reports written
    /// before per-cell outcomes were recorded.
    pub health: Option<RunHealth>,
    /// Warm-checkpoint traffic; present only for sampled runs.
    pub checkpoints: Option<CheckpointSummary>,
}

impl ExperimentReport {
    /// Computes the per-(sweep point, policy, group) and per-(sweep point,
    /// policy) aggregates from `cells`, preserving the given policy order.
    pub(crate) fn summarize(
        cells: &[PolicyCell],
        policies: &[FetchPolicyKind],
        parameters: &[Option<u64>],
    ) -> Vec<SummaryRow> {
        let mut groups = first_seen(cells.iter().map(|c| Some(c.group.clone())));
        // Always emit the all-workloads aggregate (`group: None`) so
        // consumers can rely on its presence.
        groups.push(None);
        // Chip grids add an allocation axis; classic grids have its single
        // `None` value, keeping their summary rows unchanged.
        let allocations = first_seen(cells.iter().map(|c| c.allocation));
        let mut rows = Vec::new();
        for &parameter in parameters {
            for &policy in policies {
                for &allocation in &allocations {
                    for group in &groups {
                        let slice: Vec<&PolicyCell> = cells
                            .iter()
                            .filter(|c| {
                                c.parameter == parameter
                                    && c.policy == policy
                                    && c.allocation == allocation
                                    && group.as_deref().is_none_or(|g| c.group == g)
                            })
                            .collect();
                        if slice.is_empty() {
                            continue;
                        }
                        let stps: Vec<f64> = slice.iter().map(|c| c.stp).collect();
                        let antts: Vec<f64> = slice.iter().map(|c| c.antt).collect();
                        rows.push(SummaryRow {
                            policy,
                            group: group.clone(),
                            parameter,
                            allocation,
                            workloads: slice.len() as u64,
                            avg_stp: metrics::harmonic_mean(&stps),
                            avg_antt: metrics::arithmetic_mean(&antts),
                        });
                    }
                }
            }
        }
        rows
    }

    /// Serializes the report as pretty JSON.
    ///
    /// # Errors
    ///
    /// Never fails for reports produced by the engine.
    pub fn to_json(&self) -> Result<String, SimError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| SimError::internal(format!("report JSON serialization: {e}")))
    }

    /// Serializes the report as TOML.
    ///
    /// # Errors
    ///
    /// Never fails for reports produced by the engine.
    pub fn to_toml(&self) -> Result<String, SimError> {
        toml::to_string(self)
            .map_err(|e| SimError::internal(format!("report TOML serialization: {e}")))
    }

    /// Formats the report as aligned, human-readable text.
    pub fn format_text(&self) -> String {
        let mut out = format!(
            "experiment: {} ({})\nscale: {} instructions/thread, {} warm-up, seed {}\n\
             engine: {} threads, {} reference runs, {} ms\n",
            self.experiment,
            if self.paper_ref.is_empty() {
                "custom"
            } else {
                &self.paper_ref
            },
            self.scale.instructions_per_thread,
            self.scale.warmup_instructions,
            self.scale.seed,
            self.threads_used,
            self.reference_runs,
            self.wall_ms,
        );
        if let Some(checkpoints) = &self.checkpoints {
            out.push_str(&format!(
                "sampling: {} warm checkpoint{} captured, {} reused\n",
                checkpoints.captures,
                if checkpoints.captures == 1 { "" } else { "s" },
                checkpoints.hits,
            ));
        }
        // Fault-free runs keep the historical text output; anything else
        // leads with the health verdict and the failed cells.
        if let Some(health) = &self.health {
            if !health.is_complete() {
                out.push_str(&format!(
                    "health: {} ({} of {} cells completed, {} failed)\n",
                    health.status.name(),
                    health.completed_cells,
                    health.planned_cells,
                    health.failed_cells,
                ));
                if let Some(outcomes) = &self.cell_outcomes {
                    for outcome in outcomes.iter().filter(|o| !o.ok) {
                        let error = outcome
                            .error
                            .as_ref()
                            .map_or_else(|| "unknown error".to_string(), |e| e.to_string());
                        out.push_str(&format!(
                            "  cell {} [{}]: {error}\n",
                            outcome.cell, outcome.label,
                        ));
                    }
                }
            }
        }
        // Chip reports get an extra allocation column (and an
        // assignments-centric cell table); the shared columns are formatted
        // exactly once, with the chip-only segment spliced in as a
        // pre-rendered string.
        let chip_report = self.summaries.iter().any(|r| r.allocation.is_some())
            || self.policy_cells.iter().any(|c| c.allocation.is_some());
        if !self.summaries.is_empty() {
            let alloc_header = if chip_report { "allocation    " } else { "" };
            out.push_str(&format!(
                "\nsweep  group  policy                      {alloc_header}STP      ANTT  workloads\n"
            ));
            for row in &self.summaries {
                let alloc_col = if chip_report {
                    format!("{:<12}  ", row.allocation.map_or("-", |a| a.name()))
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "{:>5}  {:<5}  {:<26} {alloc_col}{:>6.3}  {:>8.3}  {:>9}\n",
                    row.parameter
                        .map_or_else(|| "-".to_string(), |p| p.to_string()),
                    row.group.as_deref().unwrap_or("all"),
                    row.policy.name(),
                    row.avg_stp,
                    row.avg_antt,
                    row.workloads,
                ));
            }
        }
        if !self.policy_cells.is_empty() {
            let (mid_header, ipc_header) = if chip_report {
                ("allocation    cores -> threads            ", "per-core IPC")
            } else {
                ("workload            ", "per-thread IPC")
            };
            out.push_str(&format!(
                "\nsweep  group  policy                      {mid_header} {:>6}  {:>8}  {ipc_header}\n",
                "STP", "ANTT"
            ));
            for cell in &self.policy_cells {
                // The middle columns and the IPC breakdown are the only
                // chip/classic differences; render them first, then emit one
                // shared row format.
                let (mid, ipcs) = if chip_report {
                    let cores = cell
                        .core_assignments
                        .as_deref()
                        .map_or_else(|| cell.workload.clone(), |cores| cores.join(" | "));
                    let mid = format!(
                        "{:<12}  {:<28}",
                        cell.allocation.map_or("-", |a| a.name()),
                        cores
                    );
                    let ipcs: Vec<String> = cell
                        .per_core_ipc
                        .as_deref()
                        .unwrap_or(&[])
                        .iter()
                        .map(|v| format!("{v:.2}"))
                        .collect();
                    (mid, ipcs)
                } else {
                    let ipcs: Vec<String> = cell
                        .per_thread_ipc
                        .iter()
                        .map(|v| format!("{v:.2}"))
                        .collect();
                    (format!("{:<20}", cell.workload), ipcs)
                };
                // Sampled cells append their statistical pedigree.
                let sampled = cell
                    .sampled
                    .as_ref()
                    .map(|s| format!("  [{} windows, STP ±{:.3}]", s.windows, s.stp.ci95))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "{:>5}  {:<5}  {:<26} {mid} {:>6.3}  {:>8.3}  {}{sampled}\n",
                    cell.parameter
                        .map_or_else(|| "-".to_string(), |p| p.to_string()),
                    cell.group,
                    cell.policy.name(),
                    cell.stp,
                    cell.antt,
                    ipcs.join(" / "),
                ));
            }
        }
        if !self.bench_rows.is_empty() {
            out.push_str(&format!(
                "\n{}",
                format_bench_rows(self.kind, &self.bench_rows)
            ));
        }
        out
    }
}

/// The distinct items, in first-seen order.
fn first_seen<T: PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut distinct = Vec::new();
    for item in items {
        if !distinct.contains(&item) {
            distinct.push(item);
        }
    }
    distinct
}

fn format_bench_rows(kind: ExperimentKind, rows: &[BenchRow]) -> String {
    let mut out = String::new();
    match kind {
        ExperimentKind::Characterization => {
            out.push_str("benchmark      IPC  LLL/1K    MLP  MLP-impact  class (paper)\n");
            for r in rows {
                out.push_str(&format!(
                    "{:<12} {:>5.2} {:>7.2} {:>6.2} {:>10.1}%  {:<5} ({})\n",
                    r.benchmark,
                    r.ipc,
                    r.lll_per_kinst.unwrap_or(f64::NAN),
                    r.mlp.unwrap_or(f64::NAN),
                    r.mlp_impact.unwrap_or(f64::NAN) * 100.0,
                    r.class.as_deref().unwrap_or("?"),
                    r.paper_class.as_deref().unwrap_or("?"),
                ));
            }
        }
        ExperimentKind::PrefetcherImpact => {
            out.push_str("benchmark    no-pf IPC  with-pf IPC  speedup\n");
            for r in rows {
                out.push_str(&format!(
                    "{:<12} {:>9.3} {:>12.3} {:>7.1}%\n",
                    r.benchmark,
                    r.ipc_without_prefetch.unwrap_or(f64::NAN),
                    r.ipc,
                    (r.prefetch_speedup.unwrap_or(f64::NAN) - 1.0) * 100.0,
                ));
            }
        }
        ExperimentKind::PredictorAccuracy => {
            out.push_str("benchmark    LLL-acc  LLL-miss-acc  MLP-acc  dist-acc\n");
            for r in rows {
                out.push_str(&format!(
                    "{:<12} {:>6.1}% {:>12.1}% {:>7.1}% {:>8.1}%\n",
                    r.benchmark,
                    r.lll_accuracy.unwrap_or(f64::NAN) * 100.0,
                    r.lll_miss_accuracy.unwrap_or(f64::NAN) * 100.0,
                    r.mlp_accuracy.unwrap_or(f64::NAN) * 100.0,
                    r.mlp_distance_accuracy.unwrap_or(f64::NAN) * 100.0,
                ));
            }
        }
        ExperimentKind::MlpDistanceCdf => {
            out.push_str("benchmark      ≤32    ≤64    ≤96   ≤128\n");
            for r in rows {
                let cdf = r.mlp_distance_cdf.as_deref().unwrap_or(&[]);
                let fraction_within = |distance: u32| metrics::cdf_fraction_within(cdf, distance);
                out.push_str(&format!(
                    "{:<10} {:>5.0}% {:>5.0}% {:>5.0}% {:>5.0}%\n",
                    r.benchmark,
                    fraction_within(32) * 100.0,
                    fraction_within(64) * 100.0,
                    fraction_within(96) * 100.0,
                    fraction_within(128) * 100.0,
                ));
            }
        }
        ExperimentKind::PolicyGrid | ExperimentKind::ChipGrid => {}
    }
    out
}

/// Convenience: builds the skeleton report for `spec` (cells filled by the
/// engine).
pub(crate) fn empty_report(spec: &ExperimentSpec, threads: usize) -> ExperimentReport {
    ExperimentReport {
        experiment: spec.name.clone(),
        paper_ref: spec.paper_ref.clone(),
        kind: spec.kind,
        scale: spec.scale,
        threads_used: threads as u64,
        reference_runs: 0,
        wall_ms: 0,
        policy_cells: Vec::new(),
        summaries: Vec::new(),
        bench_rows: Vec::new(),
        cell_outcomes: None,
        health: None,
        checkpoints: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(policy: FetchPolicyKind, group: &str, parameter: Option<u64>, stp: f64) -> PolicyCell {
        PolicyCell {
            policy,
            workload: "a-b".to_string(),
            benchmarks: vec!["a".to_string(), "b".to_string()],
            group: group.to_string(),
            parameter,
            stp,
            antt: 2.0 / stp,
            per_thread_ipc: vec![0.5, 0.5],
            per_thread_st_ipc: vec![1.0, 1.0],
            allocation: None,
            num_cores: None,
            core_assignments: None,
            per_core_ipc: None,
            per_core_stp: None,
            sampled: None,
        }
    }

    fn chip_cell(
        policy: FetchPolicyKind,
        allocation: AllocationPolicyKind,
        stp: f64,
    ) -> PolicyCell {
        PolicyCell {
            allocation: Some(allocation),
            num_cores: Some(2),
            core_assignments: Some(vec!["a+b".to_string(), "c+d".to_string()]),
            per_core_ipc: Some(vec![1.0, 0.8]),
            per_core_stp: Some(vec![stp / 2.0, stp / 2.0]),
            ..cell(policy, "MIX", None, stp)
        }
    }

    #[test]
    fn summaries_group_and_aggregate() {
        let cells = vec![
            cell(FetchPolicyKind::Icount, "ILP", None, 1.0),
            cell(FetchPolicyKind::Icount, "MLP", None, 2.0),
            cell(FetchPolicyKind::MlpFlush, "ILP", None, 1.5),
            cell(FetchPolicyKind::MlpFlush, "MLP", None, 2.5),
        ];
        let rows = ExperimentReport::summarize(
            &cells,
            &[FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush],
            &[None],
        );
        // 2 policies x (2 groups + overall).
        assert_eq!(rows.len(), 6);
        let overall_icount = rows
            .iter()
            .find(|r| r.policy == FetchPolicyKind::Icount && r.group.is_none())
            .unwrap();
        assert_eq!(overall_icount.workloads, 2);
        assert!((overall_icount.avg_stp - metrics::harmonic_mean(&[1.0, 2.0])).abs() < 1e-12);
    }

    #[test]
    fn summaries_respect_sweep_parameters() {
        let cells = vec![
            cell(FetchPolicyKind::Icount, "MLP", Some(200), 1.0),
            cell(FetchPolicyKind::Icount, "MLP", Some(800), 0.5),
        ];
        let rows = ExperimentReport::summarize(
            &cells,
            &[FetchPolicyKind::Icount],
            &[Some(200), Some(800)],
        );
        // Per parameter: one MLP-group row plus the overall aggregate.
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].parameter, Some(200));
        let overall_800 = rows
            .iter()
            .find(|r| r.parameter == Some(800) && r.group.is_none())
            .unwrap();
        assert!((overall_800.avg_stp - 0.5).abs() < 1e-12);
    }

    #[test]
    fn chip_summaries_split_by_allocation() {
        use AllocationPolicyKind::{FillFirst, RoundRobin};
        let cells = vec![
            chip_cell(FetchPolicyKind::Icount, RoundRobin, 1.0),
            chip_cell(FetchPolicyKind::Icount, FillFirst, 2.0),
            chip_cell(FetchPolicyKind::MlpFlush, RoundRobin, 1.5),
            chip_cell(FetchPolicyKind::MlpFlush, FillFirst, 2.5),
        ];
        let rows = ExperimentReport::summarize(
            &cells,
            &[FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush],
            &[None],
        );
        // 2 policies x 2 allocations x (1 group + overall).
        assert_eq!(rows.len(), 8);
        let ff = rows
            .iter()
            .find(|r| {
                r.policy == FetchPolicyKind::Icount
                    && r.allocation == Some(FillFirst)
                    && r.group.is_none()
            })
            .unwrap();
        assert_eq!(ff.workloads, 1);
        assert!((ff.avg_stp - 2.0).abs() < 1e-12);
    }

    #[test]
    fn chip_report_text_mentions_allocation_and_assignments() {
        let spec = crate::experiments::registry::ExperimentRegistry::builtin()
            .get("fig09_two_thread_policies")
            .unwrap()
            .clone();
        let mut report = empty_report(&spec, 1);
        report.policy_cells = vec![chip_cell(
            FetchPolicyKind::MlpFlush,
            AllocationPolicyKind::MlpBalanced,
            1.4,
        )];
        report.summaries = ExperimentReport::summarize(
            &report.policy_cells,
            &[FetchPolicyKind::MlpFlush],
            &[None],
        );
        let text = report.format_text();
        assert!(text.contains("mlp-balanced"), "{text}");
        assert!(text.contains("a+b | c+d"), "{text}");
    }

    #[test]
    fn report_serializes_to_json_and_toml_and_back() {
        let spec = crate::experiments::registry::ExperimentRegistry::builtin()
            .get("fig09_two_thread_policies")
            .unwrap()
            .clone();
        let mut report = empty_report(&spec, 2);
        report.policy_cells = vec![cell(FetchPolicyKind::Icount, "MLP", None, 1.2)];
        report.summaries =
            ExperimentReport::summarize(&report.policy_cells, &[FetchPolicyKind::Icount], &[None]);
        let json = report.to_json().unwrap();
        let from_json: ExperimentReport = serde_json::from_str(&json).unwrap();
        assert_eq!(from_json, report);
        let toml_text = report.to_toml().unwrap();
        let from_toml: ExperimentReport = toml::from_str(&toml_text).unwrap();
        assert_eq!(from_toml, report);
    }

    #[test]
    fn text_format_mentions_policies_and_workloads() {
        let spec = crate::experiments::registry::ExperimentRegistry::builtin()
            .get("fig09_two_thread_policies")
            .unwrap()
            .clone();
        let mut report = empty_report(&spec, 1);
        report.policy_cells = vec![cell(FetchPolicyKind::MlpFlush, "MLP", None, 1.3)];
        report.summaries = ExperimentReport::summarize(
            &report.policy_cells,
            &[FetchPolicyKind::MlpFlush],
            &[None],
        );
        let text = report.format_text();
        assert!(text.contains("mlp-flush"));
        assert!(text.contains("a-b"));
        assert!(text.contains("Figures 9-12"));
    }
}
