//! Parallel execution engine for [`ExperimentSpec`]s.
//!
//! The engine expands a spec into one plan of independent cells — sweep
//! point × policy × optional allocation × workload for every grid kind,
//! whether exact or sampled, machine or chip; one benchmark per cell for
//! single-thread kinds. It
//! runs the cells across OS threads through [`evaluate_cell`] with a shared
//! [`StReferenceCache`] (each single-threaded reference curve is simulated
//! exactly once, no matter how many cells need it) and [`CheckpointCache`],
//! and assembles a uniform [`ExperimentReport`]. Results are deterministic
//! and independent of the thread count: every cell's simulations are
//! self-contained and seeded by the spec's [`crate::runner::RunScale::seed`].
//!
//! # Failure isolation
//!
//! Every cell runs once inside an isolation boundary
//! ([`std::panic::catch_unwind`] plus a quiet panic hook), so one panicking
//! cell is quarantined as a [`CellOutcome`] failure while the rest of the
//! grid keeps draining. The one deadline is deterministic: a cell whose
//! simulation reaches [`RunScale::max_cycles`] fails with a
//! `deadline-exceeded` error on every rerun and at any thread count. A cell
//! is a pure function of its spec, so nothing is retried: a second run
//! would fail the same way. The report degrades gracefully: completed cells
//! are kept, failures are recorded per cell, and [`RunHealth`] classifies
//! the whole run.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;
use std::time::Instant; // analyze: allow(determinism) reason="harness-side wall-clock for the report's wall_ms; never feeds simulated state"

use smt_sched::AllocationPolicyKind;
use smt_types::config::FetchPolicyKind;
use smt_types::{
    CellError, CellErrorKind, CellOutcome, RunHealth, SamplingConfig, SimError, SmtConfig,
};

use crate::experiments::characterization;
use crate::experiments::report::{empty_report, BenchRow, CheckpointSummary, ExperimentReport};
use crate::experiments::spec::{ExperimentKind, ExperimentSpec};
use crate::runner::{
    evaluate_cell, mlp_intensity, run_single_thread, CellMachine, CellSpec, CheckpointCache,
    RunScale, StReferenceCache,
};
use crate::workloads::Workload;

/// Number of worker threads the engine uses by default: the `SMT_THREADS`
/// environment variable when set, otherwise the machine's available
/// parallelism.
pub fn default_parallelism() -> usize {
    // analyze: allow(determinism) reason="worker-pool sizing only; results are identical at any thread count"
    if let Ok(text) = std::env::var("SMT_THREADS") {
        if let Ok(threads) = text.parse::<usize>() {
            if threads >= 1 {
                return threads;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

thread_local! {
    /// True while the current thread is inside a cell's isolation boundary;
    /// the quiet panic hook suppresses default panic output for such panics
    /// because they are captured and reported as [`CellOutcome`] failures.
    static IN_CELL: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that stays silent for panics
/// unwinding out of an engine cell and defers to the previous hook for
/// everything else.
fn install_cell_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_CELL.with(Cell::get) {
                return;
            }
            previous(info);
        }));
    });
}

/// Renders a panic payload as text: the common `&str`/`String` payloads
/// verbatim, anything else as an opaque marker.
fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one cell under `catch_unwind` with the quiet panic hook engaged and
/// classifies its failure.
fn run_cell<T, R>(item: &T, body: &impl Fn(&T) -> Result<R, SimError>) -> Result<R, CellError> {
    IN_CELL.with(|flag| flag.set(true));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(item)));
    IN_CELL.with(|flag| flag.set(false));
    let (kind, detail) = match caught {
        Ok(Ok(result)) => return Ok(result),
        Ok(Err(SimError::DeadlineExceeded { reason })) => (CellErrorKind::DeadlineExceeded, reason),
        Ok(Err(other)) => (CellErrorKind::InvalidSpec, other.to_string()),
        Err(payload) => (CellErrorKind::Panic, panic_payload(payload)),
    };
    Err(CellError { kind, detail })
}

/// Runs every item once as an isolated cell on up to `threads` workers and
/// returns the results in item order. A cell is a pure function of its
/// item, so the results do not depend on the thread count.
fn run_cells<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    body: impl Fn(&T) -> Result<R, SimError> + Sync,
) -> Vec<Result<R, CellError>> {
    install_cell_panic_hook();
    let threads = threads.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, Result<R, CellError>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, run_cell(item, &body)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| {
                // Cell panics are caught inside `run_cell`; anything else
                // is a bug in this loop and keeps unwinding.
                worker
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    results.sort_unstable_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, result)| result).collect()
}

/// Splits cell results into the successful results and one labelled
/// outcome per planned cell, in cell order.
fn fold<T, R>(
    items: &[T],
    runs: Vec<Result<R, CellError>>,
    label: impl Fn(&T) -> String,
) -> (Vec<R>, Vec<CellOutcome>) {
    let mut results = Vec::with_capacity(items.len());
    let mut outcomes = Vec::with_capacity(items.len());
    for (index, (item, run)) in items.iter().zip(runs).enumerate() {
        let (index, label) = (index as u64, label(item));
        match run {
            Ok(result) => {
                results.push(result);
                outcomes.push(CellOutcome::success(index, label));
            }
            Err(error) => outcomes.push(CellOutcome::failure(index, label, error)),
        }
    }
    (results, outcomes)
}

/// One planned grid cell; `workload` indexes [`CellPlan::workloads`].
struct PlannedCell {
    point: Option<u64>,
    policy: FetchPolicyKind,
    allocation: Option<AllocationPolicyKind>,
    workload: usize,
}

/// A validated grid spec expanded into its cells: sweep point × policy ×
/// optional allocation × workload, nested in that order, so cell indices
/// follow the spec's declaration order.
struct CellPlan<'a> {
    spec: &'a ExperimentSpec,
    workloads: Vec<Workload>,
    /// Per-benchmark MLP intensities; probed only when some allocation
    /// (`mlp-balanced`) reads them, otherwise empty and read as zero.
    intensities: HashMap<String, f64>,
    sampling: Option<SamplingConfig>,
    cells: Vec<PlannedCell>,
}

impl<'a> CellPlan<'a> {
    /// Expands `spec`. Each distinct benchmark's MLP intensity is probed
    /// once, on up to `threads` workers, before the cells fan out, so every
    /// cell sees identical placement inputs at any engine thread count; a
    /// probe's failure is a setup error, not a cell failure.
    fn new(spec: &'a ExperimentSpec, threads: usize) -> Result<Self, SimError> {
        let workloads: Vec<Workload> = spec
            .workloads
            .iter()
            .map(|benchmarks| Workload::new(benchmarks.clone()))
            .collect::<Result<_, _>>()?;
        let allocations: Vec<Option<AllocationPolicyKind>> = match &spec.chip {
            Some(chip) => chip.allocations.iter().copied().map(Some).collect(),
            None => vec![None],
        };
        let mut intensities = HashMap::new();
        if allocations.contains(&Some(AllocationPolicyKind::MlpBalanced)) {
            // The probe normalizes to one thread, so any workload's core
            // configuration gives the same answer.
            let probe_config = spec.config_for(1, None);
            let mut benchmarks: Vec<&String> = Vec::new();
            for benchmark in workloads.iter().flat_map(|w| &w.benchmarks) {
                if !benchmarks.contains(&benchmark) {
                    benchmarks.push(benchmark);
                }
            }
            // Each probe's own result rides in the cell's: a failed probe
            // keeps its error variant, a panicking one is an internal error.
            let probes = run_cells(&benchmarks, threads, |benchmark| {
                Ok(mlp_intensity(benchmark, &probe_config, spec.scale.seed))
            });
            for (benchmark, probe) in benchmarks.into_iter().zip(probes) {
                let value = probe.map_err(|e| SimError::internal(e.to_string()))??;
                intensities.insert(benchmark.clone(), value);
            }
        }
        let mut cells = Vec::new();
        for point in spec.sweep_points() {
            for &policy in &spec.policies {
                for &allocation in &allocations {
                    for workload in 0..workloads.len() {
                        cells.push(PlannedCell {
                            point,
                            policy,
                            allocation,
                            workload,
                        });
                    }
                }
            }
        }
        Ok(CellPlan {
            spec,
            workloads,
            intensities,
            sampling: spec.sampling.map(|sampling| sampling.config()),
            cells,
        })
    }

    /// What `cell` simulates.
    fn cell_spec(&self, cell: &PlannedCell) -> CellSpec<'_> {
        let workload = &self.workloads[cell.workload];
        let threads = workload.num_threads();
        let machine = match cell.allocation {
            Some(allocation) => CellMachine::Chip {
                chip: self.spec.chip_config_for(threads, cell.point),
                allocation,
                intensities: workload
                    .benchmarks
                    .iter()
                    .map(|b| self.intensities.get(b).copied().unwrap_or(0.0))
                    .collect(),
            },
            None => CellMachine::Core(self.spec.config_for(threads, cell.point)),
        };
        CellSpec {
            workload,
            parameter: cell.point,
            policy: cell.policy,
            machine,
            sampling: self.sampling,
            scale: self.spec.scale,
        }
    }

    /// `[point/]policy/[allocation/]workload`.
    fn label(&self, cell: &PlannedCell) -> String {
        let mut label = cell.point.map(|p| format!("{p}/")).unwrap_or_default();
        label.push_str(cell.policy.name());
        if let Some(allocation) = cell.allocation {
            label.push_str(&format!("/{}", allocation.name()));
        }
        format!("{label}/{}", self.workloads[cell.workload].name())
    }
}

/// Runs an experiment spec with the default thread count.
///
/// # Errors
///
/// Returns a validation error before anything is simulated, or a setup error
/// (unknown benchmark, failed placement probe). Cell-level failures do not
/// error: they degrade the report (see [`ExperimentReport::health`]).
pub fn run_spec(spec: &ExperimentSpec) -> Result<ExperimentReport, SimError> {
    run_spec_with_threads(spec, default_parallelism())
}

/// Runs an experiment spec on exactly `threads` worker threads.
///
/// # Errors
///
/// See [`run_spec`].
pub fn run_spec_with_threads(
    spec: &ExperimentSpec,
    threads: usize,
) -> Result<ExperimentReport, SimError> {
    spec.validate()?;
    let threads = threads.max(1);
    let start = Instant::now(); // analyze: allow(determinism) reason="elapsed-time reporting for the experiment harness, not simulated state"

    let cache = StReferenceCache::new();
    let checkpoints = CheckpointCache::new();
    let mut report = empty_report(spec, threads);
    let outcomes = if spec.kind.is_single_thread() {
        let benchmarks: Vec<&String> = spec.workloads.iter().map(|w| &w[0]).collect();
        let (kind, scale) = (spec.kind, spec.scale);
        let runs = run_cells(&benchmarks, threads, |b| bench_row(kind, b, scale));
        let (rows, outcomes) = fold(&benchmarks, runs, |b| b.to_string());
        report.bench_rows = rows;
        outcomes
    } else {
        let plan = CellPlan::new(spec, threads)?;
        let runs = run_cells(&plan.cells, threads, |cell| {
            evaluate_cell(&plan.cell_spec(cell), &cache, &checkpoints)
        });
        let (cells, outcomes) = fold(&plan.cells, runs, |cell| plan.label(cell));
        report.summaries =
            ExperimentReport::summarize(&cells, &spec.policies, &spec.sweep_points());
        report.policy_cells = cells;
        outcomes
    };
    if spec.sampling.is_some() {
        report.checkpoints = Some(CheckpointSummary {
            captures: checkpoints.captures(),
            hits: checkpoints.hits(),
        });
    }
    report.health = Some(RunHealth::from_outcomes(&outcomes));
    report.cell_outcomes = Some(outcomes);
    report.reference_runs = cache.reference_runs();
    report.wall_ms = start.elapsed().as_millis() as u64;
    Ok(report)
}

/// Produces one single-thread characterization row on the configuration the
/// paper uses for that table or figure.
fn bench_row(kind: ExperimentKind, benchmark: &str, scale: RunScale) -> Result<BenchRow, SimError> {
    match kind {
        ExperimentKind::Characterization => {
            let row = characterization::characterize(benchmark, scale)?;
            Ok(BenchRow {
                benchmark: row.benchmark,
                ipc: row.ipc,
                lll_per_kinst: Some(row.lll_per_kinst),
                mlp: Some(row.mlp),
                mlp_impact: Some(row.mlp_impact),
                class: Some(row.measured_class.label().to_string()),
                paper_class: Some(row.paper_class.label().to_string()),
                ..BenchRow::default()
            })
        }
        ExperimentKind::PrefetcherImpact => {
            let without = run_single_thread(
                benchmark,
                &SmtConfig::baseline(1).with_prefetcher(false),
                scale,
            )?;
            let with = run_single_thread(
                benchmark,
                &SmtConfig::baseline(1).with_prefetcher(true),
                scale,
            )?;
            let ipc_without = without.threads[0].ipc(without.cycles);
            let ipc_with = with.threads[0].ipc(with.cycles);
            Ok(BenchRow {
                benchmark: benchmark.to_string(),
                ipc: ipc_with,
                ipc_without_prefetch: Some(ipc_without),
                prefetch_speedup: Some(if ipc_without == 0.0 {
                    1.0
                } else {
                    ipc_with / ipc_without
                }),
                ..BenchRow::default()
            })
        }
        ExperimentKind::PredictorAccuracy => {
            let config = SmtConfig::baseline(1).with_prefetcher(false);
            let stats = run_single_thread(benchmark, &config, scale)?;
            let t = &stats.threads[0];
            Ok(BenchRow {
                benchmark: benchmark.to_string(),
                ipc: t.ipc(stats.cycles),
                lll_accuracy: Some(t.lll_predictor_accuracy()),
                lll_miss_accuracy: Some(t.lll_predictor_miss_accuracy()),
                mlp_accuracy: Some(t.mlp_predictor_accuracy()),
                mlp_distance_accuracy: Some(t.mlp_distance_accuracy()),
                ..BenchRow::default()
            })
        }
        ExperimentKind::MlpDistanceCdf => {
            // The paper's Figure 4 characterizes a 256-entry ROB processor
            // with a 128-entry LLSR; the runs are single threaded, so pin
            // the LLSR length.
            let mut config = SmtConfig::baseline(1);
            config.llsr_length_override = Some(128);
            let stats = run_single_thread(benchmark, &config, scale)?;
            let t = &stats.threads[0];
            Ok(BenchRow {
                benchmark: benchmark.to_string(),
                ipc: t.ipc(stats.cycles),
                mlp_distance_cdf: Some(t.mlp_distance_cdf()),
                ..BenchRow::default()
            })
        }
        ExperimentKind::PolicyGrid | ExperimentKind::ChipGrid => {
            Err(SimError::internal("policy grids do not produce bench rows"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::spec::{SamplingSpec, SweepParameter, SweepSpec};
    use smt_types::RunHealthStatus;

    fn tiny_grid_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "engine-test".to_string(),
            title: "engine test".to_string(),
            paper_ref: String::new(),
            kind: ExperimentKind::PolicyGrid,
            policies: vec![FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush],
            workloads: vec![
                vec!["mcf".to_string(), "swim".to_string()],
                vec!["gcc".to_string(), "gap".to_string()],
            ],
            sweep: None,
            overrides: None,
            chip: None,
            adaptive: None,
            resilience: None,
            sampling: None,
            scale: RunScale::tiny(),
        }
    }

    /// Zeroes the only fields that legitimately differ between two runs of
    /// the same spec (wall time and the worker-thread count), so reports can
    /// be compared bit-for-bit.
    fn comparable(mut report: ExperimentReport) -> ExperimentReport {
        report.wall_ms = 0;
        report.threads_used = 0;
        report
    }

    #[test]
    fn run_cells_preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..57).collect();
        let double = |threads| {
            let runs = run_cells(&items, threads, |&x| Ok(x * 2));
            fold(&items, runs, |x| x.to_string())
        };
        let (doubled, outcomes) = double(4);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(outcomes.len(), items.len());
        assert!(outcomes.iter().all(|o| o.ok));
        assert_eq!(outcomes[56].label, "56");
        assert_eq!(double(1), (doubled, outcomes));
    }

    #[test]
    fn spec_results_are_thread_count_invariant() {
        let spec = tiny_grid_spec();
        let serial = run_spec_with_threads(&spec, 1).unwrap();
        let parallel = run_spec_with_threads(&spec, 4).unwrap();
        assert_eq!(serial.policy_cells, parallel.policy_cells);
        assert_eq!(serial.summaries, parallel.summaries);
        assert_eq!(serial.reference_runs, parallel.reference_runs);
        assert_eq!(serial.cell_outcomes, parallel.cell_outcomes);
        assert_eq!(serial.health, parallel.health);
    }

    #[test]
    fn grid_report_has_expected_shape() {
        let spec = tiny_grid_spec();
        let report = run_spec_with_threads(&spec, 2).unwrap();
        // 2 policies x 2 workloads.
        assert_eq!(report.policy_cells.len(), 4);
        assert!(report.bench_rows.is_empty());
        // Reference runs: one per distinct benchmark (config identical across
        // policies).
        assert_eq!(report.reference_runs, 4);
        assert!(report.summaries.iter().any(|s| s.group.is_none()));
        for cell in &report.policy_cells {
            assert!(cell.stp > 0.0 && cell.antt > 0.0);
        }
        let health = report.health.unwrap();
        assert_eq!(health.status, RunHealthStatus::Complete);
        assert_eq!(health.planned_cells, 4);
        assert_eq!(health.completed_cells, 4);
        let outcomes = report.cell_outcomes.unwrap();
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|o| o.ok));
        assert_eq!(outcomes[0].label, "icount/mcf-swim");
    }

    #[test]
    fn sweep_produces_cells_per_point() {
        let mut spec = tiny_grid_spec();
        spec.policies = vec![FetchPolicyKind::Icount];
        spec.workloads = vec![vec!["mcf".to_string(), "swim".to_string()]];
        spec.sweep = Some(SweepSpec {
            parameter: SweepParameter::MemoryLatency,
            values: vec![200, 800],
        });
        let report = run_spec_with_threads(&spec, 2).unwrap();
        assert_eq!(report.policy_cells.len(), 2);
        assert_eq!(report.policy_cells[0].parameter, Some(200));
        assert_eq!(report.policy_cells[1].parameter, Some(800));
        // Different memory latencies need distinct reference curves.
        assert_eq!(report.reference_runs, 4);
    }

    #[test]
    fn single_thread_spec_produces_bench_rows() {
        let spec = ExperimentSpec {
            kind: ExperimentKind::Characterization,
            policies: vec![],
            workloads: vec![vec!["mcf".to_string()], vec!["gcc".to_string()]],
            ..tiny_grid_spec()
        };
        let report = run_spec_with_threads(&spec, 2).unwrap();
        assert_eq!(report.bench_rows.len(), 2);
        assert!(report.policy_cells.is_empty());
        assert_eq!(report.bench_rows[0].benchmark, "mcf");
        assert!(report.bench_rows[0].lll_per_kinst.unwrap() > 0.0);
    }

    fn tiny_chip_spec() -> ExperimentSpec {
        ExperimentSpec {
            kind: ExperimentKind::ChipGrid,
            workloads: vec![["mcf", "swim", "gcc", "gap"].map(String::from).to_vec()],
            chip: Some(crate::experiments::spec::ChipSpec {
                num_cores: 2,
                allocations: vec![
                    AllocationPolicyKind::RoundRobin,
                    AllocationPolicyKind::FillFirst,
                ],
                bus_bytes_per_cycle: 16,
                shared_llc: None,
                chip_threads: None,
            }),
            ..tiny_grid_spec()
        }
    }

    #[test]
    fn chip_grid_produces_policy_by_allocation_cells() {
        let report = run_spec_with_threads(&tiny_chip_spec(), 2).unwrap();
        // 2 policies x 2 allocations x 1 workload.
        assert_eq!(report.policy_cells.len(), 4);
        for cell in &report.policy_cells {
            assert!(cell.allocation.is_some());
            assert_eq!(cell.num_cores, Some(2));
            assert_eq!(cell.core_assignments.as_ref().unwrap().len(), 2);
            assert_eq!(cell.per_core_ipc.as_ref().unwrap().len(), 2);
            assert!(cell.stp > 0.0 && cell.antt > 0.0);
        }
        // Allocation axis shows up in the summaries.
        assert!(report
            .summaries
            .iter()
            .any(|r| r.allocation == Some(AllocationPolicyKind::FillFirst)));
    }

    /// A sampled grid small enough for tests: the `test` scale budget with a
    /// cadence that still fits several measurement windows per cell.
    fn tiny_sampled_spec() -> ExperimentSpec {
        let mut spec = tiny_grid_spec();
        spec.scale = RunScale::test();
        spec.sampling = Some(SamplingSpec {
            skip_instructions: Some(0),
            ff_instructions: Some(2_000),
            warm_instructions: Some(200),
            measure_instructions: Some(500),
            min_windows: Some(3),
        });
        spec
    }

    #[test]
    fn sampled_grid_reports_estimates_and_shares_checkpoints() {
        let spec = tiny_sampled_spec();
        let report = run_spec_with_threads(&spec, 2).unwrap();
        // 2 policies x 2 workloads, all complete.
        assert_eq!(report.policy_cells.len(), 4);
        assert_eq!(
            report.health.as_ref().unwrap().status,
            RunHealthStatus::Complete
        );
        for cell in &report.policy_cells {
            let sampled = cell.sampled.as_ref().unwrap();
            assert!(sampled.windows >= 3);
            assert!(sampled.detailed_fraction < 0.3);
            // The shared metric columns carry the estimate means.
            assert_eq!(cell.stp, sampled.stp.mean);
            assert_eq!(cell.antt, sampled.antt.mean);
            assert!(cell.stp > 0.0 && cell.antt > 0.0);
        }
        // One warm checkpoint per workload: the functional warm-up prefix
        // never consults the fetch policy, so both policies share it.
        let checkpoints = report.checkpoints.unwrap();
        assert_eq!(checkpoints.captures, 2);
        assert_eq!(checkpoints.hits, 2);
        let text = report.format_text();
        assert!(text.contains("warm checkpoint"), "{text}");
        assert!(text.contains("windows, STP ±"), "{text}");
    }

    #[test]
    fn sampled_grid_results_are_thread_count_invariant() {
        let spec = tiny_sampled_spec();
        let serial = comparable(run_spec_with_threads(&spec, 1).unwrap());
        let parallel = comparable(run_spec_with_threads(&spec, 4).unwrap());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn chip_grid_results_are_thread_count_invariant() {
        let spec = tiny_chip_spec();
        let serial = run_spec_with_threads(&spec, 1).unwrap();
        let parallel = run_spec_with_threads(&spec, 4).unwrap();
        assert_eq!(serial.policy_cells, parallel.policy_cells);
        assert_eq!(serial.summaries, parallel.summaries);
    }

    /// The retired `chip.chip_threads` field, at its one accepted value, is
    /// inert: the report equals the one of the same spec without it.
    #[test]
    fn retired_chip_threads_of_one_leaves_the_report_unchanged() {
        let registry = crate::experiments::registry::ExperimentRegistry::builtin();
        let spec = registry
            .get("chip_2c2t_allocation_matrix")
            .expect("registry entry")
            .clone()
            .with_scale(RunScale::tiny())
            .with_workload_limit(1);
        let mut explicit = spec.clone();
        explicit.chip.as_mut().expect("chip spec").chip_threads = Some(1);
        assert_eq!(spec.chip.as_ref().unwrap().chip_threads, None);
        let absent = comparable(run_spec_with_threads(&spec, 1).unwrap());
        let one = comparable(run_spec_with_threads(&explicit, 1).unwrap());
        assert!(!absent.policy_cells.is_empty());
        assert_eq!(absent, one);
    }

    #[test]
    fn invalid_spec_is_rejected_before_running() {
        let mut spec = tiny_grid_spec();
        spec.policies.clear();
        assert!(run_spec(&spec).is_err());
    }

    #[test]
    fn permanently_panicking_cell_is_quarantined() {
        let items: Vec<u64> = (0..8).collect();
        for threads in [1, 4] {
            let runs = run_cells(&items, threads, |&x| {
                if x == 3 {
                    panic!("deliberate panic in item {x}");
                }
                Ok(x * 10)
            });
            let (results, outcomes) = fold(&items, runs, |x| x.to_string());
            assert_eq!(
                results,
                vec![0, 10, 20, 40, 50, 60, 70],
                "{threads} threads"
            );
            assert_eq!(outcomes.len(), 8);
            let failed: Vec<&CellOutcome> = outcomes.iter().filter(|o| !o.ok).collect();
            assert_eq!(failed.len(), 1);
            assert_eq!(failed[0].cell, 3);
            let error = failed[0].error.as_ref().unwrap();
            assert_eq!(error.kind, CellErrorKind::Panic);
            assert_eq!(error.detail, "deliberate panic in item 3");
        }
    }

    #[test]
    fn simulated_cycle_deadline_fails_every_cell_deterministically() {
        let mut spec = tiny_grid_spec();
        spec.scale.max_cycles = Some(10);
        let serial = comparable(run_spec_with_threads(&spec, 1).unwrap());
        let parallel = comparable(run_spec_with_threads(&spec, 4).unwrap());
        assert_eq!(serial, parallel);
        let health = serial.health.as_ref().unwrap();
        assert_eq!(health.status, RunHealthStatus::Failed);
        assert_eq!(health.failed_cells, 4);
        for outcome in serial.cell_outcomes.as_ref().unwrap() {
            assert_eq!(
                outcome.error.as_ref().unwrap().kind,
                CellErrorKind::DeadlineExceeded
            );
        }
    }

    /// `[scale] max_cycles` is the engine's one deadline. On the two-thread
    /// grid it stops the slowest cells before their instruction budget and
    /// lets the others finish, and the degraded report is the same on 1 and
    /// 4 worker threads.
    #[test]
    fn degraded_reports_are_thread_count_invariant() {
        let mut spec = crate::experiments::registry::ExperimentRegistry::builtin()
            .get("fig09_two_thread_policies")
            .expect("registry entry")
            .clone()
            .with_scale(RunScale::tiny())
            .with_workload_limit_per_group(1)
            .unwrap();
        spec.scale.max_cycles = Some(20_000);
        let serial = comparable(run_spec_with_threads(&spec, 1).unwrap());
        let parallel = comparable(run_spec_with_threads(&spec, 4).unwrap());
        assert_eq!(serial, parallel);
        let health = serial.health.as_ref().unwrap();
        assert_eq!(health.status, RunHealthStatus::Degraded);
        assert_eq!(health.planned_cells, 18);
        assert_eq!(health.completed_cells, 15);
        assert_eq!(health.failed_cells, 3);
        assert_eq!(serial.policy_cells.len(), 15);
        for outcome in serial.cell_outcomes.as_ref().unwrap() {
            if !outcome.ok {
                let error = outcome.error.as_ref().unwrap();
                assert_eq!(error.kind, CellErrorKind::DeadlineExceeded);
                assert!(
                    error.detail.contains("simulated-cycle cap"),
                    "{}",
                    error.detail
                );
            }
        }
    }
}
