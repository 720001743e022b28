//! Resilient parallel execution engine for [`ExperimentSpec`]s.
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
//! # Resilience
//!
//! Every cell runs inside an isolation boundary ([`std::panic::catch_unwind`]
//! plus a quiet panic hook), so one panicking cell is quarantined as a
//! [`CellOutcome`] failure while the rest of the grid keeps draining.
//! A [`RunPolicy`] adds bounded retries with capped exponential backoff, a
//! wall-clock watchdog deadline, a deterministic simulated-cycle deadline
//! (via [`RunScale::max_cycles`]), optional fail-fast, and a deterministic
//! fault-injection hook ([`smt_resil::FaultPlan`]) for chaos testing. The
//! report degrades gracefully: completed cells are kept, failures are
//! recorded per cell, and [`RunHealth`] classifies the whole run.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, Once, PoisonError};
use std::time::Duration;
use std::time::Instant; // analyze: allow(determinism) reason="harness-side wall-clock for progress reporting; never feeds simulated state"

use smt_resil::FaultInjector;
use smt_sched::AllocationPolicyKind;
use smt_types::config::FetchPolicyKind;
use smt_types::{CellError, CellOutcome, RunHealth, SamplingConfig, SimError, SmtConfig};

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

/// How the engine shields a run from failing cells: retry budget, backoff
/// shape, deadlines, fail-fast, and the optional deterministic fault plan.
///
/// The zero-configuration default retries each failed cell once with a few
/// milliseconds of backoff and no deadlines — exactly the behaviour a
/// fault-free run cannot observe, because successful cells record neither
/// retries nor errors in the report.
#[derive(Clone, PartialEq, Debug)]
pub struct RunPolicy {
    /// Retries per cell after the first attempt (`max_retries = 0` means one
    /// attempt, no retry). Only retryable errors (panics, deadlines,
    /// injected faults) consume the budget; deterministic simulation errors
    /// fail immediately.
    pub max_retries: u64,
    /// Wall-clock budget per cell attempt, enforced by a watchdog thread.
    /// `None` disables the wall-clock deadline.
    pub cell_timeout_ms: Option<u64>,
    /// Deterministic simulated-cycle budget per cell, checked inside the
    /// simulator step loop. A cell that hits the cap before any thread
    /// commits its instruction budget fails with a deadline error.
    pub max_cell_cycles: Option<u64>,
    /// Abort remaining cells after the first permanent failure. Skipped
    /// cells are reported as failed with a `skipped` error. Which cells are
    /// skipped depends on scheduling when `threads > 1`.
    pub fail_fast: bool,
    /// Base backoff before the first retry, in milliseconds.
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff sleep, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Deterministic fault plan evaluated at the engine's injection points
    /// (`cell-start`, `cell-finish`). `None` injects nothing.
    pub fault_plan: Option<smt_resil::FaultPlan>,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            max_retries: 1,
            cell_timeout_ms: None,
            max_cell_cycles: None,
            fail_fast: false,
            backoff_base_ms: 2,
            backoff_cap_ms: 250,
            fault_plan: None,
        }
    }
}

impl RunPolicy {
    /// Builds the effective policy for a spec: the engine defaults with every
    /// field the spec's optional `resilience` section sets layered on top.
    pub fn from_spec(spec: &ExperimentSpec) -> Self {
        let mut policy = RunPolicy::default();
        if let Some(resilience) = &spec.resilience {
            if let Some(v) = resilience.max_retries {
                policy.max_retries = v;
            }
            if resilience.cell_timeout_ms.is_some() {
                policy.cell_timeout_ms = resilience.cell_timeout_ms;
            }
            if resilience.max_cell_cycles.is_some() {
                policy.max_cell_cycles = resilience.max_cell_cycles;
            }
            if let Some(v) = resilience.fail_fast {
                policy.fail_fast = v;
            }
            if let Some(v) = resilience.backoff_base_ms {
                policy.backoff_base_ms = v;
            }
            if let Some(v) = resilience.backoff_cap_ms {
                policy.backoff_cap_ms = v;
            }
            if resilience.fault_plan.is_some() {
                policy.fault_plan = resilience.fault_plan.clone();
            }
        }
        policy
    }

    /// Total attempts per cell (the first run plus the retries).
    pub fn max_attempts(&self) -> u64 {
        self.max_retries.saturating_add(1)
    }

    /// Backoff before retry `attempt` (1-based) of `cell`: capped exponential
    /// growth from [`RunPolicy::backoff_base_ms`] plus a small deterministic
    /// per-cell jitter, so retried cells of one run do not stampede in
    /// lockstep. A pure function of `(cell, attempt)` — never wall clock.
    pub fn backoff_ms(&self, cell: u64, attempt: u64) -> u64 {
        let base = self.backoff_base_ms.max(1);
        let shift = attempt.saturating_sub(1).min(16) as u32;
        let raw = base.saturating_mul(1u64 << shift);
        let jitter = (cell.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58) % base;
        raw.saturating_add(jitter)
            .min(self.backoff_cap_ms.max(base))
    }
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

/// Wall-clock watchdog for cell deadlines. One monitor thread owns the only
/// [`Instant`] and publishes a millisecond clock through an atomic; workers
/// stamp their cell's start against that clock and poll an `expired` flag.
struct Watchdog {
    /// Milliseconds since the monitor started, advanced only by the monitor.
    clock_ms: AtomicU64,
    /// Per cell: `clock_ms + 1` at attempt start, `0` when idle.
    started: Vec<AtomicU64>,
    /// Per cell: set by the monitor once the running attempt overruns.
    expired: Vec<AtomicBool>,
    /// Cells fully finished (all attempts done or skipped).
    finished: AtomicUsize,
    timeout_ms: u64,
}

impl Watchdog {
    fn new(cells: usize, timeout_ms: u64) -> Self {
        Watchdog {
            clock_ms: AtomicU64::new(0),
            started: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            expired: (0..cells).map(|_| AtomicBool::new(false)).collect(),
            finished: AtomicUsize::new(0),
            timeout_ms,
        }
    }

    /// Stamps the start of an attempt on `cell` against the monitor's clock.
    fn arm(&self, cell: usize) {
        self.expired[cell].store(false, Ordering::Release);
        let stamp = self.clock_ms.load(Ordering::Acquire) + 1;
        self.started[cell].store(stamp, Ordering::Release);
    }

    /// Ends the attempt on `cell`; returns whether the monitor saw it overrun.
    fn disarm(&self, cell: usize) -> bool {
        self.started[cell].store(0, Ordering::Release);
        self.expired[cell].swap(false, Ordering::AcqRel)
    }

    /// Marks one cell as completely finished (success, failure, or skip).
    fn cell_done(&self) {
        self.finished.fetch_add(1, Ordering::AcqRel);
    }

    /// Monitor loop: advances the shared clock and flags overrunning cells
    /// until every cell is finished. This is the engine's single sanctioned
    /// wall-clock read; simulated state never observes it.
    fn monitor(&self) {
        // analyze: allow(determinism) reason="wall-clock watchdog for cell deadlines; flags harness overruns only and never feeds simulated state"
        let clock = Instant::now();
        let poll = (self.timeout_ms / 4).clamp(1, 25);
        while self.finished.load(Ordering::Acquire) < self.started.len() {
            std::thread::sleep(Duration::from_millis(poll));
            let now = clock.elapsed().as_millis() as u64;
            self.clock_ms.store(now, Ordering::Release);
            for cell in 0..self.started.len() {
                let stamp = self.started[cell].load(Ordering::Acquire);
                if stamp != 0 && now.saturating_sub(stamp - 1) > self.timeout_ms {
                    self.expired[cell].store(true, Ordering::Release);
                }
            }
        }
    }
}

/// The terminal outcome of one cell: its result (or the error of the last
/// attempt) and how many attempts were consumed.
struct CellRun<R> {
    result: Result<R, CellError>,
    attempts: u64,
}

/// One isolated attempt of a cell: fault injection at `cell-start`, the cell
/// body, fault injection at `cell-finish`, all under `catch_unwind` with the
/// quiet panic hook engaged.
fn attempt_cell<T, R>(
    cell: u64,
    attempt: u64,
    item: &T,
    injector: Option<&FaultInjector>,
    body: &(impl Fn(&T) -> Result<R, SimError> + Sync),
) -> Result<R, CellError> {
    IN_CELL.with(|flag| flag.set(true));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(injector) = injector {
            if let Some(fault) = injector.check("cell-start", cell, attempt) {
                fault.trigger()?;
            }
        }
        let result = body(item).map_err(|e| match e {
            SimError::DeadlineExceeded { reason } => CellError::deadline(reason),
            other => CellError::invalid_spec(other.to_string()),
        })?;
        if let Some(injector) = injector {
            if let Some(fault) = injector.check("cell-finish", cell, attempt) {
                fault.trigger()?;
            }
        }
        Ok(result)
    }));
    IN_CELL.with(|flag| flag.set(false));
    match caught {
        Ok(outcome) => outcome,
        Err(payload) => Err(CellError::panic(panic_payload(payload))),
    }
}

/// Runs one cell to its terminal outcome: up to [`RunPolicy::max_attempts`]
/// isolated attempts with deterministic backoff between them and the
/// watchdog armed around each attempt.
fn run_one_cell<T, R>(
    index: usize,
    item: &T,
    policy: &RunPolicy,
    injector: Option<&FaultInjector>,
    watchdog: Option<&Watchdog>,
    body: &(impl Fn(&T) -> Result<R, SimError> + Sync),
) -> CellRun<R> {
    let cell = index as u64;
    let max_attempts = policy.max_attempts();
    let mut last_error = CellError::skipped("cell never ran");
    for attempt in 0..max_attempts {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(policy.backoff_ms(cell, attempt)));
        }
        if let Some(watchdog) = watchdog {
            watchdog.arm(index);
        }
        let outcome = attempt_cell(cell, attempt, item, injector, body);
        let expired = watchdog.is_some_and(|w| w.disarm(index));
        let outcome = match outcome {
            Ok(_) if expired => Err(CellError::deadline(format!(
                "cell exceeded its {} ms wall-clock budget",
                policy.cell_timeout_ms.unwrap_or(0)
            ))),
            Ok(result) => Ok(result),
            // A failed attempt keeps its own error even if it also overran.
            Err(error) => Err(error),
        };
        match outcome {
            Ok(result) => {
                return CellRun {
                    result: Ok(result),
                    attempts: attempt + 1,
                }
            }
            Err(error) => {
                let retryable = error.kind.is_retryable();
                last_error = error;
                if !retryable {
                    return CellRun {
                        result: Err(last_error),
                        attempts: attempt + 1,
                    };
                }
            }
        }
    }
    CellRun {
        result: Err(last_error),
        attempts: max_attempts,
    }
}

/// The resilient executor: runs every item as an isolated, retried,
/// deadline-guarded cell on up to `threads` workers, returning terminal
/// outcomes in item order. Fault firing is a pure function of
/// `(site, cell index, attempt)`, so outcomes are thread-count invariant
/// (except which cells a `fail_fast` abort skips).
fn run_cells<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    policy: &RunPolicy,
    body: impl Fn(&T) -> Result<R, SimError> + Sync,
) -> Vec<CellRun<R>> {
    install_cell_panic_hook();
    let injector = policy.fault_plan.clone().map(FaultInjector::new);
    let injector = injector.as_ref();
    let watchdog = policy
        .cell_timeout_ms
        .map(|t| Watchdog::new(items.len(), t));
    let watchdog = watchdog.as_ref();
    let threads = threads.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<CellRun<R>>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        if let Some(watchdog) = watchdog {
            scope.spawn(|| watchdog.monitor());
        }
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let run = if abort.load(Ordering::Acquire) {
                    CellRun {
                        result: Err(CellError::skipped(
                            "fail-fast: an earlier cell failed permanently",
                        )),
                        attempts: 0,
                    }
                } else {
                    let run = run_one_cell(i, &items[i], policy, injector, watchdog, &body);
                    if policy.fail_fast && run.result.is_err() {
                        abort.store(true, Ordering::Release);
                    }
                    run
                };
                if let Some(watchdog) = watchdog {
                    watchdog.cell_done();
                }
                // A cell that panicked on a previous holder cannot poison the
                // slot (panics are caught inside the cell), but recover anyway
                // rather than cascade.
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(run);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| CellRun {
                    result: Err(CellError::skipped("cell produced no result")),
                    attempts: 0,
                })
        })
        .collect()
}

/// Splits terminal cell runs into the successful results and one labelled
/// outcome per planned cell, in cell order.
fn fold<T, R>(
    items: &[T],
    runs: Vec<CellRun<R>>,
    label: impl Fn(&T) -> String,
) -> (Vec<R>, Vec<CellOutcome>) {
    let mut results = Vec::with_capacity(items.len());
    let mut outcomes = Vec::with_capacity(items.len());
    for (index, (item, run)) in items.iter().zip(runs).enumerate() {
        let (index, label) = (index as u64, label(item));
        match run.result {
            Ok(result) => {
                results.push(result);
                outcomes.push(CellOutcome::success(index, label));
            }
            Err(error) => outcomes.push(CellOutcome::failure(index, label, error, run.attempts)),
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
/// optional allocation × workload, nested in that order, so cell indices (and fault-plan targets) follow the spec's
/// declaration order.
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
    /// Expands `spec`. Each distinct benchmark's MLP intensity is probed at
    /// most once (serially, at negligible probe scale) before the cells fan
    /// out, so every cell sees identical placement inputs at any engine
    /// thread count; probe failures are setup errors, not cell failures.
    fn new(spec: &'a ExperimentSpec) -> Result<Self, SimError> {
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
            for benchmark in workloads.iter().flat_map(|w| &w.benchmarks) {
                if !intensities.contains_key(benchmark) {
                    let value = mlp_intensity(benchmark, &probe_config, spec.scale.seed)?;
                    intensities.insert(benchmark.clone(), value);
                }
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

/// Runs an experiment spec on exactly `threads` worker threads under the
/// resilience policy the spec itself declares ([`RunPolicy::from_spec`]).
///
/// # Errors
///
/// See [`run_spec`].
pub fn run_spec_with_threads(
    spec: &ExperimentSpec,
    threads: usize,
) -> Result<ExperimentReport, SimError> {
    run_spec_with_policy(spec, threads, &RunPolicy::from_spec(spec))
}

/// Runs an experiment spec on exactly `threads` worker threads under an
/// explicit resilience policy (overriding whatever the spec declares).
///
/// # Errors
///
/// See [`run_spec`].
pub fn run_spec_with_policy(
    spec: &ExperimentSpec,
    threads: usize,
    policy: &RunPolicy,
) -> Result<ExperimentReport, SimError> {
    spec.validate()?;
    let threads = threads.max(1);
    let start = Instant::now(); // analyze: allow(determinism) reason="elapsed-time reporting for the experiment harness, not simulated state"

    // The simulated-cycle deadline rides on the spec's scale so every
    // simulation a cell starts observes it inside its own step loop.
    let mut effective = spec.clone();
    if let Some(cap) = policy.max_cell_cycles {
        effective.scale.max_cycles = Some(cap);
    }
    let cache = StReferenceCache::new();
    let checkpoints = CheckpointCache::new();
    let mut report = empty_report(spec, threads);
    let outcomes = if spec.kind.is_single_thread() {
        let benchmarks: Vec<&String> = effective.workloads.iter().map(|w| &w[0]).collect();
        let (kind, scale) = (effective.kind, effective.scale);
        let runs = run_cells(&benchmarks, threads, policy, |b| bench_row(kind, b, scale));
        let (rows, outcomes) = fold(&benchmarks, runs, |b| b.to_string());
        report.bench_rows = rows;
        outcomes
    } else {
        let plan = CellPlan::new(&effective)?;
        let runs = run_cells(&plan.cells, threads, policy, |cell| {
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
    use smt_resil::{FaultAction, FaultPlan, FaultSpec};
    use smt_types::{CellErrorKind, RunHealthStatus};

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

    fn fault(site: &str, action: FaultAction) -> FaultSpec {
        FaultSpec {
            site: site.to_string(),
            action,
            cell: None,
            hits: None,
            delay_ms: None,
            probability_pct: None,
            detail: None,
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
        let policy = RunPolicy::default();
        let double = |threads| {
            let runs = run_cells(&items, threads, &policy, |&x| Ok(x * 2));
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
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = RunPolicy {
            backoff_base_ms: 4,
            backoff_cap_ms: 20,
            ..RunPolicy::default()
        };
        let first = policy.backoff_ms(3, 1);
        assert_eq!(first, policy.backoff_ms(3, 1));
        assert!(first >= 4);
        assert!(policy.backoff_ms(3, 2) >= first);
        // Growth saturates at the cap.
        assert_eq!(policy.backoff_ms(3, 10), 20);
        assert_eq!(policy.backoff_ms(3, 63), 20);
    }

    #[test]
    fn permanently_panicking_cell_is_quarantined() {
        let spec = tiny_grid_spec();
        let mut panic_fault = fault("cell-start", FaultAction::Panic);
        panic_fault.cell = Some(0);
        panic_fault.detail = Some("chaos: engine test".to_string());
        let policy = RunPolicy {
            fault_plan: Some(FaultPlan {
                seed: 7,
                faults: vec![panic_fault],
            }),
            ..RunPolicy::default()
        };
        let report = run_spec_with_policy(&spec, 2, &policy).unwrap();
        let health = report.health.unwrap();
        assert_eq!(health.status, RunHealthStatus::Degraded);
        assert_eq!(health.planned_cells, 4);
        assert_eq!(health.completed_cells, 3);
        assert_eq!(health.failed_cells, 1);
        // The surviving cells are intact.
        assert_eq!(report.policy_cells.len(), 3);
        let outcomes = report.cell_outcomes.unwrap();
        let failed = &outcomes[0];
        assert!(!failed.ok);
        let error = failed.error.as_ref().unwrap();
        assert_eq!(error.kind, CellErrorKind::Panic);
        assert!(error.detail.contains("chaos: engine test"));
        // Default policy: one retry, so two attempts were consumed.
        assert_eq!(failed.attempts, Some(2));
    }

    #[test]
    fn transient_fault_recovers_to_bit_for_bit_parity() {
        let spec = tiny_grid_spec();
        let clean = comparable(run_spec_with_threads(&spec, 2).unwrap());
        let mut transient = fault("cell-start", FaultAction::Panic);
        transient.hits = Some(1);
        let policy = RunPolicy {
            backoff_base_ms: 1,
            fault_plan: Some(FaultPlan {
                seed: 7,
                faults: vec![transient],
            }),
            ..RunPolicy::default()
        };
        assert!(policy
            .fault_plan
            .as_ref()
            .unwrap()
            .recovers_within(policy.max_attempts()));
        let chaotic = comparable(run_spec_with_policy(&spec, 2, &policy).unwrap());
        assert_eq!(clean, chaotic);
    }

    #[test]
    fn degraded_reports_are_thread_count_invariant() {
        let spec = tiny_grid_spec();
        let mut broken = fault("cell-finish", FaultAction::Fail);
        broken.cell = Some(2);
        let policy = RunPolicy {
            backoff_base_ms: 1,
            fault_plan: Some(FaultPlan {
                seed: 11,
                faults: vec![broken],
            }),
            ..RunPolicy::default()
        };
        let serial = comparable(run_spec_with_policy(&spec, 1, &policy).unwrap());
        let parallel = comparable(run_spec_with_policy(&spec, 4, &policy).unwrap());
        assert_eq!(serial, parallel);
        assert_eq!(
            serial.health.as_ref().unwrap().status,
            RunHealthStatus::Degraded
        );
        let outcome = &serial.cell_outcomes.as_ref().unwrap()[2];
        assert_eq!(
            outcome.error.as_ref().unwrap().kind,
            CellErrorKind::InjectedFault
        );
        // Injected faults are retryable: the full attempt budget was spent.
        assert_eq!(outcome.attempts, Some(2));
    }

    #[test]
    fn wall_clock_deadline_fails_slow_cells() {
        let spec = tiny_grid_spec();
        let mut slow = fault("cell-start", FaultAction::Delay);
        slow.cell = Some(1);
        slow.delay_ms = Some(1200);
        let policy = RunPolicy {
            max_retries: 0,
            cell_timeout_ms: Some(600),
            fault_plan: Some(FaultPlan {
                seed: 3,
                faults: vec![slow],
            }),
            ..RunPolicy::default()
        };
        let report = run_spec_with_policy(&spec, 2, &policy).unwrap();
        let outcomes = report.cell_outcomes.unwrap();
        let failed = &outcomes[1];
        assert!(!failed.ok);
        assert_eq!(
            failed.error.as_ref().unwrap().kind,
            CellErrorKind::DeadlineExceeded
        );
        assert_eq!(report.health.unwrap().status, RunHealthStatus::Degraded);
    }

    #[test]
    fn simulated_cycle_deadline_fails_every_cell_deterministically() {
        let spec = tiny_grid_spec();
        let policy = RunPolicy {
            max_retries: 0,
            max_cell_cycles: Some(10),
            ..RunPolicy::default()
        };
        let serial = comparable(run_spec_with_policy(&spec, 1, &policy).unwrap());
        let parallel = comparable(run_spec_with_policy(&spec, 4, &policy).unwrap());
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

    #[test]
    fn fail_fast_skips_cells_after_a_permanent_failure() {
        let spec = tiny_grid_spec();
        let mut broken = fault("cell-start", FaultAction::Fail);
        broken.cell = Some(0);
        let policy = RunPolicy {
            max_retries: 0,
            fail_fast: true,
            fault_plan: Some(FaultPlan {
                seed: 5,
                faults: vec![broken],
            }),
            ..RunPolicy::default()
        };
        // Serial execution makes the skip set deterministic: cell 0 fails,
        // cells 1-3 are skipped.
        let report = run_spec_with_policy(&spec, 1, &policy).unwrap();
        let outcomes = report.cell_outcomes.unwrap();
        assert_eq!(
            outcomes[0].error.as_ref().unwrap().kind,
            CellErrorKind::InjectedFault
        );
        for outcome in &outcomes[1..] {
            assert_eq!(outcome.error.as_ref().unwrap().kind, CellErrorKind::Skipped);
            assert_eq!(outcome.attempts, Some(0));
        }
        assert_eq!(report.health.unwrap().status, RunHealthStatus::Failed);
        assert!(report.policy_cells.is_empty());
    }
}
