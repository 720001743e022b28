//! High-level run helpers: single-threaded references, multiprogram runs, and
//! STP/ANTT evaluation following the paper's methodology (Section 5).
//!
//! The paper stops a multiprogram simulation when the first program reaches its
//! instruction budget; each co-runner has then executed `x_i` instructions and its
//! single-threaded CPI is taken *at the same instruction count* `x_i`. The
//! [`StReferenceCache`] records a cycles-per-instructions curve for each benchmark
//! so those per-`x_i` reference CPIs do not require a fresh simulation per policy.
//! [`evaluate_cell`] applies that methodology to one grid cell of any mode.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use serde::{Deserialize, Serialize};
use smt_sched::{build_allocation_policy, AllocationPolicyKind, ThreadSpec};
use smt_trace::{spec, FileTraceSource, SyntheticTraceGenerator, TraceSource};
use smt_types::config::FetchPolicyKind;
use smt_types::{ChipConfig, MachineStats, MetricEstimate, SamplingConfig, SimError, SmtConfig};

use crate::chip::{ChipSimulator, StopRule};
use crate::experiments::report::{PolicyCell, SampledCellStats};
use crate::metrics;
use crate::pipeline::checkpoint::SimCheckpoint;
use crate::pipeline::{SimOptions, SmtSimulator};
use crate::workloads::Workload;

/// How large a simulation to run; all experiment runners take one of these so the
/// same code scales from unit-test sized runs to paper-scale runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RunScale {
    /// Instruction budget per thread (the multiprogram run stops when the first
    /// thread reaches it).
    pub instructions_per_thread: u64,
    /// Warm-up instructions per thread, excluded from all statistics.
    pub warmup_instructions: u64,
    /// Base random seed for the synthetic trace generators.
    pub seed: u64,
    /// Optional deterministic cap on simulated cycles, checked inside the
    /// simulator step loop: the engine's one per-cell deadline. A cell that
    /// reaches it fails with a deadline-exceeded error. Absent = the
    /// generous [`SimOptions`] default safety limit.
    pub max_cycles: Option<u64>,
}

impl RunScale {
    /// Very small runs for doctests and smoke tests (2 K instructions).
    pub fn tiny() -> Self {
        RunScale {
            instructions_per_thread: 2_000,
            warmup_instructions: 1_000,
            seed: 42,
            max_cycles: None,
        }
    }

    /// Unit-test sized runs (10 K instructions).
    pub fn test() -> Self {
        RunScale {
            instructions_per_thread: 10_000,
            warmup_instructions: 4_000,
            seed: 42,
            max_cycles: None,
        }
    }

    /// Default experiment scale (60 K instructions per thread).
    pub fn standard() -> Self {
        RunScale {
            instructions_per_thread: 60_000,
            warmup_instructions: 10_000,
            seed: 42,
            max_cycles: None,
        }
    }

    /// Larger runs for the benchmark harness (150 K instructions per thread).
    pub fn full() -> Self {
        RunScale {
            instructions_per_thread: 150_000,
            warmup_instructions: 20_000,
            seed: 42,
            max_cycles: None,
        }
    }

    /// Returns a copy with a different instruction budget.
    pub fn with_instructions(mut self, instructions: u64) -> Self {
        self.instructions_per_thread = instructions;
        self
    }

    /// The preset names accepted by [`RunScale::named`] (CLI `--scale` values).
    pub const NAMES: [&'static str; 4] = ["tiny", "test", "standard", "full"];

    /// Looks up a preset scale by name.
    pub fn named(name: &str) -> Option<RunScale> {
        match name {
            "tiny" => Some(Self::tiny()),
            "test" => Some(Self::test()),
            "standard" => Some(Self::standard()),
            "full" => Some(Self::full()),
            _ => None,
        }
    }

    /// Checks the scale for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a zero instruction budget.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.instructions_per_thread == 0 {
            return Err(SimError::invalid_config(
                "scale: instructions_per_thread must be non-zero",
            ));
        }
        if self.max_cycles == Some(0) {
            return Err(SimError::invalid_config(
                "scale: max_cycles must be non-zero when set",
            ));
        }
        Ok(())
    }

    /// The [`SimOptions`] equivalent of this scale.
    pub fn sim_options(&self) -> SimOptions {
        let defaults = SimOptions::default();
        SimOptions {
            max_instructions_per_thread: self.instructions_per_thread,
            warmup_instructions_per_thread: self.warmup_instructions,
            max_cycles: self.max_cycles.unwrap_or(defaults.max_cycles),
        }
    }
}

impl Default for RunScale {
    fn default() -> Self {
        Self::standard()
    }
}

/// Deterministic per-benchmark seed so single-threaded and multithreaded runs of
/// the same benchmark replay the same instruction stream.
fn benchmark_seed(name: &str, base: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ base;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Builds the trace source for one benchmark.
///
/// `trace:<path>` names replay the `.smtt` file at `<path>` (relative paths
/// resolve against the process working directory); every other name
/// instantiates the synthetic generator for that SPEC CPU2000 benchmark,
/// seeded from the benchmark name and `scale.seed`. This is the single
/// construction hook every run path goes through — single-thread references,
/// multiprogram and chip runs, sampled warm-up and checkpoint capture — so
/// trace-backed workloads compose with all of them automatically.
///
/// # Errors
///
/// Returns [`SimError::UnknownBenchmark`] for names outside Table I, or
/// [`SimError::InvalidConfig`] when a `trace:` file is missing or malformed.
pub fn build_trace(benchmark: &str, scale: RunScale) -> Result<Box<dyn TraceSource>, SimError> {
    if let Some(path) = smt_trace::trace_path(benchmark) {
        return Ok(Box::new(FileTraceSource::open(path)?));
    }
    let profile = spec::benchmark(benchmark)?;
    Ok(Box::new(SyntheticTraceGenerator::new(
        profile,
        benchmark_seed(benchmark, scale.seed),
    )))
}

/// Runs one benchmark alone on the single-threaded baseline configuration derived
/// from `config` and returns its statistics.
///
/// # Errors
///
/// Returns [`SimError::UnknownBenchmark`] for unknown benchmarks or
/// [`SimError::InvalidConfig`] if the derived configuration is invalid.
pub fn run_single_thread(
    benchmark: &str,
    config: &SmtConfig,
    scale: RunScale,
) -> Result<MachineStats, SimError> {
    let trace = build_trace(benchmark, scale)?;
    let mut sim = SmtSimulator::new(single_thread(config), vec![trace])?;
    Ok(sim.run(scale.sim_options()))
}

/// `config` with one thread under ICOUNT: the machine every single-thread
/// reference runs on.
fn single_thread(config: &SmtConfig) -> SmtConfig {
    SmtConfig {
        num_threads: 1,
        fetch_policy: FetchPolicyKind::Icount,
        ..config.clone()
    }
}

/// Runs a multiprogram workload under `policy` and returns the raw machine
/// statistics (no single-threaded normalization).
///
/// # Errors
///
/// Returns an error for unknown benchmarks or invalid configurations.
// analyze: allow(test-only-pub) reason="perfbench's wrappers_are_transparent test and tests/golden_stats.rs run it; it goes when perfbench stops naming it"
pub fn run_multiprogram(
    benchmarks: &[&str],
    policy: FetchPolicyKind,
    config: &SmtConfig,
    scale: RunScale,
) -> Result<MachineStats, SimError> {
    let mut mt_config = config.clone();
    mt_config.num_threads = benchmarks.len();
    mt_config.fetch_policy = policy;
    let mut sim = SmtSimulator::new(mt_config, build_traces(benchmarks, scale)?)?;
    Ok(sim.run(scale.sim_options()))
}

/// [`build_trace`] for every benchmark, in order.
fn build_traces(
    benchmarks: &[&str],
    scale: RunScale,
) -> Result<Vec<Box<dyn TraceSource>>, SimError> {
    benchmarks.iter().map(|b| build_trace(b, scale)).collect()
}

/// A cycles-versus-instructions curve recorded from a single-threaded run.
#[derive(Clone, Debug)]
struct StCurve {
    interval: u64,
    /// `cycles[i]` = cycle count when `(i + 1) * interval` instructions had
    /// committed.
    cycles: Vec<u64>,
    /// Total instructions the curve covers.
    total_instructions: u64,
    /// Total cycles of the recorded run.
    total_cycles: u64,
}

impl StCurve {
    /// Single-threaded CPI after `instructions` committed instructions.
    fn cpi_at(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            return 1.0;
        }
        let idx = instructions / self.interval;
        let cycles = if idx == 0 {
            // Scale the first checkpoint linearly below one interval.
            let first = *self.cycles.first().unwrap_or(&self.total_cycles);
            (first as f64 * instructions as f64 / self.interval as f64).max(1.0) as u64
        } else if (idx as usize) <= self.cycles.len() {
            self.cycles[(idx as usize) - 1]
        } else {
            self.total_cycles
        };
        cycles as f64 / instructions.min(self.total_instructions).max(1) as f64
    }
}

/// A map whose value for each key is computed at most once, shared by the
/// worker threads of the parallel experiment engine: concurrent callers of
/// one key block until the one elected computation finishes. The map lock is
/// held only to find or insert a key's [`OnceLock`] cell, never while
/// computing, so callers of different keys never serialize on each other.
struct OnceMap<K, V> {
    #[allow(clippy::type_complexity)]
    cells: Mutex<HashMap<K, Arc<OnceLock<Result<V, SimError>>>>>,
    computed: AtomicU64,
    requests: AtomicU64,
}

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> Self {
        OnceMap {
            cells: Mutex::default(),
            computed: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }
}

impl<K: Eq + Hash, V: Clone> OnceMap<K, V> {
    /// The value of `key`, computed by `compute` on first use.
    fn get(&self, key: K, compute: impl FnOnce() -> Result<V, SimError>) -> Result<V, SimError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let cell = {
            // The map lock never wraps user code, but a cell body panicking
            // elsewhere must not cascade into "poisoned" aborts here: the
            // map is a plain insert-only table, valid even after a panic.
            let mut cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(cells.entry(key).or_default())
        };
        cell.get_or_init(|| {
            self.computed.fetch_add(1, Ordering::Relaxed);
            compute()
        })
        .clone()
    }

    /// Number of values actually computed.
    fn computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// Number of requests served from an already-computed value.
    fn hits(&self) -> u64 {
        self.requests.load(Ordering::Relaxed) - self.computed()
    }
}

/// Cache of single-threaded reference curves keyed by benchmark and the
/// configuration parameters that affect single-threaded timing.
///
/// The cache is `Send + Sync` and designed to be shared across the worker
/// threads of the parallel experiment engine: each distinct
/// `(benchmark, configuration)` reference run is simulated **exactly once**
/// no matter how many threads ask for it concurrently, outside the map lock.
#[derive(Default)]
pub struct StReferenceCache {
    curves: OnceMap<(String, ConfigKey), Arc<StCurve>>,
}

/// Cache key: the *full* configuration normalized by [`single_thread`] as
/// every reference run is (one thread, ICOUNT fetch), plus the run scale.
/// Keying on the whole configuration rather than a hand-picked field subset
/// guarantees that any knob affecting single-threaded timing — including
/// ones added later — separates cache entries instead of silently aliasing
/// them.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct ConfigKey {
    st_config: SmtConfig,
    scale: RunScale,
}

impl ConfigKey {
    fn new(config: &SmtConfig, scale: RunScale) -> Self {
        let st_config = single_thread(config);
        ConfigKey { st_config, scale }
    }
}

impl StReferenceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Single-threaded CPI of `benchmark` after `instructions` instructions on the
    /// single-threaded version of `config`, simulating (and caching) the reference
    /// run on first use. Concurrent callers asking for the same reference block
    /// until the one elected simulation finishes.
    ///
    /// # Errors
    ///
    /// Propagates simulation construction errors.
    pub fn st_cpi(
        &self,
        benchmark: &str,
        config: &SmtConfig,
        scale: RunScale,
        instructions: u64,
    ) -> Result<f64, SimError> {
        let key = (benchmark.to_string(), ConfigKey::new(config, scale));
        let curve = self.curves.get(key, || {
            record_st_curve(benchmark, config, scale).map(Arc::new)
        })?;
        Ok(curve.cpi_at(instructions))
    }

    /// Number of reference simulations actually performed (as opposed to
    /// cache hits): one per distinct `(benchmark, configuration)`, even
    /// under concurrency.
    pub fn reference_runs(&self) -> u64 {
        self.curves.computed()
    }
}

fn record_st_curve(
    benchmark: &str,
    config: &SmtConfig,
    scale: RunScale,
) -> Result<StCurve, SimError> {
    let trace = build_trace(benchmark, scale)?;
    let st_config = ChipConfig::single_core(single_thread(config));
    let mut sim = ChipSimulator::new(st_config, vec![vec![trace]])?;
    let max_cycles = scale.sim_options().max_cycles;
    sim.warm_up(scale.warmup_instructions, max_cycles);
    let interval = (scale.instructions_per_thread / 64).max(256);
    let mut cycles = Vec::new();
    let mut next_checkpoint = interval;
    let budget = scale.instructions_per_thread;
    let committed = |sim: &ChipSimulator| sim.core_stats(0).threads[0].committed_instructions;
    while committed(&sim) < budget && sim.cycle() < max_cycles {
        let target = next_checkpoint.min(budget);
        sim.drive(
            StopRule::AnyThreadCommits(target - committed(&sim)),
            max_cycles,
        );
        while committed(&sim) >= next_checkpoint {
            // `stats().cycles` is only finalized by `run()`; between `drive`
            // calls the live measured count is the source of truth.
            cycles.push(sim.measured_cycles());
            next_checkpoint += interval;
        }
    }
    let committed = committed(&sim);
    if committed < budget {
        // A truncated curve would yield bogus (even zero) reference CPIs and
        // silently corrupt STP/ANTT; fail loudly so the engine can
        // classify the cell as deadline-exceeded instead.
        return Err(SimError::deadline_exceeded(format!(
            "simulated-cycle cap of {max_cycles} cycles hit before the single-thread \
             reference for '{benchmark}' committed its {budget}-instruction budget \
             (committed {committed})"
        )));
    }
    Ok(StCurve {
        interval,
        cycles,
        total_instructions: committed,
        total_cycles: sim.measured_cycles(),
    })
}

/// The hardware side of one grid cell.
#[derive(Clone, Debug)]
pub enum CellMachine {
    /// One SMT core running every workload thread.
    Core(SmtConfig),
    /// A chip of SMT cores. Each thread's single-threaded reference runs
    /// alone on one core of the chip: the core's private levels with the
    /// whole shared LLC to itself.
    Chip {
        /// The chip geometry (its cores run the cell's policy).
        chip: ChipConfig,
        /// How the workload's threads are placed on cores.
        allocation: AllocationPolicyKind,
        /// Per-thread MLP intensity in workload order (see
        /// [`mlp_intensity`]); only [`AllocationPolicyKind::MlpBalanced`]
        /// reads it.
        intensities: Vec<f64>,
    },
}

/// Everything one multiprogram grid cell simulates.
#[derive(Clone, Debug)]
pub struct CellSpec<'a> {
    /// The workload, one benchmark per hardware thread.
    pub workload: &'a Workload,
    /// The sweep value the cell belongs to (copied into the report cell).
    pub parameter: Option<u64>,
    /// The fetch policy every core runs.
    pub policy: FetchPolicyKind,
    /// One core or a chip.
    pub machine: CellMachine,
    /// Sampled-mode cadence; `None` simulates cycle-accurately end to end.
    /// Sampled cells run one core.
    pub sampling: Option<SamplingConfig>,
    /// Simulation size.
    pub scale: RunScale,
}

impl<'a> CellSpec<'a> {
    /// An exact cell of `workload` under `policy` on one core of the
    /// Table IV baseline configuration.
    pub fn baseline(workload: &'a Workload, policy: FetchPolicyKind, scale: RunScale) -> Self {
        CellSpec {
            workload,
            parameter: None,
            policy,
            machine: CellMachine::Core(SmtConfig::baseline(workload.num_threads())),
            sampling: None,
            scale,
        }
    }
}

/// Evaluates one grid cell: runs the workload, takes each thread's
/// single-threaded reference CPI from `cache` at the thread's committed
/// count, and combines them into STP/ANTT. Sampled cells restore their warm
/// prefix from `checkpoints`, extrapolate the committed counts from their
/// measurement windows, and report 95% confidence intervals in
/// [`PolicyCell::sampled`].
///
/// # Errors
///
/// Returns an error for unknown benchmarks, invalid configurations or
/// placements, a sampled cell that is not one core,
/// and a deadline error for a run whose simulated-cycle cap expired before
/// any thread committed its instruction budget (or, sampled, before any
/// window was measured).
pub fn evaluate_cell(
    cell: &CellSpec,
    cache: &StReferenceCache,
    checkpoints: &CheckpointCache,
) -> Result<PolicyCell, SimError> {
    let benchmarks: Vec<&str> = cell.workload.benchmarks.iter().map(AsRef::as_ref).collect();
    let scale = cell.scale;
    let policy = cell.policy;
    let mut out = PolicyCell {
        policy,
        workload: cell.workload.name(),
        benchmarks: cell.workload.benchmarks.clone(),
        group: cell.workload.group.label().to_string(),
        parameter: cell.parameter,
        stp: 0.0,
        antt: 0.0,
        per_thread_ipc: Vec::new(),
        per_thread_st_ipc: Vec::new(),
        allocation: None,
        num_cores: None,
        core_assignments: None,
        per_core_ipc: None,
        per_core_stp: None,
        sampled: None,
    };
    if let Some(sampling) = &cell.sampling {
        let CellMachine::Core(config) = &cell.machine else {
            return Err(SimError::invalid_config("sampled cells run one core"));
        };
        sampled_metrics(
            &mut out,
            &benchmarks,
            config,
            scale,
            sampling,
            cache,
            checkpoints,
        )?;
        return Ok(out);
    }

    // A one-core cell is a one-core chip with every thread in workload
    // order; only a chip cell places threads and reports per-core columns.
    let (chip, placement) = match &cell.machine {
        CellMachine::Core(config) => {
            let mut config = config.clone();
            config.num_threads = benchmarks.len();
            (ChipConfig::single_core(config), None)
        }
        CellMachine::Chip {
            chip,
            allocation,
            intensities,
        } => (chip.clone(), Some((*allocation, intensities))),
    };
    let (assignment, traces) = match placement {
        None => (
            vec![(0..benchmarks.len()).collect()],
            vec![build_traces(&benchmarks, scale)?],
        ),
        Some((allocation, intensities)) => {
            chip_placement(&benchmarks, intensities, allocation, &chip, scale)?
        }
    };
    let mut sim = ChipSimulator::new(chip.clone().with_policy(policy), traces)?;
    let stats = sim.run(scale.sim_options());
    // Freed before the reference runs below build their own simulators.
    drop(sim);
    // Per-thread committed counts in workload order.
    let mut committed = vec![0; benchmarks.len()];
    for (core, slots) in assignment.iter().enumerate() {
        for (slot, &ti) in slots.iter().enumerate() {
            committed[ti] = stats.cores[core].threads[slot].committed_instructions;
        }
    }
    let mut st_config = chip.core.clone();
    st_config.l3 = chip.shared_llc;

    // `max(1)` guards threads that never retired an instruction.
    let mut st_cpis = Vec::with_capacity(benchmarks.len());
    let mut mt_cpis = Vec::with_capacity(benchmarks.len());
    for (benchmark, &done) in benchmarks.iter().zip(&committed) {
        let done = done.max(1);
        mt_cpis.push(stats.cycles as f64 / done as f64);
        st_cpis.push(cache.st_cpi(benchmark, &st_config, scale, done)?);
    }
    out.stp = metrics::stp(&st_cpis, &mt_cpis);
    out.antt = metrics::antt(&st_cpis, &mt_cpis);
    out.per_thread_ipc = mt_cpis.iter().map(|c| 1.0 / c).collect();
    out.per_thread_st_ipc = st_cpis.iter().map(|c| 1.0 / c).collect();
    if let Some((allocation, _)) = placement {
        // The per-core split wants the CPIs in canonical `(core, slot)` order.
        let flat = |cpis: &[f64]| -> Vec<f64> {
            assignment.iter().flatten().map(|&ti| cpis[ti]).collect()
        };
        out.allocation = Some(allocation);
        out.num_cores = Some(chip.num_cores as u64);
        out.core_assignments = Some(join_core_assignments(&assignment, &benchmarks));
        out.per_core_ipc = Some(stats.per_core_ipc());
        let per_core = metrics::per_core_stp(&stats, &flat(&st_cpis), &flat(&mt_cpis));
        out.per_core_stp = Some(per_core);
    }

    // The step loop's only early exit is its simulated-cycle cap (explicit
    // `RunScale::max_cycles` or the generous `SimOptions` default), so a run
    // in which no thread reached the budget hit that cap.
    let best = committed.iter().copied().max().unwrap_or(0);
    if best < scale.instructions_per_thread {
        return Err(SimError::deadline_exceeded(format!(
            "simulated-cycle cap hit before any thread committed its {} instruction budget \
             (best thread committed {best})",
            scale.instructions_per_thread
        )));
    }
    Ok(out)
}

/// Cache of serialized warm checkpoints keyed by workload, configuration and
/// warm-prefix length, shared across the worker threads of the parallel
/// experiment engine exactly like [`StReferenceCache`]: each distinct
/// `(workload, configuration, prefix)` warm prefix is fast-forwarded **once**
/// and every grid cell branches from the captured [`SimCheckpoint`] instead
/// of re-running the prefix.
///
/// Functional fast-forward never consults the fetch policy (it is pure warm
/// state: caches, TLBs, predictors, LLSR), so the key normalizes the fetch
/// policy away and all policies of a grid share one checkpoint per workload.
#[derive(Default)]
pub struct CheckpointCache {
    checkpoints: OnceMap<CheckpointKey, Arc<SimCheckpoint>>,
}

/// Cache key: the workload's benchmarks in thread order, the full normalized
/// configuration (fetch policy erased — fast-forward is policy-independent),
/// the trace seed and the warm-prefix length.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct CheckpointKey {
    benchmarks: Vec<String>,
    config: SmtConfig,
    seed: u64,
    prefix_instructions: u64,
}

impl CheckpointCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the warm checkpoint for `benchmarks` on `config` after
    /// fast-forwarding `scale.warmup_instructions` per thread, capturing it on
    /// first use. Concurrent callers asking for the same prefix block until
    /// the one elected fast-forward finishes. Every caller shares the one
    /// captured checkpoint; restoring from it copies what the simulator needs.
    ///
    /// # Errors
    ///
    /// Propagates simulation construction and checkpoint capture errors.
    pub fn warmed(
        &self,
        benchmarks: &[&str],
        config: &SmtConfig,
        scale: RunScale,
    ) -> Result<Arc<SimCheckpoint>, SimError> {
        let mut norm = config.clone();
        norm.num_threads = benchmarks.len();
        norm.fetch_policy = FetchPolicyKind::Icount;
        let key = CheckpointKey {
            benchmarks: benchmarks.iter().map(|b| b.to_string()).collect(),
            config: norm.clone(),
            seed: scale.seed,
            prefix_instructions: scale.warmup_instructions,
        };
        self.checkpoints.get(key, || {
            capture_warm_checkpoint(benchmarks, &norm, scale).map(Arc::new)
        })
    }

    /// Number of warm prefixes actually fast-forwarded and captured.
    pub fn captures(&self) -> u64 {
        self.checkpoints.computed()
    }

    /// Number of requests served from an already-captured checkpoint.
    pub fn hits(&self) -> u64 {
        self.checkpoints.hits()
    }
}

fn capture_warm_checkpoint(
    benchmarks: &[&str],
    config: &SmtConfig,
    scale: RunScale,
) -> Result<SimCheckpoint, SimError> {
    let mut sim = SmtSimulator::new(config.clone(), build_traces(benchmarks, scale)?)?;
    sim.fast_forward(scale.warmup_instructions);
    sim.checkpoint(scale.seed)
}

/// Fills a sampled cell: the warm prefix comes from the shared `checkpoints`
/// cache, the run interleaves functional fast-forward with detailed
/// measurement windows per `sampling`, and STP/ANTT are extrapolated with the
/// paper's methodology at the estimated per-thread instruction counts. The
/// metric columns carry the estimate means; `out.sampled` keeps the 95%
/// confidence intervals from the between-window variance.
///
/// An exact run stops when the first thread commits the budget; the sampled
/// equivalent extrapolates each co-runner's committed count as
/// `budget × ipc_i / max_j ipc_j` and takes the single-threaded reference
/// CPIs at those counts from the shared `cache`, exactly as the exact
/// evaluation does at its measured counts.
fn sampled_metrics(
    out: &mut PolicyCell,
    benchmarks: &[&str],
    config: &SmtConfig,
    scale: RunScale,
    sampling: &SamplingConfig,
    cache: &StReferenceCache,
    checkpoints: &CheckpointCache,
) -> Result<(), SimError> {
    let mut mt_config = config.clone();
    mt_config.num_threads = benchmarks.len();
    mt_config.fetch_policy = out.policy;
    let mut sim = SmtSimulator::new(mt_config, build_traces(benchmarks, scale)?)?;
    if scale.warmup_instructions > 0 {
        let checkpoint = checkpoints.warmed(benchmarks, config, scale)?;
        sim.restore_checkpoint(&checkpoint)?;
    }
    let run = sim.run_sampled(scale.sim_options(), sampling)?;
    if run.window_cycles.is_empty() {
        return Err(SimError::deadline_exceeded(
            "sampled run measured no window before the cycle cap",
        ));
    }

    let budget = scale.instructions_per_thread;
    let max_ipc = run
        .estimate
        .per_thread_ipc
        .iter()
        .map(|e| e.mean)
        .fold(0.0f64, f64::max);
    let mut per_thread_st_ipc = Vec::with_capacity(benchmarks.len());
    let mut st_cpis = Vec::with_capacity(benchmarks.len());
    for (i, benchmark) in benchmarks.iter().enumerate() {
        // Extrapolated committed count when the fastest thread hits the
        // budget (the exact run's stop criterion).
        let ipc = run.estimate.per_thread_ipc[i].mean;
        let extrapolated = if max_ipc > 0.0 {
            ((budget as f64 * ipc / max_ipc) as u64).clamp(1, budget)
        } else {
            budget
        };
        let st_cpi = cache.st_cpi(benchmark, config, scale, extrapolated)?;
        per_thread_st_ipc.push(1.0 / st_cpi);
        st_cpis.push(st_cpi);
    }

    // STP = Σ_i (mt_ipc_i / st_ipc_i): ratio estimator over windows with the
    // single-threaded references held fixed (Σ_w Σ_i C_iw·st_cpi_i / Σ_w T_w).
    let stp_pairs: Vec<(f64, f64)> = run
        .window_thread_committed
        .iter()
        .zip(&run.window_cycles)
        .map(|(committed, &cycles)| {
            let num: f64 = committed
                .iter()
                .zip(&st_cpis)
                .map(|(&c, &st_cpi)| c as f64 * st_cpi)
                .sum();
            (num, cycles as f64)
        })
        .collect();
    let stp = MetricEstimate::from_ratio(&stp_pairs);

    // ANTT point estimate from the per-thread ratio estimates; the interval
    // comes from per-window ANTT samples (indicative: per-window ratios are
    // individually biased, but their spread bounds the between-window noise).
    let antt_point = st_cpis
        .iter()
        .zip(&run.estimate.per_thread_ipc)
        .map(|(&st_cpi, estimate)| {
            let ipc = estimate.mean.max(f64::MIN_POSITIVE);
            (1.0 / ipc) / st_cpi
        })
        .sum::<f64>()
        / benchmarks.len() as f64;
    let antt_samples: Vec<f64> = run
        .window_thread_committed
        .iter()
        .zip(&run.window_cycles)
        .map(|(committed, &cycles)| {
            committed
                .iter()
                .zip(&st_cpis)
                .map(|(&c, &st_cpi)| (cycles as f64 / c.max(1) as f64) / st_cpi)
                .sum::<f64>()
                / committed.len() as f64
        })
        .collect();
    let antt = MetricEstimate {
        mean: antt_point,
        ci95: MetricEstimate::from_samples(&antt_samples).ci95,
    };

    out.stp = stp.mean;
    out.antt = antt.mean;
    out.per_thread_ipc = run.estimate.per_thread_ipc.iter().map(|e| e.mean).collect();
    out.per_thread_st_ipc = per_thread_st_ipc;
    out.sampled = Some(SampledCellStats {
        windows: run.estimate.windows,
        detailed_fraction: run.estimate.detailed_fraction,
        stp,
        antt,
        total_ipc: run.estimate.total_ipc,
    });
    Ok(())
}

/// Scale of the single-thread probe runs behind [`mlp_intensity`]: long
/// enough to warm the predictors, short enough to be negligible next to the
/// measured runs.
fn probe_scale(seed: u64) -> RunScale {
    RunScale {
        instructions_per_thread: 2_000,
        warmup_instructions: 500,
        seed,
        max_cycles: None,
    }
}

/// Estimates a benchmark's MLP intensity — long-latency loads per
/// kilo-instruction times measured MLP — from a short single-thread probe run
/// on `core_config`. This is the signal
/// [`AllocationPolicyKind::MlpBalanced`] balances across cores; it comes from
/// the same LLSR/MLP-predictor machinery the fetch policies use.
///
/// # Errors
///
/// Returns [`SimError::UnknownBenchmark`] for unknown benchmarks.
pub fn mlp_intensity(benchmark: &str, core_config: &SmtConfig, seed: u64) -> Result<f64, SimError> {
    let stats = run_single_thread(benchmark, core_config, probe_scale(seed))?;
    let t = &stats.threads[0];
    Ok(t.lll_per_kilo_instruction() * t.measured_mlp())
}

/// A chip placement: `assignment[core] = workload thread indices`, plus the
/// per-core trace sources in the same order.
type ChipPlacement = (Vec<Vec<usize>>, Vec<Vec<Box<dyn TraceSource>>>);

/// Allocates a chip workload's threads onto cores and builds the per-core
/// trace sources (the placement every chip evaluation starts from).
fn chip_placement(
    benchmarks: &[&str],
    intensities: &[f64],
    allocation: AllocationPolicyKind,
    chip_config: &ChipConfig,
    scale: RunScale,
) -> Result<ChipPlacement, SimError> {
    if intensities.len() != benchmarks.len() {
        return Err(SimError::invalid_workload(
            "one MLP intensity per workload thread required",
        ));
    }
    let specs: Vec<ThreadSpec> = benchmarks
        .iter()
        .zip(intensities)
        .map(|(b, &i)| ThreadSpec::new(*b, i))
        .collect();
    let assignment = build_allocation_policy(allocation).allocate(
        &specs,
        chip_config.num_cores,
        chip_config.core.num_threads,
    )?;
    let traces = assignment
        .iter()
        .map(|slots| {
            slots
                .iter()
                .map(|&ti| build_trace(benchmarks[ti], scale))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((assignment, traces))
}

/// Renders a placement as per-core benchmark lists (`"mcf+gcc"`).
fn join_core_assignments(assignment: &[Vec<usize>], benchmarks: &[&str]) -> Vec<String> {
    assignment
        .iter()
        .map(|slots| {
            slots
                .iter()
                .map(|&ti| benchmarks[ti])
                .collect::<Vec<_>>()
                .join("+")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_run_completes_budget() {
        let scale = RunScale::tiny();
        let cfg = SmtConfig::baseline(1);
        let stats = run_single_thread("gcc", &cfg, scale).unwrap();
        assert!(stats.threads[0].committed_instructions >= scale.instructions_per_thread);
        assert!(stats.cycles > 0);
        let ipc = stats.threads[0].ipc(stats.cycles);
        assert!(ipc > 0.1 && ipc <= 4.0, "IPC {ipc} out of range");
    }

    #[test]
    fn st_cache_recovers_from_a_poisoned_lock() {
        let cache = StReferenceCache::new();
        let scale = RunScale::tiny();
        let cfg = SmtConfig::baseline(2);
        let before = cache
            .st_cpi("gcc", &cfg, scale, scale.instructions_per_thread)
            .unwrap();
        // Poison the map mutex the way a panicking engine cell would: a
        // thread dies while holding it.
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cache.curves.cells.lock().unwrap();
                    panic!("poison the cache lock");
                })
                .join()
        });
        assert!(result.is_err(), "the poisoning thread must have panicked");
        // The cache keeps serving: same cached value, no new reference run.
        let runs = cache.reference_runs();
        let after = cache
            .st_cpi("gcc", &cfg, scale, scale.instructions_per_thread)
            .unwrap();
        assert_eq!(before.to_bits(), after.to_bits());
        assert_eq!(cache.reference_runs(), runs);
        assert_eq!(runs, 1);
    }

    #[test]
    fn mlp_intensive_benchmark_has_lower_ipc_than_ilp() {
        let scale = RunScale::test();
        let cfg = SmtConfig::baseline(1);
        let gcc = run_single_thread("gcc", &cfg, scale).unwrap();
        let mcf = run_single_thread("mcf", &cfg, scale).unwrap();
        let gcc_ipc = gcc.threads[0].ipc(gcc.cycles);
        let mcf_ipc = mcf.threads[0].ipc(mcf.cycles);
        assert!(
            mcf_ipc < gcc_ipc,
            "mcf (memory bound, {mcf_ipc}) should be slower than gcc ({gcc_ipc})"
        );
    }

    #[test]
    fn multiprogram_run_stops_at_first_thread_budget() {
        let scale = RunScale::tiny();
        let cfg = SmtConfig::baseline(2);
        let stats =
            run_multiprogram(&["gcc", "gap"], FetchPolicyKind::Icount, &cfg, scale).unwrap();
        let max = stats
            .threads
            .iter()
            .map(|t| t.committed_instructions)
            .max()
            .unwrap();
        assert!(max >= scale.instructions_per_thread);
    }

    fn workload(benchmarks: &[&str]) -> Workload {
        Workload::new(benchmarks.to_vec()).unwrap()
    }

    fn evaluate(cell: &CellSpec) -> Result<PolicyCell, SimError> {
        evaluate_cell(cell, &StReferenceCache::new(), &CheckpointCache::new())
    }

    /// A chip cell of `workload` on two 2-thread cores, with probed
    /// intensities.
    fn chip_cell(workload: &Workload, allocation: AllocationPolicyKind) -> PolicyCell {
        let chip = ChipConfig::baseline(2, 2);
        let scale = RunScale::tiny();
        let intensities = workload
            .benchmarks
            .iter()
            .map(|b| mlp_intensity(b, &chip.core, scale.seed).unwrap())
            .collect();
        let cell = CellSpec {
            machine: CellMachine::Chip {
                chip,
                allocation,
                intensities,
            },
            ..CellSpec::baseline(workload, FetchPolicyKind::Icount, scale)
        };
        evaluate(&cell).unwrap()
    }

    #[test]
    fn evaluate_workload_produces_sane_metrics() {
        let gcc_gap = workload(&["gcc", "gap"]);
        let cell = CellSpec::baseline(&gcc_gap, FetchPolicyKind::Icount, RunScale::tiny());
        let r = evaluate(&cell).unwrap();
        assert!(
            r.stp > 0.2 && r.stp <= 2.0 + 1e-9,
            "STP {} out of range",
            r.stp
        );
        assert!(r.antt >= 0.9, "ANTT {} should show some slowdown", r.antt);
        assert_eq!(r.per_thread_ipc.len(), 2);
        assert_eq!(r.workload, "gcc-gap");
    }

    #[test]
    fn st_cache_reuses_reference_runs() {
        let cache = StReferenceCache::new();
        let cfg = SmtConfig::baseline(2);
        let scale = RunScale::tiny();
        let a = cache.st_cpi("gcc", &cfg, scale, 1_000).unwrap();
        let b = cache.st_cpi("gcc", &cfg, scale, 1_000).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.reference_runs(), 1);
        let c = cache.st_cpi("gcc", &cfg, scale, 2_000).unwrap();
        assert!(c > 0.0);
        assert_eq!(cache.reference_runs(), 1);
    }

    #[test]
    fn st_cache_separates_any_config_or_scale_difference() {
        // The key is the full normalized config + scale, so knobs outside the
        // classic sweep set (fetch width, MSHRs, warm-up) must not alias.
        let cache = StReferenceCache::new();
        let scale = RunScale::tiny();
        let baseline = SmtConfig::baseline(2);
        let mut narrow_fetch = baseline.clone();
        narrow_fetch.fetch_width = 2;
        let mut few_mshrs = baseline.clone();
        few_mshrs.max_outstanding_misses = 1;
        let mut long_warmup = scale;
        long_warmup.warmup_instructions += 500;
        cache.st_cpi("gcc", &baseline, scale, 1_000).unwrap();
        cache.st_cpi("gcc", &narrow_fetch, scale, 1_000).unwrap();
        cache.st_cpi("gcc", &few_mshrs, scale, 1_000).unwrap();
        cache.st_cpi("gcc", &baseline, long_warmup, 1_000).unwrap();
        assert_eq!(cache.reference_runs(), 4);
        // Differences the single-thread normalization erases (thread count,
        // fetch policy) do share an entry.
        let four_thread = SmtConfig::baseline(4).with_policy(FetchPolicyKind::MlpFlush);
        cache.st_cpi("gcc", &four_thread, scale, 1_000).unwrap();
        assert_eq!(cache.reference_runs(), 4);
    }

    #[test]
    fn run_scale_serde_round_trips_and_validates() {
        use serde::{Deserialize as _, Serialize as _};
        let scale = RunScale::test();
        let round = RunScale::deserialize(&scale.serialize()).unwrap();
        assert_eq!(round, scale);
        assert!(RunScale::named("full").is_some());
        assert!(RunScale::named("galactic").is_none());
        let mut zero = RunScale::tiny();
        zero.instructions_per_thread = 0;
        assert!(zero.validate().is_err());
    }

    #[test]
    fn chip_workload_evaluation_produces_sane_metrics() {
        let mix = workload(&["mcf", "swim", "gcc", "gap"]);
        let r = chip_cell(&mix, AllocationPolicyKind::RoundRobin);
        assert_eq!(r.workload, "mcf-swim-gcc-gap");
        assert_eq!(r.num_cores, Some(2));
        assert_eq!(r.allocation, Some(AllocationPolicyKind::RoundRobin));
        assert_eq!(
            r.core_assignments.as_deref(),
            Some(&["mcf+gcc".to_string(), "swim+gap".to_string()][..])
        );
        assert_eq!(r.per_thread_ipc.len(), 4);
        assert_eq!(r.per_core_ipc.as_ref().unwrap().len(), 2);
        let per_core_stp = r.per_core_stp.as_ref().unwrap();
        assert_eq!(per_core_stp.len(), 2);
        assert!(
            (per_core_stp.iter().sum::<f64>() - r.stp).abs() < 1e-9,
            "per-core STP must sum to the chip STP"
        );
        assert!(r.stp > 0.0 && r.stp <= 4.0 + 1e-9, "STP {}", r.stp);
        assert!(r.antt >= 0.9, "ANTT {}", r.antt);
    }

    #[test]
    fn chip_allocation_changes_placement_not_workload() {
        let mix = workload(&["mcf", "swim", "gcc", "gap"]);
        let rr = chip_cell(&mix, AllocationPolicyKind::RoundRobin);
        let ff = chip_cell(&mix, AllocationPolicyKind::FillFirst);
        let mb = chip_cell(&mix, AllocationPolicyKind::MlpBalanced);
        let cores = |r: &PolicyCell| r.core_assignments.clone().unwrap();
        assert_eq!(cores(&rr), vec!["mcf+gcc", "swim+gap"]);
        assert_eq!(cores(&ff), vec!["mcf+swim", "gcc+gap"]);
        // mcf and swim are the MLP monsters: balanced placement separates them.
        assert_ne!(cores(&mb), cores(&ff));
        for r in [&rr, &ff, &mb] {
            assert_eq!(r.workload, "mcf-swim-gcc-gap");
        }
    }

    #[test]
    fn sampled_workload_evaluation_tracks_exact_and_shares_checkpoints() {
        let scale = RunScale {
            instructions_per_thread: 60_000,
            warmup_instructions: 10_000,
            seed: 42,
            max_cycles: None,
        };
        let cache = StReferenceCache::new();
        let checkpoints = CheckpointCache::new();
        let mcf_gcc = workload(&["mcf", "gcc"]);
        let exact_cell = CellSpec::baseline(&mcf_gcc, FetchPolicyKind::Icount, scale);
        let sampled_cell = |policy| CellSpec {
            policy,
            sampling: Some(SamplingConfig {
                skip_instructions: 0,
                ff_instructions: 9_000,
                warm_instructions: 300,
                measure_instructions: 700,
                min_windows: 3,
            }),
            ..exact_cell.clone()
        };
        let exact = evaluate_cell(&exact_cell, &cache, &checkpoints).unwrap();
        let sampled_icount = sampled_cell(FetchPolicyKind::Icount);
        let sampled = evaluate_cell(&sampled_icount, &cache, &checkpoints).unwrap();
        let stats = sampled.sampled.clone().unwrap();
        assert_eq!(sampled.workload, "mcf-gcc");
        assert!(stats.windows >= 3, "windows {}", stats.windows);
        assert!(stats.detailed_fraction < 0.15);
        assert_eq!(
            (sampled.stp, sampled.antt),
            (stats.stp.mean, stats.antt.mean)
        );
        assert_eq!(checkpoints.captures(), 1);

        // The sampled estimates track the exact run within a loose band (the
        // tight ≤2% acceptance bound is asserted at 10x budgets in
        // crates/core/tests/sampling.rs; this short run just pins the
        // experiment-level plumbing).
        let exact_ipc: f64 = exact.per_thread_ipc.iter().sum();
        let err = (stats.total_ipc.mean - exact_ipc).abs() / exact_ipc;
        assert!(
            err < 0.10,
            "sampled {} vs exact {exact_ipc}",
            stats.total_ipc.mean
        );
        for (name, sampled, exact) in [
            ("STP", sampled.stp, exact.stp),
            ("ANTT", sampled.antt, exact.antt),
        ] {
            assert!(
                (sampled - exact).abs() / exact < 0.15,
                "sampled {name} {sampled} vs exact {exact}"
            );
        }

        // A second policy on the same workload branches from the shared
        // checkpoint instead of re-running the warm prefix.
        let flush_cell = sampled_cell(FetchPolicyKind::MlpFlush);
        let flush = evaluate_cell(&flush_cell, &cache, &checkpoints).unwrap();
        assert_eq!(checkpoints.captures(), 1);
        assert!(checkpoints.hits() >= 1);
        assert_eq!(flush.policy, FetchPolicyKind::MlpFlush);

        // Deterministic: re-evaluating reproduces the result bit for bit.
        let again = evaluate_cell(&sampled_icount, &cache, &checkpoints).unwrap();
        assert_eq!(again, sampled);
    }

    #[test]
    fn mlp_intensity_orders_memory_bound_benchmarks() {
        let cfg = SmtConfig::baseline(1);
        let mcf = mlp_intensity("mcf", &cfg, 42).unwrap();
        let gcc = mlp_intensity("gcc", &cfg, 42).unwrap();
        assert!(
            mcf > gcc,
            "mcf (memory bound, {mcf}) should out-rank gcc ({gcc})"
        );
    }

    #[test]
    fn st_curve_interpolation_is_monotone_enough() {
        let curve = StCurve {
            interval: 100,
            cycles: vec![150, 320, 470, 640],
            total_instructions: 400,
            total_cycles: 640,
        };
        assert!((curve.cpi_at(100) - 1.5).abs() < 1e-12);
        assert!((curve.cpi_at(200) - 1.6).abs() < 1e-12);
        assert!((curve.cpi_at(400) - 1.6).abs() < 1e-12);
        // Beyond the recorded range we fall back to the final totals.
        assert!(curve.cpi_at(800) > 0.0);
        assert!(curve.cpi_at(0) > 0.0);
    }

    #[test]
    fn st_curve_matches_a_step_loop() {
        let scale = RunScale::tiny();
        let config = SmtConfig::baseline(4);
        let curve = record_st_curve("mcf", &config, scale).expect("reference records");

        // The same stop rules and checkpoints, one `step()` at a time (the
        // run stays far below the cycle cap).
        let trace = build_trace("mcf", scale).expect("known benchmark");
        let mut sim = SmtSimulator::new(single_thread(&config), vec![trace]).expect("valid");
        let committed = |sim: &SmtSimulator| sim.stats().threads[0].committed_instructions;
        while committed(&sim) < scale.warmup_instructions {
            sim.step();
        }
        sim.reset_stats();
        let interval = (scale.instructions_per_thread / 64).max(256);
        let mut cycles = Vec::new();
        while committed(&sim) < scale.instructions_per_thread {
            sim.step();
            while committed(&sim) >= interval * (cycles.len() as u64 + 1) {
                cycles.push(sim.measured_cycles());
            }
        }
        assert_eq!(curve.interval, interval);
        assert_eq!(curve.cycles, cycles);
        assert_eq!(curve.total_instructions, committed(&sim));
        assert_eq!(curve.total_cycles, sim.measured_cycles());
    }
}
