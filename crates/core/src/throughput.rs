//! Simulator-throughput harness: a fixed scenario matrix timed in wall-clock
//! seconds, reported as simulated cycles/sec and committed instructions/sec.
//!
//! The matrix covers 1-, 2- and 4-thread runs over ILP- and MLP-heavy mixes
//! under the ICOUNT baseline and the paper's MLP-aware flush policy — plus a
//! chip-level CMP row, a sampled-execution row and a trace-ingestion row — so a single `smt-cli bench` run characterizes the
//! hot path for every pipeline shape the experiments exercise. Every row
//! goes through one timed-repetition loop (best wall time of `runs`
//! repetitions, which must agree bit for bit). Results serialize
//! to a stable JSON schema; `BENCH_throughput.json` is an **append-only
//! [`ThroughputTrajectory`]**: one dated [`ThroughputReport`] entry per
//! recorded commit, so the whole perf history stays recoverable from the
//! file. [`ThroughputReport::compare`] diffs two reports scenario by
//! scenario; CI compares against [`ThroughputTrajectory::latest`].

use std::time::Instant; // analyze: allow(determinism) reason="wall-clock timing of the benchmark harness itself, not simulated state"

use serde::{Deserialize, Serialize};
use smt_types::config::FetchPolicyKind;
use smt_types::{SimError, SmtConfig};

use crate::chip::ChipSimulator;
use crate::pipeline::{SimOptions, SmtSimulator};
use crate::runner::{build_trace, RunScale};
use smt_types::{ChipConfig, SamplingConfig};

/// Version of one report's schema. Bump only when a field is removed or
/// changes meaning; additions keep the version.
pub const SCHEMA_VERSION: u32 = 1;

/// Version of the on-disk `BENCH_throughput.json` trajectory schema
/// (an array of dated report entries; version 1, a single overwritten
/// report, is no longer read).
pub const TRAJECTORY_SCHEMA_VERSION: u32 = 2;

/// Name of the 4-thread baseline scenario whose cycles/sec is the headline
/// trajectory number compared across commits.
pub const BASELINE_SCENARIO: &str = "4t_mix_icount";

/// Scenarios that `BENCH_throughput.json` history records but the matrix no
/// longer runs, each with the reason it was retired.
pub const RETIRED_SCENARIOS: &[(&str, &str)] = &[
    (
        "4c2t_mix_chipthreads",
        "chip worker pool removed: it ran 10-12x slower than serial chip stepping",
    ),
    (
        "4t_mix_adaptive",
        "adaptive policy selection removed: static MLP-aware flush beat every selector",
    ),
];

/// Instruction-budget multiplier for sampled matrix rows: they run this many
/// times the exact rows' per-thread budget, so a sampled row's wall-clock
/// column demonstrates the fast-forward speedup side by side with the same
/// workload measured exactly.
pub const SAMPLED_BUDGET_MULTIPLIER: u64 = 10;

/// What a matrix row measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScenarioKind {
    /// A static-policy simulation: the single-core machine, or a chip when
    /// the row has more than one core.
    Exact,
    /// A sampled run through [`SmtSimulator::run_sampled`] at
    /// [`SAMPLED_BUDGET_MULTIPLIER`] times the exact rows' instruction
    /// budget, timing the fast-forward/measure interleaving.
    Sampled,
    /// Raw trace-stream delivery instead of a simulation: a recorded `.smtt`
    /// replayed through [`smt_trace::FileTraceSource`] versus the same stream
    /// regenerated by the synthetic generator, both pulled in engine-sized
    /// refill batches.
    Ingest,
}

/// One row of the fixed scenario matrix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BenchScenario {
    /// Stable scenario identifier (`<threads>t_<mix>_<policy>`, or
    /// `<cores>c<threads>t_<mix>_<policy>` for chip rows).
    pub name: &'static str,
    /// Benchmarks, one per hardware thread (across all cores, core-major).
    pub benchmarks: &'static [&'static str],
    /// Fetch policy under test.
    pub policy: FetchPolicyKind,
    /// Number of cores: 1 runs the single-core machine, >1 a chip with
    /// `benchmarks.len() / cores` threads per core (round-robin placement by
    /// construction of the list).
    pub cores: usize,
    /// What the row measures.
    pub kind: ScenarioKind,
}

const fn row(
    name: &'static str,
    benchmarks: &'static [&'static str],
    policy: FetchPolicyKind,
    cores: usize,
    kind: ScenarioKind,
) -> BenchScenario {
    BenchScenario {
        name,
        benchmarks,
        policy,
        cores,
        kind,
    }
}

/// The fixed scenario matrix: 1T/2T/4T, ILP- and MLP-heavy mixes, ICOUNT
/// baseline plus the MLP-aware flush policy, then one chip, one sampled and
/// one trace-ingestion row.
pub fn scenario_matrix() -> Vec<BenchScenario> {
    use FetchPolicyKind::{Icount, MlpFlush};
    use ScenarioKind::{Exact, Ingest, Sampled};
    const MIX: &[&str] = &["mcf", "swim", "perlbmk", "mesa"];
    const MLP: &[&str] = &["applu", "galgel", "swim", "mesa"];
    vec![
        row("1t_ilp_icount", &["gcc"], Icount, 1, Exact),
        row("1t_mlp_icount", &["mcf"], Icount, 1, Exact),
        row("2t_ilp_icount", &["gcc", "gap"], Icount, 1, Exact),
        row("2t_mlp_icount", &["mcf", "swim"], Icount, 1, Exact),
        row("2t_mlp_mlpflush", &["mcf", "swim"], MlpFlush, 1, Exact),
        row(
            "4t_ilp_icount",
            &["vortex", "parser", "crafty", "twolf"],
            Icount,
            1,
            Exact,
        ),
        row("4t_mix_icount", MIX, Icount, 1, Exact),
        row("4t_mix_mlpflush", MIX, MlpFlush, 1, Exact),
        row("4t_mlp_mlpflush", MLP, MlpFlush, 1, Exact),
        // The same workload as `4t_mlp_mlpflush` in sampled mode at ten
        // times the budget: its wall-clock and instrs/s columns sit next to
        // the exact row's, making the sampling speedup a standing bench fact.
        row("4t_mlp_sampled", MLP, MlpFlush, 1, Sampled),
        // The 4-thread mix as a 2-core x 2-thread chip.
        row("2c2t_mix_icount", MIX, Icount, 2, Exact),
        // `.smtt` replay versus synthetic regeneration of the same stream,
        // in ops/sec. No machine is simulated; the row pins the zero-copy
        // reader's headroom over generation (`ingest_speedup`).
        row("trace_replay_ingest", &["mcf"], Icount, 1, Ingest),
    ]
}

/// Run-length and repetition knobs for the harness.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BenchOptions {
    /// Instruction budget per thread for every scenario (no warm-up: the whole
    /// run is timed and counted).
    pub instructions_per_thread: u64,
    /// Timed repetitions per scenario; the best (lowest wall time) is reported.
    pub runs: u32,
    /// Whether this is a reduced-size smoke run (recorded in the report).
    pub quick: bool,
}

impl BenchOptions {
    /// The standard measurement configuration (30 K instructions, best of 3).
    pub fn standard() -> Self {
        BenchOptions {
            instructions_per_thread: 30_000,
            runs: 3,
            quick: false,
        }
    }

    /// A fast smoke configuration for CI (3 K instructions, single run).
    pub fn quick() -> Self {
        BenchOptions {
            instructions_per_thread: 3_000,
            runs: 1,
            quick: true,
        }
    }
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self::standard()
    }
}

/// Timed result of one scenario.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioResult {
    /// Scenario identifier from [`scenario_matrix`].
    pub name: String,
    /// Hardware thread count.
    pub threads: usize,
    /// Benchmarks, one per thread.
    pub benchmarks: Vec<String>,
    /// Fetch policy under test.
    pub policy: FetchPolicyKind,
    /// Number of cores (`None` in pre-chip reports means 1).
    pub cores: Option<usize>,
    /// Retired: the policy selector of the adaptive rows in reports written
    /// while the simulator had runtime policy selection. Read from history,
    /// never written (`None` in every new row).
    pub selector: Option<String>,
    /// Retired: worker threads that stepped a chip row's cores in reports
    /// written while chips could step on a worker pool. Read from history,
    /// never written (`None` in every new row).
    pub chip_threads: Option<usize>,
    /// Instruction budget per thread.
    pub instructions_per_thread: u64,
    /// Simulated cycles of one run (identical across repetitions).
    pub simulated_cycles: u64,
    /// Committed instructions summed over all threads.
    pub committed_instructions: u64,
    /// Aggregate IPC of the simulated machine (sanity anchor for the run).
    pub total_ipc: f64,
    /// Best wall-clock seconds over the repetitions.
    pub wall_seconds: f64,
    /// Simulated cycles per wall-clock second (the headline metric).
    pub cycles_per_second: f64,
    /// Committed instructions per wall-clock second.
    pub instructions_per_second: f64,
    /// Number of timed repetitions.
    pub runs: u32,
    /// Sampled rows: measurement windows contributing to the estimates
    /// (`None` for exact rows and pre-sampling reports).
    pub sampled_windows: Option<u32>,
    /// Sampled rows: fraction of each sampling unit simulated in detail
    /// (`None` for exact rows and pre-sampling reports).
    pub detailed_fraction: Option<f64>,
    /// Ingestion rows: `.smtt` replay ops/sec over synthetic-generation
    /// ops/sec for the same stream (`None` for simulation rows and
    /// pre-ingestion reports; absent entries deserialize as `None`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub ingest_speedup: Option<f64>,
}

/// A full harness run: every scenario of the matrix under one [`BenchOptions`].
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ThroughputReport {
    /// Schema version of this report ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Whether this was a reduced-size smoke run.
    pub quick: bool,
    /// Instruction budget per thread used for every scenario.
    pub instructions_per_thread: u64,
    /// Timed repetitions per scenario.
    pub runs_per_scenario: u32,
    /// Git commit the binary was built from, when known.
    pub commit: Option<String>,
    /// CPUs available to the process that measured the report (absent in
    /// entries recorded before the field existed).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub nproc: Option<u64>,
    /// One result per matrix scenario, in matrix order.
    pub scenarios: Vec<ScenarioResult>,
}

/// One row of a scenario-by-scenario comparison of two reports.
#[derive(Clone, PartialEq, Debug)]
pub struct ScenarioSpeedup {
    /// Scenario identifier present in both reports.
    pub name: String,
    /// Baseline (older report) cycles per second.
    pub baseline_cycles_per_second: f64,
    /// This report's cycles per second.
    pub cycles_per_second: f64,
    /// `cycles_per_second / baseline_cycles_per_second`.
    pub speedup: f64,
}

impl ThroughputReport {
    /// Serializes the report as pretty-printed JSON (the on-disk format).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if serialization fails.
    pub fn to_json(&self) -> Result<String, SimError> {
        serde_json::to_string_pretty(self)
            .map(|s| s + "\n")
            .map_err(|e| SimError::invalid_config(format!("throughput report to JSON: {e}")))
    }

    /// Parses a report from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, SimError> {
        serde_json::from_str(text)
            .map_err(|e| SimError::invalid_config(format!("throughput report from JSON: {e}")))
    }

    /// Result of the named scenario, if present.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioResult> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Per-scenario speedup of `self` over `baseline` (an older report), for
    /// every scenario name the two reports share.
    pub fn compare(&self, baseline: &ThroughputReport) -> Vec<ScenarioSpeedup> {
        self.scenarios
            .iter()
            .filter_map(|s| {
                let base = baseline.scenario(&s.name)?;
                if base.cycles_per_second <= 0.0 {
                    return None;
                }
                Some(ScenarioSpeedup {
                    name: s.name.clone(),
                    baseline_cycles_per_second: base.cycles_per_second,
                    cycles_per_second: s.cycles_per_second,
                    speedup: s.cycles_per_second / base.cycles_per_second,
                })
            })
            .collect()
    }

    /// Human-readable warnings about scenarios the two reports do *not*
    /// share — the expected situation right after a row is added to (or
    /// retired from) the matrix. [`ThroughputReport::compare`] silently
    /// skips such scenarios; callers (the CLI, CI) surface these warnings
    /// instead of failing, so a matrix change never breaks the first
    /// comparison against an older trajectory entry.
    pub fn scenario_set_warnings(&self, baseline: &ThroughputReport) -> Vec<String> {
        let mut warnings = Vec::new();
        let new_only: Vec<&str> = self
            .scenarios
            .iter()
            .filter(|s| baseline.scenario(&s.name).is_none())
            .map(|s| s.name.as_str())
            .collect();
        if !new_only.is_empty() {
            warnings.push(format!(
                "scenario(s) not in the baseline (skipped in the comparison): {}",
                new_only.join(", ")
            ));
        }
        let base_only: Vec<&str> = baseline
            .scenarios
            .iter()
            .filter(|s| self.scenario(&s.name).is_none())
            .map(|s| s.name.as_str())
            .collect();
        if !base_only.is_empty() {
            warnings.push(format!(
                "baseline scenario(s) not measured in this run (skipped in the comparison): {}",
                base_only.join(", ")
            ));
        }
        // Shared scenarios that do not simulate the same machine: a
        // behaviour-changing commit makes the wall-clock ratio meaningless
        // for that row.
        for s in &self.scenarios {
            let Some(base) = baseline.scenario(&s.name) else {
                continue;
            };
            if s.instructions_per_thread == base.instructions_per_thread
                && s.simulated_cycles != base.simulated_cycles
            {
                warnings.push(format!(
                    "scenario `{}` simulated {} cycles but the baseline simulated {}; \
                     the commits simulate different machines, so its speedup is not a \
                     pure wall-clock comparison",
                    s.name, s.simulated_cycles, base.simulated_cycles,
                ));
            }
        }
        warnings
    }

    /// Speedup of the headline [`BASELINE_SCENARIO`] over `baseline`, when both
    /// reports contain it.
    pub fn headline_speedup(&self, baseline: &ThroughputReport) -> Option<f64> {
        self.compare(baseline)
            .into_iter()
            .find(|s| s.name == BASELINE_SCENARIO)
            .map(|s| s.speedup)
    }

    /// Aligned human-readable table of the report.
    pub fn format_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<20} {:>2} {:<14} {:>12} {:>12} {:>10} {:>14} {:>14}\n",
            "scenario", "T", "policy", "cycles", "instrs", "wall s", "cycles/s", "instrs/s"
        ));
        for s in &self.scenarios {
            out.push_str(&format!(
                "{:<20} {:>2} {:<14} {:>12} {:>12} {:>10.4} {:>14.0} {:>14.0}\n",
                s.name,
                s.threads,
                s.policy.name(),
                s.simulated_cycles,
                s.committed_instructions,
                s.wall_seconds,
                s.cycles_per_second,
                s.instructions_per_second,
            ));
        }
        out
    }
}

/// One dated entry of the on-disk throughput trajectory.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TrajectoryEntry {
    /// ISO-8601 date (`YYYY-MM-DD`) the entry was recorded.
    pub date: String,
    /// The full report measured at that point.
    pub report: ThroughputReport,
}

/// The append-only `BENCH_throughput.json` schema: every recorded commit's
/// report, oldest first. `smt-cli bench` appends to this file instead of
/// overwriting it, so the perf history of the repository stays recoverable
/// from the working tree.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ThroughputTrajectory {
    /// Schema version of the trajectory file
    /// ([`TRAJECTORY_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Dated entries, oldest first.
    pub entries: Vec<TrajectoryEntry>,
}

impl Default for ThroughputTrajectory {
    fn default() -> Self {
        Self::new()
    }
}

impl ThroughputTrajectory {
    /// An empty trajectory.
    pub fn new() -> Self {
        ThroughputTrajectory {
            schema_version: TRAJECTORY_SCHEMA_VERSION,
            entries: Vec::new(),
        }
    }

    /// Parses a trajectory from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, SimError> {
        serde_json::from_str(text)
            .map_err(|e| SimError::invalid_config(format!("throughput trajectory from JSON: {e}")))
    }

    /// Serializes the trajectory as pretty-printed JSON (the on-disk format).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if serialization fails.
    pub fn to_json(&self) -> Result<String, SimError> {
        serde_json::to_string_pretty(self)
            .map(|s| s + "\n")
            .map_err(|e| SimError::invalid_config(format!("throughput trajectory to JSON: {e}")))
    }

    /// Appends a dated entry.
    pub fn push(&mut self, date: impl Into<String>, report: ThroughputReport) {
        self.entries.push(TrajectoryEntry {
            date: date.into(),
            report,
        });
    }

    /// The most recent entry's report, if any — what CI regressions compare
    /// against.
    pub fn latest(&self) -> Option<&ThroughputReport> {
        self.entries.last().map(|e| &e.report)
    }
}

/// Run options of a scenario measurement: no warm-up, every simulated cycle
/// is timed and counted.
fn scenario_options(opts: &BenchOptions) -> SimOptions {
    SimOptions {
        max_instructions_per_thread: opts.instructions_per_thread,
        warmup_instructions_per_thread: 0,
        ..SimOptions::default()
    }
}

/// Builds a ready-to-run single-core simulator (and its run options) for a
/// sampled row, so trace construction stays outside the timed region.
fn prepare_sampled(
    scenario: &BenchScenario,
    opts: &BenchOptions,
) -> Result<(SmtSimulator, SimOptions), SimError> {
    let mut config = SmtConfig::baseline(scenario.benchmarks.len());
    config.fetch_policy = scenario.policy;
    let scale = RunScale::standard().with_instructions(opts.instructions_per_thread);
    let traces = scenario
        .benchmarks
        .iter()
        .map(|b| build_trace(b, scale))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((SmtSimulator::new(config, traces)?, scenario_options(opts)))
}

/// Builds a ready-to-run chip (one core unless the row names more) for an
/// exact row, dealing the benchmark list out over the cores
/// core-major.
fn prepare_chip(
    scenario: &BenchScenario,
    opts: &BenchOptions,
) -> Result<(ChipSimulator, SimOptions), SimError> {
    let cores = scenario.cores;
    if !scenario.benchmarks.len().is_multiple_of(cores) {
        return Err(SimError::invalid_config(
            "chip scenario benchmarks must divide evenly over the cores",
        ));
    }
    let threads_per_core = scenario.benchmarks.len() / cores;
    let config = ChipConfig::baseline(cores, threads_per_core).with_policy(scenario.policy);
    let scale = RunScale::standard().with_instructions(opts.instructions_per_thread);
    let traces = scenario
        .benchmarks
        .chunks(threads_per_core)
        .map(|core| {
            core.iter()
                .map(|b| build_trace(b, scale))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((ChipSimulator::new(config, traces)?, scenario_options(opts)))
}

/// Runs `f` and returns its value with the wall-clock seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now(); // analyze: allow(determinism) reason="wall-clock timing of the benchmark harness itself, not simulated state"
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Calls `once` `runs` times (at least once) and returns the first
/// repetition's outcome with the lowest wall time. Each call builds its own
/// inputs and wraps only the measured region in [`timed`].
///
/// # Errors
///
/// Propagates the first failing repetition, and returns
/// [`SimError::InvalidConfig`] naming the scenario when a repetition's
/// outcome differs from the first (the simulator lost determinism).
fn best_of<T: PartialEq>(
    scenario: &BenchScenario,
    runs: u32,
    mut once: impl FnMut() -> Result<(T, f64), SimError>,
) -> Result<(T, f64), SimError> {
    let (first, mut best_wall) = once()?;
    for _ in 1..runs {
        let (outcome, wall) = once()?;
        if outcome != first {
            return Err(SimError::invalid_config(format!(
                "scenario `{}`: repeated runs diverged (lost determinism)",
                scenario.name
            )));
        }
        best_wall = best_wall.min(wall);
    }
    Ok((first, best_wall))
}

/// Runs one scenario: `opts.runs` timed repetitions through `best_of`,
/// best wall time kept. Only the simulator's run (or, for the ingestion
/// row, the stream pull) is timed; trace and simulator construction are not.
///
/// Chip rows flatten their per-core statistics into the single-core shape.
/// Sampled rows count only detailed cycles in `simulated_cycles` (the
/// functional fast-forward phases have none), so their instrs/s column is
/// where the sampling speedup shows against the exact row. The ingestion
/// row's rate columns describe the replay side, and `ingest_speedup` is
/// replay ops/sec over generation ops/sec.
///
/// # Errors
///
/// Returns an error for unknown benchmarks, invalid configurations, or a
/// determinism violation across repetitions.
pub fn run_scenario(
    scenario: &BenchScenario,
    opts: &BenchOptions,
) -> Result<ScenarioResult, SimError> {
    let runs = opts.runs.max(1);
    let mut result = ScenarioResult {
        name: scenario.name.to_string(),
        threads: scenario.benchmarks.len(),
        benchmarks: scenario.benchmarks.iter().map(|b| b.to_string()).collect(),
        policy: scenario.policy,
        cores: Some(scenario.cores),
        selector: None,
        chip_threads: None,
        instructions_per_thread: opts.instructions_per_thread,
        simulated_cycles: 0,
        committed_instructions: 0,
        total_ipc: 0.0,
        wall_seconds: 0.0,
        cycles_per_second: 0.0,
        instructions_per_second: 0.0,
        runs,
        sampled_windows: None,
        detailed_fraction: None,
        ingest_speedup: None,
    };
    let wall = match scenario.kind {
        ScenarioKind::Exact => {
            let (stats, wall) = best_of(scenario, runs, || {
                let (mut sim, options) = prepare_chip(scenario, opts)?;
                let (stats, wall) = timed(|| sim.run(options));
                Ok((crate::metrics::flatten_chip_stats(&stats), wall))
            })?;
            result.simulated_cycles = stats.cycles;
            result.committed_instructions =
                stats.threads.iter().map(|t| t.committed_instructions).sum();
            result.total_ipc = stats.total_ipc();
            wall
        }
        ScenarioKind::Sampled => {
            let budget = opts.instructions_per_thread * SAMPLED_BUDGET_MULTIPLIER;
            let ((run, committed), wall) = best_of(scenario, runs, || {
                let (mut sim, mut options) = prepare_sampled(scenario, opts)?;
                options.max_instructions_per_thread = budget;
                let (run, wall) = timed(|| sim.run_sampled(options, &SamplingConfig::default()));
                Ok(((run?, sim.core().committed().sum::<u64>()), wall))
            })?;
            result.instructions_per_thread = budget;
            result.simulated_cycles = run.window_cycles.iter().sum();
            result.committed_instructions = committed;
            result.total_ipc = run.estimate.total_ipc.mean;
            result.sampled_windows = Some(run.estimate.windows);
            result.detailed_fraction = Some(run.estimate.detailed_fraction);
            wall
        }
        ScenarioKind::Ingest => {
            let ops = ingest_ops(opts);
            let (replay_wall, generate_wall) = time_ingestion(scenario, opts, runs, ops)?;
            result.instructions_per_thread = ops;
            result.committed_instructions = ops;
            result.ingest_speedup = Some(generate_wall.max(1e-9) / replay_wall.max(1e-9));
            replay_wall
        }
    };
    let rate_wall = wall.max(1e-9);
    result.wall_seconds = wall;
    result.cycles_per_second = result.simulated_cycles as f64 / rate_wall;
    result.instructions_per_second = result.committed_instructions as f64 / rate_wall;
    Ok(result)
}

/// Ops an ingestion row streams per timed repetition: enough multiples of the
/// engine's per-thread budget that the loop is read-bandwidth bound rather
/// than open/seek bound, floored for very small `--instructions` values.
fn ingest_ops(opts: &BenchOptions) -> u64 {
    (opts.instructions_per_thread * 16).max(50_000)
}

/// Batch size of the ingestion row's pull loop: the engine's refill cadence
/// (one virtual `refill` call per ~64 fetched instructions), so the row times
/// the same call pattern the fetch stage produces.
const INGEST_BATCH: usize = 64;

/// Folds one op's four on-disk record words — pc, payload, packed deps,
/// packed tail — into `checksum`. Both ingestion streams fold the same words
/// so the checksum doubles as the verbatim-replay check, and covering every
/// record byte keeps the compiler from dead-coding any of the decode.
#[inline]
fn fold_record_words(checksum: u64, pc: u64, payload: u64, deps: u32, tail: u32) -> u64 {
    checksum
        .rotate_left(7)
        .wrapping_add(pc)
        .wrapping_add(payload)
        .wrapping_add(u64::from(deps))
        .wrapping_add(u64::from(tail))
}

/// Streams `total` records out of `replay` as zero-copy views — no
/// [`smt_types::TraceOp`] is materialized — folding each record's words into
/// the checksum. With a resident reader this is the memory-bandwidth
/// ingestion path the scenario exists to measure.
fn replay_checksum(replay: &mut smt_trace::FileTraceSource, total: u64) -> u64 {
    let mut checksum = 0u64;
    replay.for_each_record(total, |record| {
        checksum = fold_record_words(
            checksum,
            record.pc(),
            record.payload(),
            record.packed_deps(),
            record.packed_tail(),
        );
    });
    checksum
}

/// Streams `total` ops out of the synthetic generator in
/// [`INGEST_BATCH`]-sized refills (the engine's fetch-stage call pattern) and
/// folds each op's record words, computed inline from the op — the same four
/// words [`replay_checksum`] reads off disk, without paying for a full
/// `encode_record` the replay side doesn't perform either.
fn generation_checksum(source: &mut dyn smt_trace::TraceSource, total: u64) -> u64 {
    use smt_trace::format::{
        kind_code, DEP_NONE, FLAG_HAS_BRANCH, FLAG_HAS_MEM, FLAG_TAKEN, FLAG_UNCONDITIONAL,
    };
    let mut buf = Vec::with_capacity(INGEST_BATCH);
    let mut checksum = 0u64;
    let mut remaining = total;
    while remaining > 0 {
        let n = INGEST_BATCH.min(remaining as usize);
        buf.clear();
        source.refill(&mut buf, n);
        for op in &buf {
            let mut payload = 0u64;
            let mut flags = 0u8;
            let mut mem_size = 0u8;
            if let Some(mem) = &op.mem {
                payload = mem.addr;
                flags |= FLAG_HAS_MEM;
                mem_size = mem.size;
            }
            if let Some(branch) = &op.branch {
                payload = branch.target;
                flags |= FLAG_HAS_BRANCH;
                flags |= if branch.taken { FLAG_TAKEN } else { 0 };
                flags |= if branch.unconditional {
                    FLAG_UNCONDITIONAL
                } else {
                    0
                };
            }
            let dep = |d: Option<u32>| d.map_or(u32::from(DEP_NONE), |d| d);
            let deps = dep(op.src_deps[0]) | (dep(op.src_deps[1]) << 16);
            let tail = u32::from(kind_code(op.kind))
                | (u32::from(flags) << 8)
                | (u32::from(mem_size) << 16);
            checksum = fold_record_words(checksum, op.pc, payload, deps, tail);
        }
        remaining -= n as u64;
    }
    checksum
}

/// Records the ingestion row's benchmark stream into a temporary `.smtt`,
/// then times (a) replaying it zero-copy through a memory-resident
/// [`smt_trace::FileTraceSource`] and (b) regenerating it with the synthetic
/// generator in engine-sized refill batches, both folding the same on-disk
/// record words over `ops` ops (the resident load and the generator's
/// construction are untimed). Returns the best replay and generation wall
/// times.
///
/// The two streams must fold to the same checksum: replay is the recorded
/// generator stream verbatim.
fn time_ingestion(
    scenario: &BenchScenario,
    opts: &BenchOptions,
    runs: u32,
    ops: u64,
) -> Result<(f64, f64), SimError> {
    let benchmark = scenario.benchmarks[0];
    let scale = RunScale::standard().with_instructions(opts.instructions_per_thread);
    let path = std::env::temp_dir().join(format!(
        "smt-ingest-{}-{}.smtt",
        benchmark,
        std::process::id()
    ));
    let mut recorder = build_trace(benchmark, scale)?;
    smt_trace::record_source(recorder.as_mut(), ops, &path, false)?;
    let replayed = best_of(scenario, runs, || {
        let mut replay = smt_trace::FileTraceSource::open_resident(&path)?;
        Ok(timed(|| replay_checksum(&mut replay, ops)))
    });
    std::fs::remove_file(&path).ok();
    let (replayed, replay_wall) = replayed?;
    let (generated, generate_wall) = best_of(scenario, runs, || {
        let mut generator = build_trace(benchmark, scale)?;
        Ok(timed(|| generation_checksum(generator.as_mut(), ops)))
    })?;
    if replayed != generated {
        return Err(SimError::invalid_config(format!(
            "scenario `{}`: replayed stream diverged from the generator stream",
            scenario.name
        )));
    }
    Ok((replay_wall, generate_wall))
}

/// Runs the whole [`scenario_matrix`] and assembles the report.
///
/// `commit` identifies the binary under test (normally the git revision) and is
/// recorded verbatim.
///
/// # Errors
///
/// Propagates the first scenario failure.
pub fn run_matrix(
    opts: &BenchOptions,
    commit: Option<String>,
) -> Result<ThroughputReport, SimError> {
    let scenarios = scenario_matrix()
        .iter()
        .map(|scenario| run_scenario(scenario, opts))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ThroughputReport {
        schema_version: SCHEMA_VERSION,
        quick: opts.quick,
        instructions_per_thread: opts.instructions_per_thread,
        runs_per_scenario: opts.runs.max(1),
        commit,
        nproc: std::thread::available_parallelism()
            .ok()
            .map(|n| n.get() as u64),
        scenarios,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> BenchOptions {
        BenchOptions {
            instructions_per_thread: 300,
            runs: 2,
            quick: true,
        }
    }

    fn matrix_row(kind: ScenarioKind, cores: usize) -> BenchScenario {
        scenario_matrix()
            .into_iter()
            .find(|s| s.kind == kind && s.cores == cores)
            .expect("matrix row")
    }

    /// A one-scenario report measured at 200 instructions per thread.
    fn small_report(nproc: Option<u64>) -> ThroughputReport {
        let opts = BenchOptions {
            instructions_per_thread: 200,
            runs: 1,
            quick: true,
        };
        let scenario = row(
            BASELINE_SCENARIO,
            &["gcc", "gap"],
            FetchPolicyKind::Icount,
            1,
            ScenarioKind::Exact,
        );
        ThroughputReport {
            schema_version: SCHEMA_VERSION,
            quick: true,
            instructions_per_thread: opts.instructions_per_thread,
            runs_per_scenario: 1,
            commit: Some("abc1234".to_string()),
            nproc,
            scenarios: vec![run_scenario(&scenario, &opts).unwrap()],
        }
    }

    #[test]
    fn matrix_covers_thread_counts_and_policies() {
        let matrix = scenario_matrix();
        assert!(matrix.iter().any(|s| s.benchmarks.len() == 1));
        assert!(matrix.iter().any(|s| s.benchmarks.len() == 2));
        assert!(matrix.iter().any(|s| s.benchmarks.len() == 4));
        assert!(matrix.iter().any(|s| s.policy == FetchPolicyKind::Icount));
        assert!(matrix.iter().any(|s| s.policy == FetchPolicyKind::MlpFlush));
        assert!(matrix.iter().any(|s| s.name == BASELINE_SCENARIO));
        assert!(
            matrix.iter().any(|s| s.cores > 1),
            "matrix must contain a chip row"
        );
        for kind in [ScenarioKind::Sampled, ScenarioKind::Ingest] {
            assert!(matrix.iter().any(|s| s.kind == kind), "no {kind:?} row");
        }
        let mut names: Vec<_> = matrix.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), matrix.len(), "scenario names must be unique");
        for (retired, _) in RETIRED_SCENARIOS {
            assert!(!names.contains(retired), "{retired} is retired");
        }
    }

    #[test]
    fn best_of_keeps_the_fastest_repetition_and_rejects_divergence() {
        let scenario = row(
            "test_best_of",
            &["gcc"],
            FetchPolicyKind::Icount,
            1,
            ScenarioKind::Exact,
        );
        let mut walls = [0.3, 0.1, 0.2].into_iter();
        let best = best_of(&scenario, 3, || Ok((7u64, walls.next().unwrap()))).unwrap();
        assert_eq!(best, (7, 0.1));
        assert_eq!(walls.next(), None, "every repetition ran");

        let mut outcomes = [1u64, 1, 2].into_iter();
        let err = best_of(&scenario, 3, || Ok((outcomes.next().unwrap(), 0.1))).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("`test_best_of`"), "{err}");
        assert!(err.to_string().contains("diverged"), "{err}");
    }

    #[test]
    fn scenario_runs_and_reports_positive_rates() {
        let scenario = row(
            "test_2t",
            &["gcc", "gap"],
            FetchPolicyKind::Icount,
            1,
            ScenarioKind::Exact,
        );
        let result = run_scenario(&scenario, &tiny_opts()).unwrap();
        assert!(result.simulated_cycles > 0);
        assert!(result.committed_instructions >= 300);
        assert!(result.cycles_per_second > 0.0);
        assert!(result.instructions_per_second > 0.0);
        assert!(result.total_ipc > 0.0);
        assert_eq!(result.threads, 2);
        assert_eq!(result.selector, None);
    }

    #[test]
    fn sampled_scenario_runs_at_ten_x_budget() {
        let opts = tiny_opts();
        let result = run_scenario(&matrix_row(ScenarioKind::Sampled, 1), &opts).unwrap();
        assert_eq!(result.name, "4t_mlp_sampled");
        assert_eq!(
            result.instructions_per_thread,
            opts.instructions_per_thread * SAMPLED_BUDGET_MULTIPLIER
        );
        assert!(result.sampled_windows.expect("windows recorded") >= 3);
        let fraction = result.detailed_fraction.expect("fraction recorded");
        assert!(fraction > 0.0 && fraction < 0.3);
        assert!(result.simulated_cycles > 0);
        assert!(result.committed_instructions > result.instructions_per_thread);
        assert!(result.total_ipc > 0.0);
        assert!(result.instructions_per_second > 0.0);
    }

    /// The ingestion row times stream delivery, not a simulation: its rate
    /// columns describe the replay side and `ingest_speedup` pins replay
    /// against regeneration of the same stream.
    #[test]
    fn ingest_scenario_times_replay_against_generation() {
        let result = run_scenario(&matrix_row(ScenarioKind::Ingest, 1), &tiny_opts()).unwrap();
        assert_eq!(result.name, "trace_replay_ingest");
        assert_eq!(result.instructions_per_thread, 50_000);
        assert_eq!(result.committed_instructions, 50_000);
        assert_eq!(result.simulated_cycles, 0);
        assert_eq!(result.cycles_per_second, 0.0);
        assert!(result.instructions_per_second > 0.0);
        let speedup = result.ingest_speedup.expect("speedup recorded");
        assert!(
            speedup > 1.0,
            "replaying a recorded stream must beat regenerating it (got {speedup:.2}x)"
        );
    }

    /// Reports that predate the ingestion row (no `ingest_speedup` key)
    /// still parse; present values round-trip.
    #[test]
    fn ingest_speedup_field_is_backward_compatible() {
        let result = small_report(None).scenarios.remove(0);
        let json = serde_json::to_string(&result).unwrap();
        assert!(
            !json.contains("ingest_speedup"),
            "simulation rows must not serialize the ingestion column"
        );
        let parsed: ScenarioResult = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, result);
    }

    /// The chip row runs the 4-thread mix as 2 cores x 2 threads.
    #[test]
    fn chip_scenario_runs_and_reports() {
        let scenario = matrix_row(ScenarioKind::Exact, 2);
        assert_eq!(scenario.name, "2c2t_mix_icount");
        let mix = scenario_matrix()
            .into_iter()
            .find(|s| s.name == "4t_mix_icount")
            .unwrap();
        assert_eq!(scenario.benchmarks, mix.benchmarks);
        let result = run_scenario(&scenario, &tiny_opts()).unwrap();
        assert_eq!(result.cores, Some(2));
        assert_eq!(result.threads, 4);
        assert_eq!(result.chip_threads, None);
        assert!(result.simulated_cycles > 0);
        assert!(result.cycles_per_second > 0.0);
    }

    #[test]
    fn trajectory_round_trips_and_rejects_malformed_input() {
        let report = small_report(Some(2));
        let mut trajectory = ThroughputTrajectory::new();
        trajectory.push("2026-07-01", report.clone());
        trajectory.push("2026-07-30", report.clone());
        let json = trajectory.to_json().unwrap();
        let parsed = ThroughputTrajectory::from_json(&json).unwrap();
        assert_eq!(parsed, trajectory);
        assert_eq!(parsed.entries.len(), 2);
        assert_eq!(parsed.latest().unwrap(), &report);
        // A bare report is not a trajectory.
        for bad in [report.to_json().unwrap().as_str(), "{]"] {
            let err = ThroughputTrajectory::from_json(bad).unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
        }
    }

    /// The checked-in trajectory, retired rows and the retired
    /// `chip_threads` and `selector` columns included, still loads.
    #[test]
    fn checked_in_trajectory_still_loads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
        let text = std::fs::read_to_string(path).unwrap();
        let trajectory = ThroughputTrajectory::from_json(&text).unwrap();
        assert!(trajectory.latest().is_some());
        let rows = || trajectory.entries.iter().flat_map(|e| &e.report.scenarios);
        for (name, _) in RETIRED_SCENARIOS {
            assert!(rows().any(|r| r.name == *name), "{name} not in history");
        }
        assert!(rows().any(|r| r.chip_threads.is_some()));
        assert!(rows().any(|r| r.selector.is_some()));
    }

    #[test]
    fn report_round_trips_through_json_and_compares() {
        let mut report = small_report(None);
        let json = report.to_json().unwrap();
        let parsed = ThroughputReport::from_json(&json).unwrap();
        assert_eq!(parsed, report);

        // A report twice as fast shows a 2x headline speedup.
        let baseline = report.clone();
        report.scenarios[0].cycles_per_second *= 2.0;
        let speedup = report.headline_speedup(&baseline).unwrap();
        assert!((speedup - 2.0).abs() < 1e-12);
        assert_eq!(report.compare(&baseline).len(), 1);
        assert!(!report.format_text().is_empty());
    }
}
