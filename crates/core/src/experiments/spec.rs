//! Declarative, serde-serializable experiment specifications.
//!
//! An [`ExperimentSpec`] captures everything needed to reproduce one table or
//! figure of the paper — or any user-defined scenario — as data: the
//! [`ExperimentKind`], the fetch policies, the workloads (benchmark lists),
//! optional configuration [`ConfigOverrides`], an optional parameter
//! [`SweepSpec`], and the [`RunScale`]. Specs round-trip through TOML and
//! JSON, are validated with field-naming error messages before running, and
//! are executed by [`crate::experiments::engine::run_spec`].

use serde::{Deserialize, Serialize};
use smt_sched::AllocationPolicyKind;
use smt_trace::spec as trace_spec;
use smt_types::config::{BusConfig, CacheConfig, FetchPolicyKind};
use smt_types::{ChipConfig, SamplingConfig, SimError, SmtConfig};

use crate::runner::RunScale;
use crate::workloads::{Workload, WorkloadGroup};

/// The shape of an experiment: what is measured per grid cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExperimentKind {
    /// STP/ANTT of each (policy × workload × sweep-point) multiprogram run
    /// (Figures 9–23).
    PolicyGrid,
    /// Per-benchmark single-thread MLP characterization (Table I / Figure 1).
    Characterization,
    /// Per-benchmark predictor accuracy on single-thread runs (Figures 6–8).
    PredictorAccuracy,
    /// Per-benchmark predicted MLP-distance CDF (Figure 4).
    MlpDistanceCdf,
    /// Per-benchmark IPC with and without the hardware prefetcher (Figure 5).
    PrefetcherImpact,
    /// STP/ANTT of each (fetch policy × allocation × workload) chip-level run
    /// on a CMP of SMT cores sharing an LLC (requires [`ExperimentSpec::chip`]).
    ChipGrid,
}

impl ExperimentKind {
    /// Every experiment kind.
    pub const ALL: [ExperimentKind; 6] = [
        ExperimentKind::PolicyGrid,
        ExperimentKind::Characterization,
        ExperimentKind::PredictorAccuracy,
        ExperimentKind::MlpDistanceCdf,
        ExperimentKind::PrefetcherImpact,
        ExperimentKind::ChipGrid,
    ];

    /// Machine-readable name used in spec files.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentKind::PolicyGrid => "policy_grid",
            ExperimentKind::Characterization => "characterization",
            ExperimentKind::PredictorAccuracy => "predictor_accuracy",
            ExperimentKind::MlpDistanceCdf => "mlp_distance_cdf",
            ExperimentKind::PrefetcherImpact => "prefetcher_impact",
            ExperimentKind::ChipGrid => "chip_grid",
        }
    }

    /// Parses a [`ExperimentKind::name`] string.
    pub fn from_name(name: &str) -> Option<ExperimentKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether this kind runs one benchmark at a time on a single-thread
    /// configuration (no policies, no multiprogram workloads).
    pub fn is_single_thread(self) -> bool {
        !matches!(self, ExperimentKind::PolicyGrid | ExperimentKind::ChipGrid)
    }
}

serde::named_enum_serde!(ExperimentKind, "experiment kind");

/// The machine parameter a [`SweepSpec`] varies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SweepParameter {
    /// Main-memory access latency in cycles (Figures 15/16).
    MemoryLatency,
    /// ROB entries, with the LSQ/IQs/rename registers scaled proportionally
    /// (Figures 17/18, Section 6.4.2).
    WindowSize,
}

impl SweepParameter {
    /// Every sweepable parameter.
    pub const ALL: [SweepParameter; 2] =
        [SweepParameter::MemoryLatency, SweepParameter::WindowSize];

    /// Machine-readable name used in spec files.
    pub fn name(self) -> &'static str {
        match self {
            SweepParameter::MemoryLatency => "memory_latency",
            SweepParameter::WindowSize => "window_size",
        }
    }

    /// Parses a [`SweepParameter::name`] string.
    pub fn from_name(name: &str) -> Option<SweepParameter> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Applies one sweep value to a configuration.
    pub fn apply(self, config: SmtConfig, value: u64) -> SmtConfig {
        match self {
            SweepParameter::MemoryLatency => config.with_memory_latency(value),
            SweepParameter::WindowSize => config.with_window_size(value as u32),
        }
    }
}

serde::named_enum_serde!(SweepParameter, "sweep parameter");

/// A one-dimensional machine-parameter sweep attached to a policy grid.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepSpec {
    /// The parameter to vary.
    pub parameter: SweepParameter,
    /// The values to evaluate the whole policy × workload grid at.
    pub values: Vec<u64>,
}

/// Sparse overrides applied on top of the Table IV baseline configuration.
///
/// Absent fields keep their baseline values; unknown field names are rejected
/// at deserialization time with an error naming the offending field.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ConfigOverrides {
    /// Main-memory access latency in cycles.
    pub memory_latency: Option<u64>,
    /// ROB entries; the LSQ, issue queues and rename registers are scaled
    /// proportionally as in Section 6.4.2.
    pub rob_window: Option<u32>,
    /// Enables or disables the hardware stream-buffer prefetcher.
    pub prefetcher_enabled: Option<bool>,
    /// Artificially serializes independent long-latency loads (Table I's
    /// MLP-impact methodology).
    pub serialize_long_latency_loads: Option<bool>,
    /// Explicit per-thread long-latency shift register length.
    pub llsr_length: Option<u32>,
    /// Total instructions fetched per cycle.
    pub fetch_width: Option<u32>,
    /// Maximum number of threads fetched from per cycle.
    pub fetch_threads_per_cycle: Option<u32>,
    /// Outstanding misses supported per thread (MSHR-style limit).
    pub max_outstanding_misses: Option<u32>,
}

impl ConfigOverrides {
    /// Returns `true` when no field is overridden.
    pub fn is_empty(&self) -> bool {
        *self == ConfigOverrides::default()
    }

    /// Applies the overrides to a configuration.
    pub fn apply(&self, mut config: SmtConfig) -> SmtConfig {
        if let Some(latency) = self.memory_latency {
            config.memory_latency = latency;
        }
        if let Some(rob) = self.rob_window {
            config = config.with_window_size(rob);
        }
        if let Some(enabled) = self.prefetcher_enabled {
            config.prefetcher.enabled = enabled;
        }
        if let Some(serialize) = self.serialize_long_latency_loads {
            config.serialize_long_latency_loads = serialize;
        }
        if let Some(length) = self.llsr_length {
            config.llsr_length_override = Some(length);
        }
        if let Some(width) = self.fetch_width {
            config.fetch_width = width;
        }
        if let Some(threads) = self.fetch_threads_per_cycle {
            config.fetch_threads_per_cycle = threads;
        }
        if let Some(misses) = self.max_outstanding_misses {
            config.max_outstanding_misses = misses;
        }
        config
    }
}

/// Chip-level (CMP-of-SMT) parameters of a [`ExperimentKind::ChipGrid`]
/// experiment.
///
/// Each workload of the spec is divided evenly over `num_cores` cores
/// (`threads_per_core = workload_len / num_cores`); the grid then evaluates
/// every fetch policy × thread-to-core allocation combination.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChipSpec {
    /// Number of SMT cores on the chip.
    pub num_cores: usize,
    /// Thread-to-core allocation policies to evaluate (the second grid axis).
    pub allocations: Vec<AllocationPolicyKind>,
    /// Shared memory-bus bandwidth in bytes per cycle (`0` = unlimited).
    pub bus_bytes_per_cycle: u32,
    /// Shared LLC geometry; defaults to the Table IV L3 of the core
    /// configuration when absent.
    pub shared_llc: Option<CacheConfig>,
    /// Retired: chips always step their cores serially. Only an absent
    /// field or `1` validates; any other value is an error, never silently
    /// ignored.
    pub chip_threads: Option<usize>,
}

/// Sampled-execution cadence of a [`ExperimentKind::PolicyGrid`] experiment:
/// when present, every grid cell runs in SMARTS-style sampled mode
/// (`skip → ff → warm → measure` units, see
/// [`SamplingConfig`]) instead of cycle-accurate end to end, and the report
/// carries per-metric confidence intervals next to the point estimates.
///
/// Every field is optional; an absent field falls back to the
/// [`SamplingConfig::default`] cadence. The warm prefix
/// (`scale.warmup_instructions`) is fast-forwarded functionally once per
/// workload and shared across the grid's cells as a serialized warm
/// checkpoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SamplingSpec {
    /// Instructions per thread consumed at raw trace speed per unit
    /// (warm state frozen; 0 disables the skip phase).
    pub skip_instructions: Option<u64>,
    /// Instructions per thread fast-forwarded (functional warming) per unit.
    pub ff_instructions: Option<u64>,
    /// Detailed-mode pipeline warm-up instructions per measurement window.
    pub warm_instructions: Option<u64>,
    /// Detailed-mode instructions measured per window.
    pub measure_instructions: Option<u64>,
    /// Minimum number of measurement windows per run.
    pub min_windows: Option<u32>,
}

impl SamplingSpec {
    /// The [`SamplingConfig`] this spec resolves to (defaults filled in).
    pub fn config(&self) -> SamplingConfig {
        let mut config = SamplingConfig::default();
        if let Some(skip) = self.skip_instructions {
            config.skip_instructions = skip;
        }
        if let Some(ff) = self.ff_instructions {
            config.ff_instructions = ff;
        }
        if let Some(warm) = self.warm_instructions {
            config.warm_instructions = warm;
        }
        if let Some(measure) = self.measure_instructions {
            config.measure_instructions = measure;
        }
        if let Some(min) = self.min_windows {
            config.min_windows = min;
        }
        config
    }
}

/// A complete, serializable description of one experiment.
///
/// # Example
///
/// ```
/// use smt_core::experiments::spec::ExperimentSpec;
///
/// let toml_text = r#"
/// name = "quick-mlp-check"
/// title = "ICOUNT vs MLP-aware flush on one MLP-intensive mix"
/// paper_ref = "Figure 9"
/// kind = "policy_grid"
/// policies = ["icount", "mlp-flush"]
/// workloads = [["mcf", "swim"]]
///
/// [scale]
/// instructions_per_thread = 2000
/// warmup_instructions = 1000
/// seed = 42
/// "#;
/// let spec: ExperimentSpec = toml::from_str(toml_text).expect("valid spec");
/// assert!(spec.validate().is_ok());
/// assert_eq!(spec.policies.len(), 2);
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ExperimentSpec {
    /// Unique machine-readable name (registry key and CLI argument).
    pub name: String,
    /// Human-readable one-line description.
    pub title: String,
    /// The paper table/figure this experiment reproduces (empty for custom
    /// scenarios).
    pub paper_ref: String,
    /// What is measured per grid cell.
    pub kind: ExperimentKind,
    /// Fetch policies to evaluate (must be empty for single-thread kinds).
    pub policies: Vec<FetchPolicyKind>,
    /// Workloads as benchmark-name lists, one inner list per hardware thread
    /// assignment (single-thread kinds use one benchmark per list).
    pub workloads: Vec<Vec<String>>,
    /// Optional machine-parameter sweep (policy grids only).
    pub sweep: Option<SweepSpec>,
    /// Optional sparse configuration overrides (policy grids only).
    pub overrides: Option<ConfigOverrides>,
    /// Chip-level parameters (required for, and exclusive to,
    /// [`ExperimentKind::ChipGrid`]).
    pub chip: Option<ChipSpec>,
    /// Retired: the runtime fetch-policy selectors are gone, because static
    /// MLP-aware flush beat every selector configuration on every workload.
    /// Only an absent field validates; any `[adaptive]` table is an error,
    /// never silently ignored.
    pub adaptive: Option<serde::Value>,
    /// Retired: cell retries, the wall-clock watchdog and fault injection
    /// are gone, because a cell is a pure function of its spec and fails the
    /// same way twice. Only an absent field validates; any `[resilience]`
    /// table is an error, never silently ignored. `[scale] max_cycles` is
    /// the one per-cell deadline.
    pub resilience: Option<serde::Value>,
    /// Sampled-execution cadence (exclusive to
    /// [`ExperimentKind::PolicyGrid`]; optional — absent runs cycle-accurate
    /// end to end).
    pub sampling: Option<SamplingSpec>,
    /// Simulation size.
    pub scale: RunScale,
}

impl ExperimentSpec {
    /// The sweep values to evaluate: the sweep's values, or a single `None`
    /// for unswept experiments.
    pub fn sweep_points(&self) -> Vec<Option<u64>> {
        match &self.sweep {
            Some(sweep) => sweep.values.iter().map(|&v| Some(v)).collect(),
            None => vec![None],
        }
    }

    /// Builds the simulator configuration for one workload of this spec at
    /// one sweep point.
    pub fn config_for(&self, num_threads: usize, sweep_value: Option<u64>) -> SmtConfig {
        let mut config = SmtConfig::baseline(num_threads);
        if let Some(overrides) = &self.overrides {
            config = overrides.apply(config);
        }
        if let (Some(sweep), Some(value)) = (&self.sweep, sweep_value) {
            config = sweep.parameter.apply(config, value);
        }
        config
    }

    /// Builds the chip configuration for one workload of a
    /// [`ExperimentKind::ChipGrid`] spec at one sweep point.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no [`ChipSpec`] or the workload does not divide
    /// evenly over the cores (both rejected by [`ExperimentSpec::validate`]).
    pub fn chip_config_for(&self, workload_threads: usize, sweep_value: Option<u64>) -> ChipConfig {
        let chip = self
            .chip
            .as_ref()
            // analyze: allow(panic-policy) reason="documented panic: validate() guarantees chip parameters before any chip_config_for call"
            .expect("chip grid spec has chip parameters");
        assert!(
            chip.num_cores > 0 && workload_threads.is_multiple_of(chip.num_cores),
            "workload must divide evenly over the cores"
        );
        let core = self.config_for(workload_threads / chip.num_cores, sweep_value);
        ChipConfig {
            num_cores: chip.num_cores,
            shared_llc: chip.shared_llc.unwrap_or(core.l3),
            bus: BusConfig {
                bytes_per_cycle: chip.bus_bytes_per_cycle,
            },
            core,
        }
    }

    /// Returns a copy with a different run scale. The spec's own
    /// [`RunScale::seed`] is kept, and so is its [`RunScale::max_cycles`]
    /// cap unless `scale` sets one.
    pub fn with_scale(mut self, scale: RunScale) -> Self {
        self.scale = RunScale {
            seed: self.scale.seed,
            max_cycles: scale.max_cycles.or(self.scale.max_cycles),
            ..scale
        };
        self
    }

    /// Returns a copy keeping at most `limit` workloads of each workload
    /// group (ILP/MLP/mixed), preserving order — the spec-level equivalent of
    /// the legacy `per_group` arguments.
    ///
    /// # Errors
    ///
    /// Returns an error if a workload names an unknown benchmark.
    pub fn with_workload_limit_per_group(mut self, limit: usize) -> Result<Self, SimError> {
        let mut kept = Vec::new();
        let mut counts: Vec<(WorkloadGroup, usize)> = Vec::new();
        for benchmarks in &self.workloads {
            let group = Workload::new(benchmarks.clone())?.group;
            let index = match counts.iter().position(|(g, _)| *g == group) {
                Some(index) => index,
                None => {
                    counts.push((group, 0));
                    counts.len() - 1
                }
            };
            let count = &mut counts[index].1;
            if *count < limit {
                *count += 1;
                kept.push(benchmarks.clone());
            }
        }
        self.workloads = kept;
        Ok(self)
    }

    /// Returns a copy keeping at most the first `limit` workloads.
    pub fn with_workload_limit(mut self, limit: usize) -> Self {
        self.workloads.truncate(limit);
        self
    }

    /// Checks the spec for internal consistency, without running anything.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] (or [`SimError::UnknownBenchmark`])
    /// with a message naming the offending field or benchmark.
    pub fn validate(&self) -> Result<(), SimError> {
        let name = &self.name;
        if name.is_empty() {
            return Err(SimError::invalid_config("name: must not be empty"));
        }
        self.scale
            .validate()
            .map_err(|e| prefix_error(name, "scale", e))?;
        if self.workloads.is_empty() {
            return Err(invalid(name, "workloads: must not be empty"));
        }
        // The chip table's own fields are checked before anything derived
        // from them (like the per-workload thread limit), so a degenerate
        // `num_cores` gets its own diagnostic instead of poisoning later
        // arithmetic.
        let chip_allowed = self.kind == ExperimentKind::ChipGrid;
        if chip_allowed && self.chip.is_none() {
            return Err(invalid(name, "chip: required for kind `chip_grid`"));
        }
        if let Some(chip) = &self.chip {
            if !chip_allowed {
                return Err(invalid(
                    name,
                    format!(
                        "chip: only supported for kind `chip_grid`, not `{}`",
                        self.kind.name()
                    ),
                ));
            }
            if chip.num_cores == 0 || chip.num_cores > ChipConfig::MAX_CORES {
                return Err(invalid(
                    name,
                    format!(
                        "chip.num_cores: must be between 1 and {}",
                        ChipConfig::MAX_CORES
                    ),
                ));
            }
            if chip.allocations.is_empty() {
                return Err(invalid(name, "chip.allocations: must not be empty"));
            }
            if let Some(threads) = chip.chip_threads.filter(|&t| t != 1) {
                return Err(invalid(
                    name,
                    format!(
                        "chip.chip_threads: retired field; chips step their cores \
                         serially, so only 1 is accepted (got {threads})"
                    ),
                ));
            }
        }
        if self.adaptive.is_some() {
            return Err(invalid(
                name,
                "adaptive: retired table; runtime policy selection was removed, so \
                 name the fetch policies in `policies` instead",
            ));
        }
        if self.resilience.is_some() {
            return Err(invalid(
                name,
                "resilience: retired table; cells run once and are never retried, \
                 so cap a cell's simulated cycles with `[scale] max_cycles` instead",
            ));
        }
        let threads_limit = match &self.chip {
            Some(chip) => chip.num_cores * smt_types::ThreadId::MAX_THREADS,
            None => smt_types::ThreadId::MAX_THREADS,
        };
        for (i, benchmarks) in self.workloads.iter().enumerate() {
            if benchmarks.is_empty() {
                return Err(invalid(
                    name,
                    format!("workloads[{i}]: must name at least one benchmark"),
                ));
            }
            if benchmarks.len() > threads_limit {
                return Err(invalid(
                    name,
                    format!(
                        "workloads[{i}]: {} benchmarks exceeds the {threads_limit}-thread hardware limit",
                        benchmarks.len(),
                    ),
                ));
            }
            for benchmark in benchmarks {
                // `trace:<path>` workloads are validated lexically here; the
                // file itself is opened (and its header checked) when the run
                // builds its trace sources, so specs stay serializable and
                // checkable without touching the filesystem.
                if let Some(path) = smt_trace::trace_path(benchmark) {
                    if path.is_empty() {
                        return Err(invalid(
                            name,
                            format!("workloads[{i}]: `trace:` workload is missing a file path"),
                        ));
                    }
                } else if trace_spec::benchmark(benchmark).is_err() {
                    return Err(invalid(
                        name,
                        format!("workloads[{i}]: unknown benchmark `{benchmark}`"),
                    ));
                }
            }
        }
        if let Some(chip) = self.chip.as_ref().filter(|_| chip_allowed) {
            for (i, benchmarks) in self.workloads.iter().enumerate() {
                if !benchmarks.len().is_multiple_of(chip.num_cores)
                    || benchmarks.len() / chip.num_cores == 0
                    || benchmarks.len() / chip.num_cores > smt_types::ThreadId::MAX_THREADS
                {
                    return Err(invalid(
                        name,
                        format!(
                            "workloads[{i}]: {} benchmarks do not divide into {} cores of 1..={} threads",
                            benchmarks.len(),
                            chip.num_cores,
                            smt_types::ThreadId::MAX_THREADS
                        ),
                    ));
                }
            }
        }
        if self.kind.is_single_thread() {
            if !self.policies.is_empty() {
                return Err(invalid(
                    name,
                    format!(
                        "policies: must be empty for single-thread kind `{}`",
                        self.kind.name()
                    ),
                ));
            }
            if let Some(i) = self.workloads.iter().position(|w| w.len() != 1) {
                return Err(invalid(
                    name,
                    format!(
                        "workloads[{i}]: single-thread kind `{}` takes exactly one benchmark \
                         per workload",
                        self.kind.name()
                    ),
                ));
            }
            if self.sweep.is_some() {
                return Err(invalid(
                    name,
                    format!("sweep: not supported for kind `{}`", self.kind.name()),
                ));
            }
            if self.overrides.is_some_and(|o| !o.is_empty()) {
                return Err(invalid(
                    name,
                    format!("overrides: not supported for kind `{}`", self.kind.name()),
                ));
            }
        } else if self.policies.is_empty() {
            return Err(invalid(
                name,
                "policies: must not be empty for a policy grid",
            ));
        }
        if let Some(sweep) = &self.sweep {
            if sweep.values.is_empty() {
                return Err(invalid(name, "sweep.values: must not be empty"));
            }
        }
        if let Some(sampling) = &self.sampling {
            if self.kind != ExperimentKind::PolicyGrid {
                return Err(invalid(
                    name,
                    format!(
                        "sampling: only supported for kind `policy_grid`, not `{}`",
                        self.kind.name()
                    ),
                ));
            }
            sampling
                .config()
                .validate()
                .map_err(|e| prefix_error(name, "sampling", e))?;
        }
        // Every configuration the grid will run must itself be valid.
        for sweep_value in self.sweep_points() {
            for (i, benchmarks) in self.workloads.iter().enumerate() {
                let at = || match sweep_value {
                    Some(v) => format!("workloads[{i}] at sweep value {v}"),
                    None => format!("workloads[{i}]"),
                };
                if self.chip.is_some() {
                    let chip_config = self.chip_config_for(benchmarks.len(), sweep_value);
                    chip_config
                        .validate()
                        .map_err(|e| prefix_error(name, &format!("chip ({})", at()), e))?;
                } else {
                    let config = self.config_for(benchmarks.len(), sweep_value);
                    config
                        .validate()
                        .map_err(|e| prefix_error(name, &format!("overrides ({})", at()), e))?;
                }
            }
        }
        Ok(())
    }
}

fn invalid(experiment: &str, message: impl std::fmt::Display) -> SimError {
    SimError::invalid_config(format!("experiment `{experiment}`: {message}"))
}

fn prefix_error(experiment: &str, field: &str, error: SimError) -> SimError {
    match error {
        SimError::InvalidConfig { reason } => {
            SimError::invalid_config(format!("experiment `{experiment}`: {field}: {reason}"))
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "sample".to_string(),
            title: "Sample policy grid".to_string(),
            paper_ref: "Figure 9".to_string(),
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

    fn sample_chip_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "sample-chip".to_string(),
            title: "Sample chip grid".to_string(),
            paper_ref: String::new(),
            kind: ExperimentKind::ChipGrid,
            policies: vec![FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush],
            workloads: vec![vec![
                "mcf".to_string(),
                "swim".to_string(),
                "gcc".to_string(),
                "gap".to_string(),
            ]],
            sweep: None,
            overrides: None,
            chip: Some(ChipSpec {
                num_cores: 2,
                allocations: vec![
                    AllocationPolicyKind::RoundRobin,
                    AllocationPolicyKind::MlpBalanced,
                ],
                bus_bytes_per_cycle: 16,
                shared_llc: None,
                chip_threads: None,
            }),
            adaptive: None,
            resilience: None,
            sampling: None,
            scale: RunScale::tiny(),
        }
    }

    #[test]
    fn valid_spec_passes() {
        assert!(sample_spec().validate().is_ok());
    }

    #[test]
    fn toml_round_trip_preserves_spec() {
        let mut spec = sample_spec();
        spec.sweep = Some(SweepSpec {
            parameter: SweepParameter::MemoryLatency,
            values: vec![200, 800],
        });
        spec.overrides = Some(ConfigOverrides {
            prefetcher_enabled: Some(false),
            ..ConfigOverrides::default()
        });
        let text = toml::to_string(&spec).unwrap();
        let back: ExperimentSpec = toml::from_str(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn json_round_trip_preserves_spec() {
        let spec = sample_spec();
        let text = serde_json::to_string_pretty(&spec).unwrap();
        let back: ExperimentSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn unknown_spec_field_rejected_by_name() {
        let text = "name = \"x\"\ntitle = \"x\"\npaper_ref = \"\"\nkind = \"policy_grid\"\n\
                    policies = [\"icount\"]\nworkloads = [[\"mcf\"]]\nunknown_knob = 3\n\
                    [scale]\ninstructions_per_thread = 1000\nwarmup_instructions = 0\nseed = 1\n";
        let err = toml::from_str::<ExperimentSpec>(text)
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown_knob"), "{err}");
        assert!(err.contains("ExperimentSpec"), "{err}");
    }

    #[test]
    fn unknown_override_field_rejected_by_name() {
        let err = toml::from_str::<ConfigOverrides>("memory_latencyy = 600\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("memory_latencyy"), "{err}");
        assert!(err.contains("ConfigOverrides"), "{err}");
    }

    #[test]
    fn bad_policy_name_rejected() {
        let mut spec = sample_spec();
        let text = toml::to_string(&spec)
            .unwrap()
            .replace("mlp-flush", "mlp-flushh");
        let err = toml::from_str::<ExperimentSpec>(&text)
            .unwrap_err()
            .to_string();
        assert!(err.contains("mlp-flushh"), "{err}");
        // And the error path names the field that failed.
        assert!(err.contains("policies"), "{err}");
        spec.policies.clear();
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("policies"), "{err}");
    }

    #[test]
    fn oversized_workload_rejected_not_panicking() {
        let mut spec = sample_spec();
        spec.workloads = vec![vec![
            "mcf", "swim", "gcc", "gap", "apsi", "mesa", "art", "bzip2", "applu",
        ]
        .into_iter()
        .map(String::from)
        .collect()];
        let err = spec.validate().unwrap_err().to_string();
        assert!(
            err.contains("workloads[0]") && err.contains("hardware limit"),
            "{err}"
        );
    }

    #[test]
    fn unknown_benchmark_rejected_with_index() {
        let mut spec = sample_spec();
        spec.workloads[1] = vec!["gcc".to_string(), "quake3".to_string()];
        let err = spec.validate().unwrap_err().to_string();
        assert!(
            err.contains("workloads[1]") && err.contains("quake3"),
            "{err}"
        );
    }

    #[test]
    fn single_thread_kinds_reject_policies_and_multithread_workloads() {
        let mut spec = sample_spec();
        spec.kind = ExperimentKind::Characterization;
        let err = spec.clone().validate().unwrap_err().to_string();
        assert!(err.contains("policies"), "{err}");
        spec.policies.clear();
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("workloads[0]"), "{err}");
    }

    #[test]
    fn degenerate_override_rejected_through_config_validation() {
        let mut spec = sample_spec();
        spec.overrides = Some(ConfigOverrides {
            max_outstanding_misses: Some(0),
            ..ConfigOverrides::default()
        });
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("overrides"), "{err}");
        assert!(err.contains("MSHR"), "{err}");
    }

    #[test]
    fn sweep_points_and_config_application() {
        let mut spec = sample_spec();
        spec.sweep = Some(SweepSpec {
            parameter: SweepParameter::WindowSize,
            values: vec![128, 512],
        });
        assert_eq!(spec.sweep_points(), vec![Some(128), Some(512)]);
        let config = spec.config_for(2, Some(512));
        assert_eq!(config.rob_size, 512);
        assert_eq!(config.lsq_size, 256);
        let unswept = sample_spec();
        assert_eq!(unswept.sweep_points(), vec![None]);
        assert_eq!(unswept.config_for(2, None), SmtConfig::baseline(2));
    }

    #[test]
    fn per_group_limit_keeps_group_balance() {
        let mut spec = sample_spec();
        spec.workloads = vec![
            vec!["mcf".to_string(), "swim".to_string()],   // MLP
            vec!["gcc".to_string(), "gap".to_string()],    // ILP
            vec!["swim".to_string(), "twolf".to_string()], // MIX
            vec!["applu".to_string(), "swim".to_string()], // MLP (over limit)
        ];
        let limited = spec.with_workload_limit_per_group(1).unwrap();
        assert_eq!(limited.workloads.len(), 3);
        assert_eq!(limited.workloads[0][0], "mcf");
    }

    #[test]
    fn chip_spec_validates_and_round_trips() {
        let spec = sample_chip_spec();
        spec.validate().unwrap();
        let text = toml::to_string(&spec).unwrap();
        let back: ExperimentSpec = toml::from_str(&text).unwrap();
        assert_eq!(back, spec);
        let chip_config = spec.chip_config_for(4, None);
        assert_eq!(chip_config.num_cores, 2);
        assert_eq!(chip_config.core.num_threads, 2);
        assert_eq!(chip_config.bus.bytes_per_cycle, 16);
        assert_eq!(chip_config.shared_llc, chip_config.core.l3);
    }

    #[test]
    fn chip_spec_geometry_violations_rejected() {
        // Workload that does not divide over the cores.
        let mut spec = sample_chip_spec();
        spec.workloads = vec![vec![
            "mcf".to_string(),
            "swim".to_string(),
            "gcc".to_string(),
        ]];
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("divide"), "{err}");

        // Chip kind without chip parameters.
        let mut spec = sample_chip_spec();
        spec.chip = None;
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("chip"), "{err}");

        // Chip parameters on a non-chip kind.
        let mut spec = sample_spec();
        spec.chip = sample_chip_spec().chip;
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("chip_grid"), "{err}");

        // No allocations.
        let mut spec = sample_chip_spec();
        spec.chip.as_mut().unwrap().allocations.clear();
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("allocations"), "{err}");

        // Too many cores — and zero cores gets the same targeted
        // diagnostic (not a derived thread-limit complaint).
        for cores in [0usize, 99] {
            let mut spec = sample_chip_spec();
            spec.chip.as_mut().unwrap().num_cores = cores;
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains("num_cores"), "cores={cores}: {err}");
        }
    }

    #[test]
    fn retired_chip_threads_accepts_only_one() {
        let mut spec = sample_chip_spec();
        spec.chip.as_mut().unwrap().chip_threads = Some(1);
        spec.validate().unwrap();
        for threads in [0usize, 2, 8] {
            spec.chip.as_mut().unwrap().chip_threads = Some(threads);
            match spec.validate() {
                Err(SimError::InvalidConfig { reason }) => {
                    assert!(reason.contains("chip.chip_threads"), "{reason}");
                    assert!(reason.contains("serially"), "{reason}");
                }
                other => panic!("chip_threads = {threads}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn sampling_spec_validates_and_round_trips() {
        let mut spec = sample_spec();
        spec.sampling = Some(SamplingSpec {
            skip_instructions: Some(10_000),
            ff_instructions: Some(9_000),
            warm_instructions: Some(200),
            measure_instructions: Some(800),
            min_windows: Some(2),
        });
        spec.validate().unwrap();
        let text = toml::to_string(&spec).unwrap();
        let back: ExperimentSpec = toml::from_str(&text).unwrap();
        assert_eq!(back, spec);
        let config = spec.sampling.as_ref().unwrap().config();
        assert_eq!(config.unit_instructions(), 20_000);

        // Absent fields fall back to the default cadence.
        assert_eq!(SamplingSpec::default().config(), SamplingConfig::default());

        // Sampling on a non-policy-grid kind is rejected by name.
        let mut chip = sample_chip_spec();
        chip.sampling = Some(SamplingSpec::default());
        let err = chip.validate().unwrap_err().to_string();
        assert!(
            err.contains("sampling") && err.contains("policy_grid"),
            "{err}"
        );

        // A degenerate cadence is rejected through config validation.
        let mut zero = sample_spec();
        zero.sampling = Some(SamplingSpec {
            measure_instructions: Some(0),
            ..SamplingSpec::default()
        });
        let err = zero.validate().unwrap_err().to_string();
        assert!(
            err.contains("sampling") && err.contains("measure_instructions"),
            "{err}"
        );
    }

    #[test]
    fn kind_and_parameter_names_round_trip() {
        for kind in ExperimentKind::ALL {
            assert_eq!(ExperimentKind::from_name(kind.name()), Some(kind));
        }
        for parameter in SweepParameter::ALL {
            assert_eq!(SweepParameter::from_name(parameter.name()), Some(parameter));
        }
    }
}
