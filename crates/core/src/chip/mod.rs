//! The chip-level simulator: a CMP of SMT cores sharing a last-level cache
//! and a memory bus.
//!
//! A [`ChipSimulator`] owns `num_cores` independent [`Core`] pipelines and
//! one [`smt_mem::SharedLlc`]; cores interact *only* through LLC capacity,
//! the LLC MSHR file, and bus bandwidth. A chip cycle is one bracket:
//! [`smt_mem::SharedLlc::begin_cycle`], every core stepped directly against
//! the shared level one after another, then
//! [`smt_mem::SharedLlc::end_cycle`]. Under the chip arbitration discipline
//! (see [`smt_mem::shared`]) each core's cycle is a function of cycle-start
//! state and its own requests, so chip results are invariant to the order
//! cores are stepped in; this module's tests step cores in reverse order to
//! pin that property.
//!
//! The run loops ([`ChipSimulator::run`] and [`ChipSimulator::warm_up`])
//! skip per core: a core whose cycle was quiet sleeps until its own next
//! event while the other cores step, and the chip cycle jumps ahead when
//! every core sleeps (see the `skip` module of [`crate::pipeline`] for why
//! this is sound). Before either loop returns, every core is brought up to
//! the chip cycle, so no lagging core is ever observable. `step` never
//! skips; it is the reference.
//!
//! A one-core chip degenerates exactly to the paper's single-core machine
//! ([`crate::pipeline::SmtSimulator`]): same discipline, same per-requester
//! MSHRs, uncontended bus, bit-for-bit identical statistics.

use smt_fetch::build_policy;
use smt_mem::SharedLlc;
use smt_trace::TraceSource;
use smt_types::config::FetchPolicyKind;
use smt_types::{AdaptiveConfig, ChipConfig, ChipStats, MachineStats, SimError};

use crate::pipeline::{Core, SimOptions};

/// What every core does inside one shared-level cycle bracket.
#[derive(Clone, Copy)]
enum CoreAction {
    /// One detailed pipeline cycle.
    Step,
    /// One detailed pipeline cycle on each awake core, recording its next
    /// wake cycle, capped at the given cycle limit. Sleeping cores sit the
    /// bracket out.
    Advance(u64),
}

impl CoreAction {
    /// Applies the action to `core`, whose wake cycle is `wake`, in the
    /// bracket of chip cycle `now`.
    fn apply(self, core: &mut Core, wake: &mut u64, now: u64, shared: &mut SharedLlc) {
        match self {
            CoreAction::Step => core.step_against(shared),
            CoreAction::Advance(limit) => {
                if *wake <= now {
                    core.skip_to(now);
                    *wake = core.step_to_next_event(shared, limit);
                }
            }
        }
    }
}

/// The chip (CMP-of-SMT) simulator.
///
/// # Example
///
/// ```
/// use smt_core::chip::ChipSimulator;
/// use smt_core::pipeline::SimOptions;
/// use smt_trace::{spec, SyntheticTraceGenerator};
/// use smt_types::ChipConfig;
///
/// # fn main() -> Result<(), smt_types::SimError> {
/// let chip = ChipConfig::baseline(2, 2);
/// let traces = vec![
///     vec!["mcf", "gcc"],
///     vec!["swim", "twolf"],
/// ]
/// .into_iter()
/// .enumerate()
/// .map(|(core, names)| {
///     names
///         .into_iter()
///         .enumerate()
///         .map(|(slot, name)| {
///             let seed = (core * 2 + slot + 1) as u64;
///             Box::new(SyntheticTraceGenerator::new(
///                 spec::benchmark(name).unwrap(),
///                 seed,
///             )) as Box<dyn smt_trace::TraceSource>
///         })
///         .collect()
/// })
/// .collect();
/// let mut sim = ChipSimulator::new(chip, traces)?;
/// let stats = sim.run(SimOptions::with_instructions(1_000));
/// assert_eq!(stats.num_cores(), 2);
/// assert!(stats.cycles > 0);
/// assert!(stats.total_committed() > 0);
/// # Ok(())
/// # }
/// ```
pub struct ChipSimulator {
    config: ChipConfig,
    cores: Vec<Core>,
    shared: SharedLlc,
    cycle: u64,
    /// Per core, the chip cycle in which the run loops next step it. A core
    /// whose wake cycle lies ahead of the chip cycle is asleep: its last
    /// step was quiet and it has not been brought up to the chip cycle yet.
    wake: Vec<u64>,
}

impl ChipSimulator {
    /// Builds a chip for `config` running one trace source per hardware
    /// thread of each core (`traces_per_core[core][thread]`). Every core uses
    /// the fetch policy named in `config.core`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the chip configuration does not
    /// validate and [`SimError::InvalidWorkload`] if the trace grid does not
    /// match the chip's core/thread geometry.
    pub fn new(
        config: ChipConfig,
        traces_per_core: Vec<Vec<Box<dyn TraceSource>>>,
    ) -> Result<Self, SimError> {
        config.validate()?;
        if traces_per_core.len() != config.num_cores {
            return Err(SimError::invalid_workload(format!(
                "expected trace sources for {} cores, got {}",
                config.num_cores,
                traces_per_core.len()
            )));
        }
        let shared = SharedLlc::for_chip(&config);
        let mut cores = Vec::with_capacity(config.num_cores);
        for (core_id, traces) in traces_per_core.into_iter().enumerate() {
            let core_config = config.core.clone();
            let policy = build_policy(core_config.fetch_policy, &core_config);
            cores.push(Core::with_policy(core_config, traces, policy, core_id)?);
        }
        let wake = vec![0; config.num_cores];
        Ok(ChipSimulator {
            config,
            cores,
            shared,
            cycle: 0,
            wake,
        })
    }

    /// Builds a chip whose cores are driven by the adaptive policy engine:
    /// every core gets its *own* selector instance (selectors keep state) and
    /// starts on `adaptive.candidates[0]`, overriding the fetch policy named
    /// in `config.core`. Cores then switch policies independently, each on
    /// its own interval telemetry.
    ///
    /// # Errors
    ///
    /// Same as [`ChipSimulator::new`], plus [`SimError::InvalidConfig`] for
    /// an invalid adaptive configuration.
    pub fn new_adaptive(
        config: ChipConfig,
        traces_per_core: Vec<Vec<Box<dyn TraceSource>>>,
        adaptive: AdaptiveConfig,
    ) -> Result<Self, SimError> {
        adaptive.validate()?;
        let mut sim = Self::new(config, traces_per_core)?;
        for core in &mut sim.cores {
            core.set_adaptive(adaptive.clone())?;
        }
        Ok(sim)
    }

    /// Fraction of completed intervals each policy was installed for on one
    /// core (see [`Core::policy_residency`]); `None` when the chip is not
    /// adaptive.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn policy_residency(&self, core: usize) -> Option<Vec<(FetchPolicyKind, f64)>> {
        self.cores[core].policy_residency()
    }

    /// The chip configuration the simulator was built with.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Number of cores on the chip.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Current cycle count (identical across cores: only the run loops let a
    /// core lag behind it, and they bring every core up to it before they
    /// return).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics of one core accumulated so far.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_stats(&self, core: usize) -> &MachineStats {
        self.cores[core].stats()
    }

    /// Cycles elapsed in the current measurement phase.
    pub fn measured_cycles(&self) -> u64 {
        self.cores.first().map_or(0, |c| c.measured_cycles())
    }

    /// Runs one shared-level cycle bracket: `action` on every core that is
    /// not asleep, visiting cores in `order` (ascending core id when
    /// `None`), each directly against the shared level. The shared level's
    /// arbitration makes the result independent of `order`. The chip cycle
    /// counter is left to the caller.
    fn cycle_bracket(&mut self, action: CoreAction, order: Option<&[usize]>) {
        let now = self.cycle;
        self.shared.begin_cycle(now);
        for i in 0..self.cores.len() {
            let core = order.map_or(i, |order| order[i]);
            action.apply(
                &mut self.cores[core],
                &mut self.wake[core],
                now,
                &mut self.shared,
            );
        }
        self.shared.end_cycle();
    }

    /// One chip cycle of the run loops: steps every awake core, then, if
    /// every core sleeps, jumps the chip cycle to the earliest wake cycle
    /// (never past `limit`, which caps every wake cycle).
    fn advance(&mut self, limit: u64) {
        self.cycle_bracket(CoreAction::Advance(limit), None);
        self.cycle += 1;
        if let Some(&earliest) = self.wake.iter().min() {
            self.cycle = self.cycle.max(earliest);
        }
    }

    /// Brings every sleeping core up to the chip cycle, accounting its
    /// skipped cycles, and marks every core awake. The run loops call this
    /// before they return or touch statistics.
    fn wake_all(&mut self) {
        for (core, wake) in self.cores.iter_mut().zip(&mut self.wake) {
            core.skip_to(self.cycle);
            *wake = self.cycle;
        }
    }

    /// Whether every core's cycle counter equals the chip cycle.
    fn cores_in_step(&self) -> bool {
        self.cores.iter().all(|core| core.cycle() == self.cycle)
    }

    /// Advances the whole chip by one cycle, stepping every core in
    /// ascending core-id order. It never skips: this is the reference the
    /// skipping run loops are compared against.
    pub fn step(&mut self) {
        self.cycle_bracket(CoreAction::Step, None);
        self.cycle += 1;
    }

    /// Advances the whole chip by one cycle, stepping cores in the given
    /// order (a permutation of `0..num_cores`). The order-reversal tests
    /// step reversed against canonical to pin that the chip arbitration
    /// discipline makes results independent of the order.
    #[cfg(test)]
    fn step_with_core_order(&mut self, order: &[usize]) {
        self.cycle_bracket(CoreAction::Step, Some(order));
        self.cycle += 1;
    }

    /// Committed instruction counts across the chip, in `(core, thread)` order.
    fn committed(&self) -> impl Iterator<Item = u64> + '_ {
        self.cores.iter().flat_map(|c| c.committed())
    }

    /// Runs the warm-up phase followed by the measured phase, stopping the
    /// measured phase once any thread of any core has committed the
    /// instruction budget (the paper's stop criterion, applied chip-wide) or
    /// the cycle limit is hit, and returns the statistics of the measured
    /// phase.
    ///
    /// Each core sleeps through its own quiet cycles; the result is
    /// bit-for-bit what a loop of [`ChipSimulator::step`] calls with the same
    /// stop rules produces.
    pub fn run(&mut self, options: SimOptions) -> ChipStats {
        self.warm_up(options.warmup_instructions_per_thread, options.max_cycles);
        let baselines: Vec<u64> = self.committed().collect();
        while self.cycle < options.max_cycles
            && !self
                .committed()
                .zip(&baselines)
                .any(|(c, &base)| c - base >= options.max_instructions_per_thread)
        {
            self.advance(options.max_cycles);
        }
        self.wake_all();
        for core in &mut self.cores {
            core.finalize_cycles();
        }
        self.chip_stats()
    }

    /// Runs until every thread of every core has committed `instructions`
    /// further instructions (or the cycle limit is hit), then clears all
    /// statistics (microarchitectural state stays warm). A zero-length
    /// warm-up is a no-op. Skips per core like [`ChipSimulator::run`].
    pub fn warm_up(&mut self, instructions: u64, max_cycles: u64) {
        if instructions == 0 {
            return;
        }
        let targets: Vec<u64> = self.committed().map(|c| c + instructions).collect();
        while self.cycle < max_cycles && self.committed().zip(&targets).any(|(c, &t)| c < t) {
            self.advance(max_cycles);
        }
        self.wake_all();
        self.reset_stats();
    }

    /// Zeroes all statistics counters on every core without disturbing
    /// microarchitectural state.
    pub fn reset_stats(&mut self) {
        for core in &mut self.cores {
            core.reset_stats();
        }
    }

    /// Assembles the current per-core statistics into a [`ChipStats`] record.
    /// The chip-wide cycle count is taken from the per-core records when
    /// finalized by [`ChipSimulator::run`], otherwise from the live measured
    /// count.
    pub fn chip_stats(&self) -> ChipStats {
        debug_assert!(self.cores_in_step(), "a core lags the chip cycle");
        let cores: Vec<MachineStats> = self.cores.iter().map(|c| c.stats().clone()).collect();
        let cycles = cores
            .first()
            .map_or(0, |c| c.cycles.max(self.measured_cycles()));
        ChipStats { cycles, cores }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{build_trace, RunScale};

    fn chip_traces(assignments: &[&[&str]], scale: RunScale) -> Vec<Vec<Box<dyn TraceSource>>> {
        assignments
            .iter()
            .map(|core| {
                core.iter()
                    .map(|b| build_trace(b, scale).expect("known benchmark"))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn two_core_chip_runs_to_budget() {
        let scale = RunScale::tiny();
        let chip = ChipConfig::baseline(2, 2);
        let mut sim = ChipSimulator::new(
            chip,
            chip_traces(&[&["mcf", "gcc"], &["swim", "twolf"]], scale),
        )
        .unwrap();
        let stats = sim.run(scale.sim_options());
        assert_eq!(stats.num_cores(), 2);
        assert!(stats.cycles > 0);
        let max = stats
            .threads()
            .map(|t| t.committed_instructions)
            .max()
            .unwrap();
        assert!(max >= scale.instructions_per_thread);
        assert!(stats.total_ipc() > 0.0);
    }

    #[test]
    fn chip_runs_are_reproducible() {
        let scale = RunScale::tiny();
        let run = || {
            let chip = ChipConfig::baseline(2, 2)
                .with_policy(smt_types::config::FetchPolicyKind::MlpFlush);
            let mut sim = ChipSimulator::new(
                chip,
                chip_traces(&[&["mcf", "swim"], &["gcc", "twolf"]], scale),
            )
            .unwrap();
            sim.run(scale.sim_options())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_grid_must_match_geometry() {
        let scale = RunScale::tiny();
        let chip = ChipConfig::baseline(2, 2);
        let err = ChipSimulator::new(chip, chip_traces(&[&["mcf", "gcc"]], scale));
        assert!(err.is_err());
    }

    /// Steps `build()` canonically and a twin with the core order reversed
    /// every cycle for 6,000 cycles, asserts their statistics are
    /// bit-for-bit identical, and returns both.
    fn step_canonical_and_reversed(
        build: impl Fn() -> ChipSimulator,
    ) -> (ChipSimulator, ChipSimulator) {
        let mut canonical = build();
        let mut reversed = build();
        for _ in 0..6_000 {
            canonical.step();
            reversed.step_with_core_order(&[1, 0]);
        }
        assert_eq!(
            canonical.chip_stats(),
            reversed.chip_stats(),
            "core stepping order leaked into chip results"
        );
        (canonical, reversed)
    }

    #[test]
    fn chip_results_are_invariant_to_core_iteration_order() {
        // Each core steps directly against the one shared LLC, one after the
        // other; the chip arbitration discipline (cycle-stamped LRU, fills
        // held until the end of the cycle, cycle-start-frozen bus
        // congestion, per-requester MSHRs, per-core-disjoint address spaces)
        // hides every core's same-cycle requests from the others.
        let scale = RunScale::tiny();
        let (canonical, _) = step_canonical_and_reversed(|| {
            let config = ChipConfig::baseline(2, 2).with_policy(FetchPolicyKind::MlpFlush);
            let traces = chip_traces(&[&["mcf", "gcc"], &["swim", "twolf"]], scale);
            ChipSimulator::new(config, traces).expect("chip builds")
        });
        let committed = canonical.chip_stats().total_committed();
        assert!(
            committed > 1_000,
            "run too short to be meaningful: {committed}"
        );
    }

    #[test]
    fn adaptive_chip_is_invariant_to_core_stepping_order() {
        // Dynamic selection decisions are core-local functions of core-local
        // telemetry, so even with every core switching policies at interval
        // boundaries, chip results must not depend on the order cores step
        // within a cycle.
        let scale = RunScale::tiny();
        let adaptive = AdaptiveConfig::new(
            smt_types::SelectorKind::Sampling,
            vec![FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush],
        )
        .with_interval_cycles(256);
        let (canonical, reversed) = step_canonical_and_reversed(|| {
            let traces = chip_traces(&[&["mcf", "gcc"], &["swim", "twolf"]], scale);
            ChipSimulator::new_adaptive(ChipConfig::baseline(2, 2), traces, adaptive.clone())
                .expect("adaptive chip builds")
        });
        for core in 0..2 {
            assert_eq!(
                canonical.policy_residency(core),
                reversed.policy_residency(core),
                "core stepping order leaked into core {core}'s policy residency"
            );
        }
        // The run was long enough for dynamic selection to actually happen.
        let switched = (0..2).any(|core| {
            canonical
                .policy_residency(core)
                .expect("adaptive chip reports residency")
                .len()
                > 1
        });
        assert!(switched, "no core ever switched policy; test is vacuous");
    }
}
