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
//! Every run loop of the crate — [`ChipSimulator::run`] and
//! [`ChipSimulator::warm_up`], the single-core machine's, the sampled
//! measurement windows and drains, and the single-thread reference curves —
//! is one call of `ChipSimulator::drive` with a stop rule and a cycle cap.
//! It skips per core: a core whose cycle was quiet sleeps until its own next
//! event while the other cores step, and the chip cycle jumps ahead when
//! every core sleeps (see the `skip` module of [`crate::pipeline`] for why
//! this is sound). Before `drive` returns, every core is brought up to the
//! chip cycle, so no lagging core is ever observable. `step` never skips; it
//! is the reference.
//!
//! The paper's single-core machine ([`crate::pipeline::SmtSimulator`]) is a
//! one-core chip: the shared level keeps its legacy discipline and an
//! uncontended bus when there is no second core.

use smt_fetch::{build_policy, FetchPolicy};
use smt_mem::SharedLlc;
use smt_trace::TraceSource;
use smt_types::{ChipConfig, ChipStats, MachineStats, SimError};

use crate::pipeline::{Core, SimOptions};

/// When [`ChipSimulator::drive`] stops, short of its cycle cap.
#[derive(Clone, Copy)]
pub(crate) enum StopRule {
    /// Some thread has committed this many instructions since the call.
    AnyThreadCommits(u64),
    /// Every thread has committed this many instructions since the call.
    EveryThreadCommits(u64),
    /// Every core's pipeline is empty (see `Core::is_drained`).
    Drained,
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
    pub(crate) cores: Vec<Core>,
    pub(crate) shared: SharedLlc,
    cycle: u64,
    /// Per core, the chip cycle in which `drive` next steps it. A core
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
        // Validate first: the policies size themselves by the thread count.
        config.validate()?;
        let policies = (0..config.num_cores)
            .map(|_| build_policy(config.core.fetch_policy, &config.core))
            .collect();
        Self::with_policies(config, traces_per_core, policies)
    }

    /// Builds a chip whose core `i` runs under `policies[i]`, overriding
    /// the fetch policy named in `config.core`.
    ///
    /// # Errors
    ///
    /// Same as [`ChipSimulator::new`].
    pub(crate) fn with_policies(
        config: ChipConfig,
        traces_per_core: Vec<Vec<Box<dyn TraceSource>>>,
        policies: Vec<Box<dyn FetchPolicy>>,
    ) -> Result<Self, SimError> {
        config.validate()?;
        if traces_per_core.len() != config.num_cores {
            return Err(SimError::invalid_workload(format!(
                "expected trace sources for {} cores, got {}",
                config.num_cores,
                traces_per_core.len()
            )));
        }
        // Shared level first: allocated after the cores, it raises peak RSS.
        let shared = SharedLlc::for_chip(&config);
        let mut cores = Vec::with_capacity(config.num_cores);
        for (core_id, (traces, policy)) in traces_per_core.into_iter().zip(policies).enumerate() {
            cores.push(Core::with_policy(
                config.core.clone(),
                traces,
                policy,
                core_id,
            )?);
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

    /// The chip configuration the simulator was built with.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Number of cores on the chip.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Current cycle count (identical across cores: only `drive` lets a core
    /// lag behind it, and it brings every core up to it before it returns).
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

    /// Runs one shared-level cycle bracket: `step` on every core that is not
    /// asleep, visiting cores in `order` (ascending core id when `None`),
    /// each directly against the shared level; `step` returns the core's
    /// next wake cycle. The shared level's arbitration makes the result
    /// independent of `order`. The chip cycle counter is left to the caller.
    fn cycle_bracket(
        &mut self,
        order: Option<&[usize]>,
        mut step: impl FnMut(&mut Core, &mut SharedLlc) -> u64,
    ) {
        let now = self.cycle;
        self.shared.begin_cycle(now);
        for i in 0..self.cores.len() {
            let core = order.map_or(i, |order| order[i]);
            if self.wake[core] <= now {
                self.cores[core].skip_to(now);
                self.wake[core] = step(&mut self.cores[core], &mut self.shared);
            }
        }
        self.shared.end_cycle();
    }

    /// One chip cycle of `drive`: steps every awake core, then, if
    /// every core sleeps, jumps the chip cycle to the earliest wake cycle
    /// (never past `limit`, which caps every wake cycle).
    fn advance(&mut self, limit: u64) {
        self.cycle_bracket(None, |core, shared| core.step_to_next_event(shared, limit));
        self.cycle += 1;
        if let Some(&earliest) = self.wake.iter().min() {
            self.cycle = self.cycle.max(earliest);
        }
    }

    /// Brings every sleeping core up to the chip cycle, accounting its
    /// skipped cycles, and marks every core awake. `drive` calls this before
    /// it returns and before it reads a core's drain state.
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
    /// skipping run loop is compared against.
    pub fn step(&mut self) {
        self.cycle_bracket(None, Self::step_core);
        self.cycle += 1;
    }

    /// One detailed cycle of `core`, which wakes the next cycle: outside
    /// `drive` no core sleeps.
    fn step_core(core: &mut Core, shared: &mut SharedLlc) -> u64 {
        core.step_against(shared);
        core.cycle()
    }

    /// Advances the whole chip by one cycle, stepping cores in the given
    /// order (a permutation of `0..num_cores`). The order-reversal tests
    /// step reversed against canonical to pin that the chip arbitration
    /// discipline makes results independent of the order.
    #[cfg(test)]
    fn step_with_core_order(&mut self, order: &[usize]) {
        self.cycle_bracket(Some(order), Self::step_core);
        self.cycle += 1;
    }

    /// Committed instruction counts across the chip, in `(core, thread)` order.
    fn committed(&self) -> impl Iterator<Item = u64> + '_ {
        self.cores.iter().flat_map(|c| c.committed())
    }

    /// Steps the chip, skipping quiet cycles per core, until `rule` holds or
    /// the chip cycle reaches `cap`, then brings every core up to the chip
    /// cycle. The instruction counts of `rule` are counted from the call.
    /// This is the run loop of every caller in the crate; the result is
    /// bit-for-bit what a loop of [`ChipSimulator::step`] calls with the same
    /// stop rule produces.
    pub(crate) fn drive(&mut self, rule: StopRule, cap: u64) {
        let base: Vec<u64> = self.committed().collect();
        while self.cycle < cap {
            let since = || self.committed().zip(&base).map(|(c, &b)| c - b);
            let holds = match rule {
                StopRule::AnyThreadCommits(n) => since().any(|d| d >= n),
                StopRule::EveryThreadCommits(n) => since().all(|d| d >= n),
                StopRule::Drained => {
                    // A sleeping core's write buffer must be read at the
                    // chip cycle, not at the cycle it fell asleep in.
                    self.wake_all();
                    self.cores.iter_mut().all(Core::is_drained)
                }
            };
            if holds {
                break;
            }
            self.advance(cap);
        }
        self.wake_all();
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
        self.drive(
            StopRule::AnyThreadCommits(options.max_instructions_per_thread),
            options.max_cycles,
        );
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
        self.drive(StopRule::EveryThreadCommits(instructions), max_cycles);
        self.reset_stats();
    }

    /// Zeroes all statistics counters on every core without disturbing
    /// microarchitectural state.
    pub fn reset_stats(&mut self) {
        for core in &mut self.cores {
            core.reset_stats();
        }
    }

    /// Assembles the current per-core statistics into a [`ChipStats`] record
    /// whose chip-wide cycle count is the live measured count (which a
    /// finalized per-core count never exceeds).
    pub fn chip_stats(&self) -> ChipStats {
        debug_assert!(self.cores_in_step(), "a core lags the chip cycle");
        let cores = self.cores.iter().map(|c| c.stats().clone()).collect();
        ChipStats {
            cycles: self.measured_cycles(),
            cores,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{build_trace, RunScale};
    use smt_types::config::FetchPolicyKind;

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
            let chip = ChipConfig::baseline(2, 2).with_policy(FetchPolicyKind::MlpFlush);
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

    #[test]
    fn chip_results_are_invariant_to_core_iteration_order() {
        // Each core steps directly against the one shared LLC, one after the
        // other; the chip arbitration discipline (cycle-stamped LRU, fills
        // held until the end of the cycle, cycle-start-frozen bus
        // congestion, per-requester MSHRs, per-core-disjoint address spaces)
        // hides every core's same-cycle requests from the others.
        let scale = RunScale::tiny();
        let build = || {
            let config = ChipConfig::baseline(2, 2).with_policy(FetchPolicyKind::MlpFlush);
            let traces = chip_traces(&[&["mcf", "gcc"], &["swim", "twolf"]], scale);
            ChipSimulator::new(config, traces).expect("chip builds")
        };
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
        let committed = canonical.chip_stats().total_committed();
        assert!(
            committed > 1_000,
            "run too short to be meaningful: {committed}"
        );
    }
}
