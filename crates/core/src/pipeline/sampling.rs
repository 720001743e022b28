//! SMARTS-style sampled execution: interleave cheap functional fast-forward
//! phases with cycle-accurate measurement windows and extrapolate whole-run
//! metrics with per-metric confidence intervals from the between-window
//! variance.
//!
//! One sampling unit is `skip → ff → warm → measure → drain`:
//!
//! 1. **skip** `skip_instructions` per thread at raw trace speed (warm state
//!    frozen, nothing updated — the cheap phase that makes large budgets
//!    tractable; zero for full SMARTS-style functional warming);
//! 2. **fast-forward** `ff_instructions` per thread functionally (trace
//!    consumed, warm state hot, no cycles — the `fast_forward` pipeline
//!    module);
//! 3. **warm** `warm_instructions` per thread in detailed mode to re-fill the
//!    short-lived pipeline state (window occupancy, in-flight misses) the
//!    functional path does not model; statistics reset at the end;
//! 4. **measure** a detailed window until any thread commits
//!    `measure_instructions` (the paper's stop criterion at window scale),
//!    recording the window's cycle count and per-thread committed
//!    instructions;
//! 5. **drain** with fetch frozen until the pipeline is empty, so the next
//!    fast-forward starts from a sound boundary.

use smt_types::{MetricEstimate, SampledEstimate, SamplingConfig, SimError};

use super::{SimOptions, SmtSimulator};
use crate::chip::StopRule;

/// Safety multiplier bounding the cycles one detailed phase may take per
/// instruction: generous enough for the most memory-bound workload (CPI well
/// under 1000) while still guaranteeing termination.
const MAX_CYCLES_PER_INSTRUCTION: u64 = 1_000;

/// Hard bound on the cycles a drain may take: the slowest in-flight miss
/// resolves in well under this.
const MAX_DRAIN_CYCLES: u64 = 1_000_000;

/// The result of a sampled run: the extrapolated estimate plus the raw
/// per-window counts, from which callers derive ratio estimates of compound
/// metrics (STP, ANTT) without re-introducing per-window ratio bias.
#[derive(Clone, PartialEq, Debug)]
pub struct SampledRun {
    /// Extrapolated IPC estimates with confidence intervals.
    pub estimate: SampledEstimate,
    /// Detailed cycles spent in each measurement window.
    pub window_cycles: Vec<u64>,
    /// Instructions committed per thread in each measurement window (outer
    /// index: window; inner index: thread).
    pub window_thread_committed: Vec<Vec<u64>>,
}

impl SmtSimulator {
    /// Freezes or unfreezes the fetch stage (the sampled loop's drain).
    fn freeze_fetch(&mut self, frozen: bool) {
        self.chip.cores[0].fetch_frozen = frozen;
    }

    /// The cycle by which a detailed phase of `instructions` per thread must
    /// end: [`MAX_CYCLES_PER_INSTRUCTION`] per instruction plus a drain's
    /// worth, saturating at `u64::MAX`.
    fn phase_cap(&self, instructions: u64) -> u64 {
        self.cycle()
            .saturating_add(instructions.saturating_mul(MAX_CYCLES_PER_INSTRUCTION))
            .saturating_add(MAX_DRAIN_CYCLES)
    }

    /// Drains with fetch frozen until the pipeline is empty or the cycle
    /// count reaches `limit`; returns whether it drained.
    fn drain_until(&mut self, limit: u64) -> bool {
        self.freeze_fetch(true);
        self.chip.drive(StopRule::Drained, limit);
        self.freeze_fetch(false);
        self.chip.cores[0].is_drained()
    }

    /// The drain between a measurement window and the next fast-forward,
    /// bounded by the run's cycle cap `max_cycles` and by `bound` cycles.
    /// Fast-forwarding an undrained pipeline would reorder the LLSR commit
    /// stream, so a drain that does not finish is an error: deadline
    /// exceeded when the cap stopped it, internal otherwise.
    fn drain_for_fast_forward(&mut self, max_cycles: u64, bound: u64) -> Result<(), SimError> {
        let start = self.cycle();
        if self.drain_until(max_cycles.min(start.saturating_add(bound))) {
            return Ok(());
        }
        let cycle = self.cycle();
        if cycle >= max_cycles {
            // analyze: allow(hot-path-alloc) reason="error path, at most once per run"
            Err(SimError::deadline_exceeded(format!(
                "simulated-cycle cap of {max_cycles} cycles hit while draining the \
                 pipeline after a sampled measurement window"
            )))
        } else {
            // analyze: allow(hot-path-alloc) reason="error path, at most once per run"
            Err(SimError::internal(format!(
                "pipeline failed to drain within {bound} cycles (cycles {start}..{cycle})"
            )))
        }
    }

    /// Runs the workload in sampled mode and returns extrapolated IPC
    /// estimates with 95% confidence intervals.
    ///
    /// `options.max_instructions_per_thread` is the total per-thread
    /// instruction budget (as in [`SmtSimulator::run`]); the number of
    /// sampling units is the budget divided by
    /// [`SamplingConfig::unit_instructions`], floored at
    /// `sampling.min_windows`. `options.warmup_instructions_per_thread` is
    /// ignored — the fast-forward phases replace the monolithic warm-up.
    /// `options.max_cycles` caps total detailed cycles as usual.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `sampling` does not validate,
    /// [`SimError::DeadlineExceeded`] if `options.max_cycles` stops the
    /// drain after a measurement window, and [`SimError::Internal`] if a
    /// drain does not finish within its safety bound.
    pub fn run_sampled(
        &mut self,
        options: SimOptions,
        sampling: &SamplingConfig,
    ) -> Result<SampledRun, SimError> {
        sampling.validate()?;
        let num_threads = self.config().num_threads;
        let unit = sampling.unit_instructions();
        let units = options
            .max_instructions_per_thread
            .div_ceil(unit)
            .max(u64::from(sampling.min_windows));

        // analyze: allow(hot-path-alloc) reason="window accumulators, once per run"
        let mut window_cycles: Vec<u64> = Vec::new();
        // analyze: allow(hot-path-alloc) reason="window accumulators, once per run"
        let mut window_thread_committed: Vec<Vec<u64>> = Vec::new();

        for _ in 0..units {
            if self.cycle() >= options.max_cycles {
                break;
            }
            if sampling.skip_instructions > 0 {
                self.skip_forward(sampling.skip_instructions);
            }
            self.fast_forward(sampling.ff_instructions);

            // Detailed warm-up: re-fills the transient pipeline state the
            // functional path does not model; resets statistics at the end.
            let warm_cap = options
                .max_cycles
                .min(self.phase_cap(sampling.warm_instructions));
            self.warm_up(sampling.warm_instructions, warm_cap);
            self.reset_stats();

            // Measurement window: the paper's any-thread stop criterion at
            // window scale.
            let measure_cap = options
                .max_cycles
                .min(self.phase_cap(sampling.measure_instructions));
            self.chip.drive(
                StopRule::AnyThreadCommits(sampling.measure_instructions),
                measure_cap,
            );
            let cycles = self.measured_cycles();
            if cycles > 0 {
                let stats = self.stats();
                window_cycles.push(cycles);
                window_thread_committed.push(
                    stats
                        .threads
                        .iter()
                        .map(|t| t.committed_instructions)
                        // analyze: allow(hot-path-alloc) reason="once per measurement window, not per cycle"
                        .collect(),
                );
            }

            // Drain so the next fast-forward starts from a sound boundary.
            self.drain_for_fast_forward(options.max_cycles, MAX_DRAIN_CYCLES)?;
        }

        // Ratio estimates (Σ committed / Σ cycles): equal weight per cycle,
        // matching what an exact run measures. Averaging per-window IPCs
        // instead would over-weight lucky fast windows (see
        // [`MetricEstimate::from_ratio`]).
        let per_thread_ipc = (0..num_threads)
            .map(|ti| {
                let pairs: Vec<(f64, f64)> = window_thread_committed
                    .iter()
                    .zip(&window_cycles)
                    .map(|(w, &c)| (w[ti] as f64, c as f64))
                    // analyze: allow(hot-path-alloc) reason="once per thread at estimate assembly, not per cycle"
                    .collect();
                MetricEstimate::from_ratio(&pairs)
            })
            // analyze: allow(hot-path-alloc) reason="once per run at estimate assembly, not per cycle"
            .collect();
        let total_pairs: Vec<(f64, f64)> = window_thread_committed
            .iter()
            .zip(&window_cycles)
            .map(|(w, &c)| (w.iter().sum::<u64>() as f64, c as f64))
            // analyze: allow(hot-path-alloc) reason="once per run at estimate assembly, not per cycle"
            .collect();
        let estimate = SampledEstimate {
            windows: window_cycles.len() as u32,
            total_ipc: MetricEstimate::from_ratio(&total_pairs),
            per_thread_ipc,
            detailed_fraction: sampling.detailed_fraction(),
        };
        Ok(SampledRun {
            estimate,
            window_cycles,
            window_thread_committed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{build_trace, RunScale};
    use smt_trace::ScriptedTrace;
    use smt_types::config::FetchPolicyKind;
    use smt_types::{SmtConfig, TraceOp};

    fn build_sim(benchmarks: &[&str]) -> SmtSimulator {
        let mut config = SmtConfig::baseline(benchmarks.len());
        config.fetch_policy = FetchPolicyKind::MlpFlush;
        config.write_buffer_entries = 2;
        let traces = benchmarks
            .iter()
            .map(|b| build_trace(b, RunScale::tiny()).expect("known benchmark"))
            .collect();
        SmtSimulator::new(config, traces).expect("valid configuration")
    }

    fn write_buffer_busy(sim: &mut SmtSimulator) -> bool {
        let now = sim.cycle();
        sim.chip.cores[0].write_buffer.occupancy(now) > 0
    }

    #[test]
    fn drain_stops_on_the_same_cycle_as_a_frozen_step_loop() {
        // The second machine, one thread looping over stores to 32 distinct
        // lines, ends some drains while its core sleeps: the write buffer
        // must be read at the chip cycle, not where the core fell asleep.
        for store_loop in [false, true] {
            let build = || {
                if !store_loop {
                    return build_sim(&["swim", "mcf", "gcc"]);
                }
                let ops = (0..32).map(|i| TraceOp::store(0x1000 + 4 * i, 0x10_0000 + 64 * i));
                let trace = ScriptedTrace::looping("stores", ops.collect());
                SmtSimulator::new(SmtConfig::baseline(1), vec![Box::new(trace)]).unwrap()
            };
            let (mut skipping, mut stepping) = (build(), build());
            for drain in 0..20 {
                // Step both machines to the drain's start (the next cycle
                // with stores in the write buffer, or a growing stretch),
                // then drain one by skipping and one cycle by cycle.
                for sim in [&mut skipping, &mut stepping] {
                    if store_loop {
                        (0..50 + 7 * drain).for_each(|_| sim.step());
                        continue;
                    }
                    sim.step();
                    while !write_buffer_busy(sim) {
                        sim.step();
                    }
                }
                assert_eq!(skipping.cycle(), stepping.cycle());
                assert!(skipping.drain_until(skipping.cycle() + MAX_DRAIN_CYCLES));
                stepping.freeze_fetch(true);
                while !stepping.chip.cores[0].is_drained() {
                    stepping.step();
                }
                stepping.freeze_fetch(false);
                assert_eq!(skipping.cycle(), stepping.cycle(), "drain {drain}");
                assert_eq!(skipping.stats(), stepping.stats(), "drain {drain}");
            }
        }
    }

    #[test]
    fn drain_hitting_the_cycle_cap_is_deadline_exceeded() {
        let mut sim = build_sim(&["mcf", "swim"]);
        let options = SimOptions {
            max_instructions_per_thread: 30_000,
            warmup_instructions_per_thread: 0,
            max_cycles: 300,
        };
        // The warm-up stops at the cap with work in flight, so the drain
        // after the (empty) measurement window cannot run.
        let err = sim
            .run_sampled(options, &SamplingConfig::default())
            .expect_err("capped drain must fail");
        assert!(matches!(err, SimError::DeadlineExceeded { .. }), "{err}");
        assert_eq!(sim.cycle(), 300, "the drain ran past the cycle cap");
    }

    #[test]
    fn drain_exceeding_its_bound_is_internal() {
        let mut sim = build_sim(&["mcf", "swim"]);
        for _ in 0..200 {
            sim.step();
        }
        let err = sim
            .drain_for_fast_forward(u64::MAX, 1)
            .expect_err("a one-cycle drain bound cannot empty a busy pipeline");
        assert!(matches!(err, SimError::Internal { .. }), "{err}");
    }
}
