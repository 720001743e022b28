//! The cycle-level SMT out-of-order pipeline (the SMTSIM substitute).
//!
//! The simulator is trace driven: each hardware thread pulls [`smt_types::TraceOp`]
//! records from a [`smt_trace::TraceSource`] and moves them through a
//! fetch → (14-stage front end) → dispatch → issue → execute → commit pipeline with
//! the shared resources of Table IV (256-entry ROB, 128-entry LSQ, 64-entry issue
//! queues, 100+100 rename registers, 4-wide everywhere). The fetch stage is driven
//! by an [`smt_fetch::FetchPolicy`]; loads access the [`smt_mem::CoreMemory`];
//! long-latency loads feed the LLSR/MLP predictors of [`smt_predictors`].
//!
//! Per-thread in-flight instructions live in a struct-of-arrays ring buffer
//! ([`window::OpWindow`]) so each pipeline phase streams only the columns it
//! reads; the trace front end is refilled in batches so the `Box<dyn
//! TraceSource>` virtual call is paid once per ~64 fetched instructions.
//!
//! Scheduling is event driven, with no per-cycle search: completions wait in
//! a timing wheel until their cycle comes, and an instruction enters its
//! window's ready set when its last operand arrives (producer-to-consumer
//! wakeup), so issue never re-checks an instruction that is still waiting.
//!
//! The pipeline is organised one phase per module, in commit-to-fetch order
//! exactly as the per-cycle step runs them:
//!
//! * [`commit_phase`](self) — in-order retirement and LLSR/MLP training,
//! * [`writeback_phase`](self) — completions drained from a timing wheel,
//!   consumer wakeup and branch-misprediction recovery,
//! * [`issue_phase`](self) — oldest-first selection from the ready set and
//!   memory access,
//! * [`dispatch_phase`](self) — shared-buffer allocation and resource stalls,
//! * [`fetch_phase`](self) — policy-prioritized instruction fetch,
//! * `squash` — branch/flush recovery, `stats` — per-cycle accounting,
//! * `skip` — next-event cycle skipping over quiet cycles.

pub mod checkpoint;
mod commit_phase;
mod dispatch_phase;
mod fast_forward;
mod fetch_phase;
mod issue_phase;
pub mod sampling;
mod skip;
mod squash;
mod stats;
mod thread;
pub mod window;
mod writeback_phase;

use smt_fetch::{FetchPolicy, FlushRequest, ResourceCaps};
use smt_mem::{CoreMemory, SharedLlc, WriteBuffer};
use smt_trace::TraceSource;
use smt_types::{
    ChipConfig, MachineStats, SimError, SmtConfig, SmtSnapshot, ThreadId, ThreadSnapshot,
};

use crate::chip::ChipSimulator;

use stats::SharedTotals;
use thread::ThreadContext;
use writeback_phase::{CompletionEvent, CompletionQueue};

/// Run-length options for a simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimOptions {
    /// Stop once any thread has committed this many instructions (the paper stops
    /// at 200 M; the default here is sized for laptop-scale runs).
    pub max_instructions_per_thread: u64,
    /// Instructions each thread commits before measurement starts. The warm-up
    /// phase fills caches, TLBs and predictors (the paper's SimPoints serve the
    /// same purpose) and is excluded from all reported statistics.
    pub warmup_instructions_per_thread: u64,
    /// Hard safety limit on simulated cycles.
    pub max_cycles: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_instructions_per_thread: 50_000,
            warmup_instructions_per_thread: 5_000,
            max_cycles: 50_000_000,
        }
    }
}

impl SimOptions {
    /// Options that stop after `instructions` committed instructions on any thread,
    /// after a proportional warm-up.
    pub fn with_instructions(instructions: u64) -> Self {
        SimOptions {
            max_instructions_per_thread: instructions,
            warmup_instructions_per_thread: (instructions / 4).clamp(500, 20_000),
            ..Self::default()
        }
    }
}

/// One SMT core: the full out-of-order pipeline plus the core-private memory
/// levels, stepping against a [`SharedLlc`] borrowed from its owner.
///
/// Every core belongs to a [`ChipSimulator`], which steps its cores against
/// one shared level, in lockstep apart from quiet cycles a core may sleep
/// through (see `skip`); the single-core machine ([`SmtSimulator`]) is a
/// one-core chip. The core never touches anything outside its own state and
/// the borrowed shared level, which is what makes chip results independent
/// of anything but the per-cycle shared-level discipline.
pub struct Core {
    config: SmtConfig,
    policy: Box<dyn FetchPolicy>,
    mem: CoreMemory,
    write_buffer: WriteBuffer,
    threads: Vec<ThreadContext>,
    stats: MachineStats,
    cycle: u64,
    stats_cycle_base: u64,
    rotate: usize,
    frontend_capacity: u32,
    /// Shared-resource occupancy totals, updated at every allocate/release.
    totals: SharedTotals,
    /// Pending execution completions (see `writeback_phase`).
    completions: CompletionQueue,
    /// The completion events due this cycle (reused scratch).
    due_completions: Vec<CompletionEvent>,
    /// When set, the fetch phase pulls nothing: the sampled loop freezes
    /// fetch to drain in-flight work before a fast-forward phase.
    fetch_frozen: bool,
    /// Set by every phase that changes pipeline state this cycle; a cycle
    /// that leaves it clear is quiet and may be skipped past (see `skip`).
    busy: bool,
    /// Threads the fetch policy gated this cycle (bit per thread), so the
    /// skipped cycles after a quiet one account the same gating.
    gated_mask: u64,
    // Reusable per-cycle buffers: the steady-state cycle loop performs no heap
    // allocation.
    snapshot: SmtSnapshot,
    priority: Vec<ThreadId>,
    flushes: Vec<FlushRequest>,
    caps: Vec<ResourceCaps>,
    /// Ready instructions of the thread the issue phase is visiting, oldest
    /// first (reused scratch).
    issue_candidates: Vec<u32>,
    /// Per-thread oldest mispredicted-branch seq completing this cycle.
    mispredicts: Vec<Option<u64>>,
    /// Saved start-of-cycle snapshot entries overwritten for the
    /// resource-stall policy callback, restored before fetch.
    stall_view: Vec<ThreadSnapshot>,
}

impl Core {
    /// Builds core `core_id` for `config`, running one trace source per
    /// hardware thread under an explicitly provided fetch policy. The core id
    /// determines the chip-wide requester ids of the core's threads (and with
    /// them the core's disjoint physical address range).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration does not validate
    /// and [`SimError::InvalidWorkload`] if the number of traces does not match
    /// `config.num_threads`.
    pub(crate) fn with_policy(
        config: SmtConfig,
        traces: Vec<Box<dyn TraceSource>>,
        policy: Box<dyn FetchPolicy>,
        core_id: usize,
    ) -> Result<Self, SimError> {
        config.validate()?;
        if traces.len() != config.num_threads {
            return Err(SimError::invalid_workload(format!(
                "expected {} trace sources, got {}",
                config.num_threads,
                traces.len()
            )));
        }
        let mem = CoreMemory::new(&config, core_id);
        // Stores retire from the write buffer at L1 store-port speed; the buffer
        // exists to absorb commit bursts (Section 5), not to throttle throughput.
        let write_buffer = WriteBuffer::new(
            config.write_buffer_entries as usize,
            config.l1d.latency.max(1),
        );
        let threads = traces
            .into_iter()
            .map(|t| ThreadContext::new(&config, t))
            .collect();
        let frontend_capacity = config.frontend_depth * config.fetch_width;
        let num_threads = config.num_threads;
        Ok(Core {
            stats: MachineStats::new(num_threads),
            snapshot: SmtSnapshot::new(num_threads),
            config,
            policy,
            mem,
            write_buffer,
            threads,
            cycle: 0,
            stats_cycle_base: 0,
            rotate: 0,
            frontend_capacity,
            totals: SharedTotals::default(),
            completions: CompletionQueue::default(),
            due_completions: Vec::new(),
            fetch_frozen: false,
            busy: false,
            gated_mask: 0,
            priority: Vec::with_capacity(num_threads),
            flushes: Vec::new(),
            caps: vec![ResourceCaps::default(); num_threads],
            issue_candidates: Vec::with_capacity(64),
            mispredicts: vec![None; num_threads],
            stall_view: Vec::with_capacity(num_threads),
        })
    }

    /// The configuration the core was built with.
    pub fn config(&self) -> &SmtConfig {
        &self.config
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics accumulated so far.
    ///
    /// `stats().cycles` is finalized by the owning simulator's `run`; while
    /// stepping manually, read the live count from [`Core::measured_cycles`]
    /// instead.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Cycles elapsed in the current measurement phase, i.e. since the last
    /// statistics reset (warm-up end).
    pub fn measured_cycles(&self) -> u64 {
        self.cycle - self.stats_cycle_base
    }

    /// Committed instruction count of every hardware thread, in thread order.
    pub(crate) fn committed(&self) -> impl Iterator<Item = u64> + '_ {
        self.threads.iter().map(|t| t.committed)
    }

    /// Zeroes all statistics counters without disturbing microarchitectural state.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = MachineStats::new(self.threads.len());
        self.stats_cycle_base = self.cycle;
    }

    /// Writes the measured cycle count into the statistics record (the owning
    /// simulator's `run` is the single writer of the aggregate count).
    pub(crate) fn finalize_cycles(&mut self) {
        self.stats.cycles = self.measured_cycles();
    }

    /// Advances the core by one cycle against the given shared level.
    pub(crate) fn step_against(&mut self, shared: &mut SharedLlc) {
        // Move the reusable buffers out of `self` for the duration of the cycle
        // (a pointer-sized swap, not an allocation) so the phases can borrow
        // them alongside `&mut self`.
        self.busy = false;
        let mut snapshot = std::mem::take(&mut self.snapshot);
        self.refresh_snapshot(&mut snapshot);
        let mut caps = std::mem::take(&mut self.caps);
        caps.fill(ResourceCaps::default());
        let caps_apply = self
            .policy
            .resource_caps(&snapshot, &self.config, &mut caps);
        self.commit_phase(shared);
        self.writeback_phase();
        self.issue_phase(shared);
        self.dispatch_phase(&mut snapshot, caps_apply.then_some(caps.as_slice()));
        self.fetch_phase(&snapshot);
        self.account_mlp(1);
        self.cycle += 1;
        self.rotate = (self.rotate + 1) % self.threads.len();
        self.snapshot = snapshot;
        self.caps = caps;
        #[cfg(debug_assertions)]
        self.debug_check_totals();
    }
}

/// The single-core SMT processor simulator: the machine of the paper, run as
/// a one-core [`ChipSimulator`] so that one constructor and one run loop
/// serve both.
///
/// # Example
///
/// ```
/// use smt_core::pipeline::{SimOptions, SmtSimulator};
/// use smt_trace::{spec, SyntheticTraceGenerator};
/// use smt_types::SmtConfig;
///
/// # fn main() -> Result<(), smt_types::SimError> {
/// let cfg = SmtConfig::baseline(2);
/// let t0 = SyntheticTraceGenerator::new(spec::benchmark("mcf")?, 1);
/// let t1 = SyntheticTraceGenerator::new(spec::benchmark("gcc")?, 2);
/// let mut sim = SmtSimulator::new(cfg, vec![Box::new(t0), Box::new(t1)])?;
/// let stats = sim.run(SimOptions::with_instructions(2_000));
/// assert!(stats.cycles > 0);
/// assert!(stats.threads[0].committed_instructions >= 2_000
///     || stats.threads[1].committed_instructions >= 2_000);
/// # Ok(())
/// # }
/// ```
pub struct SmtSimulator {
    chip: ChipSimulator,
}

impl SmtSimulator {
    /// Builds a simulator for `config` running one trace source per hardware
    /// thread, using the fetch policy named in the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration does not validate
    /// and [`SimError::InvalidWorkload`] if the number of traces does not match
    /// `config.num_threads`.
    pub fn new(config: SmtConfig, traces: Vec<Box<dyn TraceSource>>) -> Result<Self, SimError> {
        let chip = ChipSimulator::new(ChipConfig::single_core(config), vec![traces])?;
        Ok(SmtSimulator { chip })
    }

    /// Builds a simulator with an explicitly provided fetch policy (used to test
    /// custom policies against the built-in ones).
    ///
    /// # Errors
    ///
    /// Same as [`SmtSimulator::new`].
    pub fn with_policy(
        config: SmtConfig,
        traces: Vec<Box<dyn TraceSource>>,
        policy: Box<dyn FetchPolicy>,
    ) -> Result<Self, SimError> {
        let config = ChipConfig::single_core(config);
        let chip = ChipSimulator::with_policies(config, vec![traces], vec![policy])?;
        Ok(SmtSimulator { chip })
    }

    /// The configuration the simulator was built with.
    pub fn config(&self) -> &SmtConfig {
        self.core().config()
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.chip.cycle()
    }

    /// Statistics accumulated so far.
    ///
    /// `stats().cycles` is finalized by [`SmtSimulator::run`]; while stepping
    /// the simulator manually, read the live count from
    /// [`SmtSimulator::measured_cycles`] instead.
    pub fn stats(&self) -> &MachineStats {
        self.core().stats()
    }

    /// Cycles elapsed in the current measurement phase, i.e. since the last
    /// statistics reset (warm-up end).
    pub fn measured_cycles(&self) -> u64 {
        self.chip.measured_cycles()
    }

    /// Direct access to the simulator's core.
    pub fn core(&self) -> &Core {
        &self.chip.cores[0]
    }

    /// Runs the warm-up phase followed by the measured phase, stopping the
    /// measured phase once any thread has committed the instruction budget (the
    /// paper's stop criterion) or the cycle limit is hit, and returns the
    /// statistics of the measured phase.
    ///
    /// Quiet cycles, in which no pipeline state changes, are skipped in one
    /// jump; the result is bit-for-bit what a loop of [`SmtSimulator::step`]
    /// calls with the same stop rules produces.
    pub fn run(&mut self, options: SimOptions) -> MachineStats {
        self.chip.run(options).cores.swap_remove(0)
    }

    /// Runs until every thread has committed `instructions` further instructions,
    /// then clears all statistics (microarchitectural state — caches, TLBs,
    /// predictors, stream buffers — stays warm). A zero-length warm-up is a no-op.
    pub fn warm_up(&mut self, instructions: u64, max_cycles: u64) {
        self.chip.warm_up(instructions, max_cycles);
    }

    /// Zeroes all statistics counters without disturbing microarchitectural state.
    pub fn reset_stats(&mut self) {
        self.chip.reset_stats();
    }

    /// Advances the machine by exactly one cycle.
    pub fn step(&mut self) {
        self.chip.step();
    }
}
