//! The adaptive policy engine's pipeline driver: interval telemetry
//! collection and the sanctioned runtime fetch-policy swap point.
//!
//! When a [`Core`] is built adaptive (see
//! [`SmtSimulator::with_adaptive`](super::SmtSimulator::with_adaptive) and
//! [`crate::chip::ChipSimulator::new_adaptive`]), it carries an
//! `AdaptiveState`: a cumulative-counter baseline captured at the last
//! interval boundary, a reusable [`IntervalStats`] delta buffer, the policy
//! selector, and per-policy residency counters. At the end of every
//! `interval_cycles`-th cycle the core diffs its statistics against the
//! baseline, hands the interval record to the selector, and — if the
//! selector answers with a different policy — swaps in a freshly built
//! instance via [`Core::swap_policy`].
//!
//! Swap semantics: a swapped-in policy starts with *neutral* (freshly
//! constructed) internal state. It learns about outstanding long-latency
//! loads from the per-cycle [`smt_types::SmtSnapshot`] it is handed (the
//! paper's gating policies all consult
//! `outstanding_long_latency_loads` there), and late
//! `on_long_latency_resolved` callbacks for loads detected under the
//! previous policy are ignored by construction (policies drop unknown
//! sequence numbers). Everything the decision depends on is core-local, so
//! swaps are deterministic and — on a chip — invariant to the order cores
//! step within a cycle.

use smt_adapt::{build_selector, PolicySelector};
use smt_fetch::build_policy;
use smt_types::config::FetchPolicyKind;
use smt_types::{AdaptiveConfig, IntervalStats, SimError};

use super::Core;

/// Runtime state of the adaptive engine for one core.
pub(super) struct AdaptiveState {
    config: AdaptiveConfig,
    selector: Box<dyn PolicySelector>,
    /// Cumulative statistics counters captured at the last interval boundary.
    baseline: IntervalStats,
    /// Reusable delta buffer published to the selector at each boundary.
    interval: IntervalStats,
    /// Cycle the current interval started at.
    interval_start: u64,
    /// Completed intervals per policy, in first-seen order.
    residency: Vec<(FetchPolicyKind, u64)>,
    /// Number of actual policy swaps performed.
    swaps: u64,
}

impl AdaptiveState {
    fn new(config: AdaptiveConfig, num_threads: usize) -> Self {
        let selector = build_selector(&config);
        AdaptiveState {
            selector,
            baseline: IntervalStats::new(num_threads),
            interval: IntervalStats::new(num_threads),
            interval_start: 0,
            residency: Vec::with_capacity(config.candidates.len()),
            swaps: 0,
            config,
        }
    }

    /// The cycle count after the step whose end ticks the current interval.
    pub(super) fn next_boundary(&self) -> u64 {
        self.interval_start + self.config.interval_cycles
    }

    fn record_residency(&mut self, policy: FetchPolicyKind) {
        match self.residency.iter_mut().find(|(p, _)| *p == policy) {
            Some((_, count)) => *count += 1,
            None => self.residency.push((policy, 1)),
        }
    }
}

impl Core {
    /// Enables the adaptive policy engine on this core. The currently
    /// installed policy is swapped to the configuration's initial policy
    /// (`candidates[0]`) if it differs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the adaptive configuration does
    /// not validate.
    pub(crate) fn set_adaptive(&mut self, adaptive: AdaptiveConfig) -> Result<(), SimError> {
        adaptive.validate()?;
        self.swap_policy(adaptive.initial_policy());
        let mut state = AdaptiveState::new(adaptive, self.threads.len());
        state.baseline.capture(&self.stats);
        state.interval_start = self.cycle;
        self.adaptive = Some(state);
        Ok(())
    }

    /// The fetch policy currently installed.
    pub fn current_policy(&self) -> FetchPolicyKind {
        self.policy.kind()
    }

    /// Replaces the running fetch policy with a freshly built instance of
    /// `kind`, returning whether a swap happened.
    ///
    /// Swapping to the *currently installed* kind is a guaranteed no-op: the
    /// running instance (and all its internal state) stays untouched, so the
    /// machine's behaviour — and its [`smt_types::MachineStats`] — are
    /// bit-for-bit what they would have been without the call. Swapping to a
    /// different kind installs neutral policy state (see the module docs for
    /// why that is safe and deterministic).
    pub fn swap_policy(&mut self, kind: FetchPolicyKind) -> bool {
        if self.policy.kind() == kind {
            return false;
        }
        self.policy = build_policy(kind, &self.config);
        if let Some(adaptive) = &mut self.adaptive {
            adaptive.swaps += 1;
        }
        true
    }

    /// Fraction of completed intervals each policy was installed for, in
    /// first-active order, when the adaptive engine is enabled. Before the
    /// first interval completes, the current policy owns the full residency.
    pub fn policy_residency(&self) -> Option<Vec<(FetchPolicyKind, f64)>> {
        let adaptive = self.adaptive.as_ref()?;
        let total: u64 = adaptive.residency.iter().map(|(_, c)| c).sum();
        if total == 0 {
            // analyze: allow(hot-path-alloc) reason="end-of-run diagnostic, called once per simulation, not per cycle"
            return Some(vec![(self.policy.kind(), 1.0)]);
        }
        Some(
            adaptive
                .residency
                .iter()
                .map(|&(p, c)| (p, c as f64 / total as f64))
                .collect(), // analyze: allow(hot-path-alloc) reason="end-of-run diagnostic, called once per simulation, not per cycle"
        )
    }

    /// Number of policy swaps the adaptive engine has performed.
    pub fn policy_swaps(&self) -> Option<u64> {
        self.adaptive.as_ref().map(|a| a.swaps)
    }

    /// Re-captures the interval baselines after a statistics reset (the
    /// counters restart from zero, so the deltas must too). Residency and
    /// swap counters restart with the measured phase, matching the statistics
    /// they are reported next to; selector state stays warm like the
    /// predictors do.
    pub(super) fn reset_adaptive_baselines(&mut self) {
        if let Some(adaptive) = &mut self.adaptive {
            adaptive.baseline.capture(&self.stats);
            adaptive.interval_start = self.cycle;
            adaptive.residency.clear();
            adaptive.swaps = 0;
        }
    }

    /// End-of-cycle hook: at interval boundaries, publish the finished
    /// interval's telemetry to the selector and apply its decision. A no-op
    /// on non-adaptive cores.
    pub(super) fn adaptive_interval_tick(&mut self) {
        let Some(adaptive) = &mut self.adaptive else {
            return;
        };
        let elapsed = self.cycle - adaptive.interval_start;
        if elapsed < adaptive.config.interval_cycles {
            return;
        }
        // The selector consumes the interval (and may swap the policy): the
        // cycle is not quiet.
        self.busy = true;
        let current = self.policy.kind();
        adaptive.record_residency(current);
        // Publish the finished interval and re-baseline for the next one.
        let mut interval = std::mem::take(&mut adaptive.interval);
        interval.assign_delta(&adaptive.baseline, &self.stats, elapsed);
        adaptive.baseline.capture(&self.stats);
        adaptive.interval_start = self.cycle;
        let next = adaptive.selector.next_policy(&interval, current);
        adaptive.interval = interval;
        if next != current {
            self.swap_policy(next);
        }
    }
}
