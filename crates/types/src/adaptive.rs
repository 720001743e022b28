//! Configuration and telemetry vocabulary of the adaptive policy engine.
//!
//! The adaptive engine (crate `smt-adapt`, driven by the pipeline in
//! `smt-core`) divides a run into fixed-length cycle intervals. At every
//! interval boundary the pipeline publishes an [`IntervalStats`] record — the
//! per-thread telemetry of the interval that just ended — to a policy
//! selector, which answers with the fetch policy to run for the next
//! interval. [`AdaptiveConfig`] names the selector, the candidate policies it
//! may choose from, and the interval geometry; it is serde-serializable so
//! experiment specs and the CLI can carry it.

use serde::{Deserialize, Serialize};

use crate::config::FetchPolicyKind;
use crate::error::SimError;
use crate::stats::MachineStats;

/// Which policy selector drives runtime fetch-policy switching.
///
/// Serializes as the short machine-readable [`SelectorKind::name`]
/// (e.g. `"sampling"`), which is also what spec files and the CLI accept.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SelectorKind {
    /// Never switch: run the first candidate policy for the whole simulation.
    /// This is the bit-for-bit legacy path — a machine with a `Static`
    /// selector behaves identically to one built without the adaptive engine.
    Static,
    /// Set-dueling style sampling: at the start of each epoch, trial every
    /// candidate policy for a few intervals each, then commit to the winner
    /// (highest interval throughput) for the rest of the epoch.
    Sampling,
    /// MLP-threshold switching: run the MLP-aware candidate while the
    /// measured long-latency-load rate and memory-level parallelism of the
    /// interval exceed their thresholds, the ILP candidate otherwise.
    MlpThreshold,
}

impl SelectorKind {
    /// Every implemented selector, in presentation order.
    pub const ALL: [SelectorKind; 3] = [
        SelectorKind::Static,
        SelectorKind::Sampling,
        SelectorKind::MlpThreshold,
    ];

    /// Short machine-readable name used in spec files and result tables.
    pub fn name(self) -> &'static str {
        match self {
            SelectorKind::Static => "static",
            SelectorKind::Sampling => "sampling",
            SelectorKind::MlpThreshold => "mlp-threshold",
        }
    }

    /// Parses a [`SelectorKind::name`] string back into a selector.
    pub fn from_name(name: &str) -> Option<SelectorKind> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Whether the selector can ever switch away from the initial policy.
    pub fn is_dynamic(self) -> bool {
        !matches!(self, SelectorKind::Static)
    }
}

serde::named_enum_serde!(SelectorKind, "policy selector");

/// Full configuration of the adaptive policy engine for one core.
///
/// The engine evaluates the selector at every `interval_cycles`-cycle
/// boundary; `candidates[0]` is the policy the machine starts on (and, under
/// [`SelectorKind::Static`], never leaves).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct AdaptiveConfig {
    /// The selector that picks the next interval's policy.
    pub selector: SelectorKind,
    /// Candidate fetch policies, most-preferred first; the machine starts on
    /// `candidates[0]`.
    pub candidates: Vec<FetchPolicyKind>,
    /// Interval length in cycles between selector evaluations.
    pub interval_cycles: u64,
    /// [`SelectorKind::Sampling`]: intervals spent trialling each candidate
    /// at the start of an epoch.
    pub sample_intervals: u64,
    /// [`SelectorKind::Sampling`]: intervals the epoch winner runs for after
    /// the sampling phase, before the next epoch starts.
    pub commit_intervals: u64,
    /// [`SelectorKind::MlpThreshold`]: long-latency loads per kilo-instruction
    /// at or above which an interval counts as memory-bound. The two
    /// candidates may appear in either order; the MLP-aware one (by
    /// [`FetchPolicyKind::is_mlp_aware`]) is the memory-bound choice.
    pub lll_per_kinst_threshold: f64,
    /// [`SelectorKind::MlpThreshold`]: measured MLP at or above which a
    /// memory-bound interval prefers the MLP-aware candidate.
    pub mlp_threshold: f64,
}

impl AdaptiveConfig {
    /// Default interval length between selector evaluations, in cycles.
    pub const DEFAULT_INTERVAL_CYCLES: u64 = 512;

    /// An adaptive configuration with the default interval geometry and
    /// thresholds.
    pub fn new(selector: SelectorKind, candidates: Vec<FetchPolicyKind>) -> Self {
        AdaptiveConfig {
            selector,
            candidates,
            interval_cycles: Self::DEFAULT_INTERVAL_CYCLES,
            sample_intervals: 1,
            commit_intervals: 8,
            lll_per_kinst_threshold: 4.0,
            mlp_threshold: 1.05,
        }
    }

    /// Returns a copy with a different interval length.
    pub fn with_interval_cycles(mut self, interval_cycles: u64) -> Self {
        self.interval_cycles = interval_cycles;
        self
    }

    /// The policy the machine starts on (`candidates[0]`).
    ///
    /// # Panics
    ///
    /// Panics if the candidate list is empty (rejected by
    /// [`AdaptiveConfig::validate`]).
    pub fn initial_policy(&self) -> FetchPolicyKind {
        *self
            .candidates
            .first()
            .expect("validated adaptive config has candidates")
    }

    /// Checks the configuration for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty or duplicated
    /// candidate list, a zero interval, degenerate sampling geometry, or
    /// non-finite/negative thresholds.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.candidates.is_empty() {
            return Err(SimError::invalid_config(
                "adaptive.candidates: must name at least one fetch policy",
            ));
        }
        for (i, a) in self.candidates.iter().enumerate() {
            if self.candidates[..i].contains(a) {
                return Err(SimError::invalid_config(format!(
                    "adaptive.candidates: duplicate policy `{}`",
                    a.name()
                )));
            }
        }
        if self.interval_cycles == 0 {
            return Err(SimError::invalid_config(
                "adaptive.interval_cycles: must be non-zero",
            ));
        }
        if self.selector == SelectorKind::Sampling
            && (self.sample_intervals == 0 || self.commit_intervals == 0)
        {
            return Err(SimError::invalid_config(
                "adaptive.sample_intervals / adaptive.commit_intervals: must be non-zero \
                 for the sampling selector",
            ));
        }
        if self.selector == SelectorKind::MlpThreshold {
            let mlp_aware = self.candidates.iter().filter(|c| c.is_mlp_aware()).count();
            if self.candidates.len() != 2 || mlp_aware != 1 {
                return Err(SimError::invalid_config(
                    "adaptive.candidates: the mlp-threshold selector switches between exactly \
                     two policies, exactly one of them MLP-aware (in either order)",
                ));
            }
        }
        for (name, value) in [
            ("lll_per_kinst_threshold", self.lll_per_kinst_threshold),
            ("mlp_threshold", self.mlp_threshold),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(SimError::invalid_config(format!(
                    "adaptive.{name}: must be a finite non-negative number"
                )));
            }
        }
        Ok(())
    }
}

/// One policy's share of an adaptive run: the fraction of completed
/// intervals it was the installed fetch policy for.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PolicyResidency {
    /// The fetch policy.
    pub policy: FetchPolicyKind,
    /// Fraction of completed intervals the policy was active (sums to 1.0
    /// over a run's residency records).
    pub fraction: f64,
}

/// Per-thread telemetry of one completed interval.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ThreadIntervalStats {
    /// Instructions the thread committed during the interval.
    pub committed: u64,
    /// Long-latency loads (L3 or D-TLB misses) detected during the interval.
    pub long_latency_loads: u64,
    /// Fetch-policy flush events during the interval.
    pub policy_flushes: u64,
    /// Sum over the interval's MLP cycles of the outstanding long-latency
    /// load count (numerator of the Chou et al. MLP sample).
    pub mlp_outstanding_sum: u64,
    /// Cycles of the interval with at least one outstanding long-latency
    /// load (denominator of the MLP sample).
    pub mlp_cycles: u64,
}

impl ThreadIntervalStats {
    /// Long-latency loads per 1000 committed instructions over the interval.
    pub fn lll_per_kilo_instruction(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.long_latency_loads as f64 * 1000.0 / self.committed as f64
        }
    }

    /// MLP sample of the interval: average outstanding long-latency loads
    /// over the cycles that had at least one (1.0 when none did).
    pub fn mlp(&self) -> f64 {
        if self.mlp_cycles == 0 {
            1.0
        } else {
            self.mlp_outstanding_sum as f64 / self.mlp_cycles as f64
        }
    }
}

/// Telemetry of one completed interval, published by the pipeline to the
/// policy selector at every interval boundary.
///
/// The record is a reusable buffer: the pipeline's interval collector
/// rewrites it in place at each boundary (no steady-state allocation), so
/// selectors must copy out anything they want to keep across intervals.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct IntervalStats {
    /// Cycles the interval spanned (the configured interval length, except
    /// for a possibly shorter interval right after a statistics reset).
    pub cycles: u64,
    /// Per-thread telemetry, indexed by thread id.
    pub threads: Vec<ThreadIntervalStats>,
}

impl IntervalStats {
    /// Creates a zeroed record for `num_threads` threads.
    pub fn new(num_threads: usize) -> Self {
        IntervalStats {
            cycles: 0,
            threads: vec![ThreadIntervalStats::default(); num_threads],
        }
    }

    /// Rewrites this record in place as a *cumulative* snapshot of `stats`
    /// (the counters since the last statistics reset; `cycles` is zeroed).
    /// The pipeline's interval collector captures one of these at every
    /// interval boundary and diffs the next boundary against it with
    /// [`IntervalStats::assign_delta`] — both operations reuse the record's
    /// buffers, so the steady state allocates nothing.
    pub fn capture(&mut self, stats: &MachineStats) {
        self.cycles = 0;
        self.threads.clear();
        self.threads
            .extend(stats.threads.iter().map(|t| ThreadIntervalStats {
                committed: t.committed_instructions,
                long_latency_loads: t.long_latency_loads,
                policy_flushes: t.policy_flushes,
                mlp_outstanding_sum: t.mlp_outstanding_sum,
                mlp_cycles: t.mlp_cycles,
            }));
    }

    /// Rewrites this record in place as the difference between `now` and the
    /// cumulative `base` snapshot (see [`IntervalStats::capture`]), spanning
    /// `cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the shapes differ or a counter ran
    /// backwards, which would mean the baseline was not refreshed after a
    /// statistics reset.
    pub fn assign_delta(&mut self, base: &IntervalStats, now: &MachineStats, cycles: u64) {
        debug_assert_eq!(base.threads.len(), now.threads.len());
        self.cycles = cycles;
        self.threads
            .resize(now.threads.len(), ThreadIntervalStats::default());
        for (slot, (b, n)) in self
            .threads
            .iter_mut()
            .zip(base.threads.iter().zip(&now.threads))
        {
            *slot = ThreadIntervalStats {
                committed: delta(b.committed, n.committed_instructions),
                long_latency_loads: delta(b.long_latency_loads, n.long_latency_loads),
                policy_flushes: delta(b.policy_flushes, n.policy_flushes),
                mlp_outstanding_sum: delta(b.mlp_outstanding_sum, n.mlp_outstanding_sum),
                mlp_cycles: delta(b.mlp_cycles, n.mlp_cycles),
            };
        }
    }

    /// Instructions committed across all threads during the interval.
    pub fn total_committed(&self) -> u64 {
        self.threads.iter().map(|t| t.committed).sum()
    }

    /// Aggregate IPC of the interval (all threads' commits over the
    /// interval's cycles).
    pub fn total_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_committed() as f64 / self.cycles as f64
        }
    }

    /// Long-latency loads per kilo-instruction aggregated over all threads.
    pub fn total_lll_per_kilo_instruction(&self) -> f64 {
        let committed = self.total_committed();
        if committed == 0 {
            return 0.0;
        }
        let lll: u64 = self.threads.iter().map(|t| t.long_latency_loads).sum();
        lll as f64 * 1000.0 / committed as f64
    }

    /// Machine-wide MLP sample of the interval (1.0 when no thread had an
    /// outstanding long-latency load).
    pub fn total_mlp(&self) -> f64 {
        let cycles: u64 = self.threads.iter().map(|t| t.mlp_cycles).sum();
        if cycles == 0 {
            return 1.0;
        }
        let sum: u64 = self.threads.iter().map(|t| t.mlp_outstanding_sum).sum();
        sum as f64 / cycles as f64
    }
}

fn delta(base: u64, now: u64) -> u64 {
    debug_assert!(now >= base, "interval counter ran backwards");
    now.saturating_sub(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_candidates() -> Vec<FetchPolicyKind> {
        vec![FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush]
    }

    #[test]
    fn selector_names_round_trip() {
        for kind in SelectorKind::ALL {
            assert_eq!(SelectorKind::from_name(kind.name()), Some(kind));
        }
        assert!(SelectorKind::from_name("oracle").is_none());
        assert!(!SelectorKind::Static.is_dynamic());
        assert!(SelectorKind::Sampling.is_dynamic());
        assert!(SelectorKind::MlpThreshold.is_dynamic());
    }

    #[test]
    fn adaptive_config_validates() {
        let good = AdaptiveConfig::new(SelectorKind::Sampling, two_candidates());
        assert!(good.validate().is_ok());
        assert_eq!(good.initial_policy(), FetchPolicyKind::Icount);

        let mut empty = good.clone();
        empty.candidates.clear();
        assert!(empty.validate().is_err());

        let mut duplicated = good.clone();
        duplicated.candidates.push(FetchPolicyKind::Icount);
        assert!(duplicated.validate().is_err());

        let mut zero_interval = good.clone();
        zero_interval.interval_cycles = 0;
        assert!(zero_interval.validate().is_err());

        let mut zero_sampling = good.clone();
        zero_sampling.sample_intervals = 0;
        assert!(zero_sampling.validate().is_err());

        let mut three_for_threshold =
            AdaptiveConfig::new(SelectorKind::MlpThreshold, two_candidates());
        assert!(three_for_threshold.validate().is_ok());
        three_for_threshold.candidates.push(FetchPolicyKind::Flush);
        assert!(three_for_threshold.validate().is_err());

        // Either ordering is fine, but the pair must contain exactly one
        // MLP-aware policy for the roles to be identifiable.
        let reversed = AdaptiveConfig::new(
            SelectorKind::MlpThreshold,
            vec![FetchPolicyKind::MlpFlush, FetchPolicyKind::Icount],
        );
        assert!(reversed.validate().is_ok());
        let two_ilp = AdaptiveConfig::new(
            SelectorKind::MlpThreshold,
            vec![FetchPolicyKind::Icount, FetchPolicyKind::Flush],
        );
        assert!(two_ilp.validate().is_err());
        let two_mlp = AdaptiveConfig::new(
            SelectorKind::MlpThreshold,
            vec![FetchPolicyKind::MlpFlush, FetchPolicyKind::MlpStall],
        );
        assert!(two_mlp.validate().is_err());

        let mut bad_threshold = good.clone();
        bad_threshold.mlp_threshold = f64::NAN;
        assert!(bad_threshold.validate().is_err());
    }

    #[test]
    fn adaptive_config_serde_round_trips() {
        let config = AdaptiveConfig::new(SelectorKind::MlpThreshold, two_candidates())
            .with_interval_cycles(256);
        let round = AdaptiveConfig::deserialize(&config.serialize()).unwrap();
        assert_eq!(round, config);
        let mut value = config.serialize();
        if let serde::Value::Map(entries) = &mut value {
            entries.push(("selectorr".to_string(), serde::Value::Int(1)));
        }
        let err = AdaptiveConfig::deserialize(&value).unwrap_err().to_string();
        assert!(err.contains("selectorr"), "{err}");
    }

    #[test]
    fn interval_stats_deltas_and_rates() {
        let mut earlier = MachineStats::new(2);
        let mut now = MachineStats::new(2);
        earlier.threads[0].committed_instructions = 100;
        now.threads[0].committed_instructions = 600;
        now.threads[0].long_latency_loads = 5;
        now.threads[0].mlp_outstanding_sum = 30;
        now.threads[0].mlp_cycles = 10;
        now.threads[1].committed_instructions = 250;
        now.threads[1].policy_flushes = 2;

        let mut base = IntervalStats::new(2);
        base.capture(&earlier);
        assert_eq!(base.threads[0].committed, 100);
        let mut interval = IntervalStats::new(2);
        interval.assign_delta(&base, &now, 500);
        assert_eq!(interval.cycles, 500);
        assert_eq!(interval.threads[0].committed, 500);
        assert_eq!(interval.threads[1].policy_flushes, 2);
        assert!((interval.threads[0].lll_per_kilo_instruction() - 10.0).abs() < 1e-12);
        assert!((interval.threads[0].mlp() - 3.0).abs() < 1e-12);
        assert_eq!(interval.threads[1].mlp(), 1.0);
        assert_eq!(interval.total_committed(), 750);
        assert!((interval.total_ipc() - 1.5).abs() < 1e-12);
        assert!((interval.total_lll_per_kilo_instruction() - 5.0 / 0.75).abs() < 1e-12);
        assert!((interval.total_mlp() - 3.0).abs() < 1e-12);

        // The buffer is rewritten in place on reuse.
        base.capture(&now);
        interval.assign_delta(&base, &now, 100);
        assert_eq!(interval.total_committed(), 0);
        assert_eq!(interval.total_ipc(), 0.0);
        assert_eq!(interval.total_mlp(), 1.0);

        let round = IntervalStats::deserialize(&interval.serialize()).unwrap();
        assert_eq!(round, interval);
    }
}
