//! Simulation statistics.
//!
//! [`ThreadStats`] accumulates everything the experiments in Section 6 need for a
//! single hardware thread; [`MachineStats`] aggregates per-thread statistics plus
//! machine-global cycle counts. Derived quantities (IPC, CPI, measured MLP, miss
//! rates, predictor accuracies) are exposed as methods so that raw counters stay
//! the single source of truth.

use serde::{Deserialize, Serialize};

use crate::ids::ThreadId;

/// Counters describing one hardware thread's execution.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ThreadStats {
    /// Dynamic instructions committed.
    pub committed_instructions: u64,
    /// Dynamic instructions fetched (including instructions later squashed).
    pub fetched_instructions: u64,
    /// Instructions squashed by branch mispredictions.
    pub squashed_by_branch: u64,
    /// Instructions squashed by fetch-policy flushes.
    pub squashed_by_policy: u64,
    /// Number of fetch-policy flush events.
    pub policy_flushes: u64,
    /// Cycles during which the fetch policy gated (stalled) this thread.
    pub fetch_gated_cycles: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub branch_mispredictions: u64,
    /// L1 data cache load misses.
    pub l1d_load_misses: u64,
    /// L2 load misses.
    pub l2_load_misses: u64,
    /// L3 load misses (off-chip accesses).
    pub l3_load_misses: u64,
    /// D-TLB misses.
    pub dtlb_misses: u64,
    /// Long-latency loads: L3 misses plus D-TLB misses (the paper's definition).
    pub long_latency_loads: u64,
    /// Loads whose miss was fully or partially covered by the prefetcher.
    pub prefetch_hits: u64,
    /// Prefetch requests issued on behalf of this thread.
    pub prefetches_issued: u64,
    /// Sum over all cycles with at least one outstanding long-latency load of the
    /// number of outstanding long-latency loads (numerator of the Chou et al. MLP
    /// definition).
    pub mlp_outstanding_sum: u64,
    /// Number of cycles with at least one outstanding long-latency load
    /// (denominator of the MLP definition).
    pub mlp_cycles: u64,
    /// Long-latency load predictor: correct hit/miss predictions.
    pub lll_pred_correct: u64,
    /// Long-latency load predictor: total predictions (one per executed load).
    pub lll_pred_total: u64,
    /// Long-latency load predictor: correct *miss* predictions.
    pub lll_pred_miss_correct: u64,
    /// Long-latency load predictor: total actual misses seen.
    pub lll_pred_miss_total: u64,
    /// MLP predictor: true positives (predicted MLP, there was MLP).
    pub mlp_pred_true_positive: u64,
    /// MLP predictor: true negatives (predicted no MLP, there was none).
    pub mlp_pred_true_negative: u64,
    /// MLP predictor: false positives (predicted MLP, there was none).
    pub mlp_pred_false_positive: u64,
    /// MLP predictor: false negatives (predicted no MLP, there was MLP).
    pub mlp_pred_false_negative: u64,
    /// MLP distance predictor: predictions at least as large as the actual distance.
    pub mlp_distance_far_enough: u64,
    /// MLP distance predictor: total distance predictions evaluated.
    pub mlp_distance_total: u64,
    /// Cycles this thread spent as the "continue oldest thread" (COT) owner.
    pub cot_owner_cycles: u64,
    /// Histogram of predicted MLP distances at long-latency-load detection,
    /// [`ThreadStats::MLP_HIST_BIN`] instructions per bin (used for Figure 4).
    pub mlp_distance_histogram: Vec<u64>,
}

impl ThreadStats {
    /// Width of one bin of [`ThreadStats::mlp_distance_histogram`], in instructions.
    pub const MLP_HIST_BIN: u32 = 8;

    /// Creates an all-zero statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one predicted MLP distance observation into the histogram.
    pub fn record_mlp_distance(&mut self, distance: u32) {
        let bin = (distance / Self::MLP_HIST_BIN) as usize;
        if self.mlp_distance_histogram.len() <= bin {
            self.mlp_distance_histogram.resize(bin + 1, 0);
        }
        self.mlp_distance_histogram[bin] += 1;
    }

    /// Cumulative distribution of predicted MLP distances: for each histogram bin
    /// upper bound (in instructions), the fraction of observations at or below it.
    /// Returns an empty vector when no observations were recorded.
    pub fn mlp_distance_cdf(&self) -> Vec<(u32, f64)> {
        let total: u64 = self.mlp_distance_histogram.iter().sum();
        if total == 0 {
            return Vec::new();
        }
        let mut acc = 0u64;
        self.mlp_distance_histogram
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                acc += count;
                (
                    (i as u32 + 1) * Self::MLP_HIST_BIN,
                    acc as f64 / total as f64,
                )
            })
            .collect()
    }

    /// Instructions per cycle given a machine cycle count.
    pub fn ipc(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.committed_instructions as f64 / cycles as f64
        }
    }

    /// Measured memory-level parallelism: average number of outstanding
    /// long-latency loads over the cycles with at least one outstanding
    /// (Chou et al. 2004, used in Table I / Figure 1).
    pub fn measured_mlp(&self) -> f64 {
        if self.mlp_cycles == 0 {
            1.0
        } else {
            self.mlp_outstanding_sum as f64 / self.mlp_cycles as f64
        }
    }

    /// Long-latency loads per 1000 committed instructions (Table I "LLL" column).
    pub fn lll_per_kilo_instruction(&self) -> f64 {
        if self.committed_instructions == 0 {
            0.0
        } else {
            self.long_latency_loads as f64 * 1000.0 / self.committed_instructions as f64
        }
    }

    /// Long-latency load predictor accuracy over all loads (Figure 6).
    pub fn lll_predictor_accuracy(&self) -> f64 {
        if self.lll_pred_total == 0 {
            1.0
        } else {
            self.lll_pred_correct as f64 / self.lll_pred_total as f64
        }
    }

    /// Long-latency load predictor accuracy over actual misses only.
    pub fn lll_predictor_miss_accuracy(&self) -> f64 {
        if self.lll_pred_miss_total == 0 {
            1.0
        } else {
            self.lll_pred_miss_correct as f64 / self.lll_pred_miss_total as f64
        }
    }

    /// Binary MLP prediction accuracy: true positives plus true negatives over all
    /// classified long-latency loads (Figure 7).
    pub fn mlp_predictor_accuracy(&self) -> f64 {
        let total = self.mlp_pred_true_positive
            + self.mlp_pred_true_negative
            + self.mlp_pred_false_positive
            + self.mlp_pred_false_negative;
        if total == 0 {
            1.0
        } else {
            (self.mlp_pred_true_positive + self.mlp_pred_true_negative) as f64 / total as f64
        }
    }

    /// Fraction of MLP-distance predictions that were "far enough" (Figure 8).
    pub fn mlp_distance_accuracy(&self) -> f64 {
        if self.mlp_distance_total == 0 {
            1.0
        } else {
            self.mlp_distance_far_enough as f64 / self.mlp_distance_total as f64
        }
    }

    /// Merges another statistics record into this one (used when aggregating
    /// across simulation chunks).
    pub fn merge(&mut self, other: &ThreadStats) {
        self.committed_instructions += other.committed_instructions;
        self.fetched_instructions += other.fetched_instructions;
        self.squashed_by_branch += other.squashed_by_branch;
        self.squashed_by_policy += other.squashed_by_policy;
        self.policy_flushes += other.policy_flushes;
        self.fetch_gated_cycles += other.fetch_gated_cycles;
        self.loads += other.loads;
        self.stores += other.stores;
        self.branches += other.branches;
        self.branch_mispredictions += other.branch_mispredictions;
        self.l1d_load_misses += other.l1d_load_misses;
        self.l2_load_misses += other.l2_load_misses;
        self.l3_load_misses += other.l3_load_misses;
        self.dtlb_misses += other.dtlb_misses;
        self.long_latency_loads += other.long_latency_loads;
        self.prefetch_hits += other.prefetch_hits;
        self.prefetches_issued += other.prefetches_issued;
        self.mlp_outstanding_sum += other.mlp_outstanding_sum;
        self.mlp_cycles += other.mlp_cycles;
        self.lll_pred_correct += other.lll_pred_correct;
        self.lll_pred_total += other.lll_pred_total;
        self.lll_pred_miss_correct += other.lll_pred_miss_correct;
        self.lll_pred_miss_total += other.lll_pred_miss_total;
        self.mlp_pred_true_positive += other.mlp_pred_true_positive;
        self.mlp_pred_true_negative += other.mlp_pred_true_negative;
        self.mlp_pred_false_positive += other.mlp_pred_false_positive;
        self.mlp_pred_false_negative += other.mlp_pred_false_negative;
        self.mlp_distance_far_enough += other.mlp_distance_far_enough;
        self.mlp_distance_total += other.mlp_distance_total;
        self.cot_owner_cycles += other.cot_owner_cycles;
        if self.mlp_distance_histogram.len() < other.mlp_distance_histogram.len() {
            self.mlp_distance_histogram
                .resize(other.mlp_distance_histogram.len(), 0);
        }
        for (i, v) in other.mlp_distance_histogram.iter().enumerate() {
            self.mlp_distance_histogram[i] += v;
        }
    }
}

/// Statistics for a whole simulated machine run.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MachineStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Per-thread statistics, indexed by thread id.
    pub threads: Vec<ThreadStats>,
}

impl MachineStats {
    /// Creates a zeroed record for `num_threads` threads.
    pub fn new(num_threads: usize) -> Self {
        MachineStats {
            cycles: 0,
            threads: vec![ThreadStats::default(); num_threads],
        }
    }

    /// Per-thread statistics accessor.
    ///
    /// # Panics
    ///
    /// Panics if the thread id is out of range for this record.
    pub fn thread(&self, t: ThreadId) -> &ThreadStats {
        &self.threads[t.index()]
    }

    /// Mutable per-thread statistics accessor.
    ///
    /// # Panics
    ///
    /// Panics if the thread id is out of range for this record.
    pub fn thread_mut(&mut self, t: ThreadId) -> &mut ThreadStats {
        &mut self.threads[t.index()]
    }

    /// Aggregate instructions per cycle across all threads (total throughput IPC).
    pub fn total_ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let total: u64 = self.threads.iter().map(|t| t.committed_instructions).sum();
        total as f64 / self.cycles as f64
    }

    /// Per-thread IPC values in thread order.
    pub fn per_thread_ipc(&self) -> Vec<f64> {
        self.threads.iter().map(|t| t.ipc(self.cycles)).collect()
    }
}

/// Statistics for a whole chip (CMP-of-SMT) run: one [`MachineStats`] per
/// core plus the chip-wide cycle count (cores step in lockstep, so every
/// core's cycle count equals the chip's).
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChipStats {
    /// Total simulated cycles (identical across cores).
    pub cycles: u64,
    /// Per-core statistics, indexed by core id.
    pub cores: Vec<MachineStats>,
}

impl ChipStats {
    /// Creates a zeroed record for a chip of `num_cores` cores with
    /// `threads_per_core` hardware threads each.
    pub fn new(num_cores: usize, threads_per_core: usize) -> Self {
        ChipStats {
            cycles: 0,
            cores: vec![MachineStats::new(threads_per_core); num_cores],
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Per-thread statistics in `(core, thread)` order, flattened across the
    /// chip.
    pub fn threads(&self) -> impl Iterator<Item = &ThreadStats> {
        self.cores.iter().flat_map(|c| c.threads.iter())
    }

    /// Committed instructions summed over every thread of every core.
    pub fn total_committed(&self) -> u64 {
        self.threads().map(|t| t.committed_instructions).sum()
    }

    /// Chip-wide instructions per cycle (sum of all cores' throughput).
    pub fn total_ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.total_committed() as f64 / self.cycles as f64
    }

    /// Aggregate IPC of each core, in core order.
    pub fn per_core_ipc(&self) -> Vec<f64> {
        self.cores
            .iter()
            .map(|c| {
                if self.cycles == 0 {
                    0.0
                } else {
                    c.threads
                        .iter()
                        .map(|t| t.committed_instructions)
                        .sum::<u64>() as f64
                        / self.cycles as f64
                }
            })
            .collect()
    }

    /// Per-thread IPC in `(core, thread)` order, flattened across the chip.
    pub fn per_thread_ipc(&self) -> Vec<f64> {
        self.threads().map(|t| t.ipc(self.cycles)).collect()
    }
}

#[cfg(test)]
mod tests {
    // The tests intentionally build up sparse counter records field by field.
    #![allow(clippy::field_reassign_with_default)]

    use super::*;

    #[test]
    fn ipc_cpi_inverse() {
        let mut s = ThreadStats::default();
        s.committed_instructions = 500;
        assert!((s.ipc(1000) - 0.5).abs() < 1e-12);
        assert!((1.0 / s.ipc(1000) - 2.0).abs() < 1e-12);
        assert_eq!(ThreadStats::default().ipc(100), 0.0);
    }

    #[test]
    fn measured_mlp_definition() {
        let mut s = ThreadStats::default();
        assert_eq!(s.measured_mlp(), 1.0);
        s.mlp_cycles = 100;
        s.mlp_outstanding_sum = 340;
        assert!((s.measured_mlp() - 3.4).abs() < 1e-12);
    }

    #[test]
    fn lll_per_kilo() {
        let mut s = ThreadStats::default();
        s.committed_instructions = 10_000;
        s.long_latency_loads = 173;
        assert!((s.lll_per_kilo_instruction() - 17.3).abs() < 1e-12);
    }

    #[test]
    fn predictor_accuracies() {
        let mut s = ThreadStats::default();
        s.lll_pred_total = 200;
        s.lll_pred_correct = 198;
        assert!((s.lll_predictor_accuracy() - 0.99).abs() < 1e-12);
        s.mlp_pred_true_positive = 70;
        s.mlp_pred_true_negative = 20;
        s.mlp_pred_false_positive = 5;
        s.mlp_pred_false_negative = 5;
        assert!((s.mlp_predictor_accuracy() - 0.9).abs() < 1e-12);
        s.mlp_distance_total = 10;
        s.mlp_distance_far_enough = 9;
        assert!((s.mlp_distance_accuracy() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn mlp_distance_histogram_and_cdf() {
        let mut s = ThreadStats::default();
        assert!(s.mlp_distance_cdf().is_empty());
        s.record_mlp_distance(0);
        s.record_mlp_distance(5);
        s.record_mlp_distance(20);
        s.record_mlp_distance(100);
        let cdf = s.mlp_distance_cdf();
        assert_eq!(cdf.first().unwrap().0, ThreadStats::MLP_HIST_BIN);
        assert!((cdf.first().unwrap().1 - 0.5).abs() < 1e-12);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        // CDF is non-decreasing.
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn merge_adds_histograms() {
        let mut a = ThreadStats::default();
        a.record_mlp_distance(3);
        let mut b = ThreadStats::default();
        b.record_mlp_distance(3);
        b.record_mlp_distance(90);
        a.merge(&b);
        assert_eq!(a.mlp_distance_histogram[0], 2);
        assert_eq!(a.mlp_distance_histogram.iter().sum::<u64>(), 3);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = ThreadStats::default();
        a.committed_instructions = 10;
        a.long_latency_loads = 2;
        let mut b = ThreadStats::default();
        b.committed_instructions = 5;
        b.long_latency_loads = 1;
        a.merge(&b);
        assert_eq!(a.committed_instructions, 15);
        assert_eq!(a.long_latency_loads, 3);
    }

    #[test]
    fn chip_stats_aggregation() {
        let mut chip = ChipStats::new(2, 2);
        chip.cycles = 1000;
        chip.cores[0]
            .thread_mut(ThreadId::new(0))
            .committed_instructions = 400;
        chip.cores[0]
            .thread_mut(ThreadId::new(1))
            .committed_instructions = 100;
        chip.cores[1]
            .thread_mut(ThreadId::new(0))
            .committed_instructions = 500;
        assert_eq!(chip.num_cores(), 2);
        assert_eq!(chip.total_committed(), 1000);
        assert!((chip.total_ipc() - 1.0).abs() < 1e-12);
        let per_core = chip.per_core_ipc();
        assert!((per_core[0] - 0.5).abs() < 1e-12);
        assert!((per_core[1] - 0.5).abs() < 1e-12);
        let per_thread = chip.per_thread_ipc();
        assert_eq!(per_thread.len(), 4);
        assert!((per_thread[0] - 0.4).abs() < 1e-12);
        assert!((per_thread[2] - 0.5).abs() < 1e-12);
        // Zero-cycle records report zero throughput rather than dividing by 0.
        assert_eq!(ChipStats::new(1, 1).total_ipc(), 0.0);
        assert_eq!(ChipStats::new(1, 1).per_core_ipc(), vec![0.0]);
    }

    #[test]
    fn chip_stats_serde_round_trips() {
        let mut chip = ChipStats::new(2, 1);
        chip.cycles = 7;
        chip.cores[1].thread_mut(ThreadId::new(0)).loads = 3;
        let round = ChipStats::deserialize(&chip.serialize()).unwrap();
        assert_eq!(round, chip);
    }

    #[test]
    fn machine_stats_aggregation() {
        let mut m = MachineStats::new(2);
        m.cycles = 1000;
        m.thread_mut(ThreadId::new(0)).committed_instructions = 800;
        m.thread_mut(ThreadId::new(1)).committed_instructions = 200;
        assert!((m.total_ipc() - 1.0).abs() < 1e-12);
        let ipcs = m.per_thread_ipc();
        assert!((ipcs[0] - 0.8).abs() < 1e-12);
        assert!((ipcs[1] - 0.2).abs() < 1e-12);
    }
}
