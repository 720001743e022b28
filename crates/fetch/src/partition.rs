//! Explicit resource management: static partitioning and DCRA (Section 6.6).

use smt_types::config::{FetchPolicyKind, SmtConfig};
use smt_types::{SmtSnapshot, ThreadId};

use crate::policy::{icount_order, FetchPolicy, ResourceCaps};

/// Static partitioning (Raasch & Reinhardt / Pentium 4 style): each of the `n`
/// threads owns a fixed `1/n` share of every buffer resource (ROB, LSQ, issue
/// queues, rename registers); functional units stay shared. Fetch priority is
/// plain ICOUNT.
#[derive(Clone, Debug)]
pub struct StaticPartitionPolicy {
    num_threads: usize,
}

impl StaticPartitionPolicy {
    /// Creates the policy for `num_threads` hardware threads.
    pub fn new(num_threads: usize) -> Self {
        StaticPartitionPolicy { num_threads }
    }
}

impl FetchPolicy for StaticPartitionPolicy {
    fn kind(&self) -> FetchPolicyKind {
        FetchPolicyKind::StaticPartition
    }

    fn fetch_priority(&mut self, snapshot: &SmtSnapshot, priority: &mut Vec<ThreadId>) {
        icount_order(snapshot, priority);
    }

    fn resource_caps(
        &mut self,
        _snapshot: &SmtSnapshot,
        config: &SmtConfig,
        caps: &mut [ResourceCaps],
    ) -> bool {
        let n = self.num_threads as u32;
        let share = ResourceCaps {
            rob: Some((config.rob_size / n).max(1)),
            lsq: Some((config.lsq_size / n).max(1)),
            iq_int: Some((config.iq_int_size / n).max(1)),
            iq_fp: Some((config.iq_fp_size / n).max(1)),
            rename_int: Some((config.rename_int / n).max(1)),
            rename_fp: Some((config.rename_fp / n).max(1)),
        };
        caps.fill(share);
        true
    }
}

/// Dynamically controlled resource allocation (Cazorla et al. 2004b).
///
/// Threads are classified every cycle as *slow* (memory intensive: at least one L1
/// data-cache miss outstanding) or *fast*. Slow threads receive a larger share of
/// each buffer resource so they can expose memory parallelism; fast threads are
/// prevented from monopolizing buffers. Shares follow DCRA's sharing model: with
/// `F` fast and `S` slow threads, a fast thread may use `R / (F + S)` entries of a
/// resource of size `R`, while slow threads additionally split the share one extra
/// "virtual" fast thread would have had, i.e. `R / (F + S) * (1 + F / S) / 1`
/// approximated in integer arithmetic.
///
/// DCRA is *MLP oblivious*: the bonus share is fixed regardless of how much MLP
/// the thread actually has, which is exactly the behaviour the paper's MLP-aware
/// policies improve on.
#[derive(Clone, Debug)]
pub struct DcraPolicy {
    num_threads: usize,
}

impl DcraPolicy {
    /// Creates the policy for `num_threads` hardware threads.
    pub fn new(num_threads: usize) -> Self {
        DcraPolicy { num_threads }
    }

    fn share(resource: u32, fast: u32, slow: u32, is_slow: bool) -> u32 {
        let total_threads = fast + slow;
        if total_threads == 0 {
            return resource;
        }
        let base = resource / total_threads;
        if slow == 0 || fast == 0 {
            // Homogeneous mix: plain equal sharing.
            return base.max(1);
        }
        if is_slow {
            // Slow threads split the shares the fast threads relinquish.
            (base + (base * fast) / (2 * slow)).max(1)
        } else {
            // Fast threads give up part of their share to the slow threads.
            (base - base / 2 / total_threads).max(1)
        }
    }
}

impl FetchPolicy for DcraPolicy {
    fn kind(&self) -> FetchPolicyKind {
        FetchPolicyKind::Dcra
    }

    fn fetch_priority(&mut self, snapshot: &SmtSnapshot, priority: &mut Vec<ThreadId>) {
        icount_order(snapshot, priority);
    }

    fn resource_caps(
        &mut self,
        snapshot: &SmtSnapshot,
        config: &SmtConfig,
        caps: &mut [ResourceCaps],
    ) -> bool {
        let slow = snapshot
            .threads
            .iter()
            .filter(|t| t.outstanding_l1d_misses > 0)
            .count() as u32;
        let fast = self.num_threads as u32 - slow;
        for (cap, thread) in caps.iter_mut().zip(&snapshot.threads) {
            let is_slow = thread.outstanding_l1d_misses > 0;
            *cap = ResourceCaps {
                rob: Some(Self::share(config.rob_size, fast, slow, is_slow)),
                lsq: Some(Self::share(config.lsq_size, fast, slow, is_slow)),
                iq_int: Some(Self::share(config.iq_int_size, fast, slow, is_slow)),
                iq_fp: Some(Self::share(config.iq_fp_size, fast, slow, is_slow)),
                rename_int: Some(Self::share(config.rename_int, fast, slow, is_slow)),
                rename_fp: Some(Self::share(config.rename_fp, fast, slow, is_slow)),
            };
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{fetch_priority_vec, resource_caps_vec};

    #[test]
    fn static_partition_gives_equal_shares() {
        let mut p = StaticPartitionPolicy::new(2);
        let cfg = SmtConfig::baseline(2);
        let snap = SmtSnapshot::new(2);
        let caps = resource_caps_vec(&mut p, &snap, &cfg).unwrap();
        assert_eq!(caps.len(), 2);
        assert_eq!(caps[0].rob, Some(128));
        assert_eq!(caps[0].lsq, Some(64));
        assert_eq!(caps[0].iq_int, Some(32));
        assert_eq!(caps[0].rename_fp, Some(50));
        assert_eq!(caps[0], caps[1]);
        assert_eq!(p.kind(), FetchPolicyKind::StaticPartition);
    }

    #[test]
    fn dcra_gives_memory_intensive_threads_more() {
        let mut p = DcraPolicy::new(2);
        let cfg = SmtConfig::baseline(2);
        let mut snap = SmtSnapshot::new(2);
        snap.threads[0].outstanding_l1d_misses = 3; // slow
        snap.threads[1].outstanding_l1d_misses = 0; // fast
        let caps = resource_caps_vec(&mut p, &snap, &cfg).unwrap();
        assert!(caps[0].rob.unwrap() > caps[1].rob.unwrap());
        assert!(caps[0].rob.unwrap() > cfg.rob_size / 2);
        assert!(caps[1].rob.unwrap() <= cfg.rob_size / 2);
    }

    #[test]
    fn dcra_equal_split_when_homogeneous() {
        let mut p = DcraPolicy::new(2);
        let cfg = SmtConfig::baseline(2);
        let snap = SmtSnapshot::new(2);
        let caps = resource_caps_vec(&mut p, &snap, &cfg).unwrap();
        assert_eq!(caps[0].rob, Some(128));
        assert_eq!(caps[1].rob, Some(128));
        let mut snap_all_slow = SmtSnapshot::new(2);
        for t in &mut snap_all_slow.threads {
            t.outstanding_l1d_misses = 1;
        }
        let caps = resource_caps_vec(&mut p, &snap_all_slow, &cfg).unwrap();
        assert_eq!(caps[0].rob, Some(128));
    }

    #[test]
    fn dcra_four_thread_shares_are_sane() {
        let mut p = DcraPolicy::new(4);
        let cfg = SmtConfig::baseline(4);
        let mut snap = SmtSnapshot::new(4);
        snap.threads[0].outstanding_l1d_misses = 2;
        let caps = resource_caps_vec(&mut p, &snap, &cfg).unwrap();
        // The one slow thread gets more than an equal share; fast threads get less.
        assert!(caps[0].rob.unwrap() > 64);
        for c in &caps[1..] {
            assert!(c.rob.unwrap() <= 64);
            assert!(c.rob.unwrap() >= 1);
        }
        assert_eq!(p.kind(), FetchPolicyKind::Dcra);
    }

    #[test]
    fn both_policies_use_icount_priority() {
        let mut sp = StaticPartitionPolicy::new(2);
        let mut dcra = DcraPolicy::new(2);
        let mut snap = SmtSnapshot::new(2);
        snap.threads[0].icount = 9;
        snap.threads[1].icount = 1;
        assert_eq!(fetch_priority_vec(&mut sp, &snap)[0].index(), 1);
        assert_eq!(fetch_priority_vec(&mut dcra, &snap)[0].index(), 1);
    }
}
