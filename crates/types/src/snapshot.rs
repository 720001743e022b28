//! Read-only pipeline state handed to fetch policies each cycle.
//!
//! The pipeline (in `smt_core`) owns all of the machine state; fetch policies (in
//! `smt_fetch`) are notified of events and, once per cycle, receive an
//! [`SmtSnapshot`] so that they can pick fetch priorities and resource limits
//! without a circular crate dependency.
//!
//! The view holds exactly what policies read: per thread, the ICOUNT value,
//! the outstanding long-latency loads and L1 data-cache misses, and the
//! detection cycle of the oldest outstanding long-latency load (the
//! continue-oldest-thread input). It has no cycle number, so no per-cycle
//! policy query can depend on the current cycle.

use crate::ids::ThreadId;

/// Per-thread state visible to the fetch policy.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ThreadSnapshot {
    /// ICOUNT value: instructions in the front-end pipeline plus the instruction
    /// queues (the quantity the ICOUNT policy balances).
    pub icount: u32,
    /// Number of long-latency loads (L3 / D-TLB misses) currently outstanding.
    pub outstanding_long_latency_loads: u32,
    /// Number of L1 data-cache misses currently outstanding (DCRA's memory-intensity
    /// signal).
    pub outstanding_l1d_misses: u32,
    /// Cycle at which the oldest currently-outstanding long-latency load was
    /// detected, if any (used by the continue-oldest-thread rule).
    pub oldest_lll_cycle: Option<u64>,
}

/// Machine-wide snapshot passed to [`smt_fetch`]-style policies once per cycle.
///
/// [`smt_fetch`]: https://docs.rs/smt-fetch
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SmtSnapshot {
    /// Per-thread state, indexed by thread id.
    pub threads: Vec<ThreadSnapshot>,
}

impl SmtSnapshot {
    /// Creates an all-zero snapshot for `num_threads` threads.
    pub fn new(num_threads: usize) -> Self {
        SmtSnapshot {
            threads: vec![ThreadSnapshot::default(); num_threads],
        }
    }

    /// Number of hardware threads described by the snapshot.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Per-thread accessor.
    ///
    /// # Panics
    ///
    /// Panics if the thread id is out of range for this snapshot.
    pub fn thread(&self, t: ThreadId) -> &ThreadSnapshot {
        &self.threads[t.index()]
    }

    /// Returns `true` when there is at least one thread and every thread
    /// currently has an outstanding long-latency load (the situation the COT
    /// rule arbitrates).
    pub fn all_threads_stalled_on_memory(&self) -> bool {
        !self.threads.is_empty()
            && self
                .threads
                .iter()
                .all(|t| t.outstanding_long_latency_loads > 0)
    }

    /// The thread whose oldest outstanding long-latency load is oldest — the
    /// thread the continue-oldest-thread (COT) rule gives priority to. Ties go
    /// to the lowest thread id.
    pub fn oldest_memory_stalled_thread(&self) -> Option<ThreadId> {
        self.threads
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.oldest_lll_cycle.map(|c| (i, c)))
            .min_by_key(|&(i, c)| (c, i))
            .map(|(i, _)| ThreadId::new(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_construction() {
        let s = SmtSnapshot::new(4);
        assert_eq!(s.num_threads(), 4);
        assert_eq!(s.thread(ThreadId::new(3)).icount, 0);
        assert!(!s.all_threads_stalled_on_memory());
        assert!(s.oldest_memory_stalled_thread().is_none());
        assert!(!SmtSnapshot::new(0).all_threads_stalled_on_memory());
    }

    #[test]
    fn all_stalled_detection() {
        let mut s = SmtSnapshot::new(2);
        s.threads[0].outstanding_long_latency_loads = 1;
        s.threads[0].oldest_lll_cycle = Some(100);
        s.threads[1].outstanding_long_latency_loads = 0;
        assert!(!s.all_threads_stalled_on_memory());
        s.threads[1].outstanding_long_latency_loads = 2;
        s.threads[1].oldest_lll_cycle = Some(90);
        assert!(s.all_threads_stalled_on_memory());
        assert_eq!(s.oldest_memory_stalled_thread(), Some(ThreadId::new(1)));
    }

    #[test]
    fn cot_considers_every_thread() {
        let mut s = SmtSnapshot::new(3);
        s.threads[0].outstanding_long_latency_loads = 5;
        s.threads[0].oldest_lll_cycle = Some(1);
        s.threads[1].outstanding_long_latency_loads = 1;
        s.threads[1].oldest_lll_cycle = Some(50);
        // One thread without an outstanding load: not everyone is stalled.
        assert!(!s.all_threads_stalled_on_memory());
        assert_eq!(s.oldest_memory_stalled_thread(), Some(ThreadId::new(0)));
        s.threads[2].outstanding_long_latency_loads = 1;
        s.threads[2].oldest_lll_cycle = Some(20);
        assert!(s.all_threads_stalled_on_memory());
        assert_eq!(s.oldest_memory_stalled_thread(), Some(ThreadId::new(0)));
    }

    #[test]
    fn cot_tie_breaks_by_thread_id() {
        let mut s = SmtSnapshot::new(2);
        for t in &mut s.threads {
            t.outstanding_long_latency_loads = 1;
            t.oldest_lll_cycle = Some(10);
        }
        assert_eq!(s.oldest_memory_stalled_thread(), Some(ThreadId::new(0)));
    }
}
