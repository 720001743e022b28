//! The MLP-aware fetch policies proposed by the paper (Section 4.3).

use std::collections::HashSet;

use smt_types::config::FetchPolicyKind;
use smt_types::{SeqNum, SmtSnapshot, ThreadId};

use crate::policy::{gated_icount_order, FetchPolicy, FlushRequest};

/// Per-thread bookkeeping shared by the MLP-aware policies.
#[derive(Clone, Debug, Default)]
struct ThreadState {
    /// Youngest sequence number fetched so far.
    latest_fetched: u64,
    /// Youngest sequence number the thread is allowed to fetch up to while its
    /// long-latency loads are outstanding (`trigger seq + predicted MLP distance`).
    allowed_until: Option<u64>,
    /// Triggering loads (predicted or detected long latency) not yet resolved.
    pending: HashSet<u64>,
}

impl ThreadState {
    fn clear_if_idle(&mut self, outstanding_lll: u32) {
        if self.pending.is_empty() && outstanding_lll == 0 {
            self.allowed_until = None;
        }
    }

    fn gated(&self, outstanding_lll: u32) -> bool {
        if self.pending.is_empty() && outstanding_lll == 0 {
            return false;
        }
        match self.allowed_until {
            // A pending long-latency load with no fetch allowance: classic stall.
            None => !self.pending.is_empty() || outstanding_lll > 0,
            Some(limit) => self.latest_fetched >= limit,
        }
    }

    fn extend_allowance(&mut self, until: u64) {
        self.allowed_until = Some(self.allowed_until.map_or(until, |cur| cur.max(until)));
    }
}

/// MLP-aware **stall fetch**: long-latency loads are *predicted* in the front end;
/// the thread may fetch `predicted MLP distance` further instructions past the
/// predicted load and is then fetch stalled until the load resolves.
#[derive(Clone, Debug)]
pub struct MlpStallPolicy {
    threads: Vec<ThreadState>,
}

impl MlpStallPolicy {
    /// Creates the policy for `num_threads` hardware threads.
    pub fn new(num_threads: usize) -> Self {
        MlpStallPolicy {
            threads: vec![ThreadState::default(); num_threads],
        }
    }
}

impl FetchPolicy for MlpStallPolicy {
    fn kind(&self) -> FetchPolicyKind {
        FetchPolicyKind::MlpStall
    }

    fn fetch_priority(&mut self, snapshot: &SmtSnapshot, priority: &mut Vec<ThreadId>) {
        for (i, state) in self.threads.iter_mut().enumerate() {
            state.clear_if_idle(snapshot.threads[i].outstanding_long_latency_loads);
        }
        let threads = &self.threads;
        gated_icount_order(
            snapshot,
            |t| threads[t.index()].gated(snapshot.thread(t).outstanding_long_latency_loads),
            priority,
        );
    }

    fn on_fetch(&mut self, thread: ThreadId, seq: SeqNum) {
        self.threads[thread.index()].latest_fetched = seq.0;
    }

    fn on_load_predicted(
        &mut self,
        thread: ThreadId,
        _pc: u64,
        seq: SeqNum,
        predicted_long_latency: bool,
        predicted_mlp_distance: u32,
        _predicted_has_mlp: bool,
    ) {
        if !predicted_long_latency {
            return;
        }
        let state = &mut self.threads[thread.index()];
        state.pending.insert(seq.0);
        state.extend_allowance(seq.0 + predicted_mlp_distance as u64);
    }

    fn on_load_executed_hit(&mut self, thread: ThreadId, _pc: u64, seq: SeqNum) {
        self.threads[thread.index()].pending.remove(&seq.0);
    }

    fn on_long_latency_resolved(&mut self, thread: ThreadId, seq: SeqNum) {
        self.threads[thread.index()].pending.remove(&seq.0);
    }

    fn on_squash(&mut self, thread: ThreadId, keep_up_to: SeqNum) {
        let state = &mut self.threads[thread.index()];
        state.pending.retain(|&s| s <= keep_up_to.0); // analyze: allow(determinism) reason="retain/min/max over a hash set is order-independent: the predicate and fold are commutative"
        state.latest_fetched = state.latest_fetched.min(keep_up_to.0);
    }
}

/// MLP-aware **flush** — the paper's headline policy.
///
/// Long-latency loads are *detected* at execute; the MLP distance `m` is then
/// predicted. If more than `m` instructions past the load have already been
/// fetched, the surplus is flushed; otherwise fetching continues until exactly `m`
/// instructions past the load have been fetched. Either way the thread is then
/// fetch stalled until the load's data returns, at which point it falls back to
/// plain ICOUNT behaviour.
#[derive(Clone, Debug)]
pub struct MlpFlushPolicy {
    threads: Vec<ThreadState>,
}

impl MlpFlushPolicy {
    /// Creates the policy for `num_threads` hardware threads.
    pub fn new(num_threads: usize) -> Self {
        MlpFlushPolicy {
            threads: vec![ThreadState::default(); num_threads],
        }
    }
}

impl FetchPolicy for MlpFlushPolicy {
    fn kind(&self) -> FetchPolicyKind {
        FetchPolicyKind::MlpFlush
    }

    fn fetch_priority(&mut self, snapshot: &SmtSnapshot, priority: &mut Vec<ThreadId>) {
        for (i, state) in self.threads.iter_mut().enumerate() {
            state.clear_if_idle(snapshot.threads[i].outstanding_long_latency_loads);
        }
        let threads = &self.threads;
        gated_icount_order(
            snapshot,
            |t| threads[t.index()].gated(snapshot.thread(t).outstanding_long_latency_loads),
            priority,
        );
    }

    fn on_fetch(&mut self, thread: ThreadId, seq: SeqNum) {
        self.threads[thread.index()].latest_fetched = seq.0;
    }

    fn on_long_latency_detected(
        &mut self,
        thread: ThreadId,
        _pc: u64,
        seq: SeqNum,
        latest_fetched_seq: SeqNum,
        predicted_mlp_distance: u32,
        _predicted_has_mlp: bool,
    ) -> Option<FlushRequest> {
        let state = &mut self.threads[thread.index()];
        state.pending.insert(seq.0);
        let keep_bound = seq.0 + predicted_mlp_distance as u64;
        state.extend_allowance(keep_bound);
        state.latest_fetched = state.latest_fetched.max(latest_fetched_seq.0);
        if latest_fetched_seq.0 > keep_bound {
            // More than the MLP distance has been fetched: release the surplus.
            state.latest_fetched = keep_bound;
            Some(FlushRequest {
                thread,
                keep_up_to: SeqNum(keep_bound),
            })
        } else {
            None
        }
    }

    fn on_long_latency_resolved(&mut self, thread: ThreadId, seq: SeqNum) {
        self.threads[thread.index()].pending.remove(&seq.0);
    }

    fn on_squash(&mut self, thread: ThreadId, keep_up_to: SeqNum) {
        let state = &mut self.threads[thread.index()];
        state.pending.retain(|&s| s <= keep_up_to.0); // analyze: allow(determinism) reason="retain/min/max over a hash set is order-independent: the predicate and fold are commutative"
        state.latest_fetched = state.latest_fetched.min(keep_up_to.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::fetch_priority_vec;

    #[test]
    fn mlp_stall_allows_fetch_up_to_predicted_distance() {
        let mut p = MlpStallPolicy::new(2);
        let mut s = SmtSnapshot::new(2);
        let t0 = ThreadId::new(0);
        // Predicted long-latency load at seq 100 with MLP distance 8.
        p.on_load_predicted(t0, 0x40, SeqNum(100), true, 8, true);
        s.threads[0].outstanding_long_latency_loads = 0;
        // Fetched up to 104: still within the allowance.
        p.on_fetch(t0, SeqNum(104));
        assert!(fetch_priority_vec(&mut p, &s).contains(&t0));
        // Fetched up to 108: allowance exhausted, thread gates.
        p.on_fetch(t0, SeqNum(108));
        assert!(!fetch_priority_vec(&mut p, &s).contains(&t0));
        // Load resolves: thread resumes.
        p.on_long_latency_resolved(t0, SeqNum(100));
        assert!(fetch_priority_vec(&mut p, &s).contains(&t0));
    }

    #[test]
    fn mlp_stall_with_zero_distance_behaves_like_predictive_stall() {
        let mut p = MlpStallPolicy::new(2);
        let s = SmtSnapshot::new(2);
        let t0 = ThreadId::new(0);
        p.on_load_predicted(t0, 0x40, SeqNum(50), true, 0, false);
        p.on_fetch(t0, SeqNum(50));
        assert!(!fetch_priority_vec(&mut p, &s).contains(&t0));
        p.on_load_executed_hit(t0, 0x40, SeqNum(50));
        assert!(fetch_priority_vec(&mut p, &s).contains(&t0));
    }

    #[test]
    fn mlp_flush_flushes_only_past_the_mlp_distance() {
        let mut p = MlpFlushPolicy::new(2);
        let t0 = ThreadId::new(0);
        // 60 instructions were fetched past the load but the MLP distance is 20.
        let req = p
            .on_long_latency_detected(t0, 0x40, SeqNum(100), SeqNum(160), 20, true)
            .expect("surplus should be flushed");
        assert_eq!(req.keep_up_to, SeqNum(120));
        // With a distance larger than what was fetched, nothing is flushed.
        let mut p = MlpFlushPolicy::new(2);
        assert!(p
            .on_long_latency_detected(t0, 0x40, SeqNum(100), SeqNum(110), 20, true)
            .is_none());
    }

    #[test]
    fn mlp_flush_keeps_fetching_until_distance_then_gates() {
        let mut p = MlpFlushPolicy::new(2);
        let mut s = SmtSnapshot::new(2);
        let t0 = ThreadId::new(0);
        s.threads[0].outstanding_long_latency_loads = 1;
        s.threads[0].oldest_lll_cycle = Some(1);
        p.on_fetch(t0, SeqNum(105));
        assert!(p
            .on_long_latency_detected(t0, 0x40, SeqNum(100), SeqNum(105), 12, true)
            .is_none());
        // Still below the allowance of 112: keeps fetching.
        assert!(fetch_priority_vec(&mut p, &s).contains(&t0));
        p.on_fetch(t0, SeqNum(112));
        assert!(!fetch_priority_vec(&mut p, &s).contains(&t0));
        // Data returns: outstanding drops to zero and the thread resumes.
        p.on_long_latency_resolved(t0, SeqNum(100));
        s.threads[0].outstanding_long_latency_loads = 0;
        s.threads[0].oldest_lll_cycle = None;
        assert!(fetch_priority_vec(&mut p, &s).contains(&t0));
    }

    #[test]
    fn isolated_load_with_zero_distance_flushes_everything_after_it() {
        let mut p = MlpFlushPolicy::new(2);
        let t0 = ThreadId::new(0);
        let req = p
            .on_long_latency_detected(t0, 0x40, SeqNum(200), SeqNum(230), 0, false)
            .expect("flush expected");
        assert_eq!(req.keep_up_to, SeqNum(200));
    }

    #[test]
    fn squash_rolls_back_state() {
        let mut p = MlpFlushPolicy::new(2);
        let s = SmtSnapshot::new(2);
        let t0 = ThreadId::new(0);
        p.on_fetch(t0, SeqNum(500));
        let _ = p.on_long_latency_detected(t0, 0x40, SeqNum(480), SeqNum(500), 5, true);
        p.on_squash(t0, SeqNum(400));
        // The pending trigger was squashed; with no outstanding loads the thread
        // must not stay gated.
        assert!(fetch_priority_vec(&mut p, &s).contains(&t0));
    }

    #[test]
    fn cot_applies_when_both_threads_exhausted() {
        let mut p = MlpFlushPolicy::new(2);
        let mut s = SmtSnapshot::new(2);
        for (i, t) in s.threads.iter_mut().enumerate() {
            t.outstanding_long_latency_loads = 1;
            t.oldest_lll_cycle = Some(10 + i as u64);
        }
        let _ =
            p.on_long_latency_detected(ThreadId::new(0), 0x40, SeqNum(10), SeqNum(10), 0, false);
        let _ =
            p.on_long_latency_detected(ThreadId::new(1), 0x44, SeqNum(10), SeqNum(10), 0, false);
        p.on_fetch(ThreadId::new(0), SeqNum(10));
        p.on_fetch(ThreadId::new(1), SeqNum(10));
        assert_eq!(fetch_priority_vec(&mut p, &s), vec![ThreadId::new(0)]);
    }
}
