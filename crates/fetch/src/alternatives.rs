//! The alternative MLP-aware fetch policies of Section 6.5.
//!
//! Figure 19 of the paper sketches five designs; (a) is the plain flush policy and
//! (b) the MLP-distance flush evaluated throughout the paper (both live in
//! [`crate::flush`] / [`crate::mlp`]). This module implements the remaining three:
//!
//! * **(c) `MLP + flush`** ([`MlpBinaryFlushPolicy`]): a 1-bit MLP predictor; if no
//!   MLP is predicted the thread is flushed past the load, otherwise fetching
//!   simply continues under ICOUNT.
//! * **(d) `MLP distance + flush at resource stall`**
//!   ([`MlpDistanceFlushAtStallPolicy`]): fetch up to the predicted MLP distance,
//!   then stall; if the machine later hits a resource stall, flush the thread past
//!   the triggering load so the other threads can use its resources (the already
//!   issued independent misses keep overlapping — a prefetching effect).
//! * **(e) `MLP + flush at resource stall`** ([`MlpBinaryFlushAtStallPolicy`]):
//!   binary MLP prediction combined with the flush-at-resource-stall rule.

use std::collections::HashSet;

use smt_types::config::FetchPolicyKind;
use smt_types::{SeqNum, SmtSnapshot, ThreadId};

use crate::policy::{gated_icount_order, FetchPolicy, FlushRequest};

/// Alternative (c): binary MLP predictor + flush.
#[derive(Clone, Debug)]
pub struct MlpBinaryFlushPolicy {
    /// Per thread: unresolved triggering loads that were predicted to have no MLP.
    pending_no_mlp: Vec<HashSet<u64>>,
}

impl MlpBinaryFlushPolicy {
    /// Creates the policy for `num_threads` hardware threads.
    pub fn new(num_threads: usize) -> Self {
        MlpBinaryFlushPolicy {
            pending_no_mlp: vec![HashSet::new(); num_threads],
        }
    }
}

impl FetchPolicy for MlpBinaryFlushPolicy {
    fn kind(&self) -> FetchPolicyKind {
        FetchPolicyKind::MlpBinaryFlush
    }

    fn fetch_priority(&mut self, snapshot: &SmtSnapshot, priority: &mut Vec<ThreadId>) {
        let pending = &self.pending_no_mlp;
        gated_icount_order(snapshot, |t| !pending[t.index()].is_empty(), priority);
    }

    fn on_long_latency_detected(
        &mut self,
        thread: ThreadId,
        _pc: u64,
        seq: SeqNum,
        latest_fetched_seq: SeqNum,
        _predicted_mlp_distance: u32,
        predicted_has_mlp: bool,
    ) -> Option<FlushRequest> {
        if predicted_has_mlp {
            // MLP expected: keep fetching past long-latency loads under ICOUNT.
            return None;
        }
        self.pending_no_mlp[thread.index()].insert(seq.0);
        if latest_fetched_seq > seq {
            Some(FlushRequest {
                thread,
                keep_up_to: seq,
            })
        } else {
            None
        }
    }

    fn on_long_latency_resolved(&mut self, thread: ThreadId, seq: SeqNum) {
        self.pending_no_mlp[thread.index()].remove(&seq.0);
    }

    fn on_squash(&mut self, thread: ThreadId, keep_up_to: SeqNum) {
        self.pending_no_mlp[thread.index()].retain(|&s| s <= keep_up_to.0); // analyze: allow(determinism) reason="retain/min/max over a hash set is order-independent: the predicate and fold are commutative"
    }
}

/// Per-thread state for the flush-at-resource-stall variants.
#[derive(Clone, Debug, Default)]
struct StallFlushState {
    latest_fetched: u64,
    /// Unresolved triggering loads, keyed by sequence number.
    pending: HashSet<u64>,
    /// Fetch allowance (`trigger + predicted distance`), when distance bounded.
    allowed_until: Option<u64>,
    /// Whether the thread was already flushed for the current stall episode.
    flushed_this_episode: bool,
}

impl StallFlushState {
    fn oldest_pending(&self) -> Option<u64> {
        self.pending.iter().copied().min() // analyze: allow(determinism) reason="retain/min/max over a hash set is order-independent: the predicate and fold are commutative"
    }

    fn gated(&self, outstanding_lll: u32, distance_bounded: bool) -> bool {
        if self.pending.is_empty() && outstanding_lll == 0 {
            return false;
        }
        if !distance_bounded {
            // Binary variant: only gated while a no-MLP trigger or post-stall flush
            // is outstanding, which is tracked through `allowed_until == Some(0)`.
            return match self.allowed_until {
                Some(limit) => self.latest_fetched >= limit,
                None => false,
            };
        }
        match self.allowed_until {
            Some(limit) => self.latest_fetched >= limit,
            None => !self.pending.is_empty() || outstanding_lll > 0,
        }
    }

    fn clear_if_idle(&mut self, outstanding_lll: u32) {
        if self.pending.is_empty() && outstanding_lll == 0 {
            self.allowed_until = None;
            self.flushed_this_episode = false;
        }
    }
}

/// Alternative (d): MLP-distance-bounded fetch, with a flush past the triggering
/// load only when the machine reaches a resource stall.
#[derive(Clone, Debug)]
pub struct MlpDistanceFlushAtStallPolicy {
    threads: Vec<StallFlushState>,
}

impl MlpDistanceFlushAtStallPolicy {
    /// Creates the policy for `num_threads` hardware threads.
    pub fn new(num_threads: usize) -> Self {
        MlpDistanceFlushAtStallPolicy {
            threads: vec![StallFlushState::default(); num_threads],
        }
    }
}

impl FetchPolicy for MlpDistanceFlushAtStallPolicy {
    fn kind(&self) -> FetchPolicyKind {
        FetchPolicyKind::MlpDistanceFlushAtStall
    }

    fn fetch_priority(&mut self, snapshot: &SmtSnapshot, priority: &mut Vec<ThreadId>) {
        for (i, s) in self.threads.iter_mut().enumerate() {
            s.clear_if_idle(snapshot.threads[i].outstanding_long_latency_loads);
        }
        let threads = &self.threads;
        gated_icount_order(
            snapshot,
            |t| threads[t.index()].gated(snapshot.thread(t).outstanding_long_latency_loads, true),
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
        state.latest_fetched = state.latest_fetched.max(latest_fetched_seq.0);
        let bound = seq.0 + predicted_mlp_distance as u64;
        state.allowed_until = Some(state.allowed_until.map_or(bound, |c| c.max(bound)));
        // No immediate flush: the surplus (if any) is only reclaimed on a resource stall.
        None
    }

    fn on_long_latency_resolved(&mut self, thread: ThreadId, seq: SeqNum) {
        self.threads[thread.index()].pending.remove(&seq.0);
    }

    fn on_resource_stall(&mut self, snapshot: &SmtSnapshot, flushes: &mut Vec<FlushRequest>) {
        stall_flush_requests(&mut self.threads, snapshot, flushes);
    }

    fn on_squash(&mut self, thread: ThreadId, keep_up_to: SeqNum) {
        let state = &mut self.threads[thread.index()];
        state.pending.retain(|&s| s <= keep_up_to.0); // analyze: allow(determinism) reason="retain/min/max over a hash set is order-independent: the predicate and fold are commutative"
        state.latest_fetched = state.latest_fetched.min(keep_up_to.0);
    }
}

/// Appends one flush request per thread that has an unresolved trigger and has
/// not been flushed in the current stall episode (shared by alternatives (d)
/// and (e)).
fn stall_flush_requests(
    threads: &mut [StallFlushState],
    snapshot: &SmtSnapshot,
    flushes: &mut Vec<FlushRequest>,
) {
    for (i, state) in threads.iter_mut().enumerate() {
        if state.flushed_this_episode {
            continue;
        }
        if snapshot.threads[i].outstanding_long_latency_loads == 0 {
            continue;
        }
        if let Some(oldest) = state.oldest_pending() {
            state.flushed_this_episode = true;
            state.allowed_until = Some(oldest);
            state.latest_fetched = state.latest_fetched.min(oldest);
            flushes.push(FlushRequest {
                thread: ThreadId::new(i),
                keep_up_to: SeqNum(oldest),
            });
        }
    }
}

/// Alternative (e): binary MLP prediction + flush at resource stall.
#[derive(Clone, Debug)]
pub struct MlpBinaryFlushAtStallPolicy {
    threads: Vec<StallFlushState>,
}

impl MlpBinaryFlushAtStallPolicy {
    /// Creates the policy for `num_threads` hardware threads.
    pub fn new(num_threads: usize) -> Self {
        MlpBinaryFlushAtStallPolicy {
            threads: vec![StallFlushState::default(); num_threads],
        }
    }
}

impl FetchPolicy for MlpBinaryFlushAtStallPolicy {
    fn kind(&self) -> FetchPolicyKind {
        FetchPolicyKind::MlpBinaryFlushAtStall
    }

    fn fetch_priority(&mut self, snapshot: &SmtSnapshot, priority: &mut Vec<ThreadId>) {
        for (i, s) in self.threads.iter_mut().enumerate() {
            s.clear_if_idle(snapshot.threads[i].outstanding_long_latency_loads);
        }
        let threads = &self.threads;
        gated_icount_order(
            snapshot,
            |t| threads[t.index()].gated(snapshot.thread(t).outstanding_long_latency_loads, false),
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
        _predicted_mlp_distance: u32,
        predicted_has_mlp: bool,
    ) -> Option<FlushRequest> {
        let state = &mut self.threads[thread.index()];
        state.pending.insert(seq.0);
        state.latest_fetched = state.latest_fetched.max(latest_fetched_seq.0);
        if predicted_has_mlp {
            // Keep fetching past the load — even past the last load of the burst,
            // which is why this variant suffers more resource-stall flushes.
            return None;
        }
        state.allowed_until = Some(seq.0);
        if latest_fetched_seq > seq {
            state.latest_fetched = seq.0;
            Some(FlushRequest {
                thread,
                keep_up_to: seq,
            })
        } else {
            None
        }
    }

    fn on_long_latency_resolved(&mut self, thread: ThreadId, seq: SeqNum) {
        self.threads[thread.index()].pending.remove(&seq.0);
    }

    fn on_resource_stall(&mut self, snapshot: &SmtSnapshot, flushes: &mut Vec<FlushRequest>) {
        stall_flush_requests(&mut self.threads, snapshot, flushes);
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
    use crate::testing::{fetch_priority_vec, on_resource_stall_vec};

    #[test]
    fn binary_flush_ignores_loads_with_predicted_mlp() {
        let mut p = MlpBinaryFlushPolicy::new(2);
        let t0 = ThreadId::new(0);
        assert!(p
            .on_long_latency_detected(t0, 0x40, SeqNum(10), SeqNum(50), 30, true)
            .is_none());
        let s = SmtSnapshot::new(2);
        assert!(fetch_priority_vec(&mut p, &s).contains(&t0));
    }

    #[test]
    fn binary_flush_flushes_and_gates_isolated_loads() {
        let mut p = MlpBinaryFlushPolicy::new(2);
        let t0 = ThreadId::new(0);
        let req = p
            .on_long_latency_detected(t0, 0x40, SeqNum(10), SeqNum(50), 0, false)
            .expect("flush expected");
        assert_eq!(req.keep_up_to, SeqNum(10));
        let s = SmtSnapshot::new(2);
        assert!(!fetch_priority_vec(&mut p, &s).contains(&t0));
        p.on_long_latency_resolved(t0, SeqNum(10));
        assert!(fetch_priority_vec(&mut p, &s).contains(&t0));
    }

    #[test]
    fn distance_flush_at_stall_never_flushes_immediately() {
        let mut p = MlpDistanceFlushAtStallPolicy::new(2);
        let t0 = ThreadId::new(0);
        assert!(p
            .on_long_latency_detected(t0, 0x40, SeqNum(100), SeqNum(180), 8, true)
            .is_none());
    }

    #[test]
    fn distance_flush_at_stall_flushes_past_trigger_on_resource_stall() {
        let mut p = MlpDistanceFlushAtStallPolicy::new(2);
        let t0 = ThreadId::new(0);
        let _ = p.on_long_latency_detected(t0, 0x40, SeqNum(100), SeqNum(130), 8, true);
        let mut s = SmtSnapshot::new(2);
        s.threads[0].outstanding_long_latency_loads = 1;
        s.threads[0].oldest_lll_cycle = Some(1);
        let reqs = on_resource_stall_vec(&mut p, &s);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].keep_up_to, SeqNum(100));
        // Only one flush per stall episode.
        assert!(on_resource_stall_vec(&mut p, &s).is_empty());
        // After the load resolves the episode resets.
        p.on_long_latency_resolved(t0, SeqNum(100));
        s.threads[0].outstanding_long_latency_loads = 0;
        let _ = fetch_priority_vec(&mut p, &s);
        let _ = p.on_long_latency_detected(t0, 0x44, SeqNum(300), SeqNum(310), 4, true);
        s.threads[0].outstanding_long_latency_loads = 1;
        assert_eq!(on_resource_stall_vec(&mut p, &s).len(), 1);
    }

    #[test]
    fn distance_flush_at_stall_gates_past_allowance() {
        let mut p = MlpDistanceFlushAtStallPolicy::new(2);
        let t0 = ThreadId::new(0);
        let mut s = SmtSnapshot::new(2);
        s.threads[0].outstanding_long_latency_loads = 1;
        s.threads[0].oldest_lll_cycle = Some(1);
        let _ = p.on_long_latency_detected(t0, 0x40, SeqNum(100), SeqNum(100), 6, true);
        p.on_fetch(t0, SeqNum(103));
        assert!(fetch_priority_vec(&mut p, &s).contains(&t0));
        p.on_fetch(t0, SeqNum(106));
        assert!(!fetch_priority_vec(&mut p, &s).contains(&t0));
    }

    #[test]
    fn binary_flush_at_stall_keeps_fetching_with_mlp() {
        let mut p = MlpBinaryFlushAtStallPolicy::new(2);
        let t0 = ThreadId::new(0);
        let mut s = SmtSnapshot::new(2);
        s.threads[0].outstanding_long_latency_loads = 1;
        s.threads[0].oldest_lll_cycle = Some(1);
        assert!(p
            .on_long_latency_detected(t0, 0x40, SeqNum(100), SeqNum(120), 0, true)
            .is_none());
        // MLP predicted: no gating even with the load outstanding.
        assert!(fetch_priority_vec(&mut p, &s).contains(&t0));
        // A resource stall reclaims the resources.
        let reqs = on_resource_stall_vec(&mut p, &s);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].keep_up_to, SeqNum(100));
        // After the flush the thread is gated at the trigger until resolution.
        assert!(!fetch_priority_vec(&mut p, &s).contains(&t0));
    }

    #[test]
    fn squash_clears_alternative_policy_state() {
        let mut p = MlpBinaryFlushAtStallPolicy::new(2);
        let t0 = ThreadId::new(0);
        let _ = p.on_long_latency_detected(t0, 0x40, SeqNum(100), SeqNum(120), 0, false);
        p.on_squash(t0, SeqNum(50));
        let s = SmtSnapshot::new(2);
        assert!(fetch_priority_vec(&mut p, &s).contains(&t0));
    }
}
