//! Stall-fetch policies: detected stall (Tullsen & Brown 2001) and predictive
//! stall (Cazorla et al. 2004a).

use std::collections::HashSet;

use smt_types::config::FetchPolicyKind;
use smt_types::{SeqNum, SmtSnapshot, ThreadId};

use crate::policy::{gated_icount_order, FetchPolicy};

/// Fetch-stall policy.
///
/// * In **detected** mode (Tullsen & Brown) a thread stops fetching as soon as one
///   of its loads is found to be an L3 / D-TLB miss, and resumes when all its
///   long-latency loads have returned.
/// * In **predictive** mode (Cazorla et al.) the thread additionally stops as soon
///   as a load is *predicted* to be long latency in the front end, which saves the
///   instructions that would otherwise be fetched while the load makes its way to
///   execute.
///
/// Both modes apply the continue-oldest-thread rule when every thread is stalled.
#[derive(Clone, Debug)]
pub struct StallPolicy {
    predictive: bool,
    /// Per thread: sequence numbers of loads predicted long-latency that have not
    /// yet executed or resolved (predictive mode only).
    pending_predicted: Vec<HashSet<u64>>,
}

impl StallPolicy {
    /// Stall on *detected* long-latency loads only.
    pub fn detected(num_threads: usize) -> Self {
        StallPolicy {
            predictive: false,
            pending_predicted: vec![HashSet::new(); num_threads],
        }
    }

    /// Stall on *predicted* long-latency loads (and on detected ones).
    pub fn predictive(num_threads: usize) -> Self {
        StallPolicy {
            predictive: true,
            pending_predicted: vec![HashSet::new(); num_threads],
        }
    }

    fn gated(&self, snapshot: &SmtSnapshot, thread: ThreadId) -> bool {
        snapshot.thread(thread).outstanding_long_latency_loads > 0
            || !self.pending_predicted[thread.index()].is_empty()
    }
}

impl FetchPolicy for StallPolicy {
    fn kind(&self) -> FetchPolicyKind {
        if self.predictive {
            FetchPolicyKind::PredictiveStall
        } else {
            FetchPolicyKind::Stall
        }
    }

    fn fetch_priority(&mut self, snapshot: &SmtSnapshot, priority: &mut Vec<ThreadId>) {
        gated_icount_order(snapshot, |t| self.gated(snapshot, t), priority);
    }

    fn on_load_predicted(
        &mut self,
        thread: ThreadId,
        _pc: u64,
        seq: SeqNum,
        predicted_long_latency: bool,
        _predicted_mlp_distance: u32,
        _predicted_has_mlp: bool,
    ) {
        if self.predictive && predicted_long_latency {
            self.pending_predicted[thread.index()].insert(seq.0);
        }
    }

    fn on_load_executed_hit(&mut self, thread: ThreadId, _pc: u64, seq: SeqNum) {
        self.pending_predicted[thread.index()].remove(&seq.0);
    }

    fn on_long_latency_resolved(&mut self, thread: ThreadId, seq: SeqNum) {
        self.pending_predicted[thread.index()].remove(&seq.0);
    }

    fn on_squash(&mut self, thread: ThreadId, keep_up_to: SeqNum) {
        self.pending_predicted[thread.index()].retain(|&s| s <= keep_up_to.0); // analyze: allow(determinism) reason="retain/min/max over a hash set is order-independent: the predicate and fold are commutative"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::fetch_priority_vec;

    #[test]
    fn detected_stall_gates_thread_with_outstanding_lll() {
        let mut p = StallPolicy::detected(2);
        let mut s = SmtSnapshot::new(2);
        s.threads[0].outstanding_long_latency_loads = 1;
        s.threads[0].oldest_lll_cycle = Some(10);
        let order = fetch_priority_vec(&mut p, &s);
        assert_eq!(order, vec![ThreadId::new(1)]);
    }

    #[test]
    fn detected_stall_ignores_predictions() {
        let mut p = StallPolicy::detected(2);
        p.on_load_predicted(ThreadId::new(0), 0x40, SeqNum(5), true, 10, true);
        let s = SmtSnapshot::new(2);
        assert_eq!(fetch_priority_vec(&mut p, &s).len(), 2);
    }

    #[test]
    fn predictive_stall_gates_on_prediction_until_hit() {
        let mut p = StallPolicy::predictive(2);
        let s = SmtSnapshot::new(2);
        p.on_load_predicted(ThreadId::new(0), 0x40, SeqNum(5), true, 0, false);
        assert_eq!(fetch_priority_vec(&mut p, &s), vec![ThreadId::new(1)]);
        // The load turns out to be a hit: the thread resumes fetching.
        p.on_load_executed_hit(ThreadId::new(0), 0x40, SeqNum(5));
        assert_eq!(fetch_priority_vec(&mut p, &s).len(), 2);
    }

    #[test]
    fn predictive_stall_clears_on_resolution_and_squash() {
        let mut p = StallPolicy::predictive(2);
        let s = SmtSnapshot::new(2);
        p.on_load_predicted(ThreadId::new(0), 0x40, SeqNum(5), true, 0, false);
        p.on_long_latency_resolved(ThreadId::new(0), SeqNum(5));
        assert_eq!(fetch_priority_vec(&mut p, &s).len(), 2);
        p.on_load_predicted(ThreadId::new(0), 0x44, SeqNum(9), true, 0, false);
        p.on_squash(ThreadId::new(0), SeqNum(7));
        assert_eq!(fetch_priority_vec(&mut p, &s).len(), 2);
    }

    #[test]
    fn cot_lets_oldest_thread_continue_when_all_stalled() {
        let mut p = StallPolicy::detected(2);
        let mut s = SmtSnapshot::new(2);
        for (i, t) in s.threads.iter_mut().enumerate() {
            t.outstanding_long_latency_loads = 1;
            t.oldest_lll_cycle = Some(100 - i as u64); // thread 1 stalled first
        }
        assert_eq!(fetch_priority_vec(&mut p, &s), vec![ThreadId::new(1)]);
    }

    #[test]
    fn kinds_and_names() {
        assert_eq!(StallPolicy::detected(2).kind(), FetchPolicyKind::Stall);
        assert_eq!(
            StallPolicy::predictive(2).kind(),
            FetchPolicyKind::PredictiveStall
        );
    }
}
