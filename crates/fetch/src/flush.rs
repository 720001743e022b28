//! The flush policy of Tullsen & Brown (2001): trigger on a detected long-latency
//! miss ("TM") and flush starting from the instruction after the load ("next").

use smt_types::config::FetchPolicyKind;
use smt_types::{SeqNum, SmtSnapshot, ThreadId};

use crate::policy::{gated_icount_order, FetchPolicy, FlushRequest};

/// Flush-on-long-latency-load policy.
///
/// When a load is detected to be an L3 / D-TLB miss, every younger instruction of
/// that thread is flushed from the pipeline (freeing its ROB/IQ/LSQ/register
/// resources for the other threads) and the thread stops fetching until the miss
/// resolves. Because the flush discards MLP that younger independent misses would
/// have exposed, this is the main baseline the MLP-aware policies improve on.
#[derive(Clone, Debug)]
pub struct FlushPolicy {
    num_threads: usize,
}

impl FlushPolicy {
    /// Creates the policy for `num_threads` hardware threads.
    pub fn new(num_threads: usize) -> Self {
        FlushPolicy { num_threads }
    }
}

impl FetchPolicy for FlushPolicy {
    fn kind(&self) -> FetchPolicyKind {
        FetchPolicyKind::Flush
    }

    fn fetch_priority(&mut self, snapshot: &SmtSnapshot, priority: &mut Vec<ThreadId>) {
        debug_assert_eq!(snapshot.num_threads(), self.num_threads);
        gated_icount_order(
            snapshot,
            |t| snapshot.thread(t).outstanding_long_latency_loads > 0,
            priority,
        );
    }

    fn on_long_latency_detected(
        &mut self,
        thread: ThreadId,
        _pc: u64,
        seq: SeqNum,
        latest_fetched_seq: SeqNum,
        _predicted_mlp_distance: u32,
        _predicted_has_mlp: bool,
    ) -> Option<FlushRequest> {
        if latest_fetched_seq > seq {
            Some(FlushRequest {
                thread,
                keep_up_to: seq,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::fetch_priority_vec;

    #[test]
    fn flushes_everything_after_the_load() {
        let mut p = FlushPolicy::new(2);
        let req = p
            .on_long_latency_detected(ThreadId::new(0), 0x40, SeqNum(100), SeqNum(140), 57, true)
            .expect("flush expected");
        assert_eq!(req.thread, ThreadId::new(0));
        assert_eq!(req.keep_up_to, SeqNum(100));
    }

    #[test]
    fn no_flush_when_nothing_younger_was_fetched() {
        let mut p = FlushPolicy::new(2);
        assert!(p
            .on_long_latency_detected(ThreadId::new(0), 0x40, SeqNum(100), SeqNum(100), 0, false)
            .is_none());
    }

    #[test]
    fn gates_thread_with_outstanding_lll() {
        let mut p = FlushPolicy::new(2);
        let mut s = SmtSnapshot::new(2);
        s.threads[1].outstanding_long_latency_loads = 2;
        s.threads[1].oldest_lll_cycle = Some(5);
        assert_eq!(fetch_priority_vec(&mut p, &s), vec![ThreadId::new(0)]);
        assert_eq!(p.kind(), FetchPolicyKind::Flush);
    }
}
