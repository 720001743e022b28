//! Unit tests of the paper's `MlpStall` and `MlpFlush` long-latency kinds.

mod tests {
    use crate::testing::*;

    #[test]
    fn mlp_stall_allows_fetch_up_to_predicted_distance() {
        let mut p = LongLatencyPolicy::new(K::MlpStall, 2);
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
        let mut p = LongLatencyPolicy::new(K::MlpStall, 2);
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
        let mut p = LongLatencyPolicy::new(K::MlpFlush, 2);
        let t0 = ThreadId::new(0);
        // 60 instructions were fetched past the load but the MLP distance is 20.
        let req = p
            .on_long_latency_detected(t0, 0x40, SeqNum(100), SeqNum(160), 20, true)
            .expect("surplus should be flushed");
        assert_eq!(req.keep_up_to, SeqNum(120));
        // With a distance larger than what was fetched, nothing is flushed.
        let mut p = LongLatencyPolicy::new(K::MlpFlush, 2);
        assert!(p
            .on_long_latency_detected(t0, 0x40, SeqNum(100), SeqNum(110), 20, true)
            .is_none());
    }

    #[test]
    fn mlp_flush_keeps_fetching_until_distance_then_gates() {
        let mut p = LongLatencyPolicy::new(K::MlpFlush, 2);
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
        let mut p = LongLatencyPolicy::new(K::MlpFlush, 2);
        let t0 = ThreadId::new(0);
        let req = p
            .on_long_latency_detected(t0, 0x40, SeqNum(200), SeqNum(230), 0, false)
            .expect("flush expected");
        assert_eq!(req.keep_up_to, SeqNum(200));
    }

    #[test]
    fn squash_rolls_back_state() {
        let mut p = LongLatencyPolicy::new(K::MlpFlush, 2);
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
        let mut p = LongLatencyPolicy::new(K::MlpFlush, 2);
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
