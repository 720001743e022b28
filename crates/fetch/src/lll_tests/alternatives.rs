//! Unit tests of the Section 6.5 alternatives (c)–(e) of the long-latency policy.

mod tests {
    use crate::testing::*;

    #[test]
    fn binary_flush_ignores_loads_with_predicted_mlp() {
        let mut p = LongLatencyPolicy::new(K::MlpBinaryFlush, 2);
        let t0 = ThreadId::new(0);
        assert!(p
            .on_long_latency_detected(t0, 0x40, SeqNum(10), SeqNum(50), 30, true)
            .is_none());
        let s = SmtSnapshot::new(2);
        assert!(fetch_priority_vec(&mut p, &s).contains(&t0));
    }

    /// Alternative (c) is gated by its own no-MLP triggers only, not by
    /// other outstanding long-latency loads.
    #[test]
    fn binary_flush_gates_only_on_no_mlp_triggers() {
        let mut p = LongLatencyPolicy::new(K::MlpBinaryFlush, 2);
        let t0 = ThreadId::new(0);
        let mut s = SmtSnapshot::new(2);
        s.threads[0].outstanding_long_latency_loads = 1;
        s.threads[0].oldest_lll_cycle = Some(1);
        let _ = p.on_long_latency_detected(t0, 0x40, SeqNum(10), SeqNum(50), 30, true);
        assert!(fetch_priority_vec(&mut p, &s).contains(&t0));
    }

    #[test]
    fn binary_flush_flushes_and_gates_isolated_loads() {
        let mut p = LongLatencyPolicy::new(K::MlpBinaryFlush, 2);
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
        let mut p = LongLatencyPolicy::new(K::MlpDistanceFlushAtStall, 2);
        let t0 = ThreadId::new(0);
        assert!(p
            .on_long_latency_detected(t0, 0x40, SeqNum(100), SeqNum(180), 8, true)
            .is_none());
    }

    #[test]
    fn distance_flush_at_stall_flushes_past_trigger_on_resource_stall() {
        let mut p = LongLatencyPolicy::new(K::MlpDistanceFlushAtStall, 2);
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
        let mut p = LongLatencyPolicy::new(K::MlpDistanceFlushAtStall, 2);
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
        let mut p = LongLatencyPolicy::new(K::MlpBinaryFlushAtStall, 2);
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
        let mut p = LongLatencyPolicy::new(K::MlpBinaryFlushAtStall, 2);
        let t0 = ThreadId::new(0);
        let _ = p.on_long_latency_detected(t0, 0x40, SeqNum(100), SeqNum(120), 0, false);
        p.on_squash(t0, SeqNum(50));
        let s = SmtSnapshot::new(2);
        assert!(fetch_priority_vec(&mut p, &s).contains(&t0));
    }
}
