//! Unit tests of the `Stall` and `PredictiveStall` long-latency kinds.

mod tests {
    use crate::testing::*;

    #[test]
    fn detected_stall_gates_thread_with_outstanding_lll() {
        let mut p = LongLatencyPolicy::new(K::Stall, 2);
        let mut s = SmtSnapshot::new(2);
        s.threads[0].outstanding_long_latency_loads = 1;
        s.threads[0].oldest_lll_cycle = Some(10);
        let order = fetch_priority_vec(&mut p, &s);
        assert_eq!(order, vec![ThreadId::new(1)]);
    }

    #[test]
    fn detected_stall_ignores_predictions() {
        let mut p = LongLatencyPolicy::new(K::Stall, 2);
        p.on_load_predicted(ThreadId::new(0), 0x40, SeqNum(5), true, 10, true);
        let s = SmtSnapshot::new(2);
        assert_eq!(fetch_priority_vec(&mut p, &s).len(), 2);
    }

    #[test]
    fn predictive_stall_gates_on_prediction_until_hit() {
        let mut p = LongLatencyPolicy::new(K::PredictiveStall, 2);
        let s = SmtSnapshot::new(2);
        p.on_load_predicted(ThreadId::new(0), 0x40, SeqNum(5), true, 0, false);
        assert_eq!(fetch_priority_vec(&mut p, &s), vec![ThreadId::new(1)]);
        // The load turns out to be a hit: the thread resumes fetching.
        p.on_load_executed_hit(ThreadId::new(0), 0x40, SeqNum(5));
        assert_eq!(fetch_priority_vec(&mut p, &s).len(), 2);
    }

    #[test]
    fn predictive_stall_clears_on_resolution_and_squash() {
        let mut p = LongLatencyPolicy::new(K::PredictiveStall, 2);
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
        let mut p = LongLatencyPolicy::new(K::Stall, 2);
        let mut s = SmtSnapshot::new(2);
        for (i, t) in s.threads.iter_mut().enumerate() {
            t.outstanding_long_latency_loads = 1;
            t.oldest_lll_cycle = Some(100 - i as u64); // thread 1 stalled first
        }
        assert_eq!(fetch_priority_vec(&mut p, &s), vec![ThreadId::new(1)]);
    }

    #[test]
    fn kinds_and_names() {
        assert_eq!(LongLatencyPolicy::new(K::Stall, 2).kind(), K::Stall);
        assert_eq!(
            LongLatencyPolicy::new(K::PredictiveStall, 2).kind(),
            K::PredictiveStall
        );
    }
}
