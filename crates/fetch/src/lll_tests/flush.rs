//! Unit tests of the `Flush` long-latency kind.

mod tests {
    use crate::testing::*;

    #[test]
    fn flushes_everything_after_the_load() {
        let mut p = LongLatencyPolicy::new(K::Flush, 2);
        let req = p
            .on_long_latency_detected(ThreadId::new(0), 0x40, SeqNum(100), SeqNum(140), 57, true)
            .expect("flush expected");
        assert_eq!(req.thread, ThreadId::new(0));
        assert_eq!(req.keep_up_to, SeqNum(100));
    }

    #[test]
    fn no_flush_when_nothing_younger_was_fetched() {
        let mut p = LongLatencyPolicy::new(K::Flush, 2);
        assert!(p
            .on_long_latency_detected(ThreadId::new(0), 0x40, SeqNum(100), SeqNum(100), 0, false)
            .is_none());
    }

    #[test]
    fn gates_thread_with_outstanding_lll() {
        let mut p = LongLatencyPolicy::new(K::Flush, 2);
        let mut s = SmtSnapshot::new(2);
        s.threads[1].outstanding_long_latency_loads = 2;
        s.threads[1].oldest_lll_cycle = Some(5);
        assert_eq!(fetch_priority_vec(&mut p, &s), vec![ThreadId::new(0)]);
        assert_eq!(p.kind(), K::Flush);
    }

    /// `Flush` records no trigger, so a detection gates the thread only once
    /// the snapshot shows the load outstanding; `MlpFlush` records its
    /// trigger and gates at once.
    #[test]
    fn flush_gates_from_the_snapshot_but_mlp_flush_at_once() {
        let t0 = ThreadId::new(0);
        let mut s = SmtSnapshot::new(2);
        let mut flush = LongLatencyPolicy::new(K::Flush, 2);
        let mut mlp_flush = LongLatencyPolicy::new(K::MlpFlush, 2);
        for p in [&mut flush, &mut mlp_flush] {
            p.on_fetch(t0, SeqNum(100));
            assert!(p
                .on_long_latency_detected(t0, 0x40, SeqNum(100), SeqNum(100), 0, false)
                .is_none());
        }
        assert!(fetch_priority_vec(&mut flush, &s).contains(&t0));
        assert!(!fetch_priority_vec(&mut mlp_flush, &s).contains(&t0));
        // The next cycle's snapshot shows the load outstanding.
        s.threads[0].outstanding_long_latency_loads = 1;
        s.threads[0].oldest_lll_cycle = Some(1);
        assert!(!fetch_priority_vec(&mut flush, &s).contains(&t0));
        assert!(!fetch_priority_vec(&mut mlp_flush, &s).contains(&t0));
    }
}
