//! The [`FetchPolicy`] trait and shared helpers.

use smt_types::config::{FetchPolicyKind, SmtConfig};
use smt_types::{SeqNum, SmtSnapshot, ThreadId};

/// A request by the fetch policy to squash the youngest instructions of a thread.
///
/// Every in-flight instruction of `thread` with a sequence number strictly greater
/// than `keep_up_to` is removed from the pipeline and will be refetched later.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlushRequest {
    /// Thread to flush.
    pub thread: ThreadId,
    /// Youngest sequence number to keep.
    pub keep_up_to: SeqNum,
}

/// Per-thread occupancy caps imposed by explicit resource-management policies.
///
/// `None` in a field means "no cap" for that resource.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ResourceCaps {
    /// Maximum reorder-buffer entries the thread may occupy.
    pub rob: Option<u32>,
    /// Maximum load/store-queue entries.
    pub lsq: Option<u32>,
    /// Maximum integer issue-queue entries.
    pub iq_int: Option<u32>,
    /// Maximum floating-point issue-queue entries.
    pub iq_fp: Option<u32>,
    /// Maximum integer rename registers.
    pub rename_int: Option<u32>,
    /// Maximum floating-point rename registers.
    pub rename_fp: Option<u32>,
}

/// The interface between the SMT pipeline and a fetch policy.
///
/// The pipeline owns all predictors (long-latency load predictor, MLP distance
/// predictor, LLSR); policies receive the relevant predictions inside the event
/// callbacks and only keep the decision state they need. All callbacks have no-op
/// defaults so simple policies (ICOUNT) only implement [`fetch_priority`].
///
/// The per-cycle queries ([`fetch_priority`], [`on_resource_stall`],
/// [`resource_caps`]) write into caller-provided scratch buffers instead of
/// returning fresh allocations, so the pipeline's steady state is
/// allocation-free. Within one cycle the pipeline may deliver per-thread
/// callbacks in any thread order; policies must not rely on cross-thread
/// ordering.
///
/// # Cycle-skipping contract
///
/// The pipeline jumps over *quiet* cycles, in which nothing commits, issues,
/// dispatches, fetches, completes or flushes, without calling the policy
/// (see `smt_core::pipeline`). The skipped cycles must behave as the quiet
/// cycle did. The snapshot has no cycle field, so no per-cycle query can see
/// which cycle it is. Every policy must also satisfy two rules:
///
/// * for an unchanged snapshot, per-cycle queries are idempotent: a second
///   call returns the same answer and leaves the same state as the first;
/// * beyond that, policy state changes only in the event callbacks (the
///   `on_*` methods other than [`on_resource_stall`]) or in a query that
///   emits a flush request.
///
/// All built-in policies satisfy these rules.
///
/// [`fetch_priority`]: FetchPolicy::fetch_priority
/// [`on_resource_stall`]: FetchPolicy::on_resource_stall
/// [`resource_caps`]: FetchPolicy::resource_caps
pub trait FetchPolicy: Send {
    /// Which policy this is (used for reporting).
    fn kind(&self) -> FetchPolicyKind;

    /// Writes the threads allowed to fetch this cycle into `priority`,
    /// most-preferred first (clearing whatever the buffer held). Threads not in
    /// the list are fetch gated this cycle.
    fn fetch_priority(&mut self, snapshot: &SmtSnapshot, priority: &mut Vec<ThreadId>);

    /// `thread` fetched a group of instructions, the youngest of which has
    /// sequence number `seq`. The pipeline calls this once per thread per
    /// fetch group, after the whole group is in the window, with that
    /// youngest seq only: a policy learns the thread's fetch frontier, not
    /// how many instructions reached it.
    fn on_fetch(&mut self, thread: ThreadId, seq: SeqNum) {
        let _ = (thread, seq);
    }

    /// A load reached the front-end predictors. `predicted_long_latency` is the
    /// miss-pattern predictor's verdict; `predicted_mlp_distance` /
    /// `predicted_has_mlp` come from the MLP predictors.
    fn on_load_predicted(
        &mut self,
        thread: ThreadId,
        pc: u64,
        seq: SeqNum,
        predicted_long_latency: bool,
        predicted_mlp_distance: u32,
        predicted_has_mlp: bool,
    ) {
        let _ = (
            thread,
            pc,
            seq,
            predicted_long_latency,
            predicted_mlp_distance,
            predicted_has_mlp,
        );
    }

    /// A load executed and turned out *not* to be long latency.
    fn on_load_executed_hit(&mut self, thread: ThreadId, pc: u64, seq: SeqNum) {
        let _ = (thread, pc, seq);
    }

    /// A long-latency load (L3 or D-TLB miss) was detected at execute.
    ///
    /// `latest_fetched_seq` is the youngest instruction fetched so far for the
    /// thread, which flush-style policies compare against `seq +
    /// predicted_mlp_distance` to decide whether to flush. Returns an optional
    /// flush request.
    fn on_long_latency_detected(
        &mut self,
        thread: ThreadId,
        pc: u64,
        seq: SeqNum,
        latest_fetched_seq: SeqNum,
        predicted_mlp_distance: u32,
        predicted_has_mlp: bool,
    ) -> Option<FlushRequest> {
        let _ = (
            thread,
            pc,
            seq,
            latest_fetched_seq,
            predicted_mlp_distance,
            predicted_has_mlp,
        );
        None
    }

    /// The data of a previously detected long-latency load returned from memory.
    fn on_long_latency_resolved(&mut self, thread: ThreadId, seq: SeqNum) {
        let _ = (thread, seq);
    }

    /// Dispatch was blocked this cycle because a shared resource (ROB, issue queue,
    /// LSQ or rename registers) is exhausted. Flush-at-resource-stall policies
    /// append their flush requests to `flushes` (the caller clears the buffer
    /// beforehand); others leave it untouched.
    fn on_resource_stall(&mut self, snapshot: &SmtSnapshot, flushes: &mut Vec<FlushRequest>) {
        let _ = (snapshot, flushes);
    }

    /// Instructions of `thread` younger than `keep_up_to` were squashed (by a
    /// branch misprediction or a policy flush); policies drop any per-seq state.
    fn on_squash(&mut self, thread: ThreadId, keep_up_to: SeqNum) {
        let _ = (thread, keep_up_to);
    }

    /// Per-thread occupancy caps for explicit resource management policies.
    ///
    /// `caps` is a scratch slice with one entry per hardware thread, reset to
    /// [`ResourceCaps::default`] (no caps) by the caller each cycle. Policies
    /// that manage resources overwrite the entries and return `true`; the
    /// default implementation returns `false`, meaning no caps apply.
    fn resource_caps(
        &mut self,
        snapshot: &SmtSnapshot,
        config: &SmtConfig,
        caps: &mut [ResourceCaps],
    ) -> bool {
        let _ = (snapshot, config, caps);
        false
    }

    /// Human-readable policy name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }
}

/// Writes all threads into `order`, sorted by ascending ICOUNT (ties broken by
/// thread id) — the ICOUNT 2.4 priority rule every policy falls back to. The
/// buffer is cleared first and reused across cycles by the pipeline.
pub fn icount_order(snapshot: &SmtSnapshot, order: &mut Vec<ThreadId>) {
    icount_order_except(snapshot, 0, order);
}

/// Applies gating with the continue-oldest-thread exemption: writes the ICOUNT
/// ordering of threads into `order`, with gated threads removed — unless *every*
/// thread is both gated and stalled on a long-latency load, in which case
/// the thread whose long-latency load is oldest is re-admitted (COT, Cazorla et
/// al. 2004a).
///
/// `gated` is evaluated exactly once per thread per call, in thread-id order.
pub fn gated_icount_order(
    snapshot: &SmtSnapshot,
    gated: impl Fn(ThreadId) -> bool,
    order: &mut Vec<ThreadId>,
) {
    let n = snapshot.num_threads();
    let mut mask: u64 = 0;
    for t in ThreadId::all(n) {
        mask |= u64::from(gated(t)) << t.index();
    }
    if mask.count_ones() as usize != n {
        return icount_order_except(snapshot, mask, order);
    }
    // Nothing is allowed: re-admit the continue-oldest thread when every
    // thread is memory-stalled; otherwise fall back to plain ICOUNT so the
    // machine never deadlocks.
    let cot = snapshot
        .oldest_memory_stalled_thread()
        .filter(|_| snapshot.all_threads_stalled_on_memory());
    match cot {
        Some(cot) => {
            order.clear();
            order.push(cot);
        }
        None => icount_order_except(snapshot, 0, order),
    }
}

/// Clears `order` and writes the threads outside `excluded` (bit per thread)
/// into it by ascending `(icount, thread id)`. Each thread's key packs both
/// into one integer, `icount * MAX_THREADS + id`; the keys are unique, so an
/// insertion sort over them gives exactly the stable sort by `(icount, id)`.
fn icount_order_except(snapshot: &SmtSnapshot, excluded: u64, order: &mut Vec<ThreadId>) {
    const MAX: u64 = ThreadId::MAX_THREADS as u64;
    let mut keys = [0u64; ThreadId::MAX_THREADS];
    for (i, t) in snapshot.threads.iter().enumerate() {
        let key = u64::from(t.icount) * MAX + i as u64;
        let mut j = i;
        while j > 0 && keys[j - 1] > key {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = key;
    }
    order.clear();
    for &key in &keys[..snapshot.num_threads()] {
        let i = (key % MAX) as usize;
        if excluded & (1 << i) == 0 {
            order.push(ThreadId::new(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use smt_types::ThreadSnapshot;

    use super::*;

    /// The closure-sorted ICOUNT order the integer-keyed one replaced: the
    /// reference the equivalence property compares against.
    fn reference_icount_order(snapshot: &SmtSnapshot, order: &mut Vec<ThreadId>) {
        order.clear();
        order.extend(ThreadId::all(snapshot.num_threads()));
        order.sort_by_key(|t| (snapshot.thread(*t).icount, t.index()));
    }

    /// The two-pass gated order (`any`, then `retain`, then COT) the one-pass
    /// mask replaced.
    fn reference_gated_icount_order(
        snapshot: &SmtSnapshot,
        gated: impl Fn(ThreadId) -> bool,
        order: &mut Vec<ThreadId>,
    ) {
        reference_icount_order(snapshot, order);
        if order.iter().any(|&t| !gated(t)) {
            order.retain(|&t| !gated(t));
            return;
        }
        if snapshot.all_threads_stalled_on_memory() {
            if let Some(cot) = snapshot.oldest_memory_stalled_thread() {
                order.clear();
                order.push(cot);
            }
        }
    }

    /// One generated thread: icount (0..4 forces ties), outstanding
    /// long-latency loads (0..3) and the oldest one's detection cycle.
    fn arbitrary_thread() -> impl Strategy<Value = ThreadSnapshot> {
        (0u32..4, 0u32..3, 0u64..6).prop_map(|(icount, lll, oldest)| ThreadSnapshot {
            icount,
            outstanding_long_latency_loads: lll,
            outstanding_l1d_misses: 0,
            oldest_lll_cycle: (lll > 0).then_some(oldest),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The integer-keyed order and the one-pass gate give exactly the
        /// reference output, for every thread count, gate mask and COT input.
        /// `all_gated` forces the COT path and `all_stalled` every thread to
        /// be memory-stalled, so both branches of the all-gated case are hit.
        #[test]
        fn orders_match_reference(
            threads in prop::collection::vec(arbitrary_thread(), 1..9),
            mask in any::<u8>(),
            all_gated in any::<bool>(),
            all_stalled in any::<bool>(),
            stall_cycles in prop::collection::vec(0u64..6, 8..9),
        ) {
            let mut s = SmtSnapshot { threads };
            if all_stalled {
                for (t, &c) in s.threads.iter_mut().zip(&stall_cycles) {
                    t.outstanding_long_latency_loads = t.outstanding_long_latency_loads.max(1);
                    t.oldest_lll_cycle = Some(t.oldest_lll_cycle.unwrap_or(c));
                }
            }
            let mask = if all_gated { u8::MAX } else { mask };
            let gated = |t: ThreadId| mask & (1 << t.index()) != 0;

            let (mut expect, mut got) = (Vec::new(), vec![ThreadId::new(0); 3]);
            reference_icount_order(&s, &mut expect);
            icount_order(&s, &mut got);
            prop_assert_eq!(&got, &expect);

            reference_gated_icount_order(&s, gated, &mut expect);
            gated_icount_order(&s, gated, &mut got);
            prop_assert_eq!(&got, &expect);
        }
    }

    fn snapshot_with_icounts(icounts: &[u32]) -> SmtSnapshot {
        let mut s = SmtSnapshot::new(icounts.len());
        for (i, &c) in icounts.iter().enumerate() {
            s.threads[i].icount = c;
        }
        s
    }

    fn icount_order_vec(s: &SmtSnapshot) -> Vec<ThreadId> {
        let mut order = Vec::new();
        icount_order(s, &mut order);
        order
    }

    fn gated_order_vec(s: &SmtSnapshot, gated: impl Fn(ThreadId) -> bool) -> Vec<ThreadId> {
        let mut order = Vec::new();
        gated_icount_order(s, gated, &mut order);
        order
    }

    #[test]
    fn gate_is_evaluated_once_per_thread() {
        let s = snapshot_with_icounts(&[3, 1, 2, 0]);
        let calls = std::cell::RefCell::new(Vec::new());
        let mut order = Vec::new();
        let gated = |t: ThreadId| {
            calls.borrow_mut().push(t.index());
            t.index() == 3
        };
        gated_icount_order(&s, gated, &mut order);
        assert_eq!(
            order,
            vec![ThreadId::new(1), ThreadId::new(2), ThreadId::new(0)]
        );
        assert_eq!(*calls.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn icount_order_prefers_emptier_threads() {
        let s = snapshot_with_icounts(&[10, 3, 7]);
        let order = icount_order_vec(&s);
        assert_eq!(
            order.iter().map(|t| t.index()).collect::<Vec<_>>(),
            vec![1, 2, 0]
        );
    }

    #[test]
    fn icount_order_breaks_ties_by_id() {
        let s = snapshot_with_icounts(&[5, 5]);
        let order = icount_order_vec(&s);
        assert_eq!(order[0].index(), 0);
    }

    #[test]
    fn order_buffers_are_cleared_on_reuse() {
        // The pipeline hands the same scratch buffer in every cycle; stale
        // contents must never leak into the new ordering.
        let s = snapshot_with_icounts(&[5, 2]);
        let mut order = vec![ThreadId::new(0); 7];
        icount_order(&s, &mut order);
        assert_eq!(order.len(), 2);
        order.push(ThreadId::new(0));
        gated_icount_order(&s, |_| false, &mut order);
        assert_eq!(order.len(), 2);
        assert_eq!(order[0].index(), 1);
    }

    #[test]
    fn gating_removes_threads() {
        let s = snapshot_with_icounts(&[5, 2]);
        let order = gated_order_vec(&s, |t| t.index() == 1);
        assert_eq!(order.len(), 1);
        assert_eq!(order[0].index(), 0);
    }

    #[test]
    fn cot_readmits_oldest_stalled_thread_when_all_gated() {
        let mut s = snapshot_with_icounts(&[5, 2]);
        s.threads[0].outstanding_long_latency_loads = 1;
        s.threads[0].oldest_lll_cycle = Some(50);
        s.threads[1].outstanding_long_latency_loads = 1;
        s.threads[1].oldest_lll_cycle = Some(80);
        let order = gated_order_vec(&s, |_| true);
        assert_eq!(order, vec![ThreadId::new(0)]);
    }

    #[test]
    fn all_gated_without_memory_stall_falls_back_to_icount() {
        let s = snapshot_with_icounts(&[5, 2]);
        let order = gated_order_vec(&s, |_| true);
        assert_eq!(order.len(), 2);
        assert_eq!(order[0].index(), 1);
    }

    #[test]
    fn flush_request_and_caps_are_plain_data() {
        let r = FlushRequest {
            thread: ThreadId::new(1),
            keep_up_to: SeqNum(42),
        };
        assert_eq!(r.thread.index(), 1);
        let caps = ResourceCaps::default();
        assert!(caps.rob.is_none());
    }
}
