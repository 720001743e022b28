//! The long-latency-load fetch policies as one state machine: stall, predictive
//! stall and flush (Tullsen & Brown 2001; Cazorla et al. 2004a), the paper's
//! MLP-aware stall and flush (Section 4.3) and its Figure 19 alternatives (c)–(e).
//!
//! Each waits on a *triggering* long-latency load until it resolves: it lets the
//! thread fetch up to an *allowance* past the load, may flush what was fetched
//! beyond, and fetch gates the thread. The kinds differ along three axes:
//!
//! | [`FetchPolicyKind`](K) | recorded triggers | allowance past a trigger | flush |
//! |------|----------|-----------|-------|
//! | `Stall` | none | none | never |
//! | `PredictiveStall` | predicted loads | none | never |
//! | `Flush` | none | none | at detection, past the load |
//! | `MlpStall` | predicted loads | MLP distance | never |
//! | `MlpFlush` | detected loads | MLP distance | at detection, past the allowance |
//! | `MlpBinaryFlush` (c) | detected loads predicted to have no MLP | none | at detection, past the load |
//! | `MlpDistanceFlushAtStall` (d) | detected loads | MLP distance | at a resource stall |
//! | `MlpBinaryFlushAtStall` (e) | detected loads | zero if no MLP is predicted | at detection if no MLP is predicted; at a resource stall |
//!
//! A thread is *busy* while it has a recorded trigger or the cycle-start snapshot
//! shows a long-latency load outstanding. A busy thread is gated once it has
//! fetched up to its allowance, or at once without one (but see below).
//!
//! Everything else is shared: the allowance is cleared once a thread is no
//! longer busy; executed hits, resolutions and squashes drop triggers; a
//! flush-at-stall kind flushes a busy thread past its oldest trigger at most
//! once per stall episode; and every kind applies the continue-oldest-thread
//! rule through [`gated_icount_order`].
//!
//! Three consequences of the table are easy to miss:
//!
//! * `Stall` and `Flush` record nothing, so they gate from the cycle-start
//!   snapshot: a load detected this cycle gates the thread from the next
//!   cycle, not in the cycle's remaining fetch decisions.
//! * `MlpBinaryFlush` never has an allowance; it is gated exactly while one
//!   of its no-MLP triggers is pending, whatever else is outstanding.
//! * `MlpBinaryFlushAtStall` *sets* (not extends) its allowance for a no-MLP
//!   load, and a busy thread of it without an allowance keeps fetching.

use smt_types::config::FetchPolicyKind as K;
use smt_types::{SeqNum, SmtSnapshot, ThreadId};

use crate::policy::{gated_icount_order, FetchPolicy, FlushRequest};

/// Per-thread decision state.
#[derive(Clone, Debug, Default)]
struct ThreadState {
    /// Youngest sequence number fetched so far.
    latest_fetched: u64,
    /// Youngest sequence number the thread may fetch up to while it is busy.
    allowed_until: Option<u64>,
    /// Sequence numbers of the recorded triggers not yet resolved, executed
    /// as hits or squashed, ascending: the oldest is first and a squash cuts
    /// the tail.
    pending: Vec<u64>,
    /// Whether the thread was already flushed in the current stall episode.
    flushed_this_episode: bool,
}

impl ThreadState {
    fn busy(&self, outstanding_lll: u32) -> bool {
        !self.pending.is_empty() || outstanding_lll > 0
    }

    /// Records trigger `seq`; triggers mostly arrive in program order, so
    /// this is usually a push.
    fn record(&mut self, seq: u64) {
        match self.pending.last() {
            Some(&last) if last >= seq => {
                if let Err(pos) = self.pending.binary_search(&seq) {
                    self.pending.insert(pos, seq);
                }
            }
            _ => self.pending.push(seq),
        }
    }

    /// Drops trigger `seq` if it is recorded.
    fn drop_trigger(&mut self, seq: u64) {
        if let Ok(pos) = self.pending.binary_search(&seq) {
            self.pending.remove(pos);
        }
    }

    fn extend_allowance(&mut self, until: u64) {
        self.allowed_until = Some(self.allowed_until.map_or(until, |cur| cur.max(until)));
    }

    /// Requests a flush of everything past `keep` when more was fetched.
    fn flush_past(&mut self, thread: ThreadId, keep: u64, latest: u64) -> Option<FlushRequest> {
        if latest <= keep {
            return None;
        }
        self.latest_fetched = keep;
        Some(FlushRequest {
            thread,
            keep_up_to: SeqNum(keep),
        })
    }
}

/// The eight long-latency-load policies; `kind` selects the behaviour.
#[derive(Clone, Debug)]
pub(crate) struct LongLatencyPolicy {
    kind: K,
    threads: Vec<ThreadState>,
}

impl LongLatencyPolicy {
    /// Creates policy `kind` for `num_threads` hardware threads.
    pub(crate) fn new(kind: K, num_threads: usize) -> Self {
        LongLatencyPolicy {
            kind,
            threads: vec![ThreadState::default(); num_threads],
        }
    }

    fn gated(&self, thread: ThreadId, snapshot: &SmtSnapshot) -> bool {
        let state = &self.threads[thread.index()];
        if !state.busy(snapshot.thread(thread).outstanding_long_latency_loads) {
            return false;
        }
        match (state.allowed_until, self.kind) {
            (Some(limit), _) => state.latest_fetched >= limit,
            (None, K::MlpBinaryFlush) => !state.pending.is_empty(),
            (None, K::MlpBinaryFlushAtStall) => false,
            (None, _) => true,
        }
    }
}

impl FetchPolicy for LongLatencyPolicy {
    fn kind(&self) -> K {
        self.kind
    }

    fn fetch_priority(&mut self, snapshot: &SmtSnapshot, priority: &mut Vec<ThreadId>) {
        for (state, t) in self.threads.iter_mut().zip(&snapshot.threads) {
            if !state.busy(t.outstanding_long_latency_loads) {
                state.allowed_until = None;
                state.flushed_this_episode = false;
            }
        }
        gated_icount_order(snapshot, |t| self.gated(t, snapshot), priority);
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
        let state = &mut self.threads[thread.index()];
        match self.kind {
            _ if !predicted_long_latency => return,
            K::PredictiveStall => {}
            K::MlpStall => state.extend_allowance(seq.0 + u64::from(predicted_mlp_distance)),
            _ => return,
        }
        state.record(seq.0);
    }

    fn on_load_executed_hit(&mut self, thread: ThreadId, _pc: u64, seq: SeqNum) {
        self.threads[thread.index()].drop_trigger(seq.0);
    }

    fn on_long_latency_detected(
        &mut self,
        thread: ThreadId,
        _pc: u64,
        seq: SeqNum,
        latest_fetched_seq: SeqNum,
        predicted_mlp_distance: u32,
        predicted_has_mlp: bool,
    ) -> Option<FlushRequest> {
        let state = &mut self.threads[thread.index()];
        let (seq, latest) = (seq.0, latest_fetched_seq.0);
        let reach = seq + u64::from(predicted_mlp_distance);
        // The flush bound, if this detection flushes at all.
        let keep = match self.kind {
            K::Flush => return state.flush_past(thread, seq, latest),
            K::MlpFlush => {
                state.extend_allowance(reach);
                Some(reach)
            }
            K::MlpBinaryFlush if !predicted_has_mlp => Some(seq),
            K::MlpDistanceFlushAtStall => {
                state.extend_allowance(reach);
                None
            }
            K::MlpBinaryFlushAtStall if !predicted_has_mlp => {
                state.allowed_until = Some(seq);
                Some(seq)
            }
            K::MlpBinaryFlushAtStall => None,
            _ => return None,
        };
        state.record(seq);
        state.latest_fetched = state.latest_fetched.max(latest);
        state.flush_past(thread, keep?, latest)
    }

    fn on_long_latency_resolved(&mut self, thread: ThreadId, seq: SeqNum) {
        self.threads[thread.index()].drop_trigger(seq.0);
    }

    /// The two flush-at-stall kinds flush each thread with a long-latency
    /// load outstanding past its oldest trigger, once per stall episode.
    fn on_resource_stall(&mut self, snapshot: &SmtSnapshot, flushes: &mut Vec<FlushRequest>) {
        let (K::MlpDistanceFlushAtStall | K::MlpBinaryFlushAtStall) = self.kind else {
            return;
        };
        for (i, (state, t)) in self.threads.iter_mut().zip(&snapshot.threads).enumerate() {
            if state.flushed_this_episode || t.outstanding_long_latency_loads == 0 {
                continue;
            }
            let Some(&oldest) = state.pending.first() else {
                continue;
            };
            state.flushed_this_episode = true;
            state.allowed_until = Some(oldest);
            state.latest_fetched = state.latest_fetched.min(oldest);
            flushes.push(FlushRequest {
                thread: ThreadId::new(i),
                keep_up_to: SeqNum(oldest),
            });
        }
    }

    fn on_squash(&mut self, thread: ThreadId, keep_up_to: SeqNum) {
        let state = &mut self.threads[thread.index()];
        let kept = state.pending.partition_point(|&s| s <= keep_up_to.0);
        state.pending.truncate(kept);
        state.latest_fetched = state.latest_fetched.min(keep_up_to.0);
    }
}
