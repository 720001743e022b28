//! Per-thread pipeline state: the trace front end, the instruction window
//! with its ready set, occupancy counters and the per-thread predictors.
//!
//! Squashed instructions wait for re-fetch in the window, just past its tail
//! at `head + len` ([`OpWindow::refetch_pending`]); fetch, fast-forward and
//! skip take them before a fresh trace op.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use smt_branch::BranchPredictor;
use smt_predictors::{
    BinaryMlpPredictor, Llsr, LongLatencyPredictor, MissPatternPredictor, MlpDistancePredictor,
};
use smt_trace::TraceSource;
use smt_types::warm::{CheckpointError, Warm, WarmVisitor};
use smt_types::{SmtConfig, TraceOp};

use super::window::OpWindow;

/// How many trace operations one [`TraceSource::refill`] call pulls. The batch
/// amortizes the `Box<dyn TraceSource>` virtual call over ~64 fetched
/// instructions instead of paying it once per op.
pub(crate) const REFILL_BATCH: usize = 64;

/// A pending MLP-prediction evaluation: the prediction made when the load
/// executed, waiting for the LLSR to produce the actual MLP distance at
/// window exit.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub(super) struct PendingMlpEval {
    /// PC of the long-latency load awaiting its LLSR ground truth.
    pub pc: u64,
    /// The MLP distance predicted when the load was processed.
    pub predicted_distance: u32,
}

/// Occupancy counters for one thread (shared-resource accounting is the sum over
/// threads).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Occupancy {
    pub rob: u32,
    pub lsq: u32,
    pub iq_int: u32,
    pub iq_fp: u32,
    pub rename_int: u32,
    pub rename_fp: u32,
    /// Instructions fetched but not yet dispatched (front-end buffer occupancy).
    pub frontend: u32,
}

impl Occupancy {
    /// ICOUNT contribution: instructions fetched but not yet issued, in the
    /// front end or an issue queue.
    pub(super) fn icount(&self) -> u32 {
        self.frontend + self.iq_int + self.iq_fp
    }
}

/// The set of outstanding long-latency loads of one thread, as a flat
/// `(seq, detection_cycle)` vector. The set is tiny (bounded by the in-flight
/// misses the MSHRs allow), so linear search beats a hash map. The detection
/// cycle of the oldest entry is cached, so the per-cycle snapshot refresh
/// reads the continue-oldest-thread input in O(1); only removing the oldest
/// entry rescans. All queries are order-independent (membership, count,
/// minimum cycle), so the swap-remove keeps results deterministic.
#[derive(Clone, Debug, Default)]
pub(crate) struct OutstandingLll {
    entries: Vec<(u64, u64)>,
    /// Minimum detection cycle over `entries`, `None` when empty.
    oldest: Option<u64>,
}

impl OutstandingLll {
    /// Records the long-latency load `seq`, detected at `cycle`.
    pub(super) fn insert(&mut self, seq: u64, cycle: u64) {
        debug_assert!(self.entries.iter().all(|&(s, _)| s != seq));
        self.entries.push((seq, cycle));
        self.oldest = Some(self.oldest.map_or(cycle, |oldest| oldest.min(cycle)));
    }

    /// Removes the load `seq`; returns whether it was outstanding.
    pub(super) fn remove(&mut self, seq: u64) -> bool {
        match self.entries.iter().position(|&(s, _)| s == seq) {
            Some(pos) => {
                let (_, cycle) = self.entries.swap_remove(pos);
                if self.oldest == Some(cycle) {
                    self.oldest = self.scanned_min_cycle();
                }
                true
            }
            None => false,
        }
    }

    /// Number of outstanding long-latency loads.
    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Detection cycle of the oldest outstanding long-latency load, if any.
    pub(super) fn min_cycle(&self) -> Option<u64> {
        self.oldest
    }

    /// The minimum detection cycle recomputed from the entries: what the
    /// cached [`OutstandingLll::min_cycle`] must always equal.
    pub(super) fn scanned_min_cycle(&self) -> Option<u64> {
        self.entries.iter().map(|&(_, c)| c).min()
    }
}

/// All per-thread pipeline state.
pub(crate) struct ThreadContext {
    /// The workload being executed.
    pub trace: Box<dyn TraceSource>,
    /// Batched-refill buffer: trace ops pulled [`REFILL_BATCH`] at a time, so
    /// the trace object's virtual dispatch is paid once per batch.
    refill_buf: Vec<TraceOp>,
    /// Next unconsumed position in `refill_buf`.
    refill_pos: usize,
    /// In-flight instructions in program order (front-end buffer + ROB),
    /// followed by the squashed ones waiting for re-fetch.
    pub window: OpWindow,
    /// Next sequence number to assign at fetch.
    pub next_seq: u64,
    /// Youngest sequence number fetched so far.
    pub latest_fetched_seq: u64,
    /// Occupancy counters.
    pub occ: Occupancy,
    /// Committed instruction count.
    pub committed: u64,
    /// Outstanding long-latency loads: seq -> cycle at which the miss was detected.
    pub outstanding_lll: OutstandingLll,
    /// Outstanding L1 data-cache misses (count), the DCRA memory-intensity signal.
    pub outstanding_l1d: u32,
    /// Per-thread branch predictor.
    pub branch_predictor: BranchPredictor,
    /// Long-latency load predictor (miss pattern predictor).
    pub lll_predictor: MissPatternPredictor,
    /// MLP distance predictor.
    pub mlp_predictor: MlpDistancePredictor,
    /// Binary MLP predictor (Section 6.5 alternatives).
    pub binary_mlp_predictor: BinaryMlpPredictor,
    /// Long-latency shift register observing the commit stream.
    pub llsr: Llsr,
    /// Predictions awaiting their LLSR ground truth, in commit order.
    pub pending_mlp_evals: VecDeque<PendingMlpEval>,
}

impl ThreadContext {
    /// Creates the per-thread state for `config`, pulling instructions from `trace`.
    pub(super) fn new(config: &SmtConfig, trace: Box<dyn TraceSource>) -> Self {
        // The window holds the front-end buffer plus this thread's share of the
        // (machine-wide) ROB; a thread can transiently own the whole ROB.
        let window_capacity =
            (config.rob_size + config.frontend_depth * config.fetch_width) as usize;
        ThreadContext {
            trace,
            refill_buf: Vec::with_capacity(REFILL_BATCH),
            refill_pos: 0,
            window: OpWindow::new(window_capacity),
            next_seq: 1,
            latest_fetched_seq: 0,
            occ: Occupancy::default(),
            committed: 0,
            outstanding_lll: OutstandingLll::default(),
            outstanding_l1d: 0,
            branch_predictor: BranchPredictor::new(
                config.gshare_entries,
                config.btb_entries,
                config.btb_assoc,
            ),
            lll_predictor: MissPatternPredictor::new(config.lll_predictor_entries),
            mlp_predictor: MlpDistancePredictor::new(
                config.mlp_predictor_entries,
                config.llsr_length(),
            ),
            binary_mlp_predictor: BinaryMlpPredictor::new(config.mlp_predictor_entries),
            llsr: Llsr::new(config.llsr_length() as usize),
            pending_mlp_evals: VecDeque::new(),
        }
    }

    /// Next fresh instruction from the batched refill buffer (refilled from
    /// the trace source when drained). Pending re-fetches come first; this
    /// is only called once the window has none.
    pub(super) fn pull_op(&mut self) -> TraceOp {
        debug_assert_eq!(self.window.refetch_pending(), 0);
        if self.refill_pos == self.refill_buf.len() {
            self.refill_buf.clear();
            self.refill_pos = 0;
            self.trace.refill(&mut self.refill_buf, REFILL_BATCH);
            if self.refill_buf.is_empty() {
                // A `refill` override that under-delivers (trace sources are
                // infinite by contract, but a custom impl may not honour
                // that): fall back to the per-op path instead of indexing an
                // empty buffer. Engine-facing sources must never take this
                // path — it silently degrades every fetch to one virtual call
                // per op, defeating the batched-refill design.
                debug_assert!(
                    false,
                    "TraceSource::refill delivered no ops (source `{}`): engine-facing \
                     sources must honour the infinite-stream batch contract",
                    self.trace.name()
                );
                return self.trace.next_op();
            }
        }
        let op = self.refill_buf[self.refill_pos];
        self.refill_pos += 1;
        op
    }

    /// Discards the next `n` trace ops without touching any other state.
    ///
    /// Already-materialized ops go first — the window's pending re-fetches
    /// one at a time, then the unconsumed tail of the refill buffer in one
    /// step; the remainder is skipped in bulk through [`TraceSource::skip`],
    /// which is an O(1) seek for seekable sources (`FileTraceSource`) and a
    /// generate-and-discard loop for synthetic ones.
    pub(super) fn skip_ops(&mut self, n: u64) {
        let mut remaining = n;
        while remaining > 0 && self.window.pop_pending().is_some() {
            remaining -= 1;
        }
        let buffered = remaining.min((self.refill_buf.len() - self.refill_pos) as u64);
        self.refill_pos += buffered as usize;
        self.trace.skip(remaining - buffered);
    }

    /// The predictor front end consults for a load: returns
    /// `(predicted_long_latency, predicted_mlp_distance, predicted_has_mlp)`.
    pub(super) fn predict_load(&mut self, pc: u64) -> (bool, u32, bool) {
        let lll = self.lll_predictor.predict(pc);
        let distance = self.mlp_predictor.predict(pc);
        let has_mlp = self.binary_mlp_predictor.predict(pc);
        (lll, distance, has_mlp)
    }
}

/// A thread's warm state, at a fast-forward boundary where its window is
/// empty: the trace position, the ops pulled but not consumed, the
/// committed count, the predictors and the pending MLP evaluations.
impl Warm for ThreadContext {
    fn visit(&mut self, v: &mut impl WarmVisitor) {
        let live = self.trace.save_state();
        // analyze: allow(hot-path-alloc) reason="checkpoint capture and restore, once per warm prefix"
        let mut trace = live.clone();
        v.value("trace", &mut trace, |state| match (state, &live) {
            (Some(state), Some(live)) => state.fits(live),
            _ => Err(CheckpointError::new(
                "",
                "this trace source does not support checkpointing",
            )),
        });
        // Only a restore changes `trace`, and only to a state that fits the
        // live source's own, which the source accepts.
        if let Some(state) = trace.as_ref().filter(|_| trace != live) {
            self.trace
                .restore_state(state)
                .expect("a trace state that fits restores");
        }
        // Drop the consumed head: the unconsumed tail is the whole buffer.
        self.refill_buf.drain(..self.refill_pos);
        self.refill_pos = 0;
        v.value("pending_ops", &mut self.refill_buf, |ops| {
            if ops.len() > REFILL_BATCH {
                // analyze: allow(hot-path-alloc) reason="error construction on the validation failure path"
                let reason = format!("{} ops, a refill batch holds {REFILL_BATCH}", ops.len());
                return Err(CheckpointError::new("", reason));
            }
            match ops.iter().position(|op| !op.is_well_formed()) {
                // analyze: allow(hot-path-alloc) reason="error construction on the validation failure path"
                Some(i) => Err(CheckpointError::new(format!("[{i}]"), "malformed op")),
                None => Ok(()),
            }
        });
        v.scalar("committed", &mut self.committed);
        v.part("branch_predictor", &mut self.branch_predictor);
        v.part("lll_predictor", &mut self.lll_predictor);
        v.part("mlp_predictor", &mut self.mlp_predictor);
        v.part("binary_mlp_predictor", &mut self.binary_mlp_predictor);
        v.part("llsr", &mut self.llsr);
        v.value("pending_mlp_evals", &mut self.pending_mlp_evals, |_| Ok(()));
    }
}

#[cfg(test)]
mod tests {
    use super::OutstandingLll;

    fn assert_cached(lll: &OutstandingLll, expect: Option<u64>) {
        assert_eq!(lll.min_cycle(), expect);
        assert_eq!(lll.scanned_min_cycle(), expect);
    }

    #[test]
    fn cached_oldest_cycle_tracks_removals_and_older_inserts() {
        let mut lll = OutstandingLll::default();
        assert_cached(&lll, None);
        for (seq, cycle) in [(1, 30), (2, 10), (3, 20), (4, 40)] {
            lll.insert(seq, cycle);
        }
        assert_cached(&lll, Some(10));
        // The oldest entry goes: the cache falls back to the next oldest.
        assert!(lll.remove(2));
        assert_cached(&lll, Some(20));
        // A middle entry goes: the oldest stays.
        assert!(lll.remove(1));
        assert_cached(&lll, Some(20));
        // Not outstanding: nothing changes.
        assert!(!lll.remove(2));
        assert_cached(&lll, Some(20));
        // The last entry goes: the oldest stays.
        assert!(lll.remove(4));
        assert_cached(&lll, Some(20));
        // An older insert becomes the oldest.
        lll.insert(5, 5);
        assert_cached(&lll, Some(5));
        assert!(lll.remove(3));
        assert!(lll.remove(5));
        assert_cached(&lll, None);
        assert_eq!(lll.len(), 0);
    }
}
