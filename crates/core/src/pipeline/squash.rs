//! Squash machinery: remove the youngest instructions of a thread (after a
//! branch misprediction or a fetch-policy flush) so they are fetched again.
//!
//! A squash rewinds the thread's window ([`OpWindow::truncate`]): the
//! squashed instructions stay in their slots from the new tail at
//! `head + len` on, where the next fetch re-arms them in place. Only the
//! dispatched ones hold back-end resources to release one by one; the
//! undispatched tail leaves the front end (and the ICOUNT) in one step.
//!
//! [`OpWindow::truncate`]: super::window::OpWindow::truncate

use smt_fetch::FlushRequest;
use smt_types::{SeqNum, ThreadId};

use super::Core;

/// Why a range of instructions was squashed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum SquashCause {
    BranchMisprediction,
    PolicyFlush,
}

impl Core {
    pub(super) fn apply_flush(&mut self, request: FlushRequest) {
        // A flush request is activity even when it squashes nothing: the
        // policy that emitted it may have changed its own state.
        self.busy = true;
        let ti = request.thread.index();
        if ti >= self.threads.len() {
            return;
        }
        let squashed = self.squash(ti, request.keep_up_to.0, SquashCause::PolicyFlush);
        if squashed > 0 {
            self.stats.thread_mut(request.thread).policy_flushes += 1;
        }
    }

    /// Removes every instruction of thread `ti` with a sequence number greater than
    /// `keep_up_to`, returning how many were squashed. Squashed operations wait
    /// in the window for re-fetch in program order.
    pub(super) fn squash(&mut self, ti: usize, keep_up_to: u64, cause: SquashCause) -> u64 {
        let ctx = &mut self.threads[ti];
        ctx.latest_fetched_seq = ctx.latest_fetched_seq.min(keep_up_to);
        let len = ctx.window.len();
        let cut = ctx.window.index_after_seq(keep_up_to);
        if cut == len {
            return 0;
        }
        // Everything from the dispatch cursor on sits in the front end.
        let dispatched_end = ctx.window.first_undispatched_index().max(cut);
        ctx.occ.frontend -= (len - dispatched_end) as u32;
        for index in (cut..dispatched_end).rev() {
            let flags = ctx.window.flags_at(index);
            self.totals.release_backend(&mut ctx.occ, flags);
            if !flags.issued() {
                self.totals.release_iq(&mut ctx.occ, flags);
            } else if !flags.completed() {
                if flags.is_long_latency() {
                    ctx.outstanding_lll.remove(ctx.window.seq_at(index));
                }
                if flags.l1_missed() && ctx.outstanding_l1d > 0 {
                    ctx.outstanding_l1d -= 1;
                }
            }
        }
        ctx.window.truncate(cut);
        let squashed = (len - cut) as u64;
        let thread_id = ThreadId::new(ti);
        let tstats = self.stats.thread_mut(thread_id);
        match cause {
            SquashCause::BranchMisprediction => tstats.squashed_by_branch += squashed,
            SquashCause::PolicyFlush => tstats.squashed_by_policy += squashed,
        }
        self.policy.on_squash(thread_id, SeqNum(keep_up_to));
        squashed
    }
}
