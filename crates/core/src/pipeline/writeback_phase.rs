//! Event-driven writeback: completion events pop from a min-heap instead of
//! the whole window being rescanned each cycle.

use std::cmp::Reverse;

use smt_types::{OpKind, SeqNum, ThreadId};

use super::squash::SquashCause;
use super::Core;

/// A scheduled execution-completion: instruction `seq` of `thread` finishes at
/// `done_at`. Events are popped from a min-heap when their cycle arrives;
/// events whose instruction was squashed in the meantime no longer match any
/// window entry (squashed instructions are re-fetched under fresh sequence
/// numbers) and are discarded on pop.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(super) struct CompletionEvent {
    pub(super) done_at: u64,
    pub(super) thread: u32,
    pub(super) seq: u64,
}

impl Core {
    /// Event-driven writeback: instead of rescanning every window entry each
    /// cycle, pop the completion events that are due from the min-heap. Events
    /// whose instruction was squashed while in flight find no matching sequence
    /// number (squashed instructions are re-fetched under fresh numbers) and
    /// are dropped.
    pub(super) fn writeback_phase(&mut self) {
        let cycle = self.cycle;
        self.mispredicts.fill(None);
        while let Some(&Reverse(event)) = self.completions.peek() {
            if event.done_at > cycle {
                break;
            }
            self.completions.pop();
            self.busy = true;
            let ti = event.thread as usize;
            let ctx = &mut self.threads[ti];
            let Some(idx) = ctx.window.position_of_seq(event.seq) else {
                // Stale event: the instruction was squashed after issuing.
                continue;
            };
            let flags = ctx.window.flags_at(idx);
            debug_assert!(
                flags.issued() && !flags.completed() && ctx.window.done_at(idx) == event.done_at
            );
            ctx.window.flags_mut(idx).set_completed(true);
            ctx.issue_idle = false;
            let seq = event.seq;
            let was_lll = flags.is_long_latency();
            let was_l1_miss = flags.l1_missed();
            let mispredicted_branch =
                ctx.window.op_at(idx).kind == OpKind::Branch && flags.mispredicted();
            if was_l1_miss && ctx.outstanding_l1d > 0 {
                ctx.outstanding_l1d -= 1;
            }
            if was_lll && ctx.outstanding_lll.remove(seq) {
                self.policy
                    .on_long_latency_resolved(ThreadId::new(ti), SeqNum(seq));
            }
            if mispredicted_branch {
                let oldest = &mut self.mispredicts[ti];
                *oldest = Some(oldest.map_or(seq, |s: u64| s.min(seq)));
            }
        }
        for ti in 0..self.threads.len() {
            if let Some(seq) = self.mispredicts[ti] {
                self.stats
                    .thread_mut(ThreadId::new(ti))
                    .branch_mispredictions += 1;
                self.squash(ti, seq, SquashCause::BranchMisprediction);
            }
        }
    }
}
