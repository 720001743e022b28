//! Next-event cycle skipping: after a *quiet* cycle — one in which no phase
//! changed any pipeline state — a core need not be stepped again until the
//! next cycle in which anything can happen; bringing it there adds up the
//! per-cycle counters the skipped cycles would have incremented.
//!
//! A cycle is quiet when it saw no commit, no completion-event pop (stale
//! events included), no issue, dispatch or fetch, no flush or squash, and
//! no store rejected by a full write buffer. Each of those mutation points
//! sets [`Core`]'s activity flag. After a quiet cycle the machine state is
//! the same at the start of the next cycle, so that cycle is quiet too
//! unless a time-driven condition comes due:
//!
//! * the earliest pending completion event: the next occupied bucket of the
//!   completion wheel, found with one `rotate_right`/`trailing_zeros`, or the
//!   top of the far-event heap;
//! * the first undispatched front-end op of a thread reaching
//!   `frontend_ready_at` (an op already past it is blocked by a resource,
//!   which only activity frees);
//! * the write buffer emptying, which [`Core::is_drained`] observes.
//!
//! Fetch policies see an identical snapshot in every skipped cycle, and the
//! [`smt_fetch::FetchPolicy`] contract makes their per-cycle queries
//! idempotent on it. The skipped cycles therefore gate the same threads the
//! quiet cycle gated.
//!
//! # One primitive, one run loop
//!
//! [`Core::step_to_next_event`] steps one cycle and returns the core's wake
//! cycle: the next cycle after a busy one, the next event after a quiet one.
//! [`Core::skip_to`] later brings the core from its last step up to any cycle
//! no later than that wake cycle. The one run loop that calls them is the
//! chip's ([`crate::chip::ChipSimulator`]); the single-core machine is a
//! one-core chip. The chip records each core's wake cycle and leaves the
//! core asleep while the other cores step; it calls `skip_to` when the chip
//! reaches the wake cycle, before it reads whether a core has drained, and
//! when the loop ends and every core is brought up to the chip cycle. When
//! every core sleeps, the chip cycle jumps to the earliest wake cycle.
//!
//! The awake cores of a chip cycle step directly against the chip's
//! [`smt_mem::SharedLlc`], one after another. A core may sleep while its
//! neighbours step because a quiet core has no dealings with the shared
//! level, and the shared level keeps no per-cycle state on a core's behalf:
//!
//! * commit, issue and fetch set the activity flag before they touch the
//!   shared level, so a quiet cycle makes no call into it, and the core's
//!   wake cycle is a function of core-local state alone;
//! * fills held during a cycle are installed when that cycle ends, so
//!   nothing a core requested waits for it to wake;
//! * LLC MSHR slots belong to a single `(core, thread)` requester and are
//!   retired lazily, on that requester's next request;
//! * the memory bus retires finished transfers with an idempotent `retain`
//!   at every cycle start, so skipped cycle starts leave nothing behind;
//! * LRU stamps are written only on an access.
//!
//! So a sleeping core wakes into the same state it would have reached by
//! stepping. [`crate::chip::ChipSimulator::step`] (and
//! [`super::SmtSimulator::step`], which calls it) always steps every core
//! for exactly one cycle, which makes it the non-skipping reference the
//! equivalence tests compare against.

use smt_mem::SharedLlc;

use super::Core;

impl Core {
    /// Advances one cycle against `shared` and returns the cycle in which the
    /// core must next be stepped: the very next cycle if this one was busy,
    /// else the next cycle in which anything can happen, but never past
    /// `limit` (the caller's cycle cap). Callers must only pass a `limit`
    /// beyond which their loop would not step anyway.
    pub(crate) fn step_to_next_event(&mut self, shared: &mut SharedLlc, limit: u64) -> u64 {
        self.step_against(shared);
        if self.busy {
            self.cycle
        } else {
            self.next_event_cycle(limit)
        }
    }

    /// The first cycle after a quiet cycle in which some phase may act,
    /// capped at `limit`.
    #[inline]
    fn next_event_cycle(&self, limit: u64) -> u64 {
        let now = self.cycle;
        let mut next = limit;
        if let Some(due) = self.completions.next_due(now) {
            next = next.min(due);
        }
        for ctx in &self.threads {
            if ctx.occ.frontend > 0 {
                let ready = ctx
                    .window
                    .frontend_ready_at(ctx.window.first_undispatched_index());
                // `ready == now` dispatches this very cycle.
                if ready >= now {
                    next = next.min(ready);
                }
            }
        }
        if let Some(done) = self.write_buffer.youngest_completion() {
            // `done == now`: the buffer is empty from this very cycle on.
            if done >= now {
                next = next.min(done);
            }
        }
        next.max(now)
    }

    /// Brings the core from its last step up to `target`, accounting the
    /// skipped cycles exactly as stepping through them would have. `target`
    /// must not lie past the wake cycle that step returned; a `target` equal
    /// to the current cycle is a no-op.
    #[inline]
    pub(crate) fn skip_to(&mut self, target: u64) {
        debug_assert!(target >= self.cycle, "a core never skips backwards");
        let skipped = target - self.cycle;
        if skipped == 0 {
            return;
        }
        debug_assert!(!self.busy, "only a quiet cycle may be skipped past");
        self.account_mlp(skipped);
        self.account_gated(skipped);
        let num_threads = self.threads.len() as u64;
        self.rotate = ((self.rotate as u64 + skipped) % num_threads) as usize;
        self.cycle = target;
    }
}
