//! Next-event cycle skipping: after a *quiet* cycle — one in which no phase
//! changed any pipeline state — jump `cycle` straight to the next cycle in
//! which anything can happen, adding up the per-cycle counters the skipped
//! cycles would have incremented.
//!
//! A cycle is quiet when it saw no commit, no completion-event pop (stale
//! events included), no issue, dispatch or fetch, no flush or squash, no
//! store rejected by a full write buffer and no adaptive interval tick. Each
//! of those mutation points sets [`Core`]'s activity flag. After a quiet
//! cycle the machine state is the same at the start of the next cycle, so
//! that cycle is quiet too unless a time-driven condition comes due:
//!
//! * the oldest pending completion event (`done_at`);
//! * the first undispatched front-end op of a thread reaching
//!   `frontend_ready_at` (an op already past it is blocked by a resource,
//!   which only activity frees);
//! * the write buffer emptying, which [`Core::is_drained`] observes;
//! * the cycle whose end ticks the adaptive interval.
//!
//! Fetch policies see an identical snapshot in every skipped cycle, apart
//! from its `cycle` field, which the [`smt_fetch::FetchPolicy`] contract
//! forbids per-cycle queries to read. The skipped cycles therefore gate the
//! same threads the quiet cycle gated.
//!
//! Only the run loops that own a stop condition skip (through
//! [`Core::step_skipping_against`]); [`super::SmtSimulator::step`] and chip
//! stepping always advance exactly one cycle, which makes them the
//! non-skipping reference the equivalence tests compare against.

use std::cmp::Reverse;

use smt_mem::SharedLevel;
use smt_types::ThreadId;

use super::Core;

impl Core {
    /// Advances one cycle against `shared`; if the cycle was quiet, then
    /// jumps to the next cycle in which anything can happen, but never past
    /// `limit` (the caller's cycle cap). Callers must only pass a `limit`
    /// beyond which their loop would not step anyway.
    pub(crate) fn step_skipping_against<S: SharedLevel>(&mut self, shared: &mut S, limit: u64) {
        self.step_against(shared);
        if !self.busy {
            let target = self.next_event_cycle(limit);
            if target > self.cycle {
                self.skip_to(target);
            }
        }
    }

    /// The first cycle after a quiet cycle in which some phase may act,
    /// capped at `limit`.
    fn next_event_cycle(&self, limit: u64) -> u64 {
        let now = self.cycle;
        let mut next = limit;
        if let Some(&Reverse(event)) = self.completions.peek() {
            next = next.min(event.done_at);
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
        if let Some(adaptive) = &self.adaptive {
            // The tick runs at the end of the cycle before the boundary.
            next = next.min(adaptive.next_boundary() - 1);
        }
        next
    }

    /// Jumps from the cycle after a quiet one to `target`, accounting the
    /// skipped cycles exactly as stepping through them would have.
    fn skip_to(&mut self, target: u64) {
        let skipped = target - self.cycle;
        self.account_mlp(skipped);
        for ti in 0..self.threads.len() {
            if self.gated_mask & (1 << ti) != 0 {
                self.stats.thread_mut(ThreadId::new(ti)).fetch_gated_cycles += skipped;
            }
        }
        let num_threads = self.threads.len() as u64;
        self.rotate = ((self.rotate as u64 + skipped) % num_threads) as usize;
        self.cycle = target;
    }
}
