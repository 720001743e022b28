//! Event-driven writeback: completion events wait in a timing wheel and are
//! drained when their cycle arrives.
//!
//! The [`CompletionQueue`] has 64 one-cycle buckets, chained through a single
//! node slab with a free list, for the events due within 64 cycles of their
//! issue — every fixed-latency op and every cache hit. A small min-heap keeps
//! the events due later, which in practice are memory loads. A completion
//! marks its instruction completed and wakes the consumers waiting on it
//! ([`super::window::OpWindow::complete`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use smt_types::{OpKind, SeqNum, ThreadId};

use super::squash::SquashCause;
use super::Core;

/// A scheduled execution-completion: instruction `seq` of `thread`, in
/// window slot `slot`, finishes at `done_at`. Events whose instruction was
/// squashed in the meantime no longer match their slot (squashed
/// instructions are re-fetched under fresh sequence numbers) and are
/// discarded when they come due.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(super) struct CompletionEvent {
    pub(super) done_at: u64,
    pub(super) thread: u32,
    pub(super) seq: u64,
    pub(super) slot: u16,
}

/// One-cycle buckets in the wheel; an event due this many cycles or more
/// after it is scheduled goes to the far heap.
const WHEEL_SLOTS: u64 = 64;
/// End-of-chain marker of the node slab.
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    event: CompletionEvent,
    next: u32,
}

/// Pending completion events: a 64-bucket timing wheel for near events plus
/// a min-heap for far ones.
///
/// Every event is drained in exactly its `done_at` cycle: the core steps
/// every cycle that holds an event and never skips past one. So the wheel
/// holds only events due in `now..now + 64`, one cycle per bucket, and a
/// bucket's events share one `done_at`.
#[derive(Clone, Debug)]
pub(super) struct CompletionQueue {
    /// First node of each bucket's chain ([`NIL`] = empty).
    heads: [u32; WHEEL_SLOTS as usize],
    /// Bit `b` set while bucket `b` holds an event.
    occupied: u64,
    /// Node storage shared by every bucket.
    nodes: Vec<Node>,
    /// First free node of the slab ([`NIL`] = grow the slab).
    free: u32,
    /// Events due `WHEEL_SLOTS` or more cycles after they were scheduled.
    far: BinaryHeap<Reverse<CompletionEvent>>,
}

impl Default for CompletionQueue {
    fn default() -> Self {
        CompletionQueue {
            heads: [NIL; WHEEL_SLOTS as usize],
            occupied: 0,
            nodes: Vec::new(),
            free: NIL,
            far: BinaryHeap::new(),
        }
    }
}

impl CompletionQueue {
    /// Schedules `event`, issued in cycle `now`.
    pub(super) fn push(&mut self, event: CompletionEvent, now: u64) {
        debug_assert!(event.done_at > now, "an event completes after its issue");
        if event.done_at - now >= WHEEL_SLOTS {
            self.far.push(Reverse(event));
            return;
        }
        let bucket = (event.done_at % WHEEL_SLOTS) as usize;
        let node = Node {
            event,
            next: self.heads[bucket],
        };
        let id = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let id = self.free;
            self.free = self.nodes[id as usize].next;
            self.nodes[id as usize] = node;
            id
        };
        self.heads[bucket] = id;
        self.occupied |= 1 << bucket;
    }

    /// Moves every event due in cycle `now` into `out`, in `(thread, seq)`
    /// order — the order in which a `(done_at, thread, seq)` min-heap pops
    /// them.
    pub(super) fn drain_due(&mut self, now: u64, out: &mut Vec<CompletionEvent>) {
        let bucket = (now % WHEEL_SLOTS) as usize;
        let mut id = self.heads[bucket];
        while id != NIL {
            let node = self.nodes[id as usize];
            debug_assert_eq!(node.event.done_at, now, "a wheel event was skipped");
            out.push(node.event);
            self.nodes[id as usize].next = self.free;
            self.free = id;
            id = node.next;
        }
        self.heads[bucket] = NIL;
        self.occupied &= !(1 << bucket);
        while let Some(&Reverse(event)) = self.far.peek() {
            if event.done_at > now {
                break;
            }
            debug_assert_eq!(event.done_at, now, "a far event was skipped");
            self.far.pop();
            out.push(event);
        }
        out.sort_unstable_by_key(|e| (e.thread, e.seq));
    }

    /// The earliest cycle at or after `now` in which an event is due. Every
    /// pending event is due at or after `now`.
    pub(super) fn next_due(&self, now: u64) -> Option<u64> {
        let near = (self.occupied != 0).then(|| {
            // Bucket distances from `now`'s bucket, nearest in bit 0.
            let ahead = self.occupied.rotate_right((now % WHEEL_SLOTS) as u32);
            now + u64::from(ahead.trailing_zeros())
        });
        let far = self.far.peek().map(|&Reverse(e)| e.done_at);
        match (near, far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Whether no event is pending.
    pub(super) fn is_empty(&self) -> bool {
        self.occupied == 0 && self.far.is_empty()
    }
}

impl Core {
    /// Event-driven writeback: drain the completion events due this cycle.
    /// Events whose instruction was squashed while in flight no longer match
    /// their slot and are dropped.
    pub(super) fn writeback_phase(&mut self) {
        let cycle = self.cycle;
        self.mispredicts.fill(None);
        let mut due = std::mem::take(&mut self.due_completions);
        due.clear();
        self.completions.drain_due(cycle, &mut due);
        for &event in &due {
            self.busy = true;
            let ti = event.thread as usize;
            let ctx = &mut self.threads[ti];
            let Some(idx) = ctx.window.index_of_slot(event.slot, event.seq) else {
                // Stale event: the instruction was squashed after issuing.
                continue;
            };
            let flags = ctx.window.flags_at(idx);
            debug_assert!(
                flags.issued() && !flags.completed() && ctx.window.done_at(idx) == event.done_at
            );
            ctx.window.complete(idx);
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
        self.due_completions = due;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn event(done_at: u64, thread: u32, seq: u64) -> CompletionEvent {
        CompletionEvent {
            done_at,
            thread,
            seq,
            slot: 0,
        }
    }

    fn drain(q: &mut CompletionQueue, now: u64) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        q.drain_due(now, &mut out);
        out.iter().map(|e| (e.thread, e.seq)).collect()
    }

    #[test]
    fn same_cycle_events_pop_in_thread_then_seq_order() {
        let mut q = CompletionQueue::default();
        // Wheel and far heap mixed: the loads were issued long before.
        q.push(event(300, 1, 7), 299);
        q.push(event(300, 0, 9), 100);
        q.push(event(300, 0, 4), 299);
        q.push(event(300, 1, 2), 200);
        q.push(event(301, 0, 1), 299);
        assert_eq!(q.next_due(299), Some(300));
        assert!(drain(&mut q, 299).is_empty());
        assert_eq!(drain(&mut q, 300), vec![(0, 4), (0, 9), (1, 2), (1, 7)]);
        assert_eq!(q.next_due(301), Some(301));
        assert_eq!(drain(&mut q, 301), vec![(0, 1)]);
        assert!(q.is_empty());
        assert_eq!(q.next_due(302), None);
    }

    #[test]
    fn next_due_crosses_the_wheel_wrap() {
        let mut q = CompletionQueue::default();
        // `now` sits in bucket 60; the event's bucket (5) is behind it in the
        // ring but 9 cycles ahead in time.
        q.push(event(133, 0, 1), 120);
        assert_eq!(q.next_due(124), Some(133));
        // A later far event leaves the answer alone; an earlier wheel event
        // replaces it.
        q.push(event(500, 0, 2), 124);
        assert_eq!(q.next_due(124), Some(133));
        q.push(event(130, 0, 3), 124);
        assert_eq!(q.next_due(124), Some(130));
        assert_eq!(drain(&mut q, 130), vec![(0, 3)]);
        assert_eq!(drain(&mut q, 133), vec![(0, 1)]);
        assert_eq!(q.next_due(134), Some(500));
        assert_eq!(drain(&mut q, 500), vec![(0, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn drained_nodes_are_reused() {
        let mut q = CompletionQueue::default();
        for now in 0..1000u64 {
            q.push(event(now + 1 + now % 3, (now % 2) as u32, now), now);
            let _ = drain(&mut q, now);
        }
        // At most three events are ever in flight at once.
        assert!(q.nodes.len() <= 3, "slab grew to {}", q.nodes.len());
    }
}
