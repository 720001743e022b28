//! Model-based tests for the struct-of-arrays instruction window: a naive
//! `VecDeque`-of-structs reference model is driven through random
//! fetch/dispatch/issue/complete/commit/squash/fast-forward sequences in
//! lockstep with [`OpWindow`], asserting identical observable state after
//! every step. The model recomputes readiness from scratch, so every step
//! also checks that the window's event-driven ready set is exactly the
//! dispatched, unissued instructions whose operands are available — across
//! squashes of linked consumers, producers with more consumers than their
//! link column holds, and slots reused across the ring wrap.
//!
//! The model keeps squashed instructions in a separate FIFO re-fetch queue;
//! the window rewinds instead and re-arms them in place. Every re-fetch, and
//! every pending op a fast-forward consumes from an empty window, must match
//! the model's queue entry, first-fetch branch bits included. A deterministic
//! squash-at-wraparound regression test pins the ring buffer.

use std::collections::VecDeque;

use proptest::prelude::*;

use smt_core::pipeline::window::{OpWindow, CONSUMER_LINKS, NO_DEP};
use smt_types::{OpFlags, TraceOp};

/// The naive all-in-one-struct reference entry (what the pre-SoA pipeline kept
/// in its `VecDeque<InFlight>`).
#[derive(Clone, Debug)]
struct RefEntry {
    seq: u64,
    op: TraceOp,
    frontend_ready_at: u64,
    done_at: u64,
    dispatched: bool,
    issued: bool,
    completed: bool,
    mispredicted: bool,
    predicted_taken: bool,
    src_dep_offsets: [u32; 2],
}

/// A squashed instruction in the model's re-fetch queue, with the branch
/// bits of its first fetch.
#[derive(Clone, Copy, Debug)]
struct RefRefetch {
    op: TraceOp,
    mispredicted: bool,
    predicted_taken: bool,
}

/// Reference model: program-order deque with front-to-back scans everywhere.
#[derive(Default)]
struct RefWindow {
    entries: VecDeque<RefEntry>,
    /// Squashed instructions awaiting re-fetch, oldest first.
    refetch: VecDeque<RefRefetch>,
    /// `(slot_id, seq)` handles of recently issued entries, as completion
    /// events carry them; squashed or committed ones must stop resolving.
    handles: VecDeque<(u16, u64)>,
}

impl RefWindow {
    fn first_undispatched_index(&self) -> usize {
        self.entries
            .iter()
            .position(|e| !e.dispatched)
            .unwrap_or(self.entries.len())
    }

    fn deps_ready(&self, idx: usize) -> bool {
        self.entries[idx].src_dep_offsets.iter().all(|&offset| {
            offset == NO_DEP
                || (offset as usize) > idx
                || self.entries[idx - offset as usize].completed
        })
    }

    fn resolve_dep_offsets(&self, idx: usize) -> [u32; 2] {
        let e = &self.entries[idx];
        let mut offsets = [NO_DEP; 2];
        for (out, dep) in offsets.iter_mut().zip(e.op.src_deps) {
            let Some(distance) = dep else { continue };
            if (distance as u64) >= e.seq {
                continue;
            }
            let producer_seq = e.seq - distance as u64;
            // Naive linear search, front to back.
            if let Some(pos) = self.entries.iter().position(|p| p.seq == producer_seq) {
                *out = (idx - pos) as u32;
            }
        }
        offsets
    }

    /// The ready set: dispatched, unissued, operands ready — in program
    /// order.
    fn ready(&self) -> Vec<u32> {
        (0..self.first_undispatched_index())
            .filter(|&i| !self.entries[i].issued && self.deps_ready(i))
            .map(|i| i as u32)
            .collect()
    }
}

/// Asserts that every observable column of `w` matches the reference deque.
fn assert_same_state(w: &OpWindow, r: &RefWindow) {
    assert_eq!(w.len(), r.entries.len());
    assert_eq!(w.is_empty(), r.entries.is_empty());
    assert_eq!(w.refetch_pending(), r.refetch.len());
    assert_eq!(w.first_undispatched_index(), r.first_undispatched_index());
    let mut ready = Vec::new();
    w.collect_ready(&mut ready);
    assert_eq!(ready, r.ready(), "ready set diverged");
    assert_eq!(w.has_ready(), !ready.is_empty());
    for &(slot, seq) in &r.handles {
        let expect = r.entries.iter().position(|e| e.seq == seq);
        assert_eq!(w.index_of_slot(slot, seq), expect, "slot handle of {seq}");
    }
    for (i, e) in r.entries.iter().enumerate() {
        assert_eq!(w.seq_at(i), e.seq, "seq at {i}");
        assert_eq!(w.op_at(i), e.op, "op at {i}");
        assert_eq!(w.frontend_ready_at(i), e.frontend_ready_at, "ready at {i}");
        assert_eq!(w.done_at(i), e.done_at, "done_at at {i}");
        assert_eq!(w.src_dep_offsets_at(i), e.src_dep_offsets, "deps at {i}");
        let f = w.flags_at(i);
        assert_eq!(f.dispatched(), e.dispatched, "dispatched at {i}");
        assert_eq!(f.issued(), e.issued, "issued at {i}");
        assert_eq!(f.completed(), e.completed, "completed at {i}");
        assert_eq!(f.mispredicted(), e.mispredicted, "mispredicted at {i}");
        assert_eq!(f.predicted_taken(), e.predicted_taken, "ptaken at {i}");
        assert_eq!(w.deps_ready(i), r.deps_ready(i), "deps_ready at {i}");
        assert_eq!(
            w.is_ready(i),
            e.dispatched && !e.issued && r.deps_ready(i),
            "ready bit at {i}"
        );
        assert_eq!(
            w.position_of_seq(e.seq),
            Some(i),
            "position_of_seq {}",
            e.seq
        );
    }
}

/// One scripted action of the random driver. The parameter selects among the
/// currently legal targets, so every generated sequence is valid by
/// construction.
#[derive(Clone, Copy, Debug)]
enum Action {
    Fetch,
    Dispatch,
    Issue(u64),
    Complete(u64),
    Commit(u64),
    Squash(u64),
    /// Functional fast-forward of an empty window: consume pending
    /// re-fetches without re-entering them.
    FastForward(u64),
}

fn action(kind: u64, param: u64) -> Action {
    match kind % 7 {
        0 => Action::Fetch,
        1 => Action::Dispatch,
        2 => Action::Issue(param),
        3 => Action::Complete(param),
        4 => Action::Commit(param),
        5 => Action::Squash(param),
        _ => Action::FastForward(param),
    }
}

fn action_strategy() -> impl Strategy<Value = Action> {
    (0u64..7, any::<u64>()).prop_map(|(kind, param)| action(kind, param))
}

/// A deterministic little op generator so dependence resolution is exercised
/// with realistic producer distances. Every op in the second half of a 16-op
/// block reads op 8 of the block in place of any second operand, which makes
/// op 8 a producer with more consumers than its link column holds.
fn op_for(seq: u64) -> TraceOp {
    let pc = 0x1000 + 4 * seq;
    let op = match seq % 4 {
        0 => TraceOp::int_alu(pc).with_dep((seq % 3 + 1) as u32),
        1 => TraceOp::load(pc, 0x100 * seq).with_dep((seq % 5 + 1) as u32),
        2 => TraceOp::branch(pc, seq.is_multiple_of(2), pc + 0x40),
        _ => TraceOp::int_alu(pc)
            .with_dep(1)
            .with_dep((seq % 7 + 2) as u32),
    };
    let in_block = seq % 16;
    if in_block > 8 {
        let mut op = op;
        op.src_deps[1] = None;
        op.with_dep((in_block - 8) as u32)
    } else {
        op
    }
}

/// How often a run hit the edge cases of the consumer links.
#[derive(Default, Debug)]
struct Coverage {
    /// Completions of a producer with more waiting consumers than
    /// `CONSUMER_LINKS`.
    overflowing_producers: u64,
    /// Squashes that removed a consumer still linked to a surviving producer.
    squashed_live_links: u64,
    /// Fetches into a ring that has wrapped, right after such a squash: the
    /// new op reuses the slot a stale link points at.
    reused_linked_slots: u64,
    /// Set by a squash of a linked consumer, cleared by the next fetch.
    stale_link_pending: bool,
    /// Re-fetches re-armed in place.
    rearms: u64,
    /// Squashes that hit while earlier squashed ops still awaited re-fetch.
    nested_squashes: u64,
    /// Squashes whose range held both dispatched and undispatched ops.
    mixed_squashes: u64,
    /// Pending re-fetches a fast-forward consumed from an empty window.
    fast_forwarded_pending: u64,
}

/// Whether the dispatched, unissued entry `idx` waits on the producer at
/// `producer`.
fn waits_on(r: &RefWindow, idx: usize, producer: usize) -> bool {
    let e = &r.entries[idx];
    e.dispatched
        && !e.issued
        && e.src_dep_offsets
            .iter()
            .any(|&o| o != NO_DEP && o as usize <= idx && idx - o as usize == producer)
}

fn apply(
    action: Action,
    w: &mut OpWindow,
    r: &mut RefWindow,
    next_seq: &mut u64,
    cov: &mut Coverage,
) {
    match action {
        Action::Fetch => {
            // Keep the window smaller than its (tiny) capacity so the ring
            // wraps many times per run.
            if r.refetch.is_empty() && w.len() == w.capacity() {
                return;
            }
            let seq = *next_seq;
            *next_seq += 1;
            if cov.stale_link_pending && seq > w.capacity() as u64 {
                cov.reused_linked_slots += 1;
            }
            cov.stale_link_pending = false;
            let ready_at = seq % 17;
            if let Some(entry) = r.refetch.pop_front() {
                cov.rearms += 1;
                let flags = w.rearm(seq, ready_at);
                assert_eq!(w.op_at(w.len() - 1), entry.op, "re-armed op of {seq}");
                assert_eq!(flags.mispredicted(), entry.mispredicted);
                assert_eq!(flags.predicted_taken(), entry.predicted_taken);
                r.entries.push_back(RefEntry {
                    seq,
                    op: entry.op,
                    frontend_ready_at: ready_at,
                    done_at: u64::MAX,
                    dispatched: false,
                    issued: false,
                    completed: false,
                    mispredicted: entry.mispredicted,
                    predicted_taken: entry.predicted_taken,
                    src_dep_offsets: [NO_DEP; 2],
                });
                return;
            }
            let op = op_for(seq);
            let mut flags = OpFlags::default();
            flags.set_mispredicted(seq.is_multiple_of(11));
            flags.set_predicted_taken(seq.is_multiple_of(5));
            w.push_back(seq, op, ready_at, flags);
            r.entries.push_back(RefEntry {
                seq,
                op,
                frontend_ready_at: ready_at,
                done_at: u64::MAX,
                dispatched: false,
                issued: false,
                completed: false,
                mispredicted: seq.is_multiple_of(11),
                predicted_taken: seq.is_multiple_of(5),
                src_dep_offsets: [NO_DEP; 2],
            });
        }
        Action::Dispatch => {
            let idx = r.first_undispatched_index();
            if idx == r.entries.len() {
                return;
            }
            let expect = r.resolve_dep_offsets(idx);
            w.mark_dispatched(idx);
            assert_eq!(
                w.src_dep_offsets_at(idx),
                expect,
                "dep resolution diverged at {idx}"
            );
            let e = &mut r.entries[idx];
            e.src_dep_offsets = expect;
            e.dispatched = true;
        }
        Action::Issue(param) => {
            let expect = r.ready();
            let mut got = Vec::new();
            w.collect_ready(&mut got);
            assert_eq!(got, expect, "ready set diverged");
            if expect.is_empty() {
                return;
            }
            let idx = expect[(param % expect.len() as u64) as usize] as usize;
            if r.handles.len() == 32 {
                r.handles.pop_front();
            }
            r.handles.push_back((w.slot_id(idx), r.entries[idx].seq));
            w.mark_issued(idx);
            w.set_done_at(idx, param % 1024);
            let e = &mut r.entries[idx];
            e.issued = true;
            e.done_at = param % 1024;
        }
        Action::Complete(param) => {
            let pending: Vec<usize> = (0..r.entries.len())
                .filter(|&i| r.entries[i].issued && !r.entries[i].completed)
                .collect();
            if pending.is_empty() {
                return;
            }
            let idx = pending[(param % pending.len() as u64) as usize];
            let seq = r.entries[idx].seq;
            assert_eq!(w.position_of_seq(seq), Some(idx));
            let waiting = (idx + 1..r.entries.len())
                .filter(|&j| waits_on(r, j, idx))
                .count();
            if waiting > CONSUMER_LINKS {
                cov.overflowing_producers += 1;
            }
            w.complete(idx);
            r.entries[idx].completed = true;
        }
        Action::Commit(param) => {
            let width = param % 4 + 1;
            for _ in 0..width {
                let Some(front) = r.entries.front() else {
                    break;
                };
                if !(front.dispatched && front.issued && front.completed) {
                    break;
                }
                assert!(w.flags_at(0).commit_ready());
                w.pop_front();
                r.entries.pop_front();
            }
        }
        Action::Squash(param) => {
            let len = r.entries.len();
            if len == 0 {
                return;
            }
            // Keep `kept` of the entries: possibly none, emptying the window.
            let kept = (param % (len as u64 + 1)) as usize;
            let keep_up_to = match kept {
                0 => r.entries[0].seq - 1,
                _ => r.entries[kept - 1].seq,
            };
            let linked = (kept..len)
                .any(|j| (0..kept).any(|p| !r.entries[p].completed && waits_on(r, j, p)));
            if linked {
                cov.squashed_live_links += 1;
                cov.stale_link_pending = true;
            }
            if kept < len && !r.refetch.is_empty() {
                cov.nested_squashes += 1;
            }
            if kept < len && r.entries[kept].dispatched && !r.entries[len - 1].dispatched {
                cov.mixed_squashes += 1;
            }
            let cut = w.index_after_seq(keep_up_to);
            assert_eq!(cut, kept, "squash point of {keep_up_to}");
            w.truncate(cut);
            while r.entries.len() > kept {
                let e = r.entries.pop_back().expect("non-empty");
                r.refetch.push_front(RefRefetch {
                    op: e.op,
                    mispredicted: e.mispredicted,
                    predicted_taken: e.predicted_taken,
                });
            }
        }
        Action::FastForward(param) => {
            if !r.entries.is_empty() {
                return;
            }
            for _ in 0..param % 4 + 1 {
                let got = w.pop_pending();
                let Some(entry) = r.refetch.pop_front() else {
                    assert!(got.is_none());
                    break;
                };
                cov.fast_forwarded_pending += 1;
                let (op, flags) = got.expect("a pending re-fetch");
                assert_eq!(op, entry.op);
                assert_eq!(flags.mispredicted(), entry.mispredicted);
                assert_eq!(flags.predicted_taken(), entry.predicted_taken);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SoA ring buffer and the naive deque-of-structs model agree on every
    /// observable after every random pipeline operation.
    #[test]
    fn op_window_matches_vecdeque_reference(
        actions in prop::collection::vec(action_strategy(), 1..600),
    ) {
        let (w, next_seq, _) = run_against_model(actions);
        prop_assert!(w.position_of_seq(next_seq).is_none());
    }
}

/// Drives a capacity-16 window and the model through `actions`, checking
/// them against each other after every step. With hundreds of operations the
/// ring wraps repeatedly and squashes regularly cross the wrap boundary.
fn run_against_model(actions: impl IntoIterator<Item = Action>) -> (OpWindow, u64, Coverage) {
    let mut w = OpWindow::new(16);
    let mut r = RefWindow::default();
    let mut next_seq = 1u64;
    let mut cov = Coverage::default();
    for action in actions {
        apply(action, &mut w, &mut r, &mut next_seq, &mut cov);
        assert_same_state(&w, &r);
    }
    (w, next_seq, cov)
}

/// The random op mix reaches every edge case of the consumer links: a
/// squash of a linked consumer, a producer whose consumers overflow its link
/// column, and a stale link whose slot the wrapped ring hands to a new op.
/// It reaches those of the rewind too.
#[test]
fn random_mix_covers_consumer_link_edge_cases() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let actions = (0..60_000).map(|_| {
        // xorshift64*: a fixed, dependency-free stream of actions.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let x = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        action(x, x >> 8)
    });
    let (_, _, cov) = run_against_model(actions);
    assert!(cov.overflowing_producers > 0, "{cov:?}");
    assert!(cov.squashed_live_links > 0, "{cov:?}");
    assert!(cov.reused_linked_slots > 0, "{cov:?}");
    // The rewind's own edge cases: re-fetch in place, a squash before the
    // previous one's re-fetches complete, a squash across the dispatch
    // cursor, and pending ops consumed from an empty window.
    assert!(cov.rearms > 0, "{cov:?}");
    assert!(cov.nested_squashes > 0, "{cov:?}");
    assert!(cov.mixed_squashes > 0, "{cov:?}");
    assert!(cov.fast_forwarded_pending > 0, "{cov:?}");
}

/// The ready walk that yields the issue candidates crosses 64-bit word
/// boundaries only in windows larger than one word; pin that path directly
/// with a production-sized (capacity 128) window, both head-aligned and with
/// the live region wrapping across the ring's end.
#[test]
fn issue_candidates_cross_bitmap_words() {
    for retire_first in [0usize, 100] {
        let mut w = OpWindow::new(128);
        let mut r = RefWindow::default();
        let mut next_seq = 1u64;
        let mut cov = Coverage::default();
        let mut step = |action, w: &mut OpWindow, r: &mut RefWindow| {
            apply(action, w, r, &mut next_seq, &mut cov);
        };
        // Optionally march the head forward so the live region starts at slot
        // 100 and wraps: fill, retire, then refill.
        for _ in 0..retire_first {
            step(Action::Fetch, &mut w, &mut r);
            step(Action::Dispatch, &mut w, &mut r);
            step(Action::Issue(0), &mut w, &mut r);
            step(Action::Complete(0), &mut w, &mut r);
            step(Action::Commit(0), &mut w, &mut r);
        }
        assert!(w.is_empty());
        // 120 in-flight entries spanning two (aligned) or three (wrapped)
        // bitmap words; dispatch everything, then issue a scattered subset so
        // ready bits survive in every word.
        for _ in 0..120 {
            step(Action::Fetch, &mut w, &mut r);
        }
        for _ in 0..120 {
            step(Action::Dispatch, &mut w, &mut r);
        }
        assert_eq!(w.len(), 120);
        for param in [0u64, 17, 63, 64, 65, 90, 118, 3, 77, 111, 40] {
            step(Action::Issue(param), &mut w, &mut r);
        }
        // Complete a few producers so woken consumers join the set too.
        for param in [0u64, 5, 9] {
            step(Action::Complete(param), &mut w, &mut r);
        }
        let expect = r.ready();
        assert!(!expect.is_empty());
        let mut got = Vec::new();
        w.collect_ready(&mut got);
        assert_eq!(got, expect, "retire_first={retire_first}");
        assert_same_state(&w, &r);
    }
}

/// Regression: squashing a suffix whose physical slots straddle the ring's
/// wrap point must leave exactly the kept prefix, with the dispatch cursor
/// clamped and the squashed slots out of the ready set.
#[test]
fn squash_across_ring_wraparound() {
    // Capacity 8. Fill, retire the first six, and refill: head sits at slot
    // 6, and the window's 8 entries occupy slots 6,7,0,1,2,3,4,5 — wrapping
    // physically.
    let mut w = OpWindow::new(8);
    for seq in 1..=8u64 {
        w.push_back(seq, TraceOp::int_alu(0x40 + seq), 0, OpFlags::default());
    }
    for i in 0..6 {
        w.mark_dispatched(i);
        w.mark_issued(i);
        w.complete(i);
    }
    for _ in 0..6 {
        w.pop_front();
    }
    for seq in 9..=14u64 {
        w.push_back(seq, TraceOp::int_alu(0x40 + seq), 0, OpFlags::default());
    }
    assert_eq!(w.len(), 8);
    // Dispatch and issue a few of the survivors so the squash crosses the
    // dispatch cursor, ready slots and the wrap boundary.
    for i in 0..5 {
        w.mark_dispatched(i);
    }
    w.mark_issued(0);
    w.mark_issued(2);

    // Squash everything younger than seq 9: removes seqs 14..=10 whose slots
    // straddle the wrap point, in one step.
    w.truncate(w.index_after_seq(9));
    assert_eq!((w.len(), w.refetch_pending()), (3, 5));
    let seqs: Vec<u64> = (0..w.len()).map(|i| w.seq_at(i)).collect();
    assert_eq!(seqs, vec![7, 8, 9]);
    // The dispatch cursor was at 5 and clamps to 3; of the ready entries
    // (indices 1, 3, 4) only index 1 survives.
    assert_eq!(w.first_undispatched_index(), 3);
    let mut ready = Vec::new();
    w.collect_ready(&mut ready);
    assert_eq!(ready, vec![1]);
    assert_eq!(w.position_of_seq(9), Some(2));
    assert_eq!(w.position_of_seq(10), None);

    // The squashed ops re-fetch in place, in order, across the wrap again.
    for seq in 20..=24u64 {
        w.rearm(seq, 0);
    }
    assert_eq!((w.len(), w.refetch_pending()), (8, 0));
    assert_eq!(w.seq_at(3), 20);
    assert_eq!(w.op_at(3), TraceOp::int_alu(0x40 + 10));
    assert_eq!(w.op_at(7), TraceOp::int_alu(0x40 + 14));
    assert_eq!(w.position_of_seq(24), Some(7));
    for i in 3..8 {
        w.mark_dispatched(i);
    }
    ready.clear();
    w.collect_ready(&mut ready);
    assert_eq!(ready, vec![1, 3, 4, 5, 6, 7]);
}
