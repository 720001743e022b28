//! Struct-of-arrays ring buffer holding one thread's in-flight instructions.
//!
//! The window replaces a `VecDeque` of ~100-byte AoS records with parallel
//! columns (sequence numbers, trace ops, timestamps, dependence offsets and one
//! packed [`OpFlags`] word per slot) over a fixed power-of-two ring, so each
//! pipeline phase streams only the columns it actually reads: commit tests one
//! `u16` per head entry, issue walks the ready bitmap, and writeback finds its
//! instruction with one probe of the `seq` column at the event's slot. A
//! first-undispatched cursor lets dispatch resume where it stopped.
//!
//! Readiness is event driven, as in the register update unit of
//! SimpleScalar's `sim-outorder`: an instruction becomes ready when its last
//! operand arrives and is never rescanned. A `ready` bitmap holds one bit per
//! slot, set exactly while the slot is dispatched, unissued and has both
//! source operands available. At dispatch, a slot whose producers have not
//! all completed links itself onto each such producer's consumer column;
//! [`OpWindow::complete`] re-checks the linked consumers. A producer with more
//! than [`CONSUMER_LINKS`] consumers rescans the dispatched slots younger than
//! itself instead. The re-check is idempotent, so links left behind by a
//! squash or a re-armed slot are harmless.
//!
//! A squash rewinds the window: the squashed instructions stay in their
//! slots just past the tail as its re-fetch queue. Commit moves `head` only
//! by shrinking `len`, so `head + len` — where the next fetch lands — is
//! always the oldest pending re-fetch, which [`OpWindow::rearm`] turns back
//! into a fetched instruction in place. `len + refetch_pending <= capacity`.
//!
//! Mutation is restricted to the pipeline-shaped operations — push or re-arm
//! at the back (fetch), dispatch, issue and complete in place, pop at the
//! front (commit), truncate at the back (squash) — which is what keeps the
//! dispatch-time dependence offsets, the dispatch cursor and the ready set
//! consistent.

use smt_types::{OpFlags, SmtConfig, TraceOp};

/// Sentinel marking an absent source-dependence offset (the producer was
/// outside the window at dispatch time, so the operand is always ready).
pub const NO_DEP: u32 = u32::MAX;

/// Consumers a producer slot links directly. A producer with more waiting
/// consumers rescans the younger dispatched slots when it completes.
pub const CONSUMER_LINKS: usize = 4;

/// The most slots a window may have: consumer links hold slot ids as `u16`.
/// [`SmtConfig::validate`] keeps every configured window within it.
pub const MAX_WINDOW_SLOTS: usize = SmtConfig::MAX_WINDOW_ENTRIES as usize;

/// Fixed-capacity struct-of-arrays ring buffer of in-flight instructions, in
/// program order (front = oldest).
///
/// Logical index 0 is the oldest instruction; [`OpWindow::push_back`] and
/// [`OpWindow::rearm`] append at fetch, [`OpWindow::pop_front`] retires at
/// commit, [`OpWindow::truncate`] squashes from the youngest end. Sequence
/// numbers are strictly increasing from front to back.
///
/// # Example
///
/// ```
/// use smt_core::pipeline::window::OpWindow;
/// use smt_types::{OpFlags, TraceOp};
///
/// let mut w = OpWindow::new(8);
/// w.push_back(1, TraceOp::int_alu(0x40), 14, OpFlags::default());
/// w.push_back(2, TraceOp::int_alu(0x44).with_dep(1), 14, OpFlags::default());
/// w.mark_dispatched(0);
/// w.mark_dispatched(1);
/// // Seq 2 waits for its producer; seq 1 is ready.
/// assert!(w.is_ready(0) && !w.is_ready(1));
/// w.mark_issued(0);
/// w.complete(0);
/// assert!(w.is_ready(1));
/// w.pop_front();
/// assert_eq!(w.seq_at(0), 2);
/// // A squash keeps seq 2 in its slot for re-fetch under a new number.
/// w.truncate(w.index_after_seq(1));
/// assert_eq!((w.len(), w.refetch_pending()), (0, 1));
/// w.rearm(3, 20);
/// assert_eq!(w.seq_at(0), 3);
/// ```
#[derive(Clone, Debug)]
pub struct OpWindow {
    /// Physical index of logical slot 0.
    head: usize,
    /// Number of live entries.
    len: usize,
    /// Squashed instructions held in the slots just past the tail, oldest
    /// first at `head + len`, waiting to be re-fetched.
    refetch_pending: usize,
    /// Capacity - 1; capacity is a power of two.
    mask: usize,
    /// Logical index of the oldest undispatched instruction. Everything
    /// before it is dispatched; everything at or after it is not (dispatch is
    /// strictly in order).
    first_undispatched: usize,
    seq: Box<[u64]>,
    op: Box<[TraceOp]>,
    frontend_ready_at: Box<[u64]>,
    done_at: Box<[u64]>,
    predicted_mlp_distance: Box<[u32]>,
    src_dep_offsets: Box<[[u32; 2]]>,
    flags: Box<[OpFlags]>,
    /// One bit per physical slot, set exactly while the slot is dispatched,
    /// unissued and has both source operands available.
    ready: Box<[u64]>,
    /// Number of set bits in `ready`.
    ready_count: usize,
    /// Per producer slot: the slots of the consumers waiting on it.
    consumers: Box<[[u16; CONSUMER_LINKS]]>,
    /// Per producer slot: how many consumers linked since the slot was
    /// filled, saturating at `CONSUMER_LINKS + 1` (overflow: rescan).
    consumer_count: Box<[u8]>,
}

impl OpWindow {
    /// Creates a window able to hold at least `capacity` instructions (rounded
    /// up to the next power of two).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds [`MAX_WINDOW_SLOTS`].
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(
            capacity <= MAX_WINDOW_SLOTS,
            "window capacity {capacity} exceeds {MAX_WINDOW_SLOTS} slots"
        );
        let capacity = capacity.next_power_of_two();
        OpWindow {
            head: 0,
            len: 0,
            refetch_pending: 0,
            mask: capacity - 1,
            first_undispatched: 0,
            seq: vec![0; capacity].into_boxed_slice(),
            op: vec![TraceOp::int_alu(0); capacity].into_boxed_slice(),
            frontend_ready_at: vec![0; capacity].into_boxed_slice(),
            done_at: vec![u64::MAX; capacity].into_boxed_slice(),
            predicted_mlp_distance: vec![0; capacity].into_boxed_slice(),
            src_dep_offsets: vec![[NO_DEP; 2]; capacity].into_boxed_slice(),
            flags: vec![OpFlags::default(); capacity].into_boxed_slice(),
            ready: vec![0; capacity.div_ceil(64)].into_boxed_slice(),
            ready_count: 0,
            consumers: vec![[0; CONSUMER_LINKS]; capacity].into_boxed_slice(),
            consumer_count: vec![0; capacity].into_boxed_slice(),
        }
    }

    /// Number of instructions currently in flight.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no instructions.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slot count (a power of two).
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    #[inline(always)]
    fn slot(&self, index: usize) -> usize {
        debug_assert!(index < self.len, "index {index} out of {}", self.len);
        (self.head + index) & self.mask
    }

    // ------------------------------------------------------------ mutation

    /// Appends a freshly fetched instruction at the back, as a pending
    /// re-fetch re-armed at once: of `flags`, only the fetch-time branch bits
    /// (mispredicted, predicted taken) count.
    ///
    /// # Panics
    ///
    /// Panics if the window is full, and (in debug builds) if a re-fetch is
    /// pending.
    #[inline]
    pub fn push_back(&mut self, seq: u64, op: TraceOp, frontend_ready_at: u64, flags: OpFlags) {
        assert!(self.len <= self.mask, "instruction window overflow");
        debug_assert_eq!(self.refetch_pending, 0, "re-fetches go first");
        let slot = (self.head + self.len) & self.mask;
        self.op[slot] = op;
        self.flags[slot] = flags;
        self.refetch_pending = 1;
        self.rearm(seq, frontend_ready_at);
    }

    /// Re-fetches the oldest squashed instruction in place as the youngest,
    /// numbered `seq`: it keeps its trace op and first-fetch branch bits, and
    /// every progress column starts over. Returns its flags.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if nothing is pending or `seq` does not
    /// exceed the youngest in-flight sequence number.
    #[inline]
    pub fn rearm(&mut self, seq: u64, frontend_ready_at: u64) -> OpFlags {
        debug_assert!(self.refetch_pending > 0, "rearm with nothing pending");
        debug_assert!(
            self.len == 0 || self.seq_at(self.len - 1) < seq,
            "sequence numbers must be strictly increasing"
        );
        let slot = (self.head + self.len) & self.mask;
        let first = self.flags[slot];
        let mut flags = OpFlags::default();
        flags.set_mispredicted(first.mispredicted());
        flags.set_predicted_taken(first.predicted_taken());
        self.flags[slot] = flags;
        self.seq[slot] = seq;
        self.frontend_ready_at[slot] = frontend_ready_at;
        self.done_at[slot] = u64::MAX;
        self.predicted_mlp_distance[slot] = 0;
        self.src_dep_offsets[slot] = [NO_DEP; 2];
        // Links a squashed former occupant collected are dead.
        self.consumer_count[slot] = 0;
        self.len += 1;
        self.refetch_pending -= 1;
        debug_assert!(
            self.len + self.refetch_pending <= self.capacity(),
            "in-flight plus pending re-fetches exceed the ring"
        );
        flags
    }

    /// Squashed instructions waiting past the tail for re-fetch.
    #[inline(always)]
    pub fn refetch_pending(&self) -> usize {
        self.refetch_pending
    }

    /// Consumes the oldest pending re-fetch of an empty window without
    /// re-entering it (functional fast-forward and skip), returning its trace
    /// op and first-fetch flags.
    pub fn pop_pending(&mut self) -> Option<(TraceOp, OpFlags)> {
        if self.refetch_pending == 0 {
            return None;
        }
        debug_assert!(self.is_empty(), "pending re-fetches sit behind live ops");
        let slot = self.head;
        self.head = (self.head + 1) & self.mask;
        self.refetch_pending -= 1;
        Some((self.op[slot], self.flags[slot]))
    }

    /// Retires the oldest instruction (callers read its columns at logical
    /// index 0 first).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the window is empty.
    #[inline]
    pub fn pop_front(&mut self) {
        debug_assert!(self.len > 0, "pop_front on empty window");
        debug_assert!(
            self.flags[self.head].issued(),
            "pop_front may only retire issued instructions"
        );
        // Commit only retires dispatched instructions, so the dispatch cursor
        // can never fall behind the new front.
        debug_assert!(self.first_undispatched > 0);
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        self.first_undispatched -= 1;
    }

    /// Squashes every instruction from logical index `len` on (callers read
    /// their columns first): they stay in their slots as the oldest pending
    /// re-fetches. The dispatch cursor is clamped to the shortened window —
    /// the one sanctioned way it moves backwards — and the squashed
    /// dispatched slots leave the ready set; the undispatched tail is cut
    /// without being visited.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        debug_assert!(len <= self.len, "truncate past the tail");
        for index in len..self.first_undispatched.max(len) {
            self.clear_ready(self.slot(index));
        }
        self.refetch_pending += self.len - len;
        self.len = len;
        self.first_undispatched = self.first_undispatched.min(len);
    }

    // ------------------------------------------------- dispatch and readiness

    /// Logical index of the oldest undispatched instruction — where the
    /// in-order dispatch phase resumes. Equals `len()` when everything in the
    /// window has dispatched.
    #[inline(always)]
    pub fn first_undispatched_index(&self) -> usize {
        self.first_undispatched
    }

    /// Dispatches the instruction at `index`: resolves its source producers
    /// into dependence offsets, advances the dispatch cursor past it, and
    /// either enters it into the ready set or links it onto each producer it
    /// still waits for. Dispatch is strictly in order: `index` must be
    /// exactly [`OpWindow::first_undispatched_index`].
    #[inline]
    pub fn mark_dispatched(&mut self, index: usize) {
        debug_assert_eq!(
            index,
            self.first_undispatched_index(),
            "dispatch must proceed in order (cursor may never move backwards)"
        );
        let slot = self.slot(index);
        debug_assert!(!self.flags[slot].dispatched());
        let offsets = self.resolve_dep_offsets(index);
        self.src_dep_offsets[slot] = offsets;
        self.flags[slot].set_dispatched(true);
        self.first_undispatched += 1;
        let mut waiting = false;
        for (i, offset) in offsets.into_iter().enumerate() {
            if offset == NO_DEP || (i == 1 && offset == offsets[0]) {
                continue;
            }
            let producer = self.slot(index - offset as usize);
            if !self.flags[producer].completed() {
                waiting = true;
                let links = self.consumer_count[producer] as usize;
                if links < CONSUMER_LINKS {
                    self.consumers[producer][links] = slot as u16;
                }
                self.consumer_count[producer] = (links + 1).min(CONSUMER_LINKS + 1) as u8;
            }
        }
        if !waiting {
            self.set_ready(slot);
        }
    }

    /// Marks the ready instruction at logical `index` as issued, taking it
    /// out of the ready set.
    #[inline]
    pub fn mark_issued(&mut self, index: usize) {
        let slot = self.slot(index);
        debug_assert!(self.is_ready(index), "only a ready instruction may issue");
        self.flags[slot].set_issued(true);
        self.clear_ready(slot);
    }

    /// Marks the issued instruction at logical `index` as completed and
    /// re-checks the consumers waiting on it, entering every one whose
    /// operands are now all available into the ready set.
    pub fn complete(&mut self, index: usize) {
        let slot = self.slot(index);
        debug_assert!(self.flags[slot].issued() && !self.flags[slot].completed());
        self.flags[slot].set_completed(true);
        let links = self.consumer_count[slot] as usize;
        if links > CONSUMER_LINKS {
            for consumer in index + 1..self.first_undispatched_index() {
                self.wake(consumer);
            }
        } else {
            for i in 0..links {
                let consumer =
                    (self.consumers[slot][i] as usize).wrapping_sub(self.head) & self.mask;
                if consumer < self.len {
                    self.wake(consumer);
                }
            }
        }
    }

    /// Enters the instruction at logical `index` into the ready set if it is
    /// dispatched, unissued and has its operands. Idempotent: a stale link
    /// to a squashed or reused slot re-checks whatever the slot now holds.
    #[inline]
    fn wake(&mut self, index: usize) {
        let flags = self.flags[self.slot(index)];
        if flags.dispatched() && !flags.issued() && self.deps_ready(index) {
            self.set_ready(self.slot(index));
        }
    }

    #[inline(always)]
    fn set_ready(&mut self, slot: usize) {
        let bit = 1u64 << (slot % 64);
        let word = &mut self.ready[slot / 64];
        if *word & bit == 0 {
            *word |= bit;
            self.ready_count += 1;
        }
    }

    #[inline(always)]
    fn clear_ready(&mut self, slot: usize) {
        let bit = 1u64 << (slot % 64);
        let word = &mut self.ready[slot / 64];
        if *word & bit != 0 {
            *word &= !bit;
            self.ready_count -= 1;
        }
    }

    /// Whether the instruction at logical `index` is in the ready set.
    #[inline(always)]
    pub fn is_ready(&self, index: usize) -> bool {
        let slot = self.slot(index);
        self.ready[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// Whether any instruction is ready to issue.
    #[inline(always)]
    pub fn has_ready(&self) -> bool {
        self.ready_count > 0
    }

    /// Appends to `out` the logical index of every ready instruction, oldest
    /// first: the issue phase's candidate list, one `trailing_zeros` per
    /// ready instruction.
    pub fn collect_ready(&self, out: &mut Vec<u32>) {
        // Only dispatched slots can be ready. They run from physical slot
        // `head` to `end`, wrapping past the ring's end into `0..`.
        let end = self.head + self.first_undispatched_index();
        let capacity = self.capacity();
        for (lo, hi) in [
            (self.head, end.min(capacity)),
            (0, end.saturating_sub(capacity)),
        ] {
            if lo >= hi {
                continue;
            }
            let mut word_idx = lo / 64;
            let mut word = self.ready[word_idx] & (u64::MAX << (lo % 64));
            loop {
                while word != 0 {
                    let slot = word_idx * 64 + word.trailing_zeros() as usize;
                    if slot >= hi {
                        break;
                    }
                    out.push((slot.wrapping_sub(self.head) & self.mask) as u32);
                    word &= word - 1;
                }
                word_idx += 1;
                if word_idx * 64 >= hi {
                    break;
                }
                word = self.ready[word_idx];
            }
        }
    }

    /// Asserts that the ready set holds exactly the dispatched, unissued
    /// instructions whose operands are available, without allocating.
    #[cfg(debug_assertions)]
    pub(crate) fn debug_check_ready(&self) {
        let mut live_ready = 0;
        for index in 0..self.len {
            let flags = self.flags_at(index);
            let expect = flags.dispatched() && !flags.issued() && self.deps_ready(index);
            debug_assert_eq!(self.is_ready(index), expect, "ready bit drifted at {index}");
            live_ready += usize::from(expect);
        }
        let set: u32 = self.ready.iter().map(|w| w.count_ones()).sum();
        debug_assert_eq!(set as usize, live_ready, "ready bits on dead slots");
        debug_assert_eq!(self.ready_count, live_ready, "ready count drifted");
    }

    // ------------------------------------------------------------ lookup

    /// Physical slot of the instruction at logical `index`: a handle that
    /// stays valid while the instruction is in flight (see
    /// [`OpWindow::index_of_slot`]).
    #[inline(always)]
    pub fn slot_id(&self, index: usize) -> u16 {
        self.slot(index) as u16
    }

    /// Logical index of the instruction `seq` if it still occupies physical
    /// slot `slot` — one probe, where [`OpWindow::position_of_seq`] may have
    /// to search across squash gaps. Sequence numbers are never reused, so a
    /// squashed instruction never matches, even after its slot is refilled.
    #[inline]
    pub fn index_of_slot(&self, slot: u16, seq: u64) -> Option<usize> {
        let slot = slot as usize;
        let index = slot.wrapping_sub(self.head) & self.mask;
        (index < self.len && self.seq[slot] == seq).then_some(index)
    }

    /// Logical index of the oldest in-flight instruction younger than `seq`
    /// (`len()` if there is none): where a squash that keeps `seq` cuts. A
    /// binary search over the strictly increasing sequence column.
    pub fn index_after_seq(&self, seq: u64) -> usize {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.seq[(self.head + mid) & self.mask] <= seq {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Logical index of the in-flight instruction with sequence number `seq`,
    /// if present. Sequence numbers are dense except across squash gaps, so
    /// the common case is a single O(1) probe at `seq - front_seq`; the
    /// fallback is a binary search over the (strictly increasing) sequence
    /// column.
    pub fn position_of_seq(&self, seq: u64) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let front = self.seq[self.head];
        if seq < front {
            return None;
        }
        let guess = (seq - front) as usize;
        if guess < self.len && self.seq[(self.head + guess) & self.mask] == seq {
            return Some(guess);
        }
        // `seq >= front`, so at least the front precedes the search point.
        let index = self.index_after_seq(seq) - 1;
        (self.seq_at(index) == seq).then_some(index)
    }

    // ------------------------------------------------------------ columns

    /// Sequence number of the instruction at logical `index`.
    #[inline(always)]
    pub fn seq_at(&self, index: usize) -> u64 {
        self.seq[self.slot(index)]
    }

    /// Trace operation of the instruction at logical `index`.
    #[inline(always)]
    pub fn op_at(&self, index: usize) -> TraceOp {
        self.op[self.slot(index)]
    }

    /// Cycle at which the instruction at logical `index` has traversed the
    /// front end and may dispatch.
    #[inline(always)]
    pub fn frontend_ready_at(&self, index: usize) -> u64 {
        self.frontend_ready_at[self.slot(index)]
    }

    /// Cycle at which execution of the instruction at logical `index`
    /// completes (valid once issued).
    #[inline(always)]
    pub fn done_at(&self, index: usize) -> u64 {
        self.done_at[self.slot(index)]
    }

    /// Sets the completion cycle of the instruction at logical `index`.
    #[inline(always)]
    pub fn set_done_at(&mut self, index: usize, done_at: u64) {
        let slot = self.slot(index);
        self.done_at[slot] = done_at;
    }

    /// Predicted (or detection-time) MLP distance of the load at logical
    /// `index`.
    #[inline(always)]
    pub fn predicted_mlp_distance_at(&self, index: usize) -> u32 {
        self.predicted_mlp_distance[self.slot(index)]
    }

    /// Sets the predicted MLP distance of the load at logical `index`.
    #[inline(always)]
    pub fn set_predicted_mlp_distance(&mut self, index: usize, distance: u32) {
        let slot = self.slot(index);
        self.predicted_mlp_distance[slot] = distance;
    }

    /// Source-dependence offsets of the instruction at logical `index`
    /// ([`NO_DEP`] = no in-window producer).
    #[inline(always)]
    // analyze: allow(test-only-pub) reason="crates/core/tests/window_model.rs checks the window's dependence links against its reference model through it"
    pub fn src_dep_offsets_at(&self, index: usize) -> [u32; 2] {
        self.src_dep_offsets[self.slot(index)]
    }

    /// Packed status flags of the instruction at logical `index`.
    #[inline(always)]
    pub fn flags_at(&self, index: usize) -> OpFlags {
        self.flags[self.slot(index)]
    }

    /// Mutable access to the packed status flags at logical `index`.
    ///
    /// The `dispatched`, `issued` and `completed` bits must be set through
    /// [`OpWindow::mark_dispatched`], [`OpWindow::mark_issued`] and
    /// [`OpWindow::complete`], so the dispatch cursor and the ready set stay
    /// consistent.
    #[inline(always)]
    pub fn flags_mut(&mut self, index: usize) -> &mut OpFlags {
        let slot = self.slot(index);
        &mut self.flags[slot]
    }

    /// Whether the source operands of the instruction at logical `index` are
    /// available, using the producer offsets resolved at dispatch: a live
    /// producer sits exactly `offset` slots earlier; an offset beyond `index`
    /// means the producer has committed (its value is available).
    #[inline]
    pub fn deps_ready(&self, index: usize) -> bool {
        let [a, b] = self.src_dep_offsets[self.slot(index)];
        for offset in [a, b] {
            if offset == NO_DEP {
                continue;
            }
            let offset = offset as usize;
            if offset <= index && !self.flags[self.slot(index - offset)].completed() {
                return false;
            }
        }
        true
    }

    /// Resolves the source-operand producers of the (about to dispatch)
    /// instruction at logical `index` into backward slot offsets, once. The
    /// common case (no squash gap in the sequence numbers between producer and
    /// consumer) is a single O(1) probe; after a squash gap it falls back to a
    /// binary search. A missing producer (already committed, or unreachable
    /// across a squash) yields [`NO_DEP`] = always ready.
    fn resolve_dep_offsets(&self, index: usize) -> [u32; 2] {
        let slot = self.slot(index);
        let seq = self.seq[slot];
        let op = &self.op[slot];
        let mut offsets = [NO_DEP; 2];
        for (out, dep) in offsets.iter_mut().zip(op.src_deps) {
            let Some(distance) = dep else { continue };
            let distance = distance as u64;
            if distance >= seq {
                continue;
            }
            let producer_seq = seq - distance;
            let pos = match (index as u64).checked_sub(distance) {
                Some(pos) if self.seq_at(pos as usize) == producer_seq => Some(pos as usize),
                _ => self.position_of_seq(producer_seq),
            };
            if let Some(pos) = pos {
                *out = (index - pos) as u32;
            }
        }
        offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(w: &mut OpWindow, seq: u64) {
        w.push_back(
            seq,
            TraceOp::int_alu(0x40 + 4 * seq),
            14,
            OpFlags::default(),
        );
    }

    fn ready(w: &OpWindow) -> Vec<u32> {
        let mut out = Vec::new();
        w.collect_ready(&mut out);
        out
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(OpWindow::new(1).capacity(), 1);
        assert_eq!(OpWindow::new(5).capacity(), 8);
        assert_eq!(OpWindow::new(312).capacity(), 512);
        assert_eq!(OpWindow::new(MAX_WINDOW_SLOTS).capacity(), MAX_WINDOW_SLOTS);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_window_panics() {
        let _ = OpWindow::new(MAX_WINDOW_SLOTS + 1);
    }

    #[test]
    fn ring_wraps_across_capacity() {
        let mut w = OpWindow::new(4);
        for seq in 1..=4 {
            push(&mut w, seq);
        }
        // Retire two, fetch two more: the new entries reuse the freed slots.
        w.mark_dispatched(0);
        w.mark_dispatched(1);
        w.mark_issued(0);
        w.mark_issued(1);
        w.pop_front();
        w.pop_front();
        push(&mut w, 5);
        push(&mut w, 6);
        assert_eq!(w.len(), 4);
        let seqs: Vec<u64> = (0..w.len()).map(|i| w.seq_at(i)).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6]);
        assert_eq!(w.position_of_seq(5), Some(2));
        assert_eq!(w.position_of_seq(2), None);
        // The ready walk follows program order across the wrap.
        for i in 0..4 {
            w.mark_dispatched(i);
        }
        assert_eq!(ready(&w), vec![0, 1, 2, 3]);
    }

    #[test]
    fn ready_set_tracks_dispatch_and_issue() {
        let mut w = OpWindow::new(8);
        for seq in 1..=5 {
            push(&mut w, seq);
        }
        assert!(!w.has_ready());
        w.mark_dispatched(0);
        w.mark_dispatched(1);
        w.mark_dispatched(2);
        assert_eq!(w.first_undispatched_index(), 3);
        assert_eq!(ready(&w), vec![0, 1, 2]);
        // Issue out of order: 0 and 2, leaving 1.
        w.mark_issued(0);
        w.mark_issued(2);
        assert_eq!(ready(&w), vec![1]);
        w.mark_issued(1);
        assert!(!w.has_ready());
    }

    #[test]
    fn squash_clamps_cursors() {
        let mut w = OpWindow::new(8);
        for seq in 1..=4 {
            push(&mut w, seq);
        }
        for i in 0..4 {
            w.mark_dispatched(i);
        }
        w.mark_issued(0);
        w.truncate(w.index_after_seq(2));
        assert_eq!((w.len(), w.refetch_pending()), (2, 2));
        assert_eq!(w.first_undispatched_index(), 2);
        assert_eq!(ready(&w), vec![1]);
        // The re-fetch re-arms seq 3's op in place, undispatched.
        w.rearm(9, 20);
        assert_eq!((w.len(), w.refetch_pending()), (3, 1));
        assert_eq!(w.op_at(2), TraceOp::int_alu(0x40 + 4 * 3));
        assert_eq!(w.frontend_ready_at(2), 20);
        assert_eq!(w.first_undispatched_index(), 2);
        assert_eq!(ready(&w), vec![1]);
    }

    #[test]
    fn dep_offsets_resolve_and_probe() {
        let mut w = OpWindow::new(8);
        push(&mut w, 1);
        push(&mut w, 2);
        let op = TraceOp::int_alu(0x100).with_dep(1).with_dep(2);
        w.push_back(3, op, 14, OpFlags::default());
        for i in 0..3 {
            w.mark_dispatched(i);
        }
        assert_eq!(w.src_dep_offsets_at(2), [1, 2]);
        assert!(!w.deps_ready(2) && !w.is_ready(2));
        w.mark_issued(0);
        w.mark_issued(1);
        w.complete(0);
        assert!(!w.is_ready(2), "one operand still missing");
        w.complete(1);
        assert!(w.deps_ready(2) && w.is_ready(2));
    }

    #[test]
    fn committed_producer_is_always_ready() {
        let mut w = OpWindow::new(8);
        push(&mut w, 1);
        w.mark_dispatched(0);
        w.mark_issued(0);
        w.complete(0);
        w.pop_front();
        let op = TraceOp::int_alu(0x100).with_dep(1);
        w.push_back(2, op, 14, OpFlags::default());
        w.mark_dispatched(0);
        // Producer seq 1 has committed: no in-window position, offset = NO_DEP.
        assert_eq!(w.src_dep_offsets_at(0), [NO_DEP, NO_DEP]);
        assert!(w.deps_ready(0) && w.is_ready(0));
    }

    #[test]
    fn overflowing_producer_wakes_every_consumer() {
        let mut w = OpWindow::new(16);
        push(&mut w, 1);
        let consumers = CONSUMER_LINKS as u64 + 3;
        for seq in 2..2 + consumers {
            let op = TraceOp::int_alu(0x100 + seq).with_dep((seq - 1) as u32);
            w.push_back(seq, op, 14, OpFlags::default());
        }
        for i in 0..w.len() {
            w.mark_dispatched(i);
        }
        assert_eq!(ready(&w), vec![0]);
        w.mark_issued(0);
        w.complete(0);
        let expect: Vec<u32> = (1..=consumers as u32).collect();
        assert_eq!(ready(&w), expect);
    }

    #[test]
    fn stale_link_rechecks_the_reused_slot() {
        let mut w = OpWindow::new(8);
        push(&mut w, 1);
        w.push_back(
            2,
            TraceOp::int_alu(0x80).with_dep(1),
            14,
            OpFlags::default(),
        );
        w.mark_dispatched(0);
        w.mark_dispatched(1);
        w.mark_issued(0);
        // Squash the consumer; its re-fetch re-arms the slot, and the op's
        // producer (seq 2 - 1) is no longer in the window, so it waits on
        // nothing but is not yet dispatched.
        w.truncate(1);
        w.rearm(3, 14);
        w.complete(0);
        assert!(
            !w.is_ready(1),
            "an undispatched slot never enters the ready set"
        );
        w.mark_dispatched(1);
        assert_eq!(ready(&w), vec![1]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut w = OpWindow::new(2);
        for seq in 1..=3 {
            push(&mut w, seq);
        }
    }
}
