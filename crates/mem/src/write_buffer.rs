//! Post-commit store write buffer.
//!
//! The paper adds an 8-entry write buffer to SMTSIM: "store operations leave the
//! ROB upon commit and wait in the write buffer for writing to the memory
//! subsystem; commit blocks in case the write buffer is full and we want to commit
//! a store."

/// A bounded FIFO of stores draining to the memory subsystem.
///
/// # Example
///
/// ```
/// use smt_mem::WriteBuffer;
/// let mut wb = WriteBuffer::new(2, 10);
/// assert!(wb.try_push(0));
/// assert!(wb.try_push(0));
/// assert!(!wb.try_push(0));      // full: commit would block
/// assert!(wb.try_push(10));      // first entry drained by cycle 10
/// ```
#[derive(Clone, Debug)]
pub struct WriteBuffer {
    capacity: usize,
    drain_latency: u64,
    /// Completion cycles of in-flight stores, oldest first.
    entries: Vec<u64>,
    total_stores: u64,
    full_rejections: u64,
}

impl WriteBuffer {
    /// Creates a write buffer with `capacity` entries that each take
    /// `drain_latency` cycles to write out.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, drain_latency: u64) -> Self {
        assert!(capacity > 0, "write buffer capacity must be non-zero");
        WriteBuffer {
            capacity,
            drain_latency,
            entries: Vec::with_capacity(capacity),
            total_stores: 0,
            full_rejections: 0,
        }
    }

    fn drain(&mut self, now: u64) {
        self.entries.retain(|&done| done > now);
    }

    /// Attempts to enqueue a committing store at `now`. Returns `false` when the
    /// buffer is full (the commit stage must retry next cycle).
    pub fn try_push(&mut self, now: u64) -> bool {
        self.drain(now);
        if self.entries.len() >= self.capacity {
            self.full_rejections += 1;
            return false;
        }
        // Stores drain one after another: a new store completes after the last one.
        let start = self.entries.last().copied().unwrap_or(now).max(now);
        self.entries.push(start + self.drain_latency);
        self.total_stores += 1;
        true
    }

    /// Number of stores currently buffered at `now`.
    pub fn occupancy(&mut self, now: u64) -> usize {
        self.drain(now);
        self.entries.len()
    }

    /// Completion cycle of the youngest buffered store: the buffer is empty
    /// at every `now` at or after it. Entries already drained by an earlier
    /// query may still be reported; they lie at or before that query's `now`.
    pub fn youngest_completion(&self) -> Option<u64> {
        self.entries.last().copied()
    }

    /// Total stores accepted.
    pub fn total_stores(&self) -> u64 {
        self.total_stores
    }

    /// Number of times a push was rejected because the buffer was full.
    pub fn full_rejections(&self) -> u64 {
        self.full_rejections
    }

    /// Empties the buffer.
    pub fn reset(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_and_blocks() {
        let mut wb = WriteBuffer::new(2, 100);
        assert!(wb.try_push(0));
        assert!(wb.try_push(0));
        assert!(!wb.try_push(50));
        assert_eq!(wb.full_rejections(), 1);
        assert_eq!(wb.occupancy(50), 2);
    }

    #[test]
    fn drains_over_time() {
        let mut wb = WriteBuffer::new(2, 100);
        wb.try_push(0); // done at 100
        wb.try_push(0); // done at 200 (serialized)
        assert_eq!(wb.occupancy(150), 1);
        assert!(wb.try_push(150));
        assert_eq!(wb.youngest_completion(), Some(300));
        assert_eq!(wb.occupancy(201), 1); // the 150 push drains at 300
        assert_eq!(wb.occupancy(301), 0);
        assert_eq!(wb.youngest_completion(), None);
        assert_eq!(wb.total_stores(), 3);
    }

    #[test]
    fn reset_empties() {
        let mut wb = WriteBuffer::new(4, 10);
        wb.try_push(0);
        wb.try_push(0);
        wb.reset();
        assert_eq!(wb.occupancy(0), 0);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = WriteBuffer::new(0, 10);
    }
}
