//! Identifier newtypes used throughout the simulator.

use std::fmt;

/// Identifies one hardware thread (context) of the SMT processor.
///
/// The baseline configurations of the paper use two or four threads; the
/// simulator supports any count up to [`ThreadId::MAX_THREADS`].
///
/// # Example
///
/// ```
/// use smt_types::ThreadId;
/// let t = ThreadId::new(1);
/// assert_eq!(t.index(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ThreadId(u8);

impl ThreadId {
    /// Upper bound on the number of hardware threads supported by the simulator.
    pub const MAX_THREADS: usize = 8;

    /// Creates a thread identifier from a zero-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= ThreadId::MAX_THREADS`.
    #[inline]
    pub fn new(index: usize) -> Self {
        assert!(
            index < Self::MAX_THREADS,
            "thread index {index} exceeds supported maximum {}",
            Self::MAX_THREADS
        );
        ThreadId(index as u8)
    }

    /// Returns the zero-based index of this thread.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over the first `n` thread identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `n > ThreadId::MAX_THREADS`.
    #[inline]
    pub fn all(n: usize) -> impl Iterator<Item = ThreadId> {
        assert!(n <= Self::MAX_THREADS);
        (0..n).map(ThreadId::new)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl From<ThreadId> for usize {
    fn from(t: ThreadId) -> usize {
        t.index()
    }
}

/// A per-thread dynamic instruction sequence number.
///
/// Sequence numbers start at zero for the first instruction a thread fetches and
/// increase by one per dynamic instruction. They identify instructions across
/// pipeline stages and are used to express flush points ("squash everything
/// younger than sequence number `s`").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SeqNum(pub u64);

impl SeqNum {
    /// Returns the next sequence number.
    pub fn next(self) -> SeqNum {
        SeqNum(self.0 + 1)
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_roundtrip() {
        for i in 0..ThreadId::MAX_THREADS {
            assert_eq!(ThreadId::new(i).index(), i);
        }
    }

    #[test]
    #[should_panic]
    fn thread_id_out_of_range_panics() {
        let _ = ThreadId::new(ThreadId::MAX_THREADS);
    }

    #[test]
    fn thread_id_all_enumerates_in_order() {
        let v: Vec<usize> = ThreadId::all(4).map(|t| t.index()).collect();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn seqnum_ordering_and_distance() {
        let a = SeqNum(10);
        let b = a.next();
        assert!(b > a);
        assert_eq!(b.0 - a.0, 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ThreadId::new(2).to_string(), "T2");
        assert_eq!(SeqNum(7).to_string(), "#7");
    }
}
