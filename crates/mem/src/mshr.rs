//! Miss status handling registers (MSHRs).
//!
//! MSHRs are what make memory-level parallelism possible in hardware: each
//! outstanding cache-line miss occupies one MSHR, later accesses to the same line
//! merge into the existing entry, and independent misses proceed in parallel as
//! long as free MSHRs remain. The paper assumes the processor has enough MSHRs for
//! the ROB-limited MLP; the default configuration provides 32 per thread.
//!
//! Entries are tracked per *requester*: on the single-core machine a
//! requester is a hardware thread; on a chip a requester is one `(core,
//! thread)` slot, so the file also bounds each core's outstanding misses at
//! the shared LLC. A chip's cores present their misses to the one file
//! directly, one core after another; since a requester's entries are its
//! own and retire only on its own requests, the order the cores go in
//! cannot change any outcome.

use std::collections::HashMap;

/// Outcome of presenting a miss to the MSHR file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MshrOutcome {
    /// A new MSHR was allocated; the miss proceeds to the next memory level.
    Allocated,
    /// The line is already outstanding; this access merges and completes at the
    /// contained cycle.
    Merged(u64),
    /// No MSHR is free; the access must serialize behind the returned completion
    /// cycle of the soonest-finishing outstanding miss.
    Full(u64),
}

/// A per-requester file of miss status handling registers.
///
/// # Example
///
/// ```
/// use smt_mem::MshrFile;
///
/// let mut mshrs = MshrFile::new(2, 4);
/// assert!(matches!(mshrs.request(0, 0x1000, 100, 450), smt_mem::mshr::MshrOutcome::Allocated));
/// // A second access to the same line merges with the outstanding miss.
/// assert!(matches!(mshrs.request(0, 0x1000, 120, 470), smt_mem::mshr::MshrOutcome::Merged(450)));
/// ```
#[derive(Clone, Debug)]
pub struct MshrFile {
    capacity: usize,
    outstanding: Vec<HashMap<u64, u64>>,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries for each of
    /// `num_requesters` requesters (threads, or `(core, thread)` slots on a
    /// chip).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(num_requesters: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be non-zero");
        MshrFile {
            capacity,
            outstanding: vec![HashMap::new(); num_requesters],
        }
    }

    /// Presents a miss for the cache line containing `line_addr` at `now`; if a new
    /// entry is allocated it will complete at `completion`.
    pub fn request(
        &mut self,
        requester: usize,
        line_addr: u64,
        now: u64,
        completion: u64,
    ) -> MshrOutcome {
        self.retire_completed(requester, now);
        let map = &mut self.outstanding[requester];
        if let Some(&done) = map.get(&line_addr) {
            return MshrOutcome::Merged(done);
        }
        if map.len() >= self.capacity {
            let soonest = *map.values().min().expect("full MSHR file is non-empty");
            return MshrOutcome::Full(soonest);
        }
        map.insert(line_addr, completion);
        MshrOutcome::Allocated
    }

    /// Removes entries whose miss has completed by `now`.
    pub fn retire_completed(&mut self, requester: usize, now: u64) {
        self.outstanding[requester].retain(|_, &mut done| done > now); // analyze: allow(determinism) reason="retain/min/max over a hash set is order-independent: the predicate and fold are commutative"
    }

    /// Number of entries currently held across all requesters, ignoring
    /// completion times (zero means the file is structurally empty and a
    /// checkpoint boundary is safe).
    pub fn total_entries(&self) -> usize {
        self.outstanding.iter().map(|m| m.len()).sum()
    }

    /// Clears all outstanding state (between runs).
    pub fn reset(&mut self) {
        for map in &mut self.outstanding {
            map.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_full() {
        let mut m = MshrFile::new(1, 2);
        assert_eq!(m.request(0, 0x40, 0, 350), MshrOutcome::Allocated);
        assert_eq!(m.request(0, 0x40, 10, 360), MshrOutcome::Merged(350));
        assert_eq!(m.request(0, 0x80, 10, 360), MshrOutcome::Allocated);
        assert_eq!(m.request(0, 0xc0, 20, 370), MshrOutcome::Full(350));
    }

    #[test]
    fn completed_entries_retire() {
        let mut m = MshrFile::new(1, 1);
        assert_eq!(m.request(0, 0x40, 0, 100), MshrOutcome::Allocated);
        // At cycle 100 the miss is done, so a new miss can allocate.
        assert_eq!(m.request(0, 0x80, 100, 450), MshrOutcome::Allocated);
        m.retire_completed(0, 100);
        assert_eq!(m.total_entries(), 1);
        m.retire_completed(0, 450);
        assert_eq!(m.total_entries(), 0);
    }

    #[test]
    fn requesters_are_independent() {
        let mut m = MshrFile::new(2, 1);
        assert_eq!(m.request(0, 0x40, 0, 350), MshrOutcome::Allocated);
        assert_eq!(m.request(1, 0x40, 0, 350), MshrOutcome::Allocated);
        assert_eq!(m.total_entries(), 2);
        m.reset();
        assert_eq!(m.total_entries(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(1, 0);
    }
}
