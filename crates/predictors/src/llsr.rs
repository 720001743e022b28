//! The long-latency shift register (LLSR) of Section 4.2.
//!
//! The LLSR observes the commit stream of one thread. Every committed instruction
//! shifts one bit into the register ("1" for a long-latency load, "0" otherwise),
//! together with the instruction's PC. When a "1" reaches the head — i.e. a
//! long-latency load falls out of the window of the last `capacity` committed
//! instructions — the *MLP distance* for that load is computed: the position of
//! the last (youngest) "1" still in the register, read from head to tail. That
//! observation trains the MLP distance predictor.
//!
//! The register has `ROB size / number of threads` entries in the paper's setup
//! (128 for the two-thread baseline), because that is the farthest ahead a thread
//! can realistically expose MLP when sharing the ROB.

use std::collections::VecDeque;

use smt_types::warm::{CheckpointError, Warm, WarmVisitor};

/// One completed MLP-distance observation produced by the LLSR.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MlpObservation {
    /// PC of the long-latency load that just left the window.
    pub pc: u64,
    /// Observed MLP distance: number of instructions after the load within which
    /// the youngest overlapping long-latency load appears; `0` means the load was
    /// isolated (no MLP).
    pub mlp_distance: u32,
}

/// The per-thread long-latency shift register.
///
/// # Example
///
/// ```
/// use smt_predictors::Llsr;
/// let mut llsr = Llsr::new(4);
/// assert!(llsr.commit(0x40, true).is_none());
/// llsr.commit(0x44, false);
/// llsr.commit(0x48, true);
/// llsr.commit(0x4c, false);
/// // The fifth commit pushes the first long-latency load out of the 4-entry window.
/// let obs = llsr.commit(0x50, false).expect("observation");
/// assert_eq!(obs.pc, 0x40);
/// assert_eq!(obs.mlp_distance, 2);
/// ```
#[derive(Clone, Debug)]
pub struct Llsr {
    capacity: usize,
    entries: VecDeque<(u64, bool)>,
}

impl Llsr {
    /// Creates an LLSR holding `capacity` committed instructions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LLSR capacity must be non-zero");
        Llsr {
            capacity,
            entries: VecDeque::with_capacity(capacity + 1),
        }
    }

    /// Window length in instructions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of instructions currently tracked (≤ capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` while the register has not yet filled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records the commit of the instruction at `pc`; `is_long_latency_load` marks
    /// committed loads that were L3 or D-TLB misses. Returns an MLP-distance
    /// observation whenever a long-latency load exits the window.
    pub fn commit(&mut self, pc: u64, is_long_latency_load: bool) -> Option<MlpObservation> {
        self.entries.push_back((pc, is_long_latency_load));
        if self.entries.len() <= self.capacity {
            return None;
        }
        let (head_pc, head_is_lll) = self.entries.pop_front().expect("non-empty LLSR");
        if !head_is_lll {
            return None;
        }
        let mlp_distance = self
            .entries
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &(_, lll))| lll)
            .map(|(i, _)| i as u32 + 1)
            .unwrap_or(0);
        Some(MlpObservation {
            pc: head_pc,
            mlp_distance,
        })
    }

    /// Clears all state (used when a thread is squashed past the commit point,
    /// which cannot happen in this simulator, and between experiment runs).
    pub fn reset(&mut self) {
        self.entries.clear();
    }
}

impl Warm for Llsr {
    /// `(pc, is_long_latency_load)` per committed instruction in the
    /// window, oldest first.
    fn visit(&mut self, v: &mut impl WarmVisitor) {
        let capacity = self.capacity;
        v.value("entries", &mut self.entries, |entries| {
            if entries.len() <= capacity {
                return Ok(());
            }
            let reason = format!("{} entries, register capacity is {capacity}", entries.len());
            Err(CheckpointError::new("", reason))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_load_reports_zero_distance() {
        let mut llsr = Llsr::new(4);
        llsr.commit(0x40, true);
        for i in 0..3u64 {
            assert!(llsr.commit(0x100 + i, false).is_none());
        }
        let obs = llsr.commit(0x200, false).unwrap();
        assert_eq!(obs.pc, 0x40);
        assert_eq!(obs.mlp_distance, 0);
    }

    #[test]
    fn distance_is_position_of_youngest_lll() {
        let mut llsr = Llsr::new(8);
        llsr.commit(0xa0, true); // head
        llsr.commit(0xa4, false);
        llsr.commit(0xa8, true); // distance 2
        llsr.commit(0xac, false);
        llsr.commit(0xb0, false);
        llsr.commit(0xb4, true); // distance 5 — youngest
        llsr.commit(0xb8, false);
        llsr.commit(0xbc, false);
        let obs = llsr.commit(0xc0, false).unwrap();
        assert_eq!(obs.pc, 0xa0);
        assert_eq!(obs.mlp_distance, 5);
    }

    #[test]
    fn figure3_style_example() {
        // Mirror of the paper's Figure 3: an LLSR where the last appearing "1" sits
        // at position 6 from the head.
        let mut llsr = Llsr::new(8);
        let pattern = [true, false, true, false, false, true, false, false];
        for (i, &lll) in pattern.iter().enumerate() {
            llsr.commit(0x40 + 4 * i as u64, lll);
        }
        let obs = llsr.commit(0x100, false).unwrap();
        assert_eq!(obs.mlp_distance, 5); // positions: 2 and 5 after the head
                                         // Keep committing until the next long-latency load (position 2 originally)
                                         // reaches the head; its own distance is 3 (the load originally at pos 5).
        let mut next = None;
        for i in 0..2u64 {
            next = llsr.commit(0x200 + 4 * i, false);
        }
        let obs2 = next.unwrap();
        assert_eq!(obs2.pc, 0x48);
        assert_eq!(obs2.mlp_distance, 3);
    }

    #[test]
    fn non_lll_exits_produce_no_observation() {
        let mut llsr = Llsr::new(2);
        llsr.commit(0x1, false);
        llsr.commit(0x2, false);
        assert!(llsr.commit(0x3, true).is_none());
        assert!(llsr.commit(0x4, false).is_none());
        // Now the LLL at 0x3 is at the head; next commit pushes it out.
        let obs = llsr.commit(0x5, false).unwrap();
        assert_eq!(obs.pc, 0x3);
    }

    #[test]
    fn back_to_back_llls_overlap() {
        let mut llsr = Llsr::new(4);
        llsr.commit(0x10, true);
        llsr.commit(0x14, true);
        llsr.commit(0x18, false);
        llsr.commit(0x1c, false);
        let obs = llsr.commit(0x20, false).unwrap();
        assert_eq!(obs.pc, 0x10);
        assert_eq!(obs.mlp_distance, 1);
    }

    #[test]
    fn reset_and_len() {
        let mut llsr = Llsr::new(4);
        assert!(llsr.is_empty());
        llsr.commit(0x1, true);
        assert_eq!(llsr.len(), 1);
        llsr.reset();
        assert!(llsr.is_empty());
        assert_eq!(llsr.capacity(), 4);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = Llsr::new(0);
    }
}
