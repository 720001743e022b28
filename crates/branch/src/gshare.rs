//! gshare direction predictor (global history XOR PC indexing into 2-bit counters).

use smt_types::warm::{Entries, Warm, WarmVisitor};
use smt_types::SmtConfig;

/// The reset value of every counter: weakly not-taken.
const RESET_COUNTER: u8 = 1;

/// A gshare branch direction predictor.
///
/// # Example
///
/// ```
/// use smt_branch::Gshare;
/// let mut g = Gshare::new(1024);
/// // Train until the global history register saturates and the final counter warms.
/// for _ in 0..16 { g.update(0x40, true); }
/// assert!(g.predict(0x40));
/// ```
#[derive(Clone, Debug)]
pub struct Gshare {
    counters: Vec<u8>,
    history: u64,
    history_mask: u64,
}

impl Gshare {
    /// Creates a predictor with `entries` two-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    pub fn new(entries: u32) -> Self {
        assert!(entries > 0, "gshare needs at least one entry");
        assert!(
            entries.is_power_of_two(),
            "gshare entries must be a power of two"
        );
        Gshare {
            counters: vec![RESET_COUNTER; entries as usize],
            history: 0,
            history_mask: entries as u64 - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.history_mask) as usize
    }

    /// Predicts the direction of the branch at `pc` (true = taken).
    pub fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Updates the counter and global history with the resolved direction.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
    }
}

impl Warm for Gshare {
    /// The two-bit counters (resetting to 1, weakly not-taken) and the
    /// global history register.
    fn visit(&mut self, v: &mut impl WarmVisitor) {
        let counters = Entries(&mut self.counters, RESET_COUNTER);
        v.table(
            "counters",
            u64::from(SmtConfig::MAX_TABLE_ENTRIES),
            counters,
        );
        v.scalar("history", &mut self.history);
    }

    fn restored(&mut self) {
        self.history &= self.history_mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_counters() {
        let mut g = Gshare::new(16);
        for _ in 0..10 {
            g.update(0x0, true);
        }
        assert!(g.predict(0x0));
        for _ in 0..10 {
            g.update(0x0, false);
        }
        assert!(!g.predict(0x0));
    }

    #[test]
    fn history_affects_index() {
        let mut g = Gshare::new(1024);
        // With different global history the same PC can map to different counters;
        // just ensure updates do not panic and predictions stay boolean.
        for i in 0..100u64 {
            let taken = i % 3 == 0;
            let _ = g.predict(0x40);
            g.update(0x40, taken);
        }
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let _ = Gshare::new(1000);
    }
}
