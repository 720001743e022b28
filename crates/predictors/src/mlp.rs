//! MLP predictors (Section 4.2 and the Section 6.5 alternatives).

use smt_types::warm::{Entries, Warm, WarmVisitor};
use smt_types::SmtConfig;

/// Last-value predictor of the MLP *distance* of a long-latency load.
///
/// A 2K-entry, load-PC indexed table; each entry holds the most recently observed
/// MLP distance (⌈log2(ROB/threads)⌉ bits, 7 in the paper's two-thread baseline —
/// 14 Kbit of storage in total). A predicted distance of zero means "no MLP":
/// the fetch policy should stall or flush the thread immediately.
///
/// # Example
///
/// ```
/// use smt_predictors::MlpDistancePredictor;
/// let mut p = MlpDistancePredictor::new(2048, 128);
/// assert_eq!(p.predict(0x40), 0);
/// p.update(0x40, 57);
/// assert_eq!(p.predict(0x40), 57);
/// p.update(0x40, 500); // clamped to the LLSR length
/// assert_eq!(p.predict(0x40), 128);
/// ```
#[derive(Clone, Debug)]
pub struct MlpDistancePredictor {
    table: Vec<u16>,
    max_distance: u32,
    updates: u64,
}

impl MlpDistancePredictor {
    /// Creates a predictor with `entries` entries whose stored distances saturate
    /// at `max_distance` (the LLSR length).
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `max_distance` is zero.
    pub fn new(entries: u32, max_distance: u32) -> Self {
        assert!(entries > 0, "predictor needs at least one entry");
        assert!(max_distance > 0, "maximum MLP distance must be non-zero");
        MlpDistancePredictor {
            table: vec![0; entries as usize],
            max_distance,
            updates: 0,
        }
    }

    fn slot(&self, pc: u64) -> usize {
        (pc as usize / 4) % self.table.len()
    }

    /// Predicts the MLP distance of the long-latency load at `pc` (0 = no MLP).
    pub fn predict(&self, pc: u64) -> u32 {
        self.table[self.slot(pc)] as u32
    }

    /// Trains the predictor with an observed MLP distance from the LLSR.
    pub fn update(&mut self, pc: u64, observed_distance: u32) {
        let slot = self.slot(pc);
        self.table[slot] = observed_distance.min(self.max_distance) as u16;
        self.updates += 1;
    }

    /// Number of training updates applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Clears all learned state.
    pub fn reset(&mut self) {
        self.table.iter_mut().for_each(|e| *e = 0);
    }
}

impl Warm for MlpDistancePredictor {
    /// The last observed MLP distances by slot (0, no MLP, is the reset
    /// value) and the number of updates.
    fn visit(&mut self, v: &mut impl WarmVisitor) {
        let table = Entries(&mut self.table, 0);
        v.table("table", u64::from(SmtConfig::MAX_TABLE_ENTRIES), table);
        v.scalar("updates", &mut self.updates);
    }
}

/// Binary MLP predictor used by the Section 6.5 alternatives (c) and (e): a 1-bit,
/// load-PC indexed table remembering whether the previous dynamic instance of this
/// long-latency load exhibited any MLP at all.
#[derive(Clone, Debug)]
pub struct BinaryMlpPredictor {
    table: Vec<bool>,
}

impl BinaryMlpPredictor {
    /// Creates a predictor with `entries` one-bit entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: u32) -> Self {
        assert!(entries > 0, "predictor needs at least one entry");
        BinaryMlpPredictor {
            table: vec![false; entries as usize],
        }
    }

    fn slot(&self, pc: u64) -> usize {
        (pc as usize / 4) % self.table.len()
    }

    /// Predicts whether the long-latency load at `pc` will expose MLP.
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.slot(pc)]
    }

    /// Trains the predictor with whether MLP was observed for this load.
    pub fn update(&mut self, pc: u64, had_mlp: bool) {
        let slot = self.slot(pc);
        self.table[slot] = had_mlp;
    }

    /// Clears all learned state.
    pub fn reset(&mut self) {
        self.table.iter_mut().for_each(|e| *e = false);
    }
}

impl Warm for BinaryMlpPredictor {
    /// The slots whose last observation showed MLP.
    fn visit(&mut self, v: &mut impl WarmVisitor) {
        let table = Entries(&mut self.table, false);
        v.table("table", u64::from(SmtConfig::MAX_TABLE_ENTRIES), table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_value_behaviour() {
        let mut p = MlpDistancePredictor::new(64, 128);
        p.update(0x40, 10);
        p.update(0x40, 20);
        assert_eq!(p.predict(0x40), 20);
        assert_eq!(p.updates(), 2);
    }

    #[test]
    fn distance_saturates_at_llsr_length() {
        let mut p = MlpDistancePredictor::new(64, 64);
        p.update(0x40, 1000);
        assert_eq!(p.predict(0x40), 64);
    }

    #[test]
    fn unknown_pc_predicts_no_mlp() {
        let p = MlpDistancePredictor::new(64, 64);
        assert_eq!(p.predict(0xdead), 0);
    }

    #[test]
    fn reset_forgets() {
        let mut p = MlpDistancePredictor::new(64, 64);
        p.update(0x40, 12);
        p.reset();
        assert_eq!(p.predict(0x40), 0);
    }

    #[test]
    fn binary_predictor_tracks_last_outcome() {
        let mut p = BinaryMlpPredictor::new(64);
        assert!(!p.predict(0x40));
        p.update(0x40, true);
        assert!(p.predict(0x40));
        p.update(0x40, false);
        assert!(!p.predict(0x40));
        p.update(0x40, true);
        p.reset();
        assert!(!p.predict(0x40));
    }

    #[test]
    fn aliasing_uses_modulo_indexing() {
        let mut p = MlpDistancePredictor::new(16, 64);
        // PCs 0x0 and 0x100 alias in a 16-entry table (0x100/4 = 64 ≡ 0 mod 16).
        p.update(0x0, 7);
        assert_eq!(p.predict(0x100), 7);
    }

    #[test]
    #[should_panic]
    fn zero_entries_rejected() {
        let _ = MlpDistancePredictor::new(0, 64);
    }
}
