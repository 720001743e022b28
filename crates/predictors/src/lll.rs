//! Long-latency load predictors (Section 4.1).

use smt_types::warm::{Entries, Warm, WarmVisitor};
use smt_types::SmtConfig;

/// Interface shared by all long-latency load predictors.
///
/// The predictor is consulted in the front-end pipeline ([`predict`]) and trained
/// when the load executes and its hit/miss status is known ([`update`]).
///
/// [`predict`]: LongLatencyPredictor::predict
/// [`update`]: LongLatencyPredictor::update
pub trait LongLatencyPredictor {
    /// Predicts whether the static load at `pc` will be a long-latency load
    /// (an L3 miss or D-TLB miss).
    fn predict(&mut self, pc: u64) -> bool;

    /// Trains the predictor with the observed outcome of the load at `pc`.
    fn update(&mut self, pc: u64, was_long_latency: bool);

    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;
}

/// The miss pattern predictor of Limousin et al. (Figure 2 of the paper).
///
/// Each entry, indexed by load PC, records (i) the number of hits by the same
/// static load between the two most recent long-latency misses and (ii) the number
/// of hits since the last long-latency miss. When (ii) reaches (i) the next
/// instance is predicted to be a long-latency load — a last-value predictor on the
/// *hit run length* between misses. The paper uses a 2K-entry table with 6-bit
/// counters (12 Kbit per thread).
#[derive(Clone, Debug)]
pub struct MissPatternPredictor {
    entries: Vec<MissPatternEntry>,
}

/// The saturation value of the 6-bit hit counters.
const COUNTER_MAX: u8 = 63;

/// One miss-pattern table entry; the default is the reset entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MissPatternEntry {
    /// Hits between the two most recent long-latency misses.
    pub period: u8,
    /// Hits since the last long-latency miss.
    pub since_last: u8,
    /// Whether the entry has observed a miss yet.
    pub seen_miss: bool,
}

impl MissPatternPredictor {
    /// Creates a predictor with `entries` table entries and 6-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: u32) -> Self {
        assert!(entries > 0, "predictor needs at least one entry");
        MissPatternPredictor {
            entries: vec![MissPatternEntry::default(); entries as usize],
        }
    }

    fn slot(&self, pc: u64) -> usize {
        (pc as usize / 4) % self.entries.len()
    }
}

impl Warm for MissPatternPredictor {
    /// The table entries by slot.
    fn visit(&mut self, v: &mut impl WarmVisitor) {
        let entries = Entries(&mut self.entries, MissPatternEntry::default());
        v.table("entries", u64::from(SmtConfig::MAX_TABLE_ENTRIES), entries);
    }
}

impl LongLatencyPredictor for MissPatternPredictor {
    fn predict(&mut self, pc: u64) -> bool {
        // The paper's predictor fires only when the hit run-length since the last
        // miss *equals* the previously observed run-length — not ">=", which would
        // keep predicting "miss" forever after a single isolated miss.
        let e = self.entries[self.slot(pc)];
        e.seen_miss && e.since_last == e.period
    }

    fn update(&mut self, pc: u64, was_long_latency: bool) {
        let slot = self.slot(pc);
        let e = &mut self.entries[slot];
        if was_long_latency {
            e.period = e.since_last;
            e.since_last = 0;
            e.seen_miss = true;
        } else {
            e.since_last = (e.since_last + 1).min(COUNTER_MAX);
        }
    }

    fn name(&self) -> &'static str {
        "miss-pattern"
    }
}

/// A last-value hit/miss predictor: predicts whatever the previous dynamic
/// instance of the static load did.
#[derive(Clone, Debug)]
pub struct LastValuePredictor {
    last_was_miss: Vec<bool>,
}

impl LastValuePredictor {
    /// Creates a predictor with `entries` table entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: u32) -> Self {
        assert!(entries > 0, "predictor needs at least one entry");
        LastValuePredictor {
            last_was_miss: vec![false; entries as usize],
        }
    }

    fn slot(&self, pc: u64) -> usize {
        (pc as usize / 4) % self.last_was_miss.len()
    }
}

impl LongLatencyPredictor for LastValuePredictor {
    fn predict(&mut self, pc: u64) -> bool {
        let s = self.slot(pc);
        self.last_was_miss[s]
    }

    fn update(&mut self, pc: u64, was_long_latency: bool) {
        let s = self.slot(pc);
        self.last_was_miss[s] = was_long_latency;
    }

    fn name(&self) -> &'static str {
        "last-value"
    }
}

/// The 2-bit saturating-counter data-miss predictor of El-Moursy & Albonesi:
/// the counter counts towards "miss" on misses and towards "hit" on hits; a load
/// is predicted long latency when the counter is in one of the two upper states.
#[derive(Clone, Debug)]
pub struct TwoBitMissPredictor {
    counters: Vec<u8>,
}

impl TwoBitMissPredictor {
    /// Creates a predictor with `entries` two-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: u32) -> Self {
        assert!(entries > 0, "predictor needs at least one entry");
        TwoBitMissPredictor {
            counters: vec![0; entries as usize],
        }
    }

    fn slot(&self, pc: u64) -> usize {
        (pc as usize / 4) % self.counters.len()
    }
}

impl LongLatencyPredictor for TwoBitMissPredictor {
    fn predict(&mut self, pc: u64) -> bool {
        let s = self.slot(pc);
        self.counters[s] >= 2
    }

    fn update(&mut self, pc: u64, was_long_latency: bool) {
        let s = self.slot(pc);
        if was_long_latency {
            self.counters[s] = (self.counters[s] + 1).min(3);
        } else {
            self.counters[s] = self.counters[s].saturating_sub(1);
        }
    }

    fn name(&self) -> &'static str {
        "two-bit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds a periodic hit/miss pattern (period `period`, one miss per period) and
    /// returns the prediction accuracy over the last `eval` references.
    fn run_periodic<P: LongLatencyPredictor>(
        p: &mut P,
        period: usize,
        total: usize,
        eval: usize,
    ) -> f64 {
        let mut correct = 0;
        for i in 0..total {
            let actual_miss = i % period == period - 1;
            let predicted = p.predict(0x400);
            if i >= total - eval && predicted == actual_miss {
                correct += 1;
            }
            p.update(0x400, actual_miss);
        }
        correct as f64 / eval as f64
    }

    #[test]
    fn miss_pattern_learns_periodic_misses() {
        let mut p = MissPatternPredictor::new(2048);
        let acc = run_periodic(&mut p, 10, 500, 300);
        assert!(
            acc > 0.95,
            "miss pattern predictor should nail periodic misses, got {acc}"
        );
    }

    #[test]
    fn miss_pattern_beats_last_value_on_periodic_pattern() {
        let mut mp = MissPatternPredictor::new(2048);
        let mut lv = LastValuePredictor::new(2048);
        let acc_mp = run_periodic(&mut mp, 8, 400, 300);
        let acc_lv = run_periodic(&mut lv, 8, 400, 300);
        assert!(
            acc_mp > acc_lv,
            "miss pattern {acc_mp} should beat last value {acc_lv}"
        );
    }

    #[test]
    fn last_value_predicts_streaks() {
        let mut p = LastValuePredictor::new(64);
        p.update(0x40, true);
        assert!(p.predict(0x40));
        p.update(0x40, false);
        assert!(!p.predict(0x40));
    }

    #[test]
    fn two_bit_hysteresis() {
        let mut p = TwoBitMissPredictor::new(64);
        p.update(0x40, true);
        p.update(0x40, true);
        assert!(p.predict(0x40));
        p.update(0x40, true); // saturate at strongly-miss
                              // One hit does not flip a strongly-miss counter.
        p.update(0x40, false);
        assert!(p.predict(0x40));
        p.update(0x40, false);
        assert!(!p.predict(0x40));
    }

    #[test]
    fn always_hitting_load_never_predicted_miss() {
        let mut p = MissPatternPredictor::new(2048);
        for _ in 0..200 {
            assert!(!p.predict(0x800));
            p.update(0x800, false);
        }
    }

    #[test]
    fn one_isolated_miss_does_not_poison_the_entry() {
        let mut p = MissPatternPredictor::new(2048);
        // Warm the entry with hits, one miss, then hits forever.
        for _ in 0..5 {
            p.update(0x900, false);
        }
        p.update(0x900, true);
        let mut wrong = 0;
        for _ in 0..100 {
            if p.predict(0x900) {
                wrong += 1;
            }
            p.update(0x900, false);
        }
        // Exactly one stale "miss" prediction fires (at the learned run length);
        // after that the predictor returns to predicting hits.
        assert!(
            wrong <= 1,
            "isolated miss poisoned the entry: {wrong} wrong predictions"
        );
    }

    #[test]
    fn names_are_distinct() {
        let a = MissPatternPredictor::new(16);
        let b = LastValuePredictor::new(16);
        let c = TwoBitMissPredictor::new(16);
        assert_ne!(a.name(), b.name());
        assert_ne!(b.name(), c.name());
        assert_ne!(a.name(), c.name());
    }

    #[test]
    #[should_panic]
    fn zero_entries_rejected() {
        let _ = MissPatternPredictor::new(0);
    }
}
