//! Set-associative branch target buffer.

use serde::{Deserialize, Serialize};
use smt_types::warm::{Entries, Warm, WarmVisitor};
use smt_types::SmtConfig;

/// One BTB way; the default is the reset (invalid) way.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct BtbEntry {
    /// Whether the way holds a target.
    pub valid: bool,
    /// Stored tag.
    pub tag: u64,
    /// Predicted target PC.
    pub target: u64,
    /// LRU stamp.
    pub last_used: u64,
}

/// A set-associative, LRU-replaced branch target buffer.
///
/// # Example
///
/// ```
/// use smt_branch::BranchTargetBuffer;
/// let mut btb = BranchTargetBuffer::new(256, 4);
/// btb.insert(0x400, 0x800);
/// assert_eq!(btb.lookup(0x400), Some(0x800));
/// assert_eq!(btb.lookup(0x404), None);
/// ```
#[derive(Clone, Debug)]
pub struct BranchTargetBuffer {
    /// Every way of every set, indexed by `set * assoc + way`.
    ways: Vec<BtbEntry>,
    assoc: usize,
    /// Number of sets minus one (the set count is a power of two).
    set_mask: u64,
    tick: u64,
}

impl BranchTargetBuffer {
    /// Creates a BTB with `entries` total entries organised as `assoc`-way sets.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `assoc` is zero, `assoc` does not divide `entries`,
    /// or the resulting set count is not a power of two.
    pub fn new(entries: u32, assoc: u32) -> Self {
        assert!(entries > 0 && assoc > 0, "BTB sizes must be non-zero");
        assert!(
            entries.is_multiple_of(assoc),
            "associativity must divide entry count"
        );
        let sets = entries / assoc;
        assert!(
            sets.is_power_of_two(),
            "BTB set count must be a power of two"
        );
        BranchTargetBuffer {
            ways: vec![BtbEntry::default(); entries as usize],
            assoc: assoc as usize,
            set_mask: u64::from(sets - 1),
            tick: 0,
        }
    }

    /// The ways of `pc`'s set and the tag `pc` is stored under.
    fn set_and_tag(&mut self, pc: u64) -> (&mut [BtbEntry], u64) {
        let idx = pc >> 2;
        let first = (idx & self.set_mask) as usize * self.assoc;
        (
            &mut self.ways[first..first + self.assoc],
            idx >> self.set_mask.count_ones(),
        )
    }

    /// Looks up a predicted target for the branch at `pc`.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let (ways, tag) = self.set_and_tag(pc);
        for e in ways {
            if e.valid && e.tag == tag {
                e.last_used = tick;
                return Some(e.target);
            }
        }
        None
    }

    /// Installs (or refreshes) the target of a taken branch.
    pub fn insert(&mut self, pc: u64, target: u64) {
        self.tick += 1;
        let tick = self.tick;
        let (ways, tag) = self.set_and_tag(pc);
        if let Some(e) = ways.iter_mut().find(|e| e.valid && e.tag == tag) {
            e.target = target;
            e.last_used = tick;
            return;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|e| if e.valid { e.last_used } else { 0 })
            .expect("BTB set has at least one way");
        *victim = BtbEntry {
            valid: true,
            tag,
            target,
            last_used: tick,
        };
    }
}

impl Warm for BranchTargetBuffer {
    /// The ways, indexed by `set * assoc + way`, and the LRU clock.
    fn visit(&mut self, v: &mut impl WarmVisitor) {
        let ways = Entries(&mut self.ways, BtbEntry::default());
        v.table("entries", u64::from(SmtConfig::MAX_TABLE_ENTRIES), ways);
        v.scalar("tick", &mut self.tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_roundtrip() {
        let mut btb = BranchTargetBuffer::new(64, 4);
        btb.insert(0x1000, 0x2000);
        assert_eq!(btb.lookup(0x1000), Some(0x2000));
        btb.insert(0x1000, 0x3000);
        assert_eq!(btb.lookup(0x1000), Some(0x3000));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut btb = BranchTargetBuffer::new(4, 2); // 2 sets, 2 ways
                                                     // PCs mapping to set 0: idx multiples of 2 → pc multiples of 8 with (pc>>2)&1==0.
        let pcs = [0x0u64, 0x8, 0x10];
        btb.insert(pcs[0], 0xa0);
        btb.insert(pcs[1], 0xa1);
        assert!(btb.lookup(pcs[0]).is_some()); // refresh pcs[0]
        btb.insert(pcs[2], 0xa2); // evicts pcs[1]
        assert!(btb.lookup(pcs[0]).is_some());
        assert!(btb.lookup(pcs[1]).is_none());
        assert!(btb.lookup(pcs[2]).is_some());
    }

    #[test]
    #[should_panic]
    fn bad_geometry_rejected() {
        let _ = BranchTargetBuffer::new(10, 4);
    }
}
