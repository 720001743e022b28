//! Set-associative cache tag store with LRU replacement.

use smt_types::config::CacheConfig;
use smt_types::warm::{Warm, WarmTable, WarmVisitor};

/// A set-associative, LRU-replaced cache tag store.
///
/// Only tags are modelled (the simulator is trace driven and never needs data
/// values). The cache is shared between SMT threads; callers are expected to embed
/// the thread id into the address if they want disjoint address spaces.
///
/// # Example
///
/// ```
/// use smt_mem::SetAssocCache;
/// use smt_types::config::CacheConfig;
///
/// let cfg = CacheConfig { size_bytes: 1024, associativity: 2, line_bytes: 64, latency: 1 };
/// let mut cache = SetAssocCache::new(&cfg);
/// assert!(!cache.access(0x40));     // cold miss
/// cache.fill(0x40);
/// assert!(cache.access(0x44));      // same line now hits
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    /// Two columns of `ways` entries (see [`SetAssocCache::columns`]), each
    /// indexed by `set * associativity + way`: the tags, each the stored tag
    /// plus one or 0 for an invalid way, then the LRU stamps, which
    /// invalidation keeps because the stamped victim rule orders invalid ways
    /// by them. The allocation comes from `calloc`; when glibc recycles a
    /// freed block for it, `calloc` clears every page, so construction can
    /// touch the whole table, not only the sets accesses reach.
    ///
    /// The columns share one allocation: glibc hands freed memory back to
    /// the OS beyond twice its largest freed block, so two half-size blocks
    /// were returned and faulted in again by every new simulator (perfbench
    /// `grid4t`: ~107K minor page faults in a 3 s run, ~2.7K with one
    /// block).
    columns: Vec<u64>,
    /// Number of ways, the length of each column.
    ways: usize,
    associativity: usize,
    line_shift: u32,
    set_mask: u64,
    latency: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate (see
    /// [`CacheConfig::validate`]).
    pub fn new(config: &CacheConfig) -> Self {
        config.validate().expect("invalid cache configuration");
        let num_sets = config.num_sets();
        let associativity = config.associativity as usize;
        let ways = num_sets as usize * associativity;
        SetAssocCache {
            columns: vec![0; 2 * ways],
            ways,
            associativity,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: num_sets - 1,
            latency: config.latency,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Access latency of this level in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// The first way of `addr`'s set and the tag column value `addr` is
    /// stored under. Lines are at least two bytes, so the tag is below
    /// `u64::MAX` and the stored value is never 0.
    #[inline(always)]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        (
            set * self.associativity,
            (line >> self.set_mask.count_ones()) + 1,
        )
    }

    /// The tag column and the stamp column.
    #[inline(always)]
    fn columns(&self) -> (&[u64], &[u64]) {
        self.columns.split_at(self.ways)
    }

    /// Stores `tag` and `stamp` in way `way`.
    #[inline(always)]
    fn set_way(&mut self, way: usize, tag: u64, stamp: u64) {
        let (tags, stamps) = self.columns.split_at_mut(self.ways);
        tags[way] = tag;
        stamps[way] = stamp;
    }

    /// The flat index of the way holding `tag` in the set starting at
    /// `first`, if any.
    #[inline(always)]
    fn find(&self, first: usize, tag: u64) -> Option<usize> {
        self.columns().0[first..first + self.associativity]
            .iter()
            .position(|&t| t == tag)
            .map(|way| first + way)
    }

    /// The flat index of the way of the set starting at `first` that
    /// minimizes `key(tag, stamp)`, the first such way winning ties.
    #[inline(always)]
    fn victim<K: Ord>(&self, first: usize, key: impl Fn(u64, u64) -> K) -> usize {
        let (tags, stamps) = self.columns();
        let end = first + self.associativity;
        let (way, _) = tags[first..end]
            .iter()
            .zip(&stamps[first..end])
            .enumerate()
            .min_by_key(|&(_, (&tag, &stamp))| key(tag, stamp))
            .expect("cache set has at least one way");
        first + way
    }

    /// Looks up `addr`, updating LRU state and hit/miss counters.
    ///
    /// Returns `true` on a hit. Does **not** allocate on a miss; call
    /// [`SetAssocCache::fill`] for that, which mirrors how the hierarchy installs
    /// the line only once the miss returns.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        self.access_stamped(addr, self.tick)
    }

    /// Checks for presence without touching LRU state or counters.
    pub fn probe(&self, addr: u64) -> bool {
        let (first, tag) = self.locate(addr);
        self.find(first, tag).is_some()
    }

    /// Installs the line containing `addr`, evicting the LRU way if needed:
    /// the lowest-stamped way, counting invalid ways as stamp 0, first way
    /// winning ties.
    pub fn fill(&mut self, addr: u64) {
        self.tick += 1;
        let tick = self.tick;
        let (first, tag) = self.locate(addr);
        let victim = match self.find(first, tag) {
            Some(way) => way,
            None => self.victim(first, |tag, stamp| if tag != 0 { stamp } else { 0 }),
        };
        self.set_way(victim, tag, tick);
    }

    /// Records a hit serviced outside the tag store (the chip-shared level
    /// forwarding a line staged for fill this cycle) so the hit/miss
    /// counters classify the access correctly.
    pub fn record_external_hit(&mut self) {
        self.hits += 1;
    }

    /// Looks up `addr` with an explicit LRU stamp instead of the internal
    /// access tick, updating hit/miss counters.
    ///
    /// Chip-shared levels stamp every access of one chip cycle with the same
    /// value so that the LRU state after the cycle does not depend on the
    /// order cores were serviced in.
    pub fn access_stamped(&mut self, addr: u64, stamp: u64) -> bool {
        let (first, tag) = self.locate(addr);
        if let Some(way) = self.find(first, tag) {
            self.columns[self.ways + way] = stamp;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        false
    }

    /// Installs (or LRU-refreshes) the line containing `addr` with an explicit
    /// stamp, evicting the lowest-stamped valid way if needed (invalid ways
    /// are always preferred, lowest stamp first; ties break on the lowest way
    /// index, so the outcome is a pure function of the set state and the
    /// stamp).
    pub fn fill_stamped(&mut self, addr: u64, stamp: u64) {
        let (first, tag) = self.locate(addr);
        let victim = match self.find(first, tag) {
            Some(way) => way,
            None => self.victim(first, |tag, stamp| (tag != 0, stamp)),
        };
        self.set_way(victim, tag, stamp);
    }

    /// Invalidates every line (used between experiment repetitions).
    pub fn flush_all(&mut self) {
        self.columns[..self.ways].fill(0);
    }

    /// Number of lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// The way table of a checkpoint: each way as `(tag, stamp)`, the stored
/// tag plus one (0 marks an invalid way that still carries a stamp) and the
/// LRU stamp, indexed by `set * associativity + way`.
struct Ways<'a> {
    columns: &'a mut Vec<u64>,
    ways: usize,
}

impl WarmTable for Ways<'_> {
    type Entry = (u64, u64);

    fn size(&self) -> usize {
        self.ways
    }

    fn get(&self, way: usize) -> Option<(u64, u64)> {
        let entry = (self.columns[way], self.columns[self.ways + way]);
        (entry != (0, 0)).then_some(entry)
    }

    /// Fresh zeroed columns: the ways the state leaves out stay untouched.
    fn clear(&mut self) {
        // analyze: allow(hot-path-alloc) reason="once per checkpoint restore, never in the cycle loop"
        *self.columns = vec![0; 2 * self.ways];
    }

    fn set(&mut self, way: usize, (tag, stamp): (u64, u64)) {
        self.columns[way] = tag;
        self.columns[self.ways + way] = stamp;
    }
}

impl Warm for SetAssocCache {
    fn visit(&mut self, v: &mut impl WarmVisitor) {
        let ways = Ways {
            ways: self.ways,
            columns: &mut self.columns,
        };
        v.table("ways", CacheConfig::MAX_LINES, ways);
        v.scalar("tick", &mut self.tick);
        v.scalar("hits", &mut self.hits);
        v.scalar("misses", &mut self.misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_types::warm;

    fn small_cache(assoc: u32) -> SetAssocCache {
        SetAssocCache::new(&CacheConfig {
            size_bytes: 4 * 64 * assoc as u64,
            associativity: assoc,
            line_bytes: 64,
            latency: 2,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache(2);
        assert!(!c.access(0x1000));
        c.fill(0x1000);
        assert!(c.access(0x1000));
        assert!(c.access(0x103f)); // same 64B line
        assert!(!c.access(0x1040)); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache(2);
        // Three lines mapping to the same set of a 4-set cache: stride = sets*line = 256.
        let a = 0x0;
        let b = 0x400;
        let d = 0x800;
        c.fill(a);
        c.fill(b);
        assert!(c.access(a)); // a is now MRU
        c.fill(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn probe_does_not_disturb_counters() {
        let mut c = small_cache(2);
        c.fill(0x0);
        assert!(c.probe(0x0));
        assert!(!c.probe(0x40));
        assert_eq!(c.hits() + c.misses(), 0);
    }

    #[test]
    fn flush_all_empties_cache() {
        let mut c = small_cache(4);
        for i in 0..16 {
            c.fill(i * 64);
        }
        c.flush_all();
        for i in 0..16 {
            assert!(!c.probe(i * 64));
        }
    }

    #[test]
    fn hit_rate_math() {
        let mut c = small_cache(2);
        assert_eq!((c.hits(), c.misses()), (0, 0));
        c.fill(0);
        assert!(c.access(0));
        assert!(!c.access(64));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn stamped_access_and_fill_are_order_invariant_within_a_stamp() {
        // Two caches see the same three same-set lines filled at one stamp in
        // opposite orders; the observable state afterwards must be identical.
        let mut a = small_cache(2);
        let mut b = small_cache(2);
        a.fill_stamped(0x0, 5);
        a.fill_stamped(0x400, 5);
        b.fill_stamped(0x400, 5);
        b.fill_stamped(0x0, 5);
        for addr in [0x0u64, 0x400] {
            assert_eq!(a.probe(addr), b.probe(addr));
        }
        // Oldest-stamped line is the victim regardless of way position.
        a.fill_stamped(0x0, 1);
        a.fill_stamped(0x400, 9);
        a.fill_stamped(0x800, 10);
        assert!(!a.probe(0x0));
        assert!(a.probe(0x400) && a.probe(0x800));
        // Stamped lookups refresh the stamp.
        assert!(a.access_stamped(0x400, 11));
        a.fill_stamped(0xc00, 12);
        assert!(a.probe(0x400));
        assert!(!a.probe(0x800));
        assert!(!a.access_stamped(0x1000, 13));
    }

    /// Invalid ways keep their LRU stamps, which order the next victims, so
    /// a checkpoint of a flushed cache lists them and a restore keeps them.
    #[test]
    fn restore_keeps_the_stamps_of_invalid_ways() {
        let mut c = small_cache(2);
        c.fill(0x0);
        c.fill(0x400);
        assert!(c.access(0x0)); // way 0 now has the newer stamp
        c.flush_all();
        let mut restored = small_cache(2);
        warm::restore(&mut restored, &warm::capture(&mut c)).unwrap();
        c.fill_stamped(0x800, 9);
        restored.fill_stamped(0x800, 9);
        assert_eq!(warm::capture(&mut restored), warm::capture(&mut c));
    }

    #[test]
    fn refill_of_present_line_updates_lru_not_duplicate() {
        let mut c = small_cache(2);
        c.fill(0x0);
        c.fill(0x400);
        c.fill(0x0); // refresh a
        c.fill(0x800); // should evict 0x400, not 0x0
        assert!(c.probe(0x0));
        assert!(!c.probe(0x400));
    }
}
