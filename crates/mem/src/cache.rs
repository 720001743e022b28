//! Set-associative cache tag store with LRU replacement.

use serde::{Deserialize, Serialize};
use smt_types::config::CacheConfig;

/// Serializable snapshot of one cache way (for warm checkpoints).
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WayState {
    /// Whether the way holds a line.
    pub valid: bool,
    /// Stored tag.
    pub tag: u64,
    /// LRU stamp.
    pub last_used: u64,
}

/// Serializable snapshot of a [`SetAssocCache`] (for warm checkpoints).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CacheState {
    /// All ways of all sets, `set * associativity + way` order.
    pub ways: Vec<WayState>,
    /// The LRU clock.
    pub tick: u64,
    /// Lookup hits so far.
    pub hits: u64,
    /// Lookup misses so far.
    pub misses: u64,
}

/// One cache way: a valid tag plus an LRU timestamp.
#[derive(Clone, Copy, Debug, Default)]
struct Way {
    valid: bool,
    tag: u64,
    last_used: u64,
}

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
    /// All ways of all sets in one flat allocation, indexed by
    /// `set * associativity + way` — no per-set pointer chase on lookup.
    ways: Vec<Way>,
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
        SetAssocCache {
            ways: vec![Way::default(); num_sets as usize * associativity],
            associativity,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: num_sets - 1,
            latency: config.latency,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The ways of one set, as a contiguous slice of the flat way array.
    #[inline(always)]
    fn set_ways(&self, set: usize) -> &[Way] {
        let start = set * self.associativity;
        &self.ways[start..start + self.associativity]
    }

    /// Mutable counterpart of [`SetAssocCache::set_ways`].
    #[inline(always)]
    fn set_ways_mut(&mut self, set: usize) -> &mut [Way] {
        let start = set * self.associativity;
        &mut self.ways[start..start + self.associativity]
    }

    /// Access latency of this level in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    /// Looks up `addr`, updating LRU state and hit/miss counters.
    ///
    /// Returns `true` on a hit. Does **not** allocate on a miss; call
    /// [`SetAssocCache::fill`] for that, which mirrors how the hierarchy installs
    /// the line only once the miss returns.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index_tag(addr);
        for way in self.set_ways_mut(set) {
            if way.valid && way.tag == tag {
                way.last_used = tick;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Checks for presence without touching LRU state or counters.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.index_tag(addr);
        self.set_ways(set).iter().any(|w| w.valid && w.tag == tag)
    }

    /// Installs the line containing `addr`, evicting the LRU way if needed.
    pub fn fill(&mut self, addr: u64) {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index_tag(addr);
        let ways = self.set_ways_mut(set);
        if let Some(way) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_used = tick;
            return;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.last_used } else { 0 })
            .expect("cache set has at least one way");
        victim.valid = true;
        victim.tag = tag;
        victim.last_used = tick;
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
        let (set, tag) = self.index_tag(addr);
        for way in self.set_ways_mut(set) {
            if way.valid && way.tag == tag {
                way.last_used = stamp;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Installs (or LRU-refreshes) the line containing `addr` with an explicit
    /// stamp, evicting the lowest-stamped valid way if needed (invalid ways
    /// are always preferred; ties break on the lowest way index, so the
    /// outcome is a pure function of the set state and the stamp).
    pub fn fill_stamped(&mut self, addr: u64, stamp: u64) {
        let (set, tag) = self.index_tag(addr);
        let ways = self.set_ways_mut(set);
        if let Some(way) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_used = stamp;
            return;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|w| (w.valid, w.last_used))
            .expect("cache set has at least one way");
        victim.valid = true;
        victim.tag = tag;
        victim.last_used = stamp;
    }

    /// Captures the tag-store state for a warm checkpoint.
    pub fn state(&self) -> CacheState {
        CacheState {
            ways: self
                .ways
                .iter()
                .map(|w| WayState {
                    valid: w.valid,
                    tag: w.tag,
                    last_used: w.last_used,
                })
                .collect(),
            tick: self.tick,
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Restores a state captured with [`SetAssocCache::state`]. Fails when
    /// the cache geometry differs.
    pub fn restore_state(&mut self, state: &CacheState) -> Result<(), String> {
        if state.ways.len() != self.ways.len() {
            return Err(format!(
                "cache geometry mismatch: state has {} ways, cache has {}",
                state.ways.len(),
                self.ways.len()
            ));
        }
        for (way, s) in self.ways.iter_mut().zip(state.ways.iter()) {
            way.valid = s.valid;
            way.tag = s.tag;
            way.last_used = s.last_used;
        }
        self.tick = state.tick;
        self.hits = state.hits;
        self.misses = state.misses;
        Ok(())
    }

    /// Invalidates every line (used between experiment repetitions).
    pub fn flush_all(&mut self) {
        for way in &mut self.ways {
            way.valid = false;
        }
    }

    /// Number of lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all lookups (1.0 when no lookups have happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(c.hit_rate(), 1.0);
        c.fill(0);
        assert!(c.access(0));
        assert!(!c.access(64));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
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
