//! Fully-associative translation lookaside buffer with LRU replacement.

use serde::{Deserialize, Serialize};
use smt_types::config::TlbConfig;
use smt_types::warm::{same_len, Entries, Warm, WarmVisitor};
use smt_types::SmtConfig;

/// One TLB entry; the default is the reset (invalid) entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TlbEntry {
    /// Whether the entry holds a translation.
    pub valid: bool,
    /// Stored virtual page number.
    pub vpn: u64,
    /// LRU stamp.
    pub last_used: u64,
}

/// Sentinel for "no slot" in [`LruIndex`] links.
const NO_SLOT: u32 = u32::MAX;

/// Splitmix64-finalizer hasher for the vpn → slot map. Keys are single `u64`
/// virtual page numbers hashed on the hot path of every load and store;
/// SipHash's collision-attack resistance buys nothing against our own address
/// stream and costs most of the lookup.
#[derive(Clone, Copy, Default, Debug)]
struct VpnHasher(u64);

impl std::hash::Hasher for VpnHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback for non-u64 writes (unused by the vpn map).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, key: u64) {
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

/// The vpn → slot map used by [`LruIndex`].
type VpnMap = std::collections::HashMap<u64, u32, std::hash::BuildHasherDefault<VpnHasher>>;

/// O(1) recency index over one TLB's entry slice: a `vpn → slot` hash map for
/// lookups plus an intrusive doubly-linked list ordered least- to
/// most-recently used for victim selection.
///
/// This replays *exactly* the outcomes of the original linear algorithm
/// (scan for a matching valid entry; otherwise evict the entry minimizing
/// `if valid { last_used } else { 0 }`, first slot winning ties): invalid
/// slots sit at the front of the list in slot order, and every use appends to
/// the back with a fresh, strictly increasing stamp. The fully-associative
/// D-TLB is 512 entries, so the linear scans dominated every load and store
/// in both detailed and fast-forward mode before this index existed.
#[derive(Clone, Debug)]
struct LruIndex {
    map: VpnMap,
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Least recently used slot (the eviction victim).
    head: u32,
    /// Most recently used slot.
    tail: u32,
}

impl LruIndex {
    /// Builds the index for `n` initially-invalid slots (list in slot order).
    fn new(n: usize) -> Self {
        let mut this = LruIndex {
            map: VpnMap::with_capacity_and_hasher(n, Default::default()),
            prev: vec![NO_SLOT; n],
            next: vec![NO_SLOT; n],
            head: NO_SLOT,
            tail: NO_SLOT,
        };
        this.link_in_order(&(0..n as u32).collect::<Vec<_>>());
        this
    }

    /// Relinks the list to exactly `slots` (front to back) and clears nothing
    /// else; callers are responsible for the map.
    fn link_in_order(&mut self, slots: &[u32]) {
        self.head = NO_SLOT;
        self.tail = NO_SLOT;
        for &slot in slots {
            self.prev[slot as usize] = self.tail;
            self.next[slot as usize] = NO_SLOT;
            if self.tail == NO_SLOT {
                self.head = slot;
            } else {
                self.next[self.tail as usize] = slot;
            }
            self.tail = slot;
        }
    }

    /// Moves `slot` to the most-recently-used end.
    fn touch(&mut self, slot: u32) {
        if self.tail == slot {
            return;
        }
        // Unlink.
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NO_SLOT {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NO_SLOT {
            self.prev[n as usize] = p;
        }
        // Append.
        self.prev[slot as usize] = self.tail;
        self.next[slot as usize] = NO_SLOT;
        if self.tail != NO_SLOT {
            self.next[self.tail as usize] = slot;
        }
        self.tail = slot;
        if self.head == NO_SLOT {
            self.head = slot;
        }
    }

    /// Rebuilds map and list from restored entries: recency order is
    /// `(if valid { last_used } else { 0 }, slot)` ascending, and duplicate
    /// vpns keep first-slot-wins semantics like the original linear scan.
    fn rebuild(&mut self, entries: &[TlbEntry]) {
        self.map.clear();
        // analyze: allow(hot-path-alloc) reason="once per checkpoint restore or flush, never in the cycle loop"
        let mut slots: Vec<u32> = (0..entries.len() as u32).collect();
        slots.sort_by_key(|&s| {
            let e = &entries[s as usize];
            (if e.valid { e.last_used } else { 0 }, s)
        });
        self.link_in_order(&slots);
        for (slot, e) in entries.iter().enumerate() {
            if e.valid {
                self.map.entry(e.vpn).or_insert(slot as u32);
            }
        }
    }
}

/// Looks up `vpn` in `entries`, refreshing its LRU stamp on a hit or
/// installing it over the LRU victim on a miss (the hardware page walk).
/// Returns `true` on a hit.
fn access_entries(entries: &mut [TlbEntry], index: &mut LruIndex, tick: u64, vpn: u64) -> bool {
    if let Some(&slot) = index.map.get(&vpn) {
        let e = &mut entries[slot as usize];
        if e.valid && e.vpn == vpn {
            e.last_used = tick;
            index.touch(slot);
            return true;
        }
    }
    let victim = index.head;
    let e = &mut entries[victim as usize];
    if e.valid && index.map.get(&e.vpn) == Some(&victim) {
        index.map.remove(&e.vpn);
    }
    e.valid = true;
    e.vpn = vpn;
    e.last_used = tick;
    index.map.entry(vpn).or_insert(victim);
    index.touch(victim);
    false
}

/// The original linear-scan formulation of [`access_entries`], kept as the
/// reference model the indexed fast path is property-tested against.
#[cfg(test)]
fn reference_access_entries(entries: &mut [TlbEntry], tick: u64, vpn: u64) -> bool {
    if let Some(e) = entries.iter_mut().find(|e| e.valid && e.vpn == vpn) {
        e.last_used = tick;
        return true;
    }
    let victim = entries
        .iter_mut()
        .min_by_key(|e| if e.valid { e.last_used } else { 0 })
        .expect("TLB has at least one entry");
    victim.valid = true;
    victim.vpn = vpn;
    victim.last_used = tick;
    false
}

/// The per-thread data TLBs of every hardware thread, stored as a single
/// flat entry array indexed by `thread * entries_per_thread + entry`.
///
/// Each thread's slice is a fully-associative TLB with LRU replacement, as
/// configured in Table IV (512-entry D-TLB, 8 KB pages). A
/// D-TLB miss is one of the two events the paper counts as a *long-latency
/// load* (the other being an L3 load miss). One allocation holds every
/// thread's entries, so hierarchy lookups don't chase a per-thread pointer.
///
/// # Example
///
/// ```
/// use smt_mem::TlbFile;
/// use smt_types::config::TlbConfig;
///
/// let cfg = TlbConfig { entries: 4, page_bytes: 8192, miss_penalty: 350 };
/// let mut tlbs = TlbFile::new(&cfg, 2);
/// assert!(!tlbs.access(0, 0x0));       // thread 0: cold miss, entry installed
/// assert!(tlbs.access(0, 0x1fff));     // same 8 KB page
/// assert!(!tlbs.access(1, 0x0));       // thread 1 has its own entries
/// ```
#[derive(Clone, Debug)]
pub struct TlbFile {
    /// All threads' entries in one flat allocation.
    entries: Vec<TlbEntry>,
    /// One recency index per thread, over that thread's slice.
    indexes: Vec<LruIndex>,
    entries_per_thread: usize,
    page_shift: u32,
    miss_penalty: u64,
    /// Per-thread LRU clocks (each thread's TLB ticks independently).
    ticks: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl TlbFile {
    /// Builds `num_threads` TLBs of `config`'s shape.
    ///
    /// # Panics
    ///
    /// Panics if the entry count is zero, the page size is not a power of two,
    /// or `num_threads` is zero.
    pub fn new(config: &TlbConfig, num_threads: usize) -> Self {
        assert!(config.entries > 0, "TLB needs at least one entry");
        assert!(
            config.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(num_threads > 0, "TLB file needs at least one thread");
        let entries_per_thread = config.entries as usize;
        TlbFile {
            entries: vec![TlbEntry::default(); entries_per_thread * num_threads],
            indexes: (0..num_threads)
                .map(|_| LruIndex::new(entries_per_thread))
                .collect(),
            entries_per_thread,
            page_shift: config.page_bytes.trailing_zeros(),
            miss_penalty: config.miss_penalty,
            ticks: vec![0; num_threads],
            hits: 0,
            misses: 0,
        }
    }

    /// Penalty in cycles charged for a miss (a page-table walk to memory).
    pub fn miss_penalty(&self) -> u64 {
        self.miss_penalty
    }

    /// Translates `addr` for `thread`; returns `true` on a hit. On a miss the
    /// translation is installed (hardware page walk), evicting the LRU entry
    /// of that thread's slice.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn access(&mut self, thread: usize, addr: u64) -> bool {
        self.ticks[thread] += 1;
        let tick = self.ticks[thread];
        let start = thread * self.entries_per_thread;
        let slice = &mut self.entries[start..start + self.entries_per_thread];
        let hit = access_entries(
            slice,
            &mut self.indexes[thread],
            tick,
            addr >> self.page_shift,
        );
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Checks for a translation without installing or touching LRU state.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn probe(&self, thread: usize, addr: u64) -> bool {
        let vpn = addr >> self.page_shift;
        let start = thread * self.entries_per_thread;
        self.entries[start..start + self.entries_per_thread]
            .iter()
            .any(|e| e.valid && e.vpn == vpn)
    }

    /// Number of hits so far, over all threads.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses so far, over all threads.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidates every translation of every thread.
    pub fn flush_all(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
        }
        self.rebuild_indexes();
    }

    /// Rebuilds every thread's recency index from the entry array (after a
    /// restore or flush mutated entries behind the indexes' back).
    fn rebuild_indexes(&mut self) {
        for (thread, index) in self.indexes.iter_mut().enumerate() {
            let start = thread * self.entries_per_thread;
            index.rebuild(&self.entries[start..start + self.entries_per_thread]);
        }
    }
}

impl Warm for TlbFile {
    /// The entries (indexed by `thread * entries_per_thread + entry`), the
    /// per-thread LRU clocks and the hit and miss counts.
    fn visit(&mut self, v: &mut impl WarmVisitor) {
        let threads = self.ticks.len();
        let max_len = u64::from(SmtConfig::MAX_TABLE_ENTRIES) * threads as u64;
        let entries = Entries(&mut self.entries, TlbEntry::default());
        v.table("entries", max_len, entries);
        v.value("ticks", &mut self.ticks, same_len(threads));
        v.scalar("hits", &mut self.hits);
        v.scalar("misses", &mut self.misses);
    }

    fn restored(&mut self) {
        self.rebuild_indexes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_types::warm;

    fn tiny() -> TlbFile {
        TlbFile::new(
            &TlbConfig {
                entries: 2,
                page_bytes: 4096,
                miss_penalty: 350,
            },
            1,
        )
    }

    #[test]
    fn hit_after_install() {
        let mut t = tiny();
        assert!(!t.access(0, 0x1000));
        assert!(t.access(0, 0x1abc));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn lru_eviction() {
        let mut t = tiny();
        t.access(0, 0x0000); // page 0
        t.access(0, 0x1000); // page 1
        t.access(0, 0x0000); // refresh page 0
        t.access(0, 0x2000); // evicts page 1
        assert!(t.probe(0, 0x0000));
        assert!(!t.probe(0, 0x1000));
        assert!(t.probe(0, 0x2000));
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut t = tiny();
        t.access(0, 0x0);
        let hits = t.hits();
        let misses = t.misses();
        assert!(t.probe(0, 0x0));
        assert!(!t.probe(0, 0x5000));
        assert_eq!(t.hits(), hits);
        assert_eq!(t.misses(), misses);
        assert!(!t.probe(0, 0x5000)); // probe of a missing page must not install it
    }

    #[test]
    fn flush_all_clears() {
        let mut t = tiny();
        t.access(0, 0x0);
        t.flush_all();
        assert!(!t.probe(0, 0x0));
    }

    #[test]
    #[should_panic]
    fn zero_entries_rejected() {
        let _ = TlbFile::new(
            &TlbConfig {
                entries: 0,
                page_bytes: 4096,
                miss_penalty: 1,
            },
            1,
        );
    }

    /// Splitmix-style deterministic pseudo-random stream for model tests.
    fn next_rand(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x >> 16
    }

    #[test]
    fn indexed_access_matches_linear_reference() {
        // Drive the O(1) indexed path and the original linear-scan algorithm
        // with the same access stream (heavy reuse and eviction pressure:
        // 13 pages over 5 entries) and demand identical hit/miss outcomes and
        // identical entry arrays after every access.
        for seed in [1u64, 99, 123_456_789] {
            let cfg = TlbConfig {
                entries: 5,
                page_bytes: 4096,
                miss_penalty: 350,
            };
            let mut indexed = TlbFile::new(&cfg, 1);
            let mut reference = vec![TlbEntry::default(); cfg.entries as usize];
            let mut x = seed;
            for (i, tick) in (1u64..=2_000).enumerate() {
                let addr = next_rand(&mut x) % 13 * 4096;
                let got = indexed.access(0, addr);
                let want = reference_access_entries(&mut reference, tick, addr >> 12);
                assert_eq!(got, want, "hit/miss divergence at access {i} (seed {seed})");
                for (slot, (a, b)) in indexed.entries.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        (a.valid, a.vpn, a.last_used),
                        (b.valid, b.vpn, b.last_used),
                        "entry divergence at access {i} slot {slot} (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn indexed_file_matches_reference_across_restore() {
        // Same property at TlbFile scale, with a warm-state capture and
        // restore into a fresh file mid-stream: the rebuilt index must
        // continue replaying the linear reference exactly.
        let cfg = TlbConfig {
            entries: 4,
            page_bytes: 4096,
            miss_penalty: 350,
        };
        let threads = 2usize;
        let mut file = TlbFile::new(&cfg, threads);
        let mut reference = vec![vec![TlbEntry::default(); cfg.entries as usize]; threads];
        let mut ticks = vec![0u64; threads];
        let mut x = 42u64;
        for phase in 0..3 {
            for i in 0..800u64 {
                let r = next_rand(&mut x);
                let thread = (r % threads as u64) as usize;
                let addr = (r >> 8) % 11 * 4096;
                ticks[thread] += 1;
                let got = file.access(thread, addr);
                let want =
                    reference_access_entries(&mut reference[thread], ticks[thread], addr >> 12);
                assert_eq!(got, want, "divergence at phase {phase} access {i}");
            }
            let snapshot = warm::capture(&mut file);
            let mut fresh = TlbFile::new(&cfg, threads);
            warm::restore(&mut fresh, &snapshot).expect("geometry matches");
            assert_eq!(warm::capture(&mut fresh), snapshot);
            file = fresh;
        }
    }

    #[test]
    fn tlb_file_threads_are_disjoint() {
        let cfg = TlbConfig {
            entries: 2,
            page_bytes: 8192,
            miss_penalty: 350,
        };
        let mut file = TlbFile::new(&cfg, 3);
        assert!(!file.access(0, 0x0));
        assert!(!file.access(1, 0x0));
        assert!(file.access(0, 0x1));
        assert!(!file.access(2, 0x0));
        assert!(!file.probe(2, 0x4000));
        assert_eq!(file.miss_penalty(), 350);
    }
}
