//! Property-based tests for the memory-hierarchy data structures.

use proptest::prelude::*;

use smt_mem::{MemoryHierarchy, MshrFile, SetAssocCache, StreamBufferPrefetcher, TlbFile};
use smt_types::config::{CacheConfig, PrefetcherConfig, TlbConfig};
use smt_types::warm::{capture, check, restore};
use smt_types::{SmtConfig, ThreadId};

fn small_cache_config() -> impl Strategy<Value = CacheConfig> {
    (1u32..5, 0u32..4).prop_map(|(assoc_pow, sets_pow)| {
        let associativity = 1 << assoc_pow;
        let sets = 1u64 << (sets_pow + 2);
        CacheConfig {
            size_bytes: sets * associativity as u64 * 64,
            associativity,
            line_bytes: 64,
            latency: 2,
        }
    })
}

/// One random cache operation: `(kind, addr, stamp)`, where kind 0–1 is
/// `access`, 2 `fill`, 3 `access_stamped`, 4 `fill_stamped` and 5
/// `flush_all`. The addresses cover 512 lines, so small caches see
/// conflicts and evictions.
type CacheOp = (u8, u64, u64);

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    prop::collection::vec((0u8..6, 0u64..0x8000, 0u64..64), 0..300)
}

/// Applies `ops` to `cache`, returning every observable outcome: the
/// result of each lookup and each line's presence after each fill.
fn apply_cache_ops(cache: &mut SetAssocCache, ops: &[CacheOp]) -> Vec<bool> {
    ops.iter()
        .map(|&(kind, addr, stamp)| match kind {
            0 | 1 => cache.access(addr),
            2 => {
                cache.fill(addr);
                cache.probe(addr ^ 0x4000)
            }
            3 => cache.access_stamped(addr, stamp),
            4 => {
                cache.fill_stamped(addr, stamp);
                cache.probe(addr ^ 0x4000)
            }
            // Flushes are rare, so most states hold many valid ways.
            _ if stamp == 0 => {
                cache.flush_all();
                false
            }
            _ => cache.probe(addr),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A cache restored from its sparse state into a fresh cache has the
    /// same state and behaves identically on any continuation.
    #[test]
    fn cache_state_round_trips_and_replays(
        config in small_cache_config(),
        prefix in cache_ops(),
        rest in cache_ops(),
    ) {
        let mut cache = SetAssocCache::new(&config);
        apply_cache_ops(&mut cache, &prefix);
        let state = capture(&mut cache);
        prop_assert!(check(&mut cache, &state).is_ok());
        let mut restored = SetAssocCache::new(&config);
        restore(&mut restored, &state).unwrap();
        prop_assert_eq!(capture(&mut restored), state);
        let want = apply_cache_ops(&mut cache, &rest);
        prop_assert_eq!(apply_cache_ops(&mut restored, &rest), want);
        prop_assert_eq!(capture(&mut restored), capture(&mut cache));
        prop_assert_eq!((restored.hits(), restored.misses()), (cache.hits(), cache.misses()));
    }

    /// The same for a TLB file: `(thread, page)` accesses with an
    /// occasional `flush_all` (page 0 of thread 0).
    #[test]
    fn tlb_state_round_trips_and_replays(
        entries in 1u32..8,
        threads in 1usize..4,
        prefix in prop::collection::vec((0usize..3, 0u64..24), 0..200),
        rest in prop::collection::vec((0usize..3, 0u64..24), 0..200),
    ) {
        let config = TlbConfig { entries, page_bytes: 4096, miss_penalty: 350 };
        let apply = |tlb: &mut TlbFile, ops: &[(usize, u64)]| -> Vec<bool> {
            ops.iter()
                .map(|&(thread, page)| {
                    if thread == 0 && page == 0 {
                        tlb.flush_all();
                        return false;
                    }
                    tlb.access(thread % threads, page * 4096)
                })
                .collect()
        };
        let mut tlb = TlbFile::new(&config, threads);
        apply(&mut tlb, &prefix);
        let state = capture(&mut tlb);
        prop_assert!(check(&mut tlb, &state).is_ok());
        let mut restored = TlbFile::new(&config, threads);
        restore(&mut restored, &state).unwrap();
        prop_assert_eq!(capture(&mut restored), state);
        let want = apply(&mut tlb, &rest);
        prop_assert_eq!(apply(&mut restored, &rest), want);
        prop_assert_eq!(capture(&mut restored), capture(&mut tlb));
    }

    /// The same for the prefetcher's sparse stride table (and its stream
    /// buffers): random training, demand misses, probes and resets on a
    /// small table, with strided runs so entries gain confidence.
    #[test]
    fn prefetcher_state_round_trips_and_replays(
        table in 1u32..16,
        prefix in prop::collection::vec((0u8..8, 0u64..12, 0u64..64), 0..200),
        rest in prop::collection::vec((0u8..8, 0u64..12, 0u64..64), 0..200),
    ) {
        let config = PrefetcherConfig {
            stride_table_entries: table,
            stream_buffers: 2,
            entries_per_buffer: 4,
            ..PrefetcherConfig::default()
        };
        let t = ThreadId::new(0);
        // `(kind, pc slot, step)`: kinds 0–3 train, 4–5 miss, 6 probes and
        // 7 resets; the address strides by 64 bytes per step.
        let apply = |p: &mut StreamBufferPrefetcher, ops: &[(u8, u64, u64)]| -> Vec<Option<u64>> {
            ops.iter()
                .enumerate()
                .map(|(now, &(kind, slot, step))| {
                    let (pc, addr, now) = (slot * 4, 0x10_000 * slot + step * 64, now as u64);
                    match kind {
                        0..=3 => p.train(t, pc, addr),
                        4 | 5 => p.on_demand_miss(t, pc, addr, now),
                        6 => return p.probe(t, addr, now).map(|hit| hit.available_at),
                        _ => p.reset(),
                    }
                    Some(p.prefetches_issued())
                })
                .collect()
        };
        let mut prefetcher = StreamBufferPrefetcher::new(config, 1, 64, 350);
        apply(&mut prefetcher, &prefix);
        let state = capture(&mut prefetcher);
        prop_assert!(check(&mut prefetcher, &state).is_ok());
        let mut restored = StreamBufferPrefetcher::new(config, 1, 64, 350);
        restore(&mut restored, &state).unwrap();
        prop_assert_eq!(capture(&mut restored), state);
        let want = apply(&mut prefetcher, &rest);
        prop_assert_eq!(apply(&mut restored, &rest), want);
        prop_assert_eq!(capture(&mut restored), capture(&mut prefetcher));
    }

    /// After filling a line it is always present until at least `associativity`
    /// distinct conflicting lines have been filled into the same set.
    #[test]
    fn cache_fill_then_probe_holds(config in small_cache_config(), addr in any::<u64>()) {
        let mut cache = SetAssocCache::new(&config);
        cache.fill(addr);
        prop_assert!(cache.probe(addr));
        prop_assert!(cache.access(addr));
    }

    /// Hits plus misses equals the number of lookups.
    #[test]
    fn cache_counter_consistency(
        config in small_cache_config(),
        addrs in prop::collection::vec(0u64..1_000_000, 1..300),
    ) {
        let mut cache = SetAssocCache::new(&config);
        for &a in &addrs {
            if !cache.access(a) {
                cache.fill(a);
            }
        }
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
    }

    /// A TLB with N entries retains the N most recently used distinct pages.
    #[test]
    fn tlb_keeps_recent_pages(entries in 1u32..32, pages in prop::collection::vec(0u64..64, 1..200)) {
        let mut tlb = TlbFile::new(&TlbConfig { entries, page_bytes: 8192, miss_penalty: 350 }, 1);
        for &p in &pages {
            tlb.access(0, p * 8192);
        }
        // The most recently accessed page is always resident.
        if let Some(&last) = pages.last() {
            prop_assert!(tlb.probe(0, last * 8192));
        }
    }

    /// The MSHR file never tracks more than its capacity of outstanding misses per
    /// thread, and merged requests never finish before `now`.
    #[test]
    fn mshr_capacity_respected(
        capacity in 1usize..16,
        lines in prop::collection::vec(0u64..32, 1..100),
    ) {
        let mut mshrs = MshrFile::new(1, capacity);
        for (i, &line) in lines.iter().enumerate() {
            let now = i as u64 * 3;
            let _ = mshrs.request(0, line, now, now + 350);
            mshrs.retire_completed(0, now);
            prop_assert!(mshrs.total_entries() <= capacity);
        }
    }

    /// Loads of the same address become faster (or equal) on the second access and
    /// a completed access never reports zero latency.
    #[test]
    fn hierarchy_reaccess_is_never_slower(addr in 0u64..0x10_000_000u64) {
        let cfg = SmtConfig::baseline(1);
        let mut mem = MemoryHierarchy::new(&cfg);
        let t = ThreadId::new(0);
        let first = mem.load_access(t, 0x40, addr, 0);
        let second = mem.load_access(t, 0x40, addr, first.completion_cycle() + 1);
        prop_assert!(first.latency >= 1);
        prop_assert!(second.latency >= 1);
        prop_assert!(second.latency <= first.latency);
        prop_assert!(!second.long_latency);
    }
}
