//! The memory hierarchy, split into per-core private levels ([`CoreMemory`])
//! and the chip-shared bottom level ([`crate::shared::SharedLlc`]).
//!
//! [`CoreMemory`] owns everything private to one SMT core: the L1D, the
//! private L2, the D-TLBs, the stream-buffer prefetcher, and the per-thread
//! long-latency serialization state. Every access that misses the private
//! levels is presented to a `&mut` [`SharedLlc`] borrowed from the caller: a
//! chip lends its one shared level to each of its cores in turn within a
//! cycle (see [`crate::shared`] for why the order cannot matter). The
//! [`MemoryHierarchy`] facade fuses one core's levels with a shared level of
//! its own, for tests and benchmarks that drive memory accesses directly.

use smt_types::warm::{same_len, Warm, WarmVisitor};
use smt_types::{ChipConfig, SmtConfig, ThreadId};

use crate::cache::SetAssocCache;
use crate::mshr::MshrOutcome;
use crate::prefetch::StreamBufferPrefetcher;
use crate::shared::SharedLlc;
use crate::tlb::TlbFile;

/// Deepest level that had to service a data access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessLevel {
    /// L1 data cache hit.
    L1,
    /// Satisfied by an in-flight or completed stream-buffer prefetch.
    Prefetch,
    /// Unified (core-private) L2 hit.
    L2,
    /// Shared last-level cache hit (the single-core machine's L3).
    L3,
    /// Off-chip main memory access (an LLC miss).
    Memory,
}

/// Timing and classification of one load access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LoadAccessResult {
    /// Cycle at which the access started (issue time of the load).
    pub start_cycle: u64,
    /// Total latency in cycles until the data is available.
    pub latency: u64,
    /// Deepest level that serviced the access.
    pub level: AccessLevel,
    /// Whether the access missed in the D-TLB.
    pub dtlb_miss: bool,
    /// Whether the access missed in the L1 data cache.
    pub l1_miss: bool,
    /// Whether the access missed in the L2.
    pub l2_miss: bool,
    /// Whether the access was (fully or partially) covered by the prefetcher.
    pub prefetch_hit: bool,
    /// The paper's long-latency load definition: an LLC load miss or a D-TLB miss.
    pub long_latency: bool,
}

/// Where the walk of one load was serviced.
struct Walk {
    dtlb_miss: bool,
    level: AccessLevel,
    /// The stream-buffer availability cycle of a prefetch hit, or the
    /// completion cycle of an off-chip access.
    ready_at: u64,
}

impl Walk {
    /// The paper's long-latency load: an LLC miss or a D-TLB miss.
    fn long_latency(&self) -> bool {
        self.dtlb_miss || self.level == AccessLevel::Memory
    }
}

impl LoadAccessResult {
    /// Cycle at which the loaded value becomes available.
    pub fn completion_cycle(&self) -> u64 {
        self.start_cycle + self.latency
    }
}

/// The core-private memory levels of Table IV: L1 data cache, private L2,
/// D-TLBs, prefetcher, and per-thread long-latency serialization state.
///
/// The simulated front end reads instructions from the trace without an
/// instruction cache or I-TLB.
///
/// L1/L2 capacity is shared between the SMT threads of the core (threads
/// compete), while TLBs, MSHR slots and stream buffers are effectively per
/// thread. Thread (and core) address spaces are kept disjoint by folding the
/// chip-wide requester id into the physical address.
#[derive(Clone, Debug)]
pub struct CoreMemory {
    l1d: SetAssocCache,
    l2: SetAssocCache,
    dtlb: TlbFile,
    prefetcher: StreamBufferPrefetcher,
    memory_latency: u64,
    serialize_long_latency: bool,
    last_lll_completion: Vec<u64>,
    line_bytes: u64,
    /// First chip-wide requester id of this core (`core_id * num_threads`).
    requester_base: usize,
}

impl CoreMemory {
    /// Builds the private levels of core `core_id` described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn new(config: &SmtConfig, core_id: usize) -> Self {
        config.validate().expect("invalid SMT configuration");
        CoreMemory {
            l1d: SetAssocCache::new(&config.l1d),
            l2: SetAssocCache::new(&config.l2),
            dtlb: TlbFile::new(&config.dtlb, config.num_threads),
            prefetcher: StreamBufferPrefetcher::new(
                config.prefetcher,
                config.num_threads,
                config.l1d.line_bytes as u64,
                config.memory_latency,
            ),
            memory_latency: config.memory_latency,
            serialize_long_latency: config.serialize_long_latency_loads,
            last_lll_completion: vec![0; config.num_threads],
            line_bytes: config.l1d.line_bytes as u64,
            requester_base: core_id * config.num_threads,
        }
    }

    /// Chip-wide requester id of `thread` on this core (MSHR slot index).
    fn requester(&self, thread: ThreadId) -> usize {
        self.requester_base + thread.index()
    }

    /// Folds the requester id into the address so that thread (and core)
    /// address spaces never alias (each synthetic benchmark has its own
    /// virtual address space).
    fn physical(&self, thread: ThreadId, addr: u64) -> u64 {
        addr ^ ((self.requester(thread) as u64) << 44)
    }

    /// Performs a data load issued by the static load at `pc` at `cycle` and
    /// returns its timing/classification. Misses below the private L2 are
    /// serviced by `shared`.
    pub fn load_access(
        &mut self,
        shared: &mut SharedLlc,
        thread: ThreadId,
        pc: u64,
        addr: u64,
        cycle: u64,
    ) -> LoadAccessResult {
        let paddr = self.physical(thread, addr);
        let tlb_penalty = self.dtlb.miss_penalty();
        let (requester, line_bytes) = (self.requester(thread), self.line_bytes);
        let (memory_latency, l2_latency) = (self.memory_latency, self.l2.latency());
        // Off-chip access: a long-latency load by the paper's definition. The
        // transfer contends for the shared memory bus (free on the
        // single-core machine's unlimited bus).
        let walk = self.walk(shared, thread, pc, paddr, cycle, |shared, dtlb_miss| {
            let congestion = shared.queue_delay();
            let penalty = if dtlb_miss { tlb_penalty } else { 0 };
            let nominal_completion = cycle + penalty + memory_latency + congestion;
            let line = paddr / line_bytes;
            match shared.mshr_request(requester, line, cycle, nominal_completion) {
                MshrOutcome::Allocated => {
                    shared.register_transfer(nominal_completion);
                    nominal_completion
                }
                MshrOutcome::Merged(done) => done.max(cycle + l2_latency),
                MshrOutcome::Full(soonest) => {
                    let serialized = soonest.max(cycle) + memory_latency + congestion;
                    shared.register_transfer(serialized);
                    serialized
                }
            }
        });
        let penalty = if walk.dtlb_miss { tlb_penalty } else { 0 };
        let latency = match walk.level {
            AccessLevel::L1 => penalty + self.l1d.latency(),
            // Line is (or will shortly be) in a stream buffer: pay the larger of the
            // L2 latency and the remaining prefetch in-flight time.
            AccessLevel::Prefetch => penalty + l2_latency.max(walk.ready_at.saturating_sub(cycle)),
            AccessLevel::L2 => penalty + l2_latency,
            AccessLevel::L3 => penalty + shared.latency(),
            AccessLevel::Memory => walk.ready_at.saturating_sub(cycle).max(1),
        };
        let result = LoadAccessResult {
            start_cycle: cycle,
            latency,
            level: walk.level,
            dtlb_miss: walk.dtlb_miss,
            l1_miss: walk.level != AccessLevel::L1,
            l2_miss: matches!(walk.level, AccessLevel::L3 | AccessLevel::Memory),
            prefetch_hit: walk.level == AccessLevel::Prefetch,
            long_latency: walk.long_latency(),
        };
        self.finish_serialized(thread, result)
    }

    /// The one walk of a data load through the warm state: D-TLB, stride
    /// training, L1, stream-buffer probe, L2 and the shared level. On an LLC
    /// miss `off_chip` times the memory access (given the shared level and
    /// whether the D-TLB missed) and returns its completion cycle; the
    /// demand-miss prefetch and the fills down the hierarchy follow it.
    #[inline(always)]
    fn walk(
        &mut self,
        shared: &mut SharedLlc,
        thread: ThreadId,
        pc: u64,
        paddr: u64,
        now: u64,
        off_chip: impl FnOnce(&mut SharedLlc, bool) -> u64,
    ) -> Walk {
        let dtlb_miss = !self.dtlb.access(thread.index(), paddr);
        // Train the stride predictor on every load, hit or miss.
        self.prefetcher.train(thread, pc, paddr);
        let serviced = |level, ready_at| Walk {
            dtlb_miss,
            level,
            ready_at,
        };
        if self.l1d.access(paddr) {
            return serviced(AccessLevel::L1, 0);
        }
        if let Some(hit) = self.prefetcher.probe(thread, paddr, now) {
            self.l1d.fill(paddr);
            return serviced(AccessLevel::Prefetch, hit.available_at);
        }
        if self.l2.access(paddr) {
            self.l1d.fill(paddr);
            return serviced(AccessLevel::L2, 0);
        }
        if shared.access(paddr) {
            self.l2.fill(paddr);
            self.l1d.fill(paddr);
            return serviced(AccessLevel::L3, 0);
        }
        let completion = off_chip(shared, dtlb_miss);
        self.prefetcher.on_demand_miss(thread, pc, paddr, now);
        shared.fill(paddr);
        self.l2.fill(paddr);
        self.l1d.fill(paddr);
        serviced(AccessLevel::Memory, completion)
    }

    /// Applies the artificial long-latency-load serialization used by the Table I
    /// "MLP impact" characterization: when enabled, a long-latency load cannot begin
    /// its memory access before the previous long-latency load of the same thread
    /// has completed.
    fn finish_serialized(
        &mut self,
        thread: ThreadId,
        mut result: LoadAccessResult,
    ) -> LoadAccessResult {
        if result.long_latency {
            if self.serialize_long_latency {
                let prev = self.last_lll_completion[thread.index()];
                let serialized_completion =
                    prev.max(result.start_cycle) + result.latency.max(self.memory_latency);
                if serialized_completion > result.completion_cycle() {
                    result.latency = serialized_completion - result.start_cycle;
                }
            }
            self.last_lll_completion[thread.index()] =
                self.last_lll_completion[thread.index()].max(result.completion_cycle());
        }
        result
    }

    /// Performs a store for cache-content purposes (write-allocate, no timing: store
    /// latency is hidden behind the write buffer at commit).
    pub fn store_access(
        &mut self,
        shared: &mut SharedLlc,
        thread: ThreadId,
        addr: u64,
        _cycle: u64,
    ) {
        let paddr = self.physical(thread, addr);
        let _ = self.dtlb.access(thread.index(), paddr);
        if !self.l1d.access(paddr) {
            self.l1d.fill(paddr);
            self.l2.fill(paddr);
            shared.fill(paddr);
        }
    }

    /// Functional (fast-forward) data load: the walk of
    /// [`CoreMemory::load_access`] — TLB installs, stride training, fills
    /// down the hierarchy, stream-buffer consumption — without its timing:
    /// no MSHR allocation, no bus transfers, no long-latency-load
    /// serialization. Returns the paper's long-latency classification (LLC
    /// load miss or D-TLB miss), which fast-forward mode uses to keep the
    /// LLL/MLP predictors trained.
    ///
    /// `now` stamps stream-buffer availability times; fast-forward callers
    /// pass their frozen cycle.
    pub fn warm_load(
        &mut self,
        shared: &mut SharedLlc,
        thread: ThreadId,
        pc: u64,
        addr: u64,
        now: u64,
    ) -> bool {
        let paddr = self.physical(thread, addr);
        self.walk(shared, thread, pc, paddr, now, |_, _| 0)
            .long_latency()
    }

    /// Functional (fast-forward) store: identical to
    /// [`CoreMemory::store_access`], which is already timing-free.
    pub fn warm_store(&mut self, shared: &mut SharedLlc, thread: ThreadId, addr: u64) {
        self.store_access(shared, thread, addr, 0);
    }

    /// Clears all private cache, TLB and prefetcher state.
    pub fn reset(&mut self) {
        self.l1d.flush_all();
        self.l2.flush_all();
        self.dtlb.flush_all();
        self.prefetcher.reset();
        for c in &mut self.last_lll_completion {
            *c = 0;
        }
    }
}

impl Warm for CoreMemory {
    /// The L1D, L2, D-TLB and prefetcher, and per thread the completion
    /// cycle of the last long-latency load.
    fn visit(&mut self, v: &mut impl WarmVisitor) {
        v.part("l1d", &mut self.l1d);
        v.part("l2", &mut self.l2);
        v.part("dtlb", &mut self.dtlb);
        v.part("prefetcher", &mut self.prefetcher);
        let threads = self.last_lll_completion.len();
        v.value(
            "last_lll_completion",
            &mut self.last_lll_completion,
            same_len(threads),
        );
    }
}

/// The fused single-core memory hierarchy of Table IV: one core's private
/// levels plus an exclusively owned one-core-chip shared level. A
/// convenience for tests and benchmarks that drive memory accesses
/// directly; the simulator composes [`CoreMemory`] and [`SharedLlc`]
/// itself.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    core: CoreMemory,
    shared: SharedLlc,
}

impl MemoryHierarchy {
    /// Builds the hierarchy described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn new(config: &SmtConfig) -> Self {
        MemoryHierarchy {
            core: CoreMemory::new(config, 0),
            shared: SharedLlc::for_chip(&ChipConfig::single_core(config.clone())),
        }
    }

    /// Performs a data load issued by the static load at `pc` at `cycle` and
    /// returns its timing/classification.
    pub fn load_access(
        &mut self,
        thread: ThreadId,
        pc: u64,
        addr: u64,
        cycle: u64,
    ) -> LoadAccessResult {
        self.core
            .load_access(&mut self.shared, thread, pc, addr, cycle)
    }

    /// Performs a store for cache-content purposes.
    pub fn store_access(&mut self, thread: ThreadId, addr: u64, cycle: u64) {
        self.core
            .store_access(&mut self.shared, thread, addr, cycle);
    }

    /// Clears all cache, TLB, MSHR and prefetcher state.
    pub fn reset(&mut self) {
        self.core.reset();
        self.shared.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_types::SmtConfig;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(&SmtConfig::baseline(2))
    }

    #[test]
    fn cold_miss_is_long_latency_then_hits() {
        let mut m = hierarchy();
        let t = ThreadId::new(0);
        let first = m.load_access(t, 0x40, 0x100000, 0);
        assert!(first.long_latency);
        assert_eq!(first.level, AccessLevel::Memory);
        assert!(first.latency >= 350);
        let again = m.load_access(t, 0x40, 0x100000, first.completion_cycle() + 1);
        assert_eq!(again.level, AccessLevel::L1);
        assert!(!again.long_latency);
        assert!(again.latency <= 3);
    }

    #[test]
    fn independent_misses_overlap_via_mshrs() {
        let mut m = hierarchy();
        let t = ThreadId::new(0);
        // Warm the two pages so the later misses are pure LLC misses (no TLB walk).
        let w0 = m.load_access(t, 0x40, 0x1_000_000, 0);
        let w1 = m.load_access(t, 0x48, 0x2_000_000, 1);
        let start = w0.completion_cycle().max(w1.completion_cycle()) + 1;
        let a = m.load_access(t, 0x50, 0x1_000_100, start);
        let b = m.load_access(t, 0x58, 0x2_000_100, start + 1);
        // Both complete roughly one memory latency after issue: they overlap.
        assert!(a.completion_cycle() <= start + 400);
        assert!(b.completion_cycle() <= start + 1 + 400);
        assert!(b.completion_cycle() < a.completion_cycle() + 350 / 2);
    }

    #[test]
    fn serialization_knob_serializes_misses() {
        let mut cfg = SmtConfig::baseline(1);
        cfg.serialize_long_latency_loads = true;
        let mut m = MemoryHierarchy::new(&cfg);
        let t = ThreadId::new(0);
        let a = m.load_access(t, 0x40, 0x1_000_000, 0);
        let b = m.load_access(t, 0x48, 0x2_000_000, 1);
        assert!(b.completion_cycle() >= a.completion_cycle() + 350);
    }

    #[test]
    fn dtlb_miss_is_long_latency_even_on_cache_hit() {
        let mut m = hierarchy();
        let t = ThreadId::new(0);
        // Touch a line so it is in the caches.
        let first = m.load_access(t, 0x40, 0x42_0000, 0);
        // Fill the D-TLB with 512 other pages to evict the translation.
        for i in 0..600u64 {
            let _ = m.load_access(t, 0x60, 0x100_0000 + i * 8192, 1000 + i);
        }
        let again = m.load_access(t, 0x40, 0x42_0000, 1_000_000);
        assert!(again.dtlb_miss);
        assert!(again.long_latency);
        assert!(again.latency >= 350);
        let _ = first;
    }

    #[test]
    fn same_line_misses_merge_in_mshr() {
        let mut m = hierarchy();
        let t = ThreadId::new(0);
        let a = m.load_access(t, 0x40, 0x3_000_000, 0);
        // Second access to the same line before the first returns: the line has
        // already been filled by the model, so it hits; access a different word of a
        // line that is still outstanding in MSHR terms is covered by fill+hit.
        let b = m.load_access(t, 0x48, 0x3_000_008, 5);
        assert!(b.completion_cycle() <= a.completion_cycle() + 5);
    }

    #[test]
    fn threads_have_disjoint_address_spaces() {
        let mut m = hierarchy();
        let a = m.load_access(ThreadId::new(0), 0x40, 0x500_000, 0);
        // Thread 1 touching the "same" virtual address must still be a cold miss.
        let b = m.load_access(ThreadId::new(1), 0x40, 0x500_000, a.completion_cycle() + 1);
        assert_eq!(b.level, AccessLevel::Memory);
    }

    #[test]
    fn cores_have_disjoint_address_spaces() {
        // Two cores sharing one LLC: the same virtual address on different
        // cores maps to different physical lines.
        let chip = smt_types::ChipConfig::baseline(2, 2);
        let mut shared = SharedLlc::for_chip(&chip);
        let mut core0 = CoreMemory::new(&chip.core, 0);
        let mut core1 = CoreMemory::new(&chip.core, 1);
        let t = ThreadId::new(0);
        shared.begin_cycle(0);
        let a = core0.load_access(&mut shared, t, 0x40, 0x500_000, 0);
        shared.end_cycle();
        assert_eq!(a.level, AccessLevel::Memory);
        let start = a.completion_cycle() + 1;
        shared.begin_cycle(start);
        let b = core1.load_access(&mut shared, t, 0x40, 0x500_000, start);
        shared.end_cycle();
        assert_eq!(b.level, AccessLevel::Memory);
    }

    #[test]
    fn bus_contention_slows_cross_core_misses() {
        // With a contended bus, a second core's off-chip miss issued the
        // cycle after another transfer went in flight pays queueing delay.
        let mut chip = smt_types::ChipConfig::baseline(2, 2);
        chip.bus = smt_types::BusConfig { bytes_per_cycle: 8 };
        let mut shared = SharedLlc::for_chip(&chip);
        let mut core0 = CoreMemory::new(&chip.core, 0);
        let mut core1 = CoreMemory::new(&chip.core, 1);
        let t = ThreadId::new(0);
        // Warm both pages so the timed misses below have no TLB component.
        shared.begin_cycle(0);
        let w0 = core0.load_access(&mut shared, t, 0x40, 0x1_000_000, 0);
        let w1 = core1.load_access(&mut shared, t, 0x40, 0x2_000_000, 0);
        shared.end_cycle();
        let start = w0.completion_cycle().max(w1.completion_cycle()) + 1;
        shared.begin_cycle(start);
        let a = core0.load_access(&mut shared, t, 0x50, 0x1_000_100, start);
        shared.end_cycle();
        shared.begin_cycle(start + 1);
        let b = core1.load_access(&mut shared, t, 0x50, 0x2_000_100, start + 1);
        shared.end_cycle();
        assert_eq!(a.latency, chip.core.memory_latency);
        assert_eq!(
            b.latency,
            chip.core.memory_latency + chip.bus.transfer_cycles(64),
            "second transfer should queue behind the first"
        );
    }

    #[test]
    fn strided_stream_gets_prefetched() {
        let mut m = hierarchy();
        let t = ThreadId::new(0);
        let base = 0x4_000_000u64;
        let mut now = 0u64;
        let mut prefetch_hits = 0;
        for i in 0..64u64 {
            let r = m.load_access(t, 0x40, base + i * 64, now);
            now = r.completion_cycle() + 1;
            if r.prefetch_hit {
                prefetch_hits += 1;
            }
        }
        assert!(
            prefetch_hits > 10,
            "stream should be prefetched, got {prefetch_hits}"
        );
    }

    #[test]
    fn store_allocates_line() {
        let mut m = hierarchy();
        let t = ThreadId::new(0);
        m.store_access(t, 0x9_000_000, 0);
        let r = m.load_access(t, 0x40, 0x9_000_000, 10);
        assert_eq!(r.level, AccessLevel::L1);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut m = hierarchy();
        let t = ThreadId::new(0);
        let _ = m.load_access(t, 0x40, 0xabc000, 0);
        m.reset();
        let r = m.load_access(t, 0x40, 0xabc000, 1000);
        assert_eq!(r.level, AccessLevel::Memory);
    }
}
