//! The chip-shared memory levels: last-level cache, LLC MSHRs, and the
//! off-chip memory bus.
//!
//! Every core's private levels ([`crate::hierarchy::CoreMemory`]) miss into
//! one [`SharedLlc`], built for a chip ([`smt_types::ChipConfig`]); the
//! paper's single-core machine is a one-core chip. On a multi-core chip cores
//! compete for LLC capacity, per-`(core, thread)` MSHR slots bound each
//! requester's outstanding misses, and the [`MemoryBus`] charges queueing
//! delay per in-flight line transfer.
//!
//! # Arbitration disciplines
//!
//! The shared level supports two disciplines:
//!
//! * **Legacy (single requester domain)** — LRU is stamped with an internal
//!   access tick and fills take effect immediately, exactly the behaviour of
//!   the original fused hierarchy. Used by one-core chips, which is what the
//!   paper's single-core machine is.
//! * **Chip arbitration** — every access of one chip cycle carries the same
//!   LRU stamp (the cycle number), fills are staged and applied once per
//!   cycle in a canonical order, and bus congestion is frozen at the start of
//!   the cycle. Together with per-core-disjoint physical address spaces this
//!   makes chip results independent of the order cores are stepped in within
//!   a cycle.
//!
//! # Why chip results ignore core stepping order
//!
//! A chip steps its cores one after another against the one [`SharedLlc`],
//! bracketed by [`SharedLlc::begin_cycle`] and [`SharedLlc::end_cycle`].
//! No core can observe another core's requests from the same cycle:
//!
//! * every access of the cycle writes the same LRU stamp, so a refresh is
//!   idempotent and the stamps after the cycle do not depend on who went
//!   first;
//! * a fill is only staged during the cycle and applied at `end_cycle` in
//!   sorted line order, so the installed lines and their victims depend on
//!   the *set* of lines filled; the staged lines a lookup sees can only be
//!   the requesting core's own, because physical address spaces are
//!   disjoint per core;
//! * bus congestion is frozen at `begin_cycle`, and a new transfer only
//!   joins the in-flight set the next cycle reads;
//! * MSHR slots belong to one `(core, thread)` requester, and hit/miss
//!   counters are sums.
//!
//! Each core's cycle is therefore a function of cycle-start state and its
//! own requests, whatever order the cores step in.

use smt_types::warm::{Warm, WarmVisitor};
use smt_types::ChipConfig;

use crate::cache::SetAssocCache;
use crate::mshr::{MshrFile, MshrOutcome};

/// The shared off-chip memory bus: each in-flight line transfer adds one bus
/// occupancy of queueing delay to newly issued transfers.
///
/// The congestion seen by a request is the number of transfers in flight at
/// the *start* of the current cycle, so same-cycle requests from different
/// cores observe the same congestion no matter which core is serviced first.
#[derive(Clone, Debug)]
pub struct MemoryBus {
    /// Cycles one line transfer occupies the bus (0 = unlimited bandwidth).
    transfer_cycles: u64,
    /// Completion cycles of in-flight transfers.
    inflight: Vec<u64>,
    /// Number of transfers in flight at the start of the current cycle.
    frozen: u64,
}

impl MemoryBus {
    /// Builds the bus for `config` with the chip's cache-line size.
    pub fn new(config: smt_types::BusConfig, line_bytes: u64) -> Self {
        MemoryBus {
            transfer_cycles: config.transfer_cycles(line_bytes),
            inflight: Vec::new(),
            frozen: 0,
        }
    }

    /// Whether the bus models any contention.
    pub fn is_unlimited(&self) -> bool {
        self.transfer_cycles == 0
    }

    /// Starts a new cycle: retires finished transfers and freezes the
    /// congestion count every request of this cycle will observe.
    pub fn begin_cycle(&mut self, cycle: u64) {
        if self.transfer_cycles == 0 {
            return;
        }
        self.inflight.retain(|&done| done > cycle);
        self.frozen = self.inflight.len() as u64;
    }

    /// Queueing delay (in cycles) a transfer issued this cycle pays.
    pub fn queue_delay(&self) -> u64 {
        self.frozen * self.transfer_cycles
    }

    /// Records a newly issued transfer completing at `completion`.
    pub fn register(&mut self, completion: u64) {
        if self.transfer_cycles > 0 {
            self.inflight.push(completion);
        }
    }

    /// Number of transfers currently tracked as in flight.
    pub fn inflight_transfers(&self) -> usize {
        self.inflight.len()
    }

    /// Clears all in-flight state.
    pub fn reset(&mut self) {
        self.inflight.clear();
        self.frozen = 0;
    }
}

/// The shared last-level cache, its MSHR file, and the memory bus.
#[derive(Clone, Debug)]
pub struct SharedLlc {
    llc: SetAssocCache,
    mshrs: MshrFile,
    bus: MemoryBus,
    memory_latency: u64,
    line_bytes: u64,
    /// `true`: cycle-stamped, staged-fill chip arbitration; `false`: the
    /// legacy synchronous single-core discipline.
    chip_arbitration: bool,
    /// Current cycle (chip arbitration only).
    cycle: u64,
    /// Line ids staged for fill at the end of the current cycle.
    staged: Vec<u64>,
}

impl SharedLlc {
    /// The shared level of a chip: the `shared_llc` cache, one MSHR slot set
    /// per `(core, thread)` requester, the configured bus, and (for
    /// multi-core chips) the order-invariant chip arbitration discipline.
    ///
    /// A one-core chip, the paper's single-core machine, keeps the legacy
    /// discipline and an uncontended bus unless its configuration names one.
    pub fn for_chip(chip: &ChipConfig) -> Self {
        SharedLlc {
            llc: SetAssocCache::new(&chip.shared_llc),
            mshrs: MshrFile::new(
                chip.total_threads(),
                chip.core.max_outstanding_misses as usize,
            ),
            bus: MemoryBus::new(chip.bus, chip.core.l1d.line_bytes as u64),
            memory_latency: chip.core.memory_latency,
            line_bytes: chip.core.l1d.line_bytes as u64,
            chip_arbitration: chip.num_cores > 1,
            cycle: 0,
            staged: Vec::new(),
        }
    }

    /// Hit latency of the shared LLC.
    pub fn latency(&self) -> u64 {
        self.llc.latency()
    }

    /// Off-chip main-memory latency (excluding bus queueing).
    pub fn memory_latency(&self) -> u64 {
        self.memory_latency
    }

    /// Starts a chip cycle: freezes bus congestion and sets the LRU stamp.
    /// Under the legacy discipline with an unlimited bus it only records the
    /// cycle, which nothing reads.
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.bus.begin_cycle(cycle);
    }

    /// Ends a chip cycle: applies the staged fills in canonical (sorted line
    /// id) order, which makes the resulting LLC state a pure function of the
    /// *set* of lines filled this cycle rather than of core stepping order.
    pub fn end_cycle(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let stamp = self.cycle + 1;
        let mut staged = std::mem::take(&mut self.staged);
        staged.sort_unstable();
        staged.dedup();
        for &line in &staged {
            self.llc.fill_stamped(line * self.line_bytes, stamp);
        }
        staged.clear();
        self.staged = staged;
    }

    /// Looks up `addr` in the shared LLC, returning `true` on a hit. Lines
    /// staged for fill this cycle count as present — and as hits in the
    /// counters — since they can only belong to the requesting core
    /// (physical address spaces are disjoint per core). A line is never both
    /// installed and staged, so the staged check can run first.
    pub fn access(&mut self, addr: u64) -> bool {
        if !self.chip_arbitration {
            return self.llc.access(addr);
        }
        if self.staged.contains(&(addr / self.line_bytes)) {
            self.llc.record_external_hit();
            return true;
        }
        self.llc.access_stamped(addr, self.cycle + 1)
    }

    /// Installs (or refreshes) the line containing `addr`: immediately under
    /// the legacy discipline, staged until [`SharedLlc::end_cycle`] under
    /// chip arbitration.
    pub fn fill(&mut self, addr: u64) {
        if !self.chip_arbitration {
            self.llc.fill(addr);
            return;
        }
        if self.llc.probe(addr) {
            // Present: refresh the stamp without staging a duplicate install.
            self.llc.fill_stamped(addr, self.cycle + 1);
            return;
        }
        let line = addr / self.line_bytes;
        if !self.staged.contains(&line) {
            self.staged.push(line);
        }
    }

    /// Presents an off-chip miss to the LLC MSHR file (see
    /// [`MshrFile::request`]).
    pub fn mshr_request(
        &mut self,
        requester: usize,
        line_addr: u64,
        now: u64,
        completion: u64,
    ) -> MshrOutcome {
        self.mshrs.request(requester, line_addr, now, completion)
    }

    /// Bus queueing delay a transfer issued this cycle pays.
    pub fn queue_delay(&self) -> u64 {
        self.bus.queue_delay()
    }

    /// Records a newly issued off-chip transfer completing at `completion`.
    pub fn register_transfer(&mut self, completion: u64) {
        self.bus.register(completion);
    }

    /// Whether the transient timing state is structurally empty: no MSHR
    /// entries, no in-flight bus transfers, no staged fills. Checkpoints may
    /// only be captured when this holds.
    pub fn is_quiescent(&self) -> bool {
        self.mshrs.total_entries() == 0
            && self.bus.inflight_transfers() == 0
            && self.staged.is_empty()
    }

    /// Clears all LLC, MSHR, bus and staging state.
    pub fn reset(&mut self) {
        self.llc.flush_all();
        self.mshrs.reset();
        self.bus.reset();
        self.staged.clear();
        self.cycle = 0;
    }
}

/// Only the warm (cache-content) state is checkpointed: checkpoints are
/// taken at quiescent boundaries (see [`SharedLlc::is_quiescent`]), where the
/// transient timing state is structurally empty, and it restores to empty.
impl Warm for SharedLlc {
    fn visit(&mut self, v: &mut impl WarmVisitor) {
        v.part("llc", &mut self.llc);
        v.scalar("cycle", &mut self.cycle);
    }

    fn restored(&mut self) {
        self.mshrs.reset();
        self.bus.reset();
        self.staged.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_types::{BusConfig, SmtConfig};

    #[test]
    fn unlimited_bus_is_free() {
        let mut bus = MemoryBus::new(BusConfig::unlimited(), 64);
        assert!(bus.is_unlimited());
        bus.begin_cycle(0);
        assert_eq!(bus.queue_delay(), 0);
        bus.register(400);
        assert_eq!(bus.inflight_transfers(), 0);
    }

    #[test]
    fn contended_bus_charges_per_inflight_transfer() {
        let mut bus = MemoryBus::new(BusConfig::contended(), 64);
        bus.begin_cycle(0);
        assert_eq!(bus.queue_delay(), 0);
        bus.register(350);
        bus.register(360);
        // Congestion is frozen at cycle start: still free this cycle.
        assert_eq!(bus.queue_delay(), 0);
        bus.begin_cycle(1);
        assert_eq!(bus.queue_delay(), 2 * 4);
        // Finished transfers retire.
        bus.begin_cycle(355);
        assert_eq!(bus.queue_delay(), 4);
        bus.begin_cycle(361);
        assert_eq!(bus.queue_delay(), 0);
    }

    #[test]
    fn legacy_discipline_matches_plain_cache() {
        let config = SmtConfig::baseline(2);
        let mut shared = SharedLlc::for_chip(&ChipConfig::single_core(config.clone()));
        assert!(!shared.chip_arbitration);
        assert!(!shared.access(0x40));
        shared.fill(0x40);
        assert!(shared.access(0x40));
        assert_eq!(shared.latency(), config.l3.latency);
        assert_eq!(shared.memory_latency(), config.memory_latency);
    }

    #[test]
    fn chip_arbitration_stages_fills_until_end_of_cycle() {
        let chip = ChipConfig::baseline(2, 2);
        let mut shared = SharedLlc::for_chip(&chip);
        assert!(shared.chip_arbitration);
        shared.begin_cycle(10);
        assert!(!shared.access(0x40));
        shared.fill(0x40);
        // Staged lines read as present within the cycle (and count as hits
        // in the LLC's counters)...
        let hits_before = shared.llc.hits();
        assert!(shared.access(0x40));
        assert_eq!(shared.llc.hits(), hits_before + 1);
        shared.end_cycle();
        // ...and are installed for later cycles.
        shared.begin_cycle(11);
        assert!(shared.access(0x44));
        shared.reset();
        shared.begin_cycle(12);
        assert!(!shared.access(0x40));
    }

    /// Per-request outcomes of [`drive_two_cores`]: LLC hit, else the MSHR
    /// outcome and the bus-delayed completion cycle. Indexed by
    /// `(cycle, core, k)` whatever order the cores stepped in.
    type Outcomes = Vec<(bool, Option<(MshrOutcome, u64)>)>;

    /// Drives two cores for 200 cycles of access/MSHR/bus/fill traffic over
    /// per-core-disjoint physical spaces, stepping the cores in `order`
    /// within every cycle. Addresses are reused, so misses, MSHR allocations,
    /// congested bus transfers, hits and stamp refreshes all occur.
    fn drive_two_cores(order: [usize; 2]) -> (SharedLlc, Outcomes, Vec<u64>) {
        const CYCLES: u64 = 200;
        const PER_CORE: u64 = 6;
        let mut shared = SharedLlc::for_chip(&ChipConfig::baseline(2, 2));
        let mut outcomes = vec![(false, None); (CYCLES * 2 * PER_CORE) as usize];
        let mut probes = Vec::new();
        for cycle in 0..CYCLES {
            shared.begin_cycle(cycle);
            for core in order {
                let space = (core as u64) << 44;
                for k in 0..PER_CORE {
                    let addr = space + ((cycle * 13 + k * 29) % 96) * 64;
                    probes.push(addr);
                    let slot = ((cycle * 2 + core as u64) * PER_CORE + k) as usize;
                    if shared.access(addr) {
                        outcomes[slot] = (true, None);
                        continue;
                    }
                    let requester = core * 2 + (k as usize % 2);
                    let completion = cycle + 300 + shared.queue_delay();
                    let outcome = shared.mshr_request(requester, addr / 64, cycle, completion);
                    if outcome == MshrOutcome::Allocated {
                        shared.register_transfer(completion);
                    }
                    shared.fill(addr);
                    outcomes[slot] = (false, Some((outcome, completion)));
                }
            }
            shared.end_cycle();
        }
        (shared, outcomes, probes)
    }

    #[test]
    fn chip_fills_are_order_invariant_within_a_cycle() {
        let chip = ChipConfig::baseline(2, 2);
        let mut a = SharedLlc::for_chip(&chip);
        let mut b = SharedLlc::for_chip(&chip);
        // Same set of same-cycle fills, opposite arrival order.
        let lines = [0x1_0000_0000_0040u64, 0x40, 0x2_0000_0000_0040];
        a.begin_cycle(5);
        b.begin_cycle(5);
        for &l in &lines {
            a.fill(l);
        }
        for &l in lines.iter().rev() {
            b.fill(l);
        }
        a.end_cycle();
        b.end_cycle();
        a.begin_cycle(6);
        b.begin_cycle(6);
        for &l in &lines {
            assert_eq!(a.access(l), b.access(l), "line {l:#x}");
            assert!(a.access(l));
        }
    }

    /// The chip discipline stages every fill until `end_cycle`, so stepping
    /// the cores serially gives the same per-request outcomes and cycle-end
    /// state whichever core goes first: a whole two-core workload, stepped
    /// 0,1 and 1,0 within every cycle, must agree request by request.
    #[test]
    fn staged_discipline_matches_serial_chip_discipline() {
        let (forward, forward_outcomes, probes) = drive_two_cores([0, 1]);
        let (reversed, reversed_outcomes, _) = drive_two_cores([1, 0]);
        for (i, (f, r)) in forward_outcomes.iter().zip(&reversed_outcomes).enumerate() {
            assert_eq!(f, r, "request {i}");
        }
        assert!(forward_outcomes.iter().any(|&(hit, _)| hit));
        assert!(forward_outcomes
            .iter()
            .any(|&(_, o)| matches!(o, Some((MshrOutcome::Allocated, _)))));
        assert_eq!(
            (forward.llc.hits(), forward.llc.misses()),
            (reversed.llc.hits(), reversed.llc.misses())
        );
        assert_eq!(
            forward.bus.inflight_transfers(),
            reversed.bus.inflight_transfers()
        );
        for addr in probes {
            assert_eq!(
                forward.llc.probe(addr),
                reversed.llc.probe(addr),
                "{addr:#x}"
            );
        }
    }

    #[test]
    fn one_core_chip_uses_legacy_discipline() {
        let chip = ChipConfig::baseline(1, 2);
        let shared = SharedLlc::for_chip(&chip);
        assert!(!shared.chip_arbitration);
        assert!(shared.bus.is_unlimited());
    }
}
