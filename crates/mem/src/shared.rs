//! The chip-shared memory levels: last-level cache, LLC MSHRs, and the
//! off-chip memory bus.
//!
//! On the paper's single-core machine these structures sit at the bottom of
//! [`crate::hierarchy::MemoryHierarchy`] and are private to the one core. On
//! a chip ([`smt_types::ChipConfig`]) every core's private levels
//! ([`crate::hierarchy::CoreMemory`]) miss into one [`SharedLlc`]: cores
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
//!   the original fused hierarchy. Used by the single-core machine (and
//!   one-core chips) so its results stay bit-for-bit identical.
//! * **Chip arbitration** — every access of one chip cycle carries the same
//!   LRU stamp (the cycle number), fills are staged and applied once per
//!   cycle in a canonical order, and bus congestion is frozen at the start of
//!   the cycle. Together with per-core-disjoint physical address spaces this
//!   makes chip results independent of the order cores are stepped in within
//!   a cycle.
//!
//! # The view / stage / merge split
//!
//! The chip discipline is made explicit in the type system so that no core
//! can see another core's writes from the same cycle:
//!
//! * [`SharedLlcView`] is a **frozen read view** of the shared level —
//!   `&self`-only queries against cycle-start state: tag probes, the frozen
//!   bus congestion, and MSHR availability snapshots;
//! * [`CoreStage`] is a **per-core stage buffer** owned by one core for the
//!   duration of a cycle: staged fills, MSHR allocations, bus enqueues, LRU
//!   stamp touches, and hit/miss tallies;
//! * [`StagedShared`] pairs the two into a [`SharedLevel`] the pipeline
//!   steps against; [`SharedLlc::merge_stage`] folds each stage back in
//!   canonical core order before [`SharedLlc::end_cycle`] applies the fills.
//!
//! Because every intra-cycle write either carries the idempotent cycle stamp
//! or is deferred to the merge, the staged path is bit-for-bit the serial
//! interleaved one, and each core's cycle depends only on cycle-start state:
//! the chip's results are invariant to the order its cores step in.

use smt_types::{ChipConfig, SmtConfig};

use crate::cache::SetAssocCache;
use serde::{Deserialize, Serialize};

use crate::cache::CacheState;
use crate::mshr::{MshrFile, MshrOutcome, MshrStage};

/// The interface a core's private memory hierarchy steps against: either the
/// shared level itself ([`SharedLlc`], the serial discipline) or a frozen
/// view plus per-core stage buffer ([`StagedShared`], the staged chip
/// discipline). Static dispatch keeps the hot path monomorphized.
pub trait SharedLevel {
    /// Looks up `addr` in the shared LLC, returning `true` on a hit.
    fn access(&mut self, addr: u64) -> bool;
    /// Installs (or refreshes) the line containing `addr`.
    fn fill(&mut self, addr: u64);
    /// Hit latency of the shared LLC.
    fn latency(&self) -> u64;
    /// Off-chip main-memory latency (excluding bus queueing).
    fn memory_latency(&self) -> u64;
    /// Bus queueing delay a transfer issued this cycle pays.
    fn queue_delay(&self) -> u64;
    /// Presents an off-chip miss to the LLC MSHR file.
    fn mshr_request(
        &mut self,
        requester: usize,
        line_addr: u64,
        now: u64,
        completion: u64,
    ) -> MshrOutcome;
    /// Records a newly issued off-chip transfer completing at `completion`.
    fn register_transfer(&mut self, completion: u64);
}

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

/// Serializable snapshot of a [`SharedLlc`] (for warm checkpoints).
///
/// Only the warm (cache-content) state is captured: checkpoints are taken at
/// quiescent boundaries where no misses are outstanding, no bus transfers are
/// in flight, and no fills are staged, so the transient timing state is
/// structurally empty and restores to empty.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SharedLlcState {
    /// LLC tag-store contents.
    pub llc: CacheState,
    /// Current cycle stamp (chip arbitration only; zero otherwise).
    pub cycle: u64,
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
    /// The shared level of the paper's single-core machine: the `config.l3`
    /// cache, per-thread MSHRs, an uncontended bus, and the legacy
    /// synchronous discipline.
    pub fn single_core(config: &SmtConfig) -> Self {
        SharedLlc {
            llc: SetAssocCache::new(&config.l3),
            mshrs: MshrFile::new(config.num_threads, config.max_outstanding_misses as usize),
            bus: MemoryBus::new(
                smt_types::BusConfig::unlimited(),
                config.l1d.line_bytes as u64,
            ),
            memory_latency: config.memory_latency,
            line_bytes: config.l1d.line_bytes as u64,
            chip_arbitration: false,
            cycle: 0,
            staged: Vec::new(),
        }
    }

    /// The shared level of a chip: the `shared_llc` cache, one MSHR slot set
    /// per `(core, thread)` requester, the configured bus, and (for
    /// multi-core chips) the order-invariant chip arbitration discipline.
    ///
    /// A one-core chip keeps the legacy discipline so that `num_cores == 1`
    /// is bit-for-bit the single-core machine.
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

    /// Whether the chip arbitration discipline is active.
    pub fn chip_arbitration(&self) -> bool {
        self.chip_arbitration
    }

    /// Starts a chip cycle: freezes bus congestion and sets the LRU stamp.
    /// The single-core pipeline never calls this (its discipline has no
    /// per-cycle shared state).
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

    /// LLC hit rate so far.
    pub fn llc_hit_rate(&self) -> f64 {
        self.llc.hit_rate()
    }

    /// Whether the transient timing state is structurally empty: no MSHR
    /// entries, no in-flight bus transfers, no staged fills. Checkpoints may
    /// only be captured when this holds.
    pub fn is_quiescent(&self) -> bool {
        self.mshrs.total_entries() == 0
            && self.bus.inflight_transfers() == 0
            && self.staged.is_empty()
    }

    /// Captures the warm state for a checkpoint. Fails unless the level is
    /// quiescent (see [`SharedLlc::is_quiescent`]).
    pub fn state(&self) -> Result<SharedLlcState, String> {
        if !self.is_quiescent() {
            return Err(
                "shared LLC has outstanding misses, bus transfers, or staged fills; \
                 checkpoints are only legal at quiescent boundaries"
                    .to_string(),
            );
        }
        Ok(SharedLlcState {
            llc: self.llc.state(),
            cycle: self.cycle,
        })
    }

    /// Restores a state captured with [`SharedLlc::state`]; the transient
    /// timing state (MSHRs, bus, staged fills) is reset to empty.
    pub fn restore_state(&mut self, state: &SharedLlcState) -> Result<(), String> {
        self.llc.restore_state(&state.llc)?;
        self.cycle = state.cycle;
        self.mshrs.reset();
        self.bus.reset();
        self.staged.clear();
        Ok(())
    }

    /// Clears all LLC, MSHR, bus and staging state.
    pub fn reset(&mut self) {
        self.llc.flush_all();
        self.mshrs.reset();
        self.bus.reset();
        self.staged.clear();
        self.cycle = 0;
    }

    /// A frozen read view of the cycle-start state, for staged stepping.
    pub fn view(&self) -> SharedLlcView<'_> {
        SharedLlcView { shared: self }
    }

    /// Folds one core's stage buffer into the shared level at the end of a
    /// cycle. Call once per core in canonical (ascending core id) order,
    /// then [`SharedLlc::end_cycle`] to apply the combined staged fills.
    ///
    /// Merge order within a cycle is immaterial to the final state: stamp
    /// touches all carry the same cycle stamp, MSHR slots are per-requester,
    /// counters commute, and bus observables are order-independent — but the
    /// canonical order makes every core stepping order produce not just
    /// equivalent, byte-identical internal state.
    pub fn merge_stage(&mut self, stage: &mut CoreStage) {
        let stamp = self.cycle + 1;
        // Stamp touches must land before end_cycle installs any fill: the
        // serial discipline refreshes stamps during the cycle, and victim
        // selection at the fill point sees those refreshed stamps.
        for &addr in &stage.touched {
            debug_assert!(self.llc.probe(addr), "touched line vanished mid-cycle");
            self.llc.fill_stamped(addr, stamp);
        }
        stage.touched.clear();
        self.llc.add_lookup_counts(stage.hits, stage.misses);
        stage.hits = 0;
        stage.misses = 0;
        for (slot, mshr_stage) in stage.mshr.iter_mut().enumerate() {
            self.mshrs
                .apply_stage(stage.requester_base + slot, mshr_stage, self.cycle);
        }
        for &completion in &stage.transfers {
            self.bus.register(completion);
        }
        stage.transfers.clear();
        self.staged.append(&mut stage.staged_lines);
    }
}

impl SharedLevel for SharedLlc {
    fn access(&mut self, addr: u64) -> bool {
        SharedLlc::access(self, addr)
    }

    fn fill(&mut self, addr: u64) {
        SharedLlc::fill(self, addr)
    }

    fn latency(&self) -> u64 {
        SharedLlc::latency(self)
    }

    fn memory_latency(&self) -> u64 {
        SharedLlc::memory_latency(self)
    }

    fn queue_delay(&self) -> u64 {
        SharedLlc::queue_delay(self)
    }

    fn mshr_request(
        &mut self,
        requester: usize,
        line_addr: u64,
        now: u64,
        completion: u64,
    ) -> MshrOutcome {
        SharedLlc::mshr_request(self, requester, line_addr, now, completion)
    }

    fn register_transfer(&mut self, completion: u64) {
        SharedLlc::register_transfer(self, completion)
    }
}

/// A frozen, `&self`-only read view of a [`SharedLlc`] at cycle start.
///
/// Every query is answered from state that cannot change while cores step:
/// tag presence (fills are staged), bus congestion (frozen at
/// [`SharedLlc::begin_cycle`]), and the MSHR entry maps (allocations are
/// staged per core). Every core of a cycle reads the same view.
#[derive(Clone, Copy)]
pub struct SharedLlcView<'a> {
    shared: &'a SharedLlc,
}

impl SharedLlcView<'_> {
    /// Whether the line containing `addr` is present, without touching LRU
    /// state or counters.
    pub fn probe(&self, addr: u64) -> bool {
        self.shared.llc.probe(addr)
    }

    /// Hit latency of the shared LLC.
    pub fn latency(&self) -> u64 {
        self.shared.llc.latency()
    }

    /// Off-chip main-memory latency (excluding bus queueing).
    pub fn memory_latency(&self) -> u64 {
        self.shared.memory_latency
    }

    /// Bus queueing delay, frozen at cycle start.
    pub fn queue_delay(&self) -> u64 {
        self.shared.bus.queue_delay()
    }

    /// Cache-line id of `addr`.
    fn line_of(&self, addr: u64) -> u64 {
        addr / self.shared.line_bytes
    }
}

/// One core's staged mutations of the shared level within one chip cycle.
///
/// Owned exclusively by its core while the cycle runs (no synchronization
/// needed), drained by [`SharedLlc::merge_stage`] at the end of the cycle.
/// All buffers retain capacity across cycles, keeping the steady-state cycle
/// loop allocation-free.
#[derive(Debug)]
pub struct CoreStage {
    /// First chip-wide requester id of the owning core
    /// (`core_id * threads_per_core`).
    requester_base: usize,
    /// Staged MSHR mutations, one slot per hardware thread of the core.
    mshr: Vec<MshrStage>,
    /// Line ids newly staged for fill this cycle.
    staged_lines: Vec<u64>,
    /// Addresses whose LRU stamp must refresh at the merge (hits on present
    /// lines, and fills of already-present lines).
    touched: Vec<u64>,
    /// LLC lookup tallies of this cycle, folded into the cache counters at
    /// the merge.
    hits: u64,
    misses: u64,
    /// Completion cycles of off-chip transfers issued this cycle.
    transfers: Vec<u64>,
}

impl CoreStage {
    /// Creates the stage buffer for the core whose first chip-wide requester
    /// id is `requester_base` and which hosts `threads` hardware threads.
    pub fn new(requester_base: usize, threads: usize) -> Self {
        CoreStage {
            requester_base,
            mshr: (0..threads).map(|_| MshrStage::default()).collect(),
            staged_lines: Vec::new(),
            touched: Vec::new(),
            hits: 0,
            misses: 0,
            transfers: Vec::new(),
        }
    }

    /// Whether the stage holds no pending mutations (always true between
    /// cycles: the merge drains every buffer).
    pub fn is_empty(&self) -> bool {
        self.staged_lines.is_empty()
            && self.touched.is_empty()
            && self.transfers.is_empty()
            && self.hits == 0
            && self.misses == 0
            && self.mshr.iter().all(MshrStage::is_empty)
    }
}

/// A frozen view plus one core's stage buffer: the [`SharedLevel`] a core
/// steps against under the staged chip discipline. Reads are answered from
/// the view (and the core's own staged fills), writes land in the stage.
pub struct StagedShared<'a> {
    view: SharedLlcView<'a>,
    stage: &'a mut CoreStage,
}

impl<'a> StagedShared<'a> {
    /// Pairs a frozen view with the stepping core's stage buffer.
    pub fn new(view: SharedLlcView<'a>, stage: &'a mut CoreStage) -> Self {
        StagedShared { view, stage }
    }
}

impl SharedLevel for StagedShared<'_> {
    fn access(&mut self, addr: u64) -> bool {
        // Own staged fills read as present, exactly as the serial chip
        // discipline's global staged check (address spaces are per-core
        // disjoint, so only the owner can ever match its staged lines).
        if self.stage.staged_lines.contains(&self.view.line_of(addr)) {
            self.stage.hits += 1;
            return true;
        }
        if self.view.probe(addr) {
            // The serial path refreshes the LRU stamp here; defer the
            // (idempotent, same-stamp) refresh to the merge.
            self.stage.touched.push(addr);
            self.stage.hits += 1;
            return true;
        }
        self.stage.misses += 1;
        false
    }

    fn fill(&mut self, addr: u64) {
        if self.view.probe(addr) {
            // Present: a stamp refresh, never a duplicate install.
            self.stage.touched.push(addr);
            return;
        }
        let line = self.view.line_of(addr);
        if !self.stage.staged_lines.contains(&line) {
            self.stage.staged_lines.push(line);
        }
    }

    fn latency(&self) -> u64 {
        self.view.latency()
    }

    fn memory_latency(&self) -> u64 {
        self.view.memory_latency()
    }

    fn queue_delay(&self) -> u64 {
        self.view.queue_delay()
    }

    fn mshr_request(
        &mut self,
        requester: usize,
        line_addr: u64,
        now: u64,
        completion: u64,
    ) -> MshrOutcome {
        let slot = requester - self.stage.requester_base;
        self.view.shared.mshrs.request_frozen(
            requester,
            &mut self.stage.mshr[slot],
            line_addr,
            now,
            completion,
        )
    }

    fn register_transfer(&mut self, completion: u64) {
        self.stage.transfers.push(completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_types::BusConfig;

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
        let mut shared = SharedLlc::single_core(&config);
        assert!(!shared.chip_arbitration());
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
        assert!(shared.chip_arbitration());
        shared.begin_cycle(10);
        assert!(!shared.access(0x40));
        shared.fill(0x40);
        // Staged lines read as present within the cycle (and count as hits
        // in the LLC's counters)...
        let rate_before = shared.llc_hit_rate();
        assert!(shared.access(0x40));
        assert!(shared.llc_hit_rate() > rate_before);
        shared.end_cycle();
        // ...and are installed for later cycles.
        shared.begin_cycle(11);
        assert!(shared.access(0x44));
        shared.reset();
        shared.begin_cycle(12);
        assert!(!shared.access(0x40));
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

    #[test]
    fn one_core_chip_uses_legacy_discipline() {
        let chip = ChipConfig::baseline(1, 2);
        let shared = SharedLlc::for_chip(&chip);
        assert!(!shared.chip_arbitration());
        assert!(shared.bus.is_unlimited());
    }

    /// Drives the same access/fill/MSHR/bus sequence through the serial
    /// interleaved chip discipline and through the view+stage+merge split;
    /// every intra-cycle outcome and all cycle-end observables must agree.
    #[test]
    fn staged_discipline_matches_serial_chip_discipline() {
        let chip = ChipConfig::baseline(2, 2);
        let mut serial = SharedLlc::for_chip(&chip);
        let mut staged = SharedLlc::for_chip(&chip);
        let mut stages = [CoreStage::new(0, 2), CoreStage::new(2, 2)];
        let mut probes: Vec<u64> = Vec::new();
        for cycle in 0..200u64 {
            serial.begin_cycle(cycle);
            staged.begin_cycle(cycle);
            assert_eq!(serial.queue_delay(), staged.queue_delay());
            for (core, stage) in stages.iter_mut().enumerate() {
                // Per-core-disjoint physical spaces, with reuse so hits,
                // stamp refreshes, merges and capacity pressure all occur.
                let space = (core as u64) << 44;
                for k in 0..6u64 {
                    let addr = space + ((cycle * 13 + k * 29) % 96) * 64;
                    probes.push(addr);
                    let hit_serial = serial.access(addr);
                    let hit_staged = StagedShared::new(staged.view(), stage).access(addr);
                    assert_eq!(hit_serial, hit_staged, "cycle {cycle} addr {addr:#x}");
                    if hit_serial {
                        continue;
                    }
                    let requester = core * 2 + (k as usize % 2);
                    let completion = cycle + 300 + serial.queue_delay();
                    let out_serial = serial.mshr_request(requester, addr / 64, cycle, completion);
                    let out_staged = StagedShared::new(staged.view(), stage).mshr_request(
                        requester,
                        addr / 64,
                        cycle,
                        completion,
                    );
                    assert_eq!(out_serial, out_staged, "cycle {cycle} addr {addr:#x}");
                    if out_serial == MshrOutcome::Allocated {
                        serial.register_transfer(completion);
                        StagedShared::new(staged.view(), stage).register_transfer(completion);
                    }
                    serial.fill(addr);
                    StagedShared::new(staged.view(), stage).fill(addr);
                }
            }
            for stage in &mut stages {
                staged.merge_stage(stage);
                assert!(stage.is_empty(), "merge must drain the stage");
            }
            serial.end_cycle();
            staged.end_cycle();
        }
        assert_eq!(serial.llc_hit_rate(), staged.llc_hit_rate());
        assert_eq!(
            serial.bus.inflight_transfers(),
            staged.bus.inflight_transfers()
        );
        for addr in probes {
            assert_eq!(serial.view().probe(addr), staged.view().probe(addr));
        }
    }
}
