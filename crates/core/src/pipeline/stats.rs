//! Per-cycle accounting: the incrementally maintained shared-resource
//! occupancy totals, the start-of-cycle snapshot refresh handed to fetch
//! policies, and the fetch-gating and MLP cycle accounting.

use smt_types::{OpFlags, SmtSnapshot, ThreadId, ThreadSnapshot};

use super::thread::Occupancy;
use super::Core;

/// Machine-level occupancy of the shared buffer resources, maintained
/// incrementally at every allocate/release instead of being recomputed from the
/// per-thread counters each cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(super) struct SharedTotals {
    pub(super) rob: u32,
    pub(super) lsq: u32,
    pub(super) iq_int: u32,
    pub(super) iq_fp: u32,
    pub(super) rename_int: u32,
    pub(super) rename_fp: u32,
}

impl SharedTotals {
    /// Frees the issue-queue entry a dispatched instruction with `flags`
    /// holds until it issues, in the thread's `occ` and in the totals.
    #[inline]
    pub(super) fn release_iq(&mut self, occ: &mut Occupancy, flags: OpFlags) {
        if flags.uses_fp_iq() {
            occ.iq_fp -= 1;
            self.iq_fp -= 1;
        } else {
            occ.iq_int -= 1;
            self.iq_int -= 1;
        }
    }

    /// Frees what a dispatched instruction with `flags` holds until it
    /// leaves the window — its ROB entry, LSQ entry and rename register —
    /// in the thread's `occ` and in the totals.
    #[inline]
    pub(super) fn release_backend(&mut self, occ: &mut Occupancy, flags: OpFlags) {
        occ.rob -= 1;
        self.rob -= 1;
        if flags.uses_lsq() {
            occ.lsq -= 1;
            self.lsq -= 1;
        }
        if flags.has_dest() {
            if flags.dest_fp() {
                occ.rename_fp -= 1;
                self.rename_fp -= 1;
            } else {
                occ.rename_int -= 1;
                self.rename_int -= 1;
            }
        }
    }
}

impl Core {
    /// Rewrites the reused snapshot buffer in place with the start-of-cycle
    /// machine state (no allocation in steady state).
    pub(super) fn refresh_snapshot(&self, snap: &mut SmtSnapshot) {
        for (t, ctx) in snap.threads.iter_mut().zip(&self.threads) {
            *t = ThreadSnapshot {
                icount: ctx.occ.icount(),
                outstanding_long_latency_loads: ctx.outstanding_lll.len() as u32,
                outstanding_l1d_misses: ctx.outstanding_l1d,
                oldest_lll_cycle: ctx.outstanding_lll.min_cycle(),
            };
        }
    }

    /// Verifies (in debug builds) that the incremental shared-resource totals
    /// agree with a from-scratch recomputation over the per-thread counters,
    /// that the window cursors agree with the occupancy counters, that every
    /// window's ready set is exactly its issuable instructions, and that each
    /// thread's cached oldest long-latency load cycle is the true minimum.
    #[cfg(debug_assertions)]
    pub(super) fn debug_check_totals(&self) {
        let mut expect = SharedTotals::default();
        for ctx in &self.threads {
            expect.rob += ctx.occ.rob;
            expect.lsq += ctx.occ.lsq;
            expect.iq_int += ctx.occ.iq_int;
            expect.iq_fp += ctx.occ.iq_fp;
            expect.rename_int += ctx.occ.rename_int;
            expect.rename_fp += ctx.occ.rename_fp;
            debug_assert_eq!(
                ctx.window.first_undispatched_index(),
                ctx.window.len() - ctx.occ.frontend as usize,
                "dispatch cursor drifted from front-end occupancy"
            );
            ctx.window.debug_check_ready();
            debug_assert_eq!(
                ctx.outstanding_lll.min_cycle(),
                ctx.outstanding_lll.scanned_min_cycle(),
                "cached oldest long-latency load cycle drifted"
            );
        }
        debug_assert_eq!(self.totals, expect, "incremental occupancy totals drifted");
    }

    /// Accounts `cycles` fetch-gated cycles to every thread in the gated
    /// mask, walking its set bits: one per step, or a whole skipped stretch.
    pub(super) fn account_gated(&mut self, cycles: u64) {
        let mut gated = self.gated_mask;
        while gated != 0 {
            let ti = gated.trailing_zeros() as usize;
            self.stats.thread_mut(ThreadId::new(ti)).fetch_gated_cycles += cycles;
            gated &= gated - 1;
        }
    }

    /// Accounts `cycles` cycles of the current outstanding long-latency
    /// loads: one per step, or a whole skipped stretch at once.
    pub(super) fn account_mlp(&mut self, cycles: u64) {
        for ti in 0..self.threads.len() {
            let outstanding = self.threads[ti].outstanding_lll.len() as u64;
            if outstanding > 0 {
                let tstats = self.stats.thread_mut(ThreadId::new(ti));
                tstats.mlp_cycles += cycles;
                tstats.mlp_outstanding_sum += cycles * outstanding;
            }
        }
    }
}
