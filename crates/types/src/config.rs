//! Simulated processor configuration (Table IV of the paper).

use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// Largest latency, in cycles, that any configured access may take
/// ([`CacheConfig::latency`], [`TlbConfig::miss_penalty`],
/// [`SmtConfig::memory_latency`]): far past the paper's 800-cycle Figure 15
/// sweep, and small enough that the memory hierarchy's completion-cycle
/// sums cannot overflow.
pub const MAX_LATENCY_CYCLES: u64 = 1 << 32;

/// Checks one configured latency against [`MAX_LATENCY_CYCLES`].
fn check_latency(field: &str, cycles: u64) -> Result<(), SimError> {
    if cycles > MAX_LATENCY_CYCLES {
        return Err(SimError::invalid_config(format!(
            "{field} of {cycles} cycles exceeds the {MAX_LATENCY_CYCLES}-cycle limit"
        )));
    }
    Ok(())
}

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (number of ways per set).
    pub associativity: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access latency in cycles (added on a hit at this level).
    pub latency: u64,
}

impl CacheConfig {
    /// Largest number of lines (`size_bytes / line_bytes`) a cache may hold:
    /// 64 times the Table IV L3. The simulator allocates every way up front,
    /// so the bound turns an oversized geometry into a validation error
    /// instead of an allocation abort.
    pub const MAX_LINES: u64 = 1 << 22;

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sized fields). Use
    /// [`CacheConfig::validate`] to check fallibly.
    pub fn num_sets(&self) -> u64 {
        self.validate().expect("invalid cache geometry");
        self.size_bytes / (self.associativity as u64 * self.line_bytes as u64)
    }

    /// Checks that the geometry is internally consistent.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any geometry field is zero, the
    /// line count exceeds [`CacheConfig::MAX_LINES`], the capacity is not a
    /// multiple of `associativity * line_bytes`, the resulting set count is
    /// not a power of two, the line size is not a power of two of at least
    /// 2 bytes, or the latency exceeds [`MAX_LATENCY_CYCLES`].
    pub fn validate(&self) -> Result<(), SimError> {
        if self.size_bytes == 0 || self.associativity == 0 || self.line_bytes == 0 {
            return Err(SimError::invalid_config(
                "cache geometry fields must be non-zero",
            ));
        }
        check_latency("cache latency", self.latency)?;
        if self.size_bytes / self.line_bytes as u64 > Self::MAX_LINES {
            return Err(SimError::invalid_config(format!(
                "cache too large: size_bytes / line_bytes must not exceed {}",
                Self::MAX_LINES
            )));
        }
        let way_bytes = self.associativity as u64 * self.line_bytes as u64;
        if !self.size_bytes.is_multiple_of(way_bytes) {
            return Err(SimError::invalid_config(
                "cache size must be a multiple of associativity * line size",
            ));
        }
        let sets = self.size_bytes / way_bytes;
        if !sets.is_power_of_two() {
            return Err(SimError::invalid_config(
                "cache set count must be a power of two",
            ));
        }
        if !self.line_bytes.is_power_of_two() || self.line_bytes < 2 {
            return Err(SimError::invalid_config(
                "cache line size must be a power of two of at least 2 bytes",
            ));
        }
        Ok(())
    }
}

/// TLB geometry (fully associative in the baseline).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: u32,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Penalty (cycles) of a TLB miss; the paper treats a D-TLB miss as a
    /// long-latency event comparable to a memory access.
    pub miss_penalty: u64,
}

/// Hardware stream-buffer prefetcher configuration (Sherwood et al. style).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PrefetcherConfig {
    /// Whether the prefetcher is enabled (the Figure 5 experiment turns it off).
    pub enabled: bool,
    /// Number of stream buffers.
    pub stream_buffers: u32,
    /// Entries (prefetched lines) per stream buffer.
    pub entries_per_buffer: u32,
    /// Number of entries in the PC-indexed stride predictor that guides allocation.
    pub stride_table_entries: u32,
    /// Confidence threshold (consecutive identical strides) before a stream buffer
    /// is allocated.
    pub confidence_threshold: u8,
}

impl Default for PrefetcherConfig {
    fn default() -> Self {
        PrefetcherConfig {
            enabled: true,
            stream_buffers: 8,
            entries_per_buffer: 8,
            stride_table_entries: 2048,
            confidence_threshold: 2,
        }
    }
}

/// Which SMT fetch policy drives the front end.
///
/// The first six correspond to the policies compared in Section 6.3; the
/// remaining variants cover the Section 6.5 alternatives and the Section 6.6
/// explicit resource-management schemes.
///
/// Serializes as the short machine-readable [`FetchPolicyKind::name`]
/// (e.g. `"mlp-flush"`), which is also what spec files and the CLI accept.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FetchPolicyKind {
    /// ICOUNT 2.4 (Tullsen et al. 1996) — the baseline.
    Icount,
    /// Fetch stall on a *detected* long-latency load (Tullsen & Brown 2001).
    Stall,
    /// Fetch stall on a *predicted* long-latency load (Cazorla et al. 2004a).
    PredictiveStall,
    /// Flush past a detected long-latency load (Tullsen & Brown 2001, "TM/next").
    Flush,
    /// MLP-aware stall fetch: predict the load and its MLP distance, stall after
    /// fetching that many more instructions (this paper).
    MlpStall,
    /// MLP-aware flush: detect the load, predict the MLP distance, flush or keep
    /// fetching up to that distance (this paper — the headline policy).
    MlpFlush,
    /// Section 6.5 alternative (c): binary MLP predictor + flush.
    MlpBinaryFlush,
    /// Section 6.5 alternative (d): MLP distance + flush at resource stall.
    MlpDistanceFlushAtStall,
    /// Section 6.5 alternative (e): binary MLP predictor + flush at resource stall.
    MlpBinaryFlushAtStall,
    /// Static partitioning of buffer resources (Raasch & Reinhardt style).
    StaticPartition,
    /// Dynamically controlled resource allocation (Cazorla et al. 2004b).
    Dcra,
}

impl FetchPolicyKind {
    /// Every implemented fetch policy, in presentation order.
    pub const ALL: [FetchPolicyKind; 11] = [
        FetchPolicyKind::Icount,
        FetchPolicyKind::Stall,
        FetchPolicyKind::PredictiveStall,
        FetchPolicyKind::Flush,
        FetchPolicyKind::MlpStall,
        FetchPolicyKind::MlpFlush,
        FetchPolicyKind::MlpBinaryFlush,
        FetchPolicyKind::MlpDistanceFlushAtStall,
        FetchPolicyKind::MlpBinaryFlushAtStall,
        FetchPolicyKind::StaticPartition,
        FetchPolicyKind::Dcra,
    ];

    /// All policies evaluated in the main comparison (Figures 9–14).
    pub const MAIN_COMPARISON: [FetchPolicyKind; 6] = [
        FetchPolicyKind::Icount,
        FetchPolicyKind::Stall,
        FetchPolicyKind::PredictiveStall,
        FetchPolicyKind::MlpStall,
        FetchPolicyKind::Flush,
        FetchPolicyKind::MlpFlush,
    ];

    /// Short machine-readable name used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            FetchPolicyKind::Icount => "icount",
            FetchPolicyKind::Stall => "stall",
            FetchPolicyKind::PredictiveStall => "pstall",
            FetchPolicyKind::Flush => "flush",
            FetchPolicyKind::MlpStall => "mlp-stall",
            FetchPolicyKind::MlpFlush => "mlp-flush",
            FetchPolicyKind::MlpBinaryFlush => "mlp-binary-flush",
            FetchPolicyKind::MlpDistanceFlushAtStall => "mlp-dist-flush-at-stall",
            FetchPolicyKind::MlpBinaryFlushAtStall => "mlp-binary-flush-at-stall",
            FetchPolicyKind::StaticPartition => "static-partition",
            FetchPolicyKind::Dcra => "dcra",
        }
    }

    /// Parses a [`FetchPolicyKind::name`] string back into a policy.
    pub fn from_name(name: &str) -> Option<FetchPolicyKind> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

serde::named_enum_serde!(FetchPolicyKind, "fetch policy");

/// Full SMT processor configuration, defaulting to Table IV of the paper.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SmtConfig {
    /// Number of hardware threads.
    pub num_threads: usize,
    /// Fetch policy driving the front end.
    pub fetch_policy: FetchPolicyKind,
    /// Instructions fetched per cycle (total across threads). ICOUNT 2.4 = 4.
    pub fetch_width: u32,
    /// Maximum number of threads fetched from in one cycle. ICOUNT 2.4 = 2.
    pub fetch_threads_per_cycle: u32,
    /// Decode/rename/dispatch width per cycle.
    pub dispatch_width: u32,
    /// Issue width per cycle.
    pub issue_width: u32,
    /// Commit width per cycle.
    pub commit_width: u32,
    /// Front-end depth in stages (fetch to dispatch); Table IV: 14-stage pipeline.
    pub frontend_depth: u32,
    /// Shared reorder buffer capacity.
    pub rob_size: u32,
    /// Shared load/store queue capacity.
    pub lsq_size: u32,
    /// Integer issue-queue capacity.
    pub iq_int_size: u32,
    /// Floating-point issue-queue capacity.
    pub iq_fp_size: u32,
    /// Integer rename registers (beyond architected state).
    pub rename_int: u32,
    /// Floating-point rename registers.
    pub rename_fp: u32,
    /// Number of integer ALUs.
    pub int_alus: u32,
    /// Number of load/store units.
    pub ldst_units: u32,
    /// Number of floating-point units.
    pub fp_units: u32,
    /// Branch misprediction penalty in cycles.
    pub branch_penalty: u64,
    /// gshare branch predictor entries.
    pub gshare_entries: u32,
    /// Branch target buffer entries.
    pub btb_entries: u32,
    /// Branch target buffer associativity.
    pub btb_assoc: u32,
    /// Write buffer entries (stores drain here at commit).
    pub write_buffer_entries: u32,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// Unified L3 cache.
    pub l3: CacheConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// Main memory access latency in cycles (Figure 15/16 sweeps this 200–800).
    pub memory_latency: u64,
    /// Number of outstanding misses supported per thread (MSHR-style limit). The
    /// paper assumes enough MSHRs to expose the ROB-limited MLP; 32 is ample.
    pub max_outstanding_misses: u32,
    /// Hardware prefetcher configuration.
    pub prefetcher: PrefetcherConfig,
    /// When `true`, independent long-latency loads are artificially serialized
    /// (used only by the Table I "MLP impact" characterization experiment).
    pub serialize_long_latency_loads: bool,
    /// Long-latency load predictor table entries (per thread).
    pub lll_predictor_entries: u32,
    /// MLP distance predictor table entries (per thread).
    pub mlp_predictor_entries: u32,
    /// Optional explicit LLSR length; when `None` the paper's sizing of
    /// `ROB size / number of threads` is used.
    pub llsr_length_override: Option<u32>,
}

impl SmtConfig {
    /// The largest per-thread instruction window the pipeline supports:
    /// `rob_size + frontend_depth * fetch_width` (a thread may own the whole
    /// ROB plus its front-end buffer) must not exceed it, and neither may an
    /// explicit LLSR length.
    pub const MAX_WINDOW_ENTRIES: u32 = 1 << 16;

    /// The largest per-thread warm table: `gshare_entries`, `btb_entries`,
    /// `lll_predictor_entries`, `mlp_predictor_entries`, `dtlb.entries` and
    /// `prefetcher.stride_table_entries` must not exceed it (Table IV uses
    /// at most 2K). It also bounds the recorded length of those tables in a
    /// warm checkpoint.
    pub const MAX_TABLE_ENTRIES: u32 = 1 << 20;

    /// The baseline Table IV configuration for `num_threads` hardware threads.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero or exceeds [`crate::ThreadId::MAX_THREADS`].
    pub fn baseline(num_threads: usize) -> Self {
        assert!(
            (1..=crate::ThreadId::MAX_THREADS).contains(&num_threads),
            "unsupported thread count {num_threads}"
        );
        SmtConfig {
            num_threads,
            fetch_policy: FetchPolicyKind::Icount,
            fetch_width: 4,
            fetch_threads_per_cycle: 2,
            dispatch_width: 4,
            issue_width: 4,
            commit_width: 4,
            frontend_depth: 14,
            rob_size: 256,
            lsq_size: 128,
            iq_int_size: 64,
            iq_fp_size: 64,
            rename_int: 100,
            rename_fp: 100,
            int_alus: 4,
            ldst_units: 2,
            fp_units: 2,
            branch_penalty: 11,
            gshare_entries: 2048,
            btb_entries: 256,
            btb_assoc: 4,
            write_buffer_entries: 8,
            l1d: CacheConfig {
                size_bytes: 64 * 1024,
                associativity: 2,
                line_bytes: 64,
                latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                associativity: 8,
                line_bytes: 64,
                latency: 11,
            },
            l3: CacheConfig {
                size_bytes: 4 * 1024 * 1024,
                associativity: 16,
                line_bytes: 64,
                latency: 35,
            },
            dtlb: TlbConfig {
                entries: 512,
                page_bytes: 8 * 1024,
                miss_penalty: 350,
            },
            memory_latency: 350,
            max_outstanding_misses: 32,
            prefetcher: PrefetcherConfig::default(),
            serialize_long_latency_loads: false,
            lll_predictor_entries: 2048,
            mlp_predictor_entries: 2048,
            llsr_length_override: None,
        }
    }

    /// Baseline single-thread configuration (used for the single-threaded CPI runs
    /// that normalize STP and ANTT).
    pub fn single_thread() -> Self {
        Self::baseline(1)
    }

    /// Returns a copy with the given fetch policy.
    pub fn with_policy(mut self, policy: FetchPolicyKind) -> Self {
        self.fetch_policy = policy;
        self
    }

    /// Returns a copy with the given main-memory latency (Figures 15/16).
    pub fn with_memory_latency(mut self, latency: u64) -> Self {
        self.memory_latency = latency;
        self
    }

    /// Returns a copy with the prefetcher enabled or disabled (Figure 5).
    pub fn with_prefetcher(mut self, enabled: bool) -> Self {
        self.prefetcher.enabled = enabled;
        self
    }

    /// Scales the window resources for the Figure 17/18 experiment: ROB size `rob`,
    /// with the load/store queue, issue queues and rename registers scaled
    /// proportionally exactly as in Section 6.4.2 (ROB 128/256/512/1024 ↔ LSQ
    /// 64/128/256/512 ↔ IQ 32/64/128/256 ↔ 50/100/200/400 registers).
    pub fn with_window_size(mut self, rob: u32) -> Self {
        let scale = rob as f64 / 256.0;
        self.rob_size = rob;
        self.lsq_size = ((128.0 * scale).round() as u32).max(2);
        self.iq_int_size = ((64.0 * scale).round() as u32).max(2);
        self.iq_fp_size = ((64.0 * scale).round() as u32).max(2);
        self.rename_int = ((100.0 * scale).round() as u32).max(2);
        self.rename_fp = ((100.0 * scale).round() as u32).max(2);
        self
    }

    /// Per-thread long-latency shift register length: ROB entries divided by the
    /// number of threads (Section 4.2), unless explicitly overridden.
    pub fn llsr_length(&self) -> u32 {
        self.llsr_length_override
            .unwrap_or(self.rob_size / self.num_threads as u32)
            .max(1)
    }

    /// Checks the whole configuration for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when widths, resource sizes, or cache
    /// geometries are degenerate, or a latency exceeds [`MAX_LATENCY_CYCLES`].
    pub fn validate(&self) -> Result<(), SimError> {
        if self.num_threads == 0 || self.num_threads > crate::ThreadId::MAX_THREADS {
            return Err(SimError::invalid_config("unsupported number of threads"));
        }
        if self.fetch_width == 0 || self.dispatch_width == 0 || self.issue_width == 0 {
            return Err(SimError::invalid_config("pipeline widths must be non-zero"));
        }
        if self.fetch_threads_per_cycle == 0 {
            return Err(SimError::invalid_config(
                "must fetch from at least one thread per cycle",
            ));
        }
        if self.rob_size < self.num_threads as u32 {
            return Err(SimError::invalid_config("ROB smaller than thread count"));
        }
        let window = self
            .frontend_depth
            .checked_mul(self.fetch_width)
            .and_then(|frontend| frontend.checked_add(self.rob_size));
        if window.is_none_or(|w| w > Self::MAX_WINDOW_ENTRIES) {
            return Err(SimError::invalid_config(format!(
                "instruction window too large: rob_size + frontend_depth * fetch_width \
                 must not exceed {}",
                Self::MAX_WINDOW_ENTRIES
            )));
        }
        if self
            .llsr_length_override
            .is_some_and(|length| length > Self::MAX_WINDOW_ENTRIES)
        {
            return Err(SimError::invalid_config(format!(
                "LLSR length must not exceed {}",
                Self::MAX_WINDOW_ENTRIES
            )));
        }
        if self.lsq_size == 0 || self.iq_int_size == 0 || self.iq_fp_size == 0 {
            return Err(SimError::invalid_config("queue sizes must be non-zero"));
        }
        if self.int_alus == 0 || self.ldst_units == 0 || self.fp_units == 0 {
            return Err(SimError::invalid_config(
                "functional unit counts must be non-zero",
            ));
        }
        if self.max_outstanding_misses == 0 {
            return Err(SimError::invalid_config("need at least one MSHR"));
        }
        for cache in [&self.l1d, &self.l2, &self.l3] {
            cache.validate()?;
        }
        if self.dtlb.entries == 0 {
            return Err(SimError::invalid_config("TLBs must have entries"));
        }
        for (field, entries) in [
            ("gshare_entries", self.gshare_entries),
            ("btb_entries", self.btb_entries),
            ("lll_predictor_entries", self.lll_predictor_entries),
            ("mlp_predictor_entries", self.mlp_predictor_entries),
            ("dtlb.entries", self.dtlb.entries),
            (
                "prefetcher.stride_table_entries",
                self.prefetcher.stride_table_entries,
            ),
        ] {
            if entries > Self::MAX_TABLE_ENTRIES {
                return Err(SimError::invalid_config(format!(
                    "{field} of {entries} exceeds the {}-entry limit",
                    Self::MAX_TABLE_ENTRIES
                )));
            }
        }
        if !self.dtlb.page_bytes.is_power_of_two() {
            return Err(SimError::invalid_config("page size must be a power of two"));
        }
        check_latency("TLB miss_penalty", self.dtlb.miss_penalty)?;
        if self.memory_latency == 0 {
            return Err(SimError::invalid_config("memory latency must be non-zero"));
        }
        check_latency("memory_latency", self.memory_latency)?;
        Ok(())
    }
}

impl Default for SmtConfig {
    fn default() -> Self {
        Self::baseline(2)
    }
}

/// Off-chip memory-bus configuration of a chip (CMP) configuration.
///
/// The bus carries cache-line transfers between the shared LLC and main
/// memory. Each transfer occupies the bus for `line_bytes / bytes_per_cycle`
/// cycles; a request issued while other transfers are in flight pays one
/// occupancy per in-flight transfer as queueing delay, which is how cores
/// contend for off-chip bandwidth. `bytes_per_cycle == 0` disables the model
/// (infinite bandwidth) — the single-core machine of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct BusConfig {
    /// Sustained bus bandwidth in bytes per cycle; `0` means unlimited.
    pub bytes_per_cycle: u32,
}

impl BusConfig {
    /// An unlimited (uncontended) bus: the single-core machine's memory system.
    pub fn unlimited() -> Self {
        BusConfig { bytes_per_cycle: 0 }
    }

    /// The default contended bus for multi-core chips: 16 bytes/cycle, i.e.
    /// four cycles of occupancy per 64-byte line.
    pub fn contended() -> Self {
        BusConfig {
            bytes_per_cycle: 16,
        }
    }

    /// Whether the bus models contention at all.
    pub fn is_unlimited(&self) -> bool {
        self.bytes_per_cycle == 0
    }

    /// Cycles one transfer of `line_bytes` occupies the bus (zero when
    /// unlimited).
    pub fn transfer_cycles(&self, line_bytes: u64) -> u64 {
        if self.bytes_per_cycle == 0 {
            0
        } else {
            line_bytes.div_ceil(self.bytes_per_cycle as u64).max(1)
        }
    }
}

impl Default for BusConfig {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Configuration of a chip multiprocessor of SMT cores sharing a last-level
/// cache and a memory bus.
///
/// Each of the `num_cores` cores is an independent copy of the [`SmtConfig`]
/// machine (private L1D/L2, D-TLBs, prefetcher, write buffer, predictors);
/// the per-core `core.l3` is replaced by the chip-wide `shared_llc`, behind
/// the shared [`BusConfig`] memory bus. With `num_cores == 1`, an unlimited
/// bus and `shared_llc == core.l3`, the chip is exactly the paper's
/// single-core machine.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChipConfig {
    /// Number of SMT cores on the chip.
    pub num_cores: usize,
    /// Per-core configuration (identical cores; `core.l3` describes the
    /// shared LLC geometry only when `shared_llc` mirrors it).
    pub core: SmtConfig,
    /// Geometry of the shared last-level cache all cores compete for.
    pub shared_llc: CacheConfig,
    /// The off-chip memory bus shared by all cores.
    pub bus: BusConfig,
}

impl ChipConfig {
    /// Upper bound on the number of cores per chip.
    pub const MAX_CORES: usize = 8;

    /// A chip of `num_cores` Table IV baseline cores with `threads_per_core`
    /// hardware threads each. Multi-core chips get the default contended bus;
    /// a one-core "chip" is exactly the paper's single-core machine
    /// (unlimited bus).
    ///
    /// # Panics
    ///
    /// Panics if either count is zero or exceeds its supported maximum.
    pub fn baseline(num_cores: usize, threads_per_core: usize) -> Self {
        assert!(
            (1..=Self::MAX_CORES).contains(&num_cores),
            "unsupported core count {num_cores}"
        );
        let core = SmtConfig::baseline(threads_per_core);
        let shared_llc = core.l3;
        let bus = if num_cores > 1 {
            BusConfig::contended()
        } else {
            BusConfig::unlimited()
        };
        ChipConfig {
            num_cores,
            core,
            shared_llc,
            bus,
        }
    }

    /// Wraps an existing single-core configuration as a one-core chip that
    /// behaves bit-for-bit like the [`SmtConfig`] machine.
    pub fn single_core(core: SmtConfig) -> Self {
        ChipConfig {
            num_cores: 1,
            shared_llc: core.l3,
            bus: BusConfig::unlimited(),
            core,
        }
    }

    /// Returns a copy with the given per-core fetch policy.
    pub fn with_policy(mut self, policy: FetchPolicyKind) -> Self {
        self.core.fetch_policy = policy;
        self
    }

    /// Total hardware threads across all cores.
    pub fn total_threads(&self) -> usize {
        self.num_cores * self.core.num_threads
    }

    /// Checks the whole chip configuration for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a degenerate core count, core
    /// configuration, or shared-LLC geometry.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.num_cores == 0 || self.num_cores > Self::MAX_CORES {
            return Err(SimError::invalid_config(format!(
                "num_cores must be between 1 and {}",
                Self::MAX_CORES
            )));
        }
        self.core.validate()?;
        self.shared_llc.validate()?;
        if self.shared_llc.line_bytes != self.core.l1d.line_bytes {
            return Err(SimError::invalid_config(
                "shared LLC line size must match the core line size",
            ));
        }
        Ok(())
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::baseline(2, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_iv() {
        let c = SmtConfig::baseline(2);
        assert_eq!(c.rob_size, 256);
        assert_eq!(c.lsq_size, 128);
        assert_eq!(c.iq_int_size, 64);
        assert_eq!(c.rename_int, 100);
        assert_eq!(c.int_alus, 4);
        assert_eq!(c.ldst_units, 2);
        assert_eq!(c.fp_units, 2);
        assert_eq!(c.branch_penalty, 11);
        assert_eq!(c.memory_latency, 350);
        assert_eq!(c.l3.size_bytes, 4 * 1024 * 1024);
        assert_eq!(c.l2.latency, 11);
        assert_eq!(c.l3.latency, 35);
        assert_eq!(c.write_buffer_entries, 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn llsr_length_is_rob_over_threads() {
        assert_eq!(SmtConfig::baseline(2).llsr_length(), 128);
        assert_eq!(SmtConfig::baseline(4).llsr_length(), 64);
        assert_eq!(SmtConfig::baseline(1).llsr_length(), 256);
        let mut c = SmtConfig::baseline(1);
        c.llsr_length_override = Some(128);
        assert_eq!(c.llsr_length(), 128);
    }

    #[test]
    fn window_scaling_matches_section_642() {
        let c = SmtConfig::baseline(2).with_window_size(1024);
        assert_eq!(c.rob_size, 1024);
        assert_eq!(c.lsq_size, 512);
        assert_eq!(c.iq_int_size, 256);
        assert_eq!(c.rename_int, 400);
        let c = SmtConfig::baseline(2).with_window_size(128);
        assert_eq!(c.lsq_size, 64);
        assert_eq!(c.iq_fp_size, 32);
        assert_eq!(c.rename_fp, 50);
    }

    #[test]
    fn cache_geometry_validation() {
        let good = CacheConfig {
            size_bytes: 64 * 1024,
            associativity: 2,
            line_bytes: 64,
            latency: 1,
        };
        assert!(good.validate().is_ok());
        assert_eq!(good.num_sets(), 512);
        let bad = CacheConfig {
            size_bytes: 60 * 1024,
            associativity: 2,
            line_bytes: 64,
            latency: 1,
        };
        assert!(bad.validate().is_err());
        let zero = CacheConfig {
            size_bytes: 0,
            associativity: 2,
            line_bytes: 64,
            latency: 1,
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn oversized_cache_size_rejected() {
        // A petabyte cache would need ~2^44 ways allocated up front.
        let huge = CacheConfig {
            size_bytes: 1 << 50,
            associativity: 16,
            line_bytes: 64,
            latency: 20,
        };
        let err = huge.validate().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("cache too large"), "{err}");
        // The bound itself is allowed.
        let at_cap = CacheConfig {
            size_bytes: CacheConfig::MAX_LINES * 64,
            associativity: 16,
            line_bytes: 64,
            latency: 20,
        };
        assert!(at_cap.validate().is_ok());
        let over = CacheConfig {
            size_bytes: at_cap.size_bytes * 2,
            ..at_cap
        };
        assert!(over.validate().is_err());
    }

    #[test]
    fn oversized_cache_associativity_rejected() {
        // A huge associativity is a huge line count too, even with one set.
        let wide = CacheConfig {
            size_bytes: (1 << 30) * 64,
            associativity: 1 << 30,
            line_bytes: 64,
            latency: 20,
        };
        let err = wide.validate().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("cache too large"), "{err}");
    }

    #[test]
    fn oversized_cache_latency_rejected() {
        let l3 = SmtConfig::baseline(2).l3;
        let at_cap = CacheConfig {
            latency: MAX_LATENCY_CYCLES,
            ..l3
        };
        assert!(at_cap.validate().is_ok());
        let wrapping = CacheConfig {
            latency: u64::MAX,
            ..l3
        };
        let err = wrapping.validate().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("cache latency"), "{err}");
        // A core's private levels go through the same check.
        let mut c = SmtConfig::baseline(2);
        c.l2.latency = MAX_LATENCY_CYCLES + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn oversized_memory_latency_rejected() {
        let c = SmtConfig::baseline(2).with_memory_latency(MAX_LATENCY_CYCLES);
        assert!(c.validate().is_ok());
        let c = SmtConfig::baseline(2).with_memory_latency(u64::MAX);
        let err = c.validate().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("memory_latency"), "{err}");
        let mut c = SmtConfig::baseline(2);
        c.dtlb.miss_penalty = u64::MAX;
        assert!(c
            .validate()
            .unwrap_err()
            .to_string()
            .contains("miss_penalty"));
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = SmtConfig::baseline(2);
        c.issue_width = 0;
        assert!(c.validate().is_err());
        let mut c = SmtConfig::baseline(2);
        c.max_outstanding_misses = 0;
        assert!(c.validate().is_err());
        let mut c = SmtConfig::baseline(2);
        c.memory_latency = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn oversized_window_rejected() {
        // A ROB override alone past the cap.
        let c = SmtConfig::baseline(2).with_window_size(4_000_000_000);
        assert!(matches!(c.validate(), Err(SimError::InvalidConfig { .. })));
        // A fetch width whose front-end product overflows `u32`.
        let mut c = SmtConfig::baseline(2);
        c.fetch_width = 2_000_000_000;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("instruction window"), "{err}");
        // The cap itself is allowed.
        let mut c = SmtConfig::baseline(2);
        c.rob_size = SmtConfig::MAX_WINDOW_ENTRIES - c.frontend_depth * c.fetch_width;
        assert!(c.validate().is_ok());
        c.rob_size += 1;
        assert!(c.validate().is_err());
        // The LLSR shadows the window, so its override has the same cap.
        let mut c = SmtConfig::baseline(2);
        c.llsr_length_override = Some(4_000_000_000);
        assert!(c.validate().is_err());
    }

    #[test]
    fn oversized_warm_tables_rejected_by_name() {
        let max = SmtConfig::MAX_TABLE_ENTRIES;
        let mut at_limit = SmtConfig::baseline(2);
        at_limit.lll_predictor_entries = max;
        at_limit.prefetcher.stride_table_entries = max;
        assert!(at_limit.validate().is_ok());
        type Setter = fn(&mut SmtConfig);
        let setters: [(&str, Setter); 6] = [
            ("gshare_entries", |c| c.gshare_entries = u32::MAX),
            ("btb_entries", |c| c.btb_entries = u32::MAX),
            ("lll_predictor_entries", |c| c.lll_predictor_entries += 1),
            ("mlp_predictor_entries", |c| {
                c.mlp_predictor_entries = u32::MAX
            }),
            ("dtlb.entries", |c| c.dtlb.entries = u32::MAX),
            ("prefetcher.stride_table_entries", |c| {
                c.prefetcher.stride_table_entries += 1
            }),
        ];
        for (field, set) in setters {
            let mut c = at_limit.clone();
            set(&mut c);
            let err = c.validate().unwrap_err().to_string();
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn builder_style_helpers() {
        let c = SmtConfig::baseline(2)
            .with_policy(FetchPolicyKind::MlpFlush)
            .with_memory_latency(800)
            .with_prefetcher(false);
        assert_eq!(c.fetch_policy, FetchPolicyKind::MlpFlush);
        assert_eq!(c.memory_latency, 800);
        assert!(!c.prefetcher.enabled);
    }

    #[test]
    fn policy_names_are_unique() {
        use std::collections::HashSet;
        let all = [
            FetchPolicyKind::Icount,
            FetchPolicyKind::Stall,
            FetchPolicyKind::PredictiveStall,
            FetchPolicyKind::Flush,
            FetchPolicyKind::MlpStall,
            FetchPolicyKind::MlpFlush,
            FetchPolicyKind::MlpBinaryFlush,
            FetchPolicyKind::MlpDistanceFlushAtStall,
            FetchPolicyKind::MlpBinaryFlushAtStall,
            FetchPolicyKind::StaticPartition,
            FetchPolicyKind::Dcra,
        ];
        let names: HashSet<_> = all.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn policy_serde_uses_short_names() {
        for policy in FetchPolicyKind::ALL {
            let value = policy.serialize();
            assert_eq!(value, serde::Value::Str(policy.name().to_string()));
            assert_eq!(FetchPolicyKind::deserialize(&value).unwrap(), policy);
            assert_eq!(FetchPolicyKind::from_name(policy.name()), Some(policy));
        }
        let err = FetchPolicyKind::deserialize(&serde::Value::Str("warp-drive".into()))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("warp-drive") && err.contains("mlp-flush"),
            "{err}"
        );
    }

    #[test]
    fn chip_config_baseline_and_validation() {
        let chip = ChipConfig::baseline(2, 2);
        assert_eq!(chip.num_cores, 2);
        assert_eq!(chip.core.num_threads, 2);
        assert_eq!(chip.total_threads(), 4);
        assert_eq!(chip.shared_llc, chip.core.l3);
        assert!(!chip.bus.is_unlimited());
        assert!(chip.validate().is_ok());

        // A one-core chip is the paper's single-core machine: uncontended bus.
        let single = ChipConfig::baseline(1, 2);
        assert!(single.bus.is_unlimited());
        assert_eq!(
            ChipConfig::single_core(SmtConfig::baseline(4)).total_threads(),
            4
        );

        let mut bad = ChipConfig::baseline(2, 2);
        bad.num_cores = 0;
        assert!(bad.validate().is_err());
        let mut bad = ChipConfig::baseline(2, 2);
        bad.shared_llc.line_bytes = 128;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn bus_transfer_cycles() {
        assert_eq!(BusConfig::unlimited().transfer_cycles(64), 0);
        assert_eq!(BusConfig::contended().transfer_cycles(64), 4);
        assert_eq!(BusConfig { bytes_per_cycle: 8 }.transfer_cycles(64), 8);
        assert_eq!(
            BusConfig {
                bytes_per_cycle: 128
            }
            .transfer_cycles(64),
            1
        );
    }

    #[test]
    fn chip_config_serde_round_trips() {
        let mut chip = ChipConfig::baseline(4, 2).with_policy(FetchPolicyKind::MlpFlush);
        chip.bus = BusConfig { bytes_per_cycle: 8 };
        let round = ChipConfig::deserialize(&chip.serialize()).unwrap();
        assert_eq!(round, chip);
        let mut value = chip.serialize();
        if let serde::Value::Map(entries) = &mut value {
            entries.push(("coress".to_string(), serde::Value::Int(2)));
        }
        let err = ChipConfig::deserialize(&value).unwrap_err().to_string();
        assert!(err.contains("coress"), "{err}");
    }

    #[test]
    fn config_serde_round_trips() {
        let config = SmtConfig::baseline(2)
            .with_policy(FetchPolicyKind::MlpFlush)
            .with_memory_latency(600);
        let round = SmtConfig::deserialize(&config.serialize()).unwrap();
        assert_eq!(round, config);
    }

    #[test]
    fn unknown_config_fields_rejected_by_name() {
        let mut value = SmtConfig::baseline(2).serialize();
        if let serde::Value::Map(entries) = &mut value {
            entries.push(("robb_size".to_string(), serde::Value::Int(64)));
        }
        let err = SmtConfig::deserialize(&value).unwrap_err().to_string();
        assert!(
            err.contains("robb_size"),
            "error should name the field: {err}"
        );
        assert!(
            err.contains("SmtConfig"),
            "error should name the container: {err}"
        );
    }
}
