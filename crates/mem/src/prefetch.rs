//! Stream-buffer hardware prefetcher with a PC-indexed stride predictor.
//!
//! The baseline processor of the paper (Table IV) includes "8 stream buffers, 8
//! entries each, with a stride predictor" allocated using the confidence scheme of
//! Sherwood et al. (2000). This module reproduces that design:
//!
//! * a 2K-entry, load-PC indexed stride table records the last address and stride
//!   of each static load and a saturating confidence counter;
//! * once a load's stride has been confirmed `confidence_threshold` times, an L2/L3
//!   miss by that load allocates a stream buffer which prefetches the next
//!   `entries_per_buffer` lines along the stride;
//! * later misses first probe the stream buffers; a hit returns the (possibly
//!   partial) remaining latency of the in-flight prefetch instead of a full memory
//!   access.

use serde::{Deserialize, Serialize};
use smt_types::config::PrefetcherConfig;
use smt_types::warm::{CheckpointError, Entries, Warm, WarmVisitor};
use smt_types::{SmtConfig, ThreadId};

/// One stride-table entry; the default is the reset (untrained) entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct StrideEntry {
    /// Whether the entry is trained.
    pub valid: bool,
    /// Load PC tag.
    pub tag: u64,
    /// Last observed address.
    pub last_addr: u64,
    /// Learned stride in bytes.
    pub stride: i64,
    /// Saturating confidence counter.
    pub confidence: u8,
}

/// One stream buffer, checkpointed whole.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct StreamBuffer {
    /// Whether the buffer tracks a stream.
    valid: bool,
    /// Owning thread index.
    thread: usize,
    /// Line addresses held (or being fetched) by this buffer, with the cycle at
    /// which each becomes available.
    lines: Vec<(u64, u64)>,
    /// Allocation stamp for LRU replacement.
    last_allocated: u64,
}

/// Result of probing the prefetcher on a demand miss.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PrefetchHit {
    /// Cycle at which the prefetched line is available in the stream buffer.
    pub available_at: u64,
}

/// Stream-buffer prefetcher (Sherwood et al. style), shared by all threads but with
/// per-thread buffer ownership so one thread cannot silently consume another's
/// prefetched lines.
#[derive(Clone, Debug)]
pub struct StreamBufferPrefetcher {
    config: PrefetcherConfig,
    stride_table: Vec<StrideEntry>,
    buffers: Vec<StreamBuffer>,
    /// Number of hardware threads that may own a buffer.
    threads: usize,
    line_bytes: u64,
    memory_latency: u64,
    tick: u64,
    issued: u64,
    hits: u64,
}

impl StreamBufferPrefetcher {
    /// Creates a prefetcher.
    ///
    /// `threads` is the number of hardware threads that own buffers,
    /// `line_bytes` the cache-line size prefetches operate on and
    /// `memory_latency` the cycles needed to bring a prefetched line on chip.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero buffers, entries, or stride-table
    /// entries while enabled.
    pub fn new(
        config: PrefetcherConfig,
        threads: usize,
        line_bytes: u64,
        memory_latency: u64,
    ) -> Self {
        if config.enabled {
            assert!(config.stream_buffers > 0, "prefetcher needs stream buffers");
            assert!(config.entries_per_buffer > 0, "stream buffers need entries");
            assert!(
                config.stride_table_entries > 0,
                "stride table needs entries"
            );
        }
        StreamBufferPrefetcher {
            stride_table: vec![StrideEntry::default(); config.stride_table_entries.max(1) as usize],
            buffers: (0..config.stream_buffers.max(1))
                .map(|_| StreamBuffer {
                    valid: false,
                    thread: 0,
                    lines: Vec::new(),
                    last_allocated: 0,
                })
                .collect(),
            threads,
            config,
            line_bytes,
            memory_latency,
            tick: 0,
            issued: 0,
            hits: 0,
        }
    }

    /// Total prefetch requests issued.
    pub fn prefetches_issued(&self) -> u64 {
        self.issued
    }

    /// Total demand misses satisfied (fully or partially) from a stream buffer.
    pub fn prefetch_hits(&self) -> u64 {
        self.hits
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    fn stride_slot(&self, pc: u64) -> usize {
        (pc as usize / 4) % self.stride_table.len()
    }

    /// Records the outcome of an executed load so the stride predictor can learn.
    /// Call this for *every* load, hit or miss.
    pub fn train(&mut self, _thread: ThreadId, pc: u64, addr: u64) {
        if !self.config.enabled {
            return;
        }
        let slot = self.stride_slot(pc);
        let entry = &mut self.stride_table[slot];
        if !entry.valid || entry.tag != pc {
            *entry = StrideEntry {
                valid: true,
                tag: pc,
                last_addr: addr,
                stride: 0,
                confidence: 0,
            };
            return;
        }
        let stride = addr as i64 - entry.last_addr as i64;
        if stride != 0 && stride == entry.stride {
            entry.confidence = entry.confidence.saturating_add(1).min(7);
        } else {
            entry.stride = stride;
            entry.confidence = 0;
        }
        entry.last_addr = addr;
    }

    /// Probes the stream buffers for the line containing `addr`. On a hit the line
    /// is consumed from the buffer and the buffer prefetches one further line down
    /// its stream (the classic FIFO stream-buffer behaviour).
    pub fn probe(&mut self, thread: ThreadId, addr: u64, now: u64) -> Option<PrefetchHit> {
        if !self.config.enabled {
            return None;
        }
        let line = self.line_of(addr);
        let line_bytes = self.line_bytes;
        let memory_latency = self.memory_latency;
        for buf in &mut self.buffers {
            if !buf.valid || buf.thread != thread.index() {
                continue;
            }
            if let Some(pos) = buf.lines.iter().position(|&(l, _)| l == line) {
                let (_, avail) = buf.lines.remove(pos);
                self.hits += 1;
                // Extend the stream by one line past the deepest entry.
                if let Some(&(deepest, _)) = buf.lines.iter().max_by_key(|&&(l, _)| l) {
                    let stride_lines = 1u64;
                    let next = deepest + stride_lines;
                    buf.lines.push((next, now + memory_latency));
                    self.issued += 1;
                } else {
                    let next = line + 1;
                    buf.lines.push((next, now + memory_latency));
                    self.issued += 1;
                }
                let _ = line_bytes;
                return Some(PrefetchHit {
                    available_at: avail.max(now),
                });
            }
        }
        None
    }

    /// Notifies the prefetcher of a demand miss that is going to memory. If the
    /// missing load has a confident stride, a stream buffer is allocated (replacing
    /// the least recently allocated one) and `entries_per_buffer` lines ahead of the
    /// miss are prefetched.
    pub fn on_demand_miss(&mut self, thread: ThreadId, pc: u64, addr: u64, now: u64) {
        if !self.config.enabled {
            return;
        }
        self.tick += 1;
        let slot = self.stride_slot(pc);
        let entry = self.stride_table[slot];
        if !entry.valid || entry.tag != pc || entry.stride == 0 {
            return;
        }
        if entry.confidence < self.config.confidence_threshold {
            return;
        }
        // Allocate (or re-target) a stream buffer for this stream.
        let tick = self.tick;
        let stride_lines = (entry.stride.unsigned_abs() / self.line_bytes).max(1);
        let direction = entry.stride.signum();
        let base_line = self.line_of(addr);
        let entries = self.config.entries_per_buffer as u64;
        let ready_at = now + self.memory_latency;
        self.issued += entries;
        let victim = self
            .buffers
            .iter_mut()
            .min_by_key(|b| if b.valid { b.last_allocated } else { 0 })
            .expect("at least one stream buffer");
        victim.valid = true;
        victim.thread = thread.index();
        // Refill the victim's line vector in place: its capacity is reused
        // across reallocations, keeping the steady state allocation-free.
        victim.lines.clear();
        victim.lines.extend((1..=entries).map(|i| {
            let offset = stride_lines * i;
            let line = if direction >= 0 {
                base_line + offset
            } else {
                base_line.saturating_sub(offset)
            };
            (line, ready_at)
        }));
        victim.last_allocated = tick;
    }

    /// Clears all prefetcher state.
    pub fn reset(&mut self) {
        for e in &mut self.stride_table {
            e.valid = false;
        }
        for b in &mut self.buffers {
            b.valid = false;
            b.lines.clear();
        }
    }
}

impl Warm for StreamBufferPrefetcher {
    /// The stride table by slot, the stream buffers, the allocation clock
    /// and the issued and hit counts.
    fn visit(&mut self, v: &mut impl WarmVisitor) {
        let max_len = u64::from(SmtConfig::MAX_TABLE_ENTRIES);
        let stride_table = Entries(&mut self.stride_table, StrideEntry::default());
        v.table("stride_table", max_len, stride_table);
        let (count, threads) = (self.buffers.len(), self.threads);
        v.value("buffers", &mut self.buffers, |buffers| {
            if buffers.len() != count {
                // analyze: allow(hot-path-alloc) reason="error construction on the validation failure path"
                let reason = format!("{} buffers, prefetcher has {count}", buffers.len());
                return Err(CheckpointError::new("", reason));
            }
            let Some(i) = buffers.iter().position(|b| b.thread >= threads) else {
                return Ok(());
            };
            // analyze: allow(hot-path-alloc) reason="error construction on the validation failure path"
            let reason = format!("{} out of range ({threads} threads)", buffers[i].thread);
            // analyze: allow(hot-path-alloc) reason="error construction on the validation failure path"
            Err(CheckpointError::new(format!("[{i}].thread"), reason))
        });
        v.scalar("tick", &mut self.tick);
        v.scalar("issued", &mut self.issued);
        v.scalar("hits", &mut self.hits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StreamBufferPrefetcher {
        StreamBufferPrefetcher::new(PrefetcherConfig::default(), 2, 64, 350)
    }

    fn train_strided(p: &mut StreamBufferPrefetcher, pc: u64, start: u64, stride: u64, n: u64) {
        let t = ThreadId::new(0);
        for i in 0..n {
            p.train(t, pc, start + i * stride);
        }
    }

    #[test]
    fn disabled_prefetcher_is_inert() {
        let cfg = PrefetcherConfig {
            enabled: false,
            ..PrefetcherConfig::default()
        };
        let mut p = StreamBufferPrefetcher::new(cfg, 1, 64, 350);
        let t = ThreadId::new(0);
        p.train(t, 0x10, 0x1000);
        p.on_demand_miss(t, 0x10, 0x1000, 0);
        assert!(p.probe(t, 0x1040, 10).is_none());
        assert_eq!(p.prefetches_issued(), 0);
    }

    #[test]
    fn strided_stream_allocates_and_hits() {
        let mut p = pf();
        let t = ThreadId::new(0);
        // Teach the stride predictor a 64-byte stride with enough confidence.
        train_strided(&mut p, 0x400, 0x10000, 64, 5);
        // A miss on the next element allocates a stream buffer.
        p.on_demand_miss(t, 0x400, 0x10000 + 5 * 64, 1000);
        assert!(p.prefetches_issued() >= 8);
        // The following line should now be covered by the prefetcher.
        let hit = p.probe(t, 0x10000 + 6 * 64, 2000);
        assert!(hit.is_some());
        // The prefetch was launched at cycle 1000, so the line is ready by 1350 and
        // the probe at cycle 2000 sees it immediately available.
        assert_eq!(hit.unwrap().available_at, 2000);
        assert_eq!(p.prefetch_hits(), 1);
    }

    #[test]
    fn random_pattern_never_gains_confidence() {
        let mut p = pf();
        let t = ThreadId::new(0);
        let addrs = [0x1000u64, 0x8000, 0x2340, 0x99000, 0x1200, 0x55000];
        for (i, a) in addrs.iter().enumerate() {
            p.train(t, 0x500, *a);
            p.on_demand_miss(t, 0x500, *a, i as u64 * 10);
        }
        assert_eq!(p.prefetches_issued(), 0);
        assert!(p.probe(t, 0x1040, 100).is_none());
    }

    #[test]
    fn threads_do_not_share_buffers() {
        let mut p = pf();
        train_strided(&mut p, 0x400, 0x10000, 64, 5);
        p.on_demand_miss(ThreadId::new(0), 0x400, 0x10000 + 5 * 64, 0);
        // Thread 1 must not hit in thread 0's buffer.
        assert!(p.probe(ThreadId::new(1), 0x10000 + 6 * 64, 10).is_none());
        assert!(p.probe(ThreadId::new(0), 0x10000 + 6 * 64, 10).is_some());
    }

    #[test]
    fn probe_consumes_and_extends_stream() {
        let mut p = pf();
        let t = ThreadId::new(0);
        train_strided(&mut p, 0x400, 0x20000, 64, 5);
        p.on_demand_miss(t, 0x400, 0x20000 + 5 * 64, 0);
        let first = p.probe(t, 0x20000 + 6 * 64, 500);
        assert!(first.is_some());
        // Same line again: already consumed.
        assert!(p.probe(t, 0x20000 + 6 * 64, 510).is_none());
        // Deeper line still present.
        assert!(p.probe(t, 0x20000 + 7 * 64, 520).is_some());
    }

    #[test]
    fn reset_clears_everything() {
        let mut p = pf();
        let t = ThreadId::new(0);
        train_strided(&mut p, 0x400, 0x20000, 64, 5);
        p.on_demand_miss(t, 0x400, 0x20000 + 5 * 64, 0);
        p.reset();
        assert!(p.probe(t, 0x20000 + 6 * 64, 500).is_none());
    }
}
