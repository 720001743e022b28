//! Memory hierarchy substrate for the SMT simulator.
//!
//! Implements the Table IV memory system of the paper:
//!
//! * set-associative L1 data, unified L2 and unified L3 caches with LRU
//!   replacement ([`cache`]),
//! * fully-associative per-thread data TLBs ([`TlbFile`]),
//! * miss status handling registers that let independent long-latency loads overlap
//!   ([`mshr`]) — the structural mechanism behind memory-level parallelism,
//! * a stream-buffer hardware prefetcher guided by a PC-indexed stride predictor
//!   with allocation confidence ([`prefetch`]),
//! * an 8-entry write buffer drained at commit ([`write_buffer`]),
//! * the chip-shared bottom level — LLC, LLC MSHRs, memory bus — with its
//!   order-invariant multi-core arbitration discipline ([`shared`]),
//! * the per-core private levels ([`hierarchy::CoreMemory`]), which the
//!   pipeline queries for load latencies, and the composed
//!   single-core [`hierarchy::MemoryHierarchy`] facade for tests and
//!   benchmarks that drive accesses directly.
//!
//! # Example
//!
//! ```
//! use smt_mem::hierarchy::MemoryHierarchy;
//! use smt_types::{SmtConfig, ThreadId};
//!
//! let cfg = SmtConfig::baseline(1);
//! let mut mem = MemoryHierarchy::new(&cfg);
//! let t = ThreadId::new(0);
//! // A cold access goes all the way to memory and is long latency.
//! let first = mem.load_access(t, 0x40, 0x10_0000, 0);
//! assert!(first.long_latency);
//! // Re-accessing the same line soon after hits in the L1.
//! let second = mem.load_access(t, 0x40, 0x10_0000, first.completion_cycle() + 1);
//! assert!(!second.long_latency);
//! assert!(second.latency < first.latency);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod hierarchy;
pub mod mshr;
pub mod prefetch;
pub mod shared;
pub mod tlb;
pub mod write_buffer;

pub use cache::SetAssocCache;
pub use hierarchy::{AccessLevel, CoreMemory, LoadAccessResult, MemoryHierarchy};
pub use mshr::MshrFile;
pub use prefetch::{StreamBufferPrefetcher, StrideEntry};
pub use shared::{MemoryBus, SharedLlc};
pub use tlb::{TlbEntry, TlbFile};
pub use write_buffer::WriteBuffer;
