//! Offline `.smtt` inspection: header peeks, full-file verification and
//! op-mix summaries.
//!
//! These helpers back workload validation (`trace:` scheme resolution needs
//! the header's benchmark name and MLP flag without streaming the file) and
//! the `smt-cli trace inspect` / `trace stats` subcommands. Unlike
//! [`crate::reader::FileTraceSource`] they are not hot-path code: they run
//! once per file, not once per op.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use smt_types::{OpKind, SimError};

use crate::format::{
    corrupt_record, decode_record_trusted, digest_update, kind_code, TraceHeader, DIGEST_SEED,
    HEADER_LEN, RECORD_LEN,
};

/// Reads and validates only the 64-byte header of a trace file.
///
/// This is the cheap existence-plus-metadata probe the `trace:` workload
/// scheme uses: it answers "is this a readable `.smtt` file, what benchmark
/// does it replay, and is that workload MLP-intensive" without touching the
/// record payload.
pub fn peek_header(path: impl AsRef<Path>) -> Result<TraceHeader, SimError> {
    open(path.as_ref()).map(|(header, _, _)| header)
}

/// Opens a trace and reads its validated header, leaving the returned
/// handle at the first record. Also returns the path as error context.
fn open(path: &Path) -> Result<(TraceHeader, File, String), SimError> {
    let context = path.display().to_string();
    let mut file = File::open(path)
        .map_err(|e| SimError::invalid_config(format!("cannot open trace {context}: {e}")))?;
    let mut bytes = [0u8; HEADER_LEN];
    file.read_exact(&mut bytes).map_err(|_| {
        SimError::invalid_config(format!(
            "{context}: file is shorter than the {HEADER_LEN}-byte .smtt header"
        ))
    })?;
    Ok((TraceHeader::decode(&bytes, &context)?, file, context))
}

/// Full-file scan result: the validated header plus an op-mix summary.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceScan {
    /// The validated header.
    pub header: TraceHeader,
    /// Record counts per [`OpKind`], indexed IntAlu, IntMul, FpOp, FpLong,
    /// Load, Store, Branch.
    pub kind_counts: [u64; 7],
    /// Taken branches among the branch records.
    pub taken_branches: u64,
    /// Records carrying at least one producer-distance dependence.
    pub ops_with_deps: u64,
}

impl TraceScan {
    /// Total records scanned.
    pub fn total_ops(&self) -> u64 {
        self.kind_counts.iter().sum()
    }

    /// Count of one kind.
    pub fn count(&self, kind: OpKind) -> u64 {
        self.kind_counts[kind_code(kind) as usize]
    }
}

/// Streams the whole file, validating every record and the header digest.
///
/// Fails with a typed [`SimError`] on any header problem, a length mismatch
/// (truncation or trailing bytes), a record that does not decode, or a digest
/// mismatch. On success the trace is bit-for-bit the stream its recorder
/// finalized.
pub fn scan_file(path: impl AsRef<Path>) -> Result<TraceScan, SimError> {
    let (header, mut file, context) = open(path.as_ref())?;

    let mut digest = DIGEST_SEED;
    let mut scan = TraceScan {
        header: header.clone(),
        kind_counts: [0; 7],
        taken_branches: 0,
        ops_with_deps: 0,
    };
    let mut chunk = vec![0u8; 4096 * RECORD_LEN];
    let mut remaining = header.file_len(&context)? - HEADER_LEN as u64;
    let mut index = 0u64;
    while remaining > 0 {
        let len = remaining.min(chunk.len() as u64) as usize;
        file.read_exact(&mut chunk[..len]).map_err(|_| {
            SimError::invalid_config(format!(
                "{context}: truncated trace: header promises {} records but the \
                 record section ends early",
                header.op_count
            ))
        })?;
        digest = digest_update(digest, &chunk[..len]);
        for record in chunk[..len].chunks_exact(RECORD_LEN) {
            let record: &[u8; RECORD_LEN] = record.try_into().expect("chunks are record-sized");
            let mut violations = 0u8;
            let op = decode_record_trusted(record, &mut violations);
            if violations != 0 {
                return Err(SimError::invalid_config(format!(
                    "{context}: record {index}: {}",
                    corrupt_record(record)
                )));
            }
            scan.kind_counts[kind_code(op.kind) as usize] += 1;
            if op.branch.is_some_and(|b| b.taken) {
                scan.taken_branches += 1;
            }
            if op.src_deps.iter().any(|d| d.is_some()) {
                scan.ops_with_deps += 1;
            }
            index += 1;
        }
        remaining -= len as u64;
    }
    let mut trailer = [0u8; 1];
    if file.read(&mut trailer).unwrap_or(0) != 0 {
        return Err(SimError::invalid_config(format!(
            "{context}: trailing bytes after the last record"
        )));
    }
    if digest != header.digest {
        return Err(SimError::invalid_config(format!(
            "{context}: digest mismatch: header says {:#018x}, records hash to {digest:#018x}",
            header.digest
        )));
    }
    Ok(scan)
}
