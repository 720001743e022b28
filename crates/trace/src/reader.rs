//! Streaming `.smtt` replay: [`FileTraceSource`].
//!
//! The reader keeps one large reusable byte buffer and decodes records out of
//! it in a monomorphic tight loop (the same shape as the synthetic
//! generator's `gen_op`): construction performs all allocation, and the
//! steady-state [`TraceSource::refill`] path allocates nothing — enforced
//! lexically by the `hot-path-alloc` analyzer rule, whose scope includes this
//! file, and dynamically by the counting-allocator test in `smt-core`.
//!
//! A trace source is an infinite stream; the reader loops the file cyclically
//! (op `i` of the file serves absolute positions `i`, `i + op_count`, …).
//! Because records are fixed width, [`TraceSource::skip`] is O(1): cursor
//! arithmetic plus one lazy seek, no matter how many ops are skipped — sampled
//! runs fast-forward through trace prefixes for free.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use smt_types::{SimError, TraceOp};

use crate::format::{decode_record, decode_record_trusted, HEADER_LEN, RECORD_LEN};
use crate::inspect::scan_file;
use crate::{TraceSource, TraceSourceState};

/// Records held by the reusable read buffer (×[`RECORD_LEN`] bytes ≈ 384 KiB).
const CHUNK_RECORDS: u64 = 16 * 1024;

/// Replays a `.smtt` trace file as an infinite, deterministic op stream.
///
/// # Example
///
/// ```no_run
/// use smt_trace::{FileTraceSource, TraceSource};
///
/// let mut source = FileTraceSource::open("mcf.smtt").unwrap();
/// let op = source.next_op();
/// assert!(op.is_well_formed());
/// ```
pub struct FileTraceSource {
    file: File,
    benchmark: String,
    op_count: u64,
    /// Index of the next record to decode, always `< op_count`.
    file_pos: u64,
    /// Total ops handed out since construction (absolute stream position).
    consumed: u64,
    /// Reusable record-aligned read buffer; never grows after construction.
    buf: Box<[u8]>,
    buf_len: usize,
    buf_pos: usize,
    /// The OS file cursor no longer matches `file_pos` (after a wrap, a skip
    /// or a restore); the next fill seeks first.
    needs_seek: bool,
}

impl FileTraceSource {
    /// Opens a trace file after checking all of it once
    /// ([`scan_file`]): the header, the length, every record and the
    /// digest.
    ///
    /// Fails with a typed [`SimError`] on a missing file, a malformed or
    /// wrong-version header, an empty trace, a file whose length does not
    /// match `op_count` fixed-width records (truncation or trailing bytes),
    /// a record that does not decode (naming it) or a digest mismatch.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SimError> {
        let path = path.as_ref();
        let context = path.display().to_string();
        let header = scan_file(path)?.header;
        if header.op_count == 0 {
            return Err(SimError::invalid_config(format!(
                "{context}: trace holds no ops (a trace source must be an infinite stream)"
            )));
        }
        let file = File::open(path)
            .map_err(|e| SimError::invalid_config(format!("cannot open trace {context}: {e}")))?;
        let chunk = CHUNK_RECORDS.min(header.op_count) as usize * RECORD_LEN;
        Ok(FileTraceSource {
            file,
            benchmark: header.benchmark,
            op_count: header.op_count,
            file_pos: 0,
            consumed: 0,
            buf: vec![0u8; chunk].into_boxed_slice(),
            buf_len: 0,
            buf_pos: 0,
            needs_seek: true,
        })
    }

    /// Records in the underlying file (one cycle of the infinite stream).
    pub fn op_count(&self) -> u64 {
        self.op_count
    }

    /// Refills the byte buffer from the file. The caller guarantees
    /// `file_pos < op_count`; the fill never reads past the end of the file,
    /// so a buffer never spans the cyclic wrap point.
    #[cold]
    fn fill_buf(&mut self) {
        if self.needs_seek {
            let byte = HEADER_LEN as u64 + self.file_pos * RECORD_LEN as u64;
            if let Err(e) = self.file.seek(SeekFrom::Start(byte)) {
                panic!("seek failed on .smtt trace `{}`: {e}", self.benchmark);
            }
            self.needs_seek = false;
        }
        let records = CHUNK_RECORDS.min(self.op_count - self.file_pos) as usize;
        let len = records * RECORD_LEN;
        if let Err(e) = self.file.read_exact(&mut self.buf[..len]) {
            panic!(
                "read failed on .smtt trace `{}` (file changed after open?): {e}",
                self.benchmark
            );
        }
        self.buf_len = len;
        self.buf_pos = 0;
    }

    /// Decodes the next record: the monomorphic hot path behind both
    /// [`TraceSource::next_op`] and [`TraceSource::refill`].
    #[inline]
    fn decode_next(&mut self) -> TraceOp {
        if self.buf_pos == self.buf_len {
            self.fill_buf();
        }
        let record: &[u8; RECORD_LEN] = self.buf[self.buf_pos..self.buf_pos + RECORD_LEN]
            .try_into()
            .expect("buffer fills are record-aligned");
        self.buf_pos += RECORD_LEN;
        self.file_pos += 1;
        self.consumed += 1;
        if self.file_pos == self.op_count {
            // End of file: wrap the infinite stream back to op 0.
            self.file_pos = 0;
            self.needs_seek = true;
        }
        match decode_record(record) {
            Ok(op) => op,
            Err(_) => panic!("corrupt .smtt record (file changed after open?)"),
        }
    }
}

impl TraceSource for FileTraceSource {
    fn next_op(&mut self) -> TraceOp {
        self.decode_next()
    }

    fn refill(&mut self, buf: &mut Vec<TraceOp>, n: usize) {
        // Bulk decode: take the longest contiguous buffered span each pass
        // and run the branch-light trusted decoder over it, folding every
        // validity condition into one accumulator checked per span. Same
        // acceptance set as `decode_record`, far fewer per-op branches.
        buf.reserve(n);
        let mut left = n as u64;
        while left > 0 {
            if self.buf_pos == self.buf_len {
                self.fill_buf();
            }
            let avail = ((self.buf_len - self.buf_pos) / RECORD_LEN) as u64;
            let take = avail.min(left) as usize;
            let span = &self.buf[self.buf_pos..self.buf_pos + take * RECORD_LEN];
            let mut violations = 0u8;
            for record in span.chunks_exact(RECORD_LEN) {
                let record: &[u8; RECORD_LEN] =
                    record.try_into().expect("buffer fills are record-aligned");
                buf.push(decode_record_trusted(record, &mut violations));
            }
            if violations != 0 {
                panic!("corrupt .smtt record (file changed after open?)");
            }
            self.buf_pos += take * RECORD_LEN;
            self.file_pos += take as u64;
            self.consumed += take as u64;
            left -= take as u64;
            if self.file_pos == self.op_count {
                // End of file: wrap the infinite stream back to op 0.
                self.file_pos = 0;
                self.needs_seek = true;
            }
        }
    }

    fn skip(&mut self, n: u64) {
        // Fixed-width records make skipping pure cursor arithmetic: advance
        // the absolute and in-file positions, drop the buffered bytes, and
        // let the next fill seek. O(1) regardless of `n`.
        if n == 0 {
            return;
        }
        self.consumed += n;
        self.file_pos = (self.file_pos + n) % self.op_count;
        self.buf_len = 0;
        self.buf_pos = 0;
        self.needs_seek = true;
    }

    fn name(&self) -> &str {
        &self.benchmark
    }

    fn save_state(&self) -> Option<TraceSourceState> {
        // Reuse the shared cursor record: `seq` is the absolute stream
        // position; the generator-specific fields stay at their zero values.
        Some(TraceSourceState {
            name: self.benchmark.clone(),
            rng_state: [0; 4],
            seq: self.consumed,
            gap_to_next_burst: 0,
            burst_remaining: 0,
            burst_gap: 0,
            next_miss_in: 0,
            burst_strided: false,
            burst_position: 0,
            stride_cursors: Vec::new(),
            hot_cursor: 0,
            alu_pc_cursor: 0,
            branch_cursor: 0,
            branch_bias: Vec::new(),
            emitted_long_latency: 0,
        })
    }

    fn restore_state(&mut self, state: &TraceSourceState) -> Result<(), String> {
        if state.name != self.benchmark {
            return Err(format!(
                "trace state belongs to `{}`, not `{}`",
                state.name, self.benchmark
            ));
        }
        self.consumed = state.seq;
        self.file_pos = state.seq % self.op_count;
        self.buf_len = 0;
        self.buf_pos = 0;
        self.needs_seek = true;
        Ok(())
    }
}
