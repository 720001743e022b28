//! Property-based tests of the `.smtt` on-disk trace format: every encodable
//! op round-trips through encode/decode bit for bit, whole files round-trip
//! through `record_source` → [`FileTraceSource`] verbatim, and malformed
//! files — truncation, trailing bytes, wrong version, empty traces, an
//! `op_count` past any file length — are rejected at open time with typed
//! [`SimError`]s rather than panics or garbage ops.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use smt_trace::format::{
    decode_record, encode_record, TraceHeader, FORMAT_VERSION, HEADER_LEN, RECORD_LEN,
};
use smt_trace::{record_source, FileTraceSource, ScriptedTrace, TraceSource};
use smt_types::{BranchInfo, MemInfo, OpKind, SimError, TraceOp};

/// Every well-formed, encodable [`TraceOp`]: metadata present exactly when
/// the kind calls for it, dependence distances within the on-disk 16-bit
/// field (the sentinel `0xFFFF` itself means "none" and is not a distance).
/// The vendored proptest stand-in has no `option::of`; an explicit presence
/// bit plays the same role.
fn arb_dep() -> impl Strategy<Value = Option<u32>> {
    (any::<bool>(), 1u32..0xFFFF).prop_map(|(some, distance)| some.then_some(distance))
}

fn arb_op() -> impl Strategy<Value = TraceOp> {
    (
        any::<u64>(),
        0usize..OpKind::ALL.len(),
        arb_dep(),
        arb_dep(),
        any::<u64>(),
        any::<u8>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(pc, kind_index, dep0, dep1, payload, size, taken, unconditional)| {
                let kind = OpKind::ALL[kind_index];
                TraceOp {
                    pc,
                    kind,
                    src_deps: [dep0, dep1],
                    mem: kind.is_mem().then_some(MemInfo {
                        addr: payload,
                        size,
                    }),
                    branch: (kind == OpKind::Branch).then_some(BranchInfo {
                        taken,
                        target: payload,
                        unconditional,
                    }),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity, and re-encoding the decoded op
    /// reproduces the original record bytes exactly — the format loses no
    /// information and has a single canonical encoding per op.
    #[test]
    fn record_encoding_round_trips_bit_for_bit(op in arb_op()) {
        let mut bytes = [0u8; RECORD_LEN];
        encode_record(&op, &mut bytes).expect("well-formed ops encode");
        let decoded = decode_record(&bytes).expect("encoded records decode");
        prop_assert_eq!(decoded, op);
        let mut reencoded = [0u8; RECORD_LEN];
        encode_record(&decoded, &mut reencoded).expect("decoded ops re-encode");
        prop_assert_eq!(reencoded, bytes);
    }

    /// Oversized dependence distances are rejected at encode time instead of
    /// being silently truncated into a different (or sentinel) distance.
    #[test]
    fn record_encoding_rejects_unencodable_distances(distance in 0xFFFFu32..u32::MAX) {
        let op = TraceOp::int_alu(0x10).with_dep(distance);
        let mut bytes = [0u8; RECORD_LEN];
        prop_assert!(matches!(
            encode_record(&op, &mut bytes),
            Err(SimError::InvalidConfig { .. })
        ));
    }
}

proptest! {
    // Each case writes and reads a real file; fewer cases than the pure
    // in-memory property keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A recorded file replays verbatim: same ops in order, and the header
    /// carries the recorded name, op count and MLP flag.
    #[test]
    fn recorded_files_replay_verbatim(
        ops in prop::collection::vec(arb_op(), 1..200),
        mlp_intensive in any::<bool>(),
    ) {
        let path = std::env::temp_dir().join(format!(
            "smt-prop-roundtrip-{}-{}.smtt",
            std::process::id(),
            ops.len(),
        ));
        let mut scripted = ScriptedTrace::looping("scripted", ops.clone());
        record_source(&mut scripted, ops.len() as u64, &path, mlp_intensive)
            .expect("recording succeeds");

        let mut replay = FileTraceSource::open(&path).expect("recorded file opens");
        prop_assert_eq!(replay.op_count(), ops.len() as u64);
        prop_assert_eq!(replay.name(), "scripted");
        let mut buf = Vec::new();
        replay.refill(&mut buf, ops.len());
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(buf, ops);
    }
}

/// Writes a small valid trace and returns its bytes. Each call records to
/// its own path, so tests running in parallel never read each other's file.
fn valid_trace_bytes() -> Vec<u8> {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "smt-prop-seed-{}-{}.smtt",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let ops = vec![
        TraceOp::int_alu(0x100),
        TraceOp::load(0x104, 0x8000),
        TraceOp::branch(0x108, true, 0x100),
    ];
    let mut scripted = ScriptedTrace::looping("seed", ops);
    record_source(&mut scripted, 3, &path, false).expect("recording succeeds");
    let bytes = std::fs::read(&path).expect("recorded file reads");
    std::fs::remove_file(&path).ok();
    bytes
}

/// Writes `bytes` to a fresh temp path, opens it as a trace, and returns the
/// result (removing the file either way).
fn open_bytes(tag: &str, bytes: &[u8]) -> Result<FileTraceSource, SimError> {
    let path = std::env::temp_dir().join(format!("smt-prop-{tag}-{}.smtt", std::process::id()));
    std::fs::write(&path, bytes).expect("temp trace writes");
    let result = FileTraceSource::open(&path);
    std::fs::remove_file(&path).ok();
    result
}

/// [`open_bytes`] for inputs that must be rejected: returns the error.
fn open_err(tag: &str, bytes: &[u8]) -> SimError {
    match open_bytes(tag, bytes) {
        Ok(_) => panic!("`{tag}`: malformed trace unexpectedly opened"),
        Err(e) => e,
    }
}

/// Opening a trace checks every record and the digest once: a flipped
/// byte that still decodes fails the digest, and a record that does not
/// decode fails naming it, before any op is replayed.
#[test]
fn open_verifies_every_record_and_the_digest() {
    let good = valid_trace_bytes();
    let mut flipped_pc = good.clone();
    flipped_pc[HEADER_LEN + 3] ^= 0xFF;
    let err = open_err("flipped-pc", &flipped_pc);
    assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
    assert!(err.to_string().contains("digest"), "{err}");

    // Byte 23 of a record is reserved and must be zero.
    let mut reserved = good;
    reserved[HEADER_LEN + RECORD_LEN + 23] = 1;
    let err = open_err("reserved-byte", &reserved);
    assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
    assert!(err.to_string().contains("record 1:"), "{err}");
}

/// A header whose `op_count` records cannot fit in a file (2^61 records
/// wrap a 64-bit byte count to exactly the header's length) is rejected by
/// both the replay reader and the full-file scan, never a panic or a wrap.
#[test]
fn header_op_count_past_any_file_length_is_rejected() {
    let mut bytes = valid_trace_bytes();
    bytes.truncate(HEADER_LEN);
    for op_count in [1u64 << 61, u64::MAX] {
        bytes[16..24].copy_from_slice(&op_count.to_le_bytes());
        let err = open_err("huge-op-count", &bytes);
        assert!(err.to_string().contains("oversized"), "{err}");

        let path =
            std::env::temp_dir().join(format!("smt-prop-huge-scan-{}.smtt", std::process::id()));
        std::fs::write(&path, &bytes).expect("temp trace writes");
        let scan = smt_trace::inspect::scan_file(&path);
        std::fs::remove_file(&path).ok();
        match scan {
            Ok(_) => panic!("op_count {op_count}: scan accepted a header-only file"),
            Err(e) => assert!(e.to_string().contains("oversized"), "{e}"),
        }
    }
}

#[test]
fn open_rejects_malformed_files_with_typed_errors() {
    let good = valid_trace_bytes();
    assert!(
        open_bytes("good", &good).is_ok(),
        "the seed file itself opens"
    );

    // Truncation: a partial header, and a record area shorter than the
    // header's op_count promises.
    let err = open_err("short-header", &good[..HEADER_LEN / 2]);
    assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
    assert!(err.to_string().contains("header"), "{err}");

    let err = open_err("truncated", &good[..good.len() - RECORD_LEN / 2]);
    assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
    assert!(err.to_string().contains("truncated"), "{err}");

    // Trailing garbage after the promised records.
    let mut oversized = good.clone();
    oversized.extend_from_slice(&[0u8; 7]);
    let err = open_err("oversized", &oversized);
    assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");

    // A future format version must be refused, not misparsed.
    let mut wrong_version = good.clone();
    wrong_version[8..10].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    let err = open_err("wrong-version", &wrong_version);
    assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
    assert!(err.to_string().contains("version"), "{err}");

    // An empty trace cannot serve an infinite stream.
    let empty_header = TraceHeader {
        version: FORMAT_VERSION,
        benchmark: "empty".to_string(),
        mlp_intensive: false,
        op_count: 0,
        digest: smt_trace::format::DIGEST_SEED,
    };
    let err = open_err("empty", &empty_header.encode().expect("encodes"));
    assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
    assert!(err.to_string().contains("no ops"), "{err}");

    // A missing file is a typed error too.
    let missing = std::env::temp_dir().join("smt-prop-definitely-missing.smtt");
    assert!(matches!(
        FileTraceSource::open(&missing),
        Err(SimError::InvalidConfig { .. })
    ));
}
