//! The `.smtt` on-disk trace format: fixed-width little-endian records behind
//! a small versioned header.
//!
//! A trace file is a 64-byte [`TraceHeader`] followed by `op_count` records of
//! [`RECORD_LEN`] bytes each. Records are fixed width so position `i` lives at
//! byte `HEADER_LEN + i * RECORD_LEN` — seeking is pure arithmetic, which is
//! what makes [`crate::reader::FileTraceSource`]'s `skip` O(1) — and decoding
//! is a branch-light monomorphic loop with zero per-op allocation.
//!
//! # Header layout (64 bytes, little-endian)
//!
//! | bytes  | field       | meaning                                          |
//! |--------|-------------|--------------------------------------------------|
//! | 0..8   | magic       | `b"SMTTRACE"`                                    |
//! | 8..10  | version     | format version, currently [`FORMAT_VERSION`]     |
//! | 10..12 | record_len  | bytes per record, currently [`RECORD_LEN`]       |
//! | 12..16 | flags       | bit 0: workload is MLP-intensive                 |
//! | 16..24 | op_count    | number of records                                |
//! | 24..32 | digest      | FNV-1a 64 over all record bytes, in order        |
//! | 32..64 | benchmark   | UTF-8 benchmark name, NUL-padded to 32 bytes     |
//!
//! # Record layout (24 bytes, little-endian)
//!
//! | bytes  | field    | meaning                                             |
//! |--------|----------|-----------------------------------------------------|
//! | 0..8   | pc       | program counter                                     |
//! | 8..16  | payload  | memory address (mem ops) / branch target (branches) |
//! | 16..18 | dep0     | producer distance of source 0; `0xFFFF` = none      |
//! | 18..20 | dep1     | producer distance of source 1; `0xFFFF` = none      |
//! | 20     | kind     | [`OpKind`] discriminant, 0..=6 in declaration order |
//! | 21     | flags    | bit 0 taken, bit 1 unconditional, bit 2 has-mem, bit 3 has-branch |
//! | 22     | mem_size | access size in bytes (mem ops; else 0)              |
//! | 23     | reserved | must be 0                                           |

use smt_types::{BranchInfo, MemInfo, OpKind, SimError, TraceOp};

/// Magic bytes opening every `.smtt` file.
pub const MAGIC: [u8; 8] = *b"SMTTRACE";

/// Current format version; bumped on any incompatible layout change.
pub const FORMAT_VERSION: u16 = 1;

/// Bytes per header.
pub const HEADER_LEN: usize = 64;

/// Bytes per record.
pub const RECORD_LEN: usize = 24;

/// Maximum encodable benchmark-name length in bytes.
pub const MAX_NAME_LEN: usize = 32;

/// Dependence-distance sentinel meaning "no dependence in this slot".
pub const DEP_NONE: u16 = u16::MAX;

/// FNV-1a 64-bit offset basis (digest seed).
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Record flag bit 0: the branch was taken.
pub const FLAG_TAKEN: u8 = 1 << 0;
/// Record flag bit 1: the branch is unconditional.
pub const FLAG_UNCONDITIONAL: u8 = 1 << 1;
/// Record flag bit 2: the op carries memory metadata.
pub const FLAG_HAS_MEM: u8 = 1 << 2;
/// Record flag bit 3: the op carries branch metadata.
pub const FLAG_HAS_BRANCH: u8 = 1 << 3;

/// Parsed `.smtt` header.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceHeader {
    /// Format version of the file ([`FORMAT_VERSION`] once validated).
    pub version: u16,
    /// Benchmark name the trace was recorded from.
    pub benchmark: String,
    /// Whether the recorded workload counts as MLP-intensive (drives the
    /// mixed/ILP/MLP workload-group classification of `trace:` workloads).
    pub mlp_intensive: bool,
    /// Number of records in the file.
    pub op_count: u64,
    /// FNV-1a 64 digest over all record bytes, in file order.
    pub digest: u64,
}

impl TraceHeader {
    /// Serializes the header into its 64-byte on-disk form.
    ///
    /// Fails when the benchmark name exceeds [`MAX_NAME_LEN`] bytes.
    pub fn encode(&self) -> Result<[u8; HEADER_LEN], SimError> {
        let name = self.benchmark.as_bytes();
        if name.len() > MAX_NAME_LEN {
            return Err(SimError::invalid_config(format!(
                "trace benchmark name `{}` exceeds {MAX_NAME_LEN} bytes",
                self.benchmark
            )));
        }
        if name.contains(&0) {
            return Err(SimError::invalid_config(format!(
                "trace benchmark name `{}` contains a NUL byte",
                self.benchmark.escape_debug()
            )));
        }
        let mut out = [0u8; HEADER_LEN];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..10].copy_from_slice(&self.version.to_le_bytes());
        out[10..12].copy_from_slice(&(RECORD_LEN as u16).to_le_bytes());
        let flags: u32 = if self.mlp_intensive { 1 } else { 0 };
        out[12..16].copy_from_slice(&flags.to_le_bytes());
        out[16..24].copy_from_slice(&self.op_count.to_le_bytes());
        out[24..32].copy_from_slice(&self.digest.to_le_bytes());
        out[32..32 + name.len()].copy_from_slice(name);
        Ok(out)
    }

    /// Parses and validates a 64-byte on-disk header.
    ///
    /// `context` names the file for error messages. Fails on a bad magic, an
    /// unsupported version, a record length other than [`RECORD_LEN`], or a
    /// benchmark-name field that is not NUL-padded UTF-8.
    pub fn decode(bytes: &[u8; HEADER_LEN], context: &str) -> Result<TraceHeader, SimError> {
        if bytes[0..8] != MAGIC {
            return Err(SimError::invalid_config(format!(
                "{context}: not a .smtt trace (bad magic)"
            )));
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != FORMAT_VERSION {
            return Err(SimError::invalid_config(format!(
                "{context}: unsupported .smtt version {version} (this build reads \
                 version {FORMAT_VERSION})"
            )));
        }
        let record_len = u16::from_le_bytes([bytes[10], bytes[11]]);
        if record_len as usize != RECORD_LEN {
            return Err(SimError::invalid_config(format!(
                "{context}: unsupported record length {record_len} (expected {RECORD_LEN})"
            )));
        }
        let flags = u32::from_le_bytes(bytes[12..16].try_into().expect("4-byte slice"));
        if flags > 1 {
            return Err(SimError::invalid_config(format!(
                "{context}: unknown header flag bits {flags:#x}"
            )));
        }
        let op_count = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
        let digest = u64::from_le_bytes(bytes[24..32].try_into().expect("8-byte slice"));
        let name_field = &bytes[32..64];
        let name_len = name_field.iter().position(|&b| b == 0).unwrap_or(32);
        if name_field[name_len..].iter().any(|&b| b != 0) {
            return Err(SimError::invalid_config(format!(
                "{context}: benchmark name field is not NUL-padded"
            )));
        }
        let benchmark = std::str::from_utf8(&name_field[..name_len])
            .map_err(|_| {
                SimError::invalid_config(format!("{context}: benchmark name is not UTF-8"))
            })?
            .to_string();
        if benchmark.is_empty() {
            return Err(SimError::invalid_config(format!(
                "{context}: benchmark name is empty"
            )));
        }
        Ok(TraceHeader {
            version,
            benchmark,
            mlp_intensive: flags & 1 != 0,
            op_count,
            digest,
        })
    }

    /// Length in bytes of the file this header describes: the header plus
    /// `op_count` records.
    ///
    /// Fails with a typed "truncated or oversized trace" error when that
    /// length does not fit in a `u64`, so a hostile `op_count` never wraps
    /// into a length that a short file matches.
    pub(crate) fn file_len(&self, context: &str) -> Result<u64, SimError> {
        self.op_count
            .checked_mul(RECORD_LEN as u64)
            .and_then(|records| records.checked_add(HEADER_LEN as u64))
            .ok_or_else(|| {
                SimError::invalid_config(format!(
                    "{context}: truncated or oversized trace: header promises {} records, \
                     more than any file can hold",
                    self.op_count
                ))
            })
    }
}

/// Serializes one [`TraceOp`] into its 24-byte on-disk record.
///
/// Fails when a producer distance does not fit the 16-bit field (the synthetic
/// generator clamps distances far below this; real traces must too) or when
/// the op is not [`TraceOp::is_well_formed`].
pub fn encode_record(op: &TraceOp, out: &mut [u8; RECORD_LEN]) -> Result<(), SimError> {
    if !op.is_well_formed() {
        return Err(SimError::invalid_config(format!(
            "cannot encode malformed trace op at pc {:#x}",
            op.pc
        )));
    }
    let mut flags = 0u8;
    let mut payload = 0u64;
    let mut mem_size = 0u8;
    if let Some(mem) = op.mem {
        flags |= FLAG_HAS_MEM;
        payload = mem.addr;
        mem_size = mem.size;
    }
    if let Some(branch) = op.branch {
        flags |= FLAG_HAS_BRANCH;
        payload = branch.target;
        if branch.taken {
            flags |= FLAG_TAKEN;
        }
        if branch.unconditional {
            flags |= FLAG_UNCONDITIONAL;
        }
    }
    let mut deps = [DEP_NONE; 2];
    for (slot, dep) in deps.iter_mut().zip(op.src_deps) {
        if let Some(distance) = dep {
            if distance >= DEP_NONE as u32 {
                return Err(SimError::invalid_config(format!(
                    "dependence distance {distance} at pc {:#x} exceeds the 16-bit \
                     record field",
                    op.pc
                )));
            }
            *slot = distance as u16;
        }
    }
    out[0..8].copy_from_slice(&op.pc.to_le_bytes());
    out[8..16].copy_from_slice(&payload.to_le_bytes());
    out[16..18].copy_from_slice(&deps[0].to_le_bytes());
    out[18..20].copy_from_slice(&deps[1].to_le_bytes());
    out[20] = kind_code(op.kind);
    out[21] = flags;
    out[22] = mem_size;
    out[23] = 0;
    Ok(())
}

/// Deserializes one 24-byte on-disk record.
///
/// Fails on an unknown kind code, undefined flag bits, a non-zero reserved
/// byte, or metadata flags inconsistent with the kind: the conditions the
/// crate's bulk decoder folds into one accumulator, checked once here.
#[inline]
pub fn decode_record(bytes: &[u8; RECORD_LEN]) -> Result<TraceOp, SimError> {
    let mut violations = 0u8;
    let op = decode_record_trusted(bytes, &mut violations);
    if violations == 0 {
        Ok(op)
    } else {
        Err(SimError::invalid_config(corrupt_record(bytes)))
    }
}

/// What is wrong with a record [`decode_record_trusted`] rejects.
#[cold]
pub(crate) fn corrupt_record(bytes: &[u8; RECORD_LEN]) -> String {
    let (code, flags) = (bytes[20], bytes[21]);
    if code >= 7 {
        format!("corrupt .smtt record: unknown op kind code {code}")
    } else {
        format!("corrupt .smtt record: inconsistent flags {flags:#04x} for kind code {code}")
    }
}

/// Deserializes one record without per-record error branches: the decode is
/// straight-line field extraction, and every validity condition is instead
/// OR-folded into `violations`.
///
/// This is the bulk-decode hot path of [`crate::reader::FileTraceSource`]:
/// the caller decodes a whole buffered run, then checks `violations` once
/// per run. On a violation the returned op for that record is garbage (a
/// clamped kind); callers must not use the batch.
#[inline]
pub(crate) fn decode_record_trusted(bytes: &[u8; RECORD_LEN], violations: &mut u8) -> TraceOp {
    const KINDS: [OpKind; 8] = [
        OpKind::IntAlu,
        OpKind::IntMul,
        OpKind::FpOp,
        OpKind::FpLong,
        OpKind::Load,
        OpKind::Store,
        OpKind::Branch,
        OpKind::Branch,
    ];
    let pc = u64::from_le_bytes(bytes[0..8].try_into().expect("8-byte slice"));
    let payload = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let dep0 = u16::from_le_bytes([bytes[16], bytes[17]]);
    let dep1 = u16::from_le_bytes([bytes[18], bytes[19]]);
    let code = bytes[20];
    let flags = bytes[21];
    let kind = KINDS[(code & 7) as usize];
    *violations |= u8::from(code >= 7)
        | u8::from(
            flags & !(FLAG_TAKEN | FLAG_UNCONDITIONAL | FLAG_HAS_MEM | FLAG_HAS_BRANCH) != 0,
        )
        | u8::from(bytes[23] != 0)
        | u8::from((flags & FLAG_HAS_MEM != 0) != kind.is_mem())
        | u8::from((flags & FLAG_HAS_BRANCH != 0) != (kind == OpKind::Branch))
        | u8::from(flags & (FLAG_TAKEN | FLAG_UNCONDITIONAL) != 0 && flags & FLAG_HAS_BRANCH == 0);
    TraceOp {
        pc,
        kind,
        src_deps: [decode_dep(dep0), decode_dep(dep1)],
        mem: (flags & FLAG_HAS_MEM != 0).then_some(MemInfo {
            addr: payload,
            size: bytes[22],
        }),
        branch: (flags & FLAG_HAS_BRANCH != 0).then_some(BranchInfo {
            taken: flags & FLAG_TAKEN != 0,
            target: payload,
            unconditional: flags & FLAG_UNCONDITIONAL != 0,
        }),
    }
}

#[inline]
fn decode_dep(raw: u16) -> Option<u32> {
    (raw != DEP_NONE).then_some(raw as u32)
}

/// The on-disk code of an op kind (byte 20 of its record).
pub fn kind_code(kind: OpKind) -> u8 {
    match kind {
        OpKind::IntAlu => 0,
        OpKind::IntMul => 1,
        OpKind::FpOp => 2,
        OpKind::FpLong => 3,
        OpKind::Load => 4,
        OpKind::Store => 5,
        OpKind::Branch => 6,
    }
}

/// Folds one buffer of record bytes into a running FNV-1a 64 digest.
///
/// Start from [`DIGEST_SEED`]; feeding every record byte in file order yields
/// the header's `digest` field.
#[inline]
pub fn digest_update(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= b as u64;
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<TraceOp> {
        vec![
            TraceOp::int_alu(0x1000).with_dep(3).with_dep(17),
            TraceOp {
                kind: OpKind::FpOp,
                ..TraceOp::int_alu(0x1004)
            }
            .with_dep(1),
            TraceOp::load(0x1008, 0xdead_beef_0000).with_dep(2),
            TraceOp::store(0x100c, 0x4000_0000),
            TraceOp::branch(0x1010, true, 0x2000),
            TraceOp {
                pc: u64::MAX,
                kind: OpKind::Branch,
                src_deps: [None, Some(48)],
                mem: None,
                branch: Some(BranchInfo {
                    taken: false,
                    target: 0,
                    unconditional: true,
                }),
            },
            TraceOp {
                pc: 0,
                kind: OpKind::FpLong,
                src_deps: [None, None],
                mem: None,
                branch: None,
            },
        ]
    }

    #[test]
    fn record_round_trip_is_exact() {
        let mut buf = [0u8; RECORD_LEN];
        for op in sample_ops() {
            encode_record(&op, &mut buf).expect("encodes");
            assert_eq!(decode_record(&buf).expect("decodes"), op);
        }
    }

    /// The bulk trusted decoder and `decode_record` accept exactly the
    /// records the format defines, spelled out here as the reference, and
    /// produce identical ops for them. Exhaustive over the three bytes that
    /// drive validity (kind code, flags, reserved), with the wide fields held
    /// at representative values.
    #[test]
    fn trusted_decode_matches_checked_decode() {
        let kinds = [
            OpKind::IntAlu,
            OpKind::IntMul,
            OpKind::FpOp,
            OpKind::FpLong,
            OpKind::Load,
            OpKind::Store,
            OpKind::Branch,
        ];
        let mut buf = [0u8; RECORD_LEN];
        encode_record(&TraceOp::load(0x10, 0x20).with_dep(5), &mut buf).expect("encodes");
        for code in 0..=255u8 {
            for flags in 0..=255u8 {
                for reserved in [0u8, 1, 0x80] {
                    let mut record = buf;
                    record[20] = code;
                    record[21] = flags;
                    record[23] = reserved;
                    let kind = kinds.get(code as usize).copied();
                    let has = |flag: u8| flags & flag != 0;
                    let valid = kind.is_some_and(|kind| {
                        flags & !(FLAG_TAKEN | FLAG_UNCONDITIONAL | FLAG_HAS_MEM | FLAG_HAS_BRANCH)
                            == 0
                            && reserved == 0
                            && has(FLAG_HAS_MEM) == kind.is_mem()
                            && has(FLAG_HAS_BRANCH) == (kind == OpKind::Branch)
                            && (has(FLAG_HAS_BRANCH) || !has(FLAG_TAKEN | FLAG_UNCONDITIONAL))
                    });
                    let mut violations = 0u8;
                    let trusted = decode_record_trusted(&record, &mut violations);
                    assert_eq!(violations == 0, valid, "trusted decode of {record:?}");
                    match decode_record(&record) {
                        Ok(op) => {
                            assert!(valid, "false positive on {record:?}");
                            assert_eq!(trusted, op, "value mismatch on {record:?}");
                        }
                        Err(_) => assert!(!valid, "false rejection of {record:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn header_round_trip_is_exact() {
        let header = TraceHeader {
            version: FORMAT_VERSION,
            benchmark: "mcf".to_string(),
            mlp_intensive: true,
            op_count: 123_456,
            digest: 0x0123_4567_89ab_cdef,
        };
        let bytes = header.encode().expect("encodes");
        assert_eq!(
            TraceHeader::decode(&bytes, "test").expect("decodes"),
            header
        );
    }

    #[test]
    fn header_rejects_bad_magic_version_and_names() {
        let header = TraceHeader {
            version: FORMAT_VERSION,
            benchmark: "mcf".to_string(),
            mlp_intensive: false,
            op_count: 1,
            digest: 0,
        };
        let good = header.encode().expect("encodes");

        let mut bad = good;
        bad[0] = b'X';
        assert!(TraceHeader::decode(&bad, "t").is_err(), "bad magic");

        let mut bad = good;
        bad[8] = FORMAT_VERSION as u8 + 1;
        let err = TraceHeader::decode(&bad, "t").expect_err("wrong version");
        assert!(err.to_string().contains("version"), "{err}");

        let mut bad = good;
        bad[10] = 16;
        assert!(TraceHeader::decode(&bad, "t").is_err(), "bad record length");

        let mut bad = good;
        bad[12] = 0xff;
        assert!(TraceHeader::decode(&bad, "t").is_err(), "unknown flags");

        let mut bad = good;
        bad[40] = b'x'; // non-contiguous NUL padding
        assert!(TraceHeader::decode(&bad, "t").is_err(), "bad padding");

        let long = TraceHeader {
            benchmark: "x".repeat(MAX_NAME_LEN + 1),
            ..header.clone()
        };
        assert!(long.encode().is_err(), "over-long name");
        let nul = TraceHeader {
            benchmark: "a\0b".to_string(),
            ..header
        };
        assert!(nul.encode().is_err(), "embedded NUL");
    }

    #[test]
    fn record_rejects_corruption() {
        let mut buf = [0u8; RECORD_LEN];
        encode_record(&TraceOp::load(0x10, 0x20), &mut buf).expect("encodes");

        let mut bad = buf;
        bad[20] = 7;
        assert!(decode_record(&bad).is_err(), "unknown kind");

        let mut bad = buf;
        bad[21] = 0xf0;
        assert!(decode_record(&bad).is_err(), "undefined flag bits");

        let mut bad = buf;
        bad[21] = 0; // load without has-mem
        assert!(decode_record(&bad).is_err(), "missing mem flag");

        let mut bad = buf;
        bad[23] = 1;
        assert!(decode_record(&bad).is_err(), "reserved byte");

        let mut branch = [0u8; RECORD_LEN];
        encode_record(&TraceOp::branch(0, true, 4), &mut branch).expect("encodes");
        let mut bad = branch;
        bad[21] = FLAG_TAKEN; // taken bit without has-branch
        assert!(decode_record(&bad).is_err(), "orphan branch bits");
    }

    #[test]
    fn oversized_dependence_is_a_typed_error() {
        let op = TraceOp::int_alu(0).with_dep(DEP_NONE as u32);
        let mut buf = [0u8; RECORD_LEN];
        let err = encode_record(&op, &mut buf).expect_err("distance overflows u16");
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err:?}");
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = digest_update(DIGEST_SEED, &[1, 2, 3]);
        let b = digest_update(DIGEST_SEED, &[3, 2, 1]);
        assert_ne!(a, b);
        let chunked = digest_update(digest_update(DIGEST_SEED, &[1, 2]), &[3]);
        assert_eq!(a, chunked, "chunking must not change the digest");
    }
}
