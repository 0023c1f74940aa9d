//! Write-ahead log for update deltas: durability *between* checkpoints.
//!
//! MOG1 checkpoints (see [`crate::persist`]) only persist **clean** epochs,
//! so every Woodbury-corrected epoch applied since the last checkpoint would
//! die with the process. This module closes that gap with the classic
//! database recipe — an append-only, checksummed log replayed over the
//! latest snapshot:
//!
//! * The writer encodes every applied [`IndexDelta`] (and every explicit
//!   refactorization, which also advances the epoch) as one
//!   length-prefixed, checksummed **record**, appends it to the open
//!   **segment** file, and fsyncs *before* mutating the index
//!   (append-before-apply). An acknowledged update is therefore on disk
//!   before any caller can observe its epoch.
//! * Recovery loads the newest checkpoint and [`replay`]s the log over it:
//!   records at or below the checkpoint epoch are skipped (the **watermark**
//!   check — this is what makes a crash *between* checkpoint save and
//!   stale-segment GC harmless), the rest must form a contiguous epoch
//!   chain and are re-applied. Because [`WritableIndex::apply`] is
//!   deterministic — for a single index and for a sharded one alike — the
//!   recovered index is bit-identical to one that never crashed.
//! * Segments **rotate** at every successful checkpoint: a fresh segment
//!   based at the checkpoint epoch is created and fsync'd, then stale
//!   segments are garbage-collected.
//!
//! # On-disk format (version 1)
//!
//! A segment file `wal-{base:020}.mwal` is a 24-byte header followed by
//! zero or more records. All integers are little-endian; the checksum is
//! the same FNV-1a-64 [`checksum64`] the MOG1 container uses.
//!
//! ```text
//! header:  magic "MWAL" (4) | version u32 (4) | base epoch u64 (8)
//!          | checksum64 of the previous 16 bytes (8)
//! record:  payload len u32 (4) | payload | checksum64 of len+payload (8)
//! payload: epoch u64 | kind u64 | body
//!          kind 1 (delta):   op count u64, then per op:
//!                            tag 1 = insert | feature f64-slice (len-prefixed)
//!                            tag 2 = remove | stable id u64
//!          kind 2 (rebuild): no body
//! ```
//!
//! Record epochs within a segment start at `base + 1` and increase by
//! exactly 1; a segment's base equals the previous segment's final epoch,
//! so the concatenated log is one contiguous epoch chain.
//!
//! # Failure semantics (fail closed, with one carve-out)
//!
//! The one defect a *crash* of the append-only writer can produce is a
//! **torn tail**: the final segment ends mid-record. That record was never
//! acknowledged, so recovery discards it (truncating the file) and reports
//! it. Everything else — a checksum mismatch, a bad magic, a future
//! version, an unknown record kind, out-of-order epochs, an incomplete
//! record in a *non-final* segment, a gap in the segment chain — is bit
//! rot or tampering, not a torn write, and recovery refuses with a typed
//! [`WalError`] rather than serve a silently wrong index. See
//! `docs/PERSISTENCE.md` for the full decision table.

use crate::persist::PersistError;
use crate::update::{IndexDelta, UpdatableIndex, UpdateOp, WritableIndex};
use mogul_sparse::persist::{checksum64, put_f64_slice, put_u64, ByteReader};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The four magic bytes every WAL segment starts with.
pub const WAL_MAGIC: [u8; 4] = *b"MWAL";

/// Current segment format version.
pub const WAL_VERSION: u32 = 1;

/// Byte length of the fixed segment header (magic, version, base epoch,
/// header checksum).
pub const SEGMENT_HEADER_LEN: usize = 24;

/// Framing overhead of one record (u32 length prefix + u64 checksum).
pub const RECORD_OVERHEAD: usize = 12;

/// File extension of WAL segments.
pub const SEGMENT_EXT: &str = "mwal";

const KIND_DELTA: u64 = 1;
const KIND_REBUILD: u64 = 2;
const OP_INSERT: u64 = 1;
const OP_REMOVE: u64 = 2;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Every way the write-ahead log can fail.
///
/// The contract mirrors [`PersistError`]: **fail closed**. Any defect in
/// the log yields one of these variants; decoding never panics and never
/// produces a silently wrong replay. The only self-healing case is a torn
/// tail record in the final segment, which is *not* an error (see
/// [`RecoveryReport::truncated_bytes`]).
#[derive(Debug, Clone, PartialEq)]
pub enum WalError {
    /// An underlying I/O operation failed.
    Io {
        /// What was being attempted (e.g. `"append wal record"`).
        op: &'static str,
        /// The OS error, including the path when one is known.
        detail: String,
    },
    /// A segment does not start with the `MWAL` magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// A segment declares a format version this build does not understand.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// A structure is incomplete where a torn tail is not a legal
    /// explanation (segment header of a non-final segment, a record body in
    /// a non-final segment, ...).
    Truncated {
        /// The structure that was being read.
        what: &'static str,
        /// Bytes the structure needs.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A complete record's stored checksum does not match its bytes —
    /// bit rot, not a torn write.
    ChecksumMismatch {
        /// Byte offset of the record inside its segment.
        offset: usize,
    },
    /// A structural invariant of the log is violated (header checksum,
    /// segment/filename disagreement, trailing payload garbage, ...).
    Corrupt {
        /// The structure that failed validation.
        what: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A record declares a kind this build does not understand. Records
    /// cannot be skipped (every epoch must be re-applied), so an unknown
    /// kind refuses recovery.
    UnknownRecordKind {
        /// The kind tag found.
        found: u64,
    },
    /// Record epochs are duplicated or out of order where the format
    /// requires a contiguous chain.
    EpochOrder {
        /// The epoch the chain required next.
        expected: u64,
        /// The epoch actually found.
        found: u64,
    },
    /// The log is missing epochs the checkpoint requires (a deleted or
    /// lost segment): replay cannot bridge the gap.
    EpochGap {
        /// The epoch replay needed next.
        expected: u64,
        /// The epoch actually found.
        found: u64,
    },
    /// Re-applying a logged record to the checkpoint failed — the log and
    /// the checkpoint disagree about the collection state.
    Replay {
        /// Epoch of the record that failed to apply.
        epoch: u64,
        /// The underlying index error.
        detail: String,
    },
    /// Loading or saving the checkpoint under the log failed.
    Checkpoint(PersistError),
    /// The log was driven incorrectly (non-contiguous append epoch,
    /// rotation away from the log head, an empty segment directory, ...).
    InvalidState(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { op, detail } => write!(f, "i/o failure during {op}: {detail}"),
            WalError::BadMagic { found } => write!(
                f,
                "not a wal segment: magic is {found:02x?}, expected {WAL_MAGIC:02x?} (\"MWAL\")"
            ),
            WalError::UnsupportedVersion { found } => write!(
                f,
                "unsupported wal segment version {found} (this build reads version \
                 {WAL_VERSION}; the segment was probably written by a newer release)"
            ),
            WalError::Truncated {
                what,
                needed,
                available,
            } => write!(
                f,
                "truncated wal segment: {what} needs {needed} bytes but only {available} remain"
            ),
            WalError::ChecksumMismatch { offset } => write!(
                f,
                "checksum mismatch in the wal record at byte offset {offset}: the segment is \
                 corrupt"
            ),
            WalError::Corrupt { what, detail } => {
                write!(f, "corrupt wal segment ({what}): {detail}")
            }
            WalError::UnknownRecordKind { found } => write!(
                f,
                "unknown wal record kind {found}: records cannot be skipped, refusing recovery"
            ),
            WalError::EpochOrder { expected, found } => write!(
                f,
                "wal epochs out of order: expected epoch {expected} next but found {found}"
            ),
            WalError::EpochGap { expected, found } => write!(
                f,
                "wal is missing epochs: replay needed epoch {expected} but the log continues at \
                 {found} (a segment was lost)"
            ),
            WalError::Replay { epoch, detail } => {
                write!(f, "replaying wal record for epoch {epoch} failed: {detail}")
            }
            WalError::Checkpoint(err) => write!(f, "checkpoint under the wal failed: {err}"),
            WalError::InvalidState(msg) => write!(f, "wal misuse: {msg}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Checkpoint(err) => Some(err),
            _ => None,
        }
    }
}

impl From<PersistError> for WalError {
    fn from(err: PersistError) -> Self {
        WalError::Checkpoint(err)
    }
}

fn io_err(op: &'static str, path: Option<&Path>, err: std::io::Error) -> WalError {
    let detail = match path {
        Some(p) => format!("{}: {err}", p.display()),
        None => err.to_string(),
    };
    WalError::Io { op, detail }
}

fn reader_err(what: &'static str) -> impl Fn(crate::CoreError) -> WalError {
    move |err| WalError::Corrupt {
        what,
        detail: err.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// The logged operation of one record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// An applied [`IndexDelta`] (always non-empty; empty deltas do not
    /// advance the epoch and are never logged).
    Delta(IndexDelta),
    /// An explicit refactorization ([`WritableIndex::rebuild`]), which
    /// advances the epoch without changing the collection.
    Rebuild,
}

/// One decoded log record: the epoch it produced and the operation that
/// produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The epoch the index is on *after* applying this record.
    pub epoch: u64,
    /// The logged operation.
    pub op: WalOp,
}

/// Encode an [`IndexDelta`] payload body (op count, then tagged ops).
///
/// Public because it pins the v1 record layout for the format tests; the
/// framed-record entry point is [`encode_record`].
pub fn encode_delta(delta: &IndexDelta, out: &mut Vec<u8>) {
    put_u64(out, delta.len() as u64);
    for op in delta.ops() {
        match op {
            UpdateOp::Insert { feature } => {
                put_u64(out, OP_INSERT);
                put_f64_slice(out, feature);
            }
            UpdateOp::Remove { id } => {
                put_u64(out, OP_REMOVE);
                put_u64(out, *id as u64);
            }
        }
    }
}

/// Decode an [`IndexDelta`] payload body written by [`encode_delta`].
pub fn decode_delta(reader: &mut ByteReader<'_>) -> Result<IndexDelta, WalError> {
    // Each op is at least one 8-byte tag, so the count is bounded by the
    // remaining payload before anything is allocated.
    let count = reader
        .take_len(8, "wal delta op count")
        .map_err(reader_err("delta op count"))?;
    let mut delta = IndexDelta::new();
    for _ in 0..count {
        let tag = reader
            .take_u64("wal op tag")
            .map_err(reader_err("delta op tag"))?;
        match tag {
            OP_INSERT => {
                let feature = reader
                    .take_f64_vec("wal insert feature")
                    .map_err(reader_err("insert feature"))?;
                delta.insert(feature);
            }
            OP_REMOVE => {
                let id = reader
                    .take_u64("wal remove id")
                    .map_err(reader_err("remove id"))?;
                let id = usize::try_from(id).map_err(|_| WalError::Corrupt {
                    what: "remove id",
                    detail: format!("stable id {id} does not fit in usize"),
                })?;
                delta.remove(id);
            }
            other => {
                return Err(WalError::Corrupt {
                    what: "delta op tag",
                    detail: format!("unknown update op tag {other}"),
                })
            }
        }
    }
    Ok(delta)
}

/// Append the fixed segment header for `base_epoch` to `out`.
pub fn encode_segment_header(base_epoch: u64, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&WAL_MAGIC);
    out.extend_from_slice(&WAL_VERSION.to_le_bytes());
    put_u64(out, base_epoch);
    let sum = checksum64(&out[start..start + 16]);
    put_u64(out, sum);
}

/// Append one framed, checksummed record to `out`.
///
/// Fails only on a record whose payload exceeds the u32 length prefix —
/// far beyond any real delta.
pub fn encode_record(epoch: u64, op: &WalOp, out: &mut Vec<u8>) -> Result<(), WalError> {
    let mut payload = Vec::new();
    put_u64(&mut payload, epoch);
    match op {
        WalOp::Delta(delta) => {
            put_u64(&mut payload, KIND_DELTA);
            encode_delta(delta, &mut payload);
        }
        WalOp::Rebuild => put_u64(&mut payload, KIND_REBUILD),
    }
    let len = u32::try_from(payload.len()).map_err(|_| {
        WalError::InvalidState(format!(
            "a single wal record cannot exceed {} payload bytes (got {})",
            u32::MAX,
            payload.len()
        ))
    })?;
    let start = out.len();
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&payload);
    let sum = checksum64(&out[start..]);
    put_u64(out, sum);
    Ok(())
}

fn decode_record_payload(payload: &[u8]) -> Result<WalRecord, WalError> {
    let mut reader = ByteReader::new(payload);
    let epoch = reader
        .take_u64("wal record epoch")
        .map_err(reader_err("record epoch"))?;
    let kind = reader
        .take_u64("wal record kind")
        .map_err(reader_err("record kind"))?;
    let op = match kind {
        KIND_DELTA => WalOp::Delta(decode_delta(&mut reader)?),
        KIND_REBUILD => WalOp::Rebuild,
        other => return Err(WalError::UnknownRecordKind { found: other }),
    };
    reader
        .finish("wal record payload")
        .map_err(reader_err("record payload"))?;
    Ok(WalRecord { epoch, op })
}

// ---------------------------------------------------------------------------
// Segment reading
// ---------------------------------------------------------------------------

/// A torn tail: trailing bytes of the **final** segment that do not form a
/// complete record. The writer died mid-append before acknowledging the
/// update, so recovery discards them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset inside the segment where the incomplete record starts.
    pub offset: usize,
    /// Number of trailing bytes discarded.
    pub bytes: usize,
}

/// A fully validated in-memory view of one segment's bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// The epoch the segment is based on, or `None` when the final
    /// segment's own header is torn (the writer died during rotation,
    /// before any record could be acknowledged).
    pub base_epoch: Option<u64>,
    /// The decoded records, in epoch order (`base + 1, base + 2, ...`).
    pub records: Vec<WalRecord>,
    /// The torn tail, if the segment ends mid-record.
    pub torn: Option<TornTail>,
}

/// Decode and validate one segment's bytes.
///
/// `is_final` selects the torn-tail carve-out: only the final (newest)
/// segment of a log may legally end mid-structure, because only its tail
/// can have been interrupted by a crash. Earlier segments were fsync'd
/// complete before the log moved on, so the same defect there is
/// corruption and refuses with a typed error.
pub fn read_segment(bytes: &[u8], is_final: bool) -> Result<Segment, WalError> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        if is_final {
            // A crash during segment creation: the header never finished.
            // Nothing was acknowledged against this segment.
            return Ok(Segment {
                base_epoch: None,
                records: Vec::new(),
                torn: Some(TornTail {
                    offset: 0,
                    bytes: bytes.len(),
                }),
            });
        }
        return Err(WalError::Truncated {
            what: "segment header",
            needed: SEGMENT_HEADER_LEN,
            available: bytes.len(),
        });
    }
    if bytes[..4] != WAL_MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&bytes[..4]);
        return Err(WalError::BadMagic { found });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(WalError::UnsupportedVersion { found: version });
    }
    let stored = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    if checksum64(&bytes[..16]) != stored {
        return Err(WalError::Corrupt {
            what: "segment header",
            detail: "header checksum mismatch".into(),
        });
    }
    let base_epoch = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));

    let mut records = Vec::new();
    let mut torn = None;
    let mut expected = base_epoch.wrapping_add(1);
    let mut offset = SEGMENT_HEADER_LEN;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        // An incomplete frame: either the length prefix itself is cut
        // short, or the declared payload+checksum runs past the end of the
        // file. Both read as "the file ends before the record is complete"
        // — including a hostile length prefix, which is rejected here
        // *before* any allocation.
        let needed = if remaining < 4 {
            RECORD_OVERHEAD
        } else {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
            RECORD_OVERHEAD + len as usize
        };
        if needed > remaining {
            if is_final {
                torn = Some(TornTail {
                    offset,
                    bytes: remaining,
                });
                break;
            }
            return Err(WalError::Truncated {
                what: "wal record in a non-final segment",
                needed,
                available: remaining,
            });
        }
        let framed = &bytes[offset..offset + needed - 8];
        let stored = u64::from_le_bytes(
            bytes[offset + needed - 8..offset + needed]
                .try_into()
                .expect("8 bytes"),
        );
        if checksum64(framed) != stored {
            return Err(WalError::ChecksumMismatch { offset });
        }
        let record = decode_record_payload(&framed[4..])?;
        if record.epoch != expected {
            return Err(WalError::EpochOrder {
                expected,
                found: record.epoch,
            });
        }
        expected = expected.wrapping_add(1);
        records.push(record);
        offset += needed;
    }
    Ok(Segment {
        base_epoch: Some(base_epoch),
        records,
        torn,
    })
}

// ---------------------------------------------------------------------------
// Segment files and directory layout
// ---------------------------------------------------------------------------

/// The canonical file name of the segment based at `base_epoch`.
pub fn segment_file_name(base_epoch: u64) -> String {
    format!("wal-{base_epoch:020}.{SEGMENT_EXT}")
}

fn parse_segment_name(name: &std::ffi::OsStr) -> Option<u64> {
    let name = name.to_str()?;
    let digits = name
        .strip_prefix("wal-")?
        .strip_suffix(&format!(".{SEGMENT_EXT}"))?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn sync_dir(dir: &Path) {
    // Durability of creates/renames/removes inside the directory; not all
    // platforms allow fsyncing a directory handle, so failures here are
    // non-fatal (same policy as the MOG1 saver).
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// List the segment files of a log directory, sorted by base epoch.
///
/// Fails closed on any `.mwal` file whose name does not parse — a renamed
/// segment would otherwise be silently dropped from replay. Files with
/// other extensions are ignored.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("list wal dir", Some(dir), e))?;
    let mut segments = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err("list wal dir", Some(dir), e))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some(SEGMENT_EXT) {
            continue;
        }
        let name = path.file_name().unwrap_or_default();
        match parse_segment_name(name) {
            Some(base) => segments.push((base, path)),
            None => {
                return Err(WalError::Corrupt {
                    what: "segment file name",
                    detail: format!(
                        "'{}' has the .{SEGMENT_EXT} extension but is not a wal-<epoch> name",
                        path.display()
                    ),
                })
            }
        }
    }
    segments.sort_by_key(|&(base, _)| base);
    Ok(segments)
}

/// Tail-segment facts the writer needs to resume appending.
struct TailState {
    path: PathBuf,
    base_epoch: u64,
    /// Valid byte length: everything past it is a torn tail to discard
    /// (`0` when the header itself is torn and must be rewritten).
    keep_len: u64,
}

/// The fully validated contents of a log directory.
struct ScannedLog {
    segments: Vec<SegmentInfo>,
    records: Vec<WalRecord>,
    truncated_bytes: u64,
    tail: TailState,
}

impl ScannedLog {
    fn report(&self) -> RecoveryReport {
        RecoveryReport {
            segments: self.segments.len(),
            records: self.records.len(),
            truncated_bytes: self.truncated_bytes,
            last_epoch: self
                .segments
                .last()
                .map(|s| s.last_epoch)
                .unwrap_or_default(),
        }
    }
}

/// Read and validate every segment of a log directory: the shared core of
/// [`Wal::recover`], [`recover_read_only`] and [`inspect_dir`]. Applies the full
/// fail-closed rule set — header/record/chain validation, with the
/// torn-tail carve-out only on the final segment — without modifying any
/// file.
fn scan_log(dir: &Path) -> Result<ScannedLog, WalError> {
    let segments = list_segments(dir)?;
    if segments.is_empty() {
        return Err(WalError::InvalidState(format!(
            "'{}' contains no wal segments; create a fresh log instead of recovering",
            dir.display()
        )));
    }

    let mut infos = Vec::with_capacity(segments.len());
    let mut records = Vec::new();
    let mut truncated_bytes = 0u64;
    let mut chain_epoch: Option<u64> = None;
    let final_index = segments.len() - 1;
    let mut tail: Option<TailState> = None;
    for (i, (name_base, path)) in segments.iter().enumerate() {
        let is_final = i == final_index;
        let bytes = std::fs::read(path).map_err(|e| io_err("read wal segment", Some(path), e))?;
        let segment = read_segment(&bytes, is_final)?;
        if let Some(header_base) = segment.base_epoch {
            if header_base != *name_base {
                return Err(WalError::Corrupt {
                    what: "segment base epoch",
                    detail: format!(
                        "'{}' declares base epoch {header_base} in its header",
                        path.display()
                    ),
                });
            }
        }
        // Each segment must continue exactly where the previous one ended:
        // its base is the previous segment's final epoch. A hole here is a
        // lost segment, not a torn write.
        if let Some(prev_end) = chain_epoch {
            if *name_base != prev_end {
                return Err(WalError::EpochGap {
                    expected: prev_end,
                    found: *name_base,
                });
            }
        }
        let seg_last = segment
            .records
            .last()
            .map(|r| r.epoch)
            .unwrap_or(*name_base);
        chain_epoch = Some(seg_last);
        if let Some(torn) = segment.torn {
            truncated_bytes += torn.bytes as u64;
        }
        if is_final {
            let keep_len = match segment.torn {
                // A torn header: keep nothing, recovery rewrites it.
                Some(t) if segment.base_epoch.is_none() => {
                    debug_assert_eq!(t.offset, 0);
                    0
                }
                Some(t) => t.offset as u64,
                None => bytes.len() as u64,
            };
            tail = Some(TailState {
                path: path.clone(),
                base_epoch: *name_base,
                keep_len,
            });
        }
        infos.push(SegmentInfo {
            path: path.clone(),
            base_epoch: *name_base,
            bytes: bytes.len() as u64,
            records: segment.records.len(),
            last_epoch: seg_last,
            torn: segment.torn,
        });
        records.extend(segment.records);
    }
    Ok(ScannedLog {
        segments: infos,
        records,
        truncated_bytes,
        tail: tail.expect("non-empty segment list"),
    })
}

// ---------------------------------------------------------------------------
// The open log
// ---------------------------------------------------------------------------

/// Fsync policy of the open log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSync {
    /// `fsync` after every appended record (the default): an acknowledged
    /// update survives power loss. This is the policy the recovery
    /// exactness guarantee is stated against.
    #[default]
    EveryRecord,
    /// Leave flushing to the OS page cache: records survive a process
    /// crash (the write syscall completed) but a window of acknowledged
    /// updates can be lost to power failure. The SQLite
    /// `synchronous=NORMAL` trade: much higher update throughput on
    /// fsync-bound storage.
    OsBuffered,
}

/// What recovery found in the log directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Number of segment files scanned.
    pub segments: usize,
    /// Total records decoded across all segments (including records a
    /// later [`replay`] will skip as below its watermark).
    pub records: usize,
    /// Torn-tail bytes discarded from the final segment (0 for a clean
    /// shutdown).
    pub truncated_bytes: u64,
    /// The epoch the log ends at.
    pub last_epoch: u64,
}

/// An open write-ahead log: one append-only segment file plus the rotation
/// and garbage-collection lifecycle.
///
/// A `Wal` is single-writer by construction — a [`WritableIndex`] has one
/// owner, and the serve layer drives both under one mutex.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    path: PathBuf,
    file: File,
    base_epoch: u64,
    last_epoch: u64,
    len: u64,
    undo_len: Option<u64>,
    sync: WalSync,
}

impl Wal {
    /// Create a fresh log in `dir` (created if missing), based at
    /// `base_epoch` — the epoch of the checkpoint the log will be replayed
    /// over. The segment header is written and fsync'd before returning;
    /// refuses if that segment file already exists (use [`Wal::recover`]
    /// to re-open an existing log).
    pub fn create(dir: impl AsRef<Path>, base_epoch: u64, sync: WalSync) -> Result<Wal, WalError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create wal dir", Some(&dir), e))?;
        let path = dir.join(segment_file_name(base_epoch));
        if path.exists() {
            return Err(WalError::InvalidState(format!(
                "segment '{}' already exists; recover the existing log instead of creating over it",
                path.display()
            )));
        }
        let file = Wal::create_segment(&path, base_epoch)?;
        sync_dir(&dir);
        Ok(Wal {
            dir,
            path,
            file,
            base_epoch,
            last_epoch: base_epoch,
            len: SEGMENT_HEADER_LEN as u64,
            undo_len: None,
            sync,
        })
    }

    fn create_segment(path: &Path, base_epoch: u64) -> Result<File, WalError> {
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
        encode_segment_header(base_epoch, &mut header);
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("create wal segment", Some(path), e))?;
        file.write_all(&header)
            .map_err(|e| io_err("write wal segment header", Some(path), e))?;
        // The header is always fsync'd, whatever the record policy: a
        // rotation must not be able to out-survive the segment it rotated
        // to.
        file.sync_all()
            .map_err(|e| io_err("sync wal segment header", Some(path), e))?;
        Ok(file)
    }

    /// Re-open an existing log after a crash (or clean shutdown): scan and
    /// validate every segment, discard a torn tail from the final segment
    /// (truncating the file), and position the writer at the log head.
    ///
    /// Returns the open log, every decoded record in epoch order (stale
    /// records from not-yet-collected segments included — [`replay`]'s
    /// watermark check skips them), and a report of what was found.
    pub fn recover(
        dir: impl AsRef<Path>,
        sync: WalSync,
    ) -> Result<(Wal, Vec<WalRecord>, RecoveryReport), WalError> {
        let dir = dir.as_ref().to_path_buf();
        let scan = scan_log(&dir)?;
        let report = scan.report();
        let ScannedLog { records, tail, .. } = scan;
        let (tail_path, tail_base, last_epoch, keep_len) =
            (tail.path, tail.base_epoch, report.last_epoch, tail.keep_len);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&tail_path)
            .map_err(|e| io_err("open wal segment", Some(&tail_path), e))?;
        let actual_len = file
            .metadata()
            .map_err(|e| io_err("stat wal segment", Some(&tail_path), e))?
            .len();
        if keep_len < actual_len || keep_len == 0 {
            file.set_len(keep_len)
                .map_err(|e| io_err("truncate torn wal tail", Some(&tail_path), e))?;
            if keep_len == 0 {
                let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
                encode_segment_header(tail_base, &mut header);
                file.write_all(&header)
                    .map_err(|e| io_err("rewrite wal segment header", Some(&tail_path), e))?;
            }
            file.sync_all()
                .map_err(|e| io_err("sync truncated wal segment", Some(&tail_path), e))?;
        }
        use std::io::Seek as _;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| io_err("seek wal segment", Some(&tail_path), e))?;

        let wal = Wal {
            dir,
            path: tail_path,
            file,
            base_epoch: tail_base,
            last_epoch,
            len: keep_len.max(SEGMENT_HEADER_LEN as u64),
            undo_len: None,
            sync,
        };
        Ok((wal, records, report))
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the open (newest) segment file.
    pub fn segment_path(&self) -> &Path {
        &self.path
    }

    /// Base epoch of the open segment.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// The epoch the log currently ends at — the last record appended (or
    /// the segment base if none).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Byte length of the open segment.
    pub fn segment_len(&self) -> u64 {
        self.len
    }

    /// The configured fsync policy.
    pub fn sync(&self) -> WalSync {
        self.sync
    }

    /// Append one record and (under [`WalSync::EveryRecord`]) fsync it.
    /// `epoch` must be exactly [`Wal::last_epoch`]` + 1` — the epoch the
    /// index will be on once the operation is applied.
    ///
    /// Call this *before* mutating the index: a record on disk that was
    /// never applied is harmlessly replayed on recovery, but an applied
    /// epoch missing from the disk is lost durability.
    pub fn append(&mut self, epoch: u64, op: &WalOp) -> Result<(), WalError> {
        if epoch != self.last_epoch + 1 {
            return Err(WalError::InvalidState(format!(
                "append epoch {epoch} is not contiguous with the log head {}",
                self.last_epoch
            )));
        }
        let mut record = Vec::new();
        encode_record(epoch, op, &mut record)?;
        let result = self
            .file
            .write_all(&record)
            .map_err(|e| io_err("append wal record", Some(&self.path), e))
            .and_then(|()| match self.sync {
                WalSync::EveryRecord => self
                    .file
                    .sync_all()
                    .map_err(|e| io_err("sync wal record", Some(&self.path), e)),
                WalSync::OsBuffered => Ok(()),
            });
        if let Err(err) = result {
            // Roll the partial write back so the segment stays clean for
            // the next append; if even that fails, recovery's torn-tail
            // truncation repairs it.
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek_to_end();
            return Err(err);
        }
        self.undo_len = Some(self.len);
        self.len += record.len() as u64;
        self.last_epoch = epoch;
        Ok(())
    }

    /// Discard the most recent [`Wal::append`], truncating it off the
    /// segment. The writer calls this when applying the operation to the
    /// index fails *after* the record was already durable, so the log does
    /// not acknowledge an epoch that never happened.
    pub fn undo_last_append(&mut self) -> Result<(), WalError> {
        let undo_len = self.undo_len.take().ok_or_else(|| {
            WalError::InvalidState("no append to undo (or it was already undone)".into())
        })?;
        self.file
            .set_len(undo_len)
            .map_err(|e| io_err("truncate undone wal record", Some(&self.path), e))?;
        self.file.seek_to_end()?;
        self.file
            .sync_all()
            .map_err(|e| io_err("sync undone wal record", Some(&self.path), e))?;
        self.len = undo_len;
        self.last_epoch -= 1;
        Ok(())
    }

    /// Rotate at a just-written checkpoint: start a fresh segment based at
    /// `checkpoint_epoch` (which must be the current log head — a
    /// checkpoint persists the epoch the log ends at), then garbage-collect
    /// the now-redundant older segments.
    ///
    /// The new segment is created and fsync'd *before* anything is deleted,
    /// so a crash anywhere in between leaves a recoverable log: stale
    /// segments are skipped by [`replay`]'s watermark check. GC itself is
    /// best-effort — a segment that cannot be deleted is retried at the
    /// next rotation.
    pub fn rotate(&mut self, checkpoint_epoch: u64) -> Result<(), WalError> {
        if checkpoint_epoch != self.last_epoch {
            return Err(WalError::InvalidState(format!(
                "cannot rotate at epoch {checkpoint_epoch}: the log head is {}",
                self.last_epoch
            )));
        }
        if self.base_epoch == checkpoint_epoch {
            // The open segment is already empty and based here; nothing to
            // rotate and nothing to collect.
            return Ok(());
        }
        let path = self.dir.join(segment_file_name(checkpoint_epoch));
        if path.exists() {
            return Err(WalError::InvalidState(format!(
                "segment '{}' already exists; refusing to rotate over it",
                path.display()
            )));
        }
        let file = Wal::create_segment(&path, checkpoint_epoch)?;
        sync_dir(&self.dir);
        self.path = path;
        self.file = file;
        self.base_epoch = checkpoint_epoch;
        self.len = SEGMENT_HEADER_LEN as u64;
        self.undo_len = None;
        // last_epoch is unchanged: the log still ends at the checkpoint.
        for (base, stale) in list_segments(&self.dir)? {
            if base < checkpoint_epoch {
                let _ = std::fs::remove_file(stale);
            }
        }
        sync_dir(&self.dir);
        Ok(())
    }
}

trait SeekToEnd {
    fn seek_to_end(&mut self) -> Result<(), WalError>;
}

impl SeekToEnd for File {
    fn seek_to_end(&mut self) -> Result<(), WalError> {
        use std::io::Seek as _;
        self.seek(std::io::SeekFrom::End(0))
            .map_err(|e| io_err("seek wal segment", None, e))?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// What [`replay`] did to the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// The index epoch replay started from (the checkpoint epoch).
    pub watermark: u64,
    /// Records skipped as at-or-below the watermark (stale segments that a
    /// crash caught before garbage collection).
    pub skipped: usize,
    /// Records re-applied.
    pub applied: usize,
    /// The index epoch after replay.
    pub epoch: u64,
}

/// Re-apply logged records over a checkpoint of either engine.
///
/// Records with `epoch <= index.epoch()` are skipped — the **watermark**
/// check that makes a crash between checkpoint save and stale-segment GC
/// safe (those epochs are already inside the checkpoint; re-applying them
/// would double-apply their deltas). The remaining records must start at
/// exactly `watermark + 1` and stay contiguous; any hole means a lost
/// segment and refuses with [`WalError::EpochGap`].
pub fn replay<I: WritableIndex>(
    index: &mut I,
    records: &[WalRecord],
) -> Result<ReplayReport, WalError> {
    let watermark = index.epoch();
    let mut skipped = 0usize;
    let mut applied = 0usize;
    let mut next = watermark + 1;
    for record in records {
        if record.epoch <= watermark {
            skipped += 1;
            continue;
        }
        if record.epoch != next {
            return Err(WalError::EpochGap {
                expected: next,
                found: record.epoch,
            });
        }
        let result = match &record.op {
            WalOp::Delta(delta) => index.apply(delta),
            WalOp::Rebuild => index.rebuild(),
        };
        result.map_err(|e| WalError::Replay {
            epoch: record.epoch,
            detail: e.to_string(),
        })?;
        if index.epoch() != record.epoch {
            return Err(WalError::Replay {
                epoch: record.epoch,
                detail: format!(
                    "index landed on epoch {} after re-applying the record",
                    index.epoch()
                ),
            });
        }
        next += 1;
        applied += 1;
    }
    Ok(ReplayReport {
        watermark,
        skipped,
        applied,
        epoch: index.epoch(),
    })
}

/// Combined outcome of [`recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// What scanning the log found.
    pub log: RecoveryReport,
    /// What replay did to the checkpoint.
    pub replay: ReplayReport,
}

/// Full crash recovery of either engine: load the checkpoint, scan the log,
/// replay it, and return the recovered index together with the re-opened
/// log positioned to keep appending.
///
/// The recovered index is on exactly [`RecoveryReport::last_epoch`] — the
/// last epoch the crashed writer acknowledged (or further, if a final
/// record was made durable but the crash hit before its apply finished;
/// either way an epoch the writer's protocol committed to). No rebuild is
/// forced: corrected epochs recover as corrected epochs, so answers are
/// bit-identical to the uncrashed writer's.
pub fn recover<I: WritableIndex>(
    checkpoint: impl AsRef<Path>,
    wal_dir: impl AsRef<Path>,
    sync: WalSync,
) -> Result<(I, Wal, RecoveryOutcome), WalError> {
    let mut index = I::load(checkpoint.as_ref())?;
    let (wal, records, log) = Wal::recover(wal_dir, sync)?;
    let replay = replay_to_log_head(&mut index, &records, &log)?;
    Ok((index, wal, RecoveryOutcome { log, replay }))
}

/// [`recover`] for a single [`UpdatableIndex`].
pub fn recover_updatable(
    checkpoint: impl AsRef<Path>,
    wal_dir: impl AsRef<Path>,
    sync: WalSync,
) -> Result<(UpdatableIndex, Wal, RecoveryOutcome), WalError> {
    recover(checkpoint, wal_dir, sync)
}

/// [`recover`] for a read replica that will never append: nothing on disk
/// is modified (a torn tail is skipped, not truncated) and no [`Wal`] is
/// opened.
pub fn recover_read_only<I: WritableIndex>(
    checkpoint: impl AsRef<Path>,
    wal_dir: impl AsRef<Path>,
) -> Result<I, WalError> {
    let mut index = I::load(checkpoint.as_ref())?;
    let scan = scan_log(wal_dir.as_ref())?;
    replay_to_log_head(&mut index, &scan.records, &scan.report())?;
    Ok(index)
}

/// [`replay`] over a freshly loaded checkpoint, which must land exactly on
/// the head of the scanned log. A checkpoint *ahead* of the log means the
/// log's newest segments were lost (rotation always leaves a segment based
/// at the checkpoint epoch); one behind a log head that no record bridges
/// means the segments in between were.
fn replay_to_log_head<I: WritableIndex>(
    index: &mut I,
    records: &[WalRecord],
    log: &RecoveryReport,
) -> Result<ReplayReport, WalError> {
    let replay = replay(index, records)?;
    if replay.epoch != log.last_epoch {
        return Err(WalError::EpochGap {
            expected: replay.epoch,
            found: log.last_epoch,
        });
    }
    Ok(replay)
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

/// Validation summary of one segment file, as produced by [`inspect_dir`].
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentInfo {
    /// Path of the segment file.
    pub path: PathBuf,
    /// Base epoch (from the file name, cross-checked against the header).
    pub base_epoch: u64,
    /// File length in bytes.
    pub bytes: u64,
    /// Number of complete, valid records.
    pub records: usize,
    /// Epoch of the last record, or the base epoch if the segment is
    /// empty.
    pub last_epoch: u64,
    /// The torn tail, if the segment ends mid-record (only legal for the
    /// final segment).
    pub torn: Option<TornTail>,
}

/// Scan and fully validate a log directory without modifying it (no
/// truncation, no replay): the read-only core of `mogul_index wal_inspect`.
/// Returns one [`SegmentInfo`] per segment, oldest first, applying exactly
/// the checks [`Wal::recover`] applies.
pub fn inspect_dir(dir: impl AsRef<Path>) -> Result<Vec<SegmentInfo>, WalError> {
    Ok(scan_log(dir.as_ref())?.segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::IndexBuilder;

    fn features(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                vec![(t * 0.37).sin(), (t * 0.11).cos(), (t % 5.0) * 0.2]
            })
            .collect()
    }

    fn temp_dir(name: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mogul-wal-unit-{}-{}-{name}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_delta() -> IndexDelta {
        let mut delta = IndexDelta::new();
        delta.insert(vec![0.25, -1.5, 3.0]).remove(7);
        delta
    }

    #[test]
    fn record_round_trip_is_exact() {
        let ops = [
            WalOp::Delta(sample_delta()),
            WalOp::Rebuild,
            WalOp::Delta(IndexDelta::new()),
        ];
        let mut bytes = Vec::new();
        encode_segment_header(41, &mut bytes);
        for (i, op) in ops.iter().enumerate() {
            encode_record(42 + i as u64, op, &mut bytes).unwrap();
        }
        let segment = read_segment(&bytes, true).unwrap();
        assert_eq!(segment.base_epoch, Some(41));
        assert_eq!(segment.torn, None);
        assert_eq!(segment.records.len(), ops.len());
        for (record, (i, op)) in segment.records.iter().zip(ops.iter().enumerate()) {
            assert_eq!(record.epoch, 42 + i as u64);
            assert_eq!(&record.op, op);
        }
    }

    #[test]
    fn feature_bits_survive_the_round_trip() {
        let mut delta = IndexDelta::new();
        let feature = vec![f64::MIN_POSITIVE, -0.0, 1.0 + f64::EPSILON, 1e300];
        delta.insert(feature.clone());
        let mut payload = Vec::new();
        encode_delta(&delta, &mut payload);
        let mut reader = ByteReader::new(&payload);
        let decoded = decode_delta(&mut reader).unwrap();
        let UpdateOp::Insert { feature: out } = &decoded.ops()[0] else {
            panic!("expected insert");
        };
        for (a, b) in feature.iter().zip(out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn append_then_recover_round_trips() {
        let dir = temp_dir("append-recover");
        let mut wal = Wal::create(&dir, 0, WalSync::EveryRecord).unwrap();
        wal.append(1, &WalOp::Delta(sample_delta())).unwrap();
        wal.append(2, &WalOp::Rebuild).unwrap();
        assert_eq!(wal.last_epoch(), 2);
        drop(wal);

        let (wal, records, report) = Wal::recover(&dir, WalSync::EveryRecord).unwrap();
        assert_eq!(wal.last_epoch(), 2);
        assert_eq!(report.segments, 1);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].op, WalOp::Delta(sample_delta()));
        assert_eq!(records[1].op, WalOp::Rebuild);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_contiguous_append_is_misuse() {
        let dir = temp_dir("contiguous");
        let mut wal = Wal::create(&dir, 5, WalSync::OsBuffered).unwrap();
        let err = wal.append(7, &WalOp::Rebuild).unwrap_err();
        assert!(matches!(err, WalError::InvalidState(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undo_last_append_truncates_the_record() {
        let dir = temp_dir("undo");
        let mut wal = Wal::create(&dir, 0, WalSync::EveryRecord).unwrap();
        wal.append(1, &WalOp::Delta(sample_delta())).unwrap();
        let len_after_first = wal.segment_len();
        wal.append(2, &WalOp::Rebuild).unwrap();
        wal.undo_last_append().unwrap();
        assert_eq!(wal.segment_len(), len_after_first);
        assert_eq!(wal.last_epoch(), 1);
        // A second undo has nothing to discard.
        assert!(matches!(
            wal.undo_last_append().unwrap_err(),
            WalError::InvalidState(_)
        ));
        // The log continues cleanly after the undo.
        wal.append(2, &WalOp::Rebuild).unwrap();
        drop(wal);
        let (_, records, _) = Wal::recover(&dir, WalSync::EveryRecord).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].op, WalOp::Rebuild);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_collects_stale_segments() {
        let dir = temp_dir("rotate");
        let mut wal = Wal::create(&dir, 0, WalSync::EveryRecord).unwrap();
        wal.append(1, &WalOp::Rebuild).unwrap();
        wal.append(2, &WalOp::Rebuild).unwrap();
        wal.rotate(2).unwrap();
        assert_eq!(wal.base_epoch(), 2);
        assert_eq!(wal.last_epoch(), 2);
        let names: Vec<_> = list_segments(&dir).unwrap();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].0, 2);
        // Rotating again at the same epoch is a no-op.
        wal.rotate(2).unwrap();
        // Rotating away from the head is misuse.
        assert!(matches!(
            wal.rotate(1).unwrap_err(),
            WalError::InvalidState(_)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_truncates_a_torn_tail() {
        let dir = temp_dir("torn");
        let mut wal = Wal::create(&dir, 0, WalSync::EveryRecord).unwrap();
        wal.append(1, &WalOp::Delta(sample_delta())).unwrap();
        let keep = wal.segment_len();
        wal.append(2, &WalOp::Delta(sample_delta())).unwrap();
        let path = wal.segment_path().to_path_buf();
        drop(wal);
        // Chop the final record short by 3 bytes: a torn write.
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 3).unwrap();
        drop(file);

        let (mut wal, records, report) = Wal::recover(&dir, WalSync::EveryRecord).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(wal.last_epoch(), 1);
        assert_eq!(report.truncated_bytes, full - 3 - keep);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), keep);
        // The log keeps appending where the torn record was.
        wal.append(2, &WalOp::Rebuild).unwrap();
        drop(wal);
        let (_, records, _) = Wal::recover(&dir, WalSync::EveryRecord).unwrap();
        assert_eq!(records.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_skips_the_watermark_and_applies_the_rest() {
        let mut live = IndexBuilder::new()
            .knn_k(3)
            .exact_ranking()
            .build(features(14))
            .unwrap();
        let mut recovered = IndexBuilder::new()
            .knn_k(3)
            .exact_ranking()
            .build(features(14))
            .unwrap();

        let mut records = Vec::new();
        let mut delta = IndexDelta::new();
        delta.insert(vec![0.9, -0.1, 0.4]);
        live.apply(&delta).unwrap();
        records.push(WalRecord {
            epoch: 1,
            op: WalOp::Delta(delta),
        });
        let mut delta = IndexDelta::new();
        delta.remove(3);
        live.apply(&delta).unwrap();
        records.push(WalRecord {
            epoch: 2,
            op: WalOp::Delta(delta),
        });
        live.rebuild().unwrap();
        records.push(WalRecord {
            epoch: 3,
            op: WalOp::Rebuild,
        });

        let report = replay(&mut recovered, &records).unwrap();
        assert_eq!(report.applied, 3);
        assert_eq!(report.skipped, 0);
        assert_eq!(recovered.epoch(), live.epoch());
        let a = live.snapshot();
        let b = recovered.snapshot();
        for id in a.item_ids() {
            assert_eq!(a.query_by_id(id, 5).unwrap(), b.query_by_id(id, 5).unwrap());
        }

        // Replaying the same records over the already-recovered index is a
        // pure watermark skip.
        let report = replay(&mut recovered, &records).unwrap();
        assert_eq!(report.applied, 0);
        assert_eq!(report.skipped, 3);

        // A hole in the chain refuses.
        let gapped = [records[0].clone(), records[2].clone()];
        let mut fresh = IndexBuilder::new()
            .knn_k(3)
            .exact_ranking()
            .build(features(14))
            .unwrap();
        assert!(matches!(
            replay(&mut fresh, &gapped).unwrap_err(),
            WalError::EpochGap {
                expected: 2,
                found: 3
            }
        ));
    }

    #[test]
    fn inspect_reports_every_segment() {
        let dir = temp_dir("inspect");
        let mut wal = Wal::create(&dir, 0, WalSync::EveryRecord).unwrap();
        wal.append(1, &WalOp::Rebuild).unwrap();
        wal.append(2, &WalOp::Rebuild).unwrap();
        // A second segment without collecting the first: copy the stale
        // segment back after rotation to simulate a crash before GC.
        let stale = wal.segment_path().to_path_buf();
        let stale_bytes = std::fs::read(&stale).unwrap();
        wal.rotate(2).unwrap();
        wal.append(3, &WalOp::Rebuild).unwrap();
        std::fs::write(&stale, stale_bytes).unwrap();
        drop(wal);

        let infos = inspect_dir(&dir).unwrap();
        assert_eq!(infos.len(), 2);
        assert_eq!((infos[0].base_epoch, infos[0].last_epoch), (0, 2));
        assert_eq!((infos[1].base_epoch, infos[1].last_epoch), (2, 3));
        assert_eq!(infos[0].records, 2);
        assert_eq!(infos[1].records, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn misnamed_segment_files_refuse() {
        let dir = temp_dir("misnamed");
        let mut wal = Wal::create(&dir, 0, WalSync::EveryRecord).unwrap();
        wal.append(1, &WalOp::Rebuild).unwrap();
        drop(wal);
        std::fs::write(dir.join(format!("extra.{SEGMENT_EXT}")), b"junk").unwrap();
        assert!(matches!(
            Wal::recover(&dir, WalSync::EveryRecord).unwrap_err(),
            WalError::Corrupt { .. }
        ));
        // Non-segment extensions are ignored.
        std::fs::remove_file(dir.join(format!("extra.{SEGMENT_EXT}"))).unwrap();
        std::fs::write(dir.join("notes.txt"), b"fine").unwrap();
        assert!(Wal::recover(&dir, WalSync::EveryRecord).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
