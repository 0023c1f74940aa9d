//! Versioned on-disk persistence of serving-ready indexes (the `MOG1`
//! format).
//!
//! Every structure the precompute pipeline produces — the k-NN graph, the
//! Algorithm 1 ordering, the `L D Lᵀ` factors, the cluster pruning bounds,
//! the database features, and the clean-epoch state of an
//! [`UpdatableIndex`] — can be written to a single checksummed binary file
//! and loaded back **without re-running any of the precompute**: no
//! clustering, no factorization, no k-NN construction. A loaded index
//! answers every query bit-identically to the index that was saved (the
//! round-trip suite in `crates/core/tests/persist_roundtrip.rs` asserts
//! exact `==` on scores, rankings and work counters).
//!
//! # Container layout (format versions 1 and 2)
//!
//! ```text
//! offset 0    magic  b"MOG1"            (4 bytes)
//! offset 4    format version, u32 LE    (1 or 2; this build writes 2)
//! offset 8    section payloads, back to back (raw bytes)
//! ...         section table: one 28-byte entry per section
//!             { kind: u32, offset: u64, len: u64, checksum: u64 }
//! end - 24    footer: { section count: u64, table checksum: u64,
//!                       trailer magic b"MOG1TRLR" }
//! ```
//!
//! The table lives at the *end* so the writer can stream section payloads
//! through any [`Write`] sink without seeking; the loader reads the footer
//! first and walks the table backwards from it. Every section carries an
//! FNV-1a 64-bit checksum ([`mogul_sparse::persist::checksum64`]) verified
//! before a single payload byte is interpreted, and the table itself is
//! checksummed in the footer — a bit flip anywhere in the file surfaces as a
//! typed [`PersistError`], never as a silently wrong index.
//!
//! # Versioning & compatibility policy
//!
//! * The magic plus the `u32` version gate the whole file: a loader only
//!   parses the versions it knows ([`OLDEST_FORMAT_VERSION`] through
//!   [`FORMAT_VERSION`]); anything else fails closed with
//!   [`PersistError::UnsupportedVersion`]. Any incompatible layout change
//!   MUST bump the version; a golden-fixture test pins each version.
//! * Versions 1 and 2 differ only in the `factors` payload. Version 1
//!   stores the factorization's CSR `L` (`u64` columns, explicit unit
//!   diagonal), `D` and the boosted-pivot count; the loader transposes
//!   `L` into the search layout. Version 2 stores what the search layout
//!   keeps: the strictly-upper rows of `U = Lᵀ` with `u32` offsets and
//!   columns and raw `l_ji` values, then `D` and the boosted-pivot count
//!   (see `encode_factors`). Both build the layout through one
//!   constructor, so a v1 and a v2 load answer bit for bit alike.
//! * *Within* a version, unknown section kinds are ignored by loaders (and
//!   listed by [`inspect`]), so purely additive sections do not require a
//!   bump.
//! * Floats are stored as raw IEEE-754 bits; integers as little-endian
//!   `u64`, except the v2 `factors` payload's offsets and columns, which
//!   are little-endian `u32`. Nothing in the format depends on the writing
//!   platform.
//!
//! See `docs/PERSISTENCE.md` for the operator-facing view (cold-start cost
//! model, checkpointing recipes).

use crate::mogul::{
    ClusterBounds, Factorization, MogulConfig, MogulIndex, PrecomputeStats, SearchLayout,
    StrictRows,
};
use crate::out_of_sample::{OutOfSampleConfig, OutOfSampleIndex};
use crate::params::MrParams;
use crate::update::{IndexSnapshot, UpdatableIndex};
use crate::CoreError;
use mogul_graph::clustering::modularity::ModularityConfig;
use mogul_graph::persist as graph_codec;
use mogul_sparse::persist as codec;
use mogul_sparse::persist::{checksum64, ByteReader};
use mogul_sparse::FeatureMatrix;
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// File magic: the first four bytes of every index file.
pub const MAGIC: [u8; 4] = *b"MOG1";
/// Trailer magic: the last eight bytes of every index file.
pub const FOOTER_MAGIC: [u8; 8] = *b"MOG1TRLR";
/// The format version this build writes, and the newest it reads.
pub const FORMAT_VERSION: u32 = 2;
/// The oldest format version this build reads.
pub const OLDEST_FORMAT_VERSION: u32 = 1;

/// Format limit (versions 1 and 2) on the lifetime stable-id counter of an
/// updatable index (`next_id`): 2²⁸ ids. Stable ids are allocated once per
/// insert and never reused, and both the writer and the loader materialize
/// an id → node table of `next_id` slots, so this bound is what keeps a
/// crafted file from demanding an allocation unrelated to the file's actual
/// size. It is enforced symmetrically at save and load time; a legitimate
/// writer would need ~268 million lifetime inserts (and would itself hold
/// the multi-GB table in memory) before hitting it.
pub const MAX_STABLE_IDS: usize = 1 << 28;

const HEADER_LEN: usize = 8;
const TABLE_ENTRY_LEN: usize = 28;
const FOOTER_LEN: usize = 24;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failures of the persistence layer.
///
/// The loader's contract is **fail closed**: any defect — truncation, bit
/// rot, an unknown version, a structurally invalid payload — returns one of
/// these variants. It never panics and never returns a partially or silently
/// wrong index.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// An underlying I/O operation failed.
    Io {
        /// What was being attempted (e.g. `"write index file"`).
        op: &'static str,
        /// The OS error, including the path when one is known.
        detail: String,
    },
    /// The file does not start with the `MOG1` magic — it is not an index
    /// file at all.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file declares a format version this build does not understand
    /// (e.g. it was written by a future release).
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The file ends before a required structure is complete.
    Truncated {
        /// The structure that was being read.
        what: &'static str,
        /// Bytes the structure needs.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A structural invariant of the container is violated (bad trailer
    /// magic, table checksum mismatch, overlapping sections, ...).
    Corrupt {
        /// The structure that failed validation.
        what: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A section's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// Name of the offending section.
        section: &'static str,
    },
    /// A section the loader requires is absent.
    MissingSection {
        /// Name of the missing section.
        section: &'static str,
    },
    /// A section passed its checksum but its payload failed structural
    /// validation while decoding.
    SectionDecode {
        /// Name of the offending section.
        section: &'static str,
        /// The underlying validation error.
        source: CoreError,
    },
    /// The in-memory structure cannot be persisted in its current state
    /// (e.g. an [`UpdatableIndex`] with uncommitted correction debt).
    InvalidState(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { op, detail } => write!(f, "i/o failure during {op}: {detail}"),
            PersistError::BadMagic { found } => write!(
                f,
                "not a Mogul index file: magic is {found:02x?}, expected {MAGIC:02x?} (\"MOG1\")"
            ),
            PersistError::UnsupportedVersion { found } => write!(
                f,
                "unsupported index format version {found} (this build reads versions \
                 {OLDEST_FORMAT_VERSION} to {FORMAT_VERSION}; the file was probably written \
                 by a newer release)"
            ),
            PersistError::Truncated {
                what,
                needed,
                available,
            } => write!(
                f,
                "truncated index file: {what} needs {needed} bytes but only {available} remain"
            ),
            PersistError::Corrupt { what, detail } => {
                write!(f, "corrupt index file ({what}): {detail}")
            }
            PersistError::ChecksumMismatch { section } => write!(
                f,
                "checksum mismatch in section '{section}': the file is corrupt"
            ),
            PersistError::MissingSection { section } => {
                write!(f, "required section '{section}' is missing")
            }
            PersistError::SectionDecode { section, source } => {
                write!(f, "section '{section}' failed validation: {source}")
            }
            PersistError::InvalidState(msg) => write!(f, "cannot persist: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::SectionDecode { source, .. } => Some(source),
            _ => None,
        }
    }
}

pub(crate) fn io_err(op: &'static str, path: Option<&Path>, err: std::io::Error) -> PersistError {
    let detail = match path {
        Some(p) => format!("{}: {err}", p.display()),
        None => err.to_string(),
    };
    PersistError::Io { op, detail }
}

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

/// The section kinds of format versions 1 and 2. Code 9 (the retired EMR
/// baseline's anchor-graph state) is reserved: a loader skips it like any
/// unknown section, and it is never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionKind {
    /// Flavor, parameters, item count, dimensionality.
    Meta,
    /// The Algorithm 1 node ordering (permutation + cluster layout).
    Ordering,
    /// The `L D Lᵀ` factors.
    Factors,
    /// The cluster pruning bounds (`Ū_i`, `Ū_{i:j}`).
    Bounds,
    /// The database feature vectors.
    Features,
    /// The precompute statistics (timing breakdown, factor sizes).
    Stats,
    /// The current k-NN graph adjacency (updatable flavor only).
    Graph,
    /// The updatable-index writer state (stable ids, policy, epoch).
    Updatable,
    /// The sharded-index manifest (shard files, checksums, id ranges).
    ShardManifest,
}

impl SectionKind {
    /// The on-disk code of this section kind.
    pub fn code(self) -> u32 {
        match self {
            SectionKind::Meta => 1,
            SectionKind::Ordering => 2,
            SectionKind::Factors => 3,
            SectionKind::Bounds => 4,
            SectionKind::Features => 5,
            SectionKind::Stats => 6,
            SectionKind::Graph => 7,
            SectionKind::Updatable => 8,
            SectionKind::ShardManifest => 10,
        }
    }

    /// The section kind of an on-disk code, if this build knows it.
    pub fn from_code(code: u32) -> Option<Self> {
        Some(match code {
            1 => SectionKind::Meta,
            2 => SectionKind::Ordering,
            3 => SectionKind::Factors,
            4 => SectionKind::Bounds,
            5 => SectionKind::Features,
            6 => SectionKind::Stats,
            7 => SectionKind::Graph,
            8 => SectionKind::Updatable,
            10 => SectionKind::ShardManifest,
            _ => return None,
        })
    }

    /// Stable human-readable name (used in errors and by `inspect`).
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Meta => "meta",
            SectionKind::Ordering => "ordering",
            SectionKind::Factors => "factors",
            SectionKind::Bounds => "bounds",
            SectionKind::Features => "features",
            SectionKind::Stats => "stats",
            SectionKind::Graph => "graph",
            SectionKind::Updatable => "updatable",
            SectionKind::ShardManifest => "shard-manifest",
        }
    }
}

fn name_of_code(code: u32) -> &'static str {
    SectionKind::from_code(code).map_or("unknown", SectionKind::name)
}

/// What an index file holds. Code 2 (the retired EMR baseline flavor) is
/// reserved: it fails to load like any unknown flavor, and it is never
/// reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileFlavor {
    /// An immutable serving index ([`OutOfSampleIndex`]).
    Index,
    /// The clean-epoch state of an [`UpdatableIndex`] (graph + ids included).
    Updatable,
}

impl FileFlavor {
    fn code(self) -> u64 {
        match self {
            FileFlavor::Index => 0,
            FileFlavor::Updatable => 1,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        Some(match code {
            0 => FileFlavor::Index,
            1 => FileFlavor::Updatable,
            _ => return None,
        })
    }
}

impl fmt::Display for FileFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FileFlavor::Index => "index",
            FileFlavor::Updatable => "updatable-index",
        })
    }
}

// ---------------------------------------------------------------------------
// Streaming writer
// ---------------------------------------------------------------------------

/// Streams a `MOG1` container to any [`Write`] sink: header first, then each
/// section payload as it is produced, then the checksummed table and footer
/// on [`SectionWriter::finish`]. No seeking, no buffering of the whole file.
#[derive(Debug)]
pub struct SectionWriter<W: Write> {
    sink: W,
    offset: u64,
    table: Vec<(u32, u64, u64, u64)>,
}

impl<W: Write> SectionWriter<W> {
    /// Write the header and return a writer ready for sections.
    pub fn new(mut sink: W) -> Result<Self, PersistError> {
        sink.write_all(&MAGIC)
            .and_then(|_| sink.write_all(&FORMAT_VERSION.to_le_bytes()))
            .map_err(|e| io_err("write file header", None, e))?;
        Ok(SectionWriter {
            sink,
            offset: HEADER_LEN as u64,
            table: Vec::new(),
        })
    }

    /// Append one section.
    pub fn write_section(&mut self, kind: SectionKind, payload: &[u8]) -> Result<(), PersistError> {
        self.write_raw_section(kind.code(), payload)
    }

    /// Append a section with a raw kind code (unknown codes are legal in the
    /// format — loaders skip them; this is also how the corruption tests
    /// craft hostile files).
    pub fn write_raw_section(&mut self, code: u32, payload: &[u8]) -> Result<(), PersistError> {
        self.sink
            .write_all(payload)
            .map_err(|e| io_err("write section payload", None, e))?;
        self.table
            .push((code, self.offset, payload.len() as u64, checksum64(payload)));
        self.offset += payload.len() as u64;
        Ok(())
    }

    /// Write the section table and footer, flush, and return the sink.
    pub fn finish(mut self) -> Result<W, PersistError> {
        let mut table = Vec::with_capacity(self.table.len() * TABLE_ENTRY_LEN);
        for &(code, offset, len, checksum) in &self.table {
            table.extend_from_slice(&code.to_le_bytes());
            table.extend_from_slice(&offset.to_le_bytes());
            table.extend_from_slice(&len.to_le_bytes());
            table.extend_from_slice(&checksum.to_le_bytes());
        }
        let table_checksum = checksum64(&table);
        self.sink
            .write_all(&table)
            .and_then(|_| {
                self.sink
                    .write_all(&(self.table.len() as u64).to_le_bytes())
            })
            .and_then(|_| self.sink.write_all(&table_checksum.to_le_bytes()))
            .and_then(|_| self.sink.write_all(&FOOTER_MAGIC))
            .and_then(|_| self.sink.flush())
            .map_err(|e| io_err("write section table", None, e))?;
        Ok(self.sink)
    }
}

// ---------------------------------------------------------------------------
// Container parsing
// ---------------------------------------------------------------------------

/// A parsed container: its header's format version and its sections.
#[derive(Debug)]
pub(crate) struct Container<'a> {
    pub(crate) version: u32,
    pub(crate) sections: Vec<RawSection<'a>>,
}

#[derive(Debug)]
pub(crate) struct RawSection<'a> {
    pub(crate) code: u32,
    #[allow(dead_code)]
    pub(crate) offset: usize,
    pub(crate) bytes: &'a [u8],
}

fn read_u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
}

/// Validate the container structure and every checksum, returning the
/// version and the raw sections. This is the only path into the payload
/// bytes: nothing is interpreted before its checksum has been verified.
pub(crate) fn parse_container(bytes: &[u8]) -> Result<Container<'_>, PersistError> {
    if bytes.len() < 4 {
        return Err(PersistError::Truncated {
            what: "file header",
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    }
    let found: [u8; 4] = bytes[0..4].try_into().expect("4-byte slice");
    if found != MAGIC {
        return Err(PersistError::BadMagic { found });
    }
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::Truncated {
            what: "file header",
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    if !(OLDEST_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion { found: version });
    }
    if bytes.len() < HEADER_LEN + FOOTER_LEN {
        return Err(PersistError::Truncated {
            what: "file footer",
            needed: HEADER_LEN + FOOTER_LEN,
            available: bytes.len(),
        });
    }
    let footer_start = bytes.len() - FOOTER_LEN;
    if bytes[footer_start + 16..] != FOOTER_MAGIC {
        return Err(PersistError::Corrupt {
            what: "file footer",
            detail: "trailer magic missing (file truncated or overwritten)".into(),
        });
    }
    let count = read_u64_at(bytes, footer_start);
    let stored_table_checksum = read_u64_at(bytes, footer_start + 8);
    let table_len = count
        .checked_mul(TABLE_ENTRY_LEN as u64)
        .filter(|&l| l <= (footer_start - HEADER_LEN) as u64)
        .ok_or_else(|| PersistError::Corrupt {
            what: "section table",
            detail: format!("{count} sections do not fit in the file"),
        })? as usize;
    let table_start = footer_start - table_len;
    let table = &bytes[table_start..footer_start];
    if checksum64(table) != stored_table_checksum {
        return Err(PersistError::Corrupt {
            what: "section table",
            detail: "table checksum mismatch".into(),
        });
    }

    let mut sections = Vec::with_capacity(count as usize);
    let mut seen = std::collections::BTreeSet::new();
    for i in 0..count as usize {
        let at = i * TABLE_ENTRY_LEN;
        let code = u32::from_le_bytes(table[at..at + 4].try_into().expect("4-byte slice"));
        let offset = read_u64_at(table, at + 4);
        let len = read_u64_at(table, at + 12);
        let checksum = read_u64_at(table, at + 20);
        let end = offset
            .checked_add(len)
            .ok_or_else(|| PersistError::Corrupt {
                what: "section table",
                detail: format!("section '{}' extent overflows", name_of_code(code)),
            })?;
        if offset < HEADER_LEN as u64 || end > table_start as u64 {
            return Err(PersistError::Corrupt {
                what: "section table",
                detail: format!(
                    "section '{}' [{offset}, {end}) lies outside the payload area",
                    name_of_code(code)
                ),
            });
        }
        if SectionKind::from_code(code).is_some() && !seen.insert(code) {
            return Err(PersistError::Corrupt {
                what: "section table",
                detail: format!("duplicate section '{}'", name_of_code(code)),
            });
        }
        let payload = &bytes[offset as usize..end as usize];
        if checksum64(payload) != checksum {
            return Err(PersistError::ChecksumMismatch {
                section: name_of_code(code),
            });
        }
        sections.push(RawSection {
            code,
            offset: offset as usize,
            bytes: payload,
        });
    }
    Ok(Container { version, sections })
}

pub(crate) fn find_section<'a>(
    sections: &'a [RawSection<'a>],
    kind: SectionKind,
) -> Result<&'a [u8], PersistError> {
    sections
        .iter()
        .find(|s| s.code == kind.code())
        .map(|s| s.bytes)
        .ok_or(PersistError::MissingSection {
            section: kind.name(),
        })
}

fn decode_err(section: SectionKind) -> impl Fn(CoreError) -> PersistError {
    move |source| PersistError::SectionDecode {
        section: section.name(),
        source,
    }
}

// ---------------------------------------------------------------------------
// Section payload codecs
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Meta {
    flavor: FileFlavor,
    params: MrParams,
    factorization: Factorization,
    oos_config: OutOfSampleConfig,
    items: usize,
    dim: usize,
}

fn encode_meta(meta: &Meta) -> Vec<u8> {
    let mut out = Vec::with_capacity(7 * 8);
    codec::put_u64(&mut out, meta.flavor.code());
    codec::put_f64(&mut out, meta.params.alpha);
    codec::put_u64(
        &mut out,
        match meta.factorization {
            Factorization::Incomplete => 0,
            Factorization::Complete => 1,
        },
    );
    codec::put_usize(&mut out, meta.oos_config.num_neighbors);
    codec::put_usize(&mut out, meta.oos_config.cluster_probes);
    codec::put_usize(&mut out, meta.items);
    codec::put_usize(&mut out, meta.dim);
    out
}

fn decode_meta(bytes: &[u8]) -> Result<Meta, PersistError> {
    let err = decode_err(SectionKind::Meta);
    let mut r = ByteReader::new(bytes);
    let flavor_code = r.take_u64("meta flavor").map_err(&err)?;
    let flavor = FileFlavor::from_code(flavor_code).ok_or_else(|| {
        err(CoreError::InvalidInput(format!(
            "unknown file flavor {flavor_code}"
        )))
    })?;
    let alpha = r.take_f64("meta alpha").map_err(&err)?;
    let params = MrParams::new(alpha).map_err(&err)?;
    let factorization = match r.take_u64("meta factorization").map_err(&err)? {
        0 => Factorization::Incomplete,
        1 => Factorization::Complete,
        other => {
            return Err(err(CoreError::InvalidInput(format!(
                "unknown factorization code {other}"
            ))))
        }
    };
    let num_neighbors = r.take_usize("meta oos neighbours").map_err(&err)?;
    let cluster_probes = r.take_usize("meta cluster probes").map_err(&err)?;
    let items = r.take_usize("meta item count").map_err(&err)?;
    let dim = r.take_usize("meta dimensionality").map_err(&err)?;
    r.finish("meta").map_err(&err)?;
    Ok(Meta {
        flavor,
        params,
        factorization,
        oos_config: OutOfSampleConfig {
            num_neighbors,
            cluster_probes,
        },
        items,
        dim,
    })
}

fn encode_bounds(bounds: &ClusterBounds) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_usize(&mut out, bounds.num_clusters());
    for cluster in 0..bounds.num_clusters() {
        codec::put_f64(&mut out, bounds.max_within(cluster));
        let columns = bounds.border_columns(cluster);
        codec::put_usize(&mut out, columns.len());
        for &(j, u) in columns {
            codec::put_usize(&mut out, j);
            codec::put_f64(&mut out, u);
        }
    }
    out
}

fn decode_bounds(bytes: &[u8]) -> Result<ClusterBounds, PersistError> {
    let err = decode_err(SectionKind::Bounds);
    let mut r = ByteReader::new(bytes);
    let num_clusters = r.take_len(16, "bounds cluster count").map_err(&err)?;
    let mut max_within = Vec::with_capacity(num_clusters);
    let mut border_columns = Vec::with_capacity(num_clusters);
    for _ in 0..num_clusters {
        max_within.push(r.take_f64("bounds max-within").map_err(&err)?);
        let len = r.take_len(16, "bounds border-column count").map_err(&err)?;
        let mut columns = Vec::with_capacity(len);
        for _ in 0..len {
            let j = r.take_usize("bounds border column").map_err(&err)?;
            let u = r.take_f64("bounds border maximum").map_err(&err)?;
            columns.push((j, u));
        }
        border_columns.push(columns);
    }
    r.finish("bounds").map_err(&err)?;
    ClusterBounds::from_raw_parts(max_within, border_columns).map_err(&err)
}

/// The v2 `factors` payload: exactly what the search layout keeps of the
/// factors, so a load decodes it without a transpose of its own.
///
/// ```text
/// n, nnz                  u64 each: the dimension, the strictly-upper nonzeros
/// ptr                     (n + 1) × u32: row offsets of U = Lᵀ's strict rows
/// cols                    nnz × u32: columns, ascending within a row
/// vals                    nnz × f64: the values l_ji, as the factorization wrote them
/// d                       n × f64: the diagonal factor D
/// boosted pivots          u64
/// ```
fn encode_factors(index: &MogulIndex) -> Vec<u8> {
    let (upper, d) = index.layout.factors();
    let nnz = upper.cols.len();
    let mut out = Vec::with_capacity(24 + 4 * (upper.ptr.len() + nnz) + 8 * (nnz + d.len()));
    codec::put_usize(&mut out, d.len());
    codec::put_usize(&mut out, nnz);
    for &offset in &upper.ptr {
        codec::put_u32(&mut out, offset);
    }
    for &j in &upper.cols {
        codec::put_u32(&mut out, j);
    }
    for &v in upper.vals.iter().chain(d) {
        codec::put_f64(&mut out, v);
    }
    codec::put_usize(&mut out, index.stats.boosted_pivots);
    out
}

/// The stored factors as the search layout's constructor takes them —
/// strictly-upper rows of `U = Lᵀ` and `D` — plus the boosted-pivot
/// count. A v2 payload holds them as they are (every count is checked
/// against the remaining bytes before its vector is allocated); a v1
/// payload holds the CSR `L`, whose strictly-lower entries are transposed.
/// Their structure is checked by [`SearchLayout::new`].
fn decode_factors(
    bytes: &[u8],
    version: u32,
) -> Result<(StrictRows, Vec<f64>, usize), PersistError> {
    let err = decode_err(SectionKind::Factors);
    let mut r = ByteReader::new(bytes);
    let stored = if version == 1 {
        let factors = codec::decode_ldl_factors(&mut r, "factors").map_err(&err)?;
        let upper = StrictRows::upper_of_unit_lower(&factors.l).map_err(&err)?;
        (upper, factors.d, factors.boosted_pivots)
    } else {
        let n = r.take_usize("factor dimension").map_err(&err)?;
        let nnz = r.take_usize("strictly-upper nnz").map_err(&err)?;
        let ptr = r
            .take_u32s(n.saturating_add(1), "strictly-upper row offsets")
            .map_err(&err)?;
        let cols = r.take_u32s(nnz, "strictly-upper columns").map_err(&err)?;
        let vals = r.take_f64s(nnz, "strictly-upper values").map_err(&err)?;
        let d = r.take_f64s(n, "diagonal factor").map_err(&err)?;
        let boosted = r.take_usize("boosted pivots").map_err(&err)?;
        (StrictRows { ptr, cols, vals }, d, boosted)
    };
    r.finish("factors").map_err(&err)?;
    Ok(stored)
}

/// The features section. A checksum only proves the bytes are the ones that
/// were written: a NaN or infinity in them is rejected here, by the
/// [`FeatureMatrix`] constructor, before it can reach a distance.
fn decode_features(bytes: &[u8]) -> Result<FeatureMatrix, PersistError> {
    let err = decode_err(SectionKind::Features);
    let mut r = ByteReader::new(bytes);
    let features = codec::decode_features(&mut r, "features").map_err(&err)?;
    r.finish("features").map_err(&err)?;
    Ok(features)
}

fn encode_stats(stats: &PrecomputeStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(7 * 8);
    codec::put_f64(&mut out, stats.ordering_secs);
    codec::put_f64(&mut out, stats.assembly_secs);
    codec::put_f64(&mut out, stats.factorization_secs);
    codec::put_f64(&mut out, stats.bounds_secs);
    codec::put_usize(&mut out, stats.l_nnz);
    codec::put_usize(&mut out, stats.boosted_pivots);
    codec::put_usize(&mut out, stats.fill_in);
    out
}

fn decode_stats(bytes: &[u8]) -> Result<PrecomputeStats, PersistError> {
    let err = decode_err(SectionKind::Stats);
    let mut r = ByteReader::new(bytes);
    let stats = PrecomputeStats {
        ordering_secs: r.take_f64("stats ordering secs").map_err(&err)?,
        assembly_secs: r.take_f64("stats assembly secs").map_err(&err)?,
        factorization_secs: r.take_f64("stats factorization secs").map_err(&err)?,
        bounds_secs: r.take_f64("stats bounds secs").map_err(&err)?,
        l_nnz: r.take_usize("stats l nnz").map_err(&err)?,
        boosted_pivots: r.take_usize("stats boosted pivots").map_err(&err)?,
        fill_in: r.take_usize("stats fill-in").map_err(&err)?,
    };
    r.finish("stats").map_err(&err)?;
    Ok(stats)
}

#[derive(Debug, Clone)]
struct UpdatableMeta {
    sigma: f64,
    knn_k: usize,
    max_support: usize,
    max_support_fraction: f64,
    clustering: ModularityConfig,
    epoch: u64,
    next_id: usize,
    ids: Vec<usize>,
}

fn decode_updatable_meta(bytes: &[u8]) -> Result<UpdatableMeta, PersistError> {
    let err = decode_err(SectionKind::Updatable);
    let mut r = ByteReader::new(bytes);
    let meta = UpdatableMeta {
        sigma: r.take_f64("updatable sigma").map_err(&err)?,
        knn_k: r.take_usize("updatable knn k").map_err(&err)?,
        max_support: r.take_usize("updatable max support").map_err(&err)?,
        max_support_fraction: r.take_f64("updatable support fraction").map_err(&err)?,
        clustering: ModularityConfig {
            max_levels: r.take_usize("updatable clustering levels").map_err(&err)?,
            max_sweeps: r.take_usize("updatable clustering sweeps").map_err(&err)?,
            min_gain: r.take_f64("updatable clustering gain").map_err(&err)?,
        },
        epoch: r.take_u64("updatable epoch").map_err(&err)?,
        next_id: r.take_usize("updatable next id").map_err(&err)?,
        ids: r.take_usize_vec("updatable stable ids").map_err(&err)?,
    };
    r.finish("updatable").map_err(&err)?;
    // The id → node table is sized by `next_id` — the one count a file's
    // byte budget cannot bound (ids are never reused, so the counter can
    // legitimately exceed the live item count); the format caps it instead.
    if meta.next_id > MAX_STABLE_IDS {
        return Err(err(CoreError::InvalidInput(format!(
            "next-id counter {} exceeds the format limit of {MAX_STABLE_IDS} lifetime stable ids",
            meta.next_id
        ))));
    }
    Ok(meta)
}

// ---------------------------------------------------------------------------
// Saving
// ---------------------------------------------------------------------------

fn write_index_sections<W: Write>(
    writer: &mut SectionWriter<W>,
    meta: &Meta,
    oos: &OutOfSampleIndex,
) -> Result<(), PersistError> {
    let index = oos.index();
    writer.write_section(SectionKind::Meta, &encode_meta(meta))?;

    let mut payload = Vec::new();
    graph_codec::encode_ordering(index.ordering(), &mut payload);
    writer.write_section(SectionKind::Ordering, &payload)?;

    writer.write_section(SectionKind::Factors, &encode_factors(index))?;
    writer.write_section(SectionKind::Bounds, &encode_bounds(&index.bounds))?;
    payload.clear();
    codec::encode_features(oos.features(), &mut payload);
    writer.write_section(SectionKind::Features, &payload)?;
    writer.write_section(SectionKind::Stats, &encode_stats(&index.precompute_stats()))?;
    Ok(())
}

/// Write an immutable serving index to any [`Write`] sink.
pub fn save_index_to<W: Write>(oos: &OutOfSampleIndex, sink: W) -> Result<W, PersistError> {
    let meta = Meta {
        flavor: FileFlavor::Index,
        params: oos.index().params(),
        factorization: oos.index().factorization(),
        oos_config: oos.config(),
        items: oos.index().num_nodes(),
        dim: oos.feature_dim(),
    };
    let mut writer = SectionWriter::new(sink)?;
    write_index_sections(&mut writer, &meta, oos)?;
    writer.finish()
}

/// Write an immutable serving index to a file (atomically: the bytes land in
/// a sibling temporary file first and are renamed over `path` on success, so
/// a crash mid-write never leaves a half-written index at `path`).
pub fn save_index(oos: &OutOfSampleIndex, path: impl AsRef<Path>) -> Result<(), PersistError> {
    save_file(path.as_ref(), |sink| save_index_to(oos, sink).map(drop))
}

/// Write the clean-epoch state of an [`UpdatableIndex`] to a sink.
///
/// Fails with [`PersistError::InvalidState`] unless the current epoch is
/// clean (no correction debt, no tombstones) — call
/// [`UpdatableIndex::rebuild`] first, or use the auto-checkpointing of
/// `mogul-serve`'s `IndexWriter`, which saves right after rebuilds.
pub fn save_updatable_to<W: Write>(index: &UpdatableIndex, sink: W) -> Result<W, PersistError> {
    let view = index.persist_view().ok_or_else(|| {
        PersistError::InvalidState(
            "the updatable index carries correction debt or tombstones; only a clean epoch \
             (fresh factorization) can be persisted — call rebuild() first"
                .into(),
        )
    })?;
    if view.next_id > MAX_STABLE_IDS {
        return Err(PersistError::InvalidState(format!(
            "the lifetime stable-id counter ({}) exceeds the format limit of \
             {MAX_STABLE_IDS} ids",
            view.next_id
        )));
    }
    let meta = Meta {
        flavor: FileFlavor::Updatable,
        params: view.config.params,
        factorization: view.config.factorization,
        oos_config: view.oos_config,
        items: view.ids.len(),
        dim: view.base.feature_dim(),
    };
    let mut writer = SectionWriter::new(sink)?;
    write_index_sections(&mut writer, &meta, view.base)?;

    let mut payload = Vec::new();
    graph_codec::encode_graph(view.graph, &mut payload);
    writer.write_section(SectionKind::Graph, &payload)?;

    payload.clear();
    codec::put_f64(&mut payload, view.sigma);
    codec::put_usize(&mut payload, view.knn_k);
    codec::put_usize(&mut payload, view.policy.max_support);
    codec::put_f64(&mut payload, view.policy.max_support_fraction);
    codec::put_usize(&mut payload, view.config.clustering.max_levels);
    codec::put_usize(&mut payload, view.config.clustering.max_sweeps);
    codec::put_f64(&mut payload, view.config.clustering.min_gain);
    codec::put_u64(&mut payload, view.epoch);
    codec::put_usize(&mut payload, view.next_id);
    codec::put_usize_slice(&mut payload, view.ids);
    writer.write_section(SectionKind::Updatable, &payload)?;
    writer.finish()
}

/// Write the clean-epoch state of an [`UpdatableIndex`] to a file
/// (atomically, like [`save_index`]).
pub fn save_updatable(index: &UpdatableIndex, path: impl AsRef<Path>) -> Result<(), PersistError> {
    save_file(path.as_ref(), |sink| {
        save_updatable_to(index, sink).map(drop)
    })
}

/// Stream through a temp file + fsync + atomic rename so `path` only ever
/// holds a complete container — even across a crash or power loss.
///
/// The temp name embeds the process id and a per-process counter, so
/// concurrent saves (same or different target paths, same directory) never
/// interleave into one temp file. The file is `sync_all`ed *before* the
/// rename (otherwise the rename could become durable ahead of the data,
/// replacing a good previous checkpoint with a torn one), and the parent
/// directory is fsynced after it on a best-effort basis so the rename
/// itself is durable.
pub(crate) fn save_file(
    path: &Path,
    write: impl FnOnce(&mut std::io::BufWriter<&std::fs::File>) -> Result<(), PersistError>,
) -> Result<(), PersistError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SAVE_COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut tmp_name = path.file_name().map(|n| n.to_os_string()).ok_or_else(|| {
        PersistError::InvalidState(format!("'{}' has no file name", path.display()))
    })?;
    tmp_name.push(format!(
        ".tmp-{}-{}",
        std::process::id(),
        SAVE_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);

    let result = (|| {
        let file =
            std::fs::File::create(&tmp).map_err(|e| io_err("create index file", Some(&tmp), e))?;
        let mut sink = std::io::BufWriter::new(&file);
        write(&mut sink)?;
        drop(sink);
        file.sync_all()
            .map_err(|e| io_err("sync index file", Some(&tmp), e))?;
        std::fs::rename(&tmp, path).map_err(|e| io_err("rename index file", Some(path), e))
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    // Durability of the rename itself; not all platforms/filesystems allow
    // fsyncing a directory handle, so failures here are non-fatal.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

fn read_file(path: &Path) -> Result<Vec<u8>, PersistError> {
    std::fs::read(path).map_err(|e| io_err("read index file", Some(path), e))
}

/// Decode the sections shared by the `index` and `updatable` flavors into a
/// ready-to-serve [`OutOfSampleIndex`] — straight reconstruction, no
/// clustering and no factorization.
fn decode_oos(container: &Container<'_>, meta: &Meta) -> Result<OutOfSampleIndex, PersistError> {
    let sections = &container.sections;
    let mut r = ByteReader::new(find_section(sections, SectionKind::Ordering)?);
    let ordering = graph_codec::decode_ordering(&mut r, "ordering")
        .and_then(|o| r.finish("ordering").map(|_| o))
        .map_err(decode_err(SectionKind::Ordering))?;

    let (upper, d, boosted_pivots) = decode_factors(
        find_section(sections, SectionKind::Factors)?,
        container.version,
    )?;

    let bounds = decode_bounds(find_section(sections, SectionKind::Bounds)?)?;
    let features = decode_features(find_section(sections, SectionKind::Features)?)?;
    let stats = decode_stats(find_section(sections, SectionKind::Stats)?)?;

    let n = meta.items;
    if ordering.len() != n || d.len() != n || features.len() != n {
        return Err(PersistError::Corrupt {
            what: "cross-section consistency",
            detail: format!(
                "meta declares {n} items but ordering covers {}, factors {}, features {}",
                ordering.len(),
                d.len(),
                features.len()
            ),
        });
    }
    if boosted_pivots != stats.boosted_pivots {
        return Err(PersistError::Corrupt {
            what: "cross-section consistency",
            detail: format!(
                "factors record {boosted_pivots} boosted pivots but stats record {}",
                stats.boosted_pivots
            ),
        });
    }
    if bounds.num_clusters() != ordering.num_clusters() {
        return Err(PersistError::Corrupt {
            what: "cross-section consistency",
            detail: format!(
                "bounds cover {} clusters but the ordering has {}",
                bounds.num_clusters(),
                ordering.num_clusters()
            ),
        });
    }
    // Border columns index the permuted score panel at query time
    // (`cluster_estimates_panel`'s row `j`); an out-of-range column would defer a
    // panic into a serving worker, so reject it at load.
    for cluster in 0..bounds.num_clusters() {
        if let Some(&(j, _)) = bounds
            .border_columns(cluster)
            .iter()
            .find(|&&(j, _)| j >= n)
        {
            return Err(PersistError::SectionDecode {
                section: SectionKind::Bounds.name(),
                source: CoreError::InvalidInput(format!(
                    "cluster {cluster} references border column {j} but the index has {n} nodes"
                )),
            });
        }
    }
    if features.dim() != meta.dim {
        return Err(PersistError::Corrupt {
            what: "cross-section consistency",
            detail: format!(
                "meta declares dimensionality {} but features have {}",
                meta.dim,
                features.dim()
            ),
        });
    }

    let layout =
        SearchLayout::new(upper, d, &ordering).map_err(decode_err(SectionKind::Factors))?;
    let index = MogulIndex {
        params: meta.params,
        factorization: meta.factorization,
        ordering,
        layout,
        bounds,
        stats,
        unit_lower: std::sync::OnceLock::new(),
    };
    OutOfSampleIndex::new(index, Arc::new(features), meta.oos_config)
        .map_err(decode_err(SectionKind::Meta))
}

/// Load an immutable serving index from raw container bytes.
pub fn load_index_from_bytes(bytes: &[u8]) -> Result<OutOfSampleIndex, PersistError> {
    let container = parse_container(bytes)?;
    let meta = decode_meta(find_section(&container.sections, SectionKind::Meta)?)?;
    if meta.flavor != FileFlavor::Index {
        return Err(PersistError::InvalidState(format!(
            "this is an {} file; load it with the matching loader \
             (load_updatable) or serve it via load_serving",
            meta.flavor
        )));
    }
    decode_oos(&container, &meta)
}

/// Load an immutable serving index from a file written by [`save_index`].
pub fn load_index(path: impl AsRef<Path>) -> Result<OutOfSampleIndex, PersistError> {
    load_index_from_bytes(&read_file(path.as_ref())?)
}

/// Load an [`UpdatableIndex`] from raw container bytes.
pub fn load_updatable_from_bytes(bytes: &[u8]) -> Result<UpdatableIndex, PersistError> {
    let container = parse_container(bytes)?;
    let meta = decode_meta(find_section(&container.sections, SectionKind::Meta)?)?;
    load_updatable_from_container(&container, &meta)
}

/// The updatable-flavor loader over an already-parsed (and
/// checksum-verified) container — shared by [`load_updatable_from_bytes`]
/// and [`load_serving_from_bytes`] so the warm-start path checksums the
/// file once, not twice.
fn load_updatable_from_container(
    container: &Container<'_>,
    meta: &Meta,
) -> Result<UpdatableIndex, PersistError> {
    let sections = &container.sections;
    if meta.flavor != FileFlavor::Updatable {
        return Err(PersistError::InvalidState(format!(
            "this is an {} file, not an updatable-index file",
            meta.flavor
        )));
    }
    let oos = Arc::new(decode_oos(container, meta)?);

    let mut r = ByteReader::new(find_section(sections, SectionKind::Graph)?);
    // A clean epoch's graph covers exactly the indexed items; the bound
    // also keeps a hostile node count from allocating an adjacency table.
    let graph = graph_codec::decode_graph(&mut r, "graph", meta.items)
        .and_then(|g| r.finish("graph").map(|_| g))
        .map_err(decode_err(SectionKind::Graph))?;

    let u = decode_updatable_meta(find_section(sections, SectionKind::Updatable)?)?;
    let config = MogulConfig {
        params: meta.params,
        factorization: meta.factorization,
        clustering: u.clustering,
    };
    UpdatableIndex::from_parts(
        config,
        u.knn_k,
        meta.oos_config,
        crate::update::RebuildPolicy {
            max_support: u.max_support,
            max_support_fraction: u.max_support_fraction,
        },
        u.sigma,
        graph,
        oos,
        u.ids,
        u.next_id,
        u.epoch,
    )
    .map_err(decode_err(SectionKind::Updatable))
}

/// Load an [`UpdatableIndex`] from a file written by [`save_updatable`].
pub fn load_updatable(path: impl AsRef<Path>) -> Result<UpdatableIndex, PersistError> {
    load_updatable_from_bytes(&read_file(path.as_ref())?)
}

/// Load either flavor as an epoch-stamped [`IndexSnapshot`] — the
/// warm-start entry point `mogul-serve` builds on. An `index` file becomes
/// an epoch-0 snapshot with identity ids; an `updatable` file restores its
/// persisted epoch and stable-id mapping (so ids handed out before the save
/// keep resolving after the restart).
pub fn load_serving_from_bytes(bytes: &[u8]) -> Result<Arc<IndexSnapshot>, PersistError> {
    let container = parse_container(bytes)?;
    let sections = &container.sections;
    let meta = decode_meta(find_section(sections, SectionKind::Meta)?)?;
    // Serving needs only the snapshot: skip the writer-side state (the graph
    // decode, adjacency/degree tables and feature clone a read-only snapshot
    // never touches). `load_updatable` is the path that reconstructs the
    // full writer.
    let oos = Arc::new(decode_oos(&container, &meta)?);
    let n = oos.index().num_nodes();
    let (ids, next_id, epoch) = match meta.flavor {
        FileFlavor::Index => ((0..n).collect(), n, 0),
        FileFlavor::Updatable => {
            let u = decode_updatable_meta(find_section(sections, SectionKind::Updatable)?)?;
            (u.ids, u.next_id, u.epoch)
        }
    };
    crate::update::clean_snapshot(oos, ids, next_id, epoch)
        .map_err(decode_err(SectionKind::Updatable))
}

/// [`load_serving_from_bytes`] over a file path.
pub fn load_serving(path: impl AsRef<Path>) -> Result<Arc<IndexSnapshot>, PersistError> {
    load_serving_from_bytes(&read_file(path.as_ref())?)
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

/// One row of [`IndexFileInfo`]: a section as recorded in the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Stable name (`"unknown"` for codes this build does not know).
    pub name: &'static str,
    /// Raw kind code.
    pub code: u32,
    /// Byte offset of the payload within the file.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// Recorded (and verified) FNV-1a checksum.
    pub checksum: u64,
}

/// Everything [`inspect`] reports about an index file.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexFileInfo {
    /// Format version from the header.
    pub version: u32,
    /// Total file size in bytes.
    pub file_len: usize,
    /// What the file holds.
    pub flavor: FileFlavor,
    /// Number of indexed items.
    pub items: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Manifold Ranking `α`.
    pub alpha: f64,
    /// Which factorization the stored factors came from.
    pub factorization: Factorization,
    /// The sections, in table order (checksums already verified).
    pub sections: Vec<SectionInfo>,
}

impl fmt::Display for IndexFileInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "MOG1 index file: format v{}, flavor {}, {} bytes",
            self.version, self.flavor, self.file_len
        )?;
        writeln!(
            f,
            "  {} items, dim {}, alpha {}, {:?} factorization",
            self.items, self.dim, self.alpha, self.factorization
        )?;
        writeln!(
            f,
            "  {:<12} {:>10} {:>12}  checksum",
            "section", "offset", "bytes"
        )?;
        for s in &self.sections {
            writeln!(
                f,
                "  {:<12} {:>10} {:>12}  {:016x}",
                s.name, s.offset, s.len, s.checksum
            )?;
        }
        Ok(())
    }
}

/// Validate a container (all checksums included) and summarize it without
/// reconstructing the index.
pub fn inspect_bytes(bytes: &[u8]) -> Result<IndexFileInfo, PersistError> {
    let Container { version, sections } = parse_container(bytes)?;
    let meta = decode_meta(find_section(&sections, SectionKind::Meta)?)?;
    Ok(IndexFileInfo {
        version,
        file_len: bytes.len(),
        flavor: meta.flavor,
        items: meta.items,
        dim: meta.dim,
        alpha: meta.params.alpha,
        factorization: meta.factorization,
        sections: sections
            .iter()
            .map(|s| SectionInfo {
                name: name_of_code(s.code),
                code: s.code,
                offset: s.offset,
                len: s.bytes.len(),
                checksum: checksum64(s.bytes),
            })
            .collect(),
    })
}

/// [`inspect_bytes`] over a file path.
pub fn inspect(path: impl AsRef<Path>) -> Result<IndexFileInfo, PersistError> {
    inspect_bytes(&read_file(path.as_ref())?)
}
