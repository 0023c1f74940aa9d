//! Sharded-index persistence: `S` MOG1 shard files plus a checksummed
//! manifest, warm-started in parallel.
//!
//! A saved sharded index is a **directory**:
//!
//! ```text
//! <dir>/manifest.mog1                            MOG1 container, one `shard-manifest` section
//! <dir>/shard-0000-e00000000000000000012.mog1    ordinary updatable-index file, named by
//! <dir>/shard-0001-e00000000000000000007.mog1    shard and pinned shard epoch
//! ...
//! ```
//!
//! The manifest rename commits a save (see [`save_sharded`]); the loader
//! takes every name from the manifest, so directories written with the
//! older fixed names (`shard-0000.mog1`) load unchanged.
//!
//! The manifest is itself a MOG1 container — it inherits the whole
//! container discipline for free (magic, version, section table, footer,
//! FNV-1a checksums, fail-closed typed errors) — holding one section whose
//! payload records: a manifest schema version, the sharded epoch, feature
//! dimensionality, partitioner seed, probe count, the parallel flag, and
//! per shard the file name, file checksum, file length, stable-id base
//! range and pinned epoch, followed by the overflow-id history (the shard
//! index of every post-build insert, in global-id order — locals are
//! recomputed at load and cross-checked against each shard's id counter).
//!
//! Every load path fails closed with a typed [`PersistError`]: truncation
//! anywhere, bit flips anywhere (manifest *or* shard file), hostile counts
//! and lengths, path-traversal file names, overlapping or gapped id ranges,
//! missing/swapped/stale shard files, and future versions are all rejected
//! without panicking — the corruption matrix in
//! `crates/core/tests/shard_manifest.rs` probes each of these.

use std::path::Path;

use super::{ShardRouter, ShardedIndex, MAX_SHARDS};
use crate::persist::{
    find_section, io_err, load_updatable_from_bytes, parse_container, save_file, save_updatable_to,
    PersistError, SectionKind, SectionWriter,
};
use crate::update::UpdatableIndex;
use mogul_sparse::persist::{checksum64, put_u64, ByteReader};

/// File name of the manifest inside a sharded-index directory.
pub const MANIFEST_FILE_NAME: &str = "manifest.mog1";

/// Schema version of the manifest payload (independent of the MOG1
/// container version — both are checked).
const MANIFEST_VERSION: u64 = 1;

/// Longest accepted shard file name, in bytes.
const MAX_NAME_LEN: usize = 255;

/// Largest accepted feature dimensionality (mirrors the persist layer's
/// hostile-length discipline: a corrupt count must not drive allocation).
const MAX_DIM: usize = 1 << 20;

/// Largest accepted per-shard build length / overflow count.
const MAX_IDS: usize = 1 << 28;

/// The file name [`save_sharded`] gives shard `shard` at shard epoch
/// `epoch`.
pub fn shard_file_name(shard: usize, epoch: u64) -> String {
    format!("shard-{shard:04}-e{epoch:020}.mog1")
}

/// One shard's entry in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFileEntry {
    /// File name, relative to the manifest's directory.
    pub file_name: String,
    /// FNV-1a checksum of the whole shard file.
    pub checksum: u64,
    /// Length of the shard file in bytes.
    pub file_len: u64,
    /// First global stable id of the shard's build range.
    pub id_base: usize,
    /// Length of the shard's build range.
    pub id_len: usize,
    /// The shard epoch pinned when the checkpoint was written.
    pub epoch: u64,
}

/// Everything the manifest records (the return of [`inspect_manifest`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifestInfo {
    /// The sharded epoch at checkpoint time.
    pub epoch: u64,
    /// Feature dimensionality shared by every shard.
    pub dim: usize,
    /// Partitioner seed the index was built with.
    pub seed: u64,
    /// Shards an out-of-sample query probes.
    pub shard_probes: usize,
    /// Whether warm start loads the shards with scoped threads.
    pub parallel: bool,
    /// Per-shard file entries, shard order.
    pub shards: Vec<ShardFileEntry>,
    /// Owning shard of every overflow global id, in id order.
    pub overflow: Vec<usize>,
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn corrupt(detail: String) -> PersistError {
    PersistError::Corrupt {
        what: "shard manifest",
        detail,
    }
}

fn encode_manifest(info: &ShardManifestInfo) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, MANIFEST_VERSION);
    put_u64(&mut out, info.epoch);
    put_u64(&mut out, info.dim as u64);
    put_u64(&mut out, info.seed);
    put_u64(&mut out, info.shard_probes as u64);
    put_u64(&mut out, u64::from(info.parallel));
    put_u64(&mut out, info.shards.len() as u64);
    for entry in &info.shards {
        put_u64(&mut out, entry.file_name.len() as u64);
        out.extend_from_slice(entry.file_name.as_bytes());
        put_u64(&mut out, entry.checksum);
        put_u64(&mut out, entry.file_len);
        put_u64(&mut out, entry.id_base as u64);
        put_u64(&mut out, entry.id_len as u64);
        put_u64(&mut out, entry.epoch);
    }
    put_u64(&mut out, info.overflow.len() as u64);
    for &shard in &info.overflow {
        put_u64(&mut out, shard as u64);
    }
    out
}

fn decode_err(source: crate::CoreError) -> PersistError {
    PersistError::SectionDecode {
        section: "shard-manifest",
        source,
    }
}

/// Reject file names that could escape the manifest's directory or collide
/// with the manifest itself.
fn validate_file_name(name: &str) -> Result<(), PersistError> {
    if name.is_empty() || name.len() > MAX_NAME_LEN {
        return Err(corrupt(format!(
            "shard file name length {} outside [1, {MAX_NAME_LEN}]",
            name.len()
        )));
    }
    if name == "." || name == ".." || name.contains('/') || name.contains('\\') {
        return Err(corrupt(format!(
            "shard file name {name:?} is not a plain file name"
        )));
    }
    if name == MANIFEST_FILE_NAME {
        return Err(corrupt(
            "shard file name collides with the manifest file".into(),
        ));
    }
    Ok(())
}

fn decode_manifest(payload: &[u8]) -> Result<ShardManifestInfo, PersistError> {
    let mut reader = ByteReader::new(payload);
    let version = reader.take_u64("manifest version").map_err(decode_err)?;
    if version != MANIFEST_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: u32::try_from(version).unwrap_or(u32::MAX),
        });
    }
    let epoch = reader.take_u64("sharded epoch").map_err(decode_err)?;
    let dim = reader.take_usize("feature dimension").map_err(decode_err)?;
    if dim == 0 || dim > MAX_DIM {
        return Err(corrupt(format!(
            "feature dimension {dim} outside [1, {MAX_DIM}]"
        )));
    }
    let seed = reader.take_u64("partitioner seed").map_err(decode_err)?;
    let shard_probes = reader.take_usize("shard probes").map_err(decode_err)?;
    let parallel = match reader.take_u64("parallel flag").map_err(decode_err)? {
        0 => false,
        1 => true,
        other => return Err(corrupt(format!("parallel flag {other} is not 0 or 1"))),
    };
    let shard_count = reader.take_usize("shard count").map_err(decode_err)?;
    if shard_count == 0 || shard_count > MAX_SHARDS {
        return Err(corrupt(format!(
            "shard count {shard_count} outside [1, {MAX_SHARDS}]"
        )));
    }
    if shard_probes == 0 || shard_probes > shard_count {
        return Err(corrupt(format!(
            "shard probe count {shard_probes} outside [1, {shard_count}]"
        )));
    }

    let mut shards = Vec::with_capacity(shard_count);
    let mut next_base = 0usize;
    let mut names = std::collections::BTreeSet::new();
    for s in 0..shard_count {
        let name_len = reader
            .take_usize("shard file name length")
            .map_err(decode_err)?;
        if name_len > MAX_NAME_LEN {
            return Err(corrupt(format!(
                "shard {s} file name length {name_len} exceeds {MAX_NAME_LEN}"
            )));
        }
        let name_bytes = reader
            .take_bytes(name_len, "shard file name")
            .map_err(decode_err)?;
        let file_name = std::str::from_utf8(name_bytes)
            .map_err(|_| corrupt(format!("shard {s} file name is not valid UTF-8")))?
            .to_string();
        validate_file_name(&file_name)?;
        if !names.insert(file_name.clone()) {
            return Err(corrupt(format!("duplicate shard file name {file_name:?}")));
        }
        let checksum = reader.take_u64("shard file checksum").map_err(decode_err)?;
        let file_len = reader.take_u64("shard file length").map_err(decode_err)?;
        if file_len == 0 {
            return Err(corrupt(format!("shard {s} records an empty file")));
        }
        let id_base = reader.take_usize("shard id base").map_err(decode_err)?;
        let id_len = reader
            .take_usize("shard id range length")
            .map_err(decode_err)?;
        if id_len == 0 || id_len > MAX_IDS {
            return Err(corrupt(format!(
                "shard {s} id range length {id_len} outside [1, {MAX_IDS}]"
            )));
        }
        if id_base != next_base {
            return Err(corrupt(format!(
                "shard {s} id range starts at {id_base} but {next_base} expected \
                 (ranges must be contiguous and non-overlapping)"
            )));
        }
        next_base += id_len;
        let shard_epoch = reader.take_u64("shard epoch").map_err(decode_err)?;
        shards.push(ShardFileEntry {
            file_name,
            checksum,
            file_len,
            id_base,
            id_len,
            epoch: shard_epoch,
        });
    }

    let overflow_count = reader.take_len(8, "overflow entries").map_err(decode_err)?;
    if overflow_count > MAX_IDS {
        return Err(corrupt(format!(
            "overflow count {overflow_count} exceeds {MAX_IDS}"
        )));
    }
    let mut overflow = Vec::with_capacity(overflow_count);
    for _ in 0..overflow_count {
        let shard = reader
            .take_usize("overflow shard index")
            .map_err(decode_err)?;
        if shard >= shard_count {
            return Err(corrupt(format!(
                "overflow entry names shard {shard} but only {shard_count} exist"
            )));
        }
        overflow.push(shard);
    }
    reader.finish("shard manifest").map_err(decode_err)?;

    Ok(ShardManifestInfo {
        epoch,
        dim,
        seed,
        shard_probes,
        parallel,
        shards,
        overflow,
    })
}

/// Decode and fully validate a manifest from raw bytes, without touching
/// any shard file.
pub fn inspect_manifest_bytes(bytes: &[u8]) -> Result<ShardManifestInfo, PersistError> {
    let sections = parse_container(bytes)?.sections;
    let payload = find_section(&sections, SectionKind::ShardManifest)?;
    decode_manifest(payload)
}

/// [`inspect_manifest_bytes`] over the manifest inside a sharded-index
/// directory (or a direct path to a manifest file).
pub fn inspect_manifest(path: impl AsRef<Path>) -> Result<ShardManifestInfo, PersistError> {
    let path = path.as_ref();
    let manifest_path = if path.is_dir() {
        path.join(MANIFEST_FILE_NAME)
    } else {
        path.to_path_buf()
    };
    let bytes = std::fs::read(&manifest_path)
        .map_err(|e| io_err("read shard manifest", Some(&manifest_path), e))?;
    inspect_manifest_bytes(&bytes)
}

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

/// Checkpoint a sharded index into `dir` (created if absent): one MOG1 file
/// per shard plus [`MANIFEST_FILE_NAME`], every file written atomically
/// (temp + rename). Shard files are named by shard and epoch
/// ([`shard_file_name`]): a shard that changed gets a name the committed
/// manifest cannot pin, and one that did not is rewritten with the bytes
/// already there (a shard's encoding is a function of its state). Renaming
/// the manifest commits the checkpoint, and the shard files it no longer
/// names are deleted after that. A crash mid-save therefore never
/// invalidates the previous complete checkpoint.
///
/// Every shard must be on a clean epoch; call
/// [`rebuild`](crate::update::WritableIndex::rebuild) first if updates have
/// been applied.
pub fn save_sharded(
    index: &ShardedIndex,
    dir: impl AsRef<Path>,
) -> Result<ShardManifestInfo, PersistError> {
    let dir = dir.as_ref();
    for s in 0..index.num_shards() {
        if !index.shard(s).snapshot().is_clean() {
            return Err(PersistError::InvalidState(format!(
                "shard {s} is not on a clean epoch; call rebuild() before saving"
            )));
        }
    }
    std::fs::create_dir_all(dir)
        .map_err(|e| io_err("create sharded index directory", Some(dir), e))?;

    let router = index.router();
    let mut entries = Vec::with_capacity(index.num_shards());
    for s in 0..index.num_shards() {
        let bytes = save_updatable_to(index.shard(s), Vec::new())?;
        let file_name = shard_file_name(s, index.shard(s).epoch());
        let path = dir.join(&file_name);
        save_file(&path, |sink| {
            use std::io::Write;
            sink.write_all(&bytes)
                .map_err(|e| io_err("write shard file", Some(&path), e))
        })?;
        let (id_base, id_len) = router.base_range(s).expect("shard exists");
        entries.push(ShardFileEntry {
            checksum: checksum64(&bytes),
            file_len: bytes.len() as u64,
            file_name,
            id_base,
            id_len,
            epoch: index.shard(s).epoch(),
        });
    }

    let info = ShardManifestInfo {
        epoch: index.epoch(),
        dim: index.snapshot().feature_dim(),
        seed: index.seed(),
        shard_probes: index.shard_probes(),
        parallel: index.parallel(),
        shards: entries,
        overflow: router.overflow_shards(),
    };
    let payload = encode_manifest(&info);
    let manifest_path = dir.join(MANIFEST_FILE_NAME);
    save_file(&manifest_path, |sink| {
        let mut writer = SectionWriter::new(sink)?;
        writer.write_section(SectionKind::ShardManifest, &payload)?;
        writer.finish().map(drop)
    })?;
    collect_stale_shard_files(dir, &info);
    Ok(info)
}

/// Delete every `shard-*.mog1` file in `dir` that the just-committed
/// manifest does not name — the shard files of superseded checkpoints.
/// Best-effort, like wal segment collection: a file that survives is
/// collected by the next save.
fn collect_stale_shard_files(dir: &Path, info: &ShardManifestInfo) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("shard-")
            && name.ends_with(".mog1")
            && !info.shards.iter().any(|e| e.file_name == name)
        {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

/// Warm-start a sharded index from a directory written by [`save_sharded`].
///
/// The manifest is fully validated first; each shard file is then read,
/// pinned against its recorded length and checksum (a stale or swapped
/// file fails closed before any decoding), and decoded through the ordinary
/// updatable-index loader — in parallel with scoped threads when the
/// checkpoint was configured for it. Cross-file invariants close the loop:
/// every shard must come back on the manifest's pinned epoch, with the
/// manifest's dimensionality, and with an id counter exactly accounted for
/// by its build range plus the recorded overflow history.
pub fn load_sharded(dir: impl AsRef<Path>) -> Result<ShardedIndex, PersistError> {
    let dir = dir.as_ref();
    let manifest_path = dir.join(MANIFEST_FILE_NAME);
    let bytes = std::fs::read(&manifest_path)
        .map_err(|e| io_err("read shard manifest", Some(&manifest_path), e))?;
    let info = inspect_manifest_bytes(&bytes)?;

    let mut shard_bytes = Vec::with_capacity(info.shards.len());
    for entry in &info.shards {
        let path = dir.join(&entry.file_name);
        let data = std::fs::read(&path).map_err(|e| io_err("read shard file", Some(&path), e))?;
        if data.len() as u64 != entry.file_len || checksum64(&data) != entry.checksum {
            return Err(PersistError::Corrupt {
                what: "shard file",
                detail: format!(
                    "{} does not match the manifest (stale, swapped, or corrupted file)",
                    entry.file_name
                ),
            });
        }
        shard_bytes.push(data);
    }

    let shards = load_shard_indexes(&shard_bytes, info.parallel && info.shards.len() > 1)?;

    let lens: Vec<usize> = info.shards.iter().map(|e| e.id_len).collect();
    let router = ShardRouter::from_parts(&lens, &info.overflow)?;
    for (s, (shard, entry)) in shards.iter().zip(&info.shards).enumerate() {
        if shard.epoch() != entry.epoch {
            return Err(PersistError::Corrupt {
                what: "shard file",
                detail: format!(
                    "{} is pinned at epoch {} but holds epoch {} (stale or swapped file)",
                    entry.file_name,
                    entry.epoch,
                    shard.epoch()
                ),
            });
        }
        if shard.snapshot().feature_dim() != info.dim {
            return Err(PersistError::Corrupt {
                what: "shard file",
                detail: format!(
                    "{} holds {}-dimensional features but the manifest records {}",
                    entry.file_name,
                    shard.snapshot().feature_dim(),
                    info.dim
                ),
            });
        }
        let expected_next = entry.id_len + router.overflow_of_shard(s).len();
        if shard.next_stable_id() != expected_next {
            return Err(PersistError::Corrupt {
                what: "shard file",
                detail: format!(
                    "{} has handed out {} local ids but the manifest accounts for \
                     {expected_next} (stale or swapped file)",
                    entry.file_name,
                    shard.next_stable_id()
                ),
            });
        }
    }

    Ok(ShardedIndex::from_parts(
        shards,
        router,
        info.epoch,
        info.shard_probes,
        info.seed,
        info.parallel,
    ))
}

fn load_shard_indexes(
    shard_bytes: &[Vec<u8>],
    parallel: bool,
) -> Result<Vec<UpdatableIndex>, PersistError> {
    if !parallel {
        return shard_bytes
            .iter()
            .map(|b| load_updatable_from_bytes(b))
            .collect();
    }
    let results: Vec<Result<UpdatableIndex, PersistError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shard_bytes
            .iter()
            .map(|b| scope.spawn(move || load_updatable_from_bytes(b)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(PersistError::Corrupt {
                        what: "shard file",
                        detail: "shard loader thread panicked".into(),
                    })
                })
            })
            .collect()
    });
    results.into_iter().collect()
}
