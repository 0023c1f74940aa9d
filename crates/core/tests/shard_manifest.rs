//! Sharded-manifest corruption matrix, in the PR-5/PR-7 fail-closed idiom:
//! every probed mutation of the manifest or its shard files must surface a
//! **typed** [`PersistError`] — never a panic, never a silently wrong index.
//!
//! Layers probed:
//!
//! * **container**: truncation at every byte prefix, a single-bit flip at
//!   every bit of every byte (all bytes of the manifest are covered by the
//!   magic/version check, the section checksums, the table checksum, or the
//!   footer validation), wrong magic, future container versions;
//! * **payload semantics**: future manifest schema versions, hostile shard
//!   counts/dimensions/probe counts, hostile file-name lengths, non-UTF-8 /
//!   path-traversal / duplicate / colliding file names, empty files, zero
//!   and oversized id ranges, overlapping and gapped id ranges, hostile
//!   overflow entries, trailing bytes;
//! * **cross-file**: missing, truncated, bit-flipped, swapped and stale
//!   shard files — each pinned by the manifest's recorded length, checksum
//!   and epoch before any shard bytes are decoded.
//!
//! A committed `golden_shards_v1` fixture pins the on-disk layout: future
//! builds must keep loading it byte-for-byte (regenerate only through the
//! `#[ignore]` test below after an intentional, version-bumped change).

use std::path::{Path, PathBuf};

use mogul_core::persist::{PersistError, FORMAT_VERSION};
use mogul_core::persist::{SectionKind, SectionWriter};
use mogul_core::shard::{
    inspect_manifest, inspect_manifest_bytes, load_sharded, save_sharded, shard_file_name,
    ShardedConfig, ShardedIndex, ShardedSnapshot, ShardedWorkspace, MANIFEST_FILE_NAME,
};
use mogul_core::update::{IndexBuilder, IndexDelta, RebuildPolicy, WritableIndex};
use mogul_sparse::persist::put_u64;

// ---------------------------------------------------------------------------
// Fixture corpus
// ---------------------------------------------------------------------------

fn features() -> Vec<Vec<f64>> {
    (0..20)
        .map(|i| {
            vec![
                (i % 5) as f64 / 5.0 + if i >= 10 { 50.0 } else { 0.0 },
                (i % 7) as f64 / 7.0,
                (i % 3) as f64 / 3.0,
            ]
        })
        .collect()
}

/// Deterministic two-shard index with post-build history: inserts routed to
/// both shards, one removal, then a clean checkpoint (non-trivial epochs
/// and a non-empty overflow table).
fn fixture_index() -> ShardedIndex {
    let config = ShardedConfig::with_shards(2).builder(
        IndexBuilder::new()
            .knn_k(3)
            .rebuild_policy(RebuildPolicy::never()),
    );
    let (mut index, _) = ShardedIndex::build(features(), config).unwrap();
    let mut delta = IndexDelta::new();
    delta
        .insert(vec![0.4, 0.5, 0.6])
        .insert(vec![50.3, 0.5, 0.6])
        .remove(3);
    index.apply(&delta).unwrap();
    index.rebuild().unwrap();
    index
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mogul_shard_manifest_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn saved_fixture(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    save_sharded(&fixture_index(), &dir).unwrap();
    dir
}

fn manifest_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join(MANIFEST_FILE_NAME)).unwrap()
}

/// Path of shard `s`'s file, as the directory's manifest names it.
fn shard_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(&inspect_manifest(dir).unwrap().shards[s].file_name)
}

/// Assert two snapshots hold the same items and answer every one of them
/// bit-identically.
fn assert_same_answers(a: &ShardedSnapshot, b: &ShardedSnapshot, context: &str) {
    assert_eq!(a.item_ids(), b.item_ids(), "{context}");
    let mut ws = ShardedWorkspace::new();
    for id in a.item_ids() {
        let x = a.query_by_id_in(&mut ws, id, 4).unwrap();
        let y = b.query_by_id_in(&mut ws, id, 4).unwrap();
        assert_eq!(x.nodes(), y.nodes(), "{context}: id {id}");
        for (i, j) in x.items().iter().zip(y.items()) {
            assert_eq!(i.score.to_bits(), j.score.to_bits(), "{context}: id {id}");
        }
    }
}

// ---------------------------------------------------------------------------
// Round trip & warm start
// ---------------------------------------------------------------------------

#[test]
fn round_trip_answers_bit_identically() {
    let index = fixture_index();
    let dir = temp_dir("roundtrip");
    let info = save_sharded(&index, &dir).unwrap();
    assert_eq!(info.shards.len(), 2);
    assert_eq!(info.overflow.len(), 2);

    let loaded = load_sharded(&dir).unwrap();
    assert_eq!(loaded.epoch(), index.epoch());
    let epochs = index.snapshot().shard_epochs();
    assert_eq!(loaded.snapshot().shard_epochs(), epochs);
    assert_eq!(loaded.len(), index.len());
    assert_eq!(loaded.router(), index.router());
    for (s, entry) in info.shards.iter().enumerate() {
        assert_eq!(entry.file_name, shard_file_name(s, epochs[s]));
    }
    assert_same_answers(&index.snapshot(), &loaded.snapshot(), "round trip");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The sharded checkpoint is crash-atomic. A save writes every shard file
/// first and commits by renaming the manifest, so a crash before that
/// rename leaves the previous manifest in charge — and every file it pins
/// must still be on disk, unchanged. That state is built here by hand:
/// checkpoint B's shard files land in checkpoint A's directory (exactly
/// what B's save writes before its commit point) while A's manifest stays.
/// The load must come back at A, with A's answers.
#[test]
fn a_crash_before_the_manifest_commit_keeps_the_previous_checkpoint() {
    let mut index = fixture_index();
    let dir = temp_dir("commit");
    let info_a = save_sharded(&index, &dir).unwrap();
    let at_a = index.snapshot();

    let mut delta = IndexDelta::new();
    delta.insert(vec![0.2, 0.2, 0.2]);
    index.apply(&delta).unwrap();
    index.rebuild().unwrap();
    let staged = temp_dir("commit_staged");
    let info_b = save_sharded(&index, &staged).unwrap();
    for entry in &info_b.shards {
        std::fs::copy(staged.join(&entry.file_name), dir.join(&entry.file_name)).unwrap();
    }
    let loaded = load_sharded(&dir).expect("the previous checkpoint must survive");
    assert_eq!(loaded.epoch(), info_a.epoch);
    assert_same_answers(&at_a, &loaded.snapshot(), "crash before commit");

    // Completing the save commits B and collects A's superseded files.
    save_sharded(&index, &dir).unwrap();
    let loaded = load_sharded(&dir).unwrap();
    assert_eq!(loaded.epoch(), info_b.epoch);
    assert_same_answers(&index.snapshot(), &loaded.snapshot(), "after commit");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = info_b.shards.iter().map(|e| e.file_name.clone()).collect();
    expected.push(MANIFEST_FILE_NAME.to_string());
    expected.sort();
    assert_eq!(
        on_disk, expected,
        "superseded shard files must be collected"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&staged).unwrap();
}

#[test]
fn parallel_and_serial_warm_starts_agree() {
    let config = ShardedConfig::with_shards(2)
        .builder(IndexBuilder::new().knn_k(3))
        .parallel(false);
    let (serial_index, _) = ShardedIndex::build(features(), config).unwrap();
    let dir_serial = temp_dir("warm_serial");
    save_sharded(&serial_index, &dir_serial).unwrap();

    let (parallel_index, _) = ShardedIndex::build(features(), config.parallel(true)).unwrap();
    let dir_parallel = temp_dir("warm_parallel");
    save_sharded(&parallel_index, &dir_parallel).unwrap();

    // The parallel flag is a pure wall-clock knob: both warm starts answer
    // bit-identically.
    let a = load_sharded(&dir_serial).unwrap();
    let b = load_sharded(&dir_parallel).unwrap();
    assert!(!a.parallel() && b.parallel());
    let (sa, sb) = (a.snapshot(), b.snapshot());
    assert_eq!(sa.item_ids(), sb.item_ids());
    let mut ws = ShardedWorkspace::new();
    for id in sa.item_ids() {
        let x = sa.query_by_id_in(&mut ws, id, 4).unwrap();
        let y = sb.query_by_id_in(&mut ws, id, 4).unwrap();
        assert_eq!(x, y, "id {id}");
    }
    std::fs::remove_dir_all(&dir_serial).unwrap();
    std::fs::remove_dir_all(&dir_parallel).unwrap();
}

#[test]
fn saving_a_dirty_index_is_rejected() {
    let config = ShardedConfig::with_shards(2).builder(
        IndexBuilder::new()
            .knn_k(3)
            .rebuild_policy(RebuildPolicy::never()),
    );
    let (mut index, _) = ShardedIndex::build(features(), config).unwrap();
    let mut delta = IndexDelta::new();
    delta.insert(vec![0.1, 0.1, 0.1]);
    index.apply(&delta).unwrap();
    let dir = temp_dir("dirty");
    match save_sharded(&index, &dir) {
        Err(PersistError::InvalidState(msg)) => {
            assert!(msg.contains("rebuild"), "unhelpful message: {msg}")
        }
        other => panic!("expected InvalidState, got {other:?}"),
    }
    assert!(!dir.exists(), "rejected save must not create the directory");
}

// ---------------------------------------------------------------------------
// Container-level corruption
// ---------------------------------------------------------------------------

#[test]
fn truncation_at_every_byte_fails_closed() {
    let dir = saved_fixture("trunc");
    let bytes = manifest_bytes(&dir);
    for len in 0..bytes.len() {
        let err = inspect_manifest_bytes(&bytes[..len])
            .expect_err(&format!("truncation to {len} bytes must fail"));
        match err {
            PersistError::Truncated { .. }
            | PersistError::Corrupt { .. }
            | PersistError::BadMagic { .. }
            | PersistError::ChecksumMismatch { .. }
            | PersistError::MissingSection { .. }
            | PersistError::SectionDecode { .. } => {}
            other => panic!("truncation to {len}: unexpected error {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_single_bit_flip_fails_closed() {
    let dir = saved_fixture("flip");
    let bytes = manifest_bytes(&dir);
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 1 << bit;
            inspect_manifest_bytes(&corrupted)
                .expect_err(&format!("bit {bit} of byte {i} flipped undetected"));
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn future_container_versions_are_rejected() {
    let dir = saved_fixture("future");
    let bytes = manifest_bytes(&dir);
    for version in [FORMAT_VERSION + 1, 7, u32::MAX] {
        let mut corrupted = bytes.clone();
        corrupted[4..8].copy_from_slice(&version.to_le_bytes());
        match inspect_manifest_bytes(&corrupted) {
            Err(PersistError::UnsupportedVersion { found }) => assert_eq!(found, version),
            other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_container_without_the_manifest_section_is_rejected() {
    // A perfectly valid MOG1 container of the wrong flavor.
    let index = IndexBuilder::new().knn_k(3).build(features()).unwrap();
    let bytes = mogul_core::persist::save_updatable_to(&index, Vec::new()).unwrap();
    match inspect_manifest_bytes(&bytes) {
        Err(PersistError::MissingSection { section }) => assert_eq!(section, "shard-manifest"),
        other => panic!("expected MissingSection, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Payload-level hostility (crafted manifests; no shard files involved)
// ---------------------------------------------------------------------------

/// `(name bytes, declared name len, checksum, file len, id base, id len, epoch)`
type SpecShard = (Vec<u8>, u64, u64, u64, u64, u64, u64);

/// A decoded-form manifest the test can mutate field-by-field before
/// re-encoding into a structurally valid container — every rejection below
/// is therefore attributable to payload *semantics*, not checksums.
#[derive(Clone)]
struct Spec {
    version: u64,
    epoch: u64,
    dim: u64,
    seed: u64,
    probes: u64,
    parallel: u64,
    /// `(name bytes, declared name len, checksum, file len, id base, id len, epoch)`
    shards: Vec<SpecShard>,
    overflow: Vec<u64>,
    declared_overflow: Option<u64>,
    trailing: Vec<u8>,
}

fn valid_spec() -> Spec {
    Spec {
        version: 1,
        epoch: 3,
        dim: 3,
        seed: 42,
        probes: 1,
        parallel: 1,
        shards: vec![
            (b"shard-0000.mog1".to_vec(), 15, 0xabcd, 900, 0, 10, 2),
            (b"shard-0001.mog1".to_vec(), 15, 0x1234, 900, 10, 10, 2),
        ],
        overflow: vec![0, 1],
        declared_overflow: None,
        trailing: Vec::new(),
    }
}

fn encode_spec(spec: &Spec) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, spec.version);
    put_u64(&mut payload, spec.epoch);
    put_u64(&mut payload, spec.dim);
    put_u64(&mut payload, spec.seed);
    put_u64(&mut payload, spec.probes);
    put_u64(&mut payload, spec.parallel);
    put_u64(&mut payload, spec.shards.len() as u64);
    for (name, name_len, checksum, file_len, base, id_len, epoch) in &spec.shards {
        put_u64(&mut payload, *name_len);
        payload.extend_from_slice(name);
        put_u64(&mut payload, *checksum);
        put_u64(&mut payload, *file_len);
        put_u64(&mut payload, *base);
        put_u64(&mut payload, *id_len);
        put_u64(&mut payload, *epoch);
    }
    put_u64(
        &mut payload,
        spec.declared_overflow.unwrap_or(spec.overflow.len() as u64),
    );
    for &shard in &spec.overflow {
        put_u64(&mut payload, shard);
    }
    payload.extend_from_slice(&spec.trailing);

    let mut writer = SectionWriter::new(Vec::new()).unwrap();
    writer
        .write_section(SectionKind::ShardManifest, &payload)
        .unwrap();
    writer.finish().unwrap()
}

fn expect_rejected(mutate: impl FnOnce(&mut Spec), what: &str) {
    let mut spec = valid_spec();
    mutate(&mut spec);
    let bytes = encode_spec(&spec);
    match inspect_manifest_bytes(&bytes) {
        Err(
            PersistError::Corrupt { .. }
            | PersistError::SectionDecode { .. }
            | PersistError::UnsupportedVersion { .. },
        ) => {}
        other => panic!("{what}: expected a typed rejection, got {other:?}"),
    }
}

#[test]
fn the_crafted_baseline_spec_is_accepted() {
    let info = inspect_manifest_bytes(&encode_spec(&valid_spec())).unwrap();
    assert_eq!(info.shards.len(), 2);
    assert_eq!(info.overflow, vec![0, 1]);
    assert_eq!(info.epoch, 3);
    assert!(info.parallel);
}

#[test]
fn hostile_payload_fields_are_rejected() {
    expect_rejected(|s| s.version = 2, "future manifest schema version");
    expect_rejected(|s| s.version = u64::MAX, "huge manifest schema version");
    expect_rejected(|s| s.dim = 0, "zero dimension");
    expect_rejected(|s| s.dim = 1 << 21, "oversized dimension");
    expect_rejected(|s| s.probes = 0, "zero probe count");
    expect_rejected(|s| s.probes = 3, "probe count above shard count");
    expect_rejected(|s| s.parallel = 2, "non-boolean parallel flag");
    expect_rejected(|s| s.shards.clear(), "zero shards");
    expect_rejected(
        |s| {
            let entry = s.shards[0].clone();
            s.shards = vec![entry; 4097];
        },
        "shard count above MAX_SHARDS",
    );
}

#[test]
fn hostile_file_names_are_rejected() {
    expect_rejected(
        |s| {
            s.shards[0].0 = Vec::new();
            s.shards[0].1 = 0;
        },
        "empty file name",
    );
    expect_rejected(|s| s.shards[0].1 = u64::MAX, "huge declared name length");
    expect_rejected(
        |s| {
            s.shards[0].0 = b"../escape.mog1".to_vec();
            s.shards[0].1 = 14;
        },
        "path traversal (parent)",
    );
    expect_rejected(
        |s| {
            s.shards[0].0 = b"a/b.mog1".to_vec();
            s.shards[0].1 = 8;
        },
        "path separator",
    );
    expect_rejected(
        |s| {
            s.shards[0].0 = b"a\\b.mog1".to_vec();
            s.shards[0].1 = 8;
        },
        "backslash separator",
    );
    expect_rejected(
        |s| {
            s.shards[0].0 = vec![0xff, 0xfe, 0x41];
            s.shards[0].1 = 3;
        },
        "non-UTF-8 name",
    );
    expect_rejected(
        |s| {
            s.shards[1].0 = s.shards[0].0.clone();
            s.shards[1].1 = s.shards[0].1;
        },
        "duplicate file names",
    );
    expect_rejected(
        |s| {
            s.shards[0].0 = MANIFEST_FILE_NAME.as_bytes().to_vec();
            s.shards[0].1 = MANIFEST_FILE_NAME.len() as u64;
        },
        "collision with the manifest file",
    );
}

#[test]
fn hostile_id_ranges_and_lengths_are_rejected() {
    expect_rejected(|s| s.shards[0].3 = 0, "zero file length");
    expect_rejected(|s| s.shards[0].5 = 0, "zero id range length");
    expect_rejected(|s| s.shards[0].5 = 1 << 29, "oversized id range length");
    expect_rejected(|s| s.shards[1].4 = 5, "overlapping id ranges");
    expect_rejected(|s| s.shards[1].4 = 15, "gapped id ranges");
    expect_rejected(|s| s.shards[0].4 = 1, "nonzero first base");
    expect_rejected(
        |s| s.overflow[1] = 2,
        "overflow entry naming a missing shard",
    );
    expect_rejected(|s| s.overflow[0] = u64::MAX, "hostile overflow shard index");
    expect_rejected(
        |s| s.declared_overflow = Some(u64::MAX),
        "overflow count far beyond the payload",
    );
    expect_rejected(
        |s| s.trailing = vec![0; 8],
        "trailing bytes after the payload",
    );
    expect_rejected(
        |s| s.declared_overflow = Some(1),
        "declared overflow shorter than encoded entries",
    );
}

// ---------------------------------------------------------------------------
// Cross-file corruption (manifest intact, shard files hostile)
// ---------------------------------------------------------------------------

fn expect_shard_file_corrupt(dir: &Path, what: &str) {
    match load_sharded(dir) {
        Err(PersistError::Corrupt { what: w, .. }) => assert_eq!(w, "shard file", "{what}"),
        other => panic!("{what}: expected Corrupt shard file, got {other:?}"),
    }
}

#[test]
fn missing_shard_file_fails_closed() {
    let dir = saved_fixture("missing");
    std::fs::remove_file(shard_path(&dir, 1)).unwrap();
    match load_sharded(&dir) {
        Err(PersistError::Io { op, .. }) => assert_eq!(op, "read shard file"),
        other => panic!("expected Io, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_shard_file_fails_closed() {
    let dir = saved_fixture("shard_trunc");
    let path = shard_path(&dir, 0);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
    expect_shard_file_corrupt(&dir, "truncated shard file");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flipped_shard_file_fails_closed() {
    let dir = saved_fixture("shard_flip");
    let path = shard_path(&dir, 0);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    expect_shard_file_corrupt(&dir, "bit-flipped shard file");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn swapped_shard_files_fail_closed() {
    let dir = saved_fixture("swap");
    let a = shard_path(&dir, 0);
    let b = shard_path(&dir, 1);
    let bytes_a = std::fs::read(&a).unwrap();
    let bytes_b = std::fs::read(&b).unwrap();
    std::fs::write(&a, &bytes_b).unwrap();
    std::fs::write(&b, &bytes_a).unwrap();
    expect_shard_file_corrupt(&dir, "swapped shard files");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_shard_file_fails_closed() {
    // Checkpoint, mutate + checkpoint again into a second directory, then
    // smuggle the stale first-generation shard file under the new manifest.
    let mut index = fixture_index();
    let dir_old = temp_dir("stale_old");
    save_sharded(&index, &dir_old).unwrap();

    let mut delta = IndexDelta::new();
    delta.insert(vec![0.2, 0.2, 0.2]);
    let report = index.apply(&delta).unwrap();
    index.rebuild().unwrap();
    let dir_new = temp_dir("stale_new");
    save_sharded(&index, &dir_new).unwrap();

    let touched = index
        .router()
        .locate(report.inserted[0])
        .map_or(0, |(s, _)| s);
    std::fs::copy(shard_path(&dir_old, touched), shard_path(&dir_new, touched)).unwrap();
    expect_shard_file_corrupt(&dir_new, "stale shard file");
    std::fs::remove_dir_all(&dir_old).unwrap();
    std::fs::remove_dir_all(&dir_new).unwrap();
}

// ---------------------------------------------------------------------------
// Golden fixture: sharded layout v1 compatibility pin
// ---------------------------------------------------------------------------

const GOLDEN_MANIFEST: &[u8] = include_bytes!("fixtures/golden_shards_v1/manifest.mog1");
const GOLDEN_SHARD_0: &[u8] = include_bytes!("fixtures/golden_shards_v1/shard-0000.mog1");
const GOLDEN_SHARD_1: &[u8] = include_bytes!("fixtures/golden_shards_v1/shard-0001.mog1");

/// Regenerate the committed fixture. Run manually after an *intentional*,
/// version-bumped layout change:
/// `cargo test -p mogul-core --test shard_manifest -- --ignored regenerate`
/// (the shard files now come out epoch-named and in the current MOG1
/// format version: point `dir` at a new fixture directory first, so the
/// committed one is not overwritten, and the `include_bytes!` paths above
/// at the new files).
#[test]
#[ignore = "writes the committed fixture; run only on intentional format changes"]
fn regenerate_golden_fixture() {
    let dir = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_shards_v1"
    );
    save_sharded(&fixture_index(), dir).unwrap();
    eprintln!("wrote {dir}");
}

#[test]
fn golden_fixture_pins_sharded_layout_v1() {
    let info = inspect_manifest_bytes(GOLDEN_MANIFEST).expect("golden manifest must stay loadable");
    assert_eq!(info.shards.len(), 2, "fixture shard count changed");
    assert_eq!(info.dim, 3);
    assert_eq!(info.overflow.len(), 2);
    assert_eq!(
        info.shards
            .iter()
            .map(|e| e.file_name.as_str())
            .collect::<Vec<_>>(),
        ["shard-0000.mog1", "shard-0001.mog1"]
    );

    // Materialize the committed bytes and warm-start from them: answers
    // must match a from-scratch build of the identical corpus (the build
    // is deterministic), overflow ids and all.
    let dir = temp_dir("golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(MANIFEST_FILE_NAME), GOLDEN_MANIFEST).unwrap();
    std::fs::write(shard_path(&dir, 0), GOLDEN_SHARD_0).unwrap();
    std::fs::write(shard_path(&dir, 1), GOLDEN_SHARD_1).unwrap();
    let loaded = load_sharded(&dir).unwrap();
    let reference = fixture_index();
    assert_eq!(loaded.epoch(), reference.epoch());
    assert_eq!(loaded.router(), reference.router());
    let (a, b) = (loaded.snapshot(), reference.snapshot());
    assert_eq!(a.item_ids(), b.item_ids());
    assert!(!a.contains(3), "removed id resurfaced");
    let mut ws = ShardedWorkspace::new();
    for id in a.item_ids() {
        assert_eq!(
            a.query_by_id_in(&mut ws, id, 5).unwrap(),
            b.query_by_id_in(&mut ws, id, 5).unwrap(),
            "golden fixture answers diverged at id {id}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
