//! Format-level hardening of the WAL segment format, in the MOG1
//! corruption-matrix idiom (`persist_format.rs`): truncation at every byte,
//! bit flips in every record field, hostile declared lengths, future
//! versions, duplicate/out-of-order epochs — every defect either recovers
//! by discarding a *reported, strict-prefix* torn tail (the one thing a
//! crashed append can legally produce, final segment only) or refuses with
//! a typed [`WalError`]. Never a panic, never a silently wrong replay.
//!
//! The committed `fixtures/golden_v1.wal` pins the v1 record layout and
//! its replay result, mirroring `golden_v1.mog1`.

use mogul_core::persist;
use mogul_core::update::{IndexBuilder, IndexDelta, RebuildPolicy, UpdatableIndex};
use mogul_core::wal::{
    self, encode_record, encode_segment_header, read_segment, Wal, WalError, WalOp, WalSync,
    SEGMENT_HEADER_LEN,
};
use mogul_sparse::persist::{checksum64, put_u64};
use std::path::PathBuf;

/// Small deterministic corpus shared by every test here (same shape as the
/// MOG1 format tests).
fn features() -> Vec<Vec<f64>> {
    (0..24)
        .map(|i| {
            let blob = (i % 2) as f64;
            vec![
                blob * 7.0 + ((i * 31) % 13) as f64 / 13.0,
                blob * 7.0 + ((i * 17) % 11) as f64 / 11.0,
                0.1 * (i % 5) as f64,
            ]
        })
        .collect()
}

fn build_index(exact: bool) -> UpdatableIndex {
    let builder = IndexBuilder::new()
        .knn_k(3)
        .rebuild_policy(RebuildPolicy::never());
    let builder = if exact {
        builder.exact_ranking()
    } else {
        builder
    };
    builder.build(features()).unwrap()
}

/// The deterministic delta sequence logged by every segment built here.
fn deltas() -> Vec<IndexDelta> {
    let mut d1 = IndexDelta::new();
    d1.insert(vec![0.45, 0.3, 0.2]);
    let mut d2 = IndexDelta::new();
    d2.insert(vec![6.9, 7.2, 0.35]).remove(7);
    let mut d3 = IndexDelta::new();
    d3.remove(2);
    vec![d1, d2, d3]
}

/// One valid single-segment log: header (base 0) + the three delta
/// records, plus the byte offsets where each record ends (the legal
/// truncation points).
fn segment_bytes() -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    encode_segment_header(0, &mut bytes);
    let mut boundaries = vec![bytes.len()];
    for (i, delta) in deltas().iter().enumerate() {
        encode_record(i as u64 + 1, &WalOp::Delta(delta.clone()), &mut bytes).unwrap();
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

/// Frame arbitrary payload bytes as one record with a *valid* checksum —
/// for crafting structurally hostile but checksum-clean records.
fn frame_raw(payload: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = checksum64(&out[start..]);
    put_u64(out, sum);
}

fn temp_dir(name: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mogul-wal-format-{}-{}-{name}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// Corruption matrix
// ---------------------------------------------------------------------------

#[test]
fn truncation_at_every_byte_recovers_or_refuses() {
    let (bytes, boundaries) = segment_bytes();
    let original = read_segment(&bytes, true).unwrap().records;
    assert_eq!(original.len(), 3);
    for cut in 0..bytes.len() {
        let prefix = &bytes[..cut];

        // Final segment: every truncation point is a legal crash and must
        // recover — the complete records survive, the torn tail is
        // discarded and reported.
        let segment = read_segment(prefix, true)
            .unwrap_or_else(|e| panic!("final-segment cut at byte {cut} must recover: {e}"));
        if cut < SEGMENT_HEADER_LEN {
            assert_eq!(segment.base_epoch, None, "cut {cut}");
            assert!(segment.records.is_empty(), "cut {cut}");
            let torn = segment.torn.expect("torn header must be reported");
            assert_eq!((torn.offset, torn.bytes), (0, cut));
        } else {
            assert_eq!(segment.base_epoch, Some(0), "cut {cut}");
            let complete = boundaries.iter().skip(1).filter(|&&b| b <= cut).count();
            assert_eq!(
                segment.records.as_slice(),
                &original[..complete],
                "cut {cut}"
            );
            let at_boundary = boundaries.contains(&cut);
            assert_eq!(
                segment.torn.is_some(),
                !at_boundary,
                "cut {cut}: torn tail must be reported iff the cut is mid-record"
            );
        }

        // Non-final segment: the torn-tail carve-out does not apply — the
        // log moved past this segment only after fsyncing it complete, so
        // anything but a record boundary refuses.
        match read_segment(prefix, false) {
            Ok(segment) => {
                assert!(
                    cut >= SEGMENT_HEADER_LEN && boundaries.contains(&cut),
                    "cut {cut} is mid-record but parsed as a complete non-final segment"
                );
                assert!(segment.torn.is_none());
            }
            Err(WalError::Truncated { .. }) => {
                assert!(
                    !boundaries.contains(&cut) || cut < SEGMENT_HEADER_LEN,
                    "cut {cut} is a record boundary but refused"
                );
            }
            Err(other) => panic!("cut {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn every_bit_flip_fails_closed_or_discards_a_reported_prefix() {
    let (bytes, _) = segment_bytes();
    let original = read_segment(&bytes, true).unwrap().records;
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[i] ^= 1 << bit;

            // Final segment: a flip either yields a typed error, or — when
            // it mimics a torn tail (e.g. a record length now running past
            // the end of the file) — a *reported*, strict-prefix recovery.
            // There is no silent path to the original (or any wrong)
            // record set: every byte is under a checksum.
            match read_segment(&mutated, true) {
                Err(_) => {}
                Ok(segment) => {
                    assert!(
                        segment.torn.is_some(),
                        "byte {i} bit {bit}: flip accepted without a torn-tail report"
                    );
                    assert!(
                        segment.records.len() < original.len(),
                        "byte {i} bit {bit}: flip accepted with all records intact"
                    );
                    assert_eq!(
                        segment.records.as_slice(),
                        &original[..segment.records.len()],
                        "byte {i} bit {bit}: surviving records diverged"
                    );
                }
            }

            // Non-final segment: every flip refuses.
            assert!(
                read_segment(&mutated, false).is_err(),
                "byte {i} bit {bit}: flip accepted in a non-final segment"
            );
        }
    }
}

#[test]
fn hostile_declared_lengths_never_allocate_or_panic() {
    let (bytes, boundaries) = segment_bytes();
    let original = read_segment(&bytes, true).unwrap().records;

    // A middle record claiming u32::MAX payload bytes swallows the rest of
    // the file: in the final segment that reads as a torn tail (strict
    // prefix, reported); in a non-final segment it refuses.
    let second_record = boundaries[1];
    let mut hostile = bytes.clone();
    hostile[second_record..second_record + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let segment = read_segment(&hostile, true).unwrap();
    assert_eq!(segment.records.as_slice(), &original[..1]);
    let torn = segment.torn.expect("hostile length must be reported");
    assert_eq!(torn.offset, second_record);
    match read_segment(&hostile, false) {
        Err(WalError::Truncated {
            needed, available, ..
        }) => {
            assert!(needed > available);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }

    // A length nudged to overlap the next record keeps the byte count in
    // bounds but breaks the checksum span: refused in both positions.
    let len = u32::from_le_bytes(bytes[second_record..second_record + 4].try_into().unwrap());
    let mut overlap = bytes.clone();
    overlap[second_record..second_record + 4].copy_from_slice(&(len + 8).to_le_bytes());
    for is_final in [true, false] {
        match read_segment(&overlap, is_final) {
            Err(WalError::ChecksumMismatch { offset }) => assert_eq!(offset, second_record),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    // The only record hostile: the final segment recovers to empty.
    let mut lone = Vec::new();
    encode_segment_header(9, &mut lone);
    lone.extend_from_slice(&u32::MAX.to_le_bytes());
    lone.extend_from_slice(&[0xAB; 16]);
    let segment = read_segment(&lone, true).unwrap();
    assert_eq!(segment.base_epoch, Some(9));
    assert!(segment.records.is_empty());
    assert!(segment.torn.is_some());
}

#[test]
fn bad_magic_and_future_versions_refuse() {
    let (bytes, _) = segment_bytes();

    let mut wrong_magic = bytes.clone();
    wrong_magic[0..4].copy_from_slice(b"NOPE");
    for is_final in [true, false] {
        match read_segment(&wrong_magic, is_final) {
            Err(WalError::BadMagic { found }) => assert_eq!(&found, b"NOPE"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    for future in [2u32, 7, u32::MAX] {
        let mut versioned = bytes.clone();
        versioned[4..8].copy_from_slice(&future.to_le_bytes());
        // Re-seal the header checksum so the *only* defect is the version.
        let sum = checksum64(&versioned[..16]);
        versioned[16..24].copy_from_slice(&sum.to_le_bytes());
        for is_final in [true, false] {
            match read_segment(&versioned, is_final) {
                Err(WalError::UnsupportedVersion { found }) => assert_eq!(found, future),
                other => panic!("expected UnsupportedVersion({future}), got {other:?}"),
            }
        }
    }
}

#[test]
fn unknown_record_kinds_and_op_tags_refuse() {
    // Records cannot be skipped (every epoch must be re-applied), so an
    // unknown-but-checksum-valid kind is a hard refusal, not a torn tail.
    let mut unknown_kind = Vec::new();
    encode_segment_header(0, &mut unknown_kind);
    let mut payload = Vec::new();
    put_u64(&mut payload, 1); // epoch
    put_u64(&mut payload, 99); // kind
    frame_raw(&payload, &mut unknown_kind);
    for is_final in [true, false] {
        match read_segment(&unknown_kind, is_final) {
            Err(WalError::UnknownRecordKind { found }) => assert_eq!(found, 99),
            other => panic!("expected UnknownRecordKind, got {other:?}"),
        }
    }

    let mut unknown_op = Vec::new();
    encode_segment_header(0, &mut unknown_op);
    let mut payload = Vec::new();
    put_u64(&mut payload, 1); // epoch
    put_u64(&mut payload, 1); // kind = delta
    put_u64(&mut payload, 1); // one op
    put_u64(&mut payload, 77); // unknown op tag
    frame_raw(&payload, &mut unknown_op);
    match read_segment(&unknown_op, true) {
        Err(WalError::Corrupt { what, .. }) => assert_eq!(what, "delta op tag"),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // A checksum-valid payload with trailing garbage (declared length too
    // long for its own content) refuses too.
    let mut padded = Vec::new();
    encode_segment_header(0, &mut padded);
    let mut payload = Vec::new();
    put_u64(&mut payload, 1); // epoch
    put_u64(&mut payload, 2); // kind = rebuild (no body)
    payload.extend_from_slice(&[0u8; 5]);
    frame_raw(&payload, &mut padded);
    match read_segment(&padded, true) {
        Err(WalError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn duplicate_and_out_of_order_epochs_refuse() {
    let cases: [(&[u64], u64, u64); 4] = [
        (&[1, 1], 2, 1), // duplicate
        (&[1, 3], 2, 3), // skipped ahead
        (&[2], 1, 2),    // does not start at base + 1
        (&[0], 1, 0),    // repeats the base epoch itself
    ];
    for (epochs, want_expected, want_found) in cases {
        let mut bytes = Vec::new();
        encode_segment_header(0, &mut bytes);
        for &epoch in epochs {
            encode_record(epoch, &WalOp::Rebuild, &mut bytes).unwrap();
        }
        for is_final in [true, false] {
            match read_segment(&bytes, is_final) {
                Err(WalError::EpochOrder { expected, found }) => {
                    assert_eq!((expected, found), (want_expected, want_found), "{epochs:?}");
                }
                other => panic!("{epochs:?}: expected EpochOrder, got {other:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end recovery exactness (both factorization flavors)
// ---------------------------------------------------------------------------

#[test]
fn recovery_lands_on_the_exact_epoch_for_both_flavors() {
    for exact in [false, true] {
        let dir = temp_dir(if exact {
            "recover-exact"
        } else {
            "recover-inc"
        });
        let ckpt = dir.join("ckpt.mog1");
        let wal_dir = dir.join("wal");
        std::fs::create_dir_all(&dir).unwrap();

        let mut live = build_index(exact);
        persist::save_updatable(&live, &ckpt).unwrap();
        let mut log = Wal::create(&wal_dir, live.epoch(), WalSync::EveryRecord).unwrap();
        for (i, delta) in deltas().iter().enumerate() {
            log.append(i as u64 + 1, &WalOp::Delta(delta.clone()))
                .unwrap();
            live.apply(delta).unwrap();
        }
        drop(log);

        let (recovered, log, outcome) =
            wal::recover_updatable(&ckpt, &wal_dir, WalSync::EveryRecord).unwrap();
        assert_eq!(outcome.replay.applied, 3);
        assert_eq!(outcome.replay.skipped, 0);
        assert_eq!(outcome.log.truncated_bytes, 0);
        assert_eq!(recovered.epoch(), live.epoch());
        assert_eq!(log.last_epoch(), live.epoch());

        // Bit-identical answers — `==` covers ranks, scores and
        // SearchStats — for every live item, in both the corrected
        // (incomplete-factor) and the exact (MogulE) flavor.
        let live_snap = live.snapshot();
        let recovered_snap = recovered.snapshot();
        assert_eq!(live_snap.item_ids(), recovered_snap.item_ids());
        assert_eq!(live_snap.is_clean(), recovered_snap.is_clean());
        for id in live_snap.item_ids() {
            assert_eq!(
                live_snap.query_by_id(id, 6).unwrap(),
                recovered_snap.query_by_id(id, 6).unwrap(),
                "recovered answers diverged at id {id} (exact = {exact})"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn checkpoint_ahead_of_the_log_refuses() {
    // A checkpoint newer than the log's final epoch means the newest
    // segments were lost: rotation always leaves a segment based at the
    // checkpoint epoch, so recovery must refuse rather than silently serve
    // the stale checkpoint state as if it were current.
    let dir = temp_dir("ckpt-ahead");
    let ckpt = dir.join("ckpt.mog1");
    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&dir).unwrap();

    let mut index = build_index(false);
    let mut log = Wal::create(&wal_dir, 0, WalSync::EveryRecord).unwrap();
    log.append(1, &WalOp::Delta(deltas()[0].clone())).unwrap();
    index.apply(&deltas()[0]).unwrap();
    // Move the index two epochs past the log, then checkpoint it clean.
    index.apply(&deltas()[1]).unwrap();
    index.rebuild().unwrap();
    persist::save_updatable(&index, &ckpt).unwrap();
    drop(log);

    match wal::recover_updatable(&ckpt, &wal_dir, WalSync::EveryRecord) {
        Err(WalError::EpochGap { expected, found }) => {
            assert_eq!((expected, found), (3, 1));
        }
        other => panic!("expected EpochGap, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_behind_a_record_less_log_head_refuses() {
    // The log's head is a segment based at epoch 2 holding no record (what
    // a rotation leaves), but the checkpoint is at epoch 0: nothing bridges
    // the two, so recovery must refuse rather than resume at epoch 0.
    let dir = temp_dir("ckpt-behind");
    let ckpt = dir.join("ckpt.mog1");
    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&dir).unwrap();
    persist::save_updatable(&build_index(false), &ckpt).unwrap();
    drop(Wal::create(&wal_dir, 2, WalSync::EveryRecord).unwrap());

    match wal::recover_updatable(&ckpt, &wal_dir, WalSync::EveryRecord) {
        Err(WalError::EpochGap { expected, found }) => {
            assert_eq!((expected, found), (0, 2));
        }
        other => panic!("expected EpochGap, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Golden fixture: WAL format v1 compatibility pin
// ---------------------------------------------------------------------------

/// The committed golden fixture (written by `regenerate_golden_wal_fixture`
/// below). Every future build must keep reading this byte-for-byte
/// segment; an incompatible record-layout change must bump
/// [`wal::WAL_VERSION`] and add a new fixture instead of breaking this one.
const GOLDEN: &[u8] = include_bytes!("fixtures/golden_v1.wal");

/// The exact record sequence the fixture holds (kept for regeneration and
/// the replay-equivalence assertion below): the three deltas, then an
/// explicit refactorization.
fn golden_records() -> Vec<(u64, WalOp)> {
    let mut records: Vec<(u64, WalOp)> = deltas()
        .into_iter()
        .enumerate()
        .map(|(i, d)| (i as u64 + 1, WalOp::Delta(d)))
        .collect();
    records.push((4, WalOp::Rebuild));
    records
}

fn golden_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_segment_header(0, &mut bytes);
    for (epoch, op) in golden_records() {
        encode_record(epoch, &op, &mut bytes).unwrap();
    }
    bytes
}

/// Regenerate the golden fixture. Run manually after an *intentional*,
/// version-bumped format change:
/// `cargo test -p mogul-core --test wal_format -- --ignored regenerate`
#[test]
#[ignore = "writes the committed fixture; run only on intentional format changes"]
fn regenerate_golden_wal_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_v1.wal");
    std::fs::write(path, golden_bytes()).unwrap();
    eprintln!("wrote {path}");
}

#[test]
fn golden_wal_fixture_pins_format_v1() {
    // Byte-for-byte: the encoder is deterministic, so any layout change —
    // framing, field order, checksum definition — breaks this first.
    assert_eq!(
        GOLDEN,
        golden_bytes().as_slice(),
        "v1 record layout changed — bump WAL_VERSION instead"
    );

    // Structure: base epoch, record count, epochs and kinds.
    let segment = read_segment(GOLDEN, true).unwrap();
    assert_eq!(segment.base_epoch, Some(0));
    assert_eq!(segment.torn, None);
    let expected = golden_records();
    assert_eq!(segment.records.len(), expected.len());
    for (record, (epoch, op)) in segment.records.iter().zip(&expected) {
        assert_eq!(record.epoch, *epoch);
        assert_eq!(&record.op, op);
    }

    // Semantics: replaying the fixture over the deterministic base corpus
    // answers exactly like applying the same operations directly.
    let mut replayed = build_index(true);
    wal::replay(&mut replayed, &segment.records).unwrap();
    let mut reference = build_index(true);
    for delta in deltas() {
        reference.apply(&delta).unwrap();
    }
    reference.rebuild().unwrap();
    assert_eq!(replayed.epoch(), reference.epoch());
    let replayed_snap = replayed.snapshot();
    let reference_snap = reference.snapshot();
    assert_eq!(replayed_snap.item_ids(), reference_snap.item_ids());
    for id in replayed_snap.item_ids() {
        assert_eq!(
            replayed_snap.query_by_id(id, 5).unwrap(),
            reference_snap.query_by_id(id, 5).unwrap(),
            "golden fixture replay diverged at id {id}"
        );
    }
}
