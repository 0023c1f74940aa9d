//! Format-level hardening of the `MOG1` container: the corruption matrix
//! (truncation, bit flips in every region, wrong magic, future versions,
//! missing sections, hostile `factors` payloads) must fail **closed** — a
//! typed [`PersistError`], never a panic, never a silently wrong index — and
//! the committed golden fixtures pin format versions 1, 2 and 3, so any
//! incompatible layout change must bump [`persist::FORMAT_VERSION`] rather
//! than silently break old files. Every file this build writes is version
//! 3, so the matrix runs over v3 files; the per-section flips run over the
//! v1 and v2 fixtures too.

use mogul_core::persist::{
    self, FileFlavor, PersistError, SectionInfo, SectionKind, SectionWriter,
};
use mogul_core::update::{IndexBuilder, IndexDelta, RebuildPolicy};
use mogul_core::{MogulConfig, MogulIndex, OutOfSampleConfig, OutOfSampleIndex, Query};
use mogul_graph::knn::{knn_graph, KnnConfig};
use mogul_sparse::FeatureMatrix;
use std::sync::Arc;

/// Small deterministic corpus shared by every test here.
fn features() -> Vec<Vec<f64>> {
    corpus(24)
}

/// The first `n` items of the same two-blob corpus.
fn corpus(n: usize) -> Vec<Vec<f64>> {
    (0..n)
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

fn index_bytes() -> Vec<u8> {
    let features = FeatureMatrix::from_rows(&features()).unwrap();
    let graph = knn_graph(&features, KnnConfig::with_k(4)).unwrap();
    let index = MogulIndex::build(&graph, MogulConfig::default()).unwrap();
    let oos =
        OutOfSampleIndex::new(index, Arc::new(features), OutOfSampleConfig::default()).unwrap();
    persist::save_index_to(&oos, Vec::new()).unwrap()
}

fn updatable_bytes() -> Vec<u8> {
    let index = IndexBuilder::new()
        .knn_k(3)
        .rebuild_policy(RebuildPolicy::never())
        .build(features())
        .unwrap();
    persist::save_updatable_to(&index, Vec::new()).unwrap()
}

// ---------------------------------------------------------------------------
// Corruption matrix
// ---------------------------------------------------------------------------

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = index_bytes();
    bytes[0..4].copy_from_slice(b"NOPE");
    match persist::load_index_from_bytes(&bytes) {
        Err(PersistError::BadMagic { found }) => assert_eq!(&found, b"NOPE"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    // A random non-index file fails the same way.
    match persist::load_index_from_bytes(b"this is not an index file at all") {
        Err(PersistError::BadMagic { .. }) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn unsupported_future_version_is_rejected() {
    let mut bytes = index_bytes();
    for future in [persist::FORMAT_VERSION + 1, 7, u32::MAX] {
        bytes[4..8].copy_from_slice(&future.to_le_bytes());
        match persist::load_index_from_bytes(&bytes) {
            Err(PersistError::UnsupportedVersion { found }) => assert_eq!(found, future),
            other => panic!("expected UnsupportedVersion({future}), got {other:?}"),
        }
    }
    // Version 0 predates the format: refused alike, and the message names
    // the range this build reads.
    bytes[4..8].copy_from_slice(&0u32.to_le_bytes());
    let err = persist::load_index_from_bytes(&bytes).unwrap_err();
    assert_eq!(err, PersistError::UnsupportedVersion { found: 0 });
    assert!(err.to_string().contains("versions 1 to 3"), "{err}");
}

#[test]
fn every_truncation_fails_closed() {
    let bytes = index_bytes();
    // Every prefix, including the empty file, must return a typed error —
    // never panic, never produce an index.
    for len in 0..bytes.len() {
        assert!(
            persist::load_index_from_bytes(&bytes[..len]).is_err(),
            "prefix of {len}/{} bytes loaded successfully",
            bytes.len()
        );
        assert!(persist::inspect_bytes(&bytes[..len]).is_err());
    }
    // And the untruncated file still loads (the sweep had no side effects).
    assert!(persist::load_index_from_bytes(&bytes).is_ok());
}

#[test]
fn a_bit_flip_in_each_section_is_caught_by_its_checksum() {
    // A fresh (v3) file and the v1 and v2 fixtures: each version's hash.
    for (version, bytes) in [
        (3, updatable_bytes()),
        (1, GOLDEN.to_vec()),
        (2, GOLDEN_V2.to_vec()),
    ] {
        let info = persist::inspect_bytes(&bytes).unwrap();
        assert_eq!(info.version, version);
        assert_eq!(
            info.sections.len(),
            8,
            "expected all eight sections in an updatable file: {info}"
        );
        for section in &info.sections {
            // The first, middle and last byte, one bit each.
            for target in [
                section.offset,
                section.offset + section.len / 2,
                section.offset + section.len - 1,
            ] {
                let mut corrupted = bytes.clone();
                corrupted[target] ^= 0x10;
                match persist::load_updatable_from_bytes(&corrupted) {
                    Err(PersistError::ChecksumMismatch { section: name }) => {
                        assert_eq!(name, section.name, "v{version}: flip at byte {target}");
                    }
                    other => panic!(
                        "v{version}: bit flip in section '{}' gave {other:?} instead of \
                         ChecksumMismatch",
                        section.name
                    ),
                }
            }
        }
    }
}

#[test]
fn bit_flips_anywhere_in_the_file_fail_closed() {
    // Beyond the per-section flips above: flip a bit at every 7th byte of
    // the whole file (header, payloads, table, footer — everything) and
    // demand a typed error each time. No region of the file is unprotected.
    let bytes = index_bytes();
    for pos in (0..bytes.len()).step_by(7) {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0x04;
        assert!(
            persist::load_index_from_bytes(&corrupted).is_err(),
            "bit flip at byte {pos}/{} went undetected",
            bytes.len()
        );
    }
}

#[test]
fn table_and_footer_corruption_is_typed() {
    let bytes = index_bytes();
    // Flip inside the section table (between last payload and footer).
    let info = persist::inspect_bytes(&bytes).unwrap();
    let payload_end = info
        .sections
        .iter()
        .map(|s| s.offset + s.len)
        .max()
        .unwrap();
    let mut corrupted = bytes.clone();
    corrupted[payload_end + 3] ^= 0x01;
    match persist::load_index_from_bytes(&corrupted) {
        Err(PersistError::Corrupt { .. }) => {}
        other => panic!("table corruption gave {other:?}"),
    }
    // Destroy the trailer magic.
    let mut corrupted = bytes.clone();
    let n = corrupted.len();
    corrupted[n - 1] ^= 0xFF;
    match persist::load_index_from_bytes(&corrupted) {
        Err(PersistError::Corrupt { what, .. }) => assert_eq!(what, "file footer"),
        other => panic!("footer corruption gave {other:?}"),
    }
    // A section count pointing past the file.
    let mut corrupted = bytes.clone();
    let n = corrupted.len();
    corrupted[n - 24..n - 16].copy_from_slice(&u64::MAX.to_le_bytes());
    match persist::load_index_from_bytes(&corrupted) {
        Err(PersistError::Corrupt { what, .. }) => assert_eq!(what, "section table"),
        other => panic!("hostile section count gave {other:?}"),
    }
}

#[test]
fn missing_sections_are_reported_by_name() {
    // A container holding only the meta section: structurally valid, but
    // every loader must report the first section it cannot find.
    let bytes = index_bytes();
    let info = persist::inspect_bytes(&bytes).unwrap();
    let meta = info
        .sections
        .iter()
        .find(|s| s.name == "meta")
        .expect("meta section");
    let mut writer = SectionWriter::new(Vec::new()).unwrap();
    writer
        .write_section(
            SectionKind::Meta,
            &bytes[meta.offset..meta.offset + meta.len],
        )
        .unwrap();
    let crafted = writer.finish().unwrap();
    match persist::load_index_from_bytes(&crafted) {
        Err(PersistError::MissingSection { section }) => assert_eq!(section, "ordering"),
        other => panic!("expected MissingSection, got {other:?}"),
    }
}

#[test]
fn unknown_sections_are_tolerated_within_a_version() {
    // Forward compatibility inside v1: a file carrying an extra section
    // with an unknown kind code still loads, and `inspect` lists it.
    let bytes = index_bytes();
    let info = persist::inspect_bytes(&bytes).unwrap();
    let mut writer = SectionWriter::new(Vec::new()).unwrap();
    for section in &info.sections {
        writer
            .write_raw_section(
                section.code,
                &bytes[section.offset..section.offset + section.len],
            )
            .unwrap();
    }
    writer
        .write_raw_section(0xBEEF, b"from the future")
        .unwrap();
    let crafted = writer.finish().unwrap();

    let crafted_info = persist::inspect_bytes(&crafted).unwrap();
    assert_eq!(crafted_info.sections.len(), info.sections.len() + 1);
    assert!(crafted_info.sections.iter().any(|s| s.name == "unknown"));

    let original = persist::load_index_from_bytes(&bytes).unwrap();
    let crafted = persist::load_index_from_bytes(&crafted).unwrap();
    assert_eq!(
        original.index().search(3, 5).unwrap(),
        crafted.index().search(3, 5).unwrap()
    );
}

/// Re-write the container `bytes` under format `version`, each section's
/// payload replaced by what `payload_of` returns for it, and re-seal every
/// checksum with that version's hash ([`persist::section_checksum`]): the
/// result passes every checksum, so only its payloads can be hostile. The
/// sections come from the original file's table, so a payload the loader
/// would refuse can still be re-sealed.
fn resealed(
    bytes: &[u8],
    version: u32,
    mut payload_of: impl FnMut(&SectionInfo, &[u8]) -> Vec<u8>,
) -> Vec<u8> {
    let info = persist::inspect_bytes(bytes).unwrap();
    let mut out = b"MOG1".to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    let mut table = Vec::new();
    for s in &info.sections {
        let payload = payload_of(s, &bytes[s.offset..s.offset + s.len]);
        table.extend_from_slice(&s.code.to_le_bytes());
        table.extend_from_slice(&(out.len() as u64).to_le_bytes());
        table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        table.extend_from_slice(&persist::section_checksum(version, &payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out.extend_from_slice(&table);
    out.extend_from_slice(&(info.sections.len() as u64).to_le_bytes());
    out.extend_from_slice(&persist::section_checksum(version, &table).to_le_bytes());
    out.extend_from_slice(b"MOG1TRLR");
    out
}

/// Rebuild a container with one section's payload replaced (checksums are
/// recomputed, so the result is "valid" — only the payload is hostile).
fn rebuild_with_section(bytes: &[u8], target: &str, payload: &[u8]) -> Vec<u8> {
    resealed(bytes, persist::FORMAT_VERSION, |s, clean| {
        if s.name == target { payload } else { clean }.to_vec()
    })
}

#[test]
fn hostile_counts_fail_closed_without_allocating() {
    // Checksum-*valid* crafted payloads whose declared counts would demand
    // allocations unrelated to the file size must be rejected by
    // validation, not by the allocator.
    use mogul_sparse::persist::put_usize;
    let bytes = updatable_bytes();
    let info = persist::inspect_bytes(&bytes).unwrap();

    // Graph section declaring 2^60 nodes (isolated nodes carry no payload
    // bytes, so only the cross-check against the meta item count stops it).
    let graph = info.sections.iter().find(|s| s.name == "graph").unwrap();
    let mut payload = bytes[graph.offset..graph.offset + graph.len].to_vec();
    payload[..8].copy_from_slice(&(1u64 << 60).to_le_bytes());
    match persist::load_updatable_from_bytes(&rebuild_with_section(&bytes, "graph", &payload)) {
        Err(PersistError::SectionDecode { section, .. }) => assert_eq!(section, "graph"),
        other => panic!("hostile graph node count gave {other:?}"),
    }

    // Updatable section declaring a next-id counter of 2^60 (the id → node
    // table is sized by it; the format caps it at persist::MAX_STABLE_IDS).
    let updatable = info
        .sections
        .iter()
        .find(|s| s.name == "updatable")
        .unwrap();
    let mut payload = bytes[updatable.offset..updatable.offset + updatable.len].to_vec();
    // Layout: sigma, knn_k, max_support, fraction, 3 clustering fields,
    // epoch (8 x 8 bytes), then next_id.
    payload[64..72].copy_from_slice(&(1u64 << 60).to_le_bytes());
    match persist::load_updatable_from_bytes(&rebuild_with_section(&bytes, "updatable", &payload)) {
        Err(PersistError::SectionDecode { section, .. }) => assert_eq!(section, "updatable"),
        other => panic!("hostile next-id counter gave {other:?}"),
    }

    // Bounds section whose border columns index past the score vector —
    // accepted at load, this would panic inside a serving worker later.
    let index_file = index_bytes();
    let oos = persist::load_index_from_bytes(&index_file).unwrap();
    let num_clusters = oos.index().ordering().num_clusters();
    let n = oos.index().num_nodes();
    let mut payload = Vec::new();
    put_usize(&mut payload, num_clusters);
    for _ in 0..num_clusters {
        payload.extend_from_slice(&0.25f64.to_bits().to_le_bytes());
        put_usize(&mut payload, 1);
        put_usize(&mut payload, n + 3); // out of range
        payload.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
    }
    match persist::load_index_from_bytes(&rebuild_with_section(&index_file, "bounds", &payload)) {
        Err(PersistError::SectionDecode { section, .. }) => assert_eq!(section, "bounds"),
        other => panic!("out-of-range border column gave {other:?}"),
    }
}

/// The fields of a v2 (and v3) `factors` payload: `n`, the strictly-upper rows of
/// `U = Lᵀ` (`u32` offsets and columns, `f64` values), `D` and the
/// boosted-pivot count, each count stored as a `u64`.
#[derive(Debug, Clone)]
struct V2Factors {
    n: u64,
    nnz: u64,
    ptr: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    d: Vec<f64>,
    boosted: u64,
}

impl V2Factors {
    fn parse(bytes: &[u8]) -> Self {
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let (n, nnz) = (u64_at(0), u64_at(8));
        let (n_, nnz_) = (n as usize, nnz as usize);
        let u32s = |at: usize, len: usize| -> Vec<u32> {
            (0..len)
                .map(|i| u32::from_le_bytes(bytes[at + 4 * i..at + 4 * i + 4].try_into().unwrap()))
                .collect()
        };
        let f64s = |at: usize, len: usize| -> Vec<f64> {
            (0..len)
                .map(|i| f64::from_bits(u64_at(at + 8 * i)))
                .collect()
        };
        let cols_at = 16 + 4 * (n_ + 1);
        let vals_at = cols_at + 4 * nnz_;
        let d_at = vals_at + 8 * nnz_;
        assert_eq!(bytes.len(), d_at + 8 * n_ + 8, "the v2 factors layout");
        V2Factors {
            n,
            nnz,
            ptr: u32s(16, n_ + 1),
            cols: u32s(cols_at, nnz_),
            vals: f64s(vals_at, nnz_),
            d: f64s(d_at, n_),
            boosted: u64_at(d_at + 8 * n_),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.n.to_le_bytes());
        out.extend_from_slice(&self.nnz.to_le_bytes());
        for &x in self.ptr.iter().chain(&self.cols) {
            out.extend_from_slice(&x.to_le_bytes());
        }
        for &v in self.vals.iter().chain(&self.d) {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&self.boosted.to_le_bytes());
        out
    }

    /// A row other than the first holding at least `entries` strictly-upper
    /// entries.
    fn row_with(&self, entries: usize) -> usize {
        (1..self.ptr.len() - 1)
            .find(|&i| (self.ptr[i + 1] - self.ptr[i]) as usize >= entries)
            .expect("the fixture has such a row")
    }
}

/// The `factors` payload of a saved file.
fn factors_payload(bytes: &[u8]) -> Vec<u8> {
    let info = persist::inspect_bytes(bytes).unwrap();
    let s = info.sections.iter().find(|s| s.name == "factors").unwrap();
    bytes[s.offset..s.offset + s.len].to_vec()
}

#[test]
fn factors_whose_search_layout_overflows_fail_typed_at_load() {
    // Every value finite and every pivot non-zero, so the factors decode;
    // but `l_ij * d_j` overflows, and the search layout stores that product.
    let index_file = index_bytes();
    let oos = persist::load_index_from_bytes(&index_file).unwrap();
    let index = oos.index();
    let l = index
        .factor_l()
        .map_values(|v| if v == 1.0 { v } else { v * 1e300 });
    let d: Vec<f64> = index.factor_d().iter().map(|d| d * 1e300).collect();
    // Format v1: the CSR `L`, `D` and the boosted-pivot count under a v1
    // header.
    let mut payload = Vec::new();
    mogul_sparse::persist::encode_csr(&l, &mut payload);
    mogul_sparse::persist::put_f64_slice(&mut payload, &d);
    mogul_sparse::persist::put_usize(&mut payload, 0);
    let v1 = resealed(&index_file, 1, |s, clean| {
        if s.name == "factors" { &payload } else { clean }.to_vec()
    });
    // Formats v2 and v3: the strictly-upper rows and `D`.
    let mut upper = V2Factors::parse(&factors_payload(&index_file));
    upper.vals.iter_mut().for_each(|v| *v *= 1e300);
    upper.d.iter_mut().for_each(|v| *v *= 1e300);
    let v3 = rebuild_with_section(&index_file, "factors", &upper.encode());
    let v2 = resealed(&v3, 2, |_, clean| clean.to_vec());
    for (version, file) in [(1, v1), (2, v2), (3, v3)] {
        assert_eq!(persist::inspect_bytes(&file).unwrap().version, version);
        match persist::load_index_from_bytes(&file) {
            Err(PersistError::SectionDecode { section, source }) => {
                assert_eq!(section, SectionKind::Factors.name());
                assert!(
                    source.to_string().contains("not finite"),
                    "v{version}: {source}"
                );
            }
            other => panic!("v{version}: an overflowing factor product gave {other:?}"),
        }
    }
}

#[test]
fn hostile_v2_factors_payloads_fail_typed() {
    // Checksum-valid files whose v2 `factors` payload breaks one structural
    // rule each. Every one fails typed, naming the section and the rule it
    // broke; the counts declared past the payload would ask for terabytes
    // if allocated.
    let index_file = index_bytes();
    let clean = V2Factors::parse(&factors_payload(&index_file));
    let n = clean.n as usize;
    let nnz = clean.nnz as usize;
    let two = clean.row_with(2);
    let (first, second) = (clean.ptr[two] as usize, clean.ptr[two] as usize + 1);
    let edit = |case: &'static str, rule: &'static str, change: &dyn Fn(&mut V2Factors)| {
        let mut hostile = clean.clone();
        change(&mut hostile);
        (case, rule, hostile.encode())
    };
    let ascend = "columns must ascend";
    let mut cases = vec![
        edit("offsets not monotone", "offsets fall", &|f| {
            f.ptr[n / 2] = f.ptr[n / 2 + 1] + 1
        }),
        edit("last offset below nnz", "end at offset", &|f| {
            f.ptr[n] = nnz as u32 - 1
        }),
        edit("first offset not 0", "offsets starting at", &|f| {
            f.ptr[0] = 1
        }),
        edit("a column on its row", ascend, &|f| {
            f.cols[first] = two as u32
        }),
        edit("a column below its row", ascend, &|f| {
            f.cols[first] = two as u32 - 1
        }),
        edit("a column past n", ascend, &|f| f.cols[second] = n as u32),
        edit("columns not ascending", ascend, &|f| {
            f.cols.swap(first, second)
        }),
        edit("a repeated column", ascend, &|f| {
            f.cols[second] = f.cols[first]
        }),
        edit("a NaN value", "strict upper value", &|f| {
            f.vals[nnz / 2] = f64::NAN
        }),
        edit("an infinite value", "strict upper value", &|f| {
            f.vals[0] = f64::NEG_INFINITY
        }),
        edit("a zero pivot", "diagonal pivot 3", &|f| f.d[3] = 0.0),
        edit("a NaN pivot", "diagonal pivot 3", &|f| f.d[3] = f64::NAN),
        edit("an infinite pivot", "diagonal pivot", &|f| {
            f.d[n - 1] = f64::INFINITY
        }),
        edit("an overflowing product", "l_ij * d_j", &|f| {
            f.vals.iter_mut().for_each(|v| *v *= 1e300);
            f.d.iter_mut().for_each(|v| *v *= 1e300);
        }),
        edit("n declared past the payload", "row offsets", &|f| {
            f.n = 1 << 40
        }),
        edit(
            "nnz declared past the payload",
            "strictly-upper columns",
            &|f| f.nnz = 1 << 40,
        ),
        edit("nnz whose byte size overflows", "overflows", &|f| {
            f.nnz = u64::MAX / 2
        }),
        edit("n one short", "trailing bytes", &|f| f.n -= 1),
    ];
    let truncated = clean.encode();
    cases.push((
        "a payload cut short",
        "truncated payload",
        truncated[..truncated.len() - 9].to_vec(),
    ));
    let mut trailing = clean.encode();
    trailing.push(0);
    cases.push(("a trailing byte", "trailing bytes", trailing));
    for (case, rule, payload) in &cases {
        let file = rebuild_with_section(&index_file, "factors", payload);
        match persist::load_index_from_bytes(&file) {
            Err(PersistError::SectionDecode { section, source }) => {
                assert_eq!(section, SectionKind::Factors.name(), "{case}");
                assert!(source.to_string().contains(rule), "{case}: {source}");
            }
            other => panic!("{case}: expected a factors decode error, got {other:?}"),
        }
    }
    // The untouched payload still loads through the same rebuild.
    let file = rebuild_with_section(&index_file, "factors", &clean.encode());
    assert!(persist::load_index_from_bytes(&file).is_ok());
}

#[test]
fn non_finite_feature_values_are_rejected_at_load() {
    // A checksum proves the bytes are the ones that were written, not that
    // they are numbers a distance can be taken over: a well-formed file
    // whose features section holds a NaN or an infinity must
    // fail typed, naming the section, from every loader.
    let index_file = index_bytes();
    let updatable_file = updatable_bytes();
    let info = persist::inspect_bytes(&index_file).unwrap();
    let features = info.sections.iter().find(|s| s.name == "features").unwrap();
    let clean = &index_file[features.offset..features.offset + features.len];
    // Layout: row count, dimensionality, then the values row by row.
    let value = 16 + 8 * (3 * 5 + 1);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut payload = clean.to_vec();
        payload[value..value + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
        let loads = [
            persist::load_index_from_bytes(&rebuild_with_section(
                &index_file,
                "features",
                &payload,
            ))
            .map(|_| ()),
            persist::load_serving_from_bytes(&rebuild_with_section(
                &index_file,
                "features",
                &payload,
            ))
            .map(|_| ()),
            persist::load_updatable_from_bytes(&rebuild_with_section(
                &updatable_file,
                "features",
                &payload,
            ))
            .map(|_| ()),
        ];
        for load in loads {
            match load {
                Err(PersistError::SectionDecode { section, source }) => {
                    assert_eq!(section, SectionKind::Features.name());
                    assert!(source.to_string().contains("vector 5"), "{source}");
                }
                other => panic!("{bad} in the features section gave {other:?}"),
            }
        }
    }
    // The untouched payload still loads through the same rebuild.
    assert!(
        persist::load_index_from_bytes(&rebuild_with_section(&index_file, "features", clean))
            .is_ok()
    );
}

#[test]
fn flavor_mismatches_are_typed_not_garbled() {
    let index = index_bytes();
    let updatable = updatable_bytes();
    assert!(matches!(
        persist::load_updatable_from_bytes(&index),
        Err(PersistError::InvalidState(_))
    ));
    assert!(matches!(
        persist::load_index_from_bytes(&updatable),
        Err(PersistError::InvalidState(_))
    ));
    // Both serveable flavors dispatch correctly through load_serving.
    assert!(persist::load_serving_from_bytes(&index).is_ok());
    assert!(persist::load_serving_from_bytes(&updatable).is_ok());
}

/// The retired EMR baseline's on-disk codes: reserved, never reused.
const RETIRED_EMR_FLAVOR: u64 = 2;
const RETIRED_EMR_SECTION: u32 = 9;

/// `index_bytes()` re-written section by section with its meta saying
/// `flavor` and one extra section of kind `extra` appended. Every checksum
/// is valid, so only the flavor and the extra section differ.
fn index_file_with(flavor: u64, extra: u32) -> Vec<u8> {
    let bytes = index_bytes();
    let info = persist::inspect_bytes(&bytes).unwrap();
    let mut writer = SectionWriter::new(Vec::new()).unwrap();
    for s in &info.sections {
        let payload = &bytes[s.offset..s.offset + s.len];
        if s.name == "meta" {
            // The meta payload opens with the flavor code (0: an index).
            assert_eq!(payload[..8], 0u64.to_le_bytes());
            let mut meta = Vec::new();
            mogul_sparse::persist::put_u64(&mut meta, flavor);
            meta.extend_from_slice(&payload[8..]);
            writer.write_section(SectionKind::Meta, &meta).unwrap();
        } else {
            writer.write_raw_section(s.code, payload).unwrap();
        }
    }
    writer
        .write_raw_section(extra, b"anchor-graph state")
        .unwrap();
    writer.finish().unwrap()
}

fn assert_unknown_flavor<T: std::fmt::Debug>(loaded: Result<T, PersistError>) {
    match loaded {
        Err(PersistError::SectionDecode { section, source }) => {
            assert_eq!(section, SectionKind::Meta.name());
            assert!(
                source.to_string().contains("unknown file flavor 2"),
                "{source}"
            );
        }
        other => panic!("a flavor-2 file gave {other:?}"),
    }
}

#[test]
fn the_retired_emr_flavor_fails_typed_like_any_unknown_flavor() {
    let bytes = index_file_with(RETIRED_EMR_FLAVOR, RETIRED_EMR_SECTION);
    assert_unknown_flavor(persist::load_serving_from_bytes(&bytes));
    assert_unknown_flavor(persist::load_index_from_bytes(&bytes));
    assert_unknown_flavor(persist::load_updatable_from_bytes(&bytes));
    assert_unknown_flavor(persist::inspect_bytes(&bytes));
    // An unused flavor code fails the same way.
    let bytes = index_file_with(3, RETIRED_EMR_SECTION);
    assert!(matches!(
        persist::load_index_from_bytes(&bytes),
        Err(PersistError::SectionDecode {
            section: "meta",
            ..
        })
    ));
}

#[test]
fn a_stray_retired_emr_section_is_skipped_like_any_unknown_section() {
    let bytes = index_file_with(0, RETIRED_EMR_SECTION);
    let info = persist::inspect_bytes(&bytes).unwrap();
    let stray = info.sections.last().unwrap();
    assert_eq!((stray.code, stray.name), (RETIRED_EMR_SECTION, "unknown"));
    assert_eq!(SectionKind::from_code(RETIRED_EMR_SECTION), None);

    let original = persist::load_index_from_bytes(&index_bytes()).unwrap();
    let loaded = persist::load_index_from_bytes(&bytes).unwrap();
    assert_eq!(
        original.index().search(3, 5).unwrap(),
        loaded.index().search(3, 5).unwrap()
    );
    assert!(persist::load_serving_from_bytes(&bytes).is_ok());
}

#[test]
fn dirty_updatable_state_refuses_to_persist() {
    let mut index = IndexBuilder::new()
        .knn_k(3)
        .rebuild_policy(RebuildPolicy::never())
        .build(features())
        .unwrap();
    let mut delta = IndexDelta::new();
    delta.insert(vec![0.4, 0.5, 0.1]);
    index.apply(&delta).unwrap();
    assert!(!index.snapshot().is_clean());
    match persist::save_updatable_to(&index, Vec::new()) {
        Err(PersistError::InvalidState(msg)) => assert!(msg.contains("rebuild")),
        other => panic!("expected InvalidState, got {other:?}"),
    }
    // After an explicit rebuild the same state persists fine.
    index.rebuild().unwrap();
    assert!(persist::save_updatable_to(&index, Vec::new()).is_ok());
}

// ---------------------------------------------------------------------------
// Golden fixtures: format v1, v2 and v3 compatibility pins
// ---------------------------------------------------------------------------

/// The committed format-v1 golden fixture, written by the last v1 build.
/// Every future build must keep loading this byte-for-byte file; an
/// incompatible format change must bump `FORMAT_VERSION` and add a new
/// fixture instead of breaking this one.
const GOLDEN: &[u8] = include_bytes!("fixtures/golden_v1.mog1");

/// The committed format-v2 golden fixture, written by the last v2 build,
/// under the same rule.
const GOLDEN_V2: &[u8] = include_bytes!("fixtures/golden_v2.mog1");

/// The committed format-v3 golden fixture (written by
/// `regenerate_golden_fixture` below), under the same rule.
const GOLDEN_V3: &[u8] = include_bytes!("fixtures/golden_v3.mog1");

/// The section set of an updatable file, in table order (the same in every
/// version: v1 and v2 differ only in the `factors` payload, v2 and v3 only
/// in the checksum hash).
const UPDATABLE_SECTIONS: [&str; 8] = [
    "meta",
    "ordering",
    "factors",
    "bounds",
    "features",
    "stats",
    "graph",
    "updatable",
];

/// The exact corpus the fixture was built from (kept for regeneration and
/// for the equivalence assertion below).
fn golden_index() -> mogul_core::update::UpdatableIndex {
    let mut index = IndexBuilder::new()
        .knn_k(3)
        .rebuild_policy(RebuildPolicy::never())
        .build(features())
        .unwrap();
    // One insert + one removal, then a rebuild: the fixture exercises the
    // full updatable flavor (non-identity stable ids, advanced epoch).
    let mut delta = IndexDelta::new();
    delta.insert(vec![0.45, 0.3, 0.2]);
    delta.remove(7);
    index.apply(&delta).unwrap();
    index.rebuild().unwrap();
    index
}

/// Regenerate the golden fixture of the current format version. Run manually
/// after an *intentional*, version-bumped format change (and point `path`
/// at the new version's file first, so no older fixture is overwritten):
/// `cargo test -p mogul-core --test persist_format -- --ignored regenerate`
///
/// The v3 fixture is the v2 fixture loaded and re-saved, so its payloads
/// (the `stats` section's build timings included) are the v2 file's, and
/// only the version and the checksums differ. A version that changes a
/// payload writes `golden_index()` instead.
#[test]
#[ignore = "writes the committed fixture; run only on intentional format changes"]
fn regenerate_golden_fixture() {
    let index = persist::load_updatable_from_bytes(GOLDEN_V2).unwrap();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_v3.mog1");
    persist::save_updatable(&index, path).unwrap();
    eprintln!("wrote {path}");
}

#[test]
fn golden_fixture_pins_format_v1() {
    // Structure: version, flavor, counts.
    let info = persist::inspect_bytes(GOLDEN).expect("golden fixture must stay loadable");
    assert_eq!(info.version, 1, "golden fixture must remain format v1");
    assert_eq!(info.flavor, FileFlavor::Updatable);
    assert_eq!(info.items, 24);
    assert_eq!(info.dim, 3);
    let names: Vec<&str> = info.sections.iter().map(|s| s.name).collect();
    assert_eq!(
        names, UPDATABLE_SECTIONS,
        "v1 section set changed — bump FORMAT_VERSION instead"
    );
    assert_golden_answers_like_a_rebuild(GOLDEN);
}

#[test]
fn golden_fixture_pins_format_v2() {
    assert_pins_upper_factors(GOLDEN_V2, 2);
}

#[test]
fn golden_fixture_pins_format_v3() {
    assert_pins_upper_factors(GOLDEN_V3, 3);
    assert_eq!(
        persist::inspect_bytes(GOLDEN_V3).unwrap().version,
        persist::FORMAT_VERSION,
        "the writer's version"
    );
}

/// A v2 or v3 fixture: its version, flavor, counts and section set; its
/// factors payload is the strictly-upper layout and holds the rebuilt
/// index's factors bit for bit; it answers like a rebuild.
fn assert_pins_upper_factors(golden: &[u8], version: u32) {
    let info = persist::inspect_bytes(golden).expect("golden fixture must stay loadable");
    assert_eq!(
        info.version, version,
        "golden fixture must remain format v{version}"
    );
    assert_eq!(info.flavor, FileFlavor::Updatable);
    assert_eq!(info.items, 24);
    assert_eq!(info.dim, 3);
    let names: Vec<&str> = info.sections.iter().map(|s| s.name).collect();
    assert_eq!(
        names, UPDATABLE_SECTIONS,
        "v{version} section set changed — bump FORMAT_VERSION instead"
    );
    let stored = V2Factors::parse(&factors_payload(golden));
    let reference = golden_index();
    let base = reference.snapshot();
    let index = base.base().index();
    assert_eq!(stored.n, 24);
    assert_eq!(stored.nnz as usize + 24, index.precompute_stats().l_nnz);
    assert_eq!(bits(&stored.d), bits(index.factor_d()));
    assert_golden_answers_like_a_rebuild(golden);
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The fixture answers queries exactly like the index it was built from
/// (the build is deterministic), including the stable-id remapping of the
/// removed item 7 / appended item 24.
fn assert_golden_answers_like_a_rebuild(golden: &[u8]) {
    let loaded = persist::load_updatable_from_bytes(golden).unwrap();
    let reference = golden_index();
    assert_eq!(loaded.epoch(), reference.epoch());
    let loaded_snap = loaded.snapshot();
    let reference_snap = reference.snapshot();
    assert_eq!(loaded_snap.item_ids(), reference_snap.item_ids());
    assert!(!loaded_snap.contains(7), "removed id resurfaced");
    assert!(loaded_snap.contains(24), "inserted id lost");
    for id in loaded_snap.item_ids() {
        assert_eq!(
            loaded_snap.query_by_id(id, 5).unwrap(),
            reference_snap.query_by_id(id, 5).unwrap(),
            "golden fixture answers diverged at id {id}"
        );
    }
}

#[test]
fn a_v1_file_and_its_v3_resave_hold_the_same_factors_and_answers() {
    let from_v1 = persist::load_updatable_from_bytes(GOLDEN).unwrap();
    let resaved = persist::save_updatable_to(&from_v1, Vec::new()).unwrap();
    assert_eq!(persist::inspect_bytes(&resaved).unwrap().version, 3);
    assert!(
        resaved.len() < GOLDEN.len(),
        "v3 ({} B) must be smaller than v1 ({} B)",
        resaved.len(),
        GOLDEN.len()
    );
    let from_v2 = persist::load_updatable_from_bytes(&resaved).unwrap();
    let (a, b) = (from_v1.snapshot(), from_v2.snapshot());
    let (ia, ib) = (a.base().index(), b.base().index());
    assert_eq!(ia.factor_l().indptr(), ib.factor_l().indptr());
    assert_eq!(ia.factor_l().indices(), ib.factor_l().indices());
    assert_eq!(bits(ia.factor_l().values()), bits(ib.factor_l().values()));
    assert_eq!(bits(ia.factor_d()), bits(ib.factor_d()));
    assert_eq!(ia.memory_bytes(), ib.memory_bytes());

    // Item and feature lanes, one panel and lanes of one: score bits,
    // neighbours and work counters.
    let probes: Vec<Vec<f64>> = features()
        .iter()
        .map(|row| row.iter().map(|x| x + 0.05).collect())
        .collect();
    let lanes: Vec<(Query, usize)> = a
        .item_ids()
        .into_iter()
        .map(|id| (Query::Item(id), 6))
        .chain(probes.iter().map(|p| (Query::Feature(p), 4)))
        .collect();
    let mut ws = mogul_core::update::SnapshotWorkspace::new();
    for chunk in [&lanes[..], &lanes[..1], &lanes[lanes.len() - 1..]] {
        let got_a = a.query_batch_in(&mut ws, chunk).unwrap();
        let got_b = b.query_batch_in(&mut ws, chunk).unwrap();
        for (x, y) in got_a.iter().zip(&got_b) {
            let answer = |r: &mogul_core::OutOfSampleResult| {
                let top: Vec<(usize, u64)> = r
                    .top_k
                    .items()
                    .iter()
                    .map(|item| (item.node, item.score.to_bits()))
                    .collect();
                (top, r.neighbors.clone(), r.stats)
            };
            assert_eq!(answer(x), answer(y));
        }
    }
}

/// Each section's name and payload bytes, in table order.
fn payloads(bytes: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let info = persist::inspect_bytes(bytes).unwrap();
    info.sections
        .iter()
        .map(|s| (s.name, bytes[s.offset..s.offset + s.len].to_vec()))
        .collect()
}

#[test]
fn a_v2_file_resaves_as_v3_with_the_same_section_payloads() {
    let resaved = persist::save_updatable_to(
        &persist::load_updatable_from_bytes(GOLDEN_V2).unwrap(),
        Vec::new(),
    )
    .unwrap();
    assert_eq!(persist::inspect_bytes(&resaved).unwrap().version, 3);
    assert_eq!(payloads(&resaved), payloads(GOLDEN_V2));
    // Only the hash changed: the same container, byte for byte, outside the
    // header's version and the checksums.
    assert_eq!(resaved.len(), GOLDEN_V2.len());
    assert_eq!(
        resaved, GOLDEN_V3,
        "the v3 fixture is the v2 fixture re-sealed"
    );
}

#[test]
fn a_loaded_index_saves_the_bytes_it_was_loaded_from() {
    for bytes in [updatable_bytes(), GOLDEN_V3.to_vec()] {
        let loaded = persist::load_updatable_from_bytes(&bytes).unwrap();
        let first = persist::save_updatable_to(&loaded, Vec::new()).unwrap();
        let second = persist::save_updatable_to(&loaded, Vec::new()).unwrap();
        assert!(
            first == second,
            "one loaded index saved twice gave two files"
        );
        assert!(first == bytes, "a loaded index re-saved other bytes");
    }
    let oos = persist::load_index_from_bytes(&index_bytes()).unwrap();
    let first = persist::save_index_to(&oos, Vec::new()).unwrap();
    assert!(first == persist::save_index_to(&oos, Vec::new()).unwrap());
}

#[test]
fn two_builds_of_one_corpus_differ_only_in_their_stats_section() {
    // The `stats` section stores the build's wall-clock `*_secs`, so two
    // builds of the same items may differ there, in its table checksum and
    // in the table's checksum in the footer, but in no other byte.
    let build = || {
        let index = IndexBuilder::new()
            .knn_k(3)
            .rebuild_policy(RebuildPolicy::never())
            .build(corpus(40))
            .unwrap();
        persist::save_updatable_to(&index, Vec::new()).unwrap()
    };
    let (a, b) = (build(), build());
    assert_eq!(a.len(), b.len());
    let info = persist::inspect_bytes(&a).unwrap();
    let stats = info
        .sections
        .iter()
        .position(|s| s.name == "stats")
        .unwrap();
    let (offset, len) = (info.sections[stats].offset, info.sections[stats].len);
    // A table entry is { code u32, offset u64, len u64, checksum u64 }; the
    // footer is { count u64, table checksum u64, trailer magic }.
    let stats_entry = a.len() - 24 - 28 * (info.sections.len() - stats);
    let may_differ = [
        offset..offset + len,
        stats_entry + 20..stats_entry + 28,
        a.len() - 16..a.len() - 8,
    ];
    for (at, (x, y)) in a.iter().zip(&b).enumerate() {
        assert!(
            x == y || may_differ.iter().any(|range| range.contains(&at)),
            "two builds differ at byte {at} of {}, outside `stats`",
            a.len()
        );
    }
}

/// Every 8-byte count or length field of the `meta`, `ordering`, `factors`
/// and `features` payloads of `bytes`, as `(section, byte offset, field)`.
fn count_fields(bytes: &[u8]) -> Vec<(&'static str, usize, String)> {
    let u64_at = |payload: &[u8], at: usize| {
        u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize
    };
    let mut fields = Vec::new();
    for (name, payload) in payloads(bytes) {
        match name {
            // flavor, alpha, factorization, then the four counts.
            "meta" => {
                for (at, field) in [
                    (24, "oos neighbours"),
                    (32, "cluster probes"),
                    (40, "items"),
                    (48, "dim"),
                ] {
                    fields.push((name, at, field.to_string()));
                }
            }
            // The permutation's length and entries, the cluster count, then
            // each cluster's start and length.
            "ordering" => {
                let n = u64_at(&payload, 0);
                let clusters_at = 8 + 8 * n;
                fields.push((name, 0, "permutation length".into()));
                fields.push((name, clusters_at, "cluster count".into()));
                for c in 0..u64_at(&payload, clusters_at) {
                    fields.push((
                        name,
                        clusters_at + 8 + 16 * c + 8,
                        format!("cluster {c} length"),
                    ));
                }
            }
            // n, nnz, ..., the boosted-pivot count last.
            "factors" => {
                fields.push((name, 0, "n".into()));
                fields.push((name, 8, "nnz".into()));
                fields.push((name, payload.len() - 8, "boosted pivots".into()));
            }
            // Row count, width.
            "features" => {
                fields.push((name, 0, "rows".into()));
                fields.push((name, 8, "dim".into()));
            }
            _ => {}
        }
    }
    fields
}

/// A loaded index must hold together and answer: its ordering validates,
/// its parts agree on the node count, and queries by id and by feature
/// return without a panic.
fn assert_answers(oos: &OutOfSampleIndex, case: &str) {
    let index = oos.index();
    assert!(
        index.ordering().validate(),
        "{case}: loaded an invalid ordering"
    );
    let n = index.num_nodes();
    assert_eq!(index.factor_d().len(), n, "{case}");
    for node in [0, n / 2, n - 1] {
        let _ = index.search(node, 5);
    }
    let _ = oos.query(&[0.5, 0.5, 0.1], 5);
}

#[test]
fn resealed_hostile_counts_fail_typed_or_load_an_index_that_answers() {
    // The resealing mutator: every count or length field set to each
    // hostile value in turn, every checksum re-sealed with the v3 hash, so
    // the decoders behind the checksum see the value. Each file must fail
    // with a typed error — the loaders return `Result`, so a panic fails
    // the test — or load an index that validates and answers.
    let index_file = index_bytes();
    let updatable_file = updatable_bytes();
    let n = persist::inspect_bytes(&index_file).unwrap().items as u64;
    let values = [0, 1, n + 1, 1 << 32, 1 << 60, u64::MAX];
    let mut outcomes = (0usize, 0usize);
    for (file, updatable) in [(&index_file, false), (&updatable_file, true)] {
        for (section, at, field) in count_fields(file) {
            for value in values {
                let hostile = resealed(file, persist::FORMAT_VERSION, |s, clean| {
                    let mut payload = clean.to_vec();
                    if s.name == section {
                        payload[at..at + 8].copy_from_slice(&value.to_le_bytes());
                    }
                    payload
                });
                let case = format!("{section} {field} = {value}");
                let served = persist::load_serving_from_bytes(&hostile);
                if updatable {
                    match persist::load_updatable_from_bytes(&hostile) {
                        Ok(index) => {
                            outcomes.1 += 1;
                            assert_answers(index.snapshot().base(), &case);
                            assert!(served.is_ok(), "{case}: only the writer's loader took it");
                        }
                        Err(_) => outcomes.0 += 1,
                    }
                } else {
                    match persist::load_index_from_bytes(&hostile) {
                        Ok(oos) => {
                            outcomes.1 += 1;
                            assert_answers(&oos, &case);
                            assert!(served.is_ok(), "{case}: only the index loader took it");
                        }
                        Err(_) => outcomes.0 += 1,
                    }
                }
                if let Ok(snapshot) = served {
                    assert_answers(snapshot.base(), &case);
                }
            }
        }
    }
    // Most values break a count; the ones that load are the fields a
    // loader may take at any value (e.g. a probe count it clamps).
    assert!(
        outcomes.0 > outcomes.1,
        "typed errors {} vs loads {}",
        outcomes.0,
        outcomes.1
    );
}
