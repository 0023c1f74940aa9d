//! SIMD-vs-scalar bit-identity at the search level.
//!
//! The panel engine dispatches its sweeps through the lane-kernel trait of
//! `mogul_sparse::kernel`; this binary pins the end-to-end contract — every
//! batched result (scores, rankings, `SearchStats` work counters, pruning
//! decisions) is bit-identical under the forced-scalar and forced-SIMD
//! kernels, across panel widths, search modes and the masked shrinking-width
//! transitions of pruned panels. The AVX2 kernel is compiled into every
//! `x86_64` build, so on an AVX2 host each `==` here compares the real AVX2
//! instructions with the scalar reference, and `pin_kernel` fails the test if
//! a pin did not select the kernel it names; on any other host both pins run
//! the scalar kernel, which is all such a host ever runs.
//!
//! This lives in its own test binary because `set_kernel_override` is
//! process-wide, and the tests that use it take turns under [`KERNEL_PIN`]:
//! a pin cannot be flipped by another test between `pin_kernel` and the
//! search it is for.

use mogul_core::{BatchWorkspace, CoreError, MogulConfig, MogulIndex, SearchMode, PANEL_WIDTH};
use mogul_data::coil::{coil_like, CoilLikeConfig};
use mogul_graph::knn::{knn_graph, KnnConfig};
use mogul_sparse::{active_kernel, set_kernel_override, KernelKind};
use std::sync::Mutex;

/// Held by every test that pins a kernel, for as long as the pin matters.
static KERNEL_PIN: Mutex<()> = Mutex::new(());

/// Pin `kind` and check the pin took: the kernel named on an AVX2 host,
/// scalar anywhere else.
fn pin_kernel(kind: KernelKind) {
    set_kernel_override(Some(kind));
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let want = if avx2 { kind } else { KernelKind::Scalar };
    assert_eq!(active_kernel(), want, "pin {kind:?}, AVX2 {avx2}");
}

fn build_indices() -> (MogulIndex, MogulIndex) {
    let data = coil_like(&CoilLikeConfig {
        num_objects: 8,
        poses_per_object: 18,
        dim: 12,
        noise: 0.02,
        ..Default::default()
    })
    .unwrap();
    let graph = knn_graph(data.features(), KnnConfig::with_k(5)).unwrap();
    let approx = MogulIndex::build(&graph, MogulConfig::default()).unwrap();
    let exact = MogulIndex::build(&graph, MogulConfig::exact()).unwrap();
    (approx, exact)
}

/// Run `f` once with each kernel pinned, clearing the override afterwards,
/// and return both results. The caller holds [`KERNEL_PIN`].
fn under_both_kernels<T>(mut f: impl FnMut() -> T) -> (T, T) {
    pin_kernel(KernelKind::Scalar);
    let scalar = f();
    pin_kernel(KernelKind::Simd);
    let simd = f();
    set_kernel_override(None);
    (scalar, simd)
}

#[test]
fn batched_searches_are_bit_identical_under_both_kernels() {
    let _pin = KERNEL_PIN.lock().unwrap_or_else(|e| e.into_inner());
    let (approx, exact) = build_indices();
    let mut ws = BatchWorkspace::new();
    for (label, index) in [("incomplete", &approx), ("exact", &exact)] {
        let n = index.num_nodes();
        // Widths 3..=PANEL_WIDTH cover every remainder of the 4-wide AVX2
        // chunking (narrower panels never reach a lane kernel); the larger
        // batch exercises several panels plus a ragged tail. Pruned mode
        // drives the masked shrinking-width transitions, NoPruning sweeps
        // every cluster at full width.
        for size in [1usize, 2, 3, 4, 5, 6, 7, PANEL_WIDTH, 3 * PANEL_WIDTH + 5] {
            let queries: Vec<usize> = (0..size).map(|i| (i * 37 + size) % n).collect();
            for mode in [
                SearchMode::Pruned,
                SearchMode::NoPruning,
                SearchMode::FullSubstitution,
            ] {
                let (scalar, simd) = under_both_kernels(|| {
                    index.search_batch_in(&mut ws, &queries, 10, mode).unwrap()
                });
                assert_eq!(scalar, simd, "{label}: size {size} mode {mode:?}");
            }
        }
        // Pruning must actually fire somewhere for the masked transitions to
        // be covered (not just full-width sweeps).
        let all: Vec<usize> = (0..n).collect();
        pin_kernel(KernelKind::Simd);
        let results = index
            .search_batch_in(&mut ws, &all, 10, SearchMode::Pruned)
            .unwrap();
        set_kernel_override(None);
        assert!(
            results.iter().any(|(_, s)| s.clusters_pruned > 0),
            "{label}: pruned mode never pruned — masked path not exercised"
        );
    }
}

#[test]
fn panel_solves_match_under_both_kernels() {
    let _pin = KERNEL_PIN.lock().unwrap_or_else(|e| e.into_inner());
    let (approx, exact) = build_indices();
    let mut ws = BatchWorkspace::new();
    for index in [&approx, &exact] {
        let n = index.num_nodes();
        // Width 11 is a panel of eight and a panel of three.
        for width in [5usize, 11] {
            let rhs: Vec<f64> = (0..n * width)
                .map(|i| ((i * 29 + 7) % 23) as f64 / 23.0 - 0.5)
                .collect();
            let (scalar, simd) = under_both_kernels(|| {
                let mut out = Vec::new();
                index
                    .solve_ranking_system_batch_in(&mut ws, &rhs, width, &mut out)
                    .unwrap();
                out
            });
            assert_eq!(scalar, simd, "width {width}");
        }
    }
}

#[test]
fn batch_solve_mismatch_payload_carries_requested_shape() {
    let (approx, _) = build_indices();
    let n = approx.num_nodes();
    let mut ws = BatchWorkspace::new();
    let mut out = Vec::new();
    // width == 0: requested width reported verbatim, panel as one column —
    // not the `width.max(1)` fabrication the payload used to carry.
    let err = approx
        .solve_ranking_system_batch_in(&mut ws, &[1.0; 4], 0, &mut out)
        .unwrap_err();
    match err {
        CoreError::DimensionMismatch { left, right, .. } => {
            assert_eq!(left, (n, 0));
            assert_eq!(right, (4, 1));
        }
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
    // Ragged panel: reported verbatim as a column, never rounded.
    let err = approx
        .solve_ranking_system_batch_in(&mut ws, &vec![1.0; 2 * n + 1], 2, &mut out)
        .unwrap_err();
    match err {
        CoreError::DimensionMismatch { left, right, .. } => {
            assert_eq!(left, (n, 2));
            assert_eq!(right, (2 * n + 1, 1));
        }
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
}
