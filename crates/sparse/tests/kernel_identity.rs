//! SIMD-vs-scalar bit-identity, and the factorizations against independent
//! references at the sizes the retired wave-parallel path used to take.
//!
//! The kernel engine's exactness contract (`mogul_sparse::kernel`) promises
//! that the AVX2 path performs per lane exactly the IEEE-754 operations of
//! the scalar path, in the same order — so every comparison here is exact
//! `==` on `f64`, never a tolerance. The AVX2 kernel is compiled into every
//! `x86_64` build, so on an AVX2 host this battery pins the real AVX2
//! instructions against the scalar reference, and `pin_kernel` fails the
//! test if a pin did not select the kernel it names; on any other host both
//! pins run the scalar kernel, which is all such a host ever runs.
//!
//! The second half checks the factorization under both rules on a wide,
//! shallow matrix of `n ≥ 1024` against references that share no code with
//! it: `L D Lᵀ` multiplied back out through `matvec`, the dense LU solve, the
//! exact pivot of a singular block, and the fill count of a dense symbolic
//! elimination.

mod support;

use mogul_sparse::kernel::{active_kernel, set_kernel_override, tile_sq_distances, KernelKind};
use mogul_sparse::triangular::{
    scale_diag_multi_into, solve_unit_lower_multi_into, solve_unit_upper_multi_into,
};
use mogul_sparse::vector::max_abs_diff;
use mogul_sparse::vector::squared_euclidean_unchecked;
use mogul_sparse::{
    factorize, CooMatrix, CsrMatrix, Factorization, FeatureMatrix, LdlFactors, SparseError,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// The kernel override is process-wide and tests run on parallel threads:
/// whoever pins a kernel holds this for as long as the pin matters.
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

/// A random symmetric diagonally-dominant (hence SPD) matrix built from an
/// edge list, mimicking the `I − α S` matrices Mogul factorizes.
fn spd_matrix(n: usize, edges: &[(usize, usize)], weight: f64) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut degree = vec![0.0; n];
    for &(a, b) in edges {
        let (a, b) = (a % n, b % n);
        if a == b {
            continue;
        }
        coo.push_symmetric(a, b, -weight).unwrap();
        degree[a] += weight;
        degree[b] += weight;
    }
    for (i, &d) in degree.iter().enumerate() {
        coo.push(i, i, d + 1.0).unwrap();
    }
    coo.to_csr()
}

fn edge_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (4usize..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 1..(3 * n));
        (Just(n), edges)
    })
}

/// A deterministic "ragged" panel whose values round at every operation.
fn panel(n: usize, width: usize, salt: u64) -> Vec<f64> {
    (0..n * width)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(salt);
            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The three sweeps produce bit-identical panels under the scalar and
    /// SIMD kernels, across a lone right-hand side, full and misaligned
    /// widths, for both factorization flavors' factors. The kernel is pinned
    /// through the process-wide override, under [`KERNEL_PIN`].
    #[test]
    fn simd_solves_are_bit_identical_to_scalar((n, edges) in edge_strategy(20), w in 0.05f64..0.45) {
        let _pin = KERNEL_PIN.lock().unwrap_or_else(|e| e.into_inner());
        let matrix = spd_matrix(n, &edges, w);
        let complete = factorize(&matrix, Factorization::Complete).unwrap();
        let incomplete = factorize(&matrix, Factorization::Incomplete).unwrap();
        for factors in [&complete, &incomplete] {
            let (l, u, d) = (&factors.l, &factors.l.transpose(), &factors.d);
            // Widths 1..=8 cover every lane remainder of the 4-wide AVX2
            // chunking, a lone right-hand side included; 17 is four chunks
            // and a remainder.
            for width in [1usize, 2, 3, 4, 5, 6, 7, 8, 17] {
                let b = panel(n, width, width as u64);
                // Per kernel: [unit lower, unit upper, scaled].
                let mut got: Vec<[Vec<f64>; 3]> = Vec::new();
                for kind in [KernelKind::Scalar, KernelKind::Simd] {
                    pin_kernel(kind);
                    let mut out = [Vec::new(), Vec::new(), b.clone()];
                    solve_unit_lower_multi_into(l, &b, width, &mut out[0]).unwrap();
                    solve_unit_upper_multi_into(u, &b, width, &mut out[1]).unwrap();
                    scale_diag_multi_into(d, width, &mut out[2]).unwrap();
                    got.push(out);
                }
                set_kernel_override(None);
                prop_assert_eq!(&got[0], &got[1], "width {}", width);
            }
        }
    }
}

/// A pivot that is not finite or below the tolerance fails typed, at the
/// position of the first such pivot, under the scalar pin, the SIMD pin and
/// no pin, at a lone right-hand side and at the ladder's width 8.
#[test]
fn bad_pivots_fail_typed_under_every_kernel() {
    let _pin = KERNEL_PIN.lock().unwrap_or_else(|e| e.into_inner());
    for pin in [Some(KernelKind::Scalar), Some(KernelKind::Simd), None] {
        match pin {
            Some(kind) => pin_kernel(kind),
            None => set_kernel_override(None),
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, 1e-301] {
            for width in [1usize, 8] {
                let mut panel = vec![1.0; 3 * width];
                assert!(
                    matches!(
                        scale_diag_multi_into(&[2.0, bad, bad], width, &mut panel),
                        Err(SparseError::SingularMatrix { pivot: 1 })
                    ),
                    "pivot {bad}, width {width}, pin {pin:?}"
                );
            }
        }
    }
    set_kernel_override(None);
}

/// The k-NN distance kernel: every (query, tile) of a seeded corpus, with no
/// bound and with a bound that drops some tiles part-way, under both kernels.
/// The distances have the bits of the row-by-row sum, and a tile is dropped
/// only when all its rows end above the bound — identically under both.
#[test]
fn simd_knn_distances_are_bit_identical_to_scalar() {
    const LANES: usize = 8;
    let _pin = KERNEL_PIN.lock().unwrap_or_else(|e| e.into_inner());
    // 21 rows leave a padded last tile; the widths straddle the abandonment
    // stride and the 4-wide AVX2 chunking. Each tile's rows sit within 1 of
    // each other per coordinate and 9 or more from every other tile's.
    for dim in [1usize, 7, 8, 9, 33] {
        let mut values = panel(21, dim, dim as u64);
        for (i, v) in values.iter_mut().enumerate() {
            *v += 10.0 * (i / (dim * LANES)) as f64;
        }
        let features = FeatureMatrix::from_vec(dim, values).unwrap();
        let tiles = features.pack_tiles(LANES);
        let exact = |q: usize, row: usize| {
            let row = features.row(row.min(features.len() - 1));
            squared_euclidean_unchecked(features.row(q), row)
        };
        let bound = dim as f64;
        let mut got = Vec::new();
        for kind in [KernelKind::Scalar, KernelKind::Simd] {
            pin_kernel(kind);
            let mut all = Vec::new();
            for q in 0..features.len() {
                for tile in tiles.chunks_exact(dim * LANES) {
                    all.push((
                        tile_sq_distances::<LANES>(tile, features.row(q), f64::INFINITY),
                        tile_sq_distances::<LANES>(tile, features.row(q), bound),
                    ));
                }
            }
            got.push(all);
        }
        set_kernel_override(None);
        assert_eq!(got[0], got[1], "dim {dim}");
        let per_query = tiles.len() / (dim * LANES);
        let mut dropped = 0usize;
        for (i, (unbounded, bounded)) in got[0].iter().enumerate() {
            let (q, t) = (i / per_query, i % per_query);
            let want: Vec<u64> = (0..LANES)
                .map(|lane| exact(q, t * LANES + lane).to_bits())
                .collect();
            let have = unbounded.expect("nothing exceeds an infinite bound");
            assert_eq!(
                have.map(f64::to_bits).to_vec(),
                want,
                "dim {dim} q {q} tile {t}"
            );
            match bounded {
                Some(kept) => assert_eq!(*kept, have),
                None => {
                    assert!(have.iter().all(|&d2| d2 > bound));
                    dropped += 1;
                }
            }
        }
        assert!(dropped > 0, "dim {dim}: the bound never dropped a tile");
    }
}

/// Many small rings — shallow elimination trees, hundreds of independent
/// rows per dependency level — sprinkled with a few cross-ring edges. At
/// `n ≥ 1024` this is the shape the retired wave-parallel path engaged on.
fn wide_wave_matrix(rings: usize, ring_len: usize, weight: f64) -> CsrMatrix {
    let n = rings * ring_len;
    let mut edges = Vec::new();
    for r in 0..rings {
        let base = r * ring_len;
        for i in 0..ring_len {
            edges.push((base + i, base + (i + 1) % ring_len));
        }
        if r + 1 < rings && r % 7 == 0 {
            edges.push((base, base + ring_len));
        }
    }
    spd_matrix(n, &edges, weight)
}

/// Column `j` of `L D Lᵀ`, multiplied out through `matvec` alone.
fn product_column(f: &LdlFactors, j: usize) -> Vec<f64> {
    let mut e = vec![0.0; f.dim()];
    e[j] = 1.0;
    let mut x = f.l.transpose().matvec(&e).unwrap();
    for (v, d) in x.iter_mut().zip(&f.d) {
        *v *= d;
    }
    f.l.matvec(&x).unwrap()
}

#[test]
fn complete_factors_reconstruct_and_solve_a_wide_matrix() {
    let matrix = wide_wave_matrix(256, 5, 0.2);
    let n = matrix.nrows();
    let f = factorize(&matrix, Factorization::Complete).unwrap();
    assert_eq!(f.boosted_pivots, 0);
    let dense = matrix.to_dense();
    for j in 0..n {
        let diff = max_abs_diff(&product_column(&f, j), dense.row(j)).unwrap();
        assert!(diff < 1e-12, "column {j}: reconstruction error {diff}");
    }
    let b = panel(n, 1, 7);
    let x = support::ldl_solve(&f, &b);
    let diff = max_abs_diff(&x, &dense.solve(&b).unwrap()).unwrap();
    assert!(diff < 1e-10, "solve differs from dense LU by {diff}");
}

#[test]
fn incomplete_factors_reproduce_a_wide_matrix_on_their_pattern() {
    let matrix = wide_wave_matrix(256, 5, 0.2);
    let f = factorize(&matrix, Factorization::Incomplete).unwrap();
    assert_eq!(f.boosted_pivots, 0);
    assert_eq!(f.l.nnz(), matrix.lower_triangle(true).nnz(), "no fill");
    for j in 0..matrix.nrows() {
        let column = product_column(&f, j);
        let (rows, values) = matrix.row(j); // symmetric: row j is column j
        for (&i, &v) in rows.iter().zip(values) {
            let diff = (column[i] - v).abs();
            assert!(diff < 1e-12, "stored entry ({i},{j}) off by {diff}");
        }
    }
}

#[test]
fn breakdown_names_the_singular_row() {
    // A big well-conditioned matrix plus one exactly singular 2×2 block
    // `[[1, -1], [-1, 1]]` as its own component: eliminating the second
    // block node produces pivot `1 - 1 = 0` exactly.
    let base = wide_wave_matrix(256, 5, 0.2);
    let n = base.nrows() + 2;
    let (a, b) = (n - 2, n - 1);
    let mut coo = CooMatrix::new(n, n);
    for (i, j, v) in base.iter() {
        coo.push(i, j, v).unwrap();
    }
    coo.push(a, a, 1.0).unwrap();
    coo.push(b, b, 1.0).unwrap();
    coo.push_symmetric(a, b, -1.0).unwrap();
    let error = factorize(&coo.to_csr(), Factorization::Complete).unwrap_err();
    let SparseError::Breakdown { index, value } = error else {
        panic!("expected Breakdown, got {error:?}");
    };
    assert_eq!((index, value.to_bits()), (b, 0.0f64.to_bits()));
}

/// Strictly-lower entries of the complete factor by symbolic Gaussian
/// elimination on a dense boolean lower triangle — no elimination tree.
fn dense_symbolic_lower_nnz(w: &CsrMatrix) -> usize {
    let n = w.nrows();
    let mut filled = vec![vec![false; n]; n];
    for (i, j, _) in w.iter() {
        if j < i {
            filled[i][j] = true;
        }
    }
    for k in 0..n {
        let below: Vec<usize> = (k + 1..n).filter(|&i| filled[i][k]).collect();
        for (a, &j) in below.iter().enumerate() {
            for &i in &below[a + 1..] {
                filled[i][j] = true;
            }
        }
    }
    filled.iter().flatten().filter(|&&f| f).count()
}

#[test]
fn complete_fill_matches_the_dense_symbolic_count() {
    let matrix = wide_wave_matrix(256, 5, 0.2);
    let n = matrix.nrows();
    let input_lower = matrix.lower_triangle(false).nnz();
    let f = factorize(&matrix, Factorization::Complete).unwrap();
    let fill = f.l.nnz() - n - input_lower;
    assert_eq!(fill, dense_symbolic_lower_nnz(&matrix) - input_lower);
    // Closing each ring fills in; the count is the elimination tree's too.
    assert_eq!(fill, 660);
}
