//! Lane kernels: the vectorizable primitives under every panel sweep.
//!
//! The panel layout (`panel[node * width + lane]`, see
//! [`triangular`](crate::triangular)) keeps the `width` lane
//! values of a node adjacent precisely so the per-node inner loops can run as
//! SIMD instructions. This module names those inner loops as an explicit
//! [`LaneKernel`] trait with two implementations:
//!
//! * [`ScalarKernel`] — plain `f64` loops: the path every target other than
//!   `x86_64` runs, and the reference the identity batteries compare against.
//! * an AVX2 kernel — intrinsics on 4 `f64` lanes per instruction, compiled
//!   on every `x86_64` build and selected at run time only when the CPU
//!   reports AVX2 support.
//!
//! # Exactness contract
//!
//! Both kernels produce **bit-identical** results. Every primitive operates on
//! per-lane-independent accumulator chains (`acc[lane] -= v * x[lane]`,
//! `row[lane] /= d`, `acc[lane] += (q − x[lane])²`): lane `b`'s value never
//! feeds lane `b'`, so evaluating lanes in parallel performs exactly the same
//! IEEE-754 operations in exactly the same order per lane as the scalar loop.
//! The AVX2 implementation uses separate multiply and add/subtract
//! instructions — never fused multiply-add, which would change rounding — so
//! the SIMD fast path is a pure reordering across (independent) lanes, not a
//! renumbering of any lane's arithmetic.
//!
//! The same contract covers [`tile_sq_distances`], the kernel under exact
//! k-NN graph construction: there a lane is a database row rather than a
//! right-hand side, and a lane's sum has the bits of the row-by-row
//! `squared_euclidean_unchecked` it replaces.
//!
//! # Dispatch
//!
//! A sweep is written once, generic over the kernel, as a [`Sweep`], and
//! handed to [`dispatch`] — the only place in the workspace that chooses a
//! kernel. It runs the sweep with the AVX2 kernel when the target is
//! `x86_64`, the running CPU reports AVX2 and no scalar pin is installed
//! ([`set_kernel_override`], for the bit-identity test batteries), and with
//! [`ScalarKernel`] otherwise. [`active_kernel`] reports that choice.
//!
//! `mogul-core`'s engine runs a sweep with at most two active lanes as one
//! strided scalar recurrence per lane instead, and never dispatches it; the
//! engine decides that from the width it is given. The CSR sweeps of
//! [`triangular`](crate::triangular) have no such fork: every width, 1
//! included, goes through [`dispatch`].

use std::sync::atomic::{AtomicBool, Ordering};

/// Which kernel implementation a panel sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Plain `f64` loops. Available everywhere.
    Scalar,
    /// The vectorized path (AVX2 on `x86_64`).
    Simd,
}

/// The process-wide scalar pin of [`set_kernel_override`].
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Pin the process to one kernel, or clear the pin with `None`.
///
/// For the bit-identity test batteries, which run one workload under both
/// kernels and compare the results bit for bit. Only
/// [`KernelKind::Scalar`] changes anything: [`KernelKind::Simd`] asks for
/// what [`dispatch`] picks unpinned, and like it runs scalar on a host
/// without AVX2.
pub fn set_kernel_override(kind: Option<KernelKind>) {
    FORCE_SCALAR.store(kind == Some(KernelKind::Scalar), Ordering::Relaxed);
}

/// The kernel [`dispatch`] runs sweeps with right now.
pub fn active_kernel() -> KernelKind {
    struct Probe;
    impl Sweep for Probe {
        type Out = KernelKind;
        fn run<K: LaneKernel>(self, _: K) -> KernelKind {
            K::KIND
        }
    }
    dispatch(Probe)
}

/// A traversal written once, generic over the [`LaneKernel`] that executes
/// its per-node lane loops: the arguments of one sweep, run by [`dispatch`].
pub trait Sweep {
    /// What the sweep returns.
    type Out;

    /// Run the sweep with `kernel`. Mark the implementation
    /// `#[inline(always)]`, so that the whole traversal, not only the
    /// primitives, is compiled inside the kernel's shell and the intrinsics
    /// inline into it.
    fn run<K: LaneKernel>(self, kernel: K) -> Self::Out;
}

/// Run `sweep` with the kernel this process should use (see the module
/// docs): one choice per sweep, not one per node row.
pub fn dispatch<S: Sweep>(sweep: S) -> S::Out {
    #[cfg(target_arch = "x86_64")]
    if !FORCE_SCALAR.load(Ordering::Relaxed) {
        if let Some(kernel) = avx2::Avx2Kernel::try_new() {
            // SAFETY: holding an `Avx2Kernel` proves the CPU reported AVX2.
            return unsafe { avx2::run(kernel, sweep) };
        }
    }
    sweep.run(ScalarKernel)
}

/// The lane primitives every panel sweep is built from.
///
/// Implementations must satisfy the exactness contract in the module docs:
/// per lane, the same IEEE-754 operations in the same order as
/// [`ScalarKernel`]. The slices passed to a primitive have equal length (the
/// panel width); given unequal ones, every implementation stops at the
/// shorter.
pub trait LaneKernel: Copy {
    /// What [`active_kernel`] reports while this implementation runs.
    const KIND: KernelKind;

    /// `acc[b] -= v * x[b]` for every lane `b` — the elimination update of
    /// the forward/back substitution sweeps.
    fn axpy_neg(self, acc: &mut [f64], x: &[f64], v: f64);

    /// `out[b] = acc[b] / d` for every lane `b` — the pivot division of the
    /// Algorithm 2 engine's forward sweep, which fuses the `D` scaling.
    fn div_store(self, out: &mut [f64], acc: &[f64], d: f64);

    /// `row[b] /= d` for every lane `b` — the in-place diagonal scaling of
    /// `scale_diag_multi_into`.
    fn div_assign(self, row: &mut [f64], d: f64);

    /// `acc[b] += (q − x[b])²` for every lane `b` — one coordinate of the
    /// squared distances from a query to the rows of a tile
    /// ([`tile_sq_distances`]).
    fn sq_diff_acc(self, acc: &mut [f64], x: &[f64], q: f64);
}

/// The reference scalar implementation: plain `f64` loops.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernel;

impl LaneKernel for ScalarKernel {
    const KIND: KernelKind = KernelKind::Scalar;

    #[inline(always)]
    fn axpy_neg(self, acc: &mut [f64], x: &[f64], v: f64) {
        for (a, &xv) in acc.iter_mut().zip(x.iter()) {
            *a -= v * xv;
        }
    }

    #[inline(always)]
    fn div_store(self, out: &mut [f64], acc: &[f64], d: f64) {
        for (o, &a) in out.iter_mut().zip(acc.iter()) {
            *o = a / d;
        }
    }

    #[inline(always)]
    fn div_assign(self, row: &mut [f64], d: f64) {
        for v in row.iter_mut() {
            *v /= d;
        }
    }

    #[inline(always)]
    fn sq_diff_acc(self, acc: &mut [f64], x: &[f64], q: f64) {
        for (a, &xv) in acc.iter_mut().zip(x.iter()) {
            let d = q - xv;
            *a += d * d;
        }
    }
}

/// The AVX2 kernel and the one shell that runs sweeps with it — the only
/// architecture-specific region in the workspace.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{KernelKind, LaneKernel, Sweep};
    use std::arch::x86_64::*;

    /// AVX2 implementation: 4 `f64` lanes per instruction, unaligned loads
    /// and stores (panels carry no alignment guarantee), remainder lanes
    /// scalar.
    ///
    /// Only constructible through [`Avx2Kernel::try_new`], which performs
    /// the runtime CPUID check — holding a value is proof the instructions
    /// can run.
    #[derive(Debug, Clone, Copy)]
    pub struct Avx2Kernel(());

    impl Avx2Kernel {
        /// The AVX2 kernel, if the running CPU supports it.
        pub fn try_new() -> Option<Self> {
            std::arch::is_x86_feature_detected!("avx2").then_some(Avx2Kernel(()))
        }
    }

    /// Run `sweep` with the AVX2 kernel: the attribute lets LLVM compile the
    /// monomorphized, fully inlined sweep body with AVX2 enabled.
    ///
    /// # Safety
    /// The CPU must support AVX2, which holding an [`Avx2Kernel`] proves;
    /// the function is `unsafe` only because `target_feature` requires it.
    #[target_feature(enable = "avx2")]
    pub unsafe fn run<S: Sweep>(kernel: Avx2Kernel, sweep: S) -> S::Out {
        sweep.run(kernel)
    }

    impl LaneKernel for Avx2Kernel {
        const KIND: KernelKind = KernelKind::Simd;

        #[inline(always)]
        fn axpy_neg(self, acc: &mut [f64], x: &[f64], v: f64) {
            let len = acc.len().min(x.len());
            // SAFETY: construction proved AVX2 is available; all pointer
            // arithmetic stays below `len`, inside both `acc` and `x`.
            unsafe {
                let vv = _mm256_set1_pd(v);
                let mut i = 0usize;
                while i + 4 <= len {
                    let a = _mm256_loadu_pd(acc.as_ptr().add(i));
                    let xv = _mm256_loadu_pd(x.as_ptr().add(i));
                    // mul + sub, never FMA: FMA skips the intermediate
                    // rounding step and would break bit-identity with the
                    // scalar kernel.
                    let prod = _mm256_mul_pd(vv, xv);
                    _mm256_storeu_pd(acc.as_mut_ptr().add(i), _mm256_sub_pd(a, prod));
                    i += 4;
                }
                while i < len {
                    *acc.get_unchecked_mut(i) -= v * *x.get_unchecked(i);
                    i += 1;
                }
            }
        }

        #[inline(always)]
        fn div_store(self, out: &mut [f64], acc: &[f64], d: f64) {
            let len = out.len().min(acc.len());
            // SAFETY: as in `axpy_neg`.
            unsafe {
                let dv = _mm256_set1_pd(d);
                let mut i = 0usize;
                while i + 4 <= len {
                    let a = _mm256_loadu_pd(acc.as_ptr().add(i));
                    _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_div_pd(a, dv));
                    i += 4;
                }
                while i < len {
                    *out.get_unchecked_mut(i) = *acc.get_unchecked(i) / d;
                    i += 1;
                }
            }
        }

        #[inline(always)]
        fn div_assign(self, row: &mut [f64], d: f64) {
            let len = row.len();
            // SAFETY: as in `axpy_neg`.
            unsafe {
                let dv = _mm256_set1_pd(d);
                let mut i = 0usize;
                while i + 4 <= len {
                    let a = _mm256_loadu_pd(row.as_ptr().add(i));
                    _mm256_storeu_pd(row.as_mut_ptr().add(i), _mm256_div_pd(a, dv));
                    i += 4;
                }
                while i < len {
                    let p = row.get_unchecked_mut(i);
                    *p /= d;
                    i += 1;
                }
            }
        }

        #[inline(always)]
        fn sq_diff_acc(self, acc: &mut [f64], x: &[f64], q: f64) {
            let len = acc.len().min(x.len());
            // SAFETY: as in `axpy_neg`.
            unsafe {
                let qv = _mm256_set1_pd(q);
                let mut i = 0usize;
                while i + 4 <= len {
                    let a = _mm256_loadu_pd(acc.as_ptr().add(i));
                    let d = _mm256_sub_pd(qv, _mm256_loadu_pd(x.as_ptr().add(i)));
                    // mul + add, never FMA (see `axpy_neg`).
                    let sq = _mm256_mul_pd(d, d);
                    _mm256_storeu_pd(acc.as_mut_ptr().add(i), _mm256_add_pd(a, sq));
                    i += 4;
                }
                while i < len {
                    let d = q - *x.get_unchecked(i);
                    *acc.get_unchecked_mut(i) += d * d;
                    i += 1;
                }
            }
        }
    }
}

/// Coordinates accumulated between two abandonment checks of
/// [`tile_sq_distances`].
const ABANDON_STRIDE: usize = 8;

/// Squared Euclidean distances from `query` to the `LANES` rows of one tile
/// (the layout of
/// [`FeatureMatrix::pack_tiles`](crate::features::FeatureMatrix::pack_tiles)),
/// or `None` once every lane's partial sum exceeds `bound`.
///
/// Lane `b` adds `(query[d] − row_b[d])²` for `d = 0, 1, …` in that order —
/// subtract, multiply, add, never fused, never the `‖q‖² + ‖x‖² − 2 q·x`
/// expansion — so a returned distance has the bits of
/// [`squared_euclidean_unchecked`](crate::vector::squared_euclidean_unchecked)
/// over the same two vectors under either kernel. Giving up early is exact
/// too: the terms are non-negative and round-to-nearest addition is monotone,
/// so a partial sum above `bound` ends above `bound`.
pub fn tile_sq_distances<const LANES: usize>(
    tile: &[f64],
    query: &[f64],
    bound: f64,
) -> Option<[f64; LANES]> {
    assert_eq!(tile.len(), query.len() * LANES, "tile and query widths");
    dispatch(TileDistances::<LANES> { tile, query, bound })
}

/// The arguments of [`tile_sq_distances_with`], as [`dispatch`] takes them.
struct TileDistances<'a, const LANES: usize> {
    tile: &'a [f64],
    query: &'a [f64],
    bound: f64,
}

impl<const LANES: usize> Sweep for TileDistances<'_, LANES> {
    type Out = Option<[f64; LANES]>;

    #[inline(always)]
    fn run<K: LaneKernel>(self, kern: K) -> Self::Out {
        tile_sq_distances_with(kern, self.tile, self.query, self.bound)
    }
}

#[inline(always)]
fn tile_sq_distances_with<K: LaneKernel, const LANES: usize>(
    kern: K,
    tile: &[f64],
    query: &[f64],
    bound: f64,
) -> Option<[f64; LANES]> {
    let mut acc = [0.0; LANES];
    let strides = tile
        .chunks(ABANDON_STRIDE * LANES)
        .zip(query.chunks(ABANDON_STRIDE));
    for (xs, qs) in strides {
        for (x, &q) in xs.chunks_exact(LANES).zip(qs) {
            kern.sq_diff_acc(&mut acc, x, q);
        }
        if acc.iter().all(|&a| a > bound) {
            return None;
        }
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<K: LaneKernel>(k: K) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        // Lengths straddle the 4-lane SIMD chunking (remainders 1..3) and the
        // values are "ragged" decimals that round at every operation.
        let x: Vec<f64> = (0..11).map(|i| 0.1 + i as f64 * 0.3).collect();
        let mut acc: Vec<f64> = (0..11).map(|i| 1.7 - i as f64 * 0.913).collect();
        k.axpy_neg(&mut acc, &x, 0.37);
        let mut out = vec![0.0; 11];
        k.div_store(&mut out, &acc, 0.7);
        let mut row = x.clone();
        k.div_assign(&mut row, -3.3);
        let mut sq = out.clone();
        k.sq_diff_acc(&mut sq, &x, 0.37);
        (acc, out, row, sq)
    }

    #[test]
    fn scalar_kernel_matches_reference_loops() {
        let (acc, out, row, sq) = exercise(ScalarKernel);
        for i in 0..11 {
            let x = 0.1 + i as f64 * 0.3;
            let a = (1.7 - i as f64 * 0.913) - 0.37 * x;
            assert_eq!(acc[i], a);
            assert_eq!(out[i], a / 0.7);
            assert_eq!(row[i], x / -3.3);
            assert_eq!(sq[i], a / 0.7 + (0.37 - x) * (0.37 - x));
        }
    }

    /// One tile of `LANES` seeded rows of `dim` ragged decimals.
    fn check_tile<const LANES: usize>(dim: usize) {
        use crate::vector::squared_euclidean_unchecked;
        let rows: Vec<Vec<f64>> = (0..LANES)
            .map(|r| {
                (0..dim)
                    .map(|d| ((r * 31 + d * 17) % 23) as f64 * 0.37 - 3.1)
                    .collect()
            })
            .collect();
        let tile = crate::FeatureMatrix::from_rows(&rows)
            .unwrap()
            .pack_tiles(LANES);
        let query: Vec<f64> = (0..dim).map(|d| 0.29 * d as f64 - 1.3).collect();
        let want: Vec<f64> = rows
            .iter()
            .map(|row| squared_euclidean_unchecked(&query, row))
            .collect();
        let got = tile_sq_distances::<LANES>(&tile, &query, f64::INFINITY).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "{LANES} lanes, dim {dim}");
        }
        // A bound some row meets exactly is never a reason to give up; a
        // bound below every row's first stride always is.
        let nearest = want.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(
            tile_sq_distances::<LANES>(&tile, &query, nearest),
            Some(got)
        );
        assert_eq!(tile_sq_distances::<LANES>(&tile, &query, -1.0), None);
    }

    #[test]
    fn tile_distances_have_the_bits_of_the_row_by_row_sum() {
        // Dimensions straddle the abandonment stride, lane counts the SIMD
        // chunking.
        for dim in [1usize, 7, 8, 9, 16, 33] {
            check_tile::<1>(dim);
            check_tile::<3>(dim);
            check_tile::<8>(dim);
            check_tile::<11>(dim);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernel_is_bit_identical_to_scalar() {
        let Some(avx2) = avx2::Avx2Kernel::try_new() else {
            return; // CPU without AVX2: nothing to compare.
        };
        // Every length 0..=19 so all remainder shapes are covered; `x` one
        // longer than the rest so "stops at the shorter" is too.
        for len in 0..20usize {
            let x: Vec<f64> = (0..=len).map(|i| 0.1 + i as f64 * 0.3).collect();
            let base: Vec<f64> = (0..len).map(|i| 1.7 - i as f64 * 0.913).collect();
            let (mut a_s, mut a_v) = (base.clone(), base.clone());
            ScalarKernel.axpy_neg(&mut a_s, &x, 0.37);
            avx2.axpy_neg(&mut a_v, &x, 0.37);
            assert_eq!(a_s, a_v, "axpy_neg len {len}");
            let (mut o_s, mut o_v) = (vec![0.0; len + 1], vec![0.0; len + 1]);
            ScalarKernel.div_store(&mut o_s, &a_s, 0.7);
            avx2.div_store(&mut o_v, &a_v, 0.7);
            assert_eq!(o_s, o_v, "div_store len {len}");
            let (mut r_s, mut r_v) = (x.clone(), x.clone());
            ScalarKernel.div_assign(&mut r_s, -3.3);
            avx2.div_assign(&mut r_v, -3.3);
            assert_eq!(r_s, r_v, "div_assign len {len}");
            let (mut q_s, mut q_v) = (a_s.clone(), a_v.clone());
            ScalarKernel.sq_diff_acc(&mut q_s, &x, 0.37);
            avx2.sq_diff_acc(&mut q_v, &x, 0.37);
            assert_eq!(q_s, q_v, "sq_diff_acc len {len}");
        }
    }

    #[test]
    fn override_controls_dispatch() {
        set_kernel_override(Some(KernelKind::Scalar));
        assert_eq!(active_kernel(), KernelKind::Scalar);
        // A SIMD pin is the unpinned choice: AVX2 exactly where the CPU
        // has it.
        set_kernel_override(Some(KernelKind::Simd));
        let pinned = active_kernel();
        set_kernel_override(None);
        assert_eq!(active_kernel(), pinned);
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        assert_eq!(pinned == KernelKind::Simd, avx2);
    }
}
