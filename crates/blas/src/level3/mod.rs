//! Level 3 BLAS: general matrix-matrix multiply.
//!
//! `gemm` computes `C ← α op(A) op(B) + β C` — the exact contract of the
//! BLAS `DGEMM` that the paper's DGEFMM replaces. Three interchangeable
//! kernels are provided; which one runs is part of [`GemmConfig`], and the
//! experiment harness uses different configs as stand-ins for the paper's
//! three machines (see DESIGN.md §2).

mod blocked;
mod classic;
pub mod fused;
mod kernel;
mod naive;
mod packbuf;
mod parallel;
pub mod params;
mod small;
pub mod symm;
pub mod syrk;
pub mod trsm;

pub use blocked::{gemm_blocked, gemm_pack_elements};
pub use classic::gemm_blocked_classic;
pub use fused::{fused_level_pack_elements, MAX_DESTS, MAX_GRID, MAX_TERMS};
pub use fused::{gemm_fused, gemm_fused_level, BlockProduct, BlockTerms, DestSpec, SumOperand};
pub use kernel::{kernel_class, KernelClass, MR, NR};
pub use naive::gemm_naive;
pub use packbuf::pack_buf_capacity_words;
pub use parallel::gemm_parallel;
pub use params::{BlockingParams, CacheInfo};
pub use symm::symm;
pub use syrk::{symmetrize_from, syrk, Uplo};
pub use trsm::{trsm, Diag, Side};

use crate::level2::Op;
use matrix::{MatMut, MatRef, Scalar};

/// Which conventional-multiplication kernel to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GemmAlgo {
    /// Unblocked triple loop (the "slow machine" profile).
    Naive,
    /// Cache-blocked, packing, register-tiled kernel (default).
    Blocked,
    /// [`GemmAlgo::Blocked`] parallelized over column panels on the
    /// in-tree thread pool.
    BlockedParallel,
}

/// Kernel selection plus cache-blocking parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GemmConfig {
    /// Kernel choice.
    pub algo: GemmAlgo,
    /// Rows of `op(A)` packed per L2-resident block.
    pub mc: usize,
    /// Depth (k) of each packed panel (L1-ish).
    pub kc: usize,
    /// Columns of `op(B)` per outer panel (L3-ish).
    pub nc: usize,
}

impl GemmConfig {
    /// Blocked kernel with default block sizes.
    pub const fn blocked() -> Self {
        Self { algo: GemmAlgo::Blocked, mc: 128, kc: 256, nc: 512 }
    }

    /// Naive kernel (block sizes unused).
    pub const fn naive() -> Self {
        Self { algo: GemmAlgo::Naive, mc: 0, kc: 0, nc: 0 }
    }

    /// Parallel blocked kernel with default block sizes.
    pub const fn parallel() -> Self {
        Self { algo: GemmAlgo::BlockedParallel, mc: 128, kc: 256, nc: 512 }
    }

    /// Blocked kernel with `(mc, kc, nc)` derived from this machine's
    /// cache hierarchy (sysfs probe with fallbacks, cached per process) —
    /// see [`params::BlockingParams`]. This is what
    /// `StrassenConfig::dgefmm` uses.
    pub fn auto() -> Self {
        let p = params::BlockingParams::auto_f64();
        Self { algo: GemmAlgo::Blocked, mc: p.mc, kc: p.kc, nc: p.nc }
    }

    /// [`GemmConfig::auto`] with the pool-parallel kernel: same
    /// machine-derived `(mc, kc, nc)` — and therefore bitwise-identical
    /// results, since the parallel nest only re-partitions the serial
    /// loop order (see [`gemm_parallel`]) — but the jc/ic loops fan out
    /// over the worker pool. This is what
    /// `StrassenConfig::dgefmm_parallel` uses for its leaf products.
    pub fn auto_parallel() -> Self {
        Self { algo: GemmAlgo::BlockedParallel, ..Self::auto() }
    }
}

impl Default for GemmConfig {
    fn default() -> Self {
        Self::blocked()
    }
}

/// Validate the `(op, A, op, B, C)` shape triple and return `(m, k, n)`.
///
/// # Panics
/// On any dimension mismatch, mirroring the BLAS `XERBLA` error path.
pub fn check_gemm_dims<T>(
    op_a: Op,
    a: &MatRef<'_, T>,
    op_b: Op,
    b: &MatRef<'_, T>,
    c: &MatMut<'_, T>,
) -> (usize, usize, usize) {
    let (m, ka) = op_a.dims(a);
    let (kb, n) = op_b.dims(b);
    assert_eq!(ka, kb, "gemm: inner dimensions disagree ({ka} vs {kb})");
    assert_eq!(c.nrows(), m, "gemm: C has {} rows, expected {m}", c.nrows());
    assert_eq!(c.ncols(), n, "gemm: C has {} cols, expected {n}", c.ncols());
    (m, ka, n)
}

/// General matrix multiply `C ← α op(A) op(B) + β C`.
///
/// This is the workspace-wide replacement for the BLAS `DGEMM`/`SGEMM`
/// call; every higher layer (Strassen schedules, eigensolver, harness)
/// funnels through here for its conventional multiplications.
pub fn gemm<T: Scalar>(
    cfg: &GemmConfig,
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    match cfg.algo {
        GemmAlgo::Naive => gemm_naive(alpha, op_a, a, op_b, b, beta, c),
        GemmAlgo::Blocked => gemm_blocked(cfg, alpha, op_a, a, op_b, b, beta, c),
        GemmAlgo::BlockedParallel => gemm_parallel(cfg, alpha, op_a, a, op_b, b, beta, c),
    }
}

/// Scale `C` by `beta` in place with BLAS β-semantics: `beta == 0`
/// overwrites with zeros (never reading `C`, so NaN/garbage is cleared)
/// and `beta == 1` is a no-op.
pub fn scale_in_place<T: Scalar>(beta: T, mut c: MatMut<'_, T>) {
    scale_c(beta, &mut c);
}

pub(crate) fn scale_c<T: Scalar>(beta: T, c: &mut MatMut<'_, T>) {
    if beta == T::ONE {
        return;
    }
    if beta == T::ZERO {
        c.fill(T::ZERO);
    } else {
        c.scale(beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrix::{random, Matrix};

    /// Reference O(mkn) product computed with plain indexing — the oracle
    /// every kernel is compared against.
    pub(crate) fn reference_gemm(
        alpha: f64,
        op_a: Op,
        a: &Matrix<f64>,
        op_b: Op,
        b: &Matrix<f64>,
        beta: f64,
        c: &Matrix<f64>,
    ) -> Matrix<f64> {
        let (m, k) = op_a.dims(&a.as_ref());
        let (_, n) = op_b.dims(&b.as_ref());
        let get_a = |i: usize, p: usize| match op_a {
            Op::NoTrans => a.at(i, p),
            Op::Trans => a.at(p, i),
        };
        let get_b = |p: usize, j: usize| match op_b {
            Op::NoTrans => b.at(p, j),
            Op::Trans => b.at(j, p),
        };
        Matrix::from_fn(m, n, |i, j| {
            let mut s = 0.0;
            for p in 0..k {
                s += get_a(i, p) * get_b(p, j);
            }
            alpha * s + beta * c.at(i, j)
        })
    }

    fn all_kernels() -> Vec<GemmConfig> {
        vec![
            GemmConfig::naive(),
            GemmConfig::blocked(),
            GemmConfig { algo: GemmAlgo::Blocked, mc: 8, kc: 8, nc: 8 },
            GemmConfig::parallel(),
        ]
    }

    #[test]
    fn kernels_match_reference_on_assorted_shapes() {
        let shapes = [(1, 1, 1), (2, 3, 4), (5, 5, 5), (7, 1, 9), (16, 16, 16), (33, 17, 29), (64, 48, 80)];
        for cfg in all_kernels() {
            for &(m, k, n) in &shapes {
                for (op_a, op_b) in [
                    (Op::NoTrans, Op::NoTrans),
                    (Op::Trans, Op::NoTrans),
                    (Op::NoTrans, Op::Trans),
                    (Op::Trans, Op::Trans),
                ] {
                    let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
                    let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
                    let a = random::uniform::<f64>(ar, ac, 1);
                    let b = random::uniform::<f64>(br, bc, 2);
                    let c0 = random::uniform::<f64>(m, n, 3);
                    let expect = reference_gemm(0.5, op_a, &a, op_b, &b, -1.5, &c0);
                    let mut c = c0.clone();
                    gemm(&cfg, 0.5, op_a, a.as_ref(), op_b, b.as_ref(), -1.5, c.as_mut());
                    matrix::norms::assert_allclose(
                        c.as_ref(),
                        expect.as_ref(),
                        1e-12,
                        &format!("{cfg:?} {m}x{k}x{n} {op_a:?}/{op_b:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        for cfg in all_kernels() {
            let a = Matrix::from_row_major(1, 1, &[2.0]);
            let b = Matrix::from_row_major(1, 1, &[3.0]);
            let mut c = Matrix::from_row_major(1, 1, &[f64::NAN]);
            gemm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
            assert_eq!(c.at(0, 0), 6.0, "{cfg:?}");
        }
    }

    #[test]
    fn alpha_zero_only_scales() {
        for cfg in all_kernels() {
            let a = random::uniform::<f64>(4, 4, 1);
            let b = random::uniform::<f64>(4, 4, 2);
            let mut c = Matrix::from_fn(4, 4, |i, j| (i + j) as f64);
            gemm(&cfg, 0.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 2.0, c.as_mut());
            for i in 0..4 {
                for j in 0..4 {
                    assert_eq!(c.at(i, j), 2.0 * (i + j) as f64, "{cfg:?}");
                }
            }
        }
    }

    #[test]
    fn works_on_strided_views() {
        // Operate on interior submatrices of larger buffers so ld > nrows.
        let big_a = random::uniform::<f64>(10, 10, 7);
        let big_b = random::uniform::<f64>(10, 10, 8);
        let mut big_c = Matrix::<f64>::zeros(10, 10);
        let a = big_a.as_ref().submatrix(1, 1, 4, 5);
        let b = big_b.as_ref().submatrix(2, 0, 5, 3);
        let a_own = a.to_owned_matrix();
        let b_own = b.to_owned_matrix();
        let expect = reference_gemm(1.0, Op::NoTrans, &a_own, Op::NoTrans, &b_own, 0.0, &Matrix::zeros(4, 3));
        for cfg in all_kernels() {
            let mut cm = big_c.as_mut();
            let cv = cm.submatrix_mut(3, 3, 4, 3);
            gemm(&cfg, 1.0, Op::NoTrans, a, Op::NoTrans, b, 0.0, cv);
            let cv = big_c.as_ref().submatrix(3, 3, 4, 3);
            matrix::norms::assert_allclose(cv, expect.as_ref(), 1e-13, &format!("{cfg:?}"));
            // The rest of big_c must be untouched.
            assert_eq!(big_c.at(0, 0), 0.0);
            assert_eq!(big_c.at(9, 9), 0.0);
        }
    }

    #[test]
    fn empty_k_scales_c_only() {
        for cfg in all_kernels() {
            let a = Matrix::<f64>::zeros(3, 0);
            let b = Matrix::<f64>::zeros(0, 2);
            let mut c = Matrix::from_fn(3, 2, |_, _| 1.0);
            gemm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 3.0, c.as_mut());
            assert!(c.as_slice().iter().all(|&x| x == 3.0), "{cfg:?}");
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(4, 2);
        let mut c = Matrix::<f64>::zeros(2, 2);
        gemm(&GemmConfig::blocked(), 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
    }
}
