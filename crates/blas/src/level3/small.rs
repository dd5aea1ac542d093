//! Unpacked small-shape GEMM tier for `f64` on AVX-512 parts.
//!
//! Below a few hundred rows and columns the 5-loop nest spends a large
//! share of its time copying `A` and `B` into packed panels that are
//! then read only a few times — the packing overhead Huang et al.
//! (*Implementing Strassen's Algorithm with BLIS*) identify at small
//! sizes. This tier skips packing: it reads `A` columns in place (one
//! masked `zmm` load per 8 rows, so row tails never touch memory past the
//! view), broadcasts `B` elements straight from their columns, and writes
//! `C` with masked stores, in `16 x NR` register tiles.
//!
//! **Bitwise equality with the packed nest.** Every element of `C` sees
//! exactly the operation sequence of [`super::gemm_blocked`]'s packed
//! path: `k` is chunked by the same clamped `kc`; within a chunk the
//! accumulator starts at `+0` and takes one fused multiply-add per `kk`
//! in ascending order (the AVX-512 micro-kernel's chain); the first
//! chunk folds `β` the way `write_tile` does (`β = 0` stores `α·acc`
//! without reading `C`, `β = 1` adds `α·acc`, any other `β` computes
//! `β·c + α·acc`) and later chunks add `α·acc`. Products and sums are
//! rounded separately, as in the scalar write-back. Which tier ran is
//! therefore invisible in the results; `small_tier_equals_packed_nest`
//! pins that.
//!
//! The tier runs only for `f64`, only on [`KernelClass::Avx512`], only
//! for `NoTrans` operands (DGEFMM stages transposes before its leaves),
//! and only while every dimension is at most [`SMALL_MAX_DIM`] — the
//! measured crossover (DESIGN.md §11).

use super::kernel::{is_f64, kernel_class, KernelClass, NR};
use crate::level2::Op;
use matrix::{MatMut, MatRef, Scalar};

/// Largest `m`, `k` and `n` the unpacked tier takes. In interleaved
/// sweeps on a 2-vCPU AVX-512 Xeon the tier beat the packed nest on
/// every square up to 160, the serve mix and every thin fixup shape, and
/// tied or lost from about 176 up (DESIGN.md §11 has the table).
pub(crate) const SMALL_MAX_DIM: usize = 160;

/// Rows per register tile: two `zmm` vectors of 8 doubles.
const TILE_ROWS: usize = 16;

/// True when an `m x k x n` product of `f64` `NoTrans` operands runs on
/// the unpacked tier on this CPU (and so leases no pack buffer).
pub(crate) fn shape_fits(m: usize, k: usize, n: usize) -> bool {
    m.max(k).max(n) <= SMALL_MAX_DIM && kernel_class() == KernelClass::Avx512
}

/// True when [`super::gemm_blocked`] hands this call to [`gemm_small`].
pub(crate) fn takes<T: Scalar>(op_a: Op, op_b: Op, m: usize, k: usize, n: usize) -> bool {
    is_f64::<T>() && op_a == Op::NoTrans && op_b == Op::NoTrans && shape_fits(m, k, n)
}

/// `C ← α A B + β C` on the unpacked tier, `k` chunked by `kc`.
///
/// The caller has checked [`takes`] (so `T` is `f64` and the CPU has
/// AVX-512F) and handled the degenerate (`α = 0` or empty) products.
pub(crate) fn gemm_small<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
    kc: usize,
) {
    assert!(
        is_f64::<T>() && kernel_class() == KernelClass::Avx512,
        "small tier entered without its preconditions"
    );
    assert!(
        a.nrows() == c.nrows() && a.ncols() == b.nrows() && b.ncols() == c.ncols() && kc > 0,
        "small tier: operand shapes disagree"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: T is exactly f64 (TypeId match on a 'static type), so the
    // scalar and view reinterpretations are identity casts over the same
    // strided regions; the CPU probe above guarantees AVX-512F, and the
    // shape check keeps every index the kernel forms inside the views.
    unsafe {
        let cast = |x: T| *(&x as *const T).cast::<f64>();
        let (m, n) = (c.nrows(), c.ncols());
        let a = MatRef::from_raw_parts(a.as_ptr().cast::<f64>(), a.nrows(), a.ncols(), a.ld());
        let b = MatRef::from_raw_parts(b.as_ptr().cast::<f64>(), b.nrows(), b.ncols(), b.ld());
        let ld = c.ld();
        let c = MatMut::from_raw_parts(c.as_mut_ptr().cast::<f64>(), m, n, ld);
        avx512::gemm(cast(alpha), a, b, cast(beta), c, kc);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (alpha, a, b, beta, c, kc);
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{NR, TILE_ROWS};
    use core::arch::x86_64::*;
    use matrix::{MatMut, MatRef};

    /// How one chunk's accumulator lands in `C` — the packed nest's
    /// `write_tile` cases.
    #[derive(Clone, Copy)]
    enum Fold {
        /// `c = α·acc` (first chunk, `β = 0`): `C` is never read.
        Store,
        /// `c = c + α·acc` (first chunk with `β = 1`, every later chunk).
        Add,
        /// `c = β·c + α·acc` (first chunk, general `β`).
        Scale(f64),
    }

    /// Strided operand pointers for one product.
    #[derive(Clone, Copy)]
    struct Operands {
        a: *const f64,
        lda: usize,
        b: *const f64,
        ldb: usize,
        c: *mut f64,
        ldc: usize,
        m: usize,
    }

    /// # Safety
    /// The CPU must support AVX-512F; `A` is `m x k`, `B` is `k x n`,
    /// `C` is `m x n`, and `kc ≥ 1`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gemm(
        alpha: f64,
        a: MatRef<'_, f64>,
        b: MatRef<'_, f64>,
        beta: f64,
        mut c: MatMut<'_, f64>,
        kc: usize,
    ) {
        let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
        let ops = Operands {
            a: a.as_ptr(),
            lda: a.ld(),
            b: b.as_ptr(),
            ldb: b.ld(),
            c: c.as_mut_ptr(),
            ldc: c.ld(),
            m,
        };
        for pc in (0..k).step_by(kc) {
            let kb = kc.min(k - pc);
            let fold = match pc {
                0 if beta == 0.0 => Fold::Store,
                0 if beta != 1.0 => Fold::Scale(beta),
                _ => Fold::Add,
            };
            for j0 in (0..n).step_by(NR) {
                // SAFETY (all arms): rows < m, columns j0..j0+cols < n and
                // depths pc..pc+kb < k stay inside the three views.
                match NR.min(n - j0) {
                    1 => panel::<1>(ops, alpha, fold, pc, kb, j0),
                    2 => panel::<2>(ops, alpha, fold, pc, kb, j0),
                    3 => panel::<3>(ops, alpha, fold, pc, kb, j0),
                    4 => panel::<4>(ops, alpha, fold, pc, kb, j0),
                    5 => panel::<5>(ops, alpha, fold, pc, kb, j0),
                    _ => panel::<NR>(ops, alpha, fold, pc, kb, j0),
                }
            }
        }
    }

    /// All row tiles of the `NC` columns starting at `j0`, depths
    /// `pc .. pc + kb`: 16-row tiles, then an 8-row tile when at most 8
    /// rows remain.
    ///
    /// # Safety
    /// AVX-512F; the column, row and depth ranges lie inside the views.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn panel<const NC: usize>(ops: Operands, alpha: f64, fold: Fold, pc: usize, kb: usize, j0: usize) {
        let mut i0 = 0;
        while ops.m - i0 > TILE_ROWS / 2 {
            tile::<2, NC>(ops, alpha, fold, pc, kb, i0, j0);
            i0 += TILE_ROWS;
            if i0 >= ops.m {
                return;
            }
        }
        tile::<1, NC>(ops, alpha, fold, pc, kb, i0, j0);
    }

    /// One `8·NV x NC` tile at `(i0, j0)`: `NV·NC` accumulators, one
    /// fused multiply-add per element per `kk`, then the fold.
    ///
    /// # Safety
    /// AVX-512F; `i0 < m`, `8·(NV − 1) < m − i0`, and columns
    /// `j0 .. j0 + NC` and depths `pc .. pc + kb` lie inside the views.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn tile<const NV: usize, const NC: usize>(
        ops: Operands,
        alpha: f64,
        fold: Fold,
        pc: usize,
        kb: usize,
        i0: usize,
        j0: usize,
    ) {
        let rows = (ops.m - i0).min(8 * NV);
        // Lane masks: vector v covers rows i0 + 8v .. i0 + 8v + 8; lanes
        // past the last row are neither loaded nor stored.
        let masks: [__mmask8; NV] = core::array::from_fn(|v| {
            let live = rows.saturating_sub(8 * v).min(8);
            (((1u16 << live) - 1) & 0xff) as __mmask8
        });
        let mut acc = [[_mm512_setzero_pd(); NC]; NV];
        let a0 = ops.a.add(i0 + pc * ops.lda);
        let b0 = ops.b.add(pc + j0 * ops.ldb);
        for kk in 0..kb {
            let acol = a0.add(kk * ops.lda);
            let av: [__m512d; NV] =
                core::array::from_fn(|v| _mm512_maskz_loadu_pd(masks[v], acol.add(8 * v)));
            for cc in 0..NC {
                let bv = _mm512_set1_pd(*b0.add(kk + cc * ops.ldb));
                for v in 0..NV {
                    acc[v][cc] = _mm512_fmadd_pd(av[v], bv, acc[v][cc]);
                }
            }
        }
        let valpha = _mm512_set1_pd(alpha);
        for cc in 0..NC {
            let ccol = ops.c.add(i0 + (j0 + cc) * ops.ldc);
            for v in 0..NV {
                let dst = ccol.add(8 * v);
                let prod = _mm512_mul_pd(valpha, acc[v][cc]);
                let out = match fold {
                    Fold::Store => prod,
                    Fold::Add => _mm512_add_pd(_mm512_maskz_loadu_pd(masks[v], dst), prod),
                    Fold::Scale(beta) => {
                        let old = _mm512_maskz_loadu_pd(masks[v], dst);
                        _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(beta), old), prod)
                    }
                };
                _mm512_mask_storeu_pd(dst, masks[v], out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::blocked::gemm_packed;
    use super::super::{gemm_blocked, GemmConfig};
    use super::*;
    use matrix::random;

    /// Run `m x k x n` through `gemm_blocked` (the tier) and through the
    /// packed nest on strided views (`ld > rows` for all three operands)
    /// and require the whole `C` buffers, borders included, to agree bit
    /// for bit — and the borders to be untouched.
    fn check(cfg: &GemmConfig, m: usize, k: usize, n: usize, alpha: f64, beta: f64) {
        assert!(takes::<f64>(Op::NoTrans, Op::NoTrans, m, k, n), "{m}x{k}x{n} must take the tier");
        let seed = (m * 1_000_000 + k * 1_000 + n) as u64;
        let big_a = random::uniform::<f64>(m + 3, k + 1, seed);
        let big_b = random::uniform::<f64>(k + 2, n + 2, seed + 1);
        let (a, b) = (big_a.as_ref().submatrix(3, 1, m, k), big_b.as_ref().submatrix(1, 2, k, n));
        let mut c0 = random::uniform::<f64>(m + 4, n + 1, seed + 2);
        if beta == 0.0 {
            // β = 0 must never read C: NaN there would poison the result.
            c0.as_mut().submatrix_mut(2, 1, m, n).fill(f64::NAN);
        }
        let (mut tier, mut packed) = (c0.clone(), c0.clone());
        gemm_blocked(
            cfg,
            alpha,
            Op::NoTrans,
            a,
            Op::NoTrans,
            b,
            beta,
            tier.as_mut().submatrix_mut(2, 1, m, n),
        );
        gemm_packed(
            cfg,
            alpha,
            Op::NoTrans,
            a,
            Op::NoTrans,
            b,
            beta,
            packed.as_mut().submatrix_mut(2, 1, m, n),
        );
        for j in 0..n + 1 {
            for i in 0..m + 4 {
                let inside = (2..m + 2).contains(&i) && (1..n + 1).contains(&j);
                let what = format!("({i},{j}) of {m}x{k}x{n} kc={} α={alpha} β={beta}", cfg.kc);
                assert_eq!(tier.at(i, j).to_bits(), packed.at(i, j).to_bits(), "{what}");
                if !inside {
                    assert_eq!(tier.at(i, j).to_bits(), c0.at(i, j).to_bits(), "border {what}");
                }
            }
        }
    }

    #[test]
    fn small_tier_equals_packed_nest() {
        if kernel_class() != KernelClass::Avx512 {
            return; // the tier never runs on this CPU
        }
        // A tiny kc chunks k into several blocks (k = 9 is three blocks of
        // 4, 4, 1); m covers every residue mod 16, n every residue mod NR.
        // α = 0.7 makes α·acc inexact, so a fused write-back would show.
        let tiny = GemmConfig { kc: 4, ..GemmConfig::blocked() };
        for m in 1..=2 * TILE_ROWS + 1 {
            for n in 1..=2 * NR + 1 {
                for k in [1, 3, 4, 5, 9] {
                    for alpha in [1.0, -0.5, 0.7] {
                        for beta in [0.0, 1.0, 0.5] {
                            check(&tiny, m, k, n, alpha, beta);
                        }
                    }
                }
            }
        }
        // Machine blocking up to the bound, single- and multi-block.
        let auto = GemmConfig::auto();
        for (m, k, n) in
            [(SMALL_MAX_DIM, SMALL_MAX_DIM, SMALL_MAX_DIM), (150, 77, 131), (47, SMALL_MAX_DIM, 1)]
        {
            for beta in [0.0, 1.0, 0.5] {
                check(&auto, m, k, n, -0.5, beta);
                check(&GemmConfig { kc: 64, ..auto }, m, k, n, 1.0, beta);
            }
        }
    }

    #[test]
    fn tier_bounds_follow_the_shape_and_operands() {
        let avx512 = kernel_class() == KernelClass::Avx512;
        assert_eq!(shape_fits(SMALL_MAX_DIM, SMALL_MAX_DIM, SMALL_MAX_DIM), avx512);
        assert!(!shape_fits(SMALL_MAX_DIM + 1, 8, 8));
        assert!(!shape_fits(8, 8, SMALL_MAX_DIM + 1));
        assert!(!takes::<f64>(Op::Trans, Op::NoTrans, 8, 8, 8));
        assert!(!takes::<f64>(Op::NoTrans, Op::Trans, 8, 8, 8));
        assert!(!takes::<f32>(Op::NoTrans, Op::NoTrans, 8, 8, 8));
    }
}
