//! Fused last-level schedule: one recursion level executed entirely
//! through the add-pack / multi-destination-write-back GEMM kernels.
//!
//! When every one of the seven recursive products would bottom out in a
//! conventional GEMM (its operands are at or below the cutoff), the
//! temp-based schedules in [`super::winograd1`]/[`super::winograd2`]/
//! [`super::original`] pay for their operand additions (`S_i`, `T_i`)
//! and result additions (`U_i`) as standalone memory sweeps. At that
//! level the additions can instead ride along with the multiplies for
//! free: the fused kernels evaluate `Σ γ·X` sums while packing panels
//! (which reads the operands anyway) and scatter each register tile into
//! every destination quadrant at write-back (which writes `C` anyway).
//! The schedule below therefore uses **zero temporaries and zero
//! standalone add passes**. It runs as one table through
//! [`blas::level3::gemm_fused_level`], a single 5-loop nest that packs
//! every operand quadrant **once per cache block** and shares the packed
//! panels across all seven sub-products of the level.
//!
//! `β` is folded into the first product that touches each quadrant
//! (BLAS semantics: `β = 0` overwrites without reading); later touches
//! accumulate in place.

use crate::config::StrassenConfig;
use blas::level3::{gemm_fused_level, BlockProduct, BlockTerms};
use matrix::{MatMut, MatRef, Scalar};

// A fused schedule is a list of products `(Σ γ·A_q)(Σ γ·B_q) → Σ δ·C_q`
// over the 2 × 2 quadrant partition of the operands (flat quadrant index
// `q = row · 2 + col`), with every coefficient ±1.

const fn t1(g0: i8, q0: u8) -> BlockTerms {
    BlockTerms::single(g0, q0)
}
const fn t2(g0: i8, q0: u8, g1: i8, q1: u8) -> BlockTerms {
    BlockTerms { t: [(g0, q0), (g1, q1), (0, 0), (0, 0)], len: 2 }
}

const Q11: u8 = 0;
const Q12: u8 = 1;
const Q21: u8 = 2;
const Q22: u8 = 3;

/// Strassen's original 1969 construction as schedule data:
///
/// ```text
/// M1 = (A11+A22)(B11+B22) → C11, C22   (applies β to both)
/// M2 = (A21+A22)·B11      → C21 (β), C22 (δ = −1)
/// M3 = A11·(B12−B22)      → C12 (β), C22
/// M4 = A22·(B21−B11)      → C11, C21
/// M5 = (A11+A12)·B22      → C11 (δ = −1), C12
/// M6 = (A21−A11)(B11+B12) → C22
/// M7 = (A12−A22)(B21+B22) → C11
/// ```
///
/// realizing `C11 = M1+M4−M5+M7`, `C12 = M3+M5`, `C21 = M2+M4`,
/// `C22 = M1−M2+M3+M6`. Every product reads ≤ 2-term operand sums and
/// feeds ≤ 2 quadrants — the shape the dual-destination write-back was
/// designed around. The M1/M2/M3 prefix touches all four quadrants, so β
/// application (first touch) completes within the first three products.
const ORIGINAL: [BlockProduct; 7] = [
    BlockProduct { a: t2(1, Q11, 1, Q22), b: t2(1, Q11, 1, Q22), c: t2(1, Q11, 1, Q22) },
    BlockProduct { a: t2(1, Q21, 1, Q22), b: t1(1, Q11), c: t2(1, Q21, -1, Q22) },
    BlockProduct { a: t1(1, Q11), b: t2(1, Q12, -1, Q22), c: t2(1, Q12, 1, Q22) },
    BlockProduct { a: t1(1, Q22), b: t2(1, Q21, -1, Q11), c: t2(1, Q11, 1, Q21) },
    BlockProduct { a: t2(1, Q11, 1, Q12), b: t1(1, Q22), c: t2(-1, Q11, 1, Q12) },
    BlockProduct { a: t2(1, Q21, -1, Q11), b: t2(1, Q11, 1, Q12), c: t1(1, Q22) },
    BlockProduct { a: t2(1, Q12, -1, Q22), b: t2(1, Q21, 1, Q22), c: t1(1, Q11) },
];

/// One level of Strassen's original 1969 construction (7 multiplies),
/// fully fused: zero temporaries, zero standalone add passes, 12 quadrant
/// write-back touches and ≤ 2-term operand sums (see [`ORIGINAL`]).
///
/// The whole table runs through [`gemm_fused_level`]: a single 5-loop
/// nest in which every quadrant of `A` and `B` is packed **once per cache
/// block** and reused by all products referencing it — B-panel packing
/// drops from one pass per operand term to one pass per quadrant. β rides
/// on the first product that touches each destination quadrant; later
/// touches accumulate. All dimensions must be even.
pub(crate) fn original_fused<T: Scalar>(
    cfg: &StrassenConfig,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    gemm_fused_level(&cfg.gemm, alpha, a, b, beta, c, &ORIGINAL, 2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use blas::level3::{gemm, GemmConfig};
    use matrix::{norms, random, Matrix};

    #[test]
    fn original_fused_matches_naive() {
        let cfg = StrassenConfig::dgefmm();
        for (m, k, n) in [(8, 8, 8), (16, 10, 12), (64, 32, 48)] {
            for beta in [0.0, 1.0, -0.7] {
                let a = random::uniform::<f64>(m, k, 1);
                let b = random::uniform::<f64>(k, n, 2);
                let c0 = random::uniform::<f64>(m, n, 3);
                let mut expect = c0.clone();
                gemm(
                    &GemmConfig::naive(),
                    1.1,
                    blas::Op::NoTrans,
                    a.as_ref(),
                    blas::Op::NoTrans,
                    b.as_ref(),
                    beta,
                    expect.as_mut(),
                );
                let mut c = c0.clone();
                original_fused(&cfg, 1.1, a.as_ref(), b.as_ref(), beta, c.as_mut());
                let diff = norms::rel_diff(c.as_ref(), expect.as_ref());
                assert!(diff < 1e-12, "{m}x{k}x{n} β={beta}: rel diff {diff:.3e}");
            }
        }
    }

    #[test]
    fn beta_zero_clears_nan_in_every_quadrant() {
        let cfg = StrassenConfig::dgefmm();
        let a = random::uniform::<f64>(8, 8, 5);
        let b = random::uniform::<f64>(8, 8, 6);
        let mut c = Matrix::from_fn(8, 8, |_, _| f64::NAN);
        original_fused(&cfg, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        assert!(c.as_slice().iter().all(|x| x.is_finite()));
    }
}
