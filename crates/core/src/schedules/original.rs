//! Strassen's original 1969 construction (7 multiplies, 18 adds).
//!
//! Kept for two reasons: the CRAY `SGEMMS` comparator uses this variant,
//! and the eq. (4)-vs-(5) analysis in Section 2 quantifies exactly how
//! much the Winograd variant's three saved additions buy.
//!
//! Identities:
//!
//! ```text
//! M1 = (A11+A22)(B11+B22)   M2 = (A21+A22)B11   M3 = A11(B12−B22)
//! M4 = A22(B21−B11)         M5 = (A11+A12)B22   M6 = (A21−A11)(B11+B12)
//! M7 = (A12−A22)(B21+B22)
//! C11 = M1+M4−M5+M7   C12 = M3+M5
//! C21 = M2+M4         C22 = M1−M2+M3+M6
//! ```
//!
//! Temporaries: `X (mk/4)`, `Y (kn/4)`, `Z (mn/4)` — same per-level
//! footprint as STRASSEN2. The `β ≠ 0` case is staged through a full
//! `m × n` buffer by the dispatcher before this schedule runs.

use crate::config::StrassenConfig;
use crate::dispatch::fmm;
use crate::trace::add::{accum, accum_sub, add_into, axpby, sub_into};
use matrix::{MatMut, MatRef, Scalar};

/// `C ← α A B` (β = 0) via Strassen's original construction.
///
/// Requires even `m, k, n`.
pub(crate) fn original_beta_zero<T: Scalar>(
    cfg: &StrassenConfig,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
    ws: &mut [T],
    depth: usize,
) {
    let (m, n) = (a.nrows(), b.ncols());
    let k = a.ncols();
    debug_assert!(m % 2 == 0 && k % 2 == 0 && n % 2 == 0);
    let (m2, k2, n2) = (m / 2, k / 2, n / 2);

    let (a11, a12, a21, a22) = a.quadrants(m2, k2);
    let (b11, b12, b21, b22) = b.quadrants(k2, n2);
    let (mut c11, mut c12, mut c21, mut c22) = c.split_quadrants(m2, n2);

    let (x_buf, rest) = ws.split_at_mut(m2 * k2);
    let (y_buf, rest) = rest.split_at_mut(k2 * n2);
    let (z_buf, rest) = rest.split_at_mut(m2 * n2);
    let mut x = MatMut::from_slice(x_buf, m2, k2, m2.max(1));
    let mut y = MatMut::from_slice(y_buf, k2, n2, k2.max(1));
    let mut z = MatMut::from_slice(z_buf, m2, n2, m2.max(1));

    add_into(x.rb_mut(), a21, a22);
    fmm(cfg, alpha, x.as_ref(), b11, T::ZERO, c21.rb_mut(), rest, depth + 1); // C21 = αM2

    sub_into(y.rb_mut(), b12, b22);
    fmm(cfg, alpha, a11, y.as_ref(), T::ZERO, c22.rb_mut(), rest, depth + 1); // C22 = αM3

    add_into(x.rb_mut(), a11, a12);
    fmm(cfg, alpha, x.as_ref(), b22, T::ZERO, z.rb_mut(), rest, depth + 1); // Z = αM5

    add_into(c12.rb_mut(), c22.as_ref(), z.as_ref()); // C12 = α(M3+M5)  (final)
    accum_sub(c22.rb_mut(), c21.as_ref()); // C22 = α(M3−M2)
    axpby(-T::ONE, z.as_ref(), T::ZERO, c11.rb_mut()); // C11 = −αM5

    sub_into(y.rb_mut(), b21, b11);
    fmm(cfg, alpha, a22, y.as_ref(), T::ZERO, z.rb_mut(), rest, depth + 1); // Z = αM4
    accum(c11.rb_mut(), z.as_ref()); // C11 = α(M4−M5)
    accum(c21.rb_mut(), z.as_ref()); // C21 = α(M2+M4)  (final)

    add_into(x.rb_mut(), a11, a22);
    add_into(y.rb_mut(), b11, b22);
    fmm(cfg, alpha, x.as_ref(), y.as_ref(), T::ZERO, z.rb_mut(), rest, depth + 1); // Z = αM1
    accum(c11.rb_mut(), z.as_ref()); // C11 = α(M1+M4−M5)
    accum(c22.rb_mut(), z.as_ref()); // C22 = α(M1−M2+M3)

    sub_into(x.rb_mut(), a12, a22);
    add_into(y.rb_mut(), b21, b22);
    fmm(cfg, alpha, x.as_ref(), y.as_ref(), T::ZERO, z.rb_mut(), rest, depth + 1); // Z = αM7
    accum(c11.rb_mut(), z.as_ref()); // C11 final

    sub_into(x.rb_mut(), a21, a11);
    add_into(y.rb_mut(), b11, b12);
    fmm(cfg, alpha, x.as_ref(), y.as_ref(), T::ZERO, z.rb_mut(), rest, depth + 1); // Z = αM6
    accum(c22.rb_mut(), z.as_ref()); // C22 final
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cutoff::CutoffCriterion;
    use crate::{StrassenConfig, Variant};
    use blas::level3::{gemm, GemmConfig};
    use blas::Op;
    use matrix::{random, Matrix};

    #[test]
    fn original_construction_one_level() {
        let cfg = StrassenConfig::dgefmm()
            .variant(Variant::Original)
            .cutoff(CutoffCriterion::Never)
            .max_depth(1)
            .fused(false);
        let (m, k, n) = (10, 6, 8);
        let a = random::uniform::<f64>(m, k, 7);
        let b = random::uniform::<f64>(k, n, 8);
        let mut c = Matrix::<f64>::zeros(m, n);
        let mut ws = vec![0.0; crate::required_workspace(&cfg, m, k, n, true)];
        original_beta_zero(&cfg, -0.5, a.as_ref(), b.as_ref(), c.as_mut(), &mut ws, 0);
        let mut expect = Matrix::<f64>::zeros(m, n);
        gemm(
            &GemmConfig::naive(),
            -0.5,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.0,
            expect.as_mut(),
        );
        matrix::norms::assert_allclose(c.as_ref(), expect.as_ref(), 1e-13, "original one level");
    }
}
