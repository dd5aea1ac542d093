//! STRASSEN2: the paper's Figure-1 schedule.
//!
//! Computes `C ← α A B + β C` using the *minimum possible* three
//! temporaries (`R1` of `mk/4`, `R2` of `kn/4`, `R3` of `mn/4`), by
//! rearranging the Winograd computation around recursive
//! multiply-accumulate (`C ← C + αAB`) so `C`'s own storage carries the
//! running `U` sums. Recursion total: `(mk + kn + mn)/3` extra elements —
//! `m²` square (Table 1). `α` is folded into the `A`-operand sums and the
//! raw-quadrant products, exactly as Figure 1 does, so no separate
//! scaling pass over the products is needed.

use crate::config::StrassenConfig;
use crate::dispatch::fmm;
use crate::trace::add::{
    accum, add_into_scaled, axpby, rsub_into, scale_in_place, sub_into, sub_into_scaled,
};
use matrix::{MatMut, Scalar};

/// `C ← α A B + β C` with three workspace temporaries.
///
/// Requires even `m, k, n`. `ws` must hold at least
/// `mk/4 + kn/4 + mn/4` elements plus the recursive requirement.
pub(crate) fn strassen2<T: Scalar>(
    cfg: &StrassenConfig,
    alpha: T,
    a: matrix::MatRef<'_, T>,
    b: matrix::MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
    ws: &mut [T],
    depth: usize,
) {
    let (m, n) = (a.nrows(), b.ncols());
    let k = a.ncols();
    debug_assert!(m % 2 == 0 && k % 2 == 0 && n % 2 == 0);
    let (m2, k2, n2) = (m / 2, k / 2, n / 2);

    // Fold β in up front; from here on every update is an accumulation.
    scale_in_place(beta, c.rb_mut());

    let (a11, a12, a21, a22) = a.quadrants(m2, k2);
    let (b11, b12, b21, b22) = b.quadrants(k2, n2);
    let (mut c11, mut c12, mut c21, mut c22) = c.split_quadrants(m2, n2);

    let (r1_buf, rest) = ws.split_at_mut(m2 * k2);
    let (r2_buf, rest) = rest.split_at_mut(k2 * n2);
    let (r3_buf, rest) = rest.split_at_mut(m2 * n2);
    let mut r1 = MatMut::from_slice(r1_buf, m2, k2, m2.max(1));
    let mut r2 = MatMut::from_slice(r2_buf, k2, n2, k2.max(1));
    let mut r3 = MatMut::from_slice(r3_buf, m2, n2, m2.max(1));

    add_into_scaled(r1.rb_mut(), alpha, a21, a22); // R1 = αS1
    sub_into(r2.rb_mut(), b12, b11); // R2 = T1
    fmm(cfg, T::ONE, r1.as_ref(), r2.as_ref(), T::ZERO, r3.rb_mut(), rest, depth + 1); // R3 = αP5
    accum(c12.rb_mut(), r3.as_ref()); // C12 += αP5
    accum(c22.rb_mut(), r3.as_ref()); // C22 += αP5

    axpby(-alpha, a11, T::ONE, r1.rb_mut()); // R1 = αS2 = αS1 − αA11
    rsub_into(r2.rb_mut(), b22); // R2 = T2 = B22 − T1
    fmm(cfg, alpha, a11, b11, T::ZERO, r3.rb_mut(), rest, depth + 1); // R3 = αP1
    accum(c11.rb_mut(), r3.as_ref()); // C11 += αP1
    fmm(cfg, T::ONE, r1.as_ref(), r2.as_ref(), T::ONE, r3.rb_mut(), rest, depth + 1); // R3 = αU2 = α(P1+P6)
    fmm(cfg, alpha, a12, b21, T::ONE, c11.rb_mut(), rest, depth + 1); // C11 += αP2  (C11 final)

    axpby(alpha, a12, -T::ONE, r1.rb_mut()); // R1 = αS4 = αA12 − αS2
    rsub_into(r2.rb_mut(), b21); // R2 = B21 − T2 = −T4
    fmm(cfg, T::ONE, r1.as_ref(), b22, T::ONE, c12.rb_mut(), rest, depth + 1); // C12 += αP3
    accum(c12.rb_mut(), r3.as_ref()); // C12 += αU2  (C12 final)
    fmm(cfg, alpha, a22, r2.as_ref(), T::ONE, c21.rb_mut(), rest, depth + 1); // C21 += α·A22(B21−T2) = −αP4

    sub_into_scaled(r1.rb_mut(), alpha, a11, a21); // R1 = αS3
    sub_into(r2.rb_mut(), b22, b12); // R2 = T3
    fmm(cfg, T::ONE, r1.as_ref(), r2.as_ref(), T::ONE, r3.rb_mut(), rest, depth + 1); // R3 = αU3 = α(U2+P7)
    accum(c21.rb_mut(), r3.as_ref()); // C21 += αU3  (C21 final: α(U3 − P4))
    accum(c22.rb_mut(), r3.as_ref()); // C22 += αU3  (C22 final: α(U3 + P5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cutoff::CutoffCriterion;
    use crate::StrassenConfig;
    use blas::level3::{gemm, GemmConfig};
    use blas::Op;
    use matrix::{random, Matrix};

    #[test]
    fn figure1_schedule_one_level() {
        // One isolated level of the Figure-1 schedule, children on GEMM.
        let cfg = StrassenConfig::dgefmm().cutoff(CutoffCriterion::Never).max_depth(1).fused(false);
        for (alpha, beta) in [(1.0, 1.0), (0.5, -1.5), (2.0, 0.0), (-1.0, 0.25)] {
            let (m, k, n) = (10, 14, 6);
            let a = random::uniform::<f64>(m, k, 1);
            let b = random::uniform::<f64>(k, n, 2);
            let c0 = random::uniform::<f64>(m, n, 3);
            let mut c = c0.clone();
            let mut ws = vec![0.0; crate::required_workspace(&cfg, m, k, n, false)];
            strassen2(&cfg, alpha, a.as_ref(), b.as_ref(), beta, c.as_mut(), &mut ws, 0);
            let mut expect = c0.clone();
            gemm(
                &GemmConfig::naive(),
                alpha,
                Op::NoTrans,
                a.as_ref(),
                Op::NoTrans,
                b.as_ref(),
                beta,
                expect.as_mut(),
            );
            matrix::norms::assert_allclose(
                c.as_ref(),
                expect.as_ref(),
                1e-12,
                &format!("α={alpha} β={beta}"),
            );
        }
    }

    #[test]
    fn exactly_three_temporaries() {
        // The schedule must fit in R1 + R2 + R3 for one level — the
        // minimum the paper proves possible. A one-element shortfall
        // would panic in split_at_mut.
        let cfg = StrassenConfig::dgefmm().cutoff(CutoffCriterion::Never).max_depth(1).fused(false);
        let (m, k, n) = (8, 12, 16);
        let a = random::uniform::<f64>(m, k, 1);
        let b = random::uniform::<f64>(k, n, 2);
        let mut c = Matrix::<f64>::zeros(m, n);
        let exact = (m / 2) * (k / 2) + (k / 2) * (n / 2) + (m / 2) * (n / 2);
        assert_eq!(crate::required_workspace(&cfg, m, k, n, false), exact);
        let mut ws = vec![0.0; exact];
        strassen2(&cfg, 1.0, a.as_ref(), b.as_ref(), 1.0, c.as_mut(), &mut ws, 0);
    }
}
