//! Level 2 BLAS subset: matrix-vector operations (`GEMV`, `GER`).
//!
//! These are exactly the routines the paper's dynamic-peeling fixup uses
//! (Section 3.3): one rank-one update and two matrix-vector products per
//! peeled multiply.

use crate::vector::{VecMut, VecRef};
use matrix::{MatMut, MatRef, Scalar};

/// Transposition selector for `op(A)` arguments, as in the BLAS `TRANSA`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// `op(A) = A`
    NoTrans,
    /// `op(A) = Aᵀ`
    Trans,
}

impl Op {
    /// Dimensions of `op(A)` given the stored matrix `a`.
    #[inline]
    pub fn dims<T>(self, a: &MatRef<'_, T>) -> (usize, usize) {
        match self {
            Op::NoTrans => (a.nrows(), a.ncols()),
            Op::Trans => (a.ncols(), a.nrows()),
        }
    }
}

/// General matrix-vector product `y ← α op(A) x + β y`.
///
/// `op(A)` is `m x n`; `x` has length `n` and `y` length `m`.
pub fn gemv<T: Scalar>(alpha: T, op: Op, a: MatRef<'_, T>, x: VecRef<'_, T>, beta: T, mut y: VecMut<'_, T>) {
    let (m, n) = op.dims(&a);
    assert_eq!(x.len(), n, "gemv: x length {} != {}", x.len(), n);
    assert_eq!(y.len(), m, "gemv: y length {} != {}", y.len(), m);

    if beta == T::ZERO {
        for i in 0..m {
            // SAFETY: i < m == y.len().
            unsafe {
                *y.get_unchecked_mut(i) = T::ZERO;
            }
        }
    } else if beta != T::ONE {
        crate::level1::scal(beta, y.rb_mut());
    }
    if alpha == T::ZERO || m == 0 || n == 0 {
        return;
    }

    match op {
        // y += alpha * A x: accumulate column-by-column (axpy-style), the
        // cache-friendly order for column-major A.
        Op::NoTrans => {
            for j in 0..a.ncols() {
                // SAFETY: j < ncols == x.len().
                let xj = alpha * unsafe { x.get_unchecked(j) };
                if xj == T::ZERO {
                    continue;
                }
                let col = a.col(j);
                for (i, &aij) in col.iter().enumerate() {
                    // SAFETY: i < nrows == y.len().
                    unsafe {
                        *y.get_unchecked_mut(i) += xj * aij;
                    }
                }
            }
        }
        // y += alpha * Aᵀ x: each output element is a dot with a column.
        // The peel passes a row of `A` as `x`; copied to contiguous
        // storage once, it is read as a slice by every column's dot.
        Op::Trans => {
            let strided: Vec<T>;
            let x = match x.as_slice() {
                Some(x) => x,
                None => {
                    strided = (0..n).map(|i| x.at(i)).collect();
                    &strided
                }
            };
            for j in 0..a.ncols() {
                let s = dot_lanes(a.col(j), x);
                // SAFETY: j < ncols == y.len().
                unsafe {
                    *y.get_unchecked_mut(j) += alpha * s;
                }
            }
        }
    }
}

/// `Σ a_i·x_i` over [`DOT_LANES`] independent partial sums. One running
/// sum is a single dependent add chain, latency-bound and unvectorisable;
/// lane `l` sums the elements `i ≡ l (mod DOT_LANES)`, the tail goes
/// into lane `i mod DOT_LANES`, and the lanes are added pairwise.
fn dot_lanes<T: Scalar>(a: &[T], x: &[T]) -> T {
    debug_assert_eq!(a.len(), x.len());
    let mut acc = [T::ZERO; DOT_LANES];
    let (a_body, x_body) = (a.chunks_exact(DOT_LANES), x.chunks_exact(DOT_LANES));
    let (a_tail, x_tail) = (a_body.remainder(), x_body.remainder());
    for (ca, cx) in a_body.zip(x_body) {
        for ((s, &ai), &xi) in acc.iter_mut().zip(ca).zip(cx) {
            *s += ai * xi;
        }
    }
    for ((s, &ai), &xi) in acc.iter_mut().zip(a_tail).zip(x_tail) {
        *s += ai * xi;
    }
    let mut width = DOT_LANES;
    while width > 1 {
        width /= 2;
        for l in 0..width {
            acc[l] += acc[l + width];
        }
    }
    acc[0]
}

/// Partial sums per [`dot_lanes`] call: eight 2-wide `f64` vectors at
/// the baseline x86-64 target, enough independent adds to cover the add
/// latency.
const DOT_LANES: usize = 16;

/// Rank-one update `A ← α x yᵀ + A` where `A` is `m x n`, `x` length `m`,
/// `y` length `n` (BLAS `GER`).
pub fn ger<T: Scalar>(alpha: T, x: VecRef<'_, T>, y: VecRef<'_, T>, mut a: MatMut<'_, T>) {
    assert_eq!(x.len(), a.nrows(), "ger: x length mismatch");
    assert_eq!(y.len(), a.ncols(), "ger: y length mismatch");
    if alpha == T::ZERO {
        return;
    }
    for j in 0..a.ncols() {
        // SAFETY: j < ncols == y.len().
        let yj = alpha * unsafe { y.get_unchecked(j) };
        if yj == T::ZERO {
            continue;
        }
        let col = a.col_mut(j);
        for (i, aij) in col.iter_mut().enumerate() {
            // SAFETY: i < nrows == x.len().
            *aij += unsafe { x.get_unchecked(i) } * yj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrix::Matrix;

    fn a23() -> Matrix<f64> {
        // [1 2 3]
        // [4 5 6]
        Matrix::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn gemv_notrans() {
        let a = a23();
        let x = [1.0f64, 0.0, -1.0];
        let mut y = [10.0f64, 10.0];
        gemv(1.0, Op::NoTrans, a.as_ref(), VecRef::from_slice(&x), 0.0, VecMut::from_slice(&mut y));
        assert_eq!(y, [-2.0, -2.0]);
    }

    #[test]
    fn gemv_trans() {
        let a = a23();
        let x = [1.0f64, 1.0];
        let mut y = [0.0f64; 3];
        gemv(1.0, Op::Trans, a.as_ref(), VecRef::from_slice(&x), 0.0, VecMut::from_slice(&mut y));
        assert_eq!(y, [5.0, 7.0, 9.0]);
    }

    /// `Op::Trans` against a naive one-chain sum: `x` a strided row, `y`
    /// a strided row too, lengths below, at and past one lane block with
    /// tails that are not a multiple of the lane count, β ∈ {0 over NaN,
    /// 1, −0.5}. The two differ only in summation order, so they agree
    /// within `2(k + 2)·ε·(|α|·Σ|a_ij·x_i| + |β·y_j|)`.
    #[test]
    fn gemv_trans_matches_naive_sum_within_rounding() {
        let alpha = 0.7f64;
        for k in [1, 5, DOT_LANES, 37, 2 * DOT_LANES + 1, 301] {
            let n = 7;
            let a = matrix::random::uniform::<f64>(k, n, 11);
            // x is row 1 of a 3 × k matrix: stride 3.
            let xs = matrix::random::uniform::<f64>(3, k, 12);
            let x = VecRef::from_row(xs.as_ref(), 1);
            for beta in [0.0, 1.0, -0.5] {
                let y0 = matrix::random::uniform::<f64>(2, n, 13);
                let mut ys = y0.clone();
                if beta == 0.0 {
                    (0..n).for_each(|j| ys.set(0, j, f64::NAN));
                }
                gemv(alpha, Op::Trans, a.as_ref(), x, beta, VecMut::from_row(ys.as_mut(), 0));
                for j in 0..n {
                    let (mut s, mut mag) = (0.0, 0.0);
                    for i in 0..k {
                        s += a.at(i, j) * x.at(i);
                        mag += (a.at(i, j) * x.at(i)).abs();
                    }
                    let by = if beta == 0.0 { 0.0 } else { beta * y0.at(0, j) };
                    let want = alpha * s + by;
                    let bound = 2.0 * (k + 2) as f64 * f64::EPSILON * (alpha.abs() * mag + by.abs());
                    let got = ys.at(0, j);
                    assert!(
                        (got - want).abs() <= bound,
                        "k {k} β {beta} j {j}: {got} vs {want} (bound {bound:e})"
                    );
                    assert_eq!(
                        ys.at(1, j).to_bits(),
                        y0.at(1, j).to_bits(),
                        "row 1 of y's storage was touched"
                    );
                }
            }
        }
    }

    #[test]
    fn gemv_alpha_beta() {
        let a = a23();
        let x = [1.0f64, 1.0, 1.0];
        let mut y = [1.0f64, 2.0];
        // y = 2*A*1 + 3*y
        gemv(2.0, Op::NoTrans, a.as_ref(), VecRef::from_slice(&x), 3.0, VecMut::from_slice(&mut y));
        assert_eq!(y, [2.0 * 6.0 + 3.0, 2.0 * 15.0 + 6.0]);
    }

    #[test]
    fn gemv_beta_zero_ignores_nan_y() {
        let a = a23();
        let x = [1.0f64, 1.0, 1.0];
        let mut y = [f64::NAN, f64::NAN];
        gemv(1.0, Op::NoTrans, a.as_ref(), VecRef::from_slice(&x), 0.0, VecMut::from_slice(&mut y));
        assert_eq!(y, [6.0, 15.0]);
    }

    #[test]
    fn ger_rank_one() {
        let mut a = Matrix::<f64>::zeros(2, 3);
        let x = [1.0f64, 2.0];
        let y = [3.0f64, 4.0, 5.0];
        ger(2.0, VecRef::from_slice(&x), VecRef::from_slice(&y), a.as_mut());
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(a.at(i, j), 2.0 * x[i] * y[j]);
            }
        }
    }

    #[test]
    fn ger_accumulates() {
        let mut a = Matrix::from_row_major(1, 1, &[7.0]);
        let x = [2.0f64];
        let y = [3.0f64];
        ger(1.0, VecRef::from_slice(&x), VecRef::from_slice(&y), a.as_mut());
        assert_eq!(a.at(0, 0), 13.0);
    }

    #[test]
    fn op_dims() {
        let a = a23();
        assert_eq!(Op::NoTrans.dims(&a.as_ref()), (2, 3));
        assert_eq!(Op::Trans.dims(&a.as_ref()), (3, 2));
    }
}
