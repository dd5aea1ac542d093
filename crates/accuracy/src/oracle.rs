//! The compensated reference oracle: a GEMM correct to ~2 ulps,
//! independent of the inner dimension.
//!
//! Built from the classical error-free transformations (EFTs):
//! [`two_sum`] (Knuth) and [`two_prod`] (FMA form) return the exact
//! rounding error of one addition/multiplication as a second `f64`.
//! Chaining them gives the Dot2 compensated dot product of Ogita, Rump &
//! Oishi ("Accurate sum and dot product", SIAM J. Sci. Comput. 26(6),
//! 2005): the result is as accurate as if the dot product were computed
//! in twice the working precision and rounded once — error ≤ u + O(u²)
//! relative to the exact value whenever the condition number is ≤ 1/u,
//! with **no dependence on the vector length** at first order.
//!
//! That makes the oracle a genuinely independent reference for the
//! differential fuzzer: its error (~2 ulps worst case including the α/β
//! combination) is negligible against both the classic GEMM bound
//! (`k·u` componentwise) and the Strassen bounds (growing by 12–18× per
//! recursion level), so any disagreement beyond the theoretical envelope
//! is the library's fault, not the reference's.

use matrix::{MatMut, MatRef, Matrix};

/// Knuth's TwoSum: returns `(s, e)` with `s = fl(a + b)` and
/// `a + b = s + e` exactly. Six flops, no branch, valid for any order of
/// magnitudes.
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let a_prime = s - b;
    let b_prime = s - a_prime;
    let e = (a - a_prime) + (b - b_prime);
    (s, e)
}

/// TwoProd in FMA form: returns `(p, e)` with `p = fl(a · b)` and
/// `a · b = p + e` exactly. `f64::mul_add` rounds `a·b − p` once, which
/// is exactly the multiplication error.
#[inline]
pub fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = a.mul_add(b, -p);
    (p, e)
}

/// Dot2-style compensated dot product over paired entries. Returns the
/// unevaluated pair `(hi, lo)`: the high part is the naive accumulation,
/// the low part carries every rounding error of both the products and
/// the running sums. `hi + lo` is the compensated result.
pub fn dot2(pairs: impl Iterator<Item = (f64, f64)>) -> (f64, f64) {
    let mut hi = 0.0f64;
    let mut lo = 0.0f64;
    for (a, b) in pairs {
        let (p, pe) = two_prod(a, b);
        let (s, se) = two_sum(hi, p);
        hi = s;
        lo += pe + se;
    }
    (hi, lo)
}

/// The compensated oracle GEMM: `C ← α op(A) op(B) + β C` with every
/// inner product computed by [`dot2`] and the `α`/`β` combination kept
/// in EFT form until the final rounding.
///
/// Cost is Θ(mkn) scalar flops with a ~25× constant over a naive
/// triple loop and no blocking — this routine exists to be *right*, not
/// fast, and must never be linked into the multiply hot path
/// (the dependency-audit step of `scripts/verify.sh` checks that).
pub fn gemm_oracle(
    alpha: f64,
    op_a: blas::Op,
    a: MatRef<'_, f64>,
    op_b: blas::Op,
    b: MatRef<'_, f64>,
    beta: f64,
    mut c: MatMut<'_, f64>,
) {
    let (m, k) = op_a.dims(&a);
    let (kb, n) = op_b.dims(&b);
    assert_eq!(k, kb, "gemm_oracle: inner dimensions disagree ({k} vs {kb})");
    assert_eq!(c.nrows(), m, "gemm_oracle: C has {} rows, expected {m}", c.nrows());
    assert_eq!(c.ncols(), n, "gemm_oracle: C has {} cols, expected {n}", c.ncols());

    let ga = |i: usize, p: usize| if op_a == blas::Op::NoTrans { a.at(i, p) } else { a.at(p, i) };
    let gb = |p: usize, j: usize| if op_b == blas::Op::NoTrans { b.at(p, j) } else { b.at(j, p) };

    for j in 0..n {
        for i in 0..m {
            let (hi, lo) = dot2((0..k).map(|p| (ga(i, p), gb(p, j))));
            // α·(hi + lo): keep the product error of α·hi as well.
            let (p1, e1) = two_prod(alpha, hi);
            let tail = alpha.mul_add(lo, e1);
            let out = if beta == 0.0 {
                // BLAS semantics: β = 0 never reads C (NaN/Inf safe).
                p1 + tail
            } else {
                let (p2, e2) = two_prod(beta, c.at(i, j));
                let (s, e3) = two_sum(p1, p2);
                s + (tail + e2 + e3)
            };
            c.set(i, j, out);
        }
    }
}

/// Convenience wrapper: `A · B` through the oracle, allocating the
/// result (α = 1, β = 0, no transposes).
pub fn mul_oracle(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    let mut c = Matrix::zeros(a.nrows(), b.ncols());
    gemm_oracle(1.0, blas::Op::NoTrans, a.as_ref(), blas::Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use blas::level3::{gemm, GemmConfig};
    use blas::Op;
    use matrix::{random, Matrix};

    #[test]
    fn efts_are_exact() {
        // TwoSum: catastrophic cancellation case with a known error term.
        let (s, e) = two_sum(1e16, 1.0);
        assert_eq!(s, 1e16); // 1.0 is below the ulp of 1e16...
        assert_eq!(e, 1.0); // ...and comes back exactly in the error.
                            // TwoProd: product error of two full-mantissa values is recovered.
        let a = 1.0 + f64::EPSILON;
        let (p, e) = two_prod(a, a);
        // a² = 1 + 2ε + ε²; fl(a²) = 1 + 2ε, so the error is exactly ε².
        assert_eq!(p, 1.0 + 2.0 * f64::EPSILON);
        assert_eq!(e, f64::EPSILON * f64::EPSILON);
    }

    #[test]
    fn dot2_survives_catastrophic_cancellation() {
        // Naive summation annihilates the ±1e16 pair and loses the 1.0;
        // the compensated dot recovers the exact answer.
        let x = [1e16, 1.0, -1e16, 1.0];
        let y = [1.0, 1.0, 1.0, 1.0];
        let (hi, lo) = dot2(x.iter().copied().zip(y.iter().copied()));
        assert_eq!(hi + lo, 2.0);
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert_ne!(naive, 2.0, "the case must actually be ill-conditioned for the naive sum");
    }

    /// On exactly representable data (small-integer entries, power-of-two
    /// scalars) the true product is a representable f64, so the oracle
    /// must return it with **zero** error — the strongest possible
    /// correctness check, no tolerance involved.
    #[test]
    fn oracle_is_exact_on_integer_matrices() {
        let (m, k, n) = (23, 37, 19);
        let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 21) as f64 - 10.0);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 11) % 17) as f64 - 8.0);
        let c0 = Matrix::from_fn(m, n, |i, j| ((i + j) % 9) as f64 - 4.0);
        // |entries| ≤ 10·8·37 + scalars — far inside exact-integer range.
        let exact = Matrix::from_fn(m, n, |i, j| {
            let dot: f64 = (0..k).map(|p| a.at(i, p) * b.at(p, j)).sum(); // exact in f64
            2.0 * dot - 4.0 * c0.at(i, j)
        });
        let mut c = c0.clone();
        gemm_oracle(2.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), -4.0, c.as_mut());
        assert_eq!(testkit::max_ulp_diff_mat(c.as_ref(), exact.as_ref()), 0);
    }

    #[test]
    fn oracle_matches_reference_on_random_data_within_ulps() {
        for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
            let (m, k, n) = (17, 29, 13);
            let op_a = if ta { Op::Trans } else { Op::NoTrans };
            let op_b = if tb { Op::Trans } else { Op::NoTrans };
            let (ar, ac) = if ta { (k, m) } else { (m, k) };
            let (br, bc) = if tb { (n, k) } else { (k, n) };
            let a = random::uniform::<f64>(ar, ac, 1);
            let b = random::uniform::<f64>(br, bc, 2);
            let c0 = random::uniform::<f64>(m, n, 3);
            let mut want = c0.clone();
            gemm(&GemmConfig::naive(), 1.5, op_a, a.as_ref(), op_b, b.as_ref(), 0.5, want.as_mut());
            let mut got = c0.clone();
            gemm_oracle(1.5, op_a, a.as_ref(), op_b, b.as_ref(), 0.5, got.as_mut());
            // The *naive* kernel carries O(k·u) error; the oracle carries
            // ~2 ulps. Their difference is bounded by the naive error.
            let diff = matrix::norms::rel_diff(got.as_ref(), want.as_ref());
            assert!(diff < 1e-13, "{ta}/{tb}: rel diff {diff:.3e}");
        }
    }

    #[test]
    fn beta_zero_never_reads_c() {
        let a = random::uniform::<f64>(6, 6, 4);
        let b = random::uniform::<f64>(6, 6, 5);
        let mut c = Matrix::from_fn(6, 6, |_, _| f64::NAN);
        gemm_oracle(1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
        assert!(c.as_slice().iter().all(|x| x.is_finite()));
    }
}
