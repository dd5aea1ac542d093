//! Dynamic peeling for odd dimensions (Section 3.3, eq. (9)).
//!
//! When any of `m, k, n` is odd, the last row/column is stripped off, the
//! even `(m̄, k̄, n̄)` core multiply proceeds recursively, and the stripped
//! pieces are folded back in with Level-1/2 BLAS fixups:
//!
//! * odd `k` — a rank-one update (`GER`): `C̄ += α a₁₂ b₂₁`;
//! * odd `n` — one `GEMV` for `C`'s last column over the **full** `k`
//!   (which absorbs the `a₁₂ b₂₂` corner term);
//! * odd `m` — one transposed `GEMV` for `C`'s last row over the full `k`;
//! * odd `m` *and* odd `n` — a dot product for the corner element.
//!
//! This restructuring is exactly eq. (9) with the fixup steps combined so
//! each output region is touched once — the property that let the paper
//! implement peeling with `DGER`/`DGEMV` calls and zero extra memory,
//! answering the doubts raised in the DGEMMW paper.

use crate::config::StrassenConfig;
use crate::dispatch::fmm;
use crate::probe::FixupKind;
use crate::trace;
use blas::level1::dot;
use blas::level2::{gemv, ger, Op};
use blas::{VecMut, VecRef};
use matrix::{MatMut, MatRef, Scalar};

/// Multiply with at least one odd dimension via dynamic peeling.
pub(crate) fn multiply_peeled<T: Scalar>(
    cfg: &StrassenConfig,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
    ws: &mut [T],
    depth: usize,
) {
    let (m, k) = (a.nrows(), a.ncols());
    let n = b.ncols();
    let (me, ke, ne) = (m & !1, k & !1, n & !1);
    debug_assert!((me, ke, ne) != (m, k, n), "peel called on even dims");

    // Even core: C̄ ← α Ā B̄ + β C̄ (recursion re-enters the dispatcher,
    // which now sees even dimensions).
    {
        let a_core = a.submatrix(0, 0, me, ke);
        let b_core = b.submatrix(0, 0, ke, ne);
        let c_core = c.submatrix_mut(0, 0, me, ne);
        fmm(cfg, alpha, a_core, b_core, beta, c_core, ws, depth);
    }

    // Odd k: C̄ += α · (last column of A) (last row of B)ᵀ — the DGER fixup.
    if ke != k {
        let a_col = VecRef::from_col(a.submatrix(0, k - 1, me, 1), 0);
        let b_row = VecRef::from_row(b.submatrix(k - 1, 0, 1, ne), 0);
        let t = trace::span_timer();
        ger(alpha, a_col, b_row, c.submatrix_mut(0, 0, me, ne));
        trace::peel(depth, FixupKind::Ger, trace::span_ns(t));
    }

    // Odd n: last column of C over the full inner dimension k.
    if ne != n {
        let b_col = VecRef::from_col(b.submatrix(0, n - 1, k, 1), 0);
        let y = VecMut::from_col(c.submatrix_mut(0, n - 1, me, 1), 0);
        let t = trace::span_timer();
        gemv(alpha, Op::NoTrans, a.submatrix(0, 0, me, k), b_col, beta, y);
        trace::peel(depth, FixupKind::Gemv, trace::span_ns(t));
    }

    // Odd m: last row of C (first ne columns) over the full k.
    if me != m {
        let a_row = VecRef::from_row(a.submatrix(m - 1, 0, 1, k), 0);
        let y = VecMut::from_row(c.submatrix_mut(m - 1, 0, 1, ne), 0);
        let t = trace::span_timer();
        gemv(alpha, Op::Trans, b.submatrix(0, 0, k, ne), a_row, beta, y);
        trace::peel(depth, FixupKind::Gemv, trace::span_ns(t));
    }

    // Odd m and n: the corner element, a full-k dot product.
    if me != m && ne != n {
        let a_row = VecRef::from_row(a.submatrix(m - 1, 0, 1, k), 0);
        let b_col = VecRef::from_col(b.submatrix(0, n - 1, k, 1), 0);
        let t = trace::span_timer();
        let prod = alpha * dot(a_row, b_col);
        // β = 0 must not read (possibly garbage) C, per BLAS semantics.
        let v = if beta == T::ZERO { prod } else { prod + beta * c.at(m - 1, n - 1) };
        c.set(m - 1, n - 1, v);
        trace::peel(depth, FixupKind::Dot, trace::span_ns(t));
    }
}

/// Alternate peeling (the paper's future-work variant): strip the
/// *first* row/column instead of the last. The fixup structure is the
/// mirror image of [`multiply_peeled`]; the even core starts at offset
/// `(m mod 2, k mod 2)` instead of `(0, 0)`.
pub(crate) fn multiply_peeled_first<T: Scalar>(
    cfg: &StrassenConfig,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
    ws: &mut [T],
    depth: usize,
) {
    let (m, k) = (a.nrows(), a.ncols());
    let n = b.ncols();
    let (om, ok, on) = (m & 1, k & 1, n & 1);
    let (me, ke, ne) = (m - om, k - ok, n - on);
    debug_assert!(om + ok + on > 0, "peel-first called on even dims");

    // Even core: rows om.., cols ok.. of A; rows ok.., cols on.. of B.
    {
        let a_core = a.submatrix(om, ok, me, ke);
        let b_core = b.submatrix(ok, on, ke, ne);
        let c_core = c.submatrix_mut(om, on, me, ne);
        fmm(cfg, alpha, a_core, b_core, beta, c_core, ws, depth);
    }

    // Odd k: core += α · (first column of A, rows om..) ⊗ (first row of B,
    // cols on..).
    if ok == 1 {
        let a_col = VecRef::from_col(a.submatrix(om, 0, me, 1), 0);
        let b_row = VecRef::from_row(b.submatrix(0, on, 1, ne), 0);
        let t = trace::span_timer();
        ger(alpha, a_col, b_row, c.submatrix_mut(om, on, me, ne));
        trace::peel(depth, FixupKind::Ger, trace::span_ns(t));
    }

    // Odd n: first column of C (rows om..) over the full k.
    if on == 1 {
        let b_col = VecRef::from_col(b.submatrix(0, 0, k, 1), 0);
        let y = VecMut::from_col(c.submatrix_mut(om, 0, me, 1), 0);
        let t = trace::span_timer();
        gemv(alpha, Op::NoTrans, a.submatrix(om, 0, me, k), b_col, beta, y);
        trace::peel(depth, FixupKind::Gemv, trace::span_ns(t));
    }

    // Odd m: first row of C (cols on..) over the full k.
    if om == 1 {
        let a_row = VecRef::from_row(a.submatrix(0, 0, 1, k), 0);
        let y = VecMut::from_row(c.submatrix_mut(0, on, 1, ne), 0);
        let t = trace::span_timer();
        gemv(alpha, Op::Trans, b.submatrix(0, on, k, ne), a_row, beta, y);
        trace::peel(depth, FixupKind::Gemv, trace::span_ns(t));
    }

    // Odd m and n: the (0, 0) corner.
    if om == 1 && on == 1 {
        let a_row = VecRef::from_row(a.submatrix(0, 0, 1, k), 0);
        let b_col = VecRef::from_col(b.submatrix(0, 0, k, 1), 0);
        let t = trace::span_timer();
        let prod = alpha * dot(a_row, b_col);
        let v = if beta == T::ZERO { prod } else { prod + beta * c.at(0, 0) };
        c.set(0, 0, v);
        trace::peel(depth, FixupKind::Dot, trace::span_ns(t));
    }
}
