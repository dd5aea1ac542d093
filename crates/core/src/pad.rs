//! Padding strategies for odd dimensions (Section 2's alternatives to
//! dynamic peeling — implemented both as comparators and to let
//! `experiments ablation` reproduce the peel-vs-pad design argument).

use crate::config::{OddHandling, StrassenConfig};
use crate::dispatch::fmm;
use crate::trace;
use crate::trace::add::axpby;
use crate::workspace::static_padding_depth_for;
use matrix::{MatMut, MatRef, Matrix, Scalar};

/// Copy `src` into the top-left corner of a zero `rows x cols` matrix.
fn padded_copy<T: Scalar>(src: MatRef<'_, T>, rows: usize, cols: usize) -> Matrix<T> {
    let mut out = Matrix::zeros(rows, cols);
    out.as_mut().submatrix_mut(0, 0, src.nrows(), src.ncols()).copy_from(src);
    out
}

/// Dynamic padding (Douglas et al.): zero-pad each non-divisible
/// dimension *at this level* up to the family's base-case unit, multiply
/// the padded copies, and copy the valid region back.
pub(crate) fn multiply_padded<T: Scalar>(
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
    let (dm, dk, dn) = cfg.family.dims();
    let (mp, kp, np) = (m.next_multiple_of(dm), k.next_multiple_of(dk), n.next_multiple_of(dn));
    debug_assert!((mp, kp, np) != (m, k, n), "pad called on divisible dims");

    let t = trace::span_timer();
    let ap = padded_copy(a, mp, kp);
    let bp = padded_copy(b, kp, np);
    trace::pad_copy(depth, mp * kp + kp * np + mp * np, trace::span_ns(t));
    // The padded product is computed with β = 0 into a scratch C, then
    // folded into the real C; this keeps the padded rows/columns from
    // ever contaminating caller data.
    let mut cp = Matrix::<T>::zeros(mp, np);
    fmm(cfg, alpha, ap.as_ref(), bp.as_ref(), T::ZERO, cp.as_mut(), ws, depth);
    axpby(T::ONE, cp.as_ref().submatrix(0, 0, m, n), beta, c.rb_mut());
}

/// Static padding (Strassen's original suggestion): pad once, up front,
/// to multiples of `fm^d / fk^d / fn^d` so that every one of the `d`
/// planned recursion levels sees divisible dimensions.
pub(crate) fn multiply_static_padded<T: Scalar>(
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
    let d = static_padding_depth_for(cfg, m, k, n, beta == T::ZERO);
    let (dm, dk, dn) = cfg.family.dims();
    let (mp, kp, np) =
        (m.next_multiple_of(dm.pow(d)), k.next_multiple_of(dk.pow(d)), n.next_multiple_of(dn.pow(d)));

    // Below the top level dimensions stay even by construction; if the
    // cutoff fires later than planned and an odd size sneaks through,
    // dynamic padding picks it up.
    let inner = StrassenConfig { odd: OddHandling::DynamicPadding, ..*cfg };

    if (mp, kp, np) == (m, k, n) {
        fmm(&inner, alpha, a, b, beta, c, ws, depth);
        return;
    }
    let t = trace::span_timer();
    let ap = padded_copy(a, mp, kp);
    let bp = padded_copy(b, kp, np);
    trace::pad_copy(depth, mp * kp + kp * np + mp * np, trace::span_ns(t));
    let mut cp = Matrix::<T>::zeros(mp, np);
    fmm(&inner, alpha, ap.as_ref(), bp.as_ref(), T::ZERO, cp.as_mut(), ws, depth);
    axpby(T::ONE, cp.as_ref().submatrix(0, 0, m, n), beta, c.rb_mut());
}
