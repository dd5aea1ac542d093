//! IBM ESSL `DGEMMS` analog (multiply-only Strassen).
//!
//! ESSL's Strassen routine computes only `C = op(A) · op(B)` — unlike
//! every other implementation the paper examines, it does **not** accept
//! `α`/`β`, so a caller wanting full `GEMM` semantics must run an extra
//! scale-and-update pass over `C` itself (the paper timed exactly that
//! loop alongside the DGEMMS call; Figure 3's "general case" advantage of
//! DGEFMM comes from avoiding it).

use crate::config::{Family, OddHandling, Scheme, StrassenConfig, Variant};
use crate::cutoff::CutoffCriterion;
use crate::dispatch::dgefmm;
use blas::add::axpby;
use blas::level2::Op;
use blas::level3::GemmConfig;
use matrix::{MatMut, MatRef, Matrix, Scalar};

/// Configuration under which the DGEMMS analog runs its recursion.
pub fn dgemms_config(tau: usize, gemm: GemmConfig) -> StrassenConfig {
    StrassenConfig {
        variant: Variant::Winograd,
        family: Family::F222,
        scheme: Scheme::Strassen1,
        odd: OddHandling::DynamicPadding,
        cutoff: CutoffCriterion::Simple { tau },
        cutoff_general: None,
        gemm,
        parallel_depth: 0,
        parallel_width: usize::MAX,
        max_depth: usize::MAX,
        // The comparator codes predate the fused kernels; keep them on
        // the classic temp-based schedules they model.
        fused: false,
    }
}

/// The restricted ESSL interface: `C ← op(A) · op(B)` only.
pub fn dgemms<T: Scalar>(
    tau: usize,
    gemm: GemmConfig,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
) {
    let cfg = dgemms_config(tau, gemm);
    dgefmm(&cfg, T::ONE, op_a, a, op_b, b, T::ZERO, c);
}

/// What a caller needing `C ← α op(A) op(B) + β C` has to do around the
/// multiply-only interface: stage the product, then scale and update —
/// the extra loop the paper included in its DGEMMS timings.
#[allow(clippy::too_many_arguments)]
pub fn dgemms_with_update<T: Scalar>(
    tau: usize,
    gemm: GemmConfig,
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let (m, _) = op_a.dims(&a);
    let (_, n) = op_b.dims(&b);
    let mut d = Matrix::<T>::zeros(m, n);
    dgemms(tau, gemm, op_a, a, op_b, b, d.as_mut());
    axpby(alpha, d.as_ref(), beta, c.rb_mut());
}
