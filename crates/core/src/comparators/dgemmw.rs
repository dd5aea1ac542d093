//! DGEMMW analog — Douglas, Heroux, Slishman & Smith's portable Winograd
//! code (Journal of Computational Physics 110, 1994), re-implemented from
//! its published algorithmic choices:
//!
//! * Winograd variant with a STRASSEN1-style β = 0 schedule;
//! * **dynamic padding** for odd dimensions (they dismissed peeling);
//! * the **simple cutoff criterion** (paper eq. (11)): stop as soon as
//!   any dimension is at or below the square cutoff τ;
//! * `β ≠ 0` handled by staging the full product and updating — which is
//!   what gives DGEMMW its `mn + (mk + kn)/3` general-case memory
//!   footprint (≈ `5m²/3` square, Table 1) versus DGEFMM's `m²`.

use crate::config::{OddHandling, Scheme, StrassenConfig, Variant};
use crate::cutoff::CutoffCriterion;
use crate::dispatch::dgefmm;
use crate::fastmm::Family;
use blas::add::axpby;
use blas::level2::Op;
use blas::level3::GemmConfig;
use matrix::{MatMut, MatRef, Matrix, Scalar};

/// Configuration under which the DGEMMW analog runs its recursion.
pub fn dgemmw_config(tau: usize, gemm: GemmConfig) -> StrassenConfig {
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

/// `C ← α op(A) op(B) + β C` the DGEMMW way.
#[allow(clippy::too_many_arguments)]
pub fn dgemmw<T: Scalar>(
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
    let cfg = dgemmw_config(tau, gemm);
    if beta == T::ZERO {
        dgefmm(&cfg, alpha, op_a, a, op_b, b, beta, c);
    } else {
        // Stage D ← α op(A) op(B), then C ← D + β C.
        let (m, _) = op_a.dims(&a);
        let (_, n) = op_b.dims(&b);
        let mut d = Matrix::<T>::zeros(m, n);
        dgefmm(&cfg, alpha, op_a, a, op_b, b, T::ZERO, d.as_mut());
        axpby(T::ONE, d.as_ref(), beta, c.rb_mut());
    }
}

/// Temporary elements the DGEMMW strategy uses for an `(m, k, n)` product
/// (staging buffer plus recursion workspace).
pub fn dgemmw_temp_elements(tau: usize, m: usize, k: usize, n: usize, beta_zero: bool) -> usize {
    let cfg = dgemmw_config(tau, GemmConfig::blocked());
    let ws = crate::workspace::total_temp_elements(&cfg, m, k, n, true);
    if beta_zero {
        ws
    } else {
        ws + m * n
    }
}
