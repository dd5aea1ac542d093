//! CRAY `SGEMMS` analog — Bailey's scheme on Strassen's **original**
//! (7-multiply / 18-add) construction, as shipped in CRAY's scilib.
//!
//! Distinguishing features reproduced here: the original variant (so it
//! pays the three extra additions per level that the Winograd variant
//! saves — the eq. (4)/(5) gap), vendor-style padding for odd sizes, and
//! the largest temporary footprint of the codes in Table 1 (`7m²/3`).

use crate::config::{OddHandling, Scheme, StrassenConfig, Variant};
use crate::cutoff::CutoffCriterion;
use crate::dispatch::dgefmm;
use crate::fastmm::Family;
use blas::level2::Op;
use blas::level3::GemmConfig;
use matrix::{MatMut, MatRef, Scalar};

/// Configuration under which the SGEMMS analog runs its recursion.
pub fn sgemms_config(tau: usize, gemm: GemmConfig) -> StrassenConfig {
    StrassenConfig {
        variant: Variant::Original,
        family: Family::F222,
        scheme: Scheme::Auto,
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

/// `C ← α op(A) op(B) + β C` the SGEMMS way (original variant).
#[allow(clippy::too_many_arguments)]
pub fn sgemms<T: Scalar>(
    tau: usize,
    gemm: GemmConfig,
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    let cfg = sgemms_config(tau, gemm);
    dgefmm(&cfg, alpha, op_a, a, op_b, b, beta, c);
}
