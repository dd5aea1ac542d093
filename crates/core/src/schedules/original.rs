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

use super::program::quad::*;
use super::program::{Coef::*, Op::*, Program, Shape, Slot};
use std::sync::LazyLock;

const X: Slot = Slot::Tmp(0, Shape::Mk);
const Y: Slot = Slot::Tmp(1, Shape::Kn);
const Z: Slot = Slot::Tmp(2, Shape::Mn);

/// `C ← α A B` (β = 0) via Strassen's original construction.
pub(crate) static ORIGINAL_BETA_ZERO: LazyLock<Program> = LazyLock::new(|| {
    Program::hand(
        false,
        &[
            ("m2", &[AddInto(X, A21, A22), Fmm(Alpha, X, B11, Zero, C21)]), // C21 = αM2
            ("m3", &[SubInto(Y, B12, B22), Fmm(Alpha, A11, Y, Zero, C22)]), // C22 = αM3
            ("m5", &[AddInto(X, A11, A12), Fmm(Alpha, X, B22, Zero, Z)]),   // Z = αM5
            // C12 = α(M3+M5) (final), C22 = α(M3−M2), C11 = −αM5
            ("c5", &[AddInto(C12, C22, Z), AccumSub(C22, C21), Axpby(NegOne, Z, Zero, C11)]),
            ("m4", &[SubInto(Y, B21, B11), Fmm(Alpha, A22, Y, Zero, Z)]), // Z = αM4
            ("c4", &[Accum(C11, Z), Accum(C21, Z)]),                      // C21 = α(M2+M4) (final)
            ("m1", &[AddInto(X, A11, A22), AddInto(Y, B11, B22), Fmm(Alpha, X, Y, Zero, Z)]), // Z = αM1
            ("c1", &[Accum(C11, Z), Accum(C22, Z)]), // C11 = α(M1+M4−M5), C22 = α(M1−M2+M3)
            ("m7", &[SubInto(X, A12, A22), AddInto(Y, B21, B22), Fmm(Alpha, X, Y, Zero, Z)]), // Z = αM7
            ("c7", &[Accum(C11, Z)]),                // C11 final
            ("m6", &[SubInto(X, A21, A11), AddInto(Y, B11, B12), Fmm(Alpha, X, Y, Zero, Z)]), // Z = αM6
            ("c6", &[Accum(C22, Z)]),                // C22 final
        ],
    )
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cutoff::CutoffCriterion;
    use crate::schedules::exec::tests::check_one_level;
    use crate::{StrassenConfig, Variant};

    #[test]
    fn original_construction_one_level() {
        let cfg = StrassenConfig::dgefmm()
            .variant(Variant::Original)
            .cutoff(CutoffCriterion::Never)
            .max_depth(1)
            .fused(false);
        let ws = crate::required_workspace(&cfg, 10, 6, 8, true);
        check_one_level(&cfg, &ORIGINAL_BETA_ZERO, (10, 6, 8), (7, 8, None), (-0.5, 0.0), ws, 1e-13);
    }
}
