//! STRASSEN1: the paper's first computation schedule (Section 3.2).
//!
//! In the `β = 0` case the four quadrants of `C` double as temporaries
//! for intermediate products, so only two workspace temporaries are
//! needed: `X` of `m/2 × max(k/2, n/2)` and `Y` of `k/2 × n/2`, for a
//! recursion-total bound of `(m·max(k,n) + kn)/3` extra elements —
//! `2m²/3` in the square case (Table 1).
//!
//! For `β ≠ 0` (only reachable when the schedule is *forced* via
//! [`Scheme::Strassen1`](crate::config::Scheme::Strassen1); DGEFMM's Auto
//! policy prefers STRASSEN2 there) the product is staged in four extra
//! `m/2 × n/2` quadrant temporaries and then folded into `C`, matching
//! the paper's six-temporary general STRASSEN1 with its
//! `m·max(k,n)/4 + mn + kn/4` per-level footprint.
//!
//! Stage identities (Winograd's variant, 7 multiplies / 15 adds):
//!
//! ```text
//! S1 = A21+A22  S2 = S1−A11  S3 = A11−A21  S4 = A12−S2
//! T1 = B12−B11  T2 = B22−T1  T3 = B22−B12  T4 = T2−B21
//! P1 = A11·B11  P2 = A12·B21  P3 = S4·B22  P4 = A22·T4
//! P5 = S1·T1    P6 = S2·T2    P7 = S3·T3
//! C11 = P1+P2           C12 = P1+P6+P5+P3
//! C21 = P1+P6+P7−P4     C22 = P1+P6+P7+P5
//! ```

use super::program::quad::*;
use super::program::{Coef::*, Op::*, Program, Shape, Slot};
use std::sync::LazyLock;

/// `X` viewed as `m/2 × k/2` while it holds `A`-operand sums.
const X: Slot = Slot::Tmp(0, Shape::Mk);
/// `X` re-viewed as `m/2 × n/2` to hold `αP1` through the final sums.
const XP: Slot = Slot::Tmp(0, Shape::Mn);
const Y: Slot = Slot::Tmp(1, Shape::Kn);

/// `C ← α A B` (β = 0) with products formed directly in `C`'s quadrants.
pub(crate) static STRASSEN1_BETA_ZERO: LazyLock<Program> = LazyLock::new(|| {
    Program::hand(
        false,
        &[
            ("p7", &[SubInto(X, A11, A21), SubInto(Y, B22, B12), Fmm(Alpha, X, Y, Zero, C21)]), // C21 = αP7
            ("p5", &[AddInto(X, A21, A22), SubInto(Y, B12, B11), Fmm(Alpha, X, Y, Zero, C22)]), // C22 = αP5
            ("p6", &[AccumSub(X, A11), RSubInto(Y, B22), Fmm(Alpha, X, Y, Zero, C12)]), // X = S2, Y = T2
            ("p3", &[RSubInto(X, A12), Fmm(Alpha, X, B22, Zero, C11)]),                 // X = S4; C11 = αP3
            ("p1", &[Fmm(Alpha, A11, B11, Zero, XP)]),                                  // X = αP1
            // C12 = αU2, C21 = αU3, C12 = αU4, C22 = αU7 (final), C12 = αU5 (final)
            ("u", &[Accum(C12, XP), Accum(C21, C12), Accum(C12, C22), Accum(C22, C21), Accum(C12, C11)]),
            ("p4", &[AccumSub(Y, B21), Fmm(Alpha, A22, Y, Zero, C11), AccumSub(C21, C11)]), // C21 final
            ("p2", &[Fmm(Alpha, A12, B21, Zero, C11), Accum(C11, XP)]), // C11 = α(P1+P2) final
        ],
    )
});

/// `C ← α A B + β C` via STRASSEN1 with four extra product quadrants
/// (the forced-STRASSEN1 general case, Section 3.2's six-temporary form):
/// the β = 0 program computing into quadrant temporaries, then four
/// `C ← Q + βC` folds.
pub(crate) static STRASSEN1_GENERAL: LazyLock<Program> =
    LazyLock::new(|| STRASSEN1_BETA_ZERO.with_staged_c());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrassenConfig;
    use crate::cutoff::CutoffCriterion;
    use crate::schedules::exec::tests::check_one_level;
    use crate::workspace::{per_level_elements, ResolvedScheme};

    #[test]
    fn one_level_beta_zero_schedule_is_exactly_winograd() {
        let cfg = StrassenConfig::dgefmm().cutoff(CutoffCriterion::Never).max_depth(1).fused(false);
        let ws = crate::required_workspace(&cfg, 12, 8, 10, true);
        check_one_level(&cfg, &STRASSEN1_BETA_ZERO, (12, 8, 10), (1, 2, None), (2.0, 0.0), ws, 1e-13);
    }

    #[test]
    fn general_form_accumulates_beta() {
        // Children always fall straight to GEMM: isolates ONE level of
        // this schedule from the rest of the dispatcher.
        let cfg =
            StrassenConfig::dgefmm().cutoff(CutoffCriterion::Simple { tau: usize::MAX / 2 }).max_depth(1);
        let ws = per_level_elements(ResolvedScheme::Strassen1General, 8, 6, 4);
        check_one_level(&cfg, &STRASSEN1_GENERAL, (8, 6, 4), (3, 4, Some(5)), (1.5, -2.0), ws, 1e-13);
    }
}
