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

use super::program::quad::*;
use super::program::{Coef::*, Op::*, Program, Shape, Slot};
use std::sync::LazyLock;

const R1: Slot = Slot::Tmp(0, Shape::Mk);
const R2: Slot = Slot::Tmp(1, Shape::Kn);
const R3: Slot = Slot::Tmp(2, Shape::Mn);

/// `C ← α A B + β C` with three workspace temporaries.
pub(crate) static STRASSEN2: LazyLock<Program> = LazyLock::new(|| {
    Program::hand(
        false,
        &[
            // Fold β in up front; from here on every update is an accumulation.
            ("beta", &[Scale(Beta, Slot::WholeC)]),
            // R1 = αS1, R2 = T1, R3 = αP5; C12 += αP5, C22 += αP5
            ("p5", &[AddIntoScaled(R1, Alpha, A21, A22), SubInto(R2, B12, B11), Fmm(One, R1, R2, Zero, R3)]),
            ("c5", &[Accum(C12, R3), Accum(C22, R3)]),
            // R1 = αS2 = αS1 − αA11, R2 = T2 = B22 − T1; R3 = αP1, C11 += αP1
            ("p1", &[Axpby(NegAlpha, A11, One, R1), RSubInto(R2, B22), Fmm(Alpha, A11, B11, Zero, R3)]),
            ("c1", &[Accum(C11, R3)]),
            ("p6", &[Fmm(One, R1, R2, One, R3)]), // R3 = αU2 = α(P1+P6)
            ("p2", &[Fmm(Alpha, A12, B21, One, C11)]), // C11 += αP2 (C11 final)
            // R1 = αS4 = αA12 − αS2, R2 = B21 − T2 = −T4; C12 += αP3
            ("p3", &[Axpby(Alpha, A12, NegOne, R1), RSubInto(R2, B21), Fmm(One, R1, B22, One, C12)]),
            ("c12", &[Accum(C12, R3)]),               // C12 += αU2 (C12 final)
            ("p4", &[Fmm(Alpha, A22, R2, One, C21)]), // C21 += α·A22(B21−T2) = −αP4
            // R1 = αS3, R2 = T3, R3 = αU3 = α(U2+P7)
            ("p7", &[SubIntoScaled(R1, Alpha, A11, A21), SubInto(R2, B22, B12), Fmm(One, R1, R2, One, R3)]),
            ("c7", &[Accum(C21, R3), Accum(C22, R3)]), // C21 final: α(U3 − P4); C22 final: α(U3 + P5)
        ],
    )
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cutoff::CutoffCriterion;
    use crate::schedules::exec::tests::check_one_level;
    use crate::StrassenConfig;

    #[test]
    fn figure1_schedule_one_level() {
        // One isolated level of the Figure-1 schedule, children on GEMM.
        let cfg = StrassenConfig::dgefmm().cutoff(CutoffCriterion::Never).max_depth(1).fused(false);
        for ab in [(1.0, 1.0), (0.5, -1.5), (2.0, 0.0), (-1.0, 0.25)] {
            let ws = crate::required_workspace(&cfg, 10, 14, 6, false);
            check_one_level(&cfg, &STRASSEN2, (10, 14, 6), (1, 2, Some(3)), ab, ws, 1e-12);
        }
    }

    #[test]
    fn exactly_three_temporaries() {
        // The schedule must fit in R1 + R2 + R3 for one level — the
        // minimum the paper proves possible. A one-element shortfall
        // would panic in split_at_mut or the executor's view bounds check.
        let cfg = StrassenConfig::dgefmm().cutoff(CutoffCriterion::Never).max_depth(1).fused(false);
        let (m, k, n) = (8, 12, 16);
        let exact = (m / 2) * (k / 2) + (k / 2) * (n / 2) + (m / 2) * (n / 2);
        assert_eq!(crate::required_workspace(&cfg, m, k, n, false), exact);
        check_one_level(&cfg, &STRASSEN2, (m, k, n), (1, 2, None), (1.0, 1.0), exact, 1e-12);
    }
}
