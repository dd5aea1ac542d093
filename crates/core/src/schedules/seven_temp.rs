//! Seven-temporary Winograd schedule with independent products, executed
//! serially or as an explicit task DAG.
//!
//! The low-memory schedules (STRASSEN1/2) serialize the seven recursive
//! products through shared temporaries; that is precisely what makes
//! them small. This schedule materializes all operand sums (`S1..S4`,
//! `T1..T4`) and all seven products up front — the "straightforward
//! implementation" of Section 3.2, costing `mk + kn + (7/4)mn` per level
//! — which makes the products *data-independent* and therefore runnable
//! as parallel tasks. This is the "extend our implementation to use …
//! parallelism" future-work item of Section 5, and the memory-versus-
//! parallelism ablation of `experiments ablation`.
//!
//! A level is the 21-node program [`SEVEN_TEMP`]: 8 operand adds, 7
//! products, 2 shared-U updates, 4 quadrant write-backs. Run in node
//! order it is the serial schedule; with `depth < cfg.parallel_depth`
//! the same nodes run as a [`pool::dag`] task DAG whose 25 edges the
//! program derives from the nodes' read and write sets, with each
//! product and the adds feeding it hinted at one worker. Both modes run
//! the same ops and every conflicting pair is ordered, so serial ≡ DAG
//! bitwise (β is applied per quadrant at its write-back, which changes
//! when a quadrant is scaled, never the per-element order). The node
//! names label the exported timeline. DESIGN.md §12 has the scheduler;
//! the `parallel_smoke` and `timeline_determinism` suites pin it.

use super::program::quad::*;
use super::program::{Coef::*, Op::*, Program, Shape, Slot};
use std::sync::LazyLock;

const fn s(i: u8) -> Slot {
    Slot::Tmp(i - 1, Shape::Mk)
}
const fn t(i: u8) -> Slot {
    Slot::Tmp(3 + i, Shape::Kn)
}
const fn p(i: u8) -> Slot {
    Slot::Tmp(7 + i, Shape::Mn)
}

/// `C ← α A B + β C` with per-product temporaries `S1..S4`, `T1..T4`,
/// `P1..P7`; α folds into the recursion.
pub(crate) static SEVEN_TEMP: LazyLock<Program> = LazyLock::new(|| {
    Program::hand(
        true,
        &[
            ("s1", &[AddInto(s(1), A21, A22)]),
            ("s2", &[SubInto(s(2), s(1), A11)]),
            ("s3", &[SubInto(s(3), A11, A21)]),
            ("s4", &[SubInto(s(4), A12, s(2))]),
            ("t1", &[SubInto(t(1), B12, B11)]),
            ("t2", &[SubInto(t(2), B22, t(1))]),
            ("t3", &[SubInto(t(3), B22, B12)]),
            ("t4", &[SubInto(t(4), t(2), B21)]),
            ("p1", &[Fmm(Alpha, A11, B11, Zero, p(1))]),
            ("p2", &[Fmm(Alpha, A12, B21, Zero, p(2))]),
            ("p3", &[Fmm(Alpha, s(4), B22, Zero, p(3))]),
            ("p4", &[Fmm(Alpha, A22, t(4), Zero, p(4))]),
            ("p5", &[Fmm(Alpha, s(1), t(1), Zero, p(5))]),
            ("p6", &[Fmm(Alpha, s(2), t(2), Zero, p(6))]),
            ("p7", &[Fmm(Alpha, s(3), t(3), Zero, p(7))]),
            ("c11", &[Scale(Beta, C11), Accum(C11, p(1)), Accum(C11, p(2))]),
            ("u2", &[Accum(p(6), p(1))]), // P6 := U2 = P1+P6
            ("u3", &[Accum(p(7), p(6))]), // P7 := U3 = U2+P7
            ("c12", &[Scale(Beta, C12), Accum(C12, p(6)), Accum(C12, p(5)), Accum(C12, p(3))]),
            ("c21", &[Scale(Beta, C21), Accum(C21, p(7)), AccumSub(C21, p(4))]),
            ("c22", &[Scale(Beta, C22), Accum(C22, p(7)), Accum(C22, p(5))]),
        ],
    )
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cutoff::CutoffCriterion;
    use crate::schedules::exec::tests::check_one_level;
    use crate::{Scheme, StrassenConfig};

    #[test]
    fn seven_temp_one_level_serial_and_dag() {
        let _ = pool::set_num_threads(4);
        let base = StrassenConfig::dgefmm()
            .scheme(Scheme::SevenTemp)
            .cutoff(CutoffCriterion::Never)
            .max_depth(1)
            .fused(false);
        for parallel_depth in [0usize, 1] {
            for width in [1usize, 2, usize::MAX] {
                let cfg = base.parallel_depth(parallel_depth).parallel_width(width);
                let ws = crate::required_workspace(&cfg, 12, 8, 16, false);
                check_one_level(&cfg, &SEVEN_TEMP, (12, 8, 16), (1, 2, Some(3)), (0.7, 0.3), ws, 1e-13);
            }
        }
    }
}
