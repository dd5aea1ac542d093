//! Boyer–Dumas–Pernet–Zhou low-memory Strassen-Winograd schedules
//! (*Memory efficient scheduling of Strassen-Winograd's matrix
//! multiplication algorithm*, ISSAC '09).
//!
//! Two schedules, both using only the two operand temporaries
//! `X (m/2 × k/2)` and `Y (k/2 × n/2)` — strictly less per-level memory
//! than STRASSEN1's `m/2 · max(k/2, n/2)` X whenever `n > k`, and far
//! less than STRASSEN2's three temporaries:
//!
//! * [`TWO_TEMP_BETA_ZERO`] — `C ← α A B`: products land directly in
//!   `C`'s quadrants; recursion-total extra memory `(mk + kn)/3`
//!   (`2m²/3` square, like STRASSEN1, but with the smaller `X`).
//! * [`IN_PLACE`] — `C ← α A B + β C` *without product
//!   temporaries*: after a `β` pre-scale, all seven products are
//!   multiply-accumulates (`β = 1` children) and the `U`-combinations
//!   are realized by **bracket imports**: a quadrant subtracts a peer
//!   *before* that peer gains a product and adds it back *after*, so
//!   exactly the interval's delta — the product term — transfers, and
//!   the `βC₀` content cancels. 20 add passes buy the minimum-memory
//!   general update: `(mk + kn)/3` total, below STRASSEN2's `≈ m²`.
//!
//! The trade-off documented by Boyer et al. and measured in the fuzzer:
//! the in-place schedule's brackets cancel large intermediates, so its
//! error envelope carries an extra `β`-dependent term (see
//! `accuracy::bound`).

use super::program::quad::*;
use super::program::{Coef::*, Op::*, Program, Shape, Slot};
use std::sync::LazyLock;

const X: Slot = Slot::Tmp(0, Shape::Mk);
const Y: Slot = Slot::Tmp(1, Shape::Kn);

/// `C ← α A B` (β = 0) with temporaries `X (m/2 × k/2)`, `Y (k/2 × n/2)`
/// only. 13 add passes; children: 4 products with `β = 0` (P7, P5, P6,
/// P1) and 3 multiply-accumulates (P3, P4, P2).
pub(crate) static TWO_TEMP_BETA_ZERO: LazyLock<Program> = LazyLock::new(|| {
    Program::hand(
        false,
        &[
            ("p7", &[SubInto(X, A11, A21), SubInto(Y, B22, B12), Fmm(Alpha, X, Y, Zero, C21)]), // C21 = αP7
            ("p5", &[AddInto(X, A21, A22), SubInto(Y, B12, B11), Fmm(Alpha, X, Y, Zero, C22)]), // C22 = αP5
            ("p6", &[AccumSub(X, A11), RSubInto(Y, B22), Fmm(Alpha, X, Y, Zero, C12)]), // X = S2, Y = T2
            ("p1", &[Fmm(Alpha, A11, B11, Zero, C11)]),                                 // C11 = αP1
            // C12 = αU2, C21 = αU3, C22 = α(U3+P5) (final), C12 = α(U2+U3+P5), C12 = α(U2+P5)
            ("u", &[Accum(C12, C11), Accum(C21, C12), Accum(C22, C21), Accum(C12, C22), AccumSub(C12, C21)]),
            ("p3", &[RSubInto(X, A12), Fmm(Alpha, X, B22, One, C12)]), // X = S4; C12 += αP3 (final)
            ("p4", &[AccumSub(Y, B21), Fmm(NegAlpha, A22, Y, One, C21)]), // Y = T4; C21 −= αP4 (final)
            ("p2", &[Fmm(Alpha, A12, B21, One, C11)]),                 // C11 += αP2 (final)
        ],
    )
});

/// `C ← α A B + β C` in place: temporaries `X (m/2 × k/2)` and
/// `Y (k/2 × n/2)` only, no product staging. One `β` pre-scale pass (a
/// zero-fill when `β = 0`, elided when `β = 1`), 20 add passes, and all
/// seven children are multiply-accumulates.
///
/// Bracket-import structure: `q −= q′` *before* `q′` gains a product,
/// `q += q′` after — `q` receives exactly the product while `q′`'s
/// `βC₀` content cancels. The three brackets below import `U2 = P1+P6`
/// into C12/C22, `P5` into C12, and `P7` into C21.
pub(crate) static IN_PLACE: LazyLock<Program> = LazyLock::new(|| {
    Program::hand(
        false,
        &[
            ("beta", &[Scale(Beta, Slot::WholeC)]), // C ← βC (fill when β = 0)
            ("open_u2", &[AccumSub(C12, C21), AccumSub(C22, C21)]), // open U2 brackets for C12, C22
            // X = S2 = A21+A22−A11, Y = T2 = B22−B12+B11
            ("s2t2", &[AddInto(X, A21, A22), AccumSub(X, A11), SubInto(Y, B22, B12), Accum(Y, B11)]),
            ("open_p1", &[AccumSub(C21, C11)]),
            ("p6", &[Fmm(Alpha, X, Y, One, C21)]),     // C21 += αP6
            ("p1", &[Fmm(Alpha, A11, B11, One, C11)]), // C11 += αP1
            ("close_p1", &[Accum(C21, C11)]),          // C21 = βC21₀ + αU2
            ("close_u2", &[Accum(C12, C21), Accum(C22, C21)]), // C12, C22 = βC₀ + αU2
            ("p3", &[RSubInto(X, A12), Fmm(Alpha, X, B22, One, C12)]), // X = S4; C12 += αP3
            ("p4", &[AccumSub(Y, B21), Fmm(NegAlpha, A22, Y, One, C21)]), // Y = T4; C21 −= αP4
            ("s1t1", &[AddInto(X, A21, A22), SubInto(Y, B12, B11), AccumSub(C12, C22)]), // open P5 bracket
            ("p5", &[Fmm(Alpha, X, Y, One, C22), Accum(C12, C22)]), // C22 += αP5; close: C12 final
            ("s3t3", &[SubInto(X, A11, A21), SubInto(Y, B22, B12), AccumSub(C21, C22)]), // open P7 bracket
            ("p7", &[Fmm(Alpha, X, Y, One, C22), Accum(C21, C22)]), // C22 += αP7 (final); close: C21 final
            ("p2", &[Fmm(Alpha, A12, B21, One, C11)]), // C11 += αP2 (final)
        ],
    )
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrassenConfig;
    use crate::cutoff::CutoffCriterion;
    use crate::schedules::exec::tests::check_one_level;

    fn cfg_stop_everything() -> StrassenConfig {
        StrassenConfig::dgefmm().cutoff(CutoffCriterion::Never).max_depth(1)
    }

    /// `X` and `Y` only: `m/2 × k/2 + k/2 × n/2`.
    fn two_temps(m: usize, k: usize, n: usize) -> usize {
        (m / 2) * (k / 2) + (k / 2) * (n / 2)
    }

    #[test]
    fn two_temp_one_level_matches_gemm() {
        let ws = two_temps(12, 8, 10);
        let cfg = cfg_stop_everything();
        check_one_level(&cfg, &TWO_TEMP_BETA_ZERO, (12, 8, 10), (1, 2, None), (2.0, 0.0), ws, 1e-13);
    }

    #[test]
    fn in_place_one_level_accumulates_beta() {
        for beta in [0.0, 1.0, -2.0] {
            let ws = two_temps(8, 6, 4);
            check_one_level(
                &cfg_stop_everything(),
                &IN_PLACE,
                (8, 6, 4),
                (3, 4, Some(5)),
                (1.5, beta),
                ws,
                1e-12,
            );
        }
    }

    #[test]
    fn workspace_is_exactly_two_temps() {
        // Any draw beyond X + Y would panic the split or a view's bounds
        // check; run at the exact size to pin the two-temp claim.
        let (cfg, ws) = (cfg_stop_everything(), two_temps(16, 12, 20));
        check_one_level(&cfg, &IN_PLACE, (16, 12, 20), (6, 7, Some(8)), (1.0, 1.0), ws, 1e-12);
        check_one_level(&cfg, &TWO_TEMP_BETA_ZERO, (16, 12, 20), (6, 7, None), (1.0, 0.0), ws, 1e-12);
    }
}
