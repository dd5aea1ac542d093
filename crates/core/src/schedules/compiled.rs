//! Lowering of a coefficient-table ⟨m,k,n⟩ algorithm into a level
//! program.
//!
//! One lowering serves every [`crate::fastmm::Family`]: per product it
//! stages composite operand sums into two temporaries (`X`, `Y`) with
//! `axpby` passes, runs the product into a third (`P`) as a plain
//! `β = 0` recursive call, and accumulates `P` into the affected `C`
//! blocks with `axpby` passes. The caller's `β` is applied exactly once
//! per `C` block — on its first write (a pure copy pass when `β = 0`).
//!
//! Single-block operands skip their staging temp entirely; the `±1`
//! coefficient folds into the product's `α`. The same executor runs the
//! result as it runs F222's hand-scheduled programs, which additionally
//! reuse `C` quadrants as staging space: the ⟨2,2,2⟩ table lowers to 24
//! add passes per level against their 13–20, so F222 keeps its
//! hand-scheduled programs.

use super::program::{Coef, Node, Op, Program, Shape, Slot};
use crate::fastmm::FastAlgorithm;

const X: Slot = Slot::Tmp(0, Shape::Mk);
const Y: Slot = Slot::Tmp(1, Shape::Kn);
const P: Slot = Slot::Tmp(2, Shape::Mn);

/// Lower a table whose coefficients are all in `{−1, 0, +1}` (checked by
/// the caller) into one node per product.
pub(crate) fn lower(alg: &FastAlgorithm) -> Program {
    let (m, k, n) = alg.dims();
    let sign = |cf: i32| if cf >= 0 { Coef::One } else { Coef::NegOne };
    let mut seen = vec![false; m * n];
    let mut nodes = Vec::with_capacity(alg.rank());
    for r in 0..alg.rank() {
        let a_terms: Vec<(usize, i32)> = (0..m * k).map(|b| (b, alg.u_at(r, b / k, b % k))).collect();
        let b_terms: Vec<(usize, i32)> = (0..k * n).map(|b| (b, alg.v_at(r, b / n, b % n))).collect();
        let mut ops = Vec::new();
        let mut negate = false;
        let mut operand = |terms: Vec<(usize, i32)>, block: fn(u8) -> Slot, tmp: Slot| {
            let terms: Vec<_> = terms.into_iter().filter(|&(_, cf)| cf != 0).collect();
            assert!(!terms.is_empty(), "{}: empty product {r}", alg.name());
            if let [(blk, cf)] = terms[..] {
                negate ^= cf < 0;
                return block(blk as u8);
            }
            for (t, &(blk, cf)) in terms.iter().enumerate() {
                let keep = if t == 0 { Coef::Zero } else { Coef::One };
                ops.push(Op::Axpby(sign(cf), block(blk as u8), keep, tmp));
            }
            tmp
        };
        let lhs = operand(a_terms, Slot::A, X);
        let rhs = operand(b_terms, Slot::B, Y);
        let alpha = if negate { Coef::NegAlpha } else { Coef::Alpha };
        ops.push(Op::Fmm(alpha, lhs, rhs, Coef::Zero, P));
        for blk in 0..m * n {
            let cf = alg.w_at(r, blk / n, blk % n);
            if cf != 0 {
                let keep = if std::mem::replace(&mut seen[blk], true) { Coef::One } else { Coef::Beta };
                ops.push(Op::Axpby(sign(cf), P, keep, Slot::C(blk as u8)));
            }
        }
        nodes.push(Node { name: format!("p{}", r + 1), ops });
    }
    assert!(seen.iter().all(|&s| s), "{}: some C block is never written", alg.name());
    Program::new((m, k, n), false, nodes)
}

#[cfg(test)]
mod tests {
    use crate::config::StrassenConfig;
    use crate::cutoff::CutoffCriterion;
    use crate::fastmm::Family;
    use crate::schedules::exec::{self, tests::check_one_level};
    use blas::Op;
    use matrix::random;

    fn one_level_check(fam: Family, m: usize, k: usize, n: usize, alpha: f64, beta: f64) {
        // Children always fall straight to GEMM: isolates ONE level.
        let cfg = StrassenConfig::dgefmm().cutoff(CutoffCriterion::Never).max_depth(1);
        let prog = fam.compiled().program();
        let ws = prog.workspace_elements(m, k, n);
        check_one_level(&cfg, prog, (m, k, n), (7, 8, Some(9)), (alpha, beta), ws, 1e-12);
    }

    #[test]
    fn one_level_matches_gemm_for_every_family() {
        one_level_check(Family::F222, 8, 6, 10, 1.0, 0.0);
        one_level_check(Family::F222, 8, 6, 10, 2.0, -1.5);
        one_level_check(Family::F223, 8, 6, 9, 1.0, 0.0);
        one_level_check(Family::F223, 8, 6, 9, -0.5, 3.0);
        one_level_check(Family::F323, 9, 8, 9, 1.0, 0.0);
        one_level_check(Family::F323, 9, 8, 9, 1.25, 0.75);
        one_level_check(Family::F234, 8, 9, 12, 1.0, 0.0);
        one_level_check(Family::F234, 8, 9, 12, -2.0, 1.0);
        one_level_check(Family::F333, 9, 9, 9, 1.0, 0.0);
        one_level_check(Family::F333, 9, 9, 9, 0.5, -0.25);
    }

    #[test]
    fn workspace_draw_is_exactly_per_level() {
        // One level with exactly the program's workspace must not panic
        // (split_at_mut or a view's bounds check would, on any overdraw).
        one_level_check(Family::F333, 12, 9, 15, 1.0, 2.0);
    }

    /// Golden check against the legacy paths: on small exact-integer
    /// inputs every operation any ⟨2,2,2⟩ schedule performs is exact, so
    /// the compiled Winograd table must reproduce the hand-scheduled
    /// STRASSEN1/2 result *bitwise* — same algorithm, different
    /// association, zero rounding to hide behind.
    #[test]
    fn compiled_f222_is_bitwise_identical_to_legacy_on_integers() {
        let (m, k, n) = (24usize, 24, 24);
        let int = |rows: usize, cols: usize, seed: u64| {
            let u = random::uniform::<f64>(rows, cols, seed);
            matrix::Matrix::from_fn(rows, cols, |i, j| (u.at(i, j) * 9.0).floor() - 4.0)
        };
        let a = int(m, k, 3);
        let b = int(k, n, 5);
        let c0 = int(m, n, 7);
        let sched = Family::F222.compiled().program();
        for beta in [0.0, 1.0, -2.0] {
            // One compiled level, children straight to GEMM …
            let one = StrassenConfig::dgefmm().cutoff(CutoffCriterion::Never).max_depth(1);
            let mut compiled = c0.clone();
            let mut ws = vec![0.0; sched.workspace_elements(m, k, n)];
            exec::run(&one, sched, 2.0, a.as_ref(), b.as_ref(), beta, compiled.as_mut(), &mut ws, 0);
            // … against the full legacy recursion (τ = 4, two levels).
            let legacy_cfg = StrassenConfig::dgefmm().cutoff(CutoffCriterion::Simple { tau: 4 }).fused(false);
            let mut legacy = c0.clone();
            crate::dgefmm(
                &legacy_cfg,
                2.0,
                Op::NoTrans,
                a.as_ref(),
                Op::NoTrans,
                b.as_ref(),
                beta,
                legacy.as_mut(),
            );
            assert_eq!(
                compiled.as_slice(),
                legacy.as_slice(),
                "β={beta}: compiled ⟨2,2,2⟩ diverges from the legacy schedules on integers"
            );
        }
    }
}
