//! Golden tests for the fused add-pack / multi-destination kernels:
//! operand-sum packing against materialized `X0 ± X1` (including
//! `Op::Trans`), multi-destination write-back against separate GEMM+add,
//! and end-to-end agreement of the fused DGEFMM path with the classic
//! temp-based schedules on odd/rectangular shapes.

use blas::level3::fused::{pack_a_sum, pack_b_sum};
use blas::level3::{gemm, gemm_fused, DestSpec, GemmConfig, SumOperand, MR, NR};
use blas::Op;
use matrix::{norms, random, Matrix};
use strassen::{dgefmm, CutoffCriterion, Scheme, StrassenConfig, Variant};

/// Materialize `Σ γ_t · X_t` (no transpose — `op` is applied by the
/// packing routines themselves).
fn materialize(terms: &[(f64, &Matrix<f64>)]) -> Matrix<f64> {
    let (r, c) = (terms[0].1.nrows(), terms[0].1.ncols());
    Matrix::from_fn(r, c, |i, j| terms.iter().map(|(g, x)| g * x.at(i, j)).sum())
}

/// Expected `pack_a` panel layout of `op(X)`: element `(r, kk)` of panel
/// `q` at `q*MR*kb + kk*MR + r`, zero-padded rows.
fn reference_pack_a(op: Op, x: &Matrix<f64>, ic: usize, pc: usize, mb: usize, kb: usize) -> Vec<f64> {
    let at = |i: usize, p: usize| match op {
        Op::NoTrans => x.at(i, p),
        Op::Trans => x.at(p, i),
    };
    let panels = mb.div_ceil(MR);
    let mut buf = vec![0.0; panels * MR * kb];
    for q in 0..panels {
        let rows = MR.min(mb - q * MR);
        for kk in 0..kb {
            for r in 0..rows {
                buf[q * MR * kb + kk * MR + r] = at(ic + q * MR + r, pc + kk);
            }
        }
    }
    buf
}

/// Expected `pack_b` panel layout of `op(X)`: element `(kk, cc)` of panel
/// `q` at `q*NR*kb + kk*NR + cc`, zero-padded columns.
fn reference_pack_b(op: Op, x: &Matrix<f64>, pc: usize, jc: usize, kb: usize, nb: usize) -> Vec<f64> {
    let at = |i: usize, p: usize| match op {
        Op::NoTrans => x.at(i, p),
        Op::Trans => x.at(p, i),
    };
    let panels = nb.div_ceil(NR);
    let mut buf = vec![0.0; panels * NR * kb];
    for q in 0..panels {
        let cols = NR.min(nb - q * NR);
        for kk in 0..kb {
            for cc in 0..cols {
                buf[q * NR * kb + kk * NR + cc] = at(pc + kk, jc + q * NR + cc);
            }
        }
    }
    buf
}

#[test]
fn pack_a_sum_equals_pack_of_materialized_difference() {
    // X0 − X1 on an odd-sized block that straddles panel boundaries.
    let x0 = random::uniform::<f64>(21, 13, 1);
    let x1 = random::uniform::<f64>(21, 13, 2);
    let sum = SumOperand::new(Op::NoTrans, &[(1.0, x0.as_ref()), (-1.0, x1.as_ref())]);
    let mat = materialize(&[(1.0, &x0), (-1.0, &x1)]);
    for (ic, pc, mb, kb) in [(0usize, 0usize, 21usize, 13usize), (3, 2, 11, 7), (MR, 1, MR + 1, 4)] {
        let mut got = vec![f64::NAN; mb.div_ceil(MR) * MR * kb];
        pack_a_sum(&sum, ic, pc, mb, kb, &mut got);
        let expect = reference_pack_a(Op::NoTrans, &mat, ic, pc, mb, kb);
        assert_eq!(got, expect, "block ({ic},{pc}) {mb}x{kb}");
    }
}

#[test]
fn pack_a_sum_with_transpose_equals_transposed_materialized_sum() {
    // op = Trans applies to the whole sum: pack sees (X0 + X1)ᵀ.
    let x0 = random::uniform::<f64>(9, 17, 3);
    let x1 = random::uniform::<f64>(9, 17, 4);
    let sum = SumOperand::new(Op::Trans, &[(1.0, x0.as_ref()), (1.0, x1.as_ref())]);
    let mat = materialize(&[(1.0, &x0), (1.0, &x1)]); // 9x17; Trans view is 17x9
    let (mb, kb) = (17usize, 9usize);
    let mut got = vec![f64::NAN; mb.div_ceil(MR) * MR * kb];
    pack_a_sum(&sum, 0, 0, mb, kb, &mut got);
    assert_eq!(got, reference_pack_a(Op::Trans, &mat, 0, 0, mb, kb));
}

#[test]
fn pack_b_sum_equals_pack_of_materialized_sum_both_ops() {
    let x0 = random::uniform::<f64>(14, 19, 5);
    let x1 = random::uniform::<f64>(14, 19, 6);
    let mat = materialize(&[(1.0, &x0), (-1.0, &x1)]);
    // NoTrans: block of the 14x19 sum.
    let sum = SumOperand::new(Op::NoTrans, &[(1.0, x0.as_ref()), (-1.0, x1.as_ref())]);
    let (kb, nb) = (9usize, 15usize);
    let mut got = vec![f64::NAN; nb.div_ceil(NR) * NR * kb];
    pack_b_sum(&sum, 2, 3, kb, nb, &mut got);
    assert_eq!(got, reference_pack_b(Op::NoTrans, &mat, 2, 3, kb, nb));
    // Trans: block of the 19x14 transposed sum.
    let sum_t = SumOperand::new(Op::Trans, &[(1.0, x0.as_ref()), (-1.0, x1.as_ref())]);
    let (kb, nb) = (19usize, 14usize);
    let mut got = vec![f64::NAN; nb.div_ceil(NR) * NR * kb];
    pack_b_sum(&sum_t, 0, 0, kb, nb, &mut got);
    assert_eq!(got, reference_pack_b(Op::Trans, &mat, 0, 0, kb, nb));
}

/// Dual-destination write-back vs. separate GEMM + add on odd and
/// rectangular shapes: `C0 += δ0·P + β0·C0`, `C1 += δ1·P`.
#[test]
fn dual_destination_writeback_matches_separate_gemm_and_add() {
    let cfg = GemmConfig { mc: 16, kc: 12, nc: 20, ..GemmConfig::blocked() };
    for (m, k, n) in [(7usize, 13usize, 9usize), (25, 5, 33), (16, 16, 16), (1, 8, 1)] {
        let a0 = random::uniform::<f64>(m, k, 20);
        let a1 = random::uniform::<f64>(m, k, 21);
        let b0 = random::uniform::<f64>(k, n, 22);
        let b1 = random::uniform::<f64>(k, n, 23);
        let c0_init = random::uniform::<f64>(m, n, 24);
        let c1_init = random::uniform::<f64>(m, n, 25);
        let alpha = -1.2;

        let a_sum = SumOperand::new(Op::NoTrans, &[(1.0, a0.as_ref()), (1.0, a1.as_ref())]);
        let b_sum = SumOperand::new(Op::NoTrans, &[(1.0, b0.as_ref()), (-1.0, b1.as_ref())]);
        let mut c0 = c0_init.clone();
        let mut c1 = c1_init.clone();
        {
            let mut dests = [DestSpec::init(c0.as_mut(), 1.0, 0.4), DestSpec::update(c1.as_mut(), -1.0)];
            gemm_fused(&cfg, alpha, &a_sum, &b_sum, &mut dests);
        }

        // Reference: materialize both sums, then one GEMM per destination.
        let am = materialize(&[(1.0, &a0), (1.0, &a1)]);
        let bm = materialize(&[(1.0, &b0), (-1.0, &b1)]);
        let mut e0 = c0_init.clone();
        let mut e1 = c1_init.clone();
        gemm(&cfg, alpha, Op::NoTrans, am.as_ref(), Op::NoTrans, bm.as_ref(), 0.4, e0.as_mut());
        gemm(&cfg, -alpha, Op::NoTrans, am.as_ref(), Op::NoTrans, bm.as_ref(), 1.0, e1.as_mut());
        norms::assert_allclose(c0.as_ref(), e0.as_ref(), 1e-12, &format!("{m}x{k}x{n} dest0"));
        norms::assert_allclose(c1.as_ref(), e1.as_ref(), 1e-12, &format!("{m}x{k}x{n} dest1"));
    }
}

fn tol(m: usize, k: usize, n: usize) -> f64 {
    let dim = m.max(k).max(n) as f64;
    1e3 * dim * dim * f64::EPSILON
}

/// End-to-end: DGEFMM with fused last-level kernels agrees with the
/// classic temp-based schedules on odd/rectangular shapes, both variants
/// and all schemes, with transposes and β ≠ 0.
#[test]
fn fused_dgefmm_agrees_with_classic_schedules() {
    for scheme in [Scheme::Auto, Scheme::Strassen1, Scheme::Strassen2, Scheme::SevenTemp] {
        for variant in [Variant::Winograd, Variant::Original] {
            for (m, k, n) in [(64usize, 64usize, 64usize), (97, 65, 129), (120, 40, 88)] {
                for (op_a, op_b) in
                    [(Op::NoTrans, Op::NoTrans), (Op::Trans, Op::NoTrans), (Op::Trans, Op::Trans)]
                {
                    for beta in [0.0, -0.6] {
                        let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
                        let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
                        let a = random::uniform::<f64>(ar, ac, 30);
                        let b = random::uniform::<f64>(br, bc, 31);
                        let c0 = random::uniform::<f64>(m, n, 32);
                        let base = StrassenConfig::dgefmm()
                            .cutoff(CutoffCriterion::Simple { tau: 16 })
                            .scheme(scheme)
                            .variant(variant);
                        let mut c_classic = c0.clone();
                        dgefmm(
                            &base.fused(false),
                            0.9,
                            op_a,
                            a.as_ref(),
                            op_b,
                            b.as_ref(),
                            beta,
                            c_classic.as_mut(),
                        );
                        let mut c_fused = c0.clone();
                        dgefmm(
                            &base.fused(true),
                            0.9,
                            op_a,
                            a.as_ref(),
                            op_b,
                            b.as_ref(),
                            beta,
                            c_fused.as_mut(),
                        );
                        let diff = norms::rel_diff(c_fused.as_ref(), c_classic.as_ref());
                        assert!(
                            diff <= tol(m, k, n),
                            "{scheme:?}/{variant:?} {m}x{k}x{n} {op_a:?}/{op_b:?} β={beta}: {diff:.3e}"
                        );
                    }
                }
            }
        }
    }
}
