//! Golden tests for the fused Strassen level: operand-sum packing
//! against materialized `X0 ± X1` (including `Op::Trans`),
//! multi-destination write-back of an operand-sum product against
//! separate GEMMs on the materialized sums, and end-to-end agreement of
//! the fused DGEFMM path with the classic temp-based schedules on
//! odd/rectangular shapes.
//!
//! The packers and the combination of packed panels are private to the
//! blas crate, so the packed sums are read back through the public nest:
//! a product whose other operand is an identity block writes every
//! packed element into `C` unchanged. The blas unit tests pin the
//! combination directly (`pack_a_sum_matches_pack_a_on_materialized_sum`,
//! `pack_b_sum_matches_pack_b_with_transpose`).

use blas::level3::{gemm, gemm_fused_level, BlockProduct, BlockTerms, GemmConfig, MR, NR};
use blas::Op;
use matrix::{norms, random, Matrix};
use strassen::{dgefmm, CutoffCriterion, Scheme, StrassenConfig, Variant};

/// Materialize `Σ γ_t · X_t`.
fn materialize(terms: &[(f64, &Matrix<f64>)]) -> Matrix<f64> {
    let (r, c) = (terms[0].1.nrows(), terms[0].1.ncols());
    Matrix::from_fn(r, c, |i, j| terms.iter().map(|(g, x)| g * x.at(i, j)).sum())
}

/// Block `q` (flat index `row · 2 + col`) of a 2 x 2 grid of `r x c`
/// blocks, copied out.
fn quad(x: &Matrix<f64>, q: usize, r: usize, c: usize) -> Matrix<f64> {
    x.as_ref().submatrix((q / 2) * r, (q % 2) * c, r, c).to_owned_matrix()
}

/// A `2r x 2c` matrix whose grid block `q` (flat index `row · 2 + col`)
/// is `blocks[q]`, or NaN where it is `None`: blocks no product reads
/// must not reach `C`.
fn grid(r: usize, c: usize, blocks: [Option<&Matrix<f64>>; 4]) -> Matrix<f64> {
    Matrix::from_fn(2 * r, 2 * c, |i, j| blocks[(i / r) * 2 + j / c].map_or(f64::NAN, |x| x.at(i % r, j % c)))
}

fn assert_bitwise(got: &Matrix<f64>, want: &Matrix<f64>, what: &str) {
    assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()), "{what}: shape");
    assert!(got.as_slice().iter().zip(want.as_slice()).all(|(g, w)| g.to_bits() == w.to_bits()), "{what}");
}

/// Cache blocks of one register tile, so odd blocks wrap the ic, pc and
/// jc loops and are packed at nonzero offsets.
fn small_blocks() -> GemmConfig {
    GemmConfig { mc: MR, kc: 5, nc: NR, ..GemmConfig::blocked() }
}

/// Run `table` at α = 1, β = 0 over a NaN-filled `C` and check that `C₀`
/// equals `want` bit for bit and the three untouched blocks are zero.
fn assert_reads_back(
    cfg: &GemmConfig,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    table: &[BlockProduct],
    want: &Matrix<f64>,
) {
    let (m, n) = (a.nrows(), b.ncols());
    let mut c = Matrix::from_fn(m, n, |_, _| f64::NAN);
    gemm_fused_level(cfg, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut(), table, 2);
    let (bm, bn) = (m / 2, n / 2);
    assert_bitwise(&quad(&c, 0, bm, bn), want, &format!("C₀, {cfg:?}"));
    for q in 1..4 {
        assert!(quad(&c, q, bm, bn).as_slice().iter().all(|v| *v == 0.0), "C{q} not cleared, {cfg:?}");
    }
}

#[test]
fn pack_a_sum_equals_pack_of_materialized_difference() {
    // (A₀ − A₁)·I → C₀: the packed difference, read back, is the
    // materialized X0 − X1, on odd blocks that straddle MR panels.
    let table = [BlockProduct {
        a: BlockTerms::new(&[(1, 0), (-1, 1)]),
        b: BlockTerms::single(1, 0),
        c: BlockTerms::single(1, 0),
    }];
    for (m, k) in [(21usize, 13usize), (11, 7), (MR + 1, 4)] {
        let x0 = random::uniform::<f64>(m, k, 1);
        let x1 = random::uniform::<f64>(m, k, 2);
        let eye = Matrix::<f64>::identity(k);
        let a = grid(m, k, [Some(&x0), Some(&x1), None, None]);
        let b = grid(k, k, [Some(&eye), None, None, None]);
        let want = materialize(&[(1.0, &x0), (-1.0, &x1)]);
        for cfg in [small_blocks(), GemmConfig::blocked()] {
            assert_reads_back(&cfg, &a, &b, &table, &want);
        }
    }
}

#[test]
fn pack_a_sum_with_transpose_equals_transposed_materialized_sum() {
    // op = Trans applied to a sum: op(A) = (X0 + X1)ᵀ. Transposed
    // operands reach the packer one whole matrix at a time, so the plain
    // GEMM packs op(S) of the materialized sum S (C = op(S)·I reads it
    // back), while the grid sums the blocks X0ᵀ and X1ᵀ after packing.
    // Both must equal the transposed materialized sum bit for bit.
    let x0 = random::uniform::<f64>(9, 17, 3);
    let x1 = random::uniform::<f64>(9, 17, 4);
    let sum = materialize(&[(1.0, &x0), (1.0, &x1)]);
    let want = sum.transposed(); // 17x9
    let eye = Matrix::<f64>::identity(9);
    let table = [BlockProduct {
        a: BlockTerms::new(&[(1, 0), (1, 1)]),
        b: BlockTerms::single(1, 0),
        c: BlockTerms::single(1, 0),
    }];
    let a = grid(17, 9, [Some(&x0.transposed()), Some(&x1.transposed()), None, None]);
    let b = grid(9, 9, [Some(&eye), None, None, None]);
    for cfg in [small_blocks(), GemmConfig::blocked()] {
        let mut c = Matrix::from_fn(17, 9, |_, _| f64::NAN);
        gemm(&cfg, 1.0, Op::Trans, sum.as_ref(), Op::NoTrans, eye.as_ref(), 0.0, c.as_mut());
        assert_bitwise(&c, &want, &format!("op(S) = Sᵀ, {cfg:?}"));
        assert_reads_back(&cfg, &a, &b, &table, &want);
    }
}

#[test]
fn pack_b_sum_equals_pack_of_materialized_sum_both_ops() {
    // The B side: I·(B₀ − B₁) → C₀ reads back the packed difference
    // (an NR tail in 19 columns); op(B) = (X0 − X1)ᵀ is read back through
    // the plain GEMM with the transposed materialized sum.
    let x0 = random::uniform::<f64>(14, 19, 5);
    let x1 = random::uniform::<f64>(14, 19, 6);
    let mat = materialize(&[(1.0, &x0), (-1.0, &x1)]);
    let table = [BlockProduct {
        a: BlockTerms::single(1, 0),
        b: BlockTerms::new(&[(1, 0), (-1, 1)]),
        c: BlockTerms::single(1, 0),
    }];
    let eye = Matrix::<f64>::identity(14);
    let a = grid(14, 14, [Some(&eye), None, None, None]);
    let b = grid(14, 19, [Some(&x0), Some(&x1), None, None]);
    let eye_t = Matrix::<f64>::identity(19);
    for cfg in [small_blocks(), GemmConfig::blocked()] {
        assert_reads_back(&cfg, &a, &b, &table, &mat);
        let mut c = Matrix::from_fn(19, 14, |_, _| f64::NAN);
        gemm(&cfg, 1.0, Op::NoTrans, eye_t.as_ref(), Op::Trans, mat.as_ref(), 0.0, c.as_mut());
        assert_bitwise(&c, &mat.transposed(), &format!("op(B) = Sᵀ, {cfg:?}"));
    }
}

/// Dual-destination write-back vs. separate GEMM + add on odd and
/// rectangular blocks: one product `(A11 + A12)(B11 − B12)` of a 2 x 2
/// grid scattered into `C11` (δ = +1) and `C22` (δ = −1). Both are first
/// touches, so both take β; the untouched `C12` and `C21` are scaled by
/// β alone.
#[test]
fn dual_destination_writeback_matches_separate_gemm_and_add() {
    let cfg = GemmConfig { mc: 16, kc: 12, nc: 20, ..GemmConfig::blocked() };
    let table = [BlockProduct {
        a: BlockTerms::new(&[(1, 0), (1, 1)]),
        b: BlockTerms::new(&[(1, 0), (-1, 1)]),
        c: BlockTerms::new(&[(1, 0), (-1, 3)]),
    }];
    for (m, k, n) in [(7usize, 13usize, 9usize), (25, 5, 33), (16, 16, 16), (1, 8, 1)] {
        let a = random::uniform::<f64>(2 * m, 2 * k, 20);
        let b = random::uniform::<f64>(2 * k, 2 * n, 22);
        let c_init = random::uniform::<f64>(2 * m, 2 * n, 24);
        let (alpha, beta) = (-1.2, 0.4);
        let mut got = c_init.clone();
        gemm_fused_level(&cfg, alpha, a.as_ref(), b.as_ref(), beta, got.as_mut(), &table, 2);

        // Reference: materialize both sums, then one GEMM per destination.
        let am = materialize(&[(1.0, &quad(&a, 0, m, k)), (1.0, &quad(&a, 1, m, k))]);
        let bm = materialize(&[(1.0, &quad(&b, 0, k, n)), (-1.0, &quad(&b, 1, k, n))]);
        let mut want = c_init.clone();
        let mut w = want.as_mut();
        gemm(
            &cfg,
            alpha,
            Op::NoTrans,
            am.as_ref(),
            Op::NoTrans,
            bm.as_ref(),
            beta,
            w.submatrix_mut(0, 0, m, n),
        );
        gemm(
            &cfg,
            -alpha,
            Op::NoTrans,
            am.as_ref(),
            Op::NoTrans,
            bm.as_ref(),
            beta,
            w.submatrix_mut(m, n, m, n),
        );
        blas::level3::scale_in_place(beta, w.submatrix_mut(0, n, m, n));
        blas::level3::scale_in_place(beta, w.submatrix_mut(m, 0, m, n));
        norms::assert_allclose(got.as_ref(), want.as_ref(), 1e-12, &format!("{m}x{k}x{n}"));
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
