//! Conformance suite for the 5-loop GEMM substrate.
//!
//! Four layers of checks, all judged against the EFT-compensated
//! oracle under the Higham envelope (`accuracy::tolerance_for`) rather
//! than hand-tuned epsilons, except where the result must be exact:
//!
//! 1. **Edge grid** — every `(mr-tail × nr-tail × kc-tail)` combination
//!    of the register tiling and the pc loop, with cache blocks small
//!    enough that every loop of the 5-loop nest wraps at least once.
//! 2. **Packed panels** — the packers are private to the blas crate, so
//!    their panels are read back through the public GEMM: multiplying by
//!    an identity makes every element of `C` exactly one packed element,
//!    compared bit for bit with `op(X)` (MR/NR tails, nonzero offsets,
//!    both ops). The panel layout itself, zero padding included, is
//!    pinned next to the packers by the blas unit tests
//!    (`pack_a_matches_reference`, `pack_b_matches_reference`,
//!    `packed_panel_padding_is_exact_zero`).
//! 3. **α/β and transpose grid** — the full scalar/op product space,
//!    including `β = 0` clearing NaN without reading `C`, and the
//!    bitwise pin of the 5-loop kernel against the classic
//!    formulation it replaced.
//! 4. **Blocking-parameter robustness** — testkit-driven degenerate
//!    `(mc, kc, nc)` triples (below `MR`/`NR`, primes, larger than the
//!    matrix) must be oracle-correct for both `gemm_blocked` and the
//!    shared-panel `gemm_fused_level` executor.

use accuracy::{gemm_oracle, tolerance_for};
use blas::level3::{
    gemm_blocked, gemm_blocked_classic, gemm_fused_level, BlockProduct, BlockTerms, GemmConfig, MR, NR,
};
use blas::Op;
use matrix::{norms, random, Matrix};
use testkit::{check, Gen};

/// A blocked config whose cache blocks are all tiny multiples of the
/// register tile, so `m`, `k`, `n` in the low tens already wrap every
/// loop of the jc/pc/ic nest and exercise every remainder path.
fn tiny_cfg() -> GemmConfig {
    GemmConfig { mc: 2 * MR, kc: 8, nc: 2 * NR, ..GemmConfig::blocked() }
}

fn oracle_gemm(
    alpha: f64,
    op_a: Op,
    a: &Matrix<f64>,
    op_b: Op,
    b: &Matrix<f64>,
    beta: f64,
    c0: &Matrix<f64>,
) -> Matrix<f64> {
    let mut want = c0.clone();
    gemm_oracle(alpha, op_a, a.as_ref(), op_b, b.as_ref(), beta, want.as_mut());
    want
}

// ---------------------------------------------------------------------
// 1. Exhaustive register-tile / panel-depth edge grid.
// ---------------------------------------------------------------------

/// Every combination of mr-tail (`m mod MR`), nr-tail (`n mod NR`) and
/// kc-tail (`k` around the panel depth) against the oracle. With
/// `tiny_cfg` (mc = 2·MR, kc = 8, nc = 2·NR) each shape also wraps the
/// jc, pc, and ic loops, so macro-kernel edge tiles meet packed-panel
/// remainders in every configuration.
#[test]
fn edge_grid_matches_oracle() {
    let cfg = tiny_cfg();
    let (alpha, beta) = (1.1, -0.4);
    for mt in 0..MR {
        let m = 2 * MR + mt + if mt == 0 { MR } else { 0 };
        for nt in 0..NR {
            let n = 2 * NR + nt + if nt == 0 { NR } else { 0 };
            for k in [1, cfg.kc - 1, cfg.kc, cfg.kc + 1, 2 * cfg.kc + 3] {
                let seed = (m * 1_000_000 + n * 1_000 + k) as u64;
                let a = random::uniform::<f64>(m, k, seed);
                let b = random::uniform::<f64>(k, n, seed ^ 0xB);
                let c0 = random::uniform::<f64>(m, n, seed ^ 0xC);
                let want = oracle_gemm(alpha, Op::NoTrans, &a, Op::NoTrans, &b, beta, &c0);
                let mut c = c0.clone();
                gemm_blocked(&cfg, alpha, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), beta, c.as_mut());
                let diff = norms::rel_diff(c.as_ref(), want.as_ref());
                let tol = tolerance_for(m, k, n);
                assert!(diff < tol, "{m}x{k}x{n}: rel diff {diff:.3e} > tol {tol:.3e}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Packed panels read back through the nest.
// ---------------------------------------------------------------------

/// `op(X)` stored for `op`: an `rows x cols` matrix, or its transpose in
/// storage.
fn stored(op: Op, rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    match op {
        Op::NoTrans => random::uniform::<f64>(rows, cols, seed),
        Op::Trans => random::uniform::<f64>(cols, rows, seed),
    }
}

/// `op(X)` materialized.
fn apply(op: Op, x: &Matrix<f64>) -> Matrix<f64> {
    match op {
        Op::NoTrans => x.clone(),
        Op::Trans => x.transposed(),
    }
}

fn assert_bitwise(got: &Matrix<f64>, want: &Matrix<f64>, what: &str) {
    assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()), "{what}: shape");
    assert!(got.as_slice().iter().zip(want.as_slice()).all(|(g, w)| g.to_bits() == w.to_bits()), "{what}");
}

/// `C = op(X)·I` with α = 1 and β = 0 over a NaN-filled `C`: each
/// element of `C` is one packed element of `op(X)` plus exact zeros, so
/// `C` must equal `op(X)` bit for bit — a misplaced, dropped or
/// duplicated panel element shows. `m = 20·MR + 3` leaves a 3-row tail
/// and exceeds the small tier's bound (160), so the product runs the
/// packed nest; `tiny_cfg` packs at nonzero `(ic, pc)`.
#[test]
fn packed_a_panels_match_reference() {
    let cfg = tiny_cfg();
    let (m, k) = (20 * MR + 3, 2 * cfg.kc + 3);
    let eye = Matrix::<f64>::identity(k);
    for op in [Op::NoTrans, Op::Trans] {
        let x = stored(op, m, k, 40);
        let mut c = Matrix::from_fn(m, k, |_, _| f64::NAN);
        gemm_blocked(&cfg, 1.0, op, x.as_ref(), Op::NoTrans, eye.as_ref(), 0.0, c.as_mut());
        assert_bitwise(&c, &apply(op, &x), &format!("op(A) = {op:?}"));
    }
}

/// The B side: `C = I·op(X)`, `n = 27·NR + 3` for a 3-column tail above
/// the small tier's bound, packed at nonzero `(pc, jc)`.
#[test]
fn packed_b_panels_match_reference() {
    let cfg = tiny_cfg();
    let (k, n) = (2 * cfg.kc + 1, 27 * NR + 3);
    let eye = Matrix::<f64>::identity(k);
    for op in [Op::NoTrans, Op::Trans] {
        let x = stored(op, k, n, 50);
        let mut c = Matrix::from_fn(k, n, |_, _| f64::NAN);
        gemm_blocked(&cfg, 1.0, Op::NoTrans, eye.as_ref(), op, x.as_ref(), 0.0, c.as_mut());
        assert_bitwise(&c, &apply(op, &x), &format!("op(B) = {op:?}"));
    }
}

// ---------------------------------------------------------------------
// 3. α/β and transpose grid; classic bitwise pin.
// ---------------------------------------------------------------------

/// The full (α, β, opA, opB) product space on odd dimensions against
/// the oracle, including the three special β values the write-back
/// folds differently (0 → pure store, 1 → accumulate, else → fused
/// read-scale-accumulate).
#[test]
fn alpha_beta_transpose_grid_matches_oracle() {
    let cfg = tiny_cfg();
    let (m, k, n) = (21, 17, 19);
    for op_a in [Op::NoTrans, Op::Trans] {
        for op_b in [Op::NoTrans, Op::Trans] {
            let (ar, ac) = if op_a == Op::Trans { (k, m) } else { (m, k) };
            let (br, bc) = if op_b == Op::Trans { (n, k) } else { (k, n) };
            let a = random::uniform::<f64>(ar, ac, 70);
            let b = random::uniform::<f64>(br, bc, 71);
            let c0 = random::uniform::<f64>(m, n, 72);
            for alpha in [0.0, 1.0, -1.0, 0.75] {
                for beta in [0.0, 1.0, -1.0, 0.3] {
                    let want = oracle_gemm(alpha, op_a, &a, op_b, &b, beta, &c0);
                    let mut c = c0.clone();
                    gemm_blocked(&cfg, alpha, op_a, a.as_ref(), op_b, b.as_ref(), beta, c.as_mut());
                    let diff = norms::rel_diff(c.as_ref(), want.as_ref());
                    let tol = tolerance_for(m, k, n);
                    assert!(diff < tol, "α={alpha} β={beta} {op_a:?}/{op_b:?}: {diff:.3e} > {tol:.3e}");
                }
            }
        }
    }
}

/// `β = 0` must overwrite without reading `C`: a NaN-poisoned
/// destination comes out finite and correct.
#[test]
fn beta_zero_clears_nan_destination() {
    let cfg = tiny_cfg();
    let (m, k, n) = (MR + 1, 5, NR + 1);
    let a = random::uniform::<f64>(m, k, 80);
    let b = random::uniform::<f64>(k, n, 81);
    let want = oracle_gemm(0.5, Op::NoTrans, &a, Op::NoTrans, &b, 0.0, &Matrix::zeros(m, n));
    let mut c = Matrix::from_fn(m, n, |_, _| f64::NAN);
    gemm_blocked(&cfg, 0.5, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
    for j in 0..n {
        for i in 0..m {
            assert!(c.at(i, j).is_finite(), "NaN survived at ({i},{j})");
        }
    }
    assert!(norms::rel_diff(c.as_ref(), want.as_ref()) < tolerance_for(m, k, n));
}

/// The 5-loop kernel is a pure reassociation-free restructuring of the
/// classic formulation: identical packed layouts, identical micro-kernel
/// dispatch, β folded without changing the scale-then-accumulate
/// arithmetic. The results must agree **bitwise**, for every β class
/// and transpose, at sizes that wrap every loop of both nests.
#[test]
fn five_loop_gemm_matches_classic_bitwise() {
    for cfg in [tiny_cfg(), GemmConfig::blocked(), GemmConfig::auto()] {
        for (m, k, n) in [(97, 65, 83), (129, 64, 96)] {
            for (op_a, op_b) in
                [(Op::NoTrans, Op::NoTrans), (Op::Trans, Op::NoTrans), (Op::NoTrans, Op::Trans)]
            {
                let (ar, ac) = if op_a == Op::Trans { (k, m) } else { (m, k) };
                let (br, bc) = if op_b == Op::Trans { (n, k) } else { (k, n) };
                let a = random::uniform::<f64>(ar, ac, 90);
                let b = random::uniform::<f64>(br, bc, 91);
                let c0 = random::uniform::<f64>(m, n, 92);
                for beta in [0.0, 1.0, -0.6] {
                    let mut new = c0.clone();
                    gemm_blocked(&cfg, 1.2, op_a, a.as_ref(), op_b, b.as_ref(), beta, new.as_mut());
                    let mut old = c0.clone();
                    gemm_blocked_classic(&cfg, 1.2, op_a, a.as_ref(), op_b, b.as_ref(), beta, old.as_mut());
                    for j in 0..n {
                        for i in 0..m {
                            assert_eq!(
                                new.at(i, j).to_bits(),
                                old.at(i, j).to_bits(),
                                "({i},{j}) β={beta} {op_a:?}/{op_b:?} cfg={cfg:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// 4. Blocking-parameter robustness properties.
// ---------------------------------------------------------------------

/// Draw a deliberately hostile blocking parameter: zero, below the
/// register tile, prime, just-off a multiple, or far larger than any
/// matrix in the test. The clamp layer must make all of them correct.
fn degenerate_dim(g: &mut Gen) -> usize {
    g.pick(&[0, 1, 2, 3, 5, 7, 13, 31, 37, 63, 65, 101, 1 << 14])
}

#[test]
fn degenerate_blocking_is_oracle_correct() {
    check("degenerate_blocking_is_oracle_correct", 96, |g: &mut Gen| {
        let cfg = GemmConfig {
            mc: degenerate_dim(g),
            kc: degenerate_dim(g),
            nc: degenerate_dim(g),
            ..GemmConfig::blocked()
        };
        let m = g.usize_in(1, 70);
        let k = g.usize_in(1, 70);
        let n = g.usize_in(1, 70);
        let alpha = g.f64_in(-2.0, 2.0);
        let beta = g.pick(&[0.0, 1.0, -0.8]);
        let op_a = if g.bool() { Op::Trans } else { Op::NoTrans };
        let op_b = if g.bool() { Op::Trans } else { Op::NoTrans };
        let seed = g.seed();
        let (ar, ac) = if op_a == Op::Trans { (k, m) } else { (m, k) };
        let (br, bc) = if op_b == Op::Trans { (n, k) } else { (k, n) };
        let a = random::uniform::<f64>(ar, ac, seed);
        let b = random::uniform::<f64>(br, bc, seed ^ 5);
        let c0 = random::uniform::<f64>(m, n, seed ^ 6);
        let want = oracle_gemm(alpha, op_a, &a, op_b, &b, beta, &c0);
        let mut c = c0.clone();
        gemm_blocked(&cfg, alpha, op_a, a.as_ref(), op_b, b.as_ref(), beta, c.as_mut());
        let diff = norms::rel_diff(c.as_ref(), want.as_ref());
        let tol = tolerance_for(m, k, n);
        assert!(diff < tol, "mc={} kc={} nc={} {m}x{k}x{n}: {diff:.3e} > {tol:.3e}", cfg.mc, cfg.kc, cfg.nc);
    });
}

/// Strassen's 1969 seven-product table over a 2×2 grid, flat block
/// indices `q = row·2 + col`.
fn strassen_products() -> [BlockProduct; 7] {
    let p = |a: &[(i8, u8)], b: &[(i8, u8)], c: &[(i8, u8)]| BlockProduct {
        a: BlockTerms::new(a),
        b: BlockTerms::new(b),
        c: BlockTerms::new(c),
    };
    [
        p(&[(1, 0), (1, 3)], &[(1, 0), (1, 3)], &[(1, 0), (1, 3)]),
        p(&[(1, 2), (1, 3)], &[(1, 0)], &[(1, 2), (-1, 3)]),
        p(&[(1, 0)], &[(1, 1), (-1, 3)], &[(1, 1), (1, 3)]),
        p(&[(1, 3)], &[(1, 2), (-1, 0)], &[(1, 0), (1, 2)]),
        p(&[(1, 0), (1, 1)], &[(1, 3)], &[(-1, 0), (1, 1)]),
        p(&[(1, 2), (-1, 0)], &[(1, 0), (1, 1)], &[(1, 3)]),
        p(&[(1, 1), (-1, 3)], &[(1, 2), (1, 3)], &[(1, 0)]),
    ]
}

/// The shared-panel fused-level executor under the same hostile
/// blocking parameters: one full Strassen level against the oracle at
/// the *recursive* (one-level Winograd-family) tolerance.
#[test]
fn degenerate_blocking_fused_level_is_oracle_correct() {
    check("degenerate_blocking_fused_level", 48, |g: &mut Gen| {
        let cfg = GemmConfig {
            mc: degenerate_dim(g),
            kc: degenerate_dim(g),
            nc: degenerate_dim(g),
            ..GemmConfig::blocked()
        };
        let m = 2 * g.usize_in(1, 24);
        let k = 2 * g.usize_in(1, 24);
        let n = 2 * g.usize_in(1, 24);
        let alpha = g.f64_in(-2.0, 2.0);
        let beta = g.pick(&[0.0, 1.0, -0.8]);
        let seed = g.seed();
        let a = random::uniform::<f64>(m, k, seed);
        let b = random::uniform::<f64>(k, n, seed ^ 7);
        let c0 = random::uniform::<f64>(m, n, seed ^ 8);
        let want = oracle_gemm(alpha, Op::NoTrans, &a, Op::NoTrans, &b, beta, &c0);
        let mut c = c0.clone();
        gemm_fused_level(&cfg, alpha, a.as_ref(), b.as_ref(), beta, c.as_mut(), &strassen_products(), 2);
        let diff = norms::rel_diff(c.as_ref(), want.as_ref());
        let tol = tolerance_for(m, k, n);
        assert!(diff < tol, "mc={} kc={} nc={} {m}x{k}x{n}: {diff:.3e} > {tol:.3e}", cfg.mc, cfg.kc, cfg.nc);
    });
}
