//! Cache-blocked, packing GEMM (BLIS/Goto 5-loop nest): the packers,
//! the blocking clamp, and [`gemm_blocked`]'s entry.
//!
//! Loop structure, outermost first: `jc` over `nc`-wide column panels of
//! `op(B)` (L3), `pc` over `kc`-deep rank panels packing `op(B)` once
//! per `(jc, pc)` (L1-sized micro-panels), `ic` over `mc`-tall row
//! panels packing `op(A)` once per `(pc, ic)` (L2-resident), then the
//! macro-kernel sweeps `MR x NR` register tiles over the packed panels —
//! in adjacent *pairs* of row panels on AVX-512 parts (see
//! [`super::kernel`]). Packing also absorbs the transpose, so
//! `op = Trans` costs nothing extra in the inner loops — which is how
//! the vendor DGEMMs the paper built on behave.
//!
//! The nest itself is the one in [`super::fused`]: a plain GEMM is its
//! one-block, one-product case (`+A · +B → +C` on a 1 x 1 grid), so
//! DGEFMM's leaves and its fused Strassen levels run the same loops,
//! packers, macro-kernel and tile writer.
//!
//! `β` is folded into the first `pc` block's tile write-back instead of
//! a standalone pre-sweep: `β = 0` becomes a pure store (no read of
//! `C`), and a general `β` costs one fused scale-accumulate pass — one
//! full sweep of `C` saved either way. The fold preserves bitwise
//! results against the pre-sweep formulation because the same scalar
//! operations run in the same order per element.
//!
//! Blocking parameters come from [`super::GemmConfig`] (see
//! [`super::params`] for the machine-derived defaults) and are clamped
//! to the problem shape, so small multiplies lease proportionally small
//! pack buffers ([`super::packbuf`]) and steady-state calls allocate
//! nothing. Small `f64` products on AVX-512 parts skip packing
//! altogether: [`gemm_blocked`] hands them to the unpacked tier in
//! [`super::small`], which is bitwise equal to the nest.

use super::fused::{gemm_level, PLAIN};
use super::kernel::{MR, NR};
use super::small;
use super::{check_gemm_dims, GemmConfig};
use crate::level2::Op;
use matrix::{MatMut, MatRef, Scalar};

/// Element `(i, p)` of `op(A)` given the stored `a`.
#[inline(always)]
unsafe fn op_at<T: Scalar>(op: Op, a: &MatRef<'_, T>, i: usize, p: usize) -> T {
    match op {
        Op::NoTrans => *a.get_unchecked(i, p),
        Op::Trans => *a.get_unchecked(p, i),
    }
}

/// Pack the `mb x kb` block of `op(A)` starting at `(ic, pc)` into
/// `buf` as row panels of height `MR`, zero-padded to a multiple of `MR`.
///
/// Layout: panel `q` (rows `q*MR ..`) occupies `buf[q*MR*kb ..]`, with
/// element `(r, kk)` at `q*MR*kb + kk*MR + r`.
pub(crate) fn pack_a<T: Scalar>(
    op: Op,
    a: &MatRef<'_, T>,
    ic: usize,
    pc: usize,
    mb: usize,
    kb: usize,
    buf: &mut [T],
) {
    let panels = mb.div_ceil(MR);
    debug_assert!(buf.len() >= panels * MR * kb);
    for q in 0..panels {
        let row0 = q * MR;
        let rows = MR.min(mb - row0);
        let base = q * MR * kb;
        for kk in 0..kb {
            let dst = &mut buf[base + kk * MR..base + kk * MR + MR];
            for (r, d) in dst.iter_mut().enumerate().take(rows) {
                // SAFETY: ic+row0+r < ic+mb <= op(A).nrows, pc+kk < op(A).ncols.
                *d = unsafe { op_at(op, a, ic + row0 + r, pc + kk) };
            }
            for d in dst.iter_mut().skip(rows) {
                *d = T::ZERO;
            }
        }
    }
}

/// Pack the `kb x nb` block of `op(B)` starting at `(pc, jc)` into `buf`
/// as column panels of width `NR`, zero-padded.
///
/// Layout: panel `q` (cols `q*NR ..`) occupies `buf[q*NR*kb ..]`, with
/// element `(kk, cc)` at `q*NR*kb + kk*NR + cc`.
pub(crate) fn pack_b<T: Scalar>(
    op: Op,
    b: &MatRef<'_, T>,
    pc: usize,
    jc: usize,
    kb: usize,
    nb: usize,
    buf: &mut [T],
) {
    let panels = nb.div_ceil(NR);
    debug_assert!(buf.len() >= panels * NR * kb);
    for q in 0..panels {
        let col0 = q * NR;
        let cols = NR.min(nb - col0);
        let base = q * NR * kb;
        for kk in 0..kb {
            let dst = &mut buf[base + kk * NR..base + kk * NR + NR];
            for (cc, d) in dst.iter_mut().enumerate().take(cols) {
                // SAFETY: pc+kk < op(B).nrows, jc+col0+cc < op(B).ncols.
                *d = unsafe { op_at(op, b, pc + kk, jc + col0 + cc) };
            }
            for d in dst.iter_mut().skip(cols) {
                *d = T::ZERO;
            }
        }
    }
}

/// Blocking parameters clamped to the problem shape: `mc`/`nc` to the
/// dimension rounded up to a whole micro-tile, `kc` to `k`. Degenerate
/// configured values (zero, below a micro-tile) are raised to the legal
/// floor, so *any* `(mc, kc, nc)` triple produces a correct multiply.
pub(crate) fn clamp_blocking(cfg: &GemmConfig, m: usize, k: usize, n: usize) -> (usize, usize, usize) {
    let mc = cfg.mc.max(MR).min(m.next_multiple_of(MR).max(MR));
    let kc = cfg.kc.max(1).min(k.max(1));
    let nc = cfg.nc.max(NR).min(n.next_multiple_of(NR).max(NR));
    (mc, kc, nc)
}

/// Packed-panel lengths for one `(mc, kc, nc)` blocking.
pub(crate) fn panel_lens(mc: usize, kc: usize, nc: usize) -> (usize, usize) {
    (mc.div_ceil(MR) * MR * kc, nc.div_ceil(NR) * NR * kc)
}

/// Pack-buffer requirement (in elements of the destination type) of one
/// `f64` `NoTrans` [`gemm_blocked`] call at shape `m x k x n`:
/// `(A-panel, B-panel)` lengths after problem clamping, or `(0, 0)` when
/// the shape runs on the unpacked small tier and leases nothing. Exposed
/// for the Table-1 memory accounting tests.
pub fn gemm_pack_elements(cfg: &GemmConfig, m: usize, k: usize, n: usize) -> (usize, usize) {
    if small::shape_fits(m, k, n) {
        return (0, 0);
    }
    let (mc, kc, nc) = clamp_blocking(cfg, m, k, n);
    panel_lens(mc, kc, nc)
}

/// `C ← α op(A) op(B) + β C` with cache blocking and packing — or, for
/// small `f64` `NoTrans` products on AVX-512 parts, the unpacked tier in
/// `level3/small.rs`, whose results are bitwise equal to the nest's.
pub fn gemm_blocked<T: Scalar>(
    cfg: &GemmConfig,
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    let (m, k, n) = check_gemm_dims(op_a, &a, op_b, &b, &c);
    if alpha != T::ZERO && m.min(k).min(n) > 0 && small::takes::<T>(op_a, op_b, m, k, n) {
        let (_, kc, _) = clamp_blocking(cfg, m, k, n);
        return small::gemm_small(alpha, a, b, beta, c, kc);
    }
    gemm_packed(cfg, alpha, op_a, a, op_b, b, beta, c);
}

/// The packed nest, whatever the shape — the reference the small tier is
/// pinned against: the level nest of [`super::fused`] on a 1 x 1 grid
/// with the one product `+A · +B → +C`.
pub(crate) fn gemm_packed<T: Scalar>(
    cfg: &GemmConfig,
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    gemm_level(false, cfg, alpha, op_a, a, op_b, b, beta, c, &PLAIN, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrix::{random, Matrix};

    #[test]
    fn pack_a_layout_notrans() {
        let a = Matrix::from_fn(5, 3, |i, j| (i * 10 + j) as f64);
        let mut buf = vec![-1.0f64; 5usize.div_ceil(MR) * MR * 3];
        pack_a(Op::NoTrans, &a.as_ref(), 0, 0, 5, 3, &mut buf);
        // panel 0, element (r=2, kk=1) => buf[1*MR + 2] == a[2,1] == 21
        assert_eq!(buf[MR + 2], 21.0);
        // zero padding for rows 5..MR
        assert_eq!(buf[5], 0.0);
        assert_eq!(buf[MR + MR - 1], 0.0);
    }

    #[test]
    fn pack_a_absorbs_transpose() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        // op(A) = Aᵀ is 5x3; element (i=4, p=2) of op(A) is a[2,4] = 24.
        let mut buf = vec![0.0f64; MR * 3];
        pack_a(Op::Trans, &a.as_ref(), 0, 0, 5, 3, &mut buf);
        assert_eq!(buf[2 * MR + 4], 24.0);
    }

    #[test]
    fn pack_b_layout() {
        // One full panel plus a 2-column remainder panel.
        let nb = NR + 2;
        let b = Matrix::from_fn(3, nb, |i, j| (i * 10 + j) as f64);
        let mut buf = vec![-1.0f64; nb.div_ceil(NR) * NR * 3];
        pack_b(Op::NoTrans, &b.as_ref(), 0, 0, 3, nb, &mut buf);
        // panel 0: element (kk=2, cc=3) at 2*NR+3 => b[2,3] = 23
        assert_eq!(buf[2 * NR + 3], 23.0);
        // panel 1 holds cols NR.. with padding at cc >= 2
        let base = NR * 3;
        assert_eq!(buf[base], NR as f64); // (kk=0, cc=0) -> b[0, NR]
        assert_eq!(buf[base + 2], 0.0); // padded col
    }

    /// Element `(i, p)` of `op(X)` by the index formula.
    fn op_get(op: Op, x: &Matrix<f64>, i: usize, p: usize) -> f64 {
        match op {
            Op::NoTrans => x.at(i, p),
            Op::Trans => x.at(p, i),
        }
    }

    /// `op(X)` stored for `op`: `X` itself, or its transpose in storage.
    fn stored(op: Op, rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        match op {
            Op::NoTrans => random::uniform::<f64>(rows, cols, seed),
            Op::Trans => random::uniform::<f64>(cols, rows, seed),
        }
    }

    #[test]
    fn pack_a_matches_reference() {
        // mb = 2·MR + 3 leaves a 3-row tail; the block starts at a nonzero
        // (ic, pc); the buffer starts NaN so every slot must be written.
        let (ic, pc, kb) = (MR + 1, 2, 11);
        for op in [Op::NoTrans, Op::Trans] {
            for mb in [1, MR, 2 * MR + 3] {
                let x = stored(op, ic + mb + 2, pc + kb + 2, 40);
                let panels = mb.div_ceil(MR);
                let mut got = vec![f64::NAN; panels * MR * kb];
                pack_a(op, &x.as_ref(), ic, pc, mb, kb, &mut got);
                for q in 0..panels {
                    for kk in 0..kb {
                        for r in 0..MR {
                            let row = q * MR + r;
                            let want = if row < mb { op_get(op, &x, ic + row, pc + kk) } else { 0.0 };
                            let g = got[q * MR * kb + kk * MR + r];
                            assert_eq!(g.to_bits(), want.to_bits(), "{op:?} mb={mb} (q={q}, kk={kk}, r={r})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pack_b_matches_reference() {
        // nb = 2·NR + 3 leaves a 3-column tail; nonzero (pc, jc).
        let (pc, jc, kb) = (3, NR + 2, 9);
        for op in [Op::NoTrans, Op::Trans] {
            for nb in [1, NR, 2 * NR + 3] {
                let x = stored(op, pc + kb + 2, jc + nb + 2, 50);
                let panels = nb.div_ceil(NR);
                let mut got = vec![f64::NAN; panels * NR * kb];
                pack_b(op, &x.as_ref(), pc, jc, kb, nb, &mut got);
                for q in 0..panels {
                    for kk in 0..kb {
                        for cc in 0..NR {
                            let col = q * NR + cc;
                            let want = if col < nb { op_get(op, &x, pc + kk, jc + col) } else { 0.0 };
                            let g = got[q * NR * kb + kk * NR + cc];
                            assert_eq!(
                                g.to_bits(),
                                want.to_bits(),
                                "{op:?} nb={nb} (q={q}, kk={kk}, cc={cc})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packed_panel_padding_is_exact_zero() {
        // One live row/column: everything else must be +0.0 (not merely
        // small, and not NaN left over) — the micro-kernel multiplies
        // padding by live data.
        let x = random::uniform::<f64>(4, 4, 60);
        let mut buf = vec![f64::NAN; MR * 3];
        pack_a(Op::NoTrans, &x.as_ref(), 0, 0, 1, 3, &mut buf);
        for kk in 0..3 {
            assert!(buf[kk * MR + 1..(kk + 1) * MR].iter().all(|v| v.to_bits() == 0), "pack_a kk={kk}");
        }
        let mut buf = vec![f64::NAN; NR * 3];
        pack_b(Op::Trans, &x.as_ref(), 0, 0, 3, 1, &mut buf);
        for kk in 0..3 {
            assert!(buf[kk * NR + 1..(kk + 1) * NR].iter().all(|v| v.to_bits() == 0), "pack_b kk={kk}");
        }
    }

    #[test]
    fn blocked_matches_naive_on_odd_sizes() {
        let cfg = GemmConfig { algo: super::super::GemmAlgo::Blocked, mc: 16, kc: 12, nc: 20 };
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (9, 13, 11), (31, 7, 45), (40, 40, 40)] {
            let a = random::uniform::<f64>(m, k, 4);
            let b = random::uniform::<f64>(k, n, 5);
            let mut c1 = random::uniform::<f64>(m, n, 6);
            let mut c2 = c1.clone();
            super::super::gemm_naive(1.3, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.7, c1.as_mut());
            gemm_blocked(&cfg, 1.3, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.7, c2.as_mut());
            matrix::norms::assert_allclose(c1.as_ref(), c2.as_ref(), 1e-13, &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn panel_walk_residues_match_classic_bitwise() {
        // The macro-kernel walks the A-row panels of a block in quads,
        // then a pair, then a single. Blocks of 1..=8 panels, whole and
        // with an MR row tail, plus heights that split into a full and a
        // ragged ic block, reach every residue of that walk. n > 160 keeps
        // the unpacked small tier out, so the nest runs every shape.
        let cfg = GemmConfig { algo: super::super::GemmAlgo::Blocked, mc: 8 * MR, kc: 24, nc: 5 * NR };
        let (k, n) = (37, 170);
        let heights = (1..=8).flat_map(|p| [p * MR, p * MR - 3]).chain([11 * MR - 1, 15 * MR + 2]);
        for m in heights {
            for beta in [0.0, 0.5] {
                let a = random::uniform::<f64>(m, k, 23);
                let b = random::uniform::<f64>(k, n, 24);
                let c0 = random::uniform::<f64>(m, n, 25);
                let mut c_new = c0.clone();
                let mut c_old = c0.clone();
                gemm_blocked(
                    &cfg,
                    0.9,
                    Op::NoTrans,
                    a.as_ref(),
                    Op::NoTrans,
                    b.as_ref(),
                    beta,
                    c_new.as_mut(),
                );
                super::super::gemm_blocked_classic(
                    &cfg,
                    0.9,
                    Op::NoTrans,
                    a.as_ref(),
                    Op::NoTrans,
                    b.as_ref(),
                    beta,
                    c_old.as_mut(),
                );
                let same =
                    c_new.as_slice().iter().zip(c_old.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "m={m} β={beta}: nest differs from the classic kernel");
            }
        }
    }

    #[test]
    fn matches_classic_bitwise() {
        // The 5-loop rewrite (β fold, paired panels, clamped blocking) is
        // a pure reorganization: identical scalar operation sequences per
        // element, so the result must equal the preserved classic kernel
        // bit for bit.
        let cfg = GemmConfig::blocked();
        for &(m, k, n) in &[(40usize, 33usize, 50usize), (129, 64, 96)] {
            for beta in [0.0, 1.0, 0.5] {
                let a = random::uniform::<f64>(m, k, 20);
                // op_b = Trans, so B is stored n x k.
                let b = random::uniform::<f64>(n, k, 21);
                let c0 = random::uniform::<f64>(m, n, 22);
                let mut c_new = c0.clone();
                let mut c_old = c0.clone();
                gemm_blocked(&cfg, 1.2, Op::NoTrans, a.as_ref(), Op::Trans, b.as_ref(), beta, c_new.as_mut());
                super::super::gemm_blocked_classic(
                    &cfg,
                    1.2,
                    Op::NoTrans,
                    a.as_ref(),
                    Op::Trans,
                    b.as_ref(),
                    beta,
                    c_old.as_mut(),
                );
                for j in 0..n {
                    for i in 0..m {
                        assert_eq!(
                            c_new.at(i, j).to_bits(),
                            c_old.at(i, j).to_bits(),
                            "({i},{j}) {m}x{k}x{n} β={beta}"
                        );
                    }
                }
            }
        }
    }
}
