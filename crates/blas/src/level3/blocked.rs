//! Cache-blocked, packing GEMM kernel (BLIS/Goto 5-loop nest).
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
//! [`super::small`], which is bitwise equal to this nest.

use super::kernel::{microkernel, microkernel_x2, AccTile, MR, NR};
use super::packbuf::with_pack_bufs;
use super::small;
use super::{check_gemm_dims, scale_c, GemmConfig};
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

/// Scatter one accumulator tile into `C` at `(i0, j0)`.
///
/// `beta = None` accumulates; `Some(0)` is a pure store (no read of the
/// destination); any other `Some(b)` fuses the scale into the write. The
/// scalar sequences match the classic pre-sweep formulation bitwise:
/// `Some(b)` computes `b·d + α·v` exactly as `scale` + `+=` did, and
/// `Some(1)`/`None` skip the (exact) multiply by one.
#[inline(always)]
pub(crate) fn write_tile<T: Scalar>(
    c: &mut MatMut<'_, T>,
    i0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
    alpha: T,
    beta: Option<T>,
    acc: &AccTile<T>,
) {
    let ld = c.ld();
    // Hoist the destination base pointer: at leaf-sized `kb` the
    // per-column slice checks of safe indexing cost as much as the
    // micro-kernel itself.
    let base = c.as_mut_ptr();
    for (cc, acc_col) in acc.iter().enumerate().take(cols) {
        // SAFETY: rows i0..i0+rows of column j0+cc are in bounds by
        // construction of the blocking.
        let cseg = unsafe { core::slice::from_raw_parts_mut(base.add((j0 + cc) * ld + i0), rows) };
        match beta {
            None => {
                for (d, &v) in cseg.iter_mut().zip(acc_col) {
                    *d += alpha * v;
                }
            }
            Some(b) if b == T::ZERO => {
                for (d, &v) in cseg.iter_mut().zip(acc_col) {
                    *d = alpha * v;
                }
            }
            Some(b) if b == T::ONE => {
                for (d, &v) in cseg.iter_mut().zip(acc_col) {
                    *d += alpha * v;
                }
            }
            Some(b) => {
                for (d, &v) in cseg.iter_mut().zip(acc_col) {
                    *d = b * *d + alpha * v;
                }
            }
        }
    }
}

/// Inner macro-kernel: multiply one packed `mb x kb` A-block by one packed
/// `kb x nb` B-panel into the corresponding region of `C`, walking the
/// A-row panels in pairs so AVX-512 parts run the fused `2·MR x NR`
/// micro-kernel. `beta` carries the first-`pc`-block fold (see
/// [`write_tile`]); pass `None` on later rank updates.
pub(crate) fn macrokernel<T: Scalar>(
    alpha: T,
    beta: Option<T>,
    mb: usize,
    kb: usize,
    nb: usize,
    packed_a: &[T],
    packed_b: &[T],
    c: &mut MatMut<'_, T>,
    ic: usize,
    jc: usize,
) {
    let mpanels = mb.div_ceil(MR);
    let npanels = nb.div_ceil(NR);
    for qn in 0..npanels {
        let col0 = qn * NR;
        let cols = NR.min(nb - col0);
        let pb = &packed_b[qn * NR * kb..(qn + 1) * NR * kb];
        let mut qm = 0;
        while qm + 2 <= mpanels {
            let pa0 = &packed_a[qm * MR * kb..(qm + 1) * MR * kb];
            let pa1 = &packed_a[(qm + 1) * MR * kb..(qm + 2) * MR * kb];
            let mut acc0: AccTile<T> = [[T::ZERO; MR]; NR];
            let mut acc1: AccTile<T> = [[T::ZERO; MR]; NR];
            microkernel_x2(kb, pa0, pa1, pb, &mut acc0, &mut acc1);
            let rows0 = MR.min(mb - qm * MR);
            let rows1 = MR.min(mb - (qm + 1) * MR);
            write_tile(c, ic + qm * MR, jc + col0, rows0, cols, alpha, beta, &acc0);
            write_tile(c, ic + (qm + 1) * MR, jc + col0, rows1, cols, alpha, beta, &acc1);
            qm += 2;
        }
        if qm < mpanels {
            let pa = &packed_a[qm * MR * kb..(qm + 1) * MR * kb];
            let mut acc: AccTile<T> = [[T::ZERO; MR]; NR];
            microkernel(kb, pa, pb, &mut acc);
            let rows = MR.min(mb - qm * MR);
            write_tile(c, ic + qm * MR, jc + col0, rows, cols, alpha, beta, &acc);
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

/// Packed-panel lengths for one `(mc, kc, nc)` blocking — shared with the
/// parallel and fused drivers.
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

/// The packed 5-loop nest itself, whatever the shape — the reference
/// the small tier is pinned against.
pub(crate) fn gemm_packed<T: Scalar>(
    cfg: &GemmConfig,
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let (m, k, n) = check_gemm_dims(op_a, &a, op_b, &b, &c);
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        // Degenerate product: only the β scaling remains.
        scale_c(beta, &mut c);
        return;
    }
    let (mc, kc, nc) = clamp_blocking(cfg, m, k, n);
    let (a_len, b_len) = panel_lens(mc, kc, nc);
    with_pack_bufs::<T, _>(a_len, b_len, |packed_a, packed_b| {
        for jc in (0..n).step_by(nc) {
            let nb = nc.min(n - jc);
            for pc in (0..k).step_by(kc) {
                let kb = kc.min(k - pc);
                pack_b(op_b, &b, pc, jc, kb, nb, packed_b);
                // The first rank update of each C region applies β.
                let beta_eff = if pc == 0 { Some(beta) } else { None };
                for ic in (0..m).step_by(mc) {
                    let mb = mc.min(m - ic);
                    pack_a(op_a, &a, ic, pc, mb, kb, packed_a);
                    macrokernel(alpha, beta_eff, mb, kb, nb, packed_a, packed_b, &mut c, ic, jc);
                }
            }
        }
    });
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
