//! The pre-5-loop blocked GEMM, preserved verbatim as a baseline.
//!
//! This is the kernel the earlier PRs tuned and benchmarked: a β
//! pre-sweep over all of `C` followed by the same `jc → pc → ic` packed
//! loop nest, with an accumulate-only macro-kernel walking A-row panels
//! one at a time. It shares [`pack_a`]/[`pack_b`] (the packed formats
//! never changed) but none of the 5-loop rewrite's improvements: no β
//! fold into the first rank update, no paired-panel micro-kernel
//! dispatch, no clamping of the blocking to the problem shape.
//!
//! It exists as a **conformance reference**: the rewrite is a pure
//! reorganization, so `tests/kernel_conformance.rs` pins the new kernel
//! to this one *bitwise* (for β ≠ 0 paths; see the test for the `-0.0`
//! caveat).
//!
//! It is deliberately not reachable from [`super::GemmConfig`]: nothing
//! in the library dispatches here.

use super::blocked::{pack_a, pack_b, panel_lens};
use super::kernel::{microkernel, AccTile, MR, NR};
use super::packbuf::with_pack_bufs;
use super::{check_gemm_dims, scale_c, GemmConfig};
use crate::level2::Op;
use matrix::{MatMut, MatRef, Scalar};

/// Accumulate-only macro-kernel of the classic formulation.
fn macrokernel_classic<T: Scalar>(
    alpha: T,
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
        for qm in 0..mpanels {
            let row0 = qm * MR;
            let rows = MR.min(mb - row0);
            let pa = &packed_a[qm * MR * kb..(qm + 1) * MR * kb];
            let mut acc: AccTile<T> = [[T::ZERO; MR]; NR];
            microkernel(kb, [pa], pb, [&mut acc]);
            // Write-back of the valid part of the tile.
            for (cc, acc_col) in acc.iter().enumerate().take(cols) {
                let j = jc + col0 + cc;
                for (r, &v) in acc_col.iter().enumerate().take(rows) {
                    let i = ic + row0 + r;
                    // SAFETY: i < m, j < n by construction of the blocking.
                    unsafe {
                        *c.get_unchecked_mut(i, j) += alpha * v;
                    }
                }
            }
        }
    }
}

/// `C ← α op(A) op(B) + β C`, classic formulation (β pre-sweep, unclamped
/// blocking, single-panel macro-kernel).
pub fn gemm_blocked_classic<T: Scalar>(
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
    scale_c(beta, &mut c);
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    let mc = cfg.mc.max(MR);
    let kc = cfg.kc.max(1);
    let nc = cfg.nc.max(NR);

    let (a_len, b_len) = panel_lens(mc, kc, nc);
    with_pack_bufs::<T, _>(a_len, b_len, |packed_a, packed_b| {
        for jc in (0..n).step_by(nc) {
            let nb = nc.min(n - jc);
            for pc in (0..k).step_by(kc) {
                let kb = kc.min(k - pc);
                pack_b(op_b, &b, pc, jc, kb, nb, packed_b);
                for ic in (0..m).step_by(mc) {
                    let mb = mc.min(m - ic);
                    pack_a(op_a, &a, ic, pc, mb, kb, packed_a);
                    macrokernel_classic(alpha, mb, kb, nb, packed_a, packed_b, &mut c, ic, jc);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrix::random;

    #[test]
    fn classic_matches_naive() {
        let cfg = GemmConfig { algo: super::super::GemmAlgo::Blocked, mc: 16, kc: 12, nc: 20 };
        for &(m, k, n) in &[(9usize, 13usize, 11usize), (31, 7, 45), (40, 40, 40)] {
            let a = random::uniform::<f64>(m, k, 4);
            let b = random::uniform::<f64>(k, n, 5);
            let mut c1 = random::uniform::<f64>(m, n, 6);
            let mut c2 = c1.clone();
            super::super::gemm_naive(1.3, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.7, c1.as_mut());
            gemm_blocked_classic(
                &cfg,
                1.3,
                Op::NoTrans,
                a.as_ref(),
                Op::NoTrans,
                b.as_ref(),
                0.7,
                c2.as_mut(),
            );
            matrix::norms::assert_allclose(c1.as_ref(), c2.as_ref(), 1e-13, &format!("{m}x{k}x{n}"));
        }
    }
}
