//! Pool-parallel blocked GEMM: nested jc×ic loop parallelism.
//!
//! The 5-loop BLIS nest exposes two independent loops and this driver
//! uses both, the way *Implementing Strassen's Algorithm with BLIS*
//! partitions its loops across threads:
//!
//! - **jc (column groups).** `n` is carved into `jc_ways` balanced,
//!   `NR`-quantized column groups — one task each. Every group owns its
//!   columns of `C` and `B` outright, so groups never synchronize. When
//!   the groups alone fill the machine this is the packed nest's own
//!   split ([`super::fused`]'s column groups, shared with the fused
//!   Strassen level).
//! - **ic (row blocks).** Workers left over after the jc split
//!   (`ic_ways = threads / jc_ways`, the narrow-`n` regime where column
//!   groups alone cannot fill the machine, so each group is a single
//!   `NR` panel) cooperate *inside* each group (`panel_nested`): per
//!   `(jc, pc)` step they first pack disjoint `NR`-panel ranges of the
//!   shared `B` panel, then each packs its own `A` row-panels and
//!   updates a disjoint row block of the `C` panel, sharing the packed
//!   `B` read-only — the Goto/BLIS recipe (pack `B` once per (jc, pc),
//!   many `A` packers against it).
//!
//! The split is *balanced by quanta* ([`balanced_quanta`]): `ways`
//! partitions differ by at most one `NR` (or `MR`) quantum and every
//! partition is non-empty, so a tiny `n` with many threads can no longer
//! produce zero-work panels next to idle workers (the pre-PR-7 clamp
//! `nc = min(nc, ⌈n/threads⌉ rounded to NR)` could strand a 1-column
//! panel while a worker sat idle).
//!
//! **Determinism contract.** Every element of `C` is produced by the
//! same floating-point operation sequence as [`gemm_blocked`] with the
//! same config: the `kc` chunking of `k` (identical — both use
//! [`clamp_blocking`]) fixes the per-element accumulation splits, the
//! micro-kernel accumulates each chunk in ascending `kk`, and β is
//! folded into the first `pc` write-back. Which task packs a panel or
//! which worker owns a row block re-partitions only the *iteration
//! space*, never a per-element reduction, so parallel results are
//! bitwise identical to serial ones — the property the scheduler
//! determinism tests pin end to end.

use super::blocked::{clamp_blocking, gemm_blocked, pack_a, pack_b, panel_lens};
use super::fused::{gemm_level, macrokernel_multi, Dest, PLAIN};
use super::kernel::{MR, NR};
use super::packbuf::with_pack_slab;
use super::{check_gemm_dims, scale_c, GemmConfig};
use crate::level2::Op;
use matrix::{MatMut, MatRef, Scalar};

/// Split `quanta` indivisible work units over at most `ways` partitions:
/// returns per-partition quanta counts, all ≥ 1, differing by ≤ 1.
/// Returns fewer than `ways` entries when there aren't enough quanta to
/// give every partition one — never a zero-work partition.
pub(crate) fn balanced_quanta(quanta: usize, ways: usize) -> Vec<usize> {
    let p = ways.min(quanta).max(1);
    if quanta == 0 {
        return Vec::new();
    }
    let base = quanta / p;
    let extra = quanta % p;
    (0..p).map(|g| base + usize::from(g < extra)).collect()
}

/// Below this flop count the spawn/scope overhead outweighs any
/// parallel gain; run the serial kernel instead. (≈ a 64³ product.)
const MIN_PARALLEL_FLOPS: usize = 64 * 64 * 64;

/// Workers a pool-parallel nest over an `m x k x n` product should
/// split across: the pool size, or 1 when the product is too small to
/// repay the spawn cost. Shared with `gemm_fused_level`.
pub(crate) fn parallel_ways(m: usize, k: usize, n: usize) -> usize {
    if m.saturating_mul(k).saturating_mul(n) < MIN_PARALLEL_FLOPS {
        1
    } else {
        pool::current_num_threads().max(1)
    }
}

/// `C ← α op(A) op(B) + β C`, jc×ic loops processed in parallel.
pub fn gemm_parallel<T: Scalar>(
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
    let threads = parallel_ways(m, k, n);
    if threads == 1 {
        return gemm_blocked(cfg, alpha, op_a, a, op_b, b, beta, c);
    }
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        // Degenerate product: only the β scaling remains.
        return scale_c(beta, &mut c);
    }
    // Fill the machine column-groups-first (they share nothing), then
    // give leftover workers to the ic loop inside each group. The group
    // count is `balanced_quanta(n.div_ceil(NR), threads).len()`.
    let jc_ways = threads.min(n.div_ceil(NR));
    let ic_ways = (threads / jc_ways).min(m.div_ceil(MR)).max(1);
    if jc_ways == 1 && ic_ways == 1 {
        return gemm_blocked(cfg, alpha, op_a, a, op_b, b, beta, c);
    }
    if ic_ways == 1 {
        // Column groups alone fill the machine: the level nest's own
        // split, with the same `parallel_ways` and `balanced_quanta`.
        return gemm_level(true, cfg, alpha, op_a, a, op_b, b, beta, c, &PLAIN, 1);
    }

    // Narrow n: fewer column quanta than threads, so every group is one
    // NR-wide panel (never wider than nc), and `ic_ways` workers share
    // its rows. Identical clamping to the serial kernel: same kc ⇒ same
    // per-element accumulation splits ⇒ bitwise-identical results.
    let (mc, kc, _) = clamp_blocking(cfg, m, k, n);
    let (a_ref, b_ref) = (&a, &b);
    pool::scope(|scope| {
        let mut rest = c;
        for (group, jc) in (0..n).step_by(NR).enumerate() {
            let (cpanel, tail) = rest.split_cols(NR.min(n - jc));
            rest = tail;
            // Timeline tags (see pool::ring::tag) let the trace exporter
            // distinguish the GEMM task roles; they never affect
            // scheduling.
            let tag = pool::ring::tag::gemm_task(0, group as u8);
            scope.spawn_tagged(None, tag, move || {
                panel_nested(alpha, beta, op_a, a_ref, op_b, b_ref, cpanel, jc, m, k, mc, kc, ic_ways);
            });
        }
    });
}

/// Narrow-`n` regime: `ic_ways` workers cooperate on one `C` column
/// panel. Per `(jc, pc)` step the shared `B` panel is packed
/// cooperatively (disjoint `NR`-panel ranges), then each worker packs
/// its own `A` row-panels and updates a disjoint row block against the
/// shared packed `B`.
#[allow(clippy::too_many_arguments)]
fn panel_nested<T: Scalar>(
    alpha: T,
    beta: T,
    op_a: Op,
    a: &MatRef<'_, T>,
    op_b: Op,
    b: &MatRef<'_, T>,
    mut cpanel: MatMut<'_, T>,
    jc: usize,
    m: usize,
    k: usize,
    mc: usize,
    kc: usize,
    ic_ways: usize,
) {
    let nb = cpanel.ncols();
    let bpanels = nb.div_ceil(NR);
    let row_quanta = balanced_quanta(m.div_ceil(MR), ic_ways);
    let (_, b_len) = panel_lens(mc, kc, nb);
    with_pack_slab::<T, _>(b_len, |slab| {
        for pc in (0..k).step_by(kc) {
            let kb = kc.min(k - pc);
            let beta_eff = if pc == 0 { Some(beta) } else { None };

            // Phase 1: cooperative B pack. The packed-B layout is
            // panel-major (panel q at q·NR·kb), so a panel range is a
            // contiguous slab chunk handed to its packer via
            // split_at_mut.
            let pack_ranges = balanced_quanta(bpanels, ic_ways);
            pool::scope(|s| {
                let mut rest: &mut [T] = &mut slab[..bpanels * NR * kb];
                let mut q0 = 0;
                for &panels in &pack_ranges {
                    let (chunk, tail) = rest.split_at_mut(panels * NR * kb);
                    rest = tail;
                    let cols = (panels * NR).min(nb - q0 * NR);
                    let jc_range = jc + q0 * NR;
                    let tag = pool::ring::tag::gemm_task(1, q0 as u8);
                    s.spawn_tagged(None, tag, move || pack_b(op_b, b, pc, jc_range, kb, cols, chunk));
                    q0 += panels;
                }
            });

            // Phase 2: parallel ic row blocks against the shared packed
            // B. Row views are rebuilt per pc step (they are moved into
            // the tasks), always along the same MR-quantized boundaries.
            let packed_b: &[T] = &slab[..bpanels * NR * kb];
            pool::scope(|s| {
                let mut rest = cpanel.rb_mut();
                let mut r0 = 0;
                for (block, &quanta) in row_quanta.iter().enumerate() {
                    let rows = (quanta * MR).min(m - r0);
                    let (crows, tail) = rest.split_rows(rows);
                    rest = tail;
                    let row0 = r0;
                    let tag = pool::ring::tag::gemm_task(2, block as u8);
                    s.spawn_tagged(None, tag, move || {
                        let mut crows = crows;
                        let a_len = mc.div_ceil(MR) * MR * kc;
                        with_pack_slab::<T, _>(a_len, |packed_a| {
                            for icc in (0..rows).step_by(mc) {
                                let mb = mc.min(rows - icc);
                                pack_a(op_a, a, row0 + icc, pc, mb, kb, packed_a);
                                let dest = Dest { c: crows.rb_mut(), coeff: alpha, beta: beta_eff };
                                macrokernel_multi(mb, kb, nb, packed_a, packed_b, &mut [dest], icc, 0);
                            }
                        });
                    });
                    r0 += rows;
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrix::random;

    fn init() {
        let _ = pool::set_num_threads(4);
    }

    #[test]
    fn balanced_quanta_never_empty_and_off_by_at_most_one() {
        for quanta in 1..40 {
            for ways in 1..10 {
                let parts = balanced_quanta(quanta, ways);
                assert_eq!(parts.iter().sum::<usize>(), quanta, "q={quanta} w={ways}");
                assert!(parts.len() <= ways);
                assert!(parts.iter().all(|&p| p >= 1), "q={quanta} w={ways}: {parts:?}");
                let (min, max) = (parts.iter().min().unwrap(), parts.iter().max().unwrap());
                assert!(max - min <= 1, "q={quanta} w={ways}: {parts:?}");
            }
        }
        assert!(balanced_quanta(0, 4).is_empty());
    }

    #[test]
    fn parallel_matches_blocked() {
        init();
        let pcfg = GemmConfig::parallel();
        let scfg = GemmConfig::blocked();
        for &(m, k, n) in &[(64usize, 64usize, 64usize), (100, 37, 211), (5, 200, 3), (300, 64, 17)] {
            let a = random::uniform::<f64>(m, k, 11);
            let b = random::uniform::<f64>(k, n, 12);
            let mut c1 = random::uniform::<f64>(m, n, 13);
            let mut c2 = c1.clone();
            super::super::gemm_blocked(
                &scfg,
                0.9,
                Op::NoTrans,
                a.as_ref(),
                Op::NoTrans,
                b.as_ref(),
                0.1,
                c1.as_mut(),
            );
            gemm_parallel(&pcfg, 0.9, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.1, c2.as_mut());
            matrix::norms::assert_allclose(c1.as_ref(), c2.as_ref(), 1e-13, &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn parallel_is_bitwise_identical_to_blocked() {
        init();
        // The determinism contract in the module docs, pinned directly:
        // same kc ⇒ same element-wise op order ⇒ equal bits, across both
        // the wide-n (jc) and narrow-n (nested ic) regimes and under
        // transposes.
        let pcfg = GemmConfig::parallel();
        let scfg = GemmConfig::blocked();
        for &(m, k, n) in &[(128usize, 96usize, 512usize), (256, 300, 20), (97, 41, 64)] {
            for (op_a, op_b) in
                [(Op::NoTrans, Op::NoTrans), (Op::Trans, Op::NoTrans), (Op::NoTrans, Op::Trans)]
            {
                let (ar, ac) = if op_a == Op::NoTrans { (m, k) } else { (k, m) };
                let (br, bc) = if op_b == Op::NoTrans { (k, n) } else { (n, k) };
                let a = random::uniform::<f64>(ar, ac, 21);
                let b = random::uniform::<f64>(br, bc, 22);
                let mut c1 = random::uniform::<f64>(m, n, 23);
                let mut c2 = c1.clone();
                super::super::gemm_blocked(
                    &scfg,
                    1.25,
                    op_a,
                    a.as_ref(),
                    op_b,
                    b.as_ref(),
                    -0.5,
                    c1.as_mut(),
                );
                gemm_parallel(&pcfg, 1.25, op_a, a.as_ref(), op_b, b.as_ref(), -0.5, c2.as_mut());
                let ulps = testkit::max_ulp_diff_mat(c1.as_ref(), c2.as_ref());
                assert_eq!(ulps, 0, "{m}x{k}x{n} {op_a:?}/{op_b:?}: parallel differs from serial");
            }
        }
    }

    #[test]
    fn tiny_n_above_quantum_boundary_has_no_zero_work_panels() {
        init();
        // Regression (PR 7): n just above NR·threads used to clamp the
        // panel width so one worker got a 1-column panel while another
        // sat idle; with balanced quanta every group gets ≥ NR columns
        // (except possibly the last, never zero) and results stay
        // correct. m·k·n must clear MIN_PARALLEL_FLOPS so the parallel
        // path actually runs.
        let threads = pool::current_num_threads();
        let n = NR * threads + 1;
        let (m, k) = (128usize, 160usize);
        assert!(m * k * n >= MIN_PARALLEL_FLOPS);
        let quanta = balanced_quanta(n.div_ceil(NR), threads);
        assert!(quanta.iter().all(|&q| q >= 1));
        let a = random::uniform::<f64>(m, k, 31);
        let b = random::uniform::<f64>(k, n, 32);
        let mut c1 = random::uniform::<f64>(m, n, 33);
        let mut c2 = c1.clone();
        super::super::gemm_blocked(
            &GemmConfig::blocked(),
            1.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.75,
            c1.as_mut(),
        );
        gemm_parallel(
            &GemmConfig::parallel(),
            1.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.75,
            c2.as_mut(),
        );
        assert_eq!(testkit::max_ulp_diff_mat(c1.as_ref(), c2.as_ref()), 0, "n={n}");
    }

    #[test]
    fn narrow_n_uses_nested_rows_and_matches() {
        init();
        // n below one NR quantum per thread: the jc split degenerates and
        // the nested ic path must carry the work.
        let a = random::uniform::<f64>(500, 120, 41);
        let b = random::uniform::<f64>(120, 5, 42);
        let mut c1 = random::uniform::<f64>(500, 5, 43);
        let mut c2 = c1.clone();
        super::super::gemm_blocked(
            &GemmConfig::blocked(),
            2.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.0,
            c1.as_mut(),
        );
        gemm_parallel(
            &GemmConfig::parallel(),
            2.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.0,
            c2.as_mut(),
        );
        assert_eq!(testkit::max_ulp_diff_mat(c1.as_ref(), c2.as_ref()), 0);
    }

    #[test]
    fn parallel_handles_narrow_matrices() {
        init();
        // n smaller than one micro-tile: single panel, still correct
        // (and below MIN_PARALLEL_FLOPS, so it delegates to the serial
        // kernel including β handling without spawning).
        let a = random::uniform::<f64>(50, 50, 1);
        let b = random::uniform::<f64>(50, 2, 2);
        let mut c1 = random::uniform::<f64>(50, 2, 3);
        let mut c2 = c1.clone();
        super::super::gemm_naive(1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c1.as_mut());
        gemm_parallel(
            &GemmConfig::parallel(),
            1.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.0,
            c2.as_mut(),
        );
        matrix::norms::assert_allclose(c1.as_ref(), c2.as_ref(), 1e-13, "narrow");
    }

    #[test]
    fn single_panel_fallback_preserves_beta_semantics() {
        init();
        // β = 0 must overwrite NaN without reading it, in every regime.
        for (m, n) in [(20usize, 8usize), (128, 25), (500, 5)] {
            let a = random::uniform::<f64>(m, 160, 4);
            let b = random::uniform::<f64>(160, n, 5);
            let mut c = matrix::Matrix::from_fn(m, n, |_, _| f64::NAN);
            gemm_parallel(
                &GemmConfig::parallel(),
                1.0,
                Op::NoTrans,
                a.as_ref(),
                Op::NoTrans,
                b.as_ref(),
                0.0,
                c.as_mut(),
            );
            assert!(c.as_slice().iter().all(|x| x.is_finite()), "{m}x{n}");
        }
    }
}
