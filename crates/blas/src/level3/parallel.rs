//! Pool-parallel GEMM: the thread policy of the one packed nest.
//!
//! A parallel product — a plain GEMM ([`gemm_parallel`]) or a fused
//! Strassen level — runs the same nest as a serial one ([`super::fused`]),
//! split the Goto/BLIS way that *Implementing Strassen's Algorithm with
//! BLIS* (§4) parallelizes its fused nest. For each `(jc, pc)` step:
//!
//! 1. **Pack and build every B operand.** The threads take disjoint
//!    `NR`-panel ranges. Per panel, a thread packs the `B` blocks the
//!    table reads and writes every distinct B operand (a bare block or a
//!    γ-weighted sum) into its shared slot; then one join.
//! 2. **Compute.** An `ic_ways x jr_ways` grid of tasks ([`thread_grid`])
//!    splits `C` into balanced `MR`-quantized row bands times `NR`-panel
//!    ranges of the shared B operands. Each task packs its own `A` blocks
//!    and combines its own `A` sums.
//!
//! Each `A` and `B` block is thus packed once per cache block across the
//! machine, and each B operand is built once. Rows split into at most one band per `4·MR`-row quad tile,
//! and the ways left over split the panels. The calling thread leases the
//! one pack slab for every task, and a nest that splits one way runs
//! inline, with no scope.
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
//! `clamp_blocking`) fixes the per-element accumulation splits, the
//! micro-kernel accumulates each chunk in ascending `kk`, products run in
//! table order, and β is folded into the first `pc` write-back. Which
//! task packs a panel or which worker owns a row band re-partitions only
//! the *iteration space*, never a per-element reduction, so parallel
//! results are bitwise identical to serial ones — the property the
//! scheduler determinism tests pin end to end.

use super::blocked::gemm_blocked;
use super::fused::{gemm_level, PLAIN};
use super::kernel::MR;
use super::{check_gemm_dims, GemmConfig};
use crate::level2::Op;
use matrix::{MatMut, MatRef, Scalar};
use std::sync::OnceLock;

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

/// Ways a pool-parallel nest over an `m x k x n` product should split:
/// the pool's workers, plus the calling thread when it is not already
/// running pool work and the workers leave a CPU free for it, or 1 when
/// the product is too small to repay the spawn cost. Shared with
/// `gemm_fused_level`.
///
/// A top-level caller helps with the tasks it spawns while it waits in
/// `pool::scope`, so it is one more compute thread. A caller inside a
/// task (a DAG product node) is already one of the pool's threads;
/// counting it there too would give every nested leaf one task more than
/// the pool can run. When the workers already cover every CPU (the
/// default pool on a host without SMT), a task for the caller would
/// time-slice with the workers' tasks: on a 2-CPU host with 2 workers
/// that cost a top-level 1024³ `gemm_parallel` about 13%.
pub(crate) fn parallel_ways(m: usize, k: usize, n: usize) -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    if m.saturating_mul(k).saturating_mul(n) < MIN_PARALLEL_FLOPS {
        return 1;
    }
    let cpus = *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    split_ways(pool::current_num_threads(), cpus, pool::in_task())
}

/// [`parallel_ways`]' rule for a product large enough to split.
fn split_ways(workers: usize, cpus: usize, in_task: bool) -> usize {
    let workers = workers.max(1);
    workers + usize::from(!in_task && workers < cpus)
}

/// The compute phase's `(ic_ways, jr_ways)` grid for `ways` threads over
/// blocks of `bm` rows: at most one row band per `4·MR`-row quad tile,
/// and the ways left over split the `NR` panels.
pub(crate) fn thread_grid(bm: usize, ways: usize) -> (usize, usize) {
    let ic_ways = ways.min(bm.div_ceil(4 * MR)).max(1);
    (ic_ways, ways / ic_ways)
}

/// `C ← α op(A) op(B) + β C` on the pool: the packed nest split over the
/// pool's workers (plus the calling thread when it is free and a CPU is
/// left for it), or [`gemm_blocked`] when the product is too small to
/// split.
pub fn gemm_parallel<T: Scalar>(
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
    match parallel_ways(m, k, n) {
        1 => gemm_blocked(cfg, alpha, op_a, a, op_b, b, beta, c),
        ways => gemm_level(ways, cfg, alpha, op_a, a, op_b, b, beta, c, &PLAIN, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level3::NR;
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
    fn caller_is_counted_only_when_free_and_a_cpu_is_left() {
        // (workers, cpus, in_task) -> ways
        for (workers, cpus, in_task, ways) in [
            (1, 2, false, 2), // the benchmark's pin: 1 worker + the caller
            (1, 2, true, 1),  // inside a DAG node the caller is the worker
            (2, 2, false, 2), // workers cover every CPU: no extra group
            (1, 1, false, 1),
            (3, 8, false, 4),
            (3, 8, true, 3),
            (0, 4, false, 2), // an empty count still means one worker
        ] {
            assert_eq!(
                split_ways(workers, cpus, in_task),
                ways,
                "{workers} workers, {cpus} CPUs, in task {in_task}"
            );
        }
    }

    #[test]
    fn thread_grid_splits_rows_down_to_one_quad_tile_each() {
        let quad = 4 * MR;
        // (bm, ways) -> (ic_ways, jr_ways)
        for (bm, ways, grid) in [
            (1024, 1, (1, 1)),
            (1024, 2, (2, 1)), // the benchmark's 2048³ fused level
            (1024, 4, (4, 1)),
            (2 * quad, 2, (2, 1)),
            (quad + 1, 2, (2, 1)),
            (quad, 2, (1, 2)), // one quad tile: the panels split
            (1, 2, (1, 2)),
            (4 * quad, 4, (4, 1)),
            (3 * quad, 4, (3, 1)), // three bands; the fourth way idles
            (2 * quad, 4, (2, 2)),
            (quad, 4, (1, 4)),
            (2 * quad, 3, (2, 1)),
        ] {
            assert_eq!(thread_grid(bm, ways), grid, "bm={bm} ways={ways}");
        }
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
        // axes of the ic × jr compute grid (row bands when a block holds
        // more than one 4·MR quad tile, NR panels otherwise) and under
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
        // n below one NR panel: the grid's jr axis has nothing to split,
        // so its ic row bands must carry the work.
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
