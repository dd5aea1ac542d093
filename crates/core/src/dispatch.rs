//! Recursion driver and the public DGEFMM entry points.

use crate::config::{OddHandling, StrassenConfig};
use crate::cutoff::{CutoffCriterion, StopReason};
use crate::schedules::{exec, fused};
use crate::trace;
use crate::trace::add::axpby;
use crate::workspace::{
    evenized, required_workspace, resolve_scheme, with_tls_arena, ResolvedScheme, Workspace,
};
use crate::{pad, peel};
use blas::level2::Op;
use blas::level3::{gemm, GemmAlgo};
use matrix::{MatMut, MatRef, Matrix, Scalar};
use std::time::Instant;

/// Whether this level runs through the fused add-pack /
/// multi-destination kernels: its seven products would all bottom out in
/// conventional GEMMs anyway (their operands are at or below the cutoff
/// for *both* β classes, since the fused products are plain GEMMs rather
/// than `fmm` re-entries), the dimensions are already even, and a
/// blocked kernel — the one the fused kernels are built on — is selected.
/// Under [`GemmAlgo::BlockedParallel`] the fused nest splits its column
/// loop across the pool and stays bitwise equal to the serial nest.
///
/// The decision is a pure function of `cfg` and the problem shape —
/// independent of `parallel_depth` and of the serial/parallel kernel
/// choice, so a parallel run selects exactly the kernels its serial twin
/// would and serial ≡ parallel stays bitwise (a fused leaf reached
/// *inside* a parallel region simply runs inside its product task).
/// [`required_workspace`] consults the same predicate and reserves
/// nothing for a fused level.
pub(crate) fn fuse_last_level(cfg: &StrassenConfig, m: usize, k: usize, n: usize, depth: usize) -> bool {
    if !cfg.fused || !matches!(cfg.gemm.algo, GemmAlgo::Blocked | GemmAlgo::BlockedParallel) {
        return false;
    }
    if m % 2 != 0 || k % 2 != 0 || n % 2 != 0 || m == 0 || k == 0 || n == 0 {
        return false;
    }
    let (m2, k2, n2) = (m / 2, k / 2, n / 2);
    depth + 1 >= cfg.max_depth
        || (cfg.criterion_for(true).should_stop(m2, k2, n2)
            && cfg.criterion_for(false).should_stop(m2, k2, n2))
}

/// The internal fast-matrix-multiply recursion:
/// `C ← α A B + β C` with `op = NoTrans` on both operands.
///
/// `ws` must provide at least
/// [`required_workspace`]`(cfg, m, k, n, beta == 0)` elements.
pub(crate) fn fmm<T: Scalar>(
    cfg: &StrassenConfig,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
    ws: &mut [T],
    depth: usize,
) {
    let (m, k) = (a.nrows(), a.ncols());
    let n = b.ncols();
    debug_assert_eq!(b.nrows(), k);
    debug_assert_eq!(c.nrows(), m);
    debug_assert_eq!(c.ncols(), n);
    let beta_zero = beta == T::ZERO;
    // Records this node's workspace remainder (for the high-water mark)
    // and pins the depth that add passes below attribute to. A no-op
    // behind one thread-local read when no probe is installed.
    let _trace_node = trace::node_guard(depth, ws.len());

    if depth >= cfg.max_depth || cfg.criterion_for(beta_zero).should_stop(m, k, n) {
        if trace::active() {
            // Attribute the leaf to the criterion that fired (by paper
            // equation number); only the depth limit can stop a node the
            // criterion would have recursed.
            let reason = cfg.criterion_for(beta_zero).stop_reason(m, k, n).unwrap_or(StopReason::MaxDepth);
            let start = Instant::now();
            gemm(&cfg.gemm, alpha, Op::NoTrans, a, Op::NoTrans, b, beta, c);
            trace::leaf(depth, m, k, n, beta_zero, reason, start.elapsed().as_nanos() as u64);
        } else {
            gemm(&cfg.gemm, alpha, Op::NoTrans, a, Op::NoTrans, b, beta, c);
        }
        return;
    }

    // The last recursion level fuses the operand/result additions into
    // the leaf GEMMs themselves — no temporaries, no workspace draw. Both
    // variants run the 1969 original form here: Winograd's smaller add
    // count is a property of *temp reuse* (U1 = P1 + P6 shared by three
    // quadrants), which fusion abandons; expanded per quadrant it needs 14
    // destination touches and up to 4-term operand sums, while the
    // original form needs 12 touches and at most 2-term sums.
    if fuse_last_level(cfg, m, k, n, depth) {
        let t = trace::span_timer();
        fused::original_fused(cfg, alpha, a, b, beta, c);
        trace::fused(depth, m, k, n, trace::span_ns(t));
        return;
    }

    let scheme = resolve_scheme(cfg, beta_zero);
    if scheme == ResolvedScheme::OriginalGeneral {
        // Stage D ← α A B with the β=0 original schedule, then fold.
        let (d_buf, rest) = ws.split_at_mut(m * n);
        let mut d = MatMut::from_slice(d_buf, m, n, m.max(1));
        fmm(cfg, alpha, a, b, T::ZERO, d.rb_mut(), rest, depth);
        axpby(T::ONE, d.as_ref(), beta, c);
        return;
    }

    if cfg.odd == OddHandling::StaticPadding && depth == 0 {
        pad::multiply_static_padded(cfg, alpha, a, b, beta, c, ws, depth);
        return;
    }

    if m % 2 != 0 || k % 2 != 0 || n % 2 != 0 {
        match cfg.odd {
            OddHandling::DynamicPeeling => peel::multiply_peeled(cfg, alpha, a, b, beta, c, ws, depth),
            OddHandling::DynamicPeelingFirst => {
                peel::multiply_peeled_first(cfg, alpha, a, b, beta, c, ws, depth)
            }
            OddHandling::DynamicPadding | OddHandling::StaticPadding => {
                pad::multiply_padded(cfg, alpha, a, b, beta, c, ws, depth)
            }
        }
        return;
    }

    trace::split(depth, scheme, m, k, n);
    exec::run(cfg, scheme.program(), alpha, a, b, beta, c, ws, depth);
}

/// Return `op(x)` as a plain view: the input itself for `NoTrans`, or a
/// transposed copy written into `store` for `Trans`.
fn materialize<'a: 't, 't, T: Scalar>(
    op: Op,
    x: MatRef<'a, T>,
    store: &'t mut Option<Matrix<T>>,
) -> MatRef<'t, T> {
    match op {
        Op::NoTrans => x,
        Op::Trans => {
            let mut t = Matrix::zeros(x.ncols(), x.nrows());
            t.as_mut().copy_transposed_from(x);
            store.insert(t).as_ref()
        }
    }
}

/// DGEFMM: `C ← α op(A) op(B) + β C` via Strassen's algorithm — the
/// drop-in replacement for the Level 3 BLAS `GEMM` (paper Section 3.1).
///
/// Workspace comes from a thread-local [`crate::WorkspaceArena`] sized at
/// the Table 1 requirement (plus staging for transposed operands, which
/// are materialized once at entry — the recursion itself always runs on
/// plain views). The arena is grow-only and reused, so after the first
/// call at a given problem size a thread performs no further heap
/// allocation on this path. Use [`dgefmm_with_workspace`] for an
/// explicitly caller-managed arena instead.
///
/// # Example
///
/// Full GEMM semantics — transposed operand, general `α` and `β` —
/// checked against the conventional kernel:
///
/// ```
/// use blas::level3::{gemm, GemmConfig};
/// use blas::Op;
/// use matrix::{norms, random};
/// use strassen::{dgefmm, StrassenConfig};
///
/// let (m, k, n) = (70, 50, 66);
/// let a = random::uniform::<f64>(m, k, 1);
/// let bt = random::uniform::<f64>(n, k, 2); // B stored transposed
/// let c0 = random::uniform::<f64>(m, n, 3);
///
/// let cfg = StrassenConfig::with_square_cutoff(16);
/// let mut c = c0.clone();
/// dgefmm(&cfg, 0.5, Op::NoTrans, a.as_ref(), Op::Trans, bt.as_ref(), 2.0, c.as_mut());
///
/// let mut want = c0.clone();
/// gemm(&GemmConfig::naive(), 0.5, Op::NoTrans, a.as_ref(), Op::Trans, bt.as_ref(), 2.0, want.as_mut());
/// assert!(norms::rel_diff(c.as_ref(), want.as_ref()) < 1e-12);
/// ```
///
/// # Panics
/// On dimension mismatches, like the BLAS `XERBLA` path.
pub fn dgefmm<T: Scalar>(
    cfg: &StrassenConfig,
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    let (m, ka) = op_a.dims(&a);
    let (kb, n) = op_b.dims(&b);
    assert_eq!(ka, kb, "dgefmm: inner dimensions disagree ({ka} vs {kb})");
    assert_eq!(c.nrows(), m, "dgefmm: C has {} rows, expected {m}", c.nrows());
    assert_eq!(c.ncols(), n, "dgefmm: C has {} cols, expected {n}", c.ncols());

    let a_extra = if op_a == Op::Trans { m * ka } else { 0 };
    let b_extra = if op_b == Op::Trans { ka * n } else { 0 };
    let ws_elems = required_workspace(cfg, m, ka, n, beta == T::ZERO);
    let call_timer = trace::active().then(Instant::now);
    with_tls_arena::<T, _>(ws_elems + a_extra + b_extra, |arena, capacity| {
        let (a_buf, rest) = arena.split_at_mut(a_extra);
        let (b_buf, ws) = rest.split_at_mut(b_extra);
        let stage_timer = call_timer.map(|_| Instant::now());
        let a_eff = stage_transposed(op_a, a, a_buf);
        let b_eff = stage_transposed(op_b, b, b_buf);
        let staging_ns = stage_timer.map_or(0, |t| t.elapsed().as_nanos() as u64);
        bracketed_fmm(cfg, alpha, a_eff, b_eff, beta, c, ws, (call_timer, staging_ns, capacity));
    });
}

/// The recursion on plain operands, inside the bracket both entry points
/// record: the probe's `call_start`/`call_end`, and on the caller's
/// timeline lane a `Mark` of arg 0 before the recursion and one of arg 1
/// after it. Pure observation: no effect on scheduling or arithmetic.
/// The last argument is the call's timer (set when a probe is
/// installed), its staging time, and the arena capacity it leaves.
fn bracketed_fmm<T: Scalar>(
    cfg: &StrassenConfig,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
    ws: &mut [T],
    (call_timer, staging_ns, capacity): (Option<Instant>, u64, usize),
) {
    trace::call_start(a.nrows(), a.ncols(), b.ncols(), beta == T::ZERO, ws.len());
    pool::ring::record(pool::ring::EventKind::Mark, 0, 0);
    fmm(cfg, alpha, a, b, beta, c, ws, 0);
    pool::ring::record(pool::ring::EventKind::Mark, 0, 1);
    if let Some(timer) = call_timer {
        trace::call_end(timer.elapsed().as_nanos() as u64, staging_ns, capacity);
    }
}

/// Return `op(x)` as a plain view, writing the transposed copy into
/// `store` (an arena carve-out of exactly `x.len()` elements) when
/// `op = Trans`.
fn stage_transposed<'t, T: Scalar>(op: Op, x: MatRef<'t, T>, store: &'t mut [T]) -> MatRef<'t, T> {
    match op {
        Op::NoTrans => x,
        Op::Trans => {
            let (rows, cols) = (x.ncols(), x.nrows());
            MatMut::from_slice(&mut *store, rows, cols, rows.max(1)).copy_transposed_from(x);
            MatRef::from_slice(store, rows, cols, rows.max(1))
        }
    }
}

/// [`dgefmm`] with a caller-managed workspace (grown if too small).
#[allow(clippy::too_many_arguments)]
pub fn dgefmm_with_workspace<T: Scalar>(
    cfg: &StrassenConfig,
    alpha: T,
    op_a: Op,
    a: MatRef<'_, T>,
    op_b: Op,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
    ws: &mut Workspace<T>,
) {
    let (m, ka) = op_a.dims(&a);
    let (kb, n) = op_b.dims(&b);
    assert_eq!(ka, kb, "dgefmm: inner dimensions disagree ({ka} vs {kb})");
    assert_eq!(c.nrows(), m, "dgefmm: C has {} rows, expected {m}", c.nrows());
    assert_eq!(c.ncols(), n, "dgefmm: C has {} cols, expected {n}", c.ncols());

    let call_timer = trace::active().then(Instant::now);
    let mut a_store = None;
    let mut b_store = None;
    let a_eff = materialize(op_a, a, &mut a_store);
    let b_eff = materialize(op_b, b, &mut b_store);
    let staging_ns = call_timer.map_or(0, |t| t.elapsed().as_nanos() as u64);

    ws.reserve_for(cfg, m, ka, n, beta == T::ZERO);
    let ws = ws.as_mut_slice();
    let capacity = ws.len();
    bracketed_fmm(cfg, alpha, a_eff, b_eff, beta, c, ws, (call_timer, staging_ns, capacity));
}

/// Workspace elements [`dgefmm`] will draw for an `(m, k, n)` product —
/// re-exported convenience over [`crate::workspace::required_workspace`].
pub fn workspace_elements(cfg: &StrassenConfig, m: usize, k: usize, n: usize, beta_zero: bool) -> usize {
    required_workspace(cfg, m, k, n, beta_zero)
}

/// Convenience wrapper computing `C = A · B` (α = 1, β = 0, no transposes)
/// with the default DGEFMM configuration, allocating the result.
pub fn multiply<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let cfg = StrassenConfig::dgefmm();
    let mut c = Matrix::zeros(a.nrows(), b.ncols());
    dgefmm(&cfg, T::ONE, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), T::ZERO, c.as_mut());
    c
}

/// Number of recursion levels the dispatcher will take for an `(m, k, n)`
/// problem (following the peel/pad evenization it would actually do).
pub fn planned_depth(cfg: &StrassenConfig, m: usize, k: usize, n: usize) -> u32 {
    // Uses the primary (β = 0) criterion; with a `cutoff_general` override
    // the β ≠ 0 depth can differ.
    fn go(cfg: &StrassenConfig, m: usize, k: usize, n: usize, depth: usize) -> u32 {
        if depth >= cfg.max_depth || cfg.cutoff.should_stop(m, k, n) {
            return 0;
        }
        let (me, ke, ne) = evenized(cfg, m, k, n);
        1 + go(cfg, me / 2, ke / 2, ne / 2, depth + 1)
    }
    go(cfg, m, k, n, 0)
}

/// The square cutoff `τ` embedded in a criterion, when it has one.
pub fn criterion_tau(c: &CutoffCriterion) -> Option<usize> {
    match *c {
        CutoffCriterion::Simple { tau }
        | CutoffCriterion::HighamScaled { tau }
        | CutoffCriterion::Hybrid { tau, .. } => Some(tau),
        CutoffCriterion::TheoreticalOpCount => Some(12),
        CutoffCriterion::Never => None,
    }
}
