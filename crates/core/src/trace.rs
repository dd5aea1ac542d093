//! Thread-local installation of a [`Probe`] and the emit plumbing the
//! dispatcher uses.
//!
//! The recursion never holds a probe reference; it asks this facade. The
//! facade keeps a thread-local `ACTIVE` flag (one `Cell` read — the whole
//! cost of the seam when tracing is off) plus the installed probe box,
//! the current recursion depth (so elementwise kernels deep inside a
//! schedule know which level to attribute a pass to), and the workspace
//! high-water cells. [`with_probe`] installs a probe for the duration of
//! a closure and returns it with whatever it recorded; [`capture`] is the
//! common case, returning a ready [`Trace`].
//!
//! ```
//! use strassen::probe::NoopProbe;
//! use strassen::trace;
//!
//! let (sum, _probe) = trace::with_probe(NoopProbe, || 2 + 2);
//! assert_eq!(sum, 4);
//! ```

use crate::cutoff::StopReason;
use crate::probe::{
    AddPassEvent, CallEnd, CallStart, FixupKind, FusedEvent, LeafEvent, PadEvent, PassKind, PeelEvent, Probe,
    Profile, SplitEvent, TimedProbe, Trace, TraceProbe,
};
use crate::workspace::ResolvedScheme;
use std::cell::{Cell, RefCell};
use std::time::Instant;

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SLOT: RefCell<Option<Box<dyn Probe>>> = const { RefCell::new(None) };
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static WS_ROOT: Cell<usize> = const { Cell::new(0) };
    static WS_MIN: Cell<usize> = const { Cell::new(0) };
}

/// Is a probe installed on this thread?
///
/// This is the branch the hot path pays when tracing is off.
#[inline]
pub(crate) fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Install `probe` on this thread for the duration of `f`, then return
/// `f`'s result together with the probe and everything it recorded.
///
/// Nested calls stack: the previous probe (if any) is restored when `f`
/// returns, and also if it panics. Work spawned onto other threads inside
/// `f` (the seven-temp parallel schedule) is not observed.
pub fn with_probe<P: Probe, R>(probe: P, f: impl FnOnce() -> R) -> (R, P) {
    let prev = SLOT.with(|s| s.borrow_mut().replace(Box::new(probe)));
    let prev_active = ACTIVE.with(|a| a.replace(true));

    struct Restore {
        prev: Option<Box<dyn Probe>>,
        prev_active: bool,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            SLOT.with(|s| *s.borrow_mut() = self.prev.take());
            ACTIVE.with(|a| a.set(self.prev_active));
        }
    }
    let restore = Restore { prev, prev_active };
    let out = f();
    let mine = SLOT.with(|s| s.borrow_mut().take()).expect("probe slot emptied during traced region");
    drop(restore);
    let any: Box<dyn std::any::Any> = mine;
    let probe = *any.downcast::<P>().expect("probe type preserved across traced region");
    (out, probe)
}

/// Run `f` with a recording probe installed and return its result plus
/// the aggregated [`Trace`].
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    let (out, probe) = with_probe(TraceProbe::new(), f);
    (out, probe.into_trace())
}

/// Run `f` with a [`TimedProbe`] installed and return its result plus
/// the aggregated wall-clock [`Profile`].
///
/// ```
/// use strassen::{trace, CutoffCriterion, StrassenConfig};
/// use matrix::random;
///
/// let cfg = StrassenConfig::dgefmm().cutoff(CutoffCriterion::Simple { tau: 16 }).fused(false);
/// let a = random::uniform::<f64>(64, 64, 1);
/// let b = random::uniform::<f64>(64, 64, 2);
/// let (_c, profile) = trace::profile(|| {
///     let mut c = matrix::Matrix::zeros(64, 64);
///     strassen::dgefmm(
///         &cfg,
///         1.0,
///         blas::Op::NoTrans,
///         a.as_ref(),
///         blas::Op::NoTrans,
///         b.as_ref(),
///         0.0,
///         c.as_mut(),
///     );
///     c
/// });
/// // The profile's flop accounting agrees with the exact trace.
/// assert_eq!(profile.model_flops(), profile.trace.total_flops());
/// ```
pub fn profile<R>(f: impl FnOnce() -> R) -> (R, Profile) {
    let (out, probe) = with_probe(TimedProbe::new(), f);
    (out, probe.into_profile())
}

/// Deliver an event to the installed probe, if any.
fn emit(f: impl FnOnce(&mut dyn Probe)) {
    SLOT.with(|s| {
        if let Some(probe) = s.borrow_mut().as_mut() {
            f(probe.as_mut());
        }
    });
}

pub(crate) fn call_start(m: usize, k: usize, n: usize, beta_zero: bool, ws_root: usize) {
    if !active() {
        return;
    }
    WS_ROOT.with(|c| c.set(ws_root));
    WS_MIN.with(|c| c.set(ws_root));
    emit(|p| p.call_start(&CallStart { m, k, n, beta_zero, ws_root }));
}

pub(crate) fn call_end(total_ns: u64, staging_ns: u64, arena_capacity: usize) {
    if !active() {
        return;
    }
    let ws_root = WS_ROOT.with(|c| c.get());
    let ws_min = WS_MIN.with(|c| c.get());
    emit(|p| {
        p.call_end(&CallEnd {
            total_ns,
            staging_ns,
            ws_root,
            ws_high_water: ws_root - ws_min,
            arena_capacity,
        })
    });
}

/// Scope marker for one `fmm` node: records the workspace remaining at
/// entry (the high-water mark is the root offer minus the minimum seen)
/// and pins the thread's current depth for add-pass attribution,
/// restoring it on drop.
pub(crate) struct NodeGuard {
    prev_depth: Option<usize>,
}

impl Drop for NodeGuard {
    fn drop(&mut self) {
        if let Some(depth) = self.prev_depth {
            DEPTH.with(|c| c.set(depth));
        }
    }
}

pub(crate) fn node_guard(depth: usize, ws_remaining: usize) -> NodeGuard {
    if !active() {
        return NodeGuard { prev_depth: None };
    }
    WS_MIN.with(|c| c.set(c.get().min(ws_remaining)));
    let prev_depth = DEPTH.with(|c| c.replace(depth));
    NodeGuard { prev_depth: Some(prev_depth) }
}

pub(crate) fn split(depth: usize, scheme: ResolvedScheme, m: usize, k: usize, n: usize) {
    if !active() {
        return;
    }
    emit(|p| p.split(&SplitEvent { depth, scheme, m, k, n }));
}

pub(crate) fn leaf(depth: usize, m: usize, k: usize, n: usize, beta_zero: bool, reason: StopReason, ns: u64) {
    if !active() {
        return;
    }
    emit(|p| p.leaf(&LeafEvent { depth, m, k, n, beta_zero, reason, ns }));
}

pub(crate) fn fused(depth: usize, m: usize, k: usize, n: usize, ns: u64) {
    if !active() {
        return;
    }
    emit(|p| p.fused(&FusedEvent { depth, m, k, n, ns }));
}

pub(crate) fn peel(depth: usize, kind: FixupKind, ns: u64) {
    if !active() {
        return;
    }
    emit(|p| p.peel_fixup(&PeelEvent { depth, kind, ns }));
}

pub(crate) fn pad_copy(depth: usize, elems: usize, ns: u64) {
    if !active() {
        return;
    }
    emit(|p| p.pad_copy(&PadEvent { depth, elems, ns }));
}

/// Start a span timer only when a probe is installed (timing an event
/// nobody observes would be pure overhead).
pub(crate) fn span_timer() -> Option<Instant> {
    active().then(Instant::now)
}

/// Nanoseconds since `t`, or 0 for the probe-off `None` case.
pub(crate) fn span_ns(t: Option<Instant>) -> u64 {
    t.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// Traced drop-ins for the elementwise kernels the schedules use.
///
/// Same names and signatures as [`blas::add`] (plus
/// [`blas::level3::scale_in_place`]), so a schedule opts into tracing by
/// changing only its `use` line. When no probe is installed each wrapper
/// is the underlying kernel behind one predictable branch; when one is,
/// the pass is timed and attributed to the current recursion depth.
pub(crate) mod add {
    use super::{emit, AddPassEvent, Instant, PassKind, DEPTH};
    use matrix::{MatMut, MatRef, Scalar};

    fn pass(kind: PassKind, rows: usize, cols: usize, f: impl FnOnce()) {
        let start = Instant::now();
        f();
        let ns = start.elapsed().as_nanos() as u64;
        let depth = DEPTH.with(|c| c.get());
        emit(|p| p.add_pass(&AddPassEvent { depth, rows, cols, kind, ns }));
    }

    pub(crate) fn add_into<T: Scalar>(c: MatMut<'_, T>, a: MatRef<'_, T>, b: MatRef<'_, T>) {
        if !super::active() {
            return blas::add::add_into(c, a, b);
        }
        let (rows, cols) = (c.nrows(), c.ncols());
        pass(PassKind::Add, rows, cols, || blas::add::add_into(c, a, b));
    }

    pub(crate) fn sub_into<T: Scalar>(c: MatMut<'_, T>, a: MatRef<'_, T>, b: MatRef<'_, T>) {
        if !super::active() {
            return blas::add::sub_into(c, a, b);
        }
        let (rows, cols) = (c.nrows(), c.ncols());
        pass(PassKind::Add, rows, cols, || blas::add::sub_into(c, a, b));
    }

    pub(crate) fn add_into_scaled<T: Scalar>(c: MatMut<'_, T>, alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>) {
        if !super::active() {
            return blas::add::add_into_scaled(c, alpha, a, b);
        }
        let (rows, cols) = (c.nrows(), c.ncols());
        pass(PassKind::Add, rows, cols, || blas::add::add_into_scaled(c, alpha, a, b));
    }

    pub(crate) fn sub_into_scaled<T: Scalar>(c: MatMut<'_, T>, alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>) {
        if !super::active() {
            return blas::add::sub_into_scaled(c, alpha, a, b);
        }
        let (rows, cols) = (c.nrows(), c.ncols());
        pass(PassKind::Add, rows, cols, || blas::add::sub_into_scaled(c, alpha, a, b));
    }

    pub(crate) fn accum<T: Scalar>(c: MatMut<'_, T>, a: MatRef<'_, T>) {
        if !super::active() {
            return blas::add::accum(c, a);
        }
        let (rows, cols) = (c.nrows(), c.ncols());
        pass(PassKind::Add, rows, cols, || blas::add::accum(c, a));
    }

    pub(crate) fn accum_sub<T: Scalar>(c: MatMut<'_, T>, a: MatRef<'_, T>) {
        if !super::active() {
            return blas::add::accum_sub(c, a);
        }
        let (rows, cols) = (c.nrows(), c.ncols());
        pass(PassKind::Add, rows, cols, || blas::add::accum_sub(c, a));
    }

    pub(crate) fn rsub_into<T: Scalar>(c: MatMut<'_, T>, a: MatRef<'_, T>) {
        if !super::active() {
            return blas::add::rsub_into(c, a);
        }
        let (rows, cols) = (c.nrows(), c.ncols());
        pass(PassKind::Add, rows, cols, || blas::add::rsub_into(c, a));
    }

    /// `axpby` with `β = 0` never reads `C` — it is a scaled copy, not a
    /// `G` operation — so it is classified [`PassKind::Copy`].
    pub(crate) fn axpby<T: Scalar>(alpha: T, a: MatRef<'_, T>, beta: T, c: MatMut<'_, T>) {
        if !super::active() {
            return blas::add::axpby(alpha, a, beta, c);
        }
        let kind = if beta == T::ZERO { PassKind::Copy } else { PassKind::Add };
        let (rows, cols) = (c.nrows(), c.ncols());
        pass(kind, rows, cols, || blas::add::axpby(alpha, a, beta, c));
    }

    /// `C ← βC`; a no-op for `β = 1` (nothing is emitted), otherwise a
    /// [`PassKind::Scale`] pass.
    pub(crate) fn scale_in_place<T: Scalar>(beta: T, c: MatMut<'_, T>) {
        if !super::active() || beta == T::ONE {
            return blas::level3::scale_in_place(beta, c);
        }
        let (rows, cols) = (c.nrows(), c.ncols());
        pass(PassKind::Scale, rows, cols, || blas::level3::scale_in_place(beta, c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoopProbe;

    #[test]
    fn inactive_by_default() {
        assert!(!active());
    }

    #[test]
    fn with_probe_scopes_activation() {
        let ((), _probe) = with_probe(NoopProbe, || {
            assert!(active());
            let ((), _inner) = with_probe(TraceProbe::new(), || assert!(active()));
            assert!(active(), "outer probe restored after nested region");
        });
        assert!(!active());
    }

    #[test]
    fn probe_restored_after_panic() {
        let caught = std::panic::catch_unwind(|| {
            let _ = with_probe(NoopProbe, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert!(!active(), "panic unwound through with_probe must deactivate tracing");
    }
}
