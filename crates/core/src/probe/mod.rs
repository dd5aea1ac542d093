//! The probe seam: zero-cost-when-off instrumentation of the recursion.
//!
//! Every structural event in a DGEFMM call — recursion nodes, leaf GEMMs
//! with the cutoff criterion that fired (paper eqs. (7)/(11)/(12)/(15)),
//! elementwise add passes (the `G` operations of Section 2), dynamic-
//! peeling fixups (eq. (9)), padded multiplies, and workspace draw — can
//! be observed through the [`Probe`] trait. The default implementation of
//! every method is empty, and the dispatcher consults a thread-local
//! `active` flag before constructing any event, so with no probe
//! installed the hot path pays one branch per kernel call and nothing
//! else (`bench_quick` guards this at ≤ 1% on the n = 512 target).
//!
//! Install a probe for the duration of a closure with
//! [`crate::trace::with_probe`], or use [`crate::trace::capture`] to
//! collect a ready-made [`Trace`] aggregate:
//!
//! ```
//! use strassen::{trace, CutoffCriterion, StrassenConfig};
//! use matrix::random;
//!
//! let cfg = StrassenConfig::dgefmm().cutoff(CutoffCriterion::Simple { tau: 16 }).fused(false);
//! let a = random::uniform::<f64>(64, 64, 1);
//! let b = random::uniform::<f64>(64, 64, 2);
//! let (_c, trace) = trace::capture(|| {
//!     let mut c = matrix::Matrix::zeros(64, 64);
//!     strassen::dgefmm(
//!         &cfg,
//!         1.0,
//!         blas::Op::NoTrans,
//!         a.as_ref(),
//!         blas::Op::NoTrans,
//!         b.as_ref(),
//!         0.0,
//!         c.as_mut(),
//!     );
//!     c
//! });
//! assert_eq!(trace.gemm_calls(), 49); // two recursion levels: 7²
//! assert_eq!(trace.max_depth(), 2);
//! ```
//!
//! The counters a [`TraceProbe`] collects are *exact*: the crate's test
//! suite cross-checks them at runtime against the closed forms of
//! Section 2 (eqs. (2)–(5)) and the Table 1 memory bounds — see
//! `tests/probe_crosscheck.rs`.
//!
//! # Limitations
//!
//! The probe is installed per thread. Recursive products spawned onto the
//! worker pool by the seven-temporary schedule (`parallel_depth > 0`) run
//! with no probe installed, so their events are not observed; trace-exact
//! comparisons should use serial configurations. The fused last-level
//! kernels bypass the temp-based schedules entirely and are reported as
//! [`FusedEvent`]s (node counts), not as per-product leaf events; use
//! [`crate::StrassenConfig::fused`]`(false)` when comparing against the
//! analytic model, which describes the classic schedules.

pub mod hw;
pub mod json;
mod record;
pub mod report;
mod timed;
pub mod timeline;

pub use record::{LevelStats, StopCounts, Trace, TraceProbe};
pub use timed::{LevelProfile, Phase, PhaseAgg, Profile, Span, TimedProbe};

use crate::cutoff::StopReason;
use crate::workspace::ResolvedScheme;

/// Start of one traced [`crate::dgefmm`] / [`crate::dgefmm_with_workspace`]
/// call.
#[derive(Clone, Copy, Debug)]
pub struct CallStart {
    /// Output rows of `op(A)`.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Output columns of `op(B)`.
    pub n: usize,
    /// Whether the call is in the `β = 0` class.
    pub beta_zero: bool,
    /// Workspace elements offered to the recursion root.
    pub ws_root: usize,
}

/// End of a traced call, emitted after the workspace arena is released
/// (so [`CallEnd::arena_capacity`] reflects any growth the call caused).
#[derive(Clone, Copy, Debug)]
pub struct CallEnd {
    /// Total wall time of the call in nanoseconds.
    pub total_ns: u64,
    /// Nanoseconds spent staging transposed operands before the recursion.
    pub staging_ns: u64,
    /// Workspace elements offered to the recursion root.
    pub ws_root: usize,
    /// High-water mark: the largest cumulative workspace draw observed on
    /// any root-to-node path, in elements. Always ≤ [`CallEnd::ws_root`],
    /// and bounded by the Table 1 formulas.
    pub ws_high_water: usize,
    /// Capacity of the workspace arena after the call, in elements.
    pub arena_capacity: usize,
}

/// A recursion node applying one of the 2×2 computation schedules.
#[derive(Clone, Copy, Debug)]
pub struct SplitEvent {
    /// Recursion depth of the node (root = 0).
    pub depth: usize,
    /// The schedule carrying out this split.
    pub scheme: ResolvedScheme,
    /// Node output rows.
    pub m: usize,
    /// Node inner dimension.
    pub k: usize,
    /// Node output columns.
    pub n: usize,
}

/// A recursion leaf: one conventional GEMM below the cutoff.
#[derive(Clone, Copy, Debug)]
pub struct LeafEvent {
    /// Recursion depth of the leaf.
    pub depth: usize,
    /// Leaf output rows.
    pub m: usize,
    /// Leaf inner dimension.
    pub k: usize,
    /// Leaf output columns.
    pub n: usize,
    /// Whether the leaf runs in the `β = 0` class (`2mkn − mn` flops in
    /// the Section 2 model) or as a multiply-accumulate (`2mkn`).
    pub beta_zero: bool,
    /// Which cutoff criterion stopped the recursion here.
    pub reason: StopReason,
    /// Wall time of the leaf GEMM in nanoseconds.
    pub ns: u64,
}

/// One recursion level run through the fused add-pack kernels (no
/// workspace draw, no separate add passes).
#[derive(Clone, Copy, Debug)]
pub struct FusedEvent {
    /// Recursion depth of the fused node.
    pub depth: usize,
    /// Node output rows.
    pub m: usize,
    /// Node inner dimension.
    pub k: usize,
    /// Node output columns.
    pub n: usize,
    /// Wall time of the fused node (packing and write-back included) in
    /// nanoseconds.
    pub ns: u64,
}

/// Classification of an elementwise pass over a matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassKind {
    /// A `G` operation in the paper's model: one add/subtract per element.
    Add,
    /// A data-movement pass (e.g. `axpby` with `β = 0`): no adds.
    Copy,
    /// A `β`-scaling pass (`C ← βC`): one multiply per element, no adds.
    Scale,
}

/// One elementwise pass over a `rows × cols` destination.
#[derive(Clone, Copy, Debug)]
pub struct AddPassEvent {
    /// Recursion depth of the node the pass belongs to.
    pub depth: usize,
    /// Destination rows.
    pub rows: usize,
    /// Destination columns.
    pub cols: usize,
    /// What the pass does per element.
    pub kind: PassKind,
    /// Wall time of the pass in nanoseconds.
    pub ns: u64,
}

/// Which Level-1/2 BLAS kernel a dynamic-peeling fixup used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FixupKind {
    /// Rank-one update for an odd inner dimension (`DGER`).
    Ger,
    /// Matrix-vector product for an odd `m` or `n` (`DGEMV`).
    Gemv,
    /// Corner dot product when both `m` and `n` are odd.
    Dot,
    /// Thin GEMM strip for a non-⟨2,2,2⟩ family residue (up to
    /// `fm−1`/`fk−1`/`fn−1` rows or columns wide).
    Strip,
}

/// One dynamic-peeling fixup (paper eq. (9)).
#[derive(Clone, Copy, Debug)]
pub struct PeelEvent {
    /// Recursion depth of the peeled node.
    pub depth: usize,
    /// The fixup kernel.
    pub kind: FixupKind,
    /// Wall time of the fixup kernel in nanoseconds.
    pub ns: u64,
}

/// One padded multiply: operands copied into zero-padded scratch, the
/// valid region copied back afterwards.
#[derive(Clone, Copy, Debug)]
pub struct PadEvent {
    /// Recursion depth of the padded node.
    pub depth: usize,
    /// Elements of padded scratch allocated (`m̂k̂ + k̂n̂ + m̂n̂`).
    pub elems: usize,
    /// Nanoseconds spent staging the zero-padded operand copies (the
    /// valid-region copy back to `C` is a separately traced pass).
    pub ns: u64,
}

/// Observer of the DGEFMM recursion.
///
/// Every method has an empty default body, so an implementation only
/// overrides the events it cares about. Events are delivered on the
/// thread that executes the recursion, in execution order. A probe must
/// **not** re-enter traced routines (`dgefmm` and friends) from inside a
/// callback; the thread-local probe slot is borrowed during delivery.
pub trait Probe: std::any::Any {
    /// A traced top-level call is starting.
    fn call_start(&mut self, _ev: &CallStart) {}
    /// A traced top-level call finished.
    fn call_end(&mut self, _ev: &CallEnd) {}
    /// A recursion node split into seven sub-products.
    fn split(&mut self, _ev: &SplitEvent) {}
    /// A recursion leaf ran as a conventional GEMM.
    fn leaf(&mut self, _ev: &LeafEvent) {}
    /// A node ran through the fused add-pack kernels.
    fn fused(&mut self, _ev: &FusedEvent) {}
    /// An elementwise add/copy/scale pass executed.
    fn add_pass(&mut self, _ev: &AddPassEvent) {}
    /// A dynamic-peeling fixup executed.
    fn peel_fixup(&mut self, _ev: &PeelEvent) {}
    /// A padded multiply staged its operands.
    fn pad_copy(&mut self, _ev: &PadEvent) {}
}

/// The do-nothing probe: every event is dropped.
///
/// Installing it exercises the full event-construction path without
/// recording anything — `bench_quick` uses it to measure the seam's
/// worst-case overhead.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {}
