//! The recording probe: aggregates events into per-level counters.

use super::{
    AddPassEvent, CallEnd, CallStart, FixupKind, FusedEvent, LeafEvent, PadEvent, PassKind, PeelEvent, Probe,
    SplitEvent,
};
use crate::counts::CallCounts;
use crate::cutoff::StopReason;

/// Per-reason leaf counts: which cutoff criterion (by paper equation
/// number) turned recursion nodes into conventional GEMMs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StopCounts {
    /// Leaves forced by the hard floor (a dimension below 4).
    pub hard_floor: u64,
    /// Leaves forced by [`crate::StrassenConfig::max_depth`].
    pub max_depth: u64,
    /// Leaves from the simple criterion, eq. (11).
    pub simple: u64,
    /// Leaves from Higham's scaled criterion, eq. (12).
    pub higham: u64,
    /// Leaves from the theoretical op-count criterion, eq. (7).
    pub theoretical: u64,
    /// Leaves from the paper's hybrid criterion, eq. (15).
    pub hybrid: u64,
}

impl StopCounts {
    fn bump(&mut self, reason: StopReason) {
        match reason {
            StopReason::HardFloor => self.hard_floor += 1,
            StopReason::MaxDepth => self.max_depth += 1,
            StopReason::Simple => self.simple += 1,
            StopReason::HighamScaled => self.higham += 1,
            StopReason::TheoreticalOpCount => self.theoretical += 1,
            StopReason::Hybrid => self.hybrid += 1,
        }
    }

    /// Total leaves across all reasons.
    pub fn total(&self) -> u64 {
        self.hard_floor + self.max_depth + self.simple + self.higham + self.theoretical + self.hybrid
    }

    /// Compact rendering like `eq. (11)×7` for the report tables.
    pub fn summary(&self) -> String {
        let parts: Vec<String> = [
            (self.simple, StopReason::Simple),
            (self.higham, StopReason::HighamScaled),
            (self.theoretical, StopReason::TheoreticalOpCount),
            (self.hybrid, StopReason::Hybrid),
            (self.hard_floor, StopReason::HardFloor),
            (self.max_depth, StopReason::MaxDepth),
        ]
        .iter()
        .filter(|(count, _)| *count > 0)
        .map(|(count, reason)| format!("{}×{count}", reason.paper_label()))
        .collect();
        if parts.is_empty() {
            "—".to_string()
        } else {
            parts.join(", ")
        }
    }
}

/// Aggregated counters for one recursion depth.
#[derive(Clone, Copy, Debug, Default)]
pub struct LevelStats {
    /// Nodes at this depth that applied a 2×2 schedule.
    pub splits: u64,
    /// Nodes at this depth flattened through the fused kernels.
    pub fused_nodes: u64,
    /// Conventional-GEMM leaves at this depth.
    pub leaf_gemms: u64,
    /// Model flops of the leaves: `2mkn − mn` per `β = 0` leaf, `2mkn`
    /// per multiply-accumulate leaf (Section 2's `M(m, k, n)`).
    pub mul_flops: u128,
    /// Elementwise add/subtract passes (the paper's `G` operations).
    pub add_passes: u64,
    /// Model flops of the add passes: destination elements, one add each.
    pub add_flops: u128,
    /// Pure data-movement passes (e.g. `axpby` with `β = 0`).
    pub copy_passes: u64,
    /// `β`-scaling passes (`C ← βC` ahead of accumulation schedules).
    pub scale_passes: u64,
    /// Dynamic-peeling rank-one (`GER`) fixups.
    pub ger_fixups: u64,
    /// Dynamic-peeling matrix-vector (`GEMV`) fixups.
    pub gemv_fixups: u64,
    /// Dynamic-peeling corner dot-product fixups.
    pub dot_fixups: u64,
    /// Padded multiplies staged at this depth.
    pub pad_multiplies: u64,
    /// Elements of padded scratch allocated at this depth.
    pub pad_elems: u64,
    /// Why the leaves at this depth stopped, by criterion.
    pub stops: StopCounts,
    /// Nanoseconds spent in leaf GEMMs at this depth.
    pub gemm_ns: u64,
    /// Nanoseconds spent in add/copy/scale passes at this depth.
    pub add_ns: u64,
    /// Nanoseconds spent in fused add-pack nodes at this depth.
    pub fused_ns: u64,
    /// Nanoseconds spent in dynamic-peeling fixup kernels at this depth.
    pub peel_ns: u64,
    /// Nanoseconds spent staging zero-padded operand copies at this depth.
    pub pad_ns: u64,
}

/// A complete aggregated trace of one or more DGEFMM calls.
///
/// Produced by [`TraceProbe`] (usually via [`crate::trace::capture`]).
/// All counters are exact mirrors of what the recursion executed; the
/// workspace and timing fields aggregate across calls (maximum for the
/// workspace marks, sum for the times).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Traced top-level calls.
    pub calls: u64,
    /// Per-depth counters, indexed by recursion depth.
    pub levels: Vec<LevelStats>,
    /// Workspace elements offered to the recursion root (max over calls).
    pub ws_root: usize,
    /// Workspace high-water mark in elements (max over calls): the
    /// largest cumulative draw on any root-to-node path. Cross-checked
    /// against the Table 1 bounds in `tests/probe_crosscheck.rs`.
    pub ws_high_water: usize,
    /// Workspace arena capacity after the last call, in elements.
    pub arena_capacity: usize,
    /// Nanoseconds staging transposed operands (sum over calls).
    pub staging_ns: u64,
    /// Total nanoseconds inside traced calls (sum over calls).
    pub total_ns: u64,
}

impl Trace {
    fn level_mut(&mut self, depth: usize) -> &mut LevelStats {
        if self.levels.len() <= depth {
            self.levels.resize_with(depth + 1, LevelStats::default);
        }
        &mut self.levels[depth]
    }

    /// Conventional GEMM calls at the recursion leaves.
    pub fn gemm_calls(&self) -> u64 {
        self.levels.iter().map(|l| l.leaf_gemms).sum()
    }

    /// Recursion nodes that applied a 2×2 schedule.
    pub fn splits(&self) -> u64 {
        self.levels.iter().map(|l| l.splits).sum()
    }

    /// Nodes flattened through the fused add-pack kernels.
    pub fn fused_nodes(&self) -> u64 {
        self.levels.iter().map(|l| l.fused_nodes).sum()
    }

    /// Elementwise add/subtract passes (the paper's `G` operations).
    pub fn add_passes(&self) -> u64 {
        self.levels.iter().map(|l| l.add_passes).sum()
    }

    /// Pure data-movement passes.
    pub fn copy_passes(&self) -> u64 {
        self.levels.iter().map(|l| l.copy_passes).sum()
    }

    /// `β`-scaling passes.
    pub fn scale_passes(&self) -> u64 {
        self.levels.iter().map(|l| l.scale_passes).sum()
    }

    /// `GER` fixups from dynamic peeling.
    pub fn ger_calls(&self) -> u64 {
        self.levels.iter().map(|l| l.ger_fixups).sum()
    }

    /// `GEMV` fixups from dynamic peeling.
    pub fn gemv_calls(&self) -> u64 {
        self.levels.iter().map(|l| l.gemv_fixups).sum()
    }

    /// Corner dot-product fixups from dynamic peeling.
    pub fn dot_calls(&self) -> u64 {
        self.levels.iter().map(|l| l.dot_fixups).sum()
    }

    /// Padded multiplies staged (dynamic/static padding only).
    pub fn pad_copies(&self) -> u64 {
        self.levels.iter().map(|l| l.pad_multiplies).sum()
    }

    /// Model flops of the leaf GEMMs (Section 2's `M` terms).
    pub fn mul_flops(&self) -> u128 {
        self.levels.iter().map(|l| l.mul_flops).sum()
    }

    /// Model flops of the add passes (Section 2's `G` terms).
    pub fn add_flops(&self) -> u128 {
        self.levels.iter().map(|l| l.add_flops).sum()
    }

    /// Total model flops, `Σ M + Σ G` — the quantity eqs. (2)–(5) give in
    /// closed form, compared exactly in `tests/probe_crosscheck.rs`.
    pub fn total_flops(&self) -> u128 {
        self.mul_flops() + self.add_flops()
    }

    /// Deepest recursion level that executed a leaf GEMM.
    pub fn max_depth(&self) -> u32 {
        self.levels.iter().rposition(|l| l.leaf_gemms > 0).unwrap_or(0) as u32
    }

    /// The trace's counters in [`CallCounts`] form, directly comparable
    /// with [`crate::counts::predict`] (classic schedules only — compare
    /// runs with [`crate::StrassenConfig::fused`]`(false)`).
    pub fn call_counts(&self) -> CallCounts {
        CallCounts {
            gemm_calls: self.gemm_calls(),
            ger_calls: self.ger_calls(),
            gemv_calls: self.gemv_calls(),
            dot_calls: self.dot_calls(),
            add_passes: self.add_passes(),
            splits: self.splits(),
            pad_copies: self.pad_copies(),
            max_depth: self.max_depth(),
        }
    }
}

/// A [`Probe`] that aggregates every event into a [`Trace`].
#[derive(Clone, Debug, Default)]
pub struct TraceProbe {
    trace: Trace,
}

impl TraceProbe {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow the trace collected so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consume the recorder, yielding the collected trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl Probe for TraceProbe {
    fn call_start(&mut self, ev: &CallStart) {
        self.trace.calls += 1;
        self.trace.ws_root = self.trace.ws_root.max(ev.ws_root);
    }

    fn call_end(&mut self, ev: &CallEnd) {
        self.trace.total_ns += ev.total_ns;
        self.trace.staging_ns += ev.staging_ns;
        self.trace.ws_high_water = self.trace.ws_high_water.max(ev.ws_high_water);
        self.trace.arena_capacity = self.trace.arena_capacity.max(ev.arena_capacity);
    }

    fn split(&mut self, ev: &SplitEvent) {
        self.trace.level_mut(ev.depth).splits += 1;
    }

    fn leaf(&mut self, ev: &LeafEvent) {
        let level = self.trace.level_mut(ev.depth);
        level.leaf_gemms += 1;
        level.gemm_ns += ev.ns;
        level.stops.bump(ev.reason);
        let (m, k, n) = (ev.m as u128, ev.k as u128, ev.n as u128);
        level.mul_flops += 2 * m * k * n - if ev.beta_zero { m * n } else { 0 };
    }

    fn fused(&mut self, ev: &FusedEvent) {
        let level = self.trace.level_mut(ev.depth);
        level.fused_nodes += 1;
        level.fused_ns += ev.ns;
    }

    fn add_pass(&mut self, ev: &AddPassEvent) {
        let level = self.trace.level_mut(ev.depth);
        level.add_ns += ev.ns;
        match ev.kind {
            PassKind::Add => {
                level.add_passes += 1;
                level.add_flops += (ev.rows * ev.cols) as u128;
            }
            PassKind::Copy => level.copy_passes += 1,
            PassKind::Scale => level.scale_passes += 1,
        }
    }

    fn peel_fixup(&mut self, ev: &PeelEvent) {
        let level = self.trace.level_mut(ev.depth);
        level.peel_ns += ev.ns;
        match ev.kind {
            FixupKind::Ger => level.ger_fixups += 1,
            FixupKind::Gemv => level.gemv_fixups += 1,
            FixupKind::Dot => level.dot_fixups += 1,
        }
    }

    fn pad_copy(&mut self, ev: &PadEvent) {
        let level = self.trace.level_mut(ev.depth);
        level.pad_multiplies += 1;
        level.pad_elems += ev.elems as u64;
        level.pad_ns += ev.ns;
    }
}
