//! The wall-clock profiling probe: per-node spans aggregated into a
//! [`Profile`].
//!
//! PR 3's [`TraceProbe`] answers *what* the recursion did — exact flop
//! counts, criteria census, workspace draw. This module answers *where
//! the time went*: every timed event the dispatcher emits (leaf GEMMs,
//! elementwise passes, fused add-pack nodes, peeling fixups, pad staging
//! copies) becomes a span attributed to a recursion level and a
//! [`Phase`], and the aggregate combines those nanoseconds with the exact
//! flop counts to report **effective GFLOP/s per phase** — the
//! measurement the paper's Section 3.4 argument rests on (add passes are
//! bandwidth-bound, GEMM leaves compute-bound, so the crossover must be
//! measured, not derived).
//!
//! All spans are measured with the monotonic [`std::time::Instant`]
//! clock by the dispatcher itself; the probe only files the reported
//! nanoseconds. The aggregation is O(levels × phases) memory. An
//! optional bounded span log ([`TimedProbe::with_span_log`]) keeps
//! individual spans for ad-hoc inspection; when the cap is hit the
//! overflow is *counted* ([`Profile::spans_dropped`]), never silently
//! discarded.
//!
//! The probe's overhead is measured, not gated: the benchmark reports an
//! installed [`TimedProbe`]'s cost over the untraced call as
//! `strassen.trace_overhead`. The execution-timeline recorder has its
//! own 5% gate (`examples/timeline_trace.rs`, step 11 of
//! `scripts/verify.sh`); the uninstalled hot path's 1% NoopProbe budget
//! is enforced by nothing (see DESIGN.md §9).

use super::hw::{HwCounters, HwProfile, HwSample};
use super::{
    AddPassEvent, CallEnd, CallStart, FusedEvent, LeafEvent, PadEvent, PassKind, PeelEvent, Probe,
    SplitEvent, Trace, TraceProbe,
};
use std::fmt::Write as _;

/// The phases wall time is attributed to, one per timed event kind.
///
/// The first two phases carry the Section 2 model flops (`M` terms for
/// leaves, `G` terms for add passes); the rest are data movement or
/// fixups the model prices at zero flops, which is exactly why their
/// *time* must be measured separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Conventional GEMM at a recursion leaf.
    GemmLeaf,
    /// Elementwise add/subtract pass (the paper's `G` operations).
    Add,
    /// Pure data-movement pass (`axpby` with `β = 0`).
    Copy,
    /// `β`-scaling pass (`C ← βC`).
    Scale,
    /// Fused add-pack node: packing, multiply, and multi-destination
    /// write-back of one (or two) flattened recursion levels.
    Fused,
    /// Dynamic-peeling fixup kernel (`GER`/`GEMV`/dot, eq. (9)).
    Peel,
    /// Zero-padded operand staging copy for a padded multiply.
    Pad,
}

impl Phase {
    /// Every phase, in rendering order.
    pub const ALL: [Phase; 7] =
        [Phase::GemmLeaf, Phase::Add, Phase::Copy, Phase::Scale, Phase::Fused, Phase::Peel, Phase::Pad];

    /// Stable snake_case label, used by the JSON schema and the
    /// folded-stacks export.
    pub fn label(self) -> &'static str {
        match self {
            Phase::GemmLeaf => "gemm_leaf",
            Phase::Add => "add_pass",
            Phase::Copy => "copy_pass",
            Phase::Scale => "scale_pass",
            Phase::Fused => "fused_pack",
            Phase::Peel => "peel_fixup",
            Phase::Pad => "pad_copy",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::GemmLeaf => 0,
            Phase::Add => 1,
            Phase::Copy => 2,
            Phase::Scale => 3,
            Phase::Fused => 4,
            Phase::Peel => 5,
            Phase::Pad => 6,
        }
    }
}

/// Aggregate of one phase at one recursion level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Spans filed into this cell.
    pub count: u64,
    /// Total wall nanoseconds of those spans.
    pub ns: u64,
    /// Section 2 model flops of those spans (non-zero only for
    /// [`Phase::GemmLeaf`] and [`Phase::Add`]).
    pub flops: u128,
}

impl PhaseAgg {
    fn file(&mut self, ns: u64, flops: u128) {
        self.count += 1;
        self.ns += ns;
        self.flops += flops;
    }
}

/// Per-phase aggregates for one recursion depth.
#[derive(Clone, Copy, Debug, Default)]
pub struct LevelProfile {
    phases: [PhaseAgg; 7],
}

impl LevelProfile {
    /// The aggregate for `phase` at this level.
    pub fn phase(&self, phase: Phase) -> PhaseAgg {
        self.phases[phase.index()]
    }

    /// Total attributed nanoseconds at this level.
    pub fn ns(&self) -> u64 {
        self.phases.iter().map(|p| p.ns).sum()
    }
}

/// One retained span from the optional span log.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Recursion depth the span belongs to.
    pub depth: usize,
    /// What the span measured.
    pub phase: Phase,
    /// Wall nanoseconds.
    pub ns: u64,
}

/// Aggregated wall-clock profile of one or more DGEFMM calls.
///
/// Produced by [`TimedProbe`] (usually via [`crate::trace::profile`]).
/// The embedded [`Trace`] carries PR 3's exact structural counters; the
/// per-level [`LevelProfile`]s carry this PR's independently accumulated
/// time and flop attribution. The two layers observe the same event
/// stream, so [`Profile::model_flops`] must equal
/// [`Trace::total_flops`] — `tests/profile_json.rs` pins that.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// The exact structural trace recorded alongside the spans.
    pub trace: Trace,
    /// Per-depth, per-phase aggregates, indexed by recursion depth.
    pub levels: Vec<LevelProfile>,
    /// Retained spans, oldest first (empty unless a span log was
    /// requested via [`TimedProbe::with_span_log`]).
    pub spans: Vec<Span>,
    /// Spans that arrived after the span log hit its cap.
    pub spans_dropped: u64,
    /// Per-phase hardware-counter attribution, present only when the
    /// probe was built with [`TimedProbe::with_hw_counters`] *and* the
    /// counters actually opened (see [`super::hw`]).
    pub hw: Option<HwProfile>,
}

impl Profile {
    fn level_mut(&mut self, depth: usize) -> &mut LevelProfile {
        if self.levels.len() <= depth {
            self.levels.resize_with(depth + 1, LevelProfile::default);
        }
        &mut self.levels[depth]
    }

    /// Aggregate of `phase` summed over all levels.
    pub fn phase_total(&self, phase: Phase) -> PhaseAgg {
        let mut total = PhaseAgg::default();
        for level in &self.levels {
            let p = level.phase(phase);
            total.count += p.count;
            total.ns += p.ns;
            total.flops += p.flops;
        }
        total
    }

    /// Nanoseconds attributed to any phase (excludes operand staging and
    /// dispatch overhead).
    pub fn attributed_ns(&self) -> u64 {
        Phase::ALL.iter().map(|&p| self.phase_total(p).ns).sum()
    }

    /// Unattributed remainder: total call time minus staging minus every
    /// phase — recursion dispatch, workspace bookkeeping, probe seams.
    pub fn other_ns(&self) -> u64 {
        self.trace.total_ns.saturating_sub(self.trace.staging_ns + self.attributed_ns())
    }

    /// Total Section 2 model flops accumulated by the *timing* layer
    /// (leaf `M` terms plus add-pass `G` terms). Independent of the
    /// embedded trace's accounting, and must equal
    /// [`Trace::total_flops`] exactly.
    pub fn model_flops(&self) -> u128 {
        Phase::ALL.iter().map(|&p| self.phase_total(p).flops).sum()
    }

    /// Effective GFLOP/s of `phase` (model flops over measured wall
    /// time). `None` when the phase carries no model flops or recorded
    /// zero nanoseconds.
    pub fn phase_gflops(&self, phase: Phase) -> Option<f64> {
        let p = self.phase_total(phase);
        if p.flops == 0 || p.ns == 0 {
            return None;
        }
        Some(p.flops as f64 / p.ns as f64)
    }

    /// Per-level × per-phase wall-time table (milliseconds), with a
    /// trailing per-level total column.
    pub fn per_level_markdown(&self) -> String {
        let mut out = String::from("| depth |");
        for phase in Phase::ALL {
            let _ = write!(out, " {} |", phase.label());
        }
        out.push_str(" level total |\n|---|");
        out.push_str(&"---|".repeat(Phase::ALL.len() + 1));
        for (depth, level) in self.levels.iter().enumerate() {
            let _ = write!(out, "\n| {depth} |");
            for phase in Phase::ALL {
                let _ = write!(out, " {} |", ms(level.phase(phase).ns));
            }
            let _ = write!(out, " {} |", ms(level.ns()));
        }
        out.push('\n');
        out
    }

    /// Phase summary: span counts, wall time, share of the total, model
    /// flops, and effective GFLOP/s — the per-phase breakdown the BLIS
    /// Strassen analysis argues from.
    pub fn phase_markdown(&self) -> String {
        let total = self.trace.total_ns.max(1);
        let share = |ns: u64| format!("{:.1}%", 100.0 * ns as f64 / total as f64);
        let mut out = String::from(
            "| phase | spans | time (ms) | share | model flops | eff. GFLOP/s |\n|---|---|---|---|---|---|",
        );
        for phase in Phase::ALL {
            let p = self.phase_total(phase);
            let gflops = self.phase_gflops(phase).map_or("—".to_string(), |g| format!("{g:.3}"));
            let _ = write!(
                out,
                "\n| {} | {} | {} | {} | {} | {} |",
                phase.label(),
                p.count,
                ms(p.ns),
                share(p.ns),
                p.flops,
                gflops,
            );
        }
        for (label, ns) in [("operand staging", self.trace.staging_ns), ("other (dispatch)", self.other_ns())]
        {
            let _ = write!(out, "\n| {label} | — | {} | {} | — | — |", ms(ns), share(ns));
        }
        let _ = write!(out, "\n| **total** | — | **{}** | 100.0% | — | — |", ms(self.trace.total_ns));
        out.push('\n');
        out
    }

    /// Folded-stacks rendering consumable by standard flamegraph tooling
    /// (`flamegraph.pl`, speedscope, inferno): one line per non-empty
    /// `(level, phase)` cell, frames separated by `;`, the measured
    /// nanoseconds as the trailing count. A span at depth `d` is rendered
    /// under the full `L0;…;Ld` ancestry so levels nest like real stacks;
    /// staging and the unattributed remainder hang off the root. Line
    /// values therefore sum to [`Trace::total_ns`].
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        if self.trace.staging_ns > 0 {
            let _ = writeln!(out, "dgefmm;staging {}", self.trace.staging_ns);
        }
        if self.other_ns() > 0 {
            let _ = writeln!(out, "dgefmm;dispatch {}", self.other_ns());
        }
        for (depth, level) in self.levels.iter().enumerate() {
            let mut ancestry = String::from("dgefmm");
            for d in 0..=depth {
                let _ = write!(ancestry, ";L{d}");
            }
            for phase in Phase::ALL {
                let p = level.phase(phase);
                if p.ns > 0 {
                    let _ = writeln!(out, "{ancestry};{} {}", phase.label(), p.ns);
                }
            }
        }
        out
    }
}

/// Milliseconds with three decimals, the rendering convention of the
/// report tables.
fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// A [`Probe`] that files every timed event into a [`Profile`] while an
/// inner [`TraceProbe`] keeps the exact structural counters.
///
/// Both layers observe the same event stream, so the profile's flop
/// accounting can never drift from the trace's — the invariant
/// `profile.model_flops() == profile.trace.total_flops()` is pinned by
/// `tests/profile_json.rs` and the `trace::profile` doc-test.
#[derive(Clone, Debug, Default)]
pub struct TimedProbe {
    inner: TraceProbe,
    profile: Profile,
    span_cap: usize,
    hw: Option<HwSession>,
}

/// Live hardware-counter session: the open counters plus the cumulative
/// reading at the previous attribution boundary.
#[derive(Clone, Debug)]
struct HwSession {
    counters: std::sync::Arc<HwCounters>,
    last: HwSample,
}

impl TimedProbe {
    /// Aggregation-only recorder (no span log): O(levels × phases)
    /// memory however long the traced region runs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recorder that additionally retains up to `cap` individual spans;
    /// later spans are counted in [`Profile::spans_dropped`] instead of
    /// growing the log without bound.
    pub fn with_span_log(cap: usize) -> Self {
        TimedProbe { span_cap: cap, ..Self::default() }
    }

    /// Recorder that additionally samples hardware counters
    /// ([`super::hw`]) at every timed event, attributing the delta since
    /// the previous event to the finishing phase. When the counters
    /// cannot open (non-Linux, `perf_event_paranoid`, containers) the
    /// probe behaves exactly like [`TimedProbe::new`] and
    /// [`Profile::hw`] stays `None`.
    pub fn with_hw_counters() -> Self {
        let mut probe = Self::default();
        if let Some(counters) = HwCounters::try_new() {
            let last = counters.read();
            probe.profile.hw = Some(HwProfile::default());
            probe.hw = Some(HwSession { counters: std::sync::Arc::new(counters), last });
        }
        probe
    }

    /// Consume the recorder, yielding the aggregated profile (with the
    /// inner trace moved into [`Profile::trace`]).
    pub fn into_profile(mut self) -> Profile {
        self.profile.trace = self.inner.into_trace();
        self.profile
    }

    /// Read the counters, return the delta since the previous boundary,
    /// and advance the boundary. No-op `None` without a live session.
    fn hw_delta(&mut self) -> Option<HwSample> {
        let sess = self.hw.as_mut()?;
        let now = sess.counters.read();
        let delta = now.delta(&sess.last);
        sess.last = now;
        Some(delta)
    }

    fn file(&mut self, depth: usize, phase: Phase, ns: u64, flops: u128) {
        if let Some(delta) = self.hw_delta() {
            if let Some(hw) = self.profile.hw.as_mut() {
                hw.file(phase, &delta);
                hw.total.add(&delta);
            }
        }
        self.profile.level_mut(depth).phases[phase.index()].file(ns, flops);
        if self.profile.spans.len() < self.span_cap {
            self.profile.spans.push(Span { depth, phase, ns });
        } else if self.span_cap > 0 {
            self.profile.spans_dropped += 1;
        }
    }
}

impl Probe for TimedProbe {
    fn call_start(&mut self, ev: &CallStart) {
        self.inner.call_start(ev);
        // Open a fresh attribution window: counts accumulated between
        // calls belong to no phase.
        let _ = self.hw_delta();
    }

    fn call_end(&mut self, ev: &CallEnd) {
        self.inner.call_end(ev);
        // Trailing dispatch/write-back since the last span: total-only.
        if let Some(delta) = self.hw_delta() {
            if let Some(hw) = self.profile.hw.as_mut() {
                hw.total.add(&delta);
            }
        }
    }

    fn split(&mut self, ev: &SplitEvent) {
        self.inner.split(ev);
    }

    fn leaf(&mut self, ev: &LeafEvent) {
        self.inner.leaf(ev);
        let (m, k, n) = (ev.m as u128, ev.k as u128, ev.n as u128);
        let flops = 2 * m * k * n - if ev.beta_zero { m * n } else { 0 };
        self.file(ev.depth, Phase::GemmLeaf, ev.ns, flops);
    }

    fn fused(&mut self, ev: &FusedEvent) {
        self.inner.fused(ev);
        self.file(ev.depth, Phase::Fused, ev.ns, 0);
    }

    fn add_pass(&mut self, ev: &AddPassEvent) {
        self.inner.add_pass(ev);
        let (phase, flops) = match ev.kind {
            PassKind::Add => (Phase::Add, (ev.rows * ev.cols) as u128),
            PassKind::Copy => (Phase::Copy, 0),
            PassKind::Scale => (Phase::Scale, 0),
        };
        self.file(ev.depth, phase, ev.ns, flops);
    }

    fn peel_fixup(&mut self, ev: &PeelEvent) {
        self.inner.peel_fixup(ev);
        self.file(ev.depth, Phase::Peel, ev.ns, 0);
    }

    fn pad_copy(&mut self, ev: &PadEvent) {
        self.inner.pad_copy(ev);
        self.file(ev.depth, Phase::Pad, ev.ns, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::FixupKind;

    fn leaf_ev(depth: usize, n: usize, ns: u64) -> LeafEvent {
        LeafEvent { depth, m: n, k: n, n, beta_zero: true, reason: crate::cutoff::StopReason::Simple, ns }
    }

    #[test]
    fn aggregates_by_level_and_phase() {
        let mut p = TimedProbe::new();
        p.leaf(&leaf_ev(1, 4, 100));
        p.leaf(&leaf_ev(1, 4, 50));
        p.add_pass(&AddPassEvent { depth: 0, rows: 4, cols: 4, kind: PassKind::Add, ns: 10 });
        p.add_pass(&AddPassEvent { depth: 0, rows: 4, cols: 4, kind: PassKind::Copy, ns: 5 });
        p.peel_fixup(&PeelEvent { depth: 0, kind: FixupKind::Ger, ns: 7 });
        let profile = p.into_profile();

        let gemm = profile.phase_total(Phase::GemmLeaf);
        assert_eq!(gemm.count, 2);
        assert_eq!(gemm.ns, 150);
        assert_eq!(gemm.flops, 2 * (2 * 64 - 16));
        assert_eq!(profile.phase_total(Phase::Add).flops, 16);
        assert_eq!(profile.phase_total(Phase::Copy).ns, 5);
        assert_eq!(profile.phase_total(Phase::Peel).count, 1);
        assert_eq!(profile.attributed_ns(), 150 + 10 + 5 + 7);
        // Both accounting layers saw the same events.
        assert_eq!(profile.model_flops(), profile.trace.total_flops());
    }

    #[test]
    fn span_log_caps_and_counts_drops() {
        let mut p = TimedProbe::with_span_log(2);
        for i in 0..5 {
            p.leaf(&leaf_ev(0, 2, i));
        }
        let profile = p.into_profile();
        assert_eq!(profile.spans.len(), 2);
        assert_eq!(profile.spans_dropped, 3);
        // Aggregation is unaffected by the cap.
        assert_eq!(profile.phase_total(Phase::GemmLeaf).count, 5);
    }

    #[test]
    fn folded_lines_sum_to_total() {
        let mut p = TimedProbe::new();
        p.leaf(&leaf_ev(2, 4, 120));
        p.add_pass(&AddPassEvent { depth: 1, rows: 4, cols: 4, kind: PassKind::Add, ns: 30 });
        let mut profile = p.into_profile();
        profile.trace.total_ns = 200;
        profile.trace.staging_ns = 20;

        let folded = profile.folded_stacks();
        let mut sum = 0u64;
        for line in folded.lines() {
            let (frames, ns) = line.rsplit_once(' ').expect("folded line has a count");
            assert!(frames.starts_with("dgefmm"));
            sum += ns.parse::<u64>().expect("count parses");
        }
        assert_eq!(sum, 200, "folded values must cover the whole call");
        assert!(folded.contains("dgefmm;L0;L1;L2;gemm_leaf 120"));
        assert!(folded.contains("dgefmm;L0;L1;add_pass 30"));
        assert!(folded.contains("dgefmm;staging 20"));
        assert!(folded.contains("dgefmm;dispatch 30"), "other = 200 - 20 - 150");
    }

    #[test]
    fn markdown_tables_render() {
        let mut p = TimedProbe::new();
        p.leaf(&leaf_ev(0, 8, 2_000_000));
        let mut profile = p.into_profile();
        profile.trace.total_ns = 2_500_000;
        let t = profile.phase_markdown();
        assert!(t.contains("| gemm_leaf | 1 |"));
        assert!(t.contains("eff. GFLOP/s"));
        let l = profile.per_level_markdown();
        assert!(l.starts_with("| depth |"));
        assert!(l.contains("| 0 |"));
    }
}
