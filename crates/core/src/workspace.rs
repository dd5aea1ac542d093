//! Workspace sizing and allocation for the Strassen schedules.
//!
//! Every schedule draws its temporaries from a single caller-provided
//! arena (`&mut [T]`) by `split_at_mut`, so the *exact* temporary-memory
//! footprint of a configuration is computable up front — that is how the
//! paper's Table 1 numbers become measurable facts here rather than
//! estimates. If a schedule ever tried to use more than
//! [`required_workspace`] returns, the split would panic; the test suite
//! exercises that invariant across shapes and configurations.
//!
//! The footprint is exact for fused configurations too: a level that runs
//! through the fused add-pack kernels draws nothing from the arena, and
//! [`required_workspace`] asks the dispatcher's own fusion predicate, so
//! it reserves nothing for that level (the traced high-water mark equals
//! the requirement for `StrassenConfig::dgefmm()` as for the unfused
//! schedules).

use crate::config::{OddHandling, Scheme, StrassenConfig, Variant};
use crate::dispatch::fuse_last_level;

/// The schedule that will actually execute for a given `β` under a
/// configuration (resolves [`Scheme::Auto`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolvedScheme {
    /// STRASSEN1, `β = 0` form (temporaries `X`, `Y`; products into `C`).
    Strassen1BetaZero,
    /// STRASSEN1, general form (adds four `m/2 × n/2` product temporaries).
    Strassen1General,
    /// STRASSEN2 (Figure 1) — `R1`, `R2`, `R3`.
    Strassen2,
    /// Strassen's original variant, `β = 0` form (`X`, `Y`, `Z`).
    OriginalBetaZero,
    /// Original variant with a full `m × n` staging buffer for `β ≠ 0`.
    OriginalGeneral,
    /// Seven-temporary fully parallelizable Winograd schedule.
    SevenTemp,
    /// Boyer–Dumas–Pernet–Zhou two-temporary schedule, `β = 0` form
    /// (temporaries `X (m/2 × k/2)`, `Y (k/2 × n/2)` only).
    TwoTempBetaZero,
    /// Boyer–Dumas–Pernet–Zhou in-place accumulating schedule: any `β`
    /// with the same two temporaries and no product staging.
    InPlaceAccumulate,
}

/// Resolve which schedule a configuration runs for a given `β`.
///
/// The BDPZ schemes are Winograd-variant schedules; under
/// [`Variant::Original`] they fall back to the original paths like every
/// other scheme.
pub fn resolve_scheme(cfg: &StrassenConfig, beta_zero: bool) -> ResolvedScheme {
    match (cfg.variant, cfg.scheme, beta_zero) {
        (Variant::Original, _, true) => ResolvedScheme::OriginalBetaZero,
        (Variant::Original, _, false) => ResolvedScheme::OriginalGeneral,
        (Variant::Winograd, Scheme::Auto, true) => ResolvedScheme::Strassen1BetaZero,
        (Variant::Winograd, Scheme::Auto, false) => ResolvedScheme::Strassen2,
        (Variant::Winograd, Scheme::Strassen1, true) => ResolvedScheme::Strassen1BetaZero,
        (Variant::Winograd, Scheme::Strassen1, false) => ResolvedScheme::Strassen1General,
        (Variant::Winograd, Scheme::Strassen2, _) => ResolvedScheme::Strassen2,
        (Variant::Winograd, Scheme::SevenTemp, _) => ResolvedScheme::SevenTemp,
        (Variant::Winograd, Scheme::TwoTemp, true) => ResolvedScheme::TwoTempBetaZero,
        (Variant::Winograd, Scheme::TwoTemp, false) => ResolvedScheme::InPlaceAccumulate,
        (Variant::Winograd, Scheme::InPlace, _) => ResolvedScheme::InPlaceAccumulate,
    }
}

/// Temporary elements one recursion level of `scheme` needs, given even
/// dimensions `(m, k, n)` (so quadrants are `m/2 × k/2` etc.): each temporary of its
/// program at the largest shape it is used at, plus the `m × n` buffer
/// the general original variant stages its `β = 0` run into.
pub fn per_level_elements(scheme: ResolvedScheme, m: usize, k: usize, n: usize) -> usize {
    let staged = if scheme == ResolvedScheme::OriginalGeneral { m * n } else { 0 };
    staged + scheme.program().workspace_elements(m, k, n)
}

/// Round each dimension down (peeling) or up (padding) to an even one,
/// as the configured odd-handling will do at runtime.
pub(crate) fn evenized(cfg: &StrassenConfig, m: usize, k: usize, n: usize) -> (usize, usize, usize) {
    match cfg.odd {
        OddHandling::DynamicPeeling | OddHandling::DynamicPeelingFirst => (m & !1, k & !1, n & !1),
        OddHandling::DynamicPadding | OddHandling::StaticPadding => {
            (m.next_multiple_of(2), k.next_multiple_of(2), n.next_multiple_of(2))
        }
    }
}

/// Exact arena elements needed by `dgefmm` for an `(m, k, n)` product
/// with the given configuration and `β` class.
///
/// Mirrors the dispatch recursion: 0 below the cutoff and for a level
/// that runs fused (checked in the same places `fmm` checks it: on the
/// problem as given, and again on the peeled or padded core), otherwise
/// the current level's temporaries plus the worst-case requirement of its
/// recursive sub-products (which all share, sequentially, the same tail
/// of the arena — except [`Scheme::SevenTemp`] within `parallel_depth`,
/// where the seven sub-products need *simultaneous* sub-arenas). The
/// temporaries and the children's β classes are read from the level's
/// program.
pub fn required_workspace(cfg: &StrassenConfig, m: usize, k: usize, n: usize, beta_zero: bool) -> usize {
    required_at_depth(cfg, m, k, n, beta_zero, 0)
}

fn required_at_depth(
    cfg: &StrassenConfig,
    m: usize,
    k: usize,
    n: usize,
    beta_zero: bool,
    depth: usize,
) -> usize {
    if depth >= cfg.max_depth || cfg.criterion_for(beta_zero).should_stop(m, k, n) {
        return 0;
    }
    // A fused level draws nothing from the arena; `fmm` takes that path
    // before staging, padding or peeling.
    if fuse_last_level(cfg, m, k, n, depth) {
        return 0;
    }
    let scheme = resolve_scheme(cfg, beta_zero);
    if scheme == ResolvedScheme::OriginalGeneral {
        // β≠0 original variant: stage `D ← α A B` (full m×n, before any
        // evenization) then `C ← D + β C`; the staged run is β=0.
        return m * n + required_at_depth(cfg, m, k, n, true, depth);
    }
    if cfg.odd == OddHandling::StaticPadding && depth == 0 {
        // Pad once up front to multiples of 2^d, then run with dynamic
        // padding as the (normally never-triggered) fallback — exactly
        // what the runtime path does.
        let unit = 1 << static_padding_depth_for(cfg, m, k, n, beta_zero);
        let inner = StrassenConfig { odd: OddHandling::DynamicPadding, ..*cfg };
        return required_at_depth(
            &inner,
            m.next_multiple_of(unit),
            k.next_multiple_of(unit),
            n.next_multiple_of(unit),
            beta_zero,
            depth,
        );
    }
    let (me, ke, ne) = evenized(cfg, m, k, n);
    // The peeled core (or padded copy) re-enters `fmm` at the same depth,
    // where it can take the fused path the odd shape could not.
    if (me, ke, ne) != (m, k, n) && fuse_last_level(cfg, me, ke, ne, depth) {
        return 0;
    }
    let prog = scheme.program();
    let per = prog.workspace_elements(me, ke, ne);
    let (m2, k2, n2) = (me / 2, ke / 2, ne / 2);
    // Sub-products share the arena tail one at a time. A program whose
    // children span both β classes sizes for the larger (a
    // `cutoff_general` override can let either class recurse deeper).
    let (zero_children, general_children) = prog.child_mix(beta_zero);
    let sub = [(zero_children, true), (general_children, false)]
        .into_iter()
        .filter(|&(count, _)| count > 0)
        .map(|(_, bz)| required_at_depth(cfg, m2, k2, n2, bz, depth + 1))
        .max()
        .unwrap_or(0);
    // A level run as a task DAG gives each product its own share.
    if prog.runs_as_dag(cfg, depth) {
        per + prog.rank() * sub
    } else {
        per + sub
    }
}

/// Extra *owned* elements the padding strategies copy into (outside the
/// arena): per level, padded copies of the operand blocks. Estimated
/// under the primary (β = 0) criterion; a `cutoff_general` override can
/// shift the β ≠ 0 copy count slightly.
pub fn padding_copy_elements(cfg: &StrassenConfig, m: usize, k: usize, n: usize) -> usize {
    match cfg.odd {
        OddHandling::DynamicPeeling | OddHandling::DynamicPeelingFirst => 0,
        OddHandling::DynamicPadding => {
            if cfg.cutoff.should_stop(m, k, n) {
                return 0;
            }
            let (me, ke, ne) = evenized(cfg, m, k, n);
            let here = if (me, ke, ne) == (m, k, n) {
                0
            } else {
                // A, B, and C copies at the padded size.
                me * ke + ke * ne + me * ne
            };
            here + padding_copy_elements(cfg, me / 2, ke / 2, ne / 2)
        }
        OddHandling::StaticPadding => {
            let d = static_padding_depth(cfg, m, k, n);
            if d == 0 {
                return 0;
            }
            let unit = 1 << d;
            let (mp, kp, np) = (m.next_multiple_of(unit), k.next_multiple_of(unit), n.next_multiple_of(unit));
            if (mp, kp, np) == (m, k, n) {
                0
            } else {
                mp * kp + kp * np + mp * np
            }
        }
    }
}

/// Planned recursion depth for static padding: halve (with ceiling) until
/// the cutoff fires (primary, β = 0, criterion).
pub fn static_padding_depth(cfg: &StrassenConfig, m: usize, k: usize, n: usize) -> u32 {
    static_padding_depth_for(cfg, m, k, n, true)
}

/// [`static_padding_depth`] under the criterion for the given `β` class.
pub fn static_padding_depth_for(cfg: &StrassenConfig, m: usize, k: usize, n: usize, beta_zero: bool) -> u32 {
    let crit = cfg.criterion_for(beta_zero);
    let (mut a, mut b, mut c) = (m, k, n);
    let mut d = 0;
    while !crit.should_stop(a, b, c) {
        a = a.div_ceil(2);
        b = b.div_ceil(2);
        c = c.div_ceil(2);
        d += 1;
    }
    d
}

/// Total temporary elements (arena + padding copies) — the quantity
/// Table 1 compares across implementations.
pub fn total_temp_elements(cfg: &StrassenConfig, m: usize, k: usize, n: usize, beta_zero: bool) -> usize {
    required_workspace(cfg, m, k, n, beta_zero) + padding_copy_elements(cfg, m, k, n)
}

/// An owned arena to run `dgefmm` repeatedly without reallocating.
#[derive(Debug)]
pub struct Workspace<T> {
    buf: Vec<T>,
}

impl<T: matrix::Scalar> Workspace<T> {
    /// Arena sized exactly for one `(m, k, n)` product under `cfg`.
    pub fn for_problem(cfg: &StrassenConfig, m: usize, k: usize, n: usize, beta_zero: bool) -> Self {
        Self { buf: vec![T::ZERO; required_workspace(cfg, m, k, n, beta_zero)] }
    }

    /// Arena with an explicit element count.
    pub fn with_len(len: usize) -> Self {
        Self { buf: vec![T::ZERO; len] }
    }

    /// Grow (never shrink) to cover a new problem.
    pub fn reserve_for(&mut self, cfg: &StrassenConfig, m: usize, k: usize, n: usize, beta_zero: bool) {
        let need = required_workspace(cfg, m, k, n, beta_zero);
        if self.buf.len() < need {
            self.buf.resize(need, T::ZERO);
        }
    }

    /// Number of elements in the arena.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when the arena holds no elements.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The raw arena passed to the schedules.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.buf
    }
}

/// A grow-only, word-backed arena reused across [`crate::dgefmm`] calls.
///
/// The backing store is `u64` words reinterpreted as the element type on
/// loan-out: any bit pattern is a valid `f32`/`f64`, the 8-byte alignment
/// covers both, and every schedule writes its temporaries before reading
/// them, so lending out stale contents is sound. One arena lives in a
/// thread-local slot (inspect it with [`tls_arena_capacity_elements`]);
/// after the first call at a given problem size, subsequent calls on the
/// same thread perform **no heap allocation** on the Strassen path.
#[derive(Debug, Default)]
pub struct WorkspaceArena {
    words: Vec<u64>,
}

impl WorkspaceArena {
    /// An empty arena (no allocation until first use).
    pub const fn new() -> Self {
        Self { words: Vec::new() }
    }

    fn words_for<T>(len: usize) -> usize {
        (len * std::mem::size_of::<T>()).div_ceil(std::mem::size_of::<u64>())
    }

    /// Elements of `T` the arena currently holds capacity for — the
    /// number the Table 1 bound tests compare against.
    pub fn capacity_elements<T: matrix::Scalar>(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>() / std::mem::size_of::<T>()
    }

    /// Borrow `len` elements of scratch, growing (exactly, never
    /// doubling) if the arena is too small. Contents are unspecified.
    pub fn slice_for<T: matrix::Scalar>(&mut self, len: usize) -> &mut [T] {
        const {
            assert!(std::mem::size_of::<T>() <= std::mem::size_of::<u64>());
            assert!(std::mem::align_of::<T>() <= std::mem::align_of::<u64>());
        }
        let need = Self::words_for::<T>(len);
        if self.words.len() < need {
            self.words.reserve_exact(need - self.words.len());
            self.words.resize(need, 0);
        }
        // SAFETY: the buffer holds at least `need` words; T fits a u64
        // word in size and alignment (checked above) and accepts any bit
        // pattern (Scalar is implemented for f32/f64 only).
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<T>(), len) }
    }
}

thread_local! {
    static TLS_ARENA: std::cell::Cell<WorkspaceArena> =
        const { std::cell::Cell::new(WorkspaceArena::new()) };
}

/// Run `f` with `len` elements of scratch from this thread's arena and
/// the arena's capacity once it holds them (what
/// [`tls_arena_capacity_elements`] reports after the call). The
/// take/put-back protocol makes reentrant calls safe (an inner call just
/// sees an empty arena and allocates its own, which is then kept).
pub(crate) fn with_tls_arena<T: matrix::Scalar, R>(len: usize, f: impl FnOnce(&mut [T], usize) -> R) -> R {
    let mut arena = TLS_ARENA.with(std::cell::Cell::take);
    arena.slice_for::<T>(len);
    let capacity = arena.capacity_elements::<T>();
    let out = f(arena.slice_for::<T>(len), capacity);
    TLS_ARENA.with(|slot| slot.set(arena));
    out
}

/// Element capacity of this thread's `dgefmm` arena — test hook for the
/// Table 1 bound and reuse guarantees.
pub fn tls_arena_capacity_elements<T: matrix::Scalar>() -> usize {
    let arena = TLS_ARENA.with(std::cell::Cell::take);
    let cap = arena.capacity_elements::<T>();
    TLS_ARENA.with(|slot| slot.set(arena));
    cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cutoff::CutoffCriterion;

    fn cfg_tau(tau: usize) -> StrassenConfig {
        StrassenConfig::dgefmm().cutoff(CutoffCriterion::Simple { tau })
    }

    #[test]
    fn below_cutoff_needs_nothing() {
        let cfg = cfg_tau(64);
        assert_eq!(required_workspace(&cfg, 64, 64, 64, true), 0);
        assert_eq!(required_workspace(&cfg, 10, 2000, 2000, false), 0);
    }

    #[test]
    fn square_beta_zero_matches_paper_bound() {
        // STRASSEN1 β=0 total ≤ (m·max(k,n) + kn)/3 = 2m²/3 square.
        let cfg = cfg_tau(8);
        for m in [64usize, 128, 256, 512] {
            let need = required_workspace(&cfg, m, m, m, true);
            let bound = opcount::memory::strassen1_bound(m as u128, m as u128, m as u128, true);
            assert!(need as f64 <= bound + 1.0, "m={m}: {need} > {bound}");
            // And the bound is tight: within 5% once depth is deep.
            assert!(need as f64 > 0.90 * bound, "m={m}: {need} ≪ {bound}");
        }
    }

    #[test]
    fn square_general_matches_paper_bound() {
        // STRASSEN2 total ≤ (mk + kn + mn)/3 = m² square.
        let cfg = cfg_tau(8);
        for m in [64usize, 128, 256] {
            let need = required_workspace(&cfg, m, m, m, false);
            let bound = opcount::memory::strassen2_bound(m as u128, m as u128, m as u128);
            assert!(need as f64 <= bound + 1.0, "m={m}: {need} > {bound}");
            assert!(need as f64 > 0.90 * bound, "m={m}");
        }
    }

    #[test]
    fn rectangular_bounds_hold() {
        let cfg = cfg_tau(8);
        for &(m, k, n) in &[(96usize, 64usize, 160usize), (48, 256, 32), (100, 50, 75)] {
            let s1 = required_workspace(&cfg, m, k, n, true);
            let b1 = opcount::memory::strassen1_bound(m as u128, k as u128, n as u128, true);
            assert!(s1 as f64 <= b1 + 1.0, "({m},{k},{n}) β=0: {s1} > {b1}");
            let s2 = required_workspace(&cfg, m, k, n, false);
            let b2 = opcount::memory::strassen2_bound(m as u128, k as u128, n as u128);
            assert!(s2 as f64 <= b2 + 1.0, "({m},{k},{n}) β≠0: {s2} > {b2}");
        }
    }

    #[test]
    fn strassen1_general_needs_more_than_strassen2() {
        let cfg1 = cfg_tau(8).scheme(Scheme::Strassen1);
        let cfg2 = cfg_tau(8).scheme(Scheme::Strassen2);
        let m = 128;
        let g1 = required_workspace(&cfg1, m, m, m, false);
        let g2 = required_workspace(&cfg2, m, m, m, false);
        assert!(g1 > g2, "{g1} <= {g2}");
        // STRASSEN1 general ≤ 2m² (Table 1).
        assert!(g1 as f64 <= 2.0 * (m * m) as f64);
    }

    #[test]
    fn seven_temp_parallel_multiplies_children() {
        let base = cfg_tau(16).scheme(Scheme::SevenTemp);
        let serial = required_workspace(&base, 128, 128, 128, true);
        let par = {
            let mut c = base;
            c.parallel_depth = 1;
            required_workspace(&c, 128, 128, 128, true)
        };
        assert!(par > serial, "{par} <= {serial}");
    }

    #[test]
    fn peeling_copies_nothing_padding_copies_something() {
        let peel = cfg_tau(8);
        assert_eq!(padding_copy_elements(&peel, 101, 101, 101), 0);
        let pad = cfg_tau(8).odd(OddHandling::DynamicPadding);
        assert!(padding_copy_elements(&pad, 101, 101, 101) > 0);
        // Already even at every level: no copies either way.
        assert_eq!(padding_copy_elements(&pad, 64, 64, 64), 0);
        let spad = cfg_tau(8).odd(OddHandling::StaticPadding);
        assert!(padding_copy_elements(&spad, 101, 101, 101) > 0);
    }

    #[test]
    fn static_padding_depth_matches_simple_cutoff() {
        let cfg = cfg_tau(16);
        assert_eq!(static_padding_depth(&cfg, 16, 16, 16), 0);
        assert_eq!(static_padding_depth(&cfg, 17, 17, 17), 1);
        assert_eq!(static_padding_depth(&cfg, 128, 128, 128), 3);
    }

    #[test]
    fn workspace_allocates_exact_size() {
        let cfg = cfg_tau(8);
        let ws = Workspace::<f64>::for_problem(&cfg, 100, 100, 100, false);
        assert_eq!(ws.len(), required_workspace(&cfg, 100, 100, 100, false));
    }

    #[test]
    fn arena_grows_exactly_and_reuses() {
        let mut arena = WorkspaceArena::new();
        assert_eq!(arena.capacity_elements::<f64>(), 0);
        {
            let s = arena.slice_for::<f64>(100);
            assert_eq!(s.len(), 100);
            s.fill(1.0);
        }
        assert_eq!(arena.capacity_elements::<f64>(), 100);
        // A smaller request must not shrink or reallocate.
        let _ = arena.slice_for::<f64>(10);
        assert_eq!(arena.capacity_elements::<f64>(), 100);
        // f32 sees twice the element capacity of the same words.
        assert_eq!(arena.capacity_elements::<f32>(), 200);
    }

    #[test]
    fn tls_arena_roundtrip_and_reentrancy() {
        let outer = with_tls_arena::<f64, _>(64, |ws, capacity| {
            ws.fill(2.0);
            assert!(capacity >= 64);
            // Reentrant use sees a fresh arena, not the borrowed one.
            with_tls_arena::<f64, _>(16, |inner, _| inner.fill(3.0));
            ws.iter().sum::<f64>()
        });
        assert_eq!(outer, 128.0);
        assert!(tls_arena_capacity_elements::<f64>() >= 16);
    }

    #[test]
    fn reserve_grows_monotonically() {
        let cfg = cfg_tau(8);
        let mut ws = Workspace::<f64>::for_problem(&cfg, 32, 32, 32, true);
        let small = ws.len();
        ws.reserve_for(&cfg, 256, 256, 256, false);
        assert!(ws.len() > small);
        let big = ws.len();
        ws.reserve_for(&cfg, 32, 32, 32, true);
        assert_eq!(ws.len(), big);
    }
}
