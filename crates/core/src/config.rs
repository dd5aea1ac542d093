//! Configuration of the DGEFMM routine: variant, schedule, odd-dimension
//! handling, cutoff criterion, and base GEMM kernel.

use crate::cutoff::CutoffCriterion;
use blas::GemmConfig;

/// Which 2×2 fast-multiplication construction to recurse with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Winograd's variant: 7 multiplies, 15 adds (the paper's default).
    Winograd,
    /// Strassen's original 1969 construction: 7 multiplies, 18 adds
    /// (used by the CRAY SGEMMS comparator and the eq. (5) validations).
    Original,
}

impl Variant {
    /// Every variant, for config-space sweeps and the differential fuzzer.
    pub const ALL: [Variant; 2] = [Variant::Winograd, Variant::Original];
}

/// The recursion's base case: always the paper's ⟨2,2,2⟩ split. It has
/// one value and is kept only because the benchmark harness reads
/// [`StrassenConfig::family`]; nothing in the library branches on it.
/// The rectangular families it once selected were measured slower than
/// ⟨2,2,2⟩ and deleted (DESIGN.md §13).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Winograd's (or Strassen's) ⟨2,2,2⟩ : 7 split.
    F222,
}

/// Which computation schedule carries out the recursion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's DGEFMM policy: STRASSEN1 when `β = 0`, else STRASSEN2.
    Auto,
    /// Force STRASSEN1 (low-memory when `β = 0`; for `β ≠ 0` it computes
    /// into four extra `m/2 × n/2` temporaries — paper Section 3.2).
    Strassen1,
    /// Force STRASSEN2 (Figure 1): three temporaries, multiply-accumulate
    /// recursion, minimum possible memory in the general case.
    Strassen2,
    /// Seven-temporary schedule whose products are independent, executed
    /// as tasks on the in-tree thread pool (`parallel future work` of
    /// Section 5). Trades memory for task parallelism.
    SevenTemp,
}

impl Scheme {
    /// Every schedule, for config-space sweeps and the differential
    /// fuzzer.
    pub const ALL: [Scheme; 4] = [Scheme::Auto, Scheme::Strassen1, Scheme::Strassen2, Scheme::SevenTemp];
}

/// How odd dimensions are made even at each recursion level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OddHandling {
    /// The paper's method: strip the *last* odd row/column, recurse on
    /// the even core, fix up with `GER`/`GEMV` (Section 3.3, eq. (9)).
    DynamicPeeling,
    /// Alternate peeling (the paper's "investigate alternate peeling
    /// techniques" future-work item): strip the *first* row/column
    /// instead. Same cost profile; different memory alignment of the
    /// even core.
    DynamicPeelingFirst,
    /// Douglas et al.'s method: zero-pad odd dimensions at each level.
    DynamicPadding,
    /// Strassen's suggestion: pad once, up front, so every level is even.
    StaticPadding,
}

impl OddHandling {
    /// Every odd-dimension strategy, for config-space sweeps and the
    /// differential fuzzer.
    pub const ALL: [OddHandling; 4] = [
        OddHandling::DynamicPeeling,
        OddHandling::DynamicPeelingFirst,
        OddHandling::DynamicPadding,
        OddHandling::StaticPadding,
    ];
}

/// Full configuration for [`crate::dgefmm`].
///
/// # Example
///
/// Start from the paper's tuned default and reshape it for an
/// experiment — force the STRASSEN2 schedule, Higham's eq. (12) cutoff,
/// and dynamic padding instead of peeling:
///
/// ```
/// use strassen::{CutoffCriterion, OddHandling, Scheme, StrassenConfig, Variant};
///
/// let cfg = StrassenConfig::dgefmm()
///     .scheme(Scheme::Strassen2)
///     .cutoff(CutoffCriterion::HighamScaled { tau: 64 })
///     .odd(OddHandling::DynamicPadding);
/// assert_eq!(cfg.variant, Variant::Winograd);
/// assert!(cfg.cutoff.should_stop(64, 64, 64)); // eq. (12) at square τ
/// assert!(!cfg.cutoff.should_stop(65, 65, 65));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct StrassenConfig {
    /// 2×2 construction.
    pub variant: Variant,
    /// Computation schedule.
    pub scheme: Scheme,
    /// Recursive base case; always [`Family::F222`] (see its docs).
    pub family: Family,
    /// Odd-dimension strategy.
    pub odd: OddHandling,
    /// When to stop recursing (used for `β = 0`, and for `β ≠ 0` unless
    /// [`StrassenConfig::cutoff_general`] overrides it).
    pub cutoff: CutoffCriterion,
    /// Optional separate criterion for the `β ≠ 0` case. The paper's code
    /// "allows user testing and specification of two sets of parameters to
    /// handle both cases" (Section 4.2) because the measured crossover
    /// differs between `β = 0` and the general update.
    pub cutoff_general: Option<CutoffCriterion>,
    /// Conventional kernel used below the cutoff and in fixups.
    pub gemm: GemmConfig,
    /// Recursion levels whose seven products may run as parallel tasks
    /// (only effective with [`Scheme::SevenTemp`]); 0 disables.
    pub parallel_depth: usize,
    /// Cap on simultaneously in-flight DAG nodes per parallel level
    /// (`usize::MAX` = unbounded, the default). `1` serializes the DAG
    /// into its deterministic lowest-index-first topological order — a
    /// fuzzer and determinism-test axis, not a performance knob.
    pub parallel_width: usize,
    /// Hard limit on recursion depth, regardless of the cutoff criterion
    /// (`usize::MAX` = unlimited). The empirical tuning procedure uses
    /// `max_depth = 1` to time "exactly one level of recursion" against
    /// plain GEMM, as in the paper's Section 3.4 crossover experiments.
    pub max_depth: usize,
    /// Run the last recursion level (the one whose seven products are all
    /// leaf GEMMs) through the fused add-pack / multi-destination
    /// write-back kernels instead of the temp-based schedules. Requires
    /// a blocked GEMM kernel, serial or pool-parallel (the parallel one
    /// splits the fused nest's `C` over an `ic × jr` thread grid, bitwise
    /// equal to serial); the naive kernel ignores the flag.
    pub fused: bool,
}

impl StrassenConfig {
    /// The paper's DGEFMM: Winograd variant, Auto schedule (STRASSEN1
    /// when `β = 0`, else STRASSEN2), dynamic peeling, fused last level,
    /// and the eq.-(15) criterion measured on this repository's kernel,
    /// `Hybrid { τ = 2047, τm = τk = τn = 1023 }`.
    ///
    /// The parameters come from the paper's Table-2 procedure, run as
    /// `examples/fused_level_probe.rs` (EXPERIMENTS.md, Table 2 section):
    /// one Strassen level at the root against the same-thread GEMM, in
    /// alternating rounds, over even and odd cubes from 1024 to 2048.
    /// The GEMM wins or ties at every order up to 2047: even cubes break
    /// even from about 1664–1792, and every odd cube loses 3–20% to the
    /// peel. `τ` is the largest order the GEMM still wins at, and `τm`,
    /// `τk`, `τn` keep the `τ/2` shape. So every product with a
    /// dimension below 2048 is one GEMM call, 2048³ runs one fused level
    /// (a tie) and 4096³ two levels. Retune per machine with
    /// [`crate::tuning`] or the probe.
    pub fn dgefmm() -> Self {
        Self {
            variant: Variant::Winograd,
            scheme: Scheme::Auto,
            family: Family::F222,
            odd: OddHandling::DynamicPeeling,
            cutoff: CutoffCriterion::Hybrid { tau: 2047, tau_m: 1023, tau_k: 1023, tau_n: 1023 },
            cutoff_general: None,
            // Machine-derived (mc, kc, nc): sysfs cache probe with sane
            // fallbacks, resolved once per process.
            gemm: GemmConfig::auto(),
            parallel_depth: 0,
            parallel_width: usize::MAX,
            max_depth: usize::MAX,
            fused: true,
        }
    }

    /// [`StrassenConfig::dgefmm`] for full-machine execution. It keeps
    /// the serial preset's measured cutoff, so both presets plan the
    /// same recursion at every shape, and changes only how the plan
    /// runs: the seven-temporary schedule as a task DAG over the top two
    /// recursion levels (49 leaf products — enough independent tasks for
    /// any core count this code targets), and pool-parallel leaf GEMMs,
    /// so the packed nest's `ic × jr` thread grid can soak up workers
    /// the Strassen level leaves idle. The last level runs fused, its
    /// `C` split over the same grid. The probe measured the same
    /// crossover on one pool worker plus the helping caller as on one
    /// thread: one fused level at 2048³, the task DAG from 4096³, and
    /// below 2048 one pool-parallel GEMM call.
    ///
    /// Pool sizing is orthogonal: call [`pool::set_num_threads`] (or set
    /// `STRASSEN_THREADS`) before first use; the default is the probed
    /// physical-core count ([`pool::machine_threads`]).
    pub fn dgefmm_parallel() -> Self {
        Self {
            scheme: Scheme::SevenTemp,
            parallel_depth: 2,
            gemm: GemmConfig::auto_parallel(),
            ..Self::dgefmm()
        }
    }

    /// Same as [`StrassenConfig::dgefmm`] with an explicit square cutoff
    /// and symmetric rectangular parameters `τ/2`.
    pub fn with_square_cutoff(tau: usize) -> Self {
        Self {
            cutoff: CutoffCriterion::Hybrid {
                tau,
                tau_m: (tau / 2).max(CutoffCriterion::HARD_FLOOR),
                tau_k: (tau / 2).max(CutoffCriterion::HARD_FLOOR),
                tau_n: (tau / 2).max(CutoffCriterion::HARD_FLOOR),
            },
            ..Self::dgefmm()
        }
    }

    /// Replace the cutoff criterion.
    pub fn cutoff(mut self, cutoff: CutoffCriterion) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// Give the `β ≠ 0` case its own cutoff criterion (paper Section 4.2:
    /// the tuned parameters "may change for the general case").
    pub fn cutoff_general(mut self, cutoff: CutoffCriterion) -> Self {
        self.cutoff_general = Some(cutoff);
        self
    }

    /// The criterion in force for a call with the given `β` class.
    pub fn criterion_for(&self, beta_zero: bool) -> &CutoffCriterion {
        if beta_zero {
            &self.cutoff
        } else {
            self.cutoff_general.as_ref().unwrap_or(&self.cutoff)
        }
    }

    /// Replace the schedule.
    ///
    /// ```
    /// use strassen::{Scheme, StrassenConfig};
    ///
    /// // Force STRASSEN2 even when β = 0 (`Auto` would run STRASSEN1).
    /// let cfg = StrassenConfig::dgefmm().scheme(Scheme::Strassen2);
    /// assert_eq!(cfg.scheme, Scheme::Strassen2);
    /// ```
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Replace the odd-dimension strategy.
    pub fn odd(mut self, odd: OddHandling) -> Self {
        self.odd = odd;
        self
    }

    /// Replace the variant.
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Replace the base GEMM kernel configuration.
    pub fn gemm(mut self, gemm: GemmConfig) -> Self {
        self.gemm = gemm;
        self
    }

    /// Limit recursion depth (1 = a single level of Strassen, then GEMM).
    pub fn max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Enable or disable the fused last-level kernels.
    pub fn fused(mut self, fused: bool) -> Self {
        self.fused = fused;
        self
    }

    /// Set how many recursion levels fan out as parallel tasks (0
    /// disables parallel scheduling; only effective with
    /// [`Scheme::SevenTemp`]).
    pub fn parallel_depth(mut self, depth: usize) -> Self {
        self.parallel_depth = depth;
        self
    }

    /// Cap in-flight DAG nodes per parallel level (clamped to ≥ 1).
    pub fn parallel_width(mut self, width: usize) -> Self {
        self.parallel_width = width.max(1);
        self
    }
}

impl Default for StrassenConfig {
    fn default() -> Self {
        Self::dgefmm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_configuration() {
        let c = StrassenConfig::default();
        assert_eq!(c.variant, Variant::Winograd);
        assert_eq!(c.scheme, Scheme::Auto);
        assert_eq!(c.odd, OddHandling::DynamicPeeling);
    }

    #[test]
    fn builder_methods_override() {
        let c = StrassenConfig::dgefmm()
            .variant(Variant::Original)
            .scheme(Scheme::Strassen2)
            .odd(OddHandling::DynamicPadding)
            .cutoff(CutoffCriterion::Simple { tau: 32 });
        assert_eq!(c.variant, Variant::Original);
        assert_eq!(c.scheme, Scheme::Strassen2);
        assert_eq!(c.odd, OddHandling::DynamicPadding);
        assert_eq!(c.cutoff, CutoffCriterion::Simple { tau: 32 });
    }

    #[test]
    fn general_criterion_defaults_to_primary() {
        let c = StrassenConfig::with_square_cutoff(100);
        assert_eq!(c.criterion_for(true), c.criterion_for(false));
        let c = c.cutoff_general(CutoffCriterion::Simple { tau: 200 });
        assert!(c.criterion_for(true) != c.criterion_for(false));
        assert!(!c.criterion_for(false).should_stop(201, 201, 201));
        assert!(c.criterion_for(false).should_stop(150, 150, 150));
        assert!(!c.criterion_for(true).should_stop(150, 150, 150));
    }

    #[test]
    fn parallel_preset_and_builders() {
        let c = StrassenConfig::dgefmm_parallel();
        assert_eq!(c.scheme, Scheme::SevenTemp);
        assert_eq!(c.parallel_depth, 2);
        assert_eq!(c.parallel_width, usize::MAX);
        assert_eq!(c.cutoff, StrassenConfig::dgefmm().cutoff);
        let c = c.parallel_width(0).parallel_depth(1);
        assert_eq!(c.parallel_width, 1, "width clamps to >= 1");
        assert_eq!(c.parallel_depth, 1);
    }

    /// Both presets carry the one measured cutoff, and it gives each
    /// benchmark shape its plan: `square_2048` one fused level, and
    /// every `rect_odd_beta` template one GEMM call at every corner of
    /// its seed jitter (each odd dimension moved by up to ±32, clamped
    /// to [769, 2049]; the templates are `benchmark/src/workloads.rs`'s
    /// `RECT_TEMPLATES`). `serve_saturated`'s dimensions stay at or
    /// below 80.
    #[test]
    fn presets_plan_each_benchmark_shape() {
        let (serial, parallel) = (StrassenConfig::dgefmm(), StrassenConfig::dgefmm_parallel());
        assert_eq!(serial.cutoff, parallel.cutoff);
        assert_eq!(serial.cutoff_general, parallel.cutoff_general);
        for cfg in [serial, parallel] {
            assert_eq!(crate::planned_depth(&cfg, 2048, 2048, 2048), 1);
            assert_eq!(crate::planned_depth(&cfg, 4096, 4096, 4096), 2);
            assert_eq!(crate::planned_depth(&cfg, 80, 80, 80), 0);
        }
        const RECT_TEMPLATES: [(usize, usize, usize); 6] = [
            (1105, 1105, 1105),
            (2049, 801, 823),
            (801, 2049, 823),
            (823, 801, 2049),
            (1537, 1153, 769),
            (769, 1153, 1537),
        ];
        let jitter = |d: usize, up: bool| if up { (d + 32).min(2049) } else { (d - 32).max(769) };
        for (m, k, n) in RECT_TEMPLATES {
            for corner in 0..8 {
                let (m, k, n) =
                    (jitter(m, corner & 1 != 0), jitter(k, corner & 2 != 0), jitter(n, corner & 4 != 0));
                assert_eq!(crate::planned_depth(&parallel, m, k, n), 0, "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn square_cutoff_constructor_stops_at_tau() {
        let c = StrassenConfig::with_square_cutoff(100);
        assert!(c.cutoff.should_stop(100, 100, 100));
        assert!(!c.cutoff.should_stop(101, 101, 101));
    }
}
