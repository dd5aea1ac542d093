//! Differential config-space fuzzer: random full DGEFMM configurations
//! against the compensated oracle, with the Higham envelope as the
//! pass/fail line and testkit's shrinking for failure reports.
//!
//! One fuzz case draws *every* independent axis of the configuration
//! space — shape (including odd and near-floor dimensions), `α`/`β`
//! classes, transposes, variant, schedule (all six, including the BDPZ
//! two-temp and in-place pair), ⟨m,k,n⟩ base-case family (the five
//! compiled coefficient tables, exercising strip-peel and family-padded
//! residues), odd-dimension handling,
//! cutoff criterion (the paper's eqs. 10/11, 12, 7, 15 plus `Never`),
//! `parallel_depth` (0–3), the task DAG's in-flight width cap, a serial
//! vs pool-parallel leaf GEMM, fused last-level kernels (through the
//! shared-panel executor, under either leaf backend; the pool-parallel
//! one splits the fused level's column loop only above the 64³ spawn
//! threshold, so at the fuzzer's sizes it selects the fused path and
//! runs it on one thread), the base GEMM's cache-blocking class
//! ([`BlockingClass`]: auto/tiny/prime/huge), probe installed or
//! not — runs
//! [`strassen::dgefmm`] on seeded data, recomputes the product with
//! [`crate::oracle::gemm_oracle`], and asserts the measured error sits
//! inside [`crate::bound::gemm_bound`].
//!
//! Run through [`testkit::check`], a violation shrinks to the smallest
//! failing size and reports a `(case seed, size)` pair that
//! [`testkit::replay`] reproduces exactly; `TESTKIT_SEED` pins the whole
//! campaign and `FUZZ_ITERS` sets the budget (see `scripts/verify.sh`,
//! which runs 256 pinned cases in CI).

use crate::bound::{gemm_bound, schedule_slack, BoundSchedule};
use crate::metrics::{compare, ErrorReport};
use blas::level3::{GemmAlgo, GemmConfig, MR, NR};
use blas::Op;
use matrix::{norms, random};
use strassen::{dgefmm, trace, CutoffCriterion, Family, OddHandling, Scheme, StrassenConfig, Variant};
use testkit::Gen;

/// Largest dimension the fuzzer draws. Big enough for three recursion
/// levels at the smallest cutoff; small enough that the Θ(mkn) oracle
/// keeps a 256-case campaign in seconds.
const MAX_DIM: usize = 80;

/// Which `(mc, kc, nc)` cache-blocking class the base GEMM runs under.
/// The 5-loop kernel clamps any triple to a correct one, so every class
/// must be numerically indistinguishable — this axis is what checks
/// that claim across the whole configuration space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockingClass {
    /// The machine-derived profile ([`GemmConfig::auto`], the DGEFMM
    /// default).
    Auto,
    /// All parameters below the register tile (`< MR`/`NR`): every
    /// cache block degenerates to a single micro-panel.
    Tiny,
    /// Primes near the register tile: nothing divides anything, so all
    /// three loops run with remainders everywhere.
    Prime,
    /// All parameters larger than any fuzzed dimension: the clamp layer
    /// must shrink them to the problem and the 5-loop nest collapses to
    /// a single cache block.
    Huge,
}

impl BlockingClass {
    /// Every class, for the coverage self-test.
    pub const ALL: [BlockingClass; 4] =
        [BlockingClass::Auto, BlockingClass::Tiny, BlockingClass::Prime, BlockingClass::Huge];

    /// The concrete [`GemmConfig`] this class runs under.
    pub fn config(self) -> GemmConfig {
        match self {
            BlockingClass::Auto => GemmConfig::auto(),
            BlockingClass::Tiny => GemmConfig { mc: MR - 1, kc: 3, nc: NR - 1, ..GemmConfig::blocked() },
            BlockingClass::Prime => GemmConfig { mc: 37, kc: 13, nc: 31, ..GemmConfig::blocked() },
            BlockingClass::Huge => GemmConfig { mc: 4096, kc: 4096, nc: 4096, ..GemmConfig::blocked() },
        }
    }
}

/// One fully drawn configuration-space point.
#[derive(Clone, Copy, Debug)]
pub struct FuzzCase {
    /// Rows of `op(A)` / `C`.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of `op(B)` / `C`.
    pub n: usize,
    /// Product scale; drawn from `{1, −1, 0, random}`.
    pub alpha: f64,
    /// Update scale; drawn from `{0, 1, random}` — `0` selects the
    /// STRASSEN1 side of the paper's Table 1 policy.
    pub beta: f64,
    /// `op(A)` transpose flag.
    pub trans_a: bool,
    /// `op(B)` transpose flag.
    pub trans_b: bool,
    /// 2×2 construction.
    pub variant: Variant,
    /// Computation schedule (the six [`Scheme`]s, including the BDPZ
    /// two-temp and in-place pair).
    pub scheme: Scheme,
    /// ⟨m,k,n⟩ base-case family. Non-`F222` draws route through the
    /// compiled coefficient-table executor with strip-peel or padded
    /// residue handling, and their envelope comes from the table's own
    /// stability quantity ([`BoundSchedule::for_config`]).
    pub family: Family,
    /// Odd-dimension strategy.
    pub odd: OddHandling,
    /// Cutoff criterion (paper suite at a drawn `τ`, or `Never`).
    pub criterion: CutoffCriterion,
    /// Task-parallel recursion levels (effective with `SevenTemp`).
    pub parallel_depth: usize,
    /// In-flight node cap for the DAG executor (1, 2, 4, or unbounded) —
    /// must never change results.
    pub parallel_width: usize,
    /// Run the leaf GEMMs through the pool-parallel 5-loop nest instead
    /// of the serial blocked kernel (bitwise-identical by contract, so
    /// the error envelope is unchanged).
    pub parallel_gemm: bool,
    /// Fused last-level kernels on/off.
    pub fused: bool,
    /// Cache-blocking class for the base GEMM (and, through it, the
    /// packed-panel fused executor).
    pub blocking: BlockingClass,
    /// Whether a recording probe is installed during the call — the
    /// observability layer must never perturb the numerics.
    pub probe: bool,
    /// Seed for the operand data.
    pub data_seed: u64,
}

/// What one fuzz case measured.
#[derive(Debug, Clone, Copy)]
pub struct FuzzOutcome {
    /// Error of the DGEFMM result against the oracle.
    pub report: ErrorReport,
    /// Absolute Higham envelope for this configuration.
    pub bound: f64,
    /// Measured max-abs error ≤ envelope?
    pub within_bound: bool,
}

/// Draw one `(m, k, n)` product shape from the fuzzer's traffic mix:
/// each dimension is independently odd (primes included — the peel/pad
/// paths) or arbitrary in `[HARD_FLOOR, 80]`. The mix covers square,
/// skinny, and odd-prime geometries, which is why the serving layer's
/// load harness reuses it verbatim as its request-shape sampler —
/// deterministic per seed, like every [`Gen`] draw.
pub fn draw_shape(g: &mut Gen) -> (usize, usize, usize) {
    let dim = |g: &mut Gen| {
        if g.bool() {
            // Odd (includes primes): forces peel/pad paths.
            g.odd_usize_in(CutoffCriterion::HARD_FLOOR, MAX_DIM)
        } else {
            g.usize_in_incl(CutoffCriterion::HARD_FLOOR, MAX_DIM)
        }
    };
    (dim(g), dim(g), dim(g))
}

impl FuzzCase {
    /// Draw a case from the generator. Every axis uses either an
    /// unscaled `pick`/`bool` (enum-like choices stay exhaustive while
    /// shrinking) or a size-scaled range (shapes shrink toward the
    /// hard floor, so a failing 77×53×61 case replays as a minimal one).
    pub fn draw(g: &mut Gen) -> Self {
        let (m, k, n) = draw_shape(g);
        let alpha = match g.pick(&[0u8, 1, 2, 3]) {
            0 => 1.0,
            1 => -1.0,
            2 => 0.0,
            _ => g.f64_in(-2.0, 2.0),
        };
        let beta = match g.pick(&[0u8, 1, 2]) {
            0 => 0.0,
            1 => 1.0,
            _ => g.f64_in(-2.0, 2.0),
        };
        let tau = g.usize_in_incl(CutoffCriterion::HARD_FLOOR, 32);
        let suite = CutoffCriterion::paper_suite(tau);
        let idx = g.pick(&[0usize, 1, 2, 3, 4]);
        let criterion = if idx < 4 { suite[idx] } else { CutoffCriterion::Never };
        FuzzCase {
            m,
            k,
            n,
            alpha,
            beta,
            trans_a: g.bool(),
            trans_b: g.bool(),
            variant: g.pick(&Variant::ALL),
            scheme: g.pick(&Scheme::ALL),
            family: g.pick(&Family::ALL),
            odd: g.pick(&OddHandling::ALL),
            criterion,
            parallel_depth: g.usize_in_incl(0, 3),
            parallel_width: g.pick(&[1usize, 2, 4, usize::MAX]),
            parallel_gemm: g.bool(),
            fused: g.bool(),
            blocking: g.pick(&BlockingClass::ALL),
            probe: g.bool(),
            data_seed: g.seed(),
        }
    }

    /// The [`StrassenConfig`] this case runs under.
    pub fn config(&self) -> StrassenConfig {
        let mut gemm = self.blocking.config();
        if self.parallel_gemm {
            gemm.algo = GemmAlgo::BlockedParallel;
        }
        StrassenConfig {
            parallel_depth: self.parallel_depth,
            ..StrassenConfig::dgefmm()
                .variant(self.variant)
                .scheme(self.scheme)
                .family(self.family)
                .odd(self.odd)
                .cutoff(self.criterion)
                .fused(self.fused)
                .parallel_width(self.parallel_width)
                .gemm(gemm)
        }
    }

    /// Operand shapes as stored (before `op`).
    fn shapes(&self) -> ((usize, usize), (usize, usize)) {
        let a = if self.trans_a { (self.k, self.m) } else { (self.m, self.k) };
        let b = if self.trans_b { (self.n, self.k) } else { (self.k, self.n) };
        (a, b)
    }

    /// Run DGEFMM and the oracle on this case's seeded data and compare.
    pub fn run(&self) -> FuzzOutcome {
        let ((ar, ac), (br, bc)) = self.shapes();
        let a = random::uniform::<f64>(ar, ac, rng::mix(self.data_seed, 1));
        let b = random::uniform::<f64>(br, bc, rng::mix(self.data_seed, 2));
        let c0 = random::uniform::<f64>(self.m, self.n, rng::mix(self.data_seed, 3));
        let op_a = if self.trans_a { Op::Trans } else { Op::NoTrans };
        let op_b = if self.trans_b { Op::Trans } else { Op::NoTrans };

        let cfg = self.config();
        let mut c = c0.clone();
        if self.probe {
            let ((), tr) = trace::capture(|| {
                dgefmm(&cfg, self.alpha, op_a, a.as_ref(), op_b, b.as_ref(), self.beta, c.as_mut());
            });
            // A case that recursed must have produced events; a leaf-only
            // call at least records the call span.
            assert!(tr.calls > 0, "probe installed but no call recorded: {self:?}");
        } else {
            dgefmm(&cfg, self.alpha, op_a, a.as_ref(), op_b, b.as_ref(), self.beta, c.as_mut());
        }

        let mut reference = c0.clone();
        crate::oracle::gemm_oracle(
            self.alpha,
            op_a,
            a.as_ref(),
            op_b,
            b.as_ref(),
            self.beta,
            reference.as_mut(),
        );

        let report = compare(c.as_ref(), reference.as_ref());
        let bound = schedule_slack(self.scheme)
            * gemm_bound(
                self.m,
                self.k,
                self.n,
                &self.criterion,
                BoundSchedule::for_config(self.variant, self.family),
                self.alpha,
                norms::max_abs(a.as_ref()),
                norms::max_abs(b.as_ref()),
                self.beta,
                norms::max_abs(c0.as_ref()),
            );
        FuzzOutcome { report, bound, within_bound: report.max_abs_diff <= bound }
    }

    /// Run the case and panic (shrinkably, under [`testkit::check`])
    /// if the measured error escapes the theoretical envelope.
    pub fn assert_within_bound(&self) {
        let outcome = self.run();
        assert!(
            outcome.within_bound,
            "bound violation: measured {} > envelope {:.3e}\ncase: {:?}",
            outcome.report.summary(),
            outcome.bound,
            self
        );
    }
}

/// The fuzz campaign budget: `FUZZ_ITERS` (env) or 64. CI pins 256 via
/// `scripts/verify.sh`.
pub fn fuzz_budget() -> usize {
    testkit::cases_from_env("FUZZ_ITERS", 64)
}

/// Run the differential fuzz campaign for `cases` cases under the
/// shrinking harness. Panics with a replayable `(seed, size)` report on
/// the first envelope violation.
pub fn run_differential_fuzz(cases: usize) {
    testkit::check("differential_fuzz", cases, |g| FuzzCase::draw(g).assert_within_bound());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_covers_the_config_space() {
        // Over a modest number of draws every enum axis must appear —
        // the fuzzer's claim to "≥ 5 config dimensions" is this test.
        let mut variants = std::collections::HashSet::new();
        let mut schemes = std::collections::HashSet::new();
        let mut families = std::collections::HashSet::new();
        let mut odds = std::collections::HashSet::new();
        let mut criteria = std::collections::HashSet::new();
        let mut depths = std::collections::HashSet::new();
        let mut widths = std::collections::HashSet::new();
        let mut blockings = std::collections::HashSet::new();
        let mut odd_dims = false;
        let mut beta_zero = false;
        let mut beta_nonzero = false;
        let mut parallel_leaf = false;
        let mut serial_leaf = false;
        let mut parallel_fused = false;
        let mut g = Gen::new(0xFEED_FACE, 1.0);
        for _ in 0..300 {
            let c = FuzzCase::draw(&mut g);
            variants.insert(format!("{:?}", c.variant));
            schemes.insert(format!("{:?}", c.scheme));
            families.insert(format!("{:?}", c.family));
            odds.insert(format!("{:?}", c.odd));
            criteria.insert(std::mem::discriminant(&c.criterion));
            depths.insert(c.parallel_depth);
            widths.insert(c.parallel_width);
            blockings.insert(format!("{:?}", c.blocking));
            odd_dims |= c.m % 2 == 1 && c.k % 2 == 1;
            beta_zero |= c.beta == 0.0;
            beta_nonzero |= c.beta != 0.0;
            parallel_leaf |= c.parallel_gemm;
            serial_leaf |= !c.parallel_gemm;
            parallel_fused |= c.parallel_gemm && c.fused;
            assert!(c.m >= CutoffCriterion::HARD_FLOOR && c.m <= MAX_DIM);
        }
        assert_eq!(variants.len(), 2);
        assert_eq!(schemes.len(), 6, "Auto/Strassen1/Strassen2/SevenTemp plus the BDPZ pair");
        assert_eq!(families.len(), 5, "all five compiled coefficient-table families");
        assert_eq!(odds.len(), 4);
        assert_eq!(criteria.len(), 5, "all four paper criteria plus Never");
        assert_eq!(depths.len(), 4, "parallel_depth 0 through 3");
        assert_eq!(widths.len(), 4, "width caps 1, 2, 4, and unbounded");
        assert_eq!(blockings.len(), 4, "auto, tiny, prime, and huge blocking");
        assert!(odd_dims && beta_zero && beta_nonzero);
        assert!(parallel_leaf && serial_leaf, "both leaf-GEMM backends drawn");
        assert!(parallel_fused, "a fused case on the pool-parallel leaf GEMM drawn");
    }

    #[test]
    fn draw_is_deterministic_per_seed() {
        let a = FuzzCase::draw(&mut Gen::new(42, 1.0));
        let b = FuzzCase::draw(&mut Gen::new(42, 1.0));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn shrunken_draws_stay_valid() {
        // Size-0 replay must still produce runnable (floor-sized) cases.
        let mut g = Gen::new(9, 0.0);
        for _ in 0..50 {
            let c = FuzzCase::draw(&mut g);
            assert!(c.m >= CutoffCriterion::HARD_FLOOR);
            assert!(c.k >= CutoffCriterion::HARD_FLOOR);
            assert!(c.n >= CutoffCriterion::HARD_FLOOR);
            c.assert_within_bound();
        }
    }

    #[test]
    fn a_smoke_campaign_passes() {
        run_differential_fuzz(16);
    }
}
