//! Higham-style a-priori error bounds for classic and fast matrix
//! multiplication, and the tolerances the property suites derive from
//! them.
//!
//! For the classic algorithm the componentwise bound
//! `|Ĉ − C| ≤ k·u·|op(A)||op(B)| + O(u²)` gives the normwise form
//! `‖Ĉ − C‖_max ≤ k²·u·‖op(A)‖_max·‖op(B)‖_max`. Strassen-type
//! recursions satisfy only a *normwise* bound whose constant grows
//! geometrically with the recursion depth `d` (Higham, *Accuracy and
//! Stability of Numerical Algorithms*, 2nd ed., §23.2.2; Strassen case
//! from Brent's analysis, Winograd case from Higham eq. 23.12):
//!
//! ```text
//! square, n = 2^d · n₀:
//!   Strassen 1969:    ‖Ĉ−C‖ ≤ [12^d (n₀² + 5n₀) − 5n] u ‖A‖‖B‖
//!   Strassen-Winograd:‖Ĉ−C‖ ≤ [18^d (n₀² + 6n₀) − 6n] u ‖A‖‖B‖
//! ```
//!
//! where `‖·‖` is the max-abs-entry norm. The per-level growth factors
//! 12 and 18 are what "roughly one decimal digit lost" (Huang & van de
//! Geijn, arXiv:1605.01078) looks like at practical depths `d ≤ 3`, and
//! Boyer et al. (arXiv:0707.2347) show the *schedule* (which temporaries
//! alias which operands) only moves the constant, never the `12^d`/`18^d`
//! shape — which is why [`theoretical_bound`] takes the variant, not the
//! schedule, and the fuzzer's safety factor absorbs schedule-level
//! wiggle.
//!
//! [`theoretical_bound`] generalizes the square formulas to rectangular
//! `(m, k, n)` products conservatively: the recursion depth is simulated
//! against the *actual* cutoff criterion with ceil-halving (never less
//! than the depth the dispatcher takes, since real peel/pad paths shrink
//! dimensions at least as fast), and the error-accumulating dimension is
//! the inner one, `k`.

use strassen::{CutoffCriterion, Family, Scheme, Variant};

/// Which error-growth regime a configuration is in. Classic GEMM (no
/// recursion) has polynomial growth in `k`; the fast regimes grow
/// geometrically in the recursion depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundSchedule {
    /// Conventional triple-loop / blocked GEMM: constant `k² + 2k`.
    Classic,
    /// Strassen's 1969 construction: growth 12 per level, `n₀² + 5n₀`.
    Strassen,
    /// Winograd's variant (the paper's default): growth 18 per level,
    /// `n₀² + 6n₀`.
    Winograd,
}

impl BoundSchedule {
    /// The regime a [`Variant`] recursion runs in (the ⟨2,2,2⟩ legacy
    /// schedules).
    pub fn for_variant(v: Variant) -> Self {
        match v {
            Variant::Original => BoundSchedule::Strassen,
            Variant::Winograd => BoundSchedule::Winograd,
        }
    }

    /// The regime a full configuration runs in: the [`Variant`]
    /// decides, as in [`BoundSchedule::for_variant`]. The [`Family`]
    /// argument is ignored; it has one value and stays only for the
    /// benchmark harness, which passes `StrassenConfig::family`.
    ///
    /// ```
    /// use accuracy::BoundSchedule;
    /// use strassen::{Family, Variant};
    /// let wino = BoundSchedule::for_config(Variant::Winograd, Family::F222);
    /// assert_eq!(wino, BoundSchedule::Winograd);
    /// let orig = BoundSchedule::for_config(Variant::Original, Family::F222);
    /// assert_eq!(orig, BoundSchedule::Strassen);
    /// ```
    pub fn for_config(variant: Variant, _family: Family) -> Self {
        Self::for_variant(variant)
    }
}

/// Constant-factor slack for schedules that re-associate the `C`-block
/// accumulations relative to the classic temp-based paths. Boyer et al.
/// (arXiv:0707.2347) show a schedule moves only the *constant* of the
/// error bound, never the `12^d`/`18^d` growth shape; these factors
/// absorb the worst constants the BDPZ schedules introduce:
///
/// * [`Scheme::TwoTemp`]'s `β = 0` side writes products straight into
///   `C` quadrants and chains eight cross-quadrant accumulation passes
///   in place of Winograd's shared temps — 2×;
/// * [`Scheme::InPlace`] additionally imports and re-exports partial
///   brackets *through* `C` quadrants (20 add passes, with intermediate
///   magnitudes that later cancel), which costs another constant — 4×.
///
/// Every other schedule computes exactly the accumulation trees the
/// bound's constants model — 1×.
///
/// ```
/// use strassen::Scheme;
/// assert_eq!(accuracy::schedule_slack(Scheme::TwoTemp), 2.0);
/// assert_eq!(accuracy::schedule_slack(Scheme::InPlace), 4.0);
/// assert_eq!(accuracy::schedule_slack(Scheme::Auto), 1.0);
/// ```
pub fn schedule_slack(scheme: Scheme) -> f64 {
    match scheme {
        Scheme::TwoTemp => 2.0,
        Scheme::InPlace => 4.0,
        _ => 1.0,
    }
}

/// The dimensionless constant `f(m, k, n)` such that
///
/// ```text
/// ‖Ĉ − α·op(A)op(B)‖_max ≤ f · u · |α| · ‖op(A)‖_max · ‖op(B)‖_max
/// ```
///
/// for a product run with the given cutoff criterion and error regime
/// (`u = f64::EPSILON`). The β-update contributes separately; see
/// [`gemm_bound`].
///
/// The recursion depth is obtained by simulating the criterion with
/// ceil-halved dimensions — an upper bound on the depth any
/// odd-handling strategy yields (peeling recurses on `⌊·/2⌋`, padding on
/// `⌈·/2⌉`), and more depth only enlarges `f`. A
/// [`strassen::StrassenConfig::max_depth`] limit can only lower the true
/// depth, so the bound stays valid there too.
pub fn theoretical_bound(
    m: usize,
    k: usize,
    n: usize,
    cutoff: &CutoffCriterion,
    schedule: BoundSchedule,
) -> f64 {
    let kf = k as f64;
    let (grow, c) = match schedule {
        BoundSchedule::Classic => return kf * kf + 2.0 * kf,
        BoundSchedule::Strassen => (12.0f64, 5.0f64),
        BoundSchedule::Winograd => (18.0f64, 6.0f64),
    };
    let (mut mm, mut kk, mut nn) = (m, k, n);
    let mut depth = 0i32;
    while !cutoff.should_stop(mm, kk, nn) {
        mm = mm.div_ceil(2);
        kk = kk.div_ceil(2);
        nn = nn.div_ceil(2);
        depth += 1;
    }
    let k0 = kk as f64;
    // Square-case Higham constant with n₀ → leaf inner dimension; the
    // −c·k rebate of the exact square formula is dropped (it only ever
    // tightens the bound) and the classic `2k` α/accumulate term added.
    grow.powi(depth) * (k0 * k0 + c * k0) + 2.0 * kf
}

/// Full-GEMM absolute error bound for `C ← α op(A) op(B) + β C₀`:
///
/// ```text
/// f·u·|α|·‖op(A)‖·‖op(B)‖  +  8·u·|β|·‖C₀‖
/// ```
///
/// with `f` from [`theoretical_bound`]. The `8u|β|‖C₀‖` term covers the
/// scaling `β·C₀` (1 ulp), its addition into the product (1 ulp), and
/// schedule-dependent regrouping of that addition across recursion
/// levels (Boyer et al.: constant-factor only), with slack.
// The argument list mirrors the dgefmm calling convention on purpose:
// a bound that takes anything less is a bound for a different call.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bound(
    m: usize,
    k: usize,
    n: usize,
    cutoff: &CutoffCriterion,
    schedule: BoundSchedule,
    alpha: f64,
    norm_a: f64,
    norm_b: f64,
    beta: f64,
    norm_c0: f64,
) -> f64 {
    let f = theoretical_bound(m, k, n, cutoff, schedule);
    let u = f64::EPSILON;
    f * u * alpha.abs() * norm_a * norm_b + 8.0 * u * beta.abs() * norm_c0
}

/// The relative tolerance the property suites use in place of per-file
/// hand-tuned epsilons: the Winograd bound at *full* recursion (the
/// `Never` criterion — deeper than any criterion a test configures, so
/// one number covers every swept configuration) with a 16× safety
/// factor for schedule constants and the `rel_diff` normalization.
///
/// Compared against [`matrix::norms::rel_diff`], whose denominator is
/// `max(1, ‖·‖_max)`: with test data in `[-1, 1)` the numerator bound
/// `f·u·‖A‖‖B‖ ≤ f·u` applies directly.
pub fn tolerance_for(m: usize, k: usize, n: usize) -> f64 {
    16.0 * theoretical_bound(m, k, n, &CutoffCriterion::Never, BoundSchedule::Winograd) * f64::EPSILON
}

/// Relative tolerance for *classic* (non-recursive) kernels — the
/// `proptest_blas` suites comparing blocked/packed/parallel kernels
/// against the naive triple loop. Both sides carry the classic bound, so
/// the difference is within twice of it; 8× total slack.
pub fn classic_tolerance(k: usize) -> f64 {
    8.0 * theoretical_bound(1, k, 1, &CutoffCriterion::Never, BoundSchedule::Classic) * f64::EPSILON
}

/// Tolerance for a plain `terms`-element summation or norm identity
/// (`proptest_matrix`'s Frobenius/1-norm algebra): `4·terms·u`.
pub fn sum_tolerance(terms: usize) -> f64 {
    4.0 * (terms as f64).max(1.0) * f64::EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;
    use blas::Op;
    use matrix::{norms, random, Matrix};
    use strassen::{dgefmm, StrassenConfig};

    #[test]
    fn classic_constant_is_polynomial_in_k() {
        let c = CutoffCriterion::Never;
        assert_eq!(theoretical_bound(99, 10, 99, &c, BoundSchedule::Classic), 120.0);
        // m and n do not enter the classic constant.
        assert_eq!(
            theoretical_bound(1, 10, 1, &c, BoundSchedule::Classic),
            theoretical_bound(500, 10, 500, &c, BoundSchedule::Classic)
        );
    }

    #[test]
    fn zero_depth_reduces_to_leaf_constant() {
        // Cutoff fires immediately → d = 0 → f = k² + c·k + 2k.
        let c = CutoffCriterion::Simple { tau: 64 };
        let f = theoretical_bound(32, 32, 32, &c, BoundSchedule::Winograd);
        assert_eq!(f, 32.0 * 32.0 + 6.0 * 32.0 + 2.0 * 32.0);
    }

    #[test]
    fn square_formula_matches_higham_at_power_of_two() {
        // n = 256, τ = 32 → d = 3, n₀ = 32.
        let c = CutoffCriterion::Simple { tau: 32 };
        let f = theoretical_bound(256, 256, 256, &c, BoundSchedule::Winograd);
        let expected = 18f64.powi(3) * (32.0 * 32.0 + 6.0 * 32.0) + 2.0 * 256.0;
        assert_eq!(f, expected);
        let f12 = theoretical_bound(256, 256, 256, &c, BoundSchedule::Strassen);
        let expected12 = 12f64.powi(3) * (32.0 * 32.0 + 5.0 * 32.0) + 2.0 * 256.0;
        assert_eq!(f12, expected12);
        // Winograd's extra adds cost accuracy: its constant dominates.
        assert!(f > f12);
    }

    #[test]
    fn deeper_recursion_loosens_the_bound() {
        let shallow =
            theoretical_bound(256, 256, 256, &CutoffCriterion::Simple { tau: 128 }, BoundSchedule::Winograd);
        let deep =
            theoretical_bound(256, 256, 256, &CutoffCriterion::Simple { tau: 16 }, BoundSchedule::Winograd);
        assert!(deep > shallow);
        // And any recursion exceeds the classic constant.
        let classic = theoretical_bound(256, 256, 256, &CutoffCriterion::Never, BoundSchedule::Classic);
        assert!(deep > classic);
    }

    #[test]
    fn tolerances_are_sane_scales() {
        for &d in &[8usize, 32, 90, 256] {
            let t = tolerance_for(d, d, d);
            assert!(t > f64::EPSILON && t < 1e-2, "tolerance_for({d}) = {t:e}");
            let ct = classic_tolerance(d);
            assert!(ct > f64::EPSILON && ct < t, "classic_tolerance({d}) = {ct:e}");
        }
        assert_eq!(sum_tolerance(100), 400.0 * f64::EPSILON);
        assert!(sum_tolerance(0) > 0.0);
    }

    #[test]
    fn schedule_slack_covers_the_bdpz_schedules_only() {
        assert_eq!(schedule_slack(Scheme::TwoTemp), 2.0);
        assert_eq!(schedule_slack(Scheme::InPlace), 4.0);
        for s in [Scheme::Auto, Scheme::Strassen1, Scheme::Strassen2, Scheme::SevenTemp] {
            assert_eq!(schedule_slack(s), 1.0);
        }
    }

    /// BDPZ analogue of the sweep below: both BDPZ schedules, beside
    /// `Auto`, stay inside their slack-scaled envelopes.
    #[test]
    fn measured_error_stays_under_bound_for_bdpz_schedules() {
        let tau = 8;
        let cutoff = CutoffCriterion::Simple { tau };
        for &n in &[36usize, 54] {
            for scheme in [Scheme::Auto, Scheme::TwoTemp, Scheme::InPlace] {
                let cfg = StrassenConfig::dgefmm().scheme(scheme).cutoff(cutoff);
                let a = random::uniform::<f64>(n, n, 21 + n as u64);
                let b = random::uniform::<f64>(n, n, 23 + n as u64);
                let mut c = Matrix::zeros(n, n);
                dgefmm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
                let reference = crate::oracle::mul_oracle(&a, &b);
                let err = norms::max_abs_diff(c.as_ref(), reference.as_ref());
                let bound = schedule_slack(scheme)
                    * gemm_bound(
                        n,
                        n,
                        n,
                        &cutoff,
                        BoundSchedule::Winograd,
                        1.0,
                        norms::max_abs(a.as_ref()),
                        norms::max_abs(b.as_ref()),
                        0.0,
                        0.0,
                    );
                assert!(err <= bound, "n={n} {scheme:?}: measured {err:.3e} > bound {bound:.3e}");
                assert!(bound < 1e-2, "n={n}: bound {bound:.3e} is vacuous");
            }
        }
    }

    /// The load-bearing claim: measured DGEFMM error stays under the
    /// theoretical envelope across a size × cutoff × variant sweep.
    /// Entries are uniform in [-1, 1), so ‖A‖·‖B‖ ≤ 1 and the absolute
    /// bound `f·u·|α|` applies to `max_abs_diff` against the oracle.
    #[test]
    fn measured_error_stays_under_bound_across_sweep() {
        for &n in &[48usize, 65, 96] {
            for &tau in &[8usize, 16, 32] {
                for variant in Variant::ALL {
                    let cutoff = CutoffCriterion::Simple { tau };
                    let cfg = StrassenConfig::dgefmm().variant(variant).cutoff(cutoff);
                    let a = random::uniform::<f64>(n, n, 7 + n as u64);
                    let b = random::uniform::<f64>(n, n, 11 + n as u64);
                    let mut c = Matrix::zeros(n, n);
                    dgefmm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
                    let reference = crate::oracle::mul_oracle(&a, &b);
                    let err = norms::max_abs_diff(c.as_ref(), reference.as_ref());
                    let bound = gemm_bound(
                        n,
                        n,
                        n,
                        &cutoff,
                        BoundSchedule::for_variant(variant),
                        1.0,
                        norms::max_abs(a.as_ref()),
                        norms::max_abs(b.as_ref()),
                        0.0,
                        0.0,
                    );
                    assert!(
                        err <= bound,
                        "n={n} tau={tau} {variant:?}: measured {err:.3e} > bound {bound:.3e}"
                    );
                    // The bound is an envelope, not an estimate — but it
                    // must not be vacuous (say, Inf or 1e300).
                    assert!(bound < 1e-4, "n={n} tau={tau}: bound {bound:.3e} is vacuous");
                }
            }
        }
    }
}
