//! Golden-value regression tests: every schedule × variant combination
//! reproduces naive GEMM at fixed seeds, across the three β classes the
//! dispatcher specializes (β = 0, β = 1, general β) and non-square
//! m × k × n shapes.
//!
//! These are fixed-input checks, not property tests: the seeds and
//! shapes never change, so a failure here is a regression in the
//! recursion algebra, not test noise.

use blas::level3::{gemm, GemmConfig};
use blas::Op;
use matrix::{norms, random, Matrix};
use strassen::probe::SplitEvent;
use strassen::{
    dgefmm, resolve_scheme, trace, CutoffCriterion, OddHandling, Probe, ResolvedScheme, Scheme,
    StrassenConfig, Variant,
};

/// Every hand-scheduled ⟨2,2,2⟩ program: Strassen's original
/// construction, the two Winograd-variant memory schedules STRASSEN1 /
/// STRASSEN2 of the paper's code, and the parallel seven-temporary
/// schedule.
const SCHEDULES: [(&str, Variant, Scheme); 4] = [
    ("original", Variant::Original, Scheme::Strassen1),
    ("winograd1", Variant::Winograd, Scheme::Strassen1),
    ("winograd2", Variant::Winograd, Scheme::Strassen2),
    ("seven_temp", Variant::Winograd, Scheme::SevenTemp),
];

/// Fixed shapes: square even, square odd, and rectangular with every
/// parity combination of (m, k, n).
const SHAPES: [(usize, usize, usize); 6] =
    [(64, 64, 64), (63, 63, 63), (48, 96, 32), (37, 64, 51), (96, 33, 48), (51, 48, 33)];

const BETAS: [f64; 3] = [0.0, 1.0, -0.7];

fn tol(m: usize, k: usize, n: usize) -> f64 {
    let dim = m.max(k).max(n) as f64;
    1e3 * dim * dim * f64::EPSILON
}

/// One (schedule, shape, β) cell: compare against the naive
/// triple-loop kernel, the most independent reference available.
fn check_cell(name: &str, variant: Variant, scheme: Scheme, m: usize, k: usize, n: usize, beta: f64) {
    let alpha = 1.1;
    let seed = 0xC0FFEE ^ ((m * 1_000_000 + k * 1_000 + n) as u64);
    let a = random::uniform::<f64>(m, k, seed);
    let b = random::uniform::<f64>(k, n, seed ^ 0xA5A5);
    let c0 = random::uniform::<f64>(m, n, seed ^ 0x5A5A);

    let mut expect = c0.clone();
    gemm(
        &GemmConfig::naive(),
        alpha,
        Op::NoTrans,
        a.as_ref(),
        Op::NoTrans,
        b.as_ref(),
        beta,
        expect.as_mut(),
    );

    let cfg =
        StrassenConfig::dgefmm().cutoff(CutoffCriterion::Simple { tau: 8 }).variant(variant).scheme(scheme);
    let mut c = c0.clone();
    dgefmm(&cfg, alpha, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), beta, c.as_mut());

    let diff = norms::rel_diff(c.as_ref(), expect.as_ref());
    assert!(diff <= tol(m, k, n), "{name} {m}x{k}x{n} β={beta}: rel diff {diff:.3e}");
}

#[test]
fn all_schedules_beta_zero() {
    for (name, variant, scheme) in SCHEDULES {
        for (m, k, n) in SHAPES {
            check_cell(name, variant, scheme, m, k, n, 0.0);
        }
    }
}

#[test]
fn all_schedules_beta_one() {
    for (name, variant, scheme) in SCHEDULES {
        for (m, k, n) in SHAPES {
            check_cell(name, variant, scheme, m, k, n, 1.0);
        }
    }
}

#[test]
fn all_schedules_beta_general() {
    for (name, variant, scheme) in SCHEDULES {
        for (m, k, n) in SHAPES {
            check_cell(name, variant, scheme, m, k, n, -0.7);
        }
    }
}

/// α = 0 short-circuit: C ← βC regardless of A, B contents.
#[test]
fn alpha_zero_scales_only() {
    for (name, variant, scheme) in SCHEDULES {
        let (m, k, n) = (40, 24, 56);
        let a = random::uniform::<f64>(m, k, 9);
        let b = random::uniform::<f64>(k, n, 10);
        let c0 = random::uniform::<f64>(m, n, 11);
        for beta in BETAS {
            let cfg = StrassenConfig::dgefmm()
                .cutoff(CutoffCriterion::Simple { tau: 8 })
                .variant(variant)
                .scheme(scheme);
            let mut c = c0.clone();
            dgefmm(&cfg, 0.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), beta, c.as_mut());
            let expect = Matrix::from_fn(m, n, |i, j| beta * c0.at(i, j));
            let diff = norms::max_abs_diff(c.as_ref(), expect.as_ref());
            assert!(diff < 1e-13, "{name} β={beta}: max abs diff {diff:.3e}");
        }
    }
}

/// A deeper recursion (three full levels) at a size with mixed parity
/// per level: 100 → 50 → 25 (odd) → 12.
#[test]
fn deep_recursion_mixed_parity() {
    for (name, variant, scheme) in SCHEDULES {
        check_cell(name, variant, scheme, 100, 100, 100, -0.7);
    }
}

/// A matrix of small integers stored as `f64`: every sum and product
/// any schedule forms on them is exact, so a correct schedule must agree
/// with the naive triple loop *bitwise*.
fn integer_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let u = random::uniform::<f64>(rows, cols, seed);
    Matrix::from_fn(rows, cols, |i, j| (u.at(i, j) * 9.0).floor() - 4.0)
}

/// The exact oracle: on integer inputs every variant × schedule ×
/// odd-handling, fused or not, reproduces the naive kernel bit for bit,
/// at β = 0, 1 and −2, on an even shape and two odd rectangular ones
/// (two levels at τ = 4, with peel or pad work at every level of the odd
/// ones). Any discrepancy is an algebra bug, not rounding.
#[test]
fn every_schedule_is_bitwise_exact_on_integer_inputs() {
    for (m, k, n) in [(24usize, 24, 24), (25, 23, 29), (17, 40, 11)] {
        let a = integer_matrix(m, k, 3);
        let b = integer_matrix(k, n, 5);
        let c0 = integer_matrix(m, n, 7);
        for beta in [0.0, 1.0, -2.0] {
            let mut want = c0.clone();
            let naive = GemmConfig::naive();
            gemm(&naive, 2.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), beta, want.as_mut());
            for variant in Variant::ALL {
                for scheme in Scheme::ALL {
                    for odd in OddHandling::ALL {
                        for fused in [false, true] {
                            let cfg = StrassenConfig::dgefmm()
                                .variant(variant)
                                .scheme(scheme)
                                .odd(odd)
                                .cutoff(CutoffCriterion::Simple { tau: 4 })
                                .fused(fused);
                            let mut c = c0.clone();
                            dgefmm(
                                &cfg,
                                2.0,
                                Op::NoTrans,
                                a.as_ref(),
                                Op::NoTrans,
                                b.as_ref(),
                                beta,
                                c.as_mut(),
                            );
                            assert_eq!(
                                c.as_slice(),
                                want.as_slice(),
                                "{variant:?} {scheme:?} {odd:?} fused={fused} β={beta} ({m}×{k}×{n})"
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Table 1, last row: the DGEFMM schedule-selection policy, observed
// through the probe's split events rather than inferred from memory use.
// ---------------------------------------------------------------------

/// A probe that records the resolved schedule of every recursion split.
#[derive(Default)]
struct SchemeRecorder {
    splits: Vec<(usize, ResolvedScheme)>,
}

impl Probe for SchemeRecorder {
    fn split(&mut self, ev: &SplitEvent) {
        self.splits.push((ev.depth, ev.scheme));
    }
}

/// Run an Auto-schedule multiply under the recorder and return the
/// splits it observed. Fusion is off so every recursion node reports as
/// a split (fused nodes bypass the temp-based schedules).
fn recorded_splits(beta: f64) -> Vec<(usize, ResolvedScheme)> {
    let n = 64;
    let cfg = StrassenConfig::dgefmm().cutoff(CutoffCriterion::Simple { tau: 16 }).fused(false);
    assert_eq!(cfg.scheme, Scheme::Auto, "the policy under test is the Auto default");
    let a = random::uniform::<f64>(n, n, 71);
    let b = random::uniform::<f64>(n, n, 72);
    let mut c = random::uniform::<f64>(n, n, 73);
    let (_, probe) = trace::with_probe(SchemeRecorder::default(), || {
        dgefmm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), beta, c.as_mut());
    });
    probe.splits
}

/// Paper Table 1, last row: DGEFMM uses STRASSEN1 when `β = 0` and
/// STRASSEN2 when `β ≠ 0`. Both branches, asserted on the actual split
/// events of the recursion (64 → 32 → 16 gives 1 root + 7 depth-1
/// splits).
#[test]
fn table1_auto_policy_selects_strassen1_then_strassen2() {
    let beta_zero = recorded_splits(0.0);
    assert_eq!(beta_zero.len(), 8, "two recursion levels: 1 + 7 splits");
    assert!(
        beta_zero.iter().all(|&(_, s)| s == ResolvedScheme::Strassen1BetaZero),
        "β = 0 must run STRASSEN1 at every node: {beta_zero:?}"
    );

    for beta in [1.0, -0.7] {
        let general = recorded_splits(beta);
        assert_eq!(general.len(), 8);
        assert_eq!(general[0], (0, ResolvedScheme::Strassen2), "β = {beta} root must run STRASSEN2");
        // The policy is per call: STRASSEN2's sub-products that compute
        // into fresh temporaries are themselves β = 0 calls and re-resolve
        // to STRASSEN1, while its accumulating products stay STRASSEN2.
        // Both must appear, and nothing outside the Auto policy ever does.
        let depth1: Vec<_> = general[1..].iter().map(|&(_, s)| s).collect();
        assert!(depth1.contains(&ResolvedScheme::Strassen2), "β = {beta}: {general:?}");
        assert!(depth1.contains(&ResolvedScheme::Strassen1BetaZero), "β = {beta}: {general:?}");
        assert!(
            depth1.iter().all(|s| matches!(s, ResolvedScheme::Strassen2 | ResolvedScheme::Strassen1BetaZero)),
            "β = {beta}: only the two Auto resolutions may appear: {general:?}"
        );
    }

    // The policy is also what `resolve_scheme` promises statically.
    let cfg = StrassenConfig::dgefmm();
    assert_eq!(resolve_scheme(&cfg, true), ResolvedScheme::Strassen1BetaZero);
    assert_eq!(resolve_scheme(&cfg, false), ResolvedScheme::Strassen2);
}

/// The recursion inherits the root's resolution: STRASSEN1's recursive
/// sub-products run with β-classes of their own, and the probe sees the
/// schedule actually applied at each node — depth-1 nodes under a
/// β = 0 root stay in the β = 0 class for STRASSEN1's products.
#[test]
fn beta_zero_recursion_stays_beta_zero() {
    let splits = recorded_splits(0.0);
    let depth1: Vec<_> = splits.iter().filter(|&&(d, _)| d == 1).collect();
    assert_eq!(depth1.len(), 7);
    assert!(depth1.iter().all(|&&(_, s)| s == ResolvedScheme::Strassen1BetaZero));
}
