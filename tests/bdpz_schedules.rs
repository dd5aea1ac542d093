//! Integration tests for the Boyer–Dumas–Pernet–Zhou two-temp and
//! in-place schedules: exact-integer golden checks, trace-probe flop
//! counts against the two-class `opcount` recurrence, Table-1-style
//! workspace high-water marks, analytic profile equality, and serial ≡
//! parallel determinism.

use blas::Op;
use matrix::{random, Matrix};
use opcount::family::{bdpz_spec, family_flops, ClassLevel, FamilySpec};
use opcount::memory::bdpz_bound;
use strassen::{counts, dgefmm, required_workspace, trace, CutoffCriterion, Scheme, StrassenConfig, Trace};

/// A matrix of small exact integers (stored as `f64`): every operation
/// any schedule performs on them is exact, so algorithms that compute
/// the same product must agree *bitwise*, not just within tolerance.
fn integer_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let u = random::uniform::<f64>(rows, cols, seed);
    Matrix::from_fn(rows, cols, |i, j| (u.at(i, j) * 9.0).floor() - 4.0)
}

fn traced_run(cfg: &StrassenConfig, m: usize, k: usize, n: usize, beta: f64) -> Trace {
    let a = random::uniform::<f64>(m, k, 11);
    let b = random::uniform::<f64>(k, n, 22);
    let mut c = random::uniform::<f64>(m, n, 33);
    let (_, tr) = trace::capture(|| {
        dgefmm(cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), beta, c.as_mut());
    });
    tr
}

// ---------------------------------------------------------------------
// Golden exact-integer checks.
// ---------------------------------------------------------------------

/// On integers every operation is exact, so `TwoTemp` and `InPlace`
/// must agree bitwise with the default Winograd paths (and with each
/// other) across β classes.
#[test]
fn bdpz_schedules_are_bitwise_exact_on_integer_inputs() {
    let shapes = [(32usize, 32, 32), (28, 36, 20), (27, 33, 21)];
    for &(m, k, n) in &shapes {
        for beta in [0.0, 1.0, -3.0] {
            let a = integer_matrix(m, k, 13);
            let b = integer_matrix(k, n, 17);
            let c0 = integer_matrix(m, n, 19);
            let mut results = Vec::new();
            for scheme in [Scheme::Auto, Scheme::TwoTemp, Scheme::InPlace] {
                let cfg = StrassenConfig::dgefmm()
                    .scheme(scheme)
                    .cutoff(CutoffCriterion::Simple { tau: 4 })
                    .fused(false);
                let mut c = c0.clone();
                dgefmm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), beta, c.as_mut());
                results.push((scheme, c));
            }
            let (_, reference) = &results[0];
            for (scheme, c) in &results[1..] {
                assert_eq!(
                    c.as_slice(),
                    reference.as_slice(),
                    "{scheme:?} β={beta} ({m}×{k}×{n}): diverges from Auto on integers"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Trace-probe flops == two-class opcount recurrence, exactly.
// ---------------------------------------------------------------------

/// The BDPZ pair: `TwoTemp` entered with β = 0 runs the two-temp
/// schedule whose P3/P4/P2 children accumulate; entered with β = 1 it
/// runs the fully in-place schedule. Both flop totals must match the
/// two-class [`bdpz_spec`] recurrence exactly.
#[test]
fn traced_bdpz_flops_match_two_class_recurrence() {
    let cfg = StrassenConfig::dgefmm()
        .scheme(Scheme::TwoTemp)
        .cutoff(CutoffCriterion::Simple { tau: 8 })
        .fused(false);
    let spec = bdpz_spec();
    let cut = |m: u128, k: u128, n: u128, _: bool| m <= 8 || k <= 8 || n <= 8;
    for (beta, beta_zero) in [(0.0, true), (1.0, false)] {
        for &m in &[64usize, 128] {
            let tr = traced_run(&cfg, m, m, m, beta);
            let want = family_flops(&spec, m as u128, m as u128, m as u128, beta_zero, &cut);
            assert_eq!(tr.total_flops(), want, "BDPZ β={beta} m={m}: trace != recurrence");
        }
    }
    // Scheme::InPlace forces the in-place schedule for β = 0 as well:
    // the uniform accumulate-structure spec (leaves still priced by
    // their own β class).
    let in_place =
        ClassLevel { children_beta_zero: 0, children_accumulate: 7, a_passes: 5, b_passes: 5, c_passes: 10 };
    let spec_ip = FamilySpec { dims: (2, 2, 2), beta_zero: in_place, accumulate: in_place };
    let cfg_ip = cfg.scheme(Scheme::InPlace);
    let tr = traced_run(&cfg_ip, 64, 64, 64, 0.0);
    assert_eq!(tr.total_flops(), family_flops(&spec_ip, 64, 64, 64, true, &cut));
}

/// `counts::predict` stays an exact mirror of both BDPZ schedules.
#[test]
fn analytic_profile_matches_bdpz_runs() {
    let tau4 = CutoffCriterion::Simple { tau: 4 };
    for scheme in [Scheme::TwoTemp, Scheme::InPlace] {
        for (beta, beta_zero) in [(0.0, true), (1.0, false)] {
            let cfg = StrassenConfig::dgefmm().scheme(scheme).cutoff(tau4).fused(false);
            let tr = traced_run(&cfg, 48, 40, 56, beta);
            assert_eq!(tr.call_counts(), counts::predict(&cfg, 48, 40, 56, beta_zero), "{scheme:?} β={beta}");
        }
    }
}

// ---------------------------------------------------------------------
// Table-1-style workspace high-water marks.
// ---------------------------------------------------------------------

/// The BDPZ schedules: high-water equals the requirement and undercuts
/// both the `(mk + kn)/3` BDPZ bound and STRASSEN2's Table 1 minimum.
#[test]
fn high_water_bdpz_beats_table1() {
    for &m in &[64usize, 128, 256] {
        for (scheme, beta, beta_zero) in
            [(Scheme::TwoTemp, 0.0, true), (Scheme::TwoTemp, 1.0, false), (Scheme::InPlace, 0.0, true)]
        {
            let cfg = StrassenConfig::dgefmm()
                .scheme(scheme)
                .cutoff(CutoffCriterion::Simple { tau: 8 })
                .fused(false);
            let tr = traced_run(&cfg, m, m, m, beta);
            let need = required_workspace(&cfg, m, m, m, beta_zero);
            assert_eq!(tr.ws_high_water, need, "{scheme:?} β={beta} m={m}");
            let bound = bdpz_bound(m as u128, m as u128, m as u128);
            assert!(
                (tr.ws_high_water as f64) <= bound,
                "{scheme:?} β={beta} m={m}: {} exceeds BDPZ bound {bound}",
                tr.ws_high_water
            );
            // Strictly below the m² the paper calls minimal for general β.
            assert!((tr.ws_high_water as f64) < (m * m) as f64);
        }
    }
}

// ---------------------------------------------------------------------
// Determinism: the BDPZ schedules never make results run-order dependent.
// ---------------------------------------------------------------------

/// Serial and parallel runs are bitwise identical for both BDPZ
/// schedules (they run serially at any `parallel_depth`; the contract
/// still must hold).
#[test]
fn serial_parallel_bitwise_identical_for_bdpz() {
    let (m, k, n) = (33usize, 40, 27);
    let a = random::uniform::<f64>(m, k, 41);
    let b = random::uniform::<f64>(k, n, 43);
    let c0 = random::uniform::<f64>(m, n, 47);
    for scheme in [Scheme::TwoTemp, Scheme::InPlace] {
        let cfg =
            StrassenConfig::dgefmm().scheme(scheme).cutoff(CutoffCriterion::Simple { tau: 4 }).fused(false);
        let mut serial = c0.clone();
        dgefmm(&cfg, 1.5, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), -0.5, serial.as_mut());
        let par = StrassenConfig { parallel_depth: 2, ..cfg };
        let mut parallel = c0.clone();
        dgefmm(&par, 1.5, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), -0.5, parallel.as_mut());
        assert_eq!(serial.as_slice(), parallel.as_slice(), "{scheme:?}: parallel_depth=2 changed the bits");
    }
}
