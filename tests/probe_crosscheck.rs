//! Cross-checks of the probe subsystem's runtime counters against the
//! `opcount` crate's closed forms (paper eqs. (2)–(5)) and Table 1
//! memory bounds.
//!
//! These are the strongest tests in the repository: the *measured*
//! execution profile of a real `dgefmm` call — every leaf GEMM flop and
//! every elementwise add pass, counted as they execute — must equal the
//! analytic operation count *exactly*, as an integer. Any drift between
//! the dispatcher and the Section 2 model (a miscounted pass, a wrong
//! quadrant size, an extra copy) shows up as an off-by-`mn` failure here.
//!
//! The flop and counter comparisons run with `fused(false)`: the model
//! mirrors the classic temp-based schedules, and the fused kernels
//! restructure the last level (see `strassen::counts::predict`). The
//! workspace high-water checks also cover the fused library presets.

use matrix::{random, Matrix};
use opcount::memory::{strassen1_bound, strassen2_bound};
use opcount::model::OpCount;
use opcount::recurrence::{
    original_cost, original_square, winograd_closed_form, winograd_cost, winograd_square,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use strassen::cutoff::CutoffCriterion;
use strassen::{
    counts, dgefmm, required_workspace, trace, OddHandling, Scheme, StrassenConfig, Trace, Variant,
};

use blas::Op;

/// Run `dgefmm` on an `(m, k, n)` uniform-random product under `cfg`,
/// returning the collected trace.
fn traced_run(cfg: &StrassenConfig, m: usize, k: usize, n: usize, beta: f64) -> Trace {
    let a = random::uniform::<f64>(m, k, 11);
    let b = random::uniform::<f64>(k, n, 22);
    let mut c = random::uniform::<f64>(m, n, 33);
    let (_, tr) = trace::capture(|| {
        dgefmm(cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), beta, c.as_mut());
    });
    tr
}

fn classic(cutoff: CutoffCriterion) -> StrassenConfig {
    StrassenConfig::dgefmm().cutoff(cutoff).fused(false)
}

// ---------------------------------------------------------------------
// Flop-exact combos: runtime multiplies + adds == eqs. (2)-(5).
// ---------------------------------------------------------------------

/// Combo 1 — 256³, STRASSEN1 β=0, simple criterion τ=32 (eq. (11)):
/// three levels of Winograd recursion, leaves of order 32. The trace's
/// total flops must equal both the recurrence eq. (2) and the square
/// closed form eq. (4).
#[test]
fn combo1_simple_tau32_256() {
    let cfg = classic(CutoffCriterion::Simple { tau: 32 });
    let tr = traced_run(&cfg, 256, 256, 256, 0.0);

    let cut = |m: u128, k: u128, n: u128| m <= 32 || k <= 32 || n <= 32;
    let rec = winograd_cost(&OpCount, 256, 256, 256, &cut) as u128;
    assert_eq!(tr.total_flops(), rec, "trace != eq. (2) recurrence");
    assert_eq!(tr.total_flops(), winograd_square(3, 32), "trace != eq. (4) closed form");

    assert_eq!(tr.gemm_calls(), 343, "7^3 leaves");
    assert_eq!(tr.max_depth(), 3);
    // Every leaf is attributed to the simple criterion, eq. (11).
    let stops: u64 = tr.levels.iter().map(|l| l.stops.simple).sum();
    assert_eq!(stops, 343);
}

/// Combo 2 — 192³ under the theoretical op-count criterion (eq. (7)):
/// recursion runs to order-12 leaves (the theoretical square cutoff),
/// four levels deep.
#[test]
fn combo2_theoretical_192() {
    let cfg = classic(CutoffCriterion::TheoreticalOpCount);
    let tr = traced_run(&cfg, 192, 192, 192, 0.0);

    let cut = |m: u128, k: u128, n: u128| m * k * n <= 4 * (m * k + k * n + m * n);
    let rec = winograd_cost(&OpCount, 192, 192, 192, &cut) as u128;
    assert_eq!(tr.total_flops(), rec, "trace != eq. (2) under eq. (7) cutoff");
    assert_eq!(tr.total_flops(), winograd_square(4, 12));
    assert_eq!(tr.max_depth(), 4);
    let stops: u64 = tr.levels.iter().map(|l| l.stops.theoretical).sum();
    assert_eq!(stops, tr.gemm_calls());
}

/// Combo 3 — rectangular 96×160×64, simple criterion τ=8: three levels
/// to a 12×20×8 leaf; checks the rectangular closed form eq. (3).
#[test]
fn combo3_rectangular_closed_form() {
    let cfg = classic(CutoffCriterion::Simple { tau: 8 });
    let tr = traced_run(&cfg, 96, 160, 64, 0.0);

    let cut = |m: u128, k: u128, n: u128| m <= 8 || k <= 8 || n <= 8;
    let rec = winograd_cost(&OpCount, 96, 160, 64, &cut) as u128;
    assert_eq!(tr.total_flops(), rec);
    assert_eq!(tr.total_flops(), winograd_closed_form(3, 12, 20, 8), "trace != eq. (3)");
    assert_eq!(tr.max_depth(), 3);
}

/// Combo 4 — 64³ with `Never`: full recursion to the hard floor
/// (order-2 leaves, five levels). Every leaf must be attributed to the
/// hard floor, not to any paper criterion.
#[test]
fn combo4_never_runs_to_hard_floor() {
    let cfg = classic(CutoffCriterion::Never);
    let tr = traced_run(&cfg, 64, 64, 64, 0.0);

    let cut = |m: u128, k: u128, n: u128| m.min(k).min(n) < 4;
    let rec = winograd_cost(&OpCount, 64, 64, 64, &cut) as u128;
    assert_eq!(tr.total_flops(), rec);
    assert_eq!(tr.total_flops(), winograd_square(5, 2));
    assert_eq!(tr.gemm_calls(), 7u64.pow(5));
    let floor: u64 = tr.levels.iter().map(|l| l.stops.hard_floor).sum();
    assert_eq!(floor, tr.gemm_calls(), "all leaves stop at the hard floor");
}

/// Combo 5 — 128³ under Higham's scaled criterion τ=16 (eq. (12)),
/// which on square problems reduces to the simple criterion: order-16
/// leaves, three levels.
#[test]
fn combo5_higham_128() {
    let cfg = classic(CutoffCriterion::HighamScaled { tau: 16 });
    let tr = traced_run(&cfg, 128, 128, 128, 0.0);

    let cut = |m: u128, k: u128, n: u128| (m * k * n) as f64 <= 16.0 * ((n * k + m * n + m * k) as f64) / 3.0;
    let rec = winograd_cost(&OpCount, 128, 128, 128, &cut) as u128;
    assert_eq!(tr.total_flops(), rec);
    assert_eq!(tr.total_flops(), winograd_square(3, 16));
    let stops: u64 = tr.levels.iter().map(|l| l.stops.higham).sum();
    assert_eq!(stops, tr.gemm_calls());
}

/// Combo 6 — 128³ with Strassen's *original* 18-add construction,
/// simple criterion τ=16: the trace must land on the eq. (5) closed form
/// `S(2^d m0) = 7^d (2m0³ − m0²) + 6 m0² (7^d − 4^d)` instead of
/// Winograd's eq. (4).
#[test]
fn combo6_original_variant_128() {
    let cfg = classic(CutoffCriterion::Simple { tau: 16 }).variant(Variant::Original);
    let tr = traced_run(&cfg, 128, 128, 128, 0.0);

    let cut = |m: u128, k: u128, n: u128| m <= 16 || k <= 16 || n <= 16;
    let rec = original_cost(&OpCount, 128, 128, 128, &cut) as u128;
    assert_eq!(tr.total_flops(), rec, "trace != original-variant eq. (2)");
    assert_eq!(tr.total_flops(), original_square(3, 16), "trace != eq. (5)");
    // Winograd on the same problem does strictly fewer adds.
    assert!(tr.total_flops() > winograd_square(3, 16));
}

/// Combo 7 (bonus) — depth-limited run: `max_depth(2)` stops before the
/// criterion does, and the extra leaves are attributed to the depth
/// limit, not a paper equation.
#[test]
fn combo7_max_depth_attribution() {
    let cfg = classic(CutoffCriterion::Simple { tau: 16 }).max_depth(2);
    let tr = traced_run(&cfg, 128, 128, 128, 0.0);

    let cut = |m: u128, _: u128, _: u128| m <= 32; // depth 2 ⇒ order-32 leaves
    let rec = winograd_cost(&OpCount, 128, 128, 128, &cut) as u128;
    assert_eq!(tr.total_flops(), rec);
    assert_eq!(tr.total_flops(), winograd_square(2, 32));
    let depth_stops: u64 = tr.levels.iter().map(|l| l.stops.max_depth).sum();
    assert_eq!(depth_stops, 49, "all 7² leaves stopped by max_depth");
}

// ---------------------------------------------------------------------
// Workspace high-water vs the analytic requirement and Table 1 bounds.
// ---------------------------------------------------------------------

/// STRASSEN1 (β = 0): the measured arena high-water mark must equal the
/// mirrored requirement exactly and sit below the Section 3.2 bound
/// `(m·max(k,n) + kn)/3` (Table 1's `2m²/3` column).
#[test]
fn high_water_strassen1_beta0() {
    for m in [128usize, 256, 512] {
        let cfg = classic(CutoffCriterion::Simple { tau: 16 }).scheme(Scheme::Strassen1);
        let tr = traced_run(&cfg, m, m, m, 0.0);
        let need = required_workspace(&cfg, m, m, m, true);
        assert_eq!(tr.ws_high_water, need, "m={m}: high-water != required_workspace");
        assert!(tr.ws_root >= tr.ws_high_water);
        assert!(tr.arena_capacity >= tr.ws_root);
        let bound = strassen1_bound(m as u128, m as u128, m as u128, true);
        assert!(
            (tr.ws_high_water as f64) <= bound,
            "m={m}: {} exceeds Table 1 STRASSEN1 bound {bound}",
            tr.ws_high_water
        );
    }
}

/// STRASSEN2 (β ≠ 0): high-water equals the requirement and respects the
/// `(mk + kn + mn)/3` bound (Table 1's `m²` column).
#[test]
fn high_water_strassen2_general() {
    for m in [128usize, 256, 512] {
        let cfg = classic(CutoffCriterion::Simple { tau: 16 }).scheme(Scheme::Strassen2);
        let tr = traced_run(&cfg, m, m, m, 1.0);
        let need = required_workspace(&cfg, m, m, m, false);
        assert_eq!(tr.ws_high_water, need, "m={m}: high-water != required_workspace");
        let bound = strassen2_bound(m as u128, m as u128, m as u128);
        assert!(
            (tr.ws_high_water as f64) <= bound,
            "m={m}: {} exceeds Table 1 STRASSEN2 bound {bound}",
            tr.ws_high_water
        );
    }
}

/// The DGEFMM auto policy on a rectangular problem: measured high-water
/// equals the mirrored requirement for both β classes.
#[test]
fn high_water_auto_rectangular() {
    let cfg = classic(CutoffCriterion::Simple { tau: 16 });
    for (beta, beta_zero) in [(0.0, true), (1.0, false)] {
        let tr = traced_run(&cfg, 96, 160, 64, beta);
        let need = required_workspace(&cfg, 96, 160, 64, beta_zero);
        assert_eq!(tr.ws_high_water, need, "beta={beta}");
    }
}

/// The library presets, whose last level runs fused: the arena draws
/// nothing for a fused level, and `required_workspace` reserves nothing
/// for it, so high-water equals the requirement exactly for both β
/// classes. `dgefmm` runs an even cube, a shape below the cutoff, and an
/// odd shape whose peeled core takes the fused path. The parallel
/// preset's τ = 1024 puts one fused level at the root of an even and an
/// odd shape just above τ; at its old τ = 256 an even cube runs a
/// task-DAG level over seven fused ones (a nonzero arena) and an odd
/// shape peels into a fused root.
#[test]
fn high_water_fused_presets() {
    let tau256 = CutoffCriterion::Hybrid { tau: 256, tau_m: 128, tau_k: 128, tau_n: 128 };
    let small = [(96, 160, 64), (512, 512, 512), (257, 129, 193)];
    let above_tau = [(1088, 1088, 1088), (1155, 1029, 1091)];
    let dag_over_fused = [(1024, 1024, 1024), (515, 389, 453)];
    let cases = [
        ("dgefmm", StrassenConfig::dgefmm(), &small[..]),
        ("dgefmm_parallel", StrassenConfig::dgefmm_parallel(), &above_tau[..]),
        ("dgefmm_parallel at τ = 256", StrassenConfig::dgefmm_parallel().cutoff(tau256), &dag_over_fused[..]),
    ];
    for (label, cfg, shapes) in cases {
        for &(m, k, n) in shapes {
            for (beta, beta_zero) in [(0.0, true), (1.0, false)] {
                let tr = traced_run(&cfg, m, k, n, beta);
                let need = required_workspace(&cfg, m, k, n, beta_zero);
                assert_eq!(tr.ws_high_water, need, "{label} {m}x{k}x{n} beta={beta}");
                // The root is a task-DAG split or a fused level, both
                // recorded on the calling thread.
                let recursed = tr.splits() + tr.fused_nodes() > 0;
                assert!(recursed || label == "dgefmm", "{label} {m}x{k}x{n}: no Strassen level");
            }
        }
    }
}

/// A traced task-DAG level whose seven products run on pool threads.
/// Slow untraced filler jobs are queued on every worker's deque first: a
/// waiting caller helps with the oldest queued job and a worker takes its
/// own newest, so the caller runs fillers while the workers run the
/// level's nodes. The high-water must still be the call's exact
/// requirement: the level carries each node's workspace remainder back
/// to its caller, whichever thread ran it. The caller records a fused
/// event only for a product it ran itself, so `fused_nodes() == 0` shows
/// the case this test is for; at least one attempt must show it.
#[test]
fn high_water_counts_products_run_on_pool_threads() {
    // Serial leaf GEMMs: a product node never waits in a nested pool
    // scope, where its thread would help with the filler too.
    let cfg = StrassenConfig::dgefmm()
        .scheme(Scheme::SevenTemp)
        .parallel_depth(1)
        .cutoff(CutoffCriterion::Hybrid { tau: 128, tau_m: 64, tau_k: 64, tau_n: 64 });
    let (m, k, n) = (512, 512, 512);
    let need = required_workspace(&cfg, m, k, n, true);
    let mut caller_products = Vec::new();
    for attempt in 0..5 {
        let (queued, done) = (AtomicBool::new(false), AtomicBool::new(false));
        let tr = std::thread::scope(|s| {
            s.spawn(|| {
                pool::scope(|ps| {
                    // More filler than the call takes: each spins 0.5 ms,
                    // or until the call is done.
                    for i in 0..4096 {
                        ps.spawn_at(i, || {
                            let until = Instant::now() + Duration::from_micros(500);
                            while !done.load(Ordering::Relaxed) && Instant::now() < until {
                                std::hint::spin_loop();
                            }
                        });
                    }
                    queued.store(true, Ordering::Release);
                })
            });
            while !queued.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let tr = traced_run(&cfg, m, k, n, 0.0);
            done.store(true, Ordering::Relaxed);
            tr
        });
        assert_eq!(tr.splits(), 1, "attempt {attempt}: one DAG level at the root");
        assert_eq!(
            tr.ws_high_water,
            need,
            "attempt {attempt}: {} products ran on the caller",
            tr.fused_nodes()
        );
        caller_products.push(tr.fused_nodes());
    }
    assert!(caller_products.contains(&0), "the caller ran products in every attempt: {caller_products:?}");
}

// ---------------------------------------------------------------------
// Counter equality against the analytic profile (`counts::predict`).
// ---------------------------------------------------------------------

fn assert_profile_matches(cfg: &StrassenConfig, m: usize, k: usize, n: usize, beta: f64, label: &str) {
    let tr = traced_run(cfg, m, k, n, beta);
    let want = counts::predict(cfg, m, k, n, beta == 0.0);
    assert_eq!(tr.call_counts(), want, "{label}: trace counters != counts::predict");
}

#[test]
fn profile_matches_even_and_peeled() {
    let cfg = classic(CutoffCriterion::Simple { tau: 16 });
    assert_profile_matches(&cfg, 128, 128, 128, 0.0, "even cube, β=0");
    assert_profile_matches(&cfg, 128, 128, 128, 1.0, "even cube, β=1 (STRASSEN2)");
    assert_profile_matches(&cfg, 97, 97, 97, 0.0, "all-odd cube peels");
    assert_profile_matches(&cfg, 96, 97, 64, 0.0, "odd k only (single GER)");
    assert_profile_matches(&cfg, 97, 96, 64, 1.0, "odd m, accumulate");
}

#[test]
fn profile_matches_padding_strategies() {
    let dynamic = classic(CutoffCriterion::Simple { tau: 8 }).odd(OddHandling::DynamicPadding);
    assert_profile_matches(&dynamic, 33, 33, 33, 0.0, "dynamic padding, β=0");
    assert_profile_matches(&dynamic, 33, 33, 33, 1.0, "dynamic padding, β=1");
    let static_pad = classic(CutoffCriterion::Simple { tau: 16 }).odd(OddHandling::StaticPadding);
    assert_profile_matches(&static_pad, 100, 100, 100, 0.0, "static padding, β=0");
    assert_profile_matches(&static_pad, 100, 100, 100, 1.0, "static padding, β=1");
}

#[test]
fn profile_matches_schedule_variants() {
    let tau16 = CutoffCriterion::Simple { tau: 16 };
    assert_profile_matches(&classic(tau16).scheme(Scheme::SevenTemp), 64, 64, 64, 0.0, "seven-temp serial");
    assert_profile_matches(&classic(tau16).variant(Variant::Original), 64, 64, 64, 0.0, "original β=0");
    assert_profile_matches(
        &classic(tau16).variant(Variant::Original),
        64,
        64,
        64,
        1.0,
        "original staged β=1",
    );
    assert_profile_matches(&classic(tau16).scheme(Scheme::Strassen1), 64, 64, 64, 1.0, "STRASSEN1 general");
}

/// A `cutoff_general` override gives the two β classes different depths;
/// STRASSEN2's mixed children (2 β=0, 5 accumulate) must still match the
/// model leaf for leaf.
#[test]
fn profile_matches_split_criteria() {
    let cfg =
        classic(CutoffCriterion::Simple { tau: 16 }).cutoff_general(CutoffCriterion::Simple { tau: 32 });
    assert_profile_matches(&cfg, 128, 128, 128, 1.0, "cutoff_general override");
}

// ---------------------------------------------------------------------
// Probing must not perturb the computation.
// ---------------------------------------------------------------------

/// The same call with and without an active probe produces bitwise
/// identical output: instrumentation is observation only.
#[test]
fn tracing_is_bitwise_invisible() {
    let cfg = StrassenConfig::with_square_cutoff(32);
    let a = random::uniform::<f64>(120, 90, 7);
    let b = random::uniform::<f64>(90, 75, 8);
    let mut plain = Matrix::<f64>::zeros(120, 75);
    dgefmm(&cfg, 1.5, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, plain.as_mut());

    let mut traced = Matrix::<f64>::zeros(120, 75);
    let (_, tr) = trace::capture(|| {
        dgefmm(&cfg, 1.5, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, traced.as_mut());
    });
    assert_eq!(plain.as_slice(), traced.as_slice(), "probe changed the numbers");
    assert_eq!(tr.calls, 1);
    // The default config fuses the last level, so its leaves surface as
    // fused nodes rather than leaf GEMMs.
    assert!(tr.gemm_calls() + tr.fused_nodes() > 0);
}
