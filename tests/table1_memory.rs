//! Table 1 memory-bound regressions: the workspace the dispatcher
//! allocates stays within the paper's closed-form limits.
//!
//! Summing the per-level temporaries over an infinite recursion gives a
//! geometric series with ratio 1/4, so the totals converge to (Table 1,
//! Huss-Lederman et al. SC '96):
//!
//! - STRASSEN1, β = 0:   (m·max(k, n) + k·n) / 3
//! - STRASSEN2, any β:   (m·k + k·n + m·n) / 3
//!
//! Any schedule change that silently grows a temporary breaks these.
//!
//! Since PR 6 the 5-loop GEMM and the shared-panel fused executor lease
//! their packed panels from a thread-local grow-only buffer; the second
//! half of this file pins that buffer's capacity to the analytic
//! requirement ([`gemm_pack_elements`] / [`fused_level_pack_elements`])
//! exactly — the packing layer must stay outside the Table 1 arena and
//! must not over-allocate.

use blas::level3::{
    fused_level_pack_elements, gemm_blocked, gemm_fused_level, gemm_pack_elements, pack_buf_capacity_words,
    BlockProduct, BlockTerms, GemmConfig,
};
use blas::Op;
use matrix::{random, Matrix};
use strassen::{
    dgefmm, dgefmm_with_workspace, required_workspace, tls_arena_capacity_elements, CutoffCriterion, Scheme,
    StrassenConfig, Workspace,
};

fn strassen1(tau: usize) -> StrassenConfig {
    StrassenConfig::dgefmm().cutoff(CutoffCriterion::Simple { tau }).scheme(Scheme::Strassen1)
}

fn strassen2(tau: usize) -> StrassenConfig {
    StrassenConfig::dgefmm().cutoff(CutoffCriterion::Simple { tau }).scheme(Scheme::Strassen2)
}

/// A grid of shapes: powers of two, odd sizes, and paper-style
/// rectangles, at the smallest legal cutoff (deepest recursion — the
/// worst case for the series bound).
fn shape_grid() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (64, 64, 64),
        (128, 128, 128),
        (256, 256, 256),
        (255, 255, 255),
        (129, 129, 129),
        (100, 200, 50),
        (97, 193, 151),
        (512, 64, 512),
        (64, 512, 64),
        (1024, 32, 96),
    ];
    for s in [33, 48, 65, 96, 200] {
        shapes.push((s, s, s));
    }
    shapes
}

#[test]
fn strassen1_beta0_within_paper_bound() {
    for (m, k, n) in shape_grid() {
        for tau in [4, 8, 16] {
            let need = required_workspace(&strassen1(tau), m, k, n, true);
            let bound = (m * k.max(n) + k * n) as f64 / 3.0;
            assert!((need as f64) <= bound, "STRASSEN1 β=0 {m}x{k}x{n} τ={tau}: {need} > {bound:.1}");
        }
    }
}

#[test]
fn strassen2_general_within_paper_bound() {
    for (m, k, n) in shape_grid() {
        for tau in [4, 8, 16] {
            let need = required_workspace(&strassen2(tau), m, k, n, false);
            let bound = (m * k + k * n + m * n) as f64 / 3.0;
            assert!((need as f64) <= bound, "STRASSEN2 general {m}x{k}x{n} τ={tau}: {need} > {bound:.1}");
        }
    }
}

/// STRASSEN2 with β = 0 uses the same three-temporary schedule, so the
/// same bound applies.
#[test]
fn strassen2_beta0_within_paper_bound() {
    for (m, k, n) in shape_grid() {
        let need = required_workspace(&strassen2(4), m, k, n, true);
        let bound = (m * k + k * n + m * n) as f64 / 3.0;
        assert!((need as f64) <= bound, "STRASSEN2 β=0 {m}x{k}x{n}: {need} > {bound:.1}");
    }
}

/// `Workspace::for_problem` allocates exactly the claimed requirement —
/// no hidden slack that would mask an accounting bug.
#[test]
fn workspace_allocates_exactly_the_claim() {
    for (m, k, n) in [(64, 64, 64), (97, 193, 151), (100, 200, 50)] {
        for (cfg, beta_zero) in [(strassen1(8), true), (strassen2(8), false)] {
            let need = required_workspace(&cfg, m, k, n, beta_zero);
            let ws = Workspace::<f64>::for_problem(&cfg, m, k, n, beta_zero);
            assert_eq!(ws.len(), need, "{m}x{k}x{n}");
        }
    }
}

/// End-to-end: a multiply through an exactly-sized arena completes (an
/// under-claim would panic on arena exhaustion) and the arena never
/// needs to grow mid-run.
#[test]
fn exact_arena_suffices_end_to_end() {
    for (m, k, n) in [(96, 96, 96), (97, 65, 129)] {
        for (cfg, beta) in [(strassen1(8), 0.0), (strassen2(8), 0.5)] {
            let a = random::uniform::<f64>(m, k, 1);
            let b = random::uniform::<f64>(k, n, 2);
            let mut c = Matrix::<f64>::zeros(m, n);
            let mut ws = Workspace::<f64>::for_problem(&cfg, m, k, n, beta == 0.0);
            let before = ws.len();
            dgefmm_with_workspace(
                &cfg,
                1.0,
                Op::NoTrans,
                a.as_ref(),
                Op::NoTrans,
                b.as_ref(),
                beta,
                c.as_mut(),
                &mut ws,
            );
            assert_eq!(ws.len(), before, "arena grew mid-run for {m}x{k}x{n}");
            assert!(c.as_slice().iter().all(|x| x.is_finite()));
        }
    }
}

/// The thread-local arena `dgefmm` actually allocates stays within the
/// Table 1 bounds too. Each shape runs on a fresh thread so the arena
/// capacity observed afterwards is exactly what that one call requested
/// (no-transpose calls draw no staging, so capacity = schedule
/// requirement).
#[test]
fn tls_arena_stays_within_paper_bounds() {
    for (m, k, n) in [(96usize, 96usize, 96usize), (97, 65, 129), (128, 128, 128)] {
        for (cfg, beta, bound) in [
            (strassen1(8), 0.0, (m * k.max(n) + k * n) as f64 / 3.0),
            (strassen2(8), 0.5, (m * k + k * n + m * n) as f64 / 3.0),
        ] {
            std::thread::spawn(move || {
                let a = random::uniform::<f64>(m, k, 1);
                let b = random::uniform::<f64>(k, n, 2);
                let mut c = Matrix::<f64>::zeros(m, n);
                dgefmm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), beta, c.as_mut());
                let cap = tls_arena_capacity_elements::<f64>();
                assert!(
                    (cap as f64) <= bound,
                    "arena for {m}x{k}x{n} β={beta}: {cap} elements > Table 1 bound {bound:.1}"
                );
            })
            .join()
            .unwrap();
        }
    }
}

/// The requirement is monotone in problem size — a sanity property the
/// series bound implicitly relies on.
#[test]
fn requirement_monotone_in_size() {
    let cfg = strassen2(8);
    let mut prev = 0;
    for s in [16, 32, 64, 128, 256] {
        let need = required_workspace(&cfg, s, s, s, false);
        assert!(need >= prev, "requirement shrank from {prev} to {need} at {s}");
        prev = need;
    }
}

// ---------------------------------------------------------------------
// Packed-panel buffer accounting (PR 6).
// ---------------------------------------------------------------------

/// Alignment slack of the thread-local pack buffer: leased slices start
/// on a 64-byte boundary, so the buffer over-allocates by at most
/// `64 / size_of::<u64>()` words (see `blas::level3` packbuf docs; its
/// unit tests pin the same constant).
const PACK_SLACK_WORDS: usize = 8;

/// Strassen's 1969 table over a 2×2 grid (flat indices `row·2 + col`),
/// for driving the shared-panel executor directly.
fn strassen_products() -> [BlockProduct; 7] {
    let p = |a: &[(i8, u8)], b: &[(i8, u8)], c: &[(i8, u8)]| BlockProduct {
        a: BlockTerms::new(a),
        b: BlockTerms::new(b),
        c: BlockTerms::new(c),
    };
    [
        p(&[(1, 0), (1, 3)], &[(1, 0), (1, 3)], &[(1, 0), (1, 3)]),
        p(&[(1, 2), (1, 3)], &[(1, 0)], &[(1, 2), (-1, 3)]),
        p(&[(1, 0)], &[(1, 1), (-1, 3)], &[(1, 1), (1, 3)]),
        p(&[(1, 3)], &[(1, 2), (-1, 0)], &[(1, 0), (1, 2)]),
        p(&[(1, 0), (1, 1)], &[(1, 3)], &[(-1, 0), (1, 1)]),
        p(&[(1, 2), (-1, 0)], &[(1, 0), (1, 1)], &[(1, 3)]),
        p(&[(1, 1), (-1, 3)], &[(1, 2), (1, 3)], &[(1, 0)]),
    ]
}

/// A plain 5-loop GEMM's pack buffer holds exactly one A panel plus one
/// B panel at the problem-clamped blocking — capacity equals the
/// analytic requirement plus alignment slack, for comfortable and for
/// degenerate blocking parameters alike (f64: one element per word).
/// Shapes the unpacked small tier takes report `(0, 0)` and must lease
/// nothing at all; `(200, 65, 97)` exceeds the tier's bound, so every
/// config keeps at least one shape that packs.
#[test]
fn gemm_pack_buffer_capacity_is_exact() {
    for cfg in [
        GemmConfig::blocked(),
        GemmConfig { mc: 3, kc: 5, nc: 7, ..GemmConfig::blocked() },
        GemmConfig { mc: 4096, kc: 4096, nc: 4096, ..GemmConfig::blocked() },
    ] {
        let mut packed = 0;
        for (m, k, n) in [(64, 48, 80), (129, 65, 97), (7, 3, 5), (200, 65, 97)] {
            let (a_len, b_len) = gemm_pack_elements(&cfg, m, k, n);
            let expect = if (a_len, b_len) == (0, 0) { 0 } else { a_len + b_len + PACK_SLACK_WORDS };
            packed += usize::from(expect > 0);
            std::thread::spawn(move || {
                let a = random::uniform::<f64>(m, k, 1);
                let b = random::uniform::<f64>(k, n, 2);
                let mut c = Matrix::<f64>::zeros(m, n);
                gemm_blocked(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
                assert_eq!(
                    pack_buf_capacity_words(),
                    expect,
                    "{m}x{k}x{n} mc={} kc={} nc={}",
                    cfg.mc,
                    cfg.kc,
                    cfg.nc
                );
            })
            .join()
            .unwrap();
        }
        assert!(packed >= 1, "no shape exercised the packed nest under {cfg:?}");
    }
}

/// The fused-level executor's slab — one slot per grid block of A and B
/// plus one combination buffer each — is likewise accounted exactly.
#[test]
fn fused_level_pack_slab_capacity_is_exact() {
    for (m, k, n) in [(64usize, 64usize, 64usize), (26, 18, 34), (96, 32, 48)] {
        std::thread::spawn(move || {
            let cfg = GemmConfig::blocked();
            let a = random::uniform::<f64>(m, k, 3);
            let b = random::uniform::<f64>(k, n, 4);
            let mut c = Matrix::<f64>::zeros(m, n);
            gemm_fused_level(&cfg, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut(), &strassen_products(), 2);
            assert_eq!(
                pack_buf_capacity_words(),
                fused_level_pack_elements(&cfg, m, k, n, 2) + PACK_SLACK_WORDS,
                "{m}x{k}x{n}"
            );
        })
        .join()
        .unwrap();
    }
}

/// A full DGEFMM through the packed-panel fused path allocates no more
/// pack scratch than the top fused level's analytic requirement (inner
/// leaf GEMMs and smaller levels lease strictly smaller regions), and a
/// second identical call does not grow the buffer — the steady-state
/// zero-allocation guarantee extends to the packing layer.
#[test]
fn dgefmm_pack_footprint_bounded_and_reused() {
    std::thread::spawn(|| {
        let cfg = StrassenConfig::with_square_cutoff(16).variant(strassen::Variant::Original).max_depth(1);
        let (m, k, n) = (64, 64, 64);
        let a = random::uniform::<f64>(m, k, 5);
        let b = random::uniform::<f64>(k, n, 6);
        let mut c = Matrix::<f64>::zeros(m, n);
        dgefmm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
        let warm = pack_buf_capacity_words();
        assert_eq!(
            warm,
            fused_level_pack_elements(&cfg.gemm, m, k, n, 2) + PACK_SLACK_WORDS,
            "fused level slab is the high-water pack requirement"
        );
        dgefmm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
        assert_eq!(pack_buf_capacity_words(), warm, "pack buffer grew on a warm call");
    })
    .join()
    .unwrap();
}
