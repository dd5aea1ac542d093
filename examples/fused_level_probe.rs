//! Time one Strassen level, or a preset's own plan, against the
//! same-thread GEMM: the crossover sweep behind both presets' eq.-(15)
//! cutoff (EXPERIMENTS.md, Table 2 section).
//!
//! ```sh
//! cargo run --release --example fused_level_probe                 # 2048³, one level, 15 rounds
//! cargo run --release --example fused_level_probe -- --n 1536 --rounds 21
//! cargo run --release --example fused_level_probe -- --shapes 1104,1105,1087x1091x1107 --beta 0.5
//! cargo run --release --example fused_level_probe -- --serial --preset --shapes 64,100,256,1024
//! ```
//!
//! `--shapes` takes a comma-separated list of cubes (`1105`) and shapes
//! (`MxKxN`); `--n N` is the one cube `N`. By default the Strassen side
//! runs exactly one level at the root of every shape (an odd dimension is
//! peeled first, so the level runs fused on the even core); `--preset`
//! runs the preset's own plan instead, whose planned depth the `d`
//! column shows. `--beta` sets `β` on both sides (default 0).
//!
//! The parallel side (the default) is `StrassenConfig::dgefmm_parallel()`
//! against `gemm` with the preset's own pool-parallel `GemmConfig`. The
//! pool runs one worker, and both sides count the helping caller, as the
//! benchmark pins it: on a host with two or more CPUs each side splits
//! over two threads. `--serial` runs `StrassenConfig::dgefmm()` against
//! the serial `gemm` on the calling thread. One level performs 7/8 of the
//! GEMM's flops, so a level that costs what its flops cost reads 0.875;
//! ROADMAP item 1's target for the fused level is at or below 0.95.
//!
//! Each round times one call per side back to back, and which side runs
//! first alternates, so a drift in host speed moves both halves of a
//! round alike. One markdown row per shape gives each side's median and
//! quartiles and the median per-round time ratio with its interquartile
//! range. It is a measurement, not a gate: it checks only that both
//! sides agree to rounding.

use blas::level3::gemm;
use blas::Op;
use matrix::{norms, random};
use std::time::Instant;
use strassen::{dgefmm, planned_depth, CutoffCriterion, StrassenConfig};

fn flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse<T: std::str::FromStr>(what: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| panic!("{what}: cannot parse {v:?}"))
}

/// `1105` is the cube 1105³; `1087x1091x1107` is `(m, k, n)`.
fn parse_shape(s: &str) -> (usize, usize, usize) {
    let dims: Vec<usize> = s.split('x').map(|d| parse("--shapes", d)).collect();
    match dims[..] {
        [n] => (n, n, n),
        [m, k, n] => (m, k, n),
        _ => panic!("--shapes: {s:?} is neither N nor MxKxN"),
    }
}

/// `(q1, median, q3)` of `xs` by nearest rank.
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = |q: f64| s[((s.len() - 1) as f64 * q).round() as usize];
    (rank(0.25), rank(0.5), rank(0.75))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let shapes: Vec<(usize, usize, usize)> = match (flag(&args, "--shapes"), flag(&args, "--n")) {
        (Some(list), _) => list.split(',').map(parse_shape).collect(),
        (None, n) => {
            let n = n.map_or(2048, |v| parse("--n", v));
            vec![(n, n, n)]
        }
    };
    let rounds = flag(&args, "--rounds").map_or(15, |v| parse::<usize>("--rounds", v)).max(1);
    let beta: f64 = flag(&args, "--beta").map_or(0.0, |v| parse("--beta", v));
    let serial = args.iter().any(|a| a == "--serial");
    let preset_plan = args.iter().any(|a| a == "--preset");
    pool::set_num_threads(1).expect("the probe pins the pool to one worker before first use");

    let (preset, name) = if serial {
        (StrassenConfig::dgefmm(), "dgefmm()")
    } else {
        (StrassenConfig::dgefmm_parallel(), "dgefmm_parallel()")
    };
    let cfg = if preset_plan { preset } else { preset.cutoff(CutoffCriterion::Never).max_depth(1) };
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let threads = if serial { "the calling thread" } else { "1 pool worker plus the caller" };
    let plan = if preset_plan { "its own plan" } else { "one level at the root" };
    println!("{name} ({plan}) against the same-thread GEMM, β = {beta}, {rounds} alternating rounds,");
    println!("{threads}, {cpus} CPUs available; times in ms, median [q1, q3]");
    println!();
    println!("| shape | d | Strassen | GEMM | ratio Strassen / GEMM |");
    println!("|---|---|---|---|---|");

    for &(m, k, n) in &shapes {
        let a = random::uniform::<f64>(m, k, 1);
        let b = random::uniform::<f64>(k, n, 2);
        let c0 = random::uniform::<f64>(m, n, 3);
        let (mut c_fmm, mut c_gemm) = (c0.clone(), c0);
        let mut fmm = || {
            let t = Instant::now();
            dgefmm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), beta, c_fmm.as_mut());
            t.elapsed().as_secs_f64() * 1e3
        };
        let mut plain = || {
            let t = Instant::now();
            gemm(&cfg.gemm, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), beta, c_gemm.as_mut());
            t.elapsed().as_secs_f64() * 1e3
        };

        // Warm the pool, the arena and both pack slabs.
        fmm();
        plain();
        let (mut t_fmm, mut t_gemm, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for r in 0..rounds {
            let (f, g) = if r % 2 == 0 {
                let f = fmm();
                (f, plain())
            } else {
                let g = plain();
                (fmm(), g)
            };
            t_fmm.push(f);
            t_gemm.push(g);
            ratios.push(f / g);
        }
        let diff = norms::rel_diff(c_fmm.as_ref(), c_gemm.as_ref());
        assert!(diff < 1e-10, "{name} and gemm disagree at {m}x{k}x{n}: rel diff {diff:.3e}");

        let cell = |times: &[f64]| {
            let (q1, med, q3) = quartiles(times);
            let p = if med < 1.0 {
                3
            } else if med < 10.0 {
                2
            } else {
                1
            };
            format!("{med:.p$} [{q1:.p$}, {q3:.p$}]")
        };
        let (q1, med, q3) = quartiles(&ratios);
        let shape = if m == k && k == n { format!("{n}³") } else { format!("{m}×{k}×{n}") };
        let depth = planned_depth(&cfg, m, k, n);
        println!(
            "| {shape} | {depth} | {} | {} | {med:.3} [{q1:.3}, {q3:.3}] |",
            cell(&t_fmm),
            cell(&t_gemm)
        );
    }
}
