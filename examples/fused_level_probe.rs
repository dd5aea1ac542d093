//! Time the parallel fused Strassen level against the equal-thread GEMM.
//!
//! ```sh
//! cargo run --release --example fused_level_probe                 # n = 2048, 15 rounds
//! cargo run --release --example fused_level_probe -- --n 1536 --rounds 21
//! ```
//!
//! The pool runs one worker, and both sides count the helping caller, as
//! the benchmark pins it: on a host with two or more CPUs each side
//! splits over two threads. At the default `n = 2048` the preset
//! `StrassenConfig::dgefmm_parallel()` plans one fused Strassen level
//! (`τ = 1024`), so the ratio below is the cost of that level against
//! `gemm_parallel` with the preset's own `GemmConfig` on the same
//! operands. One level performs 7/8 of the GEMM's flops, so a level that
//! costs what its flops cost reads 0.875; the target is at or below 0.95.
//!
//! Each round times one call per side back to back, and which side runs
//! first alternates, so a drift in host speed moves both halves of a
//! round alike. The probe prints each side's median and quartiles and
//! the median per-round time ratio with its interquartile range. It is a
//! measurement, not a gate: it checks only that both sides agree to
//! rounding.

use blas::level3::gemm_parallel;
use blas::Op;
use matrix::{norms, random, Matrix};
use std::time::Instant;
use strassen::{dgefmm, StrassenConfig};

fn parse_flag(args: &[String], flag: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|_| panic!("{flag} needs an integer, got {v:?}")))
        .unwrap_or(default)
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
    let n = parse_flag(&args, "--n", 2048);
    let rounds = parse_flag(&args, "--rounds", 15).max(1);
    pool::set_num_threads(1).expect("the probe pins the pool to one worker before first use");

    let cfg = StrassenConfig::dgefmm_parallel();
    let a = random::uniform::<f64>(n, n, 1);
    let b = random::uniform::<f64>(n, n, 2);
    let mut c_fused = Matrix::<f64>::zeros(n, n);
    let mut c_gemm = Matrix::<f64>::zeros(n, n);
    let mut fused = || {
        let t = Instant::now();
        dgefmm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c_fused.as_mut());
        t.elapsed().as_secs_f64() * 1e3
    };
    let mut gemm = || {
        let t = Instant::now();
        gemm_parallel(&cfg.gemm, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c_gemm.as_mut());
        t.elapsed().as_secs_f64() * 1e3
    };

    // Warm the pool and both pack slabs.
    fused();
    gemm();
    let (mut t_fused, mut t_gemm, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..rounds {
        let (f, g) = if r % 2 == 0 {
            let f = fused();
            (f, gemm())
        } else {
            let g = gemm();
            (fused(), g)
        };
        t_fused.push(f);
        t_gemm.push(g);
        ratios.push(f / g);
    }
    let diff = norms::rel_diff(c_fused.as_ref(), c_gemm.as_ref());
    assert!(diff < 1e-10, "dgefmm_parallel and gemm_parallel disagree: rel diff {diff:.3e}");

    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("n = {n}, {rounds} alternating rounds, 1 pool worker plus the caller, {cpus} CPUs available");
    for (name, times) in [("dgefmm_parallel()", &t_fused), ("gemm_parallel", &t_gemm)] {
        let (q1, med, q3) = quartiles(times);
        println!("  {name:<18} {med:8.1} ms  [{q1:.1}, {q3:.1}]");
    }
    let (q1, med, q3) = quartiles(&ratios);
    let verdict = if med <= 0.95 { "meets" } else { "misses" };
    println!("time ratio fused / GEMM: median {med:.3}, interquartile range [{q1:.3}, {q3:.3}] ({verdict} the 0.95 target)");
}
