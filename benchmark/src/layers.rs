//! Per-layer metrics for traced runs, each taken from outside the
//! program: timing calls into a layer's public functions, and reading
//! the counters the layers already expose.
//!
//! The `strassen.*` numbers come from each case's serial twin (the same
//! configuration with `parallel_depth(0)` and the serial GEMM) run under
//! `strassen::trace::profile`, whose thread-local probe does not see work
//! on pool threads.

use std::time::{Duration, Instant};

use blas::level3::{gemm_blocked, CacheInfo};
use blas::{gemm, GemmConfig, Op};
use matrix::{random, Matrix};
use strassen::probe::{Phase, Profile};
use strassen::{planned_depth, trace, workspace_elements, StrassenConfig};

use crate::report::Metric;
use crate::spans::Spans;
use crate::workloads::{call, Inputs, Measured, ServeLayer, ALPHA};

/// Largest array the bandwidth probe allocates (two are needed). The
/// 4×L3 rule would ask for 1.2 GiB each on hosts that report a 300 MiB
/// L3; the cap keeps the probe's memory modest on shared hosts.
const STREAM_CAP_BYTES: usize = 256 << 20;
/// Bytes an add pass or `axpby` moves per element: two reads, one write.
const BYTES_PER_ELEMENT_PASS: f64 = 24.0;

pub fn per_layer(inp: &Inputs, m: &Measured, spans: &mut Spans) -> Vec<Metric> {
    let stream = spans.time("blas.stream", None, || stream_gbs(inp.scale.0));
    let mut out = blas_metrics(inp, &m.configs, spans);
    out.push(Metric::new("blas.stream_gbs", "GB/s", stream));
    out.extend(strassen_metrics(inp, &m.configs, stream, spans));
    out.extend(pool_metrics(m));
    out.extend(serve_metrics(m));
    out
}

/// Median seconds per call of `f`, over at least three calls and `budget`.
fn median_secs(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    stats::median(&times)
}

/// Leaf shape the dispatcher reaches: each level peels odd dimensions
/// and halves the rest.
fn leaf_dims(cfg: &StrassenConfig, m: usize, k: usize, n: usize) -> (usize, usize, usize) {
    (0..planned_depth(cfg, m, k, n)).fold((m, k, n), |(m, k, n), _| (m / 2, k / 2, n / 2))
}

fn blas_metrics(inp: &Inputs, configs: &[StrassenConfig], spans: &mut Spans) -> Vec<Metric> {
    let per_case = Duration::from_secs_f64(0.6 / inp.cases.len() as f64);
    let (mut flops, mut gemm_s, mut leaf_flops, mut leaf_s) = (0.0, 0.0, 0.0, 0.0);
    let (a_op, b_op) = (Op::NoTrans, Op::NoTrans);
    for (case, cfg) in inp.cases.iter().zip(configs) {
        // The workload's own GEMM on the full shape: the baseline DGEFMM
        // has to beat.
        let mut c = case.c0.clone();
        gemm_s += spans.time("blas.gemm", None, || {
            median_secs(per_case, || {
                gemm(&cfg.gemm, ALPHA, a_op, case.a.as_ref(), b_op, case.b.as_ref(), inp.beta, c.as_mut())
            })
        });
        flops += case.flops();

        let (lm, lk, ln) = leaf_dims(cfg, case.m, case.k, case.n);
        let (la, lb) = (case.a.as_ref().submatrix(0, 0, lm, lk), case.b.as_ref().submatrix(0, 0, lk, ln));
        let mut lc = Matrix::<f64>::zeros(lm, ln);
        leaf_s += spans.time("blas.leaf", None, || {
            median_secs(per_case, || gemm(&GemmConfig::auto(), 1.0, a_op, la, b_op, lb, 0.0, lc.as_mut()))
        });
        leaf_flops += 2.0 * (lm * lk * ln) as f64;
    }

    let n = 512 / inp.scale.0;
    let (a, b) = (random::uniform::<f64>(n, n, 1), random::uniform::<f64>(n, n, 2));
    let mut c = Matrix::<f64>::zeros(n, n);
    let peak_s = spans.time("blas.peak", None, || {
        median_secs(Duration::from_millis(300), || {
            gemm_blocked(&GemmConfig::auto(), 1.0, a_op, a.as_ref(), b_op, b.as_ref(), 0.0, c.as_mut())
        })
    });
    vec![
        Metric::new("blas.gemm_gflops", "GFLOP/s", flops / gemm_s / 1e9),
        Metric::new("blas.leaf_gflops", "GFLOP/s", leaf_flops / leaf_s / 1e9),
        Metric::new("blas.peak_gflops", "GFLOP/s", 2.0 * (n * n * n) as f64 / peak_s / 1e9),
    ]
}

/// Streaming bandwidth of `axpby` over two arrays of `min(4·L3, cap)`.
fn stream_gbs(scale: usize) -> f64 {
    let l3 = CacheInfo::detect().l3;
    let bytes = (4 * l3).min(STREAM_CAP_BYTES) / scale.max(1);
    let rows = 1024;
    let cols = (bytes / 8 / rows).max(1);
    let x = Matrix::<f64>::from_fn(rows, cols, |i, j| (i + j) as f64);
    let mut y = Matrix::<f64>::from_fn(rows, cols, |i, j| (i * j) as f64);
    let secs = median_secs(Duration::from_millis(500), || blas::add::axpby(0.5, x.as_ref(), 0.5, y.as_mut()));
    let array_mib = (rows * cols * 8) as f64 / (1 << 20) as f64;
    println!("  stream: axpby over 2 arrays of {array_mib:.0} MiB each (L3 {} MiB)", l3 >> 20);
    BYTES_PER_ELEMENT_PASS * (rows * cols) as f64 / secs / 1e9
}

fn strassen_metrics(
    inp: &Inputs,
    configs: &[StrassenConfig],
    stream_gbs: f64,
    spans: &mut Spans,
) -> Vec<Metric> {
    let twins: Vec<StrassenConfig> =
        configs.iter().map(|c| c.parallel_depth(0).gemm(GemmConfig::auto())).collect();
    let mut outputs: Vec<Matrix<f64>> = inp.cases.iter().map(|c| c.c0.clone()).collect();
    let mut round = || {
        for ((case, cfg), c) in inp.cases.iter().zip(&twins).zip(&mut outputs) {
            call(inp, cfg, case, c);
        }
    };
    round();
    // Untraced and traced rounds alternate, so drift in the host's speed
    // does not land on one side of `trace_overhead`.
    let (mut untraced, mut traced, mut profiles) = (0.0, 0.0, Vec::new());
    let start = Instant::now();
    while profiles.is_empty() || start.elapsed() < Duration::from_secs(2) {
        let t = Instant::now();
        spans.time("strassen.twin", None, &mut round);
        untraced += t.elapsed().as_secs_f64();
        let t = Instant::now();
        profiles.push(trace::profile(|| spans.time("strassen.twin_traced", None, &mut round)).1);
        traced += t.elapsed().as_secs_f64();
    }

    let rounds = profiles.len();
    let calls = (rounds * inp.cases.len()) as f64;
    let sum = |f: &dyn Fn(&Profile) -> u64| profiles.iter().map(f).sum::<u64>() as f64;
    let phase_ns = |phase: Phase| sum(&|p| p.phase_total(phase).ns);
    let ms = |phases: &[Phase]| phases.iter().map(|&p| phase_ns(p)).sum::<f64>() / 1e6 / calls;
    let total_ns = sum(&|p| p.trace.total_ns).max(1.0);
    let attributed_ns = sum(&|p| p.attributed_ns());
    let add_ns = phase_ns(Phase::Add);
    let add_elements = profiles.iter().map(|p| p.phase_total(Phase::Add).flops).sum::<u128>() as f64;
    let add_gbs = if add_ns == 0.0 { 0.0 } else { BYTES_PER_ELEMENT_PASS * add_elements / add_ns };
    let workspace = inp
        .cases
        .iter()
        .zip(configs)
        .map(|(c, cfg)| workspace_elements(cfg, c.m, c.k, c.n, inp.beta == 0.0))
        .max()
        .unwrap_or(0);
    let depth =
        inp.cases.iter().zip(configs).map(|(c, cfg)| planned_depth(cfg, c.m, c.k, c.n)).max().unwrap_or(0);
    println!(
        "  strassen: serial twin, {rounds} round(s) of {} call(s), recursion depth up to {depth}",
        inp.cases.len()
    );
    vec![
        Metric::new("strassen.leaf_ms", "ms/op", ms(&[Phase::GemmLeaf, Phase::Fused])),
        Metric::new("strassen.add_ms", "ms/op", ms(&[Phase::Add])),
        Metric::new("strassen.scale_copy_ms", "ms/op", ms(&[Phase::Copy, Phase::Scale, Phase::Pad])),
        Metric::new("strassen.peel_ms", "ms/op", ms(&[Phase::Peel])),
        Metric::new("strassen.dispatch_ms", "ms/op", (total_ns - attributed_ns) / 1e6 / calls),
        Metric::new("strassen.add_gbs", "GB/s", add_gbs),
        Metric::new("strassen.add_bw_frac", "fraction", add_gbs / stream_gbs),
        Metric::new("strassen.workspace_mib", "MiB", (workspace * 8) as f64 / (1 << 20) as f64),
        Metric::new("strassen.attributed_share", "fraction", attributed_ns / total_ns),
        Metric::new("strassen.trace_overhead", "fraction", traced / untraced - 1.0),
    ]
}

/// The pool's counters over the measured phase, per operation.
fn pool_metrics(m: &Measured) -> Vec<Metric> {
    let p = &m.pool;
    let ops = m.ops.max(1) as f64;
    let per_op = |v: u64| v as f64 / ops;
    vec![
        Metric::new("pool.jobs", "count/op", per_op(p.total_jobs())),
        Metric::new("pool.steals", "count/op", per_op(p.workers.iter().map(|w| w.steals).sum())),
        Metric::new("pool.helper_pops", "count/op", per_op(p.helper_pops)),
        Metric::new("pool.parks", "count/op", per_op(p.workers.iter().map(|w| w.parks).sum())),
        Metric::new("pool.busy_ms", "ms/op", p.total_busy_ns() as f64 / 1e6 / ops),
        Metric::new("pool.utilization", "fraction", p.utilization((m.timed_s * 1e9) as u64)),
    ]
}

/// The serving layer's numbers; all 0 on the kernel workloads, which
/// bypass it.
fn serve_metrics(m: &Measured) -> Vec<Metric> {
    let get = |f: &dyn Fn(&ServeLayer) -> f64| m.serve.as_ref().map_or(0.0, f);
    vec![
        Metric::new("serve.queue_us_p50", "us", get(&|s| s.queue_us.at(500))),
        Metric::new("serve.queue_us_p99", "us", get(&|s| s.queue_us.at(990))),
        Metric::new("serve.exec_us_p50", "us", get(&|s| s.exec_us.at(500))),
        Metric::new("serve.exec_us_p99", "us", get(&|s| s.exec_us.at(990))),
        Metric::new("serve.batch_mean", "requests", get(&|s| s.batch_mean)),
        Metric::new("serve.exec_share", "fraction", get(&|s| s.exec_share)),
    ]
}
