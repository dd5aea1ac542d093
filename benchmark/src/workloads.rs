//! The three workloads: inputs drawn from the seed, set-up, the measured
//! phase, and the correctness checks.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use accuracy::{compare, gemm_bound, schedule_slack, BoundSchedule};
use blas::{gemm, GemmConfig, Op};
use matrix::{norms, random, Matrix};
use pool::PoolStats;
use serve::{Request, Server, ServerConfig, Ticket};
use strassen::{dgefmm, StrassenConfig};
use testkit::Gen;

use crate::report::{Samples, Sorted};
use crate::spans::Spans;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Square2048,
    RectOddBeta,
    ServeSaturated,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Square2048, Workload::RectOddBeta, Workload::ServeSaturated];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Square2048 => "square_2048",
            Workload::RectOddBeta => "rect_odd_beta",
            Workload::ServeSaturated => "serve_saturated",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `op_ms_tail` reports. Each is fixed so that a run
    /// of the default 25 s has at least ten samples beyond it: 60 to 85
    /// calls for square_2048, 260 to 350 for rect_odd_beta, over 10⁶
    /// requests for serve_saturated.
    pub fn tail_permille(self) -> u32 {
        match self {
            Workload::Square2048 => 800,
            Workload::RectOddBeta => 950,
            Workload::ServeSaturated => 990,
        }
    }
}

/// Divides the kernel workloads' dimensions, so the in-process smoke
/// test runs the same code on small shapes. The benchmark uses `Scale(1)`.
#[derive(Clone, Copy, Debug)]
pub struct Scale(pub usize);

/// Every workload multiplies with `α = 1`.
pub const ALPHA: f64 = 1.0;

/// One product: `C ← α·A·B + β·C0`.
pub struct Case {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub a: Matrix<f64>,
    pub b: Matrix<f64>,
    pub c0: Matrix<f64>,
}

impl Case {
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }
}

/// Everything a run computes on, drawn from the seed alone.
pub struct Inputs {
    pub workload: Workload,
    pub scale: Scale,
    pub cases: Vec<Case>,
    pub beta: f64,
    /// Seeds the request stream and the latency reservoirs.
    pub stream_seed: u64,
}

/// Six rectangular shapes of about 1.35·10⁹ multiply-adds each, so the
/// per-call latencies of a round overlap: one cube and each of the five
/// other aspect ratios. Every dimension is odd, so dynamic peeling runs
/// at every recursion level.
const RECT_TEMPLATES: [(usize, usize, usize); 6] = [
    (1105, 1105, 1105),
    (2049, 801, 823),
    (801, 2049, 823),
    (823, 801, 2049),
    (1537, 1153, 769),
    (769, 1153, 1537),
];
const SERVE_SHAPES: usize = 48;
const SERVE_TEMPLATE_SEED: u64 = 0x5EE7;

pub fn inputs(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    let mut g = Gen::new(seed ^ ((workload as u64 + 1) << 56), 1.0);
    let serving = workload == Workload::ServeSaturated;
    let cases = draw_shapes(workload, &mut g, scale.0.max(1))
        .into_iter()
        .map(|(m, k, n)| Case {
            m,
            k,
            n,
            a: random::uniform(m, k, g.seed()),
            b: random::uniform(k, n, g.seed()),
            c0: if serving { Matrix::zeros(m, n) } else { random::uniform(m, n, g.seed()) },
        })
        .collect();
    let beta = if workload == Workload::RectOddBeta { 0.5 } else { 0.0 };
    Inputs { workload, scale, cases, beta, stream_seed: g.seed() }
}

fn draw_shapes(workload: Workload, g: &mut Gen, s: usize) -> Vec<(usize, usize, usize)> {
    match workload {
        Workload::Square2048 => vec![(2048 / s, 2048 / s, 2048 / s)],
        Workload::RectOddBeta => {
            // The seed moves each dimension by an even step of at most 32,
            // keeping it odd and inside [769, 2049].
            let (lo, hi) = ((769 / s) | 1, (2049 / s) | 1);
            let mut dim =
                |d: usize| ((d / s + 2 * g.usize_in_incl(0, 32)).saturating_sub(32) | 1).clamp(lo, hi);
            RECT_TEMPLATES.iter().map(|&(m, k, n)| (dim(m), dim(k), dim(n))).collect()
        }
        // Fixed templates, half with every dimension odd and half with every
        // one even, each moved by the seed by -2, 0 or +2: the seed changes
        // every shape but barely the mix of work, so throughput compares
        // across seeds. Dimensions stay in [8, 80].
        Workload::ServeSaturated => {
            let mut template = Gen::new(SERVE_TEMPLATE_SEED, 1.0);
            (0..SERVE_SHAPES)
                .map(|i| {
                    let mut dim = || {
                        let d = if i % 2 == 1 {
                            template.odd_usize_in(11, 78)
                        } else {
                            2 * template.usize_in_incl(5, 39)
                        };
                        d + 2 * g.usize_in_incl(0, 2) - 2
                    };
                    (dim(), dim(), dim())
                })
                .collect()
        }
    }
}

/// FNV-1a over every shape and operand bit, for the seed-purity check.
pub fn checksum(inp: &Inputs) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for c in &inp.cases {
        for d in [c.m, c.k, c.n] {
            eat(d as u64);
        }
        for x in c.a.as_slice().iter().chain(c.b.as_slice()).chain(c.c0.as_slice()) {
            eat(x.to_bits());
        }
    }
    h
}

/// Pool workers: one fewer than the CPUs, because a thread waiting on a
/// `pool::scope` or a DAG runs tasks too, so `n` workers make `n + 1`
/// compute threads. Refuses an environment override that disagrees.
pub fn pin_workers() -> Result<usize, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let want = nproc.saturating_sub(1).max(1);
    for var in ["STRASSEN_THREADS", "STRASSEN_NUM_THREADS"] {
        if let Some(n) = std::env::var(var).ok().and_then(|v| v.trim().parse::<usize>().ok()) {
            if n != want {
                return Err(format!(
                    "{var}={n} disagrees with the benchmark's pin of {want} worker(s); unset it"
                ));
            }
        }
    }
    match pool::pin_once(want) {
        got if got == want => Ok(got),
        got => Err(format!("the pool already runs {got} worker(s); the benchmark pins {want}")),
    }
}

/// What one run measured.
pub struct Measured {
    pub setup_s: f64,
    pub workers: usize,
    /// Operations of the measured phase: `dgefmm` calls or requests.
    pub ops: u64,
    /// Failed operations and failed output checks.
    pub failed: u64,
    /// Useful flops (`Σ 2mkn`) of the measured phase.
    pub flops: f64,
    /// Seconds the flops took: the summed call times for the kernels,
    /// the wall clock of the closed loop for serving.
    pub timed_s: f64,
    pub latency_ms: Sorted,
    pub pool: PoolStats,
    /// The configuration each case ran under, in case order.
    pub configs: Vec<StrassenConfig>,
    pub serve: Option<ServeLayer>,
}

/// The serving layer's own numbers, from the `Completed` fields.
pub struct ServeLayer {
    pub queue_us: Sorted,
    pub exec_us: Sorted,
    pub batch_mean: f64,
    /// Time inside `dgefmm` as a share of request latency.
    pub exec_share: f64,
}

enum Ready {
    Kernel(StrassenConfig, Vec<Matrix<f64>>),
    Serve(Server, Vec<Matrix<f64>>),
}

/// Set-up, timed from the first call into the program (`pin_once`)
/// through the warm-up: two calls of the square shape, one call of each
/// rectangular shape, or starting the server and serving each shape
/// once. Output buffers are allocated before the clock starts.
fn setup(inp: &Inputs) -> Result<(Ready, f64, usize), String> {
    let mut outputs: Vec<Matrix<f64>> = inp.cases.iter().map(|c| c.c0.clone()).collect();
    let start = Instant::now();
    let workers = pin_workers()?;
    let ready = if inp.workload == Workload::ServeSaturated {
        let server = Server::start(ServerConfig::default());
        let tickets = inp
            .cases
            .iter()
            .map(|c| server.submit_blocking(Request::new(c.a.clone(), c.b.clone())))
            .collect::<Result<Vec<Ticket>, _>>()
            .map_err(|r| format!("warm-up request rejected: {:?}", r.reason))?;
        Ready::Serve(server, tickets.into_iter().map(|t| t.wait().c).collect())
    } else {
        let cfg = StrassenConfig::dgefmm_parallel();
        let rounds = if inp.cases.len() == 1 { 2 } else { 1 };
        for _ in 0..rounds {
            for (case, c) in inp.cases.iter().zip(&mut outputs) {
                call(inp, &cfg, case, c);
            }
        }
        Ready::Kernel(cfg, outputs)
    };
    Ok((ready, start.elapsed().as_secs_f64(), workers))
}

/// Set-up time alone, for the repeated set-up samples.
pub fn setup_seconds(inp: &Inputs) -> Result<f64, String> {
    setup(inp).map(|(_, secs, _)| secs)
}

/// Set up, check, measure for `budget`, check again.
pub fn run(inp: &Inputs, budget: Duration, spans: Option<&mut Spans>) -> Result<Measured, String> {
    let (ready, setup_s, workers) = setup(inp)?;
    Ok(match ready {
        Ready::Kernel(cfg, outputs) => measure_kernel(inp, cfg, outputs, budget, spans, setup_s, workers),
        Ready::Serve(server, warm) => measure_serve(inp, server, &warm, budget, spans, setup_s, workers),
    })
}

/// One kernel call into `c`, restoring `C0` first when `β ≠ 0`; returns
/// the call's start and duration.
pub fn call(inp: &Inputs, cfg: &StrassenConfig, case: &Case, c: &mut Matrix<f64>) -> (Instant, Duration) {
    if inp.beta != 0.0 {
        c.as_mut_slice().copy_from_slice(case.c0.as_slice());
    }
    let start = Instant::now();
    dgefmm(cfg, ALPHA, Op::NoTrans, case.a.as_ref(), Op::NoTrans, case.b.as_ref(), inp.beta, c.as_mut());
    (start, start.elapsed())
}

/// The classic 5-loop GEMM result the kernel outputs are checked against.
fn reference(inp: &Inputs, case: &Case) -> Matrix<f64> {
    let mut r = case.c0.clone();
    gemm(
        &GemmConfig::auto(),
        ALPHA,
        Op::NoTrans,
        case.a.as_ref(),
        Op::NoTrans,
        case.b.as_ref(),
        inp.beta,
        r.as_mut(),
    );
    r
}

/// Cases whose output is farther from the reference than the fast
/// algorithm's error bound plus the classic algorithm's allows.
fn failed_checks(
    inp: &Inputs,
    configs: &[StrassenConfig],
    outputs: &[Matrix<f64>],
    refs: &[Matrix<f64>],
) -> u64 {
    let mut failed = 0;
    for (((case, cfg), out), r) in inp.cases.iter().zip(configs).zip(outputs).zip(refs) {
        let (na, nb, nc) = (
            norms::max_abs(case.a.as_ref()),
            norms::max_abs(case.b.as_ref()),
            norms::max_abs(case.c0.as_ref()),
        );
        let bound = |s| gemm_bound(case.m, case.k, case.n, &cfg.cutoff, s, ALPHA, na, nb, inp.beta, nc);
        let allowed = schedule_slack(cfg.scheme) * bound(BoundSchedule::for_config(cfg.variant, cfg.family))
            + bound(BoundSchedule::Classic);
        let err = compare(out.as_ref(), r.as_ref()).max_abs_diff;
        if err.is_nan() || err > allowed {
            eprintln!("check failed: {}x{}x{} error {err:e} > bound {allowed:e}", case.m, case.k, case.n);
            failed += 1;
        }
    }
    failed
}

fn measure_kernel(
    inp: &Inputs,
    cfg: StrassenConfig,
    mut outputs: Vec<Matrix<f64>>,
    budget: Duration,
    mut spans: Option<&mut Spans>,
    setup_s: f64,
    workers: usize,
) -> Measured {
    let configs = vec![cfg; inp.cases.len()];
    let refs: Vec<Matrix<f64>> = inp.cases.iter().map(|c| reference(inp, c)).collect();
    let mut failed = failed_checks(inp, &configs, &outputs, &refs);

    let mut latency = Samples::new(inp.stream_seed);
    let (mut ops, mut flops, mut timed_s) = (0u64, 0.0, 0.0);
    let pool0 = pool::pool_stats();
    let start = Instant::now();
    while ops == 0 || start.elapsed() < budget {
        for (case, c) in inp.cases.iter().zip(&mut outputs) {
            let (t, dt) = call(inp, &cfg, case, c);
            if let Some(s) = spans.as_deref_mut() {
                s.record("dgefmm", t, dt, None);
            }
            latency.push(dt.as_secs_f64() * 1e3);
            timed_s += dt.as_secs_f64();
            flops += case.flops();
            ops += 1;
        }
    }
    let pool = pool::pool_stats().since(&pool0);
    failed += failed_checks(inp, &configs, &outputs, &refs);
    Measured {
        setup_s,
        workers,
        ops,
        failed,
        flops,
        timed_s,
        latency_ms: latency.finish(),
        pool,
        configs,
        serve: None,
    }
}

/// Requests a single generator thread keeps outstanding.
const WINDOW: usize = 256;
/// Every this-many-th response is checked bit for bit.
const CHECK_EVERY: u64 = 64;

struct Pending {
    ticket: Ticket,
    case: usize,
    submitted: Instant,
    /// Nanoseconds `submit_blocking` waited for queue space.
    admit_ns: u64,
    check: bool,
}

struct ServeTally {
    latency_ms: Samples,
    queue_us: Samples,
    exec_us: Samples,
    flops: f64,
    exec_ns: u64,
    latency_ns: u64,
    failed: u64,
}

impl ServeTally {
    fn complete(&mut self, p: Pending, inp: &Inputs, replays: &[Matrix<f64>], spans: Option<&mut Spans>) {
        let done = p.ticket.wait();
        let total_ns = p.admit_ns + done.latency_ns;
        self.latency_ms.push(total_ns as f64 / 1e6);
        self.queue_us.push(done.queue_ns as f64 / 1e3);
        self.exec_us.push(done.exec_ns as f64 / 1e3);
        self.flops += inp.cases[p.case].flops();
        self.exec_ns += done.exec_ns;
        self.latency_ns += total_ns;
        if p.check && done.c != replays[p.case] {
            eprintln!("check failed: response for shape {} differs from its inline replay", p.case);
            self.failed += 1;
        }
        if let Some(s) = spans {
            let id = s.record("request", p.submitted, Duration::from_nanos(total_ns), None);
            let queued = p.submitted + Duration::from_nanos(p.admit_ns);
            s.record("queue", queued, Duration::from_nanos(done.queue_ns), id);
            s.record(
                "exec",
                queued + Duration::from_nanos(done.queue_ns),
                Duration::from_nanos(done.exec_ns),
                id,
            );
        }
    }
}

fn measure_serve(
    inp: &Inputs,
    server: Server,
    warm: &[Matrix<f64>],
    budget: Duration,
    mut spans: Option<&mut Spans>,
    setup_s: f64,
    workers: usize,
) -> Measured {
    let configs: Vec<StrassenConfig> = inp.cases.iter().map(|c| server.config_for(c.m, c.k, c.n)).collect();
    // Inline replays under the server's own plans: every checked response
    // must equal its replay bit for bit, and each replay must be within
    // the error bound of the classic GEMM.
    let replays: Vec<Matrix<f64>> = inp
        .cases
        .iter()
        .zip(&configs)
        .map(|(case, cfg)| {
            let mut c = case.c0.clone();
            call(inp, cfg, case, &mut c);
            c
        })
        .collect();
    let refs: Vec<Matrix<f64>> = inp.cases.iter().map(|c| reference(inp, c)).collect();
    let warm_mismatches = warm.iter().zip(&replays).filter(|(w, r)| w != r).count() as u64;
    let mut tally = ServeTally {
        latency_ms: Samples::new(inp.stream_seed ^ 1),
        queue_us: Samples::new(inp.stream_seed ^ 2),
        exec_us: Samples::new(inp.stream_seed ^ 3),
        flops: 0.0,
        exec_ns: 0,
        latency_ns: 0,
        failed: failed_checks(inp, &configs, &replays, &refs) + warm_mismatches,
    };

    let mut stream = Gen::new(inp.stream_seed, 1.0);
    let mut window: VecDeque<Pending> = VecDeque::with_capacity(WINDOW);
    let mut ops = 0u64;
    let stats0 = server.stats();
    let pool0 = pool::pool_stats();
    let start = Instant::now();
    while ops == 0 || start.elapsed() < budget {
        let case = stream.usize_in(0, inp.cases.len());
        let req = Request::new(inp.cases[case].a.clone(), inp.cases[case].b.clone());
        let submitted = Instant::now();
        match server.submit_blocking(req) {
            Ok(ticket) => {
                let admit_ns = submitted.elapsed().as_nanos() as u64;
                window.push_back(Pending {
                    ticket,
                    case,
                    submitted,
                    admit_ns,
                    check: ops.is_multiple_of(CHECK_EVERY),
                });
            }
            Err(rejected) => {
                eprintln!("request rejected: {:?}", rejected.reason);
                tally.failed += 1;
            }
        }
        ops += 1;
        if window.len() >= WINDOW {
            let oldest = window.pop_front().expect("window is full");
            tally.complete(oldest, inp, &replays, spans.as_deref_mut());
        }
    }
    while let Some(p) = window.pop_front() {
        tally.complete(p, inp, &replays, spans.as_deref_mut());
    }
    let timed_s = start.elapsed().as_secs_f64();
    let pool = pool::pool_stats().since(&pool0);
    let stats = server.shutdown();
    let batches = stats.batches.saturating_sub(stats0.batches).max(1);
    let completed = stats.completed.saturating_sub(stats0.completed);
    Measured {
        setup_s,
        workers,
        ops,
        failed: tally.failed,
        flops: tally.flops,
        timed_s,
        latency_ms: tally.latency_ms.finish(),
        pool,
        configs,
        serve: Some(ServeLayer {
            queue_us: tally.queue_us.finish(),
            exec_us: tally.exec_us.finish(),
            batch_mean: completed as f64 / batches as f64,
            exec_share: tally.exec_ns as f64 / tally.latency_ns.max(1) as f64,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_stay_in_their_ranges() {
        for seed in 0..50 {
            for (m, k, n) in draw_shapes(Workload::RectOddBeta, &mut Gen::new(seed, 1.0), 1) {
                for d in [m, k, n] {
                    assert!(d % 2 == 1 && (769..=2049).contains(&d), "seed {seed}: {d}");
                }
            }
            for (i, (m, k, n)) in
                draw_shapes(Workload::ServeSaturated, &mut Gen::new(seed, 1.0), 1).into_iter().enumerate()
            {
                for d in [m, k, n] {
                    assert!(d % 2 == i % 2 && (8..=80).contains(&d), "seed {seed}, shape {i}: {d}");
                }
            }
        }
    }
}
