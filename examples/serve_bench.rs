//! Serving-layer load generator: deterministic mixed-shape request
//! streams against the shape-bucketed batching server, reporting the
//! latency distribution (p50/p99/p999) and aggregate throughput into
//! `BENCH_PR10.json`.
//!
//! ```sh
//! cargo run --release --example serve_bench                # full run
//! BENCH_SMOKE=1 cargo run --release --example serve_bench  # CI smoke
//! ```
//!
//! The stream is a pure function of `SERVE_BENCH_SEED`: shapes come
//! from the differential fuzzer's sampler (`accuracy::draw_shape` —
//! square, skinny and odd/prime shapes up to 80), operands are drawn
//! once per distinct shape, and requests cycle over that pool through
//! the seeded generator. Submission uses `submit_blocking` with a
//! bounded outstanding-ticket window, so the harness applies
//! backpressure instead of shedding — `rejected_full` must end at 0.
//!
//! Three runs: the main batched run (default server posture) sized by
//! `SERVE_BENCH_REQUESTS` (smoke default 100 000 requests, full
//! 200 000), then a batched-vs-unbatched comparison pair on a shorter
//! identical stream. The comparison feeds the batching gate: batched
//! aggregate throughput ≥ 1.3× unbatched, enforced only on a full run
//! with ≥ 2 physical cores (a single-core host cannot overlap batch
//! members; the gate is recorded and loudly waived there, same policy
//! as `bench_quick`'s parallel gates). `BENCH_NO_GUARD=1` demotes an
//! enforced failure to a warning.
//!
//! Every request runs the library's tuned plan,
//! `StrassenConfig::dgefmm()`.
//!
//! Output: `BENCH_PR10.json` (or `.smoke.json`), with a `results`
//! array keyed `(bench = "serve_<class>", n = bucket bin)` so
//! `examples/bench_diff.rs` can diff serving trajectories shape by
//! shape exactly like the kernel benches.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use accuracy::draw_shape;
use matrix::{random, Matrix};
use serve::{BucketKey, MachineProfile, Request, Server, ServerConfig, ServerStats, Ticket};
use strassen::probe::json::JsonWriter;
use testkit::Gen;

/// Outstanding-ticket window: enough to keep every dispatch cycle full
/// (default queue depth) without holding the whole stream in memory.
const WINDOW: usize = 256;
/// Distinct shapes in the operand pool; requests cycle over these.
const SHAPE_POOL: usize = 48;

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

/// One pre-drawn shape with its operands; requests clone the matrices.
struct PooledShape {
    dims: (usize, usize, usize),
    flops: f64,
    a: Matrix<f64>,
    b: Matrix<f64>,
}

fn build_pool(seed: u64) -> Vec<PooledShape> {
    let mut g = Gen::new(seed, 1.0);
    (0..SHAPE_POOL)
        .map(|_| {
            let (m, k, n) = draw_shape(&mut g);
            PooledShape {
                dims: (m, k, n),
                flops: 2.0 * (m * k * n) as f64,
                a: random::uniform::<f64>(m, k, g.seed()),
                b: random::uniform::<f64>(k, n, g.seed()),
            }
        })
        .collect()
}

#[derive(Default)]
struct BucketAgg {
    requests: u64,
    min_exec_ns: u64,
    best_gflops: f64,
}

struct RunReport {
    wall_s: f64,
    total_flops: f64,
    /// Sorted end-to-end latencies in microseconds.
    latencies_us: Vec<f64>,
    per_bucket: BTreeMap<BucketKey, BucketAgg>,
    stats: ServerStats,
}

impl RunReport {
    fn gflops_aggregate(&self) -> f64 {
        self.total_flops / self.wall_s / 1e9
    }

    fn p(&self, q: f64) -> f64 {
        stats::percentile(&self.latencies_us, q)
    }
}

/// Drive `count` requests through `server` with backpressure and a
/// bounded window, recording per-request latency and per-bucket exec
/// extremes. Consumes and shuts down the server so the wall clock
/// includes the final drain.
fn run_stream(server: Server, count: usize, pool: &[PooledShape], seed: u64) -> RunReport {
    let mut g = Gen::new(seed, 1.0);
    let mut latencies_us = Vec::with_capacity(count);
    let mut per_bucket: BTreeMap<BucketKey, BucketAgg> = BTreeMap::new();
    let mut total_flops = 0.0;
    let mut window: VecDeque<(Ticket, f64)> = VecDeque::with_capacity(WINDOW);

    let mut complete = |(ticket, flops): (Ticket, f64)| {
        let done = ticket.wait();
        latencies_us.push(done.latency_ns as f64 / 1e3);
        let agg = per_bucket.entry(done.bucket).or_default();
        agg.requests += 1;
        let exec = done.exec_ns.max(1);
        if agg.min_exec_ns == 0 || exec < agg.min_exec_ns {
            agg.min_exec_ns = exec;
        }
        agg.best_gflops = agg.best_gflops.max(flops / exec as f64);
        total_flops += flops;
    };

    let start = Instant::now();
    for _ in 0..count {
        let shape = &pool[g.usize_in_incl(0, pool.len() - 1)];
        let ticket = server
            .submit_blocking(Request::new(shape.a.clone(), shape.b.clone()))
            .expect("backpressure admission cannot shed");
        window.push_back((ticket, shape.flops));
        if window.len() >= WINDOW {
            complete(window.pop_front().expect("window non-empty"));
        }
    }
    while let Some(pending) = window.pop_front() {
        complete(pending);
    }
    let stats = server.shutdown();
    let wall_s = start.elapsed().as_secs_f64();

    assert_eq!(stats.completed as usize, count, "every request must be served");
    assert_eq!(stats.rejected_full, 0, "blocking submission must never shed");
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    RunReport { wall_s, total_flops, latencies_us, per_bucket, stats }
}

/// The unbatched control: one request per cycle, one in flight.
fn unbatched_config() -> ServerConfig {
    ServerConfig { max_batch: 1, bucket_in_flight_cap: 1, global_width: 1, ..ServerConfig::default() }
}

fn write_latency(w: &mut JsonWriter, r: &RunReport) {
    w.begin_object();
    for (key, v) in [
        ("wall_s", r.wall_s),
        ("gflops_aggregate", r.gflops_aggregate()),
        ("p50_us", r.p(0.50)),
        ("p99_us", r.p(0.99)),
        ("p999_us", r.p(0.999)),
        ("max_us", *r.latencies_us.last().expect("non-empty run")),
    ] {
        w.key(key);
        w.value_f64(v);
    }
    w.key("requests");
    w.value_u64(r.latencies_us.len() as u64);
    w.end_object();
}

fn main() {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let no_guard = std::env::var_os("BENCH_NO_GUARD").is_some();
    let seed = env_usize("SERVE_BENCH_SEED", 0x5EE7) as u64;
    let count = env_usize("SERVE_BENCH_REQUESTS", if smoke { 100_000 } else { 200_000 });
    let compare_count = (count / 5).clamp(1, 20_000);

    let workers = pool::pin_once(pool::machine_threads());
    let profile = MachineProfile::detect();
    let phys = profile.physical_cores;
    println!(
        "serve_bench (PR 10{}): {count} requests over {SHAPE_POOL} shapes, {workers} pool workers \
         ({phys} physical cores), comparison streams of {compare_count}",
        if smoke { ", smoke" } else { "" },
    );

    let pool_shapes = build_pool(seed);
    for s in pool_shapes.iter().take(4) {
        let (m, k, n) = s.dims;
        println!("  shape pool head: {m}x{k}x{n} -> {}", BucketKey::classify(m, k, n).label());
    }

    // Main batched run: the default serving posture.
    let main_run = run_stream(Server::start(ServerConfig::default()), count, &pool_shapes, seed ^ 0xA11);
    println!(
        "batched: {count} requests in {:.2}s ({:.2} GFLOP/s aggregate), \
         p50 {:.1}us p99 {:.1}us p999 {:.1}us, {} cycles (mean batch {:.1})",
        main_run.wall_s,
        main_run.gflops_aggregate(),
        main_run.p(0.50),
        main_run.p(0.99),
        main_run.p(0.999),
        main_run.stats.batches,
        main_run.stats.completed as f64 / main_run.stats.batches.max(1) as f64,
    );

    // Comparison pair on one identical shorter stream: batched posture
    // vs the single-file control. Same seed, same shapes, same count —
    // the only variable is coalescing.
    let batched =
        run_stream(Server::start(ServerConfig::default()), compare_count, &pool_shapes, seed ^ 0xB47);
    let unbatched = run_stream(Server::start(unbatched_config()), compare_count, &pool_shapes, seed ^ 0xB47);
    let speedup = batched.gflops_aggregate() / unbatched.gflops_aggregate();
    println!(
        "comparison: batched {:.2} vs unbatched {:.2} GFLOP/s aggregate -> {speedup:.2}x batching speedup",
        batched.gflops_aggregate(),
        unbatched.gflops_aggregate(),
    );

    // Batching gate: only a full run on a multicore host can express
    // cross-request overlap, mirroring bench_quick's gate policy.
    let gate_min = 1.3;
    let enforced = !smoke && phys >= 2 && !no_guard;
    let pass = speedup >= gate_min;
    let waive_reason = if enforced {
        String::new()
    } else if smoke {
        "smoke run: functional pass, gates recorded only".to_string()
    } else if phys < 2 {
        format!("{phys} physical core(s) cannot overlap batch members")
    } else {
        "BENCH_NO_GUARD=1".to_string()
    };

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("pr");
    w.value_u64(10);
    w.key("smoke");
    w.value_bool(smoke);
    w.key("seed");
    w.value_u64(seed);
    w.key("pool");
    w.begin_object();
    w.key("workers");
    w.value_u64(workers as u64);
    w.key("physical_cores");
    w.value_u64(phys as u64);
    w.key("env_override");
    w.value_bool(std::env::var_os("STRASSEN_THREADS").is_some());
    w.end_object();
    w.key("machine");
    w.begin_object();
    w.key("kernel_class");
    w.value_str(&profile.kernel);
    for (key, v) in [
        ("l1d", profile.l1d),
        ("l2", profile.l2),
        ("l3", profile.l3),
        ("mc", profile.mc),
        ("kc", profile.kc),
        ("nc", profile.nc),
    ] {
        w.key(key);
        w.value_u64(v as u64);
    }
    w.end_object();
    w.key("latency");
    write_latency(&mut w, &main_run);
    w.key("serving");
    w.begin_object();
    for (key, v) in [
        ("batches", main_run.stats.batches),
        ("max_wait_cycles", main_run.stats.max_wait_cycles),
        ("fifo_violations", main_run.stats.fifo_violations),
        ("rejected_full", main_run.stats.rejected_full),
    ] {
        w.key(key);
        w.value_u64(v);
    }
    w.key("max_cycle_size");
    w.value_u64(main_run.stats.max_cycle_size as u64);
    w.key("max_bucket_batch");
    w.value_u64(main_run.stats.max_bucket_batch as u64);
    w.key("mean_batch");
    w.value_f64(main_run.stats.completed as f64 / main_run.stats.batches.max(1) as f64);
    w.end_object();
    w.key("results");
    w.begin_array();
    for (bucket, agg) in &main_run.per_bucket {
        w.begin_object();
        w.key("bench");
        w.value_str(&format!("serve_{}", bucket.class.name()));
        w.key("n");
        w.value_u64(bucket.bin as u64);
        w.key("requests");
        w.value_u64(agg.requests);
        w.key("min_ms");
        w.value_f64(agg.min_exec_ns as f64 / 1e6);
        w.key("gflops_min");
        w.value_f64(agg.best_gflops);
        w.end_object();
    }
    w.end_array();
    w.key("comparison");
    w.begin_object();
    w.key("requests");
    w.value_u64(compare_count as u64);
    w.key("batched");
    write_latency(&mut w, &batched);
    w.key("unbatched");
    write_latency(&mut w, &unbatched);
    w.key("batching_speedup");
    w.value_f64(speedup);
    w.end_object();
    w.key("gates");
    w.begin_object();
    w.key("batching_speedup_min");
    w.value_f64(gate_min);
    w.key("batching_speedup");
    w.value_f64(speedup);
    w.key("enforced");
    w.value_bool(enforced);
    w.key("pass");
    w.value_bool(pass);
    w.key("waive_reason");
    w.value_str(&waive_reason);
    w.end_object();
    w.end_object();

    let out = if smoke { "BENCH_PR10.smoke.json" } else { "BENCH_PR10.json" };
    std::fs::write(out, w.finish()).expect("write bench artifact");
    println!("wrote {out}");

    if !pass {
        if enforced {
            eprintln!("GATE FAILED: batching speedup {speedup:.2}x < {gate_min}x");
            std::process::exit(1);
        }
        println!("gate waived ({waive_reason}): batching speedup {speedup:.2}x < {gate_min}x");
    }
    println!("SERVE BENCH OK");
}
