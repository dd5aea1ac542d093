//! Record an execution timeline of a parallel DGEFMM run and export it
//! as Chrome trace-event JSON for Perfetto.
//!
//! ```sh
//! cargo run --release --example timeline_trace            # n=1024, depth 2
//! cargo run --release --example timeline_trace -- --n 512 --depth 1
//! ```
//!
//! The run uses the task-DAG scheduler on a ≥ 4-worker pool. The
//! recorded timeline is exported to `results/timeline_trace.json`; load
//! that file at <https://ui.perfetto.dev> (or `chrome://tracing`) to see
//! one lane per worker, a duration slice per DAG task (named `L<level>:s1`
//! … `L<level>:c22`), flow arrows along the seven-temp dependency edges,
//! instants for steals/parks, and counter tracks for queue depth and the
//! workspace high-water mark.
//!
//! The example is also an executable acceptance check. Before printing
//! its OK marker it asserts:
//!
//! * the export re-parses with `testkit::json` (strict: duplicate keys,
//!   non-finite numbers, and trailing data all fail);
//! * every worker has a named lane, B/E events pair, and the trace holds
//!   at least 7 task slices per parallel recursion level (the actual
//!   count is 21 per seven-temp DAG instance);
//! * one flow arrow per recorded DAG dependency edge (25 per instance:
//!   4 sum-chain + 8 product←operand + 13 combine);
//! * recording overhead stays within the 5% gate, measured as the
//!   median of 9 paired tracing-on/tracing-off time ratios; inside a
//!   pair the sides alternate one multiply at a time for about 100 ms
//!   each, the side that goes first alternates from pair to pair
//!   (`TIMELINE_NO_GUARD=1` demotes a noisy failure to a loud warning).

use blas::Op;
use matrix::{random, Matrix};
use std::time::Instant;
use strassen::probe::timeline::{self, Timeline};
use strassen::{dgefmm, trace, CutoffCriterion, Scheme, StrassenConfig};
use testkit::json::Json;

fn parse_flag(args: &[String], flag: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|_| panic!("{flag} needs an integer, got {v:?}")))
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n = parse_flag(&args, "--n", 1024);
    let depth = parse_flag(&args, "--depth", 2);

    // The acceptance shape needs real parallelism underneath: size the
    // pool *before* anything starts it (oversubscribing a small host is
    // fine — this run is about structure, not throughput).
    if pool::set_num_threads(4).is_err() {
        eprintln!("note: pool already running with {} workers", pool::current_num_threads());
    }
    let workers = pool::current_num_threads();

    // Classic (non-fused) schedules so every parallel level actually
    // runs a seven-temp DAG instance — the fused last-level kernels
    // would swallow the bottom of the recursion into leaf tasks.
    let tau = (n >> depth).max(8);
    let cfg = StrassenConfig {
        parallel_depth: depth,
        ..StrassenConfig::dgefmm()
            .scheme(Scheme::SevenTemp)
            .cutoff(CutoffCriterion::Simple { tau })
            .fused(false)
    };
    let a = random::uniform::<f64>(n, n, 71);
    let b = random::uniform::<f64>(n, n, 72);
    let multiply = || {
        let mut c = Matrix::<f64>::zeros(n, n);
        dgefmm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
        c
    };

    // Warm the pool and the arena, then record one traced run (with a
    // TraceProbe riding along for the workspace high-water counter).
    let _ = multiply();
    let ((_, probe_trace), tl): ((Matrix<f64>, strassen::Trace), Timeline) =
        timeline::record(|| trace::capture(multiply));

    let structure = tl.structure();
    let per_level = tl.per_level_task_counts();
    println!(
        "recorded n={n} depth={depth} on {workers} workers: {} events across {} lanes \
         ({} dropped), {} task slices, {} DAG edges",
        tl.all_events().count(),
        tl.lanes.len(),
        tl.total_dropped(),
        tl.duration_events(),
        tl.edges.len(),
    );
    for (level, tasks) in &per_level {
        println!("  level {level}: {tasks} tagged tasks");
    }

    // Acceptance shape: every parallel level contributes at least its 7
    // products (a full seven-temp DAG instance contributes 21 tasks and
    // 25 edges).
    assert!(tl.total_dropped() == 0, "ring capacity too small for this run — raise STRASSEN_RING_CAP");
    for level in 0..depth as u8 {
        let tasks = per_level.get(&level).copied().unwrap_or(0);
        let instances = 7u64.pow(level as u32);
        assert!(
            tasks >= 7 * instances,
            "level {level}: {tasks} tagged tasks < 7 per DAG instance ({instances} instances)"
        );
    }
    assert!(structure.edges.values().sum::<u64>() >= 25, "seven-temp DAG edges missing");

    // Export and re-validate with the independent strict parser.
    let json_text = timeline::chrome_trace_json(&tl, Some(probe_trace.ws_high_water as u64));
    let doc = Json::parse(&json_text).expect("chrome trace must parse strictly");
    let events = doc.get("traceEvents").and_then(Json::items).expect("traceEvents array");
    let count = |ph: &str| events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph)).count();
    let lanes = events.iter().filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name")).count();
    assert!(lanes >= workers, "one named lane per worker: {lanes} < {workers}");
    assert_eq!(count("B"), count("E"), "duration events must pair");
    assert!(count("B") >= tl.duration_events(), "every Start becomes a B slice");
    assert_eq!(count("s"), count("f"), "flow events must pair");
    assert_eq!(count("s"), tl.edges.len(), "one flow arrow per recorded DAG edge");
    assert!(json_text.contains("queue_depth") && json_text.contains("arena_high_water"));

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/timeline_trace.json", &json_text).expect("write trace");
    println!(
        "wrote results/timeline_trace.json ({} bytes, {} trace events) — open at ui.perfetto.dev",
        json_text.len(),
        events.len(),
    );

    // Overhead gate: the median of paired on/off time ratios. Inside a
    // pair the two sides alternate one multiply at a time for `reps`
    // multiplies each (about 100 ms per side), and the pair's ratio is
    // the on side's summed time over the off side's, so a drift in host
    // speed within the pair moves both sums alike. Which side goes first
    // alternates from pair to pair, so neither side always runs after
    // the other.
    let pairs = 9;
    let seconds = |f: &dyn Fn()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let one = seconds(&|| drop(multiply()));
    let reps = (0.1 / one).ceil().clamp(1.0, 1000.0) as usize;
    let off = || drop(multiply());
    let on = || drop(timeline::record(multiply));
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            let (mut on_s, mut off_s) = (0.0, 0.0);
            for _ in 0..reps {
                if i % 2 == 0 {
                    off_s += seconds(&off);
                    on_s += seconds(&on);
                } else {
                    on_s += seconds(&on);
                    off_s += seconds(&off);
                }
            }
            on_s / off_s
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let rank = |q: f64| ratios[((pairs - 1) as f64 * q).round() as usize];
    let overhead = rank(0.5);
    let pct = |r: f64| 100.0 * (r - 1.0);
    println!(
        "recording overhead: {:.2}% (median of {pairs} paired on/off ratios of {reps} multiplies \
         per side, interquartile range {:.2}% to {:.2}%, gate 5%)",
        pct(overhead),
        pct(rank(0.25)),
        pct(rank(0.75)),
    );
    if overhead > 1.05 {
        let msg = format!("timeline recording overhead {:.2}% exceeds the 5% gate", 100.0 * (overhead - 1.0));
        if std::env::var_os("TIMELINE_NO_GUARD").is_some() {
            println!("WAIVED: {msg} (TIMELINE_NO_GUARD set)");
        } else {
            panic!("{msg} — rerun or set TIMELINE_NO_GUARD=1 on a noisy host");
        }
    }
    println!("TIMELINE TRACE OK");
}
