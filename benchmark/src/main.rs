//! The DGEFMM benchmark: three workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from traced runs. See `README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
//! benchmark all --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
//! benchmark compare <dirA> <dirB>
//! ```

mod compare;
mod layers;
mod report;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use report::{Metric, RunResult};
use spans::Spans;
use workloads::{Measured, Scale, Workload};

const USAGE: &str = "usage:
  benchmark --workload <square_2048|rect_odd_beta|serve_saturated> --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
  benchmark all --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
  benchmark compare <dirA> <dirB>";

/// Set-up is timed this many times per untraced run: once in the run and
/// once in each of the rest in a fresh child process, so every sample is
/// a cold start. `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;

fn usage(msg: &str) -> String {
    format!("{msg}\n{USAGE}")
}

struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o =
        Opts { workload: None, seed: 1, seconds: 25.0, trace: false, out: PathBuf::from(".bench_results") };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| usage(&format!("{flag} needs a value")))?;
        let bad = || usage(&format!("bad value for {flag}: {value}"));
        match flag.as_str() {
            "--workload" => o.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0 && s.is_finite()).ok_or_else(bad)?
            }
            "--trace" => o.trace = value == "1",
            "--out" => o.out = PathBuf::from(value),
            _ => return Err(usage(&format!("unknown argument {flag}"))),
        }
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        Some("all") => parse(&args[1..]).and_then(|o| run_all(&o)),
        Some("setup-probe") => parse(&args[1..]).and_then(|o| setup_probe(&o)),
        _ => parse(&args).and_then(|o| run_one(&o)),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

fn run_one(o: &Opts) -> Result<i32, String> {
    let w = o.workload.ok_or_else(|| usage("--workload is required"))?;
    let inputs = workloads::inputs(w, o.seed, Scale(1));
    let checksum = workloads::checksum(&inputs);
    println!(
        "benchmark {}: seed {}, {} s, {}, inputs checksum {checksum:016x}",
        w.name(),
        o.seed,
        o.seconds,
        if o.trace { "traced" } else { "untraced" }
    );
    let mut spans = o.trace.then(Spans::new);
    let measured = workloads::run(&inputs, Duration::from_secs_f64(o.seconds), spans.as_mut())?;
    let metrics = match spans.as_mut() {
        Some(spans) => {
            let metrics = layers::per_layer(&inputs, &measured, spans);
            let path = o.out.join(format!("{}.seed{}.spans.json", w.name(), o.seed));
            if let Err(e) =
                std::fs::create_dir_all(&o.out).and_then(|()| std::fs::write(&path, spans.to_json()))
            {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
            metrics
        }
        None => {
            let mut setup = vec![measured.setup_s];
            for _ in 1..SETUP_SAMPLES {
                setup.push(setup_in_child(w, o.seed)?);
            }
            end_to_end(w, &measured, stats::median(&setup))
        }
    };
    let result = RunResult {
        workload: w.name(),
        seed: o.seed,
        trace: o.trace,
        seconds: o.seconds,
        attempted: measured.ops,
        failed: measured.failed,
        inputs_checksum: checksum,
        machine: report::machine_profile(measured.workers),
        metrics,
    };
    if let Err(e) = result.write_to(&o.out) {
        eprintln!("warning: could not write the result file under {}: {e}", o.out.display());
    }
    result.print();
    Ok(if result.failed == 0 { 0 } else { 1 })
}

fn end_to_end(w: Workload, m: &Measured, setup_s: f64) -> Vec<Metric> {
    let tail = report::tail_permille(m.latency_ms.len(), w.tail_permille());
    if tail != w.tail_permille() {
        eprintln!(
            "warning: {} samples allow only p{}; op_ms_tail reports that",
            m.latency_ms.len(),
            f64::from(tail) / 10.0
        );
    }
    println!(
        "  {} ops in {:.2} s ({:.1} ops/s), {} workers; op_ms_tail is p{} over {} kept of {} samples",
        m.ops,
        m.timed_s,
        m.ops as f64 / m.timed_s,
        m.workers,
        f64::from(tail) / 10.0,
        m.latency_ms.len(),
        m.latency_ms.seen
    );
    vec![
        Metric::new("setup_s", "s", setup_s),
        Metric::new("peak_rss_mib", "MiB", report::peak_rss_mib()),
        Metric::new("gflops", "GFLOP/s", m.flops / m.timed_s / 1e9),
        Metric::new("op_ms_p50", "ms", m.latency_ms.at(500)),
        Metric::new("op_ms_tail", "ms", m.latency_ms.at(tail)),
    ]
}

/// One cold set-up in a fresh process; waits for it to exit.
fn setup_in_child(w: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .args(["setup-probe", "--workload", w.name(), "--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running a set-up sample: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("set-up sample failed ({}): {stdout}", out.status))
}

fn setup_probe(o: &Opts) -> Result<i32, String> {
    let w = o.workload.ok_or_else(|| usage("--workload is required"))?;
    let secs = workloads::setup_seconds(&workloads::inputs(w, o.seed, Scale(1)))?;
    println!("setup_s {secs}");
    Ok(0)
}

/// Every workload in its own process, untraced, then traced if asked.
fn run_all(o: &Opts) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let traces: &[&str] = if o.trace { &["0", "1"] } else { &["0"] };
    let mut worst = 0;
    for w in Workload::ALL {
        for trace in traces {
            let status = Command::new(&exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &o.seed.to_string(),
                    "--seconds",
                    &o.seconds.to_string(),
                ])
                .args(["--trace", trace, "--out", &o.out.to_string_lossy()])
                .status()
                .map_err(|e| format!("running {}: {e}", w.name()))?;
            worst = worst.max(status.code().unwrap_or(1));
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::json::Json;

    /// Every metric `BENCHMARK.json` names in `section`, with its unit.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
        doc.get(section)
            .and_then(Json::items)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn assert_emits(declared: &[(String, String)], metrics: &[Metric], w: Workload) {
        for (name, unit) in declared {
            let m =
                metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("{}: no {name}", w.name()));
            assert_eq!(m.unit, unit, "{}: unit of {name}", w.name());
            assert!(m.value.is_finite(), "{}: {name} = {}", w.name(), m.value);
        }
        assert_eq!(metrics.len(), declared.len(), "{}: undeclared metrics", w.name());
    }

    #[test]
    fn smoke_run_emits_every_declared_metric() {
        let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
        for w in Workload::ALL {
            let inputs = workloads::inputs(w, 1, Scale(8));
            let mut spans = Spans::new();
            let m = workloads::run(&inputs, Duration::from_millis(200), Some(&mut spans)).expect("runs");
            assert_eq!(m.failed, 0, "{}: failed operations", w.name());
            assert!(m.ops > 0);
            assert_emits(&e2e, &end_to_end(w, &m, m.setup_s), w);
            assert_emits(&layers, &layers::per_layer(&inputs, &m, &mut spans), w);
        }
    }

    #[test]
    fn inputs_depend_on_the_seed_alone() {
        for w in Workload::ALL {
            let shapes = |i: &workloads::Inputs| i.cases.iter().map(|c| (c.m, c.k, c.n)).collect::<Vec<_>>();
            let (a, b, c) = (
                workloads::inputs(w, 1, Scale(8)),
                workloads::inputs(w, 1, Scale(8)),
                workloads::inputs(w, 2, Scale(8)),
            );
            assert_eq!(shapes(&a), shapes(&b), "{}", w.name());
            assert_eq!(workloads::checksum(&a), workloads::checksum(&b), "{}", w.name());
            assert_ne!(workloads::checksum(&a), workloads::checksum(&c), "{}", w.name());
            if w != Workload::Square2048 {
                assert_ne!(shapes(&a), shapes(&c), "{}", w.name());
            }
        }
    }
}
