//! `benchmark compare <setA> <setB>`: for each workload and end-to-end
//! metric, the median of set B against set A, judged by the bound in
//! `BENCHMARK.json`. A metric whose run-to-run spread (interquartile
//! range over median) exceeds its bound is "unresolved" unless every run
//! of B is better than every run of A.

use std::collections::BTreeSet;
use std::path::Path;

use testkit::json::Json;

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// One untraced result file.
struct Run {
    workload: String,
    machine: String,
    metrics: Json,
}

pub fn run(args: &[String]) -> Result<i32, String> {
    let [dir_a, dir_b] = args else {
        return Err("compare takes two result directories".into());
    };
    let bounds = read_bounds(Path::new("BENCHMARK.json"))?;
    let (set_a, set_b) = (load(Path::new(dir_a))?, load(Path::new(dir_b))?);
    let machines: BTreeSet<&str> = set_a.iter().chain(&set_b).map(|r| r.machine.as_str()).collect();
    if machines.len() > 1 {
        return Err(format!("the result sets come from different machine profiles: {machines:?}"));
    }
    let workloads: BTreeSet<&str> = set_a.iter().chain(&set_b).map(|r| r.workload.as_str()).collect();

    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse", "spread", "bound"
    );
    let mut pass = true;
    for w in workloads {
        for b in &bounds {
            let (va, vb) = (values(&set_a, w, &b.name), values(&set_b, w, &b.name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<16} {:<14} missing in one set", b.name);
                pass = false;
                continue;
            }
            let ([qa1, ma, qa3], [qb1, mb, qb3]) = (stats::quartiles(&va), stats::quartiles(&vb));
            let spread = ((qa3 - qa1) / ma).max((qb3 - qb1) / mb);
            let worse = if b.higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
            let b_always_better = if b.higher_is_better { min(&vb) > max(&va) } else { max(&vb) < min(&va) };
            let verdict = if spread > b.bound {
                if b_always_better {
                    "better"
                } else {
                    "unresolved"
                }
            } else if worse > b.bound {
                "REGRESSION"
            } else {
                "ok"
            };
            pass &= matches!(verdict, "ok" | "better");
            println!(
                "{w:<16} {:<14} {ma:>12.4} {mb:>12.4} {:>7.1}% {:>7.1}% {:>5.0}%  {verdict}",
                b.name,
                100.0 * worse,
                100.0 * spread,
                100.0 * b.bound
            );
        }
    }
    println!("compare: {}", if pass { "PASS" } else { "FAIL" });
    Ok(if pass { 0 } else { 1 })
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn values(set: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let items = doc.get("end_to_end").and_then(Json::items).ok_or("BENCHMARK.json has no end_to_end list")?;
    items
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Bound>>>()
        .ok_or_else(|| "BENCHMARK.json: an end_to_end entry lacks name, better or bound".into())
}

/// Every untraced result file in `dir`; other JSON files are skipped.
fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    for path in entries.flatten().map(|e| e.path()) {
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(workload), Some(Json::Bool(false)), Some(Json::Object(machine)), Some(metrics)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("trace"),
            doc.get("machine"),
            doc.get("metrics"),
        ) else {
            continue;
        };
        let machine = machine
            .iter()
            .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
            .collect::<Vec<_>>()
            .join(" ");
        runs.push(Run { workload: workload.to_string(), machine, metrics: metrics.clone() });
    }
    if runs.is_empty() {
        return Err(format!("{}: no untraced result files", dir.display()));
    }
    Ok(runs)
}
