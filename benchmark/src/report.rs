//! Latency samples, the percentile rule, the machine profile, and the
//! result document each run prints as its last line and writes to disk.

use std::path::Path;

use strassen::probe::json::JsonWriter;
use testkit::Gen;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// Samples kept for percentiles. A serving run completes millions of
/// requests; a uniform reservoir of this size keeps the benchmark's own
/// memory, and so `peak_rss_mib`, independent of how many complete.
const RESERVOIR: usize = 1 << 18;

/// A uniform reservoir sample of one latency distribution.
pub struct Samples {
    kept: Vec<f64>,
    seen: u64,
    gen: Gen,
}

impl Samples {
    pub fn new(seed: u64) -> Samples {
        Samples { kept: Vec::new(), seen: 0, gen: Gen::new(seed, 1.0) }
    }

    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.kept.len() < RESERVOIR {
            self.kept.push(v);
        } else {
            let j = self.gen.u64_in(0, self.seen) as usize;
            if j < RESERVOIR {
                self.kept[j] = v;
            }
        }
    }

    pub fn finish(mut self) -> Sorted {
        self.kept.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        Sorted { values: self.kept, seen: self.seen }
    }
}

/// A finished, ascending sample.
pub struct Sorted {
    values: Vec<f64>,
    /// Observations pushed, including those the reservoir dropped.
    pub seen: u64,
}

impl Sorted {
    /// The `permille`/1000 percentile (linear interpolation), or 0 for
    /// an empty sample.
    pub fn at(&self, permille: u32) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        stats::percentile(&self.values, f64::from(permille) / 1000.0)
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }
}

/// The percentile rule: a timing percentile is reported only when at
/// least ten of the `n` samples lie beyond it.
pub fn may_report(n: usize, permille: u32) -> bool {
    n * (1000 - permille.min(1000)) as usize / 1000 >= 10
}

/// `wanted` if the rule allows it for `n` samples, else the highest
/// percentile on a fixed ladder that it allows, else the median.
pub fn tail_permille(n: usize, wanted: u32) -> u32 {
    [wanted, 990, 950, 900, 800, 750]
        .into_iter()
        .filter(|&p| p <= wanted)
        .find(|&p| may_report(n, p))
        .unwrap_or(500)
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The facts two result sets must share to be compared.
pub fn machine_profile(workers: usize) -> Vec<(&'static str, String)> {
    let p = serve::MachineProfile::detect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![("kernel_class", p.kernel)];
    for (k, v) in [
        ("l1d", p.l1d),
        ("l2", p.l2),
        ("l3", p.l3),
        ("mc", p.mc),
        ("kc", p.kc),
        ("nc", p.nc),
        ("physical_cores", p.physical_cores),
        ("nproc", nproc),
        ("workers", workers),
    ] {
        fields.push((k, v.to_string()));
    }
    fields
}

/// Everything one run reports.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    pub inputs_checksum: u64,
    pub machine: Vec<(&'static str, String)>,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The line the benchmark contract reads: the last line of stdout.
    pub fn summary_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_outcome(&mut w);
        w.end_object();
        w.finish()
    }

    /// The full result file: the summary plus what `compare` needs.
    pub fn file_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("workload");
        w.value_str(self.workload);
        w.key("seed");
        w.value_u64(self.seed);
        w.key("trace");
        w.value_bool(self.trace);
        w.key("seconds");
        w.value_f64(self.seconds);
        w.key("inputs_checksum");
        w.value_str(&format!("{:016x}", self.inputs_checksum));
        w.key("machine");
        w.begin_object();
        for (k, v) in &self.machine {
            w.key(k);
            w.value_str(v);
        }
        w.end_object();
        self.write_outcome(&mut w);
        w.end_object();
        w.finish()
    }

    fn write_outcome(&self, w: &mut JsonWriter) {
        w.key("correct");
        w.value_bool(self.failed == 0);
        w.key("attempted");
        w.value_u64(self.attempted);
        w.key("failed");
        w.value_u64(self.failed);
        w.key("metrics");
        w.begin_object();
        for m in &self.metrics {
            w.key(m.name);
            w.begin_object();
            w.key("value");
            w.value_f64(m.value);
            w.key("unit");
            w.value_str(m.unit);
            w.end_object();
        }
        w.end_object();
    }

    /// Print every metric by name with its unit, then the summary line.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "  {:<26} {:>16} (attempted {}, failed {})",
            "correct",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        println!("{}", self.summary_json());
    }

    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let kind = if self.trace { "trace" } else { "e2e" };
        let path = dir.join(format!("{}.seed{}.{kind}.json", self.workload, self.seed));
        std::fs::write(path, self.file_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(may_report(100, 900));
        assert!(!may_report(99, 900));
        assert!(may_report(1000, 990));
        assert!(!may_report(999, 990));
        assert!(may_report(20, 500));
        assert!(!may_report(19, 500));
        assert_eq!(tail_permille(1000, 990), 990);
        assert_eq!(tail_permille(60, 800), 800);
        assert_eq!(tail_permille(45, 800), 750);
        assert_eq!(tail_permille(300, 990), 950);
        assert_eq!(tail_permille(5, 990), 500);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut s = Samples::new(7);
        let n = 3 * RESERVOIR as u64;
        for i in 0..n {
            s.push(i as f64);
        }
        let sorted = s.finish();
        assert_eq!(sorted.len(), RESERVOIR);
        assert_eq!(sorted.seen, n);
        let median = sorted.at(500) / n as f64;
        assert!((median - 0.5).abs() < 0.01, "reservoir median at {median} of the stream");
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            workload: "square_2048",
            seed: 1,
            trace: false,
            seconds: 1.0,
            attempted: 3,
            failed: 0,
            inputs_checksum: 0,
            machine: Vec::new(),
            metrics: vec![Metric::new("setup_s", "s", 0.5)],
        };
        let doc = testkit::json::Json::parse(&r.summary_json()).expect("valid JSON");
        let testkit::json::Json::Object(members) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.path("metrics.setup_s.unit").and_then(|u| u.as_str()), Some("s"));
    }
}
