//! Empirical cutoff tuning — the Section 3.4 measurement procedure.
//!
//! The theoretical cutoff of 12 is useless in practice because the
//! O(n²) add passes are bandwidth-bound while good GEMMs are not; the
//! real crossover must be *measured*. This module implements the paper's
//! procedure:
//!
//! * **square cutoff `τ`** — time plain GEMM against one level of
//!   Strassen recursion (`max_depth = 1`) over a sweep of square orders;
//!   `τ` is the largest order where GEMM still wins (Figure 2 / Table 2);
//! * **rectangular parameters `τm, τk, τn`** — three sweeps, each fixing
//!   two dimensions at a large value and varying the third; each
//!   parameter is that sweep's crossover (Table 3). The fixed dimensions'
//!   contribution to eq. (14) is negligible, which is what lets one
//!   sweep isolate one parameter.
//!
//! Since PR 4 the sweeps run under the profiling layer: every point
//! carries the median **and** MAD of both arms (so a noisy crossover is
//! visible as overlapping spreads, not a silent coin flip) plus one
//! profiled recursion rep that attributes the Strassen arm's time — the
//! add-pass share and the effective leaf-GEMM GFLOP/s that explain *why*
//! the crossover sits where it does. [`tune_report`] packages the whole
//! experiment as a [`TuningReport`] with a schema-1 JSON rendering for
//! per-machine archival (`examples/profile_report.rs` writes one).
//!
//! The timed reps that decide each ratio stay **unprofiled** — the probe
//! is installed only for the one extra attribution rep, so the profiling
//! layer cannot bias the crossover it is explaining.

use crate::config::StrassenConfig;
use crate::cutoff::CutoffCriterion;
use crate::dispatch::dgefmm_with_workspace;
use crate::probe::json::JsonWriter;
use crate::probe::Phase;
use crate::trace;
use crate::workspace::Workspace;
use blas::level2::Op;
use blas::level3::{gemm, GemmConfig};
use matrix::{random, Matrix};
use std::time::Instant;

/// Wall-clock seconds of `reps` runs of `f`, in execution order, after
/// one untimed warm-up run, so the first sample of a study is not the
/// cold one.
pub fn time_samples(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    assert!(reps > 0);
    f();
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times
}

/// Median wall-clock seconds of `reps` timed runs of `f` (see
/// [`time_samples`]).
pub fn time_median(reps: usize, f: impl FnMut()) -> f64 {
    stats::median(&time_samples(reps, f))
}

/// One sweep point: problem size and the ratio
/// `time(GEMM) / time(one-level Strassen)` — above 1 means recursion wins.
#[derive(Clone, Copy, Debug)]
pub struct CrossoverSample {
    /// The swept dimension's value.
    pub size: usize,
    /// `t_gemm / t_strassen` at this size.
    pub ratio: f64,
}

/// Result of a crossover sweep.
#[derive(Clone, Debug)]
pub struct CrossoverResult {
    /// Per-size measurements, in sweep order.
    pub samples: Vec<CrossoverSample>,
    /// First size at which recursion won (`ratio > 1`), if any.
    pub first_win: Option<usize>,
    /// Chosen cutoff: the largest size at which plain GEMM still won
    /// (falling back to the sweep's first size if recursion always won).
    pub tau: usize,
}

fn pick_tau(samples: &[CrossoverSample]) -> (Option<usize>, usize) {
    let first_win = samples.iter().find(|s| s.ratio > 1.0).map(|s| s.size);
    let tau = samples
        .iter()
        .filter(|s| s.ratio <= 1.0)
        .map(|s| s.size)
        .max()
        .unwrap_or_else(|| samples.first().map(|s| s.size).unwrap_or(CutoffCriterion::HARD_FLOOR));
    (first_win, tau)
}

/// Configuration that performs exactly one level of recursion and then
/// calls GEMM — the measurement arm of every crossover experiment.
pub fn one_level_config(gemm: GemmConfig) -> StrassenConfig {
    StrassenConfig::dgefmm().gemm(gemm).cutoff(CutoffCriterion::Never).max_depth(1)
}

/// One fully instrumented sweep point: the crossover ratio with the
/// robust spread of both arms, plus the profile attribution of the
/// Strassen arm (gathered in one extra rep with the probe installed).
#[derive(Clone, Copy, Debug)]
pub struct TimedPoint {
    /// The swept dimension's value.
    pub size: usize,
    /// Full problem shape at this point.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// `t_gemm / t_strassen` (medians) — above 1 means recursion wins.
    pub ratio: f64,
    /// Median seconds of the plain-GEMM arm.
    pub gemm_s: f64,
    /// Median absolute deviation of the GEMM arm, seconds.
    pub gemm_mad_s: f64,
    /// Median seconds of the one-level-Strassen arm.
    pub strassen_s: f64,
    /// Median absolute deviation of the Strassen arm, seconds.
    pub strassen_mad_s: f64,
    /// Share of the profiled classic-schedule rep spent in elementwise
    /// add passes — the bandwidth-bound cost the crossover argument
    /// turns on.
    pub add_share: f64,
    /// Effective GFLOP/s of the leaf GEMMs in the profiled rep, when the
    /// rep recorded any leaf time.
    pub gemm_leaf_gflops: Option<f64>,
}

impl TimedPoint {
    fn sample(&self) -> CrossoverSample {
        CrossoverSample { size: self.size, ratio: self.ratio }
    }
}

/// Measure one `(m, k, n)` shape with `α = 1, β = 0` (the paper's tuning
/// setting): `reps` unprofiled timed reps per arm decide the ratio, then
/// one profiled Strassen rep gathers the attribution.
pub fn crossover_point(gemm_cfg: &GemmConfig, m: usize, k: usize, n: usize, reps: usize) -> TimedPoint {
    let a = random::uniform::<f64>(m, k, 0x5eed_0001);
    let b = random::uniform::<f64>(k, n, 0x5eed_0002);
    let mut c = Matrix::<f64>::zeros(m, n);

    let gemm_times = time_samples(reps, || {
        gemm(gemm_cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
    });

    let one = one_level_config(*gemm_cfg);
    let mut ws = Workspace::<f64>::for_problem(&one, m, k, n, true);
    let mut strassen_rep = |ws: &mut Workspace<f64>| {
        dgefmm_with_workspace(
            &one,
            1.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.0,
            c.as_mut(),
            ws,
        );
    };
    let strassen_times = time_samples(reps, || strassen_rep(&mut ws));

    // One extra profiled rep for attribution only (its time never enters
    // the ratio). It runs the *classic* schedules: the fused kernels hide
    // the separate add passes and leaf GEMMs inside one span, and the
    // add-share / leaf-GFLOP/s numbers exist to explain the crossover in
    // the paper's terms — bandwidth-bound G operations vs compute-bound
    // M operations — which is the classic-schedule decomposition.
    let classic = one_level_config(*gemm_cfg).fused(false);
    let mut classic_ws = Workspace::<f64>::for_problem(&classic, m, k, n, true);
    let ((), profile) = trace::profile(|| {
        dgefmm_with_workspace(
            &classic,
            1.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.0,
            c.as_mut(),
            &mut classic_ws,
        );
    });

    let (gemm_s, strassen_s) = (stats::median(&gemm_times), stats::median(&strassen_times));
    TimedPoint {
        size: 0, // filled in by the sweep, which knows the varied dimension
        m,
        k,
        n,
        ratio: gemm_s / strassen_s,
        gemm_s,
        gemm_mad_s: stats::mad(&gemm_times),
        strassen_s,
        strassen_mad_s: stats::mad(&strassen_times),
        add_share: profile.phase_total(Phase::Add).ns as f64 / profile.trace.total_ns.max(1) as f64,
        gemm_leaf_gflops: profile.phase_gflops(Phase::GemmLeaf),
    }
}

/// Time `t_gemm / t_one-level-strassen` for a single `(m, k, n)` shape.
pub fn crossover_ratio(gemm_cfg: &GemmConfig, m: usize, k: usize, n: usize, reps: usize) -> f64 {
    crossover_point(gemm_cfg, m, k, n, reps).ratio
}

/// Which dimension a rectangular sweep varies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepDim {
    /// Vary `m`, fix `k = n = large` → measures `τm`.
    M,
    /// Vary `k`, fix `m = n = large` → measures `τk`.
    K,
    /// Vary `n`, fix `m = k = large` → measures `τn`.
    N,
}

/// One sweep's full record: every instrumented point plus the crossover
/// decision derived from them.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// `"square"`, `"m"`, `"k"`, or `"n"` — the varied dimension.
    pub dim: &'static str,
    /// Value of the two fixed dimensions (equals the swept value for the
    /// square sweep, where nothing is fixed).
    pub fixed: Option<usize>,
    /// Instrumented measurements, in sweep order.
    pub points: Vec<TimedPoint>,
    /// First size at which recursion won, if any.
    pub first_win: Option<usize>,
    /// The crossover this sweep chose.
    pub tau: usize,
}

impl SweepReport {
    fn from_points(dim: &'static str, fixed: Option<usize>, points: Vec<TimedPoint>) -> Self {
        let samples: Vec<CrossoverSample> = points.iter().map(TimedPoint::sample).collect();
        let (first_win, tau) = pick_tau(&samples);
        SweepReport { dim, fixed, points, first_win, tau }
    }

    /// The sweep as a plain [`CrossoverResult`] (ratio view only).
    pub fn result(&self) -> CrossoverResult {
        let samples: Vec<CrossoverSample> = self.points.iter().map(TimedPoint::sample).collect();
        let (first_win, tau) = pick_tau(&samples);
        CrossoverResult { samples, first_win, tau }
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("dim");
        w.value_str(self.dim);
        if let Some(fixed) = self.fixed {
            w.key("fixed");
            w.value_u64(fixed as u64);
        }
        w.key("tau");
        w.value_u64(self.tau as u64);
        if let Some(first_win) = self.first_win {
            w.key("first_win");
            w.value_u64(first_win as u64);
        }
        w.key("points");
        w.begin_array();
        for p in &self.points {
            w.begin_object();
            w.key("size");
            w.value_u64(p.size as u64);
            w.key("m");
            w.value_u64(p.m as u64);
            w.key("k");
            w.value_u64(p.k as u64);
            w.key("n");
            w.value_u64(p.n as u64);
            w.key("ratio");
            w.value_f64(p.ratio);
            w.key("gemm_s");
            w.value_f64(p.gemm_s);
            w.key("gemm_mad_s");
            w.value_f64(p.gemm_mad_s);
            w.key("strassen_s");
            w.value_f64(p.strassen_s);
            w.key("strassen_mad_s");
            w.value_f64(p.strassen_mad_s);
            w.key("add_share");
            w.value_f64(p.add_share);
            if let Some(g) = p.gemm_leaf_gflops {
                w.key("gemm_leaf_gflops");
                w.value_f64(g);
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

/// Figure 2 / Table 2 under the profiler: sweep square orders.
pub fn sweep_square(gemm_cfg: &GemmConfig, sizes: &[usize], reps: usize) -> SweepReport {
    let points =
        sizes.iter().map(|&m| TimedPoint { size: m, ..crossover_point(gemm_cfg, m, m, m, reps) }).collect();
    SweepReport::from_points("square", None, points)
}

/// One Table-3 experiment under the profiler: sweep `dim` with the other
/// two dimensions fixed at `fixed`.
pub fn sweep_rect(
    gemm_cfg: &GemmConfig,
    dim: SweepDim,
    fixed: usize,
    sizes: &[usize],
    reps: usize,
) -> SweepReport {
    let label = match dim {
        SweepDim::M => "m",
        SweepDim::K => "k",
        SweepDim::N => "n",
    };
    let points = sizes
        .iter()
        .map(|&s| {
            let (m, k, n) = match dim {
                SweepDim::M => (s, fixed, fixed),
                SweepDim::K => (fixed, s, fixed),
                SweepDim::N => (fixed, fixed, s),
            };
            TimedPoint { size: s, ..crossover_point(gemm_cfg, m, k, n, reps) }
        })
        .collect();
    SweepReport::from_points(label, Some(fixed), points)
}

/// Figure 2 / Table 2: sweep square orders and find the crossover `τ`.
pub fn measure_square_cutoff(gemm_cfg: &GemmConfig, sizes: &[usize], reps: usize) -> CrossoverResult {
    sweep_square(gemm_cfg, sizes, reps).result()
}

/// One of the three Table-3 experiments: sweep a single dimension with
/// the other two fixed at `fixed`.
pub fn measure_rect_param(
    gemm_cfg: &GemmConfig,
    dim: SweepDim,
    fixed: usize,
    sizes: &[usize],
    reps: usize,
) -> CrossoverResult {
    sweep_rect(gemm_cfg, dim, fixed, sizes, reps).result()
}

/// The full set of empirically tuned cutoff parameters for one machine
/// profile (paper Tables 2 and 3).
#[derive(Clone, Copy, Debug)]
pub struct TunedParameters {
    /// Square cutoff `τ`.
    pub tau: usize,
    /// Rectangular parameter `τm`.
    pub tau_m: usize,
    /// Rectangular parameter `τk`.
    pub tau_k: usize,
    /// Rectangular parameter `τn`.
    pub tau_n: usize,
}

impl TunedParameters {
    /// The hybrid criterion (eq. 15) these parameters define.
    pub fn criterion(&self) -> CutoffCriterion {
        CutoffCriterion::Hybrid { tau: self.tau, tau_m: self.tau_m, tau_k: self.tau_k, tau_n: self.tau_n }
    }

    /// A full DGEFMM configuration using these parameters and `gemm`.
    pub fn config(&self, gemm: GemmConfig) -> StrassenConfig {
        StrassenConfig::dgefmm().gemm(gemm).cutoff(self.criterion())
    }
}

/// The complete Section 3.4 experiment for one machine: the four chosen
/// parameters together with every instrumented sweep that produced them.
/// [`TuningReport::to_json`] renders the archival schema-1 document.
#[derive(Clone, Debug)]
pub struct TuningReport {
    /// The tuned cutoff parameters the sweeps chose.
    pub params: TunedParameters,
    /// Timed reps per arm at every point.
    pub reps: usize,
    /// The square-`τ` sweep.
    pub square: SweepReport,
    /// The `τm` sweep.
    pub rect_m: SweepReport,
    /// The `τk` sweep.
    pub rect_k: SweepReport,
    /// The `τn` sweep.
    pub rect_n: SweepReport,
}

impl TuningReport {
    /// Write the report as a schema-1 JSON object in value position
    /// (embeddable under a key of a larger report).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("schema");
        w.value_u64(1);
        w.key("kind");
        w.value_str("strassen_tuning_report");
        w.key("reps");
        w.value_u64(self.reps as u64);
        w.key("params");
        w.begin_object();
        for (key, v) in [
            ("tau", self.params.tau),
            ("tau_m", self.params.tau_m),
            ("tau_k", self.params.tau_k),
            ("tau_n", self.params.tau_n),
        ] {
            w.key(key);
            w.value_u64(v as u64);
        }
        w.end_object();
        w.key("sweeps");
        w.begin_array();
        for sweep in [&self.square, &self.rect_m, &self.rect_k, &self.rect_n] {
            sweep.write_json(w);
        }
        w.end_array();
        w.end_object();
    }

    /// The report as a standalone JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

/// Run all four tuning experiments under the profiler and keep every
/// instrumented point.
///
/// `square_sizes` sweeps the square cutoff; `rect_sizes` sweeps each
/// rectangular parameter with the other two dimensions at `rect_fixed`.
pub fn tune_report(
    gemm_cfg: &GemmConfig,
    square_sizes: &[usize],
    rect_sizes: &[usize],
    rect_fixed: usize,
    reps: usize,
) -> TuningReport {
    let square = sweep_square(gemm_cfg, square_sizes, reps);
    let rect_m = sweep_rect(gemm_cfg, SweepDim::M, rect_fixed, rect_sizes, reps);
    let rect_k = sweep_rect(gemm_cfg, SweepDim::K, rect_fixed, rect_sizes, reps);
    let rect_n = sweep_rect(gemm_cfg, SweepDim::N, rect_fixed, rect_sizes, reps);
    let params = TunedParameters { tau: square.tau, tau_m: rect_m.tau, tau_k: rect_k.tau, tau_n: rect_n.tau };
    TuningReport { params, reps, square, rect_m, rect_k, rect_n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_median_is_positive_and_ordered() {
        let t = time_median(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t > 0.0);
    }

    #[test]
    fn time_samples_warms_up_once_untimed() {
        let mut calls = 0;
        let samples = time_samples(4, || calls += 1);
        assert_eq!(calls, 5, "one warm-up call, then one per rep");
        assert_eq!(samples.len(), 4);
    }

    #[test]
    fn pick_tau_basic_shapes() {
        let s = |size, ratio| CrossoverSample { size, ratio };
        // Clean crossover at 64.
        let (fw, tau) = pick_tau(&[s(32, 0.8), s(64, 0.95), s(96, 1.1), s(128, 1.2)]);
        assert_eq!(fw, Some(96));
        assert_eq!(tau, 64);
        // Saw-toothed region: τ is the *last* size GEMM won.
        let (fw, tau) = pick_tau(&[s(32, 0.9), s(64, 1.05), s(96, 0.98), s(128, 1.2)]);
        assert_eq!(fw, Some(64));
        assert_eq!(tau, 96);
        // Recursion always wins: fall back to the smallest size.
        let (fw, tau) = pick_tau(&[s(32, 1.1), s(64, 1.2)]);
        assert_eq!(fw, Some(32));
        assert_eq!(tau, 32);
    }

    #[test]
    fn one_level_config_recurses_exactly_once() {
        let cfg = one_level_config(GemmConfig::blocked());
        assert_eq!(crate::dispatch::planned_depth(&cfg, 128, 128, 128), 1);
        assert_eq!(crate::dispatch::planned_depth(&cfg, 1024, 64, 4096), 1);
    }

    #[test]
    fn crossover_point_is_instrumented() {
        let p = crossover_point(&GemmConfig::blocked(), 24, 24, 24, 2);
        assert!(p.ratio.is_finite() && p.ratio > 0.0);
        assert!(p.gemm_s > 0.0 && p.strassen_s > 0.0);
        assert!(p.gemm_mad_s >= 0.0 && p.strassen_mad_s >= 0.0);
        assert!((0.0..=1.0).contains(&p.add_share));
        // One level of recursion over a 24³ problem must run leaf GEMMs.
        assert!(p.gemm_leaf_gflops.is_some());
    }

    #[test]
    fn tuning_report_json_is_complete() {
        let sizes = [16, 24];
        let report = tune_report(&GemmConfig::blocked(), &sizes, &sizes, 32, 1);
        let json = report.to_json();
        assert!(json.starts_with(r#"{"schema":1,"kind":"strassen_tuning_report""#));
        for key in ["\"tau\":", "\"tau_m\":", "\"tau_k\":", "\"tau_n\":", "\"sweeps\":["] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Four sweeps, each with one point per size.
        assert_eq!(json.matches("\"dim\":").count(), 4);
        assert_eq!(json.matches("\"ratio\":").count(), 4 * sizes.len());
        assert_eq!(report.square.points.len(), sizes.len());
    }
}
