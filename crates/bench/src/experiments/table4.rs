//! Table 4: comparison of rectangular cutoff criteria.
//!
//! For each pair of criteria, random `(m, k, n)` problems are drawn and
//! kept only when the two criteria make *opposite* top-level recursion
//! decisions (on identical-decision problems the codes behave
//! identically, as the paper notes). Each kept problem is then timed
//! under both criteria and the ratio `t(new eq.15) / t(other)` is
//! summarized — below 1.0 means the paper's hybrid criterion wins.

use crate::profiles::MachineProfile;
use crate::runner::{time_dgefmm, Scale, ShapeSampler};
use stats::summarize;
use std::fmt::Write;
use strassen::CutoffCriterion;

/// Sample counts and the size ceiling per scale.
fn params(scale: Scale) -> (usize, usize, usize) {
    // (general samples, two-dims-large samples, max dimension)
    // Disagreements between (15) and (11) only arise when two dimensions
    // are much larger than the third (the paper sampled up to 2050), so
    // the ceiling must be well above the square cutoff.
    match scale {
        Scale::Smoke => (3, 2, 700),
        Scale::Small => (10, 6, 1700),
        Scale::Full => (40, 16, 2050),
    }
}

/// Collect ratio samples for `new` vs `other` on disagreement problems.
#[allow(clippy::too_many_arguments)]
fn compare(
    profile: &MachineProfile,
    new: CutoffCriterion,
    other: CutoffCriterion,
    samples_wanted: usize,
    max_dim: usize,
    two_large: bool,
    reps: usize,
    seed: u64,
) -> Vec<f64> {
    let tuned = profile.tuned;
    let lo = [
        (tuned.tau / 3).min(tuned.tau_m).max(8),
        (tuned.tau / 3).min(tuned.tau_k).max(8),
        (tuned.tau / 3).min(tuned.tau_n).max(8),
    ];
    let large = max_dim * 9 / 10;
    let mut sampler = ShapeSampler::new(lo, max_dim, seed);
    let mut ratios = Vec::new();
    let mut attempts = 0usize;
    while ratios.len() < samples_wanted && attempts < samples_wanted * 400 {
        attempts += 1;
        let (mut m, mut k, mut n) = sampler.next_shape();
        if two_large {
            // Force two of the three dimensions to be large.
            match attempts % 3 {
                0 => {
                    k = large;
                    n = large;
                }
                1 => {
                    m = large;
                    n = large;
                }
                _ => {
                    m = large;
                    k = large;
                }
            }
        }
        if new.should_stop(m, k, n) == other.should_stop(m, k, n) {
            continue;
        }
        let cfg_new = profile.dgefmm_config().cutoff(new);
        let cfg_other = profile.dgefmm_config().cutoff(other);
        let t_new = time_dgefmm(&cfg_new, m, k, n, 1.0, 0.0, reps);
        let t_other = time_dgefmm(&cfg_other, m, k, n, 1.0, 0.0, reps);
        ratios.push(t_new / t_other);
    }
    ratios
}

/// Run the Table 4 comparisons for one machine profile.
pub fn run(scale: Scale, profile: &MachineProfile) -> String {
    let (n_gen, n_2l, max_dim) = params(scale);
    let reps = scale.reps();
    let tuned = profile.tuned;
    let hybrid = tuned.criterion();
    let simple = CutoffCriterion::Simple { tau: tuned.tau };
    let higham = CutoffCriterion::HighamScaled { tau: tuned.tau };

    let mut out = String::new();
    let w = &mut out;
    writeln!(w, "== Table 4: cutoff criteria comparison — {} (alpha=1, beta=0) ==", profile.name).unwrap();
    writeln!(w, "ratios t(eq.15 hybrid)/t(other); < 1 means the new criterion wins").unwrap();
    writeln!(w, "{:<26} {:>3}  range  quartiles  average", "comparison", "n").unwrap();

    let rows: [(&str, CutoffCriterion, usize, bool, u64); 3] = [
        ("(15)/(11) simple", simple, n_gen, false, 1001),
        ("(15)/(12) higham", higham, n_gen, false, 1002),
        ("(15)/(12), two dims large", higham, n_2l, true, 1003),
    ];
    for (name, other, wanted, two_large, seed) in rows {
        let ratios = compare(profile, hybrid, other, wanted, max_dim, two_large, reps, seed);
        if ratios.is_empty() {
            writeln!(w, "{name:<26} {:>3}  (no disagreement problems found)", 0).unwrap();
        } else {
            let s = summarize(&ratios);
            writeln!(w, "{name:<26} {:>3}  {}", s.n, s.paper_row()).unwrap();
        }
    }
    writeln!(
        w,
        "\n(paper averages: RS/6000 0.953/1.002/0.989, C90 0.938/0.943/0.910, T3D 0.952/0.978/0.934)"
    )
    .unwrap();
    out
}
