//! Ablations: the design choices DESIGN.md §4 calls out, each isolated
//! at one order and timed under the same DGEFMM base configuration
//! (`Simple { τ = 96 }`).
//!
//! * **schedule** — STRASSEN1, STRASSEN2 and the seven-temporary
//!   schedule at β = 0 and β = 1, each with the workspace it draws (the
//!   time side of Table 1: the low-memory schedules should cost no time);
//! * **odd handling** — the four `OddHandling`s at an odd order (the
//!   peel-vs-pad argument of Section 3.3);
//! * **variant** — Winograd's 15-add variant against Strassen's 18-add
//!   original;
//! * **depth** — `CutoffCriterion::Never` capped at 0–3 levels, the
//!   benefit of each recursion level (the depth rows use the
//!   `rs6000-like` blocked kernel).
//!
//! Every row is timed by [`time_dgefmm`], which allocates the workspace
//! outside the timed region. `rel` is the row's time over its group's
//! first row.

use crate::profiles::rs6000_like;
use crate::runner::{time_dgefmm, Scale};
use std::fmt::Write;
use strassen::{
    planned_depth, required_workspace, CutoffCriterion, OddHandling, Scheme, StrassenConfig, Variant,
};

/// One timed configuration.
struct Row {
    group: &'static str,
    label: String,
    cfg: StrassenConfig,
    m: usize,
    beta: f64,
}

/// Every row of the study, in print order.
fn rows(scale: Scale) -> Vec<Row> {
    // Orders for the schedule and variant rows, the odd-handling rows and
    // the depth rows.
    let (even, odd, deep) = match scale {
        Scale::Smoke => (128, 127, 128),
        Scale::Small | Scale::Full => (384, 383, 832),
    };
    let base = StrassenConfig::dgefmm().cutoff(CutoffCriterion::Simple { tau: 96 });
    let mut rows = Vec::new();
    let mut push = |group, label: String, cfg, m, beta| rows.push(Row { group, label, cfg, m, beta });

    for beta in [0.0, 1.0] {
        for (name, scheme) in [
            ("strassen1", Scheme::Strassen1),
            ("strassen2", Scheme::Strassen2),
            ("seven_temp", Scheme::SevenTemp),
        ] {
            push("schedule", format!("{name}_beta{beta}"), base.scheme(scheme), even, beta);
        }
    }
    for (name, handling) in [
        ("dynamic_peeling", OddHandling::DynamicPeeling),
        ("dynamic_peeling_first", OddHandling::DynamicPeelingFirst),
        ("dynamic_padding", OddHandling::DynamicPadding),
        ("static_padding", OddHandling::StaticPadding),
    ] {
        push("odd", name.to_string(), base.odd(handling), odd, 0.0);
    }
    for (name, variant) in [("winograd", Variant::Winograd), ("original", Variant::Original)] {
        push("variant", name.to_string(), base.variant(variant), even, 0.0);
    }
    let never = StrassenConfig::dgefmm().gemm(rs6000_like().gemm).cutoff(CutoffCriterion::Never);
    for depth in 0..=3 {
        push("depth", format!("depth_{depth}"), never.max_depth(depth), deep, 0.0);
    }
    rows
}

/// Time every row and render the table.
pub fn run(scale: Scale) -> String {
    let mut out = String::new();
    let w = &mut out;
    writeln!(w, "== Ablations: schedule, odd handling, variant, depth (DGEFMM, α = 1) ==").unwrap();
    writeln!(
        w,
        "{:<9} {:<22} {:>5} {:>5} {:>6} {:>12} {:>10} {:>9} {:>6}",
        "group", "row", "m", "beta", "depth", "workspace", "ms", "GFLOP/s", "rel"
    )
    .unwrap();
    let mut first: Option<(&str, f64)> = None;
    for row in rows(scale) {
        let m = row.m;
        let secs = time_dgefmm(&row.cfg, m, m, m, 1.0, row.beta, scale.reps());
        let base = match first {
            Some((group, t)) if group == row.group => t,
            _ => {
                first = Some((row.group, secs));
                secs
            }
        };
        writeln!(
            w,
            "{:<9} {:<22} {:>5} {:>5} {:>6} {:>12} {:>10.2} {:>9.2} {:>6.3}",
            row.group,
            row.label,
            m,
            row.beta,
            planned_depth(&row.cfg, m, m, m),
            required_workspace(&row.cfg, m, m, m, row.beta == 0.0),
            secs * 1e3,
            2.0 * (m as f64).powi(3) / secs / 1e9,
            secs / base
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_run_the_configuration_they_are_labelled_with() {
        for scale in [Scale::Smoke, Scale::Small] {
            let rows = rows(scale);
            for group in ["schedule", "odd", "variant", "depth"] {
                assert!(rows.iter().any(|r| r.group == group), "{scale:?}: no {group} rows");
            }
            for r in &rows {
                let label = r.label.as_str();
                match r.group {
                    "schedule" => {
                        let scheme = match label.split("_beta").next().unwrap() {
                            "strassen1" => Scheme::Strassen1,
                            "strassen2" => Scheme::Strassen2,
                            "seven_temp" => Scheme::SevenTemp,
                            other => panic!("unknown schedule row {other}"),
                        };
                        assert_eq!(r.cfg.scheme, scheme, "{label}");
                        assert_eq!(label.ends_with("_beta0"), r.beta == 0.0, "{label}");
                    }
                    "odd" => {
                        let odd = match label {
                            "dynamic_peeling" => OddHandling::DynamicPeeling,
                            "dynamic_peeling_first" => OddHandling::DynamicPeelingFirst,
                            "dynamic_padding" => OddHandling::DynamicPadding,
                            "static_padding" => OddHandling::StaticPadding,
                            other => panic!("unknown odd-handling row {other}"),
                        };
                        assert_eq!(r.cfg.odd, odd, "{label}");
                        assert_eq!(r.m % 2, 1, "{label} must run at an odd order");
                    }
                    "variant" => {
                        let variant = match label {
                            "winograd" => Variant::Winograd,
                            "original" => Variant::Original,
                            other => panic!("unknown variant row {other}"),
                        };
                        assert_eq!(r.cfg.variant, variant, "{label}");
                    }
                    "depth" => {
                        let d: u32 = label.strip_prefix("depth_").unwrap().parse().unwrap();
                        assert_eq!(planned_depth(&r.cfg, r.m, r.m, r.m), d, "{label}");
                    }
                    other => panic!("unknown group {other}"),
                }
                if scale == Scale::Smoke {
                    assert!(r.m <= 128, "{label}: smoke order {} > 128", r.m);
                }
            }
        }
    }

    #[test]
    fn smoke_run_prints_every_row() {
        let report = run(Scale::Smoke);
        for r in rows(Scale::Smoke) {
            assert!(report.contains(&r.label), "missing row {}", r.label);
        }
    }
}
