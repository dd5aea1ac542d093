//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments <name|all> [--scale smoke|small|full] [--profile NAME]
//!
//! names: analytic table1 fig2 table2 table3 table4 table5
//!        fig3 fig4 fig5 fig6 table6 stability model ablation all
//! profiles: rs6000-like (default) | c90-like | t3d-like
//! ```

use bench::experiments::{
    ablation, analytic, fig2, fig6, figs345, model, stability, table1, table23, table4, table5, table6,
};
use bench::profiles::{self, MachineProfile};
use bench::runner::Scale;
use std::process::ExitCode;

const NAMES: &[&str] = &[
    "analytic",
    "table1",
    "fig2",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table6",
    "stability",
    "model",
    "ablation",
];

fn usage() -> ExitCode {
    eprintln!("usage: experiments <name|all> [--scale smoke|small|full] [--profile NAME]");
    eprintln!("names: {} all", NAMES.join(" "));
    eprintln!("profiles: rs6000-like (default) | c90-like | t3d-like");
    ExitCode::FAILURE
}

fn run_one(name: &str, scale: Scale, profile: &MachineProfile) -> Option<String> {
    Some(match name {
        "analytic" => analytic::run(),
        "table1" => table1::run(scale),
        "fig2" => fig2::run(scale, profile),
        "table2" => table23::run_table2(scale),
        "table3" => table23::run_table3(scale),
        "table4" => table4::run(scale, profile),
        "table5" => table5::run(scale, profile),
        "fig3" => figs345::run(scale, profile, figs345::Comparator::Dgemms),
        "fig4" => figs345::run(scale, profile, figs345::Comparator::Sgemms),
        "fig5" => figs345::run(scale, profile, figs345::Comparator::Dgemmw),
        "fig6" => fig6::run(scale, profile),
        "table6" => table6::run(scale, profile),
        "stability" => stability::run(scale),
        "model" => model::run(scale, profile),
        "ablation" => ablation::run(scale),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let mut name = String::new();
    let mut scale = Scale::Small;
    let mut profile = profiles::rs6000_like();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => match it.next().and_then(|s| Scale::parse(s)) {
                Some(s) => scale = s,
                None => return usage(),
            },
            "--profile" => match it.next().and_then(|s| profiles::by_name(s)) {
                Some(p) => profile = p,
                None => return usage(),
            },
            other if name.is_empty() && !other.starts_with('-') => name = other.to_string(),
            _ => return usage(),
        }
    }
    if name.is_empty() {
        return usage();
    }

    let list: Vec<&str> = if name == "all" { NAMES.to_vec() } else { vec![name.as_str()] };
    for n in list {
        match run_one(n, scale, &profile) {
            Some(report) => {
                println!("{report}");
                println!();
            }
            None => return usage(),
        }
    }
    ExitCode::SUCCESS
}
