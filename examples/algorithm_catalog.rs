//! Regenerates the generated catalog section of `ALGORITHMS.md` from
//! the live coefficient tables, compiled schedules, and trace probe —
//! nothing in the table is hand-maintained.
//!
//! ```sh
//! cargo run --example algorithm_catalog            # rewrite the section in place
//! cargo run --example algorithm_catalog -- --check # diff gate (scripts/verify.sh)
//! ```
//!
//! Every number is derived from the shipped [`strassen::FastAlgorithm`]
//! tables (rank, stability quantity, pass counts, workspace shape) or
//! *measured* from a traced `dgefmm` run; the measured flop totals are
//! asserted against the `opcount` generalized recurrence before a byte
//! is written, so a catalog that regenerates cleanly is also a catalog
//! whose claims held at run time.

use blas::Op;
use matrix::random;
use opcount::family::{bdpz_spec, family_flops, uniform_spec, FamilySpec};
use strassen::{dgefmm, required_workspace, trace, CutoffCriterion, Family, Scheme, StrassenConfig, Trace};

const BEGIN: &str = "<!-- BEGIN GENERATED: algorithm catalog (cargo run --example algorithm_catalog) -->";
const END: &str = "<!-- END GENERATED -->";

fn traced_run(cfg: &StrassenConfig, m: usize, k: usize, n: usize, beta: f64) -> Trace {
    let a = random::uniform::<f64>(m, k, 11);
    let b = random::uniform::<f64>(k, n, 22);
    let mut c = random::uniform::<f64>(m, n, 33);
    let (_, tr) = trace::capture(|| {
        dgefmm(cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), beta, c.as_mut());
    });
    tr
}

/// Two exactly divisible recursion levels per family above a τ = 4
/// simple cutoff (the same shapes `tests/family_engine.rs` pins).
fn reference_shape(fam: Family) -> (usize, usize, usize) {
    match fam {
        Family::F222 => (20, 20, 20),
        Family::F223 => (20, 20, 27),
        Family::F323 => (36, 20, 36),
        Family::F234 => (12, 18, 32),
        Family::F333 => (27, 27, 27),
    }
}

fn compiled_spec(fam: Family) -> FamilySpec {
    let sched = fam.compiled();
    let (dm, dk, dn) = fam.dims();
    let (a, b) = sched.staging_add_passes();
    uniform_spec(
        (dm as u128, dk as u128, dn as u128),
        fam.rank() as u128,
        a as u128,
        b as u128,
        sched.write_add_passes(true) as u128,
        sched.write_add_passes(false) as u128,
    )
}

/// The per-family table: identity, rank, stability, per-level pass
/// structure, workspace, and a live traced flop count cross-checked
/// against the generalized recurrence.
fn family_table() -> String {
    let mut out = String::new();
    out.push_str(
        "| family | base case | rank R | trivial | q (stability) | adds/level (β=0 / β≠0) | workspace bound | flops @ ref (β=0) |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for fam in Family::ALL {
        let alg = fam.algorithm();
        let sched = fam.compiled();
        let (dm, dk, dn) = fam.dims();
        let (m, k, n) = reference_shape(fam);
        // Measure the lowered tables live (F222 runs its hand-scheduled
        // programs in production, so probe the compiled numbers from
        // the schedule itself and trace the non-F222 dispatch path).
        let flops = if fam == Family::F222 {
            let cfg = StrassenConfig::dgefmm().cutoff(CutoffCriterion::Simple { tau: 4 }).fused(false);
            traced_run(&cfg, m, k, n, 0.0).total_flops()
        } else {
            let cfg =
                StrassenConfig::dgefmm().family(fam).cutoff(CutoffCriterion::Simple { tau: 4 }).fused(false);
            let tr = traced_run(&cfg, m, k, n, 0.0);
            let cut = |m: u128, k: u128, n: u128, _: bool| m <= 4 || k <= 4 || n <= 4;
            let want = family_flops(&compiled_spec(fam), m as u128, k as u128, n as u128, true, &cut);
            assert_eq!(tr.total_flops(), want, "{fam:?}: trace diverged from the recurrence");
            tr.total_flops()
        };
        let x = if sched.needs_x() { format!("mk/{}", dm * dk - 1) } else { "–".into() };
        let y = if sched.needs_y() { format!("kn/{}", dk * dn - 1) } else { "–".into() };
        out.push_str(&format!(
            "| `{fam:?}` | ⟨{dm},{dk},{dn}⟩ | {} | {} | {} | {} / {} | {x} + {y} + mn/{} | {flops} ({m}×{k}×{n}) |\n",
            alg.rank(),
            dm * dk * dn,
            alg.stability_q(),
            sched.add_passes(true),
            sched.add_passes(false),
            dm * dn - 1,
        ));
    }
    out
}

/// The ⟨2,2,2⟩ schedule table: per-level add passes, child β classes,
/// and the measured recursion-total workspace high-water at a reference
/// order, cross-checked against the analytic requirement. The add
/// passes are those a traced run of exactly one level executes.
fn schedule_table() -> String {
    let m = 128usize;
    let cutoff = CutoffCriterion::Simple { tau: 8 };
    let mut out = String::new();
    out.push_str("| schedule | adds/level | children (β=0 / β=1) | total workspace bound | measured high-water (128³, τ=8) |\n");
    out.push_str("|---|---|---|---|---|\n");
    let rows: [(&str, Scheme, f64, bool, &str, &str); 5] = [
        ("STRASSEN1 (β=0)", Scheme::Strassen1, 0.0, true, "7 / 0", "(m·max(k,n) + kn)/3"),
        ("STRASSEN2", Scheme::Strassen2, 1.0, false, "2 / 5", "(mk + kn + mn)/3"),
        ("seven-temp", Scheme::SevenTemp, 0.0, true, "7 / 0", "(4mk + 4kn + 7mn)/3"),
        ("BDPZ two-temp (β=0)", Scheme::TwoTemp, 0.0, true, "4 / 3", "(mk + kn)/3"),
        ("BDPZ in-place (any β)", Scheme::InPlace, 1.0, false, "0 / 7", "(mk + kn)/3"),
    ];
    for (name, scheme, beta, beta_zero, children, bound) in rows {
        let cfg = StrassenConfig::dgefmm().scheme(scheme).cutoff(cutoff).fused(false);
        let adds = traced_run(&cfg.max_depth(1), m, m, m, beta).add_passes();
        let tr = traced_run(&cfg, m, m, m, beta);
        let need = required_workspace(&cfg, m, m, m, beta_zero);
        assert_eq!(tr.ws_high_water, need, "{name}: high-water != analytic requirement");
        out.push_str(&format!(
            "| {name} | {adds} | {children} | {bound} | {} elements = {:.3}·m² |\n",
            tr.ws_high_water,
            tr.ws_high_water as f64 / (m * m) as f64
        ));
    }
    out
}

/// One BDPZ flop sanity line: the two-class recurrence evaluated at the
/// schedule-table reference, shown so the catalog records the add-pass
/// overhead the memory saving costs.
fn bdpz_note() -> String {
    let cut = |m: u128, k: u128, n: u128, _: bool| m <= 8 || k <= 8 || n <= 8;
    let bdpz = family_flops(&bdpz_spec(), 128, 128, 128, true, &cut);
    let wino = family_flops(&uniform_spec((2, 2, 2), 7, 4, 4, 7, 7), 128, 128, 128, true, &cut);
    format!(
        "At the same reference (128³, τ = 8, β = 0) the BDPZ two-temp schedule executes\n\
         {bdpz} model flops against the classic Winograd recursion's {wino} — the\n\
         `(mk + kn)/3` workspace bound is bought with {} extra adds ({:.2}%).\n",
        bdpz - wino,
        100.0 * (bdpz - wino) as f64 / wino as f64
    )
}

fn generated_section() -> String {
    let mut s = String::new();
    s.push_str(BEGIN);
    s.push('\n');
    s.push('\n');
    s.push_str("### Family catalog (generated)\n\n");
    s.push_str(&family_table());
    s.push('\n');
    s.push_str(
        "`q` is the Higham stability quantity `max_ij Σ_r |w_rij|·‖u_r‖₁·‖v_r‖₁` — the\n\
         per-level error growth factor the accuracy crate's envelopes use. Workspace\n\
         bounds are recursion totals in elements (each per-level block shrinks by its\n\
         block-count factor, hence the geometric denominators). The flops column is\n\
         *measured* by the trace probe on the reference problem and asserted equal to\n\
         the generalized rank-R recurrence (`opcount::family`) during regeneration.\n\n",
    );
    s.push_str("### ⟨2,2,2⟩ schedule catalog (generated)\n\n");
    s.push_str(&schedule_table());
    s.push('\n');
    s.push_str(&bdpz_note());
    s.push('\n');
    s.push_str(END);
    s
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/ALGORITHMS.md");
    let doc = std::fs::read_to_string(path).expect("ALGORITHMS.md not found");
    let begin = doc.find(BEGIN).expect("BEGIN marker missing from ALGORITHMS.md");
    let end = doc.find(END).map(|e| e + END.len()).expect("END marker missing from ALGORITHMS.md");
    assert!(begin < end, "catalog markers out of order");
    let fresh = format!("{}{}{}", &doc[..begin], generated_section(), &doc[end..]);
    if check {
        if fresh != doc {
            eprintln!("ALGORITHMS.md catalog is stale: run `cargo run --example algorithm_catalog`");
            std::process::exit(1);
        }
        println!("algorithm_catalog --check: ALGORITHMS.md is up to date (byte-for-byte)");
    } else if fresh == doc {
        println!("algorithm_catalog: ALGORITHMS.md already up to date");
    } else {
        std::fs::write(path, fresh).expect("failed to write ALGORITHMS.md");
        println!("algorithm_catalog: regenerated the catalog section of ALGORITHMS.md");
    }
}
