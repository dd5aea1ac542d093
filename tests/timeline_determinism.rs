//! Determinism of the execution-timeline recorder.
//!
//! Steal order, park timing, and lane assignment legitimately vary run
//! to run — but the *structure* of a recorded timeline (which tagged
//! tasks ran at which recursion level, and which dependency edges were
//! honored) is fully determined by the configuration. These tests pin
//! that claim across the parallel-width axis, tie
//! the per-level task counts to the analytic `counts::predict` model,
//! and pin the zeroth law of observability: recording a timeline must
//! not change a single bit of the numerical result.
//!
//! Seeds derive from `TESTKIT_SEED` (default `0xD1CE5EED`), so a
//! failure replays bit-for-bit.
//!
//! The event rings are global to the pool: any multiply running during
//! a record bracket contributes events. Tests in this binary therefore
//! serialize on a local mutex so each bracket observes only its own
//! multiply (`timeline::record`'s own lock only serializes recorders
//! against each other, not against unrecorded pool traffic).

use blas::Op;
use matrix::{random, Matrix};
use std::sync::{Mutex, MutexGuard};
use strassen::probe::timeline::{self, Structure};
use strassen::{counts, dgefmm, CutoffCriterion, Scheme, StrassenConfig};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

const N: usize = 64;
const TAU: usize = 16;
const PARALLEL_DEPTH: usize = 2;

/// The shared test shape: two parallel seven-temp levels above a τ = 16
/// cutoff, classic (non-fused) schedules so every parallel level runs a
/// real DAG instance.
fn config(width: usize) -> StrassenConfig {
    StrassenConfig {
        parallel_depth: PARALLEL_DEPTH,
        ..StrassenConfig::dgefmm()
            .scheme(Scheme::SevenTemp)
            .parallel_width(width)
            .cutoff(CutoffCriterion::Simple { tau: TAU })
            .fused(false)
    }
}

fn multiply(cfg: &StrassenConfig, seed: u64) -> Matrix<f64> {
    let a = random::uniform::<f64>(N, N, seed);
    let b = random::uniform::<f64>(N, N, seed.wrapping_add(1));
    let mut c = Matrix::<f64>::zeros(N, N);
    dgefmm(cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
    c
}

fn recorded_structure(cfg: &StrassenConfig, seed: u64) -> Structure {
    let (_, tl) = timeline::record(|| multiply(cfg, seed));
    assert_eq!(tl.total_dropped(), 0, "ring overflow would make structure comparisons meaningless");
    tl.structure()
}

/// Splits the recursion performs *at* level `level` — the difference of
/// two truncated predictions.
fn splits_at_level(cfg: &StrassenConfig, level: u32) -> u64 {
    let upto = |d: u32| counts::predict(&cfg.max_depth(d as usize), N, N, N, true).splits;
    upto(level + 1) - upto(level)
}

/// Structure is identical run to run, for every width, and the
/// per-level tagged-task counts match the analytic recursion model: the
/// task DAG tags all 21 nodes of each seven-temp instance.
#[test]
fn structure_is_deterministic_across_widths() {
    let _guard = serialized();
    let seed = testkit::master_seed();
    let mut baseline: Option<Structure> = None;
    for width in [1, 2, usize::MAX] {
        let cfg = config(width);
        let s1 = recorded_structure(&cfg, seed);
        let s2 = recorded_structure(&cfg, seed);
        assert_eq!(s1, s2, "width={width}: structure varies run to run");

        // Width throttles how many ready tasks are in flight; it must not
        // change which tasks exist.
        match &baseline {
            None => baseline = Some(s1.clone()),
            Some(b) => assert_eq!(&s1, b, "width={width}: structure depends on parallel width"),
        }

        let mut per_level = std::collections::BTreeMap::new();
        for (&(level, _node), &count) in &s1.tasks {
            *per_level.entry(level).or_insert(0u64) += count;
        }
        for level in 0..PARALLEL_DEPTH as u32 {
            let expect = 21 * splits_at_level(&cfg, level);
            assert_eq!(
                per_level.get(&(level as u8)).copied().unwrap_or(0),
                expect,
                "width={width}: level-{level} tagged tasks != 21 × splits"
            );
        }
        // Levels at or below the serial frontier never spawn.
        assert!(per_level.keys().all(|&l| (l as usize) < PARALLEL_DEPTH));
    }
}

/// The task-DAG structure also records every dependency edge of each
/// seven-temp instance: 25 per split (4 sum-chain, 8 product←operand,
/// 13 combine).
#[test]
fn taskdag_edge_structure_matches_the_schedule() {
    let _guard = serialized();
    let seed = testkit::master_seed().wrapping_add(17);
    let dag = recorded_structure(&config(usize::MAX), seed);
    let total_splits: u64 = (0..PARALLEL_DEPTH as u32).map(|l| splits_at_level(&config(1), l)).sum();
    assert_eq!(dag.edges.values().sum::<u64>(), 25 * total_splits);
}

/// The zeroth law: recording a timeline is bitwise invisible to the
/// numerical result.
#[test]
fn tracing_on_is_bitwise_identical_to_tracing_off() {
    let _guard = serialized();
    let seed = testkit::master_seed().wrapping_add(34);
    let cfg = config(usize::MAX);
    let plain = multiply(&cfg, seed);
    let (recorded, tl) = timeline::record(|| multiply(&cfg, seed));
    assert!(tl.duration_events() > 0, "the bracket must actually have recorded the run");
    assert!(
        plain.as_slice() == recorded.as_slice(),
        "recording perturbed the result (max {} ulps)",
        testkit::max_ulp_diff_mat(plain.as_ref(), recorded.as_ref())
    );
}
