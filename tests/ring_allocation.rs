//! The pool's timeline rings cost nothing until something records.
//!
//! `Pool::start` keeps only the lane count; the rings are allocated by
//! the first recording (`pool::ring::start_recording` or `marks`, and so
//! `timeline::record`), sized from `STRASSEN_RING_CAP` at that moment.
//! This binary holds a single test function, so no other test in the
//! process can start a recording before it looks.

use blas::level3::gemm_parallel;
use blas::Op;
use matrix::{random, Matrix};
use pool::ring::{self, EventKind, KIND_COUNT};
use strassen::probe::timeline;
use strassen::{dgefmm, CutoffCriterion, Scheme, StrassenConfig};

const CAP: usize = 4096;

/// Events per `[lane][kind]` in `lanes`, in `EventKind::ALL` order,
/// parks left out: an idle worker may park at any moment, inside or
/// outside a bracket, while every other kind happens inside the work the
/// bracket waits for.
fn tally(lanes: &[Vec<ring::Event>]) -> Vec<[u64; KIND_COUNT]> {
    let counted = |k: usize, e: &&ring::Event| e.kind == EventKind::ALL[k] && e.kind != EventKind::Park;
    lanes
        .iter()
        .map(|events| std::array::from_fn(|k| events.iter().filter(|e| counted(k, e)).count() as u64))
        .collect()
}

/// `after - before` per lane and kind, parks left out as in [`tally`].
fn delta(before: &[[u64; KIND_COUNT]], after: &[[u64; KIND_COUNT]]) -> Vec<[u64; KIND_COUNT]> {
    let park = |k: usize| EventKind::ALL[k] == EventKind::Park;
    before
        .iter()
        .zip(after)
        .map(|(b, a)| std::array::from_fn(|k| if park(k) { 0 } else { a[k] - b[k] }))
        .collect()
}

#[test]
fn rings_are_allocated_by_the_first_recording_only() {
    // Parallel pool work of both kinds, with recording off: a scope and
    // a parallel GEMM.
    pool::scope(|s| {
        for _ in 0..16 {
            s.spawn(|| {
                std::hint::black_box((0..10_000).sum::<u64>());
            });
        }
    });
    let n = 256;
    let a = random::uniform::<f64>(n, n, 1);
    let b = random::uniform::<f64>(n, n, 2);
    let mut c = Matrix::<f64>::zeros(n, n);
    let gemm_cfg = StrassenConfig::dgefmm_parallel().gemm;
    gemm_parallel(&gemm_cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
    assert_eq!(ring::allocated_bytes(), 0, "no ring memory before the first recording");
    assert_eq!(ring::kind_counts(), vec![[0; KIND_COUNT]; ring::lane_count()]);

    // The capacity is read at the first recording, long after the pool
    // started. No other thread reads the environment here.
    std::env::set_var("STRASSEN_RING_CAP", CAP.to_string());

    // Two parallel seven-temp levels above τ = 16, classic schedules, so
    // every parallel level runs a tagged DAG at any worker count.
    let cfg = StrassenConfig { parallel_depth: 2, ..StrassenConfig::dgefmm() }
        .scheme(Scheme::SevenTemp)
        .cutoff(CutoffCriterion::Simple { tau: 16 })
        .fused(false);
    let (m, k) = (64, 64);
    let a = random::uniform::<f64>(m, k, 3);
    let b = random::uniform::<f64>(k, m, 4);
    let multiply = || {
        let mut c = Matrix::<f64>::zeros(m, m);
        dgefmm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
        c
    };
    let unrecorded = multiply();
    let counts_before = ring::kind_counts();
    let (recorded, tl) = timeline::record(multiply);
    let counts_after = ring::kind_counts();
    assert_eq!(recorded.as_slice(), unrecorded.as_slice(), "recording changed the result");
    assert_eq!(ring::allocated_bytes(), ring::lane_count() * CAP * 24);
    assert!(tl.duration_events() > 0, "the recorded multiply left no task events");
    assert!(!tl.per_level_task_counts().is_empty(), "no tagged DAG node was recorded");
    assert_eq!(tl.total_dropped(), 0);
    let lanes: Vec<Vec<ring::Event>> = tl.lanes.iter().map(|l| l.events.clone()).collect();
    assert_eq!(tally(&lanes), delta(&counts_before, &counts_after), "bracket is not exact");

    // A second bracket taken by hand: the rings are not reallocated, and
    // `marks`/`events_since` hold exactly this region's events.
    let tag = ring::tag::gemm_task(0, 7);
    let marks = ring::marks();
    let counts_before = ring::kind_counts();
    assert!(!ring::start_recording());
    pool::scope(|s| {
        for _ in 0..8 {
            s.spawn_tagged(None, tag, || {
                std::hint::black_box((0..10_000).sum::<u64>());
            });
        }
    });
    assert!(ring::stop_recording());
    let since = ring::events_since(&marks);
    let counts_after = ring::kind_counts();
    assert_eq!(ring::allocated_bytes(), ring::lane_count() * CAP * 24);
    assert!(since.iter().all(|(_, dropped)| *dropped == 0));
    let lanes: Vec<Vec<ring::Event>> = since.into_iter().map(|(events, _)| events).collect();
    assert_eq!(tally(&lanes), delta(&counts_before, &counts_after), "bracket is not exact");
    let all: Vec<&ring::Event> = lanes.iter().flatten().collect();
    for kind in [EventKind::Spawn, EventKind::Start, EventKind::Finish] {
        assert_eq!(all.iter().filter(|e| e.kind == kind && e.tag == tag).count(), 8, "{kind:?}");
    }
    assert!(all.iter().all(|e| e.tag == 0 || e.tag == tag), "an event from outside the bracket");
}
