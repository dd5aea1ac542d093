//! The no-allocation guarantee of the thread-local workspace arena: after
//! the first DGEFMM call at a problem size, subsequent calls on the same
//! thread draw everything — schedule temporaries, transpose staging, and
//! GEMM pack buffers — from reused thread-local storage. A plain packed
//! GEMM leases its panels from the same pack buffer and is held to the
//! same guarantee.
//!
//! Verified with a counting global allocator. This file holds a single
//! test so no concurrent test can perturb the allocation counter.

use blas::{gemm, GemmConfig, Op};
use matrix::{random, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use strassen::{dgefmm, StrassenConfig};

/// System allocator with a count of every allocation-acquiring call.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    f();
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn second_dgefmm_call_performs_zero_allocations() {
    // τ = 64 recurses two levels at n = 256 (the last one fused), so the
    // arena holds real temporaries; the library's own cutoff would run
    // one GEMM call.
    let cfg = StrassenConfig::with_square_cutoff(64);
    let n = 256;
    let a = random::uniform::<f64>(n, n, 1);
    let b = random::uniform::<f64>(n, n, 2);
    let mut c = Matrix::<f64>::zeros(n, n);

    // Warm-up sizes the thread-local arena and the GEMM pack buffers.
    for (op_a, beta) in [(Op::NoTrans, 0.0), (Op::Trans, 0.5)] {
        dgefmm(&cfg, 1.0, op_a, a.as_ref(), Op::NoTrans, b.as_ref(), beta, c.as_mut());
    }

    // Steady state: no heap traffic at all, for either β class, with or
    // without transpose staging (which is carved from the same arena).
    for (op_a, beta) in [(Op::NoTrans, 0.0), (Op::NoTrans, 0.5), (Op::Trans, 0.0), (Op::Trans, 0.5)] {
        let allocs = allocations_during(|| {
            dgefmm(&cfg, 1.0, op_a, a.as_ref(), Op::NoTrans, b.as_ref(), beta, c.as_mut());
        });
        assert_eq!(allocs, 0, "op_a={op_a:?} β={beta}: {allocs} allocations in steady state");
    }
    assert!(c.as_slice().iter().all(|x| x.is_finite()));

    // A plain packed GEMM (every dimension above the unpacked small
    // tier's 160) leases its panels from the same thread-local pack
    // buffer: warm calls allocate nothing, with or without a transpose.
    let gemm_cfg = GemmConfig::auto();
    let (m, k, n) = (200, 176, 168);
    let (a, b) = (random::uniform::<f64>(m, k, 3), random::uniform::<f64>(k, n, 4));
    let at = random::uniform::<f64>(k, m, 5);
    let mut c = Matrix::<f64>::zeros(m, n);
    let mut run = |op_a: Op| {
        let a = if op_a == Op::NoTrans { a.as_ref() } else { at.as_ref() };
        gemm(&gemm_cfg, 1.0, op_a, a, Op::NoTrans, b.as_ref(), 0.5, c.as_mut());
    };
    for op_a in [Op::NoTrans, Op::Trans] {
        run(op_a);
    }
    for op_a in [Op::NoTrans, Op::Trans] {
        let allocs = allocations_during(|| run(op_a));
        assert_eq!(allocs, 0, "gemm op_a={op_a:?}: {allocs} allocations in steady state");
    }
}
