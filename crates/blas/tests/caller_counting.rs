//! The helping caller as a compute thread.
//!
//! A thread that opens a `pool::scope` runs queued tasks while it waits,
//! so a pool-parallel nest started outside pool work splits one way more
//! than the pool has workers, when the workers leave a CPU free. Started
//! from inside a task, the caller is already one of the pool's threads
//! and the split stays at the worker count. With the pool pinned to one
//! worker a top-level nest splits two ways (one on a 1-CPU host, which
//! runs inline), and inside a task it runs inline, with no task of its
//! own. A split nest opens two scopes per `(jc, pc)` step, B packing then
//! compute, each with one task per way. Either way the result is bitwise
//! equal to the serial nest.
//!
//! The pool counters are process-wide, so everything runs in one test.

use blas::level3::{gemm_blocked, gemm_fused_level, gemm_parallel, BlockProduct, BlockTerms, GemmConfig};
use blas::{GemmAlgo, Op};
use matrix::{random, Matrix};

/// Pool tasks run while `f` runs, by the worker or by a helping caller.
fn tasks_run(f: impl FnOnce()) -> u64 {
    let before = pool::pool_stats();
    f();
    let delta = pool::pool_stats().since(&before);
    delta.total_jobs() + delta.helper_pops
}

/// Strassen's 1969 seven-product table over flat 2x2 block indices.
fn strassen_table() -> [BlockProduct; 7] {
    let p = |a: &[(i8, u8)], b: &[(i8, u8)], c: &[(i8, u8)]| BlockProduct {
        a: BlockTerms::new(a),
        b: BlockTerms::new(b),
        c: BlockTerms::new(c),
    };
    [
        p(&[(1, 0), (1, 3)], &[(1, 0), (1, 3)], &[(1, 0), (1, 3)]),
        p(&[(1, 2), (1, 3)], &[(1, 0)], &[(1, 2), (-1, 3)]),
        p(&[(1, 0)], &[(1, 1), (-1, 3)], &[(1, 1), (1, 3)]),
        p(&[(1, 3)], &[(1, 2), (-1, 0)], &[(1, 0), (1, 2)]),
        p(&[(1, 0), (1, 1)], &[(1, 3)], &[(-1, 0), (1, 1)]),
        p(&[(1, 2), (-1, 0)], &[(1, 0), (1, 1)], &[(1, 3)]),
        p(&[(1, 1), (-1, 3)], &[(1, 2), (1, 3)], &[(1, 0)]),
    ]
}

fn same_bits(x: &Matrix<f64>, y: &Matrix<f64>) -> bool {
    x.as_slice().iter().zip(y.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Pool tasks a nest split `ways` ways runs over a `k x n` operand `B`
/// under `cfg`: `ways` per scope, two scopes per `(jc, pc)` step, and
/// none when it runs inline. The shapes below have at least `ways` `NR`
/// panels and `4·MR·ways` rows, so every scope fills all its ways.
fn nest_tasks(cfg: &GemmConfig, ways: u64, k: usize, n: usize) -> u64 {
    let steps = n.div_ceil(cfg.nc.min(n)) * k.div_ceil(cfg.kc.min(k));
    if ways == 1 {
        0
    } else {
        ways * 2 * steps as u64
    }
}

#[test]
fn top_level_nests_count_the_helping_caller() {
    pool::set_num_threads(1).expect("the pool must run one worker");
    assert!(!pool::in_task());
    // One way per worker plus one for the caller when a CPU is left.
    let top_ways = if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 { 2 } else { 1 };
    let serial = GemmConfig::blocked();
    let parallel = GemmConfig { algo: GemmAlgo::BlockedParallel, ..serial };

    // Plain GEMM: n = 300 is 50 NR-wide column quanta, enough for both.
    let (m, k, n) = (256, 192, 300);
    let a = random::uniform::<f64>(m, k, 1);
    let b = random::uniform::<f64>(k, n, 2);
    let c0 = random::uniform::<f64>(m, n, 3);
    let mut want = c0.clone();
    gemm_blocked(&serial, 0.8, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), -0.5, want.as_mut());
    let mut top = c0.clone();
    let top_tasks = tasks_run(|| {
        gemm_parallel(&parallel, 0.8, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), -0.5, top.as_mut())
    });
    assert_eq!(
        top_tasks,
        nest_tasks(&serial, top_ways, k, n),
        "top-level gemm_parallel: one way per worker plus the caller"
    );
    assert!(same_bits(&top, &want), "top-level gemm_parallel differs from serial");
    let mut nested = c0.clone();
    let tasks = tasks_run(|| {
        pool::scope(|s| {
            s.spawn(|| {
                assert!(pool::in_task());
                gemm_parallel(
                    &parallel,
                    0.8,
                    Op::NoTrans,
                    a.as_ref(),
                    Op::NoTrans,
                    b.as_ref(),
                    -0.5,
                    nested.as_mut(),
                )
            })
        })
    });
    assert_eq!(tasks, 1, "inside a task gemm_parallel runs inline, with no task of its own");
    assert!(same_bits(&nested, &want), "nested gemm_parallel differs from serial");

    // One fused Strassen level over 2x2 blocks of 128³.
    let table = strassen_table();
    let (m, k, n) = (256, 256, 256);
    let a = random::uniform::<f64>(m, k, 4);
    let b = random::uniform::<f64>(k, n, 5);
    let c0 = random::uniform::<f64>(m, n, 6);
    let mut want = c0.clone();
    gemm_fused_level(&serial, 1.1, a.as_ref(), b.as_ref(), 0.3, want.as_mut(), &table, 2);
    let mut top = c0.clone();
    let top_tasks =
        tasks_run(|| gemm_fused_level(&parallel, 1.1, a.as_ref(), b.as_ref(), 0.3, top.as_mut(), &table, 2));
    assert_eq!(
        top_tasks,
        nest_tasks(&serial, top_ways, k / 2, n / 2),
        "top-level fused level: one way per worker plus the caller"
    );
    assert!(same_bits(&top, &want), "top-level fused level differs from serial");
    let mut nested = c0.clone();
    let tasks = tasks_run(|| {
        pool::scope(|s| {
            s.spawn(|| {
                gemm_fused_level(&parallel, 1.1, a.as_ref(), b.as_ref(), 0.3, nested.as_mut(), &table, 2)
            })
        })
    });
    assert_eq!(tasks, 1, "inside a task the fused level runs inline, with no task of its own");
    assert!(same_bits(&nested, &want), "nested fused level differs from serial");
}
