//! Determinism under contention: the serving layer must add **zero**
//! numeric surface on top of `dgefmm`.
//!
//! The PR-5/PR-7 pins established that `dgefmm` itself is bitwise
//! deterministic — serial ≡ parallel at every `parallel_depth` and
//! in-flight width, run to run. This suite extends the pin through
//! `serve`: every request runs the same plan, and batches share no
//! mutable floating-point state, so per-request results must be bitwise
//! identical
//!
//! - to an **inline replay** of the same plan on the calling thread
//!   (the worker-count anchor: the inline result is worker-count
//!   independent by the PR-7 pin, and `scripts/verify.sh` re-runs this
//!   binary under `STRASSEN_THREADS ∈ {1, 4}`, so "1 worker vs N
//!   workers" is literally executed);
//! - across **batch compositions** (burst vs trickle, wide vs
//!   single-file caps — batching decides *when*, never *what*);
//! - **run to run** at a fixed seed.

use accuracy::draw_shape;
use matrix::{random, Matrix};
use serve::{Request, Server, ServerConfig};
use strassen::dgefmm;
use testkit::Gen;

const STREAM_SEED: u64 = 0xD1CE_5EED;
const STREAM_LEN: usize = 48;

fn pinned_workers() -> usize {
    // Same convention as `tests/parallel_smoke.rs`: the env matrix wins,
    // otherwise 4 so work-stealing is real even on one core. `pin_once`
    // already encodes exactly that resolution order.
    pool::pin_once(4)
}

/// The deterministic mixed-shape request stream: shapes from the
/// fuzzer's sampler, operand data from per-request seeds.
fn stream() -> Vec<Request> {
    let mut g = Gen::new(STREAM_SEED, 1.0);
    (0..STREAM_LEN)
        .map(|_| {
            let (m, k, n) = draw_shape(&mut g);
            let (sa, sb) = (g.seed(), g.seed());
            Request::new(random::uniform::<f64>(m, k, sa), random::uniform::<f64>(k, n, sb))
        })
        .collect()
}

/// Serve the whole stream and return per-request results in submit
/// order.
fn serve_stream(server: &Server, burst: bool) -> Vec<Matrix<f64>> {
    if burst {
        // Everything queued before the first dispatch cycle can form:
        // maximal coalescing.
        server.pause();
    }
    let tickets: Vec<_> =
        stream().into_iter().map(|r| server.submit_blocking(r).expect("admitted")).collect();
    if burst {
        server.resume();
    }
    tickets.into_iter().map(|t| t.wait().c).collect()
}

fn assert_bitwise_eq(kind: &str, got: &[Matrix<f64>], want: &[Matrix<f64>]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.as_slice().iter().map(|v| v.to_bits()).eq(w.as_slice().iter().map(|v| v.to_bits())),
            "{kind}: request {i} differs bitwise (max {} ulps)",
            testkit::max_ulp_diff_mat(g.as_ref(), w.as_ref())
        );
    }
}

/// Inline serial replay of the stream under `server`'s own plans — the
/// reference every served result must match bit for bit.
fn inline_replay(server: &Server) -> Vec<Matrix<f64>> {
    stream()
        .into_iter()
        .map(|r| {
            let (m, k, n) = r.dims().expect("stream shapes are valid");
            let cfg = server.config_for(m, k, n);
            let mut c = Matrix::<f64>::zeros(m, n);
            dgefmm(&cfg, r.alpha, r.op_a, r.a.as_ref(), r.op_b, r.b.as_ref(), 0.0, c.as_mut());
            c
        })
        .collect()
}

#[test]
fn served_results_equal_inline_replay_bitwise() {
    let _ = pinned_workers();
    let server = Server::start(ServerConfig::default());
    let want = inline_replay(&server);
    let got = serve_stream(&server, true);
    assert_bitwise_eq("server vs inline", &got, &want);
    let stats = server.shutdown();
    assert_eq!(stats.completed as usize, STREAM_LEN);
    assert_eq!(stats.fifo_violations, 0);
}

#[test]
fn batch_composition_never_changes_results() {
    let _ = pinned_workers();
    // Four servers spanning the batching-policy space: wide coalesced
    // bursts, single-file dispatch (cycle of 1, cap 1, width 1),
    // trickle submission, and a tiny queue that forces backpressure.
    let reference = {
        let server = Server::start(ServerConfig::default());
        let out = serve_stream(&server, true);
        server.shutdown();
        out
    };
    let policies = [
        (
            "single-file",
            ServerConfig {
                max_batch: 1,
                bucket_in_flight_cap: 1,
                global_width: 1,
                ..ServerConfig::default()
            },
            true,
        ),
        ("trickle", ServerConfig::default(), false),
        ("tiny-queue", ServerConfig { queue_capacity: 2, ..ServerConfig::default() }, false),
    ];
    for (name, cfg, burst) in policies {
        let server = Server::start(cfg);
        let got = serve_stream(&server, burst);
        assert_bitwise_eq(name, &got, &reference);
        server.shutdown();
    }
}

#[test]
fn runs_are_bitwise_identical_at_a_fixed_seed() {
    let _ = pinned_workers();
    let first = {
        let server = Server::start(ServerConfig::default());
        let out = serve_stream(&server, true);
        server.shutdown();
        out
    };
    let server = Server::start(ServerConfig::default());
    let again = serve_stream(&server, true);
    assert_bitwise_eq("run-to-run", &again, &first);
    server.shutdown();
}
