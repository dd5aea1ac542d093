//! Where a served request's matrices are allocated and freed.
//!
//! The submitting thread allocates each request's output and the thread
//! that collects the result frees the spent operands, so the server's
//! own threads (the `strassen-serve` dispatcher and the `strassen-pool-*`
//! workers) only compute. A counting global allocator wraps `System` and
//! tallies, per thread class, every allocation and free at least one
//! operand's size. After a warm-up, serving `REQUESTS` products of one
//! shape must cost the server's threads no such call, and the client
//! exactly its own: two operands and one output allocated per request,
//! and the same three freed.
//!
//! One test per binary: the tallies are process-wide.

use blas::Op;
use matrix::{random, Matrix};
use serve::{Request, Server, ServerConfig, Ticket};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use strassen::dgefmm;

/// Every operand and output is `ORDER × ORDER`.
const ORDER: usize = 48;
/// Bytes of one operand: the smallest allocation the tallies count.
const OPERAND_BYTES: usize = ORDER * ORDER * std::mem::size_of::<f64>();
const REQUESTS: usize = 512;
/// Tickets outstanding at once, as a closed-loop client keeps them.
const WINDOW: usize = 32;

struct Tally {
    allocs: AtomicU64,
    frees: AtomicU64,
}

impl Tally {
    const fn new() -> Tally {
        Tally { allocs: AtomicU64::new(0), frees: AtomicU64::new(0) }
    }

    fn read(&self) -> (u64, u64) {
        (self.allocs.load(Ordering::SeqCst), self.frees.load(Ordering::SeqCst))
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Threads named `strassen-*`: the dispatcher and the pool workers.
static SERVER: Tally = Tally::new();
/// The thread that submits and collects.
static CLIENT: Tally = Tally::new();
/// Any other thread.
static OTHER: Tally = Tally::new();

thread_local! {
    static IS_CLIENT: Cell<bool> = const { Cell::new(false) };
    /// Set while this thread classifies itself, so an allocation made by
    /// the name lookup is not counted (and cannot recurse).
    static CLASSIFYING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize, pick: fn(&Tally) -> &AtomicU64) {
    if bytes < OPERAND_BYTES || !COUNTING.load(Ordering::SeqCst) {
        return;
    }
    let tally = if IS_CLIENT.with(Cell::get) {
        &CLIENT
    } else if CLASSIFYING.with(|c| c.replace(true)) {
        return;
    } else {
        let server = std::thread::current().name().is_some_and(|n| n.starts_with("strassen-"));
        CLASSIFYING.with(|c| c.set(false));
        if server {
            &SERVER
        } else {
            &OTHER
        }
    };
    pick(tally).fetch_add(1, Ordering::SeqCst);
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the tallies only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), |t| &t.allocs);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), |t| &t.allocs);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(layout.size(), |t| &t.frees);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout.size(), |t| &t.frees);
        count(new_size, |t| &t.allocs);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn request_buffers_live_on_the_client_thread() {
    let _ = pool::pin_once(2);
    IS_CLIENT.with(|c| c.set(true));
    let server = Server::start(ServerConfig::default());
    let operands: Vec<(Matrix<f64>, Matrix<f64>)> = (0..4)
        .map(|i| {
            (random::uniform::<f64>(ORDER, ORDER, 2 * i + 1), random::uniform::<f64>(ORDER, ORDER, 2 * i + 2))
        })
        .collect();
    let replays: Vec<Matrix<f64>> = operands
        .iter()
        .map(|(a, b)| {
            let mut c = Matrix::zeros(ORDER, ORDER);
            let cfg = server.config_for(ORDER, ORDER, ORDER);
            dgefmm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
            c
        })
        .collect();
    let submit = |i: usize| -> Ticket {
        let (a, b) = &operands[i % operands.len()];
        server.submit_blocking(Request::new(a.clone(), b.clone())).expect("admitted")
    };
    let collect = |i: usize, ticket: Ticket| {
        let done = ticket.wait();
        assert!(done.c == replays[i % replays.len()], "request {i}: result differs from its inline replay");
    };

    // Warm-up, uncounted: the first cycle makes the server's one-time
    // entries (bucket label, per-thread stats) and the pool's buffers.
    let mut window: VecDeque<(usize, Ticket)> = VecDeque::with_capacity(WINDOW);
    for i in 0..4 * WINDOW {
        window.push_back((i, submit(i)));
    }
    for (i, ticket) in window.drain(..) {
        collect(i, ticket);
    }

    COUNTING.store(true, Ordering::SeqCst);
    for i in 0..REQUESTS {
        if window.len() == WINDOW {
            let (j, ticket) = window.pop_front().expect("window is full");
            collect(j, ticket);
        }
        window.push_back((i, submit(i)));
    }
    for (i, ticket) in window.drain(..) {
        collect(i, ticket);
    }
    COUNTING.store(false, Ordering::SeqCst);

    let stats = server.shutdown();
    let (server_allocs, server_frees) = SERVER.read();
    let (client_allocs, client_frees) = CLIENT.read();
    let (other_allocs, other_frees) = OTHER.read();
    let counts = format!(
        "allocations/frees of ≥ {OPERAND_BYTES} bytes over {REQUESTS} requests: server threads \
         {server_allocs}/{server_frees}, client {client_allocs}/{client_frees}, other {other_allocs}/{other_frees}"
    );
    assert_eq!(stats.completed as usize, 4 * WINDOW + REQUESTS, "{counts}");
    assert_eq!(
        (server_allocs, server_frees),
        (0, 0),
        "the server's threads touched a request buffer: {counts}"
    );
    let per_client = 3 * REQUESTS as u64;
    assert_eq!((client_allocs, client_frees), (per_client, per_client), "{counts}");
}
