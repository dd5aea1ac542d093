//! The serving engine: bounded admission queue, shape-bucketing batch
//! dispatcher, and completion tickets.
//!
//! One [`Server`] owns a dispatcher thread. Clients [`Server::submit`]
//! requests (non-blocking, load-shedding) or [`Server::submit_blocking`]
//! (backpressure: wait for queue space) and receive a [`Ticket`] they
//! can [`Ticket::wait`] on. The dispatcher drains the queue in cycles:
//! each cycle groups pending requests by [`BucketKey`] (per-bucket FIFO,
//! at most `max_batch` per bucket per cycle) and executes the whole
//! cycle as **one task DAG** on the global worker pool —
//!
//! - every request is a DAG node hinted at its bucket's worker (stable
//!   affinity keeps a worker's thread-local pack buffers and workspace
//!   arena warm for the shapes it served last cycle);
//! - per-bucket in-flight caps are dependency edges: node *j* of a
//!   bucket depends on node *j − cap*, the same chaining
//!   [`pool::dag::DagBuilder`] caps express everywhere else;
//! - a global width cap rides [`pool::dag::DagBuilder::run`] directly.
//!
//! Determinism: every request runs the library's tuned DGEFMM
//! configuration ([`StrassenConfig::dgefmm`]), every node computes into
//! its own output matrix with `β = 0`, and nodes share no mutable
//! floating-point state — so per-request results are bitwise identical
//! at any worker count, batch composition, or cap setting. The batcher
//! affects *when* a request runs, never *what* it computes.
//!
//! Buffers stay on the client's thread: the submitting thread allocates
//! the output before it takes the queue lock, and the thread that
//! collects the result frees the spent operands. The dispatcher and the
//! pool threads only compute: unless a ticket is dropped unwaited, no
//! request matrix is allocated on one thread and freed on another.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use blas::Op;
use matrix::Matrix;
use pool::dag::DagBuilder;
use strassen::{dgefmm, tls_arena_capacity_elements, StrassenConfig};

use crate::bucket::BucketKey;

/// One matrix product to serve: `C ← α · op(A) · op(B)` into a `C` the
/// submitting thread allocates (`β = 0` — the serving layer owns the
/// output, so there is no prior `C` to update).
#[derive(Clone, Debug)]
pub struct Request {
    /// Product scale.
    pub alpha: f64,
    /// Transpose flag for `A`.
    pub op_a: Op,
    /// Left operand (stored shape; `op_a` applies on top).
    pub a: Matrix<f64>,
    /// Transpose flag for `B`.
    pub op_b: Op,
    /// Right operand.
    pub b: Matrix<f64>,
}

impl Request {
    /// Plain `C ← A · B`.
    pub fn new(a: Matrix<f64>, b: Matrix<f64>) -> Request {
        Request { alpha: 1.0, op_a: Op::NoTrans, a, op_b: Op::NoTrans, b }
    }

    /// Product dimensions `(m, k, n)` after transposition. `None` when
    /// the inner dimensions disagree or any dimension is zero — the
    /// admission check, applied before anything is queued.
    pub fn dims(&self) -> Option<(usize, usize, usize)> {
        let (m, ka) = self.op_a.dims(&self.a.as_ref());
        let (kb, n) = self.op_b.dims(&self.b.as_ref());
        if ka != kb || m == 0 || ka == 0 || n == 0 {
            None
        } else {
            Some((m, ka, n))
        }
    }
}

/// Why a request was not admitted. The request itself rides back in
/// [`Rejected`] so the caller can retry or redirect it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is at capacity (load shedding). Retry later or
    /// use [`Server::submit_blocking`] to wait for space.
    QueueFull,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// Degenerate shape: zero dimension or inner-dimension mismatch.
    BadRequest,
}

/// A rejected submission: the typed reason plus the untouched request.
#[derive(Debug)]
pub struct Rejected {
    /// Why admission refused it.
    pub reason: RejectReason,
    /// The request, returned to the caller.
    pub request: Request,
}

/// A served product and its latency breakdown.
#[derive(Clone, Debug)]
pub struct Completed {
    /// The result `C = α · op(A) · op(B)`.
    pub c: Matrix<f64>,
    /// Bucket the request was coalesced under.
    pub bucket: BucketKey,
    /// Dispatch cycles the request sat out before being batched (0 =
    /// batched in the first cycle that saw it).
    pub wait_cycles: u64,
    /// Nanoseconds from submit to execution start (queue, batching, and
    /// DAG scheduling until a thread picked the node up).
    pub queue_ns: u64,
    /// Nanoseconds inside `dgefmm` alone: the output was allocated at
    /// admission and the operands are freed by the collecting client, so
    /// no allocator work is timed here.
    pub exec_ns: u64,
    /// End-to-end nanoseconds from submit to completion.
    pub latency_ns: u64,
    /// How many requests shared this request's bucket batch.
    pub batch: usize,
    /// Global completion sequence number (1-based, taken under the
    /// stats lock as the request finishes). Because a bucket's chained
    /// cap edges make node *j* start only after node *j − cap* has
    /// fully completed, a bucket's sequence numbers satisfy
    /// `seq[j] > seq[j − cap]` in submit order — the observable the
    /// admission-control fairness tests assert on.
    pub serve_seq: u64,
}

#[derive(Debug)]
struct TicketShared {
    slot: Mutex<Slot>,
    done: Condvar,
}

/// A ticket's completion slot. `waiting` is set under the mutex by a
/// [`Ticket::wait`] about to park, so the completing worker notifies only
/// when someone is parked: a waiter either sees the result before it
/// parks or has set the flag before the worker takes the lock. `spent`
/// holds the served request, so its operands are freed by the thread
/// that collects the result, not by the one that computed it.
#[derive(Debug, Default)]
struct Slot {
    result: Option<Completed>,
    spent: Option<Request>,
    waiting: bool,
}

impl Slot {
    /// Take the result out of the locked slot, release the lock, then
    /// drop the spent request: its operands are freed on the calling
    /// thread, outside the lock.
    fn collect(mut slot: MutexGuard<'_, Slot>) -> Option<Completed> {
        let done = slot.result.take();
        let spent = slot.spent.take();
        drop(slot);
        drop(spent);
        done
    }
}

impl TicketShared {
    /// Store the result beside the spent request and wake the waiter if
    /// it parked.
    fn fulfil(&self, done: Completed, spent: Request) {
        let mut slot = self.slot.lock().unwrap();
        slot.result = Some(done);
        slot.spent = Some(spent);
        let parked = slot.waiting;
        drop(slot);
        if parked {
            self.done.notify_all();
        }
    }
}

/// Handle to one in-flight request. Blocks on [`Ticket::wait`]; the
/// server's shutdown drains the queue, so every admitted ticket
/// completes.
#[derive(Debug)]
pub struct Ticket {
    shared: Arc<TicketShared>,
}

impl Ticket {
    /// Block until the request has been served.
    pub fn wait(self) -> Completed {
        let mut slot = self.shared.slot.lock().unwrap();
        while slot.result.is_none() {
            slot.waiting = true;
            slot = self.shared.done.wait(slot).unwrap();
        }
        Slot::collect(slot).expect("result checked under the lock")
    }

    /// The result if already served (non-blocking).
    pub fn try_take(&self) -> Option<Completed> {
        Slot::collect(self.shared.slot.lock().unwrap())
    }
}

/// Server tunables. [`ServerConfig::default`] is the serving posture the
/// soak test runs: a 256-deep queue, batches of up to 32 per bucket, 4
/// in flight per bucket, unbounded global width.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bounded queue depth. `0` is a degenerate-but-legal config that
    /// rejects every submission with
    /// [`RejectReason::QueueFull`] — including blocking ones, which
    /// would otherwise wait forever.
    pub queue_capacity: usize,
    /// Most requests one bucket contributes to one dispatch cycle
    /// (clamped to ≥ 1). The remainder stays queued, FIFO, for the next
    /// cycle.
    pub max_batch: usize,
    /// Per-bucket in-flight cap inside a cycle's DAG, expressed as
    /// chained dependency edges (clamped to ≥ 1).
    pub bucket_in_flight_cap: usize,
    /// Global in-flight cap for the cycle DAG (`usize::MAX` =
    /// unbounded), passed straight to [`pool::dag::DagBuilder::run`].
    pub global_width: usize,
    /// Start with dispatch paused: requests queue (and shed) but nothing
    /// executes until [`Server::resume`] — how the admission tests make
    /// queue-full deterministic.
    pub start_paused: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            queue_capacity: 256,
            max_batch: 32,
            bucket_in_flight_cap: 4,
            global_width: usize::MAX,
            start_paused: false,
        }
    }
}

/// Cumulative server counters, snapshotted by [`Server::stats`] and
/// returned finally by [`Server::shutdown`].
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Submissions shed with [`RejectReason::QueueFull`].
    pub rejected_full: u64,
    /// Submissions refused with [`RejectReason::ShuttingDown`].
    pub rejected_shutdown: u64,
    /// Dispatch cycles that executed at least one request.
    pub batches: u64,
    /// Largest single-cycle request count.
    pub max_cycle_size: usize,
    /// Largest per-bucket batch within any cycle.
    pub max_bucket_batch: usize,
    /// Worst starvation any request saw, in dispatch cycles sat out.
    pub max_wait_cycles: u64,
    /// Per-bucket FIFO-order violations observed at batch formation
    /// (defensive invariant counter — always 0; the admission fairness
    /// test pins that).
    pub fifo_violations: u64,
    /// Completed requests per bucket.
    pub per_bucket: BTreeMap<String, u64>,
    /// Workspace-arena capacity high-water per executing thread
    /// (elements of `f64`), keyed by thread name. Flat across snapshots
    /// after warm-up = zero steady-state allocation — the soak gate.
    pub arena_high_water: BTreeMap<String, usize>,
    /// Useful flops served (`Σ 2·m·k·n`).
    pub flops: f64,
    /// Total nanoseconds inside `dgefmm` across all requests.
    pub exec_ns: u64,
}

struct PendingReq {
    req: Request,
    /// The `m × n` output, allocated by the submitting thread.
    c: Matrix<f64>,
    dims: (usize, usize, usize),
    bucket: BucketKey,
    /// Per-bucket admission sequence number (FIFO evidence).
    seq: u64,
    submitted: Instant,
    wait_cycles: u64,
    ticket: Arc<TicketShared>,
}

struct QueueState {
    queue: VecDeque<PendingReq>,
    paused: bool,
    shutting_down: bool,
    /// The dispatcher is parked on `dispatch_cv` (set and cleared by the
    /// dispatcher under this lock), so admission notifies only then.
    dispatcher_parked: bool,
    /// Next per-bucket admission sequence numbers.
    next_seq: BTreeMap<BucketKey, u64>,
}

struct Inner {
    cfg: ServerConfig,
    state: Mutex<QueueState>,
    /// Wakes the dispatcher (new work, resume, shutdown).
    dispatch_cv: Condvar,
    /// Wakes blocked submitters (queue space freed).
    space_cv: Condvar,
    stats: Mutex<ServerStats>,
}

/// The serving engine. See the [module docs](self) for the dispatch
/// model and determinism contract.
pub struct Server {
    inner: Arc<Inner>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Start a server with `cfg` and its dispatcher thread.
    pub fn start(cfg: ServerConfig) -> Server {
        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                paused: false,
                shutting_down: false,
                dispatcher_parked: false,
                next_seq: BTreeMap::new(),
            }),
            dispatch_cv: Condvar::new(),
            space_cv: Condvar::new(),
            stats: Mutex::new(ServerStats::default()),
        });
        inner.state.lock().unwrap().paused = inner.cfg.start_paused;
        let dispatcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("strassen-serve".into())
                .spawn(move || dispatcher_loop(&inner))
                .expect("spawning serve dispatcher")
        };
        Server { inner, dispatcher: Some(dispatcher) }
    }

    /// The DGEFMM configuration requests of shape `(m, k, n)` run under;
    /// what the determinism test replays inline. Every shape runs the
    /// library's tuned plan, [`StrassenConfig::dgefmm`].
    pub fn config_for(&self, _m: usize, _k: usize, _n: usize) -> StrassenConfig {
        StrassenConfig::dgefmm()
    }

    /// Non-blocking admission: queue the request or shed it with a typed
    /// reason ([`RejectReason::QueueFull`] when the bounded queue is at
    /// capacity).
    pub fn submit(&self, req: Request) -> Result<Ticket, Rejected> {
        let Some(dims) = req.dims() else {
            return Err(Rejected { reason: RejectReason::BadRequest, request: req });
        };
        let c = Matrix::zeros(dims.0, dims.2);
        let mut state = self.inner.state.lock().unwrap();
        if state.shutting_down {
            self.inner.stats.lock().unwrap().rejected_shutdown += 1;
            return Err(Rejected { reason: RejectReason::ShuttingDown, request: req });
        }
        if state.queue.len() >= self.inner.cfg.queue_capacity {
            self.inner.stats.lock().unwrap().rejected_full += 1;
            return Err(Rejected { reason: RejectReason::QueueFull, request: req });
        }
        Ok(self.admit(&mut state, req, c, dims))
    }

    /// Blocking admission (backpressure): wait for queue space instead
    /// of shedding. Still rejects degenerate shapes immediately, rejects
    /// everything once shutdown begins, and rejects on a zero-capacity
    /// queue (which never has space to wait for).
    pub fn submit_blocking(&self, req: Request) -> Result<Ticket, Rejected> {
        let Some(dims) = req.dims() else {
            return Err(Rejected { reason: RejectReason::BadRequest, request: req });
        };
        if self.inner.cfg.queue_capacity == 0 {
            self.inner.stats.lock().unwrap().rejected_full += 1;
            return Err(Rejected { reason: RejectReason::QueueFull, request: req });
        }
        let c = Matrix::zeros(dims.0, dims.2);
        let mut state = self.inner.state.lock().unwrap();
        loop {
            if state.shutting_down {
                self.inner.stats.lock().unwrap().rejected_shutdown += 1;
                return Err(Rejected { reason: RejectReason::ShuttingDown, request: req });
            }
            if state.queue.len() < self.inner.cfg.queue_capacity {
                return Ok(self.admit(&mut state, req, c, dims));
            }
            state = self.inner.space_cv.wait(state).unwrap();
        }
    }

    /// Queue `req` with its output `c`, which the caller allocated before
    /// taking the queue lock.
    fn admit(
        &self,
        state: &mut QueueState,
        req: Request,
        c: Matrix<f64>,
        dims: (usize, usize, usize),
    ) -> Ticket {
        let (m, k, n) = dims;
        let bucket = BucketKey::classify(m, k, n);
        let seq_slot = state.next_seq.entry(bucket).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        let shared = Arc::new(TicketShared { slot: Mutex::new(Slot::default()), done: Condvar::new() });
        state.queue.push_back(PendingReq {
            req,
            c,
            dims,
            bucket,
            seq,
            submitted: Instant::now(),
            wait_cycles: 0,
            ticket: Arc::clone(&shared),
        });
        self.inner.stats.lock().unwrap().submitted += 1;
        if state.dispatcher_parked {
            self.inner.dispatch_cv.notify_all();
        }
        Ticket { shared }
    }

    /// Pause dispatch: requests keep queueing (and shedding at capacity)
    /// but nothing executes until [`Server::resume`]. Shutdown overrides
    /// a pause — the drain always runs.
    pub fn pause(&self) {
        self.inner.state.lock().unwrap().paused = true;
    }

    /// Resume dispatch after [`Server::pause`].
    pub fn resume(&self) {
        let mut state = self.inner.state.lock().unwrap();
        state.paused = false;
        self.inner.dispatch_cv.notify_all();
    }

    /// Queued-but-not-yet-dispatched request count.
    pub fn queue_len(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }

    /// Snapshot the cumulative counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats.lock().unwrap().clone()
    }

    /// Stop admitting, drain every queued request (pause
    /// notwithstanding), join the dispatcher, and return the final
    /// counters. Every ticket issued before shutdown completes.
    pub fn shutdown(mut self) -> ServerStats {
        self.begin_shutdown();
        if let Some(handle) = self.dispatcher.take() {
            handle.join().expect("serve dispatcher panicked");
        }
        self.inner.stats.lock().unwrap().clone()
    }

    fn begin_shutdown(&self) {
        let mut state = self.inner.state.lock().unwrap();
        state.shutting_down = true;
        self.inner.dispatch_cv.notify_all();
        self.inner.space_cv.notify_all();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Explicit `shutdown` already joined; otherwise drain now so
        // dropped servers never strand tickets.
        if let Some(handle) = self.dispatcher.take() {
            self.begin_shutdown();
            handle.join().expect("serve dispatcher panicked");
        }
    }
}

/// One formed dispatch cycle: per-bucket FIFO batches.
struct Cycle {
    batches: BTreeMap<BucketKey, Vec<PendingReq>>,
    total: usize,
}

fn dispatcher_loop(inner: &Inner) {
    // Per-bucket last-dispatched sequence numbers, for the FIFO
    // invariant counter.
    let mut last_dispatched: BTreeMap<BucketKey, u64> = BTreeMap::new();
    loop {
        let cycle = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if state.shutting_down {
                    if state.queue.is_empty() {
                        return; // drained: graceful exit
                    }
                    break; // drain even while paused
                }
                if !state.paused && !state.queue.is_empty() {
                    break;
                }
                state.dispatcher_parked = true;
                state = inner.dispatch_cv.wait(state).unwrap();
                state.dispatcher_parked = false;
            }
            form_cycle(&mut state, inner.cfg.max_batch.max(1))
        };
        // Queue space was freed at formation time; wake blocked
        // submitters now that the lock is released.
        inner.space_cv.notify_all();
        record_formation(inner, &cycle, &mut last_dispatched);
        execute_cycle(inner, cycle);
    }
}

/// Take up to `max_batch` requests per bucket off the queue front,
/// preserving per-bucket FIFO order; everything else stays queued (with
/// its wait-cycle counter bumped) for the next cycle. The queue rotates
/// once in place, so its buffer, which admission grows on the clients'
/// threads, is never reallocated or freed here.
fn form_cycle(state: &mut QueueState, max_batch: usize) -> Cycle {
    let mut batches: BTreeMap<BucketKey, Vec<PendingReq>> = BTreeMap::new();
    let mut total = 0;
    for _ in 0..state.queue.len() {
        let mut pending = state.queue.pop_front().expect("counted above");
        let batch = batches.entry(pending.bucket).or_default();
        if batch.len() < max_batch {
            batch.push(pending);
            total += 1;
        } else {
            pending.wait_cycles += 1;
            state.queue.push_back(pending);
        }
    }
    Cycle { batches, total }
}

fn record_formation(inner: &Inner, cycle: &Cycle, last_dispatched: &mut BTreeMap<BucketKey, u64>) {
    let mut stats = inner.stats.lock().unwrap();
    if cycle.total > 0 {
        stats.batches += 1;
        stats.max_cycle_size = stats.max_cycle_size.max(cycle.total);
    }
    for (key, batch) in &cycle.batches {
        stats.max_bucket_batch = stats.max_bucket_batch.max(batch.len());
        let mut last = last_dispatched.get(key).map(|&s| s as i128).unwrap_or(-1);
        for pending in batch {
            stats.max_wait_cycles = stats.max_wait_cycles.max(pending.wait_cycles);
            if (pending.seq as i128) <= last {
                stats.fifo_violations += 1;
            }
            last = pending.seq as i128;
        }
        if last >= 0 {
            last_dispatched.insert(*key, last as u64);
        }
    }
}

/// Execute one cycle as a single task DAG on the global pool.
fn execute_cycle(inner: &Inner, cycle: Cycle) {
    if cycle.total == 0 {
        return;
    }
    let cap = inner.cfg.bucket_in_flight_cap.max(1);
    let cfg = StrassenConfig::dgefmm();
    // Bucket labels are formatted once per cycle, outside the stats lock.
    let labels: Vec<String> = cycle.batches.keys().map(BucketKey::label).collect();
    let mut dag = DagBuilder::new();
    for ((ordinal, batch), label) in cycle.batches.into_values().enumerate().zip(&labels) {
        let batch_size = batch.len();
        let mut node_ids: Vec<usize> = Vec::with_capacity(batch_size);
        for (j, pending) in batch.into_iter().enumerate() {
            // Per-bucket in-flight cap as chained edges: node j waits
            // for node j − cap, so at most `cap` of this bucket's
            // requests are in flight at once.
            let dep = j.checked_sub(cap).map(|i| node_ids[i]);
            let id = dag.node(Some(ordinal), dep.as_slice(), move || {
                serve_one(inner, &cfg, pending, batch_size, label);
            });
            node_ids.push(id);
        }
    }
    dag.run(inner.cfg.global_width);
}

/// Run one request's product into the output its submitter allocated
/// and fulfill its ticket, which also takes the spent request, so this
/// thread neither allocates nor frees a request matrix. `label` is the
/// bucket's [`BucketKey::label`]; the stats update allocates only the
/// first time a bucket or thread appears.
fn serve_one(inner: &Inner, cfg: &StrassenConfig, pending: PendingReq, batch: usize, label: &str) {
    let PendingReq { req, mut c, dims: (m, k, n), bucket, submitted, wait_cycles, ticket, .. } = pending;
    let queue_ns = submitted.elapsed().as_nanos() as u64;
    let exec_start = Instant::now();
    dgefmm(cfg, req.alpha, req.op_a, req.a.as_ref(), req.op_b, req.b.as_ref(), 0.0, c.as_mut());
    let exec_ns = exec_start.elapsed().as_nanos() as u64;
    let latency_ns = submitted.elapsed().as_nanos() as u64;
    let serve_seq;
    {
        let mut stats = inner.stats.lock().unwrap();
        stats.completed += 1;
        serve_seq = stats.completed;
        match stats.per_bucket.get_mut(label) {
            Some(count) => *count += 1,
            None => {
                stats.per_bucket.insert(label.to_owned(), 1);
            }
        }
        stats.flops += 2.0 * m as f64 * k as f64 * n as f64;
        stats.exec_ns += exec_ns;
        let thread = std::thread::current();
        let name = thread.name().unwrap_or("unnamed");
        let arena = tls_arena_capacity_elements::<f64>();
        match stats.arena_high_water.get_mut(name) {
            Some(high) => *high = (*high).max(arena),
            None => {
                stats.arena_high_water.insert(name.to_owned(), arena);
            }
        }
    }
    ticket.fulfil(Completed { c, bucket, wait_cycles, queue_ns, exec_ns, latency_ns, batch, serve_seq }, req);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::ShapeClass;
    use matrix::random;

    fn small_server(cfg: ServerConfig) -> Server {
        pool::pin_once(2);
        Server::start(cfg)
    }

    fn req(m: usize, k: usize, n: usize, seed: u64) -> Request {
        Request::new(random::uniform::<f64>(m, k, seed), random::uniform::<f64>(k, n, seed + 1))
    }

    #[test]
    fn serves_a_mixed_burst_correctly() {
        let server = small_server(ServerConfig::default());
        let shapes = [(16, 16, 16), (17, 9, 33), (64, 8, 64), (40, 40, 40)];
        let tickets: Vec<(Ticket, Request)> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(m, k, n))| {
                let r = req(m, k, n, 100 + i as u64);
                (server.submit(r.clone()).expect("admitted"), r)
            })
            .collect();
        for (ticket, r) in tickets {
            let done = ticket.wait();
            let (m, k, n) = r.dims().unwrap();
            assert_eq!((done.c.nrows(), done.c.ncols()), (m, n));
            // Inline replay with the server's own plan must be bitwise
            // identical — the serving layer adds no numeric surface.
            let mut expect = Matrix::<f64>::zeros(m, n);
            let cfg = server.config_for(m, k, n);
            dgefmm(&cfg, r.alpha, r.op_a, r.a.as_ref(), r.op_b, r.b.as_ref(), 0.0, expect.as_mut());
            assert_eq!(done.c, expect, "{}", done.bucket);
            assert!(done.latency_ns >= done.exec_ns);
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.fifo_violations, 0);
    }

    #[test]
    fn every_bucket_is_served_with_the_library_plan() {
        // One shape per class in each power-of-two bin from 8 to 128.
        // StrassenConfig has no PartialEq, so the Debug forms (cutoff,
        // scheme, family, parallel_depth, fused, gemm, ...) are compared.
        let server = small_server(ServerConfig { start_paused: true, ..ServerConfig::default() });
        let want = format!("{:?}", StrassenConfig::dgefmm());
        for bin in [8, 16, 32, 64, 128] {
            for (class, (m, k, n)) in [
                (ShapeClass::Square, (bin, bin - 2, bin)),
                (ShapeClass::Skinny, (bin, bin / 4, bin)),
                (ShapeClass::OddPrime, (bin - 1, bin, bin)),
            ] {
                let key = BucketKey::classify(m, k, n);
                assert_eq!((key.class, key.bin), (class, bin), "{m}x{k}x{n}");
                assert_eq!(format!("{:?}", server.config_for(m, k, n)), want, "{key}");
            }
        }
    }

    #[test]
    fn bad_requests_are_typed_rejections() {
        let server = small_server(ServerConfig::default());
        // Inner-dimension mismatch.
        let bad = Request::new(Matrix::zeros(4, 5), Matrix::zeros(6, 4));
        let err = server.submit(bad).unwrap_err();
        assert_eq!(err.reason, RejectReason::BadRequest);
        assert_eq!(err.request.a.nrows(), 4, "request rides back to the caller");
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 0);
    }

    #[test]
    fn shutdown_drains_the_queue() {
        let server = small_server(ServerConfig { start_paused: true, ..ServerConfig::default() });
        let tickets: Vec<Ticket> =
            (0..6).map(|i| server.submit(req(12, 12, 12, i)).expect("admitted")).collect();
        // Never resumed: shutdown alone must serve everything queued.
        let stats = server.shutdown();
        assert_eq!(stats.completed, 6);
        for t in tickets {
            assert!(t.try_take().is_some(), "ticket fulfilled by the drain");
        }
    }

    #[test]
    fn submissions_after_shutdown_begins_are_rejected() {
        let server = small_server(ServerConfig { start_paused: true, ..ServerConfig::default() });
        let queued = server.submit(req(10, 10, 10, 1)).expect("admitted before shutdown");
        server.begin_shutdown();
        let err = server.submit(req(10, 10, 10, 2)).unwrap_err();
        assert_eq!(err.reason, RejectReason::ShuttingDown);
        let err = server.submit_blocking(req(10, 10, 10, 3)).unwrap_err();
        assert_eq!(err.reason, RejectReason::ShuttingDown, "blocking path must not wait on a drain");
        let stats = server.shutdown();
        assert_eq!((stats.completed, stats.rejected_shutdown), (1, 2));
        assert!(queued.try_take().is_some(), "pre-shutdown ticket still served by the drain");
    }

    #[test]
    fn dropping_a_server_also_drains() {
        let ticket;
        {
            let server = small_server(ServerConfig { start_paused: true, ..ServerConfig::default() });
            ticket = server.submit(req(8, 8, 8, 7)).expect("admitted");
        }
        assert!(ticket.try_take().is_some(), "drop drained the queue");
    }
}
