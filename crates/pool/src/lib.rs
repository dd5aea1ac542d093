//! Scoped work-stealing thread pool and task-DAG executor.
//!
//! The in-tree replacement for the `rayon` subset this workspace uses:
//! a global pool of workers, a [`scope`] primitive whose spawned closures
//! may borrow from the enclosing stack frame, a two-way [`join`], and a
//! dependency-graph executor ([`dag::DagBuilder`]) that runs an explicit
//! task DAG on the same workers. The DAG executor is what the Strassen
//! scheduler (`strassen::schedules::seven_temp`) uses to express each
//! recursion level as pre-add / product / post-add nodes whose edges are
//! the real data dependencies, so independent work from *different*
//! recursion levels coexists in the worker deques and is stolen freely,
//! instead of the old level-at-a-time spawn-and-join barrier.
//!
//! Design:
//!
//! - One deque per worker; plain spawns are distributed round-robin,
//!   [`Scope::spawn_at`] pins a task to a specific worker's deque
//!   (affinity hint — the worker keeps its thread-local pack buffers and
//!   arena slices warm for the slot it served last level). Idle workers
//!   pop from the back of their own deque (LIFO, cache-warm) or steal
//!   from the front of a victim's (FIFO, oldest first), so a hint is a
//!   preference, never a constraint: hinted work is still stolen when
//!   its preferred worker is busy.
//! - The thread that opens a [`scope`] *helps*: while waiting for its
//!   spawned tasks it executes queued tasks itself. This keeps a
//!   single-threaded pool deadlock-free under nested scopes (DAG product
//!   nodes recurse into deeper DAGs) and means the caller is never idle
//!   while work is queued. [`in_task`] tells a caller whether it is such
//!   a free thread or is already running pool work.
//! - Thread count is config-driven: [`set_num_threads`] before first
//!   use, else the `STRASSEN_THREADS` environment variable (legacy alias
//!   `STRASSEN_NUM_THREADS`), else [`machine_threads`] — the number of
//!   distinct *physical* cores probed from
//!   `/sys/devices/system/cpu/cpu*/topology`, because the GEMM kernels
//!   saturate a core's FMA pipes and gain nothing from SMT siblings.
//!   Once the pool is running, [`set_num_threads`] reports the
//!   mismatch as a typed error instead of failing silently.
//! - Panics inside a spawned task are caught, the scope finishes its
//!   remaining tasks, and the first panic is re-thrown from [`scope`]
//!   on the spawning thread — the same contract as `rayon::scope`. A
//!   panicking DAG node poisons its successors (they never run) and the
//!   panic surfaces from [`dag::DagBuilder::run`].
//!
//! Per-worker telemetry ([`pool_stats`], [`worker_job_counts`]) makes
//! "did the parallel path really fan out, and were the workers busy?"
//! testable, and the benchmark reports [`PoolStats::utilization`] as
//! `pool.utilization`. The [`ring`] module adds an opt-in execution
//! timeline on the same paths: per-worker event rings recording spawn /
//! steal / start / finish / park with monotonic timestamps, which the
//! trace exporter in the core crate renders as Perfetto-loadable Chrome
//! trace JSON.

#![warn(missing_docs)]

pub mod dag;
pub mod ring;

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A queued, type-erased task. The `'static` here is a lie told by
/// [`Scope::spawn`]'s transmute; it is sound because [`scope`] never
/// returns until every task it spawned has completed.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    /// One deque per worker; `Scope::spawn` pushes round-robin,
    /// `Scope::spawn_at` pushes to the hinted worker's deque.
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Tasks executed per worker, for observability and tests.
    executed: Vec<AtomicU64>,
    /// Nanoseconds each worker spent *running* jobs (not waiting).
    busy_ns: Vec<AtomicU64>,
    /// Jobs each worker popped from its own deque (LIFO, cache-warm).
    own_pops: Vec<AtomicU64>,
    /// Jobs each worker stole from another worker's deque.
    steals: Vec<AtomicU64>,
    /// Times each worker went to sleep on the wake condvar.
    parks: Vec<AtomicU64>,
    /// Jobs popped by helping non-worker threads (scope owners).
    helper_pops: AtomicU64,
    /// Wake notifications issued by `push` (one per queued job).
    wake_notifies: AtomicU64,
    /// Tasks queued but not yet popped, across all deques.
    queued: AtomicUsize,
    /// Round-robin push cursor.
    next: AtomicUsize,
    /// Sleep/wake plumbing for idle workers.
    sleep: Mutex<()>,
    wake: Condvar,
    /// Timeline event rings: one per worker plus
    /// [`ring::EXTERNAL_LANES`] lanes for helping/spawning threads.
    rings: Vec<ring::Ring>,
}

impl Shared {
    fn push(&self, job: Job) {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.push_at(i, job);
    }

    /// Queue `job` on deque `i % nworkers` and wake sleepers.
    fn push_at(&self, i: usize, job: Job) {
        let i = i % self.deques.len();
        self.queued.fetch_add(1, Ordering::Release);
        self.deques[i].lock().unwrap().push_back(job);
        self.wake_notifies.fetch_add(1, Ordering::Relaxed);
        let _guard = self.sleep.lock().unwrap();
        self.wake.notify_all();
    }

    /// Pop for worker `me`: own deque from the back, then steal from the
    /// front of the others. `me == usize::MAX` marks a helping
    /// non-worker thread (steals only, round-robin from 0). Each
    /// successful pop is attributed to exactly one of the `own_pops` /
    /// `steals` / `helper_pops` counters, which is what makes the
    /// `own_pops + steals == executed` telemetry invariant hold.
    fn pop(&self, me: usize) -> Option<Job> {
        if self.queued.load(Ordering::Acquire) == 0 {
            return None;
        }
        let n = self.deques.len();
        if me < n {
            if let Some(job) = self.deques[me].lock().unwrap().pop_back() {
                self.queued.fetch_sub(1, Ordering::Release);
                self.own_pops[me].fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        for k in 0..n {
            let victim = if me < n { (me + 1 + k) % n } else { k };
            if victim == me {
                continue;
            }
            if let Some(job) = self.deques[victim].lock().unwrap().pop_front() {
                self.queued.fetch_sub(1, Ordering::Release);
                if me < n {
                    self.steals[me].fetch_add(1, Ordering::Relaxed);
                    if ring::is_recording() {
                        ring::record_worker(me, ring::EventKind::Steal, 0, victim as u32);
                    }
                } else {
                    self.helper_pops.fetch_add(1, Ordering::Relaxed);
                    ring::record(ring::EventKind::HelperPop, 0, victim as u32);
                }
                return Some(job);
            }
        }
        None
    }
}

struct Pool {
    shared: Arc<Shared>,
    nthreads: usize,
}

impl Pool {
    fn start(nthreads: usize) -> Pool {
        let shared = Arc::new(Shared {
            deques: (0..nthreads).map(|_| Mutex::new(VecDeque::new())).collect(),
            executed: (0..nthreads).map(|_| AtomicU64::new(0)).collect(),
            busy_ns: (0..nthreads).map(|_| AtomicU64::new(0)).collect(),
            own_pops: (0..nthreads).map(|_| AtomicU64::new(0)).collect(),
            steals: (0..nthreads).map(|_| AtomicU64::new(0)).collect(),
            parks: (0..nthreads).map(|_| AtomicU64::new(0)).collect(),
            helper_pops: AtomicU64::new(0),
            wake_notifies: AtomicU64::new(0),
            queued: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            rings: {
                let cap = ring::ring_capacity();
                (0..nthreads + ring::EXTERNAL_LANES).map(|_| ring::Ring::new(cap)).collect()
            },
        });
        for me in 0..nthreads {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("strassen-pool-{me}"))
                .spawn(move || worker_loop(shared, me))
                .expect("spawning pool worker");
        }
        Pool { shared, nthreads }
    }
}

thread_local! {
    /// Set while this thread runs a pool job: a worker's job, or one a
    /// helping scope owner popped in `wait_all`.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is running pool work right now: a task
/// spawned on a [`scope`] (a DAG node included), run by a worker or by a
/// helping scope owner.
///
/// A caller outside pool work is a free thread: while it waits in
/// [`scope`] it helps with the queued tasks, so a parallel split that
/// starts here can count it as one more way. Inside a task the caller's
/// time already belongs to the pool, and counting it again would
/// over-split (blas' `parallel_ways` applies this rule).
///
/// ```
/// assert!(!pool::in_task());
/// pool::scope(|s| s.spawn(|| assert!(pool::in_task())));
/// assert!(!pool::in_task());
/// ```
pub fn in_task() -> bool {
    IN_TASK.with(Cell::get)
}

/// Marks this thread as running pool work until dropped, then restores
/// the previous mark, on unwind too.
struct TaskMark(bool);

impl TaskMark {
    fn enter() -> TaskMark {
        TaskMark(IN_TASK.with(|t| t.replace(true)))
    }
}

impl Drop for TaskMark {
    fn drop(&mut self) {
        IN_TASK.with(|t| t.set(self.0));
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    ring::set_worker_lane(me);
    loop {
        match shared.pop(me) {
            Some(job) => {
                shared.executed[me].fetch_add(1, Ordering::Relaxed);
                // The job wrapper (built in `Scope::spawn`) already
                // catches user panics; a panic reaching here would be a
                // pool bug, and even then the worker must survive.
                let start = std::time::Instant::now();
                let mark = TaskMark::enter();
                let _ = catch_unwind(AssertUnwindSafe(job));
                drop(mark);
                shared.busy_ns[me].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            None => {
                let guard = shared.sleep.lock().unwrap();
                if shared.queued.load(Ordering::Acquire) == 0 {
                    shared.parks[me].fetch_add(1, Ordering::Relaxed);
                    if ring::is_recording() {
                        ring::record_worker(me, ring::EventKind::Park, 0, 0);
                    }
                    // Timeout bounds the cost of any lost wakeup race.
                    let _ = shared.wake.wait_timeout(guard, Duration::from_millis(50));
                }
            }
        }
    }
}

/// Requested thread count, staged before the pool starts (0 = unset).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
static POOL: OnceLock<Pool> = OnceLock::new();

/// Distinct physical cores on this machine, probed from
/// `/sys/devices/system/cpu/cpu*/topology/{physical_package_id,core_id}`.
///
/// SMT siblings share FMA pipes and L1/L2, so the dense kernels gain
/// nothing from running two workers per core — this is the pool's
/// default size. Falls back to `available_parallelism` (which counts
/// hardware *threads*) when sysfs is absent or unreadable, and to 1 as a
/// last resort.
pub fn machine_threads() -> usize {
    physical_core_count().or_else(|| std::thread::available_parallelism().ok().map(|n| n.get())).unwrap_or(1)
}

fn physical_core_count() -> Option<usize> {
    let mut cores = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir("/sys/devices/system/cpu").ok()?.flatten() {
        let name = entry.file_name();
        let Some(rest) = name.to_str().and_then(|s| s.strip_prefix("cpu")) else { continue };
        if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let topo = entry.path().join("topology");
        let read_id = |file: &str| -> Option<i64> {
            std::fs::read_to_string(topo.join(file)).ok()?.trim().parse().ok()
        };
        // Offline CPUs have no topology directory; skip them.
        if let (Some(pkg), Some(core)) = (read_id("physical_package_id"), read_id("core_id")) {
            cores.insert((pkg, core));
        }
    }
    if cores.is_empty() {
        None
    } else {
        Some(cores.len())
    }
}

fn default_threads() -> usize {
    for var in ["STRASSEN_THREADS", "STRASSEN_NUM_THREADS"] {
        if let Ok(v) = std::env::var(var) {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
    }
    machine_threads()
}

fn global() -> &'static Pool {
    POOL.get_or_init(|| {
        let requested = REQUESTED.load(Ordering::Relaxed);
        let n = if requested > 0 { requested } else { default_threads() };
        Pool::start(n)
    })
}

/// The global pool's shared state (starts the pool on first call) — for
/// the [`ring`] module's lane accessors.
pub(crate) fn global_shared() -> &'static Shared {
    &global().shared
}

/// Error from [`set_num_threads`]: the global pool is already running
/// with a different worker count, which cannot be changed in-process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolAlreadyRunning {
    /// Worker count the pool is actually running with.
    pub running: usize,
    /// Worker count the rejected call asked for.
    pub requested: usize,
}

impl std::fmt::Display for PoolAlreadyRunning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thread pool already running with {} worker(s); cannot resize to {} — \
             call set_num_threads before the pool's first use, or set STRASSEN_THREADS",
            self.running, self.requested
        )
    }
}

impl std::error::Error for PoolAlreadyRunning {}

/// Request `n` workers for the global pool (clamped to at least 1).
///
/// Effective only before the pool's first use. Once the pool is running
/// the worker count is fixed for the process: a call that asks for the
/// count the pool already has succeeds (idempotent), any other count
/// returns [`PoolAlreadyRunning`] carrying both counts so callers can
/// report the mismatch instead of silently computing with the wrong
/// parallelism. Entry points that care (`examples/timeline_trace.rs`,
/// the parallel test suites) set the thread count up front, before
/// touching any parallel path.
///
/// Pre-start staging is **last-write-wins**: each call before the pool
/// starts overwrites the staged request, and none of them takes effect
/// until first use. Two subsystems that each "set the thread count up
/// front" (say, a serving layer and a bench harness in one process)
/// therefore race on whichever touches the pool first — library code
/// that merely *wants* a size but must coexist with other components
/// should use [`pin_once`], which stages first-wins and resolves the
/// effective count immediately.
pub fn set_num_threads(n: usize) -> Result<(), PoolAlreadyRunning> {
    let n = n.max(1);
    let check = |pool: &Pool| {
        if pool.nthreads == n {
            Ok(())
        } else {
            Err(PoolAlreadyRunning { running: pool.nthreads, requested: n })
        }
    };
    if let Some(pool) = POOL.get() {
        return check(pool);
    }
    REQUESTED.store(n, Ordering::Relaxed);
    // A racing first use may have started the pool between the check and
    // the store; re-validate so the result is truthful.
    match POOL.get() {
        None => Ok(()),
        Some(pool) => check(pool),
    }
}

/// Number of worker threads in the pool (starts the pool on first call).
pub fn current_num_threads() -> usize {
    global().nthreads
}

/// Whether an environment override (`STRASSEN_THREADS` /
/// `STRASSEN_NUM_THREADS`) pins the pool size for this process.
fn env_threads_set() -> bool {
    ["STRASSEN_THREADS", "STRASSEN_NUM_THREADS"]
        .iter()
        .any(|var| std::env::var(var).is_ok_and(|v| v.trim().parse::<usize>().is_ok()))
}

/// Pin-once pool sizing for library components: stage `n` workers only
/// if nothing else has claimed the size yet, start the pool, and return
/// the count it actually runs with.
///
/// Resolution order, strongest first:
///
/// 1. a pool that is already running keeps its size;
/// 2. an environment override (`STRASSEN_THREADS`, legacy
///    `STRASSEN_NUM_THREADS`) wins over any `pin_once` — this is what
///    lets `scripts/verify.sh` run the whole suite at 1 and 4 workers
///    without every component opting in;
/// 3. an earlier staged request ([`set_num_threads`] or a previous
///    `pin_once`) wins over this call (**first**-wins, unlike
///    `set_num_threads`'s last-write-wins staging);
/// 4. otherwise `n` (clamped to ≥ 1) becomes the pool size.
///
/// Because `pin_once` *starts* the pool before returning, the answer is
/// final: later [`set_num_threads`] calls for a different count get a
/// truthful [`PoolAlreadyRunning`] instead of silently re-staging, so a
/// serving layer and a bench harness in one process cannot fight over
/// sizing — whoever pins first decides, and everyone else *observes*.
/// The regression test in `tests/parallel_smoke.rs` pins this contract.
pub fn pin_once(n: usize) -> usize {
    if !env_threads_set() {
        let _ = REQUESTED.compare_exchange(0, n.max(1), Ordering::Relaxed, Ordering::Relaxed);
    }
    current_num_threads()
}

/// Tasks executed so far by each worker, indexed by worker id.
///
/// Tasks run inline by a *helping* scope owner are not counted here —
/// these counters answer "which pool workers participated?", which is
/// what the parallel-dispatch smoke tests assert.
pub fn worker_job_counts() -> Vec<u64> {
    global().shared.executed.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

/// Telemetry snapshot for one pool worker (see [`PoolStats`]).
///
/// All counters are cumulative since pool start and only ever grow, so
/// two snapshots bracket a region: `after.jobs - before.jobs` is the
/// work that region dispatched. Every executed job was obtained by
/// exactly one pop, giving the invariant `own_pops + steals == jobs`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker executed.
    pub jobs: u64,
    /// Jobs popped from the worker's own deque (LIFO, cache-warm).
    pub own_pops: u64,
    /// Jobs stolen from another worker's deque (FIFO, oldest first).
    pub steals: u64,
    /// Nanoseconds spent running jobs (excludes idle/steal-search time).
    pub busy_ns: u64,
    /// Times the worker parked on the wake condvar (queue was empty).
    pub parks: u64,
}

/// Utilization telemetry for the whole pool: a per-worker breakdown plus
/// the pool-wide counters that have no single owner.
///
/// Taken with [`pool_stats`]; subtract two snapshots with
/// [`PoolStats::since`] to attribute counts to a region of interest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Jobs executed inline by *helping* scope owners (threads waiting in
    /// [`scope`] that picked up queued work instead of blocking). These
    /// jobs appear in no worker's counters.
    pub helper_pops: u64,
    /// Wake notifications issued by spawns (one per queued job).
    pub wake_notifies: u64,
}

impl PoolStats {
    /// Jobs executed by pool workers (excludes [`PoolStats::helper_pops`]).
    pub fn total_jobs(&self) -> u64 {
        self.workers.iter().map(|w| w.jobs).sum()
    }

    /// Total nanoseconds pool workers spent running jobs.
    pub fn total_busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// Fraction of `wall_ns × workers` the pool spent busy — the
    /// parallel-region utilization figure the profile and the benchmark
    /// report. Returns 0 for an empty pool or a zero-length wall
    /// interval.
    pub fn utilization(&self, wall_ns: u64) -> f64 {
        let capacity = wall_ns.saturating_mul(self.workers.len() as u64);
        if capacity == 0 {
            return 0.0;
        }
        self.total_busy_ns() as f64 / capacity as f64
    }

    /// Counter-wise difference `self − earlier`, saturating at zero —
    /// the activity between two snapshots. Workers present in `self` but
    /// not in `earlier` (never the case for one process, where the pool
    /// size is fixed) are returned unchanged.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        let workers = self
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let e = earlier.workers.get(i).copied().unwrap_or_default();
                WorkerStats {
                    jobs: w.jobs.saturating_sub(e.jobs),
                    own_pops: w.own_pops.saturating_sub(e.own_pops),
                    steals: w.steals.saturating_sub(e.steals),
                    busy_ns: w.busy_ns.saturating_sub(e.busy_ns),
                    parks: w.parks.saturating_sub(e.parks),
                }
            })
            .collect();
        PoolStats {
            workers,
            helper_pops: self.helper_pops.saturating_sub(earlier.helper_pops),
            wake_notifies: self.wake_notifies.saturating_sub(earlier.wake_notifies),
        }
    }
}

/// Snapshot the pool's telemetry counters (starts the pool on first
/// call).
///
/// The counters are read with relaxed ordering while workers may still be
/// running: a snapshot taken mid-flight can observe a job in `jobs`
/// before its `busy_ns` lands. Snapshots taken while the caller's own
/// scopes are quiescent (after [`scope`] returned) are exact for the jobs
/// those scopes spawned, because `scope` does not return until every
/// spawned job has completed.
pub fn pool_stats() -> PoolStats {
    let shared = &global().shared;
    let workers = (0..shared.deques.len())
        .map(|i| WorkerStats {
            jobs: shared.executed[i].load(Ordering::Relaxed),
            own_pops: shared.own_pops[i].load(Ordering::Relaxed),
            steals: shared.steals[i].load(Ordering::Relaxed),
            busy_ns: shared.busy_ns[i].load(Ordering::Relaxed),
            parks: shared.parks[i].load(Ordering::Relaxed),
        })
        .collect();
    PoolStats {
        workers,
        helper_pops: shared.helper_pops.load(Ordering::Relaxed),
        wake_notifies: shared.wake_notifies.load(Ordering::Relaxed),
    }
}

struct ScopeState {
    /// Spawned-but-unfinished task count for this scope.
    pending: AtomicUsize,
    lock: Mutex<()>,
    done: Condvar,
    /// First panic payload from any task in this scope.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last task: take the lock so the notification cannot race
            // past a waiter that has checked `pending` but not yet slept.
            let _guard = self.lock.lock().unwrap();
            self.done.notify_all();
        }
    }
}

/// Handle for spawning tasks that may borrow data outliving the
/// [`scope`] call. Created only by [`scope`].
pub struct Scope<'scope> {
    state: Arc<ScopeState>,
    /// Invariant over `'scope`, as for `std::thread::Scope`.
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Queue `f` on the pool, round-robin across worker deques. It may
    /// borrow anything that outlives the enclosing [`scope`] call;
    /// [`scope`] does not return until every spawned task has finished.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.spawn_job(None, 0, f);
    }

    /// Queue `f` with an affinity hint: the job lands on worker
    /// `hint % nworkers`'s deque instead of the round-robin slot, so a
    /// stable hint (e.g. a Strassen arena-slot index) keeps returning to
    /// the worker whose thread-local pack buffers and workspace arena
    /// are already sized and cache-warm for it. The hint is advisory —
    /// any idle worker (or helping scope owner) may still steal the job.
    pub fn spawn_at<F>(&self, hint: usize, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.spawn_job(Some(hint), 0, f);
    }

    /// [`Scope::spawn`]/[`Scope::spawn_at`] with a timeline tag: when
    /// event recording is on ([`ring::start_recording`]) the task's
    /// spawn/start/finish ring events carry `tag` (see [`ring::tag`]),
    /// which is how the trace exporter names tasks and draws flow events
    /// along DAG edges. `tag == 0` means untagged; the tag never affects
    /// scheduling or execution.
    pub fn spawn_tagged<F>(&self, hint: Option<usize>, tag: u64, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.spawn_job(hint, tag, f);
    }

    fn spawn_job<F>(&self, hint: Option<usize>, tag: u64, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            // Latch the recording gate once so Start/Finish always pair,
            // even when recording toggles mid-job.
            let rec = ring::is_recording();
            if rec {
                ring::record(ring::EventKind::Start, tag, 0);
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if rec {
                ring::record(ring::EventKind::Finish, tag, 0);
            }
            state.complete_one();
        });
        // SAFETY: the job is a fat Box<dyn FnOnce> either way; only the
        // lifetime is erased. `scope` blocks (see `wait_all`) until
        // `pending` reaches zero, i.e. until this closure has run and
        // dropped, so no `'scope` borrow is used after the stack frame
        // it points into is gone — the same argument as
        // `std::thread::scope`, enforced dynamically by the counter.
        let job: Job = unsafe { std::mem::transmute(job) };
        ring::record(ring::EventKind::Spawn, tag, 0);
        match hint {
            Some(i) => global().shared.push_at(i, job),
            None => global().shared.push(job),
        }
    }

    /// A second handle onto this scope's completion state, for crate
    /// internals (the DAG executor) that must spawn follow-up tasks
    /// *from inside* a running task, where no `&Scope` is in reach.
    fn alias(&self) -> Scope<'scope> {
        Scope { state: Arc::clone(&self.state), _marker: PhantomData }
    }

    /// Wait for every task in this scope, helping with queued work
    /// (from any scope) instead of blocking while tasks are available.
    fn wait_all(&self) {
        let shared = &global().shared;
        while self.state.pending.load(Ordering::Acquire) > 0 {
            if let Some(job) = shared.pop(usize::MAX) {
                let _mark = TaskMark::enter();
                job();
                continue;
            }
            let guard = self.state.lock.lock().unwrap();
            if self.state.pending.load(Ordering::Acquire) > 0 {
                // The last completion's notify is taken under this same
                // lock, so it cannot be lost. The timeout is for work
                // queued after the pop above: a running DAG node spawns
                // its successors, and the thread that ran it may leave
                // (its own scope done) while every worker sleeps in a
                // nested wait. Waking re-polls the queue, so some
                // waiter always ends up running it.
                drop(self.state.done.wait_timeout(guard, Duration::from_millis(50)).unwrap());
            }
        }
    }
}

/// Run `f` with a [`Scope`] whose spawned closures may borrow locals of
/// the caller. Returns `f`'s result after all spawned tasks complete.
///
/// If `f` itself or any spawned task panics, the panic is re-thrown
/// here — but only after every task of the scope has finished, so
/// borrowed data is never observed by a still-running task after an
/// unwind.
///
/// # Example
///
/// Spawned tasks may write disjoint borrows of the caller's stack —
/// the shape of the seven-multiply Strassen fan-out:
///
/// ```
/// let mut parts = [0u64; 4];
/// pool::scope(|s| {
///     for (i, p) in parts.iter_mut().enumerate() {
///         s.spawn(move || *p = (i as u64 + 1) * 10);
///     }
/// });
/// assert_eq!(parts, [10, 20, 30, 40]);
/// ```
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R,
{
    let s = Scope {
        state: Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            lock: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }),
        _marker: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&s)));
    s.wait_all();
    match result {
        Err(payload) => resume_unwind(payload),
        Ok(r) => {
            let panicked = s.state.panic.lock().unwrap().take();
            if let Some(payload) = panicked {
                resume_unwind(payload);
            }
            r
        }
    }
}

/// Run two closures, potentially in parallel, returning both results.
/// `b` is queued on the pool while `a` runs on the calling thread.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let mut rb = None;
    let ra = scope(|s| {
        s.spawn(|| rb = Some(b()));
        a()
    });
    (ra, rb.expect("join: second closure did not run"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Every test pins the pool to 4 workers before first use so the
    /// multi-worker assertions hold on single-CPU machines too. Only the
    /// first call wins; calling it from each test makes the suite
    /// order-independent.
    fn init() {
        let _ = set_num_threads(4);
    }

    #[test]
    fn scope_runs_all_tasks() {
        init();
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scoped_borrows_of_disjoint_chunks() {
        init();
        let mut v = vec![0u32; 64];
        scope(|s| {
            for (i, chunk) in v.chunks_mut(8).enumerate() {
                s.spawn(move || {
                    for x in chunk {
                        *x = i as u32 + 1;
                    }
                });
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i / 8) as u32 + 1);
        }
    }

    #[test]
    fn spawn_at_runs_and_borrows_like_spawn() {
        init();
        let mut v = [0u32; 32];
        scope(|s| {
            for (i, chunk) in v.chunks_mut(8).enumerate() {
                // Pin every chunk to the same worker: correctness must
                // not depend on where a hinted job lands.
                s.spawn_at(2, move || {
                    for x in chunk {
                        *x = i as u32 + 1;
                    }
                });
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i / 8) as u32 + 1);
        }
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        init();
        let total = AtomicUsize::new(0);
        scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        init();
        let ran_other = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| panic!("boom in task"));
                s.spawn(|| {
                    ran_other.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err(), "scope should re-throw the task panic");
        // Sibling tasks of the panicking one still completed.
        assert_eq!(ran_other.load(Ordering::Relaxed), 1);
        // And the pool is still alive.
        let counter = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn in_task_marks_pool_work_only() {
        init();
        assert!(!in_task(), "a plain thread runs no pool work");
        let flags = Mutex::new(Vec::new());
        let record = || flags.lock().unwrap().push(in_task());
        scope(|s| s.spawn(record));
        let mut dag = dag::DagBuilder::new();
        let root = dag.node(None, &[], record);
        dag.node(None, &[root], record);
        dag.run(usize::MAX);
        assert_eq!(flags.into_inner().unwrap(), [true; 3], "scope task, DAG root, DAG successor");

        // A helper pop: the scope owner runs one of the queued tasks
        // itself. One task more than there are workers, each holding its
        // thread until the owner has run one: a thread holds at most one
        // of them, so at least one stays queued for the owner to pop.
        let me = std::thread::current().id();
        let owner_ran = std::sync::atomic::AtomicBool::new(false);
        let on_owner = Mutex::new(Vec::new());
        scope(|s| {
            for _ in 0..=current_num_threads() {
                s.spawn(|| {
                    if std::thread::current().id() == me {
                        on_owner.lock().unwrap().push(in_task());
                        owner_ran.store(true, Ordering::Release);
                    }
                    while !owner_ran.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                });
            }
        });
        let helped = on_owner.into_inner().unwrap();
        assert!(!helped.is_empty() && helped.iter().all(|&t| t), "a helper pop runs marked: {helped:?}");
        assert!(!in_task(), "the mark is cleared after helping");

        // A panicking task leaves no mark behind, whether the scope's
        // catch or the drop guard's unwind path clears it.
        let result = catch_unwind(AssertUnwindSafe(|| scope(|s| s.spawn(|| panic!("boom in task")))));
        assert!(result.is_err());
        assert!(!in_task());
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _mark = TaskMark::enter();
            assert!(in_task());
            panic!("boom under the mark");
        }));
        assert!(result.is_err());
        assert!(!in_task(), "the drop guard clears the mark on unwind");
    }

    #[test]
    fn join_returns_both() {
        init();
        let (a, b) = join(|| 2 + 2, || "forty".len());
        assert_eq!((a, b), (4, 5));
    }

    #[test]
    fn workers_participate() {
        init();
        // Many slow-ish tasks: with 4 workers plus the helping caller,
        // at least two distinct workers must pick something up. On a host
        // with fewer cores than workers, a busy window (other tests of
        // this binary saturating the CPUs) can let the caller and one
        // worker drain a whole bracket before a second worker is
        // scheduled, so the bracket is retried, after a short pause, until
        // a quieter window shows the fan-out.
        let mut last = String::new();
        for _ in 0..20 {
            let before = worker_job_counts();
            for _ in 0..8 {
                scope(|s| {
                    for _ in 0..16 {
                        s.spawn(|| {
                            std::hint::black_box((0..20_000).sum::<u64>());
                        });
                    }
                });
            }
            let after = worker_job_counts();
            let active = before.iter().zip(&after).filter(|(b, a)| a > b).count();
            if active >= 2 {
                return;
            }
            last = format!("only {active} of {} workers ran tasks", after.len());
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("{last} in every attempt");
    }

    #[test]
    fn stats_account_for_every_job() {
        init();
        // Other tests in this binary share the global pool, so their jobs
        // can land inside this window. The exact counts are therefore
        // checked per attempt, and the whole bracket is retried until a
        // window without foreign jobs reconciles (immediate when quiescent).
        let mut last_err = String::new();
        for _ in 0..20 {
            let before = pool_stats();
            for _ in 0..4 {
                scope(|s| {
                    for _ in 0..32 {
                        s.spawn(|| {
                            std::hint::black_box((0..50_000).sum::<u64>());
                        });
                    }
                });
            }
            // Concurrent tests may hold the pool mid-increment; wait for a
            // consistent snapshot.
            let mut after = pool_stats();
            for _ in 0..100 {
                if after.workers.iter().all(|w| w.own_pops + w.steals == w.jobs) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
                after = pool_stats();
            }
            let delta = after.since(&before);
            // One wake notification per push.
            assert!(delta.wake_notifies >= 4 * 32);
            // Busy time and job counts are monotonic.
            for (w_after, w_before) in after.workers.iter().zip(&before.workers) {
                assert!(w_after.busy_ns >= w_before.busy_ns);
                assert!(w_after.jobs >= w_before.jobs);
            }
            // Every job this test spawned ran on a worker or a helper.
            let ran = delta.total_jobs() + delta.helper_pops;
            // Attribution: each executed job came from exactly one pop kind.
            let unattributed = after.workers.iter().position(|w| w.own_pops + w.steals != w.jobs);
            let legacy = worker_job_counts();
            let current: Vec<u64> = pool_stats().workers.iter().map(|w| w.jobs).collect();
            if ran == 4 * 32 && unattributed.is_none() && legacy == current {
                return;
            }
            last_err = format!(
                "ran {ran} of {} jobs; worker with pops != jobs: {unattributed:?}; \
                 worker_job_counts {legacy:?} vs pool_stats {current:?}",
                4 * 32
            );
        }
        panic!("no quiet window reconciled the pool counters: {last_err}");
    }

    #[test]
    fn stats_since_and_utilization() {
        // Pure snapshot arithmetic — no pool interaction.
        let w = |jobs, busy_ns| WorkerStats { jobs, own_pops: jobs, steals: 0, busy_ns, parks: 0 };
        let before = PoolStats { workers: vec![w(2, 100), w(1, 50)], helper_pops: 1, wake_notifies: 4 };
        let after = PoolStats { workers: vec![w(5, 400), w(1, 50)], helper_pops: 2, wake_notifies: 9 };
        let d = after.since(&before);
        assert_eq!(d.workers[0], w(3, 300));
        assert_eq!(d.workers[1], w(0, 0));
        assert_eq!(d.helper_pops, 1);
        assert_eq!(d.wake_notifies, 5);
        assert_eq!(d.total_jobs(), 3);
        assert_eq!(d.total_busy_ns(), 300);
        // 300 busy ns over 2 workers × 1000 ns wall = 15%.
        assert!((d.utilization(1000) - 0.15).abs() < 1e-12);
        assert_eq!(PoolStats::default().utilization(1000), 0.0);
        assert_eq!(d.utilization(0), 0.0);
    }

    #[test]
    fn thread_count_is_positive_and_resize_is_reported() {
        init();
        assert!(current_num_threads() >= 1);
        let n = current_num_threads();
        // Asking for the running count is idempotent…
        assert_eq!(set_num_threads(n), Ok(()));
        // …while a mismatch is a typed, displayable error.
        let err = set_num_threads(n + 12).unwrap_err();
        assert_eq!(err, PoolAlreadyRunning { running: n, requested: n + 12 });
        assert!(err.to_string().contains("already running"));
        assert_eq!(current_num_threads(), n, "rejected resize must not change the pool");
    }

    #[test]
    fn machine_threads_is_positive() {
        assert!(machine_threads() >= 1);
    }

    #[test]
    fn pin_once_observes_and_never_resizes() {
        init();
        // Whatever decided the size (env, an earlier staging, or this
        // call), `pin_once` must return the running count and stay
        // idempotent: later pins with other values merely observe.
        let effective = pin_once(9);
        assert_eq!(effective, current_num_threads());
        assert_eq!(pin_once(1), effective, "second pin must not resize");
        assert_eq!(pin_once(64), effective, "third pin must not resize");
        // And the pool is genuinely running afterwards, so a mismatched
        // explicit resize is a truthful typed error, not a silent stage.
        if effective != 9 {
            assert!(set_num_threads(9).is_err());
        }
    }
}
