//! Per-worker execution-timeline event rings.
//!
//! When recording is on ([`start_recording`]), the pool logs task
//! lifecycle events — spawn, start, finish, steal, helper-pop,
//! idle-park — into fixed-capacity, drop-oldest ring buffers with
//! monotonic timestamps. There is one ring per pool worker plus a small
//! set of *external* lanes for non-worker threads (scope owners helping
//! in `wait_all`, the thread that issues top-level spawns). The rings
//! are what the Perfetto/Chrome trace exporter
//! (`strassen::probe::timeline`) merges into per-worker lanes.
//!
//! # Storage
//!
//! The rings are allocated the first time a recording needs them
//! ([`start_recording`] or [`marks`], and so `timeline::record`), never
//! at pool start, so a process that never records holds no ring memory
//! ([`allocated_bytes`] reads 0). There is one ring per lane (pool
//! workers + [`EXTERNAL_LANES`]) of `STRASSEN_RING_CAP` slots (default
//! 16,384, at least 64), read at that first allocation; a slot is three
//! `u64`s, so the rings take `lanes × capacity × 24` bytes (1.9 MiB for
//! one worker at the default). An event that finds no rings yet is
//! skipped, so with recording off an instrumented path still pays one
//! relaxed load.
//!
//! # Lock-freedom and memory ordering
//!
//! Each lane is written by exactly one thread in the common case
//! (worker `i` writes lane `i`; an external thread is assigned its own
//! lane on first use), so a write is three relaxed payload stores plus
//! one `Release` `fetch_add` on the lane head — no locks, no CAS loops.
//! If more external threads appear than there are external lanes, the
//! overflow threads share the last lane: its head still counts exactly
//! (`fetch_add`), individual overflow events may overwrite each other's
//! slots, and nothing is ever undefined behavior because every slot
//! field is an atomic.
//!
//! Readers snapshot a lane by loading the head with `Acquire` and
//! walking the last `min(head, capacity)` slots. The contract is
//! **read-after-quiesce**: snapshot only regions whose work has
//! completed (after `scope`/`DagBuilder::run` returned). Quiescence is
//! what provides the real happens-before edge — the scope's pending
//! counter (`AcqRel`) and condvar hand-off order every worker's ring
//! writes before the caller's snapshot; the per-write `Release` head
//! bump is belt-and-braces for mid-flight observers, which may at worst
//! see a torn *in-progress* slot, never a torn *completed* one. See
//! DESIGN.md §14 for the full argument.
//!
//! # Reconciliation with `pool_stats`
//!
//! Every ring event is recorded at the same program point as the
//! aggregate counter it mirrors, so over any recording bracket taken at
//! quiescence the two accountings agree *exactly*:
//!
//! | ring count (all lanes)        | aggregate counter delta            |
//! |-------------------------------|------------------------------------|
//! | `Spawn`                       | `PoolStats::wake_notifies`         |
//! | `Start` = `Finish`            | `total_jobs() + helper_pops`       |
//! | `Steal` on worker lane `i`    | `workers[i].steals`                |
//! | `HelperPop`                   | `helper_pops`                      |
//! | `Park` on worker lane `i`     | `workers[i].parks`                 |
//!
//! DAG-spawned and `spawn_at`-affinity tasks flow through the same
//! `push`/`pop`/wrapper path, so they are counted identically; the
//! `ring_counts_reconcile_with_pool_stats` test pins the table above.
//!
//! # Tags
//!
//! Events carry a caller-supplied 64-bit tag identifying the task. Tag
//! `0` means untagged. The high byte is a namespace; the [`tag`] module
//! defines the two namespaces in use (Strassen DAG nodes, parallel-GEMM
//! block tasks) and the per-run instance ids that make DAG node tags
//! unique across sibling sub-DAGs, which is what lets the exporter draw
//! flow events along dependency edges.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of extra lanes reserved for non-worker threads.
pub const EXTERNAL_LANES: usize = 4;

/// Lifecycle event kinds recorded into the rings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A job was queued on a deque (recorded by the spawning thread).
    Spawn,
    /// A job body began executing (recorded by the executing thread).
    Start,
    /// A job body finished executing (recorded by the executing thread).
    Finish,
    /// A worker stole a job from another worker's deque (`arg` = victim).
    Steal,
    /// A helping non-worker pop took a job from a deque (`arg` = victim).
    HelperPop,
    /// A worker parked on the wake condvar (its queue scan came up dry).
    Park,
    /// A caller-defined marker (e.g. top-level `dgefmm` call bounds).
    Mark,
}

/// How many distinct [`EventKind`]s exist (array-sizing constant).
pub const KIND_COUNT: usize = 7;

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; KIND_COUNT] = [
        EventKind::Spawn,
        EventKind::Start,
        EventKind::Finish,
        EventKind::Steal,
        EventKind::HelperPop,
        EventKind::Park,
        EventKind::Mark,
    ];

    /// Stable snake_case label for exports.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Spawn => "spawn",
            EventKind::Start => "start",
            EventKind::Finish => "finish",
            EventKind::Steal => "steal",
            EventKind::HelperPop => "helper_pop",
            EventKind::Park => "park",
            EventKind::Mark => "mark",
        }
    }

    fn index(self) -> usize {
        match self {
            EventKind::Spawn => 0,
            EventKind::Start => 1,
            EventKind::Finish => 2,
            EventKind::Steal => 3,
            EventKind::HelperPop => 4,
            EventKind::Park => 5,
            EventKind::Mark => 6,
        }
    }

    fn from_index(i: u64) -> Option<EventKind> {
        EventKind::ALL.get(i as usize).copied()
    }
}

/// One decoded timeline event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic nanoseconds since the process-wide ring epoch.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Caller task tag (0 = untagged); see the [`tag`] module.
    pub tag: u64,
    /// Kind-specific argument (victim worker id for steals/helper pops).
    pub arg: u32,
}

/// One ring slot. All fields atomic so a wrapped overwrite racing a
/// mid-flight reader is garbled telemetry at worst, never UB.
struct Slot {
    ts: AtomicU64,
    tag: AtomicU64,
    /// `kind | arg << 8`.
    meta: AtomicU64,
}

/// A fixed-capacity, drop-oldest event ring for one lane.
struct Ring {
    slots: Box<[Slot]>,
    /// Total events ever recorded into this lane (monotonic; the last
    /// `min(head, capacity)` of them are retained).
    head: AtomicU64,
    /// Cumulative per-kind totals — unlike the buffer these never drop,
    /// which is what makes exact reconciliation possible.
    counts: [AtomicU64; KIND_COUNT],
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity)
                .map(|_| Slot { ts: AtomicU64::new(0), tag: AtomicU64::new(0), meta: AtomicU64::new(0) })
                .collect(),
            head: AtomicU64::new(0),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, kind: EventKind, tag: u64, arg: u32) {
        let ts = epoch_ns();
        let i = self.head.fetch_add(1, Ordering::Release);
        let slot = &self.slots[(i % self.slots.len() as u64) as usize];
        slot.ts.store(ts, Ordering::Relaxed);
        slot.tag.store(tag, Ordering::Relaxed);
        slot.meta.store(kind.index() as u64 | (arg as u64) << 8, Ordering::Relaxed);
        self.counts[kind.index()].fetch_add(1, Ordering::Relaxed);
    }
}

/// Default per-lane capacity (events). Overridable via
/// `STRASSEN_RING_CAP`, read when the first recording allocates the rings.
const DEFAULT_CAPACITY: usize = 1 << 14;

fn ring_capacity() -> usize {
    std::env::var("STRASSEN_RING_CAP")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.max(64))
        .unwrap_or(DEFAULT_CAPACITY)
}

/// Recording gate: one relaxed load on every instrumented pool path.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// One ring per lane, allocated by the first recording (see the module
/// docs' *Storage*).
static RINGS: OnceLock<Box<[Ring]>> = OnceLock::new();

/// The rings, or `None` before the first recording allocated them.
fn rings() -> Option<&'static [Ring]> {
    RINGS.get().map(|r| &r[..])
}

/// The rings, allocated on first call (this starts the pool).
fn rings_allocated() -> &'static [Ring] {
    RINGS.get_or_init(|| {
        let cap = ring_capacity();
        (0..lane_count()).map(|_| Ring::new(cap)).collect()
    })
}

/// Bytes of ring storage this process holds: 0 until the first
/// recording, then `lanes × capacity × 24`. A hook for the test that
/// pins the lazy allocation.
pub fn allocated_bytes() -> usize {
    rings().map_or(0, |r| r.iter().map(|r| r.slots.len() * std::mem::size_of::<Slot>()).sum())
}

/// Process-wide timestamp epoch, fixed on first use so every lane's
/// timestamps share one monotonic origin.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Next external lane to hand out (worker lanes are fixed at startup).
static EXTERNAL_NEXT: AtomicUsize = AtomicUsize::new(0);

/// Monotonic DAG-instance counter (see [`tag::with_instance`]).
static DAG_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// Dependency edges `(from_tag, to_tag)` logged by DAG runs while
/// recording; appended under a mutex (once per DAG level, not per
/// event), drained by the exporter.
static EDGES: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's lane id (`usize::MAX` = not yet assigned).
    static LANE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Called once by each pool worker thread before its loop.
pub(crate) fn set_worker_lane(me: usize) {
    LANE.with(|l| l.set(me));
}

fn current_lane(workers: usize) -> usize {
    LANE.with(|l| {
        let lane = l.get();
        if lane != usize::MAX {
            return lane;
        }
        // First record from a non-worker thread: claim an external lane,
        // or share the last one when more threads than lanes appear.
        let ext = EXTERNAL_NEXT.fetch_add(1, Ordering::Relaxed).min(EXTERNAL_LANES - 1);
        let lane = workers + ext;
        l.set(lane);
        lane
    })
}

/// Whether timeline recording is currently on. One relaxed load — this
/// is the only cost the instrumented pool paths pay when recording is
/// off, which is what keeps the ≤5%/≤1% probe-overhead gates intact.
#[inline]
pub fn is_recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Turn event recording on, allocating the rings on the first call.
/// Returns the previous state; callers that need exclusive sessions (the
/// exporter, the determinism tests) should serialize among themselves —
/// recording is a global flag, and two overlapping sessions will see
/// each other's events.
pub fn start_recording() -> bool {
    rings_allocated();
    RECORDING.swap(true, Ordering::SeqCst)
}

/// Turn event recording off. Returns the previous state.
pub fn stop_recording() -> bool {
    RECORDING.swap(false, Ordering::SeqCst)
}

/// Number of lanes (pool workers + [`EXTERNAL_LANES`]). Starts the pool
/// on first call.
pub fn lane_count() -> usize {
    crate::ring_lanes()
}

/// Number of pool-worker lanes; lanes `>= worker_lanes()` belong to
/// external (helping/spawning) threads.
pub fn worker_lanes() -> usize {
    lane_count() - EXTERNAL_LANES
}

/// Record an event into the current thread's lane. No-op when recording
/// is off or the rings are not allocated yet. Worker threads record into
/// their worker lane; other threads into an external lane assigned on
/// first use.
#[inline]
pub fn record(kind: EventKind, tag: u64, arg: u32) {
    if !is_recording() {
        return;
    }
    let Some(rings) = rings() else { return };
    let lane = current_lane(rings.len() - EXTERNAL_LANES);
    rings[lane].record(kind, tag, arg);
}

/// Record into a known worker lane (pool internals on hot paths where
/// the worker id is already in hand). Recording gate is the caller's job.
#[inline]
pub(crate) fn record_worker(me: usize, kind: EventKind, tag: u64, arg: u32) {
    let Some(rings) = rings() else { return };
    if me < rings.len() - EXTERNAL_LANES {
        rings[me].record(kind, tag, arg);
    } else {
        let lane = current_lane(rings.len() - EXTERNAL_LANES);
        rings[lane].record(kind, tag, arg);
    }
}

/// Per-lane head positions — a cheap cursor into every ring. Take one
/// before a region and pass it to [`events_since`] after the region
/// quiesces to extract exactly that region's events. Allocates the rings
/// if no recording has yet.
pub fn marks() -> Vec<u64> {
    rings_allocated().iter().map(|r| r.head.load(Ordering::Acquire)).collect()
}

/// Events recorded in each lane since `marks` (per lane: the decoded
/// events in recording order, plus how many were overwritten before
/// they could be read). Intended for quiescent regions — see the module
/// docs for the happens-before contract.
pub fn events_since(marks: &[u64]) -> Vec<(Vec<Event>, u64)> {
    let Some(rings) = rings() else { return vec![(Vec::new(), 0); lane_count()] };
    rings
        .iter()
        .enumerate()
        .map(|(lane, ring)| {
            let from = marks.get(lane).copied().unwrap_or(0);
            let head = ring.head.load(Ordering::Acquire);
            let cap = ring.slots.len() as u64;
            let avail_from = head.saturating_sub(cap).max(from);
            let dropped = avail_from - from.min(head);
            let mut events = Vec::with_capacity((head - avail_from) as usize);
            for i in avail_from..head {
                let slot = &ring.slots[(i % cap) as usize];
                let meta = slot.meta.load(Ordering::Relaxed);
                let Some(kind) = EventKind::from_index(meta & 0xff) else { continue };
                events.push(Event {
                    ts_ns: slot.ts.load(Ordering::Relaxed),
                    kind,
                    tag: slot.tag.load(Ordering::Relaxed),
                    arg: (meta >> 8) as u32,
                });
            }
            (events, dropped)
        })
        .collect()
}

/// Cumulative per-kind event totals for each lane, indexed
/// `[lane][EventKind]` in [`EventKind::ALL`] order. Unlike the ring
/// buffers these never drop, so bracketing a region with two calls
/// reconciles exactly against [`crate::pool_stats`] deltas (see the
/// module-doc table).
pub fn kind_counts() -> Vec<[u64; KIND_COUNT]> {
    let Some(rings) = rings() else { return vec![[0; KIND_COUNT]; lane_count()] };
    rings.iter().map(|r| std::array::from_fn(|k| r.counts[k].load(Ordering::Relaxed))).collect()
}

/// Current length of the dependency-edge log (a cursor for
/// [`edges_since`]).
pub fn edge_mark() -> usize {
    EDGES.lock().unwrap().len()
}

/// Dependency edges `(from_tag, to_tag)` logged since `mark` by DAG
/// runs whose nodes carry tags.
pub fn edges_since(mark: usize) -> Vec<(u64, u64)> {
    let edges = EDGES.lock().unwrap();
    edges.get(mark.min(edges.len())..).map(<[_]>::to_vec).unwrap_or_default()
}

/// Append dependency edges (called by `DagBuilder::run` while
/// recording; one lock per DAG level).
pub(crate) fn record_edges(pairs: &[(u64, u64)]) {
    if pairs.is_empty() {
        return;
    }
    EDGES.lock().unwrap().extend_from_slice(pairs);
}

/// Claim a fresh DAG instance id (nonzero). Instance ids disambiguate
/// sibling sub-DAGs whose nodes share `(level, node)` coordinates.
pub(crate) fn next_dag_instance() -> u64 {
    DAG_INSTANCE.fetch_add(1, Ordering::Relaxed) + 1
}

/// Task-tag encoding. A tag is a `u64` with the namespace in the high
/// byte; `0` is "untagged". Callers build partial tags (namespace +
/// coordinates); `DagBuilder::run` splices the per-run instance id into
/// bits 16..48 so tags name task *instances*, not just coordinates.
pub mod tag {
    /// Namespace byte for Strassen schedule DAG nodes.
    pub const NS_STRASSEN: u8 = 1;
    /// Namespace byte for parallel-GEMM block tasks.
    pub const NS_GEMM: u8 = 2;

    /// Tag for a Strassen DAG node: recursion `level` and `node` index
    /// in declaration order (0..21 for the seven-temp schedule).
    pub fn strassen_node(level: u8, node: u8) -> u64 {
        (NS_STRASSEN as u64) << 56 | (level as u64) << 8 | node as u64
    }

    /// Tag for a parallel-GEMM task: `role` (1 = packing and building the
    /// B operands, 2 = compute grid task) and a task index.
    pub fn gemm_task(role: u8, idx: u8) -> u64 {
        (NS_GEMM as u64) << 56 | (role as u64) << 8 | idx as u64
    }

    /// Namespace byte of `tag` (0 for untagged).
    pub fn namespace(tag: u64) -> u8 {
        (tag >> 56) as u8
    }

    /// Splice `instance` into a partial tag's bits 16..48.
    pub fn with_instance(tag: u64, instance: u64) -> u64 {
        tag | (instance & 0xffff_ffff) << 16
    }

    /// Instance id carried by `tag` (0 = none).
    pub fn instance(tag: u64) -> u64 {
        tag >> 16 & 0xffff_ffff
    }

    /// Recursion level carried by `tag`.
    pub fn level(tag: u64) -> u8 {
        (tag >> 8) as u8
    }

    /// Node (or block) index carried by `tag`.
    pub fn node(tag: u64) -> u8 {
        tag as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn init() {
        let _ = crate::set_num_threads(4);
    }

    /// Recording sessions are process-global; tests that bracket one
    /// serialize here so they never observe each other's events *as
    /// their own* (reconciliation is immune — both sides see the same
    /// foreign activity — but exclusivity keeps the asserts readable).
    static SESSION: Mutex<()> = Mutex::new(());

    #[test]
    fn tag_roundtrip() {
        let t = tag::with_instance(tag::strassen_node(3, 17), 0xabcd);
        assert_eq!(tag::namespace(t), tag::NS_STRASSEN);
        assert_eq!(tag::level(t), 3);
        assert_eq!(tag::node(t), 17);
        assert_eq!(tag::instance(t), 0xabcd);
        let g = tag::gemm_task(2, 9);
        assert_eq!(tag::namespace(g), tag::NS_GEMM);
        assert_eq!(tag::level(g), 2);
        assert_eq!(tag::node(g), 9);
        assert_eq!(tag::instance(g), 0);
    }

    #[test]
    fn ring_drops_oldest_but_counts_all() {
        let ring = Ring::new(64);
        for i in 0..100u32 {
            ring.record(EventKind::Mark, 7, i);
        }
        assert_eq!(ring.counts[EventKind::Mark.index()].load(Ordering::Relaxed), 100);
        assert_eq!(ring.head.load(Ordering::Relaxed), 100);
        // events_since logic, applied manually: only the last 64 remain.
        let head = ring.head.load(Ordering::Acquire);
        let from = head - 64;
        let args: Vec<u32> = (from..head)
            .map(|i| (ring.slots[(i % 64) as usize].meta.load(Ordering::Relaxed) >> 8) as u32)
            .collect();
        assert_eq!(args, (36..100).collect::<Vec<_>>());
    }

    #[test]
    fn recording_off_records_nothing() {
        init();
        let _guard = SESSION.lock().unwrap();
        assert!(!is_recording());
        let before = kind_counts();
        crate::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| std::hint::black_box(()));
            }
        });
        let after = kind_counts();
        assert_eq!(before, after, "no events while recording is off");
    }

    #[test]
    fn events_record_spawn_start_finish() {
        init();
        let _guard = SESSION.lock().unwrap();
        let marks = marks();
        assert!(!start_recording());
        crate::scope(|s| {
            for _ in 0..8 {
                s.spawn_tagged(None, tag::gemm_task(0, 3), || std::hint::black_box(()));
            }
        });
        assert!(stop_recording());
        let lanes = events_since(&marks);
        let all: Vec<Event> = lanes.iter().flat_map(|(ev, _)| ev.iter().copied()).collect();
        // Count only this test's own tag: concurrent tests in this binary
        // may run pool work (untagged) inside our recording bracket.
        let ours = |k: EventKind| all.iter().filter(|e| e.kind == k && e.tag == tag::gemm_task(0, 3)).count();
        assert_eq!(ours(EventKind::Spawn), 8);
        assert_eq!(ours(EventKind::Start), 8);
        assert_eq!(ours(EventKind::Finish), 8);
        for e in all.iter().filter(|e| e.tag != 0) {
            assert_eq!(tag::namespace(e.tag), tag::NS_GEMM);
            assert_eq!(tag::node(e.tag), 3);
        }
        // Timestamps are monotone within each lane.
        for (events, dropped) in &lanes {
            assert_eq!(*dropped, 0);
            for w in events.windows(2) {
                assert!(w[0].ts_ns <= w[1].ts_ns, "lane timestamps must be monotone");
            }
        }
    }

    #[test]
    fn ring_counts_reconcile_with_pool_stats() {
        init();
        let _guard = SESSION.lock().unwrap();
        // Bracket: recording spans the whole stats window, so every
        // counted aggregate increment has a matching ring event. Tests
        // from this binary running concurrently can straddle a bracket
        // edge mid-job (counter bumped outside, event inside, or vice
        // versa), so on a mismatch the whole bracket is retried — a
        // bracket with quiet edges reconciles exactly, per the table in
        // the module docs.
        let mut last_err = String::new();
        for attempt in 0..10 {
            start_recording();
            let stats_before = crate::pool_stats();
            let counts_before = kind_counts();
            for _ in 0..4 {
                crate::scope(|s| {
                    for i in 0..32 {
                        s.spawn_at(i % 2, || {
                            std::hint::black_box((0..20_000).sum::<u64>());
                        });
                    }
                });
            }
            // Let in-flight foreign jobs drain before closing the bracket.
            std::thread::sleep(std::time::Duration::from_millis(10 * (attempt + 1)));
            let stats_after = crate::pool_stats();
            let counts_after = kind_counts();
            stop_recording();

            let delta = stats_after.since(&stats_before);
            let kind_delta = |lane: usize, kind: EventKind| -> u64 {
                counts_after[lane][kind.index()] - counts_before[lane][kind.index()]
            };
            let total =
                |kind: EventKind| -> u64 { (0..counts_after.len()).map(|l| kind_delta(l, kind)).sum() };

            // The module-doc reconciliation table, pinned exactly.
            let mut checks: Vec<(String, u64, u64)> = vec![
                ("spawn events == wake notifies".into(), total(EventKind::Spawn), delta.wake_notifies),
                (
                    "start events == executed jobs (workers + helpers)".into(),
                    total(EventKind::Start),
                    delta.total_jobs() + delta.helper_pops,
                ),
                ("finish pairs with start".into(), total(EventKind::Finish), total(EventKind::Start)),
                ("helper-pop events == helper pops".into(), total(EventKind::HelperPop), delta.helper_pops),
            ];
            for (i, w) in delta.workers.iter().enumerate() {
                checks.push((format!("worker {i} steals"), kind_delta(i, EventKind::Steal), w.steals));
                checks.push((format!("worker {i} parks"), kind_delta(i, EventKind::Park), w.parks));
            }
            // External lanes never record steals or parks of their own.
            for lane in worker_lanes()..lane_count() {
                checks.push((format!("lane {lane} ext steals"), kind_delta(lane, EventKind::Steal), 0));
                checks.push((format!("lane {lane} ext parks"), kind_delta(lane, EventKind::Park), 0));
            }
            match checks.iter().find(|(_, a, b)| a != b) {
                None => return,
                Some((what, a, b)) => last_err = format!("attempt {attempt}: {what}: {a} != {b}"),
            }
        }
        panic!("ring counts never reconciled with pool stats: {last_err}");
    }
}
