//! Execution-timeline capture and Chrome trace-event export.
//!
//! [`record`] brackets a closure with the pool's event-ring recording
//! ([`pool::ring`]): every task spawn / steal / start / finish /
//! idle-park that happens inside the bracket lands in per-worker ring
//! buffers, tagged with Strassen DAG node ids and recursion levels (see
//! `pool::ring::tag`). The captured [`Timeline`] can be
//!
//! - rendered as Chrome trace-event JSON with [`chrome_trace_json`] —
//!   load the file at `ui.perfetto.dev` (or `chrome://tracing`) to see
//!   one lane per worker, a duration slice per task, flow arrows along
//!   the DAG's dependency edges, and counter tracks for queue depth and
//!   arena high-water;
//! - reduced to its scheduler-invariant [`Structure`] — the multiset of
//!   tagged tasks and instance-stripped dependency edges — which the
//!   determinism suite asserts is run-to-run identical even though
//!   timestamps never are;
//! - summarized into the schema-2 profile report
//!   (`probe::json::report_json_full`).
//!
//! Recording is observation only: rings are written on paths the pool
//! already executes, behind one relaxed atomic load when off, and
//! nothing about scheduling, task order, or floating-point arithmetic
//! changes when it is on (`tests/timeline_determinism.rs` pins
//! tracing-on ≡ tracing-off bitwise).

use pool::ring::{self, Event, EventKind};
use std::collections::BTreeMap;
use std::sync::Mutex;

use super::json::JsonWriter;
use crate::schedules::seven_temp::SEVEN_TEMP;

/// One captured ring lane: its events in recording order plus how many
/// were overwritten (ring capacity exceeded) before capture.
#[derive(Clone, Debug, Default)]
pub struct Lane {
    /// Decoded events, timestamp-monotone within the lane.
    pub events: Vec<Event>,
    /// Events lost to ring wrap-around during the bracket.
    pub dropped: u64,
}

/// A captured execution timeline: every pool lane's events plus the DAG
/// dependency edges logged during the recording bracket.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Per-lane events; lanes `0..workers` are pool workers, the rest
    /// belong to external (helping/spawning) threads.
    pub lanes: Vec<Lane>,
    /// Dependency edges `(from_tag, to_tag)` between tagged DAG nodes.
    pub edges: Vec<(u64, u64)>,
    /// Number of pool-worker lanes.
    pub workers: usize,
}

/// Recording brackets are process-global (one ring set, one flag), so
/// concurrent [`record`] calls serialize here — otherwise two overlapping
/// brackets would capture each other's events.
static RECORD_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with timeline recording on and capture everything the pool
/// logged while it ran. Returns `f`'s result and the [`Timeline`].
///
/// Concurrent `record` calls from other threads serialize; pool activity
/// from elsewhere in the process during the bracket is captured too (it
/// shares the rings), so timelines intended for analysis should bracket
/// exactly the computation of interest.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, Timeline) {
    let _guard = RECORD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let marks = ring::marks();
    let edge_mark = ring::edge_mark();
    // Stop recording even if `f` panics, so a failed bracket cannot leave
    // the process recording forever.
    struct StopOnDrop;
    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            ring::stop_recording();
        }
    }
    ring::start_recording();
    let stop = StopOnDrop;
    let result = f();
    drop(stop);
    let lanes =
        ring::events_since(&marks).into_iter().map(|(events, dropped)| Lane { events, dropped }).collect();
    let timeline = Timeline { lanes, edges: ring::edges_since(edge_mark), workers: ring::worker_lanes() };
    (result, timeline)
}

/// The scheduler-invariant shape of a timeline: which tagged tasks ran
/// and which dependency edges connected them, with run-varying detail
/// (timestamps, worker assignment, DAG instance ids) stripped.
///
/// Two runs of the same configured multiply must produce equal
/// structures; this is what the determinism suite compares.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Structure {
    /// Executed Strassen-tagged tasks, keyed `(level, node)` →
    /// occurrence count (node indexes the seven-temp declaration order).
    pub tasks: BTreeMap<TaskKey, u64>,
    /// Dependency edges between Strassen-tagged tasks, instance-stripped:
    /// `((level, node), (level, node))` → occurrence count.
    pub edges: BTreeMap<(TaskKey, TaskKey), u64>,
}

/// A `(level, node)` pair identifying a tagged task class within the
/// seven-temp declaration order, with the DAG instance id stripped.
pub type TaskKey = (u8, u8);

impl Timeline {
    /// All events of every lane, flattened (lane order, then recording
    /// order within a lane).
    pub fn all_events(&self) -> impl Iterator<Item = &Event> {
        self.lanes.iter().flat_map(|l| l.events.iter())
    }

    /// Total events dropped to ring wrap-around across all lanes.
    pub fn total_dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    /// Number of task duration events (start/finish pairs) captured.
    pub fn duration_events(&self) -> usize {
        self.all_events().filter(|e| e.kind == EventKind::Start).count()
    }

    /// Executed Strassen-tagged tasks per recursion level.
    pub fn per_level_task_counts(&self) -> BTreeMap<u8, u64> {
        let mut counts = BTreeMap::new();
        for e in self.all_events() {
            if e.kind == EventKind::Start && ring::tag::namespace(e.tag) == ring::tag::NS_STRASSEN {
                *counts.entry(ring::tag::level(e.tag)).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Reduce to the scheduler-invariant [`Structure`].
    pub fn structure(&self) -> Structure {
        let mut s = Structure::default();
        for e in self.all_events() {
            if e.kind == EventKind::Start && ring::tag::namespace(e.tag) == ring::tag::NS_STRASSEN {
                *s.tasks.entry((ring::tag::level(e.tag), ring::tag::node(e.tag))).or_insert(0) += 1;
            }
        }
        let coord = |tag: u64| (ring::tag::level(tag), ring::tag::node(tag));
        for &(from, to) in &self.edges {
            if ring::tag::namespace(from) == ring::tag::NS_STRASSEN
                && ring::tag::namespace(to) == ring::tag::NS_STRASSEN
            {
                *s.edges.entry((coord(from), coord(to))).or_insert(0) += 1;
            }
        }
        s
    }
}

/// Human-readable slice name for a task tag.
fn tag_name(tag: u64) -> String {
    match ring::tag::namespace(tag) {
        ring::tag::NS_STRASSEN => {
            let node = ring::tag::node(tag) as usize;
            let name = SEVEN_TEMP.nodes().get(node).map_or("node", |n| n.name.as_str());
            format!("L{}:{}", ring::tag::level(tag), name)
        }
        ring::tag::NS_GEMM => {
            let role = match ring::tag::level(tag) {
                1 => "packB",
                2 => "rows",
                _ => "task",
            };
            format!("gemm:{}{}", role, ring::tag::node(tag))
        }
        _ => "task".to_string(),
    }
}

/// Microsecond timestamp for the Chrome `ts` field.
fn ts_us(ts_ns: u64) -> f64 {
    ts_ns as f64 / 1000.0
}

/// Common event prelude: `"pid":0,"tid":<lane>,"ts":<us>`.
fn event_head(w: &mut JsonWriter, name: &str, ph: &str, lane: usize, ts_ns: u64) {
    w.begin_object();
    w.key("name");
    w.value_str(name);
    w.key("ph");
    w.value_str(ph);
    w.key("pid");
    w.value_u64(0);
    w.key("tid");
    w.value_u64(lane as u64);
    w.key("ts");
    w.value_f64(ts_us(ts_ns));
}

/// Render a [`Timeline`] as a Chrome trace-event JSON document
/// (Perfetto-loadable): thread-name metadata for every lane, `B`/`E`
/// duration events per task, `i` instants for steals / helper pops /
/// parks / dgefmm marks, `s`/`f` flow events along the DAG dependency
/// edges, and `C` counter tracks for queue depth and (when provided)
/// the workspace arena high-water mark in elements.
pub fn chrome_trace_json(tl: &Timeline, arena_high_water: Option<u64>) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("displayTimeUnit");
    w.value_str("ns");
    w.key("traceEvents");
    w.begin_array();

    // Process + thread metadata: one named lane per pool worker (always,
    // even when idle — "one lane per worker" is the acceptance shape),
    // external lanes only when they saw events.
    {
        w.begin_object();
        w.key("name");
        w.value_str("process_name");
        w.key("ph");
        w.value_str("M");
        w.key("pid");
        w.value_u64(0);
        w.key("tid");
        w.value_u64(0);
        w.key("args");
        w.begin_object();
        w.key("name");
        w.value_str("strassen");
        w.end_object();
        w.end_object();
    }
    for (lane, l) in tl.lanes.iter().enumerate() {
        if lane >= tl.workers && l.events.is_empty() {
            continue;
        }
        let name = if lane < tl.workers {
            format!("worker {lane}")
        } else {
            format!("external {}", lane - tl.workers)
        };
        w.begin_object();
        w.key("name");
        w.value_str("thread_name");
        w.key("ph");
        w.value_str("M");
        w.key("pid");
        w.value_u64(0);
        w.key("tid");
        w.value_u64(lane as u64);
        w.key("args");
        w.begin_object();
        w.key("name");
        w.value_str(&name);
        w.end_object();
        w.end_object();
    }

    // Duration + instant events, lane by lane. Start/Finish pairs nest
    // like a call stack per thread (a worker that helps a nested scope
    // executes the inner task inside the outer one's span), which is
    // exactly the Chrome B/E contract. Orphans from ring wrap-around are
    // tolerated: an unmatched Finish is skipped, unmatched Starts are
    // closed at the lane's last timestamp.
    for (lane, l) in tl.lanes.iter().enumerate() {
        let mut open = 0usize;
        let mut last_ts = 0u64;
        for e in &l.events {
            last_ts = last_ts.max(e.ts_ns);
            match e.kind {
                EventKind::Start => {
                    event_head(&mut w, &tag_name(e.tag), "B", lane, e.ts_ns);
                    w.end_object();
                    open += 1;
                }
                EventKind::Finish => {
                    if open > 0 {
                        event_head(&mut w, &tag_name(e.tag), "E", lane, e.ts_ns);
                        w.end_object();
                        open -= 1;
                    }
                }
                EventKind::Steal | EventKind::HelperPop => {
                    event_head(&mut w, e.kind.label(), "i", lane, e.ts_ns);
                    w.key("s");
                    w.value_str("t");
                    w.key("args");
                    w.begin_object();
                    w.key("victim");
                    w.value_u64(e.arg as u64);
                    w.end_object();
                    w.end_object();
                }
                EventKind::Park => {
                    event_head(&mut w, "park", "i", lane, e.ts_ns);
                    w.key("s");
                    w.value_str("t");
                    w.end_object();
                }
                EventKind::Mark => {
                    let name = if e.arg == 0 { "dgefmm_start" } else { "dgefmm_end" };
                    event_head(&mut w, name, "i", lane, e.ts_ns);
                    w.key("s");
                    w.value_str("p");
                    w.end_object();
                }
                EventKind::Spawn => {} // rendered as the queue-depth track
            }
        }
        for _ in 0..open {
            event_head(&mut w, "truncated", "E", lane, last_ts);
            w.end_object();
        }
    }

    // Flow events: one s→f arrow per DAG dependency edge whose endpoints
    // both executed inside the bracket, anchored at the source task's
    // Finish and the destination task's Start.
    let mut starts: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
    let mut finishes: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
    for (lane, l) in tl.lanes.iter().enumerate() {
        for e in &l.events {
            if e.tag == 0 {
                continue;
            }
            match e.kind {
                EventKind::Start => {
                    starts.entry(e.tag).or_insert((lane, e.ts_ns));
                }
                EventKind::Finish => {
                    finishes.insert(e.tag, (lane, e.ts_ns));
                }
                _ => {}
            }
        }
    }
    for (id, &(from, to)) in tl.edges.iter().enumerate() {
        let (Some(&(f_lane, f_ts)), Some(&(s_lane, s_ts))) = (finishes.get(&from), starts.get(&to)) else {
            continue;
        };
        event_head(&mut w, "dep", "s", f_lane, f_ts);
        w.key("cat");
        w.value_str("dag");
        w.key("id");
        w.value_u64(id as u64);
        w.end_object();
        event_head(&mut w, "dep", "f", s_lane, s_ts);
        w.key("cat");
        w.value_str("dag");
        w.key("id");
        w.value_u64(id as u64);
        w.key("bp");
        w.value_str("e");
        w.end_object();
    }

    // Queue-depth counter track: +1 on every spawn, −1 on every start,
    // merged across lanes in timestamp order.
    let mut queue_points: Vec<(u64, i64)> = tl
        .all_events()
        .filter_map(|e| match e.kind {
            EventKind::Spawn => Some((e.ts_ns, 1)),
            EventKind::Start => Some((e.ts_ns, -1)),
            _ => None,
        })
        .collect();
    queue_points.sort_unstable();
    let mut depth = 0i64;
    for (ts, delta) in queue_points {
        depth = (depth + delta).max(0);
        event_head(&mut w, "queue_depth", "C", 0, ts);
        w.key("args");
        w.begin_object();
        w.key("queued");
        w.value_u64(depth as u64);
        w.end_object();
        w.end_object();
    }

    // Arena high-water counter (one point — it is a high-water mark, not
    // a time series), anchored at the bracket's first event.
    if let Some(high_water) = arena_high_water {
        let t0 = tl.all_events().map(|e| e.ts_ns).min().unwrap_or(0);
        event_head(&mut w, "arena_high_water", "C", 0, t0);
        w.key("args");
        w.begin_object();
        w.key("elements");
        w.value_u64(high_water);
        w.end_object();
        w.end_object();
    }

    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pool::ring::tag;

    fn ev(ts_ns: u64, kind: EventKind, tag: u64, arg: u32) -> Event {
        Event { ts_ns, kind, tag, arg }
    }

    /// A synthetic two-worker timeline: worker 0 runs s1 then p5 (with a
    /// steal), worker 1 runs p1; one external lane spawns everything.
    /// Synthetic (rather than recorded) so the expected counts are exact
    /// regardless of what other tests do to the global pool.
    fn sample() -> Timeline {
        let inst = |t| tag::with_instance(t, 9);
        let s1 = inst(tag::strassen_node(0, 0));
        let p5 = inst(tag::strassen_node(0, 12));
        let p1 = inst(tag::strassen_node(0, 8));
        Timeline {
            lanes: vec![
                Lane {
                    events: vec![
                        ev(100, EventKind::Start, s1, 0),
                        ev(200, EventKind::Finish, s1, 0),
                        ev(210, EventKind::Steal, 0, 1),
                        ev(220, EventKind::Start, p5, 0),
                        ev(400, EventKind::Finish, p5, 0),
                        ev(450, EventKind::Park, 0, 0),
                    ],
                    dropped: 0,
                },
                Lane {
                    events: vec![ev(120, EventKind::Start, p1, 0), ev(300, EventKind::Finish, p1, 0)],
                    dropped: 0,
                },
                Lane {
                    events: vec![
                        ev(10, EventKind::Mark, 0, 0),
                        ev(20, EventKind::Spawn, s1, 0),
                        ev(21, EventKind::Spawn, p1, 0),
                        ev(22, EventKind::Spawn, p5, 0),
                        ev(500, EventKind::Mark, 0, 1),
                    ],
                    dropped: 0,
                },
            ],
            edges: vec![(s1, p5)],
            workers: 2,
        }
    }

    #[test]
    fn structure_strips_instances_and_counts_tasks() {
        let s = sample().structure();
        assert_eq!(s.tasks.len(), 3);
        assert_eq!(s.tasks[&(0, 0)], 1); // s1
        assert_eq!(s.tasks[&(0, 8)], 1); // p1
        assert_eq!(s.tasks[&(0, 12)], 1); // p5
        assert_eq!(s.edges.len(), 1);
        assert_eq!(s.edges[&((0, 0), (0, 12))], 1);
        // Same timeline with a different instance id → same structure.
        let mut other = sample();
        for lane in &mut other.lanes {
            for e in &mut lane.events {
                if e.tag != 0 {
                    e.tag = tag::with_instance(e.tag & !(0xffff_ffff << 16), 4242);
                }
            }
        }
        other.edges = other
            .edges
            .iter()
            .map(|&(a, b)| {
                (
                    tag::with_instance(a & !(0xffff_ffff << 16), 4242),
                    tag::with_instance(b & !(0xffff_ffff << 16), 4242),
                )
            })
            .collect();
        assert_eq!(other.structure(), s);
    }

    #[test]
    fn per_level_counts_and_duration_events() {
        let tl = sample();
        assert_eq!(tl.duration_events(), 3);
        assert_eq!(tl.per_level_task_counts(), BTreeMap::from([(0u8, 3u64)]));
        assert_eq!(tl.total_dropped(), 0);
    }

    #[test]
    fn chrome_export_is_strictly_valid_and_complete() {
        let tl = sample();
        let json = chrome_trace_json(&tl, Some(12345));
        let doc = testkit::json::Json::parse(&json).expect("exported trace must parse strictly");
        let events = doc.get("traceEvents").and_then(|e| e.items()).expect("traceEvents array");
        let mut lanes = 0;
        let (mut begins, mut ends, mut flows_s, mut flows_f, mut counters, mut instants) = (0, 0, 0, 0, 0, 0);
        for e in events {
            let ph = e.get("ph").and_then(|p| p.as_str()).unwrap_or_default();
            let name = e.get("name").and_then(|p| p.as_str()).unwrap_or_default();
            match (ph, name) {
                ("M", "thread_name") => lanes += 1,
                ("B", _) => begins += 1,
                ("E", _) => ends += 1,
                ("s", _) => flows_s += 1,
                ("f", _) => flows_f += 1,
                ("C", _) => counters += 1,
                ("i", _) => instants += 1,
                _ => {}
            }
        }
        assert_eq!(lanes, 3, "two worker lanes + one active external lane");
        assert_eq!((begins, ends), (3, 3), "one B/E pair per task");
        assert_eq!((flows_s, flows_f), (1, 1), "one flow arrow for the s1→p5 edge");
        assert_eq!(counters, 6 + 1, "queue depth per spawn/start + arena high-water");
        assert_eq!(instants, 4, "steal + park + two dgefmm marks");
        // Duration slices carry decoded names.
        assert!(json.contains(r#""L0:s1""#), "named s1 slice in {json}");
        assert!(json.contains(r#""L0:p5""#));
        assert!(json.contains("arena_high_water"));
    }

    #[test]
    fn chrome_export_tolerates_orphan_events() {
        // A lane that lost its Start to ring wrap-around: the orphan
        // Finish is skipped and the dangling Start is closed at the end.
        let tl = Timeline {
            lanes: vec![Lane {
                events: vec![
                    ev(50, EventKind::Finish, 0, 0), // orphan finish
                    ev(60, EventKind::Start, 0, 0),  // never finished
                ],
                dropped: 3,
            }],
            edges: Vec::new(),
            workers: 1,
        };
        let json = chrome_trace_json(&tl, None);
        let doc = testkit::json::Json::parse(&json).expect("orphan events must still export cleanly");
        let events = doc.get("traceEvents").and_then(|e| e.items()).unwrap();
        let count = |want_ph: &str| {
            events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(want_ph)).count()
        };
        assert_eq!(count("B"), 1);
        assert_eq!(count("E"), 1, "dangling Start closed as truncated");
        assert_eq!(tl.total_dropped(), 3);
    }

    #[test]
    fn tag_names_decode_all_namespaces() {
        assert_eq!(tag_name(tag::strassen_node(2, 14)), "L2:p7");
        assert_eq!(tag_name(tag::strassen_node(0, 20)), "L0:c22");
        assert_eq!(tag_name(tag::gemm_task(1, 0)), "gemm:packB0");
        assert_eq!(tag_name(tag::gemm_task(2, 7)), "gemm:rows7");
        assert_eq!(tag_name(0), "task");
    }
}
