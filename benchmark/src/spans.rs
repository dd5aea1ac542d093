//! The benchmark's own span log for traced runs: one span around each
//! call the benchmark makes into a layer, kept in memory and written out
//! when the run ends. The program under test records nothing.

use std::time::{Duration, Instant};

use strassen::probe::json::JsonWriter;

/// Spans beyond this are counted, not kept.
const CAP: usize = 1 << 17;

struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    parent: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new(), dropped: 0 }
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        dur: Duration,
        parent: Option<usize>,
    ) -> Option<usize> {
        if self.spans.len() >= CAP {
            self.dropped += 1;
            return None;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, start_ns, dur_ns: dur.as_nanos() as u64, parent });
        Some(self.spans.len() - 1)
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start, start.elapsed(), parent);
        out
    }

    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("dropped");
        w.value_u64(self.dropped);
        w.key("spans");
        w.begin_array();
        for (id, s) in self.spans.iter().enumerate() {
            w.begin_object();
            w.key("id");
            w.value_u64(id as u64);
            w.key("name");
            w.value_str(s.name);
            w.key("start_ns");
            w.value_u64(s.start_ns);
            w.key("dur_ns");
            w.value_u64(s.dur_ns);
            if let Some(p) = s.parent {
                w.key("parent");
                w.value_u64(p as u64);
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}
