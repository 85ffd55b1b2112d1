//! In-memory span recorder for traced runs, written out at exit as a Chrome
//! trace-event file (opens in Perfetto or `chrome://tracing`).
//!
//! Spans are recorded by the benchmark around its calls into the program —
//! passes, backend calls, sink-delivered chunks and layer replays — never
//! from inside the program.

use crate::json::Json;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

/// Small stable id of the calling thread, for the trace's `tid` field.
fn thread_id() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            // Relaxed: the counter only hands out distinct ids.
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves an id, so a span's children can name it before it ends.
    pub fn id(&self) -> u64 {
        // Relaxed: ids only need to be distinct.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span under a reserved id.
    pub fn record(&self, id: u64, parent: Option<u64>, name: &str, start: Instant, end: Instant) {
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            thread: thread_id(),
        };
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(span);
    }

    /// Times `f` as a span with a fresh id; `f` receives that id so it can
    /// parent its own spans.
    pub fn span<R>(&self, parent: Option<u64>, name: &str, f: impl FnOnce(u64) -> R) -> R {
        let id = self.id();
        let start = Instant::now();
        let value = f(id);
        self.record(id, parent, name, start, Instant::now());
        value
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone()
    }

    /// The spans as a Chrome trace-event document: complete (`"X"`) events
    /// on one "measured" process, one track per thread.
    pub fn chrome_trace(&self) -> Json {
        let events: Vec<Json> = self
            .spans()
            .into_iter()
            .map(|s| {
                let args = Json::obj().with("id", s.id).with(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                );
                Json::obj()
                    .with("name", s.name)
                    .with("cat", "measured")
                    .with("ph", "X")
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
                    .with("pid", 1u64)
                    .with("tid", s.thread)
                    .with("args", args)
            })
            .collect();
        Json::obj()
            .with("displayTimeUnit", "ms")
            .with("traceEvents", events)
    }
}

/// Records a span when a recorder is present; otherwise just runs `f`.
pub fn maybe_span<R>(
    rec: Option<&Recorder>,
    parent: Option<u64>,
    name: &str,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    match rec {
        Some(rec) => rec.span(parent, name, |id| f(Some(id))),
        None => f(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_chrome_events() {
        let rec = Recorder::new();
        rec.span(None, "pass", |pass| {
            rec.span(Some(pass), "call", |_| ());
            maybe_span(Some(&rec), Some(pass), "replay", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let pass = spans.iter().find(|s| s.name == "pass").unwrap();
        for child in spans.iter().filter(|s| s.name != "pass") {
            assert_eq!(child.parent, Some(pass.id));
            assert!(child.start_ns >= pass.start_ns && child.end_ns <= pass.end_ns);
        }
        let doc = Json::parse(&rec.chrome_trace().to_line()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
        assert_eq!(maybe_span(None, None, "off", |id| id), None);
    }
}
