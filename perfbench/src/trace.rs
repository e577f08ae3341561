//! In-memory span recording for the traced run, and its export as a span
//! list plus a Chrome trace-event file (opens in Perfetto / chrome://tracing).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    pub name: &'static str,
    /// The server round the work belongs to; spans of one round share it.
    pub round: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The client a `client_update` span trained.
    pub client: Option<usize>,
    /// Items handled: clients for a runner call, updates for an aggregation.
    pub items: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span store shared by the forwarding wrappers and the session loop. It
/// also carries the ids of the currently open round and runner spans, which
/// become the parents of the spans recorded under them.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Id of the open round span and its round number.
    round_span: AtomicU64,
    round: AtomicU64,
    /// Id of the open runner span (parent of `client_update` spans).
    runner_span: AtomicU64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            round_span: AtomicU64::new(0),
            round: AtomicU64::new(0),
            runner_span: AtomicU64::new(0),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Records `name` over `[start_ns, now]` under the open round span.
    pub fn close(&self, name: &'static str, id: u64, start_ns: u64, items: usize) {
        self.push(Span {
            id,
            parent: self.round_span(),
            name,
            round: self.round(),
            start_ns,
            end_ns: self.now_ns(),
            client: None,
            items,
        });
    }

    pub fn open_round(&self, id: u64, round: u64) {
        self.round_span.store(id, Ordering::Relaxed);
        self.round.store(round, Ordering::Relaxed);
    }

    pub fn set_round(&self, round: u64) {
        self.round.store(round, Ordering::Relaxed);
    }

    pub fn round_span(&self) -> u64 {
        self.round_span.load(Ordering::Relaxed)
    }

    pub fn round(&self) -> u64 {
        self.round.load(Ordering::Relaxed)
    }

    pub fn set_runner_span(&self, id: u64) {
        self.runner_span.store(id, Ordering::Relaxed);
    }

    pub fn runner_span(&self) -> u64 {
        self.runner_span.load(Ordering::Relaxed)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn client_json(client: Option<usize>) -> String {
    client.map_or_else(|| "null".to_string(), |c| c.to_string())
}

/// The span list as JSON: `{"meta": .., "spans": [..]}`.
pub fn spans_json(meta: &str, spans: &[Span]) -> String {
    let mut out = format!("{{\"meta\":{meta},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\":{},\"parent\":{},\"name\":{},\"round\":{},\"start_ns\":{},\"end_ns\":{},\"client\":{},\"items\":{}}}",
            s.id,
            s.parent,
            json_str(s.name),
            s.round,
            s.start_ns,
            s.end_ns,
            client_json(s.client),
            s.items
        );
    }
    out.push_str("\n]}\n");
    out
}

/// The spans as Chrome trace events. Server-side spans nest on track 0;
/// client-update spans, which run on short-lived worker threads, are packed
/// greedily onto as few tracks as never overlap.
pub fn chrome_trace_json(meta: &str, spans: &[Span]) -> String {
    let mut lane_ends: Vec<u64> = Vec::new();
    let mut events = Vec::with_capacity(spans.len() + 4);
    for s in spans {
        let tid = if s.client.is_some() {
            let lane = match lane_ends.iter().position(|&end| end <= s.start_ns) {
                Some(lane) => lane,
                None => {
                    lane_ends.push(0);
                    lane_ends.len() - 1
                }
            };
            lane_ends[lane] = s.end_ns;
            lane + 1
        } else {
            0
        };
        events.push(format!(
            "{{\"name\":{},\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"round\":{},\"client\":{},\"items\":{}}}}}",
            json_str(s.name),
            tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.round,
            client_json(s.client),
            s.items
        ));
    }
    let mut names = vec![format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"server\"}}}}"
    )];
    for lane in 0..lane_ends.len() {
        names.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"clients {}\"}}}}",
            lane + 1,
            lane
        ));
    }
    names.extend(events);
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{meta},\"traceEvents\":[\n{}\n]}}\n",
        names.join(",\n")
    )
}
