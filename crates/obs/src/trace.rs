//! Structured query tracing with chrome-trace / Perfetto export.
//!
//! Aggregate metrics say *how much* a workload cost; a trace says
//! *where one query spent it*. This module captures nested span
//! begin/end events on a thread-local stack — every [`crate::Span`]
//! automatically participates when tracing is enabled — and lets
//! instrumented code attach typed attributes (nodes visited, postings
//! scanned, plan label, …) to the innermost open span. The captured
//! events export as chrome-trace JSON (the "JSON Array Format" both
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load).
//!
//! Tracing is process-global and off by default: when disabled, the
//! only cost at a span site is one relaxed atomic load. A typical
//! session brackets the interesting work:
//!
//! ```
//! skq_obs::trace::enable();
//! {
//!     let _span = skq_obs::Span::enter("doc.example");
//!     skq_obs::trace::attach_u64("nodes_visited", 7);
//! }
//! skq_obs::trace::disable();
//! let json = skq_obs::trace::export_chrome();
//! assert!(json.contains("\"doc.example\""));
//! ```
//!
//! Spans opened while tracing is enabled are closed and recorded even
//! if tracing is disabled in between, so every `B` event in an export
//! taken after the bracketed work has its matching `E`. Re-enabling
//! clears the buffer; enable/disable should happen between queries,
//! not inside one.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Hard cap on buffered events; further events are counted as dropped.
pub const MAX_TRACE_EVENTS: usize = 1 << 20;

/// A typed attribute value attached to a span.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// An unsigned counter (the common case for `QueryStats` fields).
    U64(u64),
    /// A float (costs, ratios).
    F64(f64),
    /// A string (plan label, build tier, problem kind).
    Str(String),
    /// A boolean flag.
    Bool(bool),
}

/// One captured event: a span begin (`B`) or end (`E`) in the
/// chrome-trace sense, timestamped in microseconds since [`enable`].
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span name (shared by the matching `B`/`E` pair).
    pub name: String,
    /// `'B'` (begin) or `'E'` (end).
    pub phase: char,
    /// Microseconds since tracing was enabled.
    pub ts_micros: u64,
    /// Sequential id of the capturing thread (chrome-trace `tid`).
    pub tid: u64,
    /// Id of the root span this event belongs to; all events of one
    /// top-level query share it, and [`crate::QueryRecord::trace_id`]
    /// points back at it.
    pub trace_id: u64,
    /// Attributes attached while the span was open (on `E` events).
    pub attrs: Vec<(String, AttrValue)>,
}

struct TracerInner {
    epoch: Instant,
    events: Vec<TraceEvent>,
    dropped: u64,
}

struct Tracer {
    enabled: AtomicBool,
    inner: Mutex<TracerInner>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        inner: Mutex::new(TracerInner {
            epoch: Instant::now(),
            events: Vec::new(),
            dropped: 0,
        }),
    })
}

struct OpenSpan {
    name: String,
    trace_id: u64,
    attrs: Vec<(String, AttrValue)>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
}

fn current_tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            // relaxed: thread-id allocation; uniqueness is all that
            // matters, no ordering with other memory is implied
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Starts (or restarts) capture: clears the buffer, resets the clock.
pub fn enable() {
    let t = tracer();
    let mut inner = t.inner.lock().unwrap_or_else(PoisonError::into_inner);
    inner.events.clear();
    inner.dropped = 0;
    inner.epoch = Instant::now();
    t.enabled.store(true, Ordering::SeqCst);
}

/// Stops capture; buffered events stay available for export.
pub fn disable() {
    tracer().enabled.store(false, Ordering::SeqCst);
}

/// Whether capture is currently on.
pub fn is_enabled() -> bool {
    // relaxed: hot-path gate only; the event buffer itself is
    // published through the tracer mutex, and enable()'s SeqCst store
    // makes a stale `false` merely skip the first events
    tracer().enabled.load(Ordering::Relaxed)
}

fn record(event: TraceEvent) {
    let mut inner = tracer()
        .inner
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if inner.events.len() >= MAX_TRACE_EVENTS {
        inner.dropped += 1;
        crate::global()
            .counter("skq_trace_events_dropped_total", &[])
            .inc();
        return;
    }
    let ts = inner.epoch.elapsed().as_micros() as u64;
    let mut event = event;
    event.ts_micros = ts;
    inner.events.push(event);
}

/// Called by [`crate::Span`] on creation; returns whether the span was
/// captured (so its drop knows to emit the matching `E`).
pub(crate) fn span_begin(name: &str) -> bool {
    if !is_enabled() {
        return false;
    }
    let tid = current_tid();
    let trace_id = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let trace_id = match stack.last() {
            Some(top) => top.trace_id,
            // relaxed: trace-id allocation; uniqueness is all that
            // matters, no ordering with other memory is implied
            None => NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
        };
        stack.push(OpenSpan {
            name: name.to_string(),
            trace_id,
            attrs: Vec::new(),
        });
        trace_id
    });
    crate::global().counter("skq_trace_spans_total", &[]).inc();
    record(TraceEvent {
        name: name.to_string(),
        phase: 'B',
        ts_micros: 0,
        tid,
        trace_id,
        attrs: Vec::new(),
    });
    true
}

/// Called by [`crate::Span`] on drop when `span_begin` returned true.
pub(crate) fn span_end() {
    let popped = STACK.with(|s| s.borrow_mut().pop());
    let Some(span) = popped else { return };
    record(TraceEvent {
        name: span.name,
        phase: 'E',
        ts_micros: 0,
        tid: current_tid(),
        trace_id: span.trace_id,
        attrs: span.attrs,
    });
}

/// Attaches a typed attribute to the innermost open span on this
/// thread. A no-op when tracing is disabled or no span is open.
pub fn attach(key: &str, value: AttrValue) {
    if !is_enabled() {
        return;
    }
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.attrs.push((key.to_string(), value));
        }
    });
}

/// Attaches an unsigned counter attribute (see [`attach`]).
pub fn attach_u64(key: &str, value: u64) {
    attach(key, AttrValue::U64(value));
}

/// Attaches a string attribute (see [`attach`]).
pub fn attach_str(key: &str, value: &str) {
    attach(key, AttrValue::Str(value.to_string()));
}

/// The trace id of this thread's current root span, if one is open —
/// the pointer stored in [`crate::QueryRecord::trace_id`].
pub fn current_trace_id() -> Option<u64> {
    if !is_enabled() {
        return None;
    }
    STACK.with(|s| s.borrow().first().map(|span| span.trace_id))
}

/// Number of events currently buffered.
pub fn event_count() -> usize {
    tracer()
        .inner
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .events
        .len()
}

/// Events discarded because the buffer hit [`MAX_TRACE_EVENTS`].
pub fn dropped_events() -> u64 {
    tracer()
        .inner
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .dropped
}

/// A snapshot of the buffered events, in capture order.
pub fn snapshot() -> Vec<TraceEvent> {
    tracer()
        .inner
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .events
        .clone()
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_attr_value(out: &mut String, value: &AttrValue) {
    match value {
        AttrValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        AttrValue::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        AttrValue::F64(_) => out.push_str("null"),
        AttrValue::Str(s) => push_json_str(out, s),
        AttrValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

/// Renders the buffered events as chrome-trace JSON ("JSON Array
/// Format"): an object with a `traceEvents` array that
/// `chrome://tracing` and Perfetto load directly. Span attributes ride
/// in the `args` of the `E` event, where both viewers merge them into
/// the slice.
pub fn export_chrome() -> String {
    let inner = tracer()
        .inner
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let mut out = String::with_capacity(64 + inner.events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"skq\"}}",
    );
    for e in &inner.events {
        out.push(',');
        out.push_str("{\"name\":");
        push_json_str(&mut out, &e.name);
        let _ = write!(
            out,
            ",\"cat\":\"skq\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{",
            e.phase, e.ts_micros, e.tid
        );
        let _ = write!(out, "\"trace_id\":{}", e.trace_id);
        for (k, v) in &e.attrs {
            out.push(',');
            push_json_str(&mut out, k);
            out.push(':');
            push_attr_value(&mut out, v);
        }
        out.push_str("}}");
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"skq\":{{\"dropped_events\":{}}}}}",
        inner.dropped
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Span;

    // The tracer is process-global; serialize the tests that toggle it.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracing_captures_nothing() {
        let _g = guard();
        disable();
        enable();
        disable();
        {
            let _span = Span::enter("trace.test.off");
            attach_u64("x", 1);
        }
        assert_eq!(event_count(), 0);
        assert_eq!(current_trace_id(), None);
    }

    #[test]
    fn nested_spans_pair_and_share_trace_id() {
        let _g = guard();
        enable();
        {
            let _outer = Span::enter("trace.test.outer");
            let outer_id = current_trace_id().expect("root id");
            {
                let _inner = Span::enter("trace.test.inner");
                assert_eq!(current_trace_id(), Some(outer_id));
                attach_u64("nodes_visited", 42);
            }
        }
        disable();
        let events = snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.phase).collect::<Vec<_>>(),
            vec!['B', 'B', 'E', 'E']
        );
        // outer-B, inner-B, inner-E, outer-E — one shared trace id.
        let id = events[0].trace_id;
        assert!(events.iter().all(|e| e.trace_id == id));
        assert_eq!(events[2].name, "trace.test.inner");
        assert_eq!(
            events[2].attrs,
            vec![("nodes_visited".to_string(), AttrValue::U64(42))]
        );
        // Timestamps are monotone within the capture.
        assert!(events.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
    }

    #[test]
    fn sibling_roots_get_distinct_trace_ids() {
        let _g = guard();
        enable();
        let a = {
            let _s = Span::enter("trace.test.a");
            current_trace_id().unwrap()
        };
        let b = {
            let _s = Span::enter("trace.test.b");
            current_trace_id().unwrap()
        };
        disable();
        assert_ne!(a, b);
    }

    #[test]
    fn export_is_wellformed_chrome_trace() {
        let _g = guard();
        enable();
        {
            let _s = Span::enter("trace.test.export");
            attach_str("plan", "framework");
            attach("cost", AttrValue::F64(12.5));
            attach(
                "quoted\"name",
                AttrValue::Str("line\nbreak\\slash".to_string()),
            );
        }
        disable();
        let json = export_chrome();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"plan\":\"framework\""));
        assert!(json.contains("\"cost\":12.5"));
        assert!(json.contains("\\\"name\""));
        assert!(json.contains("line\\nbreak\\\\slash"));
        // Balanced braces (cheap well-formedness proxy; the integration
        // tests parse it with a real JSON parser).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn reenable_clears_previous_capture() {
        let _g = guard();
        enable();
        {
            let _s = Span::enter("trace.test.first");
        }
        enable();
        disable();
        assert_eq!(event_count(), 0);
    }
}
