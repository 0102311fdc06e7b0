//! Wall-clock spans recorded around the benchmark's calls into each
//! layer, kept in memory and written out once as a Chrome trace that
//! Perfetto (`ui.perfetto.dev`) and `chrome://tracing` load directly.
//!
//! A disabled tracer reads no clock and stores nothing, so the untraced
//! run executes the same code with only a branch per call.

use std::fmt::Write as _;
use std::time::Instant;

use exclusion_shmem::probe::{Probe, SpanScope, TraceEvent};

/// One closed span: a named interval and the span that enclosed it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `lb.construct`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self::with_origin(enabled, Instant::now())
    }

    /// A tracer whose timestamps count from `origin`, so spans of
    /// several tracers sharing it line up in one trace.
    #[must_use]
    pub fn with_origin(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Moves every span of `other` (same origin) into this tracer.
    pub fn append(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; it encloses every span opened before the matching
    /// [`close`](Self::close).
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            dur_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].dur_ns = end - self.spans[i].start_ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// Every closed span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds spent in spans named `name`.
    #[must_use]
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .sum()
    }

    /// The spans as a Chrome trace-event JSON document (complete `X`
    /// events in microseconds, the enclosing span named in `args`).
    #[must_use]
    pub fn chrome_json(&self, process: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
        );
        for s in &self.spans {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or("", |p| self.spans[p].name);
            let _ = write!(
                out,
                ",{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{cat}\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":\"{parent}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
            );
        }
        out.push_str("]}");
        out
    }
}

/// Bridges an engine's own phase spans (`SpanStart`/`SpanEnd` probe
/// events, e.g. the explorer's certification and worst-case passes)
/// into the tracer as child spans of the current call.
pub struct PhaseProbe<'a> {
    tracer: &'a mut Tracer,
}

impl<'a> PhaseProbe<'a> {
    /// A probe forwarding phase spans into `tracer`.
    pub fn new(tracer: &'a mut Tracer) -> Self {
        PhaseProbe { tracer }
    }
}

impl Probe for PhaseProbe<'_> {
    fn enabled(&self) -> bool {
        self.tracer.enabled()
    }

    fn record(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::SpanStart { scope, .. } => self.tracer.open(match scope {
                SpanScope::Explore => "explore.certify",
                SpanScope::Worst => "explore.worst",
                SpanScope::Game | SpanScope::Run => "engine.phase",
            }),
            TraceEvent::SpanEnd { .. } => self.tracer.close(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new(true);
        t.span("a", |t| {
            t.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.total_ms("a") >= t.total_ms("b") && t.total_ms("b") >= 2.0);
        let json = t.chrome_json("test");
        assert!(json.contains("\"name\":\"b\"") && json.contains("\"parent\":\"a\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
