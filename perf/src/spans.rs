//! In-memory host-time spans recorded around calls into the library.
//!
//! The benchmark times the simulator from the outside: each span
//! brackets one public call (or a group of them) with `Instant` reads.
//! Spans nest through an open-span stack, so every span knows the span
//! that caused it. A disabled recorder is a no-op, which lets the
//! untraced and traced passes share one code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Which call the span brackets, e.g. `render_frame_parallel`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The session (scene) the call served, if it served one.
    pub session: Option<usize>,
}

/// Handle returned by [`Spans::enter`], consumed by [`Spans::exit`].
#[must_use = "an entered span must be exited"]
pub struct SpanId(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records.
    pub fn enabled() -> Self {
        Self {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder whose `enter`/`exit` do nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::enabled()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, session: Option<usize>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            session,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        session: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, session);
        let out = f();
        self.exit(id);
        out
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Total self time (duration minus the time covered by child spans)
    /// per span name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph": "X"`) event per span, thread = session + 1
    /// (thread 0 for spans that serve no single session). Exact integer
    /// bounds and the parent index ride along in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let tid = s.session.map_or(0, |k| k + 1);
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.start_ns,
                s.end_ns,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}
