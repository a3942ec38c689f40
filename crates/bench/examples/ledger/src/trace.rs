//! In-memory spans around the harness's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files only; nothing inside
//! the program is instrumented. A disabled tracer reads no clock, so the
//! untraced run (the only source of end-to-end metrics) pays one branch per
//! call site.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer; also its id in the span file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const NO_SPAN: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u32,
}

/// Collects spans while enabled; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    next_request: u32,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`].
    pub fn new() -> Tracer {
        Tracer { enabled: false, epoch: Instant::now(), spans: Vec::new(), next_request: 0 }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh request id; spans of one request share it.
    pub fn new_request(&mut self) -> u32 {
        self.next_request += 1;
        self.next_request
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u32) -> SpanId {
        if !self.enabled {
            return SpanId(NO_SPAN);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map_or(NO_SPAN, |p| p.0),
            request,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if self.enabled && id.0 != NO_SPAN {
            self.spans[id.0 as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Per span name, prefixed with the name of the request's root span
    /// (`client.get/server.handle`): `(count, total ns, total self ns)`,
    /// where a span's self time is its duration minus its children's.
    pub fn summary(&self) -> BTreeMap<String, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let mut root = s;
            while root.parent != NO_SPAN {
                root = &self.spans[root.parent as usize];
            }
            let name = if s.parent == NO_SPAN {
                s.name.to_owned()
            } else {
                format!("{}/{}", root.name, s.name)
            };
            let total = s.end_ns - s.start_ns;
            let e = by_name.entry(name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(children);
        }
        by_name
    }

    /// Writes one JSON object per span: `id`, `name`, `start_ns`, `end_ns`,
    /// `parent` (null for a root), `request`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN { "null".to_owned() } else { s.parent.to_string() };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
