//! In-memory span recording for the traced run.
//!
//! A span is `(layer, name, start, end, parent, request)`. Spans are kept in
//! memory while the run executes, written out as JSON Lines at the end, and
//! reduced to per-layer *self times*: a span's duration minus the part of it
//! its child spans cover. When tracing is off every call is a no-op that
//! does not even read the clock.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Handle of an open (or synthesized) span; `None` when tracing is off.
pub type SpanId = Option<u32>;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer the span belongs to (`rpo-serve.wire`, ...).
    pub layer: &'static str,
    /// Operation within the layer (`decode`, a backend name, ...).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Request (or job) the span serves.
    pub request: u64,
}

/// The span recorder of one traced run.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder; with `on == false` every method is a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, request: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`] (and any span left open
    /// inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        while let Some(open) = self.stack.pop() {
            self.spans[open as usize].end_ns = end_ns;
            if open == id {
                break;
            }
        }
    }

    /// Records an already finished span of known length under `parent`,
    /// for work the program reports but the benchmark cannot wrap (one
    /// backend's run inside a solve).
    pub fn record(
        &mut self,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        length_ns: u64,
    ) -> SpanId {
        let parent = parent?;
        let id = self.spans.len() as u32;
        let request = self.spans[parent as usize].request;
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns + length_ns,
            parent: Some(parent),
            request,
        });
        Some(id)
    }

    /// Start of a span, ns since the origin (0 when tracing is off).
    pub fn start_of(&self, id: SpanId) -> u64 {
        id.map_or(0, |id| self.spans[id as usize].start_ns)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Total self time and span count per layer.
    pub fn by_layer(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut layers = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let entry = layers.entry(span.layer).or_insert((0, 0));
            entry.0 += own;
            entry.1 += 1;
        }
        layers
    }

    /// Total self time and span count per `(layer, name)`.
    pub fn by_name(&self) -> BTreeMap<(&'static str, &'static str), (u64, u64)> {
        let mut names = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let entry = names.entry((span.layer, span.name)).or_insert((0, 0));
            entry.0 += own;
            entry.1 += 1;
        }
        names
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_times();
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"parent\":{parent},\"request\":{},\"layer\":\"{}\",\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                span.request, span.layer, span.name, span.start_ns, span.end_ns, own[index]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its length minus the union of its children's
/// intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            layer: "l",
            name: "n",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 50, Some(0)),  // overlaps the first child
            span(90, 120, Some(0)), // runs past the parent's end
            span(12, 20, Some(1)),
        ];
        // Children cover [10, 50) and [90, 100): 50 of 100.
        assert_eq!(self_times(&spans), vec![50, 22, 20, 30, 8]);
    }

    #[test]
    fn self_times_partition_the_roots() {
        let mut tracer = Tracer::new(true);
        let root = tracer.begin("root", "request", 1);
        let child = tracer.begin("child", "work", 1);
        let start = tracer.start_of(child);
        tracer.record(child, "leaf", "part", start, 0);
        tracer.end(child);
        tracer.end(root);
        let total: u64 = tracer.self_times().iter().sum();
        let root_span = &tracer.spans()[0];
        assert_eq!(total, root_span.end_ns - root_span.start_ns);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert_eq!(tracer.spans()[2].request, 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.begin("root", "request", 1);
        assert_eq!(id, None);
        tracer.record(id, "leaf", "part", 0, 10);
        tracer.end(id);
        assert!(tracer.spans().is_empty());
    }
}
