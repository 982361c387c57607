//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is (name, start, end, parent, op id).  Spans live in a `Vec`
//! while the run measures and are written out as JSON lines when it ends.
//! A disabled tracer runs the same closures without reading the clock, so
//! the traced and untraced passes execute identical calls and their
//! difference is the cost of tracing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl SpanRec {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].  Returns `None` when
    /// disabled.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, op);
        let out = f();
        self.close(span);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Durations (ns) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::ns)
            .collect()
    }

    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Sum over root spans named `root` of the time their direct children
    /// cover — what the layer calls account for.
    pub fn children_ns(&self, root: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == root))
            .map(SpanRec::ns)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_children_nest() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", None, 0, || 3), 3);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let root = on.open("op", None, 1);
        on.span("leaf", root, 1, || std::hint::black_box(1 + 1));
        on.close(root);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.children_ns("op") <= on.total_ns("op"));
    }
}
