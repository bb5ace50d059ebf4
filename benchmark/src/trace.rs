//! Span recorder for the traced run.
//!
//! Spans live in the benchmark's own files: they wrap the calls the
//! benchmark makes into each layer's public functions, never code inside
//! the `simtune-*` crates. They are held in memory and written out as
//! JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` indexes into the recorder's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// In-memory span recorder with a parent stack.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }
}

impl Tracer {
    /// Marks the rep that subsequently entered spans belong to.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(id);
        // Read the clock last so the recorder's own bookkeeping falls
        // outside the span.
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0].end_ns = now;
    }

    /// Records `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Total self time per span name: a span's duration minus the part
    /// of it its child spans cover.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0) += ns;
        }
        by_name
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line:
    /// `{name, start_ns, end_ns, parent, rep}`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let root = t.enter("bench.rep");
        t.span("isa.decode", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("isa.decode", || ());
        t.exit(root);
        let own = t.self_ns_by_name();
        let total: u64 = own.values().sum();
        let root_dur = t.durations_ns("bench.rep")[0] as u64;
        assert_eq!(total, root_dur, "self times partition the root span");
        assert!(own["isa.decode"] >= 2_000_000);
        assert_eq!(t.durations_ns("isa.decode").len(), 2);
    }
}
