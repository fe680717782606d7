//! Span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each layer (spans inside the program are a later change). They stay in
//! memory in a compact form and are written out once, when the run ends:
//! per-name totals with self time for every span, and the first
//! [`FILE_SPANS`] spans in full (a singleton-frame run records millions of
//! spans; writing them all would cost more than the run).

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Spans written to the trace file in full.
const FILE_SPANS: usize = 50_000;

/// Index of a recorded span; `NO_SPAN` marks a root.
pub type SpanId = u32;
/// The parent of a span that has none.
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    start_ns: u64,
    dur_ns: u32,
    parent: SpanId,
    /// Identifier shared by every span of one request (0 = not a request).
    request: u32,
    name: u8,
}

/// In-memory span sink. A disabled tracer records nothing and its clock
/// reads cost nothing, so the untraced run pays only a predictable branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created (0 when disabled).
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    fn name_index(&mut self, name: &'static str) -> u8 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u8,
            None => {
                assert!(self.names.len() < 255, "too many distinct span names");
                self.names.push(name);
                (self.names.len() - 1) as u8
            }
        }
    }

    /// Records a finished span; returns its id (`NO_SPAN` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let name = self.name_index(name);
        self.spans.push(Span {
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns).min(u64::from(u32::MAX)) as u32,
            parent,
            request,
            name,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span whose children are recorded before it closes: reserves
    /// the id now, so children can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = self.now();
        self.record(name, parent, 0, now, now)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let now = self.now();
        let span = &mut self.spans[id as usize];
        span.dur_ns = now.saturating_sub(span.start_ns).min(u64::from(u32::MAX)) as u32;
    }

    /// Total duration of every span with this name, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => self
                .spans
                .iter()
                .filter(|s| usize::from(s.name) == i)
                .map(|s| u64::from(s.dur_ns))
                .sum(),
            None => 0,
        }
    }

    /// Per-name `(count, total ns, self ns)`: a span's self time is its
    /// duration minus the part its child spans cover.
    fn by_name(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_SPAN {
                child_ns[span.parent as usize] += u64::from(span.dur_ns);
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> =
            self.names.iter().map(|n| (*n, 0, 0, 0)).collect();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let row = &mut rows[usize::from(span.name)];
            row.1 += 1;
            row.2 += u64::from(span.dur_ns);
            row.3 += u64::from(span.dur_ns).saturating_sub(*children);
        }
        rows
    }

    /// Writes the trace as JSON. Does nothing when disabled.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(FILE_SPANS);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\"spans_written\":{written},\n\"by_name\":[",
            self.spans.len()
        )?;
        for (i, (name, count, total, own)) in self.by_name().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n{{\"name\":\"{name}\",\"count\":{count},\"total_ms\":{:.6},\"self_ms\":{:.6}}}",
                total as f64 / 1e6,
                own as f64 / 1e6
            )?;
        }
        write!(out, "],\n\"spans\":[")?;
        for (id, span) in self.spans.iter().take(written).enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let parent = if span.parent == NO_SPAN {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            write!(
                out,
                "{sep}\n{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                span.request,
                self.names[usize::from(span.name)],
                span.start_ns as f64 / 1e3,
                (span.start_ns + u64::from(span.dur_ns)) as f64 / 1e3
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_what_children_cover() {
        let mut tracer = Tracer::new(true);
        let root = tracer.record("request", NO_SPAN, 1, 0, 1_000);
        tracer.record("build", root, 1, 0, 100);
        tracer.record("wait", root, 1, 300, 1_000);
        let rows = tracer.by_name();
        assert_eq!(rows[0], ("request", 1, 1_000, 200));
        assert_eq!(rows[1], ("build", 1, 100, 100));
        assert_eq!(tracer.total_ns("wait"), 700);
        assert_eq!(tracer.total_ns("absent"), 0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.now(), 0);
        let id = tracer.open("setup", NO_SPAN);
        assert_eq!(id, NO_SPAN);
        tracer.close(id);
        assert_eq!(tracer.record("call", id, 0, 1, 2), NO_SPAN);
        assert!(tracer.spans.is_empty());
    }
}
