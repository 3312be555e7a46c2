//! Spans recorded in the benchmark's own code, around calls into the
//! simulator.
//!
//! A span has a name, a start, an end, a parent and the id of the
//! operation (cell or fork) it belongs to. The spans of the running
//! operation stay in memory; when the operation ends they are reduced to
//! self time per name (a span's duration minus the time its children
//! cover) and the buffer is reused, so memory stays bounded by one
//! operation. The reduced table is printed once, when the benchmark ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name (`download`, `snapshot.encode`, …).
    pub name: &'static str,
    /// Operation id shared by every span of one cell or fork.
    pub op: u32,
    /// Index of the enclosing span in the operation's buffer.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Summed self time in nanoseconds.
    pub self_ns: u64,
    /// Number of spans of that name.
    pub calls: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    op: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Reduced self time per operation label, then per span name.
    reduced: Vec<(String, BTreeMap<&'static str, SelfTime>)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
            reduced: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new operation.
    pub fn begin_op(&mut self, label: &str) {
        assert!(self.open.is_empty(), "operations do not nest");
        self.op += 1;
        self.reduced.push((label.to_string(), BTreeMap::new()));
        self.begin("op");
    }

    /// Closes the operation's root span and reduces its spans.
    pub fn end_op(&mut self) {
        // A failed operation may leave spans open; close them all now.
        while !self.open.is_empty() {
            self.end();
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let (_, table) = self.reduced.last_mut().expect("begin_op opened a table");
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = table.entry(span.name).or_default();
            entry.self_ns += (span.end_ns - span.start_ns).saturating_sub(children);
            entry.calls += 1;
        }
        self.spans.clear();
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let now = self.now_ns();
        let index = self.open.pop().expect("a span is open");
        self.spans[index as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Self time and calls per span name, summed over every operation.
    pub fn totals(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut totals: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (_, table) in &self.reduced {
            for (&name, time) in table {
                let entry = totals.entry(name).or_default();
                entry.self_ns += time.self_ns;
                entry.calls += time.calls;
            }
        }
        totals
    }

    /// The reduced per-operation table, one line per operation and span
    /// name (self milliseconds and calls).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (label, table) in &self.reduced {
            for (name, time) in table {
                out.push_str(&format!(
                    "{label:<36} {name:<30} {:>12.3} ms {:>8} calls\n",
                    time.self_ns as f64 / 1e6,
                    time.calls
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_counts_calls() {
        let mut tracer = Tracer::new();
        tracer.begin_op("cell");
        tracer.begin("step");
        tracer.span("download", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.span("download", || ());
        tracer.end();
        tracer.end_op();
        let totals = tracer.totals();
        assert_eq!(totals["download"].calls, 2);
        assert_eq!(totals["step"].calls, 1);
        assert!(totals["download"].self_ns >= 2_000_000);
        assert!(totals["step"].self_ns < totals["download"].self_ns);
        assert!(tracer.render().contains("download"));
    }
}
