//! In-memory spans around calls into each layer, written out when the
//! benchmark ends.
//!
//! Each thread records into its own [`Trace`]; traces share one origin
//! so they merge into a single timeline. A span's self time is its
//! duration minus the part of its interval that its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer and call, e.g. `site.ingest_records`.
    pub name: &'static str,
    /// Nanoseconds from the trace origin.
    pub start_ns: u64,
    /// Nanoseconds from the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder for one thread.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace measuring from `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished call and returns its index, for children.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is set later by [`Trace::close`], so that
    /// children recorded in between can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    /// Closes a span opened by [`Trace::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent);
        out
    }

    /// Moves every span of `other` in, keeping parent links intact.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        let shift = self.ns(other.origin);
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.start_ns += shift;
            span.end_ns += shift;
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, clipped to its own.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    let hi = hi.min(span.end_ns);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                span.ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Durations of every span called `name`, in nanoseconds, in record
    /// order.
    #[must_use]
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Writes the spans as JSON lines (`name`, `start_ns`, `end_ns`,
    /// `parent`) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut trace = Trace::new(origin);
        let root = trace.record("root", at(0), at(100), None);
        // Two overlapping children cover 10..40; a third covers 90..120
        // but only 90..100 lies inside the parent.
        trace.record("a", at(10), at(30), Some(root));
        trace.record("b", at(20), at(40), Some(root));
        trace.record("c", at(90), at(120), Some(root));
        let own = trace.self_ns();
        assert_eq!(own[0], 60_000_000);
        assert_eq!(own[1], 20_000_000);
    }

    #[test]
    fn absorb_keeps_parents_and_shifts_origins() {
        let origin = Instant::now();
        let mut main = Trace::new(origin);
        main.record("x", origin, origin + Duration::from_millis(1), None);
        let mut other = Trace::new(origin + Duration::from_millis(5));
        let p = other.record(
            "p",
            origin + Duration::from_millis(5),
            origin + Duration::from_millis(9),
            None,
        );
        other.record(
            "q",
            origin + Duration::from_millis(6),
            origin + Duration::from_millis(7),
            Some(p),
        );
        main.absorb(other);
        assert_eq!(main.spans()[1].start_ns, 5_000_000);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.self_ns()[1], 3_000_000);
    }
}
