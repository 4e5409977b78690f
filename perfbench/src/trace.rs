//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. Each span has a name, start, end, parent and the id of
//! the replayed request it belongs to. Spans stay in memory and are
//! written out once, when the replay ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.get_disk`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time (equal to `start` while the span is open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the replayed request in the generated stream.
    pub request: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type Token = Option<usize>;

/// Span recorder. When off, every call is a no-op and no clock is read,
/// so the same replay code measures the tracing overhead by running
/// once with spans on and once with them off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tags every span opened from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Token {
        if !self.on {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len().checked_sub(1)
    }

    /// Closes the span opened by `token`, naming it `name` when the
    /// outcome of the call decides its name (a cache hit or a miss).
    pub fn exit_as(&mut self, token: Token, name: Option<&'static str>) {
        let Some(i) = token else { return };
        let end = self.now();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(i), "spans close innermost first");
        let span = &mut self.spans[i];
        span.end = end;
        if let Some(name) = name {
            span.name = name;
        }
    }

    /// Closes the span opened by `token`.
    pub fn exit(&mut self, token: Token) {
        self.exit_as(token, None);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let token = self.enter(name);
        let out = f();
        self.exit(token);
        out
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / 1e3)
            .collect()
    }

    /// Writes every span as one JSON object per line, self time included.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once, and
/// a child's time outside its parent's interval is ignored).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("b.inner", 45, 50, Some(2)),
            span("other", 200, 210, None),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn recorder_nests_and_renames() {
        let mut t = Tracer::new(true);
        t.set_request(7);
        let outer = t.enter("outer");
        let inner = t.enter("store.get");
        t.exit_as(inner, Some("store.get_mem"));
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "store.get_mem");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let mut off = Tracer::new(false);
        let token = off.enter("x");
        off.exit(token);
        assert!(off.spans().is_empty());
    }
}
