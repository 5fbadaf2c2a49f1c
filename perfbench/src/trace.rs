//! The benchmark's own span recorder.
//!
//! Spans are recorded by benchmark code around each call into a layer's
//! public functions — nothing inside the program is instrumented. Each span
//! has a name, start, end, parent and request id. Spans stay in memory and
//! are written out once the run is over. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call or phase, e.g. `"sketchcore.try_sketch_alg3"`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Request (op) id the span belongs to.
    pub req: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; when `on` is false every call is a no-op.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    /// Close a span opened with [`Tracer::begin`].
    pub fn end(&mut self, ix: Option<usize>) {
        let now = self.ns(Instant::now());
        if let Some(s) = ix.and_then(|i| self.spans.get_mut(i)) {
            s.end_ns = now;
        }
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part of its interval
    /// covered by its children.
    fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(kids.iter_mut())
            .map(|(s, k)| s.dur_ns().saturating_sub(covered(s, k)))
            .collect()
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0) += st;
        }
        out
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Share of the time of root spans named `root` that their children
    /// cover: 1.0 means the layer spans account for the whole op.
    pub fn coverage(&self, root: &str) -> f64 {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start_ns, s.end_ns));
            }
        }
        let (mut cov, mut tot) = (0u64, 0u64);
        for (s, k) in self.spans.iter().zip(kids.iter_mut()) {
            if s.name == root {
                cov += covered(s, k);
                tot += s.dur_ns();
            }
        }
        if tot == 0 {
            0.0
        } else {
            cov as f64 / tot as f64
        }
    }

    /// Serialize as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out
    }
}

/// Length of the union of child intervals, clipped to the parent.
fn covered(parent: &Span, kids: &mut [(u64, u64)]) -> u64 {
    kids.sort_unstable();
    let (mut total, mut cur_end) = (0u64, parent.start_ns);
    for &(s, e) in kids.iter() {
        let s = s.max(cur_end);
        let e = e.min(parent.end_ns);
        if e > s {
            total += e - s;
            cur_end = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_union() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(true, t0);
        let op = tr.record("op", None, 1, at(0), at(10));
        tr.record("a", op, 1, at(1), at(4));
        tr.record("b", op, 1, at(3), at(6));
        let st = tr.self_time_by_name();
        assert_eq!(st["op"], 5_000_000);
        assert_eq!(st["a"], 3_000_000);
        assert!((tr.coverage("op") - 0.5).abs() < 1e-12);
        assert_eq!(tr.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        let ix = tr.begin("x", None, 0);
        tr.end(ix);
        assert!(ix.is_none() && tr.spans().is_empty());
    }
}
