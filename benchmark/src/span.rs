//! Spans recorded by the benchmark's own code around its calls into each
//! layer. Kept in memory during the run and written out at exit; spans
//! inside the program are a later change (ROADMAP item 2).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one; `None` for a statement's root span.
    pub parent: Option<SpanId>,
    /// Shared by every span of one statement.
    pub stmt: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Busy and self time of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, stmt: u32) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            parent,
            stmt,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        // the clock is read after the push, so growing the vector is not
        // charged to the span
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.start_ns = now;
        span.end_ns = now;
        id
    }

    pub fn close(&mut self, id: SpanId) -> Duration {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        Duration::from_nanos(span.duration_ns())
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        stmt: u32,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent, stmt);
        let out = f();
        (out, self.close(id))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Forgets the spans but keeps the allocation.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// [`by_name`](Self::by_name) over the spans recorded since the log
    /// held `start` spans (whole statements only).
    pub fn by_name_since(&self, start: usize) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans[start..])
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{parent},\"stmt\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.stmt, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_ns() - covered
}

/// Busy time, self time and count per span name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<SpanId, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.busy_ns += s.duration_ns();
        t.self_ns += self_time_ns(s, kids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            stmt: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let parent = span(0, None, "stmt", 100, 200);
        let a = span(1, Some(0), "parse", 110, 130);
        let b = span(2, Some(0), "exec", 150, 190);
        assert_eq!(self_time_ns(&parent, &[&a, &b]), 100 - 20 - 40);
        // overlapping children are covered once; a child poking out of
        // the parent is clipped to it
        let c = span(3, Some(0), "x", 120, 160);
        let d = span(4, Some(0), "y", 195, 250);
        assert_eq!(self_time_ns(&parent, &[&a, &b, &c, &d]), 100 - 80 - 5);
        assert_eq!(self_time_ns(&parent, &[]), 100);
    }

    #[test]
    fn layer_times_sum_busy_and_self_per_name() {
        let spans = vec![
            span(0, None, "stmt", 0, 100),
            span(1, Some(0), "staged", 10, 90),
            span(2, Some(1), "parse", 10, 30),
            span(3, Some(1), "exec", 40, 90),
            span(4, None, "stmt", 100, 150),
        ];
        let t = layer_times(&spans);
        assert_eq!(
            t["stmt"],
            LayerTime {
                count: 2,
                busy_ns: 150,
                self_ns: 20 + 50
            }
        );
        assert_eq!(t["staged"].self_ns, 80 - 20 - 50);
        assert_eq!(t["parse"].busy_ns, 20);
        assert_eq!(t["exec"].self_ns, 50);
        // self times of a tree add up to its root's busy time
        let tree_self: u64 = [t["staged"], t["parse"], t["exec"]]
            .iter()
            .map(|l| l.self_ns)
            .sum::<u64>()
            + 20;
        assert_eq!(tree_self, 100);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut log = SpanLog::default();
        let root = log.open("stmt", None, 7);
        log.time("parse", Some(root), 7, || ());
        log.close(root);
        let mut buf = Vec::new();
        log.write_jsonl("w", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"parent\":0,\"stmt\":7"));
    }
}
