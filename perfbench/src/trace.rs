//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span: name, start, end, parent span and request id. Spans stay in a
//! per-thread vector while the run lasts and are written out when it ends.
//! A layer's self time is its span's duration minus the part of that
//! interval covered by its child spans (children may overlap each other;
//! the union is subtracted once).

use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = u32;

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `graph.apply`.
    pub name: &'static str,
    /// Start, in ns since the origin.
    pub start_ns: u64,
    /// End, in ns since the origin (equal to `start_ns` while open).
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Request id shared by every span of one query or update.
    pub request: u64,
}

/// Records spans for one thread. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `origin`, recording only when `enabled`.
    #[must_use]
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span now. Returns `None` when disabled.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per thread");
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        Some(id)
    }

    /// Closes a span opened by [`Tracer::open`]; `None` is a no-op.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(s.start_ns, s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// Self times, in ns, of every span named `name`.
#[must_use]
pub fn self_times_of(spans: &[Span], self_ns: &[u64], name: &str) -> Vec<u64> {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .collect()
}

/// Writes spans as tab-separated lines: thread, index, name, start, end,
/// parent (`-` for a root), request.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_spans(
    out: &mut impl std::io::Write,
    thread: usize,
    spans: &[Span],
) -> std::io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{thread}\t{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span("a", 10, 25, None)];
        assert_eq!(self_times(&spans), vec![15]);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 20, Some(0)),
            span("y", 50, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 30]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // x covers 10..40, y covers 30..60, z nested inside x: the union is
        // 10..60, so the root keeps 100 - 50.
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 40, Some(0)),
            span("y", 30, 60, Some(0)),
            span("z", 15, 20, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that outlives its parent (clock skew between threads)
        // only covers the parent's own interval.
        let spans = [
            span("root", 10, 50, None),
            span("early", 0, 20, Some(0)),
            span("late", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn grandchildren_only_reduce_their_parent() {
        let spans = [
            span("root", 0, 100, None),
            span("mid", 0, 60, Some(0)),
            span("leaf", 10, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn tracer_records_only_when_enabled() {
        let origin = Instant::now();
        let mut off = Tracer::new(origin, false);
        assert_eq!(off.span("a", None, 1, || 7), 7);
        assert!(off.into_spans().is_empty());

        let mut on = Tracer::new(origin, true);
        let root = on.open("root", None, 3);
        on.span("child", root, 3, || ());
        on.close(root);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let mut buf = Vec::new();
        write_spans(&mut buf, 0, &spans).expect("in-memory write");
        assert_eq!(String::from_utf8(buf).expect("utf8").lines().count(), 2);
    }
}
