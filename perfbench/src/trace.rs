//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code around its
//! calls into each layer's public functions; nothing inside the library is
//! instrumented. A span's children come in two kinds:
//!
//! * **nested** children run inside the parent's interval; they cover the
//!   part of that interval where they overlap it;
//! * **replayed** children re-run, after the parent, one public call the
//!   parent makes internally (checked bitwise against the parent's output
//!   by the caller); they cover their own duration.
//!
//! A span's self time is its duration minus what its children cover, and
//! its coverage is the covered share of its duration.

use std::time::Instant;

/// Handle of a recorded span.
pub type SpanId = usize;

/// One recorded span, in seconds since the trace began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span times.
    pub name: String,
    /// The span this one belongs to.
    pub parent: Option<SpanId>,
    /// Whether this span replays a call its parent made internally.
    pub replay: bool,
    /// Start, seconds since the trace origin.
    pub start: f64,
    /// End, seconds since the trace origin (`NAN` while open).
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A trace: every span of one traced run, kept in memory until the run
/// ends.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn open(&mut self, name: &str, parent: Option<SpanId>, replay: bool) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            replay,
            start,
            end: f64::NAN,
        });
        self.spans.len() - 1
    }

    /// Opens a span (nested in `parent`, if any).
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        self.open(name, parent, false)
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now();
        self.spans[id].end = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Runs `f` as a replay of a call `of` made internally.
    pub fn replay<R>(&mut self, name: &str, of: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(of), true);
        let out = f();
        self.end(id);
        out
    }

    /// Records a finished span with explicit times (used by tests and by
    /// callers that time a call themselves).
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// The span `id`.
    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Seconds of `id`'s duration its children cover: the union of its
    /// nested children's intervals clipped to its own, plus the durations
    /// of its replayed children.
    pub fn covered(&self, id: SpanId) -> f64 {
        let parent = &self.spans[id];
        let mut intervals: Vec<(f64, f64)> = Vec::new();
        let mut replayed = 0.0;
        for child in self.spans.iter().filter(|s| s.parent == Some(id)) {
            if child.replay {
                replayed += child.duration();
            } else {
                let (s, e) = (child.start.max(parent.start), child.end.min(parent.end));
                if e > s {
                    intervals.push((s, e));
                }
            }
        }
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut union = 0.0;
        let mut current: Option<(f64, f64)> = None;
        for (s, e) in intervals {
            current = match current {
                Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    union += ce - cs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((cs, ce)) = current {
            union += ce - cs;
        }
        union + replayed
    }

    /// Duration of `id` minus what its children cover.
    pub fn self_time(&self, id: SpanId) -> f64 {
        self.spans[id].duration() - self.covered(id)
    }

    /// Share of `id`'s duration its children cover.
    pub fn coverage(&self, id: SpanId) -> f64 {
        self.covered(id) / self.spans[id].duration()
    }

    /// Ids of every span named `name`, in recording order.
    pub fn named(&self, name: &str) -> Vec<SpanId> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .into_iter()
            .map(|i| self.spans[i].duration())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, replay: bool, start: f64, end: f64) -> Span {
        Span {
            name: name.into(),
            parent,
            replay,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut t = Trace::default();
        let p = t.push(span("op", None, false, 0.0, 10.0));
        t.push(span("a", Some(p), false, 1.0, 3.0));
        t.push(span("b", Some(p), false, 4.0, 8.0));
        assert_eq!(t.covered(p), 6.0);
        assert_eq!(t.self_time(p), 4.0);
        assert_eq!(t.coverage(p), 0.6);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut t = Trace::default();
        let p = t.push(span("op", None, false, 0.0, 10.0));
        t.push(span("a", Some(p), false, 1.0, 5.0));
        t.push(span("b", Some(p), false, 3.0, 6.0)); // overlaps a
        t.push(span("c", Some(p), false, 9.0, 12.0)); // runs past the parent
        t.push(span("d", None, false, 0.0, 10.0)); // not a child
        assert_eq!(t.covered(p), 5.0 + 1.0);
        assert_eq!(t.self_time(p), 4.0);
    }

    #[test]
    fn replayed_children_cover_their_duration() {
        let mut t = Trace::default();
        let p = t.push(span("stream", None, false, 0.0, 8.0));
        t.push(span("push_block", Some(p), true, 8.0, 9.0));
        t.push(span("embed", Some(p), true, 9.0, 13.0));
        assert_eq!(t.self_time(p), 3.0);
        assert_eq!(t.coverage(p), 5.0 / 8.0);
        // A replay that costs more than the call it stands in for shows up
        // as coverage above one and negative self time, as measured.
        t.push(span("ncm", Some(p), true, 13.0, 17.0));
        assert!(t.coverage(p) > 1.0);
        assert!(t.self_time(p) < 0.0);
    }

    #[test]
    fn live_spans_nest() {
        let mut t = Trace::default();
        let p = t.begin("op", None);
        let x = t.time("child", Some(p), || (0..1000).sum::<u64>());
        t.end(p);
        assert_eq!(x, 499_500);
        assert!(t.self_time(p) >= 0.0);
        assert!(t.coverage(p) <= 1.0);
        assert_eq!(t.named("child").len(), 1);
        assert_eq!(t.durations("op").len(), 1);
        assert!(t.durations("child")[0] <= t.durations("op")[0]);
    }
}
