//! Spans the harness records around its own calls into each layer.
//!
//! A span carries a name, start, end and the span that was open when it
//! began (its parent). Spans are kept in memory and written out only after
//! all timing has ended. A span's *self time* is its duration minus the
//! part its children cover, so a stage's own cost is not counted twice.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<what>`; layer names are crate names.
    pub name: &'static str,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Calls the span covers: a batch of set-ups or a micro-loop records
    /// one span for many back-to-back calls.
    pub calls: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn secs_per_call(&self) -> f64 {
        self.secs() / self.calls as f64
    }
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    muted: bool,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            muted: false,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `body` as one span covering `calls` calls and returns its
    /// index with the body's result. Spans opened inside `body` become its
    /// children.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        calls: u64,
        body: impl FnOnce(&mut SpanLog) -> T,
    ) -> (usize, T) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            calls: calls.max(1),
        });
        self.open.push(index);
        let result = body(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        (index, result)
    }

    /// [`SpanLog::record`] for a single call, when only the result matters.
    /// Inside [`SpanLog::muted`] the body just runs.
    pub fn stage<T>(&mut self, name: &'static str, body: impl FnOnce() -> T) -> T {
        if self.muted {
            return body();
        }
        self.record(name, 1, |_| body()).1
    }

    /// Runs `body` with [`SpanLog::stage`] recording nothing, so that the
    /// bulk of a back-to-back batch leaves no spans behind.
    pub fn muted<T>(&mut self, body: impl FnOnce(&mut SpanLog) -> T) -> T {
        let was = std::mem::replace(&mut self.muted, true);
        let result = body(self);
        self.muted = was;
        result
    }

    pub fn span(&self, index: usize) -> &Span {
        &self.spans[index]
    }

    /// Sets how many calls a span covered, for loops that only know once
    /// they have run.
    pub fn set_calls(&mut self, index: usize, calls: u64) {
        self.spans[index].calls = calls.max(1);
    }

    /// Seconds per call over every span named `name`, or `None` if there
    /// is none.
    pub fn secs_per_call(&self, name: &str) -> Option<f64> {
        let (secs, calls) = self.named(name).fold((0.0, 0u64), |(secs, calls), s| {
            (secs + s.secs(), calls + s.calls)
        });
        (calls > 0).then(|| secs / calls as f64)
    }

    /// Every span named `name`, in recording order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Per span, the nanoseconds not covered by its direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self.self_ns();
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (index, span) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                span.name, span.start_ns, span.end_ns
            );
            match span.parent {
                Some(parent) => {
                    let _ = write!(out, "{parent}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(
                out,
                ",\"calls\":{},\"self_ns\":{}}}",
                span.calls, self_ns[index]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn children_point_at_their_parent_and_self_time_excludes_them() {
        let mut log = SpanLog::new();
        let (outer, _) = log.record("experiments.setup", 1, |log| {
            log.stage("topology.generate", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            log.stage("netsim.sim_new", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert_eq!(log.span(outer).parent, None);
        let children: Vec<&Span> = log.named("topology.generate").collect();
        assert_eq!(children.len(), 1);
        assert_eq!(children[0].parent, Some(outer));
        assert!(log.span(outer).secs() >= 0.010);
        let outer_ns = log.span(outer).end_ns - log.span(outer).start_ns;
        assert!(log.self_ns()[outer] < outer_ns - 9_000_000);

        log.muted(|log| log.stage("topology.generate", || ()));
        assert_eq!(
            log.named("topology.generate").count(),
            1,
            "muted stages leave no span"
        );
    }

    #[test]
    fn jsonl_is_one_valid_object_per_span() {
        let mut log = SpanLog::new();
        log.record("content.bloom_build", 100, |_| ());
        log.stage("netsim.sim_new", || ());
        let lines: Vec<Value> = log
            .to_jsonl()
            .lines()
            .map(|l| Value::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("calls").unwrap().as_f64(), Some(100.0));
        assert_eq!(lines[1].get("parent"), Some(&Value::Null));
        assert_eq!(
            lines[1].get("name").unwrap().as_str(),
            Some("netsim.sim_new")
        );
    }
}
