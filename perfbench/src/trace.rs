//! Host-clock spans recorded around the program's public calls.
//!
//! Spans stay in memory while the benchmark runs and are written as one
//! JSON document when it ends. An untraced [`Tracer`] records nothing,
//! so the end-to-end runs pay one branch per call site.

use std::time::Instant;

/// One timed call: name, start and end on the host clock (seconds since
/// the tracer was made), the index of the span that caused it, and the
/// scan or job it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub id: String,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The in-memory span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Seconds since the tracer was made.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Time `f` as span `name` for scan or job `id`. Returns the result
    /// and the call's duration in seconds, which callers need whether or
    /// not tracing is on.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, id, parent, start, end);
        (out, end - start)
    }

    /// Open a span that encloses child spans recorded before it ends;
    /// close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: &str, parent: Option<usize>) -> Option<usize> {
        let now = self.now();
        self.record(name, id, parent, now, now)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_s = self.now();
        }
    }

    /// Record a span measured elsewhere; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        id: &str,
        parent: Option<usize>,
        start_s: f64,
        end_s: f64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span { name, start_s, end_s, parent, id: id.to_string() });
        Some(self.spans.len() - 1)
    }

    /// Durations of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_s).collect()
    }

    /// Share of `[start, end]` covered by the union of the top-level
    /// spans (those without a parent) that lie inside it.
    pub fn coverage(&self, start: f64, end: f64) -> f64 {
        let mut iv: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_s.max(start), s.end_s.min(end)))
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_by(|x, y| x.0.total_cmp(&y.0));
        let (mut covered, mut cur) = (0.0, start);
        for (a, b) in iv {
            let a = a.max(cur);
            if b > a {
                covered += b - a;
                cur = b;
            }
        }
        if end > start {
            covered / (end - start)
        } else {
            0.0
        }
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"index\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \
                 \"parent\": {parent}, \"id\": \"{}\"}}{}\n",
                s.name,
                s.start_s,
                s.end_s,
                s.id,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_unions_overlapping_top_level_spans() {
        let mut t = Tracer::new(true);
        t.record("a", "0", None, 0.0, 4.0);
        t.record("b", "0", None, 2.0, 6.0);
        let child = t.record("c", "0", Some(0), 8.0, 10.0);
        assert!(child.is_some());
        assert!((t.coverage(0.0, 10.0) - 0.6).abs() < 1e-12);
        assert_eq!(t.durations("a"), vec![4.0]);
    }

    #[test]
    fn untraced_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, dur) = t.time("x", "0", None, || 7);
        assert_eq!(v, 7);
        assert!(dur >= 0.0);
        assert!(t.durations("x").is_empty());
    }
}
