//! Spans recorded from the benchmark's own files, around the calls into each
//! layer. They are kept in memory and written out once, when the traced run
//! ends; nothing inside the measured program is instrumented.
//!
//! The ladder replays the same request stream on every rung, the rungs
//! taking turns block by block, top rung first. A span's `parent` is the span
//! of the same request on the rung above — the call that, in the served
//! system, blocks on this one.

use std::io::Write;
use std::time::Instant;

/// One call into one layer for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the request in the replayed stream.
    pub request: u32,
    /// Index (into [`Tracer::spans`]) of the span that caused this one.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    /// Run `call` inside a span and return its result with the span's index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<u32>,
        call: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            request: request as u32,
            parent,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
        (result, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration in µs of the span [`Tracer::span`] returned `id` for.
    pub fn duration_us(&self, id: u32) -> f64 {
        self.spans[id as usize].duration_us()
    }

    /// Durations in µs of every span named `name`, in recording order —
    /// which is request order, because a rung replays the stream in order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_nest_by_parent_and_keep_request_order() {
        let mut t = Tracer::with_capacity(4);
        let (v, top0) = t.span("serve.net.rtt_us", 0, None, || 7);
        assert_eq!(v, 7);
        let (_, top1) = t.span("serve.net.rtt_us", 1, None, || ());
        let (_, low0) = t.span("serve.server.query_us", 0, Some(top0), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("serve.server.query_us", 1, Some(top1), || ());
        assert_eq!(t.spans().len(), 4);
        let low = &t.spans()[low0 as usize];
        assert_eq!((low.request, low.parent), (0, Some(top0)));
        assert!(low.end_ns >= low.start_ns);
        let lows = t.durations_us("serve.server.query_us");
        assert_eq!(lows.len(), 2);
        assert!(lows[0] >= 2_000.0, "slept 2 ms, measured {} us", lows[0]);
        assert!(t.durations_us("absent").is_empty());
    }

    #[test]
    fn jsonl_lines_parse_with_the_modules_own_reader() {
        let mut t = Tracer::with_capacity(2);
        let (_, a) = t.span("core.mogul.search_us", 0, None, || ());
        t.span("core.mogul.solve_us", 0, Some(a), || ());
        let dir = crate::scratch::RunDir::create("tracer-test");
        let path = dir.subdir("out").join("trace.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&json::Value::Null));
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            lines[1].get("name").unwrap().as_str(),
            Some("core.mogul.solve_us")
        );
    }
}
