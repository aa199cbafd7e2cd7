//! The benchmark's own spans: one around each call into a layer,
//! kept in memory and written once the traced run ends. Spans inside
//! the executors are the system's tracer's business, not this file's.

use crate::sut::json;
use std::time::Instant;

struct Span {
    name: &'static str,
    /// The execution path the span belongs to, if any.
    path: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that was open when this one began.
    parent: Option<usize>,
    round: u32,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
}

/// Returned by `begin`, consumed by `end`.
pub struct Open(Option<usize>);

impl Spans {
    pub fn enabled() -> Spans {
        Spans {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    pub fn disabled() -> Spans {
        Spans {
            enabled: false,
            ..Spans::enabled()
        }
    }

    /// Spans begun from now on carry this round id.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        self.begin_on(name, "")
    }

    pub fn begin_on(&mut self, name: &'static str, path: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            path,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Chrome `trace_event` JSON (load in `chrome://tracing` or
    /// Perfetto): one complete event per span, the span's id, parent
    /// and round under `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let mut name = String::new();
            json::escape_into(&mut name, s.name);
            if !s.path.is_empty() {
                name.push(' ');
                json::escape_into(&mut name, s.path);
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"round\":{}}}}}",
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.round,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_the_export_parses() {
        let mut spans = Spans::enabled();
        spans.set_round(3);
        let outer = spans.begin("round");
        let inner = spans.begin_on("execute", "spmd");
        spans.end(inner);
        spans.end(outer);
        let parsed = json::parse(&spans.to_chrome_json()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("execute spmd")
        );
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_num(), Some(0.0));
        assert_eq!(args.get("round").unwrap().as_num(), Some(3.0));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut spans = Spans::disabled();
        let s = spans.begin("build");
        spans.end(s);
        assert!(spans.spans.is_empty());
    }
}
