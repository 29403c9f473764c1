//! Spans recorded around the benchmark's calls into each layer, kept in
//! memory and written out at the end as Chrome trace-event JSON (readable
//! by Perfetto and `chrome://tracing`).
//!
//! A disabled tracer records nothing: end-to-end runs pay one branch per
//! call, so the difference between a traced and an untraced run is the
//! tracing overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are microseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, such as `profile.collect` or `ir.conv2d`.
    pub name: String,
    /// Start time.
    pub start_us: f64,
    /// End time.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Span recorder for the benchmark's single driving thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_us: self.now_us(),
                end_us: f64::NAN,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_us = self.now_us();
        out
    }

    /// Records already-measured child spans of the most recently closed
    /// span named `parent`, laid end to end from its start. Used for the
    /// per-node kernel times `at_ir::execute_with_trace` returns: their
    /// durations are measured, their starts are reconstructed.
    pub fn children_of_last(
        &self,
        parent: &str,
        children: impl IntoIterator<Item = (String, f64)>,
    ) {
        if !self.enabled {
            return;
        }
        let mut spans = self.spans.borrow_mut();
        let Some(p) = spans.iter().rposition(|s| s.name == parent) else {
            return;
        };
        let mut t = spans[p].start_us;
        for (name, secs) in children {
            let end = t + secs * 1e6;
            spans.push(Span {
                name,
                start_us: t,
                end_us: end,
                parent: Some(p),
            });
            t = end;
        }
    }

    /// Self time per span name in seconds: each span's duration minus the
    /// part of it its children cover, summed over spans of that name.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.borrow();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let mut kids: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_us.max(s.start_us),
                        spans[c].end_us.min(s.end_us),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            *out.entry(s.name.clone()).or_insert(0.0) += (s.end_us - s.start_us - covered) / 1e6;
        }
        out
    }

    /// The spans as a Chrome trace-event document: one complete (`"X"`)
    /// event per span, with its index and its parent's in `args`.
    pub fn to_chrome_json(&self) -> serde_json::Value {
        let events: Vec<serde_json::Value> = self
            .spans
            .borrow()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                serde_json::json!({
                    "name": s.name,
                    "cat": s.name.split('.').next().unwrap_or(""),
                    "ph": "X",
                    "ts": s.start_us,
                    "dur": s.end_us - s.start_us,
                    "pid": 1,
                    "tid": 1,
                    "args": serde_json::json!({"id": i, "parent": s.parent}),
                })
            })
            .collect();
        serde_json::json!({ "traceEvents": events, "displayTimeUnit": "ms" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", || 7), 7);
        assert!(t.self_times().is_empty());
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let t = Tracer::new(true);
        t.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.children_of_last(
            "outer",
            [("inner".into(), 0.0005), ("inner".into(), 0.0005)],
        );
        let st = t.self_times();
        assert!((st["inner"] - 0.001).abs() < 1e-9);
        let outer = &t.spans.borrow()[0];
        let total = (outer.end_us - outer.start_us) / 1e6;
        assert!((st["outer"] - (total - 0.001)).abs() < 1e-9);
        let doc = t.to_chrome_json();
        let serde_json::Value::Array(events) = &doc["traceEvents"] else {
            panic!("traceEvents is not an array");
        };
        assert_eq!(events[1]["args"]["parent"], serde_json::Value::I64(0));
    }
}
