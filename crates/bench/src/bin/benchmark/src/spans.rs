//! The benchmark's own span recorder: `{name, trace, parent, start_ns,
//! end_ns}` kept in memory around calls into the program's layers and
//! written out once at the end. A span's self time is its duration
//! minus its direct children's.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one replayed request share this.
    pub trace: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: a new span's parent is the top.
    open: Vec<usize>,
    /// Off: `scope` runs its body and records nothing (the baseline
    /// the tracing overhead is measured against).
    pub enabled: bool,
}

impl Recorder {
    pub fn new() -> RefCell<Recorder> {
        RefCell::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        })
    }

    fn enter(&mut self, name: &'static str, trace: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            trace,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        // Read the clock last, so bookkeeping stays outside the span.
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        Some(id)
    }

    fn exit(&mut self, id: Option<usize>) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        if let Some(id) = id {
            self.spans[id].end_ns = now;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Median duration in µs of the spans called `name` (0 if none)
    /// in one setting: called on its own as a ladder rung (trace 0), or
    /// `replayed` as part of a read (trace ≥ 1). The settings time
    /// different things — a nested call runs right after its parent
    /// touched the same data — so a median never mixes them.
    pub fn median_us(&self, name: &str, replayed: bool) -> f64 {
        let us: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && (s.trace != 0) == replayed)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        median(&us)
    }

    /// Median self time in µs of the spans called `name`.
    pub fn median_self_us(&self, name: &str) -> f64 {
        let selfs = self_times_ns(&self.spans);
        let us: Vec<f64> = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| *ns as f64 / 1e3)
            .collect();
        median(&us)
    }

    /// The trace file: one JSON object, spans in recording order.
    pub fn to_json(&self, workload: &str) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.trace, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span: its duration minus the durations of the
/// spans naming it as parent (children never overlap each other: the
/// recorder is single-threaded and strictly nested).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.duration_ns());
        }
    }
    selfs
}

/// Run `body` inside a span (a child of whatever span is open).
pub fn scope<R>(
    rec: &RefCell<Recorder>,
    name: &'static str,
    trace: u64,
    body: impl FnOnce() -> R,
) -> R {
    let id = rec.borrow_mut().enter(name, trace);
    let out = body();
    rec.borrow_mut().exit(id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            trace: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("read", None, 0, 100),
            span("serve", Some(0), 10, 70),
            span("value_at", Some(1), 20, 30),
            span("prove", Some(1), 30, 60),
            span("verify", None, 100, 150),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 10, 30, 50]);
    }

    #[test]
    fn scopes_nest_and_share_the_trace_they_are_given() {
        let rec = Recorder::new();
        scope(&rec, "outer", 7, || {
            scope(&rec, "inner", 7, || ());
            scope(&rec, "inner", 7, || ());
        });
        let rec = rec.borrow();
        let names: Vec<_> = rec.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner", Some(0)), ("inner", Some(0))]
        );
        let outer = &rec.spans[0];
        for inner in &rec.spans[1..] {
            assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        }
        assert!(rec
            .to_json("w")
            .contains("\"name\":\"inner\",\"trace\":7,\"parent\":0"));
    }

    #[test]
    fn medians_keep_rungs_and_replayed_calls_apart() {
        let rec = Recorder::new();
        rec.borrow_mut().spans = vec![
            span("verify", None, 0, 1_000),
            span("verify", None, 0, 3_000),
            Span {
                trace: 0,
                ..span("verify", None, 0, 9_000)
            },
        ];
        let rec = rec.borrow();
        assert_eq!(rec.median_us("verify", true), 2.0);
        assert_eq!(rec.median_us("verify", false), 9.0);
        assert_eq!(rec.median_us("absent", false), 0.0);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let rec = Recorder::new();
        rec.borrow_mut().enabled = false;
        assert_eq!(scope(&rec, "x", 1, || 5), 5);
        assert!(rec.borrow().spans.is_empty());
    }
}
