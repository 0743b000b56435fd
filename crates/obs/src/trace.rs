//! Causal trace model: identifiers, spans, the per-simulation trace
//! log, and the bounded flight-recorder ring of completed traces.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use transedge_common::{NodeId, SimDuration, SimTime};

/// How many completed traces the flight recorder retains by default.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// Identity of one traced client operation, stable across every hop
/// the operation touches. Minted deterministically from the client's
/// index and its per-client operation counter — no randomness, so the
/// same seed yields the same ids.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Compose a trace id from a client index and that client's
    /// operation counter.
    pub fn for_op(client: u32, op: u32) -> Self {
        TraceId((u64::from(client) << 32) | u64::from(op))
    }

    /// The client index this trace was minted for.
    pub fn client(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The per-client operation counter this trace was minted for.
    pub fn op(self) -> u32 {
        self.0 as u32
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace:{}/{}", self.client(), self.op())
    }
}

/// Identity of one span within a simulation, allocated from a plain
/// counter advanced in event order (deterministic).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(pub u64);

/// The propagation context a request-direction message carries: which
/// trace it belongs to and which span caused it (the new hop's spans
/// parent under `span`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TraceContext {
    pub trace: TraceId,
    pub span: SpanId,
}

/// What kind of time a span accounts for.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SpanPhase {
    /// The root span of a traced operation, client start → completion.
    Op,
    /// A delivery waited behind a busy actor's CPU.
    Queue,
    /// Network transit of one request-direction message.
    Wire,
    /// Server-side CPU spent handling a traced delivery.
    Serve,
    /// Client-side CPU spent verifying a response (or a rejection
    /// marker).
    Verify,
    /// The dependency-check round of Algorithm 2 (round-1 settled →
    /// operation completion).
    Round2,
    /// Directory traffic caused by the operation (demotion markers).
    Gossip,
}

impl SpanPhase {
    /// Stable lowercase tag (exporters, JSON).
    pub fn tag(self) -> &'static str {
        match self {
            SpanPhase::Op => "op",
            SpanPhase::Queue => "queue",
            SpanPhase::Wire => "wire",
            SpanPhase::Serve => "serve",
            SpanPhase::Verify => "verify",
            SpanPhase::Round2 => "round2",
            SpanPhase::Gossip => "gossip",
        }
    }
}

/// One timed, attributed interval of a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub trace: TraceId,
    pub id: SpanId,
    /// The span this one causally descends from (`None` only for the
    /// root `Op` span).
    pub parent: Option<SpanId>,
    pub phase: SpanPhase,
    /// Where the time was spent (wire spans: the destination).
    pub node: NodeId,
    pub start: SimTime,
    pub end: SimTime,
    /// Static annotation: the message kind for wire/serve spans, or a
    /// marker tag (`"forward"`, `"chase"`, `"rejected"`, `"demoted"`,
    /// `"retry"`, `"gave-up"`).
    pub label: &'static str,
}

impl Span {
    /// The span's extent.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// A finished trace, frozen into the flight recorder: the root span id
/// plus every span recorded while the trace was open, in recording
/// order.
#[derive(Clone, Debug)]
pub struct CompletedTrace {
    pub trace: TraceId,
    pub root: SpanId,
    pub spans: Vec<Span>,
}

impl CompletedTrace {
    /// The root `Op` span.
    pub fn root_span(&self) -> &Span {
        self.spans
            .iter()
            .find(|s| s.id == self.root)
            .expect("completed trace retains its root span")
    }

    /// Client-observed end-to-end latency of the operation.
    pub fn end_to_end(&self) -> SimDuration {
        self.root_span().duration()
    }

    /// All spans of one phase.
    pub fn spans_of(&self, phase: SpanPhase) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.phase == phase)
    }

    /// Does `label` appear on any span?
    pub fn has_label(&self, label: &str) -> bool {
        self.spans.iter().any(|s| s.label == label)
    }

    /// Every non-root span's parent resolves to a span of this trace —
    /// the tree is connected, nothing was orphaned.
    pub fn is_connected(&self) -> bool {
        self.spans.iter().all(|s| match s.parent {
            None => s.id == self.root,
            Some(p) => self.spans.iter().any(|q| q.id == p),
        })
    }
}

struct OpenTrace {
    root: SpanId,
    spans: Vec<Span>,
}

/// The per-simulation span sink: open traces accumulate spans; on
/// completion a trace is frozen into a bounded ring of
/// [`CompletedTrace`]s (the flight recorder), evicting the oldest.
///
/// Recording is infallible and silent: spans for traces that are not
/// open (already completed, or never begun — e.g. a retransmission
/// landing after its operation finished) are dropped, never an error.
pub struct TraceLog {
    next_span: u64,
    open: BTreeMap<TraceId, OpenTrace>,
    completed: VecDeque<CompletedTrace>,
    pending_complete: Vec<(TraceId, SimTime)>,
    capacity: usize,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl TraceLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// A log whose flight recorder retains at most `capacity` completed
    /// traces.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            next_span: 0,
            open: BTreeMap::new(),
            completed: VecDeque::new(),
            pending_complete: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Allocate the next span id (deterministic counter).
    pub fn alloc(&mut self) -> SpanId {
        self.next_span += 1;
        SpanId(self.next_span)
    }

    /// Open a trace with its root `Op` span starting at `at`. The root
    /// span's end stays `at` until [`TraceLog::complete`] stamps it.
    pub fn begin(
        &mut self,
        trace: TraceId,
        node: NodeId,
        at: SimTime,
        label: &'static str,
    ) -> SpanId {
        let root = self.alloc();
        self.open.insert(
            trace,
            OpenTrace {
                root,
                spans: vec![Span {
                    trace,
                    id: root,
                    parent: None,
                    phase: SpanPhase::Op,
                    node,
                    start: at,
                    end: at,
                    label,
                }],
            },
        );
        root
    }

    /// Is `trace` currently open?
    pub fn is_open(&self, trace: TraceId) -> bool {
        self.open.contains_key(&trace)
    }

    /// Record a fully-formed span into its (open) trace.
    pub fn record(&mut self, span: Span) {
        if let Some(open) = self.open.get_mut(&span.trace) {
            open.spans.push(span);
        }
    }

    /// Allocate and record a span of `[start, end]` under `tc`'s span.
    /// Returns the new span's id if the trace was open.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        tc: TraceContext,
        phase: SpanPhase,
        node: NodeId,
        start: SimTime,
        end: SimTime,
        label: &'static str,
    ) -> Option<SpanId> {
        if !self.open.contains_key(&tc.trace) {
            return None;
        }
        let id = self.alloc();
        self.record(Span {
            trace: tc.trace,
            id,
            parent: Some(tc.span),
            phase,
            node,
            start,
            end,
            label,
        });
        Some(id)
    }

    /// Record a zero-duration annotation span (protocol milestones:
    /// `"rejected"`, `"demoted"`, `"retry"`, …).
    pub fn marker(
        &mut self,
        tc: TraceContext,
        phase: SpanPhase,
        node: NodeId,
        at: SimTime,
        label: &'static str,
    ) {
        self.span(tc, phase, node, at, at, label);
    }

    /// Close `trace`: stamp the root span's end, freeze the span list
    /// into the flight recorder (evicting the oldest past capacity).
    /// No-op for traces that are not open.
    pub fn complete(&mut self, trace: TraceId, end: SimTime) {
        let Some(mut open) = self.open.remove(&trace) else {
            return;
        };
        let root = open.root;
        if let Some(span) = open.spans.iter_mut().find(|s| s.id == root) {
            span.end = end;
        }
        self.completed.push_back(CompletedTrace {
            trace,
            root,
            spans: open.spans,
        });
        while self.completed.len() > self.capacity {
            self.completed.pop_front();
        }
    }

    /// Queue a completion to be applied by the next
    /// [`TraceLog::flush_completions`]. Actor handlers use this
    /// (via the simulator's context) instead of [`TraceLog::complete`]
    /// so the span covering the completing handler itself — recorded by
    /// the simulator *after* the handler returns — still lands inside
    /// the trace.
    pub fn defer_complete(&mut self, trace: TraceId, end: SimTime) {
        self.pending_complete.push((trace, end));
    }

    /// Apply every queued [`TraceLog::defer_complete`].
    pub fn flush_completions(&mut self) {
        let drained = std::mem::take(&mut self.pending_complete);
        for (trace, end) in drained {
            self.complete(trace, end);
        }
    }

    /// The flight recorder: completed traces, oldest first.
    pub fn completed(&self) -> impl Iterator<Item = &CompletedTrace> {
        self.completed.iter()
    }

    /// The most recently completed trace, if any.
    pub fn last_completed(&self) -> Option<&CompletedTrace> {
        self.completed.back()
    }

    /// The most recently completed trace minted by `client`.
    pub fn last_completed_for(&self, client: u32) -> Option<&CompletedTrace> {
        self.completed
            .iter()
            .rev()
            .find(|t| t.trace.client() == client)
    }

    /// Completed traces retained.
    pub fn completed_len(&self) -> usize {
        self.completed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transedge_common::ClientId;

    fn client(i: u32) -> NodeId {
        NodeId::Client(ClientId(i))
    }

    #[test]
    fn trace_id_round_trips_client_and_op() {
        let t = TraceId::for_op(7, 42);
        assert_eq!(t.client(), 7);
        assert_eq!(t.op(), 42);
        assert_eq!(t.to_string(), "trace:7/42");
    }

    #[test]
    fn begin_record_complete_lands_in_recorder() {
        let mut log = TraceLog::new();
        let t = TraceId::for_op(0, 0);
        let root = log.begin(t, client(0), SimTime(10), "rot");
        assert!(log.is_open(t));
        let tc = TraceContext {
            trace: t,
            span: root,
        };
        let wire = log
            .span(
                tc,
                SpanPhase::Wire,
                client(0),
                SimTime(10),
                SimTime(30),
                "read-point",
            )
            .expect("trace open");
        assert_ne!(wire, root);
        log.complete(t, SimTime(90));
        assert!(!log.is_open(t));
        let done = log.last_completed().expect("one completed trace");
        assert_eq!(done.trace, t);
        assert_eq!(done.end_to_end(), SimDuration::from_micros(80));
        assert_eq!(done.spans.len(), 2);
        assert!(done.is_connected());
    }

    #[test]
    fn spans_for_unknown_traces_are_dropped() {
        let mut log = TraceLog::new();
        let t = TraceId::for_op(1, 1);
        let tc = TraceContext {
            trace: t,
            span: SpanId(99),
        };
        assert!(log
            .span(tc, SpanPhase::Wire, client(1), SimTime(0), SimTime(1), "x")
            .is_none());
        log.complete(t, SimTime(5));
        assert_eq!(log.completed_len(), 0);
    }

    #[test]
    fn flight_recorder_ring_is_bounded() {
        let mut log = TraceLog::with_capacity(2);
        for op in 0..5u32 {
            let t = TraceId::for_op(0, op);
            log.begin(t, client(0), SimTime(u64::from(op)), "rot");
            log.complete(t, SimTime(u64::from(op) + 1));
        }
        assert_eq!(log.completed_len(), 2);
        let kept: Vec<u32> = log.completed().map(|t| t.trace.op()).collect();
        assert_eq!(kept, vec![3, 4], "oldest evicted first");
        assert_eq!(log.last_completed_for(0).unwrap().trace.op(), 4);
    }

    #[test]
    fn orphaned_parent_breaks_connectedness() {
        let mut log = TraceLog::new();
        let t = TraceId::for_op(0, 0);
        log.begin(t, client(0), SimTime(0), "rot");
        log.record(Span {
            trace: t,
            id: SpanId(500),
            parent: Some(SpanId(400)), // never recorded
            phase: SpanPhase::Serve,
            node: client(0),
            start: SimTime(1),
            end: SimTime(2),
            label: "stray",
        });
        log.complete(t, SimTime(3));
        assert!(!log.last_completed().unwrap().is_connected());
    }
}
