//! The discrete-event simulation engine.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use transedge_common::{NodeId, SimDuration, SimTime};
use transedge_obs::{Span, SpanPhase, TraceLog};

use crate::actor::{Actor, Context, Effect, SimMessage, TimerId};
use crate::cost::CostModel;
use crate::fault::{FaultPlan, PartitionHandle};
use crate::stats::NetStats;
use crate::topology::LatencyModel;

enum EventKind<M> {
    Start,
    Deliver { from: NodeId, msg: M },
    Timer { token: u64, id: TimerId },
}

struct Event<M> {
    time: SimTime,
    seq: u64,
    to: NodeId,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    // Reversed: BinaryHeap is a max-heap, we want earliest-first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The simulator. Owns all actors, the virtual clock, and the event
/// queue. A run is a pure function of (actors, config, seed).
pub struct Simulation<M: SimMessage> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Event<M>>,
    actors: HashMap<NodeId, Box<dyn Actor<M>>>,
    latency: LatencyModel,
    cost: CostModel,
    faults: FaultPlan,
    rng: SmallRng,
    busy_until: HashMap<NodeId, SimTime>,
    cancelled: HashSet<TimerId>,
    timer_seq: u64,
    stats: NetStats,
    trace: TraceLog,
}

impl<M: SimMessage + 'static> Simulation<M> {
    pub fn new(latency: LatencyModel, cost: CostModel, faults: FaultPlan, seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            actors: HashMap::new(),
            latency,
            cost,
            faults,
            rng: SmallRng::seed_from_u64(seed),
            busy_until: HashMap::new(),
            cancelled: HashSet::new(),
            timer_seq: 0,
            stats: NetStats::default(),
            trace: TraceLog::new(),
        }
    }

    /// Simple constructor for logic tests: instant network, free CPU.
    pub fn for_testing(seed: u64) -> Self {
        Self::new(
            LatencyModel::instant(),
            CostModel::zero(),
            FaultPlan::none(),
            seed,
        )
    }

    /// Register an actor; its [`Actor::on_start`] runs at the current
    /// simulation time.
    pub fn add_actor(&mut self, id: NodeId, actor: Box<dyn Actor<M>>) {
        let prev = self.actors.insert(id, actor);
        assert!(prev.is_none(), "duplicate actor {id}");
        let seq = self.next_seq();
        self.push(Event {
            time: self.now,
            seq,
            to: id,
            kind: EventKind::Start,
        });
    }

    /// Tear an actor down mid-run (a crash the harness controls, as
    /// opposed to a [`FaultPlan`] crash where the actor stays
    /// registered but deaf). The removed actor is returned, `None` when
    /// no actor was registered under `id`. Events still
    /// queued for the id are dropped harmlessly when they surface
    /// (dispatch ignores unknown targets), and the id
    /// may be re-registered later via [`Simulation::add_actor`], which
    /// restarts it with a fresh `on_start`.
    pub fn remove_actor(&mut self, id: NodeId) -> Option<Box<dyn Actor<M>>> {
        self.busy_until.remove(&id);
        self.actors.remove(&id)
    }

    /// Put a wrapper around the actor registered under `id`: `wrap`
    /// takes the actor and returns what replaces it. Nothing queued for
    /// `id` is dropped and no second start is queued, so a wrapper
    /// installed before the run receives the actor's one start and one
    /// installed mid-run restarts nothing. Panics if no actor is
    /// registered under `id`.
    pub fn wrap_actor(
        &mut self,
        id: NodeId,
        wrap: impl FnOnce(Box<dyn Actor<M>>) -> Box<dyn Actor<M>>,
    ) {
        let actor = self
            .actors
            .remove(&id)
            .unwrap_or_else(|| panic!("no actor {id} to wrap"));
        self.actors.insert(id, wrap(actor));
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn push(&mut self, ev: Event<M>) {
        self.queue.push(ev);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The causal trace log (open traces + flight recorder).
    pub fn trace_log(&self) -> &TraceLog {
        &self.trace
    }

    /// Mutable trace log (harness-side configuration, e.g. recorder
    /// capacity, or completing traces from outside a handler).
    pub fn trace_log_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    /// The active fault plan (inspection).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    // ---- runtime fault control --------------------------------------
    // Construction-time [`FaultPlan`]s schedule everything up front;
    // these mutators let a harness (the scenario layer) steer faults
    // *while the clock runs*: partitions that start and heal on cue,
    // drop rates that change mid-workload, crashes decided on the fly.
    // Messages already in flight when a partition is imposed were
    // routed at their departure time and still deliver — only traffic
    // departing inside the window is cut, like a real link going dark.

    /// Cut all links between `a` and `b` from the current sim time
    /// until [`Simulation::heal_partition`].
    pub fn impose_partition(
        &mut self,
        a: impl IntoIterator<Item = NodeId>,
        b: impl IntoIterator<Item = NodeId>,
    ) -> PartitionHandle {
        let now = self.now;
        self.faults.impose_partition(a, b, now)
    }

    /// Heal a partition (construction-time or imposed) at the current
    /// sim time. Idempotent; the first heal wins.
    pub fn heal_partition(&mut self, handle: PartitionHandle) {
        let now = self.now;
        self.faults.heal_partition(handle, now);
    }

    /// Change the uniform message-drop probability from now on
    /// (clamped into `[0, 1]`, NaN → 0).
    pub fn set_drop_prob(&mut self, p: f64) {
        self.faults.set_drop_prob(p);
    }

    /// Crash `node` at the current sim time: it stays registered but
    /// processes and emits nothing from now on (the [`FaultPlan`]
    /// crash mode, as opposed to [`Simulation::remove_actor`]).
    pub fn crash_node(&mut self, node: NodeId) {
        let now = self.now;
        self.faults.crash_node(node, now);
    }

    /// Inject a message from outside the simulation (e.g. a test acting
    /// as a client-less driver). Delivered after normal latency.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.route(from, to, msg, self.now);
    }

    fn route(&mut self, from: NodeId, to: NodeId, msg: M, departure: SimTime) {
        let size = msg.size_bytes();
        self.stats.record_send(msg.kind(), size);
        if self.faults.should_drop(from, to, departure, &mut self.rng) {
            self.stats.record_drop();
            return;
        }
        let lat = self.latency.sample(from, to, size, &mut self.rng);
        if let Some(tc) = msg.trace_context() {
            self.trace.span(
                tc,
                SpanPhase::Wire,
                to,
                departure,
                departure + lat,
                msg.kind(),
            );
        }
        let seq = self.next_seq();
        self.push(Event {
            time: departure + lat,
            seq,
            to,
            kind: EventKind::Deliver { from, msg },
        });
    }

    /// Typed inspection of an actor (tests, harnesses): the actor
    /// registered under `id` or, through [`Actor::inner`], one it wraps.
    pub fn actor_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        let mut actor = self.actors.get(&id)?.as_ref();
        loop {
            let any: &dyn Any = actor;
            if let Some(found) = any.downcast_ref::<T>() {
                return Some(found);
            }
            actor = actor.inner()?;
        }
    }

    /// Typed mutable access to an actor, looking through wrappers like
    /// [`Simulation::actor_as`].
    pub fn actor_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        fn find<'a, M: SimMessage + 'static, T: 'static>(
            actor: &'a mut (dyn Actor<M> + 'static),
        ) -> Option<&'a mut T> {
            let any: &dyn Any = actor;
            if any.is::<T>() {
                let any: &mut dyn Any = actor;
                return any.downcast_mut::<T>();
            }
            find(actor.inner_mut()?)
        }
        find(self.actors.get_mut(&id)?.as_mut())
    }

    /// Drive one actor entry point, buffering and then applying effects.
    fn dispatch(&mut self, to: NodeId, time: SimTime, kind: EventKind<M>) {
        // Temporarily remove the actor to appease the borrow checker;
        // re-inserted below.
        let Some(mut actor) = self.actors.remove(&to) else {
            return;
        };
        // Pre-allocate the span covering this handler so the actor can
        // re-parent downstream work under it; the span itself is
        // recorded after the handler, once its CPU extent is known.
        let (handler_span, span_label) = match &kind {
            EventKind::Deliver { msg, .. } => match msg.trace_context() {
                Some(tc) => {
                    let id = self.trace.alloc();
                    (
                        Some(transedge_obs::TraceContext {
                            trace: tc.trace,
                            span: id,
                        }),
                        msg.kind(),
                    )
                }
                None => (None, ""),
            },
            _ => (None, ""),
        };
        let parent = match &kind {
            EventKind::Deliver { msg, .. } => msg.trace_context().map(|tc| tc.span),
            _ => None,
        };
        let mut ctx = Context {
            self_id: to,
            now: time,
            consumed: SimDuration::ZERO,
            rng: &mut self.rng,
            cost: &self.cost,
            effects: Vec::new(),
            timer_seq: &mut self.timer_seq,
            trace: &mut self.trace,
            cur_span: handler_span,
        };
        match kind {
            EventKind::Start => actor.on_start(&mut ctx),
            EventKind::Deliver { from, msg } => {
                let overhead = ctx.cost.message_overhead;
                ctx.consume(overhead);
                actor.on_message(from, msg, &mut ctx)
            }
            EventKind::Timer { token, .. } => actor.on_timer(token, &mut ctx),
        }
        let consumed = ctx.consumed;
        let effects = std::mem::take(&mut ctx.effects);
        drop(ctx);
        if let Some(hs) = handler_span {
            // Handler CPU: serve time at servers/edges, verification
            // time once the response chain reaches a client.
            let phase = if matches!(to, NodeId::Client(_)) {
                SpanPhase::Verify
            } else {
                SpanPhase::Serve
            };
            self.trace.record(Span {
                trace: hs.trace,
                id: hs.span,
                parent,
                phase,
                node: to,
                start: time,
                end: time + consumed,
                label: span_label,
            });
        }
        // Apply completions the handler deferred, now that its own
        // span is in the log.
        self.trace.flush_completions();
        self.actors.insert(to, actor);
        self.busy_until.insert(to, time + consumed);
        for effect in effects {
            match effect {
                Effect::Send {
                    to: dest,
                    msg,
                    at_offset,
                } => {
                    self.route(to, dest, msg, time + at_offset);
                }
                Effect::Timer {
                    id,
                    delay,
                    token,
                    at_offset,
                } => {
                    let seq = self.next_seq();
                    self.push(Event {
                        time: time + at_offset + delay,
                        seq,
                        to,
                        kind: EventKind::Timer { token, id },
                    });
                }
                Effect::Cancel(id) => {
                    self.cancelled.insert(id);
                }
            }
        }
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        // Crashed actors process nothing.
        if self.faults.is_crashed(ev.to, ev.time) {
            return true;
        }
        // Cancelled timers are skipped.
        if let EventKind::Timer { id, .. } = &ev.kind {
            if self.cancelled.remove(id) {
                return true;
            }
        }
        // CPU model: if the actor is still busy, the event waits.
        let busy = self
            .busy_until
            .get(&ev.to)
            .copied()
            .unwrap_or(SimTime::ZERO);
        if busy > ev.time {
            // Traced deliveries account the wait behind the busy actor
            // as a queue segment; repeated deferrals add contiguous
            // segments.
            if let EventKind::Deliver { msg, .. } = &ev.kind {
                if let Some(tc) = msg.trace_context() {
                    self.trace
                        .span(tc, SpanPhase::Queue, ev.to, ev.time, busy, msg.kind());
                }
            }
            let seq = self.next_seq();
            self.push(Event {
                time: busy,
                seq,
                to: ev.to,
                kind: ev.kind,
            });
            return true;
        }
        if let EventKind::Deliver { .. } = &ev.kind {
            self.stats.record_delivery(ev.to);
        }
        self.dispatch(ev.to, ev.time, ev.kind);
        true
    }

    /// Run until the queue is drained or the clock passes `limit`.
    pub fn run_until(&mut self, limit: SimTime) {
        while let Some(ev) = self.queue.peek() {
            if ev.time > limit {
                break;
            }
            self.step();
        }
        if self.now < limit {
            self.now = limit;
        }
    }

    /// Run until no events remain (panics via `limit` if the system
    /// never quiesces).
    pub fn run_until_idle(&mut self, limit: SimTime) {
        while let Some(ev) = self.queue.peek() {
            assert!(
                ev.time <= limit,
                "simulation did not quiesce before {limit}"
            );
            self.step();
        }
    }

    /// Number of pending events (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transedge_common::{ClientId, ClusterId, ReplicaId};

    #[derive(Debug)]
    struct TestMsg(u64);
    impl SimMessage for TestMsg {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    fn rep(c: u16, i: u16) -> NodeId {
        NodeId::Replica(ReplicaId::new(ClusterId(c), i))
    }

    /// Echoes every message back with value+1, recording receipt times.
    struct Echo {
        received: Vec<(SimTime, u64)>,
        work: SimDuration,
    }

    impl Actor<TestMsg> for Echo {
        fn on_message(&mut self, from: NodeId, msg: TestMsg, ctx: &mut Context<'_, TestMsg>) {
            self.received.push((ctx.now(), msg.0));
            ctx.consume(self.work);
            if msg.0 < 3 {
                ctx.send(from, TestMsg(msg.0 + 1));
            }
        }
    }

    /// Sends an opening message to a peer on start; counts replies.
    struct Opener {
        peer: NodeId,
        got: Vec<u64>,
    }

    impl Actor<TestMsg> for Opener {
        fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
            ctx.send(self.peer, TestMsg(0));
        }
        fn on_message(&mut self, _from: NodeId, msg: TestMsg, ctx: &mut Context<'_, TestMsg>) {
            self.got.push(msg.0);
            if msg.0 < 3 {
                ctx.send(self.peer, TestMsg(msg.0 + 1));
            }
        }
    }

    #[test]
    fn ping_pong_converges() {
        let mut sim = Simulation::for_testing(1);
        let a = rep(0, 0);
        let b = rep(0, 1);
        sim.add_actor(
            a,
            Box::new(Opener {
                peer: b,
                got: vec![],
            }),
        );
        sim.add_actor(
            b,
            Box::new(Echo {
                received: vec![],
                work: SimDuration::ZERO,
            }),
        );
        sim.run_until_idle(SimTime(1_000_000));
        let opener = sim.actor_as::<Opener>(a).unwrap();
        assert_eq!(opener.got, vec![1, 3]);
        let echo = sim.actor_as::<Echo>(b).unwrap();
        assert_eq!(
            echo.received.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![0, 2]
        );
    }

    #[test]
    fn latency_delays_delivery() {
        let mut latency = LatencyModel::instant();
        latency.intra_cluster = SimDuration::from_millis(2);
        let mut sim: Simulation<TestMsg> =
            Simulation::new(latency, CostModel::zero(), FaultPlan::none(), 1);
        let a = rep(0, 0);
        sim.add_actor(
            a,
            Box::new(Echo {
                received: vec![],
                work: SimDuration::ZERO,
            }),
        );
        sim.inject(rep(0, 1), a, TestMsg(9));
        sim.run_until_idle(SimTime(1_000_000));
        let echo = sim.actor_as::<Echo>(a).unwrap();
        assert_eq!(echo.received.len(), 1);
        assert_eq!(echo.received[0].0, SimTime(2_000));
    }

    #[test]
    fn cpu_model_serialises_concurrent_messages() {
        // Two messages arrive at t=0; the actor takes 10ms each, so the
        // second is handled at t=10ms.
        let mut sim: Simulation<TestMsg> = Simulation::for_testing(3);
        let a = rep(0, 0);
        sim.add_actor(
            a,
            Box::new(Echo {
                received: vec![],
                work: SimDuration::from_millis(10),
            }),
        );
        sim.inject(rep(0, 1), a, TestMsg(100));
        sim.inject(rep(0, 1), a, TestMsg(200));
        sim.run_until_idle(SimTime(100_000_000));
        let echo = sim.actor_as::<Echo>(a).unwrap();
        assert_eq!(echo.received.len(), 2);
        assert_eq!(echo.received[0].0, SimTime::ZERO);
        assert_eq!(echo.received[1].0, SimTime(10_000));
    }

    struct TimerActor {
        fired: Vec<(SimTime, u64)>,
        cancel_me: Option<TimerId>,
    }

    impl Actor<TestMsg> for TimerActor {
        fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
            ctx.set_timer(SimDuration::from_millis(5), 1);
            let id = ctx.set_timer(SimDuration::from_millis(10), 2);
            self.cancel_me = Some(id);
        }
        fn on_message(&mut self, _f: NodeId, _m: TestMsg, _c: &mut Context<'_, TestMsg>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, TestMsg>) {
            self.fired.push((ctx.now(), token));
            if token == 1 {
                if let Some(id) = self.cancel_me.take() {
                    ctx.cancel_timer(id);
                }
            }
        }
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut sim: Simulation<TestMsg> = Simulation::for_testing(4);
        let a = rep(0, 0);
        sim.add_actor(
            a,
            Box::new(TimerActor {
                fired: vec![],
                cancel_me: None,
            }),
        );
        sim.run_until_idle(SimTime(1_000_000));
        let t = sim.actor_as::<TimerActor>(a).unwrap();
        assert_eq!(t.fired, vec![(SimTime(5_000), 1)]);
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let faults = FaultPlan::none().with_crash(rep(0, 0), SimTime(0));
        let mut sim: Simulation<TestMsg> =
            Simulation::new(LatencyModel::instant(), CostModel::zero(), faults, 5);
        sim.add_actor(
            rep(0, 0),
            Box::new(Echo {
                received: vec![],
                work: SimDuration::ZERO,
            }),
        );
        sim.inject(rep(0, 1), rep(0, 0), TestMsg(1));
        sim.run_until_idle(SimTime(1_000_000));
        assert!(sim.actor_as::<Echo>(rep(0, 0)).unwrap().received.is_empty());
        assert_eq!(sim.stats().messages_dropped, 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim: Simulation<TestMsg> = Simulation::new(
                LatencyModel::paper_default(),
                CostModel::calibrated(),
                FaultPlan::none().with_drop_prob(0.1),
                42,
            );
            let a = rep(0, 0);
            let b = rep(1, 0);
            sim.add_actor(
                a,
                Box::new(Opener {
                    peer: b,
                    got: vec![],
                }),
            );
            sim.add_actor(
                b,
                Box::new(Echo {
                    received: vec![],
                    work: SimDuration::from_micros(100),
                }),
            );
            sim.run_until_idle(SimTime(10_000_000));
            (
                sim.now(),
                sim.stats().messages_sent,
                sim.stats().messages_dropped,
                sim.actor_as::<Opener>(a).unwrap().got.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_respects_limit() {
        let mut latency = LatencyModel::instant();
        latency.intra_cluster = SimDuration::from_millis(10);
        let mut sim: Simulation<TestMsg> =
            Simulation::new(latency, CostModel::zero(), FaultPlan::none(), 6);
        let a = rep(0, 0);
        sim.add_actor(
            a,
            Box::new(Echo {
                received: vec![],
                work: SimDuration::ZERO,
            }),
        );
        sim.inject(rep(0, 1), a, TestMsg(0));
        sim.run_until(SimTime(5_000)); // before the 10ms delivery
        assert!(sim.actor_as::<Echo>(a).unwrap().received.is_empty());
        assert_eq!(sim.now(), SimTime(5_000));
        sim.run_until(SimTime(20_000));
        assert_eq!(sim.actor_as::<Echo>(a).unwrap().received.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate actor")]
    fn duplicate_actor_panics() {
        let mut sim: Simulation<TestMsg> = Simulation::for_testing(1);
        sim.add_actor(
            rep(0, 0),
            Box::new(Echo {
                received: vec![],
                work: SimDuration::ZERO,
            }),
        );
        sim.add_actor(
            rep(0, 0),
            Box::new(Echo {
                received: vec![],
                work: SimDuration::ZERO,
            }),
        );
    }

    #[test]
    fn removed_actor_drops_in_flight_events_and_can_restart() {
        let mut latency = LatencyModel::instant();
        latency.intra_cluster = SimDuration::from_millis(10);
        let mut sim: Simulation<TestMsg> =
            Simulation::new(latency, CostModel::zero(), FaultPlan::none(), 7);
        let a = rep(0, 0);
        sim.add_actor(
            a,
            Box::new(Echo {
                received: vec![],
                work: SimDuration::ZERO,
            }),
        );
        // A message is in flight when the actor is torn down: the
        // delivery surfaces against an unknown target and is dropped.
        sim.inject(rep(0, 1), a, TestMsg(7));
        let removed = sim.remove_actor(a).expect("actor was registered");
        let any: &dyn Any = removed.as_ref();
        assert!(any.downcast_ref::<Echo>().unwrap().received.is_empty());
        assert!(sim.remove_actor(a).is_none(), "second removal is a no-op");
        sim.run_until_idle(SimTime(1_000_000));
        // Restart under the same id: a fresh actor, a fresh on_start,
        // and new deliveries land normally.
        sim.add_actor(
            a,
            Box::new(Echo {
                received: vec![],
                work: SimDuration::ZERO,
            }),
        );
        sim.inject(rep(0, 1), a, TestMsg(9));
        sim.run_until_idle(SimTime(10_000_000));
        let echo = sim.actor_as::<Echo>(a).unwrap();
        assert_eq!(
            echo.received.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![9]
        );
    }

    #[test]
    fn injected_message_to_unknown_actor_is_ignored() {
        let mut sim: Simulation<TestMsg> = Simulation::for_testing(1);
        sim.inject(rep(0, 1), NodeId::Client(ClientId(99)), TestMsg(1));
        sim.run_until_idle(SimTime(1_000));
    }

    /// Re-arms a timer forever — the canonical never-quiescing actor.
    struct Metronome;
    impl Actor<TestMsg> for Metronome {
        fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_message(&mut self, _f: NodeId, _m: TestMsg, _c: &mut Context<'_, TestMsg>) {}
        fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, TestMsg>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }

    #[test]
    fn removed_actor_with_queued_timer_is_dropped_harmlessly() {
        // A timer is pending when the actor is torn down: the firing
        // surfaces against an unknown target and is dropped; a fresh
        // actor under the same id starts with its own timers only.
        let mut sim: Simulation<TestMsg> = Simulation::for_testing(11);
        let a = rep(0, 0);
        sim.add_actor(
            a,
            Box::new(TimerActor {
                fired: vec![],
                cancel_me: None,
            }),
        );
        // Run the on_start (arms timers at 5ms and 10ms) but stop
        // before either fires, then remove with both still queued.
        sim.run_until(SimTime(1_000));
        assert!(sim.pending_events() >= 2, "timers must still be queued");
        let removed = sim.remove_actor(a).expect("actor was registered");
        let any: &dyn Any = removed.as_ref();
        assert!(any.downcast_ref::<TimerActor>().unwrap().fired.is_empty());
        // The orphaned timers surface against an unknown target and are
        // dropped harmlessly; the queue drains.
        sim.run_until_idle(SimTime(1_000_000));
        assert_eq!(sim.pending_events(), 0);
        // A fresh actor under the same id starts clean: its own timers
        // only (now = 10ms, the last orphaned firing).
        sim.add_actor(
            a,
            Box::new(TimerActor {
                fired: vec![],
                cancel_me: None,
            }),
        );
        sim.run_until_idle(SimTime(1_000_000));
        let t = sim.actor_as::<TimerActor>(a).unwrap();
        assert_eq!(t.fired, vec![(SimTime(15_000), 1)]);
    }

    #[test]
    #[should_panic(expected = "did not quiesce")]
    fn run_until_idle_panics_at_limit() {
        let mut sim: Simulation<TestMsg> = Simulation::for_testing(12);
        sim.add_actor(rep(0, 0), Box::new(Metronome));
        sim.run_until_idle(SimTime(50_000));
    }

    #[test]
    fn partition_and_crash_interact_on_same_node() {
        // Node A is both inside an imposed partition and later crashed:
        // the partition cuts A↔B while active, the crash silences A for
        // good, and healing the partition must not resurrect it.
        let mut sim: Simulation<TestMsg> = Simulation::for_testing(13);
        let a = rep(0, 0);
        let b = rep(0, 1);
        sim.add_actor(
            a,
            Box::new(Echo {
                received: vec![],
                work: SimDuration::ZERO,
            }),
        );
        sim.run_until(SimTime(1_000));
        let h = sim.impose_partition([a], [b]);
        sim.inject(b, a, TestMsg(100)); // cut by the partition
        sim.run_until(SimTime(2_000));
        sim.crash_node(a);
        sim.heal_partition(h);
        sim.inject(b, a, TestMsg(200)); // healed link, but A is crashed
        sim.run_until_idle(SimTime(1_000_000));
        assert!(
            sim.actor_as::<Echo>(a).unwrap().received.is_empty(),
            "neither the partitioned nor the post-crash message lands"
        );
        assert_eq!(
            sim.stats().messages_dropped,
            2,
            "one partition drop, one crash drop"
        );
        // A FaultPlan crash silences without deregistering: queued
        // events for a crashed node are skipped at pop, not dispatched.
        assert!(sim.faults().is_crashed(a, sim.now()));
    }

    #[test]
    fn traced_deliveries_record_wire_queue_and_serve_spans() {
        use transedge_obs::{SpanPhase, TraceContext, TraceId};

        #[derive(Debug)]
        struct Traced(TraceContext);
        impl SimMessage for Traced {
            fn size_bytes(&self) -> usize {
                16
            }
            fn trace_context(&self) -> Option<TraceContext> {
                Some(self.0)
            }
            fn kind(&self) -> &'static str {
                "traced"
            }
        }
        struct Sink {
            work: SimDuration,
        }
        impl Actor<Traced> for Sink {
            fn on_message(&mut self, _f: NodeId, _m: Traced, ctx: &mut Context<'_, Traced>) {
                assert!(ctx.trace_here().is_some(), "handler sees its span context");
                ctx.consume(self.work);
            }
        }

        let mut latency = LatencyModel::instant();
        latency.client_local = SimDuration::from_millis(2);
        let mut sim: Simulation<Traced> =
            Simulation::new(latency, CostModel::zero(), FaultPlan::none(), 8);
        let server = rep(0, 0);
        let client = NodeId::Client(ClientId(0));
        sim.add_actor(
            server,
            Box::new(Sink {
                work: SimDuration::from_millis(5),
            }),
        );
        let t = TraceId::for_op(0, 0);
        let root = sim.trace_log_mut().begin(t, client, SimTime::ZERO, "op");
        let tc = TraceContext {
            trace: t,
            span: root,
        };
        // Two traced messages land together: the second queues behind
        // the 5ms handler of the first.
        sim.inject(client, server, Traced(tc));
        sim.inject(client, server, Traced(tc));
        sim.run_until_idle(SimTime(60_000));
        let now = sim.now();
        sim.trace_log_mut().complete(t, now);
        let done = sim.trace_log().last_completed().expect("completed trace");
        assert!(done.is_connected());
        let wires: Vec<_> = done.spans_of(SpanPhase::Wire).collect();
        assert_eq!(wires.len(), 2);
        assert!(wires
            .iter()
            .all(|s| s.duration() == SimDuration::from_millis(2)));
        let serves: Vec<_> = done.spans_of(SpanPhase::Serve).collect();
        assert_eq!(serves.len(), 2);
        assert!(serves
            .iter()
            .all(|s| s.duration() == SimDuration::from_millis(5)));
        let queues: Vec<_> = done.spans_of(SpanPhase::Queue).collect();
        assert_eq!(queues.len(), 1, "second delivery queued once");
        assert_eq!(queues[0].duration(), SimDuration::from_millis(5));
        assert_eq!(sim.stats().kind("traced").messages, 2);
        assert_eq!(sim.stats().kind("traced").bytes, 32);
    }

    #[test]
    fn dynamic_drop_prob_switches_mid_run() {
        let mut sim: Simulation<TestMsg> = Simulation::for_testing(14);
        let a = rep(0, 0);
        sim.add_actor(
            a,
            Box::new(Echo {
                received: vec![],
                work: SimDuration::ZERO,
            }),
        );
        sim.set_drop_prob(1.0);
        sim.inject(rep(0, 1), a, TestMsg(5));
        sim.run_until_idle(SimTime(1_000_000));
        assert!(sim.actor_as::<Echo>(a).unwrap().received.is_empty());
        sim.set_drop_prob(0.0);
        sim.inject(rep(0, 1), a, TestMsg(6));
        sim.run_until_idle(SimTime(10_000_000));
        assert_eq!(sim.actor_as::<Echo>(a).unwrap().received.len(), 1);
    }
}
