//! The actor abstraction protocol code implements.

use rand::rngs::SmallRng;
use transedge_common::{NodeId, SimDuration, SimTime};
use transedge_obs::{TraceContext, TraceLog};

use crate::cost::CostModel;

/// Implemented by every message type that travels the simulated
/// network, so the latency model can charge bandwidth.
pub trait SimMessage {
    /// Approximate wire size in bytes.
    fn size_bytes(&self) -> usize;

    /// The causal-trace context this message propagates, if any.
    /// Request-direction protocol messages carry one; everything else
    /// (responses, gossip, consensus internals) defaults to `None` and
    /// stays untraced.
    fn trace_context(&self) -> Option<TraceContext> {
        None
    }

    /// Stable per-variant tag for per-kind network accounting and wire
    /// span labels.
    fn kind(&self) -> &'static str {
        "msg"
    }
}

/// Handle to a pending timer, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub(crate) u64);

/// A deterministic event-driven process. One per replica / client.
///
/// `Any` is a supertrait so tests and bench harnesses can downcast a
/// stored actor back to its concrete type for inspection
/// (`Simulation::actor_as`).
pub trait Actor<M: SimMessage>: std::any::Any {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// A message arrived from `from`.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<'_, M>);

    /// A timer set with [`Context::set_timer`] fired. `token` is the
    /// caller-chosen discriminator.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, M>) {}

    /// The actor this one wraps, for an actor put around another with
    /// [`crate::Simulation::wrap_actor`]: `actor_as` looks through it.
    fn inner(&self) -> Option<&(dyn Actor<M> + 'static)> {
        None
    }

    /// Mutable [`Actor::inner`].
    fn inner_mut(&mut self) -> Option<&mut (dyn Actor<M> + 'static)> {
        None
    }
}

pub(crate) enum Effect<M> {
    Send {
        to: NodeId,
        msg: M,
        /// CPU offset within the handler at which the send happened.
        at_offset: SimDuration,
    },
    Timer {
        id: TimerId,
        delay: SimDuration,
        token: u64,
        at_offset: SimDuration,
    },
    Cancel(TimerId),
}

/// Capabilities handed to an actor while it handles one event.
///
/// Effects (sends, timers) are buffered and applied by the simulator
/// after the handler returns; [`Context::charge`]/[`Context::consume`]
/// advance the actor's CPU clock so that subsequent sends depart later
/// and queued messages wait.
pub struct Context<'a, M> {
    pub(crate) self_id: NodeId,
    pub(crate) now: SimTime,
    pub(crate) consumed: SimDuration,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) cost: &'a CostModel,
    pub(crate) effects: Vec<Effect<M>>,
    pub(crate) timer_seq: &'a mut u64,
    pub(crate) trace: &'a mut TraceLog,
    /// The span context of the delivery being handled (trace id +
    /// this hop's pre-allocated serve span), when the delivered
    /// message carried one.
    pub(crate) cur_span: Option<TraceContext>,
}

impl<'a, M> Context<'a, M> {
    /// This actor's own address.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Current simulated time *within* this handler (event arrival time
    /// plus CPU consumed so far).
    pub fn now(&self) -> SimTime {
        self.now + self.consumed
    }

    /// The cost table for explicit charging.
    pub fn costs(&self) -> &CostModel {
        self.cost
    }

    /// Charge simulated CPU time. Messages sent after this call depart
    /// later; messages queued behind this actor wait longer.
    pub fn consume(&mut self, d: SimDuration) {
        self.consumed += d;
    }

    /// Convenience: charge a cost-model entry selected by closure.
    pub fn charge(&mut self, pick: impl FnOnce(&CostModel) -> SimDuration) {
        let d = pick(self.cost);
        self.consume(d);
    }

    /// Send `msg` to `to`. Departure time is the current handler-local
    /// clock; arrival adds sampled network latency.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.effects.push(Effect::Send {
            to,
            msg,
            at_offset: self.consumed,
        });
    }

    /// The messages sent so far in this handler, with their
    /// destinations, to rewrite in place: how a wrapper changes what the
    /// actor it wraps sends.
    pub fn sends_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut M)> + '_ {
        self.effects.iter_mut().filter_map(|effect| match effect {
            Effect::Send { to, msg, .. } => Some((*to, msg)),
            _ => None,
        })
    }

    /// Send the same message constructor to many destinations.
    pub fn broadcast(&mut self, to: impl IntoIterator<Item = NodeId>, msg: impl Fn() -> M) {
        for dest in to {
            if dest != self.self_id {
                self.send(dest, msg());
            }
        }
    }

    /// Schedule [`Actor::on_timer`] after `delay`, tagged with `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        *self.timer_seq += 1;
        let id = TimerId(*self.timer_seq);
        self.effects.push(Effect::Timer {
            id,
            delay,
            token,
            at_offset: self.consumed,
        });
        id
    }

    /// Cancel a pending timer (no-op if already fired).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::Cancel(id));
    }

    /// Deterministic per-simulation RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// The simulation's trace log, for minting traces, marker spans,
    /// and (deferred) completion. Recording never perturbs scheduling.
    pub fn trace(&mut self) -> &mut TraceLog {
        self.trace
    }

    /// The context of the span covering *this* handler invocation, if
    /// the delivered message carried a trace: re-parent under this to
    /// attribute downstream hops (forwards, sub-queries) to the work
    /// that caused them.
    pub fn trace_here(&self) -> Option<TraceContext> {
        self.cur_span
    }
}
