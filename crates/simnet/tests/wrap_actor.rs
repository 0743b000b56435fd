//! `Simulation::wrap_actor`: a wrapper takes the actor's place without
//! a second start, rewrites what the actor sends through
//! `Context::sends_mut`, and `actor_as` finds both through it.

use transedge_common::{ClusterId, NodeId, ReplicaId, SimTime};
use transedge_simnet::{Actor, Context, SimMessage, Simulation};

#[derive(Debug)]
struct Msg(u64);

impl SimMessage for Msg {
    fn size_bytes(&self) -> usize {
        8
    }
}

fn rep(i: u16) -> NodeId {
    NodeId::Replica(ReplicaId::new(ClusterId(0), i))
}

/// Sends `Msg(0)` to its peer on start and each time a message arrives.
struct Pinger {
    peer: NodeId,
    starts: u32,
}

impl Actor<Msg> for Pinger {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.starts += 1;
        ctx.send(self.peer, Msg(0));
    }

    fn on_message(&mut self, _from: NodeId, _msg: Msg, ctx: &mut Context<'_, Msg>) {
        ctx.send(self.peer, Msg(0));
    }
}

/// Keeps what it receives.
struct Sink(Vec<u64>);

impl Actor<Msg> for Sink {
    fn on_message(&mut self, _from: NodeId, msg: Msg, _ctx: &mut Context<'_, Msg>) {
        self.0.push(msg.0);
    }
}

/// Adds `by` to every message the actor it wraps sends.
struct Shift {
    inner: Box<dyn Actor<Msg>>,
    by: u64,
}

impl Shift {
    fn rewrite(&self, ctx: &mut Context<'_, Msg>) {
        for (_, msg) in ctx.sends_mut() {
            msg.0 += self.by;
        }
    }
}

impl Actor<Msg> for Shift {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.inner.on_start(ctx);
        self.rewrite(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        self.inner.on_message(from, msg, ctx);
        self.rewrite(ctx);
    }

    fn inner(&self) -> Option<&(dyn Actor<Msg> + 'static)> {
        Some(self.inner.as_ref())
    }

    fn inner_mut(&mut self) -> Option<&mut (dyn Actor<Msg> + 'static)> {
        Some(self.inner.as_mut())
    }
}

#[test]
fn a_wrapper_takes_the_one_start_and_rewrites_every_send() {
    let mut sim: Simulation<Msg> = Simulation::for_testing(1);
    let (pinger, sink) = (rep(0), rep(1));
    sim.add_actor(
        pinger,
        Box::new(Pinger {
            peer: sink,
            starts: 0,
        }),
    );
    sim.add_actor(sink, Box::new(Sink(Vec::new())));
    // Before the run: the wrapper receives the actor's one start.
    sim.wrap_actor(pinger, |inner| Box::new(Shift { inner, by: 100 }));
    sim.run_until_idle(SimTime(1_000));
    // Mid-run, around the wrapper: nothing restarts.
    sim.wrap_actor(pinger, |inner| Box::new(Shift { inner, by: 10 }));
    sim.inject(sink, pinger, Msg(0));
    sim.run_until_idle(SimTime(2_000));

    assert_eq!(sim.actor_as::<Sink>(sink).unwrap().0, vec![100, 110]);
    assert_eq!(sim.actor_as::<Pinger>(pinger).unwrap().starts, 1);
    assert_eq!(
        sim.actor_as::<Shift>(pinger).unwrap().by,
        10,
        "outermost first"
    );
    sim.actor_as_mut::<Pinger>(pinger).unwrap().starts = 7;
    assert_eq!(sim.actor_as::<Pinger>(pinger).unwrap().starts, 7);
}

#[test]
#[should_panic(expected = "no actor")]
fn wrapping_no_actor_panics() {
    let mut sim: Simulation<Msg> = Simulation::for_testing(1);
    sim.wrap_actor(rep(0), |inner| inner);
}
