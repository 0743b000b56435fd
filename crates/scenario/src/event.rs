//! Typed scenario events and the named timelines that schedule them.

use transedge_common::{ClusterId, EdgeId, NodeId, ReplicaId, SimDuration, SimTime};

/// One scheduled chaos action against a running deployment.
#[derive(Clone, Debug)]
pub enum ScenarioEvent {
    /// Fail-stop one edge node: the actor, its caches and every
    /// in-flight message to it are destroyed.
    EdgeCrash { edge: EdgeId },
    /// Restart a previously crashed edge cold: its caches start empty
    /// and refill by forwarding, as on a first boot.
    EdgeRestart { edge: EdgeId },
    /// Cut every link between the `a` and `b` node sets from this
    /// instant until the [`ScenarioEvent::PartitionHeal`] naming the
    /// same `name`. Messages already in flight still arrive (they
    /// departed before the cut).
    PartitionStart {
        name: String,
        a: Vec<NodeId>,
        b: Vec<NodeId>,
    },
    /// Heal the partition imposed under `name`.
    PartitionHeal { name: String },
    /// Flash crowd: regenerate every still-active client's pending
    /// script from the campaign workload with the zipfian hot set
    /// rotated by `offset` ranks — the same offered load suddenly
    /// concentrated on different keys.
    HotKeyShift { offset: u64 },
    /// Skew one cluster's batch certification cadence: its replicas
    /// re-arm their batch timers with `interval` from the next firing.
    ClockSkew {
        cluster: ClusterId,
        interval: SimDuration,
    },
    /// A coalition turns coat: each member edge is wrapped in a
    /// [`crate::liar::Liar`] telling [`crate::liar::Lie::Coalition`],
    /// forging the *same* root for the same batch so the members
    /// corroborate each other.
    /// Vote-counting across them would see agreement; per-response
    /// certificate verification convicts each one individually.
    CoalitionActivate { members: Vec<EdgeId> },
    /// Fail-stop a replica at this instant (consensus-level churn; the
    /// cluster view-changes around it while `f` holds).
    ReplicaCrash { replica: ReplicaId },
    /// Change the uniform message-drop probability from this instant
    /// on (clamped to `[0, 1]`).
    DropRate { p: f64 },
    /// No action — forces an invariant sweep at this instant.
    Checkpoint,
}

/// A named, declarative timeline of [`ScenarioEvent`]s against sim
/// time. Built with [`Scenario::at`]; the runner applies events in
/// schedule order (insertion order breaks ties).
#[derive(Clone, Debug)]
pub struct Scenario {
    name: String,
    events: Vec<(SimTime, ScenarioEvent)>,
}

impl Scenario {
    /// An empty timeline under `name`.
    pub fn named(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            events: Vec::new(),
        }
    }

    /// Schedule `event` at sim time `at` (chainable).
    pub fn at(mut self, at: SimTime, event: ScenarioEvent) -> Self {
        self.events.push((at, event));
        self
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The timeline in schedule order (stable: equal times keep
    /// insertion order, so e.g. a heal inserted after a start at the
    /// same instant still applies after it).
    pub fn schedule(&self) -> Vec<(SimTime, ScenarioEvent)> {
        let mut ordered = self.events.clone();
        ordered.sort_by_key(|(at, _)| *at);
        ordered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sorts_by_time_stably() {
        let s = Scenario::named("t")
            .at(SimTime(50), ScenarioEvent::Checkpoint)
            .at(SimTime(10), ScenarioEvent::DropRate { p: 0.5 })
            .at(
                SimTime(50),
                ScenarioEvent::PartitionHeal { name: "p".into() },
            );
        assert_eq!(s.name(), "t");
        assert_eq!(s.len(), 3);
        let ordered = s.schedule();
        assert_eq!(ordered[0].0, SimTime(10));
        assert!(matches!(ordered[1].1, ScenarioEvent::Checkpoint));
        assert!(matches!(ordered[2].1, ScenarioEvent::PartitionHeal { .. }));
    }
}
