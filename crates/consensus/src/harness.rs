//! In-memory cluster harness for driving [`BftEngine`]s directly —
//! no simulator, no clocks. Used by this crate's own tests and by the
//! byzantine test-suite; exported because downstream crates reuse it
//! for protocol-level assertions.

use std::collections::{HashMap, VecDeque};

use transedge_common::{BatchNum, ClusterId, ClusterTopology, ReplicaId};
use transedge_crypto::{KeyStore, Keypair};

use crate::engine::{BftConfig, BftEngine, Output};
use crate::messages::{BftMsg, BftValue};

/// A message in flight between two replicas.
pub struct InFlight<V> {
    pub from: ReplicaId,
    pub to: ReplicaId,
    pub msg: BftMsg<V>,
}

/// N engines plus a FIFO network with hooks for dropping / mutating
/// traffic.
pub struct Cluster<V: BftValue> {
    pub topology: ClusterTopology,
    pub cluster_id: ClusterId,
    pub keys: KeyStore,
    pub keypairs: HashMap<ReplicaId, Keypair>,
    engines: HashMap<ReplicaId, BftEngine<V>>,
    pub network: VecDeque<InFlight<V>>,
    /// Every in-order delivery each replica has made: (slot, value).
    pub delivered: HashMap<ReplicaId, Vec<(BatchNum, V)>>,
    /// Replicas that silently ignore all traffic (crash-faulty).
    pub down: Vec<ReplicaId>,
}

impl<V: BftValue> Cluster<V> {
    /// A fresh cluster tolerating `f` faults, keyed deterministically
    /// from `seed`.
    pub fn new(f: u16, seed: u8) -> Self {
        let topology = ClusterTopology::new(1, f).expect("valid topology");
        let cluster_id = ClusterId(0);
        let (keys, keypairs) = KeyStore::for_topology(&topology, &[seed; 32]);
        let mut engines = HashMap::new();
        let mut delivered = HashMap::new();
        for r in topology.replicas_of(cluster_id) {
            let config = BftConfig {
                cluster: cluster_id,
                me: r,
                f: f as usize,
            };
            engines.insert(
                r,
                BftEngine::new(config, keypairs[&r].clone(), keys.clone()),
            );
            delivered.insert(r, Vec::new());
        }
        Cluster {
            topology,
            cluster_id,
            keys,
            keypairs,
            engines,
            network: VecDeque::new(),
            delivered,
            down: Vec::new(),
        }
    }

    pub fn replicas(&self) -> Vec<ReplicaId> {
        self.topology.replicas_of(self.cluster_id).collect()
    }

    pub fn engine(&self, r: ReplicaId) -> &BftEngine<V> {
        &self.engines[&r]
    }

    pub fn engine_mut(&mut self, r: ReplicaId) -> &mut BftEngine<V> {
        self.engines.get_mut(&r).unwrap()
    }

    /// Current leader according to replica 0's view.
    pub fn leader(&self) -> ReplicaId {
        let r0 = self.replicas()[0];
        self.engines[&r0].leader()
    }

    fn enqueue_outputs(&mut self, from: ReplicaId, outputs: Vec<Output<V>>) {
        for output in outputs {
            match output {
                Output::Send(to, msg) => self.network.push_back(InFlight { from, to, msg }),
                Output::Broadcast(msg) => {
                    for to in self.replicas() {
                        if to != from {
                            self.network.push_back(InFlight {
                                from,
                                to,
                                msg: msg.clone(),
                            });
                        }
                    }
                }
                Output::Decided { slot, value, .. } => {
                    self.delivered.get_mut(&from).unwrap().push((slot, value));
                }
                Output::EnteredView { .. } => {}
            }
        }
    }

    /// Leader proposes a value.
    pub fn propose(&mut self, value: V) {
        let leader = self.leader();
        let outputs = self.engines.get_mut(&leader).unwrap().propose(value);
        self.enqueue_outputs(leader, outputs);
    }

    /// Deliver one queued message (front of the FIFO). Returns false if
    /// the network is empty. `filter` may drop (return `None`) or
    /// mutate messages — the byzantine test hook.
    pub fn step_with(&mut self, filter: &mut dyn FnMut(&InFlight<V>) -> Option<BftMsg<V>>) -> bool {
        let Some(inflight) = self.network.pop_front() else {
            return false;
        };
        if self.down.contains(&inflight.to) || self.down.contains(&inflight.from) {
            return true;
        }
        let Some(msg) = filter(&inflight) else {
            return true;
        };
        let to = inflight.to;
        let from = inflight.from;
        let outputs = self
            .engines
            .get_mut(&to)
            .unwrap()
            .handle(from, msg, &mut |_, _| true);
        self.enqueue_outputs(to, outputs);
        // Replay any propose that was buffered while this replica lagged.
        loop {
            let Some((pfrom, pmsg)) = self.engines.get_mut(&to).unwrap().take_pending_propose()
            else {
                break;
            };
            let outputs = self
                .engines
                .get_mut(&to)
                .unwrap()
                .handle(pfrom, pmsg, &mut |_, _| true);
            self.enqueue_outputs(to, outputs);
        }
        true
    }

    /// Run until the network drains (bounded by `max_steps`).
    pub fn run(&mut self, max_steps: usize) {
        let mut steps = 0;
        while self.step_with(&mut |m| Some(m.msg.clone())) {
            steps += 1;
            assert!(steps < max_steps, "network did not quiesce");
        }
    }

    /// Run with a message filter.
    pub fn run_with(
        &mut self,
        max_steps: usize,
        filter: &mut dyn FnMut(&InFlight<V>) -> Option<BftMsg<V>>,
    ) {
        let mut steps = 0;
        while self.step_with(filter) {
            steps += 1;
            assert!(steps < max_steps, "network did not quiesce");
        }
    }

    /// Fire the leader-timeout at every live replica (hosts drive this
    /// with real timers; tests call it directly).
    pub fn timeout_all(&mut self) {
        for r in self.replicas() {
            if self.down.contains(&r) {
                continue;
            }
            let outputs = self.engines.get_mut(&r).unwrap().on_timeout();
            self.enqueue_outputs(r, outputs);
        }
    }

    /// Assert every live replica delivered the same log and return it.
    pub fn assert_agreement(&self) -> Vec<(BatchNum, V)>
    where
        V: PartialEq + std::fmt::Debug,
    {
        let live: Vec<_> = self
            .replicas()
            .into_iter()
            .filter(|r| !self.down.contains(r))
            .collect();
        let reference = &self.delivered[&live[0]];
        for r in &live[1..] {
            assert_eq!(
                &self.delivered[r], reference,
                "replica {r} diverged from {}",
                live[0]
            );
        }
        reference.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(tag: u8) -> Vec<u8> {
        vec![tag; 8]
    }

    #[test]
    fn single_slot_decides_everywhere() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 1);
        cluster.propose(value(1));
        cluster.run(10_000);
        let log = cluster.assert_agreement();
        assert_eq!(log, vec![(BatchNum(0), value(1))]);
    }

    #[test]
    fn sequential_slots_stay_ordered() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 2);
        for i in 0..5 {
            cluster.propose(value(i));
            cluster.run(10_000);
        }
        let log = cluster.assert_agreement();
        assert_eq!(log.len(), 5);
        for (i, (slot, v)) in log.iter().enumerate() {
            assert_eq!(slot.0, i as u64);
            assert_eq!(v, &value(i as u8));
        }
    }

    #[test]
    fn decides_with_f_crashed_replicas() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(2, 3); // 7 replicas
                                                                // Crash 2 non-leader replicas.
        let reps = cluster.replicas();
        cluster.down = vec![reps[5], reps[6]];
        cluster.propose(value(9));
        cluster.run(10_000);
        let log = cluster.assert_agreement();
        assert_eq!(log, vec![(BatchNum(0), value(9))]);
    }

    #[test]
    fn does_not_decide_without_quorum() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 4); // 4 replicas, quorum 3
        let reps = cluster.replicas();
        cluster.down = vec![reps[2], reps[3]]; // only 2 live < quorum
        cluster.propose(value(5));
        cluster.run(10_000);
        for r in [reps[0], reps[1]] {
            assert!(cluster.delivered[&r].is_empty());
        }
    }

    #[test]
    fn f0_is_rejected_by_topology() {
        assert!(ClusterTopology::new(1, 0).is_err());
    }

    #[test]
    fn certificates_verify_for_delivered_slots() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 5);
        cluster.propose(value(7));
        cluster.run(10_000);
        let r0 = cluster.replicas()[0];
        let engine = cluster.engine(r0);
        let (_, cert) = &engine.log()[0];
        assert!(cert.verify(&cluster.keys, 2).is_ok());
    }

    #[test]
    fn view_change_rotates_leader_and_recovers() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 6);
        let reps = cluster.replicas();
        let old_leader = cluster.leader();
        assert_eq!(old_leader, reps[0]);
        // Leader goes dark before proposing anything.
        cluster.down = vec![old_leader];
        cluster.timeout_all();
        cluster.run(10_000);
        // All live replicas agree on the new view with leader r1.
        for r in &reps[1..] {
            assert_eq!(cluster.engine(*r).leader(), reps[1], "at {r}");
        }
        // The new leader can commit values.
        let outputs = cluster.engine_mut(reps[1]).propose(value(3));
        cluster.enqueue_outputs(reps[1], outputs);
        cluster.run(10_000);
        let live_logs: Vec<_> = reps[1..]
            .iter()
            .map(|r| cluster.delivered[r].clone())
            .collect();
        for log in &live_logs {
            assert_eq!(log, &vec![(BatchNum(0), value(3))]);
        }
    }

    #[test]
    fn prepared_value_survives_view_change() {
        // Leader gets the value written (2f+1 writes) at some replicas
        // but accepts are lost; after view change the value must still
        // be the one decided (PBFT safety).
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 7);
        let reps = cluster.replicas();
        cluster.propose(value(8));
        // Deliver everything except Accept messages, so every replica
        // reaches "prepared" but nobody decides.
        cluster.run_with(10_000, &mut |m| match &m.msg {
            BftMsg::Accept { .. } => None,
            other => Some(other.clone()),
        });
        for r in &reps {
            assert!(cluster.delivered[r].is_empty());
        }
        // Old leader crashes; view change must re-propose value(8).
        cluster.down = vec![reps[0]];
        cluster.timeout_all();
        cluster.run(20_000);
        for r in &reps[1..] {
            assert_eq!(
                cluster.delivered[r],
                vec![(BatchNum(0), value(8))],
                "replica {r} must decide the prepared value"
            );
        }
    }

    #[test]
    fn lagging_replica_catches_up_via_state_transfer() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 8);
        let reps = cluster.replicas();
        let lagger = reps[3];
        // Cut lagger off for two slots.
        for i in 0..2 {
            cluster.propose(value(i));
            cluster.run_with(10_000, &mut |m| {
                (m.to != lagger && m.from != lagger).then(|| m.msg.clone())
            });
        }
        assert!(cluster.delivered[&lagger].is_empty());
        // Reconnect: next slot's propose triggers a state request.
        cluster.propose(value(2));
        cluster.run(20_000);
        let log = cluster.assert_agreement();
        assert_eq!(log.len(), 3);
    }
}
