//! One-call construction of a complete simulated TransEdge deployment:
//! clusters of replicas, preloaded data with genesis certificates, and
//! scripted clients.

use transedge_common::{
    BatchNum, ClientId, ClusterId, ClusterTopology, EdgeId, Key, NodeId, ReplicaId, SimDuration,
    SimTime, Value,
};
use transedge_consensus::messages::accept_statement;
use transedge_consensus::{BftValue, Certificate};
use transedge_crypto::hmac::derive_seed;
use transedge_crypto::{KeyStore, Keypair};
use transedge_obs::{chrome_trace_json, CompletedTrace, MetricRegistry};
use transedge_simnet::{CostModel, FaultPlan, LatencyModel, PartitionHandle, Simulation};

use crate::client::{ClientActor, ClientConfig, ClientOp};
use crate::config::{ClientProfile, EdgeConfig};
use crate::edge_node::EdgeReadNode;
use crate::messages::NetMsg;
use crate::metrics::TxnSample;
use crate::node::{NodeConfig, TransEdgeNode};
use transedge_edge::VerifyParams;

/// Everything needed to build a deployment.
#[derive(Clone)]
pub struct DeploymentConfig {
    pub topo: ClusterTopology,
    pub node: NodeConfig,
    pub client: ClientConfig,
    pub latency: LatencyModel,
    pub cost: CostModel,
    pub faults: FaultPlan,
    pub seed: u64,
    /// Initial keys preloaded as batch 0 of each partition.
    pub n_keys: u32,
    /// Value size in bytes (paper: 256).
    pub value_size: usize,
    /// Edge read tier (typed, validated; see [`EdgeConfig::builder`]).
    pub edge: EdgeConfig,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            topo: ClusterTopology::paper_default(),
            node: NodeConfig::default(),
            client: ClientConfig::default(),
            latency: LatencyModel::paper_default(),
            cost: CostModel::calibrated(),
            faults: FaultPlan::none(),
            seed: 42,
            n_keys: 10_000,
            value_size: 256,
            edge: EdgeConfig::none(),
        }
    }
}

impl DeploymentConfig {
    /// A small, fast configuration for functional tests: 2 clusters of
    /// 4 (f = 1), instant network, free CPU.
    pub fn for_testing() -> Self {
        DeploymentConfig {
            topo: ClusterTopology::new(2, 1).unwrap(),
            node: NodeConfig {
                batch_interval: transedge_common::SimDuration::from_millis(2),
                max_batch_size: 64,
                ..NodeConfig::default()
            },
            latency: LatencyModel::instant(),
            cost: CostModel::zero(),
            n_keys: 256,
            ..Default::default()
        }
    }

    /// What clients and edges check proofs against: the nodes'
    /// parameters.
    pub fn verify_params(&self) -> VerifyParams {
        VerifyParams {
            tree_depth: self.node.tree_depth,
            freshness_window: self.node.freshness_window,
            quorum: self.topo.certificate_quorum(),
        }
    }

    /// Every edge of the tier, partition by partition.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.topo.clusters().flat_map(move |cluster| {
            (0..self.edge.per_cluster).map(move |index| EdgeId::new(cluster, index as u16))
        })
    }
}

/// The 32-byte root seed every deployment keypair derives from.
fn root_seed(seed: u64) -> [u8; 32] {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes
}

/// An edge node's deterministic identity keypair. Derivation is a pure
/// function of the deployment seed, so a *restarted* edge recovers the
/// same identity its gossip peers and the key store already know.
fn edge_keypair(seed: &[u8; 32], id: EdgeId) -> Keypair {
    Keypair::from_seed(derive_seed(
        seed,
        &format!("edge/{}/{}", id.cluster.0, id.index),
    ))
}

/// Deterministic initial dataset: `Key::from_u32(i)` for `i in
/// 0..n_keys`, each with a `value_size`-byte value derived from the
/// key. Value buffers are shared (`bytes::Bytes`) across replicas.
pub fn generate_data(n_keys: u32, value_size: usize) -> Vec<(Key, Value)> {
    (0..n_keys)
        .map(|i| (Key::from_u32(i), Value::filled(value_size, (i % 251) as u8)))
        .collect()
}

/// A running simulated deployment.
pub struct Deployment {
    pub sim: Simulation<NetMsg>,
    pub topo: ClusterTopology,
    pub keys: KeyStore,
    pub config: DeploymentConfig,
    pub client_ids: Vec<ClientId>,
    /// Edge read nodes spawned by the edge plan.
    pub edge_ids: Vec<EdgeId>,
    /// The initial dataset (tests use it as ground truth).
    pub data: Vec<(Key, Value)>,
}

/// One client of a deployment: its script plus what it does
/// differently from the rest of the fleet — what lets a harness stagger
/// start times or flip single-contact mode for one client only.
#[derive(Clone)]
pub struct ClientPlan {
    pub ops: Vec<ClientOp>,
    /// The client's profile; `None` runs the default one.
    pub profile: Option<ClientProfile>,
}

impl ClientPlan {
    pub fn ops(ops: Vec<ClientOp>) -> Self {
        ClientPlan { ops, profile: None }
    }

    /// A script with a typed behaviour profile.
    pub fn with_profile(ops: Vec<ClientOp>, profile: ClientProfile) -> Self {
        ClientPlan {
            ops,
            profile: Some(profile),
        }
    }
}

impl Deployment {
    /// Build a deployment with one scripted client per entry of
    /// `client_ops`. Clients are homed near cluster 0 unless the
    /// latency model in `config` says otherwise.
    pub fn build(config: DeploymentConfig, client_ops: Vec<Vec<ClientOp>>) -> Deployment {
        Self::build_custom(
            config,
            client_ops.into_iter().map(ClientPlan::ops).collect(),
        )
    }

    /// [`Deployment::build`] with per-client profiles.
    pub fn build_custom(config: DeploymentConfig, clients: Vec<ClientPlan>) -> Deployment {
        let seed = root_seed(config.seed);
        let (mut keys, secrets) = KeyStore::for_topology(&config.topo, &seed);
        // Every edge node and client gets an identity keypair too (the
        // paper's "each edge node has a unique public/private key",
        // §2): the gossip directory's rejection evidence is signed by
        // its witness, so forged or relayed-and-altered gossip fails
        // verification at every honest receiver.
        let edge_secrets: Vec<(EdgeId, Keypair)> = config
            .edge_ids()
            .map(|id| {
                let kp = edge_keypair(&seed, id);
                keys.register(NodeId::Edge(id), kp.public());
                (id, kp)
            })
            .collect();
        let client_secrets: Vec<Keypair> = (0..clients.len())
            .map(|i| {
                let kp = Keypair::from_seed(derive_seed(&seed, &format!("client/{i}")));
                keys.register(NodeId::Client(ClientId(i as u32)), kp.public());
                kp
            })
            .collect();
        let data = generate_data(config.n_keys, config.value_size);
        let mut sim: Simulation<NetMsg> = Simulation::new(
            config.latency.clone(),
            config.cost.clone(),
            config.faults.clone(),
            config.seed,
        );
        // Build each cluster: its first replica preloads the data, the
        // others copy that genesis state (all replicas of a cluster
        // start from the same database), then assemble the genesis
        // certificate, install, add to the simulation.
        for cluster in config.topo.clusters() {
            let mut nodes: Vec<TransEdgeNode> = config
                .topo
                .replicas_of(cluster)
                .map(|r| {
                    TransEdgeNode::new(
                        r,
                        config.topo.clone(),
                        keys.clone(),
                        secrets[&r].clone(),
                        config.node.clone(),
                    )
                })
                .collect();
            let (first, rest) = nodes.split_first_mut().expect("a cluster has replicas");
            let genesis = first
                .exec
                .preload(data.iter().map(|(k, v)| (k, v)), SimTime::ZERO);
            for node in rest {
                node.exec.adopt_genesis(&first.exec);
            }
            let digest = BftValue::digest(&genesis);
            let stmt = accept_statement(cluster, BatchNum(0), &digest);
            let sigs: Vec<(NodeId, _)> = config
                .topo
                .replicas_of(cluster)
                .take(config.topo.certificate_quorum())
                .map(|r| (NodeId::Replica(r), secrets[&r].sign(&stmt)))
                .collect();
            let cert = Certificate {
                cluster,
                slot: BatchNum(0),
                digest,
                sigs,
            };
            for node in &mut nodes {
                node.install_genesis(genesis.clone(), cert.clone());
            }
            for node in nodes {
                let id = NodeId::Replica(node.me);
                sim.add_actor(id, Box::new(node));
            }
        }
        // Edge read tier (untrusted caches fronting each partition).
        let edge_ids: Vec<EdgeId> = edge_secrets.iter().map(|(id, _)| *id).collect();
        for (id, keypair) in edge_secrets {
            let node = EdgeReadNode::new(id, &config, keys.clone(), keypair);
            sim.add_actor(NodeId::Edge(id), Box::new(node));
        }
        let mut client_ids = Vec::new();
        for (i, plan) in clients.into_iter().enumerate() {
            let id = ClientId(i as u32);
            client_ids.push(id);
            let client = ClientActor::new(
                id,
                &config,
                keys.clone(),
                client_secrets[i].clone(),
                plan.profile.unwrap_or_default(),
                plan.ops,
            );
            sim.add_actor(NodeId::Client(id), Box::new(client));
        }
        Deployment {
            sim,
            topo: config.topo.clone(),
            keys,
            config,
            client_ids,
            edge_ids,
            data,
        }
    }

    /// Are all scripted clients finished?
    pub fn clients_done(&self) -> bool {
        self.client_ids.iter().all(|id| {
            self.sim
                .actor_as::<ClientActor>(NodeId::Client(*id))
                .is_none_or(|c| c.is_done())
        })
    }

    /// Run the simulation until every client finished its script.
    /// Panics (with diagnostics) if that does not happen by `limit`.
    pub fn run_until_done(&mut self, limit: SimTime) {
        loop {
            let mut stepped = false;
            for _ in 0..2048 {
                if !self.sim.step() {
                    break;
                }
                stepped = true;
                if self.sim.now() > limit {
                    break;
                }
            }
            if self.clients_done() {
                return;
            }
            assert!(
                self.sim.now() <= limit,
                "deployment did not finish by {limit} (now {}): {} clients pending",
                self.sim.now(),
                self.client_ids
                    .iter()
                    .filter(|id| {
                        self.sim
                            .actor_as::<ClientActor>(NodeId::Client(**id))
                            .is_some_and(|c| !c.is_done())
                    })
                    .count()
            );
            assert!(
                stepped,
                "simulation quiesced with unfinished clients (deadlock)"
            );
        }
    }

    /// Access a client actor.
    pub fn client(&self, id: ClientId) -> &ClientActor {
        self.sim
            .actor_as::<ClientActor>(NodeId::Client(id))
            .expect("client actor")
    }

    /// Access a replica actor.
    pub fn node(&self, replica: ReplicaId) -> &TransEdgeNode {
        self.sim
            .actor_as::<TransEdgeNode>(NodeId::Replica(replica))
            .expect("node actor")
    }

    /// Access an edge read node actor.
    pub fn edge_node(&self, edge: EdgeId) -> &EdgeReadNode {
        self.sim
            .actor_as::<EdgeReadNode>(NodeId::Edge(edge))
            .expect("edge actor")
    }

    /// Run the simulation up to (and including) `limit` — the
    /// scripting primitive crash/restart harnesses interleave with
    /// [`Deployment::crash_edge`] / [`Deployment::restart_edge`].
    pub fn run_until(&mut self, limit: SimTime) {
        self.sim.run_until(limit);
    }

    /// Simulated crash of one edge node: the actor — replay caches,
    /// pending maps, directory state, every in-flight message to it —
    /// is destroyed, and nothing of it survives. Panics if the edge is
    /// not running.
    pub fn crash_edge(&mut self, edge: EdgeId) {
        let removed = self.sim.remove_actor(NodeId::Edge(edge));
        assert!(removed.is_some(), "crash of {edge}, which is not running");
    }

    /// Restart a crashed edge cold, exactly as it first booted: its
    /// caches start empty and refill by forwarding. The replacement
    /// re-derives its deterministic identity keypair (its peers and the
    /// key store already know it). Panics if the edge is running.
    pub fn restart_edge(&mut self, edge: EdgeId) {
        let seed = root_seed(self.config.seed);
        let node = EdgeReadNode::new(
            edge,
            &self.config,
            self.keys.clone(),
            edge_keypair(&seed, edge),
        );
        self.sim.add_actor(NodeId::Edge(edge), Box::new(node));
    }

    /// All transaction samples across clients.
    pub fn samples(&self) -> Vec<TxnSample> {
        self.client_ids
            .iter()
            .flat_map(|id| self.client(*id).samples.clone())
            .collect()
    }

    /// Current leader replica of a cluster (as seen by replica 0).
    pub fn leader_of(&self, cluster: ClusterId) -> ReplicaId {
        self.node(ReplicaId::new(cluster, 0)).cluster_leader()
    }

    // ---- observability plane ----------------------------------------

    /// Completed causal traces in the flight recorder (oldest first).
    pub fn completed_traces(&self) -> Vec<&CompletedTrace> {
        self.sim.trace_log().completed().collect()
    }

    /// The flight recorder serialised as Chrome trace format JSON —
    /// loadable in `chrome://tracing` / Perfetto.
    pub fn export_trace(&self) -> String {
        chrome_trace_json(self.sim.trace_log().completed())
    }

    /// Snapshot every node's counters into one unified registry:
    /// per-node scopes (`client-N`, `edge-C-I`, `replica-C-I`) plus the
    /// network plane under `net`. Fleet-wide rollups come from the
    /// registry's `fleet_*` views.
    pub fn metrics(&self) -> MetricRegistry {
        let mut reg = MetricRegistry::new();
        reg.register("net", self.sim.stats());
        for id in &self.client_ids {
            reg.register(&format!("client-{}", id.0), self.client(*id));
        }
        // Crashed actors are simply absent from the registry.
        for edge in &self.edge_ids {
            if let Some(node) = self.sim.actor_as::<EdgeReadNode>(NodeId::Edge(*edge)) {
                reg.register(&format!("edge-{}-{}", edge.cluster.0, edge.index), node);
            }
        }
        for cluster in self.topo.clusters() {
            for r in 0..self.topo.replicas_per_cluster() {
                let id = NodeId::Replica(ReplicaId::new(cluster, r as u16));
                if let Some(node) = self.sim.actor_as::<TransEdgeNode>(id) {
                    reg.register(&format!("replica-{}-{}", cluster.0, r), node);
                }
            }
        }
        reg
    }

    // ---- runtime scenario hooks -------------------------------------
    // The declarative scenario layer (`transedge-scenario`) steers a
    // running deployment through these: faults that start and heal on
    // cue, certification cadences that skew, and client scripts
    // re-targeted mid-workload.

    /// Cut all links between `a` and `b` from the current sim time
    /// until [`Deployment::heal_partition`].
    pub fn impose_partition(
        &mut self,
        a: impl IntoIterator<Item = NodeId>,
        b: impl IntoIterator<Item = NodeId>,
    ) -> PartitionHandle {
        self.sim.impose_partition(a, b)
    }

    /// Heal a previously imposed partition (idempotent).
    pub fn heal_partition(&mut self, handle: PartitionHandle) {
        self.sim.heal_partition(handle);
    }

    /// Change the uniform message-drop probability from now on.
    pub fn set_drop_prob(&mut self, p: f64) {
        self.sim.set_drop_prob(p);
    }

    /// Fail-stop a replica at the current sim time (it stays
    /// registered but deaf — the [`FaultPlan`] crash mode).
    pub fn crash_replica(&mut self, replica: ReplicaId) {
        self.sim.crash_node(NodeId::Replica(replica));
    }

    /// Skew one cluster's batch certification cadence: every replica of
    /// `cluster` re-arms its batch timer with `interval` from its next
    /// firing on (the batch timer re-reads the config each round).
    pub fn set_batch_interval(&mut self, cluster: ClusterId, interval: SimDuration) {
        let replicas: Vec<ReplicaId> = self.topo.replicas_of(cluster).collect();
        for r in replicas {
            if let Some(node) = self.sim.actor_as_mut::<TransEdgeNode>(NodeId::Replica(r)) {
                node.config.batch_interval = interval;
            }
        }
    }

    /// Replace the not-yet-issued tail of one client's script (see
    /// [`ClientActor::retarget_pending_ops`]).
    pub fn retarget_client_ops(&mut self, id: ClientId, ops: Vec<ClientOp>) {
        if let Some(client) = self.sim.actor_as_mut::<ClientActor>(NodeId::Client(id)) {
            client.retarget_pending_ops(ops);
        }
    }
}
