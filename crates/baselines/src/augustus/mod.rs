//! Augustus-style BFT storage (Padilha & Pedone, EuroSys'13), as the
//! paper's evaluation uses it: the lock-based comparator for read-only
//! transactions.
//!
//! Protocol (client-coordinated, two phases):
//!
//! 1. the client submits the transaction to the leader of every
//!    accessed partition; the leader sequences it and forwards to its
//!    replicas;
//! 2. each replica executes in sequence order: it tries to acquire
//!    **shared locks** for reads and **exclusive locks** for writes —
//!    all or nothing, no blocking (first-committer-wins: a conflict is
//!    an abort vote). It returns a *signed vote* (with read values)
//!    directly to the client;
//! 3. the client collects `2f+1` matching votes per partition; if every
//!    partition voted commit it sends a commit decision (applied and
//!    acknowledged by `f+1` replicas), otherwise an abort decision
//!    (locks released, writes discarded).
//!
//! The two properties the paper measures fall out directly:
//! * read-only transactions cost a `2f+1` vote round per partition
//!   (versus TransEdge's single node per partition), and
//! * their shared locks make conflicting read-write transactions abort
//!   — the paper's Table 1 column. Votes carry a `blocked_by_read_only`
//!   flag so the harness can attribute those aborts exactly.
//!
//! Deviation (ledger: ROADMAP.md item 9): Augustus's single-round
//! optimisation for one-shot single-partition mini-transactions is not
//! modelled — every transaction runs the two-phase generic path, which
//! is the path the evaluation's long-running read-only transactions
//! take.

pub mod client;
pub mod messages;
pub mod replica;

pub use client::{AugustusClient, AugustusClientStats};
pub use messages::{AugMsg, AugTxn};
pub use replica::AugustusReplica;

use transedge_common::{ClientId, ClusterTopology, NodeId, SimTime};
use transedge_core::client::ClientOp;
use transedge_core::metrics::TxnSample;
use transedge_core::setup::{generate_data, DeploymentConfig};
use transedge_crypto::KeyStore;
use transedge_simnet::Simulation;

/// A running Augustus deployment (mirrors `transedge_core::setup`).
pub struct AugustusDeployment {
    pub sim: Simulation<AugMsg>,
    pub topo: ClusterTopology,
    pub keys: KeyStore,
    pub client_ids: Vec<ClientId>,
}

impl AugustusDeployment {
    /// Build with the same configuration type as TransEdge deployments
    /// so harnesses can swap systems.
    pub fn build(config: DeploymentConfig, client_ops: Vec<Vec<ClientOp>>) -> AugustusDeployment {
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&config.seed.to_le_bytes());
        let (keys, secrets) = KeyStore::for_topology(&config.topo, &seed);
        let data = generate_data(config.n_keys, config.value_size);
        let mut sim: Simulation<AugMsg> = Simulation::new(
            config.latency.clone(),
            config.cost.clone(),
            config.faults.clone(),
            config.seed,
        );
        for replica in config.topo.all_replicas() {
            let mut actor = AugustusReplica::new(
                replica,
                config.topo.clone(),
                keys.clone(),
                secrets[&replica].clone(),
            );
            actor.preload(data.iter().map(|(k, v)| (k.clone(), v.clone())));
            sim.add_actor(NodeId::Replica(replica), Box::new(actor));
        }
        let mut client_ids = Vec::new();
        for (i, ops) in client_ops.into_iter().enumerate() {
            let id = ClientId(i as u32);
            client_ids.push(id);
            let client = AugustusClient::new(
                id,
                config.topo.clone(),
                keys.clone(),
                config.client.retry_after,
                config.client.max_retries,
                ops,
            );
            sim.add_actor(NodeId::Client(id), Box::new(client));
        }
        AugustusDeployment {
            sim,
            topo: config.topo.clone(),
            keys,
            client_ids,
        }
    }

    pub fn clients_done(&self) -> bool {
        self.client_ids.iter().all(|id| {
            self.sim
                .actor_as::<AugustusClient>(NodeId::Client(*id))
                .is_none_or(|c| c.is_done())
        })
    }

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
                "augustus deployment did not finish by {limit}"
            );
            assert!(stepped, "augustus deployment deadlocked");
        }
    }

    pub fn client(&self, id: ClientId) -> &AugustusClient {
        self.sim
            .actor_as::<AugustusClient>(NodeId::Client(id))
            .expect("client actor")
    }

    pub fn samples(&self) -> Vec<TxnSample> {
        self.client_ids
            .iter()
            .flat_map(|id| self.client(*id).samples.clone())
            .collect()
    }

    /// Total read-write aborts attributed to read-only lock holders
    /// (Table 1's numerator).
    pub fn rw_aborts_caused_by_rot(&self) -> u64 {
        self.client_ids
            .iter()
            .map(|id| self.client(*id).stats.rw_aborted_by_rot)
            .sum()
    }
}
