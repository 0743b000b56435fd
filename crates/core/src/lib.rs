//! # transedge-core
//!
//! The paper's primary contribution: TransEdge's transaction processing
//! protocols on top of the BFT/simulation substrates.
//!
//! * [`batch`] — the SMR-log batch with its four segments (local /
//!   prepared / committed / read-only) exactly as in Figure 2, plus
//!   transactions and CD vectors;
//! * [`conflict`] — the OCC conflict-detection rules of Definition 3.1;
//! * [`prepared`] — the *prepared batches* structure, prepare groups,
//!   and the ordering constraint of Definition 4.1;
//! * [`records`] — `f+1`-signed 2PC evidence (prepared records, commit
//!   records) that lets replicas of one cluster verify steps taken by
//!   another cluster;
//! * [`deps`] — CD-vector derivation (Algorithm 1) and the LCE index;
//! * [`messages`] — every message that crosses the simulated network;
//! * [`executor`] — the deterministic replica state machine (validate,
//!   apply, sign) shared by leaders and followers;
//! * [`node`] — the replica actor: consensus + executor + 2PC driver +
//!   read-only serving through the `transedge-edge` pipeline;
//! * [`edge_node`] — the untrusted edge read cache actor (and its
//!   byzantine test variants) scaling the ROT path without consensus;
//!   with per-cluster replay caches, edge-tier scatter-gather (one
//!   contact serves a cross-partition query, forwarding the parts it
//!   misses to their partitions' replicas), and a
//!   `transedge-directory` gossip agent exchanging signed,
//!   re-verified rejection evidence;
//! * [`edge_select`] — client→edge selection: a rotating pick over
//!   each partition's edges with failure/byzantine-rejection demotion
//!   and replica fallback, fleet-convicted edges demoted before first
//!   contact;
//! * [`client`] — the client library/actor: OCC read-write
//!   transactions, and the unified proof-carrying read protocol — a
//!   `ReadSession` plans any `ReadQuery` (point sets, paginated scans,
//!   scatter-gather) into per-partition sub-queries, fans them out
//!   through the edge selector, verifies every response via
//!   `transedge-edge`'s `ReadVerifier::verify_query`, and stitches the
//!   result with the cross-partition dependency check (Algorithm 2);
//! * [`setup`] — one-call construction of a full simulated deployment;
//! * [`metrics`] — latency/throughput/abort accounting used by the
//!   benchmark harnesses.

pub mod batch;
pub mod client;
pub mod config;
pub mod conflict;
pub mod deps;
pub mod edge_node;
pub mod edge_select;
pub mod executor;
pub mod messages;
pub mod metrics;
pub mod node;
pub mod prepared;
pub mod records;
pub mod setup;

pub use batch::{Batch, BatchHeader, CdVector, CommittedHeader, ReadOp, Transaction, WriteOp};
pub use client::{ClientActor, ClientOp, QueryOutcome, TxnOutcome};
pub use config::{CacheConfig, ClientProfile, ConfigError, EdgeConfig, EdgeConfigBuilder};
pub use edge_node::{EdgeBehavior, EdgeReadNode};
pub use messages::{NetMsg, ReadPayload};
pub use node::{NodeConfig, TransEdgeNode};
pub use setup::{Deployment, DeploymentConfig};
// The unified read-query protocol types, re-exported from the edge
// subsystem so client code can name a query without a direct
// `transedge-edge` dependency.
pub use transedge_edge::{PageToken, QueryAnswer, QueryShape, ReadQuery, SnapshotPolicy};
