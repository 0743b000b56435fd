//! # transedge-common
//!
//! Shared vocabulary types for the TransEdge workspace: identifiers for
//! clusters/replicas/clients/transactions/batches, simulated time,
//! key/value payload types, a deterministic wire encoding used for
//! hashing and signing, cluster topology configuration, and the common
//! error type.
//!
//! Every other crate in the workspace depends on this one; it depends on
//! nothing but the standard library (plus `bytes` for cheap payload
//! sharing).

pub mod config;
pub mod error;
pub mod ids;
pub mod time;
pub mod value;
pub mod wire;

pub use config::ClusterTopology;
pub use error::{Result, TransEdgeError};
pub use ids::{BatchNum, ClientId, ClusterId, EdgeId, Epoch, NodeId, ReplicaId, TxnId, ViewNum};
pub use time::{SimDuration, SimTime};
pub use value::{Key, Value};
pub use wire::{Decode, Encode, WireReader, WireWriter};
