//! # transedge-simnet
//!
//! A deterministic discrete-event simulator that stands in for the
//! paper's ChameleonCloud testbed. Deviation: every latency and
//! throughput is simulated, not measured on machines (ledger:
//! ROADMAP.md item 9).
//!
//! Protocol code is written as event-driven [`Actor`]s. The simulator
//! owns a virtual clock and a priority queue of events; it models
//!
//! * **network latency** — configurable intra-cluster, inter-cluster
//!   and client↔cluster one-way delays with seeded jitter, plus an
//!   optional bandwidth term ([`topology::LatencyModel`]). The paper's
//!   "additional latency between clusters" experiment knob (Figures 8,
//!   12, 13) maps to one field;
//! * **CPU time** — each actor is a single-server queue. Handlers
//!   charge simulated service time from a calibrated [`cost::CostModel`]
//!   (hashing, signature checks, conflict checks); messages queue
//!   behind a busy actor. This is what makes *throughput* curves — not
//!   just latency — come out of the simulation;
//! * **faults** — message drops, node crashes, and partitions
//!   ([`fault::FaultPlan`]). Byzantine behaviour needs no simulator
//!   support: a byzantine node is just a different `Actor`
//!   implementation.
//!
//! Determinism: all randomness flows from one seed, and simultaneous
//! events are ordered by insertion sequence, so a run is a pure
//! function of (actors, config, seed). Every test and benchmark in the
//! workspace is reproducible bit-for-bit.

pub mod actor;
pub mod cost;
pub mod fault;
pub mod sim;
pub mod stats;
pub mod topology;

pub use actor::{Actor, Context, SimMessage, TimerId};
pub use cost::CostModel;
pub use fault::{FaultPlan, PartitionHandle};
pub use sim::Simulation;
pub use stats::{KindStats, NetStats};
pub use topology::LatencyModel;
