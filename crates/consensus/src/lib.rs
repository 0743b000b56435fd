//! # transedge-consensus
//!
//! Intra-cluster Byzantine fault-tolerant state machine replication —
//! the substrate the paper obtains from BFT-SMaRt (ref. \[13\]) and that every
//! TransEdge batch commit runs through (§3.1–3.2).
//!
//! The protocol is the classic leader-driven three-phase pattern
//! (PBFT's pre-prepare/prepare/commit; BFT-SMaRt calls the phases
//! PROPOSE/WRITE/ACCEPT, and so do we):
//!
//! 1. the current leader **proposes** a value (a TransEdge batch) for
//!    the next slot of the log;
//! 2. replicas validate it (signature, leader identity, and an
//!    application callback that re-runs TransEdge's conflict checks —
//!    this is how "a malicious leader cannot commit transactions that
//!    are inconsistent with the state of the SMR log", §3.2) and
//!    broadcast signed **WRITE**s;
//! 3. on a `2f+1` write quorum, replicas broadcast signed **ACCEPT**s;
//!    `2f+1` accepts decide the slot.
//!
//! Accept signatures double as the **certificate**: any `f+1` of them
//! prove to a third party (a TransEdge client) that the batch was
//! decided — "at the end of the consensus f+1 signatures are collected
//! from the replicas and are added to the batch" (§3.2).
//!
//! A view-change sub-protocol (leader timeout or detected equivocation
//! → `2f+1` VIEW-CHANGE messages → NEW-VIEW from the next leader,
//! re-proposing any write-certified value) provides liveness under a
//! faulty leader; [`byzantine`] packages standard adversaries used by
//! the test-suite.
//!
//! The engine ([`engine::BftEngine`]) is a *pure state machine*:
//! messages in, [`engine::Output`]s out. It performs real Ed25519
//! signing/verification via `transedge-crypto`, but does no I/O and
//! keeps no clock — hosts own timers (see `transedge-core::node`).
//! WRITE and ACCEPT votes are checked lazily: parked on arrival and
//! batch-verified once they can complete a quorum, with the same
//! outcome as checking each on arrival (see the engine's `Votes`).

pub mod byzantine;
pub mod engine;
pub mod harness;
pub mod messages;

pub use engine::{BftConfig, BftEngine, Output};
pub use messages::{BftMsg, BftValue, Certificate};
