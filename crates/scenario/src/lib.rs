//! # transedge-scenario
//!
//! A declarative chaos layer over [`transedge_core::Deployment`]: a
//! [`Scenario`] is a named timeline of typed events scheduled against
//! sim time — edge crashes and restarts, network partitions that start
//! and heal on cue, zipfian flash crowds re-targeting a live workload,
//! skewed batch-certification cadences, and byzantine *coalitions*
//! (edges that start lying consistently with each other mid-run).
//!
//! The [`ScenarioRunner`] drives a deployment through the timeline
//! while an [`InvariantMonitor`] checks, continuously, what the paper
//! proves must hold no matter what the scenario does:
//!
//! 1. **No wrong reads** — a verified read never returns an
//!    uncommitted or wrong value (genesis data and scripted writes are
//!    the ground truth);
//! 2. **Snapshot atomicity** — a read-only transaction pins each
//!    partition exactly once, partitions or not (and Theorem 4.6's "no
//!    third round" holds throughout);
//! 3. **Demotion convergence** — every coalition member is convicted
//!    fleet-wide, by cryptographic rejection evidence, within a
//!    bounded number of gossip rounds of the first conviction;
//! 4. **No framing** — honest edges are never demoted by fabricated
//!    evidence (every conviction held anywhere names a scripted liar).
//!
//! [`campaign`] packages four ready-made scenario campaigns (churn,
//! partition-heal, flash-crowd, coalition) with availability / p95 /
//! rejected-read / convergence outcomes — what `tests/scenarios.rs`
//! asserts on.

pub mod campaign;
pub mod event;
pub mod monitor;
pub mod runner;

pub use campaign::CampaignOutcome;
pub use event::{Scenario, ScenarioEvent};
pub use monitor::{ConvergenceReport, InvariantMonitor, InvariantViolation};
pub use runner::ScenarioRunner;
