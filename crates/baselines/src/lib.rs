//! # transedge-baselines
//!
//! The two comparator systems of the paper's evaluation (§5):
//!
//! * [`two_pc_bft`] — the "2PC/BFT" baseline (§3.5): structurally the
//!   same hierarchical system as TransEdge, but read-only transactions
//!   are executed as ordinary transactions through BFT agreement and
//!   two-phase commit. Implemented by running the real TransEdge stack
//!   on scripts whose point reads are rewritten into read-write
//!   transactions with no writes, exactly as the paper constructs it
//!   ("The 2PC/BFT system has the same structure as TransEdge, however,
//!   the system performs read-only transactions by coordinating with
//!   other leaders in other partitions").
//! * [`augustus`] — an Augustus-style system (Padilha & Pedone,
//!   EuroSys'13): BFT-ordered mini-transactions per partition, client-
//!   coordinated cross-partition voting with `2f+1` signed replica
//!   votes, and **lock-based** reads — read-only transactions take
//!   shared locks, so they abort conflicting writers (first-committer
//!   wins). This is the behaviour Table 1 and Figures 5–7 measure
//!   against.

pub mod augustus;
pub mod two_pc_bft;

pub use augustus::{AugustusClient, AugustusDeployment, AugustusReplica};
pub use two_pc_bft::build_two_pc_bft;
