//! Umbrella crate re-exporting the TransEdge workspace.
//!
//! Most users should depend on the individual crates; this crate exists
//! so the repository's `examples/` and integration `tests/` have a
//! single anchor package.

pub use transedge_baselines as baselines;
pub use transedge_common as common;
pub use transedge_consensus as consensus;
pub use transedge_core as core;
pub use transedge_crypto as crypto;
pub use transedge_directory as directory;
pub use transedge_edge as edge;
pub use transedge_obs as obs;
pub use transedge_scenario as scenario;
pub use transedge_simnet as simnet;
pub use transedge_workload as workload;
