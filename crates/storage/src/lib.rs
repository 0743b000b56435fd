//! # transedge-storage
//!
//! Replica-local storage for TransEdge:
//!
//! * [`VersionedStore`] — a multi-version key-value map. Every write is
//!   tagged with the batch number in which it committed, so replicas
//!   can serve both "latest" reads (ordinary transactions) and
//!   "as-of-batch-`i`" snapshot reads (round two of the distributed
//!   read-only protocol, paper §4.3.4).
//! * [`BatchArchive`] — the append-only history of decided batches,
//!   from which historical batch metadata (Merkle roots, CD vectors,
//!   certificates) is served.
//!
//! Multi-versioning is what makes the paper's *non-interference*
//! property implementable: read-only transactions read committed
//! versions and never take locks, so they cannot block or abort
//! read-write transactions (§4, "non-interference").

pub mod archive;
pub mod mvstore;

pub use archive::BatchArchive;
pub use mvstore::VersionedStore;
