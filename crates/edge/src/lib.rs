//! # transedge-edge
//!
//! The proof-carrying edge read subsystem: everything between a
//! replica's versioned store and a client accepting a snapshot read
//! from an **untrusted** node, packaged as a reusable layer.
//!
//! TransEdge's headline property (paper §3–§4) is that read-only
//! transactions are served by *single, untrusted* nodes, and clients
//! verify what they get against cryptographic commitments: a Merkle
//! proof, chained to a batch root, chained to an `f+1`-signed consensus
//! certificate, checked for freshness and against the LCE floor.
//! WedgeChain's lazy-trust edge/cloud split and Axiograph's "untrusted
//! engines compute, a small trusted checker verifies" design argue for
//! isolating exactly that boundary — this crate is that boundary.
//!
//! There are two proof shapes and one chain. A **point read** is one
//! *section* ([`MultiProofBundle`]): a certified commitment, its
//! certificate, and a [`MultiProofBody`] proving a sorted key set (one
//! key included) with one deduplicated Merkle multiproof. A replica
//! answers with a section for exactly the keys asked; an edge replays
//! a cached section proving at least those, or forwards the question
//! whole. A **scan** is a [`ScanBundle`]: the same commitment
//! and certificate over a Merkle *range* proof
//! (`transedge_crypto::range`), so the verifier can also check
//! **completeness** — an untrusted node cannot omit a row inside a
//! scanned window undetected. Both shapes are what the wire carries,
//! what the caches hold and what the disk stores.
//!
//! * [`pipeline`] — the serving side. [`pipeline::SnapshotSource`]
//!   abstracts a replica's multi-version store + versioned Merkle tree;
//!   [`pipeline::ReadPipeline`] builds section bodies and scan windows
//!   from it, memoised per exact key set (or window) and batch in an
//!   LRU cache (snapshot reads are immutable, so cached entries never
//!   go stale).
//! * [`cache`] — the LRU cache with hit/miss/eviction counters, also
//!   used stand-alone by edge replay nodes.
//! * [`replay`] — the store-free serving side: an edge cache node that
//!   holds no partition state and no keys, only the certified sections
//!   and windows it absorbed from upstream, indexed per `(key, batch)`
//!   and replayed to clients who verify them end to end;
//!   [`replay::PartitionCaches`] keeps one such cache per partition.
//! * [`persist`] — the same two shapes as durable, content-addressed
//!   objects, re-verified on hydration like any network response.
//! * [`query`] — the unified typed read protocol: one
//!   [`query::ReadQuery`] ([`query::SnapshotPolicy`] ×
//!   [`query::QueryShape`] × [`query::PageToken`]) names every read —
//!   point reads, LCE-floored round-2 fetches, verified scans,
//!   paginated multi-window scans, scatter-gather sub-queries — and
//!   one [`query::ReadResponse`] answers it.
//! * [`verifier`] — the trusted-side checker. [`verifier::ReadVerifier`]
//!   accepts a response only after proof → root → certificate →
//!   freshness → snapshot-epoch checks all pass; everything an edge
//!   node could forge is caught here and reported as a
//!   [`verifier::ReadRejection`]. Its `verify_query` entry point runs
//!   the one section check (or the scan check) for the query's shape
//!   and enforces the snapshot floor and page tokens on top.
//! * [`certs`] — who answers the chain's one quorum question:
//!   [`certs::QuorumCheck`], implemented by a `KeyStore` (every
//!   certificate checked, its signatures in one batch, each signature
//!   at most once per memo handle) and by [`certs::VerifiedCerts`], the
//!   trusted client's bounded memo of certificates that already passed
//!   (each certificate checked once).
//! * [`feed`] — the certified-delta window an edge attaches freshness
//!   certificates from and a subscribed client keeps what it verified
//!   in, so only unseen deltas travel ([`feed::FeedCursor`]).
//!
//! The crate deliberately does not know about network messages or the
//! batch format: commitments enter through the [`BatchCommitment`]
//! trait, which `transedge-core` implements for its certified batch
//! headers. That keeps the trust boundary auditable in one place and
//! lets the read path scale (more edge nodes, bigger caches)
//! independently of the transaction-processing stack.

pub mod cache;
pub mod certs;
pub mod feed;
pub mod persist;
pub mod pipeline;
pub mod query;
pub mod replay;
pub mod response;
pub mod verifier;

pub use cache::{CacheStats, LruCache};
pub use certs::{QuorumCheck, VerifiedCerts};
pub use feed::{FeedCursor, FeedWindow, Pushed, MAX_FEED_DELTAS};
pub use persist::{
    is_stale_only, readmit, verify_object, HeadRecord, HydrateReject, PersistStats, SnapshotObject,
    SnapshotStore, DEFAULT_SPILL_THRESHOLD,
};
pub use pipeline::{multi_snapshot, scan_snapshot, ReadPipeline, SnapshotSource};
pub use query::{
    GatherPart, PageToken, QueryAnswer, QueryShape, ReadQuery, ReadResponse, SnapshotPolicy,
};
pub use replay::{PartitionCaches, ReplayCache, ReplayStats};
pub use response::{
    changed_keys_digest, BatchCommitment, CertifiedDelta, MultiProofBody, MultiProofBundle,
    ScanBundle, ScanProof,
};
pub use verifier::{ReadRejection, ReadVerifier, VerifyParams};
