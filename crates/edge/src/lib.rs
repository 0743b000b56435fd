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
//! Every answer has one shape, a [`ReadResponse`]: an [`Anchor`] — a
//! certified commitment and its certificate, or a reference to one the
//! asking client holds — and a [`Body`] proven against its root. A
//! **point** body is a [`MultiProofBody`] proving a sorted key set (one
//! key included) with one deduplicated Merkle multiproof. A replica
//! answers with a body for exactly the keys asked; an edge replays the
//! cached body admitted for exactly those, or forwards the question
//! whole. A **scan** body is a [`ScanProof`]: the window's rows and the
//! boundary siblings of a Merkle *range* proof
//! (`transedge_crypto::range`), so the verifier can also check
//! **completeness** — an untrusted node cannot omit a row inside a
//! scanned window undetected. Neither body carries a bucket entry the
//! verifier can recompute from a key and value it was sent. One answer
//! shape is what the wire carries and what the caches hold.
//!
//! * [`pipeline`] — the serving side. [`pipeline::SnapshotSource`]
//!   abstracts a replica's multi-version store + versioned Merkle tree;
//!   [`pipeline::ReadPipeline`] builds section bodies and scan windows
//!   from it, memoised per exact key set (or window) and batch in an
//!   LRU cache (snapshot reads are immutable, so cached entries never
//!   go stale).
//! * [`store`] — the replica's multi-version value store
//!   ([`store::VersionedStore`]), the value half of the source the
//!   pipeline serves from; the versioned Merkle tree beside it proves
//!   its cuts.
//! * [`cache`] — the LRU cache with hit/miss/eviction counters, also
//!   used stand-alone by edge replay nodes.
//! * [`replay`] — the store-free serving side: an edge cache node that
//!   holds no partition state and no keys, only the certified sections
//!   and windows it absorbed from upstream, one exact-match LRU per
//!   answer kind, replayed to clients who verify them end to end;
//!   [`replay::PartitionCaches`] keeps one such cache per partition.
//! * [`query`] — the unified typed read protocol: one
//!   [`query::ReadQuery`] ([`query::SnapshotPolicy`] ×
//!   [`query::QueryShape`]) names every read — point reads,
//!   LCE-floored round-2 fetches, verified scans of one window per
//!   partition, multi-partition queries.
//!   [`query::ReadQuery::split`] is the one split of a query into
//!   per-partition parts, shared by the client's planner and a contact
//!   edge, and each part is answered by one [`query::ReadResponse`]
//!   naming its partition — no response spans two. An answer at an
//!   anchor the query names as held ([`query::ReadQuery::held`]) goes
//!   without its header and certificate, and its receiver rebuilds it
//!   around its own copy before verifying.
//! * [`verifier`] — the trusted-side checker. [`verifier::ReadVerifier`]
//!   accepts a response only after proof → root → certificate →
//!   freshness → snapshot-epoch checks all pass; everything an edge
//!   node could forge is caught here and reported as a
//!   [`verifier::ReadRejection`]. Its `verify_query` entry point runs
//!   the one section check (or the scan check) for the query's shape
//!   and enforces the snapshot floor on top.
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
//! The one thing a client trusts that an edge sends is a batch's
//! read-only segment under `f+1` replica signatures (paper §3.2, §4.4):
//! the [`BatchHeader`] — Merkle root, CD vector, LCE, changed-key
//! digest, timestamp — beside the digest of the segments it omits, as
//! a [`CommittedHeader`]. Both live here, with the checks that read
//! them, and [`CommittedHeader::certified_digest`] is the one place the
//! digest the certificate signs is computed; `transedge-core` seals its
//! batches around the same header. The crate does not know about
//! network messages or the transaction segments, which keeps the trust
//! boundary auditable in one place and lets the read path scale (more
//! edge nodes, bigger caches) independently of the
//! transaction-processing stack.

pub mod cache;
pub mod certs;
pub mod feed;
pub mod pipeline;
pub mod query;
pub mod replay;
pub mod response;
pub mod store;
pub mod verifier;

pub use cache::{CacheStats, LruCache};
pub use certs::{QuorumCheck, VerifiedCerts};
pub use feed::{FeedCursor, FeedWindow, Pushed, MAX_FEED_DELTAS};
pub use pipeline::{multi_snapshot, scan_snapshot, ReadPipeline, SnapshotSource};
pub use query::{
    Anchor, Body, Chase, QueryAnswer, QueryShape, ReadQuery, ReadResponse, SnapshotPolicy,
};
pub use replay::{PartitionCaches, ReplayCache, ReplayStats};
pub use response::{
    anchor_size, cert_size, changed_keys_digest, BatchHeader, CdVector, CertifiedDelta,
    CommittedHeader, MultiProofBody, ScanProof, HELD_ANCHOR_SIZE,
};
pub use store::VersionedStore;
pub use verifier::{same_batch_conflict, ReadRejection, ReadVerifier, VerifyParams};
