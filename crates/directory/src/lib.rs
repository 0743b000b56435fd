//! # transedge-directory
//!
//! A gossip-based conviction directory for the untrusted edge tier.
//!
//! TransEdge's edge read nodes are individually untrusted: the
//! client-side verifier catches every lie, but each client learns about
//! each byzantine edge *the hard way* — by sending it traffic and
//! paying a rejected round trip. This crate makes that knowledge
//! fleet-wide: what one client witnessed, every client and edge can
//! act on. It steers whom clients ask, and which same-partition peer a
//! cold edge asks for state — not where an edge forwards a miss, which
//! is always the owning partition's replicas.
//!
//! The design follows WedgeChain's lazy-trust split — an edge is
//! penalised on *provable* evidence only — and the blockchain-edge
//! literature on decentralized reputation exchange: edges (and clients)
//! exchange **signed, monotonically-mergeable evidence records** over
//! an anti-entropy epidemic protocol, and everything in the directory
//! is a *hint* — a wrong hint costs latency (a detour, an unnecessary
//! replica fallback), never correctness, because every read is still
//! verified end to end by `transedge_edge::ReadVerifier`.
//!
//! One record kind, one payload:
//!
//! * [`evidence`] — [`evidence::SignedEvidence`]: a verified
//!   byzantine-rejection claim *with the offending proof attached*.
//!   Receivers re-run the verifier on the embedded (query, response)
//!   pair; only responses that fail a **cryptographic** check
//!   ([`evidence::is_cryptographic`]) count, so a fabricated claim
//!   built from honest material is rejected and its sender struck.
//! * [`state`] / [`agent`] — [`state::DirectoryState`] is the CRDT: one
//!   record per convicted edge, joined by a deterministic total order,
//!   so merge is idempotent, commutative, and associative, shuffled
//!   gossip delivery orders converge to the same state, and a rejection
//!   observed by one client demotes the edge fleet-wide within
//!   `O(log n)` push rounds. [`agent::DirectoryAgent`] wraps the state
//!   with signing, the one verified ingest ([`agent::GossipDelta`]
//!   push-pull legs), local strikes against bad gossip senders, and the
//!   queries (`convicted_edges`, `knows_byzantine`, `struck`) the
//!   routing layers consume.
//!
//! ## Trust model: hints vs. proofs
//!
//! Nothing in the directory is load-bearing for safety, and nothing in
//! it is taken at face value either: the only record a node admits is
//! evidence that *re-verifies as a cryptographic failure* under the
//! witness's registered key. A byzantine participant can still *frame*
//! an honest edge by corrupting a served bundle and witnessing it (the
//! responses edges serve are not bound to the server by a signature),
//! which costs the fleet a detour around an honest edge — latency, not
//! correctness. See ARCHITECTURE.md, "Edge directory & gossip".

pub mod agent;
pub mod evidence;
pub mod state;

pub use agent::{DirectoryAgent, DirectoryStats, GossipDelta, IngestReport};
pub use evidence::{is_cryptographic, EvidenceBody, SignedEvidence};
pub use state::{DirectoryState, StateSummary};
