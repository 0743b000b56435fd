//! # transedge-crypto
//!
//! Cryptographic substrate for TransEdge, implemented from scratch
//! because no cryptography crates are available in this offline build
//! environment:
//!
//! * [`sha2`] — SHA-256 and SHA-512 (FIPS 180-4). Round constants are
//!   *derived* (fractional parts of cube/square roots of primes, found
//!   by exact integer binary search) rather than transcribed, and the
//!   implementations are pinned by the standard test vectors.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104).
//! * [`ed25519`] — Ed25519 signatures (RFC 8032): field arithmetic mod
//!   2²⁵⁵−19 in five lazily reduced 51-bit limbs with addition-chain
//!   inversion, Barrett reduction mod the group order, twisted Edwards
//!   points in extended / projective / completed / cached coordinates,
//!   strict decoding (canonical S and y), and cofactored verification as
//!   one Straus wNAF pass — singly, or up to eight signatures in one
//!   batch equation. Pinned by the RFC vectors, a golden digest over 64
//!   signatures, and differential tests against the code it replaced
//!   (square-and-multiply, fixed-window multiplication, the old
//!   decoding and scalar reduction, the cofactorless equation), kept as
//!   test references.
//! * [`merkle`] — the bucketed sparse Merkle tree TransEdge uses as its
//!   Authenticated Data Structure (ADS), with inclusion and
//!   non-inclusion proofs.
//! * [`range`] — contiguous-leaf *completeness* proofs over the tree
//!   order, so a verified scan can detect an untrusted server omitting
//!   rows from a window.
//! * [`keys`] — key material and the per-deployment key registry:
//!   keys decoded once at registration, quorum checks batched, and a
//!   per-actor memo of accepted signatures.
//!
//! ## Security disclaimer
//!
//! This code is written for a *protocol reproduction running inside a
//! simulator*. It is functionally correct (pinned by test vectors and
//! algebraic property tests) but makes no constant-time claims and has
//! had no side-channel review. Do not use it to protect real data.

pub mod digest;
pub mod ed25519;
pub mod hmac;
pub mod keys;
pub mod merkle;
pub mod merkle_versioned;
pub mod range;
pub mod sha2;

pub use digest::Digest;
pub use ed25519::{Keypair, PublicKey, Signature};
pub use keys::{KeyStore, SigStats};
pub use merkle::{verify_multi_proof, MerkleProof, MerkleTree, MultiBucket, MultiProof};
pub use merkle_versioned::VersionedMerkleTree;
pub use range::{verify_range_proof, RangeProof, ScanRange};
pub use sha2::{sha256, sha512, Sha256, Sha512};

/// Domain-separated hash of a wire-encodable structure.
///
/// All protocol digests go through this function so that a message of
/// one type can never be confused with a message of another type that
/// happens to share a byte representation.
pub fn hash_encoded<T: transedge_common::Encode>(domain: &str, value: &T) -> Digest {
    let mut h = Sha256::new();
    h.update(&(domain.len() as u32).to_le_bytes());
    h.update(domain.as_bytes());
    h.update(&value.encode_to_vec());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_separation_changes_digest() {
        let a = hash_encoded("batch", &7u64);
        let b = hash_encoded("txn", &7u64);
        assert_ne!(a, b);
        assert_eq!(a, hash_encoded("batch", &7u64));
    }
}
