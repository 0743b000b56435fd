//! Who answers "does this certificate carry a quorum?" — the one seam
//! through which state may enter the otherwise stateless
//! [`crate::ReadVerifier`].
//!
//! `Certificate::verify` is a pure function of the certificate's bytes
//! under a key directory fixed at setup, so a trusted party may
//! remember that one exact certificate passed. A [`KeyStore`] answers
//! every certificate it is asked about (edges, directory evidence,
//! the benchmark's ladder): its signatures in one batch, and
//! — on an actor's handle ([`KeyStore::with_memo`]) — each signature
//! the handle already accepted from memory, whatever certificate carried
//! it. [`VerifiedCerts`] sits above that and answers a repeated
//! certificate without reaching the key store at all — the client's
//! memo, whose [`VerifiedCerts::sig_checks`] (what the client is
//! charged) counts the signatures of every certificate it passes down,
//! however the key store then settles them. Everything around
//! the quorum check — the commitment's recomputed digest against the
//! certificate's, freshness, the LCE floor, snapshot pins, Merkle and
//! range proofs, changed-set digests — stays in the verifier and runs
//! on every response.

use std::cell::{Cell, RefCell};

use transedge_common::{Encode as _, WireWriter};
use transedge_consensus::Certificate;
use transedge_crypto::{Digest, KeyStore, Sha256};

use crate::cache::LruCache;
use crate::feed::MAX_FEED_DELTAS;

/// The quorum check of the verifier chain's step 2.
pub trait QuorumCheck {
    /// Does `cert` carry at least `quorum` valid signatures of distinct
    /// replicas of its cluster over its own `(cluster, slot, digest)`
    /// statement?
    fn check_quorum(&self, cert: &Certificate, quorum: usize) -> bool;
}

/// Always check: the stateless path.
impl QuorumCheck for KeyStore {
    fn check_quorum(&self, cert: &Certificate, quorum: usize) -> bool {
        cert.verify(self, quorum).is_ok()
    }
}

/// A bounded memo of certificates that already passed, for the trusted
/// side only. A hit asserts exactly: *these bytes* — statement and
/// signature list — verified under *these keys* at *this quorum*.
/// Failures are never remembered, eviction is least-recently-used by
/// [`LruCache`]'s monotonic tick (deterministic — no hash-map iteration
/// order is involved), and nothing time-dependent is cached.
pub struct VerifiedCerts {
    keys: KeyStore,
    seen: RefCell<LruCache<Digest, ()>>,
    sig_checks: Cell<u64>,
    /// Where a certificate is encoded to be hashed into its memo key,
    /// reused so a lookup allocates nothing once it has grown.
    scratch: RefCell<WireWriter>,
}

impl VerifiedCerts {
    /// Certificates remembered at once: a full feed tail
    /// ([`MAX_FEED_DELTAS`]) for each of sixteen partitions. Entries
    /// are allocated as certificates arrive, never up front.
    pub const CAPACITY: usize = 16 * MAX_FEED_DELTAS;

    pub fn new(keys: KeyStore) -> Self {
        VerifiedCerts {
            keys,
            seen: RefCell::new(LruCache::new(Self::CAPACITY)),
            sig_checks: Cell::new(0),
            scratch: RefCell::new(WireWriter::new()),
        }
    }

    /// The key directory certificates are checked under.
    pub fn keys(&self) -> &KeyStore {
        &self.keys
    }

    /// Signatures actually verified so far — what the quorum checks
    /// cost, as opposed to what the responses carried.
    pub fn sig_checks(&self) -> u64 {
        self.sig_checks.get()
    }

    /// Quorum checks answered from memory.
    pub fn hits(&self) -> u64 {
        self.seen.borrow().stats.hits
    }

    /// The memo key of `cert` at `quorum`:
    /// `sha256(encode(cert) ‖ quorum as u64 LE)`, encoded in the reused
    /// scratch buffer.
    pub fn memo_key(&self, cert: &Certificate, quorum: usize) -> Digest {
        let mut scratch = self.scratch.borrow_mut();
        scratch.clear();
        cert.encode(&mut scratch);
        let mut h = Sha256::new();
        h.update(scratch.as_slice());
        h.update(&(quorum as u64).to_le_bytes());
        h.finalize()
    }
}

impl QuorumCheck for VerifiedCerts {
    fn check_quorum(&self, cert: &Certificate, quorum: usize) -> bool {
        let id = self.memo_key(cert, quorum);
        let mut seen = self.seen.borrow_mut();
        if seen.get(&id).is_some() {
            return true;
        }
        self.sig_checks
            .set(self.sig_checks.get() + cert.sigs.len() as u64);
        let ok = self.keys.check_quorum(cert, quorum);
        if ok {
            seen.insert(id, ());
        }
        ok
    }
}
