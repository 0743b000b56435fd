//! Property tests of the certified delta stream's verifier boundary:
//! every way an untrusted relay could doctor a commit feed — splicing
//! out a delta, replaying one, reordering the chain, editing a changed
//! key set, attaching a feed whose deltas touch the queried keys, or
//! forging the certificate — is rejected by `verify_feed` /
//! `verify_delta` with a typed, *cryptographic* rejection. The honest
//! chain always verifies.

use proptest::prelude::*;
use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, Epoch, Key, NodeId, SimDuration, SimTime,
};
use transedge_consensus::messages::accept_statement;
use transedge_consensus::Certificate;
use transedge_crypto::{Digest, KeyStore, Sha256};
use transedge_edge::{
    changed_keys_digest, BatchCommitment, CertifiedDelta, QuorumCheck, ReadRejection, ReadVerifier,
    VerifiedCerts, VerifyParams,
};

/// A minimal commitment whose certified digest folds in the delta
/// digest, mirroring `transedge-core`'s `BatchHeader` — the property
/// the whole stream leans on: consensus signs the changed-key set.
#[derive(Clone, Debug)]
struct FeedHeader {
    cluster: ClusterId,
    num: BatchNum,
    root: Digest,
    lce: Epoch,
    delta: Digest,
    timestamp: SimTime,
}

impl BatchCommitment for FeedHeader {
    fn cluster(&self) -> ClusterId {
        self.cluster
    }
    fn batch(&self) -> BatchNum {
        self.num
    }
    fn merkle_root(&self) -> &Digest {
        &self.root
    }
    fn lce(&self) -> Epoch {
        self.lce
    }
    fn timestamp(&self) -> SimTime {
        self.timestamp
    }
    fn certified_digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"test/feed-header");
        h.update(&self.cluster.0.to_le_bytes());
        h.update(&self.num.0.to_le_bytes());
        h.update(self.root.as_bytes());
        h.update(&self.lce.0.to_le_bytes());
        h.update(self.delta.as_bytes());
        h.update(&self.timestamp.0.to_le_bytes());
        h.finalize()
    }
    fn delta_digest(&self) -> Digest {
        self.delta
    }
}

/// A cluster that can mint honestly certified deltas.
struct Publisher {
    topo: ClusterTopology,
    keys: KeyStore,
    secrets: std::collections::HashMap<transedge_common::ReplicaId, transedge_crypto::Keypair>,
    /// A client memo that has already verified every certificate
    /// [`Publisher::delta`] minted.
    warm: VerifiedCerts,
}

impl Publisher {
    fn new() -> Self {
        let topo = ClusterTopology::new(1, 1).unwrap();
        let (keys, secrets) = KeyStore::for_topology(&topo, &[7u8; 32]);
        Publisher {
            topo,
            warm: VerifiedCerts::new(keys.clone()),
            keys,
            secrets,
        }
    }

    fn verifier(&self) -> ReadVerifier {
        ReadVerifier::new(VerifyParams {
            tree_depth: 8,
            freshness_window: SimDuration::from_secs(30),
            quorum: self.topo.certificate_quorum(),
        })
    }

    /// Certify one batch's delta: sorted unique `changed` keys, digest
    /// folded into the certified header, `f+1` replica signatures.
    fn delta(&self, num: u64, changed: Vec<Key>) -> CertifiedDelta<FeedHeader> {
        let header = FeedHeader {
            cluster: ClusterId(0),
            num: BatchNum(num),
            root: Digest([0u8; 32]),
            lce: Epoch(num as i64),
            delta: changed_keys_digest(&changed),
            timestamp: SimTime(1_000 * num),
        };
        let digest = header.certified_digest();
        let stmt = accept_statement(ClusterId(0), BatchNum(num), &digest);
        let sigs: Vec<_> = self
            .topo
            .replicas_of(ClusterId(0))
            .take(self.topo.certificate_quorum())
            .map(|r| (NodeId::Replica(r), self.secrets[&r].sign(&stmt)))
            .collect();
        let cert = Certificate {
            cluster: ClusterId(0),
            slot: BatchNum(num),
            digest,
            sigs,
        };
        assert!(self
            .warm
            .check_quorum(&cert, self.topo.certificate_quorum()));
        CertifiedDelta {
            commitment: header,
            cert,
            changed,
        }
    }

    /// The verdict on `feed` as the tail of a read of [`queried`]
    /// served at `served` — through the plain key directory and through
    /// the memo that already holds every honest certificate. The two
    /// must agree: memoisation never changes a verdict.
    fn verify_feed(
        &self,
        served: u64,
        feed: &[CertifiedDelta<FeedHeader>],
    ) -> Result<BatchNum, ReadRejection> {
        let (cluster, served) = (ClusterId(0), BatchNum(served));
        let verifier = self.verifier();
        let plain = verifier.verify_feed(&self.keys, cluster, served, &queried(), feed);
        let memoised = verifier.verify_feed(&self.warm, cluster, served, &queried(), feed);
        assert_eq!(memoised, plain, "a warm memo changed the verdict");
        plain
    }

    /// An honest feed: batches `served+1 ..= served+n`, each changing a
    /// distinct set of keys drawn from `key_sets` (none of which may
    /// contain a queried key — the caller controls that).
    fn feed(&self, served: u64, key_sets: &[Vec<u32>]) -> Vec<CertifiedDelta<FeedHeader>> {
        key_sets
            .iter()
            .enumerate()
            .map(|(i, set)| {
                let mut ks: Vec<Key> = set.iter().map(|k| Key::from_u32(*k)).collect();
                ks.sort();
                ks.dedup();
                self.delta(served + 1 + i as u64, ks)
            })
            .collect()
    }
}

/// Changed-key sets that never touch the queried keys (queried keys
/// live below 100; changed keys start at 100).
fn changed_sets() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(100u32..10_000, 0..6), 2..8)
}

fn queried() -> Vec<Key> {
    vec![Key::from_u32(1), Key::from_u32(2)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The honest chain always verifies, and returns the head batch.
    #[test]
    fn honest_feed_verifies_to_head(sets in changed_sets(), served in 0u64..50) {
        let p = Publisher::new();
        let feed = p.feed(served, &sets);
        let head = p.verify_feed(served, &feed)
            .expect("honest feed must verify");
        prop_assert_eq!(head, BatchNum(served + sets.len() as u64));
    }

    /// Omitting any non-final delta leaves a gap in the chain —
    /// `FeedSpliced`. (Truncating the *tail* is allowed: it only
    /// weakens the freshness claim, never hides a change before the
    /// claimed head.)
    #[test]
    fn omitted_delta_is_spliced(
        sets in changed_sets(),
        served in 0u64..50,
        pick in any::<prop::sample::Index>(),
    ) {
        let p = Publisher::new();
        let mut feed = p.feed(served, &sets);
        let drop_at = pick.index(feed.len() - 1); // never the last
        feed.remove(drop_at);
        let err = p.verify_feed(served, &feed)
            .expect_err("a gapped feed must not verify");
        prop_assert!(matches!(err, ReadRejection::FeedSpliced { .. }), "{:?}", err);
    }

    /// Replaying (duplicating) any delta breaks contiguity at the next
    /// position — `FeedSpliced`.
    #[test]
    fn replayed_delta_is_spliced(
        sets in changed_sets(),
        served in 0u64..50,
        pick in any::<prop::sample::Index>(),
    ) {
        let p = Publisher::new();
        let mut feed = p.feed(served, &sets);
        let dup_at = pick.index(feed.len());
        feed.insert(dup_at, feed[dup_at].clone());
        let err = p.verify_feed(served, &feed)
            .expect_err("a replayed delta must not verify");
        prop_assert!(matches!(err, ReadRejection::FeedSpliced { .. }), "{:?}", err);
    }

    /// Swapping two adjacent deltas (reordering) breaks contiguity.
    #[test]
    fn reordered_feed_is_spliced(
        sets in changed_sets(),
        served in 0u64..50,
        pick in any::<prop::sample::Index>(),
    ) {
        let p = Publisher::new();
        let mut feed = p.feed(served, &sets);
        let at = pick.index(feed.len() - 1);
        feed.swap(at, at + 1);
        let err = p.verify_feed(served, &feed)
            .expect_err("a reordered feed must not verify");
        prop_assert!(matches!(err, ReadRejection::FeedSpliced { .. }), "{:?}", err);
    }

    /// Editing any delta's changed-key list — adding, dropping, or
    /// substituting a key — breaks the recomputation against the
    /// certified delta digest: `BadDelta`, whatever the edit.
    #[test]
    fn tampered_changed_set_is_bad_delta(
        sets in changed_sets(),
        served in 0u64..50,
        pick in any::<prop::sample::Index>(),
        add in any::<bool>(),
    ) {
        let p = Publisher::new();
        let mut feed = p.feed(served, &sets);
        let at = pick.index(feed.len());
        if add {
            // Key 50 sorts below every changed key (they start at 100)
            // and is not queried, so ordering stays canonical — only
            // the digest betrays the edit.
            feed[at].changed.insert(0, Key::from_u32(50));
        } else if feed[at].changed.is_empty() {
            feed[at].changed.push(Key::from_u32(50));
        } else {
            feed[at].changed.remove(0);
        }
        let err = p.verify_feed(served, &feed)
            .expect_err("an edited changed set must not verify");
        prop_assert_eq!(err, ReadRejection::BadDelta);
    }

    /// A feed whose (honestly certified!) deltas touch a queried key
    /// contradicts the freshness claim itself — the served value is
    /// provably *not* current — and is rejected as `BadDelta`.
    #[test]
    fn delta_touching_queried_key_is_rejected(
        sets in changed_sets(),
        served in 0u64..50,
        pick in any::<prop::sample::Index>(),
    ) {
        let p = Publisher::new();
        let mut sets = sets;
        let at = pick.index(sets.len());
        sets[at].push(1); // queried key
        let feed = p.feed(served, &sets);
        let err = p.verify_feed(served, &feed)
            .expect_err("a feed touching a queried key must not verify");
        prop_assert_eq!(err, ReadRejection::BadDelta);
    }

    /// A certificate below quorum — or one transplanted from a
    /// different batch — fails the signature check: `BadCertificate`.
    #[test]
    fn forged_certificate_is_rejected(
        sets in changed_sets(),
        served in 0u64..50,
        pick in any::<prop::sample::Index>(),
        truncate in any::<bool>(),
    ) {
        let p = Publisher::new();
        let mut feed = p.feed(served, &sets);
        let at = pick.index(feed.len());
        if truncate {
            // Below f+1 distinct signatures.
            feed[at].cert.sigs.clear();
        } else {
            // Certificate for the right digest, wrong slot.
            feed[at].cert.slot = BatchNum(feed[at].cert.slot.0 + 1_000);
        }
        let err = p.verify_feed(served, &feed)
            .expect_err("a forged certificate must not verify");
        prop_assert_eq!(err, ReadRejection::BadCertificate);
    }
}
