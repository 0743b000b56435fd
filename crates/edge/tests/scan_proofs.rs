//! Property tests for `ReadVerifier::verify_scan`: across random
//! partition contents and random windows, *no* single-row omission,
//! boundary truncation, or cross-batch splice of an otherwise-valid
//! range proof survives verification — and the honest scan always
//! verifies to exactly the committed rows of the window.

use std::collections::HashMap;

use proptest::prelude::*;
use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, Epoch, Key, NodeId, SimDuration, SimTime, Value,
};
use transedge_consensus::messages::accept_statement;
use transedge_consensus::Certificate;
use transedge_crypto::merkle::value_digest;
use transedge_crypto::{
    sha256, Digest, KeyStore, MerkleProof, RangeProof, ScanRange, Sha256, VersionedMerkleTree,
};
use transedge_edge::{
    scan_snapshot, BatchCommitment, QuorumCheck, ReadRejection, ReadVerifier, ScanBundle,
    SnapshotSource, VerifiedCerts, VerifyParams,
};
use transedge_storage::VersionedStore;

/// Shallow tree: 64 buckets → dense windows and bucket collisions.
const DEPTH: u32 = 6;

#[derive(Clone, Debug)]
struct TestHeader {
    cluster: ClusterId,
    num: BatchNum,
    merkle_root: Digest,
    lce: Epoch,
    timestamp: SimTime,
}

impl BatchCommitment for TestHeader {
    fn cluster(&self) -> ClusterId {
        self.cluster
    }

    fn batch(&self) -> BatchNum {
        self.num
    }

    fn merkle_root(&self) -> &Digest {
        &self.merkle_root
    }

    fn lce(&self) -> Epoch {
        self.lce
    }

    fn timestamp(&self) -> SimTime {
        self.timestamp
    }

    fn certified_digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"test/scan-header");
        h.update(&self.cluster.0.to_le_bytes());
        h.update(&self.num.0.to_le_bytes());
        h.update(self.merkle_root.as_bytes());
        h.update(&self.lce.0.to_le_bytes());
        h.update(&self.timestamp.0.to_le_bytes());
        h.finalize()
    }
}

struct Partition {
    topo: ClusterTopology,
    keys: KeyStore,
    secrets: HashMap<transedge_common::ReplicaId, transedge_crypto::Keypair>,
    store: VersionedStore,
    tree: VersionedMerkleTree,
    headers: Vec<TestHeader>,
    certs: Vec<Certificate>,
    /// A client memo that has already verified every certificate
    /// [`Partition::commit`] minted.
    warm: VerifiedCerts,
}

impl SnapshotSource for Partition {
    fn value_at(&self, key: &Key, batch: BatchNum) -> Option<Value> {
        self.store.read_at(key, batch).map(|v| v.value.clone())
    }

    fn prove_at(&self, key: &Key, batch: BatchNum) -> MerkleProof {
        self.tree.prove_at(key, batch.0)
    }

    fn rows_at(&self, range: &ScanRange, batch: BatchNum) -> Vec<(Key, Value)> {
        self.store
            .range_at(range.digest_bounds(DEPTH), batch)
            .map(|(k, v)| (k.clone(), v.value.clone()))
            .collect()
    }

    fn prove_range(&self, range: &ScanRange, batch: BatchNum) -> RangeProof {
        self.tree.prove_range(range, batch.0)
    }

    fn prove_multi(&self, keys: &[Key], batch: BatchNum) -> transedge_crypto::MultiProof {
        self.tree.prove_multi(keys, batch.0)
    }
}

impl Partition {
    fn new() -> Self {
        let topo = ClusterTopology::new(1, 1).unwrap();
        let (keys, secrets) = KeyStore::for_topology(&topo, &[7u8; 32]);
        Partition {
            topo,
            warm: VerifiedCerts::new(keys.clone()),
            keys,
            secrets,
            store: VersionedStore::new(),
            tree: VersionedMerkleTree::with_depth(DEPTH),
            headers: Vec::new(),
            certs: Vec::new(),
        }
    }

    fn commit(&mut self, writes: &[(u32, String)], timestamp: SimTime) {
        let num = BatchNum(self.headers.len() as u64);
        let mut updates = Vec::new();
        for (k, v) in writes {
            let key = Key::from_u32(*k);
            let value = Value::from(v.as_str());
            self.store.write(key.clone(), value.clone(), num);
            updates.push((key, value_digest(&value)));
        }
        let root = self
            .tree
            .apply_batch(num.0, updates.iter().map(|(k, d)| (k, *d)));
        let header = TestHeader {
            cluster: ClusterId(0),
            num,
            merkle_root: root,
            lce: Epoch::NONE,
            timestamp,
        };
        let digest = header.certified_digest();
        let stmt = accept_statement(ClusterId(0), num, &digest);
        let quorum = self.topo.certificate_quorum();
        let sigs: Vec<_> = self
            .topo
            .replicas_of(ClusterId(0))
            .take(quorum)
            .map(|r| (NodeId::Replica(r), self.secrets[&r].sign(&stmt)))
            .collect();
        let cert = Certificate {
            cluster: ClusterId(0),
            slot: num,
            digest,
            sigs,
        };
        assert!(self.warm.check_quorum(&cert, quorum));
        self.headers.push(header);
        self.certs.push(cert);
    }

    fn scan_bundle(&self, range: &ScanRange, at: BatchNum) -> ScanBundle<TestHeader> {
        ScanBundle {
            commitment: self.headers[at.0 as usize].clone(),
            cert: self.certs[at.0 as usize].clone(),
            scan: scan_snapshot(self, range, at),
        }
    }

    fn verifier(&self) -> ReadVerifier {
        ReadVerifier::new(VerifyParams {
            tree_depth: DEPTH,
            freshness_window: SimDuration::from_secs(30),
            quorum: self.topo.certificate_quorum(),
        })
    }

    fn verify(
        &self,
        bundle: &ScanBundle<TestHeader>,
        requested: &ScanRange,
    ) -> Result<Vec<(Key, Value)>, ReadRejection> {
        self.verify_as(ClusterId(0), bundle, requested, SimTime(2_500))
    }

    /// The verdict on `bundle` — through the plain key directory and
    /// through the memo that already holds every honest certificate.
    /// The two must agree: memoisation never changes a verdict.
    fn verify_as(
        &self,
        cluster: ClusterId,
        bundle: &ScanBundle<TestHeader>,
        requested: &ScanRange,
        now: SimTime,
    ) -> Result<Vec<(Key, Value)>, ReadRejection> {
        let verifier = self.verifier();
        let plain = verifier.verify_scan(&self.keys, cluster, bundle, requested, Epoch::NONE, now);
        let memoised =
            verifier.verify_scan(&self.warm, cluster, bundle, requested, Epoch::NONE, now);
        assert_eq!(memoised, plain, "a warm memo changed the verdict");
        plain
    }
}

/// Two batches over random keys; batch 1 always overwrites something so
/// the roots differ (the splice attack needs a second, different root).
fn world(key_tags: &[(u16, u8)]) -> Partition {
    let mut p = Partition::new();
    let batch0: Vec<(u32, String)> = key_tags
        .iter()
        .map(|(k, v)| (*k as u32 % 512, format!("a{v}")))
        .collect();
    p.commit(&batch0, SimTime(1_000));
    let batch1: Vec<(u32, String)> = vec![(key_tags[0].0 as u32 % 512, "overwrite".to_string())];
    p.commit(&batch1, SimTime(2_000));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Honest scans verify to exactly the committed window; every
    /// single-row omission (client-visible rows *and* proof entries),
    /// every boundary truncation, and the cross-batch splice are
    /// rejected with the right typed error.
    #[test]
    fn scan_forgeries_never_survive(
        key_tags in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..32),
        first in 0u64..64,
        width in 1u64..24,
    ) {
        let p = world(&key_tags);
        let last = (first + width - 1).min((1 << DEPTH) - 1);
        let range = ScanRange::new(first, last);
        let honest = p.scan_bundle(&range, BatchNum(1));

        // Honest: verifies, and the rows are exactly the committed
        // content of the window, in tree order.
        let rows = p.verify(&honest, &range).expect("honest scan verifies");
        let mut expected: Vec<(Key, Value)> = p
            .store
            .range_at(range.digest_bounds(DEPTH), BatchNum(1))
            .map(|(k, v)| (k.clone(), v.value.clone()))
            .collect();
        expected.sort_by_key(|(k, _)| sha256(k.as_bytes()));
        prop_assert_eq!(&rows, &expected);

        // 1a. Omit any single returned row → IncompleteScan. Every
        // surviving row still matches the proof individually; only the
        // completeness count catches the hole.
        for i in 0..honest.scan.rows.len() {
            let mut b = honest.clone();
            b.scan.rows.remove(i);
            prop_assert!(matches!(
                p.verify(&b, &range),
                Err(ReadRejection::IncompleteScan { .. })
            ), "omitting row {i} must be rejected");
        }

        // 1b. Omit a single *proof* leaf entry as well (hiding the row
        // and its commitment together) → the root no longer folds.
        for bi in 0..honest.scan.proof.occupied.len() {
            for ei in 0..honest.scan.proof.occupied[bi].1.len() {
                let mut b = honest.clone();
                let removed = b.scan.proof.occupied[bi].1.remove(ei);
                if b.scan.proof.occupied[bi].1.is_empty() {
                    b.scan.proof.occupied.remove(bi);
                }
                b.scan
                    .rows
                    .retain(|(k, _)| sha256(k.as_bytes()) != removed.key_hash);
                prop_assert!(matches!(
                    p.verify(&b, &range),
                    Err(ReadRejection::BadRangeProof)
                ), "omitting proof entry must break the root");
            }
        }

        // 2. Boundary truncation: a proof for a narrower window...
        if range.width() > 1 {
            let narrow = ScanRange::new(range.first + 1, range.last);
            let truncated = p.scan_bundle(&narrow, BatchNum(1));
            // ...honestly labelled is not the window requested;
            prop_assert!(matches!(
                p.verify(&truncated, &range),
                Err(ReadRejection::ScanRangeNotCovered { .. })
            ));
            // ...and relabelled as the full window, its siblings no
            // longer fold to the certified root.
            let mut relabelled = truncated.clone();
            relabelled.scan.range = range;
            prop_assert!(p.verify(&relabelled, &range).is_err());
            // ...and the converse: the honest window answered to a
            // request for the narrower one is not the window asked for
            // either — decided before any proof work, so gutting the
            // proof does not change the verdict.
            let mut gutted = honest.clone();
            gutted.scan.proof.occupied.clear();
            for wider in [&honest, &gutted] {
                prop_assert_eq!(
                    p.verify(wider, &narrow),
                    Err(ReadRejection::ScanRangeNotCovered {
                        requested: narrow,
                        proven: range,
                    })
                );
            }
        }

        // 3. Cross-batch splice: batch 0's (internally consistent)
        // window and proof under batch 1's certified commitment. The
        // roots differ, so the splice folds to the wrong root.
        let stale = p.scan_bundle(&range, BatchNum(0));
        let mut spliced = honest.clone();
        spliced.scan = stale.scan;
        prop_assert!(matches!(
            p.verify(&spliced, &range),
            Err(ReadRejection::BadRangeProof)
        ));
    }
}

/// The remaining typed rejections, pinned deterministically.
#[test]
fn scan_rejection_classes_are_typed() {
    let p = world(&[(1, 1), (2, 2), (3, 3), (4, 4), (130, 5)]);
    let range = ScanRange::new(0, (1 << DEPTH) - 1);
    let honest = p.scan_bundle(&range, BatchNum(1));
    assert!(!honest.scan.rows.is_empty());

    // Tampered row value: the row no longer hashes to its entry.
    let mut b = honest.clone();
    b.scan.rows[0].1 = Value::from("forged");
    let key = b.scan.rows[0].0.clone();
    assert_eq!(
        p.verify(&b, &range),
        Err(ReadRejection::ScanRowMismatch(key))
    );

    // Injected phantom row: count exceeds the proven window.
    let mut b = honest.clone();
    b.scan
        .rows
        .push((Key::from_u32(9_999), Value::from("phantom")));
    assert!(matches!(
        p.verify(&b, &range),
        Err(ReadRejection::IncompleteScan { .. })
    ));

    // Reordered rows: tree order is part of the match.
    if honest.scan.rows.len() > 1 {
        let mut b = honest.clone();
        b.scan.rows.reverse();
        assert!(matches!(
            p.verify(&b, &range),
            Err(ReadRejection::ScanRowMismatch(_))
        ));
    }

    // Forged root with the real certificate.
    let mut b = honest.clone();
    b.commitment.merkle_root = Digest([0xDE; 32]);
    assert_eq!(p.verify(&b, &range), Err(ReadRejection::BadCertificate));

    // Stale timestamp outside the freshness window.
    let late = p.verify_as(
        ClusterId(0),
        &honest,
        &range,
        SimTime(SimDuration::from_secs(40).as_micros()),
    );
    assert_eq!(late, Err(ReadRejection::StaleTimestamp));

    // Wrong partition.
    let wrong = p.verify_as(ClusterId(1), &honest, &range, SimTime(2_500));
    assert!(matches!(wrong, Err(ReadRejection::WrongCluster { .. })));
}
