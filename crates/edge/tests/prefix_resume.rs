//! The prefix-resume protocol (`PrefixResume` +
//! `ReadVerifier::verify_query_resuming`): a scan restart at a raised
//! floor re-proves the already-verified prefix at the new snapshot
//! without resending its rows. Pinned here:
//!
//! * an unchanged prefix carries over — only fresh rows come back,
//!   matched against the new snapshot's completeness proof;
//! * a changed prefix is reported as `PrefixDiverged` (honest
//!   behaviour, restart signal — never byzantine evidence);
//! * omission, tampering, or row-stuffing in the fresh region is still
//!   caught exactly as in a full scan.

use std::collections::HashMap;

use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, Epoch, Key, NodeId, SimDuration, SimTime, Value,
};
use transedge_consensus::messages::accept_statement;
use transedge_consensus::Certificate;
use transedge_crypto::merkle::value_digest;
use transedge_crypto::{
    Digest, KeyStore, MerkleProof, RangeProof, ScanRange, Sha256, VersionedMerkleTree,
};
use transedge_edge::{
    scan_snapshot, BatchCommitment, Held, QueryAnswer, ReadQuery, ReadRejection, ReadResponse,
    ReadVerifier, ScanBundle, SnapshotSource, VerifyParams,
};
use transedge_storage::VersionedStore;

/// Shallow tree: 64 buckets → dense windows.
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
        h.update(b"test/prefix-header");
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
        self.headers.push(header);
        self.certs.push(Certificate {
            cluster: ClusterId(0),
            slot: num,
            digest,
            sigs,
        });
    }

    /// An honest prefix-resume answer for `query` at `at`: proof over
    /// the whole prefix-plus-page window, rows filtered past the
    /// prefix bound (what replicas and edges send on the wire).
    fn resume_bundle(&self, query: &ReadQuery, at: BatchNum) -> ScanBundle<TestHeader> {
        let window = query.scan_window().expect("scan query");
        let mut scan = scan_snapshot(self, &window, at);
        let through = query.fresh_rows_from().expect("prefix query");
        scan.rows
            .retain(|(key, _)| ScanRange::bucket_of(key, DEPTH) > through);
        ScanBundle {
            commitment: self.headers[at.0 as usize].clone(),
            cert: self.certs[at.0 as usize].clone(),
            scan,
        }
    }

    fn verifier(&self) -> ReadVerifier {
        ReadVerifier::new(VerifyParams {
            tree_depth: DEPTH,
            freshness_window: SimDuration::from_secs(30),
            quorum: self.topo.certificate_quorum(),
        })
    }

    fn verify_resume(
        &self,
        query: &ReadQuery,
        bundle: ScanBundle<TestHeader>,
        held: &[(Key, Value)],
    ) -> Result<QueryAnswer, ReadRejection> {
        self.verifier().verify_query_resuming(
            &self.keys,
            ClusterId(0),
            query,
            &ReadResponse::Scan {
                bundle: Box::new(bundle),
            },
            Held {
                rows: held,
                feed: None,
            },
            SimTime(5_000),
        )
    }
}

const RANGE: ScanRange = ScanRange { first: 0, last: 63 };
const THROUGH: u64 = 31;

/// Keys landing at or below / above the prefix bound.
fn keys_by_region() -> (Vec<u32>, Vec<u32>) {
    let mut prefix = Vec::new();
    let mut fresh = Vec::new();
    for k in 0u32..600 {
        let bucket = ScanRange::bucket_of(&Key::from_u32(k), DEPTH);
        if bucket <= THROUGH {
            if prefix.len() < 6 {
                prefix.push(k);
            }
        } else if bucket <= 47 && fresh.len() < 6 {
            // Stay inside the resume page's fresh region [32, 47] so
            // the batch-1 overwrite is visible in the resumed page.
            fresh.push(k);
        }
    }
    (prefix, fresh)
}

/// batch 0: rows everywhere; batch 1: a write *outside* the prefix
/// (prefix unchanged); batch 2: a write *inside* the prefix
/// (divergence).
fn world() -> (Partition, Vec<(Key, Value)>) {
    let (prefix_keys, fresh_keys) = keys_by_region();
    let mut p = Partition::new();
    let batch0: Vec<(u32, String)> = prefix_keys
        .iter()
        .chain(fresh_keys.iter())
        .map(|k| (*k, format!("v{k}")))
        .collect();
    p.commit(&batch0, SimTime(1_000));
    p.commit(
        &[(fresh_keys[0], "fresh-overwrite".to_string())],
        SimTime(2_000),
    );
    p.commit(
        &[(prefix_keys[0], "prefix-overwrite".to_string())],
        SimTime(3_000),
    );
    // The rows the client verified at batch 0 for buckets [0, THROUGH].
    let held: Vec<(Key, Value)> = p.rows_at(&ScanRange::new(RANGE.first, THROUGH), BatchNum(0));
    (p, held)
}

fn resume_query() -> ReadQuery {
    // Width 16: the resume window is [0, 47] — prefix plus one fresh
    // page, with [48, 63] still owed afterwards.
    ReadQuery::scatter_scan(vec![ClusterId(0)], RANGE, 16).with_prefix(THROUGH)
}

#[test]
fn unchanged_prefix_carries_over_and_pagination_continues() {
    let (p, held) = world();
    let query = resume_query();
    assert_eq!(query.scan_window(), Some(ScanRange::new(0, 47)));
    // Served at batch 1: the prefix region is untouched there.
    let bundle = p.resume_bundle(&query, BatchNum(1));
    let n_wire_rows = bundle.scan.rows.len();
    let answer = p
        .verify_resume(&query, bundle, &held)
        .expect("resume verifies");
    let QueryAnswer::Rows { rows, next } = answer else {
        panic!("scan answer expected");
    };
    // Only fresh rows returned (none of the held prefix re-shipped)…
    assert_eq!(rows.len(), n_wire_rows);
    assert!(rows
        .iter()
        .all(|(k, _)| ScanRange::bucket_of(k, DEPTH) > THROUGH));
    assert!(!rows.is_empty(), "fresh region holds committed rows");
    // …reflecting the *new* snapshot…
    let overwritten = rows
        .iter()
        .find(|(_, v)| v.as_bytes() == b"fresh-overwrite");
    assert!(
        overwritten.is_some(),
        "batch 1's write is in the fresh page"
    );
    // …and pagination continues from the window end, pinned to the new
    // batch.
    let token = next.expect("more range left");
    assert_eq!(token.batch, BatchNum(1));
    assert_eq!(token.resume, 48);
}

#[test]
fn changed_prefix_is_divergence_not_byzantine() {
    let (p, held) = world();
    let query = resume_query();
    // Served at batch 2: a prefix row was overwritten there.
    let bundle = p.resume_bundle(&query, BatchNum(2));
    assert_eq!(
        p.verify_resume(&query, bundle, &held),
        Err(ReadRejection::PrefixDiverged)
    );
}

#[test]
fn fresh_region_forgeries_are_still_caught() {
    let (p, held) = world();
    let query = resume_query();
    // Omission: drop one fresh row (proof untouched).
    let mut omitted = p.resume_bundle(&query, BatchNum(1));
    omitted.scan.rows.remove(0);
    assert!(matches!(
        p.verify_resume(&query, omitted, &held),
        Err(ReadRejection::IncompleteScan { .. })
    ));
    // Tamper: rewrite one fresh value.
    let mut tampered = p.resume_bundle(&query, BatchNum(1));
    tampered.scan.rows[0].1 = Value::from("forged");
    assert!(matches!(
        p.verify_resume(&query, tampered, &held),
        Err(ReadRejection::ScanRowMismatch(_))
    ));
    // Row-stuffing: resend the held prefix rows despite the resume
    // marker (they double-answer proven entries).
    let mut stuffed = p.resume_bundle(&query, BatchNum(1));
    let mut rows = held.clone();
    rows.extend(stuffed.scan.rows.clone());
    stuffed.scan.rows = rows;
    assert!(matches!(
        p.verify_resume(&query, stuffed, &held),
        Err(ReadRejection::IncompleteScan { .. })
    ));
}

#[test]
fn malformed_prefix_bounds_are_rejected() {
    let (p, held) = world();
    // A prefix bound past the range end is a tampered resume marker.
    let bad = ReadQuery::scatter_scan(vec![ClusterId(0)], RANGE, 16).with_prefix(99);
    let honest = ScanBundle {
        commitment: p.headers[1].clone(),
        cert: p.certs[1].clone(),
        scan: scan_snapshot(&p, &RANGE, BatchNum(1)),
    };
    assert!(matches!(
        p.verify_resume(&bad, honest, &held),
        Err(ReadRejection::PageOutOfRange { .. })
    ));
}

#[test]
fn completed_scan_revalidates_with_zero_fresh_rows() {
    // Restarting a *finished* scan: the whole range is prefix; the
    // resume answer is a proof with no rows at all.
    let (p, _) = world();
    let held: Vec<(Key, Value)> = p.rows_at(&RANGE, BatchNum(0));
    let query = ReadQuery::scatter_scan(vec![ClusterId(0)], RANGE, 16).with_prefix(RANGE.last);
    assert_eq!(query.scan_window(), Some(RANGE));
    let bundle = p.resume_bundle(&query, BatchNum(1));
    // Batch 1 overwrote a fresh-region row, which for a full-range
    // prefix *is* part of the prefix → divergence.
    assert_eq!(
        p.verify_resume(&query, bundle, &held),
        Err(ReadRejection::PrefixDiverged)
    );
    // Held rows taken at batch 1 itself revalidate cleanly.
    let held1: Vec<(Key, Value)> = p.rows_at(&RANGE, BatchNum(1));
    let bundle1 = p.resume_bundle(&query, BatchNum(1));
    assert!(bundle1.scan.rows.is_empty(), "nothing fresh to ship");
    let answer = p
        .verify_resume(&query, bundle1, &held1)
        .expect("revalidates");
    assert_eq!(
        answer,
        QueryAnswer::Rows {
            rows: vec![],
            next: None
        }
    );
}
