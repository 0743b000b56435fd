//! Shared harness of the point-read suites: one partition's real server
//! state (store, versioned Merkle tree, certified headers with their
//! `f+1` certificates, per-batch changed-key sets) and the helpers that
//! turn it into the sections, scan windows and feed deltas an untrusted
//! node would serve.

// Each suite uses its own subset.
#![allow(dead_code)]

use std::collections::HashMap;

use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, Epoch, Key, NodeId, ReplicaId, SimDuration, SimTime,
    Value,
};
use transedge_consensus::messages::accept_statement;
use transedge_consensus::Certificate;
use transedge_crypto::merkle::value_digest;
use transedge_crypto::{
    Digest, KeyStore, Keypair, MerkleProof, MultiProof, RangeProof, ScanRange, Sha256,
    VersionedMerkleTree,
};
use transedge_edge::{
    changed_keys_digest, multi_snapshot, scan_snapshot, BatchCommitment, CertifiedDelta,
    MultiProofBody, MultiProofBundle, QueryAnswer, QuorumCheck, ReadQuery, ReadRejection,
    ReadResponse, ReadVerifier, ScanBundle, SnapshotSource, VerifiedCerts, VerifyParams,
};
use transedge_storage::VersionedStore;

pub const DEPTH: u32 = 8;

pub type Section = MultiProofBundle<TestHeader>;

/// A minimal certified batch header (the commitment shape
/// `transedge-core` provides in production): the certified digest
/// covers every field, the changed-key digest included.
#[derive(Clone, Debug)]
pub struct TestHeader {
    pub cluster: ClusterId,
    pub num: BatchNum,
    pub merkle_root: Digest,
    pub lce: Epoch,
    pub delta: Digest,
    pub timestamp: SimTime,
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
        h.update(b"test/header");
        h.update(&self.cluster.0.to_le_bytes());
        h.update(&self.num.0.to_le_bytes());
        h.update(self.merkle_root.as_bytes());
        h.update(&self.lce.0.to_le_bytes());
        h.update(self.delta.as_bytes());
        h.update(&self.timestamp.0.to_le_bytes());
        h.finalize()
    }

    fn delta_digest(&self) -> Digest {
        self.delta
    }
}

/// One partition's worth of server state.
pub struct Partition {
    pub topo: ClusterTopology,
    pub keys: KeyStore,
    pub secrets: HashMap<ReplicaId, Keypair>,
    pub store: VersionedStore,
    pub tree: VersionedMerkleTree,
    pub headers: Vec<TestHeader>,
    pub certs: Vec<Certificate>,
    /// Per batch, the sorted changed-key set its header certifies.
    pub changed: Vec<Vec<Key>>,
    /// A client memo that has already verified every certificate
    /// [`Partition::commit`] minted — the warm side of
    /// [`Partition::verdict`].
    pub warm: VerifiedCerts,
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

    fn prove_multi(&self, keys: &[Key], batch: BatchNum) -> MultiProof {
        self.tree.prove_multi(keys, batch.0)
    }
}

impl Partition {
    pub fn new() -> Self {
        let topo = ClusterTopology::new(1, 1).unwrap();
        let (keys, secrets) = KeyStore::for_topology(&topo, &[9u8; 32]);
        Partition {
            topo,
            warm: VerifiedCerts::new(keys.clone()),
            keys,
            secrets,
            store: VersionedStore::new(),
            tree: VersionedMerkleTree::with_depth(DEPTH),
            headers: Vec::new(),
            certs: Vec::new(),
            changed: Vec::new(),
        }
    }

    /// `f+1` replica signatures over `header`'s certified digest.
    pub fn certify(&self, header: &TestHeader) -> Certificate {
        let digest = header.certified_digest();
        let stmt = accept_statement(ClusterId(0), header.num, &digest);
        let sigs = self
            .topo
            .replicas_of(ClusterId(0))
            .take(self.topo.certificate_quorum())
            .map(|r| (NodeId::Replica(r), self.secrets[&r].sign(&stmt)))
            .collect();
        Certificate {
            cluster: ClusterId(0),
            slot: header.num,
            digest,
            sigs,
        }
    }

    /// Commit a batch of writes and certify the resulting header.
    pub fn commit<V: AsRef<str>>(&mut self, writes: &[(u32, V)], lce: Epoch, timestamp: SimTime) {
        let num = BatchNum(self.headers.len() as u64);
        let mut updates = Vec::new();
        for (k, v) in writes {
            let key = Key::from_u32(*k);
            let value = Value::from(v.as_ref());
            self.store.write(key.clone(), value.clone(), num);
            updates.push((key, value_digest(&value)));
        }
        let merkle_root = self
            .tree
            .apply_batch(num.0, updates.iter().map(|(k, d)| (k, *d)));
        let mut changed: Vec<Key> = updates.into_iter().map(|(k, _)| k).collect();
        changed.sort();
        changed.dedup();
        let header = TestHeader {
            cluster: ClusterId(0),
            num,
            merkle_root,
            lce,
            delta: changed_keys_digest(&changed),
            timestamp,
        };
        let cert = self.certify(&header);
        assert!(self
            .warm
            .check_quorum(&cert, self.topo.certificate_quorum()));
        self.certs.push(cert);
        self.headers.push(header);
        self.changed.push(changed);
    }

    /// What a replica serves for `keys` at `at`: one section proving
    /// exactly those keys.
    pub fn section(&self, keys: &[Key], at: BatchNum) -> Section {
        self.wrap(multi_snapshot(self, keys, at), at)
    }

    /// `body` under batch `at`'s certified commitment.
    pub fn wrap(&self, body: MultiProofBody, at: BatchNum) -> Section {
        MultiProofBundle {
            commitment: self.headers[at.0 as usize].clone(),
            cert: self.certs[at.0 as usize].clone(),
            body,
        }
    }

    pub fn scan(&self, range: ScanRange, at: BatchNum) -> ScanBundle<TestHeader> {
        ScanBundle {
            commitment: self.headers[at.0 as usize].clone(),
            cert: self.certs[at.0 as usize].clone(),
            scan: scan_snapshot(self, &range, at),
        }
    }

    /// Batch `at`'s entry in the certified commit feed.
    pub fn delta(&self, at: BatchNum) -> CertifiedDelta<TestHeader> {
        CertifiedDelta {
            commitment: self.headers[at.0 as usize].clone(),
            cert: self.certs[at.0 as usize].clone(),
            changed: self.changed[at.0 as usize].clone(),
        }
    }

    /// Verify `response` the only way a client can — twice: through
    /// the plain key directory (every certificate checked) and through
    /// the memo already holding every honest certificate. Memoisation
    /// must never change a verdict, so every forgery a suite routes
    /// through here is also an equivalence case.
    pub fn verdict(
        &self,
        cluster: ClusterId,
        query: &ReadQuery,
        response: &ReadResponse<TestHeader>,
        now: SimTime,
    ) -> Result<QueryAnswer, ReadRejection> {
        let verifier = self.verifier();
        let plain = verifier.verify_query(&self.keys, cluster, query, response, now);
        let memoised = verifier.verify_query(&self.warm, cluster, query, response, now);
        assert_eq!(memoised, plain, "a warm memo changed the verdict");
        plain
    }

    pub fn verifier(&self) -> ReadVerifier {
        ReadVerifier::new(VerifyParams {
            tree_depth: DEPTH,
            freshness_window: SimDuration::from_secs(30),
            quorum: self.topo.certificate_quorum(),
        })
    }
}

/// `section` with its body rebuilt from tampered parts (a body is
/// immutable, so an attacker re-encodes — exactly what the simulator's
/// byzantine edge does).
pub fn rebuild(
    section: &Section,
    keys: Vec<Key>,
    values: Vec<Option<Value>>,
    proof: MultiProof,
) -> Section {
    MultiProofBundle {
        commitment: section.commitment.clone(),
        cert: section.cert.clone(),
        body: MultiProofBody::new(keys, values, proof),
    }
}
