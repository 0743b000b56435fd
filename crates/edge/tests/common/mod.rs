//! Shared harness of the point-read suites: one partition's real server
//! state (store, versioned Merkle tree, certified headers with their
//! `f+1` certificates, per-batch changed-key sets) and the helpers that
//! turn it into the point answers, scan windows and feed deltas an
//! untrusted node would serve, and that reach into an answer to tamper
//! with it.

// Each suite uses its own subset.
#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::Arc;

use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, Epoch, Key, NodeId, ReplicaId, SimDuration, SimTime,
    Value,
};
use transedge_consensus::messages::accept_statement;
use transedge_consensus::Certificate;
use transedge_crypto::merkle::value_digest;
use transedge_crypto::{
    Digest, KeyStore, Keypair, MerkleProof, MultiProof, RangeProof, ScanRange, VersionedMerkleTree,
};
use transedge_edge::{
    changed_keys_digest, multi_snapshot, scan_snapshot, Anchor, BatchHeader, Body, CdVector,
    CertifiedDelta, CommittedHeader, MultiProofBody, QueryAnswer, QuorumCheck, ReadQuery,
    ReadRejection, ReadResponse, ReadVerifier, ScanProof, SnapshotSource, VerifiedCerts,
    VerifyParams, VersionedStore,
};

pub const DEPTH: u32 = 8;

/// The certified header of batch `num` in a one-partition world: its
/// CD vector sized to the topology, with the own entry at `num`, and
/// `changed` folded in as the changed-key digest. No transaction
/// segments travel with a read, so the body digest is a constant.
pub fn header(
    num: BatchNum,
    merkle_root: Digest,
    lce: Epoch,
    changed: &[Key],
    timestamp: SimTime,
) -> CommittedHeader {
    let mut cd = CdVector::new(1);
    cd.set(ClusterId(0), num.as_epoch());
    CommittedHeader {
        header: BatchHeader {
            cluster: ClusterId(0),
            num,
            cd,
            lce,
            merkle_root,
            delta_digest: changed_keys_digest(changed),
            timestamp,
        },
        body_digest: Digest::ZERO,
    }
}

/// `header` with one certified field an edge would profit from
/// rewriting, each under the honest certificate: the own CD entry
/// lowered (Algorithm 2 reads the CD vector to decide round two; this
/// world has one partition, so the own entry is the only one), the LCE
/// raised (a faked round-two floor), and the changed-key digest swapped
/// (a feed cut that skips a change).
pub fn rewritten(header: &CommittedHeader) -> Vec<(&'static str, CommittedHeader)> {
    let (mut lowered, mut raised, mut swapped) = (header.clone(), header.clone(), header.clone());
    let own = header.header.cluster;
    let entry = header.header.cd.get(own);
    lowered.header.cd.set(own, Epoch(entry.0 - 1));
    raised.header.lce = Epoch(header.header.lce.0 + 1);
    swapped.header.delta_digest = changed_keys_digest(&[Key::from_u32(u32::MAX)]);
    vec![
        ("own cd entry lowered", lowered),
        ("lce raised", raised),
        ("delta digest rewritten", swapped),
    ]
}

/// One partition's worth of server state.
pub struct Partition {
    pub topo: ClusterTopology,
    pub keys: KeyStore,
    pub secrets: HashMap<ReplicaId, Keypair>,
    pub store: VersionedStore,
    pub tree: VersionedMerkleTree,
    pub headers: Vec<CommittedHeader>,
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
        self.store.get_at(key, batch).map(|v| v.value.clone())
    }

    fn prove_at(&self, key: &Key, batch: BatchNum) -> MerkleProof {
        self.tree.prove_at(key, batch.0)
    }

    fn rows_at(&self, range: &ScanRange, batch: BatchNum) -> Vec<(Key, Value)> {
        self.store
            .range_at(range.digest_bounds(self.tree.depth()), batch)
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
        Partition::with_depth(DEPTH)
    }

    /// An empty partition whose tree has `2^depth` buckets.
    pub fn with_depth(depth: u32) -> Self {
        let topo = ClusterTopology::new(1, 1).unwrap();
        let (keys, secrets) = KeyStore::for_topology(&topo, &[9u8; 32]);
        Partition {
            topo,
            warm: VerifiedCerts::new(keys.clone()),
            keys,
            secrets,
            store: VersionedStore::new(),
            tree: VersionedMerkleTree::with_depth(depth),
            headers: Vec::new(),
            certs: Vec::new(),
            changed: Vec::new(),
        }
    }

    /// `f+1` replica signatures over `header`'s certified digest.
    pub fn certify(&self, header: &CommittedHeader) -> Certificate {
        let digest = header.certified_digest();
        let num = header.header.num;
        let stmt = accept_statement(ClusterId(0), num, &digest);
        let sigs = self
            .topo
            .replicas_of(ClusterId(0))
            .take(self.topo.certificate_quorum())
            .map(|r| (NodeId::Replica(r), self.secrets[&r].sign(&stmt)))
            .collect();
        Certificate {
            cluster: ClusterId(0),
            slot: num,
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
        let header = header(num, merkle_root, lce, &changed, timestamp);
        let cert = self.certify(&header);
        assert!(self
            .warm
            .check_quorum(&cert, self.topo.certificate_quorum()));
        self.certs.push(cert);
        self.headers.push(header);
        self.changed.push(changed);
    }

    /// What a replica serves for `keys` at `at`: one full point answer
    /// proving exactly those keys.
    pub fn section(&self, keys: &[Key], at: BatchNum) -> ReadResponse {
        self.wrap(multi_snapshot(self, keys, at), at)
    }

    /// `body` under batch `at`'s certified commitment.
    pub fn wrap(&self, body: impl Into<Body>, at: BatchNum) -> ReadResponse {
        let (commitment, cert) = (&self.headers[at.0 as usize], &self.certs[at.0 as usize]);
        ReadResponse::full(commitment.clone(), cert.clone(), body)
    }

    /// What a replica serves for a scan of `range` at `at`.
    pub fn scan(&self, range: ScanRange, at: BatchNum) -> ReadResponse {
        self.wrap(scan_snapshot(self, &range, at), at)
    }

    /// Batch `at`'s entry in the certified commit feed.
    pub fn delta(&self, at: BatchNum) -> CertifiedDelta {
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
        response: &ReadResponse,
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
            tree_depth: self.tree.depth(),
            freshness_window: SimDuration::from_secs(30),
            quorum: self.topo.certificate_quorum(),
        })
    }
}

/// `section` with its body rebuilt from tampered parts (a body is
/// immutable, so an attacker re-encodes — exactly what the simulator's
/// byzantine edge does).
pub fn rebuild(
    section: &ReadResponse,
    keys: Vec<Key>,
    values: Vec<Option<Value>>,
    proof: MultiProof,
) -> ReadResponse {
    ReadResponse {
        anchor: section.anchor.clone(),
        body: MultiProofBody::new(keys, values, proof).into(),
    }
}

/// The point body of an answer.
pub fn body(answer: &ReadResponse) -> &MultiProofBody {
    match &answer.body {
        Body::Point { body, .. } => body,
        Body::Scan(_) => panic!("a point answer"),
    }
}

/// The window of a scan answer.
pub fn scan_of(answer: &ReadResponse) -> &ScanProof {
    match &answer.body {
        Body::Scan(scan) => scan,
        Body::Point { .. } => panic!("a scan answer"),
    }
}

/// The window of a scan answer, to tamper with.
pub fn scan_mut(answer: &mut ReadResponse) -> &mut ScanProof {
    match &mut answer.body {
        Body::Scan(scan) => scan,
        Body::Point { .. } => panic!("a scan answer"),
    }
}

/// The certified header and certificate of a full answer.
pub fn anchor_of(answer: &ReadResponse) -> (&CommittedHeader, &Certificate) {
    answer.anchor().expect("a full answer")
}

/// The certified header and certificate of a full answer, to tamper
/// with.
pub fn anchor_mut(answer: &mut ReadResponse) -> &mut (CommittedHeader, Certificate) {
    match &mut answer.anchor {
        Anchor::Full(full) => full,
        Anchor::Held { .. } => panic!("a full answer"),
    }
}

/// The point answer `answer` with `feed` attached as its feed tail.
pub fn with_feed<D: Into<Arc<CertifiedDelta>>>(
    mut answer: ReadResponse,
    feed: impl IntoIterator<Item = D>,
) -> ReadResponse {
    let Body::Point { fresh, .. } = &mut answer.body else {
        panic!("a point answer");
    };
    *fresh = Some(feed.into_iter().map(Into::into).collect());
    answer
}
