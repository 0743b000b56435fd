//! `f+1`-signed 2PC evidence.
//!
//! In a hierarchical BFT system, a cluster cannot trust a bare message
//! from another cluster's leader — the leader may be byzantine. A 2PC
//! prepare is therefore backed by `f+1` replica signatures from the
//! cluster that took it (paper §3.3.2–§3.3.3: "the message includes the
//! prepared record signed by f+1 nodes in the partition").
//!
//! Replicas sign a share after *delivering* the batch that prepared the
//! transaction (so the prepare really is in the SMR log); the leader
//! gathers shares like consensus votes (`transedge_consensus::Votes`)
//! into a [`SignedPrepared`]. There is no second certificate for the
//! outcome: §3.3.4's `f+1`-signed commit record is never built. A
//! [`CommitRecord`]'s evidence is the other participants' prepared
//! records, which the coordinator forwards with its decision (ledger:
//! ROADMAP.md, *Deviation ledger*).

use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, Decode, Encode, NodeId, Result, TransEdgeError, TxnId,
    WireReader, WireWriter,
};
use transedge_crypto::{KeyStore, Signature};

use crate::batch::{CdVector, Transaction};

/// Did the transaction commit or abort?
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    Committed,
    Aborted,
}

impl Encode for Outcome {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(match self {
            Outcome::Committed => 1,
            Outcome::Aborted => 0,
        });
    }
}

impl Decode for Outcome {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            1 => Ok(Outcome::Committed),
            0 => Ok(Outcome::Aborted),
            t => Err(TransEdgeError::Decode(format!("bad Outcome tag {t}"))),
        }
    }
}

/// Statement signed by replicas of `cluster` attesting that `txn` 2PC-
/// prepared in their batch `prepared_in`, whose CD vector was `cd`.
pub fn prepared_statement(
    cluster: ClusterId,
    txn: TxnId,
    prepared_in: BatchNum,
    cd: &CdVector,
) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(96);
    w.put_bytes(b"transedge/prepared");
    cluster.encode(&mut w);
    txn.encode(&mut w);
    prepared_in.encode(&mut w);
    cd.encode(&mut w);
    w.into_bytes()
}

/// A *prepared record*: proof that partition `cluster` prepared `txn`
/// in its batch `prepared_in`. The piggybacked CD vector of that batch
/// (paper §4.3.3c) rides along, covered by the signatures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedPrepared {
    pub cluster: ClusterId,
    pub txn: TxnId,
    pub prepared_in: BatchNum,
    pub cd: CdVector,
    pub sigs: Vec<(NodeId, Signature)>,
}

impl SignedPrepared {
    pub fn verify(&self, keys: &KeyStore, quorum: usize) -> Result<()> {
        for (node, _) in &self.sigs {
            match node {
                NodeId::Replica(r) if r.cluster == self.cluster => {}
                other => {
                    return Err(TransEdgeError::Verification(format!(
                        "prepared-record signer {other} not in {}",
                        self.cluster
                    )))
                }
            }
        }
        let stmt = prepared_statement(self.cluster, self.txn, self.prepared_in, &self.cd);
        keys.require_quorum(&stmt, &self.sigs, quorum)
    }

    /// The one check of a single prepared record: it vouches that
    /// `cluster` prepared `txn` when it names both and `quorum` of that
    /// cluster's replicas signed it. A participant preparing on a
    /// coordinator's record and the evidence rule of a 2PC outcome
    /// ([`CommitRecord::check_evidence`]) both ask this.
    pub(crate) fn vouches(
        &self,
        keys: &KeyStore,
        quorum: usize,
        cluster: ClusterId,
        txn: TxnId,
    ) -> Result<()> {
        if self.cluster != cluster || self.txn != txn {
            return Err(TransEdgeError::Verification(format!(
                "prepared record of {} at {} is not of {txn} at {cluster}",
                self.txn, self.cluster
            )));
        }
        self.verify(keys, quorum)
    }
}

impl Encode for SignedPrepared {
    fn encode(&self, w: &mut WireWriter) {
        self.cluster.encode(w);
        self.txn.encode(w);
        self.prepared_in.encode(w);
        self.cd.encode(w);
        w.put_u32(self.sigs.len() as u32);
        for (n, s) in &self.sigs {
            n.encode(w);
            s.encode(w);
        }
    }
}

impl Decode for SignedPrepared {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let cluster = ClusterId::decode(r)?;
        let txn = TxnId::decode(r)?;
        let prepared_in = BatchNum::decode(r)?;
        let cd = CdVector::decode(r)?;
        let n = r.get_u32()? as usize;
        let mut sigs = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            sigs.push((NodeId::decode(r)?, Signature::decode(r)?));
        }
        Ok(SignedPrepared {
            cluster,
            txn,
            prepared_in,
            cd,
            sigs,
        })
    }
}

/// One entry of the committed segment: the 2PC outcome of a transaction
/// whose prepare record sits in an earlier batch of this partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    pub txn_id: TxnId,
    /// Batch of *this* partition in which the transaction prepared.
    pub prepared_in: BatchNum,
    pub outcome: Outcome,
    /// The evidence: the `f+1`-signed prepared record of every other
    /// participant. Their CD vectors are what Algorithm 1 folds in.
    pub prepared: Vec<SignedPrepared>,
}

impl CommitRecord {
    /// The 2PC evidence rule: this record's evidence supports its
    /// outcome of `txn` at participant `me` when every prepared record
    /// in it vouches for `txn` at the cluster it names, and a commit
    /// holds one of every participant but `me`, whose own prepare is in
    /// its log. An abort needs none. The leader checks an outcome
    /// against it on arrival, a follower every record a proposal
    /// commits.
    pub(crate) fn check_evidence(
        &self,
        keys: &KeyStore,
        topo: &ClusterTopology,
        me: ClusterId,
        txn: &Transaction,
    ) -> Result<()> {
        let quorum = topo.certificate_quorum();
        for sp in &self.prepared {
            sp.vouches(keys, quorum, sp.cluster, self.txn_id)?;
        }
        if self.outcome == Outcome::Committed {
            let missing: Vec<ClusterId> = txn
                .partitions(topo)
                .into_iter()
                .filter(|c| *c != me && !self.prepared.iter().any(|sp| sp.cluster == *c))
                .collect();
            if !missing.is_empty() {
                return Err(TransEdgeError::Verification(format!(
                    "missing prepared records from {missing:?}"
                )));
            }
        }
        Ok(())
    }
}

impl Encode for CommitRecord {
    fn encode(&self, w: &mut WireWriter) {
        self.txn_id.encode(w);
        self.prepared_in.encode(w);
        self.outcome.encode(w);
        w.put_seq(&self.prepared);
    }
}

impl Decode for CommitRecord {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(CommitRecord {
            txn_id: TxnId::decode(r)?,
            prepared_in: BatchNum::decode(r)?,
            outcome: Outcome::decode(r)?,
            prepared: r.get_seq()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transedge_common::{ClientId, ClusterTopology, Epoch, ReplicaId};

    fn setup() -> (
        KeyStore,
        std::collections::HashMap<ReplicaId, transedge_crypto::Keypair>,
    ) {
        let topo = ClusterTopology::new(2, 1).unwrap();
        KeyStore::for_topology(&topo, &[9u8; 32])
    }

    fn cd(n: usize, entries: &[(u16, i64)]) -> CdVector {
        let mut v = CdVector::new(n);
        for (c, e) in entries {
            v.set(ClusterId(*c), Epoch(*e));
        }
        v
    }

    #[test]
    fn signed_prepared_verifies_with_quorum() {
        let (keys, secrets) = setup();
        let txn = TxnId::new(ClientId(0), 1);
        let cdv = cd(2, &[(0, 3)]);
        let stmt = prepared_statement(ClusterId(0), txn, BatchNum(3), &cdv);
        let sigs: Vec<_> = (0..2)
            .map(|i| {
                let r = ReplicaId::new(ClusterId(0), i);
                (NodeId::Replica(r), secrets[&r].sign(&stmt))
            })
            .collect();
        let sp = SignedPrepared {
            cluster: ClusterId(0),
            txn,
            prepared_in: BatchNum(3),
            cd: cdv,
            sigs,
        };
        assert!(sp.verify(&keys, 2).is_ok());
        assert!(sp.verify(&keys, 3).is_err());
        // CD vector is covered by the signature: tampering breaks it.
        let mut bad = sp.clone();
        bad.cd.set(ClusterId(1), Epoch(99));
        assert!(bad.verify(&keys, 2).is_err());
    }

    #[test]
    fn signed_prepared_rejects_cross_cluster_sigs() {
        let (keys, secrets) = setup();
        let txn = TxnId::new(ClientId(0), 2);
        let cdv = cd(2, &[]);
        let stmt = prepared_statement(ClusterId(0), txn, BatchNum(0), &cdv);
        let foreign = ReplicaId::new(ClusterId(1), 0);
        let sp = SignedPrepared {
            cluster: ClusterId(0),
            txn,
            prepared_in: BatchNum(0),
            cd: cdv,
            sigs: vec![(NodeId::Replica(foreign), secrets[&foreign].sign(&stmt))],
        };
        assert!(sp.verify(&keys, 1).is_err());
    }

    /// The evidence rule's world: three clusters with `f = 1` (a
    /// record needs two signatures), and a transaction writing a key on
    /// each of them.
    struct Evidence {
        topo: ClusterTopology,
        keys: KeyStore,
        secrets: std::collections::HashMap<ReplicaId, transedge_crypto::Keypair>,
        txn: Transaction,
    }

    impl Evidence {
        fn new() -> Self {
            use crate::batch::WriteOp;
            use transedge_common::{Key, Value};
            let topo = ClusterTopology::new(3, 1).unwrap();
            let (keys, secrets) = KeyStore::for_topology(&topo, &[9u8; 32]);
            let writes = (0..3)
                .map(|c| WriteOp {
                    key: (0u32..)
                        .map(Key::from_u32)
                        .find(|k| topo.partition_of(k) == ClusterId(c))
                        .unwrap(),
                    value: Value::from("v"),
                })
                .collect();
            let txn = Transaction {
                id: TxnId::new(ClientId(0), 1),
                reads: vec![],
                writes,
            };
            Evidence {
                topo,
                keys,
                secrets,
                txn,
            }
        }

        /// `cluster`'s prepared record of `txn`, signed by `signers`.
        fn record(&self, cluster: u16, txn: TxnId, signers: &[ReplicaId]) -> SignedPrepared {
            let cdv = cd(3, &[(cluster, 2)]);
            let stmt = prepared_statement(ClusterId(cluster), txn, BatchNum(2), &cdv);
            SignedPrepared {
                cluster: ClusterId(cluster),
                txn,
                prepared_in: BatchNum(2),
                cd: cdv,
                sigs: signers
                    .iter()
                    .map(|r| (NodeId::Replica(*r), self.secrets[r].sign(&stmt)))
                    .collect(),
            }
        }

        /// `cluster`'s record of the transaction, signed by its first
        /// `f+1` replicas.
        fn honest(&self, cluster: u16) -> SignedPrepared {
            let signers = [0, 1].map(|i| ReplicaId::new(ClusterId(cluster), i));
            self.record(cluster, self.txn.id, &signers)
        }

        /// Does `prepared` support `outcome` at cluster 0?
        fn supports(&self, outcome: Outcome, prepared: Vec<SignedPrepared>) -> bool {
            let record = CommitRecord {
                txn_id: self.txn.id,
                prepared_in: BatchNum(0),
                outcome,
                prepared,
            };
            record
                .check_evidence(&self.keys, &self.topo, ClusterId(0), &self.txn)
                .is_ok()
        }
    }

    #[test]
    fn honest_evidence_supports_its_outcome() {
        let ev = Evidence::new();
        // A commit needs every other participant's record; the
        // checker's own may ride along.
        assert!(ev.supports(Outcome::Committed, vec![ev.honest(1), ev.honest(2)]));
        let all = vec![ev.honest(0), ev.honest(1), ev.honest(2)];
        assert!(ev.supports(Outcome::Committed, all));
        // An abort needs none, but what it carries must still verify.
        assert!(ev.supports(Outcome::Aborted, vec![]));
        assert!(ev.supports(Outcome::Aborted, vec![ev.honest(1)]));
        // One record vouches for its own cluster and transaction only.
        let sp = ev.honest(1);
        let quorum = ev.topo.certificate_quorum();
        assert!(sp
            .vouches(&ev.keys, quorum, ClusterId(1), ev.txn.id)
            .is_ok());
        assert!(sp
            .vouches(&ev.keys, quorum, ClusterId(2), ev.txn.id)
            .is_err());
        let other = TxnId::new(ClientId(0), 2);
        assert!(sp.vouches(&ev.keys, quorum, ClusterId(1), other).is_err());
    }

    #[test]
    fn evidence_naming_another_transaction_supports_nothing() {
        let ev = Evidence::new();
        let signers = [0, 1].map(|i| ReplicaId::new(ClusterId(2), i));
        let other = ev.record(2, TxnId::new(ClientId(0), 2), &signers);
        assert!(!ev.supports(Outcome::Committed, vec![ev.honest(1), other.clone()]));
        assert!(!ev.supports(Outcome::Aborted, vec![other]));
    }

    #[test]
    fn evidence_signed_outside_its_cluster_supports_nothing() {
        let ev = Evidence::new();
        // Cluster 2's record, one of whose two signers is cluster 1's.
        let signers = [
            ReplicaId::new(ClusterId(2), 0),
            ReplicaId::new(ClusterId(1), 0),
        ];
        let forged = ev.record(2, ev.txn.id, &signers);
        assert!(!ev.supports(Outcome::Committed, vec![ev.honest(1), forged]));
    }

    #[test]
    fn evidence_below_f_plus_one_signatures_supports_nothing() {
        let ev = Evidence::new();
        let thin = ev.record(2, ev.txn.id, &[ReplicaId::new(ClusterId(2), 0)]);
        assert!(!ev.supports(Outcome::Committed, vec![ev.honest(1), thin.clone()]));
        assert!(!ev.supports(Outcome::Aborted, vec![thin]));
    }

    #[test]
    fn a_commit_missing_a_participants_record_is_unsupported() {
        let ev = Evidence::new();
        assert!(!ev.supports(Outcome::Committed, vec![ev.honest(1)]));
        // The checker's own record covers no one else.
        assert!(!ev.supports(Outcome::Committed, vec![ev.honest(0), ev.honest(2)]));
        assert!(!ev.supports(Outcome::Committed, vec![]));
    }

    #[test]
    fn wire_roundtrips() {
        use transedge_common::wire::roundtrip;
        let sp = SignedPrepared {
            cluster: ClusterId(1),
            txn: TxnId::new(ClientId(3), 9),
            prepared_in: BatchNum(2),
            cd: cd(3, &[(0, 1), (2, 5)]),
            sigs: vec![],
        };
        roundtrip(&sp);
        let cr = CommitRecord {
            txn_id: TxnId::new(ClientId(3), 9),
            prepared_in: BatchNum(1),
            outcome: Outcome::Committed,
            prepared: vec![sp],
        };
        roundtrip(&cr);
    }
}
