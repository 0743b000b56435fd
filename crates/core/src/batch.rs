//! Transactions and the four-segment batch of Figure 2. The batch's
//! read-only segment — [`BatchHeader`], its [`CdVector`] and the
//! [`CommittedHeader`] a read carries — lives in `transedge-edge`, with
//! the checks that read it; it is re-exported here.

use transedge_common::{
    ClusterId, ClusterTopology, Decode, Encode, Epoch, Key, Result, TransEdgeError, TxnId, Value,
    WireReader, WireWriter,
};
use transedge_crypto::Digest;
pub use transedge_edge::{BatchHeader, CdVector, CommittedHeader};

use crate::records::{CommitRecord, SignedPrepared};

/// One read operation with the version observed at read time — the
/// batch number in which the value read had committed. Used by the OCC
/// validation (Definition 3.1, rule 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadOp {
    pub key: Key,
    /// `Epoch::NONE` if the key did not exist when read.
    pub version: Epoch,
}

/// One buffered write operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteOp {
    pub key: Key,
    pub value: Value,
}

/// A transaction as submitted for commit: read-set with versions,
/// write-set with values (paper §2, Interface).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    pub id: TxnId,
    pub reads: Vec<ReadOp>,
    pub writes: Vec<WriteOp>,
}

impl Transaction {
    /// All partitions this transaction touches, ascending.
    pub fn partitions(&self, topo: &ClusterTopology) -> Vec<ClusterId> {
        let mut parts: Vec<ClusterId> = self
            .reads
            .iter()
            .map(|r| topo.partition_of(&r.key))
            .chain(self.writes.iter().map(|w| topo.partition_of(&w.key)))
            .collect();
        parts.sort_unstable();
        parts.dedup();
        parts
    }

    /// Local to a single cluster?
    pub fn is_local(&self, topo: &ClusterTopology) -> bool {
        self.partitions(topo).len() == 1
    }

    /// Read keys restricted to one partition.
    pub fn reads_on<'a>(
        &'a self,
        topo: &'a ClusterTopology,
        cluster: ClusterId,
    ) -> impl Iterator<Item = &'a ReadOp> {
        self.reads
            .iter()
            .filter(move |r| topo.partition_of(&r.key) == cluster)
    }

    /// Write ops restricted to one partition.
    pub fn writes_on<'a>(
        &'a self,
        topo: &'a ClusterTopology,
        cluster: ClusterId,
    ) -> impl Iterator<Item = &'a WriteOp> {
        self.writes
            .iter()
            .filter(move |w| topo.partition_of(&w.key) == cluster)
    }

    /// Total operation count (cost accounting).
    pub fn op_count(&self) -> usize {
        self.reads.len() + self.writes.len()
    }
}

/// A distributed transaction sitting in the *prepared* segment: 2PC
/// prepared here but not yet committed. Carries the coordinator's
/// signed prepare (for remotely-coordinated transactions) so replicas
/// can authenticate the 2PC step (§3.3.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedTxn {
    pub txn: Transaction,
    pub coordinator: ClusterId,
    /// The coordinator cluster's `f+1`-signed prepare record. `None`
    /// when this cluster *is* the coordinator (the commit request came
    /// straight from the client).
    pub coordinator_prepare: Option<SignedPrepared>,
}

/// One batch of the SMR log (Figure 2): the value that goes through
/// consensus.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batch {
    pub header: BatchHeader,
    /// Local transactions segment.
    pub local: Vec<Transaction>,
    /// Prepared (2PC-prepared, not yet committed) distributed
    /// transactions segment.
    pub prepared: Vec<PreparedTxn>,
    /// Committed (or aborted) distributed transactions segment.
    pub committed: Vec<CommitRecord>,
}

impl Batch {
    /// The certified header a read-only response carries: the header
    /// and the digest of the three segments it omits.
    pub fn committed_header(&self) -> CommittedHeader {
        CommittedHeader {
            header: self.header.clone(),
            body_digest: self.body_digest(),
        }
    }

    /// The digest consensus certifies:
    /// [`CommittedHeader::certified_digest`] of this batch's header.
    pub fn digest(&self) -> Digest {
        self.committed_header().certified_digest()
    }

    /// Digest of the three transaction segments.
    pub fn body_digest(&self) -> Digest {
        let mut w = WireWriter::new();
        w.put_seq(&self.local);
        w.put_seq(&self.prepared);
        w.put_seq(&self.committed);
        transedge_crypto::sha256(w.as_slice())
    }

    /// Total number of transactions across segments.
    pub fn txn_count(&self) -> usize {
        self.local.len() + self.prepared.len() + self.committed.len()
    }

    /// Approximate wire size (network cost model).
    pub fn size_bytes(&self) -> usize {
        self.encode_to_vec().len()
    }
}

impl transedge_consensus::BftValue for Batch {
    fn digest(&self) -> Digest {
        Batch::digest(self)
    }
}

// ---- wire encodings --------------------------------------------------

impl Encode for ReadOp {
    fn encode(&self, w: &mut WireWriter) {
        self.key.encode(w);
        self.version.encode(w);
    }
}

impl Decode for ReadOp {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(ReadOp {
            key: Key::decode(r)?,
            version: Epoch::decode(r)?,
        })
    }
}

impl Encode for WriteOp {
    fn encode(&self, w: &mut WireWriter) {
        self.key.encode(w);
        self.value.encode(w);
    }
}

impl Decode for WriteOp {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(WriteOp {
            key: Key::decode(r)?,
            value: Value::decode(r)?,
        })
    }
}

impl Encode for Transaction {
    fn encode(&self, w: &mut WireWriter) {
        self.id.encode(w);
        w.put_seq(&self.reads);
        w.put_seq(&self.writes);
    }
}

impl Decode for Transaction {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(Transaction {
            id: TxnId::decode(r)?,
            reads: r.get_seq()?,
            writes: r.get_seq()?,
        })
    }
}

impl Encode for PreparedTxn {
    fn encode(&self, w: &mut WireWriter) {
        self.txn.encode(w);
        self.coordinator.encode(w);
        self.coordinator_prepare.encode(w);
    }
}

impl Decode for PreparedTxn {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(PreparedTxn {
            txn: Transaction::decode(r)?,
            coordinator: ClusterId::decode(r)?,
            coordinator_prepare: Option::<SignedPrepared>::decode(r)?,
        })
    }
}

impl Encode for Batch {
    fn encode(&self, w: &mut WireWriter) {
        self.header.encode(w);
        w.put_seq(&self.local);
        w.put_seq(&self.prepared);
        w.put_seq(&self.committed);
    }
}

impl Decode for Batch {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(Batch {
            header: BatchHeader::decode(r)?,
            local: r.get_seq()?,
            prepared: r.get_seq()?,
            committed: r.get_seq()?,
        })
    }
}

/// Validate structural invariants a well-formed batch must satisfy
/// regardless of application state (cheap checks before the expensive
/// semantic validation).
pub fn check_batch_shape(batch: &Batch, n_clusters: usize) -> Result<()> {
    if batch.header.cd.len() != n_clusters {
        return Err(TransEdgeError::Verification(format!(
            "CD vector has {} entries, want {n_clusters}",
            batch.header.cd.len()
        )));
    }
    // Own CD entry must equal the batch number (the dependency from a
    // batch to its own partition is always the batch id, §4.3.3b).
    if batch.header.cd.get(batch.header.cluster) != batch.header.num.as_epoch() {
        return Err(TransEdgeError::Verification(
            "own CD entry must equal batch number".into(),
        ));
    }
    // No transaction may appear in two segments.
    let mut seen = std::collections::HashSet::new();
    for id in batch
        .local
        .iter()
        .map(|t| t.id)
        .chain(batch.prepared.iter().map(|p| p.txn.id))
        .chain(batch.committed.iter().map(|c| c.txn_id))
    {
        if !seen.insert(id) {
            return Err(TransEdgeError::Verification(format!(
                "transaction {id} appears twice in batch"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use transedge_common::{BatchNum, ClientId, SimTime};

    fn txn(id: u64, read_keys: &[u32], write_keys: &[u32]) -> Transaction {
        Transaction {
            id: TxnId::new(ClientId(0), id),
            reads: read_keys
                .iter()
                .map(|k| ReadOp {
                    key: Key::from_u32(*k),
                    version: Epoch::NONE,
                })
                .collect(),
            writes: write_keys
                .iter()
                .map(|k| WriteOp {
                    key: Key::from_u32(*k),
                    value: Value::from("v"),
                })
                .collect(),
        }
    }

    fn header(cluster: u16, num: u64, n: usize) -> BatchHeader {
        let mut cd = CdVector::new(n);
        cd.set(ClusterId(cluster), Epoch(num as i64));
        BatchHeader {
            cluster: ClusterId(cluster),
            num: BatchNum(num),
            cd,
            lce: Epoch::NONE,
            merkle_root: Digest::ZERO,
            delta_digest: transedge_edge::changed_keys_digest(&[]),
            timestamp: SimTime::ZERO,
        }
    }

    #[test]
    fn partitions_are_sorted_and_deduped() {
        let topo = ClusterTopology::paper_default();
        let t = txn(1, &[1, 2, 3, 4, 5, 6, 7, 8], &[9, 10]);
        let parts = t.partitions(&topo);
        let mut sorted = parts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(parts, sorted);
        assert!(!parts.is_empty());
    }

    #[test]
    fn locality_detection() {
        let topo = ClusterTopology::paper_default();
        // Find two keys in the same partition and two in different ones.
        let k0 = Key::from_u32(0);
        let p0 = topo.partition_of(&k0);
        let same = (1..1000)
            .map(Key::from_u32)
            .find(|k| topo.partition_of(k) == p0)
            .unwrap();
        let diff = (1..1000)
            .map(Key::from_u32)
            .find(|k| topo.partition_of(k) != p0)
            .unwrap();
        let local = Transaction {
            id: TxnId::new(ClientId(0), 1),
            reads: vec![ReadOp {
                key: k0.clone(),
                version: Epoch::NONE,
            }],
            writes: vec![WriteOp {
                key: same,
                value: Value::from("x"),
            }],
        };
        assert!(local.is_local(&topo));
        let dist = Transaction {
            id: TxnId::new(ClientId(0), 2),
            reads: vec![ReadOp {
                key: k0,
                version: Epoch::NONE,
            }],
            writes: vec![WriteOp {
                key: diff,
                value: Value::from("x"),
            }],
        };
        assert!(!dist.is_local(&topo));
    }

    /// What a replica serves a read with — the header beside the body
    /// digest — recomputes the digest consensus certified for the
    /// batch, on a batch with all three segments non-empty; and the body
    /// digest covers each of them and a transaction's contents, not only
    /// its presence.
    #[test]
    fn certified_digest_matches_full_digest() {
        use crate::records::{CommitRecord, Outcome, SignedPrepared};
        use transedge_consensus::BftValue;
        let signed = SignedPrepared {
            cluster: ClusterId(0),
            txn: TxnId::new(ClientId(0), 3),
            prepared_in: BatchNum(2),
            cd: CdVector::new(3),
            sigs: Vec::new(),
        };
        let b = Batch {
            header: header(1, 4, 3),
            local: vec![txn(1, &[1], &[2]), txn(2, &[3], &[])],
            prepared: vec![PreparedTxn {
                txn: txn(3, &[4], &[5]),
                coordinator: ClusterId(0),
                coordinator_prepare: Some(signed.clone()),
            }],
            committed: vec![CommitRecord {
                txn_id: TxnId::new(ClientId(0), 4),
                prepared_in: BatchNum(3),
                outcome: Outcome::Committed,
                prepared: vec![signed],
            }],
        };
        let served = b.committed_header();
        assert_eq!(served.certified_digest(), BftValue::digest(&b));
        let edits: [fn(&mut Batch); 4] = [
            |b| b.local.clear(),
            |b| b.prepared.clear(),
            |b| b.committed.clear(),
            |b| b.local[0].writes[0].value = Value::from("other"),
        ];
        for edit in edits {
            let mut edited = b.clone();
            edit(&mut edited);
            assert_ne!(served.certified_digest(), BftValue::digest(&edited));
        }
    }

    #[test]
    fn batch_wire_roundtrip() {
        use transedge_common::wire::roundtrip;
        let b = Batch {
            header: header(0, 2, 2),
            local: vec![txn(5, &[1, 2], &[3])],
            prepared: vec![],
            committed: vec![],
        };
        roundtrip(&b);
        roundtrip(&b.header);
        roundtrip(&b.local[0]);
    }

    #[test]
    fn shape_check_catches_bad_cd_length() {
        let b = Batch {
            header: header(0, 0, 2),
            local: vec![],
            prepared: vec![],
            committed: vec![],
        };
        assert!(check_batch_shape(&b, 2).is_ok());
        assert!(check_batch_shape(&b, 5).is_err());
    }

    #[test]
    fn shape_check_catches_wrong_own_entry() {
        let mut b = Batch {
            header: header(0, 3, 2),
            local: vec![],
            prepared: vec![],
            committed: vec![],
        };
        b.header.cd.set(ClusterId(0), Epoch(1)); // should be 3
        assert!(check_batch_shape(&b, 2).is_err());
    }

    #[test]
    fn shape_check_catches_duplicate_txn() {
        let t = txn(1, &[1], &[2]);
        let b = Batch {
            header: header(0, 0, 2),
            local: vec![t.clone(), t],
            prepared: vec![],
            committed: vec![],
        };
        assert!(check_batch_shape(&b, 2).is_err());
    }
}
