//! The deterministic replica state machine.
//!
//! Both the leader (when building a batch) and the followers (when
//! validating the leader's proposal before voting — §3.2: "other
//! replicas … ensure that the local transactions are in fact allowed to
//! commit using the rules above") run exactly this code. A batch is
//! applied *speculatively* to the Merkle tree during validation so the
//! proposed root can be checked before the WRITE vote; the application
//! is kept if the batch decides and rolled back on a view change.

use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, Epoch, Key, ReplicaId, SimDuration, SimTime,
};
use transedge_crypto::merkle::value_digest;
use transedge_crypto::{Digest, KeyStore, VersionedMerkleTree};
use transedge_edge::VersionedStore;

use crate::batch::{
    check_batch_shape, Batch, BatchHeader, CdVector, PreparedTxn, Transaction, WriteOp,
};
use crate::conflict::{admit, Footprint};
use crate::deps::derive_cd_vector;
use crate::prepared::PreparedBatches;
use crate::records::{CommitRecord, Outcome};

/// Everything the node learns from applying one decided batch.
#[derive(Debug, Default)]
pub struct ApplyOutcome {
    /// Distributed transactions whose 2PC outcome just drained here.
    pub drained: Vec<(Transaction, CommitRecord)>,
    /// Distributed transactions that just 2PC-prepared here.
    pub prepared: Vec<PreparedTxn>,
    /// Local transactions that just committed.
    pub local_committed: Vec<Transaction>,
}

/// Why a proposed batch was rejected during validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    Shape(String),
    StaleTimestamp,
    MisplacedTxn(String),
    Conflict(String),
    BadEvidence(String),
    BadDrain(String),
    BadCd,
    BadLce,
    /// The header's delta digest does not recompute from the batch's
    /// changed key set — a leader lying about *what changed* would
    /// poison every certified delta downstream, so followers check it
    /// like the root.
    BadDelta,
    BadRoot,
}

/// The writes a batch makes on `cluster`: its local transactions',
/// then those of its drained *Committed* transactions. The one walk
/// behind the batch's changed key set, its root speculation and its
/// store writes.
fn partition_writes<'a>(
    topo: &'a ClusterTopology,
    cluster: ClusterId,
    local: &'a [Transaction],
    drained: &'a [(Transaction, CommitRecord)],
) -> impl Iterator<Item = &'a WriteOp> {
    let committed = drained
        .iter()
        .filter(|(_, r)| r.outcome == Outcome::Committed)
        .map(|(t, _)| t);
    local
        .iter()
        .chain(committed)
        .flat_map(move |t| t.writes_on(topo, cluster))
}

/// The batch's changed key set: the keys of its writes on `cluster`
/// (local transactions', then drained *Committed* ones'), sorted and
/// deduplicated — exactly the updates the batch's root
/// speculation applies, in the canonical form
/// [`transedge_edge::changed_keys_digest`] hashes. Leaders, followers,
/// and the publish path all derive the changed set through this one
/// function so they can never disagree.
pub fn changed_keys(
    topo: &ClusterTopology,
    cluster: ClusterId,
    local: &[Transaction],
    drained: &[(Transaction, CommitRecord)],
) -> Vec<Key> {
    let mut keys: Vec<Key> = partition_writes(topo, cluster, local, drained)
        .map(|w| w.key.clone())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The replica state machine.
pub struct Executor {
    pub topo: ClusterTopology,
    pub cluster: ClusterId,
    pub me: ReplicaId,
    keys: KeyStore,
    /// Committed multi-version store (this partition's keys only).
    pub store: VersionedStore,
    /// Versioned ADS over this partition's keys.
    pub tree: VersionedMerkleTree,
    /// 2PC bookkeeping (deterministic across replicas).
    pub prepared_batches: PreparedBatches,
    /// CD vector and LCE of the last applied batch: what Algorithm 1
    /// derives the next batch's from. Every earlier batch's are in its
    /// header, in the consensus engine's decided log.
    last_cd: CdVector,
    last_lce: Epoch,
    /// Batch speculatively applied to the tree but not yet decided.
    spec: Option<(BatchNum, Digest)>,
    /// §4.4.2: how far a leader's timestamp may deviate.
    pub freshness_window: SimDuration,
    applied: u64,
}

impl Executor {
    pub fn new(
        topo: ClusterTopology,
        me: ReplicaId,
        keys: KeyStore,
        tree_depth: u32,
        freshness_window: SimDuration,
    ) -> Self {
        Executor {
            cluster: me.cluster,
            me,
            keys,
            store: VersionedStore::new(),
            tree: VersionedMerkleTree::with_depth(tree_depth),
            prepared_batches: PreparedBatches::new(),
            last_cd: CdVector::new(topo.n_clusters()),
            last_lce: Epoch::NONE,
            spec: None,
            freshness_window,
            topo,
            applied: 0,
        }
    }

    /// Number of batches applied so far (== next batch number).
    pub fn applied_batches(&self) -> u64 {
        self.applied
    }

    /// CD vector of the last applied batch, from which the next
    /// batch's is derived.
    pub fn last_cd(&self) -> &CdVector {
        &self.last_cd
    }

    /// Footprint of all pending (prepared, outcome unknown) txns —
    /// conflict rule 3.
    pub fn prepared_footprint(&self) -> Footprint {
        let mut fp = Footprint::new();
        for t in self.prepared_batches.pending_txns() {
            fp.absorb(t, &self.topo, Some(self.cluster));
        }
        fp
    }

    // ------------------------------------------------------------------
    // Bootstrap
    // ------------------------------------------------------------------

    /// Load initial data as batch 0 without a consensus round: write
    /// this partition's keys to the store, build the tree's version 0
    /// and return the genesis batch. The deployment builder calls this
    /// on one replica of each cluster, which every other replica of the
    /// cluster then copies with [`Executor::adopt_genesis`], and
    /// assembles the batch's certificate from the replica keys it
    /// already holds. The result is a pure function of the data, the
    /// timestamp and the cluster, so independent preloads agree.
    pub fn preload<'a>(
        &mut self,
        data: impl IntoIterator<Item = (&'a Key, &'a transedge_common::Value)>,
        timestamp: SimTime,
    ) -> Batch {
        assert_eq!(self.applied, 0, "preload must precede all batches");
        let mut updates: Vec<(&Key, Digest)> = Vec::new();
        for (k, v) in data {
            if self.topo.partition_of(k) != self.cluster {
                continue;
            }
            self.store.write(k.clone(), v.clone(), BatchNum(0));
            updates.push((k, value_digest(v)));
        }
        // Genesis "changes" every preloaded key: its delta digest
        // covers them like any later batch's covers its writes.
        let mut changed: Vec<Key> = updates.iter().map(|(k, _)| (*k).clone()).collect();
        changed.sort_unstable();
        changed.dedup();
        let root = self.tree.apply_batch(0, updates);
        let mut cd = CdVector::new(self.topo.n_clusters());
        cd.set(self.cluster, Epoch(0));
        let header = BatchHeader {
            cluster: self.cluster,
            num: BatchNum(0),
            cd: cd.clone(),
            lce: Epoch::NONE,
            merkle_root: root,
            delta_digest: transedge_edge::changed_keys_digest(&changed),
            timestamp,
        };
        self.last_cd = cd;
        self.applied = 1;
        Batch {
            header,
            local: Vec::new(),
            prepared: Vec::new(),
            committed: Vec::new(),
        }
    }

    /// Start from the genesis `source` preloaded, copying that agreed
    /// state instead of recomputing it: this executor takes its own
    /// copy of the store, the tree, the last CD vector and LCE and the
    /// applied count. Its identity, signature memo, 2PC bookkeeping,
    /// speculation and freshness window stay its own.
    ///
    /// The copies are values but cost O(1) in the number of keys: they
    /// share their chunks (the tree's and the store's tables, split by
    /// key-hash prefix) with `source`, and a side that writes copies
    /// only the chunks its write touches. The tree is written by
    /// applying a batch that changes a key (speculatively too) or by
    /// rolling one back, which copies the subtree chunk of each touched
    /// key and the top chunk above them; the store by a committed
    /// write, which copies the chunk of each key it writes. A batch
    /// that changes no key copies nothing.
    pub fn adopt_genesis(&mut self, source: &Executor) {
        assert_eq!(source.applied, 1, "source must hold exactly genesis");
        assert_eq!(self.applied, 0, "genesis must precede all batches");
        assert_eq!(self.cluster, source.cluster, "genesis of another cluster");
        self.store = source.store.clone();
        self.tree = source.tree.clone();
        self.last_cd = source.last_cd.clone();
        self.last_lce = source.last_lce;
        self.applied = source.applied;
    }

    // ------------------------------------------------------------------
    // Leader path: building a batch
    // ------------------------------------------------------------------

    /// Assemble and speculatively apply the next batch from admitted
    /// transactions. The caller (leader) has already run admission
    /// control ([`crate::conflict::admit`]) on every transaction. Only
    /// the resolutions whose group drains enter the committed segment;
    /// the caller keeps the rest pending (Definition 4.1 may hold them
    /// behind an unresolved group).
    pub fn seal_batch(
        &mut self,
        local: Vec<Transaction>,
        prepared: Vec<PreparedTxn>,
        resolutions: &[CommitRecord],
        now: SimTime,
    ) -> Batch {
        // A stale speculation (abandoned proposal) must be undone
        // before a new one for the same batch number is applied.
        self.rollback_speculation();
        let num = BatchNum(self.applied);
        let (header, drained) = self.derive_header(num, &local, resolutions, now);
        let batch = Batch {
            header,
            local,
            prepared,
            committed: drained.into_iter().map(|(_, r)| r).collect(),
        };
        self.spec = Some((num, Batch::digest(&batch)));
        batch
    }

    /// Derive the header of batch `num` from the state before it: the
    /// one derivation leader and followers share. On a copy of the
    /// prepare groups, resolve `resolutions` and drain at most one group
    /// (Definition 4.1); the drained records are the batch's committed
    /// segment and set its LCE. Then the CD vector (Algorithm 1), the
    /// changed key set's digest and the Merkle root, which stays
    /// speculatively applied to the tree. The leader seals its batch
    /// from the result ([`Executor::seal_batch`]); a follower checks a
    /// proposal against it ([`Executor::validate_batch`]).
    fn derive_header(
        &mut self,
        num: BatchNum,
        local: &[Transaction],
        resolutions: &[CommitRecord],
        timestamp: SimTime,
    ) -> (BatchHeader, Vec<(Transaction, CommitRecord)>) {
        let mut pb = self.prepared_batches.clone();
        for r in resolutions {
            pb.resolve(r.clone());
        }
        let (drained, lce_step) = pb.drain_ready();
        let committed: Vec<CommitRecord> = drained.iter().map(|(_, r)| r.clone()).collect();
        let lce = lce_step.unwrap_or(self.last_lce);
        let cd = derive_cd_vector(&self.last_cd, self.cluster, num, &committed);
        let changed = changed_keys(&self.topo, self.cluster, local, &drained);
        let merkle_root = self.speculate_root(num, local, &drained);
        let header = BatchHeader {
            cluster: self.cluster,
            num,
            cd,
            lce,
            merkle_root,
            delta_digest: transedge_edge::changed_keys_digest(&changed),
            timestamp,
        };
        (header, drained)
    }

    fn speculate_root(
        &mut self,
        num: BatchNum,
        local: &[Transaction],
        drained: &[(Transaction, CommitRecord)],
    ) -> Digest {
        let updates = partition_writes(&self.topo, self.cluster, local, drained)
            .map(|w| (&w.key, value_digest(&w.value)));
        self.tree.apply_batch(num.0, updates)
    }

    /// Discard the speculative application (view change dropped the
    /// in-flight proposal).
    pub fn rollback_speculation(&mut self) {
        if let Some((num, _)) = self.spec.take() {
            self.tree.rollback(num.0);
        }
    }

    // ------------------------------------------------------------------
    // Follower path: validating a proposal
    // ------------------------------------------------------------------

    /// Full semantic validation (Definition 3.1 + evidence + read-only
    /// segment recomputation). On success the batch's Merkle update
    /// stays speculatively applied.
    pub fn validate_batch(
        &mut self,
        slot: BatchNum,
        batch: &Batch,
        now: SimTime,
    ) -> Result<(), RejectReason> {
        // Re-validation of a proposal we already validated (view-change
        // re-proposal) short-circuits; a *different* pending speculation
        // is stale and rolled back first.
        if let Some((snum, sdig)) = self.spec {
            if snum == slot && sdig == Batch::digest(batch) {
                return Ok(());
            }
            self.tree.rollback(snum.0);
            self.spec = None;
        }
        if let Err(e) = check_batch_shape(batch, self.topo.n_clusters()) {
            return Err(RejectReason::Shape(e.to_string()));
        }
        if batch.header.cluster != self.cluster || batch.header.num != slot {
            return Err(RejectReason::Shape("wrong cluster or batch number".into()));
        }
        if slot.0 != self.applied {
            return Err(RejectReason::Shape(format!(
                "validating {slot} but applied {}",
                self.applied
            )));
        }
        // Freshness (§4.4.2): the leader's stamp must be within the
        // window of our clock, in either direction.
        let skew = now
            .saturating_since(batch.header.timestamp)
            .max(batch.header.timestamp.saturating_since(now));
        if skew > self.freshness_window {
            return Err(RejectReason::StaleTimestamp);
        }
        // Placement: local txns local, prepared txns distributed.
        for t in &batch.local {
            if !t.is_local(&self.topo) || t.partitions(&self.topo) != vec![self.cluster] {
                return Err(RejectReason::MisplacedTxn(format!(
                    "{} is not local to {}",
                    t.id, self.cluster
                )));
            }
        }
        for p in &batch.prepared {
            if p.txn.is_local(&self.topo) {
                return Err(RejectReason::MisplacedTxn(format!(
                    "{} is local but in prepared segment",
                    p.txn.id
                )));
            }
            if !p.txn.partitions(&self.topo).contains(&self.cluster) {
                return Err(RejectReason::MisplacedTxn(format!(
                    "{} does not touch {}",
                    p.txn.id, self.cluster
                )));
            }
            // Authenticate the coordinator's prepare for remotely
            // coordinated transactions (§3.3.3).
            match (&p.coordinator_prepare, p.coordinator == self.cluster) {
                (None, true) => {}
                (Some(sp), false) => {
                    let quorum = self.topo.certificate_quorum();
                    if let Err(e) = sp.vouches(&self.keys, quorum, p.coordinator, p.txn.id) {
                        return Err(RejectReason::BadEvidence(format!(
                            "bad coordinator prepare for {}: {e}",
                            p.txn.id
                        )));
                    }
                }
                (None, false) => {
                    return Err(RejectReason::BadEvidence(format!(
                        "{} lacks coordinator prepare",
                        p.txn.id
                    )))
                }
                (Some(_), true) => {
                    return Err(RejectReason::BadEvidence(format!(
                        "{} is own-coordinated but carries a remote prepare",
                        p.txn.id
                    )))
                }
            }
        }
        // Conflict rules (Definition 3.1) over the whole batch.
        let mut in_progress = Footprint::new();
        let prepared_fp = self.prepared_footprint();
        for t in batch
            .local
            .iter()
            .chain(batch.prepared.iter().map(|p| &p.txn))
        {
            if let Err(e) = admit(
                t,
                &self.store,
                &in_progress,
                &prepared_fp,
                &self.topo,
                self.cluster,
            ) {
                return Err(RejectReason::Conflict(format!("{}: {e:?}", t.id)));
            }
            in_progress.absorb(t, &self.topo, Some(self.cluster));
        }
        // Commit-record evidence.
        for record in &batch.committed {
            self.check_evidence(record)?;
        }
        // The header must be the one this replica derives from the
        // proposal's local transactions and committed segment: the drain
        // reproduces the segment (Definition 4.1's ordering), then the
        // LCE, the CD vector (Algorithm 1), the delta digest — certified
        // alongside the root, so a certificate vouches for *what
        // changed* too — and the root.
        let (header, drained) =
            self.derive_header(slot, &batch.local, &batch.committed, batch.header.timestamp);
        let mismatch = if drained.len() != batch.committed.len() {
            Some(RejectReason::BadDrain(format!(
                "committed segment has {} records but drain yields {}",
                batch.committed.len(),
                drained.len()
            )))
        } else if header.lce != batch.header.lce {
            Some(RejectReason::BadLce)
        } else if header.cd != batch.header.cd {
            Some(RejectReason::BadCd)
        } else if header.delta_digest != batch.header.delta_digest {
            Some(RejectReason::BadDelta)
        } else if header.merkle_root != batch.header.merkle_root {
            Some(RejectReason::BadRoot)
        } else {
            None
        };
        if let Some(reason) = mismatch {
            self.tree.rollback(slot.0);
            return Err(reason);
        }
        self.spec = Some((slot, Batch::digest(batch)));
        Ok(())
    }

    /// A commit record may enter the committed segment only for a
    /// transaction waiting here, on evidence that supports its outcome
    /// ([`CommitRecord::check_evidence`]).
    fn check_evidence(&self, record: &CommitRecord) -> Result<(), RejectReason> {
        let txn = self
            .prepared_batches
            .get_waiting(record.prepared_in, record.txn_id)
            .ok_or_else(|| {
                RejectReason::BadDrain(format!(
                    "{} not waiting in group {}",
                    record.txn_id, record.prepared_in
                ))
            })?;
        record
            .check_evidence(&self.keys, &self.topo, self.cluster, txn)
            .map_err(|e| RejectReason::BadEvidence(e.to_string()))
    }

    // ------------------------------------------------------------------
    // Apply path (on consensus decision)
    // ------------------------------------------------------------------

    /// Apply a decided batch. The Merkle tree may already hold the
    /// speculative application from validation/sealing.
    pub fn apply_batch(&mut self, batch: &Batch) -> ApplyOutcome {
        let num = batch.header.num;
        assert_eq!(num.0, self.applied, "batches must apply in order");
        // Resolve + drain for real.
        for r in &batch.committed {
            self.prepared_batches.resolve(r.clone());
        }
        let (drained, lce_step) = self.prepared_batches.drain_ready();
        debug_assert_eq!(drained.len(), batch.committed.len());
        // Tree: keep the speculative application, or apply now if this
        // replica never validated (e.g. fast-forward via state
        // transfer) or a different speculation is in the tree.
        match self.spec.take() {
            Some((snum, digest)) if snum == num && digest == Batch::digest(batch) => {}
            stale => {
                if let Some((snum, _)) = stale {
                    self.tree.rollback(snum.0);
                }
                self.speculate_root(num, &batch.local, &drained);
            }
        }
        // Committed store writes (this partition's keys only).
        for w in partition_writes(&self.topo, self.cluster, &batch.local, &drained) {
            self.store.write(w.key.clone(), w.value.clone(), num);
        }
        // Register the new prepare group.
        self.prepared_batches
            .add_group(num, batch.prepared.iter().map(|p| p.txn.clone()));
        // Read-only bookkeeping.
        let lce = lce_step.unwrap_or(self.last_lce);
        debug_assert_eq!(lce, batch.header.lce);
        self.last_cd = batch.header.cd.clone();
        self.last_lce = lce;
        self.applied += 1;
        ApplyOutcome {
            drained,
            prepared: batch.prepared.clone(),
            local_committed: batch.local.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Read serving
    // ------------------------------------------------------------------

    /// Serve an OCC read: latest committed value + version.
    pub fn read_latest(&self, key: &Key) -> (Option<transedge_common::Value>, Epoch) {
        match self.store.get_latest(key) {
            Some(v) => (Some(v.value.clone()), v.batch.into()),
            None => (None, Epoch::NONE),
        }
    }
}

/// The executor's store + versioned tree are the partition's snapshot
/// source: this is the seam the edge read subsystem serves through.
impl transedge_edge::SnapshotSource for Executor {
    fn value_at(&self, key: &Key, batch: BatchNum) -> Option<transedge_common::Value> {
        self.store.get_at(key, batch).map(|v| v.value.clone())
    }

    fn prove_at(&self, key: &Key, batch: BatchNum) -> transedge_crypto::MerkleProof {
        self.tree.prove_at(key, batch.0)
    }

    fn rows_at(
        &self,
        range: &transedge_crypto::ScanRange,
        batch: BatchNum,
    ) -> Vec<(Key, transedge_common::Value)> {
        // The store's rows are in tree order, so it narrows straight to
        // the window — O(log keys + rows), not an O(keys) cut walk.
        self.store
            .range_at(range.digest_bounds(self.tree.depth()), batch)
            .map(|(k, v)| (k.clone(), v.value.clone()))
            .collect()
    }

    fn prove_range(
        &self,
        range: &transedge_crypto::ScanRange,
        batch: BatchNum,
    ) -> transedge_crypto::RangeProof {
        self.tree.prove_range(range, batch.0)
    }

    fn prove_multi(&self, keys: &[Key], batch: BatchNum) -> transedge_crypto::MultiProof {
        self.tree.prove_multi(keys, batch.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{ReadOp, WriteOp};
    use transedge_common::{ClientId, TxnId, Value};

    fn single_cluster_exec() -> Executor {
        let topo = ClusterTopology::new(1, 1).unwrap();
        let (keys, _) = KeyStore::for_topology(&topo, &[1u8; 32]);
        Executor::new(
            topo,
            ReplicaId::new(ClusterId(0), 0),
            keys,
            8,
            SimDuration::from_secs(30),
        )
    }

    /// Replica 0 of cluster 0 in a two-cluster deployment.
    fn two_cluster_exec() -> Executor {
        let topo = ClusterTopology::new(2, 1).unwrap();
        let (keys, _) = KeyStore::for_topology(&topo, &[1u8; 32]);
        Executor::new(
            topo,
            ReplicaId::new(ClusterId(0), 0),
            keys,
            8,
            SimDuration::from_secs(30),
        )
    }

    /// A transaction writing one key on each of two clusters; distinct
    /// ids write distinct keys.
    fn distributed_txn(topo: &ClusterTopology, id: u64) -> Transaction {
        let key_on = |cluster| {
            (0u32..)
                .map(Key::from_u32)
                .filter(|k| topo.partition_of(k) == cluster)
                .nth(id as usize)
                .expect("every cluster owns some key")
        };
        Transaction {
            id: TxnId::new(ClientId(0), id),
            reads: vec![],
            writes: [ClusterId(0), ClusterId(1)]
                .map(|c| WriteOp {
                    key: key_on(c),
                    value: Value::from("d"),
                })
                .into(),
        }
    }

    fn local_txn(id: u64, writes: &[(u32, &str)]) -> Transaction {
        Transaction {
            id: TxnId::new(ClientId(0), id),
            reads: vec![],
            writes: writes
                .iter()
                .map(|(k, v)| WriteOp {
                    key: Key::from_u32(*k),
                    value: Value::from(*v),
                })
                .collect(),
        }
    }

    #[test]
    fn seal_then_apply_round_trips() {
        let mut exec = single_cluster_exec();
        let batch = exec.seal_batch(
            vec![local_txn(1, &[(1, "a")]), local_txn(2, &[(2, "b")])],
            vec![],
            &[],
            SimTime(100),
        );
        assert_eq!(batch.header.num, BatchNum(0));
        assert_eq!(batch.header.lce, Epoch::NONE);
        let out = exec.apply_batch(&batch);
        assert_eq!(out.local_committed.len(), 2);
        assert_eq!(exec.applied_batches(), 1);
        let (v, e) = exec.read_latest(&Key::from_u32(1));
        assert_eq!(v, Some(Value::from("a")));
        assert_eq!(e, Epoch(0));
    }

    #[test]
    fn follower_validates_leader_batch() {
        // Build on one executor, validate + apply on another.
        let mut leader = single_cluster_exec();
        let mut follower = single_cluster_exec();
        let batch = leader.seal_batch(vec![local_txn(1, &[(1, "a")])], vec![], &[], SimTime(0));
        assert!(follower
            .validate_batch(BatchNum(0), &batch, SimTime(10))
            .is_ok());
        follower.apply_batch(&batch);
        leader.apply_batch(&batch);
        assert_eq!(
            leader.tree.root_at(0),
            follower.tree.root_at(0),
            "replicas converge on the same root"
        );
    }

    #[test]
    fn validation_rejects_wrong_root() {
        let mut leader = single_cluster_exec();
        let mut follower = single_cluster_exec();
        let mut batch = leader.seal_batch(vec![local_txn(1, &[(1, "a")])], vec![], &[], SimTime(0));
        batch.header.merkle_root = Digest([0xEE; 32]);
        assert_eq!(
            follower.validate_batch(BatchNum(0), &batch, SimTime(0)),
            Err(RejectReason::BadRoot)
        );
        // Rejection rolled the speculation back: a correct batch still
        // validates afterwards.
        let mut leader2 = single_cluster_exec();
        let batch2 = leader2.seal_batch(vec![local_txn(1, &[(1, "a")])], vec![], &[], SimTime(0));
        assert!(follower
            .validate_batch(BatchNum(0), &batch2, SimTime(0))
            .is_ok());
    }

    #[test]
    fn validation_rejects_stale_timestamp() {
        let mut leader = single_cluster_exec();
        let mut follower = single_cluster_exec();
        let batch = leader.seal_batch(vec![], vec![], &[], SimTime(0));
        let too_late = SimTime(SimDuration::from_secs(31).as_micros());
        assert_eq!(
            follower.validate_batch(BatchNum(0), &batch, too_late),
            Err(RejectReason::StaleTimestamp)
        );
    }

    #[test]
    fn validation_rejects_conflicting_batch() {
        let mut follower = single_cluster_exec();
        // A batch where two txns write the same key violates Def 3.1.
        let mut leader = single_cluster_exec();
        let mut batch = leader.seal_batch(vec![local_txn(1, &[(1, "a")])], vec![], &[], SimTime(0));
        // Inject a conflicting second txn without re-sealing.
        batch.local.push(local_txn(2, &[(1, "b")]));
        assert!(matches!(
            follower.validate_batch(BatchNum(0), &batch, SimTime(0)),
            Err(RejectReason::Conflict(_))
        ));
    }

    #[test]
    fn validation_rejects_stale_reads() {
        let mut leader = single_cluster_exec();
        let mut follower = single_cluster_exec();
        // Commit batch 0 writing key 1.
        let b0 = leader.seal_batch(vec![local_txn(1, &[(1, "a")])], vec![], &[], SimTime(0));
        assert!(follower
            .validate_batch(BatchNum(0), &b0, SimTime(0))
            .is_ok());
        leader.apply_batch(&b0);
        follower.apply_batch(&b0);
        // A txn that read key 1 at version NONE is now stale.
        let stale = Transaction {
            id: TxnId::new(ClientId(0), 9),
            reads: vec![ReadOp {
                key: Key::from_u32(1),
                version: Epoch::NONE,
            }],
            writes: vec![WriteOp {
                key: Key::from_u32(5),
                value: Value::from("x"),
            }],
        };
        let b1 = leader.seal_batch(vec![stale], vec![], &[], SimTime(0));
        assert!(matches!(
            follower.validate_batch(BatchNum(1), &b1, SimTime(0)),
            Err(RejectReason::Conflict(_))
        ));
    }

    #[test]
    fn validation_rejects_a_remote_prepare_without_its_coordinators_record() {
        let mut leader = two_cluster_exec();
        let mut follower = two_cluster_exec();
        // Cluster 1 coordinates, so cluster 0 may prepare the
        // transaction only on cluster 1's signed prepare.
        let prepared = PreparedTxn {
            txn: distributed_txn(&leader.topo, 1),
            coordinator: ClusterId(1),
            coordinator_prepare: None,
        };
        let batch = leader.seal_batch(vec![], vec![prepared], &[], SimTime(0));
        assert!(matches!(
            follower.validate_batch(BatchNum(0), &batch, SimTime(0)),
            Err(RejectReason::BadEvidence(_))
        ));
    }

    #[test]
    fn validation_rejects_a_commit_without_every_participants_prepare() {
        let mut leader = two_cluster_exec();
        let mut follower = two_cluster_exec();
        // Batch 0 prepares a transaction cluster 0 coordinates.
        let txn = distributed_txn(&leader.topo, 1);
        let prepared = PreparedTxn {
            txn: txn.clone(),
            coordinator: ClusterId(0),
            coordinator_prepare: None,
        };
        let b0 = leader.seal_batch(vec![], vec![prepared], &[], SimTime(0));
        assert!(follower
            .validate_batch(BatchNum(0), &b0, SimTime(0))
            .is_ok());
        leader.apply_batch(&b0);
        follower.apply_batch(&b0);
        // Batch 1 commits it without cluster 1's prepared record.
        let record = CommitRecord {
            txn_id: txn.id,
            prepared_in: BatchNum(0),
            outcome: Outcome::Committed,
            prepared: vec![],
        };
        let b1 = leader.seal_batch(vec![], vec![], &[record], SimTime(0));
        assert_eq!(b1.committed.len(), 1, "the record drains into batch 1");
        assert!(matches!(
            follower.validate_batch(BatchNum(1), &b1, SimTime(0)),
            Err(RejectReason::BadEvidence(_))
        ));
    }

    /// `follower` rejects `tampered` for `reason`, and still validates
    /// `honest` afterwards: the rejection left no speculation behind.
    fn rejects_then_accepts(
        follower: &mut Executor,
        tampered: &Batch,
        honest: &Batch,
        reason: impl Fn(&RejectReason) -> bool,
    ) {
        let slot = honest.header.num;
        let got = follower.validate_batch(slot, tampered, SimTime(0));
        assert!(matches!(&got, Err(r) if reason(r)), "got {got:?}");
        assert_eq!(follower.validate_batch(slot, honest, SimTime(0)), Ok(()));
    }

    /// A single-cluster leader's honest batch 0 writing key 1, and a
    /// fresh follower to check it.
    fn sealed_local_batch() -> (Batch, Executor) {
        let mut leader = single_cluster_exec();
        let batch = leader.seal_batch(vec![local_txn(1, &[(1, "a")])], vec![], &[], SimTime(0));
        (batch, single_cluster_exec())
    }

    /// A leader and a follower of cluster 0 that applied one batch per
    /// entry of `groups`, each 2PC-preparing those transactions (which
    /// cluster 0 coordinates): one prepare group per batch.
    fn prepared_in_groups(groups: &[&[u64]]) -> (Executor, Executor) {
        let mut leader = two_cluster_exec();
        let mut follower = two_cluster_exec();
        for (num, ids) in groups.iter().enumerate() {
            let prepared = ids
                .iter()
                .map(|id| PreparedTxn {
                    txn: distributed_txn(&leader.topo, *id),
                    coordinator: ClusterId(0),
                    coordinator_prepare: None,
                })
                .collect();
            let batch = leader.seal_batch(vec![], prepared, &[], SimTime(0));
            assert_eq!(
                follower.validate_batch(BatchNum(num as u64), &batch, SimTime(0)),
                Ok(())
            );
            leader.apply_batch(&batch);
            follower.apply_batch(&batch);
        }
        (leader, follower)
    }

    /// The abort of transaction `id`, prepared in batch `prepared_in`:
    /// an outcome that needs no prepared record as evidence.
    fn abort(id: u64, prepared_in: u64) -> CommitRecord {
        CommitRecord {
            txn_id: TxnId::new(ClientId(0), id),
            prepared_in: BatchNum(prepared_in),
            outcome: Outcome::Aborted,
            prepared: vec![],
        }
    }

    #[test]
    fn validation_rejects_a_wrong_lce() {
        let (honest, mut follower) = sealed_local_batch();
        let mut batch = honest.clone();
        batch.header.lce = Epoch(0);
        rejects_then_accepts(&mut follower, &batch, &honest, |r| {
            *r == RejectReason::BadLce
        });
    }

    #[test]
    fn validation_rejects_a_wrong_cd_entry() {
        // The own entry is the batch number, a shape check; another
        // partition's entry is what Algorithm 1 derives.
        let honest = two_cluster_exec().seal_batch(vec![], vec![], &[], SimTime(0));
        let mut follower = two_cluster_exec();
        let mut batch = honest.clone();
        batch.header.cd.set(ClusterId(1), Epoch(7));
        rejects_then_accepts(&mut follower, &batch, &honest, |r| {
            *r == RejectReason::BadCd
        });
    }

    #[test]
    fn validation_rejects_a_wrong_delta_digest() {
        let (honest, mut follower) = sealed_local_batch();
        let mut batch = honest.clone();
        batch.header.delta_digest = Digest([0xDD; 32]);
        rejects_then_accepts(&mut follower, &batch, &honest, |r| {
            *r == RejectReason::BadDelta
        });
    }

    #[test]
    fn validation_rejects_a_committed_segment_missing_a_record() {
        // One prepare group of two; both outcomes are known, so the
        // group drains whole and a segment naming one record is a lie.
        let (mut leader, mut follower) = prepared_in_groups(&[&[1, 2]]);
        let honest = leader.seal_batch(vec![], vec![], &[abort(1, 0), abort(2, 0)], SimTime(0));
        assert_eq!(honest.committed.len(), 2);
        let mut batch = honest.clone();
        batch.committed.pop();
        rejects_then_accepts(&mut follower, &batch, &honest, |r| {
            matches!(r, RejectReason::BadDrain(_))
        });
    }

    #[test]
    fn validation_rejects_a_record_whose_group_cannot_drain_yet() {
        // Two prepare groups, both resolved: only the older drains in
        // this batch (Definition 4.1), so a segment carrying the newer
        // group's record instead is a lie.
        let (mut leader, mut follower) = prepared_in_groups(&[&[1], &[2]]);
        let honest = leader.seal_batch(vec![], vec![], &[abort(1, 0), abort(2, 1)], SimTime(0));
        assert_eq!(honest.committed, vec![abort(1, 0)]);
        let mut batch = honest.clone();
        batch.committed = vec![abort(2, 1)];
        rejects_then_accepts(&mut follower, &batch, &honest, |r| {
            matches!(r, RejectReason::BadDrain(_))
        });
    }

    #[test]
    fn rot_serving_with_proofs() {
        use transedge_crypto::merkle::Verified;
        use transedge_crypto::verify_multi_proof;
        use transedge_edge::{multi_snapshot, SnapshotSource as _};
        // A served body leaves out the entry of each value it carries;
        // the tree's own multiproof still holds it.
        let mut exec = single_cluster_exec();
        let b0 = exec.seal_batch(vec![local_txn(1, &[(1, "a")])], vec![], &[], SimTime(0));
        exec.apply_batch(&b0);
        let b1 = exec.seal_batch(vec![local_txn(2, &[(1, "b")])], vec![], &[], SimTime(0));
        exec.apply_batch(&b1);
        // Serve at batch 0: old value with a valid proof against root 0.
        let keys = [Key::from_u32(1)];
        let body = multi_snapshot(&exec, &keys, BatchNum(0));
        assert_eq!(body.values(), [Some(Value::from("a"))]);
        assert!(body.proof().buckets.iter().all(|b| b.entries.is_empty()));
        let proof = exec.prove_multi(&keys, BatchNum(0));
        let got = verify_multi_proof(&b0.header.merkle_root, 8, &keys, &proof).unwrap();
        assert_eq!(got, [Verified::Present(value_digest(&Value::from("a")))]);
        // Serve at batch 1: new value against root 1.
        let body = multi_snapshot(&exec, &keys, BatchNum(1));
        assert_eq!(body.values(), [Some(Value::from("b"))]);
        let proof = exec.prove_multi(&keys, BatchNum(1));
        let got = verify_multi_proof(&b1.header.merkle_root, 8, &keys, &proof).unwrap();
        assert_eq!(got, [Verified::Present(value_digest(&Value::from("b")))]);
    }

    #[test]
    fn rollback_speculation_restores_tree() {
        let mut exec = single_cluster_exec();
        let b0 = exec.seal_batch(vec![local_txn(1, &[(1, "a")])], vec![], &[], SimTime(0));
        exec.apply_batch(&b0);
        let root0 = exec.tree.root_at(0);
        // Seal (speculate) batch 1 then abandon it.
        let _b1 = exec.seal_batch(vec![local_txn(2, &[(2, "x")])], vec![], &[], SimTime(0));
        exec.rollback_speculation();
        assert_eq!(exec.tree.latest_version(), Some(0));
        assert_eq!(exec.tree.root_at(0), root0);
        // Sealing again works.
        let b1 = exec.seal_batch(vec![local_txn(3, &[(2, "y")])], vec![], &[], SimTime(0));
        exec.apply_batch(&b1);
        assert_eq!(exec.applied_batches(), 2);
    }

    #[test]
    fn empty_batches_advance_the_log() {
        let mut exec = single_cluster_exec();
        let batches: Vec<Batch> = (0..3)
            .map(|i| {
                let b = exec.seal_batch(vec![], vec![], &[], SimTime(i));
                exec.apply_batch(&b);
                b
            })
            .collect();
        assert_eq!(exec.applied_batches(), 3);
        assert_eq!(batches[2].header.num, BatchNum(2));
        assert_eq!(batches[2].header.lce, Epoch::NONE);
    }
}
