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
use transedge_storage::VersionedStore;

use crate::batch::{check_batch_shape, Batch, BatchHeader, CdVector, PreparedTxn, Transaction};
use crate::conflict::{admit, Footprint};
use crate::deps::{derive_cd_vector, LceIndex};
use crate::prepared::PreparedBatches;
use crate::records::{CommitEvidence, CommitRecord, Outcome};

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

/// The batch's changed key set: local writes plus drained-*Committed*
/// writes restricted to `cluster`, sorted and deduplicated — exactly
/// the updates [`Executor::seal_batch`]'s root speculation applies, in
/// the canonical form [`transedge_edge::changed_keys_digest`] hashes.
/// Leaders, followers, and the publish path all derive the changed set
/// through this one function so they can never disagree.
pub fn changed_keys(
    topo: &ClusterTopology,
    cluster: ClusterId,
    local: &[Transaction],
    drained: &[(Transaction, CommitRecord)],
) -> Vec<Key> {
    let mut keys: Vec<Key> = local
        .iter()
        .flat_map(|t| t.writes_on(topo, cluster))
        .map(|w| w.key.clone())
        .chain(
            drained
                .iter()
                .filter(|(_, r)| r.outcome == Outcome::Committed)
                .flat_map(|(t, _)| t.writes_on(topo, cluster))
                .map(|w| w.key.clone()),
        )
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
    /// LCE → earliest batch lookup for ROT round two.
    pub lce_index: LceIndex,
    /// Per-batch CD vectors (index = batch number).
    cd_history: Vec<CdVector>,
    /// Per-batch LCE (index = batch number).
    lce_history: Vec<Epoch>,
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
            lce_index: LceIndex::new(),
            cd_history: Vec::new(),
            lce_history: Vec::new(),
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

    fn prev_cd(&self) -> CdVector {
        self.cd_history
            .last()
            .cloned()
            .unwrap_or_else(|| CdVector::new(self.topo.n_clusters()))
    }

    fn prev_lce(&self) -> Epoch {
        self.lce_history.last().copied().unwrap_or(Epoch::NONE)
    }

    /// CD vector of a given batch (ROT round-two serving, prepared-vote
    /// piggybacking).
    pub fn cd_of(&self, batch: BatchNum) -> Option<&CdVector> {
        self.cd_history.get(batch.0 as usize)
    }

    pub fn lce_of(&self, batch: BatchNum) -> Option<Epoch> {
        self.lce_history.get(batch.0 as usize).copied()
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

    /// Load initial data as batch 0 without a consensus round. All
    /// replicas of a cluster call this with the same data and timestamp
    /// and arrive at a byte-identical genesis batch; the deployment
    /// builder assembles its certificate from the replica keys it
    /// already holds.
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
        self.cd_history.push(cd);
        self.lce_history.push(Epoch::NONE);
        self.lce_index.push(BatchNum(0), Epoch::NONE);
        self.applied = 1;
        Batch {
            header,
            local: Vec::new(),
            prepared: Vec::new(),
            committed: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Leader path: building a batch
    // ------------------------------------------------------------------

    /// Assemble and speculatively apply the next batch from admitted
    /// transactions. The caller (leader) has already run admission
    /// control ([`crate::conflict::admit`]) on every transaction.
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
        // Simulate the drain to learn which records land in this batch
        // and the resulting LCE.
        let (drained, lce_step) = {
            let mut pb = self.prepared_batches.clone();
            for r in resolutions {
                pb.resolve(r.clone());
            }
            pb.drain_ready()
        };
        // Only the records whose groups actually drain enter this
        // batch's committed segment; the caller keeps the rest pending
        // (Definition 4.1 may hold them behind an unresolved group).
        let committed: Vec<CommitRecord> = drained.iter().map(|(_, r)| r.clone()).collect();
        let lce = lce_step.unwrap_or(self.prev_lce());
        let cd = derive_cd_vector(&self.prev_cd(), self.cluster, num, &committed);
        // Merkle: local writes + writes of committed (not aborted)
        // drained transactions, restricted to this partition.
        let changed = changed_keys(&self.topo, self.cluster, &local, &drained);
        let root = self.speculate_root(num, &local, &drained);
        let header = BatchHeader {
            cluster: self.cluster,
            num,
            cd,
            lce,
            merkle_root: root,
            delta_digest: transedge_edge::changed_keys_digest(&changed),
            timestamp: now,
        };
        let batch = Batch {
            header,
            local,
            prepared,
            committed,
        };
        self.spec = Some((num, Batch::digest(&batch)));
        batch
    }

    fn speculate_root(
        &mut self,
        num: BatchNum,
        local: &[Transaction],
        drained: &[(Transaction, CommitRecord)],
    ) -> Digest {
        let mut updates: Vec<(&Key, Digest)> = Vec::new();
        for t in local {
            for w in t.writes_on(&self.topo, self.cluster) {
                updates.push((&w.key, value_digest(&w.value)));
            }
        }
        for (t, r) in drained {
            if r.outcome == Outcome::Committed {
                for w in t.writes_on(&self.topo, self.cluster) {
                    updates.push((&w.key, value_digest(&w.value)));
                }
            }
        }
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
                    if sp.cluster != p.coordinator || sp.txn != p.txn.id {
                        return Err(RejectReason::BadEvidence(format!(
                            "coordinator prepare mismatch for {}",
                            p.txn.id
                        )));
                    }
                    if sp
                        .verify(&self.keys, self.topo.certificate_quorum())
                        .is_err()
                    {
                        return Err(RejectReason::BadEvidence(format!(
                            "bad coordinator prepare for {}",
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
        // Drain simulation must reproduce the committed segment and LCE
        // exactly (this enforces the Definition 4.1 ordering).
        let (drained, lce_step) = {
            let mut pb = self.prepared_batches.clone();
            for r in &batch.committed {
                if !pb.resolve(r.clone()) && pb.get_waiting(r.prepared_in, r.txn_id).is_none() {
                    return Err(RejectReason::BadDrain(format!(
                        "{} is not pending in group {}",
                        r.txn_id, r.prepared_in
                    )));
                }
            }
            pb.drain_ready()
        };
        if drained.len() != batch.committed.len() {
            return Err(RejectReason::BadDrain(format!(
                "committed segment has {} records but drain yields {}",
                batch.committed.len(),
                drained.len()
            )));
        }
        let expected_lce = lce_step.unwrap_or(self.prev_lce());
        if batch.header.lce != expected_lce {
            return Err(RejectReason::BadLce);
        }
        // CD vector (Algorithm 1).
        let expected_cd = derive_cd_vector(&self.prev_cd(), self.cluster, slot, &batch.committed);
        if batch.header.cd != expected_cd {
            return Err(RejectReason::BadCd);
        }
        // Delta digest over the changed key set: certified alongside
        // the root, so a certificate is a vouch for *what changed* too.
        let changed = changed_keys(&self.topo, self.cluster, &batch.local, &drained);
        if batch.header.delta_digest != transedge_edge::changed_keys_digest(&changed) {
            return Err(RejectReason::BadDelta);
        }
        // Merkle root, speculatively applied.
        let root = self.speculate_root(slot, &batch.local, &drained);
        if root != batch.header.merkle_root {
            self.tree.rollback(slot.0);
            return Err(RejectReason::BadRoot);
        }
        self.spec = Some((slot, Batch::digest(batch)));
        Ok(())
    }

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
        let cert_quorum = self.topo.certificate_quorum();
        match &record.evidence {
            CommitEvidence::CoordinatorDecision { prepared } => {
                for sp in prepared {
                    if sp.txn != record.txn_id {
                        return Err(RejectReason::BadEvidence("wrong txn in evidence".into()));
                    }
                    if sp.verify(&self.keys, cert_quorum).is_err() {
                        return Err(RejectReason::BadEvidence(format!(
                            "invalid prepared record from {}",
                            sp.cluster
                        )));
                    }
                }
                if record.outcome == Outcome::Committed {
                    // Every remote participant must have voted yes.
                    let mut needed: Vec<ClusterId> = txn
                        .partitions(&self.topo)
                        .into_iter()
                        .filter(|c| *c != self.cluster)
                        .collect();
                    needed.retain(|c| !prepared.iter().any(|sp| sp.cluster == *c));
                    if !needed.is_empty() {
                        return Err(RejectReason::BadEvidence(format!(
                            "missing prepared records from {needed:?}"
                        )));
                    }
                }
            }
            CommitEvidence::RemoteDecision { commit } => {
                if commit.txn != record.txn_id || commit.outcome != record.outcome {
                    return Err(RejectReason::BadEvidence("commit record mismatch".into()));
                }
                if commit.verify(&self.keys, cert_quorum).is_err() {
                    return Err(RejectReason::BadEvidence(format!(
                        "invalid commit record from {}",
                        commit.coordinator
                    )));
                }
                // It must name us as a participant at the right batch.
                let ours = commit
                    .participants
                    .iter()
                    .find(|(c, _, _)| *c == self.cluster);
                match ours {
                    Some((_, b, _)) if *b == record.prepared_in => {}
                    _ => {
                        return Err(RejectReason::BadEvidence(
                            "commit record names wrong prepare batch for us".into(),
                        ))
                    }
                }
            }
        }
        Ok(())
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
        // transfer).
        match self.spec.take() {
            Some((snum, digest)) if snum == num && digest == Batch::digest(batch) => {}
            Some((snum, _)) => {
                // A different speculation is in the tree — discard it
                // and apply the decided batch.
                self.tree.rollback(snum.0);
                self.speculate_root(num, &batch.local, &drained);
            }
            None => {
                self.speculate_root(num, &batch.local, &drained);
            }
        }
        // Committed store writes (this partition's keys only).
        for t in &batch.local {
            for w in t.writes_on(&self.topo, self.cluster) {
                self.store.write(w.key.clone(), w.value.clone(), num);
            }
        }
        for (t, r) in &drained {
            if r.outcome == Outcome::Committed {
                for w in t.writes_on(&self.topo, self.cluster) {
                    self.store.write(w.key.clone(), w.value.clone(), num);
                }
            }
        }
        // Register the new prepare group.
        self.prepared_batches
            .add_group(num, batch.prepared.iter().map(|p| p.txn.clone()));
        // Read-only bookkeeping.
        let lce = lce_step.unwrap_or(self.prev_lce());
        debug_assert_eq!(lce, batch.header.lce);
        self.cd_history.push(batch.header.cd.clone());
        self.lce_history.push(lce);
        self.lce_index.push(num, lce);
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
        self.store.read_at(key, batch).map(|v| v.value.clone())
    }

    fn prove_at(&self, key: &Key, batch: BatchNum) -> transedge_crypto::MerkleProof {
        self.tree.prove_at(key, batch.0)
    }

    fn rows_at(
        &self,
        range: &transedge_crypto::ScanRange,
        batch: BatchNum,
    ) -> Vec<(Key, transedge_common::Value)> {
        // The store's tree-order index narrows straight to the window —
        // O(log keys + rows), not an O(keys) cut walk.
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
        let good = leader.seal_batch(vec![], vec![], &[], SimTime(0)); // rebuilt below
        let _ = good;
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
    fn rot_serving_with_proofs() {
        use transedge_crypto::merkle::Verified;
        use transedge_crypto::verify_multi_proof;
        use transedge_edge::multi_snapshot;
        let mut exec = single_cluster_exec();
        let b0 = exec.seal_batch(vec![local_txn(1, &[(1, "a")])], vec![], &[], SimTime(0));
        exec.apply_batch(&b0);
        let b1 = exec.seal_batch(vec![local_txn(2, &[(1, "b")])], vec![], &[], SimTime(0));
        exec.apply_batch(&b1);
        // Serve at batch 0: old value with a valid proof against root 0.
        let body = multi_snapshot(&exec, &[Key::from_u32(1)], BatchNum(0));
        assert_eq!(body.values(), [Some(Value::from("a"))]);
        let got = verify_multi_proof(&b0.header.merkle_root, 8, body.keys(), body.proof()).unwrap();
        assert_eq!(got, [Verified::Present(value_digest(&Value::from("a")))]);
        // Serve at batch 1: new value against root 1.
        let body = multi_snapshot(&exec, &[Key::from_u32(1)], BatchNum(1));
        assert_eq!(body.values(), [Some(Value::from("b"))]);
        assert!(verify_multi_proof(&b1.header.merkle_root, 8, body.keys(), body.proof()).is_ok());
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
        for i in 0..3 {
            let b = exec.seal_batch(vec![], vec![], &[], SimTime(i));
            exec.apply_batch(&b);
        }
        assert_eq!(exec.applied_batches(), 3);
        assert_eq!(exec.lce_of(BatchNum(2)), Some(Epoch::NONE));
    }
}
