//! OCC conflict detection — Definition 3.1.
//!
//! A transaction `t` may enter the in-progress batch only if it does
//! not conflict with
//!
//! 1. **previous batches** — no read in `t`'s read-set has been
//!    overwritten by a transaction committed in an earlier batch;
//! 2. **the in-progress batch** — no transaction already placed in the
//!    local / prepared / committed segments conflicts with `t`;
//! 3. **prepared-but-uncommitted transactions** — no transaction in the
//!    prepared-batches structure conflicts with `t`.
//!
//! Conflicts are the classic rw / wr / ww intersections (§3.6). The
//! checker keeps incremental read/write footprints so each admission
//! test costs O(|t|) hash probes, which matters at the paper's batch
//! sizes (up to 3 500 transactions per batch).

use std::collections::HashSet;

use transedge_common::{ClusterId, ClusterTopology, Epoch, Key};
use transedge_edge::VersionedStore;

use crate::batch::Transaction;

/// Why a transaction was rejected (also used for abort statistics).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConflictReason {
    /// Rule 1: a read has been overwritten by a committed batch.
    StaleRead {
        key: Key,
        read: Epoch,
        committed: Epoch,
    },
    /// Rule 2: conflicts with a transaction already in the in-progress
    /// batch.
    InProgressBatch,
    /// Rule 3: conflicts with a prepared-but-uncommitted transaction.
    PreparedTxn,
}

/// Incremental footprint of a set of admitted transactions.
#[derive(Clone, Debug, Default)]
pub struct Footprint {
    reads: HashSet<Key>,
    writes: HashSet<Key>,
}

impl Footprint {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a transaction's operations on `cluster` (or all operations
    /// if `cluster` is `None`).
    pub fn absorb(
        &mut self,
        txn: &Transaction,
        topo: &ClusterTopology,
        cluster: Option<ClusterId>,
    ) {
        for r in &txn.reads {
            if cluster.is_none_or(|c| topo.partition_of(&r.key) == c) {
                self.reads.insert(r.key.clone());
            }
        }
        for w in &txn.writes {
            if cluster.is_none_or(|c| topo.partition_of(&w.key) == c) {
                self.writes.insert(w.key.clone());
            }
        }
    }

    /// Remove is not supported: footprints are rebuilt when their
    /// backing set changes (batch seal / group commit), which is cheap
    /// relative to per-txn admission.
    pub fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
    }

    /// rw / wr / ww intersection test against this footprint, restricted
    /// to `cluster`'s keys when given.
    pub fn conflicts_with(
        &self,
        txn: &Transaction,
        topo: &ClusterTopology,
        cluster: Option<ClusterId>,
    ) -> bool {
        for w in &txn.writes {
            if cluster.is_none_or(|c| topo.partition_of(&w.key) == c)
                && (self.writes.contains(&w.key) || self.reads.contains(&w.key))
            {
                return true;
            }
        }
        for r in &txn.reads {
            if cluster.is_none_or(|c| topo.partition_of(&r.key) == c)
                && self.writes.contains(&r.key)
            {
                return true;
            }
        }
        false
    }

    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }

    pub fn len(&self) -> usize {
        self.reads.len() + self.writes.len()
    }
}

/// Rule 1: validate the read-set against the committed store.
/// `cluster` restricts the check to the keys this partition owns (each
/// partition checks only its own keys; remote keys are checked by the
/// remote partitions during their prepare).
pub fn check_reads_current(
    txn: &Transaction,
    store: &VersionedStore,
    topo: &ClusterTopology,
    cluster: ClusterId,
) -> Result<(), ConflictReason> {
    for r in txn.reads_on(topo, cluster) {
        let committed: Epoch = store
            .last_writer(&r.key)
            .map(Into::into)
            .unwrap_or(Epoch::NONE);
        if committed != r.version {
            return Err(ConflictReason::StaleRead {
                key: r.key.clone(),
                read: r.version,
                committed,
            });
        }
    }
    Ok(())
}

/// The full Definition 3.1 admission check for one partition.
pub fn admit(
    txn: &Transaction,
    store: &VersionedStore,
    in_progress: &Footprint,
    prepared: &Footprint,
    topo: &ClusterTopology,
    cluster: ClusterId,
) -> Result<(), ConflictReason> {
    check_reads_current(txn, store, topo, cluster)?;
    if in_progress.conflicts_with(txn, topo, Some(cluster)) {
        return Err(ConflictReason::InProgressBatch);
    }
    if prepared.conflicts_with(txn, topo, Some(cluster)) {
        return Err(ConflictReason::PreparedTxn);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{ReadOp, WriteOp};
    use transedge_common::{BatchNum, ClientId, TxnId, Value};

    /// Single-cluster topology so every key is local.
    fn topo() -> ClusterTopology {
        ClusterTopology::new(1, 1).unwrap()
    }

    fn c0() -> ClusterId {
        ClusterId(0)
    }

    fn txn(id: u64, reads: &[(u32, i64)], writes: &[u32]) -> Transaction {
        Transaction {
            id: TxnId::new(ClientId(0), id),
            reads: reads
                .iter()
                .map(|(k, v)| ReadOp {
                    key: Key::from_u32(*k),
                    version: Epoch(*v),
                })
                .collect(),
            writes: writes
                .iter()
                .map(|k| WriteOp {
                    key: Key::from_u32(*k),
                    value: Value::from("w"),
                })
                .collect(),
        }
    }

    #[test]
    fn fresh_reads_pass_rule_one() {
        let mut store = VersionedStore::new();
        store.write(Key::from_u32(1), Value::from("a"), BatchNum(3));
        let t = txn(1, &[(1, 3)], &[]);
        assert!(check_reads_current(&t, &store, &topo(), c0()).is_ok());
    }

    #[test]
    fn overwritten_read_fails_rule_one() {
        let mut store = VersionedStore::new();
        store.write(Key::from_u32(1), Value::from("a"), BatchNum(3));
        store.write(Key::from_u32(1), Value::from("b"), BatchNum(5));
        let t = txn(1, &[(1, 3)], &[]);
        let err = check_reads_current(&t, &store, &topo(), c0()).unwrap_err();
        assert!(matches!(err, ConflictReason::StaleRead { .. }));
    }

    #[test]
    fn read_of_missing_key_uses_none_version() {
        let store = VersionedStore::new();
        let t = txn(1, &[(9, -1)], &[]);
        assert!(check_reads_current(&t, &store, &topo(), c0()).is_ok());
        // If someone has since created the key, the NONE read is stale.
        let mut store2 = VersionedStore::new();
        store2.write(Key::from_u32(9), Value::from("x"), BatchNum(0));
        assert!(check_reads_current(&t, &store2, &topo(), c0()).is_err());
    }

    #[test]
    fn footprint_detects_ww() {
        let mut fp = Footprint::new();
        fp.absorb(&txn(1, &[], &[5]), &topo(), None);
        assert!(fp.conflicts_with(&txn(2, &[], &[5]), &topo(), None));
        assert!(!fp.conflicts_with(&txn(3, &[], &[6]), &topo(), None));
    }

    #[test]
    fn footprint_detects_rw_and_wr() {
        let mut fp = Footprint::new();
        fp.absorb(&txn(1, &[(5, -1)], &[7]), &topo(), None);
        // write where fp read → rw conflict
        assert!(fp.conflicts_with(&txn(2, &[], &[5]), &topo(), None));
        // read where fp wrote → wr conflict
        assert!(fp.conflicts_with(&txn(3, &[(7, -1)], &[]), &topo(), None));
        // read where fp read → no conflict
        assert!(!fp.conflicts_with(&txn(4, &[(5, -1)], &[]), &topo(), None));
    }

    #[test]
    fn admit_combines_all_three_rules() {
        let mut store = VersionedStore::new();
        store.write(Key::from_u32(1), Value::from("a"), BatchNum(0));
        let mut in_progress = Footprint::new();
        let mut prepared = Footprint::new();
        let tp = topo();

        // Admissible transaction.
        let t1 = txn(1, &[(1, 0)], &[2]);
        assert!(admit(&t1, &store, &in_progress, &prepared, &tp, c0()).is_ok());
        in_progress.absorb(&t1, &tp, Some(c0()));

        // Conflicts with in-progress (writes same key 2).
        let t2 = txn(2, &[], &[2]);
        assert_eq!(
            admit(&t2, &store, &in_progress, &prepared, &tp, c0()).unwrap_err(),
            ConflictReason::InProgressBatch
        );

        // Conflicts with prepared.
        prepared.absorb(&txn(3, &[], &[4]), &tp, Some(c0()));
        let t4 = txn(4, &[(4, -1)], &[]);
        assert_eq!(
            admit(&t4, &store, &in_progress, &prepared, &tp, c0()).unwrap_err(),
            ConflictReason::PreparedTxn
        );

        // Stale read loses to rule 1 before anything else.
        let t5 = txn(5, &[(1, -1)], &[]);
        assert!(matches!(
            admit(&t5, &store, &in_progress, &prepared, &tp, c0()).unwrap_err(),
            ConflictReason::StaleRead { .. }
        ));
    }

    #[test]
    fn non_conflicting_batch_fills_up() {
        // Simulates batch construction: disjoint transactions all admit.
        let store = VersionedStore::new();
        let mut in_progress = Footprint::new();
        let prepared = Footprint::new();
        let tp = topo();
        for i in 0..100u32 {
            let t = txn(i as u64, &[(i * 2, -1)], &[i * 2 + 1]);
            assert!(admit(&t, &store, &in_progress, &prepared, &tp, c0()).is_ok());
            in_progress.absorb(&t, &tp, Some(c0()));
        }
        assert_eq!(in_progress.len(), 200);
    }
}
