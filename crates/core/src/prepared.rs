//! The *prepared batches* structure, prepare groups, and the ordering
//! constraint of Definition 4.1.
//!
//! Distributed transactions that 2PC-prepare in batch `i` form the
//! *prepare group* of batch `i`. The ordering constraint forces prepare
//! groups to resolve (commit **and be drained into a committed
//! segment**) strictly in prepare-batch order: the group of batch `i`
//! drains before the group of batch `j` for `i < j`. This is what makes
//! a *single number per partition* (the CD-vector entry / the LCE)
//! sufficient to describe cross-partition dependencies (§4.3.3a).
//!
//! Local transactions are *not* constrained: batches containing only
//! local transactions commit freely while groups wait (§4.3.2,
//! challenge 2).

use std::collections::BTreeMap;

use transedge_common::{BatchNum, Epoch, TxnId};

use crate::batch::Transaction;
use crate::records::CommitRecord;

/// State of one transaction inside a prepare group.
#[derive(Clone, Debug)]
pub enum PendingState {
    /// Waiting for the 2PC outcome.
    Waiting,
    /// Outcome known; record ready to be drained.
    Resolved(CommitRecord),
}

/// One prepare group: every distributed transaction whose prepare
/// record is in batch `prepared_in`.
#[derive(Clone, Debug)]
pub struct PrepareGroup {
    pub prepared_in: BatchNum,
    /// txn id → (full transaction, state). The transaction is kept so
    /// the drain can apply write-sets without re-reading old batches.
    pub txns: BTreeMap<TxnId, (Transaction, PendingState)>,
}

impl PrepareGroup {
    fn is_ready(&self) -> bool {
        self.txns
            .values()
            .all(|(_, s)| matches!(s, PendingState::Resolved(_)))
    }
}

/// The leader's (and every replica's — the structure is deterministic)
/// prepared-batches bookkeeping (Figure 2, right side).
#[derive(Clone, Debug, Default)]
pub struct PreparedBatches {
    groups: BTreeMap<u64, PrepareGroup>,
}

impl PreparedBatches {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the prepare group of a freshly written batch. No-op for
    /// an empty transaction list.
    pub fn add_group(
        &mut self,
        prepared_in: BatchNum,
        txns: impl IntoIterator<Item = Transaction>,
    ) {
        let mut map = BTreeMap::new();
        for t in txns {
            map.insert(t.id, (t, PendingState::Waiting));
        }
        if map.is_empty() {
            return;
        }
        let prev = self.groups.insert(
            prepared_in.0,
            PrepareGroup {
                prepared_in,
                txns: map,
            },
        );
        debug_assert!(prev.is_none(), "duplicate prepare group {prepared_in}");
    }

    /// Record a 2PC outcome. Returns `false` if the transaction is not
    /// pending here (duplicate delivery — idempotent).
    pub fn resolve(&mut self, record: CommitRecord) -> bool {
        let Some(group) = self.groups.get_mut(&record.prepared_in.0) else {
            return false;
        };
        let Some((_, state)) = group.txns.get_mut(&record.txn_id) else {
            return false;
        };
        if matches!(state, PendingState::Resolved(_)) {
            return false;
        }
        *state = PendingState::Resolved(record);
        true
    }

    /// Definition 4.1 drain: pop the *oldest* prepare group if (and
    /// only if) it is fully resolved. At most **one** group drains per
    /// call — one per batch, exactly as in the paper's Figure 2 — so
    /// the LCE advances one prepare-epoch at a time. (An earlier
    /// version drained every consecutive ready group into one batch;
    /// that let the LCE jump past a requested dependency epoch.) Even
    /// one group at a time, Theorem 4.6's two-round bound fails: the
    /// group drains as a unit, and the reported CD vectors of its
    /// commit records name prepares at other partitions that sit in
    /// later groups there, so the first batch whose LCE meets a
    /// round-two floor can name an epoch past an LCE the client
    /// already holds (`deps::tests::round_two_imports_a_dependency_past_a_held_lce`).
    /// A ROT can need a third round; the replica serving the round-two
    /// answer chases that dependency straight on (`edge::Chase`). The
    /// ledger is ROADMAP.md, *Deviation ledger*.
    ///
    /// Returns the drained records (with their transactions) and the
    /// new LCE (the drained group's prepare-batch number).
    pub fn drain_ready(&mut self) -> (Vec<(Transaction, CommitRecord)>, Option<Epoch>) {
        let mut drained = Vec::new();
        let mut lce = None;
        if let Some((&first_key, group)) = self.groups.iter().next() {
            if group.is_ready() {
                let group = self.groups.remove(&first_key).unwrap();
                lce = Some(group.prepared_in.as_epoch());
                for (_, (txn, state)) in group.txns {
                    match state {
                        PendingState::Resolved(record) => drained.push((txn, record)),
                        PendingState::Waiting => unreachable!("group checked ready"),
                    }
                }
            }
        }
        (drained, lce)
    }

    /// Rule 3 of Definition 3.1 needs the footprints of every pending
    /// transaction.
    pub fn pending_txns(&self) -> impl Iterator<Item = &Transaction> {
        self.groups.values().flat_map(|g| {
            g.txns
                .values()
                .filter(|(_, s)| matches!(s, PendingState::Waiting))
                .map(|(t, _)| t)
        })
    }

    /// Look up a pending transaction (participants re-sending prepared
    /// votes after a view change need this).
    pub fn get_waiting(&self, prepared_in: BatchNum, txn: TxnId) -> Option<&Transaction> {
        let group = self.groups.get(&prepared_in.0)?;
        let (t, state) = group.txns.get(&txn)?;
        matches!(state, PendingState::Waiting).then_some(t)
    }

    /// Find a waiting transaction by id across all groups (used when a
    /// coordinator's outcome arrives — it does not carry our local
    /// prepare-batch number).
    pub fn find_waiting(&self, txn: TxnId) -> Option<(BatchNum, &Transaction)> {
        self.groups.values().find_map(|g| {
            let (t, state) = g.txns.get(&txn)?;
            matches!(state, PendingState::Waiting).then_some((g.prepared_in, t))
        })
    }

    /// Every (prepare-batch, txn) still waiting for an outcome.
    pub fn waiting_entries(&self) -> impl Iterator<Item = (BatchNum, &Transaction)> {
        self.groups.values().flat_map(|g| {
            g.txns
                .values()
                .filter(|(_, s)| matches!(s, PendingState::Waiting))
                .map(move |(t, _)| (g.prepared_in, t))
        })
    }

    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::Outcome;
    use transedge_common::ClientId;

    fn txn(id: u64) -> Transaction {
        Transaction {
            id: TxnId::new(ClientId(0), id),
            reads: vec![],
            writes: vec![],
        }
    }

    fn record(id: u64, prepared_in: u64, outcome: Outcome) -> CommitRecord {
        CommitRecord {
            txn_id: TxnId::new(ClientId(0), id),
            prepared_in: BatchNum(prepared_in),
            outcome,
            prepared: vec![],
        }
    }

    #[test]
    fn drain_respects_group_order() {
        let mut pb = PreparedBatches::new();
        pb.add_group(BatchNum(1), [txn(1), txn(2)]);
        pb.add_group(BatchNum(3), [txn(3)]);
        // Resolve the *later* group first: nothing drains (Def 4.1).
        assert!(pb.resolve(record(3, 3, Outcome::Committed)));
        let (drained, lce) = pb.drain_ready();
        assert!(drained.is_empty());
        assert_eq!(lce, None);
        // Resolve the earlier group: ONE group drains per call (one per
        // batch, Figure 2), so two calls empty the structure.
        assert!(pb.resolve(record(1, 1, Outcome::Committed)));
        assert!(pb.resolve(record(2, 1, Outcome::Aborted)));
        let (drained, lce) = pb.drain_ready();
        assert_eq!(drained.len(), 2);
        assert_eq!(lce, Some(Epoch(1)));
        assert_eq!(drained[0].1.prepared_in, BatchNum(1));
        let (drained, lce) = pb.drain_ready();
        assert_eq!(drained.len(), 1);
        assert_eq!(lce, Some(Epoch(3)));
        assert!(pb.is_empty());
    }

    #[test]
    fn partial_group_blocks_drain() {
        let mut pb = PreparedBatches::new();
        pb.add_group(BatchNum(0), [txn(1), txn(2)]);
        assert!(pb.resolve(record(1, 0, Outcome::Committed)));
        let (drained, lce) = pb.drain_ready();
        assert!(drained.is_empty());
        assert_eq!(lce, None);
        assert_eq!(pb.group_count(), 1);
    }

    #[test]
    fn resolve_is_idempotent() {
        let mut pb = PreparedBatches::new();
        pb.add_group(BatchNum(0), [txn(1)]);
        assert!(pb.resolve(record(1, 0, Outcome::Committed)));
        assert!(!pb.resolve(record(1, 0, Outcome::Committed)));
        assert!(!pb.resolve(record(9, 0, Outcome::Committed))); // unknown txn
        assert!(!pb.resolve(record(1, 7, Outcome::Committed))); // unknown group
    }

    #[test]
    fn empty_groups_are_skipped() {
        let mut pb = PreparedBatches::new();
        pb.add_group(BatchNum(0), []);
        assert!(pb.is_empty());
    }

    #[test]
    fn lce_tracks_last_drained_group() {
        let mut pb = PreparedBatches::new();
        pb.add_group(BatchNum(2), [txn(1)]);
        pb.resolve(record(1, 2, Outcome::Committed));
        let (_, lce) = pb.drain_ready();
        assert_eq!(lce, Some(Epoch(2)));
        // Next drain with nothing pending reports no LCE movement.
        let (drained, lce) = pb.drain_ready();
        assert!(drained.is_empty());
        assert_eq!(lce, None);
    }

    #[test]
    fn get_waiting_finds_only_unresolved() {
        let mut pb = PreparedBatches::new();
        pb.add_group(BatchNum(0), [txn(1)]);
        let id = TxnId::new(ClientId(0), 1);
        assert!(pb.get_waiting(BatchNum(0), id).is_some());
        assert_eq!(pb.pending_txns().count(), 1);
        pb.resolve(record(1, 0, Outcome::Committed));
        // Resolved: no longer waiting, nor pending for conflict rule 3,
        // though its group has not drained.
        assert!(pb.get_waiting(BatchNum(0), id).is_none());
        assert_eq!(pb.pending_txns().count(), 0);
        assert_eq!(pb.group_count(), 1);
    }
}
