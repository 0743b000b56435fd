//! CD-vector derivation (Algorithm 1), the round-two LCE lookup, and
//! the client's dependency verification (Algorithm 2).

use transedge_common::{BatchNum, ClusterId, Epoch};

use crate::batch::CdVector;
use crate::records::{CommitRecord, Outcome};

/// Algorithm 1 — derive the CD vector for a new batch:
/// start from the previous batch's vector, fold in (pairwise max) the
/// reported CD vectors of every *committed* record in the committed
/// segment, and pin the own-partition entry to the batch number.
pub fn derive_cd_vector(
    prev: &CdVector,
    own_cluster: ClusterId,
    batch_num: BatchNum,
    committed: &[CommitRecord],
) -> CdVector {
    let mut v = prev.clone();
    for record in committed {
        if record.outcome != Outcome::Committed {
            continue; // aborted transactions contribute no dependencies
        }
        for reported in &record.prepared {
            v.pairwise_max(&reported.cd);
        }
    }
    v.set(own_cluster, batch_num.as_epoch());
    v
}

/// The earliest batch of `log` (index = batch number) whose LCE is
/// `>= min_epoch`, if one exists yet — the lookup round two of the
/// read-only protocol needs ("serve me the state that includes
/// prepare-epoch `d` of your log"). LCE never decreases along the log,
/// so this is a binary search.
///
/// Contract: `min_epoch >= 0`. Round-two requests always carry a real
/// prepare epoch (a dependency strictly above some LCE ≥ −1); "any
/// batch" requests never reach this lookup.
pub fn first_batch_with_lce<B>(
    log: &[B],
    lce: impl Fn(&B) -> Epoch,
    min_epoch: Epoch,
) -> Option<BatchNum> {
    debug_assert!(!min_epoch.is_none(), "min_epoch must be a real epoch");
    let idx = log.partition_point(|b| lce(b) < min_epoch);
    (idx < log.len()).then_some(BatchNum(idx as u64))
}

/// One partition's answer in a read-only round, as far as dependency
/// checking is concerned.
#[derive(Clone, Debug)]
pub struct RotView {
    pub cluster: ClusterId,
    pub batch: BatchNum,
    pub cd: CdVector,
    pub lce: Epoch,
}

/// Algorithm 2 — check every response's dependencies on every other
/// accessed partition. Returns the unsatisfied dependencies as
/// `(partition, required prepare-epoch)`, keeping the maximum epoch per
/// partition.
pub fn verify_dependencies(views: &[RotView]) -> Vec<(ClusterId, Epoch)> {
    let mut unsatisfied: Vec<(ClusterId, Epoch)> = Vec::new();
    for vi in views {
        for vj in views {
            if vi.cluster == vj.cluster {
                continue;
            }
            let required = vi.cd.get(vj.cluster);
            if required > vj.lce {
                match unsatisfied.iter_mut().find(|(c, _)| *c == vj.cluster) {
                    Some((_, e)) => *e = (*e).max(required),
                    None => unsatisfied.push((vj.cluster, required)),
                }
            }
        }
    }
    unsatisfied.sort_by_key(|(c, _)| *c);
    unsatisfied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::SignedPrepared;
    use transedge_common::{ClientId, TxnId};

    fn cd(n: usize, entries: &[(u16, i64)]) -> CdVector {
        let mut v = CdVector::new(n);
        for (c, e) in entries {
            v.set(ClusterId(*c), Epoch(*e));
        }
        v
    }

    fn committed_record(reported: Vec<CdVector>) -> CommitRecord {
        CommitRecord {
            txn_id: TxnId::new(ClientId(0), 1),
            prepared_in: BatchNum(0),
            outcome: Outcome::Committed,
            prepared: reported
                .into_iter()
                .map(|cdv| SignedPrepared {
                    cluster: ClusterId(1),
                    txn: TxnId::new(ClientId(0), 1),
                    prepared_in: BatchNum(0),
                    cd: cdv,
                    sigs: vec![],
                })
                .collect(),
        }
    }

    fn aborted_record(reported: Vec<CdVector>) -> CommitRecord {
        let mut r = committed_record(reported);
        r.outcome = Outcome::Aborted;
        r
    }

    #[test]
    fn algorithm1_paper_example() {
        // Figure 3: partition X derives V^X_2. Previous vector V^X_1 =
        // [1, -1]; the committed transactions prepared at Y in batch 5
        // with reported V^Y_5 = [-1, 5]. Result: [2, 5].
        let prev = cd(2, &[(0, 1), (1, -1)]);
        let reported = cd(2, &[(0, -1), (1, 5)]);
        let v = derive_cd_vector(
            &prev,
            ClusterId(0),
            BatchNum(2),
            &[committed_record(vec![reported])],
        );
        assert_eq!(v, cd(2, &[(0, 2), (1, 5)]));
    }

    #[test]
    fn aborted_records_contribute_nothing() {
        let prev = cd(2, &[(0, 1)]);
        let reported = cd(2, &[(1, 9)]);
        let v = derive_cd_vector(
            &prev,
            ClusterId(0),
            BatchNum(2),
            &[aborted_record(vec![reported])],
        );
        assert_eq!(v.get(ClusterId(1)), Epoch::NONE);
    }

    #[test]
    fn own_entry_is_always_batch_number() {
        let prev = cd(2, &[(0, 1)]);
        let v = derive_cd_vector(&prev, ClusterId(0), BatchNum(7), &[]);
        assert_eq!(v.get(ClusterId(0)), Epoch(7));
    }

    #[test]
    fn transitive_dependencies_fold_in() {
        // The reported vector itself carries a transitive dep on Z.
        let prev = cd(3, &[(0, 1)]);
        let reported = cd(3, &[(1, 5), (2, 3)]);
        let v = derive_cd_vector(
            &prev,
            ClusterId(0),
            BatchNum(2),
            &[committed_record(vec![reported])],
        );
        assert_eq!(v.get(ClusterId(2)), Epoch(3));
    }

    #[test]
    fn first_batch_with_lce_lookup() {
        // Batches 0–1 have LCE −1; the group prepared in batch 0 commits
        // at batch 2; the group of batch 5 commits at batch 8.
        let lces: Vec<Epoch> = [-1, -1, 0, 0, 0, 0, 0, 0, 5]
            .into_iter()
            .map(Epoch)
            .collect();
        let first = |e| first_batch_with_lce(&lces, |l| *l, Epoch(e));
        assert_eq!(first(0), Some(BatchNum(2)));
        assert_eq!(first(1), Some(BatchNum(8)));
        assert_eq!(first(5), Some(BatchNum(8)));
        assert_eq!(first(6), None);
    }

    #[test]
    fn algorithm2_detects_figure1_inconsistency() {
        // Figure 1: t_r reads X at batch 4 and Y at batch 2. X's batch 4
        // committed t2 which prepared at Y in (Y's) batch 4; Y's batch 2
        // has LCE < 4 → unsatisfied dependency on Y at epoch 4.
        let x = RotView {
            cluster: ClusterId(0),
            batch: BatchNum(4),
            cd: cd(2, &[(0, 4), (1, 4)]),
            lce: Epoch(3), // X committed the group that prepared in its own batch 3
        };
        let y = RotView {
            cluster: ClusterId(1),
            batch: BatchNum(2),
            cd: cd(2, &[(0, 1), (1, 2)]),
            lce: Epoch(2),
        };
        let unsat = verify_dependencies(&[x, y]);
        assert_eq!(unsat, vec![(ClusterId(1), Epoch(4))]);
    }

    #[test]
    fn algorithm2_satisfied_when_lce_covers() {
        let x = RotView {
            cluster: ClusterId(0),
            batch: BatchNum(4),
            cd: cd(2, &[(0, 4), (1, 4)]),
            lce: Epoch(0),
        };
        let y = RotView {
            cluster: ClusterId(1),
            batch: BatchNum(9),
            cd: cd(2, &[(0, 0), (1, 9)]),
            lce: Epoch(4), // includes the required epoch
        };
        assert!(verify_dependencies(&[x, y]).is_empty());
    }

    #[test]
    fn algorithm2_keeps_max_epoch_per_partition() {
        let a = RotView {
            cluster: ClusterId(0),
            batch: BatchNum(4),
            cd: cd(3, &[(0, 4), (2, 3)]),
            lce: Epoch::NONE,
        };
        let b = RotView {
            cluster: ClusterId(1),
            batch: BatchNum(4),
            cd: cd(3, &[(1, 4), (2, 7)]),
            lce: Epoch::NONE,
        };
        let c = RotView {
            cluster: ClusterId(2),
            batch: BatchNum(1),
            cd: cd(3, &[(2, 1)]),
            lce: Epoch(1),
        };
        let unsat = verify_dependencies(&[a, b, c]);
        assert_eq!(unsat, vec![(ClusterId(2), Epoch(7))]);
    }

    /// Why Theorem 4.6 fails here: a round-two answer imports a
    /// dependency past an LCE the client already holds. The ROADMAP
    /// candidate that breaks is "a CD vector names a prepare epoch that
    /// the peer's LCE does not cover yet". Prepare group d drains at Y
    /// as a unit, and its members' prepares at Z sit in later Z groups,
    /// so the first Y batch whose LCE reaches d carries reported CD
    /// entries naming Z epochs above Z's LCE. Built from a `mixed-rw`
    /// seed-1 read (client 7 at 40.6 ms); ROADMAP.md, *Deviation
    /// ledger*, "Third rounds", points here.
    #[test]
    fn round_two_imports_a_dependency_past_a_held_lce() {
        let full = |v: [i64; 5]| {
            let entries: Vec<(u16, i64)> = (0..5).zip(v).collect();
            cd(5, &entries)
        };
        let view = |c: u16, batch: u64, lce: i64, v: [i64; 5]| RotView {
            cluster: ClusterId(c),
            batch: BatchNum(batch),
            cd: full(v),
            lce: Epoch(lce),
        };
        let round_one = vec![
            view(0, 5, 3, [5, 2, 4, -1, 2]),
            view(1, 3, 1, [1, 3, -1, -1, 2]),
            view(2, 5, 2, [1, -1, 5, -1, 2]),
            view(3, 3, -1, [-1, -1, -1, 3, -1]),
            view(4, 4, 2, [1, 1, 2, -1, 4]),
        ];
        assert_eq!(
            verify_dependencies(&round_one),
            vec![(ClusterId(1), Epoch(2)), (ClusterId(2), Epoch(4))]
        );
        // c1's round-two batch b4 (LCE 2) drains a group whose committed
        // records report c0's epoch 3, c2's epoch 5 and c4's epoch 4.
        let reported = vec![cd(5, &[(0, 3)]), cd(5, &[(2, 5)]), cd(5, &[(4, 4)])];
        let c1_b4 = derive_cd_vector(
            &round_one[1].cd,
            ClusterId(1),
            BatchNum(4),
            &[committed_record(reported)],
        );
        assert_eq!(c1_b4, full([3, 4, 5, -1, 4]));
        let mut round_two = round_one.clone();
        round_two[1] = RotView {
            cd: c1_b4,
            ..view(1, 4, 2, [0; 5])
        };
        round_two[2] = view(2, 6, 4, [3, 2, 6, -1, 2]);
        // Both round-two answers met their floors, yet c1's names c2's
        // epoch 5 past c2's new LCE 4, and c4's epoch 4 past the LCE 2
        // the client held for c4 since round one.
        assert_eq!(
            verify_dependencies(&round_two),
            vec![(ClusterId(2), Epoch(5)), (ClusterId(4), Epoch(4))]
        );
    }

    #[test]
    fn no_dependencies_between_disjoint_partitions() {
        let a = RotView {
            cluster: ClusterId(0),
            batch: BatchNum(10),
            cd: cd(2, &[(0, 10)]),
            lce: Epoch::NONE,
        };
        let b = RotView {
            cluster: ClusterId(1),
            batch: BatchNum(20),
            cd: cd(2, &[(1, 20)]),
            lce: Epoch::NONE,
        };
        assert!(verify_dependencies(&[a, b]).is_empty());
    }
}
