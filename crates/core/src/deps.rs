//! CD-vector derivation (Algorithm 1), the round-two LCE lookup, the
//! client's dependency verification (Algorithm 2), the chase rule, and
//! the client's round decision built on them ([`plan`]).

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
pub fn verify_dependencies<'a>(
    views: impl IntoIterator<Item = &'a RotView, IntoIter: Clone>,
) -> Vec<(ClusterId, Epoch)> {
    let views = views.into_iter();
    let mut unsatisfied: Vec<(ClusterId, Epoch)> = Vec::new();
    for vi in views.clone() {
        for vj in views.clone().filter(|vj| names_past(vi, vj)) {
            let required = vi.cd.get(vj.cluster);
            match unsatisfied.iter_mut().find(|(c, _)| *c == vj.cluster) {
                Some((_, e)) => *e = (*e).max(required),
                None => unsatisfied.push((vj.cluster, required)),
            }
        }
    }
    unsatisfied.sort_by_key(|(c, _)| *c);
    unsatisfied
}

/// The chase rule, one for the replica that forwards and the client
/// that predicts the forward: a replica of partition `me` that served a
/// batch with CD vector `cd`, asked to chase a part of partition `part`
/// held at `floor`, forwards that part at the returned demand — the
/// epoch `cd` names for `part`, when it is above `floor`. A replica
/// never chases its own partition.
pub fn chase_demand(me: ClusterId, cd: &CdVector, part: ClusterId, floor: Epoch) -> Option<Epoch> {
    let demand = cd.get(part);
    (part != me && demand > floor).then_some(demand)
}

/// One part of a read as the round decision sees it; its partition is
/// the one its views certify.
#[derive(Clone, Copy, Debug)]
pub struct Part<'a> {
    /// The certified views the part's answer offers, ascending: the
    /// served view, then with a verified feed attachment one per delta
    /// up to the feed head. The feed proves the served values unchanged
    /// through every prefix of its chain, so each entry is an equally
    /// certified snapshot of the same values. One entry without a feed.
    pub menu: &'a [RotView],
    /// The other parts, and the floors named for them, that the request
    /// this answer came from asked its replica to chase.
    pub asked: &'a [(ClusterId, Epoch)],
}

/// What one part does in the next round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The part holds its view of the cut.
    Keep,
    /// The part is asked again at an LCE floor.
    Ask { floor: Epoch },
    /// The part restarts at `floor` and waits for the answer a replica
    /// already chased there, without a request of its own.
    Wait { floor: Epoch },
}

/// The round decision of a read whose every part has answered. In
/// both outcomes `cut[i]` indexes the view of part i's menu that the
/// settled cut holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Plan {
    /// The cut is consistent. `skipped_by_feed` says the served views
    /// alone would have failed the check, so a feed attachment saved a
    /// round.
    Done {
        cut: Vec<usize>,
        skipped_by_feed: bool,
    },
    /// Another round, one step per part.
    Round { cut: Vec<usize>, steps: Vec<Step> },
}

/// Decide a read's round once every part has answered (Theorem 4.6,
/// Algorithm 2): settle the cut, check it, and say which part is asked
/// again at which floor. `part` reads one element of `parts`.
///
/// - **Feed lowering.** Two feed heads attached by different edges are
///   never synchronised, and adopting both can manufacture a violation
///   (one head's CD names an epoch the other head's LCE has not
///   certified yet). A violation `vi.cd[j] > vj.lce` can only be
///   repaired by lowering `vi`, so lowering violators greedily, from
///   every head down, converges on the unique maximal consistent cut.
///   Violations no lowering fixes are left for the next round.
/// - **Asks and waits.** Each unsatisfied `(Z, e)` restarts Z at floor
///   `e`. Z waits instead of asking when a part still holding its view
///   was answered by a replica that the chase rule ([`chase_demand`])
///   had forward Z at exactly `e`. Parts restarted earlier in the pass,
///   the lower clusters, no longer hold a view and so are no witness.
pub fn plan<P>(parts: &[P], part: impl Fn(&P) -> Part<'_>) -> Plan {
    let n = parts.len();
    let held = |cut: &[usize], i: usize| part(&parts[i]).menu.get(cut[i]);
    let mut cut: Vec<usize> = parts
        .iter()
        .map(|p| part(p).menu.len().saturating_sub(1))
        .collect();
    while let Some(i) = (0..n).find(|&i| {
        let vi = held(&cut, i).filter(|_| cut[i] > 0);
        vi.is_some_and(|vi| {
            (0..n)
                .filter_map(|j| held(&cut, j))
                .any(|vj| names_past(vi, vj))
        })
    }) {
        cut[i] -= 1;
    }
    let unsatisfied = verify_dependencies((0..n).filter_map(|i| held(&cut, i)));
    if unsatisfied.is_empty() {
        let served = parts.iter().filter_map(|p| part(p).menu.first());
        let skipped_by_feed = !verify_dependencies(served).is_empty();
        return Plan::Done {
            cut,
            skipped_by_feed,
        };
    }
    let mut steps = vec![Step::Keep; n];
    for (z, floor) in unsatisfied {
        // Did the replica that served part i forward z at `floor`?
        let forwarded = |i: usize| {
            let Some(v) = held(&cut, i) else {
                return false;
            };
            let mut asked = part(&parts[i]).asked.iter().filter(|(c, _)| *c == z);
            asked.any(|&(_, f)| chase_demand(v.cluster, &v.cd, z, f) == Some(floor))
        };
        let chased = (0..n).any(|i| steps[i] == Step::Keep && forwarded(i));
        let i = (0..n)
            .position(|i| held(&cut, i).is_some_and(|v| v.cluster == z))
            .expect("a dependency names one of the views checked");
        steps[i] = if chased {
            Step::Wait { floor }
        } else {
            Step::Ask { floor }
        };
    }
    Plan::Round { cut, steps }
}

/// Does `vi` name an epoch of `vj`'s partition past `vj`'s LCE?
fn names_past(vi: &RotView, vj: &RotView) -> bool {
    vi.cluster != vj.cluster && vi.cd.get(vj.cluster) > vj.lce
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
        let [round_one, round_two] = seed1_client7();
        assert_eq!(
            verify_dependencies(&round_one),
            vec![(ClusterId(1), Epoch(2)), (ClusterId(2), Epoch(4))]
        );
        assert_eq!(round_two[1].cd, cd5([3, 4, 5, -1, 4]));
        // Both round-two answers met their floors, yet c1's names c2's
        // epoch 5 past c2's new LCE 4, and c4's epoch 4 past the LCE 2
        // the client held for c4 since round one.
        assert_eq!(
            verify_dependencies(&round_two),
            vec![(ClusterId(2), Epoch(5)), (ClusterId(4), Epoch(4))]
        );
    }

    fn cd5(v: [i64; 5]) -> CdVector {
        let entries: Vec<(u16, i64)> = (0..5).zip(v).collect();
        cd(5, &entries)
    }

    fn view5(c: u16, batch: u64, lce: i64, v: [i64; 5]) -> RotView {
        RotView {
            cluster: ClusterId(c),
            batch: BatchNum(batch),
            cd: cd5(v),
            lce: Epoch(lce),
        }
    }

    /// The views of both rounds of the `mixed-rw` seed-1 read of client
    /// 7 at 40.6 ms.
    fn seed1_client7() -> [Vec<RotView>; 2] {
        let round_one = vec![
            view5(0, 5, 3, [5, 2, 4, -1, 2]),
            view5(1, 3, 1, [1, 3, -1, -1, 2]),
            view5(2, 5, 2, [1, -1, 5, -1, 2]),
            view5(3, 3, -1, [-1, -1, -1, 3, -1]),
            view5(4, 4, 2, [1, 1, 2, -1, 4]),
        ];
        // c1's round-two batch b4 (LCE 2) drains a group whose committed
        // records report c0's epoch 3, c2's epoch 5 and c4's epoch 4.
        let reported = vec![cd(5, &[(0, 3)]), cd(5, &[(2, 5)]), cd(5, &[(4, 4)])];
        let c1_b4 = derive_cd_vector(
            &round_one[1].cd,
            ClusterId(1),
            BatchNum(4),
            &[committed_record(reported)],
        );
        let mut round_two = round_one.clone();
        round_two[1] = RotView {
            cd: c1_b4,
            ..view5(1, 4, 2, [0; 5])
        };
        round_two[2] = view5(2, 6, 4, [3, 2, 6, -1, 2]);
        [round_one, round_two]
    }

    /// One part per view, each a menu of one that asked no chase.
    fn single(views: &[RotView]) -> Vec<Part<'_>> {
        views
            .iter()
            .map(|v| Part {
                menu: std::slice::from_ref(v),
                asked: &[],
            })
            .collect()
    }

    fn plan_of(parts: &[Part<'_>]) -> Plan {
        plan(parts, |p| *p)
    }

    fn view2(c: u16, lce: i64, v: [i64; 2]) -> RotView {
        RotView {
            cluster: ClusterId(c),
            batch: BatchNum(v[c as usize] as u64),
            cd: cd(2, &[(0, v[0]), (1, v[1])]),
            lce: Epoch(lce),
        }
    }

    #[test]
    fn plan_replays_the_seed1_client7_read() {
        use Step::{Ask, Keep, Wait};
        let [round_one, round_two] = seed1_client7();
        let ask = |e| Ask { floor: Epoch(e) };
        assert_eq!(
            plan_of(&single(&round_one)),
            Plan::Round {
                cut: vec![0; 5],
                steps: vec![Keep, ask(2), ask(4), Keep, Keep],
            }
        );
        let mut parts = single(&round_two);
        assert_eq!(
            plan_of(&parts),
            Plan::Round {
                cut: vec![0; 5],
                steps: vec![Keep, Keep, ask(5), Keep, ask(4)],
            }
        );
        // c1's round-two part went straight to a replica, naming the
        // other parts at the LCE held (c2 at its new floor 4). Its
        // batch b4 names c2's epoch 5 and c4's epoch 4 above those, so
        // that replica forwarded both, and both wait.
        let asked = [(0, 3), (2, 4), (3, -1), (4, 2)].map(|(c, e)| (ClusterId(c), Epoch(e)));
        parts[1].asked = &asked;
        let wait = |e| Wait { floor: Epoch(e) };
        assert_eq!(
            plan_of(&parts),
            Plan::Round {
                cut: vec![0; 5],
                steps: vec![Keep, Keep, wait(5), Keep, wait(4)],
            }
        );
    }

    /// Two feed menus whose heads conflict: c1's head names c0's epoch 6
    /// past c0's head LCE 5, so c1 lowers, which leaves c0's head naming
    /// c1's epoch 3 past c1's LCE 2, so c0 lowers too. The result is the
    /// maximal consistent cut, and no round is needed.
    #[test]
    fn plan_lowers_conflicting_feed_heads_to_a_consistent_cut() {
        let c0 = [view2(0, 4, [4, 1]), view2(0, 5, [5, 3])];
        let c1 = [
            view2(1, 1, [2, 4]),
            view2(1, 2, [4, 5]),
            view2(1, 3, [6, 6]),
        ];
        assert!(!verify_dependencies([&c0[1], &c1[2]]).is_empty());
        let parts = [&c0[..], &c1[..]].map(|menu| Part { menu, asked: &[] });
        assert_eq!(
            plan_of(&parts),
            Plan::Done {
                cut: vec![0, 1],
                skipped_by_feed: false,
            }
        );
    }

    /// The served views fail the check (c0 names c1's epoch 3 past c1's
    /// served LCE 1) but c1's feed head covers it: done in one round,
    /// and the feed is credited with the round it saved.
    #[test]
    fn plan_credits_the_feed_with_a_skipped_round() {
        let c0 = [view2(0, 4, [4, 3])];
        let c1 = [view2(1, 1, [2, 2]), view2(1, 3, [3, 4])];
        let parts = [&c0[..], &c1[..]].map(|menu| Part { menu, asked: &[] });
        assert_eq!(
            plan_of(&parts),
            Plan::Done {
                cut: vec![0, 1],
                skipped_by_feed: true,
            }
        );
    }

    /// c0's view names c1's epoch 5 past c1's LCE 3. c0's replica was
    /// asked to chase c1 from floor 3, below the demand, so it already
    /// forwarded c1 at 5: c1 waits. Asked from 5 itself, the replica
    /// forwarded nothing, and c1 is asked.
    #[test]
    fn plan_waits_only_on_a_chase_asked_below_the_demand() {
        let views = [view2(0, 4, [4, 5]), view2(1, 3, [2, 3])];
        let below = [(ClusterId(1), Epoch(3))];
        let at = [(ClusterId(1), Epoch(5))];
        let mut parts = single(&views);
        parts[0].asked = &below;
        let steps = |plan| match plan {
            Plan::Round { steps, .. } => steps,
            done => panic!("expected a round, got {done:?}"),
        };
        assert_eq!(
            steps(plan_of(&parts)),
            vec![Step::Keep, Step::Wait { floor: Epoch(5) }]
        );
        parts[0].asked = &at;
        assert_eq!(
            steps(plan_of(&parts)),
            vec![Step::Keep, Step::Ask { floor: Epoch(5) }]
        );
    }

    #[test]
    fn the_chase_rule_skips_its_own_partition_and_a_met_floor() {
        let served = cd(3, &[(0, 7), (1, 5), (2, 2)]);
        let rule = |part: u16, floor: i64| {
            chase_demand(ClusterId(0), &served, ClusterId(part), Epoch(floor))
        };
        assert_eq!(rule(1, 3), Some(Epoch(5)));
        assert_eq!(rule(0, 3), None, "never its own partition");
        assert_eq!(rule(1, 5), None, "the demand is the floor held");
        assert_eq!(rule(2, 3), None, "below the floor held");
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
