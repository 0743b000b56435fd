//! Property-based tests on the core protocol data structures.

use proptest::prelude::*;
use transedge_common::{BatchNum, ClientId, ClusterId, Epoch, Key, TxnId, Value};
use transedge_core::batch::{CdVector, ReadOp, Transaction, WriteOp};
use transedge_core::deps::{
    chase_demand, derive_cd_vector, first_batch_with_lce, plan, verify_dependencies, Part, Plan,
    RotView, Step,
};
use transedge_core::prepared::PreparedBatches;
use transedge_core::records::{CommitRecord, Outcome, SignedPrepared};

fn cd_strategy(n: usize) -> impl Strategy<Value = CdVector> {
    proptest::collection::vec(-1i64..50, n).prop_map(move |es| {
        let mut v = CdVector::new(es.len());
        for (i, e) in es.iter().enumerate() {
            v.set(ClusterId(i as u16), Epoch(*e));
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// pairwise_max is commutative, associative, idempotent, and
    /// monotone — the lattice properties Algorithm 1's correctness
    /// (transitive dependency closure) rests on.
    #[test]
    fn cd_vector_is_a_join_semilattice(
        a in cd_strategy(4),
        b in cd_strategy(4),
        c in cd_strategy(4),
    ) {
        // commutative
        let mut ab = a.clone(); ab.pairwise_max(&b);
        let mut ba = b.clone(); ba.pairwise_max(&a);
        prop_assert_eq!(&ab, &ba);
        // associative
        let mut ab_c = ab.clone(); ab_c.pairwise_max(&c);
        let mut bc = b.clone(); bc.pairwise_max(&c);
        let mut a_bc = a.clone(); a_bc.pairwise_max(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        // idempotent
        let mut aa = a.clone(); aa.pairwise_max(&a);
        prop_assert_eq!(&aa, &a);
        // monotone: join dominates both inputs
        for (cluster, e) in a.entries() {
            prop_assert!(ab.get(cluster) >= e);
        }
        for (cluster, e) in b.entries() {
            prop_assert!(ab.get(cluster) >= e);
        }
    }

    /// derive_cd_vector: own entry pinned to the batch number; other
    /// entries dominate the previous vector and every reported vector
    /// of committed records; aborted records contribute nothing.
    #[test]
    fn derive_cd_dominates_inputs(
        prev in cd_strategy(4),
        reported in proptest::collection::vec(cd_strategy(4), 0..4),
        batch in 0u64..100,
        outcome_committed in any::<bool>(),
    ) {
        let own = ClusterId(1);
        let records: Vec<CommitRecord> = reported
            .iter()
            .enumerate()
            .map(|(i, cdv)| CommitRecord {
                txn_id: TxnId::new(ClientId(0), i as u64),
                prepared_in: BatchNum(0),
                outcome: if outcome_committed { Outcome::Committed } else { Outcome::Aborted },
                prepared: vec![SignedPrepared {
                    cluster: ClusterId(0),
                    txn: TxnId::new(ClientId(0), i as u64),
                    prepared_in: BatchNum(0),
                    cd: cdv.clone(),
                    sigs: vec![],
                }],
            })
            .collect();
        let derived = derive_cd_vector(&prev, own, BatchNum(batch), &records);
        prop_assert_eq!(derived.get(own), Epoch(batch as i64));
        for (cluster, e) in prev.entries() {
            if cluster != own {
                prop_assert!(derived.get(cluster) >= e);
            }
        }
        if outcome_committed {
            for cdv in &reported {
                for (cluster, e) in cdv.entries() {
                    if cluster != own {
                        prop_assert!(derived.get(cluster) >= e);
                    }
                }
            }
        } else {
            // aborted: nothing beyond prev (except the own entry)
            for (cluster, e) in derived.entries() {
                if cluster != own {
                    prop_assert_eq!(e, prev.get(cluster));
                }
            }
        }
    }

    /// PreparedBatches drain: groups leave in prepare-batch order, one
    /// per call, and the LCE sequence is strictly increasing.
    #[test]
    fn prepared_batches_drain_in_order(
        group_batches in proptest::collection::btree_set(0u64..30, 1..8),
        resolve_order in any::<u64>(),
    ) {
        let batches: Vec<u64> = group_batches.into_iter().collect();
        let mut pb = PreparedBatches::new();
        for (i, b) in batches.iter().enumerate() {
            pb.add_group(BatchNum(*b), [Transaction {
                id: TxnId::new(ClientId(0), i as u64),
                reads: vec![],
                writes: vec![],
            }]);
        }
        // Resolve in a pseudo-random order derived from the seed.
        let mut order: Vec<usize> = (0..batches.len()).collect();
        let mut s = resolve_order;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (s as usize) % (i + 1));
        }
        let mut lces: Vec<Epoch> = Vec::new();
        for &idx in &order {
            pb.resolve(CommitRecord {
                txn_id: TxnId::new(ClientId(0), idx as u64),
                prepared_in: BatchNum(batches[idx]),
                outcome: Outcome::Committed,
                prepared: vec![],
            });
            // Drain as a leader would, once per batch tick.
            loop {
                let (drained, lce) = pb.drain_ready();
                if drained.is_empty() {
                    break;
                }
                lces.push(lce.unwrap());
            }
        }
        prop_assert!(pb.is_empty());
        // All groups drained, in prepare order ⇒ LCE strictly increases.
        let sorted: Vec<Epoch> = batches.iter().map(|b| Epoch(*b as i64)).collect();
        prop_assert_eq!(lces, sorted);
    }

    /// first_batch_with_lce returns the earliest batch whose recorded
    /// LCE satisfies the request, for any monotone history.
    #[test]
    fn first_batch_with_lce_is_earliest(steps in proptest::collection::vec(0i64..20, 1..20)) {
        // Build a monotone LCE history from cumulative maxima.
        let mut lce = -1i64;
        let mut history: Vec<i64> = Vec::new();
        for s in steps {
            lce = lce.max(s - 10); // sometimes stays, sometimes grows
            history.push(lce);
        }
        for want in 0i64..12 {
            let got = first_batch_with_lce(&history, |l| Epoch(*l), Epoch(want));
            let expect = history
                .iter()
                .position(|l| *l >= want)
                .map(|p| BatchNum(p as u64));
            prop_assert_eq!(got, expect, "want {}", want);
        }
    }

    /// Algorithm 2 severity: satisfied snapshots report nothing; any
    /// reported dependency really is above the target's LCE.
    #[test]
    fn verify_dependencies_sound(
        cds in proptest::collection::vec(cd_strategy(3), 3..4),
        lces in proptest::collection::vec(-1i64..40, 3..4),
    ) {
        let views: Vec<RotView> = (0..3)
            .map(|i| RotView {
                cluster: ClusterId(i as u16),
                batch: BatchNum(50),
                cd: cds[i].clone(),
                lce: Epoch(lces[i]),
            })
            .collect();
        let unsat = verify_dependencies(&views);
        for (cluster, epoch) in &unsat {
            // Reported ⇒ some view demands more than that cluster's LCE.
            let lce = views[cluster.as_usize()].lce;
            prop_assert!(*epoch > lce);
            // And it is the max such demand.
            let max_demand = views
                .iter()
                .filter(|v| v.cluster != *cluster)
                .map(|v| v.cd.get(*cluster))
                .max()
                .unwrap();
            prop_assert_eq!(*epoch, max_demand);
        }
        // Not reported ⇒ every demand satisfied.
        for target in &views {
            if unsat.iter().any(|(c, _)| *c == target.cluster) {
                continue;
            }
            for v in &views {
                if v.cluster != target.cluster {
                    prop_assert!(v.cd.get(target.cluster) <= target.lce);
                }
            }
        }
    }

    /// The round decision over generated parts: up to four partitions,
    /// each a feed menu of one to three views ascending in CD and LCE,
    /// with chase entries naming the others at generated floors. `Done`
    /// holds a consistent cut, above every other consistent cut, and
    /// credits the feed exactly when the served views fail the check.
    /// A round's cut is lowered as far as violations force; it gives
    /// each unsatisfied `(Z, e)` one `Ask` at a floor ≥ e or one `Wait`
    /// an asked replica's chase accounts for, leaves every other part
    /// kept, and asks no part below the view it holds.
    #[test]
    fn plan_settles_or_asks_every_unsatisfied_dependency(
        n in 2usize..5,
        lens in proptest::collection::vec(1usize..4, 4),
        base in proptest::collection::vec(proptest::collection::vec(-1i64..6, 4), 4),
        lces in proptest::collection::vec(-1i64..6, 4),
        rises in proptest::collection::vec(proptest::collection::vec(0i64..3, 5), 8),
        floors in proptest::collection::vec(proptest::collection::vec(-2i64..8, 4), 4),
    ) {
        let menus: Vec<Vec<RotView>> = (0..n)
            .map(|i| {
                let mut cd = base[i][..n].to_vec();
                let mut lce = lces[i];
                (0..lens[i])
                    .map(|k| {
                        if k > 0 {
                            let rise = &rises[2 * i + k - 1];
                            for (c, r) in cd.iter_mut().zip(rise) {
                                *c += r;
                            }
                            lce += rise[4];
                        }
                        cd[i] = cd[i].max(lce);
                        let mut v = CdVector::new(n);
                        for (c, e) in cd.iter().enumerate() {
                            v.set(ClusterId(c as u16), Epoch(*e));
                        }
                        RotView {
                            cluster: ClusterId(i as u16),
                            batch: BatchNum(cd[i].max(0) as u64),
                            cd: v,
                            lce: Epoch(lce),
                        }
                    })
                    .collect()
            })
            .collect();
        // A floor of -2 names no entry.
        let asked: Vec<Vec<(ClusterId, Epoch)>> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&c| c != i && floors[i][c] >= -1)
                    .map(|c| (ClusterId(c as u16), Epoch(floors[i][c])))
                    .collect()
            })
            .collect();
        let parts: Vec<Part> = (0..n)
            .map(|i| Part {
                menu: &menus[i],
                asked: &asked[i],
            })
            .collect();
        let held = |cut: &[usize]| -> Vec<RotView> {
            cut.iter().zip(&menus).map(|(&k, m)| m[k].clone()).collect()
        };
        match plan(&parts, |p| *p) {
            Plan::Done { cut, skipped_by_feed } => {
                prop_assert!(verify_dependencies(&held(&cut)).is_empty());
                let served: Vec<&RotView> = menus.iter().map(|m| &m[0]).collect();
                prop_assert_eq!(skipped_by_feed, !verify_dependencies(served).is_empty());
                // Every consistent cut lies at or below the settled one.
                let mut other = vec![0usize; n];
                loop {
                    if verify_dependencies(&held(&other)).is_empty() {
                        prop_assert!(other.iter().zip(&cut).all(|(o, c)| o <= c));
                    }
                    let Some(i) = (0..n).find(|&i| other[i] + 1 < menus[i].len()) else {
                        break;
                    };
                    other[i] += 1;
                    other[..i].fill(0);
                }
            }
            Plan::Round { cut, steps } => {
                let views = held(&cut);
                let unsat = verify_dependencies(&views);
                prop_assert!(!unsat.is_empty());
                prop_assert_eq!(steps.len(), n);
                // Lowered as far as a violation forces: a view above its
                // served one names no epoch past another held LCE.
                for (vi, _) in views.iter().zip(&cut).filter(|(_, &k)| k > 0) {
                    prop_assert!(views
                        .iter()
                        .all(|vj| vi.cluster == vj.cluster || vi.cd.get(vj.cluster) <= vj.lce));
                }
                for (i, step) in steps.iter().enumerate() {
                    let z = ClusterId(i as u16);
                    let demand = unsat.iter().find(|(c, _)| *c == z).map(|(_, e)| *e);
                    // Which parts' replicas were asked to chase z below
                    // the demand and so forwarded it.
                    let witness = |j: usize| {
                        demand.is_some_and(|e| {
                            asked[j].iter().any(|&(c, f)| {
                                c == z && chase_demand(views[j].cluster, &views[j].cd, c, f) == Some(e)
                            })
                        })
                    };
                    match (*step, demand) {
                        (Step::Keep, None) => {}
                        (Step::Ask { floor }, Some(e)) => {
                            prop_assert!(floor >= e);
                            prop_assert!(floor > views[i].lce, "asked below the view held");
                            prop_assert!(!(0..n).any(|j| steps[j] == Step::Keep && witness(j)));
                        }
                        (Step::Wait { floor }, Some(e)) => {
                            prop_assert_eq!(floor, e);
                            prop_assert!(floor > views[i].lce, "waits below the view held");
                            prop_assert!((0..n).any(witness));
                        }
                        (step, demand) => {
                            prop_assert!(false, "part {} took {:?} for demand {:?}", i, step, demand)
                        }
                    }
                }
            }
        }
    }

    /// Transactions survive the wire format for arbitrary content.
    #[test]
    fn transaction_wire_roundtrip(
        nreads in 0usize..5,
        nwrites in 0usize..5,
        seed in any::<u32>(),
    ) {
        use transedge_common::{Decode, Encode};
        let txn = Transaction {
            id: TxnId::new(ClientId(seed), seed as u64),
            reads: (0..nreads)
                .map(|i| ReadOp {
                    key: Key::from_u32(seed.wrapping_add(i as u32)),
                    version: Epoch(i as i64 - 1),
                })
                .collect(),
            writes: (0..nwrites)
                .map(|i| WriteOp {
                    key: Key::from_u32(seed.wrapping_mul(31).wrapping_add(i as u32)),
                    value: Value::filled(i + 1, seed as u8),
                })
                .collect(),
        };
        let bytes = txn.encode_to_vec();
        let back = Transaction::decode_all(&bytes).unwrap();
        prop_assert_eq!(back, txn);
    }
}
