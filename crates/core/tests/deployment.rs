//! Deployment-level invariants: genesis certification and copying,
//! determinism, configuration plumbing, one signature memo per actor,
//! and the guards on crashing and restarting an edge.

use transedge_common::{
    BatchNum, ClientId, ClusterId, ClusterTopology, EdgeId, Key, NodeId, ReplicaId, SimTime, TxnId,
    Value,
};
use transedge_consensus::BftValue;
use transedge_core::batch::{Batch, Transaction, WriteOp};
use transedge_core::client::ClientOp;
use transedge_core::executor::{Executor, RejectReason};
use transedge_core::node::TransEdgeNode;
use transedge_core::setup::{generate_data, Deployment, DeploymentConfig};
use transedge_core::EdgeConfig;
use transedge_crypto::merkle::{value_digest, verify_proof, Verified};
use transedge_crypto::{Digest, SigStats};

#[test]
fn genesis_batches_are_certified_per_cluster() {
    let config = DeploymentConfig::for_testing();
    let dep = Deployment::build(config, vec![]);
    // Every replica serves batch 0 with a certificate that verifies
    // against the deployment's key directory.
    for cluster in dep.topo.clusters() {
        for r in dep.topo.replicas_of(cluster) {
            let node = dep.node(r);
            assert_eq!(node.exec.applied_batches(), 1, "{r} must hold genesis");
        }
    }
}

#[test]
fn identical_configs_produce_identical_runs() {
    // Determinism is the foundation of every experiment in this repo:
    // same config + same scripts ⇒ byte-identical sample streams.
    let run = || {
        let mut config = DeploymentConfig::for_testing();
        config.latency = transedge_simnet::LatencyModel::paper_default();
        let topo = config.topo.clone();
        let keys: Vec<_> = (0u32..10_000)
            .map(transedge_common::Key::from_u32)
            .filter(|k| topo.partition_of(k) == ClusterId(0))
            .take(4)
            .collect();
        let ops: Vec<ClientOp> = (0..6)
            .map(|i| ClientOp::ReadWrite {
                reads: vec![keys[i % 4].clone()],
                writes: vec![(keys[(i + 1) % 4].clone(), Value::from("d"))],
            })
            .collect();
        let mut dep = Deployment::build(config, vec![ops]);
        dep.run_until_done(SimTime(120_000_000));
        dep.samples()
            .iter()
            .map(|s| (s.start.0, s.end.0, s.committed))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_produce_different_keys_but_same_data() {
    let mut a = DeploymentConfig::for_testing();
    a.seed = 1;
    let mut b = DeploymentConfig::for_testing();
    b.seed = 2;
    let dep_a = Deployment::build(a, vec![]);
    let dep_b = Deployment::build(b, vec![]);
    let r = ReplicaId::new(ClusterId(0), 0);
    // Key material differs (derived from the seed) …
    assert_ne!(
        dep_a.keys.public_key(transedge_common::NodeId::Replica(r)),
        dep_b.keys.public_key(transedge_common::NodeId::Replica(r)),
    );
    // … but the preloaded dataset is the same deterministic function of
    // (n_keys, value_size).
    assert_eq!(dep_a.data, dep_b.data);
}

#[test]
fn generated_data_is_deterministic_and_sized() {
    let a = generate_data(100, 256);
    let b = generate_data(100, 256);
    assert_eq!(a, b);
    assert_eq!(a.len(), 100);
    assert!(a.iter().all(|(_, v)| v.len() == 256));
}

#[test]
fn preloaded_values_are_shared_not_copied() {
    // bytes::Bytes sharing: all replicas of a key's partition point at
    // the same value allocation (memory scales with data, not data ×
    // replicas).
    let config = DeploymentConfig::for_testing();
    let dep = Deployment::build(config, vec![]);
    let (key, value) = dep.data[0].clone();
    let cluster = dep.topo.partition_of(&key);
    let mut ptrs = Vec::new();
    for r in dep.topo.replicas_of(cluster) {
        let node = dep.node(r);
        let stored = node.exec.store.get_latest(&key).expect("preloaded");
        assert_eq!(stored.value, value);
        assert_eq!(stored.batch, BatchNum(0));
        ptrs.push(stored.value.as_bytes().as_ptr());
    }
    assert!(
        ptrs.windows(2).all(|w| w[0] == w[1]),
        "values must share memory"
    );
}

#[test]
fn every_actor_checks_signatures_under_its_own_memo() {
    // A reader, a writer and an idle client, every actor built from the
    // deployment's one key directory.
    let config = DeploymentConfig::for_testing();
    let key = Key::from_u32(1);
    let cluster = config.topo.partition_of(&key);
    let read = ClientOp::ReadOnly {
        keys: vec![key.clone()],
    };
    let write = ClientOp::ReadWrite {
        reads: vec![],
        writes: vec![(key, Value::from("w"))],
    };
    let mut dep = Deployment::build(config, vec![vec![read.clone(), read], vec![write], vec![]]);
    dep.run_until_done(SimTime(120_000_000));
    let client = |i| dep.client(ClientId(i)).verified_certs().keys().sig_stats();
    // The reader's certificate checks are batches of f+1; the idle
    // client ran none, and the setup directory counts nothing.
    let reader = client(0);
    assert!(
        reader.batches >= 1 && reader.batched == 2 * reader.batches,
        "{reader:?}"
    );
    assert_eq!(client(2), SigStats::default());
    assert_eq!(dep.keys.sig_stats(), SigStats::default());
    // Every replica of the written cluster checked votes of its own: a
    // shared memo would show one set of counters four times.
    let replicas: Vec<SigStats> = dep
        .topo
        .replicas_of(cluster)
        .map(|r| dep.node(r).sig_stats())
        .collect();
    assert!(
        replicas.iter().all(|s| s.checks + s.batched > 0),
        "{replicas:?}"
    );
    assert!(replicas.iter().any(|s| *s != replicas[0]), "{replicas:?}");
}

/// Replica `r`'s executor preloaded on its own: the state every
/// replica of its cluster must start from.
fn preloaded_alone(dep: &Deployment, r: ReplicaId) -> (Executor, Batch) {
    let mut exec = Executor::new(
        dep.topo.clone(),
        r,
        dep.keys.with_memo(),
        dep.config.node.tree_depth,
        dep.config.node.freshness_window,
    );
    let genesis = exec.preload(dep.data.iter().map(|(k, v)| (k, v)), SimTime::ZERO);
    (exec, genesis)
}

#[test]
fn every_replica_holds_its_own_equal_copy_of_genesis() {
    let mut wide = DeploymentConfig::for_testing();
    wide.topo = ClusterTopology::new(2, 2).unwrap();
    for config in [DeploymentConfig::for_testing(), wide] {
        let mut dep = Deployment::build(config, vec![]);
        for cluster in dep.topo.clusters() {
            let replicas: Vec<ReplicaId> = dep.topo.replicas_of(cluster).collect();
            let (alone, _) = preloaded_alone(&dep, replicas[0]);
            let keys: Vec<Key> = dep
                .data
                .iter()
                .map(|(k, _)| k.clone())
                .filter(|k| dep.topo.partition_of(k) == cluster)
                .collect();
            assert!(!keys.is_empty());
            for &r in &replicas {
                let exec = &dep.node(r).exec;
                assert_eq!(exec.applied_batches(), 1, "{r}");
                assert_eq!(exec.tree.root_at(0), alone.tree.root_at(0), "{r}");
                assert_eq!(exec.last_cd(), alone.last_cd(), "{r}");
                for k in &keys {
                    assert_eq!(exec.store.versions(k), alone.store.versions(k), "{r}");
                }
            }
            // A write on one replica reaches no other: each store and
            // tree is a value of its own, whatever tables it shares
            // until it writes. What the others see at the written batch
            // is still genesis.
            let (key, value) = (keys[0].clone(), Value::from("only here"));
            let seen = |dep: &Deployment, r: ReplicaId| {
                let exec = &dep.node(r).exec;
                (
                    exec.tree.latest_version(),
                    exec.tree.root_at(1),
                    exec.tree.prove_at(&key, 1),
                    exec.store.versions(&key).map(<[_]>::to_vec),
                )
            };
            let before: Vec<_> = replicas.iter().map(|&r| seen(&dep, r)).collect();
            let written = replicas[replicas.len() - 1];
            let exec = &mut dep
                .sim
                .actor_as_mut::<TransEdgeNode>(NodeId::Replica(written))
                .expect("a replica")
                .exec;
            exec.store.write(key.clone(), value.clone(), BatchNum(1));
            exec.tree.apply_batch(1, vec![(&key, value_digest(&value))]);
            for (&r, before) in replicas.iter().zip(&before) {
                if r == written {
                    assert_ne!(seen(&dep, r), *before);
                } else {
                    assert_eq!(seen(&dep, r), *before, "{r} saw {written}'s write");
                }
            }
        }
    }
}

#[test]
fn independent_preloads_agree_on_genesis() {
    let dep = Deployment::build(DeploymentConfig::for_testing(), vec![]);
    let data = generate_data(dep.config.n_keys, dep.config.value_size);
    assert_eq!(data, dep.data);
    let cluster = ClusterId(0);
    let mut replicas = dep.topo.replicas_of(cluster);
    let (a, genesis_a) = preloaded_alone(&dep, replicas.next().unwrap());
    let (b, genesis_b) = preloaded_alone(&dep, replicas.next().unwrap());
    assert_eq!(BftValue::digest(&genesis_a), BftValue::digest(&genesis_b));
    assert_eq!(a.tree.root_at(0), b.tree.root_at(0));
    assert_eq!(genesis_a.header.merkle_root, a.tree.root_at(0));
}

#[test]
fn replicas_that_write_agree_keep_genesis_and_never_see_a_siblings_speculation() {
    let config = DeploymentConfig::for_testing();
    let topo = config.topo.clone();
    let keys_of = |cluster| -> Vec<Key> {
        (0u32..)
            .map(Key::from_u32)
            .filter(|k| topo.partition_of(k) == cluster)
            .take(8)
            .collect()
    };
    // One writer per cluster: every partition takes writes, so every
    // replica copies the chunks those writes touch and shares the rest.
    let scripts: Vec<Vec<ClientOp>> = topo
        .clusters()
        .map(|cluster| {
            keys_of(cluster)[..6]
                .chunks(2)
                .enumerate()
                .map(|(i, pair)| ClientOp::ReadWrite {
                    reads: vec![],
                    writes: pair
                        .iter()
                        .map(|k| (k.clone(), Value::from(format!("w{i}").as_str())))
                        .collect(),
                })
                .collect()
        })
        .collect();
    let mut dep = Deployment::build(config, scripts);
    dep.run_until_done(SimTime(120_000_000));
    let depth = dep.config.node.tree_depth;
    for cluster in topo.clusters() {
        let replicas: Vec<ReplicaId> = topo.replicas_of(cluster).collect();
        let keys = keys_of(cluster);
        let applied = replicas
            .iter()
            .map(|&r| dep.node(r).exec.applied_batches())
            .min()
            .unwrap();
        let first = &dep.node(replicas[0]).exec;
        assert_ne!(
            first.tree.root_at(applied - 1),
            first.tree.root_at(0),
            "{cluster} applied no write"
        );
        for &r in &replicas {
            let exec = &dep.node(r).exec;
            for version in 0..applied {
                assert_eq!(
                    exec.tree.root_at(version),
                    first.tree.root_at(version),
                    "{r} at {version}"
                );
            }
            // Genesis still proves what was preloaded.
            for key in &keys {
                let (_, value) = dep.data.iter().find(|(k, _)| k == key).unwrap();
                let proof = exec.tree.prove_at(key, 0);
                assert_eq!(
                    verify_proof(&exec.tree.root_at(0), depth, key, &proof).unwrap(),
                    Verified::Present(value_digest(value)),
                    "{r}: genesis proof of {key:?}"
                );
            }
        }

        // A follower speculates on a batch writing a key no replica has
        // written (its chunk still shared), then rolls it back: once
        // because the batch's root is wrong, once after accepting it.
        let (sealer, follower) = (replicas[1], replicas[2]);
        let now = dep.sim.now();
        let txn = Transaction {
            id: TxnId::new(ClientId(u32::MAX), 0),
            reads: vec![],
            writes: vec![WriteOp {
                key: keys[7].clone(),
                value: Value::from("speculative"),
            }],
        };
        let sealer_exec = exec_mut(&mut dep, sealer);
        let slot = BatchNum(sealer_exec.applied_batches());
        let honest = sealer_exec.seal_batch(vec![txn], vec![], &[], now);
        sealer_exec.rollback_speculation();
        let mut forged = honest.clone();
        forged.header.merkle_root = Digest([0xEE; 32]);

        let reads = |dep: &Deployment| -> Vec<_> {
            replicas
                .iter()
                .map(|&r| {
                    let exec = &dep.node(r).exec;
                    let latest = exec.tree.latest_version();
                    let at = |version| {
                        (
                            exec.tree.root_at(version),
                            exec.tree.prove_multi(&keys, version),
                            exec.store.versions(&keys[7]).map(<[_]>::to_vec),
                        )
                    };
                    (latest, at(0), at(slot.0))
                })
                .collect()
        };
        let before = reads(&dep);
        let follower_exec = exec_mut(&mut dep, follower);
        assert_eq!(
            follower_exec.validate_batch(slot, &forged, now),
            Err(RejectReason::BadRoot)
        );
        assert!(
            reads(&dep) == before,
            "a rejected speculation stayed behind"
        );

        let follower_exec = exec_mut(&mut dep, follower);
        assert_eq!(follower_exec.validate_batch(slot, &honest, now), Ok(()));
        assert_eq!(
            follower_exec.tree.root_at(slot.0),
            honest.header.merkle_root
        );
        let during = reads(&dep);
        for (i, &r) in replicas.iter().enumerate() {
            if r == follower {
                assert!(during[i] != before[i], "{r} did not speculate");
            } else {
                assert!(during[i] == before[i], "{r} saw {follower}'s speculation");
            }
        }
        exec_mut(&mut dep, follower).rollback_speculation();
        assert!(
            reads(&dep) == before,
            "a rolled-back speculation stayed behind"
        );
    }
}

/// Replica `r`'s executor, to drive by hand.
fn exec_mut(dep: &mut Deployment, r: ReplicaId) -> &mut Executor {
    &mut dep
        .sim
        .actor_as_mut::<TransEdgeNode>(NodeId::Replica(r))
        .expect("a replica")
        .exec
}

/// A deployment with one edge per cluster and no client.
fn with_edges() -> (Deployment, EdgeId) {
    let mut config = DeploymentConfig::for_testing();
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .build()
        .expect("edge config");
    let dep = Deployment::build(config, vec![]);
    (dep, EdgeId::new(ClusterId(0), 0))
}

#[test]
#[should_panic(expected = "not running")]
fn crashing_an_edge_that_is_not_running_panics() {
    let (mut dep, edge) = with_edges();
    dep.crash_edge(edge);
    dep.crash_edge(edge);
}

#[test]
#[should_panic(expected = "duplicate actor")]
fn restarting_a_running_edge_panics() {
    let (mut dep, edge) = with_edges();
    dep.restart_edge(edge);
}
