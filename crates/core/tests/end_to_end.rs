//! End-to-end protocol tests on a small simulated deployment:
//! 2 clusters × 4 replicas (f = 1), instant network, free CPU.

use transedge_common::{
    BatchNum, ClientId, ClusterId, ClusterTopology, Key, NodeId, ReplicaId, SimDuration, SimTime,
    TxnId, Value,
};
use transedge_core::client::ClientOp;
use transedge_core::messages::NetMsg;
use transedge_core::metrics::OpKind;
use transedge_core::setup::{Deployment, DeploymentConfig};
use transedge_crypto::Signature;

/// Find `count` keys belonging to `cluster` from the preloaded range.
fn keys_on(topo: &ClusterTopology, cluster: ClusterId, count: usize, skip: usize) -> Vec<Key> {
    (0u32..10_000)
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == cluster)
        .skip(skip)
        .take(count)
        .collect()
}

fn limit() -> SimTime {
    SimTime(SimTime::ZERO.0 + 60_000_000) // 60 simulated seconds
}

#[test]
fn local_transaction_commits() {
    let config = DeploymentConfig::for_testing();
    let topo = config.topo.clone();
    let keys = keys_on(&topo, ClusterId(0), 2, 0);
    let ops = vec![ClientOp::ReadWrite {
        reads: vec![keys[0].clone()],
        writes: vec![(keys[1].clone(), Value::from("new-value"))],
    }];
    let mut dep = Deployment::build(config, vec![ops]);
    dep.run_until_done(limit());
    let samples = dep.samples();
    assert_eq!(samples.len(), 1);
    assert!(samples[0].committed, "local txn must commit");
    assert_eq!(samples[0].kind, OpKind::LocalReadWrite);
}

#[test]
fn write_only_transaction_commits() {
    let config = DeploymentConfig::for_testing();
    let topo = config.topo.clone();
    let keys = keys_on(&topo, ClusterId(1), 3, 0);
    let ops = vec![ClientOp::ReadWrite {
        reads: vec![],
        writes: keys.iter().map(|k| (k.clone(), Value::from("w"))).collect(),
    }];
    let mut dep = Deployment::build(config, vec![ops]);
    dep.run_until_done(limit());
    let samples = dep.samples();
    assert_eq!(samples.len(), 1);
    assert!(samples[0].committed);
    assert_eq!(samples[0].kind, OpKind::LocalWriteOnly);
}

#[test]
fn distributed_transaction_commits_across_clusters() {
    let config = DeploymentConfig::for_testing();
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 2, 0);
    let k1 = keys_on(&topo, ClusterId(1), 2, 0);
    let ops = vec![ClientOp::ReadWrite {
        reads: vec![k0[0].clone(), k1[0].clone()],
        writes: vec![
            (k0[1].clone(), Value::from("x")),
            (k1[1].clone(), Value::from("y")),
        ],
    }];
    let mut dep = Deployment::build(config, vec![ops]);
    dep.run_until_done(limit());
    let samples = dep.samples();
    assert_eq!(samples.len(), 1);
    assert!(samples[0].committed, "distributed txn must commit");
    assert_eq!(samples[0].kind, OpKind::DistributedReadWrite);
}

#[test]
fn read_only_transaction_returns_verified_values() {
    let mut config = DeploymentConfig::for_testing();
    config.client.record_results = true;
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 1, 0);
    let k1 = keys_on(&topo, ClusterId(1), 1, 0);
    // First write fresh values, then read them back via a ROT.
    let ops = vec![
        ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![
                (k0[0].clone(), Value::from("fresh-0")),
                (k1[0].clone(), Value::from("fresh-1")),
            ],
        },
        ClientOp::ReadOnly {
            keys: vec![k0[0].clone(), k1[0].clone()],
        },
    ];
    let mut dep = Deployment::build(config, vec![ops]);
    dep.run_until_done(limit());
    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.samples.len(), 2);
    assert!(client.samples.iter().all(|s| s.committed));
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.stats.third_round_needed, 0);
    let rot = &client.query_results[0];
    let get = |k: &Key| {
        rot.values
            .iter()
            .find(|(key, _)| key == k)
            .and_then(|(_, v)| v.clone())
    };
    assert_eq!(get(&k0[0]), Some(Value::from("fresh-0")));
    assert_eq!(get(&k1[0]), Some(Value::from("fresh-1")));
}

#[test]
fn read_only_sees_consistent_snapshot_of_preloaded_data() {
    let mut config = DeploymentConfig::for_testing();
    config.client.record_results = true;
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 2, 2);
    let k1 = keys_on(&topo, ClusterId(1), 2, 2);
    let all: Vec<Key> = k0.iter().chain(k1.iter()).cloned().collect();
    let ops = vec![ClientOp::ReadOnly { keys: all.clone() }];
    let mut dep = Deployment::build(config, vec![ops]);
    let ground_truth: Vec<(Key, Value)> = dep.data.clone();
    dep.run_until_done(limit());
    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    let rot = &client.query_results[0];
    for key in &all {
        let expected = ground_truth
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone());
        let got = rot
            .values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap();
        assert_eq!(got, expected, "key {key:?}");
    }
}

#[test]
fn conflicting_transactions_one_aborts() {
    let config = DeploymentConfig::for_testing();
    let topo = config.topo.clone();
    let contested = keys_on(&topo, ClusterId(0), 1, 5);
    // Two clients race: both read the same key at its initial version
    // and write it. OCC admits the first and rejects the second (the
    // second client's read version is stale by the time it commits, or
    // it conflicts with the in-progress batch).
    let op = |tag: &str| {
        vec![ClientOp::ReadWrite {
            reads: vec![contested[0].clone()],
            writes: vec![(contested[0].clone(), Value::from(tag))],
        }]
    };
    let mut dep = Deployment::build(config, vec![op("a"), op("b")]);
    dep.run_until_done(limit());
    let samples = dep.samples();
    assert_eq!(samples.len(), 2);
    let committed = samples.iter().filter(|s| s.committed).count();
    assert_eq!(committed, 1, "exactly one of the racers commits");
}

#[test]
fn sequential_transactions_see_each_other() {
    let mut config = DeploymentConfig::for_testing();
    config.client.record_results = true;
    let topo = config.topo.clone();
    let key = keys_on(&topo, ClusterId(0), 1, 7);
    let ops = vec![
        ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![(key[0].clone(), Value::from("v1"))],
        },
        ClientOp::ReadWrite {
            reads: vec![key[0].clone()],
            writes: vec![(key[0].clone(), Value::from("v2"))],
        },
        ClientOp::ReadOnly {
            keys: vec![key[0].clone()],
        },
    ];
    let mut dep = Deployment::build(config, vec![ops]);
    dep.run_until_done(limit());
    let client = dep.client(dep.client_ids[0]);
    assert!(client.samples.iter().all(|s| s.committed));
    // The read-write txn observed v1.
    let outcome = &client.txn_outcomes[1];
    assert_eq!(outcome.reads[0].1, Some(Value::from("v1")));
    // The final ROT observes v2.
    let rot = &client.query_results[0];
    assert_eq!(rot.values[0].1, Some(Value::from("v2")));
}

#[test]
fn many_clients_mixed_workload_all_conclude() {
    let config = DeploymentConfig::for_testing();
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 40, 0);
    let k1 = keys_on(&topo, ClusterId(1), 40, 0);
    let mut all_ops = Vec::new();
    for c in 0..4usize {
        let mut ops = Vec::new();
        for i in 0..5usize {
            let a = k0[(c * 5 + i) % k0.len()].clone();
            let b = k1[(c * 5 + i) % k1.len()].clone();
            ops.push(ClientOp::ReadWrite {
                reads: vec![a.clone()],
                writes: vec![(b.clone(), Value::from("m"))],
            });
            ops.push(ClientOp::ReadOnly { keys: vec![a, b] });
        }
        all_ops.push(ops);
    }
    let mut dep = Deployment::build(
        config,
        vec![
            all_ops[0].clone(),
            all_ops[1].clone(),
            all_ops[2].clone(),
            all_ops[3].clone(),
        ],
    );
    dep.run_until_done(limit());
    let samples = dep.samples();
    assert_eq!(samples.len(), 40);
    // ROTs never abort (commit-free, non-interfering).
    for s in samples.iter().filter(|s| s.kind == OpKind::ReadOnly) {
        assert!(s.committed);
    }
    // No client saw a verification failure or a third round.
    for id in &dep.client_ids {
        let c = dep.client(*id);
        assert_eq!(c.stats.verification_failures, 0);
        assert_eq!(c.stats.third_round_needed, 0);
    }
}

/// Prepared-record shares live only while their prepare group waits:
/// during a cross-partition run (plus one share for a transaction
/// nothing prepared) no replica holds shares for more batches than it
/// has undrained groups, and once every group drained none holds any.
/// The shares past each record's `f+1` are counted as never checked.
#[test]
fn share_state_is_dropped_with_its_prepare_group() {
    let config = DeploymentConfig::for_testing();
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 8, 0);
    let k1 = keys_on(&topo, ClusterId(1), 8, 0);
    let scripts = (0..3)
        .map(|c| {
            (0..6)
                .map(|i| {
                    let k = (3 * c + i) % 8;
                    ClientOp::ReadWrite {
                        reads: vec![],
                        writes: vec![
                            (k0[k].clone(), Value::from("s")),
                            (k1[k].clone(), Value::from("s")),
                        ],
                    }
                })
                .collect()
        })
        .collect();
    let mut dep = Deployment::build(config, scripts);
    // A share for a transaction no batch prepared starts no gathering.
    let leader = ReplicaId::new(ClusterId(0), 0);
    dep.sim.inject(
        NodeId::Replica(ReplicaId::new(ClusterId(0), 1)),
        NodeId::Replica(leader),
        NetMsg::SegmentSigs {
            batch: BatchNum(0),
            prepared_sigs: vec![(TxnId::new(ClientId(99), 0), Signature([7; 64]))],
        },
    );
    let replicas: Vec<ReplicaId> = topo.all_replicas().collect();
    while !dep.clients_done() {
        assert!(dep.sim.step(), "quiesced with clients pending");
        for r in &replicas {
            let node = dep.node(*r);
            assert!(
                node.share_batches().len() <= node.exec.prepared_batches.group_count(),
                "{r} holds shares beyond its undrained prepare groups"
            );
        }
    }
    assert!(dep.samples().iter().any(|s| s.committed));
    let settled = SimTime(dep.sim.now().0 + SimDuration::from_secs(1).as_micros());
    dep.run_until(settled);
    for r in &replicas {
        let node = dep.node(*r);
        assert!(
            node.exec.prepared_batches.is_empty(),
            "{r} has a waiting group"
        );
        assert_eq!(node.share_batches().len(), 0, "{r} holds shares");
    }
    assert!(dep.metrics().fleet_counter("node.shares_never_verified") > 0);
}
