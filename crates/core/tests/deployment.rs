//! Deployment-level invariants: genesis certification, determinism,
//! configuration plumbing, and one signature memo per actor.

use transedge_common::{BatchNum, ClientId, ClusterId, Key, ReplicaId, SimTime, Value};
use transedge_core::client::ClientOp;
use transedge_core::setup::{generate_data, Deployment, DeploymentConfig};
use transedge_crypto::SigStats;

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
