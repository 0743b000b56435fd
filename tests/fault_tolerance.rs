//! End-to-end fault tolerance: the whole stack (consensus view change,
//! 2PC recovery, signature-share re-aggregation, client retries) under
//! crash faults and message loss — scripted as declarative scenario
//! timelines and run under the invariant monitor, so every test also
//! proves no wrong value was ever read while the faults played out.

use transedge::common::{ClusterId, ClusterTopology, Key, ReplicaId, SimTime, Value};
use transedge::core::client::ClientOp;
use transedge::core::setup::{Deployment, DeploymentConfig};
use transedge::scenario::{InvariantMonitor, Scenario, ScenarioEvent, ScenarioRunner};

fn keys_on(topo: &ClusterTopology, cluster: ClusterId, count: usize) -> Vec<Key> {
    (0u32..10_000)
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == cluster)
        .take(count)
        .collect()
}

/// Build a one-client deployment, drive it through `scenario` under an
/// invariant monitor, and return it for the test's own assertions.
fn run_scenario(
    config: DeploymentConfig,
    ops: Vec<ClientOp>,
    scenario: Scenario,
    limit: SimTime,
) -> Deployment {
    let mut dep = Deployment::build(config, vec![ops.clone()]);
    let mut monitor = InvariantMonitor::new(&dep);
    monitor.note_ops(&ops);
    ScenarioRunner::new(scenario)
        .run(&mut dep, &mut monitor, limit)
        .unwrap_or_else(|v| panic!("invariant violated: {v}"));
    dep
}

#[test]
fn cluster_survives_crashed_follower() {
    // One replica of each cluster is dead from the start; 3 of 4 are
    // enough (f = 1) for everything to proceed at full function.
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 2);
    let k1 = keys_on(&topo, ClusterId(1), 2);
    let ops = vec![
        ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![
                (k0[0].clone(), Value::from("a")),
                (k1[0].clone(), Value::from("b")),
            ],
        },
        ClientOp::ReadOnly {
            keys: vec![k0[0].clone(), k1[0].clone()],
        },
    ];
    let scenario = Scenario::named("crashed-followers")
        .at(
            SimTime::ZERO,
            ScenarioEvent::ReplicaCrash {
                replica: ReplicaId::new(ClusterId(0), 3),
            },
        )
        .at(
            SimTime::ZERO,
            ScenarioEvent::ReplicaCrash {
                replica: ReplicaId::new(ClusterId(1), 3),
            },
        );
    let dep = run_scenario(config, ops, scenario, SimTime(120_000_000));
    let samples = dep.samples();
    assert_eq!(samples.len(), 2);
    assert!(samples.iter().all(|s| s.committed));
}

#[test]
fn read_only_path_survives_crashed_leader() {
    // The leader of cluster 1 dies mid-run. Reads that targeted it
    // retry against other replicas (any replica serves the commit-free
    // read path); the cluster elects a new leader for writes.
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.retry_after = transedge::common::SimDuration::from_millis(200);
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 2);
    // Write to cluster 0 (healthy), then read from cluster 0 only; the
    // crash of cluster 1's leader must not disturb this client at all.
    let ops = vec![
        ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![(k0[0].clone(), Value::from("safe"))],
        },
        ClientOp::ReadOnly {
            keys: vec![k0[0].clone()],
        },
    ];
    let scenario = Scenario::named("crashed-leader").at(
        SimTime(5_000),
        ScenarioEvent::ReplicaCrash {
            replica: ReplicaId::new(ClusterId(1), 0),
        },
    );
    let dep = run_scenario(config, ops, scenario, SimTime(120_000_000));
    assert!(dep.samples().iter().all(|s| s.committed));
}

#[test]
fn progress_resumes_after_leader_crash_mid_stream() {
    // A stream of local transactions to cluster 0 while its leader
    // crashes partway: the progress timers trigger a view change and
    // the remaining transactions commit under the new leader.
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.retry_after = transedge::common::SimDuration::from_millis(250);
    config.client.max_retries = 100;
    let topo = config.topo.clone();
    let keys = keys_on(&topo, ClusterId(0), 16);
    let ops: Vec<ClientOp> = (0..12)
        .map(|i| ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![(keys[i % keys.len()].clone(), Value::from("v"))],
        })
        .collect();
    // Crash the initial leader of cluster 0 at t = 20ms, mid-stream.
    let scenario = Scenario::named("leader-crash-mid-stream").at(
        SimTime(20_000),
        ScenarioEvent::ReplicaCrash {
            replica: ReplicaId::new(ClusterId(0), 0),
        },
    );
    let dep = run_scenario(config, ops, scenario, SimTime(300_000_000));
    let samples = dep.samples();
    assert_eq!(samples.len(), 12);
    let committed = samples.iter().filter(|s| s.committed).count();
    assert!(
        committed >= 10,
        "most transactions must survive the leader crash (committed {committed}/12)"
    );
    // The cluster really did rotate leaders.
    let survivor = dep.node(ReplicaId::new(ClusterId(0), 1));
    assert_ne!(
        survivor.cluster_leader(),
        ReplicaId::new(ClusterId(0), 0),
        "view change must have happened"
    );
}

#[test]
fn tolerates_message_loss() {
    // 2% of all messages silently dropped: retries and consensus
    // redundancy absorb it.
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.retry_after = transedge::common::SimDuration::from_millis(300);
    config.client.max_retries = 60;
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 8);
    let ops: Vec<ClientOp> = (0..8)
        .map(|i| ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![(k0[i % k0.len()].clone(), Value::from("lossy"))],
        })
        .collect();
    let scenario =
        Scenario::named("message-loss").at(SimTime::ZERO, ScenarioEvent::DropRate { p: 0.02 });
    let dep = run_scenario(config, ops, scenario, SimTime(600_000_000));
    let samples = dep.samples();
    let committed = samples.iter().filter(|s| s.committed).count();
    assert!(
        committed >= 6,
        "most transactions must get through 2% loss (committed {committed}/8)"
    );
}
