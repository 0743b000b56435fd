//! A run is a pure function of (config, seed) — also of nothing else.
//!
//! Every send draws its jitter from the simulation's one RNG, so any
//! loop that sends while walking a `HashMap`/`HashSet` lets the
//! process's per-instance hash seed reorder the draws and pick the
//! timeline. The shape that exposed it: a replica with **two** feed
//! subscribers (`publish_delta` sends to each), under jitter wide enough
//! for a swapped pair of draws to reorder deliveries. The second config
//! takes the consensus fault paths the first never reaches: a crashed
//! leader (view change, `NewView` vote list, reproposal pick) under
//! message loss (a replica that missed a proposal asks an accepter for
//! state).

use transedge::common::{ClusterId, ClusterTopology, Key, ReplicaId, SimDuration, SimTime, Value};
use transedge::core::client::ClientOp;
use transedge::core::setup::{ClientPlan, Deployment, DeploymentConfig};
use transedge::core::{ClientProfile, EdgeConfig};
use transedge::crypto::{sha256, Digest, Sha256};

/// Ops per client: long enough for the two timelines on offer to
/// differ observably (at 10 / 20 they do not), short enough for a
/// debug build.
const WRITES: usize = 40;
const READS: usize = 60;
/// Writes per client in the leader-crash config.
const CRASH_WRITES: usize = 8;

fn keys_on(topo: &ClusterTopology, cluster: ClusterId, count: usize) -> Vec<Key> {
    (0u32..10_000)
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == cluster)
        .take(count)
        .collect()
}

/// Everything a timeline difference would show in: the final clock, the
/// hash of every event's time, every sample's end, and the flight
/// recorder's hash.
type Fingerprint = (SimTime, Digest, Vec<SimTime>, Digest);

/// Step `dep` until its clients finish, crashing `crash.1` once the
/// clock reaches `crash.0`.
fn drive(dep: &mut Deployment, mut crash: Option<(SimTime, ReplicaId)>) -> Fingerprint {
    let mut clock = Sha256::new();
    while !dep.clients_done() {
        if let Some((_, replica)) = crash.filter(|(at, _)| dep.sim.now() >= *at) {
            dep.crash_replica(replica);
            crash = None;
        }
        assert!(dep.sim.step(), "quiesced with clients pending");
        clock.update(&dep.sim.now().0.to_le_bytes());
    }
    let ends = dep
        .client_ids
        .iter()
        .flat_map(|id| dep.client(*id).samples.iter().map(|s| s.end))
        .collect();
    let trace = sha256(dep.export_trace().as_bytes());
    (dep.sim.now(), clock.finalize(), ends, trace)
}

/// One writer churning eight keys of cluster 0 beside three subscribed
/// readers, five feed-fed edges per cluster over four replicas — edges
/// 0 and 4 subscribe to the same replica.
fn two_subscribers_once() -> Fingerprint {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.latency.jitter_frac = 0.9;
    config.edge = EdgeConfig::builder()
        .per_cluster(5)
        .commit_feed(SimDuration::from_millis(50))
        .build()
        .expect("edge config");
    assert_eq!(config.topo.replicas_per_cluster(), 4);
    let keys = keys_on(&config.topo, ClusterId(0), 8);
    let writer: Vec<ClientOp> = (0..WRITES)
        .map(|i| ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![(keys[i % 8].clone(), Value::from("w"))],
        })
        .collect();
    let mut plans = vec![ClientPlan::ops(writer)];
    for reader in 0..3 {
        let ops = (0..READS)
            .map(|i| ClientOp::ReadOnly {
                keys: vec![keys[(reader + i) % 8].clone()],
            })
            .collect();
        plans.push(ClientPlan::with_profile(
            ops,
            ClientProfile::new().subscriber(),
        ));
    }
    let mut dep = Deployment::build_custom(config, plans);
    drive(&mut dep, None)
}

/// Three writers streaming local transactions at cluster 0 while 5 % of
/// all messages are lost and the cluster's leader crashes at 300 ms: the
/// survivors change view, and a replica that lost a proposal but saw
/// its accept quorum asks an accepter for the decided prefix.
fn leader_crash_once() -> Fingerprint {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.latency.jitter_frac = 0.9;
    config.node.leader_timeout = SimDuration::from_millis(100);
    config.client.retry_after = SimDuration::from_millis(250);
    config.client.max_retries = 100;
    let keys = keys_on(&config.topo, ClusterId(0), 16);
    let plans = (0..3)
        .map(|writer| {
            let ops = (0..CRASH_WRITES)
                .map(|i| ClientOp::ReadWrite {
                    reads: vec![],
                    writes: vec![(keys[(5 * writer + i) % 16].clone(), Value::from("w"))],
                })
                .collect();
            ClientPlan::ops(ops)
        })
        .collect();
    let mut dep = Deployment::build_custom(config, plans);
    dep.set_drop_prob(0.05);
    let leader = ReplicaId::new(ClusterId(0), 0);
    let run = drive(&mut dep, Some((SimTime(300_000), leader)));
    let survivor = dep.node(ReplicaId::new(ClusterId(0), 1));
    assert_ne!(survivor.cluster_leader(), leader, "no view change");
    assert!(
        dep.sim.stats().kind("state-request").messages > 0,
        "no replica asked for state"
    );
    run
}

/// Eight builds in one process: every `HashSet` instance gets its own
/// hash seed, so eight agreeing runs had eight chances to disagree. (On
/// threads only to halve the wait; each build is single-threaded.)
fn eight_builds(run_once: fn() -> Fingerprint) -> Fingerprint {
    let runs: Vec<_> = std::thread::scope(|s| {
        let builds: Vec<_> = (0..8).map(|_| s.spawn(run_once)).collect();
        builds
            .into_iter()
            .map(|b| b.join().expect("build panicked"))
            .collect()
    });
    for (build, run) in runs.iter().enumerate() {
        assert_eq!(run, &runs[0], "build {build} took a different timeline");
    }
    runs.into_iter().next().expect("eight runs")
}

/// A two-element set has two orders, so two timelines were on offer and
/// eight builds all land on one of them by luck once in 128 tries.
#[test]
fn one_config_and_seed_give_one_timeline_across_hash_seeds() {
    let run = eight_builds(two_subscribers_once);
    assert_eq!(run.2.len(), WRITES + 3 * READS);
}

#[test]
fn a_leader_crash_under_message_loss_gives_one_timeline_across_hash_seeds() {
    let run = eight_builds(leader_crash_once);
    assert_eq!(run.2.len(), 3 * CRASH_WRITES);
}
