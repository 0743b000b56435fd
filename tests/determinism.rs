//! A run is a pure function of (config, seed) — also of nothing else.
//!
//! Every send draws its jitter from the simulation's one RNG, so any
//! loop that sends while walking a `HashMap`/`HashSet` lets the
//! process's per-instance hash seed reorder the draws and pick the
//! timeline. The shape that exposed it: a replica with **two** feed
//! subscribers (`publish_delta` sends to each), under jitter wide enough
//! for a swapped pair of draws to reorder deliveries.

use transedge::common::{ClusterId, ClusterTopology, Key, SimDuration, SimTime, Value};
use transedge::core::client::ClientOp;
use transedge::core::setup::{ClientPlan, Deployment, DeploymentConfig};
use transedge::core::{ClientProfile, EdgeConfig};
use transedge::crypto::{sha256, Digest, Sha256};

/// Ops per client: long enough for the two timelines on offer to
/// differ observably (at 10 / 20 they do not), short enough for a
/// debug build.
const WRITES: usize = 40;
const READS: usize = 60;

fn keys_on(topo: &ClusterTopology, cluster: ClusterId, count: usize) -> Vec<Key> {
    (0u32..10_000)
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == cluster)
        .take(count)
        .collect()
}

/// One writer churning eight keys of cluster 0 beside three subscribed
/// readers, five feed-fed edges per cluster over four replicas — edges
/// 0 and 4 subscribe to the same replica. Returns everything a
/// timeline difference would show in: the final clock, the hash of
/// every event's time, every sample's end, and the flight recorder's
/// hash.
fn run_once() -> (SimTime, Digest, Vec<SimTime>, Digest) {
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
    let mut clock = Sha256::new();
    while !dep.clients_done() {
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

/// Eight builds in one process: every `HashSet` instance gets its own
/// hash seed, so eight agreeing runs had eight chances to disagree. A
/// two-element set has two orders, so two timelines were on offer and
/// eight builds all land on one of them by luck once in 128 tries. (On
/// threads only to halve the wait; each build is single-threaded.)
#[test]
fn one_config_and_seed_give_one_timeline_across_hash_seeds() {
    let runs: Vec<_> = std::thread::scope(|s| {
        let builds: Vec<_> = (0..8).map(|_| s.spawn(run_once)).collect();
        builds
            .into_iter()
            .map(|b| b.join().expect("build panicked"))
            .collect()
    });
    assert_eq!(runs[0].2.len(), WRITES + 3 * READS);
    for (build, run) in runs.iter().enumerate() {
        assert_eq!(run, &runs[0], "build {build} took a different timeline");
    }
}
