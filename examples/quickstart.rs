//! Quickstart: bring up a two-cluster TransEdge deployment, run a
//! read-write transaction, then read it back with a *verified*
//! snapshot read-only transaction.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use transedge::common::{ClusterId, ClusterTopology, Key, SimTime, Value};
use transedge::core::client::ClientOp;
use transedge::core::setup::{Deployment, DeploymentConfig};

/// Pick `count` preloaded keys that live on `cluster`.
fn keys_on(topo: &ClusterTopology, cluster: ClusterId, count: usize) -> Vec<Key> {
    (0u32..10_000)
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == cluster)
        .take(count)
        .collect()
}

fn main() {
    // A deployment is described by one config: topology (clusters ×
    // 3f+1 replicas), network latency model, CPU cost model, and the
    // initial dataset. `for_testing()` is a small fast profile; swap in
    // `DeploymentConfig::default()` for the paper's 5×7 setup.
    let mut config = DeploymentConfig::for_testing();
    config.client.record_results = true;
    let topo = config.topo.clone();
    println!(
        "deployment: {} clusters × {} replicas (f = {})",
        topo.n_clusters(),
        topo.replicas_per_cluster(),
        topo.f()
    );

    // Clients run scripted operations. This script writes two keys on
    // different partitions in one distributed transaction, then reads
    // them back with a snapshot read-only transaction.
    let k0 = keys_on(&topo, ClusterId(0), 1)[0].clone();
    let k1 = keys_on(&topo, ClusterId(1), 1)[0].clone();
    let script = vec![
        ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![
                (k0.clone(), Value::from("hello from cluster 0")),
                (k1.clone(), Value::from("hello from cluster 1")),
            ],
        },
        ClientOp::ReadOnly {
            keys: vec![k0.clone(), k1.clone()],
        },
    ];

    let mut deployment = Deployment::build(config, vec![script]);
    deployment.run_until_done(SimTime(60_000_000)); // 60 simulated seconds

    let client = deployment.client(deployment.client_ids[0]);

    // The write committed through BFT consensus + 2PC:
    let write_sample = &client.samples[0];
    println!(
        "distributed write: committed={} in {:.2} ms (simulated)",
        write_sample.committed,
        write_sample.latency().as_millis_f64()
    );

    // The read-only transaction was commit-free (one node per
    // partition) and fully verified: batch certificates with f+1
    // replica signatures, Merkle proofs for every key, and dependency
    // vectors checked across partitions (Algorithm 2):
    let rot_sample = &client.samples[1];
    let rot = &client.query_results[0];
    println!(
        "snapshot read:     committed={} in {:.2} ms, round2={}, snapshot={:?}",
        rot_sample.committed,
        rot_sample.latency().as_millis_f64(),
        rot.needed_round2,
        rot.snapshot
    );
    for (key, value) in &rot.values {
        println!(
            "  {:?} -> {:?}",
            key,
            value
                .as_ref()
                .map(|v| String::from_utf8_lossy(v.as_bytes()).into_owned())
        );
    }
    assert_eq!(client.stats.verification_failures, 0);
    println!("all responses verified against f+1 signatures and Merkle proofs ✓");
}
