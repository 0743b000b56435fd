//! System-level check of an edge restart. An edge keeps nothing across
//! a crash: its caches are derived from answers the replicas can give
//! again, so a restarted edge comes back exactly as it first booted,
//! empty, and pays the upstream fetches that refill it.

use transedge::common::{ClusterId, ClusterTopology, EdgeId, Key, SimDuration, SimTime};
use transedge::core::client::ClientOp;
use transedge::core::setup::{ClientPlan, Deployment, DeploymentConfig};
use transedge::core::{ClientProfile, EdgeConfig};

fn keys_on(topo: &ClusterTopology, cluster: ClusterId, count: usize) -> Vec<Key> {
    (0u32..10_000)
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == cluster)
        .take(count)
        .collect()
}

/// Crash time: late enough that the warm-up client has finished.
const CRASH_AT: SimTime = SimTime(5_000_000);
/// The probe client starts after the crash/restart cycle.
const PROBE_DELAY: SimDuration = SimDuration::from_millis(8_000);
const LIMIT: SimTime = SimTime(600_000_000);

/// A deployment with one edge per cluster where client 0 warms cluster
/// 0's edge with six reads of three keys from t = 0, and client 1
/// repeats the same reads starting only after [`CRASH_AT`].
fn warm_then_probe() -> Deployment {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .build()
        .expect("edge config");
    let rot_keys = keys_on(&config.topo, ClusterId(0), 3);
    let script: Vec<ClientOp> = (0..6)
        .map(|_| ClientOp::ReadOnly {
            keys: rot_keys.clone(),
        })
        .collect();
    Deployment::build_custom(
        config,
        vec![
            ClientPlan::ops(script.clone()),
            ClientPlan::with_profile(script, ClientProfile::new().start_delay(PROBE_DELAY)),
        ],
    )
}

/// Every value the probe client verified matches committed state.
fn assert_probe_clean(dep: &Deployment) {
    let probe = dep.client(dep.client_ids[1]);
    assert_eq!(probe.stats.verification_failures, 0);
    assert_eq!(probe.stats.gave_up, 0);
    assert_eq!(probe.query_results.len(), 6);
    let expected = dep.data.clone();
    for rot in &probe.query_results {
        for (key, value) in &rot.values {
            let want = expected.iter().find(|(x, _)| x == key).map(|(_, v)| v);
            assert_eq!(
                value.as_ref(),
                want,
                "verified value matches committed state"
            );
        }
    }
}

/// A crashed edge restarts cold: it comes back holding nothing, the
/// probe's reads of keys the warm-up had cached go upstream, and every
/// value the probe verifies is the committed one.
#[test]
fn cold_restart_control_fetches_from_replicas() {
    let mut dep = warm_then_probe();
    let e0 = EdgeId::new(ClusterId(0), 0);
    dep.run_until(CRASH_AT);
    assert!(
        !dep.edge_node(e0).cached_answers().is_empty(),
        "the warm-up workload must have cached answers"
    );

    dep.crash_edge(e0);
    dep.restart_edge(e0);
    assert!(
        dep.edge_node(e0).cached_answers().is_empty(),
        "nothing survives the crash"
    );
    dep.run_until_done(LIMIT);

    let edge = dep.edge_node(e0);
    assert!(
        edge.stats.forwarded > 0,
        "cold restart must pay at least one replica fetch"
    );
    assert_probe_clean(&dep);
}
