//! The observability plane end to end: deterministic causal traces,
//! the unified metric registry, the Chrome-trace exporter, and the
//! flight recorder dumped when an invariant violation aborts a
//! scenario campaign.

use transedge::common::{ClusterId, ClusterTopology, EdgeId, Key, SimTime, Value};
use transedge::core::client::ClientOp;
use transedge::core::setup::{Deployment, DeploymentConfig};
use transedge::core::EdgeConfig;
use transedge::obs::{breakdown_at_percentile, SpanPhase, TraceId};
use transedge::scenario::{
    InvariantMonitor, InvariantViolation, Scenario, ScenarioEvent, ScenarioRunner,
};

fn keys_on(topo: &ClusterTopology, cluster: ClusterId, count: usize) -> Vec<Key> {
    (0u32..10_000)
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == cluster)
        .take(count)
        .collect()
}

fn rot_deployment(ops: usize) -> Deployment {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    config.edge = EdgeConfig::honest(1);
    let topo = config.topo.clone();
    let keys: Vec<Key> = keys_on(&topo, ClusterId(0), 2)
        .into_iter()
        .chain(keys_on(&topo, ClusterId(1), 2))
        .collect();
    let script: Vec<ClientOp> = (0..ops)
        .map(|_| ClientOp::ReadOnly { keys: keys.clone() })
        .collect();
    Deployment::build(config, vec![script])
}

/// Every completed read leaves one connected, bit-deterministic trace;
/// two identical runs freeze identical flight recorders.
#[test]
fn traces_are_deterministic_across_runs() {
    let export = |mut dep: Deployment| {
        dep.run_until_done(SimTime(600_000_000));
        let traces = dep.completed_traces();
        assert_eq!(traces.len(), 8);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(t.trace, TraceId::for_op(0, i as u32));
            assert!(t.is_connected(), "orphaned span in {:?}", t.trace);
            assert!(t.end_to_end() > transedge::common::SimDuration(0));
        }
        dep.export_trace()
    };
    let a = export(rot_deployment(8));
    let b = export(rot_deployment(8));
    assert_eq!(a, b, "tracing must be bit-identical run to run");
    assert!(a.starts_with("{\"traceEvents\":["));
    assert!(a.contains("thread_name"));
}

/// The per-phase breakdown of the p95 trace sums exactly to its
/// end-to-end latency (wire is the residual by construction).
#[test]
fn phase_breakdown_sums_to_end_to_end() {
    let mut dep = rot_deployment(10);
    dep.run_until_done(SimTime(600_000_000));
    let traces = dep.completed_traces();
    let b = breakdown_at_percentile(&traces, 0.95).expect("completed traces");
    assert!(b.e2e_us > 0);
    assert_eq!(
        b.components_sum_us(),
        b.e2e_us,
        "phases must decompose the picked trace exactly"
    );
}

/// The unified registry rolls every node's counters into one place:
/// per-node scopes plus fleet-wide sums, with the network plane's
/// per-message-kind counters alongside.
#[test]
fn metric_registry_unifies_node_and_net_counters() {
    let mut dep = rot_deployment(6);
    dep.run_until_done(SimTime(600_000_000));
    let reg = dep.metrics();
    // Client counters, per scope and fleet-wide.
    assert_eq!(reg.counter_value("client-0", "client.gave_up"), 0);
    assert!(reg.fleet_counter("query.read_result_bytes") > 0);
    // Replica serving counters.
    assert!(reg.fleet_counter("node.rot_served") > 0);
    // Edge serving counters (edges deployed by for_testing's config).
    assert!(reg.fleet_counter("edge.requests") > 0);
    // The network plane: total and per-kind message counters.
    assert!(reg.fleet_counter("messages_sent") > 0);
    assert!(reg.counter_value("net", "net.read-point.messages") > 0);
    assert!(reg.counter_value("net", "net.read-result-point.bytes") > 0);
    // Scopes are enumerable (clients + edges + replicas + net).
    assert!(reg.scopes().len() >= 4);
}

/// A campaign-aborting invariant violation dumps the flight recorder,
/// and the dump contains the complete trace of the offending read —
/// its serve span at the lying coalition edge and the client's verify
/// spans included. The lie is manufactured by scripting a write the
/// monitor is never told about, read back through an active coalition
/// edge.
#[test]
fn violation_dump_contains_offending_read_trace() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    let liar = EdgeId::new(ClusterId(0), 0);
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let key = keys_on(&topo, ClusterId(0), 1).remove(0);
    // One write the monitor never learns of, then the offending read.
    let script = vec![
        ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![(key.clone(), Value::from("coalition-bait"))],
        },
        ClientOp::ReadOnly { keys: vec![key] },
    ];
    let mut dep = Deployment::build(config, vec![script]);
    let mut monitor = InvariantMonitor::new(&dep);
    // Deliberately NOT noting the script's write: reading it back is
    // the manufactured "wrong value" the monitor must catch.
    let scenario = Scenario::named("obs-violation").at(
        SimTime(1_000),
        ScenarioEvent::CoalitionActivate {
            members: vec![liar],
        },
    );
    let err = ScenarioRunner::new(scenario)
        .run(&mut dep, &mut monitor, SimTime(600_000_000))
        .expect_err("the un-noted write must trip the monitor");
    assert!(
        matches!(err, InvariantViolation::WrongValue { .. }),
        "unexpected violation {err:?}"
    );
    // The flight recorder holds the offending read's complete trace.
    let traces = dep.completed_traces();
    let read = traces
        .iter()
        .find(|t| t.trace == TraceId::for_op(0, 1))
        .expect("the offending read's trace is in the flight recorder");
    assert!(read.is_connected());
    assert!(
        read.spans_of(SpanPhase::Serve).next().is_some(),
        "dump must include the serve span(s) of the lying read"
    );
    assert!(
        read.spans_of(SpanPhase::Verify).next().is_some(),
        "dump must include the client's verify span(s)"
    );
    // The coalition lie itself was caught and witnessed in the tree.
    assert!(read.has_label("rejected"), "the lie's rejection is traced");
    // And the dump the runner printed is exactly this serialisation.
    let dump = dep.export_trace();
    assert!(dump.contains("\"cat\":\"serve\""));
    assert!(dump.contains("\"cat\":\"verify\""));
}
