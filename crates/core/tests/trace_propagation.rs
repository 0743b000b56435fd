//! The causal-trace plane of an edge read: every hop of a
//! single-contact read lands in one connected span tree. The byzantine
//! counterpart (`byzantine_scatter_reads_leave_one_connected_trace`)
//! lives in the root package's `tests/observability.rs`, beside the
//! liar it needs.

use transedge_common::{ClusterId, ClusterTopology, EdgeId, Key, NodeId, SimTime};
use transedge_core::client::ClientOp;
use transedge_core::setup::{ClientPlan, Deployment, DeploymentConfig};
use transedge_core::{ClientProfile, EdgeConfig};
use transedge_obs::{CompletedTrace, SpanPhase};

fn keys_on(topo: &ClusterTopology, cluster: ClusterId, count: usize) -> Vec<Key> {
    (0u32..10_000)
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == cluster)
        .take(count)
        .collect()
}

/// Structural well-formedness of one frozen trace: roots and parents
/// resolve (no orphans), every span carries the trace's id, and no
/// span starts before the operation was minted.
fn assert_well_formed(trace: &CompletedTrace) {
    assert!(
        trace.is_connected(),
        "orphaned spans in {:?}: {:#?}",
        trace.trace,
        trace.spans
    );
    let minted = trace.root_span().start;
    for span in &trace.spans {
        assert_eq!(span.trace, trace.trace, "span leaked across traces");
        assert!(
            span.start >= minted,
            "span {:?} starts before its operation",
            span.id
        );
    }
}

/// A single-contact read is one tree too: the contact serves the
/// split sub-queries inside the handler that received the query, so
/// every forward hangs directly under that one serve span — no
/// self-addressed hop sits between the gather and its parts.
#[test]
fn single_contact_sub_queries_hang_under_the_gather_serve_span() {
    const OPS: usize = 3;
    let mut config = DeploymentConfig::for_testing();
    config.edge = EdgeConfig::honest(1);
    let topo = config.topo.clone();
    let mut keys = keys_on(&topo, ClusterId(0), 2);
    keys.extend(keys_on(&topo, ClusterId(1), 2));
    let script: Vec<ClientOp> = (0..OPS)
        .map(|_| ClientOp::ReadOnly { keys: keys.clone() })
        .collect();
    let plan = ClientPlan::with_profile(script, ClientProfile::new().single_contact());
    let mut dep = Deployment::build_custom(config, vec![plan]);
    dep.run_until_done(SimTime(600_000_000));

    let traces = dep.completed_traces();
    assert_eq!(traces.len(), OPS);
    let contact = NodeId::Edge(EdgeId::new(ClusterId(0), 0));
    for trace in &traces {
        assert_well_formed(trace);
        // The contact handled exactly one traced message per read: the
        // whole query, parented under the client's root.
        let serves: Vec<_> = trace
            .spans_of(SpanPhase::Serve)
            .filter(|s| s.node == contact && s.label == "read-point")
            .collect();
        assert_eq!(serves.len(), 1, "{:#?}", trace.spans);
        assert_eq!(serves[0].parent, Some(trace.root));
        assert!(
            trace
                .spans_of(SpanPhase::Wire)
                .all(|s| s.node != contact || s.parent == Some(trace.root)),
            "the only traced message to the contact is the client's"
        );
    }
    // The first read is cold: both parts miss and are forwarded, each
    // forward marker and its wire hop a direct child of the gather's
    // serve span.
    let cold = &traces[0];
    let gather = cold
        .spans_of(SpanPhase::Serve)
        .find(|s| s.node == contact && s.label == "read-point")
        .expect("checked above");
    let under_gather = |phase, label| {
        cold.spans_of(phase)
            .filter(|s| s.label == label && s.parent == Some(gather.id))
            .count()
    };
    assert_eq!(under_gather(SpanPhase::Serve, "forward"), 2);
    assert_eq!(under_gather(SpanPhase::Wire, "read-point"), 2);
}
