//! Property tests of the causal-trace plane: every hop of a
//! scatter-gather read under a byzantine edge must land in one
//! connected span tree — forward, rejection, demotion, and retry
//! included — with no orphaned spans, regardless of query width or
//! script length.

use proptest::prelude::*;
use transedge_common::{ClusterId, ClusterTopology, EdgeId, Key, NodeId, SimTime};
use transedge_core::client::ClientOp;
use transedge_core::edge_node::EdgeBehavior;
use transedge_core::setup::{Deployment, DeploymentConfig};
use transedge_core::EdgeConfig;
use transedge_obs::{CompletedTrace, SpanPhase, TraceId};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A scatter read fanned out over two partitions, one fronted by a
    /// value-tampering edge: some completed trace must witness the
    /// whole episode — the edge's upstream forward, the client's
    /// rejection, the liar's demotion, and the replica retry — and
    /// every recorded trace must be a single connected tree.
    #[test]
    fn byzantine_scatter_reads_leave_one_connected_trace(
        n_keys0 in 1usize..3,
        n_keys1 in 1usize..3,
        ops in 3usize..6,
    ) {
        let mut config = DeploymentConfig::for_testing();
        config.client.record_results = true;
        let byz = EdgeId::new(ClusterId(0), 0);
        config.edge = EdgeConfig::builder()
            .per_cluster(1)
            .byzantine(byz, EdgeBehavior::TamperValue)
            .build()
            .expect("edge config");
        let topo = config.topo.clone();
        let mut keys = keys_on(&topo, ClusterId(0), n_keys0);
        keys.extend(keys_on(&topo, ClusterId(1), n_keys1));
        let script: Vec<ClientOp> = (0..ops)
            .map(|_| ClientOp::ReadOnly { keys: keys.clone() })
            .collect();
        let mut dep = Deployment::build(config, vec![script]);
        dep.run_until_done(SimTime(600_000_000));

        let client = dep.client(dep.client_ids[0]);
        prop_assert!(client.stats.verification_failures >= 1);
        prop_assert_eq!(client.query_results.len(), ops);

        let traces = dep.completed_traces();
        // One completed trace per finished operation, each frozen with
        // the op-indexed deterministic id.
        prop_assert_eq!(traces.len(), ops);
        for (i, trace) in traces.iter().enumerate() {
            prop_assert_eq!(trace.trace, TraceId::for_op(0, i as u32));
            assert_well_formed(trace);
            // Every op crossed the wire and was served and verified.
            prop_assert!(trace.spans_of(SpanPhase::Wire).next().is_some());
            prop_assert!(trace.spans_of(SpanPhase::Serve).next().is_some());
            prop_assert!(trace.spans_of(SpanPhase::Verify).next().is_some());
        }
        // The byzantine episode is fully witnessed by at least one
        // trace: cold-cache forward at the edge, rejected response at
        // the client, demotion gossip, and the replica retry.
        for label in ["forward", "rejected", "demoted", "retry"] {
            prop_assert!(
                traces.iter().any(|t| t.has_label(label)),
                "no trace carries a {label:?} span"
            );
        }
        // The whole episode lands in one tree at least once.
        prop_assert!(
            traces.iter().any(|t| t.has_label("forward")
                && t.has_label("rejected")
                && t.has_label("demoted")
                && t.has_label("retry")),
            "no single trace covers forward + rejection + demotion + retry"
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
    config.client.single_contact = true;
    config.edge = EdgeConfig::honest(1);
    let topo = config.topo.clone();
    let mut keys = keys_on(&topo, ClusterId(0), 2);
    keys.extend(keys_on(&topo, ClusterId(1), 2));
    let script: Vec<ClientOp> = (0..OPS)
        .map(|_| ClientOp::ReadOnly { keys: keys.clone() })
        .collect();
    let mut dep = Deployment::build(config, vec![script]);
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
