//! The observability plane end to end: deterministic causal traces,
//! the unified metric registry, the Chrome-trace exporter, and the
//! flight recorder dumped when an invariant violation aborts a
//! scenario campaign.

use proptest::prelude::*;
use transedge::common::{
    ClusterId, ClusterTopology, EdgeId, Key, NodeId, SimDuration, SimTime, Value,
};
use transedge::core::client::ClientOp;
use transedge::core::setup::{Deployment, DeploymentConfig};
use transedge::core::EdgeConfig;
use transedge::obs::{breakdown_at_percentile, CompletedTrace, SpanPhase, TraceId};
use transedge::scenario::liar::{self, Lie};
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
            assert!(t.end_to_end() > SimDuration(0));
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

/// Every counter name a deployment with edges, a commit feed and the
/// gossip directory publishes, sorted: each actor's stats, its
/// signature checks, replay caches, directory agent and proof memo, and
/// the network's totals. The network's per-kind series (`net.<kind>.*`)
/// name whatever traffic the run sent and are left out.
const REGISTERED_NAMES: &str = "\
       bytes_sent \
       client.chase_dropped client.chase_early client.chase_waits \
       client.directory_evidence_sent client.directory_seeded client.gathers_sent \
       client.gave_up client.retries client.scans_accepted client.third_round_needed \
       client.verification_failures \
       consensus.votes_never_verified \
       crypto.sig_batched crypto.sig_batches crypto.sig_checks crypto.sig_memo_hits \
       directory.delta_records_sent directory.delta_replies_sent directory.evidence_accepted \
       directory.evidence_rejected directory.gossip_ingested directory.senders_struck \
       edge.bad_deltas_dropped edge.feed_deltas_received edge.foreign_forward_replica \
       edge.foreign_subs edge.forwarded edge.gather_requests edge.keys_from_cache \
       edge.keys_requested edge.requests edge.scan_requests edge.scans_forwarded \
       edge.scans_from_cache edge.served_from_cache \
       messages_delivered messages_dropped messages_sent \
       node.batches_proposed node.chases_sent node.deltas_published node.deltas_replayed \
       node.rot_fetches_served node.rot_scans_rejected node.rot_scans_served node.rot_served \
       node.shares_never_verified node.txns_admitted node.txns_rejected node.view_changes \
       pipeline.points.evictions pipeline.points.hits pipeline.points.insertions \
       pipeline.points.misses pipeline.scans.evictions pipeline.scans.hits \
       pipeline.scans.insertions pipeline.scans.misses \
       query.cert_checks_shared query.feed_deltas_reused query.freshness_upgrades \
       query.read_result_bytes query.round2_skipped_by_feed \
       replay.admitted replay.deltas_applied replay.evicted_entries replay.feed_resets \
       replay.fragments_invalidated replay.freshness_attached replay.freshness_refused \
       replay.scans_admitted";

#[test]
fn the_registry_publishes_a_pinned_name_set() {
    let mut config = DeploymentConfig::for_testing();
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .gossip_directory(SimDuration::from_millis(20))
        .commit_feed(SimDuration::from_millis(100))
        .build()
        .unwrap();
    let keys = keys_on(&config.topo, ClusterId(0), 2);
    let mut dep = Deployment::build(config, vec![vec![ClientOp::ReadOnly { keys }]]);
    dep.run_until_done(SimTime(600_000_000));
    let reg = dep.metrics();
    let mut names: Vec<&str> = reg
        .counters()
        .map(|(_, name, _)| name)
        .filter(|name| !name.starts_with("net."))
        .collect();
    names.sort_unstable();
    names.dedup();
    let pinned: Vec<&str> = REGISTERED_NAMES.split_whitespace().collect();
    assert_eq!(names, pinned);
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

/// A chased read is one trace. Writers keep two partitions' CD vectors
/// moving under readers of keys on both, so some round-two answer makes
/// the other part stale and its replica forwards that part: the forward
/// carries the read's trace context, the chasing replica leaves a
/// `chase` marker under its serve span, and the chased replica's wire,
/// queue and serve spans hang below it — one connected tree.
#[test]
fn a_chased_read_is_one_connected_trace() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    let topo = config.topo.clone();
    let [k0, k1] = [0, 1].map(|c| keys_on(&topo, ClusterId(c), 8));
    let mut scripts: Vec<Vec<ClientOp>> = (0..6usize)
        .map(|w| {
            (0..20)
                .map(|i| ClientOp::ReadWrite {
                    reads: vec![],
                    writes: vec![
                        (k0[(w + i) % 4].clone(), Value::from("w")),
                        (k1[(w + i + 1) % 4].clone(), Value::from("w")),
                    ],
                })
                .collect()
        })
        .collect();
    for r in 0..3 {
        let reads = (0..20)
            .map(|i| ClientOp::ReadOnly {
                keys: vec![k0[4 + (r + i) % 4].clone(), k1[4 + (r + i) % 4].clone()],
            })
            .collect();
        scripts.push(reads);
    }
    let mut dep = Deployment::build(config, scripts);
    dep.run_until_done(SimTime(600_000_000));

    let traces = dep.completed_traces();
    let chased: Vec<_> = traces.iter().filter(|t| t.has_label("chase")).collect();
    assert!(!chased.is_empty(), "no read was chased");
    for trace in chased {
        assert_well_formed(trace);
        let chase = trace
            .spans
            .iter()
            .find(|s| s.label == "chase")
            .expect("marker");
        assert_eq!(chase.phase, SpanPhase::Serve);
        assert_eq!(chase.duration(), SimDuration(0));
        let NodeId::Replica(chaser) = chase.node else {
            panic!("chased from {:?}", chase.node);
        };
        // The forward left under the same serve span and reached a
        // replica of the other partition.
        assert!(
            trace
                .spans_of(SpanPhase::Wire)
                .any(|w| w.parent == chase.parent
                    && w.node
                        .as_replica()
                        .is_some_and(|r| r.cluster != chaser.cluster)),
            "the forward is not in {:?}",
            trace.trace
        );
    }
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
        config.edge = EdgeConfig::honest(1);
        let topo = config.topo.clone();
        let mut keys = keys_on(&topo, ClusterId(0), n_keys0);
        keys.extend(keys_on(&topo, ClusterId(1), n_keys1));
        let script: Vec<ClientOp> = (0..ops)
            .map(|_| ClientOp::ReadOnly { keys: keys.clone() })
            .collect();
        let mut dep = Deployment::build(config, vec![script]);
        liar::install(&mut dep, NodeId::Edge(byz), Lie::TamperValue);
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
