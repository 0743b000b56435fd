//! Edge fleet with a gossiped conviction directory — one client's verified
//! byzantine catch demotes the liar for the whole fleet.
//!
//! Two clusters, two edge caches each; one edge tampers with values.
//! Client A trips over it the hard way (one rejected, proof-carrying
//! round trip), signs **evidence with the offending proof attached**,
//! and pushes it into the edge tier's anti-entropy gossip. Every edge
//! re-verifies the evidence and merges it into its directory. Client B
//! boots later, pulls the directory's records, and demotes the liar
//! *before ever contacting it* — zero rejected round trips for B, and
//! for every client after it.
//!
//! The same deployment serves a two-partition query through a single
//! edge contact (edge-tier scatter-gather): the contact splits the
//! query, forwards the foreign part across the tier, and returns the
//! part answers in one envelope the client verifies per partition.
//!
//! ```bash
//! cargo run --release --example edge_fleet
//! ```

use transedge::common::{ClusterId, ClusterTopology, EdgeId, Key, NodeId, SimDuration, SimTime};
use transedge::core::client::ClientOp;
use transedge::core::edge_node::EdgeBehavior;
use transedge::core::setup::{ClientPlan, Deployment, DeploymentConfig};
use transedge::core::ReadQuery;
use transedge::core::{ClientProfile, EdgeConfig};
use transedge::simnet::LatencyModel;

fn keys_on(topo: &ClusterTopology, cluster: ClusterId, count: usize) -> Vec<Key> {
    (0u32..10_000)
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == cluster)
        .take(count)
        .collect()
}

fn main() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = LatencyModel::paper_default();
    config.client.record_results = true;
    config.client.single_contact = true;
    let byz = EdgeId::new(ClusterId(0), 0);
    config.edge = EdgeConfig::builder()
        .per_cluster(2)
        .byzantine(byz, EdgeBehavior::TamperValue)
        .gossip_directory(SimDuration::from_millis(20))
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 2);
    let k1 = keys_on(&topo, ClusterId(1), 1);

    // Client A: local reads on cluster 0 — guaranteed to explore (and
    // catch) the byzantine edge.
    let a_ops: Vec<ClientOp> = (0..10)
        .map(|_| ClientOp::ReadOnly { keys: k0.clone() })
        .collect();
    // Client B: starts half a second later — after A's evidence has
    // gossiped fleet-wide — and runs cross-partition queries through a
    // single edge contact.
    let cross: Vec<Key> = k0.iter().chain(k1.iter()).cloned().collect();
    let b_ops: Vec<ClientOp> = (0..10)
        .map(|_| ClientOp::Query {
            query: ReadQuery::point(cross.clone()),
        })
        .collect();
    let late = ClientProfile::new().start_delay(SimDuration::from_millis(500));
    let mut dep = Deployment::build_custom(
        config,
        vec![
            ClientPlan::ops(a_ops),
            ClientPlan::with_profile(b_ops, late),
        ],
    );
    dep.run_until_done(SimTime(600_000_000));

    let a = dep.client(dep.client_ids[0]);
    let b = dep.client(dep.client_ids[1]);
    println!("edge fleet with gossiped conviction directory");
    println!("=============================================");
    println!(
        "client A: {} reads, {} forgeries caught first-hand, {} evidence record(s) gossiped",
        a.query_results.len(),
        a.stats.verification_failures,
        a.stats.directory_evidence_sent,
    );
    let informed = dep
        .edge_ids
        .iter()
        .filter(|e| {
            dep.edge_node(**e)
                .directory()
                .is_some_and(|agent| agent.knows_byzantine(byz))
        })
        .count();
    println!(
        "fleet:    {informed}/{} edges re-verified and merged the evidence against {byz}",
        dep.edge_ids.len(),
    );
    let health = b
        .edge_selector
        .health(ClusterId(0), NodeId::Edge(byz))
        .expect("registered target");
    println!(
        "client B: seeded from a directory pull ({} delta(s)); {byz} demoted on the hint \
         (demotions {}, first-hand contacts {}), {} forgeries ever seen",
        b.stats.directory_seeded,
        health.demotions,
        health.successes + health.failures + health.total_rejections,
        b.stats.verification_failures,
    );
    println!(
        "          {} cross-partition queries served via a single edge contact \
         ({} verified in every part)",
        b.stats.gathers_sent, b.stats.gathers_accepted,
    );
    assert!(a.stats.verification_failures >= 1);
    assert!(informed == dep.edge_ids.len());
    assert!(health.demotions >= 1);
    assert_eq!(b.stats.verification_failures, 0);
    assert_eq!(a.stats.gave_up + b.stats.gave_up, 0);
    println!();
    println!("one client paid for the lesson; the fleet learned it.");
}
