//! System-level checks of the certified delta stream (PR 7): replicas
//! push per-batch certified deltas to subscribed edges, edges attach
//! the verified feed tail to warm replays as a freshness certificate,
//! and subscribed clients upgrade their snapshot views to the feed
//! head — eliminating the round-2 `MinEpoch` re-fetch that stale
//! cached snapshots would otherwise force. A tampered delta is caught
//! by client-side verification and becomes cryptographic evidence the
//! directory gossips fleet-wide, exactly like a forged proof.

use transedge::common::{ClusterId, ClusterTopology, EdgeId, Key, SimDuration, SimTime, Value};
use transedge::core::client::ClientOp;
use transedge::core::edge_node::EdgeBehavior;
use transedge::core::metrics::OpKind;
use transedge::core::setup::{ClientPlan, Deployment, DeploymentConfig};
use transedge::core::{ClientProfile, EdgeConfig};

fn keys_on(topo: &ClusterTopology, cluster: ClusterId, count: usize) -> Vec<Key> {
    (0u32..10_000)
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == cluster)
        .take(count)
        .collect()
}

/// Build the subscriber acceptance scenario: writers keep
/// cross-partition commits flowing (raising CD dependencies between
/// the partitions), while one reader repeatedly snapshots two warm,
/// never-written keys on partition 0 plus one *hot* key on partition 1
/// that the writers keep overwriting. The hot key's fragment is
/// push-invalidated on every write, so partition 1 always answers
/// fresh — its CD names recent partition-0 epochs, which is exactly
/// the stale-cache-vs-fresh-dependency tension that forces the round-2
/// `MinEpoch` fetch on unsubscribed clients. Returns the reader's
/// script, the writer scripts, and the two warm keys.
fn write_heavy_scripts(topo: &ClusterTopology) -> (Vec<ClientOp>, Vec<Vec<ClientOp>>, Vec<Key>) {
    let k0 = keys_on(topo, ClusterId(0), 8);
    let k1 = keys_on(topo, ClusterId(1), 8);
    let mut writers: Vec<Vec<ClientOp>> = Vec::new();
    for c in 0..3usize {
        let ops = (0..15)
            .map(|i| ClientOp::ReadWrite {
                reads: vec![],
                writes: vec![
                    (k0[2 + (c + i) % 6].clone(), Value::from("w0")),
                    (k1[2 + (c + i) % 6].clone(), Value::from("w1")),
                ],
            })
            .collect();
        writers.push(ops);
    }
    let reader = (0..24)
        .map(|_| ClientOp::ReadOnly {
            keys: vec![k0[0].clone(), k0[1].clone(), k1[2].clone()],
        })
        .collect();
    (reader, writers, vec![k0[0].clone(), k0[1].clone()])
}

/// The headline subscription-tier property: a subscribed client on a
/// warm edge performs **zero** round-2 `MinEpoch` fetches across a
/// write-heavy interval — every warm replay carries a verified feed
/// tail that upgrades the snapshot view to the feed head, so the
/// cross-partition dependency check passes in one round.
#[test]
fn subscribed_client_skips_round_two_on_warm_edges() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .commit_feed(SimDuration::from_millis(50))
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let (reader_ops, writers, warm_keys) = write_heavy_scripts(&topo);

    let mut plans: Vec<ClientPlan> = writers.iter().cloned().map(ClientPlan::ops).collect();
    plans.push(ClientPlan::with_profile(
        reader_ops.clone(),
        ClientProfile::new().subscriber(),
    ));
    let mut dep = Deployment::build_custom(config, plans);
    dep.run_until_done(SimTime(600_000_000));

    let reader = dep.client(*dep.client_ids.last().unwrap());
    assert_eq!(reader.stats.verification_failures, 0);
    assert_eq!(reader.stats.gave_up, 0);
    let rots: Vec<_> = reader
        .samples
        .iter()
        .filter(|s| s.kind == OpKind::ReadOnly)
        .collect();
    assert_eq!(rots.len(), 24);
    // The headline property: every fully-warm read (all partitions
    // served from cached replays with verified feed attachments)
    // resolved in one round. Cold misses — the first op, and the hot
    // key whenever a write just invalidated its fragment — re-enter
    // the ordinary two-round protocol and are exactly the samples
    // `rot_warm` excludes.
    let warm: Vec<_> = rots.iter().filter(|s| s.rot_warm).collect();
    assert!(
        warm.len() >= rots.len() / 2,
        "most reads must be fully warm (got {}/{})",
        warm.len(),
        rots.len()
    );
    for s in &warm {
        assert!(s.committed);
        assert!(
            !s.rot_round2,
            "a subscribed warm read must never need round 2"
        );
    }
    assert!(
        reader.stats.freshness_upgrades > 0,
        "warm replays must carry verified feed attachments"
    );
    assert!(
        reader.stats.round2_skipped_by_feed > 0,
        "the feed must eliminate round-2 fetches the served snapshots would have needed"
    );
    // Verification cost follows what is *new*, not the tail's length:
    // the reader's memo verified each certificate it met once — at most
    // one per batch either partition ever committed — while the feed
    // tails re-carried them, read after read, more often than that.
    let batches = dep.metrics().fleet_counter("node.batches_proposed") + 2;
    let quorum = topo.certificate_quorum() as u64;
    let memo = reader.verified_certs();
    assert!(
        memo.sig_checks() <= batches * quorum,
        "each certificate is checked once: {} signatures over {batches} batches",
        memo.sig_checks()
    );
    assert!(
        reader.stats.cert_checks_shared > batches,
        "re-carried feed tails must hit the memo (got {} over {batches} batches)",
        reader.stats.cert_checks_shared
    );
    // The feed reached the edges and was attached; nothing was bogus.
    for edge in &dep.edge_ids {
        let stats = &dep.edge_node(*edge).stats;
        assert!(
            stats.feed_deltas_received > 0,
            "{edge}: the subscribed edge must receive pushed deltas"
        );
        assert_eq!(stats.bad_deltas_dropped, 0);
    }
    let attached: u64 = dep
        .edge_ids
        .iter()
        .map(|e| dep.edge_node(*e).stats.freshness_attached)
        .sum();
    assert!(attached > 0, "warm replays must attach the feed tail");
    // Accepted warm values are the committed ones — freshness upgrades
    // never bend correctness. (The hot key's value races the writers,
    // so only the never-written keys have a static ground truth.)
    let expected = dep.data.clone();
    for rot in &reader.rot_results {
        for (key, value) in rot.values.iter().filter(|(k, _)| warm_keys.contains(k)) {
            let want = expected.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            assert_eq!(value.as_ref(), want);
        }
    }
}

/// Control for the test above: the *same* write-heavy interval without
/// the subscription tier (edges still push-invalidate, clients do not
/// ask for attachments) leaves the reader exposed to stale cached
/// snapshots — the round-2 dependency fetch fires. This is what the
/// feed attachment is eliminating.
#[test]
fn unsubscribed_control_still_pays_round_two() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .commit_feed(SimDuration::from_millis(50))
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let (reader_ops, writers, _) = write_heavy_scripts(&topo);
    let mut plans: Vec<ClientPlan> = writers.iter().cloned().map(ClientPlan::ops).collect();
    plans.push(ClientPlan::ops(reader_ops));
    let mut dep = Deployment::build_custom(config, plans);
    dep.run_until_done(SimTime(600_000_000));

    let reader = dep.client(*dep.client_ids.last().unwrap());
    assert_eq!(reader.stats.verification_failures, 0);
    let round2 = reader
        .samples
        .iter()
        .filter(|s| s.kind == OpKind::ReadOnly && s.rot_round2)
        .count();
    assert!(
        round2 > 0,
        "without the subscription the same interval must exercise round 2"
    );
    assert_eq!(reader.stats.freshness_upgrades, 0);
}

/// A byzantine edge that tampers with the feed attachment (injecting a
/// key into a delta's changed list) is caught by the client's
/// `verify_delta` recomputation — `BadDelta`, a provable lie — and the
/// rejection becomes signed directory evidence that demotes the edge
/// fleet-wide: a late client shuns it before ever contacting it.
#[test]
fn tampered_feed_delta_is_rejected_and_demotes_fleet_wide() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    let byz = EdgeId::new(ClusterId(0), 0);
    config.edge = EdgeConfig::builder()
        .per_cluster(2)
        .byzantine(byz, EdgeBehavior::TamperDelta)
        .commit_feed(SimDuration::from_millis(50))
        .gossip_directory(SimDuration::from_millis(20))
        .build()
        .expect("edge config");
    config.client.subscribe = true;
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 8);
    // A writer keeps cluster-0 deltas flowing on keys the reader never
    // touches: warm replays of the reader's keys then carry a
    // *non-empty* feed tail — the attachment the byzantine edge
    // corrupts.
    let writer: Vec<ClientOp> = (0..20)
        .map(|i| ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![(k0[2 + i % 6].clone(), Value::from("w"))],
        })
        .collect();
    let reader: Vec<ClientOp> = (0..15)
        .map(|_| ClientOp::ReadOnly {
            keys: vec![k0[0].clone(), k0[1].clone()],
        })
        .collect();
    // Client B starts after A's evidence had many gossip rounds to
    // spread across the fleet.
    let late = ClientProfile::new().start_delay(SimDuration::from_millis(500));
    let mut dep = Deployment::build_custom(
        config,
        vec![
            ClientPlan::ops(writer),
            ClientPlan::ops(reader.clone()),
            ClientPlan::with_profile(reader, late),
        ],
    );
    dep.run_until_done(SimTime(600_000_000));

    // The byzantine edge corrupted at least one attachment…
    let byz_node = dep.edge_node(byz);
    assert!(
        byz_node.stats.tampered > 0,
        "the byzantine edge must have tampered a feed attachment"
    );
    // …client A caught it cryptographically and pushed evidence…
    let a = dep.client(dep.client_ids[1]);
    assert!(
        a.stats.verification_failures >= 1,
        "client A must catch the tampered delta first-hand"
    );
    assert!(
        a.stats.directory_evidence_sent >= 1,
        "a BadDelta rejection must become signed directory evidence"
    );
    // …the whole fleet learned it (evidence re-verified at every hop)…
    for edge in &dep.edge_ids {
        let agent = dep.edge_node(*edge).directory().expect("directory enabled");
        assert!(
            agent.knows_byzantine(byz),
            "{edge}: delta evidence must reach every edge via gossip"
        );
    }
    // …and the late client demoted the liar before ever contacting it.
    let b = dep.client(dep.client_ids[2]);
    assert!(b.stats.directory_seeded >= 1);
    assert_eq!(
        b.stats.verification_failures, 0,
        "B must never receive (and pay for) a tampered delta"
    );
    let health = b
        .edge_selector
        .health(ClusterId(0), transedge::common::NodeId::Edge(byz))
        .expect("byzantine edge is a registered target");
    assert!(health.demotions >= 1);
    assert_eq!(
        health.successes + health.failures + health.total_rejections,
        0,
        "the demotion must land before B ever contacts the edge"
    );
    // Correctness never depended on any of it: both readers ended with
    // the committed values.
    let expected = dep.data.clone();
    for id in &dep.client_ids[1..] {
        let client = dep.client(*id);
        assert_eq!(client.stats.gave_up, 0);
        for rot in &client.rot_results {
            for (key, value) in &rot.values {
                let want = expected.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                assert_eq!(value.as_ref(), want);
            }
        }
    }
}
