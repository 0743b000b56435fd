//! System-level checks of the certified delta stream (PR 7): replicas
//! push per-batch certified deltas to subscribed edges, edges attach
//! the verified feed tail to warm replays as a freshness certificate,
//! and subscribed clients upgrade their snapshot views to the feed
//! head — eliminating the round-2 `MinEpoch` re-fetch that stale
//! cached snapshots would otherwise force. A tampered delta is caught
//! by client-side verification and becomes cryptographic evidence the
//! directory gossips fleet-wide, exactly like a forged proof.

use transedge::common::{ClusterId, ClusterTopology, Key, NodeId, SimDuration, SimTime, Value};
use transedge::core::client::ClientOp;
use transedge::core::edge_node::EdgeBehavior;
use transedge::core::metrics::OpKind;
use transedge::core::setup::{ClientPlan, Deployment, DeploymentConfig};
use transedge::core::{ClientProfile, EdgeConfig};
use transedge::edge::{SnapshotStore, DEFAULT_SPILL_THRESHOLD, MAX_FEED_DELTAS};

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
    // one per batch either partition ever committed — and a delta it
    // had verified was not even sent again: the held ones stood in,
    // read after read, more often than there were batches.
    let batches = dep.metrics().fleet_counter("node.batches_proposed") + 2;
    let quorum = topo.certificate_quorum() as u64;
    let memo = reader.verified_certs();
    assert!(
        memo.sig_checks() <= batches * quorum,
        "each certificate is checked once: {} signatures over {batches} batches",
        memo.sig_checks()
    );
    assert!(
        reader.stats.feed_deltas_reused > batches,
        "held deltas must stand in for re-shipped ones (got {} over {batches} batches)",
        reader.stats.feed_deltas_reused
    );
    // The windows they are kept in are a bounded, gap-free resource.
    for cluster in [ClusterId(0), ClusterId(1)] {
        let window = reader.feed_window(cluster).expect("both partitions fed");
        let held = window.cursor().expect("non-empty");
        assert!(window.len() <= MAX_FEED_DELTAS);
        assert_eq!(window.len() as u64, held.head.0 - held.first.0 + 1);
    }
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
        .flat_map(|e| dep.edge_node(*e).replay_stats())
        .map(|(_, replay)| replay.freshness_attached)
        .sum();
    assert!(attached > 0, "warm replays must attach the feed tail");
    // Accepted warm values are the committed ones — freshness upgrades
    // never bend correctness. (The hot key's value races the writers,
    // so only the never-written keys have a static ground truth.)
    let expected = dep.data.clone();
    for rot in &reader.query_results {
        for (key, value) in rot.values.iter().filter(|(k, _)| warm_keys.contains(k)) {
            let want = expected.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            assert_eq!(value.as_ref(), want);
        }
    }
}

/// Run `dep` until client `id` has completed `ops` operations.
fn run_until_ops(dep: &mut Deployment, id: transedge::common::ClientId, ops: usize) {
    let mut t = dep.sim.now();
    while dep.client(id).samples.len() < ops {
        t = SimTime(t.0 + 1_000);
        assert!(t < SimTime(600_000_000), "client never got to op {ops}");
        dep.run_until(t);
    }
}

/// What the feed cursor buys: a subscriber keeps the deltas it has
/// verified, so its second read of a partition is sent only the deltas
/// committed since the first — fewer bytes for a *longer* certified
/// chain — and the window it keeps them in is a bounded resource that
/// restarts, never grows, across a feed gap.
#[test]
fn a_second_read_is_sent_only_the_deltas_since_the_first() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    config.client.retry_after = SimDuration::from_millis(200);
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .commit_feed(SimDuration::from_millis(50))
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let c0 = ClusterId(0);
    let k0 = keys_on(&topo, c0, 8);
    let warm_keys = vec![k0[0].clone(), k0[1].clone()];
    let read = |n: usize| -> Vec<ClientOp> {
        let keys = warm_keys.clone();
        (0..n)
            .map(|_| ClientOp::ReadOnly { keys: keys.clone() })
            .collect()
    };
    // An unsubscribed reader warms the edge at an early batch; a writer
    // then piles partition-0 deltas (on keys nobody reads) on top of
    // that cached snapshot; the subscriber arrives late, so its first
    // read meets a long feed tail.
    let writer: Vec<ClientOp> = (0..120)
        .map(|i| ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![(k0[2 + i % 6].clone(), Value::from("w"))],
        })
        .collect();
    let late = ClientProfile::new()
        .subscriber()
        .start_delay(SimDuration::from_millis(100));
    let plans = vec![
        ClientPlan::ops(read(1)),
        ClientPlan::ops(writer),
        ClientPlan::with_profile(read(8), late),
    ];
    let mut dep = Deployment::build_custom(config, plans);
    let reader = dep.client_ids[2];
    let edge = dep.edge_ids[0];
    let state = |dep: &Deployment| {
        let client = dep.client(reader);
        let cursor = client.feed_window(c0).and_then(|w| w.cursor());
        (
            client.stats.read_result_bytes,
            client.stats.feed_deltas_reused,
            cursor,
        )
    };

    run_until_ops(&mut dep, reader, 1);
    let (bytes_1, reused_1, cursor_1) = state(&dep);
    let cursor_1 = cursor_1.expect("the first warm read fills the window");
    let tail_1 = cursor_1.head.0 - cursor_1.first.0 + 1;
    assert!(
        tail_1 >= 4,
        "the first read must meet a real tail (got {tail_1})"
    );
    assert_eq!(
        reused_1, 0,
        "a first contact holds nothing and is sent everything"
    );

    run_until_ops(&mut dep, reader, 2);
    let (bytes_2, reused_2, cursor_2) = state(&dep);
    let cursor_2 = cursor_2.unwrap();
    // Same cached snapshot, so the whole of the held run stood in …
    assert_eq!(cursor_2.first, cursor_1.first);
    assert_eq!(reused_2, tail_1);
    // … and only deltas committed since the first read travelled.
    let sent_2 = cursor_2.head.0 - cursor_1.head.0;
    assert!(
        sent_2 < tail_1,
        "sent {sent_2} of a {tail_1}-delta-longer chain"
    );
    assert!(
        bytes_2 - bytes_1 < bytes_1,
        "second read {} B, first {bytes_1} B",
        bytes_2 - bytes_1
    );

    // An injected feed gap: the edge crashes under the fourth read
    // (which times out and retries at a replica) and comes back empty,
    // so its next warm replay is served at a batch far past the
    // window's head. The window restarts there; it does not bridge the
    // gap, and it does not grow past its cap.
    run_until_ops(&mut dep, reader, 3);
    let before = state(&dep).2.unwrap();
    let _lost = dep.crash_edge(edge);
    dep.run_until(SimTime(dep.sim.now().0 + 50_000));
    dep.restart_edge(edge, SnapshotStore::new(DEFAULT_SPILL_THRESHOLD));
    dep.run_until_done(SimTime(600_000_000));
    let client = dep.client(reader);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.stats.gave_up, 0);
    let window = client.feed_window(c0).unwrap();
    let after = window.cursor().unwrap();
    assert!(after.first.0 > before.head.0 + 1, "{before:?} -> {after:?}");
    assert_eq!(window.len() as u64, after.head.0 - after.first.0 + 1);
    assert!(window.len() <= MAX_FEED_DELTAS);
    // Through all of it the values read are the committed ones.
    let expected = dep.data.clone();
    for rot in &client.query_results {
        for (key, value) in &rot.values {
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
/// key into a delta's changed list) is caught by the client's feed
/// check — a provable lie — and the rejection becomes signed directory
/// evidence that demotes the edge fleet-wide: a late client shuns it
/// before ever contacting it. The victim's window is **warm** when the
/// edge turns: its cursor leaves nothing to send, so the liar has to
/// re-ship (and doctor) a delta the victim already holds, and is caught
/// against the cursor the victim signed.
#[test]
fn tampered_feed_delta_is_rejected_and_demotes_fleet_wide() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    config.edge = EdgeConfig::builder()
        .per_cluster(2)
        .commit_feed(SimDuration::from_millis(50))
        .gossip_directory(SimDuration::from_millis(20))
        .build()
        .expect("edge config");
    config.client.subscribe = true;
    let topo = config.topo.clone();
    let c0 = ClusterId(0);
    let k0 = keys_on(&topo, c0, 8);
    // A writer gets cluster-0 deltas flowing on keys the reader never
    // touches, then stops: from there on every warm replay to a reader
    // that kept up carries an *empty* feed tail.
    let writer: Vec<ClientOp> = (0..20)
        .map(|i| ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![(k0[2 + i % 6].clone(), Value::from("w"))],
        })
        .collect();
    let reads = |n: usize| -> Vec<ClientOp> {
        let keys = vec![k0[0].clone(), k0[1].clone()];
        (0..n)
            .map(|_| ClientOp::ReadOnly { keys: keys.clone() })
            .collect()
    };
    // Client B starts after A's evidence had many gossip rounds to
    // spread across the fleet.
    let late = ClientProfile::new().start_delay(SimDuration::from_millis(700));
    let mut dep = Deployment::build_custom(
        config,
        vec![
            ClientPlan::ops(writer),
            ClientPlan::ops(reads(150)),
            ClientPlan::with_profile(reads(15), late),
        ],
    );
    // Honest until the writer is done and A has caught up with the feed
    // head through the edge it reads from — which then turns.
    let (w, a) = (dep.client_ids[0], dep.client_ids[1]);
    run_until_ops(&mut dep, w, 20);
    let settle = dep.client(a).samples.len() + 5;
    run_until_ops(&mut dep, a, settle);
    let byz = *dep
        .edge_ids
        .iter()
        .filter(|e| e.cluster == c0)
        .max_by_key(|e| {
            let health = dep.client(a).edge_selector.health(c0, NodeId::Edge(**e));
            health.map_or(0, |h| h.successes)
        })
        .unwrap();
    let held = dep.client(a).feed_window(c0).and_then(|w| w.head());
    let edge_head = dep.edge_node(byz).replay_stats().find(|(c, _)| *c == c0);
    assert!(held.is_some(), "the victim's window must be warm");
    assert_eq!(
        held.map(|h| h.0),
        edge_head.map(|(_, replay)| replay.deltas_applied),
        "the victim holds everything the edge could send"
    );
    assert_eq!(dep.client(a).stats.verification_failures, 0);
    dep.set_edge_behavior(byz, EdgeBehavior::TamperDelta);
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
        .health(ClusterId(0), NodeId::Edge(byz))
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
        for rot in &client.query_results {
            for (key, value) in &rot.values {
                let want = expected.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                assert_eq!(value.as_ref(), want);
            }
        }
    }
}
