//! System-level checks of the paper's two headline read-only
//! properties (§4): commit-freedom and non-interference, plus the
//! round-2 dependency mechanism and the untrusted edge read tier
//! (honest caching and byzantine-edge detection).

use transedge::common::{
    BatchNum, ClusterId, ClusterTopology, EdgeId, Key, NodeId, ReplicaId, SimDuration, SimTime,
    Value,
};
use transedge::core::client::ClientOp;
use transedge::core::edge_node::EdgeBehavior;
use transedge::core::metrics::OpKind;
use transedge::core::setup::{ClientPlan, Deployment, DeploymentConfig};
use transedge::core::{ClientProfile, EdgeConfig, NetMsg, ReadPayload};
use transedge::edge::MultiProofBody;

fn keys_on(topo: &ClusterTopology, cluster: ClusterId, count: usize) -> Vec<Key> {
    (0u32..10_000)
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == cluster)
        .take(count)
        .collect()
}

/// Round 2 actually triggers under concurrent cross-partition commits,
/// and never needs a third round in this workload; results stay
/// verified.
#[test]
fn round_two_exercised_and_bounded() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 4);
    let k1 = keys_on(&topo, ClusterId(1), 4);
    // Writers keep cross-partition transactions flowing.
    let mut scripts: Vec<Vec<ClientOp>> = Vec::new();
    for c in 0..3usize {
        let ops = (0..15)
            .map(|i| ClientOp::ReadWrite {
                reads: vec![],
                writes: vec![
                    (k0[(c + i) % 4].clone(), Value::from("w0")),
                    (k1[(c + i) % 4].clone(), Value::from("w1")),
                ],
            })
            .collect();
        scripts.push(ops);
    }
    // Readers continuously snapshot both partitions.
    for _ in 0..3 {
        let ops = (0..20)
            .map(|_| ClientOp::ReadOnly {
                keys: vec![k0[0].clone(), k1[0].clone(), k0[1].clone(), k1[1].clone()],
            })
            .collect();
        scripts.push(ops);
    }
    let mut dep = Deployment::build(config, scripts);
    dep.run_until_done(SimTime(600_000_000));

    let mut round2 = 0usize;
    let mut rots = 0usize;
    for id in &dep.client_ids {
        let client = dep.client(*id);
        assert_eq!(client.stats.verification_failures, 0);
        for s in client.samples.iter().filter(|s| s.kind == OpKind::ReadOnly) {
            rots += 1;
            assert!(s.committed, "read-only transactions never abort");
            if s.rot_round2 {
                round2 += 1;
            }
        }
    }
    assert!(rots >= 60);
    assert!(
        round2 > 0,
        "workload must exercise the second round (got {round2}/{rots})"
    );
}

/// Non-interference: adding a continuous stream of large read-only
/// transactions must not abort any read-write transaction that commits
/// cleanly without them.
#[test]
fn read_only_transactions_do_not_abort_writers() {
    let build_scripts = |with_readers: bool, topo: &ClusterTopology| {
        let k0 = keys_on(topo, ClusterId(0), 6);
        let k1 = keys_on(topo, ClusterId(1), 6);
        let mut scripts: Vec<Vec<ClientOp>> = Vec::new();
        // Disjoint writers: no write-write conflicts among themselves.
        for c in 0..3usize {
            let ops = (0..10)
                .map(|i| ClientOp::ReadWrite {
                    reads: vec![],
                    writes: vec![
                        (k0[c * 2 + (i % 2)].clone(), Value::from("w")),
                        (k1[c * 2 + (i % 2)].clone(), Value::from("w")),
                    ],
                })
                .collect();
            scripts.push(ops);
        }
        if with_readers {
            let all: Vec<Key> = k0.iter().chain(k1.iter()).cloned().collect();
            for _ in 0..4 {
                scripts.push(
                    (0..25)
                        .map(|_| ClientOp::ReadOnly { keys: all.clone() })
                        .collect(),
                );
            }
        }
        scripts
    };
    let run = |with_readers: bool| {
        let mut config = DeploymentConfig::for_testing();
        config.latency = transedge::simnet::LatencyModel::paper_default();
        let topo = config.topo.clone();
        let mut dep = Deployment::build(config, build_scripts(with_readers, &topo));
        dep.run_until_done(SimTime(600_000_000));
        let samples = dep.samples();
        samples
            .iter()
            .filter(|s| s.kind != OpKind::ReadOnly && !s.committed)
            .count()
    };
    let aborts_without = run(false);
    let aborts_with = run(true);
    assert_eq!(aborts_without, 0, "baseline writers must not conflict");
    assert_eq!(
        aborts_with, 0,
        "read-only transactions must not cause a single write abort (Table 1)"
    );
}

/// Honest edge tier: clients routed through untrusted edge caches get
/// verified reads, cold (forwarded upstream) and warm (replayed from
/// cache) alike, and every value matches the committed state.
#[test]
fn honest_edge_serves_verified_cached_and_uncached_reads() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    config.edge = EdgeConfig::honest(1);
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 2);
    let k1 = keys_on(&topo, ClusterId(1), 2);
    let rot_keys = vec![k0[0].clone(), k0[1].clone(), k1[0].clone()];
    // Two readers hitting the same keys: the first fetch per partition
    // is a cache miss, later ones replay from the edge cache.
    let scripts: Vec<Vec<ClientOp>> = (0..2)
        .map(|_| {
            (0..15)
                .map(|_| ClientOp::ReadOnly {
                    keys: rot_keys.clone(),
                })
                .collect()
        })
        .collect();
    let mut dep = Deployment::build(config, scripts);
    dep.run_until_done(SimTime(600_000_000));

    // Every read completed, verified, and returned the preloaded data.
    let expected: Vec<(Key, Value)> = dep.data.clone();
    for id in &dep.client_ids {
        let client = dep.client(*id);
        assert_eq!(client.stats.verification_failures, 0);
        assert_eq!(client.stats.gave_up, 0);
        assert_eq!(client.query_results.len(), 15);
        for rot in &client.query_results {
            for (key, value) in &rot.values {
                let want = expected.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                assert_eq!(
                    value.as_ref(),
                    want,
                    "verified value must match committed state"
                );
            }
        }
    }
    // The edge tier did real work: it forwarded at least one cold read
    // per partition and replayed the rest from cache.
    let mut served = 0;
    let mut forwarded = 0;
    for edge in &dep.edge_ids {
        let stats = dep.edge_node(*edge).stats;
        served += stats.served_from_cache;
        forwarded += stats.forwarded;
    }
    assert!(
        forwarded >= 2,
        "cold reads must be fetched upstream (got {forwarded})"
    );
    assert!(
        served > forwarded,
        "warm reads must replay from the edge cache (served {served}, forwarded {forwarded})"
    );
}

/// Byzantine edge tier: edges that tamper with values, forge proofs,
/// or swap in stale roots are detected by the client-side verifier,
/// evaded by falling back to real replicas, and never corrupt a
/// result. This is the acceptance scenario for the proof-carrying
/// read path.
#[test]
fn byzantine_edge_is_detected_and_evaded() {
    const CLIENTS: u64 = 3;
    for behavior in [
        EdgeBehavior::TamperValue,
        EdgeBehavior::ForgeProof,
        EdgeBehavior::StaleRoot,
    ] {
        let mut config = DeploymentConfig::for_testing();
        config.latency = transedge::simnet::LatencyModel::paper_default();
        config.client.record_results = true;
        config.edge = EdgeConfig::honest(1);
        let topo = config.topo.clone();
        let k0 = keys_on(&topo, ClusterId(0), 2);
        let k1 = keys_on(&topo, ClusterId(1), 2);
        let rot_keys = vec![k0[0].clone(), k0[1].clone(), k1[0].clone()];
        let script = vec![
            ClientOp::ReadOnly {
                keys: rot_keys.clone()
            };
            2
        ];
        let mut dep = Deployment::build(config, vec![script; CLIENTS as usize]);
        // Every client reads once through honest edges, warming its
        // certificate memo...
        let turncoat = EdgeId::new(ClusterId(0), 0);
        while dep
            .client_ids
            .iter()
            .any(|id| dep.client(*id).query_results.is_empty())
        {
            assert!(dep.sim.step(), "{behavior:?}: first reads must complete");
        }
        assert_eq!(
            dep.edge_node(turncoat).stats.requests,
            CLIENTS,
            "{behavior:?}: the edge turns coat before any second read reaches it"
        );
        // ...then cluster 0's edge turns coat (cluster 1's stays
        // honest), so each client's second read meets a forgery: the one
        // strike that demotes the edge.
        dep.set_edge_behavior(turncoat, behavior);
        dep.run_until_done(SimTime(600_000_000));

        assert_eq!(
            dep.edge_node(turncoat).stats.tampered,
            CLIENTS,
            "{behavior:?}: byzantine edge must have tampered every second read"
        );
        let expected: Vec<(Key, Value)> = dep.data.clone();
        for id in &dep.client_ids {
            let client = dep.client(*id);
            // The forgery was seen and rejected...
            assert_eq!(
                client.stats.verification_failures, 1,
                "{behavior:?}: every tampered response must be rejected"
            );
            // ...by a client whose certificate memo was warm from the
            // honest read: a remembered certificate vouches for nothing
            // around it.
            assert!(
                client.stats.cert_checks_shared > 0,
                "{behavior:?}: the forgery must have met a warm memo"
            );
            // ...yet every transaction still completed with correct
            // values by evading to honest replicas.
            assert_eq!(client.stats.gave_up, 0, "{behavior:?}: no ROT may give up");
            assert_eq!(client.query_results.len(), 2);
            for rot in &client.query_results {
                assert_eq!(rot.values.len(), rot_keys.len());
                for (key, value) in &rot.values {
                    let want = expected.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                    assert_eq!(
                        value.as_ref(),
                        want,
                        "{behavior:?}: accepted value must match committed state"
                    );
                }
            }
            for s in &client.samples {
                assert!(
                    s.committed,
                    "{behavior:?}: read-only transactions never abort"
                );
            }
        }
    }
}

/// The client checks each certificate once: the same cross-partition
/// ROT issued twice with no write in between returns the same verified
/// result, and the second read — every certificate it carries already
/// verified by the first — spends strictly less time verifying.
#[test]
fn repeat_read_checks_each_certificate_once() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.cost = transedge::simnet::CostModel::calibrated();
    config.client.record_results = true;
    let topo = config.topo.clone();
    let keys: Vec<Key> = keys_on(&topo, ClusterId(0), 2)
        .into_iter()
        .chain(keys_on(&topo, ClusterId(1), 1))
        .collect();
    let script = vec![ClientOp::ReadOnly { keys: keys.clone() }; 2];
    let mut dep = Deployment::build(config, vec![script]);
    dep.run_until_done(SimTime(600_000_000));

    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    let [first, second] = &client.query_results[..] else {
        panic!("two reads, got {}", client.query_results.len());
    };
    assert_eq!(first.values, second.values);
    assert_eq!(first.snapshot, second.snapshot);
    let partitions = first.snapshot.len() as u64;
    assert_eq!(partitions, 2);
    assert!(
        client.stats.cert_checks_shared >= partitions,
        "the repeat read must reuse one certificate per partition (got {})",
        client.stats.cert_checks_shared
    );
    let verify_us: Vec<u64> = dep
        .completed_traces()
        .iter()
        .map(|t| {
            t.spans_of(transedge::obs::SpanPhase::Verify)
                .map(|s| s.duration().0)
                .sum()
        })
        .collect();
    assert_eq!(verify_us.len(), 2);
    assert!(
        verify_us[1] < verify_us[0],
        "the repeat read must verify faster: {verify_us:?}"
    );
}

/// Whole or forward: a 3-key ROT of whose keys the edge holds two
/// under one cached section is a miss — the edge forwards the question
/// whole, one upstream hop like any cold read — and the answer it
/// absorbs replays the repeats as one section. Composing the two cached
/// keys with a fetched third cost the same hop and more bytes: the
/// same script moved 22 259 B of read results when the edge did.
#[test]
fn partly_cached_request_is_forwarded_whole() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    config.edge = EdgeConfig::honest(1);
    let topo = config.topo.clone();
    let k = keys_on(&topo, ClusterId(0), 3);
    let two = vec![k[0].clone(), k[1].clone()];
    let three = k.clone();
    // Warm the edge with {a, b}, then ask for {a, b, c}.
    let mut script: Vec<ClientOp> = (0..3)
        .map(|_| ClientOp::ReadOnly { keys: two.clone() })
        .collect();
    script.extend((0..5).map(|_| ClientOp::ReadOnly {
        keys: three.clone(),
    }));
    let mut dep = Deployment::build(config, vec![script]);
    dep.run_until_done(SimTime(600_000_000));

    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.stats.gave_up, 0);
    assert_eq!(client.query_results.len(), 8);
    let expected = dep.data.clone();
    for rot in &client.query_results {
        for (key, value) in &rot.values {
            let want = expected.iter().find(|(x, _)| x == key).map(|(_, v)| v);
            assert_eq!(
                value.as_ref(),
                want,
                "verified value matches committed state"
            );
        }
    }
    assert!(
        client.stats.read_result_bytes < 22_259,
        "one section per answer must move fewer bytes than the assembly did (got {})",
        client.stats.read_result_bytes
    );
    let stats = dep.edge_node(EdgeId::new(ClusterId(0), 0)).stats;
    assert_eq!(
        stats.forwarded, 2,
        "the cold {{a, b}} and the partly cached {{a, b, c}}, each whole"
    );
    assert_eq!(stats.served_from_cache, 6, "every repeat replays");
    assert_eq!(stats.keys_from_cache, 2 * 2 + 4 * 3);
    // The client's 8 requests and the edge's 2 forwards. No other
    // message kind carries reads.
    let metrics = dep.metrics();
    assert_eq!(metrics.counter_value("net", "net.read-point.messages"), 10);
}

/// The pinned-page script, run to completion. One replica of cluster 0
/// is cut off from its cluster while a write commits batch 1; the edge
/// forwards page one of a 2 × 32-bucket scan to a current replica
/// (served at batch 1), then page two — whose token pins batch 1 — to
/// the lagging one, which parks it like any other unservable query.
/// The partition heals at 300 ms and a later write (400 ms) lets the
/// healed replica notice it is behind, catch up and answer. Returns the
/// deployment, the scanned range and the key batch 1 wrote inside it.
fn pinned_page_scan(freshness_window: SimDuration) -> (Deployment, ScanRange, Key) {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.node.freshness_window = freshness_window;
    config.client.record_results = true;
    // The reader must outwait the partition, not retry around it.
    config.client.retry_after = SimDuration::from_secs(5);
    config.edge = EdgeConfig::honest(1);
    let topo = config.topo.clone();
    // Two 32-bucket pages; the written key lies inside the range, the
    // late writer's outside it.
    let range = window_on(&topo, ClusterId(0));
    let inside = keys_on(&topo, ClusterId(0), 1).remove(0);
    let outside = keys_on(&topo, ClusterId(0), 64)
        .into_iter()
        .find(|k| !range.contains_key(k, SCAN_DEPTH))
        .expect("a key outside a 64-bucket window");
    let write = |key: &Key, value: &str| ClientOp::ReadWrite {
        reads: vec![],
        writes: vec![(key.clone(), Value::from(value))],
    };
    let reader = ClientPlan::ops(vec![
        write(&inside, "v1"),
        ClientOp::Query {
            query: ReadQuery::scatter_scan(vec![ClusterId(0)], range, 32),
        },
    ]);
    // A later write is what lets the healed replica notice it is
    // behind and fetch the decided prefix.
    let heal_at = SimTime(300_000);
    let late_writer = ClientPlan::with_profile(
        vec![write(&outside, "v2")],
        ClientProfile::new().start_delay(SimDuration::from_millis(400)),
    );
    let mut dep = Deployment::build_custom(config, vec![reader, late_writer]);
    // The edge's upstream round-robin sends its first forward to
    // replica 1 and its second — page two — to replica 2.
    let lagging = ReplicaId::new(ClusterId(0), 2);
    let rest = topo
        .replicas_of(ClusterId(0))
        .filter(|r| *r != lagging)
        .map(NodeId::Replica);
    let cut = dep.impose_partition([NodeId::Replica(lagging)], rest);
    dep.run_until(heal_at);

    let e0 = EdgeId::new(ClusterId(0), 0);
    let reader_id = dep.client_ids[0];
    assert_eq!(dep.node(lagging).exec.applied_batches(), 1, "genesis only");
    assert_eq!(dep.node(lagging).parked_reads(), 1, "page two is parked");
    assert_eq!(dep.edge_node(e0).pending_upstream(), 1);
    assert_eq!(dep.edge_node(e0).stats.scans_forwarded, 2);
    assert_eq!(dep.client(reader_id).stats.scans_accepted, 1, "page one");
    assert!(dep.client(reader_id).query_results.is_empty());

    dep.heal_partition(cut);
    dep.run_until_done(SimTime(600_000_000));
    assert_eq!(dep.node(lagging).parked_reads(), 0);
    assert_eq!(dep.edge_node(e0).pending_upstream(), 0);
    (dep, range, inside)
}

/// The rows [`pinned_page_scan`] must return: the preloaded window with
/// batch 1's write applied.
fn pinned_page_rows(dep: &Deployment, range: &ScanRange, inside: &Key) -> Vec<(Key, Value)> {
    let mut want = expected_rows(&dep.data, &dep.topo, ClusterId(0), range);
    for (key, value) in &mut want {
        if key == inside {
            *value = Value::from("v1");
        }
    }
    want
}

/// Pinned-page liveness: page two of a paginated scan carries a token
/// pinning the batch page one verified at, so a replica that has not
/// applied that batch yet parks the page like any other unservable
/// query and answers once it catches up — nothing falls back, nothing
/// is lost. The scan completes, both pages verified at batch 1, only
/// after the partition heals.
#[test]
fn pinned_page_parks_at_a_lagging_replica_and_completes_after_heal() {
    let (dep, range, inside) = pinned_page_scan(SimDuration::from_secs(30));
    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.stats.retries, 0, "the scan waited, it did not retry");
    let [scan] = &client.query_results[..] else {
        panic!("one scan, got {}", client.query_results.len());
    };
    assert_eq!(scan.pages, 2);
    assert_eq!(scan.snapshot, [(ClusterId(0), BatchNum(1))]);
    let want = pinned_page_rows(&dep, &range, &inside);
    assert_eq!(scan.rows, [(ClusterId(0), want)]);
    let replica = dep.node(ReplicaId::new(ClusterId(0), 2));
    assert_eq!(replica.stats.rot_scans_served, 1);
}

/// Nobody is blamed for a pinned page that aged out. Under a 250 ms
/// freshness window the parked page two comes back ≈ 400 ms old: its
/// timestamp is in the certified header and the pin forces the batch,
/// so every server would have answered the same `StaleTimestamp`. The
/// client restarts the partition from page one through the selector —
/// no verification failure counted, no edge demoted — and the edge,
/// whose replay floor is a third of that window, forwards the restart
/// instead of replaying its equally aged page one. The scan completes
/// at the late writer's batch.
#[test]
fn aged_pinned_page_restarts_the_scan_and_blames_nobody() {
    let (dep, range, inside) = pinned_page_scan(SimDuration::from_millis(250));
    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.edge_selector.demotions(), 0);
    assert_eq!(client.stats.gave_up, 0);
    assert_eq!(client.stats.scans_accepted, 3, "page one twice, page two");
    let [scan] = &client.query_results[..] else {
        panic!("one scan, got {}", client.query_results.len());
    };
    assert_eq!(scan.pages, 2);
    assert_eq!(scan.snapshot, [(ClusterId(0), BatchNum(2))]);
    let want = pinned_page_rows(&dep, &range, &inside);
    assert_eq!(scan.rows, [(ClusterId(0), want)]);
}

/// Adaptive routing: a byzantine edge is demoted by the client's
/// `EdgeSelector` after its forgeries are rejected, traffic fails over
/// to the honest edge (and replicas), and every transaction still
/// completes with correct values.
#[test]
fn byzantine_edge_is_demoted_and_traffic_fails_over() {
    let mut config = DeploymentConfig::for_testing();
    config.client.record_results = true;
    // Two edges front cluster 0: index 0 lies, index 1 is honest.
    let byz = EdgeId::new(ClusterId(0), 0);
    let honest = EdgeId::new(ClusterId(0), 1);
    config.edge = EdgeConfig::builder()
        .per_cluster(2)
        .byzantine(byz, EdgeBehavior::TamperValue)
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 2);
    let ops = 20usize;
    let script: Vec<ClientOp> = (0..ops)
        .map(|_| ClientOp::ReadOnly { keys: k0.clone() })
        .collect();
    let mut dep = Deployment::build(config, vec![script]);
    dep.run_until_done(SimTime(600_000_000));

    let client = dep.client(dep.client_ids[0]);
    // The forgeries were seen, rejected, and pinned on the edge...
    assert!(client.stats.verification_failures >= 1);
    let health = client
        .edge_selector
        .health(ClusterId(0), transedge::common::NodeId::Edge(byz))
        .expect("byzantine edge is a registered target");
    assert!(
        health.demotions >= 1,
        "the byzantine edge must be demoted (rejections {})",
        health.total_rejections
    );
    // ...after which traffic continued elsewhere: the byzantine edge
    // saw only the pre-demotion trickle while the honest edge carried
    // the load.
    let byz_node = dep.edge_node(byz);
    let honest_node = dep.edge_node(honest);
    assert!(
        byz_node.stats.requests < ops as u64 / 2,
        "demotion must starve the byzantine edge (got {} of {ops} requests)",
        byz_node.stats.requests
    );
    assert!(
        honest_node.stats.requests > byz_node.stats.requests,
        "the honest edge must take over (honest {}, byzantine {})",
        honest_node.stats.requests,
        byz_node.stats.requests
    );
    // Correctness never degraded.
    assert_eq!(client.stats.gave_up, 0);
    assert_eq!(client.query_results.len(), ops);
    let expected = dep.data.clone();
    for rot in &client.query_results {
        for (key, value) in &rot.values {
            let want = expected.iter().find(|(x, _)| x == key).map(|(_, v)| v);
            assert_eq!(value.as_ref(), want);
        }
    }
    assert!(dep.samples().iter().all(|s| s.committed));
}

/// Omission under attack: five-key reads flow through an edge that
/// drops one proven key (and its value slot) from every section it
/// relays while keeping the multiproof. The proof no longer matches
/// the advertised key set, so the client rejects each one as a bad
/// proof — cryptographic evidence — the edge is demoted, traffic
/// fails over, and every read still completes with correct values.
#[test]
fn key_omitting_edge_is_rejected_and_demoted() {
    let mut config = DeploymentConfig::for_testing();
    config.client.record_results = true;
    let byz = EdgeId::new(ClusterId(0), 0);
    let honest = EdgeId::new(ClusterId(0), 1);
    config.edge = EdgeConfig::builder()
        .per_cluster(2)
        .byzantine(byz, EdgeBehavior::OmitKey)
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 5);
    let ops = 20usize;
    let script: Vec<ClientOp> = (0..ops)
        .map(|_| ClientOp::ReadOnly { keys: k0.clone() })
        .collect();
    let mut dep = Deployment::build(config, vec![script]);
    dep.run_until_done(SimTime(600_000_000));

    let client = dep.client(dep.client_ids[0]);
    // The omissions were seen and rejected.
    assert!(client.stats.verification_failures >= 1);
    let health = client
        .edge_selector
        .health(ClusterId(0), transedge::common::NodeId::Edge(byz))
        .expect("byzantine edge is a registered target");
    assert!(
        health.demotions >= 1,
        "the omitting edge must be demoted (rejections {})",
        health.total_rejections
    );
    // Traffic failed over to the honest edge.
    let byz_node = dep.edge_node(byz);
    let honest_node = dep.edge_node(honest);
    assert!(
        honest_node.stats.requests > byz_node.stats.requests,
        "the honest edge must take over (honest {}, byzantine {})",
        honest_node.stats.requests,
        byz_node.stats.requests
    );
    // Correctness never degraded.
    assert_eq!(client.stats.gave_up, 0);
    assert_eq!(client.query_results.len(), ops);
    let expected = dep.data.clone();
    for rot in &client.query_results {
        for (key, value) in &rot.values {
            let want = expected.iter().find(|(x, _)| x == key).map(|(_, v)| v);
            assert_eq!(value.as_ref(), want);
        }
    }
    assert!(dep.samples().iter().all(|s| s.committed));
}

/// An outsider that asks a replica an honest question, doctors a value
/// in the honest answer, and pushes the forgery at an edge as the
/// "result" of a request the edge never made.
struct Outsider {
    replica: NodeId,
    victim: NodeId,
    keys: Vec<Key>,
    pushed: u64,
}

impl transedge::simnet::Actor<NetMsg> for Outsider {
    fn on_start(&mut self, ctx: &mut transedge::simnet::Context<'_, NetMsg>) {
        let query = ReadQuery::point(self.keys.clone());
        ctx.send(self.replica, NetMsg::Read { req: 1, query });
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        msg: NetMsg,
        ctx: &mut transedge::simnet::Context<'_, NetMsg>,
    ) {
        let NetMsg::ReadResult {
            req,
            result: ReadPayload::Point { mut section, .. },
        } = msg
        else {
            return;
        };
        let body = &section.body;
        let mut values = body.values().to_vec();
        *values.iter_mut().find(|v| v.is_some()).expect("a value") =
            Some(Value::from("forged-by-outsider"));
        section.body = MultiProofBody::new(body.keys().to_vec(), values, body.proof().clone());
        let result = ReadPayload::Point {
            section,
            fresh: None,
        };
        ctx.send(self.victim, NetMsg::ReadResult { req, result });
        self.pushed += 1;
    }
}

/// An edge admits only the answer it is waiting for. Its cache takes
/// certified material unverified, so a forged section pushed at it by a
/// node it never asked — here under the very request id its first
/// forward will use — must not be cached: otherwise the *honest* edge
/// replays the forgery to the next client, is rejected, and is demoted
/// (with a directory, convicted fleet-wide on signed evidence) for a
/// lie it never told.
#[test]
fn an_edge_does_not_cache_a_result_it_did_not_ask_for() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    config.edge = EdgeConfig::honest(1);
    let topo = config.topo.clone();
    let keys = keys_on(&topo, ClusterId(0), 2);
    // The reader starts once the forgery has landed.
    let reader = ClientPlan::with_profile(
        vec![ClientOp::ReadOnly { keys: keys.clone() }],
        ClientProfile::new().start_delay(SimDuration::from_millis(100)),
    );
    let mut dep = Deployment::build_custom(config, vec![reader]);
    let e0 = EdgeId::new(ClusterId(0), 0);
    let outsider = NodeId::Client(transedge::common::ClientId(u32::MAX));
    dep.sim.add_actor(
        outsider,
        Box::new(Outsider {
            replica: NodeId::Replica(ReplicaId::new(ClusterId(0), 0)),
            victim: NodeId::Edge(e0),
            keys: keys.clone(),
            pushed: 0,
        }),
    );
    dep.run_until_done(SimTime(600_000_000));

    let pushed = dep.sim.actor_as::<Outsider>(outsider).map(|o| o.pushed);
    assert_eq!(pushed, Some(1), "the forgery was sent");
    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.edge_selector.demotions(), 0);
    let [read] = &client.query_results[..] else {
        panic!("one read, got {}", client.query_results.len());
    };
    for (key, value) in &read.values {
        let want = dep.data.iter().find(|(x, _)| x == key).map(|(_, v)| v);
        assert_eq!(value.as_ref(), want);
    }
    let stats = dep.edge_node(e0).stats;
    assert_eq!(stats.tampered, 0, "the edge is honest");
    assert_eq!(stats.served_from_cache, 0, "nothing was cached");
    assert_eq!(stats.forwarded, 1, "the read went upstream");
}

/// Commit-freedom: serving read-only transactions generates no
/// consensus traffic — batch production is driven by writes only.
#[test]
fn read_only_transactions_produce_no_batches() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 2);
    let k1 = keys_on(&topo, ClusterId(1), 2);
    // Read-only clients only; no writes at all after genesis.
    let ops: Vec<ClientOp> = (0..30)
        .map(|_| ClientOp::ReadOnly {
            keys: vec![k0[0].clone(), k1[0].clone()],
        })
        .collect();
    let mut dep = Deployment::build(config, vec![ops]);
    dep.run_until_done(SimTime(600_000_000));
    // Every replica is still at the genesis batch: nothing was
    // committed to any SMR log by the reads.
    for r in topo.all_replicas() {
        let node = dep.node(r);
        assert_eq!(
            node.exec.applied_batches(),
            1, // genesis only
            "read-only traffic must not produce batches at {r}"
        );
    }
    assert!(dep.samples().iter().all(|s| s.committed));
}

// ---------------------------------------------------------------------
// Verified range scans (completeness proofs over the tree order)
// ---------------------------------------------------------------------

use transedge::crypto::{sha256, ScanRange};

/// The deployment's tree depth, which scan windows are expressed
/// against.
const SCAN_DEPTH: u32 = transedge::core::node::DEFAULT_TREE_DEPTH;

/// An aligned 64-bucket window of `cluster`'s tree order guaranteed to
/// contain at least one preloaded key.
fn window_on(topo: &ClusterTopology, cluster: ClusterId) -> ScanRange {
    let key = &keys_on(topo, cluster, 1)[0];
    let bucket = ScanRange::bucket_of(key, SCAN_DEPTH);
    let start = bucket - (bucket % 64);
    ScanRange::new(start, start + 63)
}

/// Ground truth for a scan: every preloaded key of `cluster` whose
/// tree-order bucket falls in `range`, ascending by key hash.
fn expected_rows(
    data: &[(Key, Value)],
    topo: &ClusterTopology,
    cluster: ClusterId,
    range: &ScanRange,
) -> Vec<(Key, Value)> {
    let mut rows: Vec<(Key, Value)> = data
        .iter()
        .filter(|(k, _)| topo.partition_of(k) == cluster && range.contains_key(k, SCAN_DEPTH))
        .cloned()
        .collect();
    rows.sort_by_key(|(k, _)| sha256(k.as_bytes()));
    rows
}

/// Honest edge tier: a repeated scan is forwarded once, then replayed
/// from the edge's per-(range, batch) scan cache — for the window it
/// was admitted under and no other: a *narrower* scan inside a cached
/// window is a miss of its own, forwarded once and replayed after.
/// Every result is complete and correct against the committed state.
#[test]
fn verified_scans_replay_from_edge_cache_for_their_own_window() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    config.edge = EdgeConfig::honest(1);
    let topo = config.topo.clone();
    let wide = window_on(&topo, ClusterId(0));
    // A strict sub-window of `wide` (may hold fewer — or zero — keys;
    // completeness is what is being tested, not row count).
    let narrow = ScanRange::new(wide.first + 8, wide.last - 8);
    let mut script: Vec<ClientOp> = (0..4)
        .map(|_| ClientOp::RangeScan {
            cluster: ClusterId(0),
            range: wide,
        })
        .collect();
    script.extend((0..4).map(|_| ClientOp::RangeScan {
        cluster: ClusterId(0),
        range: narrow,
    }));
    let mut dep = Deployment::build(config, vec![script]);
    dep.run_until_done(SimTime(600_000_000));

    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.stats.gave_up, 0);
    assert_eq!(client.stats.scans_accepted, 8);
    assert_eq!(client.query_results.len(), 8);
    for (i, result) in client.query_results.iter().enumerate() {
        let range = if i < 4 { wide } else { narrow };
        let want = expected_rows(&dep.data, &topo, ClusterId(0), &range);
        assert_eq!(
            result.rows,
            vec![(ClusterId(0), want)],
            "verified scan must return exactly the committed rows of its window"
        );
    }
    assert!(
        !client.query_results[0].rows[0].1.is_empty(),
        "the wide window must contain at least one preloaded key"
    );
    let stats = dep.edge_node(EdgeId::new(ClusterId(0), 0)).stats;
    assert_eq!(stats.scan_requests, 8);
    assert_eq!(
        stats.scans_forwarded, 2,
        "the first scan of each window goes upstream; everything else replays"
    );
    assert_eq!(stats.scans_from_cache, 6);
    // Scans never touch the SMR log.
    for r in topo.all_replicas() {
        assert_eq!(dep.node(r).exec.applied_batches(), 1);
    }
}

/// The acceptance scenario for completeness checking: an edge that
/// *omits a row* from a scanned window (keeping the honest proof — so
/// every surviving row still verifies individually) is rejected by
/// `ReadVerifier::verify_scan`, demoted by the client's `EdgeSelector`,
/// and traffic fails over to the honest edge, which ends up serving the
/// same scan from its cache. No incomplete result is ever accepted.
#[test]
fn scan_omitting_edge_is_rejected_and_demoted() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    let byz = EdgeId::new(ClusterId(0), 0);
    let honest = EdgeId::new(ClusterId(0), 1);
    config.edge = EdgeConfig::builder()
        .per_cluster(2)
        .byzantine(byz, EdgeBehavior::OmitKey)
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let range = window_on(&topo, ClusterId(0));
    let ops = 20usize;
    let script: Vec<ClientOp> = (0..ops)
        .map(|_| ClientOp::RangeScan {
            cluster: ClusterId(0),
            range,
        })
        .collect();
    let mut dep = Deployment::build(config, vec![script]);
    dep.run_until_done(SimTime(600_000_000));

    let client = dep.client(dep.client_ids[0]);
    // The omissions were seen and rejected...
    assert!(
        client.stats.verification_failures >= 1,
        "an omitted row must be caught by the completeness check (got {})",
        client.stats.verification_failures
    );
    let byz_node = dep.edge_node(byz);
    assert!(
        byz_node.stats.tampered > 0,
        "the byzantine edge must have dropped rows"
    );
    // ...the lying edge is demoted on cryptographic evidence...
    let health = client
        .edge_selector
        .health(ClusterId(0), transedge::common::NodeId::Edge(byz))
        .expect("byzantine edge is a registered target");
    assert!(
        health.demotions >= 1,
        "the omitting edge must be demoted (rejections {})",
        health.total_rejections
    );
    // ...while the honest edge serves the same scan from its cache.
    let honest_node = dep.edge_node(honest);
    assert!(
        honest_node.stats.scans_from_cache >= 1,
        "the honest edge must replay the scan from cache (forwarded {}, cached {})",
        honest_node.stats.scans_forwarded,
        honest_node.stats.scans_from_cache
    );
    // Every accepted result is complete and correct; nothing gave up.
    assert_eq!(client.stats.gave_up, 0);
    assert_eq!(client.query_results.len(), ops);
    let want = expected_rows(&dep.data, &topo, ClusterId(0), &range);
    assert!(!want.is_empty());
    for result in &client.query_results {
        assert_eq!(
            result.rows[0].1, want,
            "no omission may survive verification: accepted rows must be complete"
        );
    }
    for s in &client.samples {
        assert!(s.committed, "scans never abort");
    }
}

// ---------------------------------------------------------------------
// The unified ReadQuery protocol: paginated scatter-gather scans under
// a snapshot-policy floor, through untrusted edges.
// ---------------------------------------------------------------------

use transedge::core::{QueryShape, ReadQuery, SnapshotPolicy};

/// Build the acceptance-scenario deployment: writers raising the LCE
/// above `NONE` on both partitions (their keys kept *outside* the
/// scanned windows so ground truth stays the preloaded data), plus one
/// reader issuing a single unified query: a paginated scan (two
/// windows per partition) scattered over both partitions, under
/// `SnapshotPolicy::MinEpoch` — the scan analogue of a round-2 floor.
fn unified_query_scenario(
    config: &mut transedge::core::setup::DeploymentConfig,
) -> (Vec<Vec<ClientOp>>, ReadQuery, [ScanRange; 2]) {
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    let topo = config.topo.clone();
    // One paginated range per partition: two aligned 32-bucket windows.
    let ranges = [
        {
            let w = window_on(&topo, ClusterId(0));
            let start = w.first - (w.first % 64);
            ScanRange::new(start, start + 63)
        },
        {
            let w = window_on(&topo, ClusterId(1));
            let start = w.first - (w.first % 64);
            ScanRange::new(start, start + 63)
        },
    ];
    // The scatter query scans the *same* bucket range on both
    // partitions; pick the one holding cluster 0's keys (cluster 1's
    // half may be sparse — completeness, not row count, is under test).
    let range = ranges[0];
    let query = ReadQuery {
        consistency: SnapshotPolicy::MinEpoch(transedge::common::Epoch(0)),
        shape: QueryShape::Scan {
            clusters: vec![ClusterId(0), ClusterId(1)],
            range,
            window: 32,
        },
        page: None,
        feed: None,
        trace: None,
    };
    // Writers: cross-partition transactions commit 2PC groups, raising
    // each partition's LCE to a real epoch so the MinEpoch floor
    // becomes servable. Their keys stay outside every scanned window.
    let outside = |cluster: ClusterId| -> Vec<Key> {
        (0u32..10_000)
            .map(Key::from_u32)
            .filter(|k| {
                topo.partition_of(k) == cluster
                    && !range.contains_key(k, SCAN_DEPTH)
                    && !ranges[1].contains_key(k, SCAN_DEPTH)
            })
            .take(4)
            .collect()
    };
    let w0 = outside(ClusterId(0));
    let w1 = outside(ClusterId(1));
    let writer: Vec<ClientOp> = (0..8)
        .map(|i| ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![
                (w0[i % 4].clone(), Value::from("w0")),
                (w1[i % 4].clone(), Value::from("w1")),
            ],
        })
        .collect();
    let reader = vec![ClientOp::Query {
        query: query.clone(),
    }];
    (vec![writer, reader], query, ranges)
}

/// The tentpole acceptance scenario, honest half: one `ReadQuery`
/// spanning two partitions with a paginated scan under
/// `SnapshotPolicy::MinEpoch`, served through edges, every section
/// verified against its own certified root.
#[test]
fn unified_paginated_scatter_query_under_min_epoch() {
    let mut config = DeploymentConfig::for_testing();
    config.edge = EdgeConfig::honest(1);
    let (scripts, query, _) = unified_query_scenario(&mut config);
    let topo = config.topo.clone();
    let mut dep = Deployment::build(config, scripts);
    dep.run_until_done(SimTime(600_000_000));

    let reader = dep.client(dep.client_ids[1]);
    assert_eq!(reader.stats.verification_failures, 0);
    assert_eq!(reader.stats.gave_up, 0);
    assert_eq!(reader.query_results.len(), 1);
    let result = &reader.query_results[0];
    // Both partitions answered, each pinned above the LCE floor: the
    // genesis batch (LCE = −1) can never satisfy MinEpoch(0), so every
    // snapshot batch is a later one.
    assert_eq!(result.snapshot.len(), 2);
    for (cluster, batch) in &result.snapshot {
        assert!(
            batch.0 >= 1,
            "{cluster}: MinEpoch(0) must skip past genesis (got batch {})",
            batch.0
        );
    }
    // Two 32-bucket pages per partition.
    assert_eq!(result.pages, 4, "2 windows × 2 partitions");
    // Rows are complete and correct per partition: exactly the
    // preloaded rows of the scanned range (writers stayed outside it).
    let QueryShape::Scan { range, .. } = query.shape else {
        unreachable!()
    };
    assert_eq!(result.rows.len(), 2);
    for (cluster, rows) in &result.rows {
        let want = expected_rows(&dep.data, &topo, *cluster, &range);
        assert_eq!(
            rows, &want,
            "{cluster}: stitched pages must equal the committed window"
        );
    }
    assert!(
        !result.rows[0].1.is_empty(),
        "cluster 0's half of the scatter must contain preloaded rows"
    );
    // It was actually served through the edge tier.
    let edge_scans: u64 = dep
        .edge_ids
        .iter()
        .map(|e| dep.edge_node(*e).stats.scan_requests)
        .sum();
    assert!(edge_scans >= 1, "the query must route through the edges");
}

/// Round two of a paginated scatter scan: cross-partition writers keep
/// committing *inside* the scanned range, so a reader's two partition
/// snapshots fail the dependency check and the lagging partition is
/// re-read at a raised LCE floor — from page one, the path every point
/// read takes. Each partition's stitched rows must be exactly what that
/// partition had committed at the snapshot batch the result records.
#[test]
fn scan_round_two_restarts_from_page_one_at_the_raised_floor() {
    use transedge::edge::SnapshotSource;

    const SCANS: usize = 12;
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    let topo = config.topo.clone();
    // Two 2048-bucket pages per partition.
    let range = ScanRange::new(0, 4095);
    let inside = |cluster: ClusterId| -> Vec<Key> {
        (0u32..10_000)
            .map(Key::from_u32)
            .filter(|k| topo.partition_of(k) == cluster && range.contains_key(k, SCAN_DEPTH))
            .take(4)
            .collect()
    };
    let (k0, k1) = (inside(ClusterId(0)), inside(ClusterId(1)));
    let mut scripts: Vec<Vec<ClientOp>> = (0..3usize)
        .map(|w| {
            (0..15)
                .map(|i| ClientOp::ReadWrite {
                    reads: vec![],
                    writes: vec![
                        (
                            k0[(w + i) % 4].clone(),
                            Value::from(format!("a{w}-{i}").as_str()),
                        ),
                        (
                            k1[(w + i) % 4].clone(),
                            Value::from(format!("b{w}-{i}").as_str()),
                        ),
                    ],
                })
                .collect()
        })
        .collect();
    let query = ReadQuery::scatter_scan(vec![ClusterId(0), ClusterId(1)], range, 2048);
    scripts.push(vec![ClientOp::Query { query }; SCANS]);
    let mut dep = Deployment::build(config, scripts);
    dep.run_until_done(SimTime(600_000_000));

    let reader = dep.client(dep.client_ids[3]);
    assert_eq!(reader.stats.verification_failures, 0);
    assert_eq!(reader.stats.gave_up, 0);
    assert_eq!(reader.query_results.len(), SCANS);
    let mut round2 = 0u64;
    let mut moved = false;
    for result in &reader.query_results {
        round2 += u64::from(result.needed_round2);
        // Whatever round a partition's answer came from, it was
        // paginated in full.
        assert_eq!(result.pages, 4, "2 pages × 2 partitions");
        assert_eq!(result.snapshot.len(), 2);
        for ((cluster, rows), (pinned, batch)) in result.rows.iter().zip(&result.snapshot) {
            assert_eq!(cluster, pinned);
            let replica = dep.node(ReplicaId::new(*cluster, 0));
            assert_eq!(
                rows,
                &replica.exec.rows_at(&range, *batch),
                "{cluster}: rows must be the committed window at batch {}",
                batch.0
            );
            moved |= rows != &expected_rows(&dep.data, &topo, *cluster, &range);
        }
    }
    assert!(moved, "the writers must have changed the scanned rows");
    assert!(round2 > 0, "no scan needed round two");
    // Round two re-paginated: a restarted partition's two round-1
    // pages were accepted, discarded, and fetched again at the floor.
    assert!(
        reader.stats.scans_accepted >= 4 * SCANS as u64 + 2 * round2,
        "{} pages accepted for {SCANS} scans, {round2} of them with a round two",
        reader.stats.scans_accepted
    );
}

/// The tentpole acceptance scenario, byzantine half: the same query
/// with one byzantine edge in the fan-out (omitting a row from a
/// scanned page, the completeness attack) is rejected, the edge
/// demoted on cryptographic evidence, and the query retried to success
/// with complete, correct rows.
#[test]
fn unified_query_with_byzantine_edge_in_fanout_recovers() {
    let mut config = DeploymentConfig::for_testing();
    let byz = EdgeId::new(ClusterId(0), 0);
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .byzantine(byz, EdgeBehavior::OmitKey)
        .build()
        .expect("edge config");
    let (scripts, query, _) = unified_query_scenario(&mut config);
    let topo = config.topo.clone();
    let mut dep = Deployment::build(config, scripts);
    dep.run_until_done(SimTime(600_000_000));

    let reader = dep.client(dep.client_ids[1]);
    // The omission was seen and rejected…
    assert!(
        reader.stats.verification_failures >= 1,
        "the omitted row must be caught (failures {})",
        reader.stats.verification_failures
    );
    assert!(dep.edge_node(byz).stats.tampered >= 1);
    // …the lying edge demoted on cryptographic evidence…
    let health = reader
        .edge_selector
        .health(ClusterId(0), transedge::common::NodeId::Edge(byz))
        .expect("byzantine edge is a registered target");
    assert!(
        health.demotions >= 1,
        "the byzantine edge must be demoted (rejections {})",
        health.total_rejections
    );
    // …and the query still completed, complete and correct.
    assert_eq!(reader.stats.gave_up, 0);
    assert_eq!(reader.query_results.len(), 1);
    let result = &reader.query_results[0];
    assert_eq!(result.snapshot.len(), 2);
    assert_eq!(result.pages, 4);
    let QueryShape::Scan { range, .. } = query.shape else {
        unreachable!()
    };
    for (cluster, rows) in &result.rows {
        let want = expected_rows(&dep.data, &topo, *cluster, &range);
        assert_eq!(
            rows, &want,
            "{cluster}: no omission may survive — accepted pages must be complete"
        );
    }
    assert!(!result.rows[0].1.is_empty());
    for s in &reader.samples {
        assert!(s.committed, "unified queries never abort");
    }
}

// ---------------------------------------------------------------------
// The gossiped edge directory + edge-tier scatter-gather (the
// `transedge-directory` subsystem's acceptance scenarios).
// ---------------------------------------------------------------------

/// Fleet-wide demotion through gossip: client A catches a byzantine
/// edge the hard way (one rejected round trip) and pushes signed
/// evidence with the offending proof attached; the edge fleet gossips
/// it; client B, starting later, pulls the directory's records at
/// boot and demotes the liar **before ever contacting it** — zero
/// rejected round trips, zero forgeries seen.
#[test]
fn gossiped_rejection_demotes_edge_for_other_clients_before_contact() {
    use transedge::common::SimDuration;
    use transedge::core::setup::ClientPlan;

    let mut config = DeploymentConfig::for_testing();
    // Realistic latencies: unsampled edges score an optimistic prior
    // *below* measured latency, so client A explores both candidates
    // and is guaranteed to trip over the liar.
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    let byz = EdgeId::new(ClusterId(0), 0);
    config.edge = EdgeConfig::builder()
        .per_cluster(2)
        .byzantine(byz, EdgeBehavior::TamperValue)
        .gossip_directory(SimDuration::from_millis(20))
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 2);
    let ops: Vec<ClientOp> = (0..10)
        .map(|_| ClientOp::ReadOnly { keys: k0.clone() })
        .collect();
    // Client B starts well after A finished and gossip had many
    // rounds to spread A's evidence across the fleet.
    let late = ClientProfile::new().start_delay(SimDuration::from_millis(500));
    let mut dep = Deployment::build_custom(
        config,
        vec![
            ClientPlan::ops(ops.clone()),
            ClientPlan::with_profile(ops, late),
        ],
    );
    dep.run_until_done(SimTime(600_000_000));

    // A caught the forgery first-hand and gossiped the evidence.
    let a = dep.client(dep.client_ids[0]);
    assert!(
        a.stats.verification_failures >= 1,
        "client A must catch the forgery first-hand"
    );
    assert!(
        a.stats.directory_evidence_sent >= 1,
        "client A must push signed evidence into the gossip layer"
    );
    // The whole edge fleet learned it (evidence re-verified at every
    // hop, not taken on faith).
    for edge in &dep.edge_ids {
        let agent = dep.edge_node(*edge).directory().expect("directory enabled");
        assert!(
            agent.knows_byzantine(byz),
            "{edge}: evidence must reach every edge via gossip"
        );
    }
    // B was seeded at boot and shunned the liar without ever paying
    // for the lesson: demoted with zero first-hand traffic.
    let b = dep.client(dep.client_ids[1]);
    assert!(b.stats.directory_seeded >= 1, "B must ingest an answer");
    assert_eq!(
        b.stats.verification_failures, 0,
        "B must never receive (and pay for) a forgery"
    );
    let health = b
        .edge_selector
        .health(ClusterId(0), transedge::common::NodeId::Edge(byz))
        .expect("byzantine edge is a registered target");
    assert!(
        health.demotions >= 1,
        "B must demote the liar on the gossip hint alone"
    );
    assert_eq!(
        health.successes + health.failures + health.total_rejections,
        0,
        "the demotion must land before B ever contacts the edge"
    );
    // Correctness never depended on any of it.
    let expected = dep.data.clone();
    for id in &dep.client_ids {
        let client = dep.client(*id);
        assert_eq!(client.stats.gave_up, 0);
        assert_eq!(client.query_results.len(), 10);
        for rot in &client.query_results {
            for (key, value) in &rot.values {
                let want = expected.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                assert_eq!(value.as_ref(), want);
            }
        }
    }
}

/// An honest fleet has no evidence to hand out, and a booting client
/// holds its first op until its directory pull is answered: the edge
/// must answer with an empty delta rather than stay silent ("reply only
/// when non-empty" is the rule between edges, not here), or every
/// client would sit out the whole seed timer — a stall no latency
/// sample shows, because a sample starts with its op. And the directory
/// speaks exactly two message kinds: the pull, and the delta that
/// answers it, gossips between edges and carries a client's evidence.
#[test]
fn honest_fleet_answers_every_boot_pull_at_once() {
    use transedge::common::{ClientId, NodeId, SimDuration};
    use transedge::core::setup::ClientPlan;

    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.edge = EdgeConfig::builder()
        .per_cluster(2)
        .gossip_directory(SimDuration::from_millis(20))
        .build()
        .expect("edge config");
    let retry_after = config.client.retry_after;
    // Every client is homed at cluster 0 and pulls from one of its
    // edges: one local hop each way, at the far end of the jitter.
    let one_way = config.latency.base_latency(
        NodeId::Client(ClientId(0)),
        NodeId::Edge(EdgeId::new(ClusterId(0), 0)),
    );
    let round_trip = one_way.mul_f64(2.0 * (1.0 + config.latency.jitter_frac));
    assert!(round_trip.0 * 10 < retry_after.0);
    let keys = keys_on(&config.topo, ClusterId(0), 2);
    let ops: Vec<ClientOp> = (0..3)
        .map(|_| ClientOp::ReadOnly { keys: keys.clone() })
        .collect();
    let delays = [0u64, 0, 70];
    let plans = delays
        .iter()
        .map(|ms| {
            let profile = ClientProfile::new().start_delay(SimDuration::from_millis(*ms));
            ClientPlan::with_profile(ops.clone(), profile)
        })
        .collect();
    let mut dep = Deployment::build_custom(config, plans);
    dep.run_until_done(SimTime(600_000_000));

    for (id, ms) in dep.client_ids.iter().zip(delays) {
        let client = dep.client(*id);
        assert!(client.stats.directory_seeded >= 1, "{id}: pull unanswered");
        assert_eq!(client.stats.verification_failures + client.stats.gave_up, 0);
        let boot = SimTime(0) + SimDuration::from_millis(ms);
        let first_op = client.samples[0].start;
        assert!(
            first_op <= boot + round_trip,
            "{id}: first op at {first_op:?}, boot at {boot:?} — waited out the seed timer?"
        );
        let agent = client.directory().expect("directory enabled");
        assert!(agent.convicted_edges().is_empty());
        assert!(dep.edge_ids.iter().all(|e| !agent.struck(NodeId::Edge(*e))));
    }
    let kinds: Vec<&str> = dep
        .sim
        .stats()
        .per_kind
        .keys()
        .copied()
        .filter(|kind| kind.contains("directory"))
        .collect();
    assert_eq!(kinds, ["directory-delta-gossip", "directory-pull"]);
}

/// Replica reads (`node.rot_served`) summed over one cluster.
fn replica_reads(dep: &Deployment, cluster: ClusterId) -> u64 {
    let reg = dep.metrics();
    (0..dep.topo.replicas_per_cluster())
        .map(|r| reg.counter_value(&format!("replica-{}-{r}", cluster.0), "node.rot_served"))
        .sum()
}

/// Step the simulation until client 0 has `n` recorded query results.
fn run_until_results(dep: &mut Deployment, n: usize) {
    while dep.client(dep.client_ids[0]).query_results.len() < n {
        assert!(dep.sim.step(), "simulation quiesced before {n} results");
    }
}

/// Every recorded two-partition query result of client 0 spans both
/// partitions and matches the preloaded ground truth.
fn assert_two_partition_results_correct(dep: &Deployment) {
    for q in &dep.client(dep.client_ids[0]).query_results {
        assert_eq!(q.snapshot.len(), 2, "both partitions answered");
        for (key, value) in &q.values {
            let want = dep.data.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            assert_eq!(value.as_ref(), want);
        }
    }
}

/// Edge-tier scatter-gather, honest half: a two-partition `ReadQuery`
/// is served through a **single edge contact** — the edge splits it,
/// forwards the foreign sub-query across the edge tier, and returns
/// the part answers in one envelope, each verified by the client
/// against its partition's own certified root.
#[test]
fn two_partition_query_served_through_single_edge_contact() {
    use transedge::common::SimDuration;
    use transedge::core::ReadQuery;

    const OPS: u64 = 8;
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    config.client.single_contact = true;
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .gossip_directory(SimDuration::from_millis(20))
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 2);
    let k1 = keys_on(&topo, ClusterId(1), 1);
    let keys = vec![k0[0].clone(), k0[1].clone(), k1[0].clone()];
    let ops: Vec<ClientOp> = (0..OPS)
        .map(|_| ClientOp::Query {
            query: ReadQuery::point(keys.clone()),
        })
        .collect();
    let mut dep = Deployment::build(config, vec![ops]);
    // The first query is cold (the contact forwards both parts); when
    // it completes the second is already on the wire.
    run_until_results(&mut dep, 1);
    let cold = dep.metrics();
    dep.run_until_done(SimTime(600_000_000));
    let done = dep.metrics();

    // Every later query is fully warm and costs exactly client→contact
    // plus contact→client: the contact serves both parts in-process, so
    // no message's sender is its receiver and no part travels alone.
    let sent = |kind: &str| {
        let name = format!("net.{kind}.messages");
        done.counter_value("net", &name) - cold.counter_value("net", &name)
    };
    assert_eq!(sent("read-point"), OPS - 2);
    assert_eq!(sent("read-result-gather"), OPS - 1);
    assert_eq!(sent("read-result-point"), 0);

    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.stats.retries, 0);
    assert_eq!(client.stats.gave_up, 0);
    assert_eq!(
        client.stats.gathers_sent, OPS,
        "every cross-partition query goes to one contact"
    );
    assert_eq!(
        client.stats.gathers_accepted, OPS,
        "every part of every envelope verifies end to end"
    );
    // The contact edge did the tier-side work: split, forwarded the
    // foreign part, filled the envelope.
    let edge_sum = |f: fn(&transedge::core::edge_node::EdgeNodeStats) -> u64| -> u64 {
        dep.edge_ids
            .iter()
            .map(|e| f(&dep.edge_node(*e).stats))
            .sum()
    };
    assert_eq!(edge_sum(|s| s.gather_requests), OPS);
    assert_eq!(edge_sum(|s| s.gather_completed), OPS);
    assert_eq!(
        edge_sum(|s| s.foreign_subs),
        OPS,
        "each gather carries a foreign part"
    );
    // The registry counts every partition cache of every edge — the
    // foreign ones a contact fills by couriering, not only home caches.
    let admitted = |foreign_too: bool| -> u64 {
        dep.edge_ids
            .iter()
            .flat_map(|e| {
                dep.edge_node(*e)
                    .replay_stats()
                    .filter(move |(cluster, _)| foreign_too || *cluster == e.cluster)
            })
            .map(|(_, replay)| replay.admitted)
            .sum()
    };
    assert_eq!(done.fleet_counter("replay.admitted"), admitted(true));
    assert!(admitted(true) > admitted(false));
    // Results are complete, correct, and span both partitions.
    assert_eq!(client.query_results.len(), OPS as usize);
    assert!(client
        .query_results
        .iter()
        .all(|q| q.values.len() == keys.len()));
    assert_two_partition_results_correct(&dep);
}

/// Edge-tier scatter-gather, byzantine half: the liar is the
/// *contact*. It corrupts the first section of every answer it
/// produces, gather slots included, so both parts of the envelope
/// arrive tampered. The client's per-part verification rejects each on
/// its own, re-reads each partition from a replica of that partition,
/// and completes with correct values — the forwarding tier is an
/// untrusted courier, never a trust boundary. Attribution follows what
/// the contact answered *for*: its forgery of the partition it fronts
/// is signed evidence for the fleet, its forgery of the part it merely
/// couriered only shuns it locally.
#[test]
fn tampered_forwarded_section_is_rejected_at_the_client() {
    use transedge::common::SimDuration;
    use transedge::core::ReadQuery;

    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    config.client.single_contact = true;
    // The contact: the best edge of the first partition in sort order.
    let byz = EdgeId::new(ClusterId(0), 0);
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .byzantine(byz, EdgeBehavior::TamperValue)
        .gossip_directory(SimDuration::from_millis(20))
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 2);
    let k1 = keys_on(&topo, ClusterId(1), 1);
    let keys = vec![k0[0].clone(), k0[1].clone(), k1[0].clone()];
    let ops: Vec<ClientOp> = (0..6)
        .map(|_| ClientOp::Query {
            query: ReadQuery::point(keys.clone()),
        })
        .collect();
    let mut dep = Deployment::build(config, vec![ops]);

    // The first query goes whole to the lying contact, which fetches
    // both parts from their partitions' replicas and doctors each on
    // the way out.
    run_until_results(&mut dep, 1);
    let client = dep.client(dep.client_ids[0]);
    assert_eq!(dep.edge_node(byz).stats.tampered, 2);
    assert_eq!(
        client.stats.verification_failures, 2,
        "each tampered part is rejected on its own"
    );
    // Each partition's replicas served the contact's cold forward plus
    // the client's re-read of that partition, and nothing else.
    assert_eq!(replica_reads(&dep, ClusterId(0)), 2);
    assert_eq!(replica_reads(&dep, ClusterId(1)), 2);
    // Both rejections count against the contact locally (each one
    // arms the demotion anew)…
    let health = client
        .edge_selector
        .health(ClusterId(0), transedge::common::NodeId::Edge(byz))
        .expect("contact is a registered target");
    assert_eq!(health.total_rejections, 2);
    assert_eq!(health.demotions, 2);
    // …but only the forgery of the partition it fronts is evidence:
    // about partition 1 it proved nothing false of its own.
    assert_eq!(client.stats.directory_evidence_sent, 1);

    // Every query still completes with correct values, and the one
    // evidence record convicts the contact fleet-wide.
    dep.run_until_done(SimTime(600_000_000));
    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.gave_up, 0);
    assert_eq!(client.stats.directory_evidence_sent, 1);
    assert_eq!(client.query_results.len(), 6);
    assert_two_partition_results_correct(&dep);
    for s in &client.samples {
        assert!(s.committed, "read-only queries never abort");
    }
    for edge in &dep.edge_ids {
        let agent = dep.edge_node(*edge).directory().expect("directory enabled");
        assert!(agent.knows_byzantine(byz), "{edge} must learn of {byz}");
    }
}

/// Who a contact forwards to does not depend on the directory: a cold
/// two-partition gather costs one read at a replica of each partition
/// and no edge ever asks another edge — the edge fronting a foreign
/// partition sits beside that partition's replicas, so it could only
/// add a hop. The contact admits what it couriers, so the repeat is
/// served with no upstream message at all.
#[test]
fn cold_gather_asks_each_partitions_replicas_with_or_without_a_directory() {
    use transedge::common::SimDuration;
    use transedge::core::ReadQuery;

    let run = |directory: bool| {
        let mut config = DeploymentConfig::for_testing();
        config.latency = transedge::simnet::LatencyModel::paper_default();
        config.client.record_results = true;
        config.client.single_contact = true;
        let mut edge = EdgeConfig::builder().per_cluster(1);
        if directory {
            edge = edge.gossip_directory(SimDuration::from_millis(20));
        }
        config.edge = edge.build().expect("edge config");
        let topo = config.topo.clone();
        let mut keys = keys_on(&topo, ClusterId(0), 2);
        keys.extend(keys_on(&topo, ClusterId(1), 1));
        let ops: Vec<ClientOp> = (0..2)
            .map(|_| ClientOp::Query {
                query: ReadQuery::point(keys.clone()),
            })
            .collect();
        let mut dep = Deployment::build(config, vec![ops]);
        dep.run_until_done(SimTime(600_000_000));

        let client = dep.client(dep.client_ids[0]);
        assert_eq!(client.stats.verification_failures + client.stats.retries, 0);
        assert_eq!(client.stats.gathers_accepted, 2);
        assert_two_partition_results_correct(&dep);
        let contact = dep.edge_node(EdgeId::new(ClusterId(0), 0)).stats;
        let other = dep.edge_node(EdgeId::new(ClusterId(1), 0)).stats;
        let reg = dep.metrics();
        let sent = |kind: &str| reg.counter_value("net", &format!("net.{kind}.messages"));
        [
            sent("read-point"),
            sent("read-result-point"),
            sent("read-result-gather"),
            replica_reads(&dep, ClusterId(0)),
            replica_reads(&dep, ClusterId(1)),
            contact.forwarded,
            contact.foreign_forward_replica,
            contact.served_from_cache,
            other.requests,
        ]
    };
    let with_directory = run(true);
    assert_eq!(
        with_directory,
        // Two client→contact queries and the cold gather's two
        // forwards; their two answers; one envelope per gather; one
        // read per partition; both parts of the repeat from cache; and
        // partition 1's edge never hears of any of it.
        [4, 2, 2, 1, 1, 2, 1, 2, 0]
    );
    assert_eq!(with_directory, run(false));
}

/// A multi-partition query reaching an edge *without* a directory is
/// still split per partition (foreign parts go to their replicas):
/// every part verifies first time instead of the edge answering for
/// its home partition only and being blamed for the missing keys.
#[test]
fn single_contact_works_without_a_directory() {
    use transedge::core::ReadQuery;

    let mut config = DeploymentConfig::for_testing();
    config.client.record_results = true;
    config.client.single_contact = true;
    config.edge = EdgeConfig::honest(1);
    let topo = config.topo.clone();
    let mut keys = keys_on(&topo, ClusterId(0), 2);
    keys.extend(keys_on(&topo, ClusterId(1), 2));
    let ops: Vec<ClientOp> = (0..5)
        .map(|_| ClientOp::Query {
            query: ReadQuery::point(keys.clone()),
        })
        .collect();
    let mut dep = Deployment::build(config, vec![ops]);
    dep.run_until_done(SimTime(600_000_000));

    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.stats.retries, 0);
    assert_eq!(client.stats.gathers_sent, 5);
    assert_eq!(client.stats.gathers_accepted, 5);
    assert_eq!(client.query_results.len(), 5);
    assert_two_partition_results_correct(&dep);
}

/// A crashed single contact is handled by the ordinary resend path:
/// each timeout re-asks the unanswered partitions of real replicas and
/// counts against the contact, which is demoted once the failures
/// reach the threshold — after which queries stop going to it.
#[test]
fn crashed_contact_is_resent_around_and_demoted() {
    use transedge::common::NodeId;
    use transedge::core::ReadQuery;

    let mut config = DeploymentConfig::for_testing();
    config.client.record_results = true;
    config.client.single_contact = true;
    config.edge = EdgeConfig::honest(1);
    let threshold = u64::from(transedge::core::edge_select::FAILURE_THRESHOLD);
    let topo = config.topo.clone();
    let mut keys = keys_on(&topo, ClusterId(0), 1);
    keys.extend(keys_on(&topo, ClusterId(1), 1));
    let ops: Vec<ClientOp> = (0..4)
        .map(|_| ClientOp::Query {
            query: ReadQuery::point(keys.clone()),
        })
        .collect();
    let mut dep = Deployment::build(config, vec![ops]);
    let contact = NodeId::Edge(EdgeId::new(ClusterId(0), 0));
    dep.sim.crash_node(contact);
    dep.run_until_done(SimTime(600_000_000));

    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.gave_up, 0);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.query_results.len(), 4);
    // Each timeout blamed the contact once per partition it owed; the
    // demotion landed when those reached the threshold, and the later
    // queries picked partition 1's edge instead.
    let health = client
        .edge_selector
        .health(ClusterId(0), contact)
        .expect("contact is a registered target");
    assert_eq!(health.successes, 0);
    assert!(health.failures >= threshold, "got {}", health.failures);
    assert_eq!(health.demotions, 1);
    assert_eq!(
        client.stats.retries,
        threshold.div_ceil(2),
        "one timeout per two failures until the demotion, none after"
    );
    assert_two_partition_results_correct(&dep);
}
