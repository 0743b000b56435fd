//! System-level checks of the paper's two headline read-only
//! properties (§4): commit-freedom and non-interference, plus the
//! round-2 dependency mechanism and the untrusted edge read tier
//! (honest caching and byzantine-edge detection).

use transedge::common::{
    BatchNum, ClusterId, ClusterTopology, EdgeId, Key, NodeId, ReplicaId, SimDuration, SimTime,
    Value,
};
use transedge::core::client::ClientOp;
use transedge::core::metrics::OpKind;
use transedge::core::setup::{ClientPlan, Deployment, DeploymentConfig};
use transedge::core::{ClientProfile, EdgeConfig, NetMsg};
use transedge::edge::{Anchor, Body, MultiProofBody, ReadResponse, ReadVerifier, VerifyParams};
use transedge::scenario::liar::{self, Lie};

fn keys_on(topo: &ClusterTopology, cluster: ClusterId, count: usize) -> Vec<Key> {
    (0u32..10_000)
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == cluster)
        .take(count)
        .collect()
}

/// A deployment of one single-contact client running `ops`.
fn single_contact_deployment(config: DeploymentConfig, ops: Vec<ClientOp>) -> Deployment {
    let profile = ClientProfile::new().single_contact();
    Deployment::build_custom(config, vec![ClientPlan::with_profile(ops, profile)])
}

/// `ReadOnly { keys }` is sugar for `Query { query:
/// ReadQuery::point(keys) }`: on one deployment and seed, a script in
/// either spelling runs one timeline — the same samples, the same
/// verified results and the same traffic.
#[test]
fn a_point_read_runs_one_timeline_in_either_spelling() {
    let run = |spell: fn(Vec<Key>) -> ClientOp| {
        let mut config = DeploymentConfig::for_testing();
        config.latency = transedge::simnet::LatencyModel::paper_default();
        config.client.record_results = true;
        config.edge = EdgeConfig::honest(1);
        let topo = config.topo.clone();
        let k0 = keys_on(&topo, ClusterId(0), 4);
        let k1 = keys_on(&topo, ClusterId(1), 4);
        let writer = (0..10)
            .map(|i| ClientOp::ReadWrite {
                reads: vec![],
                writes: vec![
                    (k0[i % 4].clone(), Value::from("w")),
                    (k1[i % 4].clone(), Value::from("w")),
                ],
            })
            .collect();
        let reader = (0..20)
            .map(|i| spell(vec![k0[i % 4].clone(), k1[(i + 1) % 4].clone()]))
            .collect();
        let mut dep = Deployment::build(config, vec![writer, reader]);
        dep.run_until_done(SimTime(600_000_000));
        let results = &dep.client(dep.client_ids[1]).query_results;
        assert_eq!(results.len(), 20);
        let net = dep.sim.stats();
        (
            format!("{:?}", dep.samples()),
            format!("{results:?}"),
            (
                net.messages_sent,
                net.messages_delivered,
                net.messages_dropped,
                net.bytes_sent,
                net.per_kind.clone(),
            ),
        )
    };
    let sugar = run(|keys| ClientOp::ReadOnly { keys });
    let spelled = run(|keys| ClientOp::Query {
        query: ReadQuery::point(keys),
    });
    assert_eq!(sugar, spelled);
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
/// or swap in stale or coalition-agreed roots are detected by the
/// client-side verifier, evaded by falling back to real replicas, and
/// never corrupt a result. This is the acceptance scenario for the
/// proof-carrying read path. The forgeries meet each client's *second*
/// read, which names the anchor the first verified: a body forgery
/// rides a held answer, and an edge that rewrote the anchor must ship
/// it full — either way the client catches it.
#[test]
fn byzantine_edge_is_detected_and_evaded() {
    const CLIENTS: u64 = 3;
    for lie in [
        Lie::TamperValue,
        Lie::ForgeProof,
        Lie::StaleRoot,
        Lie::Coalition,
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
            assert!(dep.sim.step(), "{lie:?}: first reads must complete");
        }
        assert_eq!(
            dep.edge_node(turncoat).stats.requests,
            CLIENTS,
            "{lie:?}: the edge turns coat before any second read reaches it"
        );
        // ...then cluster 0's edge turns coat (cluster 1's stays
        // honest), so each client's second read meets a forgery: the one
        // strike that demotes the edge.
        liar::install(&mut dep, NodeId::Edge(turncoat), lie);
        dep.run_until_done(SimTime(600_000_000));

        assert_eq!(
            liar::tampered(&dep, NodeId::Edge(turncoat)),
            CLIENTS,
            "{lie:?}: byzantine edge must have tampered every second read"
        );
        let expected: Vec<(Key, Value)> = dep.data.clone();
        for id in &dep.client_ids {
            let client = dep.client(*id);
            // The forgery was seen and rejected...
            assert_eq!(
                client.stats.verification_failures, 1,
                "{lie:?}: every tampered response must be rejected"
            );
            // ...by a client whose certificate memo was warm from the
            // honest read: a remembered certificate vouches for nothing
            // around it.
            assert!(
                client.stats.cert_checks_shared > 0,
                "{lie:?}: the forgery must have met a warm memo"
            );
            // ...yet every transaction still completed with correct
            // values by evading to honest replicas.
            assert_eq!(client.stats.gave_up, 0, "{lie:?}: no ROT may give up");
            assert_eq!(client.query_results.len(), 2);
            for rot in &client.query_results {
                assert_eq!(rot.values.len(), rot_keys.len());
                for (key, value) in &rot.values {
                    let want = expected.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                    assert_eq!(
                        value.as_ref(),
                        want,
                        "{lie:?}: accepted value must match committed state"
                    );
                }
            }
            for s in &client.samples {
                assert!(s.committed, "{lie:?}: read-only transactions never abort");
            }
        }
    }
}

/// A lying replica is caught like a lying edge. With no edge tier a
/// client reads from its partition's leader, and cluster 0's leader
/// tampers with a value in every answer it sends a client. Each lie is
/// rejected and the read completes from another replica with the
/// committed values. Every answer after the first names the anchor the
/// client verified, so the lie also rides held answers.
#[test]
fn a_lying_replica_is_caught_and_evaded() {
    let mut config = DeploymentConfig::for_testing();
    config.client.record_results = true;
    let keys = keys_on(&config.topo, ClusterId(0), 2);
    let script = vec![ClientOp::ReadOnly { keys: keys.clone() }; 4];
    let mut dep = Deployment::build(config, vec![script]);
    let leader = NodeId::Replica(dep.leader_of(ClusterId(0)));
    liar::install(&mut dep, leader, Lie::TamperValue);
    dep.run_until_done(SimTime(600_000_000));

    let client = dep.client(dep.client_ids[0]);
    let tampered = liar::tampered(&dep, leader);
    assert!(
        tampered >= 4,
        "every read met the lie (tampered {tampered})"
    );
    assert_eq!(client.stats.verification_failures, tampered);
    assert_eq!(client.stats.gave_up, 0);
    assert_eq!(client.query_results.len(), 4);
    for rot in &client.query_results {
        assert_eq!(rot.values.len(), keys.len());
        for (key, value) in &rot.values {
            let want = dep.data.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            assert_eq!(value.as_ref(), want);
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

/// A floored scan parks at a lagging replica. One replica of cluster 0
/// is cut off from its cluster while a distributed write commits at
/// both partitions, lifting cluster 0's LCE past genesis; the edge
/// forwards a `MinEpoch(0)` scan to the lagging replica — its upstream
/// round-robin starts at replica 1 — which has applied genesis alone
/// and parks the scan like any other unservable query. The partition
/// heals at 300 ms and a later write (400 ms) lets the healed replica
/// notice it is behind, catch up and answer. The scan waited, it did
/// not retry, and its rows are the committed window at the batch it
/// was served at, the write included.
#[test]
fn min_epoch_scan_parks_at_a_lagging_replica_and_completes_after_heal() {
    use transedge::edge::SnapshotSource;

    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    // The reader must outwait the partition, not retry around it.
    config.client.retry_after = SimDuration::from_secs(5);
    config.edge = EdgeConfig::honest(1);
    let topo = config.topo.clone();
    // The written key lies inside the window, the late writer's
    // outside it.
    let range = window_on(&topo, ClusterId(0));
    let inside = keys_on(&topo, ClusterId(0), 1).remove(0);
    let remote = keys_on(&topo, ClusterId(1), 1).remove(0);
    let outside = keys_on(&topo, ClusterId(0), 64)
        .into_iter()
        .find(|k| !range.contains_key(k, SCAN_DEPTH))
        .expect("a key outside a 64-bucket window");
    let reader = ClientPlan::ops(vec![
        ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![
                (inside.clone(), Value::from("v1")),
                (remote, Value::from("v1")),
            ],
        },
        ClientOp::Query {
            query: ReadQuery::scan(ClusterId(0), range)
                .with_policy(SnapshotPolicy::MinEpoch(transedge::common::Epoch(0))),
        },
    ]);
    // A later write is what lets the healed replica notice it is
    // behind and fetch the decided prefix.
    let heal_at = SimTime(300_000);
    let late_writer = ClientPlan::with_profile(
        vec![ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![(outside, Value::from("v2"))],
        }],
        ClientProfile::new().start_delay(SimDuration::from_millis(400)),
    );
    let mut dep = Deployment::build_custom(config, vec![reader, late_writer]);
    let lagging = ReplicaId::new(ClusterId(0), 1);
    let rest = topo
        .replicas_of(ClusterId(0))
        .filter(|r| *r != lagging)
        .map(NodeId::Replica);
    let cut = dep.impose_partition([NodeId::Replica(lagging)], rest);
    dep.run_until(heal_at);

    let e0 = EdgeId::new(ClusterId(0), 0);
    let reader_id = dep.client_ids[0];
    assert_eq!(dep.node(lagging).exec.applied_batches(), 1, "genesis only");
    assert_eq!(dep.node(lagging).parked_reads(), 1, "the scan is parked");
    assert_eq!(dep.edge_node(e0).pending_upstream(), 1);
    assert_eq!(dep.edge_node(e0).stats.scans_forwarded, 1);
    assert!(dep.client(reader_id).query_results.is_empty());

    dep.heal_partition(cut);
    dep.run_until_done(SimTime(600_000_000));
    assert_eq!(dep.node(lagging).parked_reads(), 0);
    assert_eq!(dep.node(lagging).stats.rot_scans_served, 1);
    assert_eq!(dep.edge_node(e0).pending_upstream(), 0);
    let client = dep.client(reader_id);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.stats.retries, 0, "the scan waited, it did not retry");
    let [scan] = &client.query_results[..] else {
        panic!("one scan, got {}", client.query_results.len());
    };
    let [(ClusterId(0), batch)] = scan.snapshot[..] else {
        panic!("one partition's snapshot, got {:?}", scan.snapshot);
    };
    assert!(batch.0 >= 1, "MinEpoch(0) skips genesis");
    let current = dep.node(ReplicaId::new(ClusterId(0), 0));
    let want = current.exec.rows_at(&range, batch);
    assert!(want.contains(&(inside, Value::from("v1"))));
    assert_eq!(scan.rows, [(ClusterId(0), want)]);
}

/// Sends `ask` (if any) at start under request id 1 and keeps every
/// read answer it receives: when, from whom, under which request id.
struct Listener {
    ask: Option<(NodeId, ReadQuery)>,
    got: Vec<(SimTime, NodeId, u64, ReadResponse)>,
}

impl transedge::simnet::Actor<NetMsg> for Listener {
    fn on_start(&mut self, ctx: &mut transedge::simnet::Context<'_, NetMsg>) {
        if let Some((to, query)) = self.ask.clone() {
            ctx.send(to, NetMsg::Read { req: 1, query });
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: NetMsg,
        ctx: &mut transedge::simnet::Context<'_, NetMsg>,
    ) {
        if let NetMsg::ReadResult { req, result } = msg {
            self.got.push((ctx.now(), from, req, result));
        }
    }
}

/// A parked round-two read is answered at a batch the replica has
/// applied. Replica 1 of cluster 0 is cut off before a cross-partition
/// write raises cluster 0's LCE, and a `MinEpoch(0)` point read parks
/// there — sent straight to it, or sent to a cold edge, whose first
/// forward goes to that replica with the reader's address. After the
/// heal a late write makes it catch up through one state response
/// carrying several slots: its consensus log then holds batches its
/// store and tree do not, and the read must wait for the first batch
/// whose LCE reaches the floor to be applied before it is served from
/// it. Through the edge, the parked forward keeps its reply address:
/// the reader is answered by the replica directly, and the edge takes
/// its full copy.
#[test]
fn parked_round_two_read_is_answered_at_an_applied_batch() {
    for via_edge in [false, true] {
        let mut config = DeploymentConfig::for_testing();
        config.latency = transedge::simnet::LatencyModel::paper_default();
        config.edge = EdgeConfig::honest(usize::from(via_edge));
        let topo = config.topo.clone();
        let k0 = keys_on(&topo, ClusterId(0), 2);
        let k1 = keys_on(&topo, ClusterId(1), 1).remove(0);
        let writer = ClientPlan::ops(vec![ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![(k0[0].clone(), Value::from("x0")), (k1, Value::from("x1"))],
        }]);
        // A later write is what lets the healed replica notice it is
        // behind and fetch the decided prefix.
        let late_writer = ClientPlan::with_profile(
            vec![ClientOp::ReadWrite {
                reads: vec![],
                writes: vec![(k0[1].clone(), Value::from("late"))],
            }],
            ClientProfile::new().start_delay(SimDuration::from_millis(400)),
        );
        let mut dep = Deployment::build_custom(config, vec![writer, late_writer]);
        let lagging = ReplicaId::new(ClusterId(0), 1);
        let rest = topo
            .replicas_of(ClusterId(0))
            .filter(|r| *r != lagging)
            .map(NodeId::Replica);
        let cut = dep.impose_partition([NodeId::Replica(lagging)], rest);
        let query = ReadQuery::point(vec![k0[0].clone()])
            .with_policy(SnapshotPolicy::MinEpoch(transedge::common::Epoch(0)));
        let edge = EdgeId::new(ClusterId(0), 0);
        let to = if via_edge {
            NodeId::Edge(edge)
        } else {
            NodeId::Replica(lagging)
        };
        let reader = NodeId::Client(transedge::common::ClientId(u32::MAX));
        let ask = Some((to, query.clone()));
        dep.sim.add_actor(
            reader,
            Box::new(Listener {
                ask,
                got: Vec::new(),
            }),
        );
        dep.run_until(SimTime(300_000));
        assert_eq!(dep.node(lagging).exec.applied_batches(), 1, "genesis only");
        assert_eq!(dep.node(lagging).parked_reads(), 1, "the read is parked");
        let leader = dep.node(ReplicaId::new(ClusterId(0), 0));
        assert!(leader.exec.applied_batches() >= 3, "prepare and commit");

        dep.heal_partition(cut);
        dep.run_until_done(SimTime(600_000_000));
        assert_eq!(dep.node(lagging).parked_reads(), 0);
        let listener = dep.sim.actor_as::<Listener>(reader).expect("reader");
        let [(at, from, req, payload)] = &listener.got[..] else {
            panic!("one answer, got {}", listener.got.len());
        };
        assert_eq!((*from, *req), (NodeId::Replica(lagging), 1));
        let (Some((commitment, _)), Body::Point { body, .. }) = (payload.anchor(), &payload.body)
        else {
            panic!("a full point answer");
        };
        assert_eq!(commitment.header.num, BatchNum(2));
        assert_eq!(commitment.header.lce, transedge::common::Epoch(1));
        let verifier = ReadVerifier::new(VerifyParams {
            tree_depth: dep.config.node.tree_depth,
            freshness_window: dep.config.node.freshness_window,
            quorum: topo.certificate_quorum(),
        });
        let verified = verifier.verify_query(&dep.keys, ClusterId(0), &query, payload, *at);
        assert!(verified.is_ok(), "{verified:?}");
        assert_eq!(body.values(), [Some(Value::from("x0"))]);
        if via_edge {
            let node = dep.edge_node(edge);
            assert_eq!(node.stats.forwarded, 1);
            assert_eq!(node.pending_upstream(), 0, "the edge took its copy");
            assert_eq!(node.cached_answers().len(), 1);
        }
    }
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
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 2);
    let ops = 20usize;
    let script: Vec<ClientOp> = (0..ops)
        .map(|_| ClientOp::ReadOnly { keys: k0.clone() })
        .collect();
    let mut dep = Deployment::build(config, vec![script]);
    liar::install(&mut dep, NodeId::Edge(byz), Lie::TamperValue);
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
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 5);
    let ops = 20usize;
    let script: Vec<ClientOp> = (0..ops)
        .map(|_| ClientOp::ReadOnly { keys: k0.clone() })
        .collect();
    let mut dep = Deployment::build(config, vec![script]);
    liar::install(&mut dep, NodeId::Edge(byz), Lie::OmitKey);
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
            result:
                ReadResponse {
                    anchor,
                    body: Body::Point { body, .. },
                },
        } = msg
        else {
            return;
        };
        let mut values = body.values().to_vec();
        *values.iter_mut().find(|v| v.is_some()).expect("a value") =
            Some(Value::from("forged-by-outsider"));
        let body = MultiProofBody::new(body.keys().to_vec(), values, body.proof().clone());
        let result = ReadResponse {
            anchor,
            body: body.into(),
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
    assert_eq!(stats.served_from_cache, 0, "nothing was cached");
    assert_eq!(stats.forwarded, 1, "the read went upstream");
}

/// A client takes an OCC read's answer only from a replica of the asked
/// key's partition, and only for that key: an answer pushed by a node
/// outside the deployment, naming another key, under the id of the
/// outstanding read, is dropped and the read waits for its replica.
#[test]
fn an_occ_read_answer_from_outside_is_dropped() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    let topo = config.topo.clone();
    let [asked, injected] = <[Key; 2]>::try_from(keys_on(&topo, ClusterId(0), 2)).unwrap();
    let txn = ClientOp::ReadWrite {
        reads: vec![asked.clone()],
        writes: vec![(asked.clone(), Value::from("w"))],
    };
    let mut dep = Deployment::build(config, vec![vec![txn]]);
    // The client has sent its one read (request id 1).
    dep.run_until(SimTime(1));
    let client = NodeId::Client(dep.client_ids[0]);
    let outsider = NodeId::Client(transedge::common::ClientId(77));
    let forged = NetMsg::OccReadResp {
        req: 1,
        key: injected,
        value: Some(Value::from("forged")),
        version: transedge::common::Epoch(0),
    };
    dep.sim.inject(outsider, client, forged);
    dep.run_until_done(SimTime(600_000_000));
    let client = dep.client(dep.client_ids[0]);
    let [outcome] = &client.txn_outcomes[..] else {
        panic!("one transaction, got {}", client.txn_outcomes.len());
    };
    let genesis = dep.data.iter().find(|(k, _)| *k == asked).map(|(_, v)| v);
    assert_eq!(outcome.reads, [(asked, genesis.cloned())]);
    assert!(outcome.committed);
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

use transedge::crypto::range::MAX_RANGE_BUCKETS;
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
    liar::install(&mut dep, NodeId::Edge(byz), Lie::OmitKey);
    dep.run_until_done(SimTime(600_000_000));

    let client = dep.client(dep.client_ids[0]);
    // The omissions were seen and rejected...
    assert!(
        client.stats.verification_failures >= 1,
        "an omitted row must be caught by the completeness check (got {})",
        client.stats.verification_failures
    );
    assert!(
        liar::tampered(&dep, NodeId::Edge(byz)) > 0,
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

/// A scan no honest replica serves fails at once: one that starts past
/// the leaf space and one a bucket wider than a window each end
/// uncommitted before any request leaves — sent, either would only be
/// retried until the op gave up.
#[test]
fn an_unservable_scan_fails_before_any_send() {
    let leaves = 1u64 << SCAN_DEPTH;
    for range in [
        ScanRange::new(leaves, leaves + 7),
        ScanRange::new(0, MAX_RANGE_BUCKETS),
    ] {
        let config = DeploymentConfig::for_testing();
        let scan = ClientOp::RangeScan {
            cluster: ClusterId(0),
            range,
        };
        let mut dep = Deployment::build(config, vec![vec![scan]]);
        dep.run_until_done(SimTime(600_000_000));
        let client = dep.client(dep.client_ids[0]);
        assert_eq!(client.stats.retries, 0, "{range:?}");
        let [sample] = &client.samples[..] else {
            panic!("{range:?}: one op, got {}", client.samples.len());
        };
        assert_eq!(sample.kind, OpKind::RangeScan);
        assert!(!sample.committed, "{range:?}");
        let metrics = dep.metrics();
        assert_eq!(
            metrics.counter_value("net", "net.read-scan.messages"),
            0,
            "{range:?}: no read was sent"
        );
    }
}

/// The replica's own guard on outside input: a scan one bucket wider
/// than a window, under a floor it could not meet yet, is dropped and
/// counted — neither served nor parked.
#[test]
fn a_replica_drops_a_scan_wider_than_a_window() {
    let config = DeploymentConfig::for_testing();
    let mut dep = Deployment::build(config, vec![]);
    let replica = ReplicaId::new(ClusterId(0), 0);
    let query = ReadQuery::scan(ClusterId(0), ScanRange::new(0, MAX_RANGE_BUCKETS))
        .with_policy(SnapshotPolicy::MinEpoch(transedge::common::Epoch(5)));
    let outsider = NodeId::Client(transedge::common::ClientId(77));
    dep.sim.inject(
        outsider,
        NodeId::Replica(replica),
        NetMsg::Read { req: 1, query },
    );
    dep.run_until(SimTime(1_000_000));
    let node = dep.node(replica);
    assert_eq!(node.stats.rot_scans_rejected, 1);
    assert_eq!(node.stats.rot_scans_served, 0);
    assert_eq!(node.parked_reads(), 0);
}

/// The edge's guard on the same input: windows wider than the protocol
/// allows or outside the leaf space are dropped before the cache and
/// before any forward, so they leave no pending upstream entry behind
/// and never reach a replica.
#[test]
fn an_edge_drops_a_scan_no_replica_serves() {
    let mut config = DeploymentConfig::for_testing();
    config.edge = EdgeConfig::honest(1);
    let leaves = 1u64 << config.node.tree_depth;
    let topo = config.topo.clone();
    let mut dep = Deployment::build(config, vec![]);
    let edge = EdgeId::new(ClusterId(0), 0);
    let outsider = NodeId::Client(transedge::common::ClientId(77));
    let wide = ScanRange::new(0, 5000);
    assert!(wide.width() > MAX_RANGE_BUCKETS);
    let past_the_leaves = ScanRange::new(leaves, leaves + 63);
    let ranges = std::iter::repeat_n(wide, 5).chain([past_the_leaves]);
    for (req, range) in ranges.enumerate() {
        let query = ReadQuery::scan(ClusterId(0), range);
        dep.sim.inject(
            outsider,
            NodeId::Edge(edge),
            NetMsg::Read {
                req: req as u64,
                query,
            },
        );
    }
    dep.run_until(SimTime(10_000_000));
    let node = dep.edge_node(edge);
    assert_eq!(node.pending_upstream(), 0);
    assert_eq!(node.stats.scans_forwarded, 0);
    for replica in topo.all_replicas() {
        assert_eq!(dep.node(replica).stats.rot_scans_rejected, 0, "{replica}");
    }
}

// ---------------------------------------------------------------------
// The unified ReadQuery protocol: scatter-gather scans under a
// snapshot-policy floor, through untrusted edges.
// ---------------------------------------------------------------------

use transedge::core::{QueryShape, ReadQuery, SnapshotPolicy};

/// Build the acceptance-scenario deployment: writers raising the LCE
/// above `NONE` on both partitions (their keys kept *outside* the
/// scanned windows so ground truth stays the preloaded data), plus one
/// reader issuing a single unified query: a 64-bucket scan scattered
/// over both partitions, under `SnapshotPolicy::MinEpoch` — the scan
/// analogue of a round-2 floor.
fn unified_query_scenario(
    config: &mut transedge::core::setup::DeploymentConfig,
) -> (Vec<Vec<ClientOp>>, ReadQuery, [ScanRange; 2]) {
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    let topo = config.topo.clone();
    // One aligned 64-bucket window per partition.
    let ranges = [
        window_on(&topo, ClusterId(0)),
        window_on(&topo, ClusterId(1)),
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
        },
        feed: None,
        held: Vec::new(),
        reply_to: None,
        chase: Vec::new(),
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
/// spanning two partitions with a scan under
/// `SnapshotPolicy::MinEpoch`, served through edges, every section
/// verified against its own certified root.
#[test]
fn unified_scatter_scan_under_min_epoch() {
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
            "{cluster}: rows must equal the committed window"
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

/// Round two of a scatter scan: cross-partition writers keep committing
/// *inside* the scanned range, so a reader's two partition snapshots
/// fail the dependency check and the lagging partition's window is
/// re-read whole at a raised LCE floor, the path every point read
/// takes. Each partition's rows must be exactly what that partition had
/// committed at the snapshot batch the result records.
#[test]
fn scan_round_two_restarts_from_page_one_at_the_raised_floor() {
    use transedge::edge::SnapshotSource;

    const SCANS: usize = 12;
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    let topo = config.topo.clone();
    // One window of the widest servable range per partition.
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
    let query = ReadQuery::scatter_scan(vec![ClusterId(0), ClusterId(1)], range);
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
    // Round two re-read: a restarted partition's round-1 window was
    // accepted, discarded, and fetched again at the floor.
    assert!(
        reader.stats.scans_accepted >= 2 * SCANS as u64 + round2,
        "{} windows accepted for {SCANS} scans, {round2} of them with a round two",
        reader.stats.scans_accepted
    );
}

/// The tentpole acceptance scenario, byzantine half: the same query
/// with one byzantine edge in the fan-out (omitting a row from a
/// scanned window, the completeness attack) is rejected, the edge
/// demoted on cryptographic evidence, and the query retried to success
/// with complete, correct rows.
#[test]
fn unified_query_with_byzantine_edge_in_fanout_recovers() {
    let mut config = DeploymentConfig::for_testing();
    let byz = EdgeId::new(ClusterId(0), 0);
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .build()
        .expect("edge config");
    let (scripts, query, _) = unified_query_scenario(&mut config);
    let topo = config.topo.clone();
    let mut dep = Deployment::build(config, scripts);
    liar::install(&mut dep, NodeId::Edge(byz), Lie::OmitKey);
    dep.run_until_done(SimTime(600_000_000));

    let reader = dep.client(dep.client_ids[1]);
    // The omission was seen and rejected…
    assert!(
        reader.stats.verification_failures >= 1,
        "the omitted row must be caught (failures {})",
        reader.stats.verification_failures
    );
    assert!(liar::tampered(&dep, NodeId::Edge(byz)) >= 1);
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
    let QueryShape::Scan { range, .. } = query.shape else {
        unreachable!()
    };
    for (cluster, rows) in &result.rows {
        let want = expected_rows(&dep.data, &topo, *cluster, &range);
        assert_eq!(
            rows, &want,
            "{cluster}: no omission may survive — accepted windows must be complete"
        );
    }
    assert!(!result.rows[0].1.is_empty());
    for s in &reader.samples {
        assert!(s.committed, "unified queries never abort");
    }
}

// ---------------------------------------------------------------------
// The gossiped edge directory + single-contact queries (the
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
    liar::install(&mut dep, NodeId::Edge(byz), Lie::TamperValue);
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

/// Single edge contact, honest half: a two-partition `ReadQuery` is
/// sent whole to **one edge** — the edge splits it, forwards the
/// foreign part to that partition's replicas, and answers each
/// partition with an ordinary `read-result-point` under the client's
/// one request id, each verified by the client against its
/// partition's own certified root.
#[test]
fn two_partition_query_served_through_single_edge_contact() {
    use transedge::common::SimDuration;
    use transedge::core::ReadQuery;

    const OPS: u64 = 8;
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
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
    let mut dep = single_contact_deployment(config, ops);
    // The first query is cold (the contact forwards both parts); when
    // it completes the second is already on the wire.
    run_until_results(&mut dep, 1);
    let cold = dep.metrics();
    dep.run_until_done(SimTime(600_000_000));
    let done = dep.metrics();

    // Every later query is fully warm and costs exactly one
    // client→contact request plus one contact→client answer per
    // partition: the contact serves both parts from its caches, so
    // nothing goes upstream.
    let sent = |kind: &str| {
        let name = format!("net.{kind}.messages");
        done.counter_value("net", &name) - cold.counter_value("net", &name)
    };
    assert_eq!(sent("read-point"), OPS - 2);
    assert_eq!(sent("read-result-point"), 2 * (OPS - 1));

    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.stats.retries, 0);
    assert_eq!(client.stats.gave_up, 0);
    assert_eq!(
        client.stats.gathers_sent, OPS,
        "every cross-partition query goes to one contact"
    );
    // The contact edge did the tier-side work: split the query and
    // forwarded the foreign part.
    let edge_sum = |f: fn(&transedge::core::edge_node::EdgeNodeStats) -> u64| -> u64 {
        dep.edge_ids
            .iter()
            .map(|e| f(&dep.edge_node(*e).stats))
            .sum()
    };
    assert_eq!(edge_sum(|s| s.gather_requests), OPS);
    assert_eq!(
        edge_sum(|s| s.foreign_subs),
        OPS,
        "each query carries a foreign part"
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

/// Single edge contact, byzantine half: the liar is the *contact*. It
/// corrupts the first section of every answer it produces, so both
/// partitions' answers arrive tampered. The client's per-part
/// verification rejects each on its own, re-reads each partition from
/// a replica of that partition, and completes with correct values —
/// the forwarding tier is an untrusted courier, never a trust
/// boundary. Attribution follows what
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
    // The contact: the best edge of the first partition in sort order.
    let byz = EdgeId::new(ClusterId(0), 0);
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
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
    let mut dep = single_contact_deployment(config, ops);
    liar::install(&mut dep, NodeId::Edge(byz), Lie::TamperValue);

    // The first query goes whole to the lying contact, which fetches
    // both parts from their partitions' replicas and doctors each on
    // the way out.
    run_until_results(&mut dep, 1);
    let client = dep.client(dep.client_ids[0]);
    assert_eq!(liar::tampered(&dep, NodeId::Edge(byz)), 2);
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
/// two-partition query costs one read at a replica of each partition
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
        let mut dep = single_contact_deployment(config, ops);
        dep.run_until_done(SimTime(600_000_000));

        let client = dep.client(dep.client_ids[0]);
        assert_eq!(client.stats.verification_failures + client.stats.retries, 0);
        assert_eq!(client.query_results.len(), 2);
        assert_two_partition_results_correct(&dep);
        let contact = dep.edge_node(EdgeId::new(ClusterId(0), 0)).stats;
        let other = dep.edge_node(EdgeId::new(ClusterId(1), 0)).stats;
        let reg = dep.metrics();
        let sent = |kind: &str| reg.counter_value("net", &format!("net.{kind}.messages"));
        [
            sent("read-point"),
            sent("read-result-point"),
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
        // Two client→contact queries and the cold query's two
        // forwards; the replicas' two answers plus one answer per
        // partition per query to the client; one read per partition;
        // both parts of the repeat from cache; and partition 1's edge
        // never hears of any of it.
        [4, 6, 1, 1, 2, 1, 2, 0]
    );
    assert_eq!(with_directory, run(false));
}

/// A multi-partition query reaching an edge *without* a directory is
/// still split per partition (foreign parts go to their replicas):
/// the client gets one ordinary answer per partition, and every one
/// verifies first time against its own partition's root instead of
/// the edge answering for its home partition only and being blamed
/// for the missing keys.
#[test]
fn single_contact_works_without_a_directory() {
    use transedge::core::ReadQuery;

    let mut config = DeploymentConfig::for_testing();
    config.client.record_results = true;
    config.edge = EdgeConfig::honest(1);
    let topo = config.topo.clone();
    let mut keys = keys_on(&topo, ClusterId(0), 2);
    keys.extend(keys_on(&topo, ClusterId(1), 2));
    let ops: Vec<ClientOp> = (0..5)
        .map(|_| ClientOp::Query {
            query: ReadQuery::point(keys.clone()),
        })
        .collect();
    let mut dep = single_contact_deployment(config, ops);
    dep.run_until_done(SimTime(600_000_000));

    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.stats.retries, 0);
    assert_eq!(client.stats.gathers_sent, 5);
    assert_eq!(client.query_results.len(), 5);
    assert_two_partition_results_correct(&dep);
    // Each query is one request to the contact and one answer per
    // partition back; every answer the contact forwarded for came back
    // from a replica first.
    let contact = dep.edge_node(EdgeId::new(ClusterId(0), 0)).stats;
    let reg = dep.metrics();
    let sent = |kind: &str| reg.counter_value("net", &format!("net.{kind}.messages"));
    assert_eq!(sent("read-point"), 5 + contact.forwarded);
    assert_eq!(sent("read-result-point"), 2 * 5 + contact.forwarded);
}

/// Stands in for a contact edge: the real edge serves every message,
/// and on the first query it receives the tap also sends `extras` to
/// the asker under that query's request id, right behind the edge's
/// own answers.
struct Tap {
    inner: Box<dyn transedge::simnet::Actor<NetMsg>>,
    extras: Vec<ReadResponse>,
    pushed: u64,
}

impl transedge::simnet::Actor<NetMsg> for Tap {
    fn on_start(&mut self, ctx: &mut transedge::simnet::Context<'_, NetMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: NetMsg,
        ctx: &mut transedge::simnet::Context<'_, NetMsg>,
    ) {
        let asked = match &msg {
            NetMsg::Read { req, .. } => Some(*req),
            _ => None,
        };
        self.inner.on_message(from, msg, ctx);
        if let Some(req) = asked {
            for result in std::mem::take(&mut self.extras) {
                ctx.send(from, NetMsg::ReadResult { req, result });
                self.pushed += 1;
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut transedge::simnet::Context<'_, NetMsg>) {
        self.inner.on_timer(token, ctx);
    }
}

/// The routing rule: an answer is credited to the part that waits on
/// its request id *and* whose partition its certified header names.
/// Under a live two-part single-contact request the client receives
/// two extra answers — a valid section of a third partition the request
/// does not owe, and a second copy of the part it has just verified —
/// and drops both unread: nothing is verified, nobody is blamed, and
/// the run matches the same run without them.
#[test]
fn answers_no_part_is_waiting_for_are_dropped_unread() {
    use transedge::core::ReadQuery;

    let run = |with_extras: bool| {
        let mut config = DeploymentConfig::for_testing();
        config.topo = ClusterTopology::new(3, 1).expect("topology");
        config.client.record_results = true;
        config.edge = EdgeConfig::honest(1);
        let topo = config.topo.clone();
        let k0 = keys_on(&topo, ClusterId(0), 1);
        let k1 = keys_on(&topo, ClusterId(1), 1);
        let k2 = keys_on(&topo, ClusterId(2), 1);
        let point = |keys: Vec<Key>| ClientOp::Query {
            query: ReadQuery::point(keys),
        };
        // Warm the contact with partition 0's part and partition 2's
        // edge with a section of its own; then the two-part query,
        // whose partition-0 part is a cache hit at the contact while
        // its partition-1 part is still upstream.
        let ops = vec![point(k0.clone()), point(k2), point([k0, k1].concat())];
        let mut dep = single_contact_deployment(config, ops);
        run_until_results(&mut dep, 2);

        let contact = EdgeId::new(ClusterId(0), 0);
        let section_of = |edge: EdgeId, cluster: ClusterId| {
            let cached = dep.edge_node(edge).cached_answers();
            let section = cached.into_iter().find(|object| {
                matches!(object.body, Body::Point { .. }) && object.cluster() == cluster
            });
            section.expect("a cached section")
        };
        let extras = if with_extras {
            vec![
                section_of(contact, ClusterId(0)),
                section_of(EdgeId::new(ClusterId(2), 0), ClusterId(2)),
            ]
        } else {
            Vec::new()
        };
        dep.sim.wrap_actor(NodeId::Edge(contact), |inner| {
            Box::new(Tap {
                inner,
                extras,
                pushed: 0,
            })
        });
        dep.run_until_done(SimTime(600_000_000));

        let pushed = dep
            .sim
            .actor_as::<Tap>(NodeId::Edge(contact))
            .expect("tap")
            .pushed;
        let client = dep.client(dep.client_ids[0]);
        assert_eq!(client.stats.verification_failures, 0);
        assert_eq!(client.stats.retries, 0);
        assert_eq!(client.stats.gave_up, 0);
        let health = client
            .edge_selector
            .health(ClusterId(0), NodeId::Edge(contact))
            .expect("contact is a registered target");
        assert_eq!(health.total_rejections, 0);
        assert_eq!(health.demotions, 0);
        let results = &client.query_results;
        assert_eq!(results.len(), 3);
        assert_eq!(results[2].snapshot.len(), 2, "both owed partitions");
        for q in results {
            for (key, value) in &q.values {
                let want = dep.data.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                assert_eq!(value.as_ref(), want);
            }
        }
        let values: Vec<_> = results.iter().map(|q| q.values.clone()).collect();
        (
            pushed,
            client.verified_certs().sig_checks(),
            client.stats.cert_checks_shared,
            client.stats.read_result_bytes,
            values,
        )
    };
    let (pushed, sig_checks, shared, bytes, values) = run(true);
    assert_eq!(pushed, 2, "both extras reached the client");
    assert_eq!(
        (0, sig_checks, shared, bytes, values),
        run(false),
        "the extras cost no signature check, no memo hit and no byte"
    );
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
    let mut dep = single_contact_deployment(config, ops);
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

// ---- held anchors ----------------------------------------------------

/// What one held part saves on the wire at `topo`'s header and
/// certificate size: the certified anchor less the reference that
/// stands in for it.
fn held_saving(topo: &ClusterTopology) -> u64 {
    use transedge::consensus::Certificate;
    use transedge::crypto::{Digest, Signature};
    use transedge::edge::{anchor_size, BatchHeader, CdVector, CommittedHeader, HELD_ANCHOR_SIZE};

    let commitment = CommittedHeader {
        header: BatchHeader {
            cluster: ClusterId(0),
            num: BatchNum(0),
            cd: CdVector::new(topo.n_clusters()),
            lce: transedge::common::Epoch::NONE,
            merkle_root: Digest::ZERO,
            delta_digest: Digest::ZERO,
            timestamp: SimTime::ZERO,
        },
        body_digest: Digest::ZERO,
    };
    let cert = Certificate {
        cluster: ClusterId(0),
        slot: BatchNum(0),
        digest: Digest::ZERO,
        sigs: topo
            .replicas_of(ClusterId(0))
            .take(topo.certificate_quorum())
            .map(|r| (NodeId::Replica(r), Signature([0; 64])))
            .collect(),
    };
    (anchor_size(&commitment, &cert) - HELD_ANCHOR_SIZE) as u64
}

/// A repeat reader is not re-sent what it verified. The same
/// five-partition read issued twice on a static deployment returns the
/// same values; every part of the second is answered held, so its
/// bytes are exactly one anchor less one reference per part below the
/// first's; and, rebuilt around certificates the client already
/// checked, it adds no signature check.
#[test]
fn a_repeat_read_is_held_on_every_part() {
    let run = |reads: usize| {
        let mut config = DeploymentConfig::for_testing();
        config.topo = ClusterTopology::new(5, 1).expect("topology");
        config.client.record_results = true;
        let topo = config.topo.clone();
        let keys: Vec<Key> = (0..5)
            .flat_map(|c| keys_on(&topo, ClusterId(c), 1))
            .collect();
        let mut dep = Deployment::build(config, vec![vec![ClientOp::ReadOnly { keys }; reads]]);
        dep.run_until_done(SimTime(600_000_000));
        let client = dep.client(dep.client_ids[0]);
        assert_eq!(client.stats.verification_failures, 0);
        assert_eq!(client.stats.retries, 0);
        assert_eq!(client.query_results.len(), reads);
        for q in &client.query_results {
            assert_eq!(q.snapshot.len(), 5, "every partition answered");
            for (key, value) in &q.values {
                let want = dep.data.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                assert_eq!(value.as_ref(), want);
            }
        }
        let values: Vec<_> = client
            .query_results
            .iter()
            .map(|q| q.values.clone())
            .collect();
        (
            client.stats.read_result_bytes,
            client.verified_certs().sig_checks(),
            values,
            topo,
        )
    };
    let (once, checks_once, first, topo) = run(1);
    let (twice, checks_twice, both, _) = run(2);
    assert_eq!(both, [first[0].clone(), first[0].clone()]);
    let second = twice - once;
    assert_eq!(
        once - second,
        5 * held_saving(&topo),
        "each of the five parts saved one anchor less one reference"
    );
    assert_eq!(
        checks_twice, checks_once,
        "the repeat read checked no signature"
    );
}

/// An anchor a newer batch has superseded earns a full answer: a
/// server elides only at exactly the digest the query named. A read of
/// one key, a write to another, and a read of that other — which names
/// the first read's anchor, is served at the newer batch (by the
/// replica, or forwarded by an edge that has not cached the key) and
/// verifies the new value first time, with no retry.
#[test]
fn a_superseded_anchor_is_answered_in_full() {
    for edges in [0, 1] {
        let mut config = DeploymentConfig::for_testing();
        config.client.record_results = true;
        config.edge = EdgeConfig::honest(edges);
        let topo = config.topo.clone();
        let k0 = keys_on(&topo, ClusterId(0), 2);
        let read = |key: &Key| ClientOp::ReadOnly {
            keys: vec![key.clone()],
        };
        let write = ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![(k0[1].clone(), Value::from("rewritten"))],
        };
        let ops = vec![read(&k0[0]), write, read(&k0[1])];
        let mut dep = Deployment::build(config, vec![ops]);
        dep.run_until_done(SimTime(600_000_000));
        let client = dep.client(dep.client_ids[0]);
        assert_eq!(client.stats.verification_failures, 0, "{edges} edges");
        assert_eq!(client.stats.retries, 0, "{edges} edges");
        let [before, after] = &client.query_results[..] else {
            panic!("two reads, got {}", client.query_results.len());
        };
        assert!(after.snapshot[0].1 > before.snapshot[0].1, "{edges} edges");
        let rewritten = (k0[1].clone(), Some(Value::from("rewritten")));
        assert_eq!(after.values, [rewritten], "{edges} edges");
    }
}

/// Only full answers enter an edge cache, whoever asked. A client
/// holding partition 0's anchor reads a key set the edge has not
/// cached: the edge forwards the part without the anchor, absorbs the
/// replica's full answer, and relays it held. A second client asking
/// the same keys later is then served from that cache.
#[test]
fn an_edge_caches_the_answer_to_a_part_that_named_an_anchor() {
    let mut config = DeploymentConfig::for_testing();
    config.client.record_results = true;
    config.edge = EdgeConfig::honest(1);
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 2);
    let warm = ClientOp::ReadOnly {
        keys: vec![k0[0].clone()],
    };
    let asked = ClientOp::ReadOnly {
        keys: vec![k0[1].clone()],
    };
    let late = ClientProfile::new().start_delay(SimDuration::from_millis(200));
    let mut dep = Deployment::build_custom(
        config,
        vec![
            ClientPlan::ops(vec![warm, asked.clone()]),
            ClientPlan::with_profile(vec![asked], late),
        ],
    );
    dep.run_until_done(SimTime(600_000_000));

    let edge = dep.edge_node(EdgeId::new(ClusterId(0), 0)).stats;
    assert_eq!(edge.forwarded, 2, "the first client's two reads miss");
    assert_eq!(edge.served_from_cache, 1, "the late client's read hits");
    let [first, late] = [0, 1].map(|i| dep.client(dep.client_ids[i]));
    for client in [first, late] {
        assert_eq!(client.stats.verification_failures, 0);
        assert_eq!(client.stats.retries, 0);
    }
    assert_eq!(late.query_results[0].values, first.query_results[1].values);
    assert_eq!(
        first.query_results[1].values,
        [(
            k0[1].clone(),
            dep.data
                .iter()
                .find(|(k, _)| *k == k0[1])
                .map(|(_, v)| v.clone())
        )]
    );
}

/// A held answer the client cannot rebuild is dropped unread, like any
/// answer no part waits for: a delay, never a deception. Under a live
/// three-part single-contact query the client receives two held answers
/// for parts it still owes — one for the partition it holds no anchor
/// for, one naming a batch other than its newest anchor of the other
/// — and neither is verified, nobody is blamed, and the run matches the
/// same run without them.
#[test]
fn held_answers_naming_an_anchor_not_held_are_dropped_unread() {
    let run = |with_extras: bool| {
        let mut config = DeploymentConfig::for_testing();
        config.topo = ClusterTopology::new(3, 1).expect("topology");
        config.client.record_results = true;
        config.edge = EdgeConfig::honest(1);
        let topo = config.topo.clone();
        let [k0, k1, k2] = [0, 1, 2].map(|c| keys_on(&topo, ClusterId(c), 2));
        let point = |keys: Vec<Key>| ClientOp::Query {
            query: ReadQuery::point(keys),
        };
        // Anchors for partitions 0 and 1, each read through its own
        // edge; none for 2. Then a three-part query to partition 0's
        // edge, which has cached none of its key sets and forwards all
        // three parts.
        let ops = vec![
            point(vec![k0[0].clone()]),
            point(vec![k1[0].clone()]),
            point(vec![k0[1].clone(), k1[1].clone(), k2[0].clone()]),
        ];
        let mut dep = single_contact_deployment(config, ops);
        run_until_results(&mut dep, 2);

        let contact = EdgeId::new(ClusterId(0), 0);
        let body = dep
            .edge_node(contact)
            .cached_answers()
            .into_iter()
            .find_map(|object| match object.body {
                Body::Point { body, .. } => Some(body),
                Body::Scan(_) => None,
            })
            .expect("a cached section");
        let held = |cluster: u16, batch: u64| ReadResponse {
            anchor: Anchor::Held {
                cluster: ClusterId(cluster),
                batch: BatchNum(batch),
            },
            body: body.clone().into(),
        };
        let extras = if with_extras {
            vec![held(2, 0), held(1, 1)]
        } else {
            Vec::new()
        };
        dep.sim.wrap_actor(NodeId::Edge(contact), |inner| {
            Box::new(Tap {
                inner,
                extras,
                pushed: 0,
            })
        });
        dep.run_until_done(SimTime(600_000_000));

        let pushed = dep
            .sim
            .actor_as::<Tap>(NodeId::Edge(contact))
            .expect("tap")
            .pushed;
        let client = dep.client(dep.client_ids[0]);
        assert_eq!(client.stats.verification_failures, 0);
        assert_eq!(client.stats.retries, 0);
        assert_eq!(client.stats.gave_up, 0);
        let health = client
            .edge_selector
            .health(ClusterId(0), NodeId::Edge(contact))
            .expect("contact is a registered target");
        assert_eq!(health.total_rejections, 0);
        assert_eq!(health.demotions, 0);
        let results = &client.query_results;
        assert_eq!(results.len(), 3);
        assert_eq!(results[2].snapshot.len(), 3, "every owed partition");
        for q in results {
            for (key, value) in &q.values {
                let want = dep.data.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                assert_eq!(value.as_ref(), want);
            }
        }
        let values: Vec<_> = results.iter().map(|q| q.values.clone()).collect();
        (
            pushed,
            client.verified_certs().sig_checks(),
            client.stats.cert_checks_shared,
            client.stats.read_result_bytes,
            values,
        )
    };
    let (pushed, sig_checks, shared, bytes, values) = run(true);
    assert_eq!(pushed, 2, "both held extras reached the client");
    assert_eq!(
        (0, sig_checks, shared, bytes, values),
        run(false),
        "the held extras cost no signature check, no memo hit and no byte"
    );
}

/// A held answer vouches for nothing but its body. An edge sends a
/// client a held answer naming the client's newest anchor of partition
/// 0 while carrying a body proven at genesis, whose root a write has
/// since replaced: rebuilt around the client's own anchor it fails its
/// proof, the edge is blamed, and the evidence the client files — the
/// rebuilt full answer — re-verifies for anyone as a cryptographic
/// rejection. The read still completes with the committed value.
#[test]
fn a_held_body_proven_at_another_batch_is_a_bad_proof_and_evidence() {
    let mut config = DeploymentConfig::for_testing();
    config.client.record_results = true;
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .gossip_directory(SimDuration::from_millis(20))
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 2);
    let ops = vec![
        ClientOp::ReadWrite {
            reads: vec![],
            writes: vec![(k0[0].clone(), Value::from("rewritten"))],
        },
        ClientOp::ReadOnly {
            keys: vec![k0[0].clone()],
        },
        ClientOp::ReadOnly {
            keys: vec![k0[1].clone()],
        },
    ];
    let mut dep = Deployment::build(config, vec![ops]);
    run_until_results(&mut dep, 1);
    let (_, anchor) = dep.client(dep.client_ids[0]).query_results[0].snapshot[0];
    assert!(
        anchor > BatchNum(0),
        "the write sealed a batch past genesis"
    );

    let edge = EdgeId::new(ClusterId(0), 0);
    let replica = dep.node(ReplicaId::new(ClusterId(0), 0));
    let body = transedge::edge::multi_snapshot(&replica.exec, &k0[1..], BatchNum(0));
    let forged = ReadResponse {
        anchor: Anchor::Held {
            cluster: ClusterId(0),
            batch: anchor,
        },
        body: body.into(),
    };
    let extras = vec![forged];
    dep.sim.wrap_actor(NodeId::Edge(edge), |inner| {
        Box::new(Tap {
            inner,
            extras,
            pushed: 0,
        })
    });
    dep.run_until_done(SimTime(600_000_000));

    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 1);
    assert_eq!(client.stats.gave_up, 0);
    let want = dep
        .data
        .iter()
        .find(|(k, _)| *k == k0[1])
        .map(|(_, v)| v.clone());
    assert_eq!(client.query_results[1].values, [(k0[1].clone(), want)]);
    assert_eq!(client.stats.directory_evidence_sent, 1);
    let evidence = client
        .directory()
        .expect("directory enabled")
        .state()
        .evidence_for(edge)
        .expect("evidence against the edge");
    assert!(
        evidence.body.response.anchor().is_some(),
        "the evidence carries the rebuilt full answer"
    );
    let verifier = ReadVerifier::new(VerifyParams {
        tree_depth: dep.config.node.tree_depth,
        freshness_window: dep.config.node.freshness_window,
        quorum: topo.certificate_quorum(),
    });
    let rejection = evidence.verify(&dep.keys, &verifier);
    assert_eq!(rejection, Some(transedge::edge::ReadRejection::BadProof));
}

// ---- direct answers from the replica -----------------------------------

/// Wraps a client and records, for every read answer it receives, who
/// sent it and whether it came held.
struct Inbox {
    inner: Box<dyn transedge::simnet::Actor<NetMsg>>,
    got: Vec<(NodeId, bool)>,
}

impl Inbox {
    /// Put an `Inbox` around the client `id` before the run starts.
    fn wrap(dep: &mut Deployment, id: transedge::common::ClientId) {
        dep.sim.wrap_actor(NodeId::Client(id), |inner| {
            Box::new(Inbox {
                inner,
                got: Vec::new(),
            })
        });
    }

    fn of(dep: &Deployment, id: transedge::common::ClientId) -> &Inbox {
        dep.sim
            .actor_as::<Inbox>(NodeId::Client(id))
            .expect("inbox")
    }

    fn client(&self) -> &transedge::core::client::ClientActor {
        let inner: &dyn std::any::Any = self.inner.as_ref();
        inner.downcast_ref().expect("a client inside")
    }
}

impl transedge::simnet::Actor<NetMsg> for Inbox {
    fn on_start(&mut self, ctx: &mut transedge::simnet::Context<'_, NetMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: NetMsg,
        ctx: &mut transedge::simnet::Context<'_, NetMsg>,
    ) {
        if let NetMsg::ReadResult { result, .. } = &msg {
            self.got.push((from, result.anchor().is_none()));
        }
        self.inner.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut transedge::simnet::Context<'_, NetMsg>) {
        self.inner.on_timer(token, ctx);
    }
}

/// A cold read through an edge is answered by the replica. Each of the
/// two parts misses at its partition's edge, whose replica sends the
/// client the answer under the client's request id and the edge a full
/// copy under the edge's: the client hears from two replicas and from
/// no edge, nothing is retried, and the wire carries exactly those four
/// answers. Each edge caches its full copy, so a second client's
/// identical read is a hit at both edges and asks no replica.
#[test]
fn a_cold_read_through_an_edge_is_answered_by_the_replica() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    config.edge = EdgeConfig::honest(1);
    let topo = config.topo.clone();
    let keys = [0, 1].map(|c| keys_on(&topo, ClusterId(c), 1).remove(0));
    let read = ClientOp::ReadOnly {
        keys: keys.to_vec(),
    };
    let late = ClientProfile::new().start_delay(SimDuration::from_millis(200));
    let mut dep = Deployment::build_custom(
        config,
        vec![
            ClientPlan::ops(vec![read.clone()]),
            ClientPlan::with_profile(vec![read], late),
        ],
    );
    let cold = dep.client_ids[0];
    Inbox::wrap(&mut dep, cold);
    dep.run_until(SimTime(100_000));

    let inbox = Inbox::of(&dep, cold);
    let client = inbox.client();
    assert_eq!(client.stats.verification_failures + client.stats.retries, 0);
    assert_eq!(client.query_results.len(), 1);
    let values = client.query_results[0].values.clone();
    let mut senders: Vec<(NodeId, bool)> = inbox.got.clone();
    senders.sort_by_key(|(from, _)| from.to_string());
    let [(a, held_a), (b, held_b)] = senders[..] else {
        panic!("one answer per part, got {senders:?}");
    };
    for (from, cluster) in [(a, ClusterId(0)), (b, ClusterId(1))] {
        let replica = from.as_replica().expect("a replica answered");
        assert_eq!(replica.cluster, cluster);
    }
    assert!(!held_a && !held_b, "a first contact holds no anchor");
    assert_eq!(
        dep.sim.stats().kind("read-result-point").messages,
        4,
        "each replica answered the client and the edge; no edge relayed"
    );
    for edge in &dep.edge_ids {
        let node = dep.edge_node(*edge);
        assert_eq!(node.stats.forwarded, 1);
        assert_eq!(node.pending_upstream(), 0, "the edge took its copy");
        let cached = node.cached_answers();
        assert_eq!(cached.len(), 1, "{edge} cached one answer");
        assert_eq!(cached[0].cluster(), edge.cluster);
    }

    // The wrapped client is not a `ClientActor` to the deployment, so
    // run to a time well past the late read rather than until done.
    dep.run_until(SimTime(400_000));
    let late = dep.client(dep.client_ids[1]);
    assert_eq!(late.stats.verification_failures + late.stats.retries, 0);
    assert_eq!(late.query_results.len(), 1);
    assert_eq!(late.query_results[0].values, values);
    for edge in &dep.edge_ids {
        let stats = dep.edge_node(*edge).stats;
        assert_eq!((stats.forwarded, stats.served_from_cache), (1, 1));
    }
    let served: u64 = topo
        .all_replicas()
        .map(|r| dep.node(r).stats.rot_served)
        .sum();
    assert_eq!(served, 2, "one replica read per partition, the cold one");
    for q in &late.query_results {
        for (key, value) in &q.values {
            let want = dep.data.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            assert_eq!(value.as_ref(), want);
        }
    }
}

/// The direct copy is elided like any answer to the client. A client
/// holding both partitions' anchors reads keys no edge has cached: each
/// part comes straight from a replica, held, and the read costs the
/// client exactly the bytes of the same read answered held by replicas
/// with no edge tier at all.
#[test]
fn a_forwarded_part_reaches_a_client_holding_its_anchor_held() {
    let run = |edges: usize| {
        let mut config = DeploymentConfig::for_testing();
        config.latency = transedge::simnet::LatencyModel::paper_default();
        config.client.record_results = true;
        config.edge = EdgeConfig::honest(edges);
        let topo = config.topo.clone();
        let [k0, k1] = [0, 1].map(|c| keys_on(&topo, ClusterId(c), 2));
        let ops = vec![
            ClientOp::ReadOnly {
                keys: vec![k0[0].clone(), k1[0].clone()],
            },
            ClientOp::ReadOnly {
                keys: vec![k0[1].clone(), k1[1].clone()],
            },
        ];
        let mut dep = Deployment::build(config, vec![ops]);
        let id = dep.client_ids[0];
        Inbox::wrap(&mut dep, id);
        while Inbox::of(&dep, id).client().query_results.is_empty() {
            assert!(dep.sim.step(), "the first read completes");
        }
        let first = Inbox::of(&dep, id).client().stats.read_result_bytes;
        let answered = Inbox::of(&dep, id).got.len();
        // Not `run_until_done`: the deployment cannot see the client
        // inside the inbox.
        dep.run_until(SimTime(100_000));

        let inbox = Inbox::of(&dep, id);
        let client = inbox.client();
        assert_eq!(client.stats.verification_failures + client.stats.retries, 0);
        assert_eq!(client.query_results.len(), 2);
        let second = &inbox.got[answered..];
        assert_eq!(second.len(), 2, "{edges} edges: one answer per part");
        for (from, held) in second {
            assert!(from.as_replica().is_some(), "{edges} edges: from {from}");
            assert!(held, "{edges} edges: the anchor was named");
        }
        client.stats.read_result_bytes - first
    };
    assert_eq!(run(1), run(0));
}

/// A replica answers directly only a client. A read naming a replica or
/// an edge as `reply_to` is answered to its asker alone — the one
/// answer on the wire — while one naming a client is also answered to
/// that client, under the request id it names.
#[test]
fn a_reply_to_naming_no_client_is_ignored() {
    use transedge::common::ClientId;

    let asker = NodeId::Client(ClientId(u32::MAX));
    let listener = NodeId::Client(ClientId(u32::MAX - 1));
    let replica = NodeId::Replica(ReplicaId::new(ClusterId(0), 0));
    let run = |reply_to: NodeId| {
        let mut config = DeploymentConfig::for_testing();
        config.edge = EdgeConfig::honest(1);
        let key = keys_on(&config.topo, ClusterId(0), 1);
        let mut dep = Deployment::build(config, Vec::new());
        let mut query = ReadQuery::point(key);
        query.reply_to = Some((reply_to, 9));
        let ask = Some((replica, query));
        dep.sim.add_actor(
            asker,
            Box::new(Listener {
                ask,
                got: Vec::new(),
            }),
        );
        let idle = Listener {
            ask: None,
            got: Vec::new(),
        };
        dep.sim.add_actor(listener, Box::new(idle));
        dep.run_until(SimTime(50_000));
        let got = |node| -> Vec<(NodeId, u64)> {
            let l = dep.sim.actor_as::<Listener>(node).expect("listener");
            l.got
                .iter()
                .map(|(_, from, req, _)| (*from, *req))
                .collect()
        };
        let answers = dep.sim.stats().kind("read-result-point").messages;
        (answers, got(asker), got(listener))
    };
    let edge = NodeId::Edge(EdgeId::new(ClusterId(0), 0));
    let other = NodeId::Replica(ReplicaId::new(ClusterId(0), 1));
    for ignored in [other, edge] {
        assert_eq!(
            run(ignored),
            (1, vec![(replica, 1)], Vec::new()),
            "reply_to {ignored}"
        );
    }
    assert_eq!(
        run(listener),
        (2, vec![(replica, 1)], vec![(replica, 9)]),
        "a client named as reply_to is answered directly"
    );
}

/// Wraps a real replica and, at start, sends `ask` from it under
/// request id 1; keeps who answered it under which request id.
struct AskingReplica {
    inner: Box<dyn transedge::simnet::Actor<NetMsg>>,
    ask: Option<(NodeId, ReadQuery)>,
    got: Vec<(NodeId, u64)>,
}

impl transedge::simnet::Actor<NetMsg> for AskingReplica {
    fn on_start(&mut self, ctx: &mut transedge::simnet::Context<'_, NetMsg>) {
        self.inner.on_start(ctx);
        if let Some((to, query)) = self.ask.take() {
            ctx.send(to, NetMsg::Read { req: 1, query });
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: NetMsg,
        ctx: &mut transedge::simnet::Context<'_, NetMsg>,
    ) {
        if let NetMsg::ReadResult { req, .. } = &msg {
            self.got.push((from, *req));
        }
        self.inner.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut transedge::simnet::Context<'_, NetMsg>) {
        self.inner.on_timer(token, ctx);
    }
}

/// Who answered, each under which request id.
type Answers = Vec<(NodeId, u64)>;

/// A replica of cluster 1 asks cluster 0's leader for one key, naming
/// `reply_to` (under request id 9), while a listener client waits. The
/// number of answers on the wire, then who answered the asking replica
/// and the listener, each under which request id.
fn asked_by_a_replica(reply_to: Option<NodeId>) -> (u64, Answers, Answers) {
    use transedge::common::ClientId;

    let asker = NodeId::Replica(ReplicaId::new(ClusterId(1), 0));
    let listener = NodeId::Client(ClientId(u32::MAX));
    let replica = NodeId::Replica(ReplicaId::new(ClusterId(0), 0));
    let config = DeploymentConfig::for_testing();
    let key = keys_on(&config.topo, ClusterId(0), 1);
    let mut dep = Deployment::build(config, Vec::new());
    let mut query = ReadQuery::point(key);
    query.reply_to = reply_to.map(|node| (node, 9));
    dep.sim.wrap_actor(asker, |inner| {
        Box::new(AskingReplica {
            inner,
            ask: Some((replica, query)),
            got: Vec::new(),
        })
    });
    let idle = Listener {
        ask: None,
        got: Vec::new(),
    };
    dep.sim.add_actor(listener, Box::new(idle));
    dep.run_until(SimTime(50_000));
    let asked = dep.sim.actor_as::<AskingReplica>(asker).expect("asker");
    let heard = dep.sim.actor_as::<Listener>(listener).expect("listener");
    let heard = heard.got.iter().map(|(_, from, req, _)| (*from, *req));
    (
        dep.sim.stats().kind("read-result-point").messages,
        asked.got.clone(),
        heard.collect(),
    )
}

/// A replica asked by a replica, with a client named as `reply_to` (a
/// chase), answers that client alone, under the request id it names:
/// the asking replica caches nothing, so it is sent nothing.
#[test]
fn a_replica_asked_by_a_replica_answers_only_the_client_it_names() {
    let replica = NodeId::Replica(ReplicaId::new(ClusterId(0), 0));
    let listener = NodeId::Client(transedge::common::ClientId(u32::MAX));
    assert_eq!(
        asked_by_a_replica(Some(listener)),
        (1, Vec::new(), vec![(replica, 9)])
    );
}

/// A replica asked by a replica with no `reply_to` answers the asker,
/// as it answers any asker — the path a liar's relayed chase takes.
#[test]
fn a_replica_asked_by_a_replica_without_reply_to_answers_the_asker() {
    let replica = NodeId::Replica(ReplicaId::new(ClusterId(0), 0));
    assert_eq!(
        asked_by_a_replica(None),
        (1, vec![(replica, 1)], Vec::new())
    );
}

/// Stands in for an honest edge that also relays: the real edge serves
/// every message, and each upstream answer it receives is sent on, as
/// received, to the client that asked last, under that client's
/// request id — a second copy behind the replica's direct one.
struct Relay {
    inner: Box<dyn transedge::simnet::Actor<NetMsg>>,
    asker: Option<(NodeId, u64)>,
    relayed: u64,
}

impl transedge::simnet::Actor<NetMsg> for Relay {
    fn on_start(&mut self, ctx: &mut transedge::simnet::Context<'_, NetMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: NetMsg,
        ctx: &mut transedge::simnet::Context<'_, NetMsg>,
    ) {
        let copy = match &msg {
            NetMsg::Read { req, .. } => {
                self.asker = Some((from, *req));
                None
            }
            NetMsg::ReadResult { result, .. } if from.as_replica().is_some() => self
                .asker
                .map(|(client, req)| (client, req, result.clone())),
            _ => None,
        };
        self.inner.on_message(from, msg, ctx);
        if let Some((client, req, result)) = copy {
            ctx.send(client, NetMsg::ReadResult { req, result });
            self.relayed += 1;
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut transedge::simnet::Context<'_, NetMsg>) {
        self.inner.on_timer(token, ctx);
    }
}

/// A relayed copy behind the direct answer is dropped unread. Every
/// miss of a three-read script reaches the client twice — straight
/// from the replica, then relayed by the edge — and the second copy is
/// never verified, blames nobody and costs no byte: the run matches
/// the same run without the relay.
#[test]
fn a_relayed_copy_behind_the_direct_answer_is_dropped_unread() {
    let run = |relay: bool| {
        let mut config = DeploymentConfig::for_testing();
        config.latency = transedge::simnet::LatencyModel::paper_default();
        config.client.record_results = true;
        config.edge = EdgeConfig::honest(1);
        let topo = config.topo.clone();
        let k0 = keys_on(&topo, ClusterId(0), 2);
        let read = |keys: &[Key]| ClientOp::ReadOnly {
            keys: keys.to_vec(),
        };
        let ops = vec![read(&k0[..1]), read(&k0[1..]), read(&k0[..1])];
        let mut dep = Deployment::build(config, vec![ops]);
        let edge = EdgeId::new(ClusterId(0), 0);
        if relay {
            dep.sim.wrap_actor(NodeId::Edge(edge), |inner| {
                Box::new(Relay {
                    inner,
                    asker: None,
                    relayed: 0,
                })
            });
        }
        dep.run_until_done(SimTime(600_000_000));

        let relayed = dep
            .sim
            .actor_as::<Relay>(NodeId::Edge(edge))
            .map_or(0, |r| r.relayed);
        let client = dep.client(dep.client_ids[0]);
        assert_eq!(client.stats.verification_failures, 0);
        assert_eq!(client.stats.retries + client.stats.gave_up, 0);
        let health = client
            .edge_selector
            .health(ClusterId(0), NodeId::Edge(edge))
            .expect("the edge is a registered target");
        assert_eq!(health.total_rejections + health.demotions, 0);
        assert_eq!(client.query_results.len(), 3);
        let values: Vec<_> = client
            .query_results
            .iter()
            .map(|q| q.values.clone())
            .collect();
        (
            relayed,
            client.verified_certs().sig_checks(),
            client.stats.cert_checks_shared,
            client.stats.read_result_bytes,
            values,
        )
    };
    let (relayed, sig_checks, shared, bytes, values) = run(true);
    assert_eq!(relayed, 2, "both misses were relayed too");
    assert_eq!(
        (0, sig_checks, shared, bytes, values),
        run(false),
        "the relayed copies cost no signature check, no memo hit and no byte"
    );
}

// ---- forks -------------------------------------------------------------

/// A fork is a verdict, not a silent divergence. A client reads
/// partition 0 once and holds its genesis anchor. Then `f+1`
/// compromised replica keys certify a second genesis header — the same
/// root, one microsecond later — and a full answer at it meets the
/// client's next read ahead of the honest one. The answer verifies on
/// its own, but its anchor conflicts with the held one, so the read
/// fails closed with a `Fork` carrying both: no retry, nobody demoted,
/// no evidence gossiped. Each anchor re-verifies under the key
/// directory, and the reader goes on to its next read.
#[test]
fn a_second_certified_history_of_a_held_batch_fails_the_read_closed() {
    use transedge::consensus::byzantine::craft_certificate;
    use transedge::crypto::KeyStore;
    use transedge::edge::{same_batch_conflict, ReadRejection};

    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .gossip_directory(SimDuration::from_millis(20))
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let k0 = keys_on(&topo, ClusterId(0), 3);
    let read = |key: &Key| ClientOp::ReadOnly {
        keys: vec![key.clone()],
    };
    let ops = vec![read(&k0[0]), read(&k0[1]), read(&k0[2])];
    let mut dep = Deployment::build(config, vec![ops]);
    run_until_results(&mut dep, 1);

    // The genesis anchor the client verified, as the edge cached it.
    let edge = EdgeId::new(ClusterId(0), 0);
    let genuine = dep
        .edge_node(edge)
        .cached_answers()
        .into_iter()
        .find(|object| matches!(object.body, Body::Point { .. }))
        .expect("a cached section");
    assert_eq!(genuine.batch(), BatchNum(0));
    let genuine = genuine.anchor().expect("a full answer");
    // The deployment derives every replica key from its seed; an
    // adversary holding f+1 of them certifies whatever it likes.
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&dep.config.seed.to_le_bytes());
    let (_, secrets) = KeyStore::for_topology(&topo, &seed);
    let signers: Vec<_> = topo
        .replicas_of(ClusterId(0))
        .take(topo.certificate_quorum())
        .map(|r| (r, &secrets[&r]))
        .collect();
    let mut commitment = genuine.0.clone();
    commitment.header.timestamp = SimTime(commitment.header.timestamp.0 + 1);
    let digest = commitment.certified_digest();
    let cert = craft_certificate(&signers, ClusterId(0), BatchNum(0), digest);
    let replica = dep.node(ReplicaId::new(ClusterId(0), 0));
    let body = transedge::edge::multi_snapshot(&replica.exec, &k0[1..2], BatchNum(0));
    let forged = ReadResponse::full(commitment, cert, body);
    // The edge forwards the second read (a miss) upstream; the forgery
    // leaves it at once and arrives ahead of the replica's answer.
    let extras = vec![forged];
    dep.sim.wrap_actor(NodeId::Edge(edge), |inner| {
        Box::new(Tap {
            inner,
            extras,
            pushed: 0,
        })
    });
    dep.run_until_done(SimTime(600_000_000));

    let pushed = dep
        .sim
        .actor_as::<Tap>(NodeId::Edge(edge))
        .map(|t| t.pushed);
    assert_eq!(pushed, Some(1));
    let client = dep.client(dep.client_ids[0]);
    let [ReadRejection::Fork { held, got }] = &client.forks[..] else {
        panic!("one fork, got {:?}", client.forks);
    };
    assert_eq!(held.1.digest, genuine.1.digest, "the first history");
    assert_eq!(got.1.digest, digest, "the second history");
    assert!(same_batch_conflict((&held.0, &held.1), (&got.0, &got.1)).is_some());
    let quorum = topo.certificate_quorum();
    for (commitment, cert) in [held.as_ref(), got.as_ref()] {
        assert_eq!(cert.digest, commitment.certified_digest());
        assert!(cert.verify(&dep.keys, quorum).is_ok());
    }
    // Failed closed: the second read ended there, unanswered and
    // unretried, with nobody blamed; the third read ran as usual.
    assert_eq!(client.stats.retries + client.stats.gave_up, 0);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.edge_selector.demotions(), 0);
    assert_eq!(client.stats.directory_evidence_sent, 0);
    let committed: Vec<bool> = client.samples.iter().map(|s| s.committed).collect();
    assert_eq!(committed, [true, false, true]);
    let keys_read: Vec<Key> = client
        .query_results
        .iter()
        .flat_map(|q| q.values.iter().map(|(k, _)| k.clone()))
        .collect();
    assert_eq!(keys_read, [k0[0].clone(), k0[2].clone()]);
}

/// Writers commit cross-partition transactions over hot keys of every
/// partition while readers snapshot cold keys of every partition —
/// never written, so every value read is the preloaded one. The writes
/// keep each partition's CD vector moving, so round-two answers import
/// dependencies past the LCEs the readers hold and their replicas chase.
fn chasing_deployment(clusters: u16, readers: usize) -> Deployment {
    let mut config = DeploymentConfig::for_testing();
    config.topo = ClusterTopology::new(clusters, 1).unwrap();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    let topo = config.topo.clone();
    let per: Vec<Vec<Key>> = topo.clusters().map(|c| keys_on(&topo, c, 8)).collect();
    let mut scripts: Vec<Vec<ClientOp>> = Vec::new();
    for w in 0..6usize {
        let ops = (0..20)
            .map(|i| ClientOp::ReadWrite {
                reads: vec![],
                writes: (0..2)
                    .map(|j| {
                        let c = (w + i + j) % per.len();
                        (per[c][(w + i) % 4].clone(), Value::from("w"))
                    })
                    .collect(),
            })
            .collect();
        scripts.push(ops);
    }
    for r in 0..readers {
        let ops = (0..20)
            .map(|i| ClientOp::ReadOnly {
                keys: per.iter().map(|k| k[4 + (r + i) % 4].clone()).collect(),
            })
            .collect();
        scripts.push(ops);
    }
    Deployment::build(config, scripts)
}

/// The chase counters of every client of `dep`, summed: waits, early
/// arrivals, drops, third rounds, retries, verification failures and
/// give-ups.
fn chase_totals(dep: &Deployment) -> [u64; 7] {
    let mut totals = [0; 7];
    for id in &dep.client_ids {
        let s = &dep.client(*id).stats;
        let counts = [
            s.chase_waits,
            s.chase_early,
            s.chase_dropped,
            s.third_round_needed,
            s.retries,
            s.verification_failures,
            s.gave_up,
        ];
        for (total, count) in totals.iter_mut().zip(counts) {
            *total += count;
        }
    }
    totals
}

/// Every read of `dep` completed with the preloaded values.
fn assert_reads_preloaded(dep: &Deployment) {
    for id in &dep.client_ids {
        let client = dep.client(*id);
        for q in &client.query_results {
            for (key, value) in &q.values {
                let want = dep.data.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                assert_eq!(value.as_ref(), want, "client {id:?} read {key:?}");
            }
        }
    }
    let reads: usize = dep
        .client_ids
        .iter()
        .map(|id| dep.client(*id).query_results.len())
        .sum();
    assert_eq!(reads, 3 * 20, "every read completed");
}

/// A round-two answer chases the dependency it creates. In the chasing
/// deployment some reads still take a third round, each still counted,
/// but a part whose dependency an answering replica was asked to chase
/// waits on the forward instead of asking: every wait had a forward
/// behind it, nothing is retried or rejected, and every value is the
/// preloaded one. At four partitions one chased answer arrives before
/// its part waits on it, and is used at the dependency check — dropped
/// there, the part would wait for the retry timer.
#[test]
fn round_two_answers_chase_the_dependencies_they_create() {
    for clusters in [2, 4] {
        let mut dep = chasing_deployment(clusters, 3);
        dep.run_until_done(SimTime(600_000_000));

        let [waits, early, _, third, retries, failures, gave_up] = chase_totals(&dep);
        let sent: u64 = dep
            .topo
            .all_replicas()
            .map(|r| dep.node(r).stats.chases_sent)
            .sum();
        assert!(
            waits > 0,
            "{clusters} partitions: no part waited on a chase"
        );
        assert!(sent >= waits, "{sent} forwards behind {waits} waits");
        assert!(third > 0, "{clusters} partitions: no third round");
        assert_eq!(early > 0, clusters == 4, "{early} early chased answers");
        assert_eq!(
            (retries, failures, gave_up),
            (0, 0, 0),
            "{clusters} partitions"
        );
        assert_reads_preloaded(&dep);
    }
}

/// Wraps a replica and loses every read it sends another replica: each
/// leaves as a directory pull, which a replica drops unread.
struct LoseChases {
    inner: Box<dyn transedge::simnet::Actor<NetMsg>>,
    lost: u64,
}

impl LoseChases {
    fn lose(&mut self, ctx: &mut transedge::simnet::Context<'_, NetMsg>) {
        for (to, msg) in ctx.sends_mut() {
            if matches!((to, &*msg), (NodeId::Replica(_), NetMsg::Read { .. })) {
                *msg = NetMsg::DirectoryPull;
                self.lost += 1;
            }
        }
    }
}

impl transedge::simnet::Actor<NetMsg> for LoseChases {
    fn on_start(&mut self, ctx: &mut transedge::simnet::Context<'_, NetMsg>) {
        self.inner.on_start(ctx);
        self.lose(ctx);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: NetMsg,
        ctx: &mut transedge::simnet::Context<'_, NetMsg>,
    ) {
        self.inner.on_message(from, msg, ctx);
        self.lose(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut transedge::simnet::Context<'_, NetMsg>) {
        self.inner.on_timer(token, ctx);
        self.lose(ctx);
    }

    fn inner(&self) -> Option<&(dyn transedge::simnet::Actor<NetMsg> + 'static)> {
        Some(self.inner.as_ref())
    }
}

/// A chase that never comes costs a retry, not the read. The leader
/// that chases loses every forward, so each part waiting on one is
/// resent when the op's retry timer fires, to rotating replicas: every
/// read completes with the preloaded values, and nothing is rejected.
#[test]
fn a_chase_that_never_comes_is_covered_by_the_retry() {
    let mut dep = chasing_deployment(2, 3);
    let leader = NodeId::Replica(dep.leader_of(ClusterId(0)));
    dep.sim
        .wrap_actor(leader, |inner| Box::new(LoseChases { inner, lost: 0 }));
    dep.run_until_done(SimTime(600_000_000));

    let lost = dep
        .sim
        .actor_as::<LoseChases>(leader)
        .expect("wrapped")
        .lost;
    let [waits, _, _, _, retries, failures, gave_up] = chase_totals(&dep);
    assert!(lost > 0, "the leader chased");
    assert!(waits > 0, "some part waited on a lost chase");
    assert!(retries >= 1, "the retry timer covered the lost chases");
    assert_eq!((failures, gave_up), (0, 0));
    assert_reads_preloaded(&dep);
}

/// A lying chased replica is caught like any liar. The chased
/// partition's leader tampers with every answer it sends a client, the
/// chased ones included: each part that waited on a chase rejects the
/// forwarded answer and re-asks another replica at once — no retry
/// timer fires — and every read completes with the preloaded values.
#[test]
fn a_lying_chased_replica_is_rejected_and_re_asked() {
    let mut dep = chasing_deployment(2, 3);
    let chased = NodeId::Replica(dep.leader_of(ClusterId(1)));
    liar::install(&mut dep, chased, Lie::TamperValue);
    dep.run_until_done(SimTime(600_000_000));

    let [waits, _, _, _, retries, failures, gave_up] = chase_totals(&dep);
    assert!(waits > 0, "some part waited on the liar's chased answer");
    assert!(failures >= waits, "{failures} rejections for {waits} waits");
    assert!(liar::tampered(&dep, chased) >= failures);
    assert_eq!((retries, gave_up), (0, 0));
    assert_reads_preloaded(&dep);
}
