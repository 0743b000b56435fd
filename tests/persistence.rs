//! System-level checks of the edge persistence plane. An edge's disk
//! image is what its replay caches held: a crashed edge restarts *warm*
//! by re-admitting that image through the client-grade verifier (zero
//! replica fetches for covered keys), a cold control restart pays the
//! upstream fetches, corrupted objects are dropped at re-admission and
//! never served, an answer the commit feed proved superseded is not on
//! disk to come back, and an edge that lost its disk bootstraps by
//! verified state transfer from a sibling — never one its directory has
//! already convicted, and never from anyone it did not ask.

use transedge::common::{
    ClusterId, ClusterTopology, EdgeId, Key, NodeId, SimDuration, SimTime, Value,
};
use transedge::core::client::ClientOp;
use transedge::core::setup::{ClientPlan, Deployment, DeploymentConfig};
use transedge::core::{ClientProfile, EdgeConfig, EdgeConfigBuilder, NetMsg};
use transedge::directory::GossipDelta;
use transedge::edge::{Body, MultiProofBody, ReadQuery};
use transedge::scenario::liar::{self, Lie};

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

/// A deployment where client 0 warms cluster 0's edge with `warm_ops`
/// reads of `rot_keys` from t = 0, and client 1 repeats the same reads
/// starting only after [`CRASH_AT`].
fn warm_then_probe(per_cluster: usize) -> (Deployment, Vec<Key>) {
    warm_then_probe_on(EdgeConfig::builder().per_cluster(per_cluster))
}

/// [`warm_then_probe`] over any edge tier.
fn warm_then_probe_on(edges: EdgeConfigBuilder) -> (Deployment, Vec<Key>) {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.client.record_results = true;
    config.edge = edges.build().expect("edge config");
    let topo = config.topo.clone();
    let rot_keys = keys_on(&topo, ClusterId(0), 3);
    let script: Vec<ClientOp> = (0..6)
        .map(|_| ClientOp::ReadOnly {
            keys: rot_keys.clone(),
        })
        .collect();
    let dep = Deployment::build_custom(
        config,
        vec![
            ClientPlan::ops(script.clone()),
            ClientPlan::with_profile(script, ClientProfile::new().start_delay(PROBE_DELAY)),
        ],
    );
    (dep, rot_keys)
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

/// A warm restart re-admits the pre-crash disk image and serves the
/// probe client entirely warm: zero replica fetches.
#[test]
fn warm_restart_serves_verified_reads_with_zero_replica_fetches() {
    let (mut dep, _keys) = warm_then_probe(1);
    let e0 = EdgeId::new(ClusterId(0), 0);
    dep.run_until(CRASH_AT);

    let image = dep.crash_edge(e0);
    assert!(
        !image.is_empty(),
        "the warm-up workload must have cached answers"
    );
    dep.restart_edge(e0, image);
    dep.run_until_done(LIMIT);

    // The restarted actor's counters start at zero, so every stat
    // below is post-restart only.
    let edge = dep.edge_node(e0);
    assert!(
        edge.stats.hydrate_admitted > 0,
        "hydration must re-admit the cached answers"
    );
    assert_eq!(edge.stats.hydrate_rejected, 0, "honest disk, no rejections");
    assert!(edge.stats.requests > 0, "the probe client reached the edge");
    assert_eq!(
        edge.stats.forwarded, 0,
        "warm restart: no upstream forwards"
    );
    assert_eq!(edge.stats.scans_forwarded, 0);
    assert_probe_clean(&dep);
}

/// Cold control: the same crash with the disk wiped forwards upstream
/// — the measured contrast that makes the warm number meaningful.
#[test]
fn cold_restart_control_fetches_from_replicas() {
    let (mut dep, _keys) = warm_then_probe(1);
    let e0 = EdgeId::new(ClusterId(0), 0);
    dep.run_until(CRASH_AT);

    let _lost = dep.crash_edge(e0);
    dep.restart_edge(e0, Vec::new());
    dep.run_until_done(LIMIT);

    let edge = dep.edge_node(e0);
    assert_eq!(
        edge.stats.hydrate_admitted, 0,
        "nothing on disk to re-admit"
    );
    assert!(
        edge.stats.forwarded > 0,
        "cold restart must pay at least one replica fetch"
    );
    assert_probe_clean(&dep);
}

/// Disk is untrusted input: every object tampered with between crash
/// and restart is rejected by the verifier at re-admission (counted,
/// never served), and the probe client still reads only committed
/// values.
#[test]
fn corrupted_disk_objects_are_dropped_never_served() {
    let (mut dep, _keys) = warm_then_probe(1);
    let e0 = EdgeId::new(ClusterId(0), 0);
    dep.run_until(CRASH_AT);

    let mut image = dep.crash_edge(e0);
    assert!(!image.is_empty());
    // Corrupt every object on disk: a forged value (a section body is
    // immutable, so the forger rebuilds it) no longer hashes to what
    // the proof commits to.
    for object in image.iter_mut() {
        match &mut object.body {
            Body::Point { body, .. } => {
                let mut values = body.values().to_vec();
                values[0] = Some(Value::from("forged"));
                *body = MultiProofBody::new(body.keys().to_vec(), values, body.proof().clone());
            }
            Body::Scan(scan) => {
                if let Some(row) = scan.rows.first_mut() {
                    row.1 = Value::from("forged");
                } else {
                    scan.range.last = scan.range.last.wrapping_add(1);
                }
            }
        }
    }
    let tampered = image.len() as u64;
    dep.restart_edge(e0, image);
    dep.run_until_done(LIMIT);

    let edge = dep.edge_node(e0);
    assert_eq!(
        edge.stats.hydrate_rejected, tampered,
        "every corrupted object is rejected at re-admission"
    );
    assert_eq!(edge.stats.hydrate_admitted, 0);
    assert_eq!(edge.stats.hydrate_stale, 0, "corruption is not staleness");
    // The edge came up cold and re-fetched; the client never saw the
    // forged values.
    assert!(edge.stats.forwarded > 0);
    assert_probe_clean(&dep);
}

/// A feed-fed edge under a write-heavy interval: writers keep
/// overwriting keys of both partitions while a reader snapshots two
/// never-written keys on partition 0 and one hot key on partition 1
/// (the setup of the subscription tests in `tests/push_feed.rs`).
/// Every answer partition 1's edge caches is of the hot key, so every
/// one is push-invalidated by a later write to it. What that edge has
/// on disk when it crashes is what its cache holds: nothing. A copy of
/// every answer it ever admitted would bring the superseded ones back.
#[test]
fn a_warm_restart_brings_back_no_answer_the_feed_superseded() {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .commit_feed(SimDuration::from_millis(50))
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let (k0, k1) = (
        keys_on(&topo, ClusterId(0), 8),
        keys_on(&topo, ClusterId(1), 8),
    );
    let mut plans: Vec<ClientPlan> = (0..3usize)
        .map(|c| {
            let writes = (0..15).map(|i| ClientOp::ReadWrite {
                reads: vec![],
                writes: vec![
                    (k0[2 + (c + i) % 6].clone(), Value::from("w0")),
                    (k1[2 + (c + i) % 6].clone(), Value::from("w1")),
                ],
            });
            ClientPlan::ops(writes.collect())
        })
        .collect();
    let read = ClientOp::ReadOnly {
        keys: vec![k0[0].clone(), k0[1].clone(), k1[2].clone()],
    };
    plans.push(ClientPlan::ops(vec![read; 24]));
    let mut dep = Deployment::build_custom(config, plans);
    dep.run_until_done(LIMIT);

    let e1 = EdgeId::new(ClusterId(1), 0);
    let replay: Vec<_> = dep.edge_node(e1).replay_stats().collect();
    let admitted: u64 = replay.iter().map(|(_, r)| r.admitted).sum();
    let invalidated: u64 = replay.iter().map(|(_, r)| r.fragments_invalidated).sum();
    assert!(admitted > 0, "the edge cached answers");
    assert_eq!(invalidated, admitted, "the feed superseded every one");

    let image = dep.crash_edge(e1);
    assert!(
        image.is_empty(),
        "{} superseded answers on disk",
        image.len()
    );
    dep.restart_edge(e1, image);
    dep.run_until(SimTime(dep.sim.now().0 + 1_000));
    assert_eq!(dep.edge_node(e1).stats.hydrate_admitted, 0);
}

/// An edge that lost its disk entirely bootstraps from a sibling's
/// cached answers — each one re-verified on receipt, exactly like
/// hydration from its own disk.
#[test]
fn cold_edge_bootstraps_from_sibling_state_transfer() {
    let (mut dep, _keys) = warm_then_probe(2);
    let e0 = EdgeId::new(ClusterId(0), 0);
    let e1 = EdgeId::new(ClusterId(0), 1);
    dep.run_until(CRASH_AT);

    // The warm-up traffic landed on whichever edge the selector chose:
    // the sibling comes back warm over the union of both disks, and the
    // edge comes back with its disk lost.
    let lost = dep.crash_edge(e0);
    let mut union = dep.crash_edge(e1);
    union.extend(lost);
    assert!(
        !union.is_empty(),
        "the warm-up workload must have cached answers"
    );
    dep.restart_edge(e1, union);
    dep.restart_edge(e0, Vec::new());
    dep.run_until_done(LIMIT);

    let edge = dep.edge_node(e0);
    assert_eq!(
        edge.stats.sibling_transfers, 1,
        "a cold restart requests exactly one sibling transfer"
    );
    assert!(
        edge.stats.sibling_objects_admitted > 0,
        "transferred objects re-verify and warm the caches"
    );
    assert_eq!(edge.stats.sibling_objects_rejected, 0);
    assert_probe_clean(&dep);
}

/// A cold edge does not spend its one transfer on a peer its directory
/// has convicted or struck — every object would be re-verified, so
/// asking a known liar is a wasted bootstrap, not a safety hole. With
/// two same-partition peers and the first convicted the request goes
/// to the second; with both ruled out it is not sent at all.
///
/// A restarted actor's directory starts empty, so the test hands it
/// what the fleet knows (every record a peer holds as one delta,
/// verified at ingest like any gossip) before its `on_start` runs.
#[test]
fn cold_edge_asks_only_a_healthy_peer_for_state_transfer() {
    for second_struck in [false, true] {
        let e0 = EdgeId::new(ClusterId(0), 0);
        let byz = EdgeId::new(ClusterId(0), 1);
        let e2 = EdgeId::new(ClusterId(0), 2);
        let (mut dep, _keys) = warm_then_probe_on(
            EdgeConfig::builder()
                .per_cluster(3)
                .gossip_directory(SimDuration::from_millis(20)),
        );
        liar::install(&mut dep, NodeId::Edge(byz), Lie::TamperValue);
        dep.run_until(CRASH_AT);
        // The warm-up client tripped over the liar and the fleet
        // convicted it.
        let known = dep.edge_node(e2).directory().expect("directory enabled");
        let delta = GossipDelta {
            summary: known.state().summary(),
            evidence: known.state().evidence().cloned().collect(),
        };
        assert!(delta.evidence.iter().any(|ev| ev.body.subject == byz));

        // Only the healthy peer has anything to offer: it comes back
        // warm over the union of the three disks, while the liar stays
        // down — a request sent to it brings back nothing — and the
        // edge comes back with its disk lost.
        let mut union = dep.crash_edge(e2);
        for edge in [e0, byz] {
            union.extend(dep.crash_edge(edge));
        }
        assert!(
            !union.is_empty(),
            "the warm-up workload must have cached answers"
        );
        dep.restart_edge(e2, union);
        dep.restart_edge(e0, Vec::new());
        let (keys, now) = (dep.keys.clone(), dep.sim.now());
        let agent = dep
            .edge_node_mut(e0)
            .directory_mut()
            .expect("directory enabled");
        agent.ingest_delta(NodeId::Edge(e2), &delta, &keys, now);
        assert!(agent.knows_byzantine(byz));
        if second_struck {
            agent.strike(NodeId::Edge(e2));
        }
        dep.run_until_done(LIMIT);

        let stats = dep.edge_node(e0).stats;
        assert_eq!(stats.sibling_objects_rejected, 0);
        if second_struck {
            assert_eq!(stats.sibling_transfers, 0, "nobody healthy to ask");
            assert_eq!(stats.sibling_objects_admitted, 0);
        } else {
            assert_eq!(stats.sibling_transfers, 1);
            assert!(
                stats.sibling_objects_admitted > 0,
                "the transfer went to the peer that had the objects"
            );
        }
        assert_probe_clean(&dep);
    }
}

/// An outsider that asks a replica an honest question and pushes the
/// honest answer at an edge as the objects of a state transfer the edge
/// never requested.
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
        let NetMsg::ReadResult { req, result } = msg else {
            return;
        };
        if result.anchor().is_none() || !matches!(result.body, Body::Point { .. }) {
            return;
        }
        let transfer = NetMsg::StateTransferResp {
            req,
            cluster: result.cluster(),
            objects: vec![result],
        };
        ctx.send(self.victim, transfer);
        self.pushed += 1;
    }
}

/// An edge takes a state transfer only from the sibling it asked, once.
/// Every transferred object is re-verified, so nothing forged gets in —
/// but an unsolicited push of *valid* objects would still make the edge
/// pay a quorum of signature checks per object and fill its cache (and
/// so its disk image) with sections of the pusher's choosing. This edge has no
/// sibling and so never asked anyone: the push is dropped unexamined.
#[test]
fn an_edge_takes_no_state_transfer_it_did_not_ask_for() {
    // No client: whatever the edge holds once the push has landed, the
    // push put there.
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .build()
        .expect("edge config");
    let keys = keys_on(&config.topo, ClusterId(0), 3);
    let mut dep = Deployment::build(config, Vec::new());
    let e0 = EdgeId::new(ClusterId(0), 0);
    let outsider = NodeId::Client(transedge::common::ClientId(u32::MAX));
    dep.sim.add_actor(
        outsider,
        Box::new(Outsider {
            replica: NodeId::Replica(transedge::common::ReplicaId::new(ClusterId(0), 0)),
            victim: NodeId::Edge(e0),
            keys,
            pushed: 0,
        }),
    );
    dep.run_until(SimTime(100_000));

    let pushed = dep.sim.actor_as::<Outsider>(outsider).map(|o| o.pushed);
    assert_eq!(pushed, Some(1), "the transfer was sent");
    let edge = dep.edge_node(e0);
    assert_eq!(edge.stats.sibling_transfers, 0, "no sibling to ask");
    assert_eq!(edge.stats.sibling_objects_admitted, 0);
    assert_eq!(edge.stats.sibling_objects_rejected, 0, "not even examined");
    assert_eq!(edge.replay_stats().count(), 0, "nothing cached");
}
