//! The edge read node: an *untrusted* cache actor that scales the
//! read-only path without joining consensus.
//!
//! An [`EdgeReadNode`] fronts one partition but caches certified
//! responses of *any* partition it has couriered (see scatter-gather
//! below). It holds no partition state, no Merkle tree, and no
//! consensus role — only the [`transedge_edge::ReplayCache`] sections
//! and windows of certified responses it has forwarded before. A
//! request one cached section proves (or one cached window was
//! admitted for) is answered locally
//! (zero upstream hops); anything else — a partly cached one included —
//! is forwarded whole to a replica of the partition that owns it, and
//! the certified answer absorbed on the way back only if it is the one
//! that replica was asked for.
//!
//! Three subsystems ride on top of the replay path:
//!
//! * **Edge-tier scatter-gather** — a cross-partition [`ReadQuery`]
//!   arriving at one edge is split into per-partition sub-queries, each
//!   run in-process through the ordinary serving path with a gather
//!   slot as its reply address (`ReplyTo`): served from the edge's
//!   own per-cluster caches where possible and forwarded to the owning
//!   partition's replicas otherwise — never to the edge fronting that
//!   partition, which sits beside those replicas and could only add a
//!   hop — then returned as one `ReadResponse::Gather` envelope: the
//!   client contacts *one* edge for a multi-partition query, and still
//!   verifies every part against its own partition's certified root.
//! * **Gossiped conviction directory** — each edge runs a
//!   [`DirectoryAgent`] and every gossip round pushes a *delta*
//!   (records the peer is not known to have, plus a state summary the
//!   peer answers with our missing records) to a rotating peer —
//!   push-pull anti-entropy over diffs. What travels is what clients
//!   witnessed and anyone can re-check: rejection evidence with the
//!   offending response attached, so one client's verified rejection
//!   demotes a byzantine edge fleet-wide in `O(log n)` rounds. An edge
//!   asserts nothing about itself.
//! * **Certified commit-feed subscription** — the edge subscribes to
//!   one home-cluster replica's per-batch [`RotDelta`] feed, verifies
//!   each pushed delta under its replica certificate, push-invalidates
//!   superseded cache fragments, and attaches the verified feed tail
//!   to warm replays as a freshness certificate — letting subscribed
//!   clients skip the round-2 `MinEpoch` fetch entirely.
//!
//! Because every response is proof-carrying, clients need not trust
//! this node at all: the byzantine variants below ([`EdgeBehavior`])
//! tamper with values, proofs, or roots, and the client-side
//! [`transedge_edge::ReadVerifier`] catches each one, after which the
//! client re-asks a real replica. Tests use them to pin that property.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, EdgeId, Key, NodeId, ReplicaId, SimDuration, SimTime,
};
use transedge_crypto::{Digest, KeyStore, Keypair, SigStats};
use transedge_directory::DirectoryAgent;
use transedge_edge::{
    is_stale_only, readmit, verify_object, GatherPart, MultiProofBody, PartitionCaches, QueryShape,
    ReadQuery, ReadVerifier, ReplayCache, SnapshotObject, SnapshotStore, VerifyParams,
    DEFAULT_SPILL_THRESHOLD,
};
use transedge_obs::SpanPhase;
use transedge_simnet::{Actor, Context};

use crate::batch::CommittedHeader;
use crate::messages::{NetMsg, ReadPayload, RotDelta, RotScanBundle, RotSection, RotSnapshot};

/// Gossip timer token.
const TOKEN_GOSSIP: u64 = 1;
/// Commit-feed lease-renewal timer token.
const TOKEN_FEED: u64 = 2;

/// How the edge node treats the responses it serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EdgeBehavior {
    /// Replay certified responses unmodified.
    #[default]
    Honest,
    /// Lie about the first returned value (keeps the honest proof —
    /// clients reject with a value/digest mismatch).
    TamperValue,
    /// Corrupt the first returned Merkle proof (clients reject the
    /// proof against the certified root).
    ForgeProof,
    /// Swap in a stale/forged state root while keeping the real
    /// certificate (clients reject the certificate over the recomputed
    /// digest).
    StaleRoot,
    /// Silently drop one answer. From a point-read section: one proven
    /// key and its value slot, keeping the proof — which no longer
    /// matches the advertised key set, so the client rejects it as a
    /// bad proof (or, should the rest still verify, a missing key).
    /// From a scan: one row — the attack completeness proofs exist for:
    /// every surviving row still verifies individually, so only
    /// `ReadVerifier::verify_scan`'s row-count-versus-proof check
    /// catches it.
    OmitKey,
    /// Inject a bogus key into the changed list of the last delta of an
    /// attached freshness feed — re-shipping the feed head when the
    /// client's cursor left nothing to send. Either the changed-key
    /// digest no longer matches the delta digest the replica
    /// certificate covers (`BadDelta`) or the delta repeats a batch
    /// the client said it holds (`FeedSpliced`): cryptographic
    /// evidence the directory gossips fleet-wide, like a forged proof.
    TamperDelta,
    /// Coalition mode: lie *consistently* with every other coalition
    /// member. The forged state root is a pure function of the batch
    /// number ([`coalition_root`]), so K colluding edges serve
    /// bit-identical forgeries — a client comparing their answers by
    /// vote would see perfect agreement and learn nothing. Only the
    /// proof chain convicts: the consensus certificate covers the
    /// *committed* digest, the recomputed digest over the forged root
    /// differs, and the rejection is signable evidence against each
    /// member individually.
    Coalition,
}

/// The coalition's agreed forged state root for one batch: a pure
/// function of the batch number, no covert channel needed. Every
/// [`EdgeBehavior::Coalition`] member substitutes this root, so K
/// colluding edges answer bit-for-bit identically — and each is still
/// convicted by the certificate-versus-recomputed-digest check.
pub fn coalition_root(num: BatchNum) -> Digest {
    let mut d = [0xC0u8; 32];
    d[..8].copy_from_slice(&num.0.to_le_bytes());
    Digest(d)
}

/// The gossip-directory configuration of a deployment's edges.
#[derive(Clone, Debug)]
pub struct DirectoryPlan {
    /// Run the gossip directory at all. It carries rejection evidence
    /// only; where an edge forwards a miss does not depend on it.
    pub enabled: bool,
    /// Anti-entropy period (each edge pushes a delta — missing records
    /// plus a state summary — to one rotating peer per round).
    pub gossip_interval: SimDuration,
}

impl DirectoryPlan {
    /// No directory (the pre-directory deployment shape).
    pub fn disabled() -> Self {
        DirectoryPlan {
            enabled: false,
            gossip_interval: SimDuration::from_millis(50),
        }
    }

    /// Gossip at the given push period.
    pub fn gossip(interval: SimDuration) -> Self {
        DirectoryPlan {
            enabled: true,
            gossip_interval: interval,
        }
    }
}

/// The certified commit-feed subscription of a deployment's edges.
#[derive(Clone, Debug)]
pub struct FeedPlan {
    /// Subscribe to the home cluster's certified commit feed at all.
    pub enabled: bool,
    /// Lease-renewal period: `FeedSubscribe` is re-sent with the
    /// current feed head, and the replica replays any retained suffix
    /// the edge missed (crash, partition, dropped push).
    pub resubscribe_interval: SimDuration,
}

impl FeedPlan {
    /// No subscription — every freshness question goes upstream (the
    /// pre-feed deployment shape).
    pub fn disabled() -> Self {
        FeedPlan {
            enabled: false,
            resubscribe_interval: SimDuration::from_millis(100),
        }
    }

    /// Subscribe, renewing the lease at the given period.
    pub fn subscribed(interval: SimDuration) -> Self {
        FeedPlan {
            enabled: true,
            resubscribe_interval: interval,
        }
    }
}

/// Everything an [`EdgeReadNode`] needs beyond its identity.
#[derive(Clone, Debug)]
pub struct EdgeNodeParams {
    pub behavior: EdgeBehavior,
    /// Per-cluster replay-cache capacity in fragments.
    pub cache_capacity: usize,
    /// Certified headers retained per cluster cache.
    pub max_cached_batches: usize,
    /// Deployment tree depth (what the node's verifier checks proofs
    /// against).
    pub tree_depth: u32,
    /// Deployment freshness window: what evidence is re-verified
    /// against, and — a third of it — the age past which a cached
    /// bundle is not replayed but forwarded upstream, refreshing the
    /// cache. The third keeps every honest replay inside the window
    /// its client checks, whatever window the deployment runs.
    pub freshness_window: SimDuration,
    /// Gossip directory.
    pub directory: DirectoryPlan,
    /// Certified commit-feed subscription.
    pub feed: FeedPlan,
    /// Durable snapshot store: spill-on-admission, verified hydration
    /// on restart, sibling state-transfer when cold.
    pub persistent: bool,
    /// Every edge in the deployment: gossip peers, and the
    /// same-partition candidates of a cold state transfer.
    pub peers: Vec<EdgeId>,
}

/// Serving counters for the harnesses.
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeNodeStats {
    /// Client requests received (round 1 + round 2).
    pub requests: u64,
    /// Answered straight from the replay cache.
    pub served_from_cache: u64,
    /// Forwarded upstream to a replica.
    pub forwarded: u64,
    /// Keys requested across all client requests.
    pub keys_requested: u64,
    /// Keys answered from cached sections.
    pub keys_from_cache: u64,
    /// Range-scan requests received.
    pub scan_requests: u64,
    /// Scans answered from the replay cache.
    pub scans_from_cache: u64,
    /// Scans forwarded upstream to a replica.
    pub scans_forwarded: u64,
    /// Responses deliberately corrupted (byzantine modes).
    pub tampered: u64,
    /// Cross-partition queries taken as the single contact
    /// (edge-tier scatter-gather).
    pub gather_requests: u64,
    /// Gathers fully stitched and returned to the client.
    pub gather_completed: u64,
    /// Gather sub-queries for partitions this edge does not front.
    pub foreign_subs: u64,
    /// Foreign sub-query misses, each forwarded to a replica of the
    /// partition that owns it.
    pub foreign_forward_replica: u64,
    /// Certified commit-feed deltas received from the subscribed
    /// replica.
    pub feed_deltas_received: u64,
    /// Feed deltas that failed `verify_delta` and were dropped (a
    /// replica push is a claim like any other — nothing is applied
    /// until it recomputes under its certificate).
    pub bad_deltas_dropped: u64,
    /// Durable objects re-admitted through the verifier at restart and
    /// returned to the replay caches.
    pub hydrate_admitted: u64,
    /// Durable objects dropped at hydration: digest mismatch or a
    /// failed proof chain — the disk lied, and the verifier gate held.
    pub hydrate_rejected: u64,
    /// Durable objects dropped at hydration only because they aged past
    /// the freshness window during the outage (honest history, not
    /// tampering — counted apart so tests can tell the two apart).
    pub hydrate_stale: u64,
    /// Verified state-transfer requests sent to a warm sibling after a
    /// cold or corrupt restart.
    pub sibling_transfers: u64,
    /// Sibling-transfer objects that passed the verifier and were
    /// admitted (and re-spilled locally).
    pub sibling_objects_admitted: u64,
    /// Sibling-transfer objects the verifier refused — a sibling is an
    /// untrusted edge like any other.
    pub sibling_objects_rejected: u64,
}

impl transedge_obs::RegisterMetrics for EdgeNodeStats {
    fn register_metrics(&self, scope: &str, reg: &mut transedge_obs::MetricRegistry) {
        reg.counter(scope, "edge.requests", self.requests);
        reg.counter(scope, "edge.served_from_cache", self.served_from_cache);
        reg.counter(scope, "edge.forwarded", self.forwarded);
        reg.counter(scope, "edge.keys_requested", self.keys_requested);
        reg.counter(scope, "edge.keys_from_cache", self.keys_from_cache);
        reg.counter(scope, "edge.scan_requests", self.scan_requests);
        reg.counter(scope, "edge.scans_from_cache", self.scans_from_cache);
        reg.counter(scope, "edge.scans_forwarded", self.scans_forwarded);
        reg.counter(scope, "edge.tampered", self.tampered);
        reg.counter(scope, "edge.gather_requests", self.gather_requests);
        reg.counter(scope, "edge.gather_completed", self.gather_completed);
        reg.counter(scope, "edge.foreign_subs", self.foreign_subs);
        reg.counter(
            scope,
            "edge.foreign_forward_replica",
            self.foreign_forward_replica,
        );
        reg.counter(
            scope,
            "edge.feed_deltas_received",
            self.feed_deltas_received,
        );
        reg.counter(scope, "edge.bad_deltas_dropped", self.bad_deltas_dropped);
        reg.counter(scope, "edge.hydrate_admitted", self.hydrate_admitted);
        reg.counter(scope, "edge.hydrate_rejected", self.hydrate_rejected);
        reg.counter(scope, "edge.hydrate_stale", self.hydrate_stale);
        reg.counter(scope, "edge.sibling_transfers", self.sibling_transfers);
        reg.counter(
            scope,
            "edge.sibling_objects_admitted",
            self.sibling_objects_admitted,
        );
        reg.counter(
            scope,
            "edge.sibling_objects_rejected",
            self.sibling_objects_rejected,
        );
    }
}

impl EdgeNodeStats {
    /// Fraction of requested keys served from cached sections.
    pub fn key_hit_rate(&self) -> f64 {
        if self.keys_requested == 0 {
            0.0
        } else {
            self.keys_from_cache as f64 / self.keys_requested as f64
        }
    }
}

/// Where a served answer goes: out to whoever asked, or — for a
/// sub-query this node split off a cross-partition query — into its
/// slot of the in-flight gather, in-process.
#[derive(Clone, Copy)]
enum ReplyTo {
    Node { to: NodeId, req: u64 },
    Gather { gather: u64, cluster: ClusterId },
}

/// A request waiting on an upstream answer.
struct PendingRequest {
    reply: ReplyTo,
    /// The replica asked — the only node whose answer is admitted.
    upstream: NodeId,
}

/// One in-flight edge-tier scatter-gather: the client contact and the
/// per-partition slots awaiting answers.
struct GatherState {
    client: NodeId,
    client_req: u64,
    parts: Vec<(ClusterId, Option<ReadPayload>)>,
}

/// The actor.
pub struct EdgeReadNode {
    pub me: EdgeId,
    topo: ClusterTopology,
    keys: KeyStore,
    behavior: EdgeBehavior,
    /// One replay cache per partition: the home cluster's fills from
    /// normal traffic, foreign clusters' from couriered gather parts —
    /// which is what makes a warm single-contact query one LAN hop.
    caches: PartitionCaches<CommittedHeader>,
    directory_plan: DirectoryPlan,
    feed_plan: FeedPlan,
    persistent: bool,
    /// The durable half of the node. In the simulation this value is
    /// what "survives the crash": [`crate::setup::Deployment`] extracts
    /// it before tearing the actor down and hands it back to the
    /// replacement, playing the role of the disk.
    store: SnapshotStore<CommittedHeader>,
    /// The same trusted checker clients run — feed deltas pass
    /// `verify_delta` before touching any cache.
    verifier: ReadVerifier,
    peers: Vec<EdgeId>,
    directory: Option<DirectoryAgent<CommittedHeader>>,
    /// upstream req id → the request it answers.
    pending: HashMap<u64, PendingRequest>,
    gathers: HashMap<u64, GatherState>,
    /// The cold-bootstrap transfer in flight: the sibling asked and
    /// the request id — the only `StateTransferResp` admitted, once.
    transfer: Option<(NodeId, u64)>,
    next_req: u64,
    next_gather: u64,
    /// Round-robin over replicas for upstream fetches.
    upstream_rr: u64,
    /// Round-robin over peers for gossip pushes.
    gossip_rr: u64,
    pub stats: EdgeNodeStats,
}

impl EdgeReadNode {
    pub fn new(
        me: EdgeId,
        topo: ClusterTopology,
        keys: KeyStore,
        keypair: Keypair,
        params: EdgeNodeParams,
    ) -> Self {
        let verifier = ReadVerifier::new(VerifyParams {
            tree_depth: params.tree_depth,
            freshness_window: params.freshness_window,
            quorum: topo.certificate_quorum(),
        });
        let directory = params
            .directory
            .enabled
            .then(|| DirectoryAgent::new(NodeId::Edge(me), keypair, verifier));
        EdgeReadNode {
            me,
            topo,
            keys: keys.with_memo(),
            behavior: params.behavior,
            caches: PartitionCaches::new(params.cache_capacity, params.max_cached_batches),
            directory_plan: params.directory,
            feed_plan: params.feed,
            store: SnapshotStore::new(DEFAULT_SPILL_THRESHOLD),
            persistent: params.persistent,
            verifier,
            peers: params.peers,
            directory,
            pending: HashMap::new(),
            gathers: HashMap::new(),
            transfer: None,
            next_req: 0,
            next_gather: 0,
            upstream_rr: 0,
            gossip_rr: me.index as u64,
            stats: EdgeNodeStats::default(),
        }
    }

    pub fn behavior(&self) -> EdgeBehavior {
        self.behavior
    }

    /// The signature checks this edge ran.
    pub fn sig_stats(&self) -> SigStats {
        self.keys.sig_stats()
    }

    /// Switch this edge's behaviour at runtime — the scenario layer's
    /// `CoalitionActivate` hook (a previously honest edge turning
    /// coat mid-run, coordinated with its co-conspirators).
    pub fn set_behavior(&mut self, behavior: EdgeBehavior) {
        self.behavior = behavior;
    }

    /// Client requests still waiting on an upstream answer.
    pub fn pending_upstream(&self) -> usize {
        self.pending.len()
    }

    /// The gossip directory participant, when the plan enables one.
    pub fn directory(&self) -> Option<&DirectoryAgent<CommittedHeader>> {
        self.directory.as_ref()
    }

    /// Mutable directory access — tests seed a restarted edge, before
    /// its `on_start` runs, with what the fleet already knows.
    pub fn directory_mut(&mut self) -> Option<&mut DirectoryAgent<CommittedHeader>> {
        self.directory.as_mut()
    }

    fn cache_for(&mut self, cluster: ClusterId) -> &mut ReplayCache<CommittedHeader> {
        self.caches.cache_for(cluster)
    }

    /// Replay-cache counters (admissions, invalidations, evictions,
    /// freshness verdicts) of every partition this node holds a cache
    /// for: its own plus every one it has couriered a gather part of.
    pub fn replay_stats(
        &self,
    ) -> impl Iterator<Item = (ClusterId, transedge_edge::replay::ReplayStats)> + '_ {
        self.caches.iter().map(|(c, cache)| (c, cache.stats))
    }

    /// The durable snapshot store (spill/dedup/prune counters, fault
    /// injection in tests).
    pub fn store(&self) -> &SnapshotStore<CommittedHeader> {
        &self.store
    }

    /// Mutable store access — fault injection (`tamper_with`,
    /// `splice`) models on-disk corruption between crash and restart.
    pub fn store_mut(&mut self) -> &mut SnapshotStore<CommittedHeader> {
        &mut self.store
    }

    /// Detach the durable store, leaving an empty one behind. The
    /// deployment calls this on crash: the actor dies, the "disk"
    /// survives and is handed to the restarted replacement via
    /// [`EdgeReadNode::restore_store`].
    pub fn take_store(&mut self) -> SnapshotStore<CommittedHeader> {
        std::mem::replace(&mut self.store, SnapshotStore::new(DEFAULT_SPILL_THRESHOLD))
    }

    /// Attach a store that survived a crash. Must run before the actor
    /// starts — `on_start` is where hydration re-admits its contents.
    pub fn restore_store(&mut self, store: SnapshotStore<CommittedHeader>) {
        self.store = store;
    }

    fn upstream_replica(&mut self, cluster: ClusterId) -> NodeId {
        let n = self.topo.replicas_per_cluster() as u64;
        self.upstream_rr += 1;
        NodeId::Replica(ReplicaId::new(cluster, (self.upstream_rr % n) as u16))
    }

    /// Apply this node's byzantine behaviour to an outgoing section.
    /// Tampering with the body rebuilds it (a body is immutable),
    /// exactly as a lying edge would re-encode.
    fn corrupt(&mut self, section: &mut RotSection) {
        // The honest path must not pay for the copies below.
        if matches!(
            self.behavior,
            EdgeBehavior::Honest | EdgeBehavior::TamperDelta
        ) {
            return;
        }
        let body = &section.body;
        let (mut keys, mut values, mut proof) = (
            body.keys().to_vec(),
            body.values().to_vec(),
            body.proof().clone(),
        );
        match self.behavior {
            EdgeBehavior::Honest | EdgeBehavior::TamperDelta => {}
            EdgeBehavior::Coalition => {
                let header = &mut section.commitment.header;
                header.merkle_root = coalition_root(header.num);
            }
            EdgeBehavior::StaleRoot => {
                section.commitment.header.merkle_root = Digest([0xDE; 32]);
            }
            EdgeBehavior::TamperValue => match values.iter_mut().find(|v| v.is_some()) {
                Some(value) => *value = Some(transedge_common::Value::from("forged-by-edge")),
                None => return,
            },
            EdgeBehavior::ForgeProof => match proof.siblings.first_mut() {
                Some(sibling) => sibling.0[0] ^= 0xFF,
                None => proof.buckets.clear(),
            },
            EdgeBehavior::OmitKey => {
                if keys.is_empty() {
                    return;
                }
                keys.remove(0);
                values.remove(0);
            }
        }
        section.body = MultiProofBody::new(keys, values, proof);
        self.stats.tampered += 1;
    }

    /// Apply this node's byzantine behaviour to an outgoing scan.
    fn corrupt_scan(&mut self, mut bundle: RotScanBundle) -> RotScanBundle {
        match self.behavior {
            EdgeBehavior::Honest => {}
            EdgeBehavior::Coalition => {
                bundle.commitment.header.merkle_root = coalition_root(bundle.commitment.header.num);
                self.stats.tampered += 1;
            }
            EdgeBehavior::TamperValue => {
                if let Some((_, value)) = bundle.scan.rows.first_mut() {
                    *value = transedge_common::Value::from("forged-by-edge");
                    self.stats.tampered += 1;
                }
            }
            EdgeBehavior::ForgeProof => {
                let proof = &mut bundle.scan.proof;
                if let Some((_, entries)) = proof.occupied.first_mut() {
                    entries[0].value_hash.0[0] ^= 0xFF;
                } else if let Some(sibling) = proof.left.first_mut() {
                    sibling.0[0] ^= 0xFF;
                } else if let Some(sibling) = proof.right.first_mut() {
                    sibling.0[0] ^= 0xFF;
                }
                self.stats.tampered += 1;
            }
            EdgeBehavior::StaleRoot => {
                bundle.commitment.header.merkle_root = Digest([0xDE; 32]);
                self.stats.tampered += 1;
            }
            EdgeBehavior::OmitKey => {
                // The completeness attack: drop a row but keep the
                // honest proof. Every surviving row still verifies —
                // only the verifier's rows-versus-proof count check
                // catches the hole.
                if !bundle.scan.rows.is_empty() {
                    let mid = bundle.scan.rows.len() / 2;
                    bundle.scan.rows.remove(mid);
                    self.stats.tampered += 1;
                }
            }
            // Targets freshness feeds; scans pass clean.
            EdgeBehavior::TamperDelta => {}
        }
        bundle
    }

    /// Apply [`EdgeBehavior::TamperDelta`] to an outgoing freshness
    /// attachment of `cluster`: inject a bogus key into the last
    /// delta's changed list. A warm cursor leaves nothing to send, so
    /// the liar then re-ships its feed head to have a delta to doctor.
    fn corrupt_fresh(
        &mut self,
        cluster: ClusterId,
        fresh: Option<Vec<Arc<RotDelta>>>,
    ) -> Option<Vec<Arc<RotDelta>>> {
        // Coalition members forge the *same* bogus delta key as each
        // other (a shared constant), for the same reason their forged
        // roots match: agreement must not look like honesty.
        let bogus = match self.behavior {
            EdgeBehavior::TamperDelta => Key::from_u32(u32::MAX),
            EdgeBehavior::Coalition => Key::from_u32(u32::MAX - 1),
            _ => return fresh,
        };
        let mut feed = fresh?;
        if feed.is_empty() {
            let head = self.caches.get(cluster).and_then(|c| c.feed().newest());
            feed.extend(head.cloned());
        }
        if let Some(last) = feed.last_mut() {
            Arc::make_mut(last).changed.push(bogus);
            self.stats.tampered += 1;
        }
        Some(feed)
    }

    /// Hand a finished answer to its reply address.
    fn deliver(&mut self, reply: ReplyTo, result: ReadPayload, ctx: &mut Context<'_, NetMsg>) {
        match reply {
            ReplyTo::Node { to, req } => ctx.send(to, NetMsg::ReadResult { req, result }),
            ReplyTo::Gather { gather, cluster } => {
                self.on_gather_part(gather, cluster, result, ctx)
            }
        }
    }

    fn respond_scan(
        &mut self,
        reply: ReplyTo,
        bundle: RotScanBundle,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let bundle = Box::new(self.corrupt_scan(bundle));
        self.deliver(reply, ReadPayload::Scan { bundle }, ctx);
    }

    /// Send a point section (a replay or a pass-through), with this
    /// node's byzantine behaviour applied.
    fn respond(
        &mut self,
        reply: ReplyTo,
        mut section: Box<RotSection>,
        fresh: Option<Vec<Arc<RotDelta>>>,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let fresh = self.corrupt_fresh(section.commitment.header.cluster, fresh);
        self.corrupt(&mut section);
        self.deliver(reply, ReadPayload::Point { section, fresh }, ctx);
    }

    /// Register an upstream request, bounding the pending map: upstream
    /// responses can be lost (faulty links, crashed replicas) and
    /// clients retry via replicas, so nothing else drains abandoned
    /// entries. Request ids ascend, so the smallest ids are the oldest
    /// — drop those first.
    fn track_pending(&mut self, entry: PendingRequest) -> u64 {
        self.next_req += 1;
        let upstream_req = self.next_req;
        const MAX_PENDING: usize = 4096;
        if self.pending.len() >= MAX_PENDING {
            let mut ids: Vec<u64> = self.pending.keys().copied().collect();
            ids.sort_unstable();
            for id in &ids[..MAX_PENDING / 2] {
                self.pending.remove(id);
            }
        }
        self.pending.insert(upstream_req, entry);
        upstream_req
    }

    /// Forward a query verbatim to a replica of the partition that
    /// owns it, remembering who asked — our own partition's replicas,
    /// or for a foreign part of a gather that partition's. Never the
    /// edge fronting it: that edge sits beside those replicas, so its
    /// hit is no nearer and its miss is one more hop.
    fn forward_upstream(
        &mut self,
        reply: ReplyTo,
        cluster: ClusterId,
        mut query: ReadQuery,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        // Re-parent the causal trace under this hop's serve span and
        // leave a zero-length marker so the tree shows the miss.
        if let Some(tc) = ctx.trace_here().or(query.trace) {
            query.trace = Some(tc);
            let me = NodeId::Edge(self.me);
            let now = ctx.now();
            ctx.trace().marker(tc, SpanPhase::Serve, me, now, "forward");
        }
        if cluster != self.me.cluster {
            self.stats.foreign_forward_replica += 1;
        }
        let upstream = self.upstream_replica(cluster);
        let upstream_req = self.track_pending(PendingRequest { reply, upstream });
        ctx.send(
            upstream,
            NetMsg::Read {
                req: upstream_req,
                query,
            },
        );
    }

    /// The home partition of a single-partition query.
    fn home_cluster(&self, query: &ReadQuery) -> ClusterId {
        match &query.shape {
            QueryShape::Point { keys } => keys
                .first()
                .map(|k| self.topo.partition_of(k))
                .unwrap_or(self.me.cluster),
            QueryShape::Scan { clusters, .. } => {
                clusters.first().copied().unwrap_or(self.me.cluster)
            }
        }
    }

    /// Every partition a query touches, sorted and deduplicated.
    fn plan_clusters(&self, query: &ReadQuery) -> Vec<ClusterId> {
        let mut clusters: Vec<ClusterId> = match &query.shape {
            QueryShape::Point { keys } => keys.iter().map(|k| self.topo.partition_of(k)).collect(),
            QueryShape::Scan { clusters, .. } => clusters.clone(),
        };
        clusters.sort_unstable();
        clusters.dedup();
        clusters
    }

    /// The query restricted to one partition (mirrors the client
    /// session's sub-query planning).
    fn subquery_for(&self, query: &ReadQuery, cluster: ClusterId) -> ReadQuery {
        let shape = match &query.shape {
            QueryShape::Point { keys } => QueryShape::Point {
                keys: keys
                    .iter()
                    .filter(|k| self.topo.partition_of(k) == cluster)
                    .cloned()
                    .collect(),
            },
            QueryShape::Scan { range, window, .. } => QueryShape::Scan {
                clusters: vec![cluster],
                range: *range,
                window: *window,
            },
        };
        ReadQuery {
            consistency: query.consistency,
            shape,
            page: query.page,
            feed: query.feed_for(cluster),
            trace: query.trace,
        }
    }

    /// Edge-tier scatter-gather: split a cross-partition query into
    /// per-partition sub-queries and run each through this node's
    /// ordinary serving path with its gather slot as the reply address
    /// — answered from the per-cluster caches on the spot, or forwarded
    /// to the partition's replicas and slotted when the answer returns.
    /// The envelope leaves when the last slot fills; a part lost
    /// upstream is covered by the client's resend.
    fn on_gather_query(
        &mut self,
        from: NodeId,
        req: u64,
        query: ReadQuery,
        clusters: Vec<ClusterId>,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        self.stats.gather_requests += 1;
        const MAX_GATHERS: usize = 1024;
        if self.gathers.len() >= MAX_GATHERS {
            let mut ids: Vec<u64> = self.gathers.keys().copied().collect();
            ids.sort_unstable();
            for id in &ids[..MAX_GATHERS / 2] {
                self.gathers.remove(id);
            }
        }
        self.next_gather += 1;
        let gather = self.next_gather;
        self.gathers.insert(
            gather,
            GatherState {
                client: from,
                client_req: req,
                parts: clusters.iter().map(|c| (*c, None)).collect(),
            },
        );
        for cluster in clusters {
            if cluster != self.me.cluster {
                self.stats.foreign_subs += 1;
            }
            let sub = self.subquery_for(&query, cluster);
            self.serve(ReplyTo::Gather { gather, cluster }, sub, ctx);
        }
    }

    /// A gather part is finished (served here, or returned by a
    /// replica): slot it, and send the envelope when the gather is
    /// complete. Nothing is absorbed here — a part either came *from*
    /// this node's caches or arrived through `on_upstream_result`,
    /// which already admitted it (what makes the repeat of a couriered
    /// foreign part a local hit).
    fn on_gather_part(
        &mut self,
        gather: u64,
        cluster: ClusterId,
        result: ReadPayload,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let Some(state) = self.gathers.get_mut(&gather) else {
            return; // trimmed
        };
        if let Some(slot) = state
            .parts
            .iter_mut()
            .find(|(c, p)| *c == cluster && p.is_none())
        {
            slot.1 = Some(result);
        }
        if state.parts.iter().any(|(_, p)| p.is_none()) {
            return;
        }
        let state = self.gathers.remove(&gather).expect("checked above");
        let parts: Vec<GatherPart<CommittedHeader>> = state
            .parts
            .into_iter()
            .map(|(cluster, payload)| GatherPart {
                cluster,
                body: payload.expect("all parts present"),
            })
            .collect();
        self.stats.gather_completed += 1;
        ctx.send(
            state.client,
            NetMsg::ReadResult {
                req: state.client_req,
                result: ReadPayload::Gather { parts },
            },
        );
    }

    /// Serve a single-partition query to `reply`.
    fn serve(&mut self, reply: ReplyTo, query: ReadQuery, ctx: &mut Context<'_, NetMsg>) {
        match &query.shape {
            QueryShape::Point { .. } => self.on_point_query(reply, query, ctx),
            QueryShape::Scan { .. } => self.on_scan_query(reply, query, ctx),
        }
    }

    /// Absorb certified material into the cache of whichever partition
    /// it belongs to, spilling each admitted object to the durable
    /// store when the persistence plane is on (content addressing makes
    /// a repeat spill a free dedup, so this path stays hot-loop cheap).
    fn absorb(&mut self, result: &ReadPayload) {
        match result {
            ReadPayload::Point { section, .. } => {
                let cluster = section.commitment.header.cluster;
                self.cache_for(cluster).admit_section(section);
                if self.persistent {
                    self.store
                        .spill(SnapshotObject::Section((**section).clone()));
                }
            }
            ReadPayload::Scan { bundle } => {
                let cluster = bundle.commitment.header.cluster;
                self.cache_for(cluster).admit_scan(bundle);
                if self.persistent {
                    self.store.spill(SnapshotObject::Scan((**bundle).clone()));
                }
            }
            // A nested gather can only come from a byzantine upstream;
            // nothing in it is attributable to one partition's cache.
            ReadPayload::Gather { .. } => {}
        }
    }

    /// Re-admit one verified object into its partition's replay cache.
    /// Free of `self` borrows on purpose: callers hold `self.store`
    /// immutably while admitting.
    fn admit_object(caches: &mut PartitionCaches<CommittedHeader>, object: &RotSnapshot) {
        let cache = caches.cache_for(object.cluster());
        match object {
            SnapshotObject::Section(section) => cache.admit_section(section),
            SnapshotObject::Scan(bundle) => cache.admit_scan(bundle),
        }
    }

    /// The simulated cost of re-verifying one snapshot object:
    /// certificate signatures plus one hash pass over the body — the
    /// same work the client-side verifier models for a network
    /// response. Hydration pays it per object, which is what makes
    /// `restart_to_warm_ms` a real number rather than zero.
    fn verify_charge(&self, object: &RotSnapshot, ctx: &mut Context<'_, NetMsg>) {
        let sigs = object.cert().sigs.len();
        let body = transedge_edge::persist::object_size(object);
        ctx.charge(|c| {
            SimDuration(c.ed25519_verify.0 * sigs as u64 + c.sha256_cost(body.max(1)).0)
        });
    }

    /// Warm restart: walk the durable HEAD records and re-admit every
    /// reachable object through the client-grade verifier. Disk is
    /// untrusted input — a digest mismatch or failed proof chain purges
    /// the object (never served, never re-offered); mere staleness
    /// (the outage outlived the freshness window) purges it too but is
    /// counted as honest aging.
    fn hydrate(&mut self, ctx: &mut Context<'_, NetMsg>) {
        for (cluster, digest) in self.store.hydration_set() {
            let Some(object) = self.store.get(&digest) else {
                continue;
            };
            self.verify_charge(object, ctx);
            match readmit(&self.verifier, &self.keys, &digest, object, ctx.now()) {
                Ok(()) => {
                    Self::admit_object(&mut self.caches, object);
                    self.stats.hydrate_admitted += 1;
                }
                Err(reject) => {
                    if is_stale_only(&reject) {
                        self.stats.hydrate_stale += 1;
                    } else {
                        self.stats.hydrate_rejected += 1;
                    }
                    self.store.purge(cluster, &digest);
                }
            }
        }
    }

    /// Where a cold bootstrap asks for state: the first peer fronting
    /// our own partition that the directory (when one runs and already
    /// knows anything) has neither convicted nor struck. `None` when no
    /// such peer is left — every object would be re-verified anyway, so
    /// asking a known liar only wastes the one transfer.
    fn transfer_source(&self) -> Option<NodeId> {
        let healthy = |e: EdgeId| {
            self.directory
                .as_ref()
                .is_none_or(|agent| !agent.knows_byzantine(e) && !agent.struck(NodeId::Edge(e)))
        };
        self.peers
            .iter()
            .copied()
            .find(|e| e.cluster == self.me.cluster && *e != self.me && healthy(*e))
            .map(NodeId::Edge)
    }

    /// Cold-start bootstrap: if hydration produced no servable coverage
    /// for the home partition, ask one healthy same-partition peer for
    /// its live object set instead of faulting every first read upstream
    /// — the replicas see one transfer, not a thundering herd.
    fn request_sibling_transfer(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let warm = self
            .caches
            .get(self.me.cluster)
            .is_some_and(|c| c.latest_batch().is_some());
        if warm {
            return;
        }
        let Some(sibling) = self.transfer_source() else {
            return;
        };
        self.next_req += 1;
        self.stats.sibling_transfers += 1;
        self.transfer = Some((sibling, self.next_req));
        ctx.send(
            sibling,
            NetMsg::StateTransfer {
                req: self.next_req,
                cluster: self.me.cluster,
            },
        );
    }

    /// A cold peer asked for our live objects: answer from the durable
    /// store (certified material only — the receiver re-verifies every
    /// object anyway, so a byzantine responder gains nothing).
    fn on_state_transfer(
        &mut self,
        from: NodeId,
        req: u64,
        cluster: ClusterId,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let objects = self.store.objects_for(cluster);
        if objects.is_empty() {
            return; // nothing to offer; the peer's reads fall back upstream
        }
        ctx.send(
            from,
            NetMsg::StateTransferResp {
                req,
                cluster,
                objects,
            },
        );
    }

    /// A sibling's transfer answer, taken only from the sibling asked
    /// under the request id used, once — anything else could make this
    /// node pay a verification per pushed object and fill its cache and
    /// disk with valid sections of the pusher's choosing. Every object
    /// is re-verified through the client-grade chain before touching a
    /// cache — a sibling is an untrusted edge like any other — then
    /// admitted and re-spilled to our own durable store.
    fn on_state_transfer_resp(
        &mut self,
        from: NodeId,
        req: u64,
        cluster: ClusterId,
        objects: Vec<RotSnapshot>,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        if self.transfer != Some((from, req)) {
            return;
        }
        self.transfer = None;
        for object in objects {
            if object.cluster() != cluster {
                self.stats.sibling_objects_rejected += 1;
                continue;
            }
            self.verify_charge(&object, ctx);
            if verify_object(&self.verifier, &self.keys, &object, ctx.now()).is_err() {
                self.stats.sibling_objects_rejected += 1;
                continue;
            }
            Self::admit_object(&mut self.caches, &object);
            self.stats.sibling_objects_admitted += 1;
            if self.persistent {
                self.store.spill(object);
            }
        }
    }

    /// The oldest batch timestamp replayed at `now`: a third of the
    /// freshness window back. Anything older is forwarded upstream.
    fn replay_floor(&self, now: SimTime) -> SimTime {
        let staleness = self.verifier.params.freshness_window.as_micros() / 3;
        SimTime(now.as_micros().saturating_sub(staleness))
    }

    /// Serve a point query from cache — one cached section proving
    /// every asked key — or forward it whole upstream.
    fn on_point_query(&mut self, reply: ReplyTo, query: ReadQuery, ctx: &mut Context<'_, NetMsg>) {
        let QueryShape::Point { keys } = &query.shape else {
            return;
        };
        let cluster = self.home_cluster(&query);
        self.stats.requests += 1;
        self.stats.keys_requested += keys.len() as u64;
        let freshness_floor = self.replay_floor(ctx.now());
        let cache = self.caches.cache_for(cluster);
        let Some(section) = cache.replay(keys, query.min_lce(), freshness_floor) else {
            self.stats.forwarded += 1;
            self.forward_upstream(reply, cluster, query, ctx);
            return;
        };
        self.stats.served_from_cache += 1;
        self.stats.keys_from_cache += keys.len() as u64;
        // A subscriber asked for a freshness upgrade: attach the feed
        // tail proving the replayed snapshot current — only the part
        // past what its cursor says it holds — or refuse, letting the
        // client fall back to round 2.
        let served = section.batch();
        let resume = query.feed_resume(cluster, served);
        let fresh = query
            .feed
            .as_ref()
            .and_then(|_| cache.freshness_since(served, keys, resume));
        self.respond(reply, Box::new(section), fresh, ctx);
    }

    /// Serve a scan query from the replay cache — the page's window
    /// cached at the pinned batch (page continuations) or at any batch
    /// passing the LCE/staleness floors — or forward it
    /// upstream, absorbing the certified answer on the way back.
    fn on_scan_query(&mut self, reply: ReplyTo, query: ReadQuery, ctx: &mut Context<'_, NetMsg>) {
        self.stats.scan_requests += 1;
        let cluster = self.home_cluster(&query);
        let Some(window) = query.scan_window() else {
            // Malformed page token: the replica would reject it too;
            // dropping it here saves the upstream hop.
            return;
        };
        let freshness_floor = self.replay_floor(ctx.now());
        let min_lce = query.min_lce();
        let cache = self.cache_for(cluster);
        let replayed = cache.replay_scan(&window, query.pinned_batch(), min_lce, freshness_floor);
        if let Some(bundle) = replayed {
            self.stats.scans_from_cache += 1;
            self.respond_scan(reply, bundle, ctx);
            return;
        }
        self.stats.scans_forwarded += 1;
        self.forward_upstream(reply, cluster, query, ctx);
    }

    /// An upstream answer: admitted only when `from` is the replica
    /// that `req` was sent to. A cache takes certified material
    /// unverified, so anything unsolicited, late or duplicate — which
    /// any node could forge under any `req` — is dropped unabsorbed.
    fn on_upstream_result(
        &mut self,
        from: NodeId,
        req: u64,
        result: ReadPayload,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let Entry::Occupied(asked) = self.pending.entry(req) else {
            return;
        };
        if asked.get().upstream != from {
            return;
        }
        let pending = asked.remove();
        // A byzantine edge still caches honestly and lies on the way
        // out.
        self.absorb(&result);
        match result {
            ReadPayload::Scan { bundle } => {
                self.respond_scan(pending.reply, *bundle, ctx);
            }
            // Whatever upstream sent goes out as received — the client
            // verifies it end to end either way.
            ReadPayload::Point { section, .. } => self.respond(pending.reply, section, None, ctx),
            // Only a byzantine upstream sends a nested gather; forward
            // it unmodified — the client's per-part shape check rejects
            // it and blames this path's contact.
            ReadPayload::Gather { parts } => {
                self.deliver(pending.reply, ReadPayload::Gather { parts }, ctx)
            }
        }
    }

    /// One anti-entropy round: push a delta to one rotating peer.
    fn gossip_round(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let Some(agent) = &mut self.directory else {
            return;
        };
        let candidates: Vec<EdgeId> = self
            .peers
            .iter()
            .filter(|e| **e != self.me)
            .copied()
            .collect();
        if candidates.is_empty() {
            return;
        }
        self.gossip_rr += 1;
        let peer = candidates[(self.gossip_rr % candidates.len() as u64) as usize];
        // Push-pull delta anti-entropy: send only records the peer is
        // not known to have, plus a state summary the peer answers with
        // its own missing records. Even an empty delta carries the
        // summary, so the pull half still runs.
        let delta = Box::new(agent.delta_for(NodeId::Edge(peer)));
        ctx.send(NodeId::Edge(peer), NetMsg::DirectoryDeltaGossip { delta });
    }

    /// (Re-)subscribe to the home cluster's certified commit feed,
    /// asking for a replay of everything after the current feed head.
    /// Sent on start and on every lease renewal, so a crash, partition,
    /// or dropped push costs at most one renewal period of staleness.
    fn subscribe_feed(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let from_batch = self
            .caches
            .get(self.me.cluster)
            .and_then(|c| c.feed().head())
            .unwrap_or(BatchNum(0));
        // Pin one replica per edge (spread by edge index) so renewal
        // replays come from a log that saw our earlier subscription.
        let n = self.topo.replicas_per_cluster() as u64;
        let replica = ReplicaId::new(self.me.cluster, (self.me.index as u64 % n) as u16);
        ctx.send(
            NodeId::Replica(replica),
            NetMsg::FeedSubscribe { from_batch },
        );
    }

    /// A pushed commit delta from the subscribed replica. The push is a
    /// *claim*: nothing touches the replay cache until the changed-key
    /// digest recomputes under the replica certificate (`verify_delta`)
    /// — the verifier boundary does not move for subscribers.
    fn on_feed_delta(&mut self, delta: RotDelta, ctx: &mut Context<'_, NetMsg>) {
        self.stats.feed_deltas_received += 1;
        ctx.charge(|c| {
            SimDuration(
                c.ed25519_verify.0 * delta.cert.sigs.len() as u64
                    + c.sha256_cost(32 * delta.changed.len().max(1)).0,
            )
        });
        if self
            .verifier
            .verify_delta(&self.keys, self.me.cluster, &delta)
            .is_err()
        {
            self.stats.bad_deltas_dropped += 1;
            return;
        }
        self.cache_for(self.me.cluster).apply_delta(delta);
    }
}

impl Actor<NetMsg> for EdgeReadNode {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        // Persistence first: a restarted edge re-admits its own disk
        // through the verifier before anything else runs, and asks a
        // sibling for verified state if the disk yielded nothing —
        // so the first client request already finds a warm cache.
        if self.persistent {
            self.hydrate(ctx);
            self.request_sibling_transfer(ctx);
        }
        if self.directory_plan.enabled {
            ctx.set_timer(self.directory_plan.gossip_interval, TOKEN_GOSSIP);
        }
        if self.feed_plan.enabled {
            self.subscribe_feed(ctx);
            ctx.set_timer(self.feed_plan.resubscribe_interval, TOKEN_FEED);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        match msg {
            NetMsg::Read { req, query } => {
                let clusters = self.plan_clusters(&query);
                if clusters.len() > 1 {
                    self.on_gather_query(from, req, query, clusters, ctx);
                } else {
                    self.serve(ReplyTo::Node { to: from, req }, query, ctx);
                }
            }
            NetMsg::ReadResult { req, result } => self.on_upstream_result(from, req, result, ctx),
            NetMsg::DirectoryDeltaGossip { delta } => {
                if let Some(agent) = &mut self.directory {
                    // Every record in the delta is signature-checked
                    // and re-run through the verifier before admission,
                    // and `from` is struck locally for anything forged
                    // or fabricated. The reply (computed post-merge
                    // against the sender's summary) carries only what
                    // the sender is missing; an empty reply is
                    // suppressed, which terminates the exchange.
                    let (_report, reply) = agent.ingest_delta(from, &delta, &self.keys, ctx.now());
                    if let Some(reply) = reply {
                        ctx.send(
                            from,
                            NetMsg::DirectoryDeltaGossip {
                                delta: Box::new(reply),
                            },
                        );
                    }
                }
            }
            NetMsg::FeedDelta { delta } => self.on_feed_delta(*delta, ctx),
            NetMsg::StateTransfer { req, cluster } => {
                self.on_state_transfer(from, req, cluster, ctx)
            }
            NetMsg::StateTransferResp {
                req,
                cluster,
                objects,
            } => self.on_state_transfer_resp(from, req, cluster, objects, ctx),
            NetMsg::DirectoryPull => {
                if let Some(agent) = &mut self.directory {
                    // Always answered, records or not: the client holds
                    // its first op until this arrives.
                    let delta = Box::new(agent.delta_for(from));
                    ctx.send(from, NetMsg::DirectoryDeltaGossip { delta });
                }
            }
            // Edge nodes take part in nothing else.
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NetMsg>) {
        if token == TOKEN_GOSSIP {
            self.gossip_round(ctx);
            ctx.set_timer(self.directory_plan.gossip_interval, TOKEN_GOSSIP);
        } else if token == TOKEN_FEED {
            self.subscribe_feed(ctx);
            ctx.set_timer(self.feed_plan.resubscribe_interval, TOKEN_FEED);
        }
    }
}
