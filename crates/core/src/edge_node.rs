//! The edge read node: an *untrusted* cache actor that scales the
//! read-only path without joining consensus.
//!
//! An [`EdgeReadNode`] fronts one partition but caches certified
//! responses of *any* partition it has couriered (see single-contact
//! reads below). It holds no partition state, no Merkle tree, and no
//! consensus role — only the [`transedge_edge::ReplayCache`] sections
//! and windows of certified responses it has forwarded before. A
//! request one cached section was admitted for (or one cached window)
//! is answered locally
//! (zero upstream hops); anything else — a partly cached one included —
//! is forwarded whole to a replica of the partition that owns it, with
//! the client's address ([`ReadQuery::reply_to`]). The replica answers
//! the client directly and sends this node a full copy, which it
//! absorbs only if it is the one that replica was asked for: a miss
//! costs the client no relay hop.
//!
//! Three subsystems ride on top of the replay path:
//!
//! * **Single-contact reads** — every query is served one part per
//!   partition it touches ([`ReadQuery::split`], the split the client
//!   plans with), so a cross-partition query arriving at one edge runs
//!   each part through the ordinary serving path: served from the
//!   edge's own per-cluster caches where possible and forwarded to the
//!   owning partition's replicas otherwise — never to the edge fronting
//!   that partition, which sits beside those replicas and could only
//!   add a hop. Each part's answer reaches the client as an ordinary
//!   `ReadResult` under the client's request id as soon as it is
//!   ready — from this node for a replay, from the replica for a
//!   forwarded part: the client contacts *one* edge for a
//!   multi-partition query and verifies each answer against its own
//!   partition's certified root. An answer at the anchor the client
//!   named for its partition reaches it held (`ReadResponse::held_by`);
//!   a forwarded part travels upstream with that anchor and the
//!   client's address, and the replica elides only the client's copy,
//!   so what this node receives — and caches — is always full.
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
//!   one home-cluster replica's per-batch [`CertifiedDelta`] feed, verifies
//!   each pushed delta under its replica certificate, push-invalidates
//!   superseded cached answers, and attaches the verified feed tail
//!   to warm replays as a freshness certificate — letting subscribed
//!   clients skip the round-2 `MinEpoch` fetch entirely.
//!
//! Because every response is proof-carrying, clients need not trust
//! this node at all: whatever a lying edge does to values, proofs,
//! roots or feeds, the client-side [`transedge_edge::ReadVerifier`]
//! catches it, after which the client re-asks a real replica. This
//! node is the honest edge only. The lies that pin that property live
//! outside it, in `transedge_scenario::liar`, a wrapper that rewrites
//! what an honest actor sends.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, EdgeId, NodeId, ReplicaId, SimDuration, SimTime,
};
use transedge_crypto::{Digest, KeyStore, Keypair};
use transedge_directory::DirectoryAgent;
use transedge_edge::{
    verify_object, Body, CertifiedDelta, PartitionCaches, QueryShape, ReadQuery, ReadRejection,
    ReadResponse, ReadVerifier, ReplayCache,
};
use transedge_obs::{MetricRegistry, RegisterMetrics, SpanPhase};
use transedge_simnet::{Actor, Context};

use crate::messages::NetMsg;
use crate::setup::DeploymentConfig;

/// Gossip timer token.
const TOKEN_GOSSIP: u64 = 1;
/// Commit-feed lease-renewal timer token.
const TOKEN_FEED: u64 = 2;

transedge_obs::counters! {
    /// Serving counters for the harnesses.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct EdgeNodeStats {
        "edge." {
            /// Client requests received (round 1 + round 2).
            requests,
            /// Answered straight from the replay cache.
            served_from_cache,
            /// Forwarded upstream to a replica.
            forwarded,
            /// Keys requested across all client requests.
            keys_requested,
            /// Keys answered from cached sections.
            keys_from_cache,
            /// Range-scan requests received.
            scan_requests,
            /// Scans answered from the replay cache.
            scans_from_cache,
            /// Scans forwarded upstream to a replica.
            scans_forwarded,
            /// Cross-partition queries taken as the single contact.
            gather_requests,
            /// Query parts for partitions this edge does not front (a single
            /// contact's foreign parts).
            foreign_subs,
            /// Foreign sub-query misses, each forwarded to a replica of the
            /// partition that owns it.
            foreign_forward_replica,
            /// Certified commit-feed deltas received from the subscribed
            /// replica.
            feed_deltas_received,
            /// Feed deltas that failed `verify_delta` and were dropped (a
            /// replica push is a claim like any other — nothing is applied
            /// until it recomputes under its certificate).
            bad_deltas_dropped,
            /// Disk-image objects re-admitted through the verifier at restart
            /// and returned to the replay caches.
            hydrate_admitted,
            /// Disk-image objects whose proof chain failed at restart — the
            /// disk lied, and the verifier gate held.
            hydrate_rejected,
            /// Disk-image objects dropped at restart only because they aged
            /// past the freshness window during the outage (honest history, not
            /// tampering — counted apart so tests can tell the two apart).
            hydrate_stale,
            /// State-transfer requests sent to a sibling because a start — a
            /// first boot, a cold or a corrupt restart — left the home
            /// partition cold.
            sibling_transfers,
            /// Sibling-transfer objects that passed the verifier and were
            /// admitted.
            sibling_objects_admitted,
            /// Sibling-transfer objects the verifier refused — a sibling is an
            /// untrusted edge like any other.
            sibling_objects_rejected,
        }
    }
}

/// The actor.
pub struct EdgeReadNode {
    pub me: EdgeId,
    topo: ClusterTopology,
    keys: KeyStore,
    /// One replay cache per partition: the home cluster's fills from
    /// normal traffic, foreign clusters' from couriered query parts —
    /// which is what makes a warm single-contact query one LAN hop.
    caches: PartitionCaches,
    /// The deployment's gossip period, when its directory runs.
    gossip_every: Option<SimDuration>,
    /// The deployment's feed lease-renewal period, when edges subscribe.
    feed_every: Option<SimDuration>,
    /// The disk image `on_start` re-admits: what the caches of the
    /// crashed edge this node replaces held (empty for a first boot or
    /// a cold restart). [`crate::setup::Deployment`] plays the disk.
    image: Vec<ReadResponse>,
    /// The same trusted checker clients run — feed deltas pass
    /// `verify_delta` before touching any cache.
    verifier: ReadVerifier,
    /// Every edge in the deployment: gossip peers, and the
    /// same-partition candidates of a cold state transfer.
    peers: Vec<EdgeId>,
    directory: Option<DirectoryAgent>,
    /// upstream req id → the replica asked, the only node whose answer
    /// is admitted.
    pending: HashMap<u64, NodeId>,
    /// The cold-bootstrap transfer in flight: the sibling asked and
    /// the request id — the only `StateTransferResp` admitted, once.
    transfer: Option<(NodeId, u64)>,
    next_req: u64,
    /// Round-robin over replicas for upstream fetches.
    upstream_rr: u64,
    /// Round-robin over peers for gossip pushes.
    gossip_rr: u64,
    pub stats: EdgeNodeStats,
}

impl EdgeReadNode {
    /// An edge of `config`'s tier: its caches, planes and verifier are
    /// the deployment's.
    pub fn new(me: EdgeId, config: &DeploymentConfig, keys: KeyStore, keypair: Keypair) -> Self {
        let verifier = ReadVerifier::new(config.verify_params());
        let edge = &config.edge;
        let directory = edge
            .directory
            .map(|_| DirectoryAgent::new(NodeId::Edge(me), keypair, verifier));
        EdgeReadNode {
            me,
            topo: config.topo.clone(),
            keys: keys.with_memo(),
            caches: PartitionCaches::new(edge.cache.capacity, edge.cache.max_batches),
            gossip_every: edge.directory,
            feed_every: edge.feed,
            image: Vec::new(),
            verifier,
            peers: config.edge_ids().collect(),
            directory,
            pending: HashMap::new(),
            transfer: None,
            next_req: 0,
            upstream_rr: 0,
            gossip_rr: me.index as u64,
            stats: EdgeNodeStats::default(),
        }
    }

    /// Client requests still waiting on an upstream answer.
    pub fn pending_upstream(&self) -> usize {
        self.pending.len()
    }

    /// The gossip directory participant, when the plan enables one.
    pub fn directory(&self) -> Option<&DirectoryAgent> {
        self.directory.as_ref()
    }

    /// Mutable directory access — tests seed a restarted edge, before
    /// its `on_start` runs, with what the fleet already knows.
    pub fn directory_mut(&mut self) -> Option<&mut DirectoryAgent> {
        self.directory.as_mut()
    }

    fn cache_for(&mut self, cluster: ClusterId) -> &mut ReplayCache {
        self.caches.cache_for(cluster)
    }

    /// Replay-cache counters (admissions, invalidations, evictions,
    /// freshness verdicts) of every partition this node holds a cache
    /// for: its own plus every one it has couriered a query part of.
    pub fn replay_stats(
        &self,
    ) -> impl Iterator<Item = (ClusterId, transedge_edge::replay::ReplayStats)> + '_ {
        self.caches.iter().map(|(c, cache)| (c, cache.stats))
    }

    /// The newest verified delta of `cluster`'s feed this node holds.
    pub fn feed_head(&self, cluster: ClusterId) -> Option<&Arc<CertifiedDelta>> {
        self.caches.get(cluster)?.feed().newest()
    }

    /// This node's disk image: every answer its replay caches hold, in
    /// cluster order, each cache's least recently used first. The
    /// deployment takes it on crash and hands it to the replacement via
    /// [`EdgeReadNode::restore_image`].
    pub fn image(&self) -> Vec<ReadResponse> {
        self.caches.iter().flat_map(|(_, c)| c.objects()).collect()
    }

    /// Attach the image of the crashed edge this node replaces. Must
    /// run before the actor starts — `on_start` is where it is
    /// re-admitted.
    pub fn restore_image(&mut self, image: Vec<ReadResponse>) {
        self.image = image;
    }

    fn upstream_replica(&mut self, cluster: ClusterId) -> NodeId {
        let n = self.topo.replicas_per_cluster() as u64;
        self.upstream_rr += 1;
        NodeId::Replica(ReplicaId::new(cluster, (self.upstream_rr % n) as u16))
    }

    /// Send `result` to a client that named `held` for its partition:
    /// held when it is full at exactly that anchor.
    fn send_result(
        &self,
        to: NodeId,
        req: u64,
        result: ReadResponse,
        held: Option<Digest>,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let result = result.held_by(held);
        ctx.send(to, NetMsg::ReadResult { req, result });
    }

    /// Register an upstream request, bounding the pending map: upstream
    /// responses can be lost (faulty links, crashed replicas) and
    /// clients retry via replicas, so nothing else drains abandoned
    /// entries. Request ids ascend, so the smallest ids are the oldest
    /// — drop those first.
    fn track_pending(&mut self, upstream: NodeId) -> u64 {
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
        self.pending.insert(upstream_req, upstream);
        upstream_req
    }

    /// Forward a query part to a replica of the partition that owns
    /// it — our own partition's replicas, or for a single contact's
    /// foreign part that partition's. Never the edge fronting it: that
    /// edge sits beside those replicas, so its hit is no nearer and its
    /// miss is one more hop. The part goes verbatim, held anchor and
    /// all, with the client's address in `reply_to` (only clients ask
    /// edges): the replica answers the client directly and sends this
    /// node the full answer to cache.
    fn forward_upstream(
        &mut self,
        client: NodeId,
        client_req: u64,
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
        query.reply_to = Some((client, client_req));
        let upstream_req = self.track_pending(upstream);
        ctx.send(
            upstream,
            NetMsg::Read {
                req: upstream_req,
                query,
            },
        );
    }

    /// Serve a query one part per partition it touches
    /// ([`ReadQuery::split`]), each answer going to `to` under `req` as
    /// soon as it is ready: on the spot from this node's per-partition
    /// caches, or when the partition's replica answers the forward. A
    /// query spanning several partitions makes this node the client's
    /// single contact; a part lost upstream is covered by the client's
    /// resend.
    fn serve(&mut self, to: NodeId, req: u64, query: ReadQuery, ctx: &mut Context<'_, NetMsg>) {
        let parts = query.split(&self.topo);
        if parts.len() > 1 {
            self.stats.gather_requests += 1;
        }
        for (cluster, part) in parts {
            if cluster != self.me.cluster {
                self.stats.foreign_subs += 1;
            }
            match part.shape {
                QueryShape::Point { .. } => self.on_point_query(to, req, cluster, part, ctx),
                QueryShape::Scan { .. } => self.on_scan_query(to, req, cluster, part, ctx),
            }
        }
    }

    /// Absorb certified material into the cache of whichever partition
    /// it belongs to. Only a full answer carries its anchor; a held one
    /// is never cached.
    fn absorb(&mut self, result: &ReadResponse) {
        if result.anchor().is_some() {
            self.cache_for(result.cluster()).admit(result);
        }
    }

    /// The one way an object from disk or a sibling gets into a cache:
    /// charge the re-verification — certificate signatures plus one hash
    /// pass over the body, the same work the client-side verifier models
    /// for a network response — run the object's own proof chain, and
    /// admit it into its partition's replay cache only if that passes.
    fn admit_verified(
        &mut self,
        object: &ReadResponse,
        ctx: &mut Context<'_, NetMsg>,
    ) -> Result<(), ReadRejection> {
        let sigs = object.anchor().map_or(0, |(_, cert)| cert.sigs.len());
        let body = object.wire_size();
        ctx.charge(|c| {
            SimDuration(c.ed25519_verify.0 * sigs as u64 + c.sha256_cost(body.max(1)).0)
        });
        verify_object(&self.verifier, &self.keys, object, ctx.now())?;
        self.caches.cache_for(object.cluster()).admit(object);
        Ok(())
    }

    /// Restart: re-admit every object of the disk image through the
    /// client-grade verifier. Disk is untrusted input — an object whose
    /// proof chain fails is dropped (never served); mere staleness (the
    /// outage outlived the freshness window) drops it too but is
    /// counted as honest aging.
    fn hydrate(&mut self, ctx: &mut Context<'_, NetMsg>) {
        for object in std::mem::take(&mut self.image) {
            match self.admit_verified(&object, ctx) {
                Ok(()) => self.stats.hydrate_admitted += 1,
                Err(ReadRejection::StaleTimestamp) => self.stats.hydrate_stale += 1,
                Err(_) => self.stats.hydrate_rejected += 1,
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
    /// what its caches hold instead of faulting every first read
    /// upstream — the replicas see one transfer, not a thundering herd.
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

    /// A cold peer asked for our answers of `cluster`: answer from the
    /// replay cache (certified material only — the receiver re-verifies
    /// every object anyway, so a byzantine responder gains nothing).
    fn on_state_transfer(
        &mut self,
        from: NodeId,
        req: u64,
        cluster: ClusterId,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let objects = self
            .caches
            .get(cluster)
            .map(ReplayCache::objects)
            .unwrap_or_default();
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
    /// node pay a verification per pushed object and fill its cache
    /// with valid sections of the pusher's choosing. Every object is
    /// re-verified through the client-grade chain before touching a
    /// cache — a sibling is an untrusted edge like any other.
    fn on_state_transfer_resp(
        &mut self,
        from: NodeId,
        req: u64,
        cluster: ClusterId,
        objects: Vec<ReadResponse>,
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
            match self.admit_verified(&object, ctx) {
                Ok(()) => self.stats.sibling_objects_admitted += 1,
                Err(_) => self.stats.sibling_objects_rejected += 1,
            }
        }
    }

    /// The oldest batch timestamp replayed at `now`: a third of the
    /// deployment's freshness window back. Anything older is forwarded
    /// upstream, refreshing the cache. The third keeps every honest
    /// replay inside the window its client checks, whatever window the
    /// deployment runs.
    fn replay_floor(&self, now: SimTime) -> SimTime {
        let staleness = self.verifier.params.freshness_window.as_micros() / 3;
        SimTime(now.as_micros().saturating_sub(staleness))
    }

    /// Serve `cluster`'s point part from cache — one cached section
    /// proving every asked key — or forward it whole upstream.
    fn on_point_query(
        &mut self,
        to: NodeId,
        req: u64,
        cluster: ClusterId,
        query: ReadQuery,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let QueryShape::Point { keys } = &query.shape else {
            return;
        };
        self.stats.requests += 1;
        self.stats.keys_requested += keys.len() as u64;
        let freshness_floor = self.replay_floor(ctx.now());
        let cache = self.caches.cache_for(cluster);
        let Some(mut result) = cache.replay(keys, query.min_lce(), freshness_floor) else {
            self.stats.forwarded += 1;
            self.forward_upstream(to, req, cluster, query, ctx);
            return;
        };
        self.stats.served_from_cache += 1;
        self.stats.keys_from_cache += keys.len() as u64;
        // A subscriber asked for a freshness upgrade: attach the feed
        // tail proving the replayed snapshot current — only the part
        // past what its cursor says it holds — or refuse, letting the
        // client fall back to round 2.
        let served = result.batch();
        let resume = query.feed_resume(cluster, served);
        if let (Some(_), Body::Point { fresh, .. }) = (&query.feed, &mut result.body) {
            *fresh = cache.freshness_since(served, keys, resume);
        }
        let held = query.held_for(cluster);
        self.send_result(to, req, result, held, ctx);
    }

    /// Serve `cluster`'s scan part from the replay cache — the page's
    /// window cached at the pinned batch (page continuations) or at any
    /// batch passing the LCE/staleness floors — or forward it
    /// upstream, absorbing the certified answer on the way back.
    fn on_scan_query(
        &mut self,
        to: NodeId,
        req: u64,
        cluster: ClusterId,
        query: ReadQuery,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        self.stats.scan_requests += 1;
        let Some(window) = query.scan_window() else {
            // Malformed page token: the replica would reject it too;
            // dropping it here saves the upstream hop.
            return;
        };
        let freshness_floor = self.replay_floor(ctx.now());
        let min_lce = query.min_lce();
        let cache = self.cache_for(cluster);
        let replayed = cache.replay_scan(&window, query.pinned_batch(), min_lce, freshness_floor);
        if let Some(result) = replayed {
            self.stats.scans_from_cache += 1;
            let held = query.held_for(cluster);
            self.send_result(to, req, result, held, ctx);
            return;
        }
        self.stats.scans_forwarded += 1;
        self.forward_upstream(to, req, cluster, query, ctx);
    }

    /// An upstream answer: admitted only when `from` is the replica
    /// that `req` was sent to. A cache takes certified material
    /// unverified, so anything unsolicited, late or duplicate — which
    /// any node could forge under any `req` — is dropped unabsorbed.
    /// The client already has its copy from the replica.
    fn on_upstream_result(&mut self, from: NodeId, req: u64, result: ReadResponse) {
        let Entry::Occupied(asked) = self.pending.entry(req) else {
            return;
        };
        if *asked.get() != from {
            return;
        }
        asked.remove();
        self.absorb(&result);
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
    fn on_feed_delta(&mut self, delta: CertifiedDelta, ctx: &mut Context<'_, NetMsg>) {
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

/// What the edge owns: its stats, its key handle's signature checks,
/// every replay cache's counters and its directory agent's.
impl RegisterMetrics for EdgeReadNode {
    fn register_metrics(&self, scope: &str, reg: &mut MetricRegistry) {
        reg.register(scope, &self.stats);
        reg.register(scope, &self.keys.sig_stats());
        for (_, cache) in self.caches.iter() {
            reg.register(scope, &cache.stats);
        }
        if let Some(agent) = &self.directory {
            reg.register(scope, &agent.stats);
        }
    }
}

impl Actor<NetMsg> for EdgeReadNode {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        // Persistence first: a restarted edge re-admits its disk image
        // through the verifier before anything else runs, and asks a
        // sibling for verified state if the image yielded nothing (a
        // first boot is a cold start) — so the first client request
        // already finds a warm cache.
        self.hydrate(ctx);
        self.request_sibling_transfer(ctx);
        if let Some(period) = self.gossip_every {
            ctx.set_timer(period, TOKEN_GOSSIP);
        }
        if let Some(period) = self.feed_every {
            self.subscribe_feed(ctx);
            ctx.set_timer(period, TOKEN_FEED);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        match msg {
            NetMsg::Read { req, query } => self.serve(from, req, query, ctx),
            NetMsg::ReadResult { req, result } => self.on_upstream_result(from, req, result),
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
        let period = if token == TOKEN_GOSSIP {
            self.gossip_round(ctx);
            self.gossip_every
        } else if token == TOKEN_FEED {
            self.subscribe_feed(ctx);
            self.feed_every
        } else {
            None
        };
        if let Some(period) = period {
            ctx.set_timer(period, token);
        }
    }
}
