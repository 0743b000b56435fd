//! The TransEdge replica actor: consensus engine + executor + 2PC
//! driver + read-only serving, glued to the simulated network.
//!
//! Every replica runs the same actor; the replica that currently leads
//! its cluster's view additionally builds batches, aggregates signature
//! shares, and drives 2PC with other clusters' leaders (paper §3).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, Epoch, NodeId, ReplicaId, SimDuration, TxnId,
};
use transedge_consensus::{BftConfig, BftEngine, BftMsg, Certificate, Output, Votes};
use transedge_crypto::{Digest, KeyStore, Keypair, SigStats, Signature};
use transedge_obs::{MetricRegistry, RegisterMetrics, SpanPhase};
use transedge_simnet::{Actor, Context};

use transedge_edge::{
    Anchor, Body, CertifiedDelta, Chase, QueryShape, ReadPipeline, ReadQuery, ReadResponse,
    SnapshotPolicy,
};

use crate::batch::{Batch, PreparedTxn, Transaction};
use crate::conflict::{admit, Footprint};
use crate::deps;
use crate::executor::{changed_keys, Executor};
use crate::messages::{abort_vote_statement, NetMsg, PrepareVote};
use crate::records::{prepared_statement, CommitRecord, Outcome, SignedPrepared};

/// Timer tokens.
const TOKEN_BATCH: u64 = 1;
const TOKEN_PROGRESS: u64 = 2;

/// Default Merkle tree depth (`2^depth` buckets). The single source of
/// truth for the deployment's leaf space — workload generators and
/// harnesses that build scan windows reference this rather than
/// hand-mirroring the number (a mismatched depth makes replicas drop
/// every scan as out-of-range, which surfaces only as client give-ups).
pub const DEFAULT_TREE_DEPTH: u32 = 16;

/// How long a follower waits for the leader to make progress before it
/// votes to change views.
const LEADER_TIMEOUT: SimDuration = SimDuration::from_millis(400);

/// How many certified commit-feed entries a replica retains for
/// catching up (re)subscribers. A subscriber further behind than this
/// gets only the retained suffix; its next queries repair the gap
/// through the ordinary pull path (the replay cache resets its feed run
/// on any gap, so a truncated catch-up costs freshness upgrades, never
/// correctness).
pub const FEED_LOG_CAP: usize = 128;

/// Per-node protocol configuration.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Batch processing trigger: time since the previous proposal.
    pub batch_interval: SimDuration,
    /// Batch processing trigger: admitted transaction count.
    pub max_batch_size: usize,
    /// §4.4.2 freshness window for batch timestamps.
    pub freshness_window: SimDuration,
    /// Merkle tree depth (2^depth buckets).
    pub tree_depth: u32,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            batch_interval: SimDuration::from_millis(5),
            max_batch_size: 2000,
            freshness_window: SimDuration::from_secs(30),
            tree_depth: DEFAULT_TREE_DEPTH,
        }
    }
}

/// 2PC coordinator bookkeeping for one distributed transaction.
struct CoordState {
    txn: Transaction,
    participants: Vec<ClusterId>,
    /// Remote votes received so far.
    votes: HashMap<ClusterId, PrepareVote>,
    /// Our own cluster's prepare batch, once applied.
    own_prepared_in: Option<BatchNum>,
    /// Outcome already recorded (dedup).
    decided: bool,
    /// CoordinatorPrepare messages sent (needs own SignedPrepared).
    prepare_sent: bool,
}

/// One prepared record a leader gathers: signature shares, parked and
/// checked like consensus votes, and the record once `f+1` formed it.
#[derive(Default)]
struct Gathering {
    shares: Votes<()>,
    record: Option<SignedPrepared>,
}

/// Shares over prepared statements, held only while their prepare group
/// waits. Batch-ordered: a resend walks them, and every send draws
/// jitter from the simulation's one RNG.
#[derive(Default)]
struct SigAggregation {
    /// Our own shares per batch, replayable on `SigResend`.
    own: BTreeMap<BatchNum, Vec<(TxnId, Signature)>>,
    /// Leader side: the record each `(batch, txn)` gathers.
    gathering: BTreeMap<(BatchNum, TxnId), Gathering>,
    /// Shares of dropped collectors, and shares never parked, that were
    /// never checked.
    never_verified: u64,
}

transedge_obs::counters! {
    /// Node-level counters (batch-building statistics for the harnesses).
    #[derive(Clone, Debug, Default)]
    pub struct NodeStats {
        "node." {
            batches_proposed,
            txns_admitted,
            txns_rejected,
            rot_served,
            rot_fetches_served,
            /// Verified range scans served (with completeness proofs).
            rot_scans_served,
            /// Certified commit-feed deltas pushed to subscribers (one
            /// count per published batch, regardless of fan-out).
            deltas_published,
            /// Feed-log suffix entries replayed to catching-up
            /// subscribers.
            deltas_replayed,
            /// Scan requests dropped for an invalid range (out of the
            /// leaf space or wider than the protocol cap) — client-side
            /// bug or a malformed forward; never served, never parked.
            rot_scans_rejected,
            view_changes,
            /// Parts of a client's read forwarded to another partition's
            /// leader because an answer served here made the client's
            /// view there stale ([`transedge_edge::Chase`]).
            chases_sent,
        }
    }
}

/// The replica actor.
pub struct TransEdgeNode {
    pub me: ReplicaId,
    topo: ClusterTopology,
    keys: KeyStore,
    keypair: Keypair,
    pub config: NodeConfig,
    engine: BftEngine<Batch>,
    pub exec: Executor,
    // ---- leader buffers ----
    pending_local: Vec<Transaction>,
    pending_prepared: Vec<PreparedTxn>,
    pending_resolutions: Vec<CommitRecord>,
    /// Footprint of pending (not yet proposed) transactions.
    pending_fp: Footprint,
    /// Footprint of the proposed-but-not-applied batch.
    inflight_fp: Footprint,
    proposal_outstanding: bool,
    /// Client return addresses for transactions we lead.
    txn_client: HashMap<TxnId, NodeId>,
    /// Transactions already concluded (dedup of retries).
    concluded: HashSet<TxnId>,
    // ---- 2PC ----
    coord: HashMap<TxnId, CoordState>,
    /// Participant-side: votes already sent (dedup).
    voted: HashSet<TxnId>,
    sigs: SigAggregation,
    // ---- read-only ----
    /// Unified parking lot: queries that cannot be served yet (no batch
    /// applied, LCE floor not reached) wait here and are retried after
    /// every applied batch — §4.3.4: the dependency stems from a commit
    /// elsewhere, so our commit is inevitable.
    pending_reads: Vec<(NodeId, u64, ReadQuery)>,
    /// The edge read subsystem's serving pipeline: section bodies and
    /// scan windows, memoised per exact key set (or window) and batch.
    pub read_pipeline: ReadPipeline,
    // ---- certified commit feed ----
    /// Subscribers to this replica's certified commit feed. Ordered:
    /// each publish sends to all of them, every send draws jitter from
    /// the simulation's one RNG, and hash order would let the process's
    /// hash seed pick the timeline.
    feed_subscribers: BTreeSet<NodeId>,
    /// Retained feed suffix for catching up (re)subscribers.
    feed_log: VecDeque<CertifiedDelta>,
    // ---- progress tracking ----
    last_progress_check: u64,
    forwarded_since_check: bool,
    pub stats: NodeStats,
}

/// The client a read query asks to be answered directly, with the
/// request id it asked under: its `reply_to`, when that names a client.
/// Anything else is ignored and only the asker is answered.
fn direct_reply(query: &ReadQuery) -> Option<(NodeId, u64)> {
    query
        .reply_to
        .filter(|(node, _)| matches!(node, NodeId::Client(_)))
}

/// Send one part's answer to the asker under `req` and, when a client
/// waits on a direct copy, the same answer to that client under its own
/// request id — held when `held`, the anchor the client named, is the
/// answer's (`ReadResponse::held_by`). Both leave at the same instant;
/// the asker's goes first, so that where the two arrive together an
/// edge has cached the answer by the time its client holds it. A
/// replica asker (a chase) caches nothing: when a client waits on a
/// direct copy, only the client is answered.
fn send_answer(
    to: NodeId,
    req: u64,
    direct: Option<(NodeId, u64)>,
    held: Option<Digest>,
    result: ReadResponse,
    ctx: &mut Context<'_, NetMsg>,
) {
    let Some((client, client_req)) = direct else {
        ctx.send(to, NetMsg::ReadResult { req, result });
        return;
    };
    if !matches!(to, NodeId::Replica(_)) {
        let result = result.clone();
        ctx.send(to, NetMsg::ReadResult { req, result });
    }
    let result = result.held_by(held);
    ctx.send(
        client,
        NetMsg::ReadResult {
            req: client_req,
            result,
        },
    );
}

impl TransEdgeNode {
    pub fn new(
        me: ReplicaId,
        topo: ClusterTopology,
        keys: KeyStore,
        keypair: Keypair,
        config: NodeConfig,
    ) -> Self {
        // One memo of accepted signatures per replica, shared by its
        // engine and executor.
        let keys = keys.with_memo();
        let engine = BftEngine::new(
            BftConfig {
                cluster: me.cluster,
                me,
                f: topo.f(),
            },
            keypair.clone(),
            keys.clone(),
        );
        let exec = Executor::new(
            topo.clone(),
            me,
            keys.clone(),
            config.tree_depth,
            config.freshness_window,
        );
        TransEdgeNode {
            me,
            topo,
            keys,
            keypair,
            config,
            engine,
            exec,
            pending_local: Vec::new(),
            pending_prepared: Vec::new(),
            pending_resolutions: Vec::new(),
            pending_fp: Footprint::new(),
            inflight_fp: Footprint::new(),
            proposal_outstanding: false,
            txn_client: HashMap::new(),
            concluded: HashSet::new(),
            coord: HashMap::new(),
            voted: HashSet::new(),
            sigs: SigAggregation::default(),
            pending_reads: Vec::new(),
            read_pipeline: ReadPipeline::default(),
            feed_subscribers: BTreeSet::new(),
            feed_log: VecDeque::new(),
            last_progress_check: 0,
            forwarded_since_check: false,
            stats: NodeStats::default(),
        }
    }

    /// Deployment bootstrap: install the preloaded genesis batch and
    /// its externally assembled certificate (see `setup::Deployment`).
    pub fn install_genesis(&mut self, batch: Batch, cert: Certificate) {
        self.engine.install_genesis(batch, cert);
    }

    /// Read queries parked until a later batch makes them servable.
    pub fn parked_reads(&self) -> usize {
        self.pending_reads.len()
    }

    pub fn is_leader(&self) -> bool {
        self.engine.is_leader()
    }

    /// The signature checks this replica ran.
    pub fn sig_stats(&self) -> SigStats {
        self.keys.sig_stats()
    }

    /// Prepared-record shares this replica never had to verify: its own,
    /// and those that arrived once their record had formed or their
    /// transaction stopped waiting.
    fn shares_never_verified(&self) -> u64 {
        self.sigs.never_verified
            + self
                .sigs
                .gathering
                .values()
                .map(|g| g.shares.unverified())
                .sum::<u64>()
    }

    /// The batches this replica still holds prepared-record shares for.
    pub fn share_batches(&self) -> BTreeSet<BatchNum> {
        let gathering = self.sigs.gathering.keys().map(|(batch, _)| batch);
        self.sigs.own.keys().chain(gathering).copied().collect()
    }

    pub fn cluster_leader(&self) -> ReplicaId {
        self.engine.leader()
    }

    /// The decided batches this replica has applied, with their
    /// certificates (index = batch number): the one record of every
    /// batch header's CD vector and LCE. Bounded by the executor, not
    /// the engine: a state-transfer catch-up decides several slots
    /// before the executor applies them, and a batch is served only
    /// once its writes are in the store and the tree.
    fn applied_log(&self) -> &[(Batch, Certificate)] {
        &self.engine.log()[..self.exec.applied_batches() as usize]
    }

    fn leader_of(&self, cluster: ClusterId) -> ReplicaId {
        // Best-effort: other clusters' leaders are assumed to be their
        // view-0 replica; if that replica is not leading it forwards.
        if cluster == self.me.cluster {
            self.engine.leader()
        } else {
            ReplicaId::new(cluster, 0)
        }
    }

    fn cluster_peers(&self) -> Vec<NodeId> {
        self.topo
            .replicas_of(self.me.cluster)
            .filter(|r| *r != self.me)
            .map(NodeId::Replica)
            .collect()
    }

    /// Route consensus engine outputs to the network / apply path.
    fn route_outputs(&mut self, outputs: Vec<Output<Batch>>, ctx: &mut Context<'_, NetMsg>) {
        for output in outputs {
            match output {
                Output::Send(to, msg) => {
                    ctx.send(NodeId::Replica(to), NetMsg::Bft(Box::new(msg)));
                }
                Output::Broadcast(msg) => {
                    for peer in self.cluster_peers() {
                        ctx.send(peer, NetMsg::Bft(Box::new(msg.clone())));
                    }
                }
                Output::Decided { slot, value, .. } => {
                    self.on_decided(slot, value, ctx);
                }
                Output::EnteredView { view: _, leader } => {
                    self.stats.view_changes += 1;
                    self.on_entered_view(leader, ctx);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Batch building (leader)
    // ------------------------------------------------------------------

    fn pending_count(&self) -> usize {
        self.pending_local.len() + self.pending_prepared.len() + self.pending_resolutions.len()
    }

    fn maybe_seal(&mut self, ctx: &mut Context<'_, NetMsg>, force: bool) {
        if !self.engine.is_leader() || self.proposal_outstanding || !self.engine.can_propose() {
            return;
        }
        if self.pending_count() == 0 {
            return;
        }
        if !force && self.pending_count() < self.config.max_batch_size {
            return;
        }
        let local = std::mem::take(&mut self.pending_local);
        let prepared = std::mem::take(&mut self.pending_prepared);
        // Charge CPU: Merkle updates + batch digest hashing + signing.
        let writes: usize = local
            .iter()
            .chain(prepared.iter().map(|p| &p.txn))
            .map(|t| t.writes.len())
            .sum();
        ctx.charge(|c| SimDuration(c.merkle_update.0 * writes as u64));
        ctx.charge(|c| c.sha256_cost(256 * (local.len() + prepared.len() + 1)));
        ctx.charge(|c| SimDuration(c.ed25519_sign.0 * 2)); // propose + write sigs
        let batch = self
            .exec
            .seal_batch(local, prepared, &self.pending_resolutions, ctx.now());
        if batch.txn_count() == 0 {
            // Nothing drained and nothing new: do not burn a consensus
            // round on an empty batch. (Resolutions stay pending until
            // Definition 4.1 lets their group drain.)
            self.exec.rollback_speculation();
            return;
        }
        // Resolutions that made it into the committed segment are done;
        // the rest stay pending for a later batch.
        self.pending_resolutions
            .retain(|r| !batch.committed.iter().any(|c| c.txn_id == r.txn_id));
        // The in-flight batch keeps blocking conflicting admissions
        // until applied.
        self.inflight_fp.clear();
        for t in batch
            .local
            .iter()
            .chain(batch.prepared.iter().map(|p| &p.txn))
        {
            self.inflight_fp
                .absorb(t, &self.topo, Some(self.me.cluster));
        }
        self.pending_fp.clear();
        self.proposal_outstanding = true;
        self.stats.batches_proposed += 1;
        let outputs = self.engine.propose(batch);
        self.route_outputs(outputs, ctx);
    }

    // ------------------------------------------------------------------
    // Decided batch: apply + follow-up duties
    // ------------------------------------------------------------------

    fn on_decided(&mut self, slot: BatchNum, batch: Batch, ctx: &mut Context<'_, NetMsg>) {
        ctx.charge(|c| SimDuration(c.txn_apply.0 * batch.txn_count().max(1) as u64));
        let outcome = self.exec.apply_batch(&batch);
        if self.proposal_outstanding && self.engine.is_leader() {
            self.proposal_outstanding = false;
        }
        self.inflight_fp.clear();
        // --- sign and ship segment shares (every replica) ---
        let mut prepared_sigs: Vec<(TxnId, Signature)> = Vec::new();
        for p in &outcome.prepared {
            let stmt = prepared_statement(self.me.cluster, p.txn.id, slot, &batch.header.cd);
            prepared_sigs.push((p.txn.id, self.keypair.sign(&stmt)));
        }
        if !prepared_sigs.is_empty() {
            ctx.charge(|c| SimDuration(c.ed25519_sign.0 * prepared_sigs.len() as u64));
            self.sigs.own.insert(slot, prepared_sigs.clone());
            let leader = self.engine.leader();
            if leader == self.me {
                self.absorb_shares(self.me, slot, prepared_sigs, ctx);
            } else {
                ctx.send(
                    NodeId::Replica(leader),
                    NetMsg::SegmentSigs {
                        batch: slot,
                        prepared_sigs,
                    },
                );
            }
        }
        // A drained group's records are settled: drop its shares, and
        // those of every earlier group (groups drain in batch order).
        if let Some((_, record)) = outcome.drained.first() {
            self.drop_shares_through(record.prepared_in);
        }
        // --- leader duties ---
        if self.engine.is_leader() {
            // Coordinator: remember own prepare batches.
            for p in &outcome.prepared {
                if p.coordinator == self.me.cluster {
                    if let Some(cs) = self.coord.get_mut(&p.txn.id) {
                        cs.own_prepared_in = Some(slot);
                    }
                }
            }
            // Local commits, then drained 2PC outcomes: for a
            // coordinator, the drain of its own decision means the
            // transaction is now globally decided.
            let ended = outcome.local_committed.iter().map(|t| (t.id, true));
            let drained = outcome.drained.iter();
            let ended =
                ended.chain(drained.map(|(_, r)| (r.txn_id, r.outcome == Outcome::Committed)));
            for (txn, committed) in ended {
                self.conclude(txn, committed, slot, ctx);
            }
            // Try coordinator decisions unblocked by own_prepared_in.
            self.try_decide_all(ctx);
            // More work queued? Keep the pipeline moving.
            self.maybe_seal(ctx, false);
        }
        // --- certified commit feed: publish this batch's delta ---
        self.publish_delta(slot, &batch, &outcome.drained, ctx);
        // --- parked reads that this batch may satisfy ---
        self.serve_parked_reads(ctx);
    }

    /// A transaction that ended in batch `slot`: tell the client this
    /// leader admitted it for, once, and drop its coordinator state.
    fn conclude(
        &mut self,
        txn: TxnId,
        committed: bool,
        slot: BatchNum,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        if let Some(client) = self.txn_client.remove(&txn) {
            self.concluded.insert(txn);
            ctx.send(
                client,
                NetMsg::TxnResult {
                    txn,
                    committed,
                    batch: Some(slot),
                },
            );
        }
        self.coord.remove(&txn);
    }

    /// Build the batch's [`CertifiedDelta`] — its certified header plus the
    /// sorted changed-key set the header's `delta_digest` commits to —
    /// log it, and push it to every feed subscriber. The delta carries
    /// the *same* `f+1` certificate as any proof-carrying read, so
    /// subscribers verify it with `ReadVerifier::verify_delta` before
    /// trusting a word of it.
    fn publish_delta(
        &mut self,
        slot: BatchNum,
        batch: &Batch,
        drained: &[(Transaction, crate::records::CommitRecord)],
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let Some((_, cert)) = self.applied_log().get(slot.0 as usize) else {
            return;
        };
        let delta = CertifiedDelta {
            commitment: batch.committed_header(),
            cert: cert.clone(),
            changed: changed_keys(&self.topo, self.me.cluster, &batch.local, drained),
        };
        if !self.feed_subscribers.is_empty() {
            self.stats.deltas_published += 1;
            for sub in self.feed_subscribers.iter().copied().collect::<Vec<_>>() {
                ctx.send(
                    sub,
                    NetMsg::FeedDelta {
                        delta: Box::new(delta.clone()),
                    },
                );
            }
        }
        self.feed_log.push_back(delta);
        while self.feed_log.len() > FEED_LOG_CAP {
            self.feed_log.pop_front();
        }
    }

    /// (Re)subscribe `from` to the certified commit feed, replaying any
    /// retained suffix past `from_batch` so a briefly-partitioned
    /// subscriber rejoins without a gap.
    fn on_feed_subscribe(
        &mut self,
        from: NodeId,
        from_batch: BatchNum,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        self.feed_subscribers.insert(from);
        for delta in &self.feed_log {
            if delta.batch() > from_batch {
                self.stats.deltas_replayed += 1;
                ctx.send(
                    from,
                    NetMsg::FeedDelta {
                        delta: Box::new(delta.clone()),
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Signature share aggregation (leader)
    // ------------------------------------------------------------------

    /// Gather shares of `batch`'s prepared records. A share is parked
    /// like a consensus vote, our own counts unchecked, and parked ones
    /// are checked only when they can complete a record: the record's
    /// signers are the first `f+1` valid shares to arrive, in replica
    /// order, as if each were checked on arrival.
    fn absorb_shares(
        &mut self,
        from: ReplicaId,
        batch: BatchNum,
        prepared_sigs: Vec<(TxnId, Signature)>,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        ctx.charge(|c| SimDuration(c.ed25519_verify.0 * prepared_sigs.len() as u64));
        // A share signs our CD vector of its batch: none until applied.
        let Some((applied, _)) = self.applied_log().get(batch.0 as usize) else {
            return;
        };
        let cd = applied.header.cd.clone();
        let quorum = self.topo.certificate_quorum();
        let cluster = self.me.cluster;
        let mut formed: Vec<SignedPrepared> = Vec::new();
        for (txn, sig) in prepared_sigs {
            if self.exec.prepared_batches.get_waiting(batch, txn).is_none() {
                self.sigs.never_verified += 1;
                continue;
            }
            let gathering = self.sigs.gathering.entry((batch, txn)).or_default();
            if from == self.me {
                gathering.shares.count_own(from, (), sig);
                self.sigs.never_verified += 1;
            } else {
                gathering.shares.park(from, (), sig);
            }
            if gathering.record.is_some()
                || !gathering.shares.reach(
                    quorum,
                    |_| true,
                    &self.keys,
                    |_| prepared_statement(cluster, txn, batch, &cd),
                )
            {
                continue;
            }
            let sigs = gathering
                .shares
                .counted()
                .map(|(r, _, sig)| (NodeId::Replica(r), *sig))
                .take(quorum)
                .collect();
            let record = SignedPrepared {
                cluster,
                txn,
                prepared_in: batch,
                cd: cd.clone(),
                sigs,
            };
            gathering.record = Some(record.clone());
            formed.push(record);
        }
        for record in formed {
            self.dispatch_prepared_record(record, ctx);
        }
    }

    /// Drop the shares of every batch up to `batch`, counting the parked
    /// ones nobody checked.
    fn drop_shares_through(&mut self, batch: BatchNum) {
        let sigs = &mut self.sigs;
        sigs.own.retain(|b, _| *b > batch);
        sigs.gathering.retain(|(b, _), gathering| {
            if *b > batch {
                return true;
            }
            sigs.never_verified += gathering.shares.unverified();
            false
        });
    }

    /// A freshly gathered prepared record: route it according to who
    /// coordinates the transaction.
    fn dispatch_prepared_record(&mut self, record: SignedPrepared, ctx: &mut Context<'_, NetMsg>) {
        if let Some(cs) = self.coord.get_mut(&record.txn) {
            // We coordinate: send CoordinatorPrepare to the other
            // participants (step 3).
            if !cs.prepare_sent {
                cs.prepare_sent = true;
                let txn = cs.txn.clone();
                let participants = cs.participants.clone();
                for cluster in participants {
                    if cluster != self.me.cluster {
                        ctx.send(
                            NodeId::Replica(self.leader_of(cluster)),
                            NetMsg::CoordinatorPrepare {
                                txn: txn.clone(),
                                coordinator: self.me.cluster,
                                prepare: record.clone(),
                            },
                        );
                    }
                }
            }
            self.try_decide(record.txn, ctx);
        } else {
            // We participate: send our vote to the coordinator (step 5).
            let coordinator = self
                .applied_log()
                .get(record.prepared_in.0 as usize)
                .and_then(|(b, _)| {
                    b.prepared
                        .iter()
                        .find(|p| p.txn.id == record.txn)
                        .map(|p| p.coordinator)
                });
            if let Some(coordinator) = coordinator {
                ctx.send(
                    NodeId::Replica(self.leader_of(coordinator)),
                    NetMsg::Prepared {
                        vote: PrepareVote::Yes(record),
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // 2PC coordinator
    // ------------------------------------------------------------------

    fn try_decide_all(&mut self, ctx: &mut Context<'_, NetMsg>) {
        // Sorted, not in `coord`'s hash order: deciding sends messages.
        let mut ids: Vec<TxnId> = self.coord.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            self.try_decide(id, ctx);
        }
    }

    /// Decide a coordinated transaction once our own prepare applied
    /// and every remote participant voted.
    fn try_decide(&mut self, txn: TxnId, ctx: &mut Context<'_, NetMsg>) {
        let Some(cs) = self.coord.get_mut(&txn) else {
            return;
        };
        if cs.decided {
            return;
        }
        let Some(own_prepared_in) = cs.own_prepared_in else {
            return;
        };
        let remote: Vec<ClusterId> = cs
            .participants
            .iter()
            .copied()
            .filter(|c| *c != self.me.cluster)
            .collect();
        if !remote.iter().all(|c| cs.votes.contains_key(c)) {
            return;
        }
        cs.decided = true;
        let all_yes = remote
            .iter()
            .all(|c| matches!(cs.votes[c], PrepareVote::Yes(_)));
        let outcome = if all_yes {
            Outcome::Committed
        } else {
            Outcome::Aborted
        };
        let mut prepared: Vec<SignedPrepared> = remote
            .iter()
            .filter_map(|c| match &cs.votes[c] {
                PrepareVote::Yes(sp) => Some(sp.clone()),
                PrepareVote::No { .. } => None,
            })
            .collect();
        // The coordinator's own prepared record (gathered when our
        // prepare batch decided) completes the evidence set shipped to
        // participants.
        if let Some(own) = self
            .sigs
            .gathering
            .get(&(own_prepared_in, txn))
            .and_then(|g| g.record.clone())
        {
            prepared.push(own);
        }
        // Ship the outcome to every remote participant NOW — at the
        // transaction commit point — so their prepare groups can drain
        // without waiting for our own commit batch (liveness under
        // mixed-coordinator prepare groups).
        for cluster in &remote {
            ctx.send(
                NodeId::Replica(self.leader_of(*cluster)),
                NetMsg::CommitOutcome {
                    txn,
                    coordinator: self.me.cluster,
                    outcome,
                    prepared: prepared.clone(),
                },
            );
        }
        let record = CommitRecord {
            txn_id: txn,
            prepared_in: own_prepared_in,
            outcome,
            prepared: prepared
                .into_iter()
                .filter(|sp| sp.cluster != self.me.cluster)
                .collect(),
        };
        self.pending_resolutions.push(record);
        self.maybe_seal(ctx, false);
    }

    // ------------------------------------------------------------------
    // Client request handling
    // ------------------------------------------------------------------

    /// Admission control (Definition 3.1) on this partition's keys:
    /// `txn` conflicts with nothing committed, pending, prepared or in
    /// the proposed-but-not-applied batch.
    fn admits(&self, txn: &Transaction) -> bool {
        let prepared_fp = self.exec.prepared_footprint();
        let me = self.me.cluster;
        admit(
            txn,
            &self.exec.store,
            &self.pending_fp,
            &prepared_fp,
            &self.topo,
            me,
        )
        .is_ok()
            && !self.inflight_fp.conflicts_with(txn, &self.topo, Some(me))
    }

    fn on_commit_request(
        &mut self,
        reply_to: NodeId,
        txn: Transaction,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        if self.concluded.contains(&txn.id) || self.txn_client.contains_key(&txn.id) {
            return; // duplicate / retry
        }
        let from = reply_to;
        // Admission control (Definition 3.1) on this partition's keys.
        ctx.charge(|c| SimDuration(c.conflict_check_per_op.0 * txn.op_count() as u64));
        if !self.admits(&txn) {
            self.stats.txns_rejected += 1;
            self.concluded.insert(txn.id);
            ctx.send(
                from,
                NetMsg::TxnResult {
                    txn: txn.id,
                    committed: false,
                    batch: None,
                },
            );
            return;
        }
        self.stats.txns_admitted += 1;
        self.txn_client.insert(txn.id, from);
        self.pending_fp
            .absorb(&txn, &self.topo, Some(self.me.cluster));
        if txn.is_local(&self.topo) {
            self.pending_local.push(txn);
        } else {
            // We are the coordinator (client picked us — §3.3.1).
            let participants = txn.partitions(&self.topo);
            self.coord.insert(
                txn.id,
                CoordState {
                    txn: txn.clone(),
                    participants,
                    votes: HashMap::new(),
                    own_prepared_in: None,
                    decided: false,
                    prepare_sent: false,
                },
            );
            self.pending_prepared.push(PreparedTxn {
                txn,
                coordinator: self.me.cluster,
                coordinator_prepare: None,
            });
        }
        self.maybe_seal(ctx, false);
    }

    fn on_coordinator_prepare(
        &mut self,
        txn: Transaction,
        coordinator: ClusterId,
        prepare: SignedPrepared,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        if self.voted.contains(&txn.id) || self.concluded.contains(&txn.id) {
            return; // retry dedup
        }
        // Authenticate the coordinator's prepare (f+1 signatures).
        ctx.charge(|c| SimDuration(c.ed25519_verify.0 * prepare.sigs.len() as u64));
        let quorum = self.topo.certificate_quorum();
        if prepare
            .vouches(&self.keys, quorum, coordinator, txn.id)
            .is_err()
        {
            return;
        }
        // Already pending here (e.g. duplicate delivery while in a
        // batch)?
        if self.pending_prepared.iter().any(|p| p.txn.id == txn.id) {
            return;
        }
        // Admission control on our keys (§3.3.3: the participant runs
        // the intra-cluster processing protocol).
        ctx.charge(|c| SimDuration(c.conflict_check_per_op.0 * txn.op_count() as u64));
        if !self.admits(&txn) {
            self.voted.insert(txn.id);
            let sig = self
                .keypair
                .sign(&abort_vote_statement(self.me.cluster, txn.id));
            ctx.send(
                NodeId::Replica(self.leader_of(coordinator)),
                NetMsg::Prepared {
                    vote: PrepareVote::No {
                        cluster: self.me.cluster,
                        txn: txn.id,
                        sig,
                    },
                },
            );
            return;
        }
        self.voted.insert(txn.id);
        self.pending_fp
            .absorb(&txn, &self.topo, Some(self.me.cluster));
        self.pending_prepared.push(PreparedTxn {
            txn,
            coordinator,
            coordinator_prepare: Some(prepare),
        });
        self.maybe_seal(ctx, false);
    }

    fn on_prepared_vote(&mut self, vote: PrepareVote, ctx: &mut Context<'_, NetMsg>) {
        let txn = vote.txn();
        let cluster = vote.cluster();
        // Authenticate.
        match &vote {
            PrepareVote::Yes(sp) => {
                ctx.charge(|c| SimDuration(c.ed25519_verify.0 * sp.sigs.len() as u64));
                if sp
                    .verify(&self.keys, self.topo.certificate_quorum())
                    .is_err()
                {
                    return;
                }
            }
            PrepareVote::No { cluster, txn, sig } => {
                ctx.charge(|c| SimDuration(c.ed25519_verify.0));
                let stmt = abort_vote_statement(*cluster, *txn);
                // An honest No is leader-signed; one signature from any
                // replica of that cluster is accepted here (leaders
                // rotate), whoever sent it, so one byzantine replica's
                // No aborts the transaction (ROADMAP `[abort-vote]`).
                let ok = self
                    .topo
                    .replicas_of(*cluster)
                    .any(|r| self.keys.verify(NodeId::Replica(r), &stmt, sig).is_ok());
                if !ok {
                    return;
                }
            }
        }
        if let Some(cs) = self.coord.get_mut(&txn) {
            cs.votes.entry(cluster).or_insert(vote);
            self.try_decide(txn, ctx);
        }
    }

    fn on_commit_outcome(
        &mut self,
        txn: TxnId,
        outcome: Outcome,
        prepared: Vec<SignedPrepared>,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        // The transaction must be waiting in one of our prepare groups.
        let Some((prepared_in, local_txn)) = self.exec.prepared_batches.find_waiting(txn) else {
            return; // duplicate delivery or unknown
        };
        if self.pending_resolutions.iter().any(|r| r.txn_id == txn) {
            return;
        }
        ctx.charge(|c| {
            SimDuration(
                c.ed25519_verify.0 * prepared.iter().map(|p| p.sigs.len() as u64).sum::<u64>(),
            )
        });
        let mut record = CommitRecord {
            txn_id: txn,
            prepared_in,
            outcome,
            prepared,
        };
        let me = self.me.cluster;
        if record
            .check_evidence(&self.keys, &self.topo, me, local_txn)
            .is_err()
        {
            return;
        }
        // Our own prepare is in our log: its record is no evidence here.
        record.prepared.retain(|sp| sp.cluster != me);
        self.pending_resolutions.push(record);
        self.maybe_seal(ctx, false);
    }

    // ------------------------------------------------------------------
    // Read-only serving
    // ------------------------------------------------------------------

    /// Serve a read pinned at `at_batch`, memoised per key set (or
    /// window) and batch by the read pipeline: for a point part one
    /// section proving exactly the query's keys under one multiproof,
    /// for a scan part the window's rows from the store, kept in tree
    /// order, plus the Merkle completeness proof. Held when the query
    /// named the batch's anchor and no client waits on a direct copy.
    fn respond(
        &mut self,
        to: NodeId,
        req: u64,
        query: &ReadQuery,
        at_batch: BatchNum,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let Some((batch, cert)) = self.applied_log().get(at_batch.0 as usize) else {
            return;
        };
        let held = query.held_for(self.me.cluster);
        let direct = direct_reply(query);
        // An asker holding exactly this anchor gets the body alone: the
        // header is not re-encoded and hashed, nor anything cloned. An
        // edge forwarding for a client is sent the full answer to cache.
        let anchor = if direct.is_some() || held != Some(cert.digest) {
            Anchor::Full(Box::new((batch.committed_header(), cert.clone())))
        } else {
            Anchor::Held {
                cluster: self.me.cluster,
                batch: at_batch,
            }
        };
        let body = match &query.shape {
            QueryShape::Point { keys } => {
                let misses_before = self.read_pipeline.stats().misses;
                let body = self.read_pipeline.serve_multi(&self.exec, keys, at_batch);
                let misses = self.read_pipeline.stats().misses - misses_before;
                // A cold multiproof hashes one path per proven key.
                ctx.charge(|c| SimDuration(c.merkle_prove.0 * misses * body.keys().len() as u64));
                Body::from(body)
            }
            QueryShape::Scan { range, .. } => {
                let misses_before = self.read_pipeline.scan_stats().misses;
                let scan = self.read_pipeline.serve_scan(&self.exec, range, at_batch);
                let misses = self.read_pipeline.scan_stats().misses - misses_before;
                // A cold scan proof hashes every leaf of the window.
                ctx.charge(|c| SimDuration(c.merkle_prove.0 * misses * range.width()));
                Body::from(scan)
            }
        };
        let result = ReadResponse { anchor, body };
        send_answer(to, req, direct, held, result, ctx);
    }

    /// The batch a query's snapshot policy resolves to right now, or
    /// `None` when it cannot be served yet and must park.
    fn resolve_snapshot(&self, query: &ReadQuery) -> Option<BatchNum> {
        let applied = self.exec.applied_batches();
        match query.consistency {
            SnapshotPolicy::MinEpoch(e) if !e.is_none() => {
                deps::first_batch_with_lce(self.applied_log(), |(b, _)| b.header.lce, e)
            }
            _ => (applied > 0).then(|| BatchNum(applied - 1)),
        }
    }

    /// The unified read dispatch: one entry point for every
    /// proof-carrying read shape — round-1 point reads, round-2
    /// dependency fetches, verified scans (with the same LCE-floor
    /// semantics), and scatter-gather sub-queries. Queries whose
    /// snapshot is not servable yet park in
    /// [`TransEdgeNode::pending_reads`], reply address and all, and are
    /// retried after every applied batch. Each is served once: to the
    /// asker, and to the client it names in `reply_to`, if any.
    fn on_read_query(
        &mut self,
        from: NodeId,
        req: u64,
        query: ReadQuery,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        match &query.shape {
            QueryShape::Point { .. } => match self.resolve_snapshot(&query) {
                Some(batch) => {
                    match query.consistency {
                        SnapshotPolicy::Latest => self.stats.rot_served += 1,
                        SnapshotPolicy::MinEpoch(_) => self.stats.rot_fetches_served += 1,
                    }
                    self.respond(from, req, &query, batch, ctx);
                    if matches!(from, NodeId::Client(_)) {
                        self.chase(from, &query, batch, ctx);
                    }
                }
                None => self.pending_reads.push((from, req, query)),
            },
            QueryShape::Scan { range, .. } => {
                if !range.is_valid_for_depth(self.config.tree_depth) {
                    // Never serve (or park) a malformed window.
                    self.stats.rot_scans_rejected += 1;
                    return;
                }
                match self.resolve_snapshot(&query) {
                    Some(batch) => {
                        self.stats.rot_scans_served += 1;
                        self.respond(from, req, &query, batch, ctx);
                    }
                    None => self.pending_reads.push((from, req, query)),
                }
            }
        }
    }

    /// Send on the client's other point parts that the answer just
    /// served at `at_batch` made stale ([`deps::chase_demand`], the rule
    /// the client predicts with): the partition's leader is asked for
    /// the part at the demanded epoch and answers the client under the
    /// part's chase id. One hop: a forward names no parts of its own.
    fn chase(
        &mut self,
        client: NodeId,
        query: &ReadQuery,
        at_batch: BatchNum,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let Some((batch, _)) = self.applied_log().get(at_batch.0 as usize) else {
            return;
        };
        let (me, cd) = (self.me.cluster, &batch.header.cd);
        let stale: Vec<(&Chase, Epoch)> = query
            .chase
            .iter()
            .filter_map(|p| Some((p, deps::chase_demand(me, cd, p.cluster, p.floor)?)))
            .collect();
        let trace = ctx.trace_here().or(query.trace);
        for (part, demand) in stale {
            if let Some(tc) = trace {
                let now = ctx.now();
                ctx.trace()
                    .marker(tc, SpanPhase::Serve, NodeId::Replica(self.me), now, "chase");
            }
            self.stats.chases_sent += 1;
            let mut forward =
                ReadQuery::point(part.keys.clone()).with_policy(SnapshotPolicy::MinEpoch(demand));
            forward.reply_to = Some((client, part.req));
            forward.trace = trace;
            // The forward's own id reaches only an asker-answering
            // replica (one asked without `reply_to`); the count keeps it
            // unique per chasing replica.
            ctx.send(
                NodeId::Replica(self.leader_of(part.cluster)),
                NetMsg::Read {
                    req: self.stats.chases_sent,
                    query: forward,
                },
            );
        }
    }

    /// Retry every parked query against the freshly applied state.
    fn serve_parked_reads(&mut self, ctx: &mut Context<'_, NetMsg>) {
        if self.pending_reads.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.pending_reads);
        for (to, req, query) in parked {
            // Still unservable queries re-park inside the dispatch.
            self.on_read_query(to, req, query, ctx);
        }
    }

    // ------------------------------------------------------------------
    // View change recovery
    // ------------------------------------------------------------------

    fn on_entered_view(&mut self, leader: ReplicaId, ctx: &mut Context<'_, NetMsg>) {
        // A discarded in-flight proposal leaves a stale speculation.
        self.proposal_outstanding = false;
        if leader == self.me {
            // New leader: recover 2PC state. Ask peers for their shares
            // on batches that still have waiting transactions, then
            // retry everything (receivers dedup).
            let earliest = self
                .exec
                .prepared_batches
                .waiting_entries()
                .map(|(b, _)| b)
                .min();
            if let Some(from_batch) = earliest {
                for peer in self.cluster_peers() {
                    ctx.send(peer, NetMsg::SigResend { from_batch });
                }
                // Replay our own shares too.
                let own = self.own_shares_from(from_batch);
                for (batch, shares) in own {
                    self.absorb_shares(self.me, batch, shares, ctx);
                }
            }
            self.maybe_seal(ctx, true);
        }
    }

    fn on_sig_resend(
        &mut self,
        from: ReplicaId,
        from_batch: BatchNum,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        for (batch, prepared_sigs) in self.own_shares_from(from_batch) {
            ctx.send(
                NodeId::Replica(from),
                NetMsg::SegmentSigs {
                    batch,
                    prepared_sigs,
                },
            );
        }
    }

    /// Our own shares of `from_batch` onward, in batch order.
    fn own_shares_from(&self, from_batch: BatchNum) -> Vec<(BatchNum, Vec<(TxnId, Signature)>)> {
        self.sigs
            .own
            .range(from_batch..)
            .map(|(batch, shares)| (*batch, shares.clone()))
            .collect()
    }

    /// Replay any proposal the engine buffered while we lagged.
    fn replay_pending_proposals(&mut self, ctx: &mut Context<'_, NetMsg>) {
        loop {
            let Some((from, msg)) = self.engine.take_pending_propose() else {
                return;
            };
            self.handle_bft(from, msg, ctx);
        }
    }

    fn handle_bft(&mut self, from: ReplicaId, msg: BftMsg<Batch>, ctx: &mut Context<'_, NetMsg>) {
        // One signature verification per consensus message (the engine
        // verifies for real; we charge the simulated cost here).
        ctx.charge(|c| c.ed25519_verify);
        let exec = &mut self.exec;
        let now = ctx.now();
        let outputs = self.engine.handle(from, msg, &mut |slot, batch: &Batch| {
            exec.validate_batch(slot, batch, now).is_ok()
        });
        // Charge validation work for proposals (conflict checks +
        // merkle recompute).
        self.route_outputs(outputs, ctx);
        self.replay_pending_proposals(ctx);
    }
}

/// What the replica owns: its stats, its key handle's signature checks,
/// the votes and shares it never had to verify, and its proof memo's
/// counters (`pipeline.*`).
impl RegisterMetrics for TransEdgeNode {
    fn register_metrics(&self, scope: &str, reg: &mut MetricRegistry) {
        reg.register(scope, &self.stats);
        reg.register(scope, &self.keys.sig_stats());
        let votes = self.engine.votes_never_verified();
        reg.counter(scope, "consensus.votes_never_verified", votes);
        let shares = self.shares_never_verified();
        reg.counter(scope, "node.shares_never_verified", shares);
        reg.register(scope, &self.read_pipeline);
    }
}

impl Actor<NetMsg> for TransEdgeNode {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        ctx.set_timer(self.config.batch_interval, TOKEN_BATCH);
        ctx.set_timer(LEADER_TIMEOUT, TOKEN_PROGRESS);
    }

    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        match msg {
            // Admission and 2PC are the leader's: a replica that does not
            // lead forwards them to the one that does (clients and other
            // clusters may hold stale leader info). A forwarded client
            // request is work the leader owes: the progress timer expects
            // a delivery for it.
            NetMsg::CommitRequest { .. }
            | NetMsg::CoordinatorPrepare { .. }
            | NetMsg::Prepared { .. }
            | NetMsg::CommitOutcome { .. }
                if !self.engine.is_leader() =>
            {
                if matches!(msg, NetMsg::CommitRequest { .. }) {
                    self.forwarded_since_check = true;
                }
                ctx.send(NodeId::Replica(self.engine.leader()), msg);
            }
            NetMsg::OccRead { req, key } => {
                let (value, version) = self.exec.read_latest(&key);
                ctx.send(
                    from,
                    NetMsg::OccReadResp {
                        req,
                        key,
                        value,
                        version,
                    },
                );
            }
            NetMsg::CommitRequest { txn, reply_to } => self.on_commit_request(reply_to, txn, ctx),
            NetMsg::Read { req, query } => self.on_read_query(from, req, query, ctx),
            NetMsg::FeedSubscribe { from_batch } => self.on_feed_subscribe(from, from_batch, ctx),
            NetMsg::Bft(msg) => {
                let Some(replica) = from.as_replica() else {
                    return; // consensus traffic must come from replicas
                };
                self.handle_bft(replica, *msg, ctx);
            }
            NetMsg::SegmentSigs {
                batch,
                prepared_sigs,
                ..
            } => {
                let Some(replica) = from.as_replica() else {
                    return;
                };
                if replica.cluster != self.me.cluster {
                    return;
                }
                self.absorb_shares(replica, batch, prepared_sigs, ctx);
            }
            NetMsg::SigResend { from_batch } => {
                if let Some(replica) = from.as_replica() {
                    if replica.cluster == self.me.cluster {
                        self.on_sig_resend(replica, from_batch, ctx);
                    }
                }
            }
            NetMsg::CoordinatorPrepare {
                txn,
                coordinator,
                prepare,
            } => self.on_coordinator_prepare(txn, coordinator, prepare, ctx),
            NetMsg::Prepared { vote } => self.on_prepared_vote(vote, ctx),
            NetMsg::CommitOutcome {
                txn,
                outcome,
                prepared,
                ..
            } => self.on_commit_outcome(txn, outcome, prepared, ctx),
            // Responses are client-bound; a replica receiving one is a
            // routing bug in the sender — drop. Directory gossip is an
            // edge/client affair; replicas are not in the fleet, and a
            // replica *publishes* feed deltas, it never consumes them.
            NetMsg::OccReadResp { .. }
            | NetMsg::TxnResult { .. }
            | NetMsg::ReadResult { .. }
            | NetMsg::FeedDelta { .. }
            | NetMsg::DirectoryDeltaGossip { .. }
            | NetMsg::DirectoryPull => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NetMsg>) {
        match token {
            TOKEN_BATCH => {
                self.maybe_seal(ctx, true);
                ctx.set_timer(self.config.batch_interval, TOKEN_BATCH);
            }
            TOKEN_PROGRESS => {
                // If consensus has an in-flight slot (or we forwarded
                // client work to the leader) and nothing was delivered
                // since the last check, vote to change views.
                let delivered = self.engine.delivered_count();
                let expecting = self.engine.has_undecided_inflight() || self.forwarded_since_check;
                if delivered == self.last_progress_check && expecting && !self.engine.is_leader() {
                    let outputs = self.engine.on_timeout();
                    self.route_outputs(outputs, ctx);
                }
                self.forwarded_since_check = false;
                self.last_progress_check = delivered;
                ctx.set_timer(LEADER_TIMEOUT, TOKEN_PROGRESS);
            }
            _ => {}
        }
    }
}
