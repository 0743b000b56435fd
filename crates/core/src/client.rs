//! The TransEdge client: OCC read-write transactions and the unified
//! proof-carrying read-query protocol.
//!
//! A client actor executes a scripted sequence of operations
//! ([`ClientOp`]), one at a time (closed loop — the paper's "2 clients
//! running 10 threads" maps to 20 such actors). Every read-only shape —
//! point snapshot reads, verified range scans, paginated multi-window
//! scans, cross-partition scatter-gather — runs through one
//! `ReadSession`: it plans per-partition sub-queries from a
//! [`ReadQuery`], sends every one of them — first round, page,
//! restart, retry, resend — through one `dispatch` (via the
//! [`EdgeSelector`], or whole to one edge contact), verifies every
//! part answer end to end in one `on_part_result`
//! (`ReadVerifier::verify_query`: certificates, Merkle proofs,
//! completeness, snapshot pins), stitches the verified sections into
//! one result, and re-runs partitions whose snapshots fail the
//! cross-partition dependency check (Algorithm 2) with an explicit
//! LCE floor — the round-2 semantics, uniform across shapes.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use transedge_common::{
    BatchNum, ClientId, ClusterId, ClusterTopology, Epoch, Key, NodeId, ReplicaId, SimDuration,
    SimTime, TxnId, Value,
};
use transedge_crypto::range::MAX_RANGE_BUCKETS;
use transedge_crypto::{KeyStore, Keypair, ScanRange};
use transedge_directory::DirectoryAgent;
use transedge_edge::{
    FeedWindow, PageToken, QueryAnswer, QueryShape, ReadQuery, ReadRejection, ReadResponse,
    ReadVerifier, SnapshotPolicy, VerifiedCerts, VerifyParams,
};
use transedge_obs::{SpanPhase, TraceContext, TraceId};
use transedge_simnet::{Actor, Context};

use crate::batch::{BatchHeader, CommittedHeader, ReadOp, Transaction, WriteOp};
use crate::deps::{verify_dependencies, RotView};
use crate::edge_select::EdgeSelector;
use crate::messages::{NetMsg, ReadPayload, RotDelta};
use crate::metrics::{OpKind, TxnSample};

/// One scripted client operation.
#[derive(Clone, Debug)]
pub enum ClientOp {
    /// Read `reads`, then buffer `writes` and commit.
    ReadWrite {
        reads: Vec<Key>,
        writes: Vec<(Key, Value)>,
    },
    /// Snapshot read-only transaction over `keys` (sugar for a
    /// [`ClientOp::Query`] with a point shape at the latest snapshot).
    ReadOnly { keys: Vec<Key> },
    /// Verified range scan: every committed row in a contiguous window
    /// of `cluster`'s tree order, with a completeness proof so an
    /// untrusted server cannot silently omit rows (sugar for a
    /// single-cluster, single-window [`ClientOp::Query`]).
    RangeScan {
        cluster: ClusterId,
        range: ScanRange,
    },
    /// The full typed read API: any [`ReadQuery`] — multi-partition
    /// point sets, paginated scans, scatter-gather, snapshot policies.
    Query { query: ReadQuery },
}

/// Client-side configuration (verification parameters must match the
/// deployment's `NodeConfig`).
#[derive(Clone, Debug)]
pub struct ClientConfig {
    pub tree_depth: u32,
    pub freshness_window: SimDuration,
    /// Re-send unanswered requests after this long.
    pub retry_after: SimDuration,
    /// Give up on an operation after this many retries.
    pub max_retries: u32,
    /// Keep full results (values read) for inspection by tests.
    pub record_results: bool,
    /// Baseline mode (the paper's "2PC/BFT" comparator, §3.5/§5):
    /// execute read-only operations as ordinary read-write transactions
    /// through BFT agreement and two-phase commit instead of the
    /// commit-free snapshot protocol. Samples keep `OpKind::ReadOnly`
    /// so harnesses compare like for like.
    pub rot_via_2pc: bool,
    /// Candidate edge read nodes per partition (untrusted caches;
    /// responses still verify end to end). The client's [`EdgeSelector`]
    /// rotates over them, skipping any it demoted — on consecutive
    /// timeouts, one verified byzantine rejection or a directory hint —
    /// and partitions without candidates (or with every candidate demoted)
    /// are read from the cluster itself. Verification failures and
    /// retries always fall back to real replicas, so a byzantine edge
    /// cannot wedge a client.
    pub edges: HashMap<ClusterId, Vec<NodeId>>,
    /// Take part in the gossiped edge directory: pull the fleet's
    /// evidence at startup (fleet-wide demotions land *before* the
    /// first contact), and push signed rejection evidence after
    /// verification failures so other clients get the same head start.
    /// Hints only — correctness never depends on them.
    pub directory: bool,
    /// Send a fresh cross-partition query to *one* edge contact
    /// (edge-tier scatter-gather) instead of fanning out per partition.
    /// The contact splits, forwards, and returns the part answers in
    /// one envelope; every part is still verified here against its own
    /// partition's certified root, and a part that is missing or fails
    /// is re-asked of a replica like any rejected answer.
    pub single_contact: bool,
    /// Delay before the first operation (and the directory pull) —
    /// lets harnesses stagger clients so gossip has rounds to spread.
    pub start_delay: SimDuration,
    /// Subscription mode: ask serving edges to attach their verified
    /// delta-feed tail to point responses as a freshness certificate.
    /// A verified attachment upgrades the partition's snapshot view to
    /// the feed head, so the cross-partition dependency check passes
    /// without the round-2 MinEpoch re-fetch — warm reads of a
    /// subscribed client stay one round even under heavy writes.
    /// Nothing is trusted: the feed verifies under replica certificates
    /// like every other response part.
    pub subscribe: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            tree_depth: 16,
            freshness_window: SimDuration::from_secs(30),
            retry_after: SimDuration::from_millis(500),
            max_retries: 20,
            record_results: false,
            rot_via_2pc: false,
            edges: HashMap::new(),
            directory: false,
            single_contact: false,
            start_delay: SimDuration(0),
            subscribe: false,
        }
    }
}

/// Completed read (when `record_results`): the stitched, fully
/// verified answer of one unified read query — what every read op
/// records, [`ClientOp::ReadOnly`] and [`ClientOp::RangeScan`] sugar
/// included.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Point answers in per-partition order (point shapes).
    pub values: Vec<(Key, Option<Value>)>,
    /// Scan rows per partition, each ascending in tree order (scan
    /// shapes).
    pub rows: Vec<(ClusterId, Vec<(Key, Value)>)>,
    /// `(partition, batch served)` — the snapshot each partition's
    /// sections were verified against.
    pub snapshot: Vec<(ClusterId, BatchNum)>,
    /// Did the cross-partition dependency check force a second round?
    pub needed_round2: bool,
    /// Verified scan pages across all partitions.
    pub pages: u32,
}

/// Completed read-write transaction result (when `record_results`).
#[derive(Clone, Debug)]
pub struct TxnOutcome {
    pub txn: TxnId,
    pub committed: bool,
    /// Values observed during the read phase.
    pub reads: Vec<(Key, Option<Value>)>,
}

/// The sub-query a part is waiting on: its request id (shared by every
/// part one single-contact send covers) and where it went — so the
/// answer credits (or blames) the right target in the edge selector.
#[derive(Clone, Copy, Debug)]
struct Pending {
    req: u64,
    target: NodeId,
}

/// Per-partition progress of one unified query.
#[derive(Clone, Debug)]
struct PartState {
    cluster: ClusterId,
    /// Point keys of this partition (empty for scan parts).
    keys: Vec<Key>,
    /// Round-2 LCE floor ([`Epoch::NONE`] until the dependency check
    /// demands one).
    floor: Epoch,
    /// Scan continuation: the next page's token.
    token: Option<PageToken>,
    /// Verified pages so far (scan parts).
    pages: u32,
    /// Snapshot view of the partition (set by the first verified
    /// response; input to the dependency check).
    view: Option<RotView>,
    /// The served snapshot's view *before* a verified feed attachment
    /// upgraded `view` to the feed head — what the dependency check
    /// would have seen without the subscription; `None` when no
    /// upgrade happened.
    base_view: Option<RotView>,
    /// The full menu of certified snapshot views a verified feed
    /// attachment buys: the served view followed by each delta's
    /// header view — held ones, then sent ones — ascending to the head. The feed proves the served
    /// values unchanged through every prefix of the chain, so each
    /// entry is an equally certified snapshot of the same values —
    /// the dependency check may pick any of them.
    feed_cuts: Vec<RotView>,
    values: Vec<(Key, Option<Value>)>,
    rows: Vec<(Key, Value)>,
    /// The sub-query in flight for this part, if any.
    pending: Option<Pending>,
    done: bool,
}

impl PartState {
    fn new(cluster: ClusterId, keys: Vec<Key>) -> Self {
        PartState {
            cluster,
            keys,
            floor: Epoch::NONE,
            token: None,
            pages: 0,
            view: None,
            base_view: None,
            feed_cuts: Vec::new(),
            values: Vec::new(),
            rows: Vec::new(),
            pending: None,
            done: false,
        }
    }

    /// Restart this partition from scratch at a new LCE floor (round
    /// two: its snapshot failed the dependency check; or a pinned page
    /// aged past the freshness window) — a scan re-paginates from page
    /// one, the path every point read takes.
    fn restart_at_floor(&mut self, floor: Epoch) {
        self.floor = floor;
        self.token = None;
        self.pages = 0;
        self.view = None;
        self.base_view = None;
        self.feed_cuts.clear();
        self.done = false;
        self.values.clear();
        self.rows.clear();
    }
}

/// The planner/assembler behind every read shape: one session per
/// in-flight [`ReadQuery`]. It owns the per-partition sub-query plan —
/// each part carrying its own in-flight request, pagination state and
/// verified results awaiting the final stitch.
struct ReadSession {
    query: ReadQuery,
    round: u8,
    parts: Vec<PartState>,
    round1_done_at: Option<SimTime>,
}

impl ReadSession {
    fn part(&self, cluster: ClusterId) -> &PartState {
        self.parts
            .iter()
            .find(|p| p.cluster == cluster)
            .expect("planned part")
    }

    fn part_mut(&mut self, cluster: ClusterId) -> &mut PartState {
        self.parts
            .iter_mut()
            .find(|p| p.cluster == cluster)
            .expect("planned part")
    }

    /// The wire sub-query currently owed by `cluster`: the original
    /// query restricted to that partition, at the part's floor and
    /// page position.
    fn subquery(&self, cluster: ClusterId) -> ReadQuery {
        let part = self.part(cluster);
        let consistency = if part.floor.is_none() {
            self.query.consistency
        } else {
            SnapshotPolicy::MinEpoch(part.floor)
        };
        let shape = match &self.query.shape {
            QueryShape::Point { .. } => QueryShape::Point {
                keys: part.keys.clone(),
            },
            QueryShape::Scan { range, window, .. } => QueryShape::Scan {
                clusters: vec![cluster],
                range: *range,
                window: *window,
            },
        };
        ReadQuery {
            consistency,
            shape,
            page: part.token,
            feed: self.query.feed_for(cluster),
            trace: self.query.trace,
        }
    }

    fn all_done(&self) -> bool {
        self.parts.iter().all(|p| p.done)
    }

    fn views(&self) -> Vec<RotView> {
        self.parts.iter().filter_map(|p| p.view.clone()).collect()
    }

    /// The views the dependency check would run on without any feed
    /// upgrades (each part's served-snapshot view) — what measures how
    /// many round-2 re-fetches the subscription actually eliminated.
    fn base_views(&self) -> Vec<RotView> {
        self.parts
            .iter()
            .filter_map(|p| p.base_view.clone().or_else(|| p.view.clone()))
            .collect()
    }

    /// Pick, per partition, the highest view along its verified feed
    /// chain such that the chosen views are mutually
    /// dependency-consistent. Two feed heads attached by different
    /// edges are never perfectly synchronised: adopting both blindly
    /// can *manufacture* a dependency violation (one head's CD names
    /// an epoch the other head's LCE hasn't certified yet) that the
    /// stale served snapshots did not have. Every prefix of a
    /// verified chain is an equally certified snapshot of the same
    /// values, so the client is free to choose the cut — and since a
    /// violation `vi.cd[j] > vj.lce` can only ever be repaired by
    /// lowering `vi` (a head cannot be raised), greedily lowering
    /// violators converges on the unique maximal consistent cut.
    /// Parts without a feed menu keep their single view; violations
    /// they force that no lowering can fix are left for round 2.
    fn settle_feed_cut(&mut self) {
        if self.parts.iter().all(|p| p.feed_cuts.len() <= 1) {
            return;
        }
        let mut idx: Vec<usize> = self
            .parts
            .iter()
            .map(|p| p.feed_cuts.len().saturating_sub(1))
            .collect();
        loop {
            let views: Vec<Option<&RotView>> = self
                .parts
                .iter()
                .zip(&idx)
                .map(|(p, &i)| p.feed_cuts.get(i).or(p.view.as_ref()))
                .collect();
            let mut lowered = None;
            'search: for (i, vi) in views.iter().enumerate() {
                let Some(vi) = vi else { continue };
                if idx[i] == 0 || self.parts[i].feed_cuts.is_empty() {
                    continue;
                }
                for vj in views.iter().flatten() {
                    if vi.cluster != vj.cluster && vi.cd.get(vj.cluster) > vj.lce {
                        lowered = Some(i);
                        break 'search;
                    }
                }
            }
            match lowered {
                Some(i) => idx[i] -= 1,
                None => break,
            }
        }
        for (part, i) in self.parts.iter_mut().zip(idx) {
            if !part.feed_cuts.is_empty() {
                part.view = part.feed_cuts.get(i).cloned();
            }
        }
    }
}

/// The dependency-check view a certified header gives of its partition.
fn view_of(header: &BatchHeader) -> RotView {
    RotView {
        cluster: header.cluster,
        batch: header.num,
        cd: header.cd.clone(),
        lce: header.lce,
    }
}

/// Leaf hashes the proof check of one part answer folds: one per proven
/// key or window bucket, one per *sent* feed delta's changed list. A scan's
/// claimed window is *attacker-controlled* and unvalidated here, so its
/// width is computed saturating and capped at the protocol maximum —
/// the verifier rejects anything wider before hashing.
fn leaf_hashes(response: &ReadPayload) -> u64 {
    match response {
        ReadResponse::Point { section, fresh } => {
            let feed = fresh.as_ref().map_or(0, Vec::len);
            (feed + section.body.keys().len()) as u64
        }
        ReadResponse::Scan { bundle } => {
            let claimed = &bundle.scan.range;
            claimed
                .last
                .saturating_sub(claimed.first)
                .saturating_add(1)
                .min(MAX_RANGE_BUCKETS)
        }
        // A part answer is never an envelope; the verifier rejects one
        // unread.
        ReadResponse::Gather { .. } => 0,
    }
}

#[allow(clippy::enum_variant_names)]
enum Phase {
    // Ordered maps: the commit request lists reads in `collected`'s
    // order and a retry re-sends in `outstanding`'s, and every send
    // draws from the simulation's one RNG — hash order there would let
    // the process's hash seed pick the timeline.
    ReadPhase {
        collected: BTreeMap<Key, (Option<Value>, Epoch)>,
        /// req id → key, for retries.
        outstanding: BTreeMap<u64, Key>,
    },
    CommitPhase {
        txn: Transaction,
        coordinator: ClusterId,
    },
    Query(ReadSession),
}

struct Inflight {
    op_index: usize,
    kind: OpKind,
    start: SimTime,
    attempts: u32,
    phase: Phase,
}

/// Aggregate client statistics beyond per-op samples.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// Responses that failed certificate / proof / freshness checks —
    /// evidence of byzantine servers.
    pub verification_failures: u64,
    /// Reads whose round-2 answers failed the dependency check again
    /// and took a further round. Theorem 4.6 says never, yet it is not
    /// 0 here: the benchmark's `mixed-rw` and `feed-churn` workloads
    /// take third rounds, its gate tolerates the monitor's verdict on
    /// them and no test asserts zero — ROADMAP open item 1 owns the
    /// cause.
    pub third_round_needed: u64,
    pub retries: u64,
    pub gave_up: u64,
    /// Verified scan responses (pages) accepted.
    pub scans_accepted: u64,
    /// Cross-partition queries sent to a single edge contact.
    pub gathers_sent: u64,
    /// Single-contact answers whose every part verified (each against
    /// its own partition's root).
    pub gathers_accepted: u64,
    /// Directory deltas ingested (startup answer + pull-half replies).
    pub directory_seeded: u64,
    /// Signed rejection-evidence records pushed into the gossip layer.
    pub directory_evidence_sent: u64,
    /// Certificate checks skipped because this client had already
    /// verified that exact certificate — in an earlier response (a
    /// repeat batch, a feed tail seen on the previous read) or earlier
    /// in the same one. One per skipped check, whatever its `f+1`.
    pub cert_checks_shared: u64,
    /// Total wire bytes of every read response this client received
    /// (structural sizes).
    pub read_result_bytes: u64,
    /// Responses whose attached delta-feed tail verified, upgrading the
    /// partition view to the feed head (subscription mode).
    pub freshness_upgrades: u64,
    /// Queries whose round-2 MinEpoch re-fetch was eliminated because a
    /// verified feed attachment already satisfied the dependency floor
    /// the un-upgraded snapshot would have missed.
    pub round2_skipped_by_feed: u64,
    /// Held feed deltas that stood in for ones an edge would otherwise
    /// have shipped again (the saving the feed cursor buys).
    pub feed_deltas_reused: u64,
}

impl transedge_obs::RegisterMetrics for ClientStats {
    fn register_metrics(&self, scope: &str, reg: &mut transedge_obs::MetricRegistry) {
        reg.counter(
            scope,
            "client.verification_failures",
            self.verification_failures,
        );
        reg.counter(scope, "client.third_round_needed", self.third_round_needed);
        reg.counter(scope, "client.retries", self.retries);
        reg.counter(scope, "client.gave_up", self.gave_up);
        reg.counter(scope, "client.scans_accepted", self.scans_accepted);
        reg.counter(scope, "client.gathers_sent", self.gathers_sent);
        reg.counter(scope, "client.gathers_accepted", self.gathers_accepted);
        reg.counter(scope, "client.directory_seeded", self.directory_seeded);
        reg.counter(
            scope,
            "client.directory_evidence_sent",
            self.directory_evidence_sent,
        );
        reg.counter(scope, "query.cert_checks_shared", self.cert_checks_shared);
        reg.counter(scope, "query.read_result_bytes", self.read_result_bytes);
        reg.counter(scope, "query.freshness_upgrades", self.freshness_upgrades);
        reg.counter(
            scope,
            "query.round2_skipped_by_feed",
            self.round2_skipped_by_feed,
        );
        reg.counter(scope, "query.feed_deltas_reused", self.feed_deltas_reused);
    }
}

/// The client actor.
pub struct ClientActor {
    pub id: ClientId,
    topo: ClusterTopology,
    /// The key directory, behind the memo of certificates this client
    /// has already verified under it (trusted state: see
    /// [`VerifiedCerts`]).
    certs: VerifiedCerts,
    /// Subscription mode: per partition, the contiguous run of feed
    /// deltas this client has verified (trusted state, beside the
    /// memo) — named to edges as a cursor so they are not sent again.
    feeds: BTreeMap<ClusterId, FeedWindow<CommittedHeader>>,
    pub config: ClientConfig,
    ops: Vec<ClientOp>,
    next_op: usize,
    inflight: Option<Inflight>,
    next_req: u64,
    next_txn_seq: u64,
    /// Spread OCC reads over replicas.
    read_rr: u64,
    /// Edge selection for read-only rounds.
    pub edge_selector: EdgeSelector,
    /// Directory participation (when `config.directory`): holds the
    /// ingested fleet state, signs this client's rejection evidence.
    directory: Option<DirectoryAgent<CommittedHeader>>,
    /// Startup: a directory pull is outstanding; the first op starts
    /// when the answer arrives (or the seed timer gives up waiting).
    waiting_seed: bool,
    /// Writes buffered while the read phase runs.
    pending_writes: Vec<(Key, Value)>,
    pub samples: Vec<TxnSample>,
    pub query_results: Vec<QueryOutcome>,
    pub txn_outcomes: Vec<TxnOutcome>,
    pub stats: ClientStats,
}

impl ClientActor {
    pub fn new(
        id: ClientId,
        topo: ClusterTopology,
        keys: KeyStore,
        keypair: Keypair,
        config: ClientConfig,
        ops: Vec<ClientOp>,
    ) -> Self {
        // Seed the selector's tie-breaking with the client id so a
        // fleet of clients spreads over the edge tier from the start.
        let mut edge_selector = EdgeSelector::new(id.0 as u64);
        for (cluster, edges) in &config.edges {
            for edge in edges {
                edge_selector.register(*cluster, *edge);
            }
        }
        let directory = config.directory.then(|| {
            DirectoryAgent::new(
                NodeId::Client(id),
                keypair,
                ReadVerifier::new(VerifyParams {
                    tree_depth: config.tree_depth,
                    freshness_window: config.freshness_window,
                    quorum: topo.certificate_quorum(),
                }),
            )
        });
        ClientActor {
            id,
            topo,
            certs: VerifiedCerts::new(keys.with_memo()),
            feeds: BTreeMap::new(),
            config,
            ops,
            next_op: 0,
            inflight: None,
            next_req: 0,
            next_txn_seq: 0,
            read_rr: 0,
            edge_selector,
            directory,
            waiting_seed: false,
            pending_writes: Vec::new(),
            samples: Vec::new(),
            query_results: Vec::new(),
            txn_outcomes: Vec::new(),
            stats: ClientStats::default(),
        }
    }

    /// All scripted operations finished?
    pub fn is_done(&self) -> bool {
        self.inflight.is_none() && self.next_op >= self.ops.len()
    }

    /// Replace the not-yet-issued tail of this client's script with
    /// `ops` — the flash-crowd re-targeting hook: a scenario harness
    /// swaps the remaining workload (e.g. a shifted zipf hot set)
    /// mid-run. The in-flight operation and everything already issued
    /// are untouched. Must be applied while the client is still active:
    /// a finished client has nothing scheduled to pick the new tail up.
    pub fn retarget_pending_ops(&mut self, ops: Vec<ClientOp>) {
        self.ops.truncate(self.next_op);
        self.ops.extend(ops);
    }

    /// Operations not yet issued (diagnostics for re-targeting
    /// harnesses).
    pub fn pending_ops(&self) -> usize {
        self.ops.len().saturating_sub(self.next_op)
    }

    /// The memo of certificates this client has verified (its
    /// counters: signatures actually checked, checks skipped).
    pub fn verified_certs(&self) -> &VerifiedCerts {
        &self.certs
    }

    /// The feed deltas this client holds for `cluster`, if it ever
    /// verified a feed attachment there.
    pub fn feed_window(&self, cluster: ClusterId) -> Option<&FeedWindow<CommittedHeader>> {
        self.feeds.get(&cluster)
    }

    /// The directory participant, when enabled.
    pub fn directory(&self) -> Option<&DirectoryAgent<CommittedHeader>> {
        self.directory.as_ref()
    }

    /// Begin the scripted run: when the directory is enabled, first
    /// pull one edge's records so fleet-known byzantine edges are
    /// demoted *before* this client ever contacts them. A seed timer
    /// bounds the wait (a dead or shunned pull target must not wedge
    /// the client).
    fn boot(&mut self, ctx: &mut Context<'_, NetMsg>) {
        if self.directory.is_some() {
            let mut clusters: Vec<ClusterId> = self.config.edges.keys().copied().collect();
            clusters.sort_unstable();
            let target = clusters
                .into_iter()
                .find_map(|cluster| self.edge_selector.pick(cluster, ctx.now()));
            if let Some(target) = target {
                ctx.send(target, NetMsg::DirectoryPull);
                self.waiting_seed = true;
                ctx.set_timer(self.config.retry_after, TIMER_SEED);
                return;
            }
        }
        self.start_next_op(ctx);
    }

    /// Demote every edge the directory holds verified evidence against.
    fn seed_selector(&mut self, now: SimTime) {
        let Some(agent) = &self.directory else {
            return;
        };
        for edge in agent.convicted_edges() {
            self.edge_selector
                .demote_hint(edge.cluster, NodeId::Edge(edge), now);
        }
    }

    fn req_id(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    fn leader_of(&self, cluster: ClusterId) -> NodeId {
        // Clients assume replica 0 leads; replicas forward if views
        // rotated.
        NodeId::Replica(ReplicaId::new(cluster, 0))
    }

    fn any_replica_of(&mut self, cluster: ClusterId) -> NodeId {
        let n = self.topo.replicas_per_cluster() as u64;
        self.read_rr += 1;
        NodeId::Replica(ReplicaId::new(cluster, (self.read_rr % n) as u16))
    }

    /// Where this client's read sub-queries go: the selector's pick
    /// among the partition's edges, or the cluster leader when no edge
    /// fronts it (or every candidate is demoted). Retries after
    /// verification failures bypass this and ask real replicas directly.
    fn read_target(&mut self, cluster: ClusterId, now: SimTime) -> NodeId {
        self.edge_selector
            .pick(cluster, now)
            .unwrap_or_else(|| self.leader_of(cluster))
    }

    fn classify(&self, reads: &[Key], writes: &[(Key, Value)]) -> OpKind {
        let mut parts: Vec<ClusterId> = reads
            .iter()
            .map(|k| self.topo.partition_of(k))
            .chain(writes.iter().map(|(k, _)| self.topo.partition_of(k)))
            .collect();
        parts.sort_unstable();
        parts.dedup();
        if parts.len() > 1 {
            OpKind::DistributedReadWrite
        } else if reads.is_empty() {
            OpKind::LocalWriteOnly
        } else {
            OpKind::LocalReadWrite
        }
    }

    fn start_next_op(&mut self, ctx: &mut Context<'_, NetMsg>) {
        if self.inflight.is_some() || self.next_op >= self.ops.len() {
            return;
        }
        let mut op = self.ops[self.next_op].clone();
        let op_index = self.next_op;
        self.next_op += 1;
        // 2PC/BFT baseline: a read-only transaction is just a
        // read-write transaction with an empty write set.
        let mut forced_kind = None;
        if self.config.rot_via_2pc {
            if let ClientOp::ReadOnly { keys } = op {
                forced_kind = Some(OpKind::ReadOnly);
                op = ClientOp::ReadWrite {
                    reads: keys,
                    writes: vec![],
                };
            }
        }
        match op {
            ClientOp::ReadWrite { reads, writes } => {
                let kind = forced_kind.unwrap_or_else(|| self.classify(&reads, &writes));
                let mut outstanding = BTreeMap::new();
                for key in &reads {
                    let req = self.req_id();
                    let target = self.any_replica_of(self.topo.partition_of(key));
                    outstanding.insert(req, key.clone());
                    ctx.send(
                        target,
                        NetMsg::OccRead {
                            req,
                            key: key.clone(),
                        },
                    );
                }
                let inflight = Inflight {
                    op_index,
                    kind,
                    start: ctx.now(),
                    attempts: 0,
                    phase: Phase::ReadPhase {
                        collected: BTreeMap::new(),
                        outstanding,
                    },
                };
                // Write-only transactions skip straight to commit.
                if reads.is_empty() {
                    self.inflight = Some(inflight);
                    self.enter_commit_phase(writes, ctx);
                } else {
                    // Stash writes for when reads complete.
                    self.pending_writes = writes;
                    self.inflight = Some(inflight);
                }
                ctx.set_timer(self.config.retry_after, op_index as u64 + TIMER_BASE);
            }
            ClientOp::ReadOnly { keys } => {
                let query = ReadQuery::point(keys);
                self.start_query(op_index, query, ctx);
            }
            ClientOp::RangeScan { cluster, range } => {
                let query = ReadQuery::scatter_scan(vec![cluster], range, range.width());
                self.start_query(op_index, query, ctx);
            }
            ClientOp::Query { query } => self.start_query(op_index, query, ctx),
        }
    }

    fn enter_commit_phase(&mut self, writes: Vec<(Key, Value)>, ctx: &mut Context<'_, NetMsg>) {
        if self.inflight.is_none() {
            return;
        }
        let collected = match &self.inflight.as_ref().unwrap().phase {
            Phase::ReadPhase { collected, .. } => collected.clone(),
            _ => BTreeMap::new(),
        };
        self.next_txn_seq += 1;
        let txn = Transaction {
            id: TxnId::new(self.id, self.next_txn_seq),
            reads: collected
                .iter()
                .map(|(k, (_, version))| ReadOp {
                    key: k.clone(),
                    version: *version,
                })
                .collect(),
            writes: writes
                .iter()
                .map(|(k, v)| WriteOp {
                    key: k.clone(),
                    value: v.clone(),
                })
                .collect(),
        };
        // Coordinator: the first accessed partition (§3.3.1 — the
        // client picks one of the accessed clusters).
        let coordinator = txn.partitions(&self.topo)[0];
        if self.config.record_results {
            self.txn_outcomes.push(TxnOutcome {
                txn: txn.id,
                committed: false,
                reads: collected
                    .iter()
                    .map(|(k, (v, _))| (k.clone(), v.clone()))
                    .collect(),
            });
        }
        ctx.send(
            self.leader_of(coordinator),
            NetMsg::CommitRequest {
                txn: txn.clone(),
                reply_to: NodeId::Client(self.id),
            },
        );
        self.inflight.as_mut().unwrap().phase = Phase::CommitPhase { txn, coordinator };
    }

    // ------------------------------------------------------------------
    // The unified read session
    // ------------------------------------------------------------------

    /// The trusted-side checker, configured to match the deployment.
    fn read_verifier(&self) -> ReadVerifier {
        ReadVerifier::new(VerifyParams {
            tree_depth: self.config.tree_depth,
            freshness_window: self.config.freshness_window,
            quorum: self.topo.certificate_quorum(),
        })
    }

    /// Plan a [`ReadQuery`] into per-partition sub-queries and send the
    /// first round — one sub-query per partition through the edge
    /// selector, or the query whole to one edge contact.
    fn start_query(
        &mut self,
        op_index: usize,
        mut query: ReadQuery,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        // Subscription mode: every point query asks its serving edge
        // for the verified feed tail (freshness certificate).
        if self.config.subscribe && matches!(query.shape, QueryShape::Point { .. }) {
            query = query.with_feed_freshness();
        }
        let parts: Vec<PartState> = match &query.shape {
            QueryShape::Point { keys } => {
                let mut by_cluster: HashMap<ClusterId, Vec<Key>> = HashMap::new();
                for key in keys {
                    by_cluster
                        .entry(self.topo.partition_of(key))
                        .or_default()
                        .push(key.clone());
                }
                let mut parts: Vec<(ClusterId, Vec<Key>)> = by_cluster.into_iter().collect();
                parts.sort_by_key(|(c, _)| *c);
                parts
                    .into_iter()
                    .map(|(c, keys)| PartState::new(c, keys))
                    .collect()
            }
            QueryShape::Scan { clusters, .. } => {
                let mut clusters = clusters.clone();
                clusters.sort_unstable();
                clusters.dedup();
                clusters
                    .into_iter()
                    .map(|c| PartState::new(c, Vec::new()))
                    .collect()
            }
        };
        let (kind, trace_name) = match query.shape {
            QueryShape::Point { .. } => (OpKind::ReadOnly, "rot"),
            QueryShape::Scan { .. } => (OpKind::RangeScan, "scan"),
        };
        // Mint the causal trace for this operation. The context rides
        // every request hop; the whole tree is observational only.
        let trace_id = TraceId::for_op(self.id.0, op_index as u32);
        let minted_at = ctx.now();
        let root = ctx
            .trace()
            .begin(trace_id, NodeId::Client(self.id), minted_at, trace_name);
        query.trace = Some(TraceContext {
            trace: trace_id,
            span: root,
        });
        let mut session = ReadSession {
            query,
            round: 1,
            parts,
            round1_done_at: None,
        };
        // An empty plan (no keys / no clusters) completes immediately.
        if session.parts.is_empty() {
            let now = ctx.now();
            ctx.trace().complete(trace_id, now);
            self.samples.push(TxnSample {
                kind,
                start: ctx.now(),
                end: ctx.now(),
                committed: true,
                rot_round2: false,
                rot_warm: false,
                round1_latency: Some(SimDuration(0)),
            });
            self.start_next_op(ctx);
            return;
        }
        let start = ctx.now();
        // Edge-tier scatter-gather: hand the whole multi-partition
        // query to one edge contact — it splits, fetches what it
        // misses from each partition's replicas, and returns the part
        // answers in one envelope; every part is still verified here
        // against its own partition's root.
        let contact = if self.config.single_contact && session.parts.len() > 1 {
            session.parts.iter().find_map(|p| {
                self.edge_selector
                    .pick(p.cluster, start)
                    .filter(|t| matches!(t, NodeId::Edge(_)))
            })
        } else {
            None
        };
        let clusters: Vec<ClusterId> = session.parts.iter().map(|p| p.cluster).collect();
        match contact {
            Some(target) => {
                self.stats.gathers_sent += 1;
                self.dispatch(&mut session, &clusters, target, ctx);
            }
            None => {
                for cluster in clusters {
                    let target = self.read_target(cluster, start);
                    self.dispatch(&mut session, &[cluster], target, ctx);
                }
            }
        }
        self.inflight = Some(Inflight {
            op_index,
            kind,
            start,
            attempts: 0,
            phase: Phase::Query(session),
        });
        ctx.set_timer(self.config.retry_after, op_index as u64 + TIMER_BASE);
    }

    /// The one way a sub-query leaves: every part in `clusters` waits on
    /// one fresh request to `target`. One cluster sends that partition's
    /// owed sub-query; several (the single-contact first round, every
    /// part still fresh) send the query whole for the contact to split.
    fn dispatch(
        &mut self,
        session: &mut ReadSession,
        clusters: &[ClusterId],
        target: NodeId,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        // A subscriber names what it already holds, per partition.
        if session.query.feed.is_some() {
            let held = |p: &PartState| Some((p.cluster, self.feeds.get(&p.cluster)?.cursor()?));
            session.query.feed = Some(session.parts.iter().filter_map(held).collect());
        }
        let req = self.req_id();
        let query = match clusters {
            [cluster] => session.subquery(*cluster),
            _ => session.query.clone(),
        };
        let pending = Pending { req, target };
        for part in &mut session.parts {
            if clusters.contains(&part.cluster) {
                part.pending = Some(pending);
            }
        }
        ctx.send(target, NetMsg::Read { req, query });
    }

    /// Route a verified [`QueryAnswer`] into its partition's state:
    /// record the snapshot view, stash values/rows, advance pagination
    /// bookkeeping. Returns `true` when the part still owes pages.
    fn ingest_answer(
        &mut self,
        part: &mut PartState,
        answer: QueryAnswer,
        response: &ReadPayload,
        feed_run: &[Arc<RotDelta>],
    ) -> bool {
        match answer {
            QueryAnswer::Values(values) => {
                if let ReadResponse::Point { section, .. } = response {
                    part.view = Some(view_of(&section.commitment.header));
                }
                // A verified feed attachment proves the served values
                // unchanged through the feed head, so every prefix of
                // the chain — `feed_run`, the held deltas it leaned on
                // then the sent ones — is an equally certified snapshot
                // view of the same values: record the whole menu
                // (served view first, ascending to the head) and
                // tentatively adopt the head. `settle_feed_cut` later
                // picks the maximal *mutually consistent* cut across
                // partitions, so the round-2 MinEpoch re-fetch
                // disappears. (The verifier already checked the chain;
                // an empty one proves the served batch *is* the head.)
                if let Some(sent) = response.fresh_feed() {
                    self.stats.feed_deltas_reused += (feed_run.len() - sent.len()) as u64;
                    part.base_view = part.view.clone();
                    if let Some(served) = part.view.clone() {
                        part.feed_cuts = std::iter::once(served)
                            .chain(feed_run.iter().map(|d| view_of(&d.commitment.header)))
                            .collect();
                        part.view = part.feed_cuts.last().cloned();
                    }
                    self.stats.freshness_upgrades += 1;
                }
                part.values = values;
                part.done = true;
            }
            QueryAnswer::Rows { rows, next } => {
                self.stats.scans_accepted += 1;
                if let (ReadResponse::Scan { bundle }, None) = (response, &part.view) {
                    part.view = Some(view_of(&bundle.commitment.header));
                }
                part.rows.extend(rows);
                part.pages += 1;
                match next {
                    Some(token) => {
                        part.token = Some(token);
                        part.done = false;
                    }
                    None => part.done = true,
                }
            }
        }
        !part.done
    }

    /// One partition's answer arrived — alone, or as one part of a
    /// single-contact envelope: verify it against the owing sub-query,
    /// advance pagination, or blame and retry. Returns whether it
    /// verified.
    fn on_part_result(
        &mut self,
        session: &mut ReadSession,
        cluster: ClusterId,
        pending: Pending,
        response: &ReadPayload,
        ctx: &mut Context<'_, NetMsg>,
    ) -> bool {
        let sub = session.subquery(cluster);
        session.part_mut(cluster).pending = None;
        let checked = self.certs.sig_checks();
        let verified = self.read_verifier().verify_and_extend(
            &self.certs,
            cluster,
            &sub,
            response,
            self.feeds.entry(cluster).or_default(),
            ctx.now(),
        );
        // Charge what the check did — the signatures it actually
        // verified, not the ones the response carried — before anything
        // below sends, so a next page or a retry departs after it.
        let sig_checks = self.certs.sig_checks() - checked;
        let leaves = leaf_hashes(response);
        ctx.charge(|c| SimDuration(c.ed25519_verify.0 * sig_checks + c.merkle_verify.0 * leaves));
        self.stats.cert_checks_shared = self.certs.hits();
        let now = ctx.now();
        match verified {
            Ok((answer, feed_run)) => {
                if let NodeId::Edge(edge) = pending.target {
                    self.edge_selector
                        .record_success(edge.cluster, pending.target);
                }
                let mut part = std::mem::replace(
                    session.part_mut(cluster),
                    PartState::new(cluster, Vec::new()),
                );
                let more = self.ingest_answer(&mut part, answer, response, &feed_run);
                *session.part_mut(cluster) = part;
                if more {
                    // Next page: back through the selector — the pinned
                    // batch keeps the snapshot consistent even when a
                    // different node serves it.
                    let target = self.read_target(cluster, now);
                    self.dispatch(session, &[cluster], target, ctx);
                }
                true
            }
            // A pinned page continuation whose batch aged past the
            // freshness window. The timestamp is in the certified header
            // and the pin forces the batch, so every server would have
            // answered the same: nobody is blamed. *No* server can make
            // the pinned batch fresher either, so re-asking with the
            // same token would loop until the op gives up. Restart this
            // partition's pagination from page one at its current
            // floor; a fresh batch re-pins the snapshot.
            Err(ReadRejection::StaleTimestamp) if sub.page.is_some() => {
                let part = session.part_mut(cluster);
                part.restart_at_floor(part.floor);
                let target = self.read_target(cluster, now);
                self.dispatch(session, &[cluster], target, ctx);
                false
            }
            Err(rejection) => {
                // Verification failed: blame the target (demoting a
                // byzantine edge) and re-ask a real replica of the same
                // cluster (byzantine server evasion). The sub-query is
                // normally unchanged — pagination resumes exactly where
                // the lie was caught.
                self.stats.verification_failures += 1;
                if let Some(tc) = session.query.trace {
                    let me = NodeId::Client(self.id);
                    ctx.trace()
                        .marker(tc, SpanPhase::Verify, me, now, "rejected");
                    if matches!(pending.target, NodeId::Edge(_)) {
                        ctx.trace()
                            .marker(tc, SpanPhase::Gossip, me, now, "demoted");
                    }
                }
                // The selector files an edge under the partition it
                // fronts — for a single-contact part that is the
                // contact's partition, not necessarily this one.
                if let NodeId::Edge(edge) = pending.target {
                    self.edge_selector
                        .record_rejection(edge.cluster, pending.target, now);
                }
                // Gossip the catch: signed evidence with the offending
                // proof attached, pushed to a healthy edge so the whole
                // fleet demotes the liar without paying its own
                // rejected round trip. (Only cryptographic rejections
                // qualify — `witness` drops the rest — and only against
                // an edge answering for its own partition: a contact
                // that forged a part it merely couriered is shunned
                // here, not convicted fleet-wide. A rejection resting
                // on a feed delta only this client holds is no
                // evidence either: nobody else could reproduce it, so
                // it has to repeat without the window.)
                let reproducible = self.directory.is_some()
                    && self
                        .read_verifier()
                        .verify_query(&self.certs, cluster, &sub, response, now)
                        .is_err_and(|e| e == rejection);
                if let (Some(agent), NodeId::Edge(subject)) = (&mut self.directory, pending.target)
                {
                    if subject.cluster == cluster
                        && reproducible
                        && agent.witness(subject, cluster, &sub, response, &rejection, now)
                    {
                        self.stats.directory_evidence_sent += 1;
                        // Push to a *healthy* edge: the selector's best
                        // pick (the offender was just demoted above),
                        // scanning clusters in order for determinism.
                        let mut clusters: Vec<ClusterId> =
                            self.config.edges.keys().copied().collect();
                        clusters.sort_unstable();
                        let peer = clusters.into_iter().find_map(|c| {
                            self.edge_selector
                                .pick(c, now)
                                .filter(|t| t.as_edge().is_some_and(|e| e != subject))
                        });
                        if let Some(peer) = peer {
                            let delta = Box::new(agent.delta_for(peer));
                            ctx.send(peer, NetMsg::DirectoryDeltaGossip { delta });
                        }
                    }
                }
                if let Some(tc) = session.query.trace {
                    ctx.trace()
                        .marker(tc, SpanPhase::Queue, NodeId::Client(self.id), now, "retry");
                }
                let target = self.any_replica_of(cluster);
                self.dispatch(session, &[cluster], target, ctx);
                false
            }
        }
    }

    /// A read response arrived: hand every part waiting on `req` its
    /// answer — a gather envelope is just several of them — then stitch
    /// when every partition is done.
    fn on_read_result(&mut self, req: u64, response: ReadPayload, ctx: &mut Context<'_, NetMsg>) {
        let Some(mut inflight) = self.inflight.take() else {
            return;
        };
        let Phase::Query(mut session) = inflight.phase else {
            self.inflight = Some(inflight);
            return;
        };
        let owed: Vec<(ClusterId, Pending)> = session
            .parts
            .iter()
            .filter_map(|p| p.pending.filter(|s| s.req == req).map(|s| (p.cluster, s)))
            .collect();
        if owed.is_empty() {
            // Late duplicate from a previous round/page — ignore.
            inflight.phase = Phase::Query(session);
            self.inflight = Some(inflight);
            return;
        }
        // Responses travel untraced (their transit is the trace's
        // residual wire time), so the client's verification work is
        // recorded here, bracketing the per-part verify charges below.
        let verify_from = ctx.now();
        self.stats.read_result_bytes += crate::messages::read_payload_size(&response) as u64;
        // A partition the envelope has no part for gets an empty
        // envelope, which no sub-query accepts (`ShapeMismatch`).
        let absent = ReadPayload::Gather { parts: Vec::new() };
        let mut all_verified = true;
        for (cluster, pending) in &owed {
            let answer = match &response {
                ReadPayload::Gather { parts } => parts
                    .iter()
                    .find(|p| p.cluster == *cluster)
                    .map_or(&absent, |p| &p.body),
                whole => whole,
            };
            all_verified &= self.on_part_result(&mut session, *cluster, *pending, answer, ctx);
        }
        if all_verified && owed.len() > 1 {
            self.stats.gathers_accepted += 1;
        }
        if let Some(tc) = session.query.trace {
            let me = NodeId::Client(self.id);
            let until = ctx.now();
            ctx.trace()
                .span(tc, SpanPhase::Verify, me, verify_from, until, "verify");
        }
        let done = session.all_done();
        inflight.phase = Phase::Query(session);
        if !done {
            self.inflight = Some(inflight);
            return;
        }
        self.finish_query(inflight, ctx);
    }

    /// Every partition answered and verified: run the cross-partition
    /// dependency check (Algorithm 2 — the torn-read check of the
    /// stitch), re-running partitions below their required floor, or
    /// complete the operation.
    fn finish_query(&mut self, mut inflight: Inflight, ctx: &mut Context<'_, NetMsg>) {
        let Phase::Query(mut session) = inflight.phase else {
            return;
        };
        let now = ctx.now();
        session.settle_feed_cut();
        let unsatisfied = verify_dependencies(&session.views());
        let actionable: Vec<(ClusterId, Epoch)> = unsatisfied
            .into_iter()
            .filter(|(c, _)| session.parts.iter().any(|p| p.cluster == *c))
            .collect();
        if !actionable.is_empty() {
            if session.round >= 2 {
                // Theorem 4.6 says this cannot happen; count it loudly
                // (ROADMAP open item 1) and satisfy it with another
                // round anyway.
                self.stats.third_round_needed += 1;
            }
            if session.round1_done_at.is_none() {
                session.round1_done_at = Some(now);
            }
            session.round += 1;
            for (cluster, min_epoch) in actionable {
                session.part_mut(cluster).restart_at_floor(min_epoch);
                let target = self.read_target(cluster, now);
                self.dispatch(&mut session, &[cluster], target, ctx);
            }
            inflight.phase = Phase::Query(session);
            self.inflight = Some(inflight);
            return;
        }
        // Done: sample, record, advance. When feed attachments upgraded
        // any view, re-run the dependency check on the *un-upgraded*
        // views to count the round-2 re-fetches the subscription
        // actually eliminated (not merely could have).
        if session.parts.iter().any(|p| p.base_view.is_some()) {
            let would_have = verify_dependencies(&session.base_views());
            if would_have
                .iter()
                .any(|(c, _)| session.parts.iter().any(|p| p.cluster == *c))
            {
                self.stats.round2_skipped_by_feed += 1;
            }
        }
        // Close out the causal trace: the round-2 tail (everything
        // after round 1 settled) gets its own phase span, then the
        // root is stamped and the trace freezes into the flight
        // recorder once the simulator records this handler's span.
        if let Some(tc) = session.query.trace {
            if let Some(r1) = session.round1_done_at {
                ctx.trace().span(
                    tc,
                    SpanPhase::Round2,
                    NodeId::Client(self.id),
                    r1,
                    now,
                    "round-2",
                );
            }
            ctx.trace().defer_complete(tc.trace, now);
        }
        let needed_round2 = session.round > 1;
        // Warm iff every partition's final answer was a cached replay
        // carrying a verified feed attachment (its certified view menu
        // is recorded in `feed_cuts`). A cold forward or a round-2
        // re-fetch clears the part's menu, so mixed reads don't count.
        let all_warm = matches!(session.query.shape, QueryShape::Point { .. })
            && !session.parts.is_empty()
            && session.parts.iter().all(|p| !p.feed_cuts.is_empty());
        self.samples.push(TxnSample {
            kind: inflight.kind,
            start: inflight.start,
            end: now,
            committed: true,
            rot_round2: needed_round2,
            rot_warm: all_warm,
            round1_latency: if matches!(session.query.shape, QueryShape::Point { .. }) {
                Some(
                    session
                        .round1_done_at
                        .unwrap_or(now)
                        .saturating_since(inflight.start),
                )
            } else {
                None
            },
        });
        if self.config.record_results {
            let snapshot: Vec<(ClusterId, BatchNum)> = session
                .parts
                .iter()
                .filter_map(|p| p.view.as_ref().map(|v| (p.cluster, v.batch)))
                .collect();
            self.query_results.push(QueryOutcome {
                values: session
                    .parts
                    .iter()
                    .flat_map(|p| p.values.clone())
                    .collect(),
                rows: if matches!(session.query.shape, QueryShape::Point { .. }) {
                    Vec::new()
                } else {
                    session
                        .parts
                        .iter()
                        .map(|p| (p.cluster, p.rows.clone()))
                        .collect()
                },
                snapshot,
                needed_round2,
                pages: session.parts.iter().map(|p| p.pages).sum(),
            });
        }
        self.inflight = None;
        self.start_next_op(ctx);
    }

    fn finish_rw(&mut self, txn: TxnId, committed: bool, ctx: &mut Context<'_, NetMsg>) {
        let Some(inflight) = self.inflight.take() else {
            return;
        };
        let Phase::CommitPhase { txn: ref t, .. } = inflight.phase else {
            self.inflight = Some(inflight);
            return;
        };
        if t.id != txn {
            self.inflight = Some(inflight);
            return;
        }
        self.samples.push(TxnSample {
            kind: inflight.kind,
            start: inflight.start,
            end: ctx.now(),
            committed,
            rot_round2: false,
            rot_warm: false,
            round1_latency: None,
        });
        if self.config.record_results {
            if let Some(last) = self.txn_outcomes.last_mut() {
                if last.txn == txn {
                    last.committed = committed;
                }
            }
        }
        self.inflight = None;
        self.start_next_op(ctx);
    }
}

const TIMER_BASE: u64 = 1_000_000;
/// Deferred start (`ClientConfig::start_delay`).
const TIMER_BOOT: u64 = 999_998;
/// Bound on waiting for the startup directory pull.
const TIMER_SEED: u64 = 999_999;

impl Actor<NetMsg> for ClientActor {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        if self.config.start_delay > SimDuration(0) {
            ctx.set_timer(self.config.start_delay, TIMER_BOOT);
        } else {
            self.boot(ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        let _ = from;
        match msg {
            NetMsg::OccReadResp {
                req,
                key,
                value,
                version,
            } => {
                let done = {
                    let Some(inflight) = &mut self.inflight else {
                        return;
                    };
                    let Phase::ReadPhase {
                        collected,
                        outstanding,
                    } = &mut inflight.phase
                    else {
                        return;
                    };
                    if outstanding.remove(&req).is_none() {
                        return;
                    }
                    collected.insert(key, (value, version));
                    outstanding.is_empty()
                };
                if done {
                    let writes = std::mem::take(&mut self.pending_writes);
                    self.enter_commit_phase(writes, ctx);
                }
            }
            NetMsg::TxnResult { txn, committed, .. } => {
                self.finish_rw(txn, committed, ctx);
            }
            NetMsg::ReadResult { req, result } => {
                self.on_read_result(req, result, ctx);
            }
            // The startup answer, or the pull half of an evidence push.
            // A client is a leaf of the exchange: it never answers.
            NetMsg::DirectoryDeltaGossip { delta } => {
                let now = ctx.now();
                if let Some(agent) = &mut self.directory {
                    agent.ingest_delta(from, &delta, self.certs.keys(), now);
                    self.stats.directory_seeded += 1;
                    self.seed_selector(now);
                }
                if self.waiting_seed {
                    self.waiting_seed = false;
                    self.start_next_op(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NetMsg>) {
        if token == TIMER_BOOT {
            self.boot(ctx);
            return;
        }
        if token == TIMER_SEED {
            // The pull target never answered; start cold rather than
            // wedge (the directory is an optimisation, not a
            // dependency).
            if self.waiting_seed {
                self.waiting_seed = false;
                self.start_next_op(ctx);
            }
            return;
        }
        // Retry timer for the op it was armed for.
        let Some(mut inflight) = self.inflight.take() else {
            return;
        };
        if token != inflight.op_index as u64 + TIMER_BASE {
            self.inflight = Some(inflight);
            return;
        }
        let now = ctx.now();
        inflight.attempts += 1;
        if inflight.attempts > self.config.max_retries {
            // Give up: record as aborted.
            self.stats.gave_up += 1;
            if let Phase::Query(session) = &inflight.phase {
                if let Some(tc) = session.query.trace {
                    let me = NodeId::Client(self.id);
                    ctx.trace().marker(tc, SpanPhase::Queue, me, now, "gave-up");
                    ctx.trace().defer_complete(tc.trace, now);
                }
            }
            self.samples.push(TxnSample {
                kind: inflight.kind,
                start: inflight.start,
                end: now,
                committed: false,
                rot_round2: false,
                rot_warm: false,
                round1_latency: None,
            });
            self.start_next_op(ctx);
            return;
        }
        self.stats.retries += 1;
        // Re-send whatever is outstanding.
        let n = self.topo.replicas_per_cluster();
        match &mut inflight.phase {
            Phase::ReadPhase { outstanding, .. } => {
                for (req, key) in outstanding {
                    let target = self.any_replica_of(self.topo.partition_of(key));
                    ctx.send(
                        target,
                        NetMsg::OccRead {
                            req: *req,
                            key: key.clone(),
                        },
                    );
                }
            }
            Phase::CommitPhase { txn, coordinator } => {
                // Rotate the target replica on every retry — the paper
                // has clients contact f+1 nodes so a dead or byzantine
                // leader cannot blackhole them (§3.3.1); replicas
                // forward to their current leader.
                let target = ReplicaId::new(*coordinator, (inflight.attempts % n as u32) as u16);
                ctx.send(
                    NodeId::Replica(target),
                    NetMsg::CommitRequest {
                        txn: txn.clone(),
                        reply_to: NodeId::Client(self.id),
                    },
                );
            }
            Phase::Query(session) => {
                if let Some(tc) = session.query.trace {
                    ctx.trace()
                        .marker(tc, SpanPhase::Queue, NodeId::Client(self.id), now, "retry");
                }
                let unanswered: Vec<(ClusterId, Pending)> = session
                    .parts
                    .iter()
                    .filter_map(|p| p.pending.map(|s| (p.cluster, s)))
                    .collect();
                for (cluster, pending) in unanswered {
                    // An unanswered edge request counts against the
                    // edge (crash/partition suspicion) — enough of them
                    // demote it and later picks route elsewhere.
                    if let NodeId::Edge(edge) = pending.target {
                        self.edge_selector
                            .record_failure(edge.cluster, pending.target, now);
                    }
                    // Retries rotate over real replicas so a dead or
                    // byzantine edge cannot blackhole the client.
                    let replica = ReplicaId::new(cluster, (inflight.attempts % n as u32) as u16);
                    self.dispatch(session, &[cluster], NodeId::Replica(replica), ctx);
                }
            }
        }
        ctx.set_timer(self.config.retry_after, token);
        self.inflight = Some(inflight);
    }
}
