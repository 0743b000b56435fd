//! The TransEdge client: OCC read-write transactions and the unified
//! proof-carrying read-query protocol.
//!
//! A client actor executes a scripted sequence of operations
//! ([`ClientOp`]), one at a time (closed loop — the paper's "2 clients
//! running 10 threads" maps to 20 such actors). Every read-only shape —
//! point snapshot reads, verified range scans of one window per
//! partition, cross-partition scatter-gather — runs through one
//! `ReadSession`: it plans per-partition sub-queries from a
//! [`ReadQuery`] ([`ReadQuery::split`], the split a contact edge runs
//! too), sends every one of them — first round, restart, retry,
//! resend — through one `dispatch` (via the [`EdgeSelector`], or whole
//! to one edge contact), credits each answer to the part its certified
//! header names, verifies it end to end in one `on_part_result`
//! (`ReadVerifier::verify_query`: certificates, Merkle proofs,
//! completeness), stitches the verified sections into one result, and
//! re-runs partitions whose snapshots fail the cross-partition
//! dependency check (Algorithm 2) with an explicit LCE floor — the
//! round-2 semantics, uniform across shapes.

use std::collections::BTreeMap;
use std::sync::Arc;

use transedge_common::{
    BatchNum, ClientId, ClusterId, ClusterTopology, Epoch, Key, NodeId, ReplicaId, SimDuration,
    SimTime, TxnId, Value,
};
use transedge_consensus::Certificate;
use transedge_crypto::range::MAX_RANGE_BUCKETS;
use transedge_crypto::{KeyStore, Keypair, ScanRange};
use transedge_directory::DirectoryAgent;
use transedge_edge::{
    same_batch_conflict, Body, CertifiedDelta, Chase, CommittedHeader, FeedWindow, QueryAnswer,
    QueryShape, ReadQuery, ReadRejection, ReadResponse, ReadVerifier, SnapshotPolicy,
    VerifiedCerts, VerifyParams,
};
use transedge_obs::{MetricRegistry, RegisterMetrics, SpanPhase, TraceContext, TraceId};
use transedge_simnet::{Actor, Context};

use crate::batch::{BatchHeader, ReadOp, Transaction, WriteOp};
use crate::config::ClientProfile;
use crate::deps::{self, Plan, RotView, Step};
use crate::edge_select::EdgeSelector;
use crate::messages::NetMsg;
use crate::metrics::{OpKind, TxnSample};
use crate::setup::DeploymentConfig;

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
    /// point sets, scatter-gather scans, snapshot policies.
    Query { query: ReadQuery },
}

/// What a deployment's clients share. Verification parameters are not
/// in it (a client checks proofs at its deployment's node parameters),
/// nor is what one client does differently from another
/// ([`ClientProfile`]).
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Re-send unanswered requests after this long.
    pub retry_after: SimDuration,
    /// Give up on an operation after this many retries.
    pub max_retries: u32,
    /// Keep full results (values read) for inspection by tests.
    pub record_results: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            retry_after: SimDuration::from_millis(500),
            max_retries: 20,
            record_results: false,
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
    /// The query's shape restricted to this partition: its point keys,
    /// or the scan of this partition alone.
    shape: QueryShape,
    /// Round-2 LCE floor ([`Epoch::NONE`] until the dependency check
    /// demands one).
    floor: Epoch,
    /// The certified snapshot views of the partition's answer
    /// ([`deps::Part::menu`]): the served view, then with a verified
    /// feed attachment one per delta — held ones, then sent ones — up
    /// to the head. Empty until the part answers.
    views: Vec<RotView>,
    /// The entry of `views` the part holds: the head until
    /// [`deps::plan`] settles a lower consistent cut.
    cut: usize,
    /// The answer carried a verified feed attachment.
    fed: bool,
    values: Vec<(Key, Option<Value>)>,
    rows: Vec<(Key, Value)>,
    /// The sub-query in flight for this part, if any.
    pending: Option<Pending>,
    /// The request id a replica answers under when it chases this part
    /// on another part's behalf ([`Chase`]): fresh each round unless
    /// the part waits on it, so a chase from an earlier round never
    /// matches.
    chase: u64,
    /// The chased answer with the highest LCE that arrived before this
    /// part waited on it.
    early: Option<ReadResponse>,
    /// The other parts (and the floors named for them) that the request
    /// this part's answer comes from asked its replica to chase.
    asked: Vec<(ClusterId, Epoch)>,
    done: bool,
}

impl PartState {
    fn new(cluster: ClusterId, shape: QueryShape) -> Self {
        PartState {
            cluster,
            shape,
            floor: Epoch::NONE,
            views: Vec::new(),
            cut: 0,
            fed: false,
            values: Vec::new(),
            rows: Vec::new(),
            pending: None,
            chase: 0,
            early: None,
            asked: Vec::new(),
            done: false,
        }
    }

    /// The snapshot view the part holds, once it has answered.
    fn view(&self) -> Option<&RotView> {
        self.views.get(self.cut)
    }

    /// What the round decision reads of this part.
    fn input(&self) -> deps::Part<'_> {
        deps::Part {
            menu: &self.views,
            asked: &self.asked,
        }
    }

    /// Does this part wait on a replica's chase rather than a request
    /// of its own?
    fn waits_on_chase(&self) -> bool {
        self.pending.is_some_and(|p| p.req == self.chase)
    }

    /// Restart this partition from scratch at a new LCE floor (round
    /// two: its snapshot failed the dependency check).
    fn restart_at_floor(&mut self, floor: Epoch) {
        self.floor = floor;
        self.views.clear();
        self.cut = 0;
        self.fed = false;
        self.done = false;
        self.values.clear();
        self.rows.clear();
    }
}

/// The planner/assembler behind every read shape: one session per
/// in-flight [`ReadQuery`]. It owns the per-partition sub-query plan —
/// each part carrying its own in-flight request and verified results
/// awaiting the final stitch.
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
    /// query restricted to that partition, at the part's floor.
    fn subquery(&self, cluster: ClusterId) -> ReadQuery {
        let part = self.part(cluster);
        let consistency = if part.floor.is_none() {
            self.query.consistency
        } else {
            SnapshotPolicy::MinEpoch(part.floor)
        };
        ReadQuery {
            consistency,
            shape: part.shape.clone(),
            feed: self.query.feed_for(cluster),
            held: self
                .query
                .held_for(cluster)
                .map(|d| (cluster, d))
                .into_iter()
                .collect(),
            reply_to: None,
            chase: Vec::new(),
            trace: self.query.trace,
        }
    }

    /// What a replica serving `cluster`'s point part is to chase: every
    /// other point part not already waiting on a chase, with the LCE
    /// held for it (its view's, or its floor while it has none).
    fn chase_entries(&self, cluster: ClusterId) -> Vec<Chase> {
        self.parts
            .iter()
            .filter(|p| p.cluster != cluster && !p.waits_on_chase())
            .filter_map(|p| {
                let QueryShape::Point { keys } = &p.shape else {
                    return None;
                };
                Some(Chase {
                    cluster: p.cluster,
                    keys: keys.clone(),
                    floor: p.view().map_or(p.floor, |v| v.lce.max(p.floor)),
                    req: p.chase,
                })
            })
            .collect()
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
fn leaf_hashes(response: &ReadResponse) -> u64 {
    let claimed = match &response.body {
        Body::Point { body, fresh } => {
            return (fresh.as_ref().map_or(0, Vec::len) + body.keys().len()) as u64
        }
        Body::Scan(scan) => &scan.range,
    };
    claimed
        .last
        .saturating_sub(claimed.first)
        .saturating_add(1)
        .min(MAX_RANGE_BUCKETS)
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

transedge_obs::counters! {
    /// Aggregate client statistics beyond per-op samples.
    #[derive(Clone, Debug, Default)]
    pub struct ClientStats {
        "client." {
            /// Responses that failed certificate / proof / freshness checks —
            /// evidence of byzantine servers.
            verification_failures,
            /// Extra rounds: one for each round a read took past its second,
            /// so a read of five rounds counts three. Theorem 4.6 says never,
            /// yet it is not 0 here: a round-two batch can import a dependency
            /// past an LCE the client already holds
            /// (`deps::tests::round_two_imports_a_dependency_past_a_held_lce`).
            /// The benchmark's `mixed-rw` workload takes extra rounds (58 / 49 /
            /// 40 at seeds 1 / 7 / 13), its gate tolerates the monitor's verdict
            /// on them and no test asserts zero — ROADMAP `[third-round]`.
            third_round_needed,
            /// Further rounds whose part waited on a replica's chase instead of
            /// sending a request ([`Chase`]).
            chase_waits,
            /// Chased answers that arrived before their part waited on them.
            chase_early,
            /// Chased answers dropped unread below their part's floor (a
            /// smaller demand another part's replica chased).
            chase_dropped,
            retries,
            gave_up,
            /// Verified scan windows accepted.
            scans_accepted,
            /// Cross-partition queries sent to a single edge contact.
            gathers_sent,
            /// Directory deltas ingested (startup answer + pull-half replies).
            directory_seeded,
            /// Signed rejection-evidence records pushed into the gossip layer.
            directory_evidence_sent,
        }
        "query." {
            /// Certificate checks skipped because this client had already
            /// verified that exact certificate — in an earlier response (a
            /// repeat batch, a feed tail seen on the previous read) or earlier
            /// in the same one. One per skipped check, whatever its `f+1`.
            cert_checks_shared,
            /// Total wire bytes of every read response this client received
            /// (structural sizes).
            read_result_bytes,
            /// Responses whose attached delta-feed tail verified, upgrading the
            /// partition view to the feed head (subscription mode).
            freshness_upgrades,
            /// Queries whose round-2 MinEpoch re-fetch was eliminated because a
            /// verified feed attachment already satisfied the dependency floor
            /// the un-upgraded snapshot would have missed.
            round2_skipped_by_feed,
            /// Held feed deltas that stood in for ones an edge would otherwise
            /// have shipped again (the saving the feed cursor buys).
            feed_deltas_reused,
        }
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
    feeds: BTreeMap<ClusterId, FeedWindow>,
    /// Per partition, the newest certified anchor (header and
    /// certificate) of a full answer that passed verification (trusted
    /// state, beside the memo): named to servers as held, so they send
    /// only the body, and rebuilt around every held answer before it is
    /// verified. One entry per partition, no capacity knob.
    anchors: BTreeMap<ClusterId, (CommittedHeader, Certificate)>,
    pub config: ClientConfig,
    /// What this client does differently from the rest of the fleet.
    pub profile: ClientProfile,
    /// The deployment's verification parameters.
    verify: VerifyParams,
    ops: Vec<ClientOp>,
    next_op: usize,
    inflight: Option<Inflight>,
    next_req: u64,
    next_txn_seq: u64,
    /// Spread OCC reads over replicas.
    read_rr: u64,
    /// Edge selection for read-only rounds.
    pub edge_selector: EdgeSelector,
    /// Directory participation (when the deployment's edge tier
    /// gossips): holds the ingested fleet state, signs this client's
    /// rejection evidence. It pulls the fleet's evidence at startup
    /// (fleet-wide demotions land *before* the first contact), and
    /// pushes signed rejection evidence after verification failures so
    /// other clients get the same head start. Hints only — correctness
    /// never depends on them.
    directory: Option<DirectoryAgent>,
    /// Startup: a directory pull is outstanding; the first op starts
    /// when the answer arrives (or the seed timer gives up waiting).
    waiting_seed: bool,
    /// Writes buffered while the read phase runs.
    pending_writes: Vec<(Key, Value)>,
    pub samples: Vec<TxnSample>,
    pub query_results: Vec<QueryOutcome>,
    pub txn_outcomes: Vec<TxnOutcome>,
    /// Every [`ReadRejection::Fork`] a read failed closed on, each
    /// carrying both conflicting anchors.
    pub forks: Vec<ReadRejection>,
    pub stats: ClientStats,
}

impl ClientActor {
    /// A client of `deployment`, running `ops` as `profile` says.
    pub fn new(
        id: ClientId,
        deployment: &DeploymentConfig,
        keys: KeyStore,
        keypair: Keypair,
        profile: ClientProfile,
        ops: Vec<ClientOp>,
    ) -> Self {
        // Every client knows every edge (untrusted caches; responses
        // still verify end to end) of each partition. Its selector,
        // seeded by client id so a fleet of clients spreads over the
        // tier from the start, skips any it demoted — on consecutive
        // timeouts, one verified byzantine rejection or a directory
        // hint — and partitions without a candidate left are read from
        // the cluster itself. Verification failures and retries always
        // fall back to real replicas, so a byzantine edge cannot wedge
        // a client.
        let mut edge_selector = EdgeSelector::new(id.0 as u64);
        for edge in deployment.edge_ids() {
            edge_selector.register(edge.cluster, NodeId::Edge(edge));
        }
        // A gossiping edge tier makes clients take part: startup pull
        // and evidence push.
        let verify = deployment.verify_params();
        let gossips = deployment.edge.per_cluster > 0 && deployment.edge.directory.is_some();
        let directory = gossips
            .then(|| DirectoryAgent::new(NodeId::Client(id), keypair, ReadVerifier::new(verify)));
        ClientActor {
            id,
            topo: deployment.topo.clone(),
            certs: VerifiedCerts::new(keys.with_memo()),
            feeds: BTreeMap::new(),
            anchors: BTreeMap::new(),
            config: deployment.client.clone(),
            profile,
            verify,
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
            forks: Vec::new(),
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
    pub fn feed_window(&self, cluster: ClusterId) -> Option<&FeedWindow> {
        self.feeds.get(&cluster)
    }

    /// The directory participant, when enabled.
    pub fn directory(&self) -> Option<&DirectoryAgent> {
        self.directory.as_ref()
    }

    /// Begin the scripted run: when the directory is enabled, first
    /// pull one edge's records so fleet-known byzantine edges are
    /// demoted *before* this client ever contacts them. A seed timer
    /// bounds the wait (a dead or shunned pull target must not wedge
    /// the client).
    fn boot(&mut self, ctx: &mut Context<'_, NetMsg>) {
        if self.directory.is_some() {
            let now = ctx.now();
            let target = self
                .topo
                .clusters()
                .find_map(|cluster| self.edge_selector.pick(cluster, now));
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

    /// A transaction that reads and writes nothing is a read-only one
    /// (how the 2PC/BFT baseline runs its reads); the rest go by the
    /// partitions they touch.
    fn classify(&self, reads: &[Key], writes: &[(Key, Value)]) -> OpKind {
        if writes.is_empty() && !reads.is_empty() {
            return OpKind::ReadOnly;
        }
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
        let op = self.ops[self.next_op].clone();
        let op_index = self.next_op;
        self.next_op += 1;
        match op {
            ClientOp::ReadWrite { reads, writes } => {
                let kind = self.classify(&reads, &writes);
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
                self.start_query(op_index, ReadQuery::scan(cluster, range), ctx);
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
        ReadVerifier::new(self.verify)
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
        if self.profile.subscribe && matches!(query.shape, QueryShape::Point { .. }) {
            query = query.with_feed_freshness();
        }
        let parts: Vec<PartState> = query
            .split(&self.topo)
            .into_iter()
            .map(|(cluster, part)| PartState::new(cluster, part.shape))
            .collect();
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
        // A scan no honest replica serves — outside the leaf space or
        // wider than one window — fails before any send: asking would
        // only retry until the op gives up.
        let unservable = match &session.query.shape {
            QueryShape::Scan { range, .. } => !range.is_valid_for_depth(self.verify.tree_depth),
            QueryShape::Point { .. } => false,
        };
        if unservable {
            let phase = Phase::Query(session);
            let inflight = Inflight {
                op_index,
                kind,
                start,
                attempts: 0,
                phase,
            };
            self.fail_op(inflight, SpanPhase::Queue, "unservable", ctx);
            return;
        }
        // Single contact: hand the whole multi-partition query to one
        // edge — it splits it as we did, fetches what it misses from
        // each partition's replicas, and sends each partition's answer
        // as soon as it has it; each is verified here against its own
        // partition's root.
        let contact = if self.profile.single_contact && session.parts.len() > 1 {
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
    /// part still fresh) send the query whole for the contact to split,
    /// and each part's answer comes back on its own under the one id.
    /// A point part of round two or later sent straight to a replica
    /// names the read's other point parts for that replica to chase.
    fn dispatch(
        &mut self,
        session: &mut ReadSession,
        clusters: &[ClusterId],
        target: NodeId,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        // A subscriber names the feed deltas it already holds, and every
        // client the anchors, per partition.
        if session.query.feed.is_some() {
            let held = |p: &PartState| Some((p.cluster, self.feeds.get(&p.cluster)?.cursor()?));
            session.query.feed = Some(session.parts.iter().filter_map(held).collect());
        }
        let held = |p: &PartState| Some((p.cluster, self.anchors.get(&p.cluster)?.1.digest));
        session.query.held = session.parts.iter().filter_map(held).collect();
        let req = self.req_id();
        let query = match clusters {
            [cluster] => {
                let mut query = session.subquery(*cluster);
                if session.round >= 2
                    && matches!(target, NodeId::Replica(_))
                    && matches!(query.shape, QueryShape::Point { .. })
                {
                    query.chase = session.chase_entries(*cluster);
                }
                query
            }
            _ => session.query.clone(),
        };
        let pending = Pending { req, target };
        for part in &mut session.parts {
            if clusters.contains(&part.cluster) {
                part.pending = Some(pending);
                part.asked = query.chase.iter().map(|c| (c.cluster, c.floor)).collect();
            }
        }
        ctx.send(target, NetMsg::Read { req, query });
    }

    /// Route a verified [`QueryAnswer`] into its partition's state:
    /// record the snapshot view, stash values/rows.
    fn ingest_answer(
        &mut self,
        part: &mut PartState,
        answer: QueryAnswer,
        response: &ReadResponse,
        feed_run: &[Arc<CertifiedDelta>],
    ) {
        match answer {
            QueryAnswer::Values(values) => {
                // A verified feed attachment proves the served values
                // unchanged through the feed head, so every prefix of
                // the chain — `feed_run`, the held deltas it leaned on
                // then the sent ones — is an equally certified snapshot
                // view of the same values: the menu holds them all,
                // served view first, and the part tentatively holds the
                // head. `deps::plan` later settles the maximal
                // *mutually consistent* cut across partitions, so the
                // round-2 MinEpoch re-fetch disappears. (The verifier
                // already checked the chain; an empty one proves the
                // served batch *is* the head.)
                if let Some((commitment, _)) = response.anchor() {
                    part.views.reserve_exact(1 + feed_run.len());
                    part.views.push(view_of(&commitment.header));
                }
                if let Some(sent) = response.fresh_feed() {
                    self.stats.feed_deltas_reused += (feed_run.len() - sent.len()) as u64;
                    self.stats.freshness_upgrades += 1;
                    part.fed = true;
                }
                part.views
                    .extend(feed_run.iter().map(|d| view_of(&d.commitment.header)));
                part.cut = part.views.len().saturating_sub(1);
                part.values = values;
            }
            QueryAnswer::Rows(rows) => {
                self.stats.scans_accepted += 1;
                if let Some((commitment, _)) = response.anchor() {
                    part.views.push(view_of(&commitment.header));
                }
                part.rows = rows;
            }
        }
        part.done = true;
    }

    /// One partition's answer arrived: verify it against the owing
    /// sub-query, or blame and retry. An answer whose anchor forks the
    /// partition's history comes back as the [`ReadRejection::Fork`]
    /// the whole read fails on.
    fn on_part_result(
        &mut self,
        session: &mut ReadSession,
        cluster: ClusterId,
        pending: Pending,
        response: &ReadResponse,
        ctx: &mut Context<'_, NetMsg>,
    ) -> Result<(), ReadRejection> {
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
        // below sends, so a retry departs after it.
        let sig_checks = self.certs.sig_checks() - checked;
        let leaves = leaf_hashes(response);
        ctx.charge(|c| SimDuration(c.ed25519_verify.0 * sig_checks + c.merkle_verify.0 * leaves));
        self.stats.cert_checks_shared = self.certs.hits();
        let now = ctx.now();
        let verified = verified.and_then(|ok| match self.fork_with_held(cluster, response) {
            Some(fork) => Err(fork),
            None => Ok(ok),
        });
        match verified {
            Ok((answer, feed_run)) => {
                self.hold_anchor(cluster, response);
                if let NodeId::Edge(edge) = pending.target {
                    self.edge_selector
                        .record_success(edge.cluster, pending.target);
                }
                let part = session.part_mut(cluster);
                self.ingest_answer(part, answer, response, &feed_run);
            }
            // Two certified histories of one batch: the server may be
            // honest and no other could answer better, so the read fails
            // closed — no retry, nobody demoted, no directory evidence.
            Err(fork @ ReadRejection::Fork { .. }) => return Err(fork),
            Err(rejection) => {
                // Verification failed: blame the target (demoting a
                // byzantine edge) and re-ask a real replica of the same
                // cluster (byzantine server evasion) the unchanged
                // sub-query.
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
                        let peer = self.topo.clusters().find_map(|c| {
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
            }
        }
        Ok(())
    }

    /// The fork a verified answer for `cluster` exposes: its anchor and
    /// the one held there name one batch under different certified
    /// digests ([`same_batch_conflict`]). A held answer was rebuilt
    /// around the held anchor, so it never forks.
    fn fork_with_held(&self, cluster: ClusterId, response: &ReadResponse) -> Option<ReadRejection> {
        let (commitment, cert) = self.anchors.get(&cluster)?;
        same_batch_conflict((commitment, cert), response.anchor()?)
    }

    /// Keep the anchor of a verified full answer for `cluster` when it
    /// is newer than the one held (a rebuilt answer's is the held one;
    /// one at the held batch number is the same anchor, or a fork
    /// `fork_with_held` already failed the read on).
    fn hold_anchor(&mut self, cluster: ClusterId, response: &ReadResponse) {
        let Some((commitment, cert)) = response.anchor() else {
            return;
        };
        let newer = self
            .anchors
            .get(&cluster)
            .is_none_or(|(held, _)| held.header.num < commitment.header.num);
        if newer {
            self.anchors
                .insert(cluster, (commitment.clone(), cert.clone()));
        }
    }

    /// A read response arrived: credit it to the part that waits on
    /// `req` and whose partition the answer's certified header (or held
    /// reference) names, rebuild a held answer around this client's
    /// newest anchor for that partition, then stitch when every
    /// partition is done. A chased answer that comes before its part
    /// waits on it is kept for the dependency check, the one with the
    /// highest LCE; one below the floor of the part waiting on it (a
    /// smaller demand another part's replica chased) is dropped. Any
    /// other answer — for a partition the request does not owe, a
    /// repeat for a part already verified, a late one from a previous
    /// round, or a held answer naming an anchor other than the newest
    /// held here — is dropped unread too: never verified, nobody
    /// blamed, and the part's retry re-asks.
    fn on_read_result(&mut self, req: u64, response: ReadResponse, ctx: &mut Context<'_, NetMsg>) {
        let Some(mut inflight) = self.inflight.take() else {
            return;
        };
        let Phase::Query(session) = &mut inflight.phase else {
            self.inflight = Some(inflight);
            return;
        };
        let cluster = response.cluster();
        let lce = response.anchor().map(|(c, _)| c.header.lce);
        if let Some(part) = session
            .parts
            .iter_mut()
            .find(|p| p.cluster == cluster && p.chase == req)
        {
            if !part.waits_on_chase() {
                self.stats.chase_early += 1;
                let kept = part.early.as_ref().and_then(|e| e.anchor());
                if lce.is_some_and(|lce| kept.is_none_or(|(c, _)| c.header.lce < lce)) {
                    part.early = Some(response);
                }
                self.inflight = Some(inflight);
                return;
            }
            if lce.is_some_and(|lce| lce < part.floor) {
                self.stats.chase_dropped += 1;
                self.inflight = Some(inflight);
                return;
            }
        }
        let owed = session
            .parts
            .iter()
            .find(|p| p.cluster == cluster)
            .and_then(|p| p.pending)
            .filter(|s| s.req == req);
        let size = response.wire_size() as u64;
        let readable = owed.and_then(|pending| match response.anchor() {
            Some(_) => Some((pending, response)),
            None => self
                .anchors
                .get(&cluster)
                .filter(|(held, _)| held.header.num == response.batch())
                .map(|anchor| (pending, response.rebuild((&anchor.0, &anchor.1)))),
        });
        let Some((pending, response)) = readable else {
            self.inflight = Some(inflight);
            return;
        };
        // Responses travel untraced (their transit is the trace's
        // residual wire time), so the client's verification work is
        // recorded here, bracketing the verify charge below.
        let verify_from = ctx.now();
        self.stats.read_result_bytes += size;
        let verdict = self.on_part_result(session, cluster, pending, &response, ctx);
        if let Some(tc) = session.query.trace {
            let me = NodeId::Client(self.id);
            let until = ctx.now();
            ctx.trace()
                .span(tc, SpanPhase::Verify, me, verify_from, until, "verify");
        }
        if let Err(fork) = verdict {
            self.forks.push(fork);
            self.fail_op(inflight, SpanPhase::Verify, "fork", ctx);
        } else if session.parts.iter().all(|p| p.done) {
            self.finish_query(inflight, ctx);
        } else {
            self.inflight = Some(inflight);
        }
    }

    /// Every partition answered and verified: run the round decision
    /// ([`deps::plan`]: the cut, Algorithm 2 — the torn-read check of
    /// the stitch — and the chase prediction), then either complete the
    /// operation or carry out the next round's steps.
    fn finish_query(&mut self, mut inflight: Inflight, ctx: &mut Context<'_, NetMsg>) {
        let Phase::Query(session) = &mut inflight.phase else {
            return;
        };
        let now = ctx.now();
        let (cut, steps, skipped_by_feed) = match deps::plan(&session.parts, PartState::input) {
            Plan::Done {
                cut,
                skipped_by_feed,
            } => (cut, None, skipped_by_feed),
            Plan::Round { cut, steps } => (cut, Some(steps), false),
        };
        for (part, view) in session.parts.iter_mut().zip(cut) {
            part.cut = view;
        }
        // The served views alone would have needed round 2: the feed
        // attachments eliminated a re-fetch (not merely could have).
        self.stats.round2_skipped_by_feed += u64::from(skipped_by_feed);
        // Another round: restart every part asked or waiting at its
        // floor before any is sent, so the chase entries name the new
        // floors; mint fresh chase ids for every part not waiting, so
        // a chase from an earlier round never matches; send the asks
        // in cluster order; then replay the chased answers that came
        // early and reach their part's new floor.
        if let Some(steps) = steps {
            if session.round >= 2 {
                // Theorem 4.6 says two rounds suffice, but a round-two
                // batch can import a dependency past an LCE this client
                // holds (ROADMAP `[third-round]`): count it and satisfy
                // it with another round.
                self.stats.third_round_needed += 1;
            }
            if session.round1_done_at.is_none() {
                session.round1_done_at = Some(now);
            }
            session.round += 1;
            let (mut sends, mut early) = (Vec::new(), Vec::new());
            for (part, step) in session.parts.iter_mut().zip(steps) {
                match step {
                    Step::Keep => {}
                    Step::Ask { floor } => {
                        part.restart_at_floor(floor);
                        sends.push(part.cluster);
                    }
                    // A waiting part keeps its chase id, and a chased
                    // answer that came early and reaches the new floor
                    // is replayed.
                    Step::Wait { floor } => {
                        part.restart_at_floor(floor);
                        part.pending = Some(Pending {
                            req: part.chase,
                            target: self.leader_of(part.cluster),
                        });
                        part.asked.clear();
                        self.stats.chase_waits += 1;
                        let reaches = |e: &mut ReadResponse| {
                            e.anchor().is_some_and(|(c, _)| c.header.lce >= floor)
                        };
                        early.extend(part.early.take_if(reaches).map(|e| (part.chase, e)));
                        continue;
                    }
                }
                part.chase = self.req_id();
                part.early = None;
            }
            for cluster in sends {
                let target = self.read_target(cluster, now);
                self.dispatch(session, &[cluster], target, ctx);
            }
            self.inflight = Some(inflight);
            for (req, response) in early {
                self.on_read_result(req, response, ctx);
            }
            return;
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
        // carrying a verified feed attachment. A cold forward or a
        // round-2 re-fetch clears the part's mark, so mixed reads don't
        // count.
        let all_warm = matches!(session.query.shape, QueryShape::Point { .. })
            && !session.parts.is_empty()
            && session.parts.iter().all(|p| p.fed);
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
                .filter_map(|p| p.view().map(|v| (p.cluster, v.batch)))
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
            });
        }
        self.inflight = None;
        self.start_next_op(ctx);
    }

    /// End `inflight`, already taken, as failed: an uncommitted sample,
    /// a read's trace closed behind a `label` marker in `phase`, and the
    /// next operation started.
    fn fail_op(
        &mut self,
        inflight: Inflight,
        phase: SpanPhase,
        label: &'static str,
        ctx: &mut Context<'_, NetMsg>,
    ) {
        let now = ctx.now();
        if let Phase::Query(session) = &inflight.phase {
            if let Some(tc) = session.query.trace {
                let me = NodeId::Client(self.id);
                ctx.trace().marker(tc, phase, me, now, label);
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

/// What the client owns: its stats, its key handle's signature checks
/// and its directory agent's counters.
impl RegisterMetrics for ClientActor {
    fn register_metrics(&self, scope: &str, reg: &mut MetricRegistry) {
        reg.register(scope, &self.stats);
        reg.register(scope, &self.certs.keys().sig_stats());
        if let Some(agent) = &self.directory {
            reg.register(scope, &agent.stats);
        }
    }
}

const TIMER_BASE: u64 = 1_000_000;
/// Deferred start (`ClientProfile::start_delay`).
const TIMER_BOOT: u64 = 999_998;
/// Bound on waiting for the startup directory pull.
const TIMER_SEED: u64 = 999_999;

impl Actor<NetMsg> for ClientActor {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        if self.profile.start_delay > SimDuration(0) {
            ctx.set_timer(self.profile.start_delay, TIMER_BOOT);
        } else {
            self.boot(ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
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
                    // Only a replica of the asked key's partition
                    // answers, and only for the key it was asked.
                    let owner = |asked: &Key| self.topo.partition_of(asked);
                    let owed = outstanding.get(&req).is_some_and(|asked| {
                        *asked == key
                            && matches!(from, NodeId::Replica(r) if r.cluster == owner(asked))
                    });
                    if !owed {
                        return;
                    }
                    outstanding.remove(&req);
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
            self.fail_op(inflight, SpanPhase::Queue, "gave-up", ctx);
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
