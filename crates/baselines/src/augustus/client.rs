//! Augustus client: submits transactions, collects `2f+1` signed votes
//! per partition, decides, and waits for `f+1` decision acks.

use std::collections::{HashMap, HashSet};

use transedge_common::{
    ClientId, ClusterId, ClusterTopology, Key, NodeId, ReplicaId, SimDuration, TxnId, Value,
};
use transedge_core::client::ClientOp;
use transedge_core::metrics::{OpKind, TxnSample};
use transedge_crypto::KeyStore;
use transedge_simnet::{Actor, Context};

use super::messages::{reads_digest, vote_statement, AugMsg, AugTxn};

/// Client-side statistics (Table 1 attribution lives here).
#[derive(Clone, Debug, Default)]
pub struct AugustusClientStats {
    pub committed: u64,
    pub aborted: u64,
    /// Read-write transactions aborted because a read-only transaction
    /// held a conflicting lock.
    pub rw_aborted_by_rot: u64,
    pub verification_failures: u64,
    pub retries: u64,
}

struct VoteState {
    /// Per partition: replicas that voted commit.
    commit_votes: HashMap<ClusterId, HashSet<ReplicaId>>,
    /// Per partition: replicas that voted abort.
    abort_votes: HashMap<ClusterId, HashSet<ReplicaId>>,
    /// Any abort attributed to a read-only lock holder?
    rot_blamed: bool,
    /// Partition verdicts reached so far.
    verdicts: HashMap<ClusterId, bool>,
    /// Read values from the first verified commit vote per partition.
    reads: HashMap<ClusterId, Vec<(Key, Option<Value>)>>,
}

enum Phase {
    Voting(VoteState),
    Deciding {
        commit: bool,
        acks: HashMap<ClusterId, HashSet<ReplicaId>>,
    },
}

struct Inflight {
    txn: AugTxn,
    partitions: Vec<ClusterId>,
    kind: OpKind,
    start: transedge_common::SimTime,
    attempts: u32,
    phase: Phase,
}

/// The Augustus client actor.
pub struct AugustusClient {
    pub id: ClientId,
    topo: ClusterTopology,
    keys: KeyStore,
    retry_after: SimDuration,
    max_retries: u32,
    ops: Vec<ClientOp>,
    next_op: usize,
    next_txn_seq: u64,
    inflight: Option<Inflight>,
    /// Abort attribution carried from the voting phase to completion.
    pending_blame: bool,
    pub samples: Vec<TxnSample>,
    pub stats: AugustusClientStats,
}

impl AugustusClient {
    pub fn new(
        id: ClientId,
        topo: ClusterTopology,
        keys: KeyStore,
        retry_after: SimDuration,
        max_retries: u32,
        ops: Vec<ClientOp>,
    ) -> Self {
        AugustusClient {
            id,
            topo,
            keys,
            retry_after,
            max_retries,
            ops,
            next_op: 0,
            next_txn_seq: 0,
            inflight: None,
            pending_blame: false,
            samples: Vec::new(),
            stats: AugustusClientStats::default(),
        }
    }

    pub fn is_done(&self) -> bool {
        self.inflight.is_none() && self.next_op >= self.ops.len()
    }

    fn classify(&self, txn: &AugTxn) -> OpKind {
        if txn.is_read_only() {
            OpKind::ReadOnly
        } else if txn.partitions(&self.topo).len() > 1 {
            OpKind::DistributedReadWrite
        } else if txn.reads.is_empty() {
            OpKind::LocalWriteOnly
        } else {
            OpKind::LocalReadWrite
        }
    }

    fn leader_of(&self, cluster: ClusterId) -> NodeId {
        NodeId::Replica(ReplicaId::new(cluster, 0))
    }

    fn start_next_op(&mut self, ctx: &mut Context<'_, AugMsg>) {
        if self.inflight.is_some() || self.next_op >= self.ops.len() {
            return;
        }
        let op = self.ops[self.next_op].clone();
        self.next_op += 1;
        self.next_txn_seq += 1;
        let txn = match op {
            ClientOp::ReadOnly { keys } => AugTxn {
                id: TxnId::new(self.id, self.next_txn_seq),
                reads: keys,
                writes: vec![],
            },
            ClientOp::ReadWrite { reads, writes } => AugTxn {
                id: TxnId::new(self.id, self.next_txn_seq),
                reads,
                writes,
            },
            ClientOp::RangeScan { .. } | ClientOp::Query { .. } => {
                // Augustus locks individual keys and has no ADS, so
                // *verified* range scans and the unified proof-carrying
                // query API have no analogue here; such ops in a mixed
                // workload are skipped for this baseline.
                self.start_next_op(ctx);
                return;
            }
        };
        let partitions = txn.partitions(&self.topo);
        for p in &partitions {
            ctx.send(self.leader_of(*p), AugMsg::Submit { txn: txn.clone() });
        }
        let kind = self.classify(&txn);
        self.inflight = Some(Inflight {
            txn,
            partitions,
            kind,
            start: ctx.now(),
            attempts: 0,
            phase: Phase::Voting(VoteState {
                commit_votes: HashMap::new(),
                abort_votes: HashMap::new(),
                rot_blamed: false,
                verdicts: HashMap::new(),
                reads: HashMap::new(),
            }),
        });
        ctx.set_timer(self.retry_after, self.next_txn_seq);
    }

    fn finish(&mut self, committed: bool, rot_blamed: bool, ctx: &mut Context<'_, AugMsg>) {
        let Some(inflight) = self.inflight.take() else {
            return;
        };
        if committed {
            self.stats.committed += 1;
        } else {
            self.stats.aborted += 1;
            if rot_blamed && inflight.kind != OpKind::ReadOnly {
                self.stats.rw_aborted_by_rot += 1;
            }
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
        self.start_next_op(ctx);
    }
}

impl Actor<AugMsg> for AugustusClient {
    fn on_start(&mut self, ctx: &mut Context<'_, AugMsg>) {
        self.start_next_op(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: AugMsg, ctx: &mut Context<'_, AugMsg>) {
        match msg {
            AugMsg::Vote {
                txn,
                partition,
                replica,
                commit,
                blocked_by_read_only,
                reads,
                sig,
            } => {
                let quorum = self.topo.bft_quorum();
                let Some(inflight) = &mut self.inflight else {
                    return;
                };
                if inflight.txn.id != txn {
                    return;
                }
                let Phase::Voting(state) = &mut inflight.phase else {
                    return;
                };
                // Verify the vote signature (charged).
                ctx.charge(|c| c.ed25519_verify);
                let digest = reads_digest(&reads);
                let stmt = vote_statement(txn, partition, commit, &digest);
                if self
                    .keys
                    .verify(NodeId::Replica(replica), &stmt, &sig)
                    .is_err()
                {
                    self.stats.verification_failures += 1;
                    return;
                }
                if commit {
                    state
                        .commit_votes
                        .entry(partition)
                        .or_default()
                        .insert(replica);
                    state.reads.entry(partition).or_insert(reads);
                } else {
                    state
                        .abort_votes
                        .entry(partition)
                        .or_default()
                        .insert(replica);
                    if blocked_by_read_only {
                        state.rot_blamed = true;
                    }
                }
                // Per-partition verdict: 2f+1 matching votes.
                if state.verdicts.contains_key(&partition) {
                    // already reached
                } else if state.commit_votes.get(&partition).map_or(0, |s| s.len()) >= quorum {
                    state.verdicts.insert(partition, true);
                } else if state.abort_votes.get(&partition).map_or(0, |s| s.len())
                    >= self.topo.certificate_quorum()
                {
                    // f+1 abort votes: at least one correct replica saw
                    // a conflict — the transaction cannot commit.
                    state.verdicts.insert(partition, false);
                }
                if state.verdicts.len() < inflight.partitions.len() {
                    return;
                }
                let all_commit = state.verdicts.values().all(|v| *v);
                let rot_blamed = state.rot_blamed;
                // Phase 2: tell every partition the decision.
                let partitions = inflight.partitions.clone();
                inflight.phase = Phase::Deciding {
                    commit: all_commit,
                    acks: HashMap::new(),
                };
                for p in partitions {
                    ctx.send(
                        self.leader_of(p),
                        AugMsg::Decision {
                            txn,
                            commit: all_commit,
                        },
                    );
                }
                // Remember attribution for when acks complete.
                self.pending_blame = rot_blamed;
            }
            AugMsg::DecisionAck {
                txn,
                partition,
                replica,
            } => {
                let needed = self.topo.certificate_quorum();
                let done = {
                    let Some(inflight) = &mut self.inflight else {
                        return;
                    };
                    if inflight.txn.id != txn {
                        return;
                    }
                    let Phase::Deciding { acks, .. } = &mut inflight.phase else {
                        return;
                    };
                    acks.entry(partition).or_default().insert(replica);
                    inflight
                        .partitions
                        .iter()
                        .all(|p| acks.get(p).map_or(0, |s| s.len()) >= needed)
                };
                if done {
                    let committed = match &self.inflight.as_ref().unwrap().phase {
                        Phase::Deciding { commit, .. } => *commit,
                        _ => unreachable!(),
                    };
                    let blame = self.pending_blame;
                    self.finish(committed, blame, ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, AugMsg>) {
        let resend: Option<Vec<(NodeId, AugMsg)>> = {
            let Some(inflight) = &mut self.inflight else {
                return;
            };
            if inflight.txn.id.seq != token {
                return;
            }
            inflight.attempts += 1;
            if inflight.attempts > self.max_retries {
                None
            } else {
                self.stats.retries += 1;
                let msgs = match &inflight.phase {
                    Phase::Voting(_) => inflight
                        .partitions
                        .iter()
                        .map(|p| {
                            (
                                NodeId::Replica(ReplicaId::new(*p, 0)),
                                AugMsg::Submit {
                                    txn: inflight.txn.clone(),
                                },
                            )
                        })
                        .collect(),
                    Phase::Deciding { commit, .. } => inflight
                        .partitions
                        .iter()
                        .map(|p| {
                            (
                                NodeId::Replica(ReplicaId::new(*p, 0)),
                                AugMsg::Decision {
                                    txn: inflight.txn.id,
                                    commit: *commit,
                                },
                            )
                        })
                        .collect(),
                };
                Some(msgs)
            }
        };
        match resend {
            Some(msgs) => {
                for (to, msg) in msgs {
                    ctx.send(to, msg);
                }
                let token = self.inflight.as_ref().unwrap().txn.id.seq;
                ctx.set_timer(self.retry_after, token);
            }
            None => {
                // Give up — release any locks we may still hold out
                // there with a best-effort abort decision.
                if let Some(inflight) = &self.inflight {
                    for p in &inflight.partitions {
                        ctx.send(
                            NodeId::Replica(ReplicaId::new(*p, 0)),
                            AugMsg::Decision {
                                txn: inflight.txn.id,
                                commit: false,
                            },
                        );
                    }
                }
                self.finish(false, false, ctx);
            }
        }
    }
}
