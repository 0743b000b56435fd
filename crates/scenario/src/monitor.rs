//! Continuous invariant checking over a running deployment.
//!
//! The monitor holds the ground truth a scenario cannot change — the
//! genesis dataset plus every value the scripted clients may write —
//! and sweeps the deployment's observable state (client results,
//! directory agents) for contradictions. A sweep is cheap and
//! incremental: per-client cursors mean each recorded result is
//! examined exactly once no matter how often the runner checks.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

use transedge_common::{ClientId, ClusterId, EdgeId, Key, NodeId, SimTime, Value};
use transedge_core::{ClientActor, ClientOp, Deployment, EdgeReadNode};

/// A broken invariant: what the paper proves cannot happen, observed
/// happening. The runner aborts the scenario on the first one.
#[derive(Clone, Debug)]
pub enum InvariantViolation {
    /// A verified read returned a value never preloaded nor scripted —
    /// an uncommitted or forged value was accepted.
    WrongValue { client: ClientId, key: Key },
    /// A verified read returned "absent" for a key the ground truth
    /// holds (nothing ever deletes).
    MissingValue { client: ClientId, key: Key },
    /// A read-only snapshot pinned the same partition twice — the
    /// cross-partition atomicity stitching broke.
    NonAtomicSnapshot {
        client: ClientId,
        cluster: ClusterId,
    },
    /// Theorem 4.6 says two rounds always suffice; a client counted a
    /// third.
    ThirdRound { client: ClientId },
    /// A directory agent holds rejection evidence convicting an edge
    /// the scenario never scripted as byzantine — fabricated evidence
    /// framed an honest edge.
    HonestEdgeConvicted { edge: EdgeId, holder: NodeId },
    /// A scripted liar escaped: some honest edge's agent never learned
    /// the evidence against it.
    MissingConviction { edge: EdgeId, holder: NodeId },
    /// Fleet-wide demotion took longer than the campaign's bound.
    ConvergenceTooSlow { rounds: f64, bound: f64 },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::WrongValue { client, key } => {
                write!(f, "{client} accepted a wrong/uncommitted value for {key:?}")
            }
            InvariantViolation::MissingValue { client, key } => {
                write!(f, "{client} accepted an absent read for live key {key:?}")
            }
            InvariantViolation::NonAtomicSnapshot { client, cluster } => {
                write!(f, "{client} pinned {cluster:?} twice in one snapshot")
            }
            InvariantViolation::ThirdRound { client } => {
                write!(f, "{client} needed a third ROT round (Theorem 4.6)")
            }
            InvariantViolation::HonestEdgeConvicted { edge, holder } => {
                write!(f, "honest {edge:?} convicted at {holder:?}")
            }
            InvariantViolation::MissingConviction { edge, holder } => {
                write!(f, "byzantine {edge:?} not convicted at {holder:?}")
            }
            InvariantViolation::ConvergenceTooSlow { rounds, bound } => {
                write!(f, "demotion took {rounds} gossip rounds (bound {bound})")
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// How fleet-wide demotion of the scripted liars went — what a
/// campaign reports as its convergence outcome.
#[derive(Clone, Debug, Default)]
pub struct ConvergenceReport {
    /// Scripted byzantine edges, all convicted fleet-wide (sorted).
    pub convicted: Vec<EdgeId>,
    /// Gossip rounds between the first agent learning the first
    /// conviction and the last agent learning the last one.
    pub rounds: f64,
    /// Honest-edge agents that hold every conviction.
    pub informed_edges: usize,
}

#[derive(Clone, Copy, Debug, Default)]
struct Cursor {
    query: usize,
    txn: usize,
}

/// Continuous checker of the four scenario invariants (see the crate
/// docs). Construct against the deployment (genesis ground truth),
/// [`InvariantMonitor::note_ops`] every scripted op, and let the
/// runner sweep at each event; [`InvariantMonitor::finish`] audits
/// demotion convergence once the scenario is over.
pub struct InvariantMonitor {
    /// Ground truth: every value a key may legitimately read as.
    permissible: HashMap<Key, HashSet<Value>>,
    /// Edges the scenario scripted to lie — the only legitimate
    /// conviction targets.
    expected_byzantine: BTreeSet<EdgeId>,
    cursors: HashMap<ClientId, Cursor>,
    checks: u64,
}

impl InvariantMonitor {
    /// Seed the ground truth with the deployment's genesis dataset.
    pub fn new(dep: &Deployment) -> Self {
        let mut permissible: HashMap<Key, HashSet<Value>> = HashMap::new();
        for (key, value) in &dep.data {
            permissible
                .entry(key.clone())
                .or_default()
                .insert(value.clone());
        }
        InvariantMonitor {
            permissible,
            expected_byzantine: BTreeSet::new(),
            cursors: HashMap::new(),
            checks: 0,
        }
    }

    /// Admit every value `ops` may write (call once per scripted
    /// client, and again for any re-targeted tail).
    pub fn note_ops(&mut self, ops: &[ClientOp]) {
        for op in ops {
            if let ClientOp::ReadWrite { writes, .. } = op {
                for (key, value) in writes {
                    self.permissible
                        .entry(key.clone())
                        .or_default()
                        .insert(value.clone());
                }
            }
        }
    }

    /// Declare `edges` scripted liars: convictions against them are
    /// expected (and, at [`InvariantMonitor::finish`], required);
    /// convictions against anyone else stay violations.
    pub fn expect_byzantine(&mut self, edges: impl IntoIterator<Item = EdgeId>) {
        self.expected_byzantine.extend(edges);
    }

    /// The scripted liars declared so far (sorted).
    pub fn expected_byzantine(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.expected_byzantine.iter().copied()
    }

    /// Sweeps run so far.
    pub fn checks_run(&self) -> u64 {
        self.checks
    }

    /// One incremental sweep: every result recorded since the last
    /// sweep, plus the fleet's conviction state.
    pub fn check(&mut self, dep: &Deployment) -> Result<(), InvariantViolation> {
        self.checks += 1;
        for &id in &dep.client_ids {
            let Some(client) = dep.sim.actor_as::<ClientActor>(NodeId::Client(id)) else {
                continue;
            };
            let mut cur = self.cursors.get(&id).copied().unwrap_or_default();
            for query in &client.query_results[cur.query..] {
                self.check_values(id, &query.values)?;
                Self::check_snapshot(id, &query.snapshot)?;
                for (_, rows) in &query.rows {
                    self.check_rows(id, rows)?;
                }
            }
            cur.query = client.query_results.len();
            for txn in &client.txn_outcomes[cur.txn..] {
                self.check_values(id, &txn.reads)?;
            }
            cur.txn = client.txn_outcomes.len();
            if client.stats.third_round_needed > 0 {
                return Err(InvariantViolation::ThirdRound { client: id });
            }
            self.cursors.insert(id, cur);
        }
        self.check_convictions(dep)
    }

    /// Final audit: one last sweep, then demotion convergence — every
    /// scripted liar convicted at every surviving honest edge, with
    /// the fleet-wide spread of first-learned times within
    /// `max_rounds` gossip rounds.
    pub fn finish(
        &mut self,
        dep: &Deployment,
        max_rounds: f64,
    ) -> Result<ConvergenceReport, InvariantViolation> {
        self.check(dep)?;
        if self.expected_byzantine.is_empty() {
            return Ok(ConvergenceReport::default());
        }
        let mut learned: Vec<SimTime> = Vec::new();
        let mut informed_edges = 0usize;
        for &edge in &dep.edge_ids {
            if self.expected_byzantine.contains(&edge) {
                continue;
            }
            let Some(agent) = dep
                .sim
                .actor_as::<EdgeReadNode>(NodeId::Edge(edge))
                .and_then(|n| n.directory())
            else {
                continue;
            };
            for &liar in &self.expected_byzantine {
                match agent.learned_at(liar) {
                    Some(at) => learned.push(at),
                    None => {
                        return Err(InvariantViolation::MissingConviction {
                            edge: liar,
                            holder: NodeId::Edge(edge),
                        })
                    }
                }
            }
            informed_edges += 1;
        }
        // Only a gossiping tier learns anything, so only then is there a
        // period to count rounds in.
        let rounds = match (
            dep.config.edge.directory,
            learned.iter().min(),
            learned.iter().max(),
        ) {
            (Some(gossip), Some(first), Some(last)) if last > first => {
                (last.saturating_since(*first).as_micros() as f64 / gossip.as_micros() as f64)
                    .ceil()
            }
            _ => 0.0,
        };
        if rounds > max_rounds {
            return Err(InvariantViolation::ConvergenceTooSlow {
                rounds,
                bound: max_rounds,
            });
        }
        Ok(ConvergenceReport {
            convicted: self.expected_byzantine.iter().copied().collect(),
            rounds,
            informed_edges,
        })
    }

    /// No agent anywhere — edge or client — may hold evidence against
    /// an edge the scenario did not script to lie.
    fn check_convictions(&self, dep: &Deployment) -> Result<(), InvariantViolation> {
        for &edge in &dep.edge_ids {
            let Some(node) = dep.sim.actor_as::<EdgeReadNode>(NodeId::Edge(edge)) else {
                continue;
            };
            if let Some(agent) = node.directory() {
                self.check_agent_convictions(agent.convicted_edges(), NodeId::Edge(edge))?;
            }
        }
        for &id in &dep.client_ids {
            let Some(client) = dep.sim.actor_as::<ClientActor>(NodeId::Client(id)) else {
                continue;
            };
            if let Some(agent) = client.directory() {
                self.check_agent_convictions(agent.convicted_edges(), NodeId::Client(id))?;
            }
        }
        Ok(())
    }

    fn check_agent_convictions(
        &self,
        convicted: Vec<EdgeId>,
        holder: NodeId,
    ) -> Result<(), InvariantViolation> {
        for edge in convicted {
            if !self.expected_byzantine.contains(&edge) {
                return Err(InvariantViolation::HonestEdgeConvicted { edge, holder });
            }
        }
        Ok(())
    }

    fn check_values(
        &self,
        client: ClientId,
        values: &[(Key, Option<Value>)],
    ) -> Result<(), InvariantViolation> {
        for (key, value) in values {
            match value {
                Some(v) => {
                    if !self.permissible.get(key).is_some_and(|set| set.contains(v)) {
                        return Err(InvariantViolation::WrongValue {
                            client,
                            key: key.clone(),
                        });
                    }
                }
                None => {
                    if self.permissible.contains_key(key) {
                        return Err(InvariantViolation::MissingValue {
                            client,
                            key: key.clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn check_rows(
        &self,
        client: ClientId,
        rows: &[(Key, Value)],
    ) -> Result<(), InvariantViolation> {
        for (key, value) in rows {
            if !self
                .permissible
                .get(key)
                .is_some_and(|set| set.contains(value))
            {
                return Err(InvariantViolation::WrongValue {
                    client,
                    key: key.clone(),
                });
            }
        }
        Ok(())
    }

    fn check_snapshot(
        client: ClientId,
        snapshot: &[(ClusterId, transedge_common::BatchNum)],
    ) -> Result<(), InvariantViolation> {
        let mut seen: Vec<ClusterId> = Vec::with_capacity(snapshot.len());
        for (cluster, _) in snapshot {
            if seen.contains(cluster) {
                return Err(InvariantViolation::NonAtomicSnapshot {
                    client,
                    cluster: *cluster,
                });
            }
            seen.push(*cluster);
        }
        Ok(())
    }
}
