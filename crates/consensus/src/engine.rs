//! The BFT consensus engine: a pure message-in / outputs-out state
//! machine. See the crate docs for the protocol outline.

use std::collections::{BTreeMap, HashMap};

use transedge_common::{BatchNum, ClusterId, NodeId, ReplicaId, ViewNum};
use transedge_crypto::{Digest, KeyStore, Keypair, Signature};
use transedge_storage::BatchArchive;

use crate::messages::{
    accept_statement, propose_statement, view_change_statement, write_statement, BftMsg, BftValue,
    Certificate, ViewChangeVote,
};

/// Static configuration of one engine instance.
#[derive(Clone, Debug)]
pub struct BftConfig {
    pub cluster: ClusterId,
    pub me: ReplicaId,
    /// Byzantine failures tolerated; the cluster has `3f+1` replicas.
    pub f: usize,
}

impl BftConfig {
    pub fn n(&self) -> usize {
        3 * self.f + 1
    }
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
    }
    pub fn cert_quorum(&self) -> usize {
        self.f + 1
    }
    /// All replica ids of this cluster.
    pub fn peers(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        let c = self.cluster;
        (0..self.n() as u16).map(move |i| ReplicaId::new(c, i))
    }
}

/// Effects produced by the engine for the host to act on.
#[derive(Debug)]
pub enum Output<V> {
    /// Send to one cluster peer.
    Send(ReplicaId, BftMsg<V>),
    /// Send to every *other* replica of the cluster.
    Broadcast(BftMsg<V>),
    /// A slot was decided and is next in log order: deliver to the
    /// application together with its `f+1` certificate.
    Decided {
        slot: BatchNum,
        value: V,
        cert: Certificate,
    },
    /// The engine moved to a new view. The host should reset its
    /// leader-progress timer (and, if it is the application driver,
    /// re-issue any pending proposal on `EnteredView` where
    /// `is_leader`).
    EnteredView { view: ViewNum, leader: ReplicaId },
}

/// Most unverified votes held per replica per slot and kind; a replica
/// that sends more has the excess dropped unchecked, so a flood costs
/// only its sender.
pub(crate) const MAX_PARKED_PER_REPLICA: usize = 4;

/// One slot's votes of one kind. A vote is parked unverified on arrival;
/// its signature is checked when it could help complete a quorum or
/// when a reader needs the votes. A replica's counted vote is its first
/// valid vote in arrival order — exactly as if every vote were checked
/// on arrival — so an invalid vote never shadows the same replica's
/// later valid one, and of an equivocating pair the first stands.
struct Votes<T> {
    /// Each replica's counted vote and its signature.
    counted: BTreeMap<ReplicaId, (T, Signature)>,
    /// Unverified votes in arrival order, none from a counted replica.
    parked: Vec<(ReplicaId, T, Signature)>,
    /// Votes discarded without their signature ever being checked.
    discarded: u64,
}

impl<T> Default for Votes<T> {
    fn default() -> Self {
        Votes {
            counted: BTreeMap::new(),
            parked: Vec::new(),
            discarded: 0,
        }
    }
}

impl<T: Copy + PartialEq> Votes<T> {
    /// Park a vote from the network.
    fn park(&mut self, from: ReplicaId, vote: T, sig: Signature) {
        let held = self.parked.iter().filter(|(r, ..)| *r == from).count();
        if self.counted.contains_key(&from) || held >= MAX_PARKED_PER_REPLICA {
            self.discarded += 1;
        } else {
            self.parked.push((from, vote, sig));
        }
    }

    /// Count this replica's own vote (signed here: nothing to check).
    fn count_own(&mut self, me: ReplicaId, vote: T, sig: Signature) {
        self.counted.insert(me, (vote, sig));
    }

    /// Drop every vote, verified or not.
    fn clear(&mut self) {
        self.counted.clear();
        self.discarded += self.parked.len() as u64;
        self.parked.clear();
    }

    /// Votes never checked: discarded, or still parked.
    fn unverified(&self) -> u64 {
        self.discarded + self.parked.len() as u64
    }

    /// Do at least `need` counted votes satisfy `wanted`? Checks just
    /// enough parked votes, in arrival order, and only once counted plus
    /// parked could reach `need`.
    fn reach(
        &mut self,
        need: usize,
        wanted: impl Fn(&T) -> bool,
        keys: &KeyStore,
        statement: impl Fn(&T) -> Vec<u8>,
    ) -> bool {
        loop {
            let have = self.counted.values().filter(|(v, _)| wanted(v)).count();
            if have >= need {
                return true;
            }
            // Replicas that may yet count a wanted vote, in order of
            // their earliest parked vote.
            let mut hopeful: Vec<ReplicaId> = Vec::new();
            for (r, v, _) in &self.parked {
                if wanted(v) && !hopeful.contains(r) {
                    hopeful.push(*r);
                }
            }
            if have + hopeful.len() < need {
                return false;
            }
            hopeful.sort_by_key(|r| self.parked.iter().position(|(p, ..)| p == r));
            hopeful.truncate(need - have);
            self.resolve(&hopeful, keys, &statement);
        }
    }

    /// Check parked votes until none is left, so `counted` holds what
    /// checking every vote on arrival would have.
    fn promote_all(&mut self, keys: &KeyStore, statement: impl Fn(&T) -> Vec<u8>) {
        while !self.parked.is_empty() {
            let mut replicas: Vec<ReplicaId> = Vec::new();
            for (r, ..) in &self.parked {
                if !replicas.contains(r) {
                    replicas.push(*r);
                }
            }
            self.resolve(&replicas, keys, &statement);
        }
    }

    /// Check the earliest parked vote of each of `replicas` in one
    /// batch. A valid one becomes the replica's counted vote and its
    /// later votes are discarded; an invalid one is dropped.
    fn resolve(
        &mut self,
        replicas: &[ReplicaId],
        keys: &KeyStore,
        statement: &impl Fn(&T) -> Vec<u8>,
    ) {
        let picks: Vec<(ReplicaId, T, Signature)> = replicas
            .iter()
            .filter_map(|r| self.parked.iter().find(|(p, ..)| p == r).copied())
            .collect();
        let statements: Vec<Vec<u8>> = picks.iter().map(|(_, v, _)| statement(v)).collect();
        let items: Vec<(NodeId, &[u8], &Signature)> = picks
            .iter()
            .zip(&statements)
            .map(|((r, _, sig), stmt)| (NodeId::Replica(*r), stmt.as_slice(), sig))
            .collect();
        for ((r, v, sig), ok) in picks.iter().zip(keys.verify_many(&items)) {
            let first = self
                .parked
                .iter()
                .position(|(p, ..)| p == r)
                .expect("picked from the parked votes");
            self.parked.remove(first);
            if ok {
                self.counted.insert(*r, (*v, *sig));
                let before = self.parked.len();
                self.parked.retain(|(p, ..)| p != r);
                self.discarded += (before - self.parked.len()) as u64;
            }
        }
    }
}

/// Per-slot voting state.
struct SlotState<V> {
    /// Proposal accepted in the current view: (view, value, digest).
    proposal: Option<(ViewNum, V, Digest)>,
    /// Propose received while this replica lagged; replayed once the
    /// slot becomes current.
    pending_propose: Option<(ReplicaId, BftMsg<V>)>,
    /// WRITE votes: (view, digest) per replica.
    writes: Votes<(ViewNum, Digest)>,
    /// ACCEPT votes: digest per replica.
    accepts: Votes<Digest>,
    accepted: bool,
    decided: Option<V>,
}

impl<V> Default for SlotState<V> {
    fn default() -> Self {
        SlotState {
            proposal: None,
            pending_propose: None,
            writes: Votes::default(),
            accepts: Votes::default(),
            accepted: false,
            decided: None,
        }
    }
}

impl<V> SlotState<V> {
    fn unverified_votes(&self) -> u64 {
        self.writes.unverified() + self.accepts.unverified()
    }
}

/// The consensus engine. One per replica.
pub struct BftEngine<V: BftValue> {
    config: BftConfig,
    keypair: Keypair,
    keys: KeyStore,
    view: ViewNum,
    /// In-flight slot states, keyed by slot number (in order: a reader
    /// that promotes parked votes walks them deterministically).
    slots: BTreeMap<u64, SlotState<V>>,
    /// Delivered prefix of the log (value + certificate per slot).
    log: BatchArchive<(V, Certificate)>,
    /// View-change votes collected per target view, in replica order:
    /// the `NewView` vote list and the reproposal pick among equally
    /// prepared claims must not depend on the process's hash seed.
    vc_votes: HashMap<ViewNum, BTreeMap<ReplicaId, (ViewChangeVote, Option<V>)>>,
    /// Our current view-change target, if we are voting for one.
    vc_target: Option<ViewNum>,
    /// Reproposal obligation installed by the current view's NewView:
    /// Propose for this slot must carry this digest.
    reproposal_obligation: Option<(BatchNum, Digest)>,
    /// Votes of retired slots that were never checked.
    votes_never_verified: u64,
}

impl<V: BftValue> BftEngine<V> {
    pub fn new(config: BftConfig, keypair: Keypair, keys: KeyStore) -> Self {
        BftEngine {
            config,
            keypair,
            keys,
            view: ViewNum(0),
            slots: BTreeMap::new(),
            log: BatchArchive::new(),
            vc_votes: HashMap::new(),
            vc_target: None,
            reproposal_obligation: None,
            votes_never_verified: 0,
        }
    }

    // ---- accessors -------------------------------------------------

    pub fn view(&self) -> ViewNum {
        self.view
    }

    pub fn leader(&self) -> ReplicaId {
        ReplicaId::new(self.config.cluster, self.view.leader_index(self.config.n()))
    }

    pub fn is_leader(&self) -> bool {
        self.leader() == self.config.me
    }

    /// Number of delivered (in-order decided) slots.
    pub fn delivered_count(&self) -> u64 {
        self.log.len() as u64
    }

    /// The slot the leader would propose next.
    pub fn next_slot(&self) -> BatchNum {
        self.log.next_num()
    }

    /// Is a proposal currently possible (we lead and nothing is in
    /// flight for the next slot)?
    pub fn can_propose(&self) -> bool {
        self.is_leader()
            && self
                .slots
                .get(&self.next_slot().0)
                .is_none_or(|s| s.proposal.is_none() && s.decided.is_none())
            && self.vc_target.is_none()
    }

    /// Delivered log access (host convenience).
    pub fn log(&self) -> &BatchArchive<(V, Certificate)> {
        &self.log
    }

    /// Is there a proposal in flight that has not decided yet? Hosts
    /// use this to drive leader-progress timeouts. A slot holding only
    /// parked WRITE votes counts once one of them checks out.
    pub fn has_undecided_inflight(&mut self) -> bool {
        let cluster = self.config.cluster;
        self.vc_target.is_some()
            || self.slots.iter_mut().any(|(&slot, s)| {
                s.decided.is_none()
                    && (s.proposal.is_some()
                        || s.writes.reach(
                            1,
                            |_| true,
                            &self.keys,
                            |&(view, digest)| {
                                write_statement(cluster, view, BatchNum(slot), &digest)
                            },
                        ))
            })
    }

    /// Votes this engine received and dropped, or still holds, without
    /// ever checking their signature: the checks lazy vote verification
    /// saved.
    pub fn votes_never_verified(&self) -> u64 {
        self.votes_never_verified
            + self
                .slots
                .values()
                .map(SlotState::unverified_votes)
                .sum::<u64>()
    }

    pub fn config(&self) -> &BftConfig {
        &self.config
    }

    /// Install a pre-agreed genesis value at slot 0 (deployment
    /// bootstrap: every replica is constructed with the same value and
    /// an externally assembled certificate, so no consensus round is
    /// needed for the initial data load).
    pub fn install_genesis(&mut self, value: V, cert: Certificate) {
        assert!(self.log.is_empty(), "genesis must precede all slots");
        assert_eq!(cert.slot, BatchNum(0));
        assert_eq!(cert.digest, value.digest());
        self.log.append(BatchNum(0), (value, cert));
    }

    // ---- proposing ---------------------------------------------------

    /// Leader entry point: propose `value` for the next slot.
    /// Returns the outgoing messages (and possibly an immediate
    /// decision, with `f = 0`-style tiny clusters in tests).
    pub fn propose(&mut self, value: V) -> Vec<Output<V>> {
        let mut out = Vec::new();
        if !self.can_propose() {
            return out;
        }
        let slot = self.next_slot();
        let digest = value.digest();
        if let Some((ob_slot, ob_digest)) = self.reproposal_obligation {
            if ob_slot == slot && ob_digest != digest {
                // We are obliged to re-propose the prepared value, not a
                // fresh one. Hosts should not hit this; refuse.
                return out;
            }
        }
        let stmt = propose_statement(self.config.cluster, self.view, slot, &digest);
        let sig = self.keypair.sign(&stmt);
        out.push(Output::Broadcast(BftMsg::Propose {
            view: self.view,
            slot,
            value: value.clone(),
            sig,
        }));
        self.install_proposal(slot, value, digest, &mut out);
        out
    }

    /// Record the proposal locally and emit our WRITE.
    fn install_proposal(
        &mut self,
        slot: BatchNum,
        value: V,
        digest: Digest,
        out: &mut Vec<Output<V>>,
    ) {
        let view = self.view;
        let slot_state = self.slots.entry(slot.0).or_default();
        slot_state.proposal = Some((view, value, digest));
        let wstmt = write_statement(self.config.cluster, view, slot, &digest);
        let wsig = self.keypair.sign(&wstmt);
        slot_state
            .writes
            .count_own(self.config.me, (view, digest), wsig);
        out.push(Output::Broadcast(BftMsg::Write {
            view,
            slot,
            digest,
            sig: wsig,
        }));
        self.check_write_quorum(slot, out);
        self.check_accept_quorum(slot, out);
    }

    // ---- message handling -------------------------------------------

    /// Feed one message from `from` into the engine. `validate` is the
    /// application's proposal check (TransEdge re-runs its conflict
    /// rules here); it is only invoked for proposals that are otherwise
    /// authentic and current.
    pub fn handle(
        &mut self,
        from: ReplicaId,
        msg: BftMsg<V>,
        validate: &mut dyn FnMut(BatchNum, &V) -> bool,
    ) -> Vec<Output<V>> {
        let mut out = Vec::new();
        if from.cluster != self.config.cluster || from.index as usize >= self.config.n() {
            return out; // not a member of this cluster
        }
        match msg {
            BftMsg::Propose {
                view,
                slot,
                value,
                sig,
            } => self.on_propose(from, view, slot, value, sig, validate, &mut out),
            BftMsg::Write {
                view,
                slot,
                digest,
                sig,
            } => self.on_write(from, view, slot, digest, sig, &mut out),
            BftMsg::Accept { slot, digest, sig } => {
                self.on_accept(from, slot, digest, sig, &mut out)
            }
            BftMsg::ViewChange {
                vote,
                prepared_value,
            } => self.on_view_change(from, vote, prepared_value, &mut out),
            BftMsg::NewView {
                view,
                votes,
                reproposal,
            } => self.on_new_view(from, view, votes, reproposal, &mut out),
            BftMsg::StateRequest { from: from_slot } => {
                self.on_state_request(from, from_slot, &mut out)
            }
            BftMsg::StateResponse { batches } => self.on_state_response(batches, &mut out),
        }
        out
    }

    /// Host API: feed a view-change that carries a prepared value.
    /// (`BftMsg::ViewChange` is value-less on the wire only when no
    /// value was prepared; hosts route both through `handle` — this
    /// variant exists for harnesses that split them.)
    pub fn handle_view_change_with_value(
        &mut self,
        from: ReplicaId,
        vote: ViewChangeVote,
        value: Option<V>,
    ) -> Vec<Output<V>> {
        let mut out = Vec::new();
        self.on_view_change(from, vote, value, &mut out);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn on_propose(
        &mut self,
        from: ReplicaId,
        view: ViewNum,
        slot: BatchNum,
        value: V,
        sig: Signature,
        validate: &mut dyn FnMut(BatchNum, &V) -> bool,
        out: &mut Vec<Output<V>>,
    ) {
        // Stale or foreign-view proposals are ignored (view changes and
        // state transfer recover liveness).
        if view != self.view || slot < self.next_slot() {
            return;
        }
        // Only the leader of this view may propose.
        if from != self.leader() {
            return;
        }
        let digest = value.digest();
        let stmt = propose_statement(self.config.cluster, view, slot, &digest);
        if self
            .keys
            .verify(NodeId::Replica(from), &stmt, &sig)
            .is_err()
        {
            return;
        }
        // Proposals beyond the next slot are buffered until we catch up
        // (the application can only validate against applied state).
        if slot > self.next_slot() {
            let entry = self.slots.entry(slot.0).or_default();
            entry.pending_propose = Some((
                from,
                BftMsg::Propose {
                    view,
                    slot,
                    value,
                    sig,
                },
            ));
            // We are behind: ask the leader for the decided prefix.
            out.push(Output::Send(
                from,
                BftMsg::StateRequest {
                    from: self.next_slot(),
                },
            ));
            return;
        }
        // Equivocation check: a different digest for the same
        // (view, slot) already accepted from this leader.
        if let Some(state) = self.slots.get(&slot.0) {
            if let Some((pview, _, pdigest)) = &state.proposal {
                if *pview == view && *pdigest != digest {
                    // Leader equivocated — vote the leader out.
                    let vc = self.start_view_change(self.view.next());
                    out.extend(vc);
                    return;
                }
                if *pview == view {
                    return; // duplicate of the accepted proposal
                }
            }
        }
        // Reproposal obligation from the NewView of this view.
        if let Some((ob_slot, ob_digest)) = self.reproposal_obligation {
            if ob_slot == slot && ob_digest != digest {
                let vc = self.start_view_change(self.view.next());
                out.extend(vc);
                return;
            }
        }
        // Application-level validation (byzantine leaders can produce
        // authentic but semantically invalid batches).
        if !validate(slot, &value) {
            let vc = self.start_view_change(self.view.next());
            out.extend(vc);
            return;
        }
        self.install_proposal(slot, value, digest, out);
    }

    fn on_write(
        &mut self,
        from: ReplicaId,
        view: ViewNum,
        slot: BatchNum,
        digest: Digest,
        sig: Signature,
        out: &mut Vec<Output<V>>,
    ) {
        if slot < self.next_slot() || view != self.view {
            return;
        }
        // First valid write per replica per view wins (byzantine
        // replicas cannot double-vote); its signature is checked when it
        // can help complete a quorum.
        let state = self.slots.entry(slot.0).or_default();
        state.writes.park(from, (view, digest), sig);
        self.check_write_quorum(slot, out);
    }

    fn on_accept(
        &mut self,
        from: ReplicaId,
        slot: BatchNum,
        digest: Digest,
        sig: Signature,
        out: &mut Vec<Output<V>>,
    ) {
        if slot < self.next_slot() {
            return;
        }
        let state = self.slots.entry(slot.0).or_default();
        state.accepts.park(from, digest, sig);
        self.check_accept_quorum(slot, out);
    }

    fn check_write_quorum(&mut self, slot: BatchNum, out: &mut Vec<Output<V>>) {
        let view = self.view;
        let quorum = self.config.quorum();
        let cluster = self.config.cluster;
        let Some(state) = self.slots.get_mut(&slot.0) else {
            return;
        };
        if state.accepted || state.decided.is_some() {
            return;
        }
        let Some((pview, _, pdigest)) = &state.proposal else {
            return;
        };
        if *pview != view {
            return;
        }
        let digest = *pdigest;
        if !state.writes.reach(
            quorum,
            |&vote| vote == (view, digest),
            &self.keys,
            |&(v, d)| write_statement(cluster, v, slot, &d),
        ) {
            return;
        }
        state.accepted = true;
        let stmt = accept_statement(cluster, slot, &digest);
        let sig = self.keypair.sign(&stmt);
        state.accepts.count_own(self.config.me, digest, sig);
        out.push(Output::Broadcast(BftMsg::Accept { slot, digest, sig }));
        self.check_accept_quorum(slot, out);
    }

    fn check_accept_quorum(&mut self, slot: BatchNum, out: &mut Vec<Output<V>>) {
        let quorum = self.config.quorum();
        let cert_quorum = self.config.cert_quorum();
        let cluster = self.config.cluster;
        let Some(state) = self.slots.get_mut(&slot.0) else {
            return;
        };
        if state.decided.is_some() {
            return;
        }
        let statement = |d: &Digest| accept_statement(cluster, slot, d);
        let Some((_, value, pdigest)) = &state.proposal else {
            // 2f+1 accepts without a proposal means we missed the value;
            // ask a correct accepter for state.
            if state.pending_propose.is_none()
                && state.accepts.reach(quorum, |_| true, &self.keys, statement)
            {
                // The accepter with the smallest id gets the request.
                state.accepts.promote_all(&self.keys, statement);
                if let Some(&peer) = state.accepts.counted.keys().next() {
                    let from_slot = self.log.next_num();
                    out.push(Output::Send(peer, BftMsg::StateRequest { from: from_slot }));
                }
            }
            return;
        };
        let digest = *pdigest;
        if !state
            .accepts
            .reach(quorum, |d| *d == digest, &self.keys, statement)
        {
            return;
        }
        state.decided = Some(value.clone());
        let cert = certificate(
            &mut state.accepts,
            cluster,
            slot,
            digest,
            cert_quorum,
            &self.keys,
        );
        self.deliver_ready(slot, cert, out);
    }

    /// Deliver decided slots in log order starting from `slot` if it is
    /// next; subsequent already-decided slots flush too.
    fn deliver_ready(
        &mut self,
        decided_slot: BatchNum,
        cert: Certificate,
        out: &mut Vec<Output<V>>,
    ) {
        // Only the just-decided slot carries a fresh certificate; a slot
        // that decided earlier, out of order, is certified below from its
        // stored accepts.
        let mut certs: HashMap<u64, Certificate> = HashMap::new();
        certs.insert(decided_slot.0, cert);
        loop {
            let next = self.log.next_num();
            if self.slots.get(&next.0).is_none_or(|s| s.decided.is_none()) {
                break;
            }
            let mut state = self.slots.remove(&next.0).expect("checked above");
            let value = state.decided.take().expect("checked above");
            let cert = certs.remove(&next.0).unwrap_or_else(|| {
                // Rebuild from stored accepts (slot decided earlier, out
                // of order).
                certificate(
                    &mut state.accepts,
                    self.config.cluster,
                    next,
                    value.digest(),
                    self.config.cert_quorum(),
                    &self.keys,
                )
            });
            self.votes_never_verified += state.unverified_votes();
            self.log.append(next, (value.clone(), cert.clone()));
            out.push(Output::Decided {
                slot: next,
                value,
                cert,
            });
            // After delivering, the view's reproposal obligation for
            // this slot is discharged.
            if let Some((ob_slot, _)) = self.reproposal_obligation {
                if ob_slot == next {
                    self.reproposal_obligation = None;
                }
            }
        }
    }

    /// If a proposal was buffered for the current next slot while this
    /// replica lagged, take it for replay through [`BftEngine::handle`].
    pub fn take_pending_propose(&mut self) -> Option<(ReplicaId, BftMsg<V>)> {
        let next = self.next_slot();
        self.slots
            .get_mut(&next.0)
            .and_then(|s| s.pending_propose.take())
    }

    // ---- view change -------------------------------------------------

    /// Host-driven: the leader-progress timer fired.
    pub fn on_timeout(&mut self) -> Vec<Output<V>> {
        let target = match self.vc_target {
            // Escalate if we were already trying to change views.
            Some(t) => t.next(),
            None => self.view.next(),
        };
        self.start_view_change(target)
    }

    fn start_view_change(&mut self, target: ViewNum) -> Vec<Output<V>> {
        let mut out = Vec::new();
        if self.vc_target == Some(target) {
            return out;
        }
        self.vc_target = Some(target);
        let delivered = self.log.next_num();
        // Report a prepared (write-quorum) value for the next slot, if
        // we hold one.
        let cluster = self.config.cluster;
        let quorum = self.config.quorum();
        let prepared_info = self.slots.get_mut(&delivered.0).and_then(|s| {
            let (pview, value, pdigest) = s.proposal.as_ref()?;
            let prepared = (*pview, *pdigest);
            s.writes
                .reach(
                    quorum,
                    |&vote| vote == prepared,
                    &self.keys,
                    |&(v, d)| write_statement(cluster, v, delivered, &d),
                )
                .then(|| ((prepared.0, delivered, prepared.1), value.clone()))
        });
        let (prepared, prepared_value) = match prepared_info {
            Some((triple, value)) => (Some(triple), Some(value)),
            None => (None, None),
        };
        let stmt = view_change_statement(self.config.cluster, target, delivered, &prepared);
        let vote = ViewChangeVote {
            new_view: target,
            delivered,
            prepared,
            sig: self.keypair.sign(&stmt),
        };
        // Record own vote.
        self.record_vc_vote(self.config.me, vote.clone(), prepared_value.clone());
        out.push(Output::Broadcast(BftMsg::ViewChange {
            vote,
            prepared_value,
        }));
        // Own vote might complete a quorum (tiny clusters in tests).
        self.try_install_view(target, &mut out);
        out
    }

    fn record_vc_vote(&mut self, from: ReplicaId, vote: ViewChangeVote, value: Option<V>) {
        self.vc_votes
            .entry(vote.new_view)
            .or_default()
            .entry(from)
            .or_insert((vote, value));
    }

    fn on_view_change(
        &mut self,
        from: ReplicaId,
        vote: ViewChangeVote,
        value: Option<V>,
        out: &mut Vec<Output<V>>,
    ) {
        if vote.new_view <= self.view {
            return;
        }
        let stmt = view_change_statement(
            self.config.cluster,
            vote.new_view,
            vote.delivered,
            &vote.prepared,
        );
        if self
            .keys
            .verify(NodeId::Replica(from), &stmt, &vote.sig)
            .is_err()
        {
            return;
        }
        // A prepared claim must come with the matching value.
        if let Some((_, _, pdigest)) = &vote.prepared {
            match &value {
                Some(v) if v.digest() == *pdigest => {}
                // Without the value the claim is unusable for
                // re-proposal; still count the vote (the digest alone
                // constrains the new leader via other votes).
                _ => {}
            }
        }
        let target = vote.new_view;
        self.record_vc_vote(from, vote, value);
        // Join rule: f+1 votes for views above ours → join the lowest
        // such view.
        if self.vc_target.is_none_or(|t| t < target) {
            let distinct: usize = self
                .vc_votes
                .iter()
                .filter(|(v, _)| **v > self.view)
                .map(|(_, votes)| votes.len())
                .sum();
            if distinct >= self.config.cert_quorum() {
                let lowest = self
                    .vc_votes
                    .iter()
                    .filter(|(v, votes)| **v > self.view && !votes.is_empty())
                    .map(|(v, _)| *v)
                    .min()
                    .unwrap();
                let vc = self.start_view_change(lowest);
                out.extend(vc);
            }
        }
        self.try_install_view(target, out);
    }

    /// If we are the leader of `target` and hold 2f+1 votes, install the
    /// view and broadcast NEW-VIEW.
    fn try_install_view(&mut self, target: ViewNum, out: &mut Vec<Output<V>>) {
        if target <= self.view {
            return;
        }
        let leader_idx = target.leader_index(self.config.n());
        if ReplicaId::new(self.config.cluster, leader_idx) != self.config.me {
            return;
        }
        let Some(votes) = self.vc_votes.get(&target) else {
            return;
        };
        if votes.len() < self.config.quorum() {
            return;
        }
        // Determine the reproposal obligation: the prepared claim with
        // the highest view among the votes, with its value available
        // (of equally prepared claims, the smallest replica id's).
        let mut best: Option<(ViewNum, BatchNum, Digest, V)> = None;
        for (vote, value) in votes.values() {
            if let (Some((pv, ps, pd)), Some(val)) = (&vote.prepared, value) {
                if val.digest() == *pd && best.as_ref().is_none_or(|(bv, ..)| pv > bv) {
                    best = Some((*pv, *ps, *pd, val.clone()));
                }
            }
        }
        let vote_list: Vec<(ReplicaId, ViewChangeVote)> =
            votes.iter().map(|(r, (v, _))| (*r, v.clone())).collect();
        let reproposal = best.as_ref().map(|(_, _, _, v)| v.clone());
        out.push(Output::Broadcast(BftMsg::NewView {
            view: target,
            votes: vote_list,
            reproposal: reproposal.clone(),
        }));
        // Install locally.
        self.enter_view(target, best.as_ref().map(|(_, s, d, _)| (*s, *d)), out);
        // Re-propose the prepared value if we owe one and it is still
        // undecided.
        if let Some((_, slot, digest, value)) = best {
            if slot >= self.next_slot() && slot == self.next_slot() {
                let stmt = propose_statement(self.config.cluster, self.view, slot, &digest);
                let sig = self.keypair.sign(&stmt);
                out.push(Output::Broadcast(BftMsg::Propose {
                    view: self.view,
                    slot,
                    value: value.clone(),
                    sig,
                }));
                self.install_proposal(slot, value, digest, out);
            }
        }
    }

    fn on_new_view(
        &mut self,
        from: ReplicaId,
        view: ViewNum,
        votes: Vec<(ReplicaId, ViewChangeVote)>,
        reproposal: Option<V>,
        out: &mut Vec<Output<V>>,
    ) {
        if view <= self.view {
            return;
        }
        // Only the rightful leader of `view` may install it.
        if from != ReplicaId::new(self.config.cluster, view.leader_index(self.config.n())) {
            return;
        }
        // Verify 2f+1 distinct signed votes for exactly this view.
        let mut valid = std::collections::HashSet::new();
        for (voter, vote) in &votes {
            if vote.new_view != view {
                continue;
            }
            let stmt = view_change_statement(
                self.config.cluster,
                vote.new_view,
                vote.delivered,
                &vote.prepared,
            );
            if self
                .keys
                .verify(NodeId::Replica(*voter), &stmt, &vote.sig)
                .is_ok()
            {
                valid.insert(*voter);
            }
        }
        if valid.len() < self.config.quorum() {
            return;
        }
        // Compute the obligation the new leader must honour.
        let mut obligation: Option<(ViewNum, BatchNum, Digest)> = None;
        for (_, vote) in &votes {
            if let Some((pv, ps, pd)) = &vote.prepared {
                if obligation.as_ref().is_none_or(|(bv, ..)| pv > bv) {
                    obligation = Some((*pv, *ps, *pd));
                }
            }
        }
        // If there is an obligation, the reproposal must match it.
        if let Some((_, _, od)) = &obligation {
            match &reproposal {
                Some(v) if v.digest() == *od => {}
                _ => return, // malformed NewView: refuse to enter
            }
        }
        self.enter_view(view, obligation.map(|(_, s, d)| (s, d)), out);
    }

    fn enter_view(
        &mut self,
        view: ViewNum,
        obligation: Option<(BatchNum, Digest)>,
        out: &mut Vec<Output<V>>,
    ) {
        self.view = view;
        self.vc_target = None;
        self.vc_votes.retain(|v, _| *v > view);
        self.reproposal_obligation = obligation.filter(|(s, _)| *s >= self.next_slot());
        // Undecided in-flight slots: write votes — counted or parked —
        // are view-scoped and now stale: drop them so fresh view-`v`
        // writes can be recorded (votes are keyed per replica and
        // first-write-wins). The proposal and our accepted flag also
        // reset so we re-vote on the re-proposal; recorded accepts
        // survive because accept statements are view-independent.
        for state in self.slots.values_mut() {
            if state.decided.is_none() {
                state.proposal = None;
                state.accepted = false;
                state.writes.clear();
            }
        }
        out.push(Output::EnteredView {
            view,
            leader: self.leader(),
        });
    }

    // ---- state transfer ----------------------------------------------

    fn on_state_request(&mut self, from: ReplicaId, from_slot: BatchNum, out: &mut Vec<Output<V>>) {
        let batches: Vec<(BatchNum, V, Certificate)> = self
            .log
            .iter()
            .skip(from_slot.0 as usize)
            .map(|(n, (v, c))| (n, v.clone(), c.clone()))
            .collect();
        if !batches.is_empty() {
            out.push(Output::Send(from, BftMsg::StateResponse { batches }));
        }
    }

    fn on_state_response(
        &mut self,
        batches: Vec<(BatchNum, V, Certificate)>,
        out: &mut Vec<Output<V>>,
    ) {
        for (slot, value, cert) in batches {
            if slot != self.log.next_num() {
                continue; // out of order or already known
            }
            // The certificate is the trust anchor: f+1 accept
            // signatures over the digest.
            if cert.slot != slot
                || cert.cluster != self.config.cluster
                || cert.digest != value.digest()
                || cert.verify(&self.keys, self.config.cert_quorum()).is_err()
            {
                continue;
            }
            if let Some(state) = self.slots.remove(&slot.0) {
                self.votes_never_verified += state.unverified_votes();
            }
            self.log.append(slot, (value.clone(), cert.clone()));
            out.push(Output::Decided { slot, value, cert });
        }
    }
}

/// The certificate of a decided slot: the `f+1` smallest-id replicas
/// whose counted ACCEPT names `digest`, after every parked vote is
/// checked — the signer set checking each vote on arrival gives.
fn certificate(
    accepts: &mut Votes<Digest>,
    cluster: ClusterId,
    slot: BatchNum,
    digest: Digest,
    cert_quorum: usize,
    keys: &KeyStore,
) -> Certificate {
    accepts.promote_all(keys, |d| accept_statement(cluster, slot, d));
    let sigs = accepts
        .counted
        .iter()
        .filter(|(_, (d, _))| *d == digest)
        .map(|(r, (_, sig))| (NodeId::Replica(*r), *sig))
        .take(cert_quorum)
        .collect();
    Certificate {
        cluster,
        slot,
        digest,
        sigs,
    }
}
