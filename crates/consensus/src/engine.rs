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

/// Per-slot voting state.
struct SlotState<V> {
    /// Proposal accepted in the current view: (view, value, digest).
    proposal: Option<(ViewNum, V, Digest)>,
    /// Propose received while this replica lagged; replayed once the
    /// slot becomes current.
    pending_propose: Option<(ReplicaId, BftMsg<V>)>,
    /// WRITE votes: replica → (view, digest, sig).
    writes: HashMap<ReplicaId, (ViewNum, Digest, Signature)>,
    /// ACCEPT votes: replica → (digest, sig).
    accepts: HashMap<ReplicaId, (Digest, Signature)>,
    wrote: bool,
    accepted: bool,
    decided: Option<V>,
}

impl<V> Default for SlotState<V> {
    fn default() -> Self {
        SlotState {
            proposal: None,
            pending_propose: None,
            writes: HashMap::new(),
            accepts: HashMap::new(),
            wrote: false,
            accepted: false,
            decided: None,
        }
    }
}

/// The consensus engine. One per replica.
pub struct BftEngine<V: BftValue> {
    config: BftConfig,
    keypair: Keypair,
    keys: KeyStore,
    view: ViewNum,
    /// In-flight slot states, keyed by slot number.
    slots: HashMap<u64, SlotState<V>>,
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
}

impl<V: BftValue> BftEngine<V> {
    pub fn new(config: BftConfig, keypair: Keypair, keys: KeyStore) -> Self {
        BftEngine {
            config,
            keypair,
            keys,
            view: ViewNum(0),
            slots: HashMap::new(),
            log: BatchArchive::new(),
            vc_votes: HashMap::new(),
            vc_target: None,
            reproposal_obligation: None,
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
    /// use this to drive leader-progress timeouts.
    pub fn has_undecided_inflight(&self) -> bool {
        self.vc_target.is_some()
            || self
                .slots
                .values()
                .any(|s| s.decided.is_none() && (s.proposal.is_some() || !s.writes.is_empty()))
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
        slot_state.wrote = true;
        let wstmt = write_statement(self.config.cluster, view, slot, &digest);
        let wsig = self.keypair.sign(&wstmt);
        slot_state
            .writes
            .insert(self.config.me, (view, digest, wsig));
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
        let stmt = write_statement(self.config.cluster, view, slot, &digest);
        if self
            .keys
            .verify(NodeId::Replica(from), &stmt, &sig)
            .is_err()
        {
            return;
        }
        let state = self.slots.entry(slot.0).or_default();
        // First write per replica per view wins (byzantine replicas
        // cannot double-vote).
        state.writes.entry(from).or_insert((view, digest, sig));
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
        let stmt = accept_statement(self.config.cluster, slot, &digest);
        if self
            .keys
            .verify(NodeId::Replica(from), &stmt, &sig)
            .is_err()
        {
            return;
        }
        let state = self.slots.entry(slot.0).or_default();
        state.accepts.entry(from).or_insert((digest, sig));
        self.check_accept_quorum(slot, out);
    }

    fn check_write_quorum(&mut self, slot: BatchNum, out: &mut Vec<Output<V>>) {
        let view = self.view;
        let quorum = self.config.quorum();
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
        let count = state
            .writes
            .values()
            .filter(|(v, d, _)| *v == view && *d == digest)
            .count();
        if count < quorum {
            return;
        }
        state.accepted = true;
        let stmt = accept_statement(self.config.cluster, slot, &digest);
        let sig = self.keypair.sign(&stmt);
        state.accepts.insert(self.config.me, (digest, sig));
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
        let Some((_, value, pdigest)) = &state.proposal else {
            // 2f+1 accepts without a proposal means we missed the value;
            // ask a correct accepter for state.
            if state.accepts.len() >= quorum && state.pending_propose.is_none() {
                // The accepter with the smallest id gets the request.
                if let Some(&peer) = state.accepts.keys().min() {
                    let from_slot = self.log.next_num();
                    out.push(Output::Send(peer, BftMsg::StateRequest { from: from_slot }));
                }
            }
            return;
        };
        let digest = *pdigest;
        let matching: Vec<(NodeId, Signature)> = state
            .accepts
            .iter()
            .filter(|(_, (d, _))| *d == digest)
            .map(|(r, (_, s))| (NodeId::Replica(*r), *s))
            .collect();
        if matching.len() < quorum {
            return;
        }
        let mut sigs = matching;
        sigs.sort_by_key(|(n, _)| *n);
        sigs.truncate(cert_quorum);
        let cert = Certificate {
            cluster,
            slot,
            digest,
            sigs,
        };
        state.decided = Some(value.clone());
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
        // Stash the certificate with the slot so the flush below can use it.
        // (Only the just-decided slot carries a fresh cert; slots decided
        // earlier already hold theirs in `pending_certs` via recursion.)
        let mut certs: HashMap<u64, Certificate> = HashMap::new();
        certs.insert(decided_slot.0, cert);
        loop {
            let next = self.log.next_num();
            let Some(state) = self.slots.get(&next.0) else {
                break;
            };
            if state.decided.is_none() {
                break;
            }
            let state = self.slots.remove(&next.0).unwrap();
            let value = state.decided.unwrap();
            let cert = match certs.remove(&next.0) {
                Some(c) => c,
                None => {
                    // Rebuild from stored accepts (slot decided earlier,
                    // out of order).
                    let digest = value.digest();
                    let mut sigs: Vec<(NodeId, Signature)> = state
                        .accepts
                        .iter()
                        .filter(|(_, (d, _))| *d == digest)
                        .map(|(r, (_, s))| (NodeId::Replica(*r), *s))
                        .collect();
                    sigs.sort_by_key(|(n, _)| *n);
                    sigs.truncate(self.config.cert_quorum());
                    Certificate {
                        cluster: self.config.cluster,
                        slot: next,
                        digest,
                        sigs,
                    }
                }
            };
            self.log.append(next, (value.clone(), cert.clone()));
            out.push(Output::Decided {
                slot: next,
                value,
                cert,
            });
            // A buffered proposal for the new next slot can now be
            // replayed by the host; surface it via re-handling.
            let new_next = self.log.next_num();
            if let Some(st) = self.slots.get_mut(&new_next.0) {
                if let Some((from, msg)) = st.pending_propose.take() {
                    // Replay with a permissive validator: the host's
                    // validator is not available here, so mark it
                    // pending again through a self-send. Hosts replay
                    // via `take_pending_propose`.
                    st.pending_propose = Some((from, msg));
                }
            }
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
        let prepared_info = self.slots.get(&delivered.0).and_then(|s| {
            let (pview, value, pdigest) = s.proposal.as_ref()?;
            let count = s
                .writes
                .values()
                .filter(|(v, d, _)| v == pview && d == pdigest)
                .count();
            (count >= self.config.quorum()).then(|| ((*pview, delivered, *pdigest), value.clone()))
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
        // Undecided in-flight slots: write votes are view-scoped and now
        // stale — drop them so fresh view-`v` writes can be recorded
        // (votes are keyed per replica and first-write-wins). The
        // proposal and our wrote/accepted flags also reset so we re-vote
        // on the re-proposal; recorded accepts survive because accept
        // statements are view-independent.
        for state in self.slots.values_mut() {
            if state.decided.is_none() {
                state.proposal = None;
                state.wrote = false;
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
            self.slots.remove(&slot.0);
            self.log.append(slot, (value.clone(), cert.clone()));
            out.push(Output::Decided { slot, value, cert });
        }
    }
}
