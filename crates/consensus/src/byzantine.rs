//! Standard byzantine adversaries for testing the consensus layer.
//!
//! A byzantine node in this codebase is not a special simulator mode —
//! it is just a participant that emits different (validly signed, since
//! it owns its key) messages. The helpers here craft such messages with
//! a compromised keypair; the tests drive them through
//! [`crate::harness::Cluster`]'s message filter.

use transedge_common::{BatchNum, ClusterId, ViewNum};
use transedge_crypto::Keypair;

use crate::messages::{propose_statement, write_statement, BftMsg, BftValue};

/// Craft a validly-signed PROPOSE from a (compromised) leader keypair.
/// Used to simulate equivocation: send different values to different
/// replicas.
pub fn craft_propose<V: BftValue>(
    keypair: &Keypair,
    cluster: ClusterId,
    view: ViewNum,
    slot: BatchNum,
    value: V,
) -> BftMsg<V> {
    let digest = value.digest();
    let stmt = propose_statement(cluster, view, slot, &digest);
    BftMsg::Propose {
        view,
        slot,
        value,
        sig: keypair.sign(&stmt),
    }
}

/// Craft a validly-signed WRITE vote for an arbitrary digest (double
/// voting / vote stuffing).
pub fn craft_write<V: BftValue>(
    keypair: &Keypair,
    cluster: ClusterId,
    view: ViewNum,
    slot: BatchNum,
    digest: transedge_crypto::Digest,
) -> BftMsg<V> {
    let stmt = write_statement(cluster, view, slot, &digest);
    BftMsg::Write {
        view,
        slot,
        digest,
        sig: keypair.sign(&stmt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MAX_PARKED_PER_REPLICA;
    use crate::harness::{Cluster, InFlight};
    use crate::messages::{accept_statement, BftMsg};
    use transedge_common::ReplicaId;
    use transedge_crypto::{Digest, Signature};

    fn value(tag: u8) -> Vec<u8> {
        vec![tag; 8]
    }

    /// An equivocating leader sends value A to half the cluster and
    /// value B to the other half. Safety: no two correct replicas may
    /// deliver different values for the same slot.
    #[test]
    fn equivocating_leader_cannot_split_decisions() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 11);
        let reps = cluster.replicas();
        let leader = cluster.leader();
        let leader_kp = cluster.keypairs[&leader].clone();
        let cid = cluster.cluster_id;

        // The byzantine leader "proposes" by injecting equivocating
        // messages directly into the network.
        for (i, r) in reps.iter().enumerate() {
            if *r == leader {
                continue;
            }
            let v = if i % 2 == 0 { value(1) } else { value(2) };
            let msg = craft_propose(&leader_kp, cid, ViewNum(0), BatchNum(0), v);
            cluster.network.push_back(crate::harness::InFlight {
                from: leader,
                to: *r,
                msg,
            });
        }
        cluster.run(50_000);
        // No split brain: at most one distinct value across delivered
        // logs of correct replicas.
        let mut decided_values: Vec<Vec<u8>> = vec![];
        for r in &reps {
            if *r == leader {
                continue;
            }
            for (_, v) in &cluster.delivered[r] {
                if !decided_values.contains(v) {
                    decided_values.push(v.clone());
                }
            }
        }
        assert!(
            decided_values.len() <= 1,
            "equivocation split the cluster: {decided_values:?}"
        );
    }

    /// Equivocation is *detected*: some replica votes for a view change
    /// after seeing two conflicting proposals.
    #[test]
    fn equivocation_triggers_view_change_votes() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 12);
        let reps = cluster.replicas();
        let leader = cluster.leader();
        let leader_kp = cluster.keypairs[&leader].clone();
        let cid = cluster.cluster_id;
        let target = reps[1];
        // Send the same replica two conflicting proposals.
        for v in [value(1), value(2)] {
            cluster.network.push_back(crate::harness::InFlight {
                from: leader,
                to: target,
                msg: craft_propose(&leader_kp, cid, ViewNum(0), BatchNum(0), v),
            });
        }
        // Watch for a ViewChange from the target.
        let mut saw_view_change = false;
        cluster.run_with(50_000, &mut |m| {
            if m.from == target {
                if let BftMsg::ViewChange { .. } = &m.msg {
                    saw_view_change = true;
                }
            }
            Some(m.msg.clone())
        });
        assert!(
            saw_view_change,
            "conflicting proposals must trigger a view-change vote"
        );
    }

    /// A replica that forges WRITE votes for a value nobody proposed
    /// cannot make anyone accept it.
    #[test]
    fn forged_write_votes_do_not_decide() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 13);
        let reps = cluster.replicas();
        let bad = reps[3];
        let bad_kp = cluster.keypairs[&bad].clone();
        let cid = cluster.cluster_id;
        let phantom = value(99);
        let digest = phantom.digest();
        // Stuff forged writes to everyone.
        for r in &reps {
            if *r == bad {
                continue;
            }
            cluster.network.push_back(crate::harness::InFlight {
                from: bad,
                to: *r,
                msg: craft_write::<Vec<u8>>(&bad_kp, cid, ViewNum(0), BatchNum(0), digest),
            });
        }
        cluster.run(50_000);
        for r in &reps {
            assert!(cluster.delivered[r].is_empty());
        }
    }

    /// Signature checks: a message claiming to come from replica A but
    /// signed by replica B is ignored.
    #[test]
    fn spoofed_sender_is_rejected() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 14);
        let reps = cluster.replicas();
        let leader = cluster.leader();
        // Replica 3 crafts a proposal with its own key but claims the
        // leader sent it.
        let impostor_kp = cluster.keypairs[&reps[3]].clone();
        let cid = cluster.cluster_id;
        let msg = craft_propose(&impostor_kp, cid, ViewNum(0), BatchNum(0), value(66));
        cluster.network.push_back(crate::harness::InFlight {
            from: leader, // spoofed provenance
            to: reps[1],
            msg,
        });
        cluster.run(50_000);
        assert!(cluster.delivered[&reps[1]].is_empty());
    }

    /// A byzantine replica sending garbage StateResponses cannot poison
    /// a lagging replica: certificates gate acceptance.
    #[test]
    fn fake_state_response_is_rejected() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 15);
        let reps = cluster.replicas();
        let bad = reps[3];
        let victim = reps[2];
        // Build a fake certificate signed only by the byzantine node.
        let phantom = value(42);
        let digest = phantom.digest();
        let stmt = crate::messages::accept_statement(cluster.cluster_id, BatchNum(0), &digest);
        let sig = cluster.keypairs[&bad].sign(&stmt);
        let cert = crate::messages::Certificate {
            cluster: cluster.cluster_id,
            slot: BatchNum(0),
            digest,
            sigs: vec![(transedge_common::NodeId::Replica(bad), sig)],
        };
        cluster.network.push_back(crate::harness::InFlight {
            from: bad,
            to: victim,
            msg: BftMsg::StateResponse {
                batches: vec![(BatchNum(0), phantom, cert)],
            },
        });
        cluster.run(50_000);
        assert!(
            cluster.delivered[&victim].is_empty(),
            "one forged signature must not fast-forward a replica"
        );
    }

    /// The leader proposing a value the application rejects gets voted
    /// out (validate returns false → view-change vote).
    #[test]
    fn app_invalid_proposal_triggers_view_change() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 16);
        let reps = cluster.replicas();
        let leader = cluster.leader();
        cluster.propose(value(1));
        // Deliver with a validator that rejects everything at reps[1].
        // We simulate by intercepting: when the Propose reaches reps[1],
        // feed it through the engine with a rejecting validator.
        let mut saw_vc = false;
        while let Some(inflight) = cluster.network.pop_front() {
            let to = inflight.to;
            let from = inflight.from;
            let msg = inflight.msg;
            let reject = to == reps[1] && matches!(msg, BftMsg::Propose { .. });
            let outputs = cluster
                .engine_mut(to)
                .handle(from, msg, &mut |_, _| !reject);
            for o in &outputs {
                if let crate::engine::Output::Broadcast(BftMsg::ViewChange { .. }) = o {
                    if to == reps[1] {
                        saw_vc = true;
                    }
                }
            }
            // Drop further routing; we only care about the immediate vote.
            let _ = leader;
            if saw_vc {
                break;
            }
        }
        assert!(saw_vc, "invalid proposal must trigger a view-change vote");
    }

    /// A WRITE and an ACCEPT for slot 0 of view 0 naming `digest`, signed
    /// with `signer`'s key — forgeries when sent as another replica's.
    fn votes_signed_by(
        cluster: &Cluster<Vec<u8>>,
        signer: ReplicaId,
        digest: Digest,
    ) -> [BftMsg<Vec<u8>>; 2] {
        let kp = &cluster.keypairs[&signer];
        let stmt = accept_statement(cluster.cluster_id, BatchNum(0), &digest);
        [
            craft_write(kp, cluster.cluster_id, ViewNum(0), BatchNum(0), digest),
            BftMsg::Accept {
                slot: BatchNum(0),
                digest,
                sig: kp.sign(&stmt),
            },
        ]
    }

    /// Queue `msg` as sent by `from` to every other replica.
    fn inject(cluster: &mut Cluster<Vec<u8>>, from: ReplicaId, msg: &BftMsg<Vec<u8>>) {
        for to in cluster.replicas() {
            if to != from {
                cluster.network.push_back(InFlight {
                    from,
                    to,
                    msg: msg.clone(),
                });
            }
        }
    }

    fn signature_of(msg: &BftMsg<Vec<u8>>) -> Option<Signature> {
        match msg {
            BftMsg::Write { sig, .. } | BftMsg::Accept { sig, .. } => Some(*sig),
            _ => None,
        }
    }

    /// With one replica down the quorum needs the byzantine one, whose
    /// only votes carry another replica's signature: nobody decides.
    #[test]
    fn bad_signature_votes_never_count_toward_a_quorum() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 21);
        let reps = cluster.replicas();
        let (down, bad) = (reps[2], reps[3]);
        cluster.down = vec![down];
        let forged = votes_signed_by(&cluster, down, value(1).digest());
        for msg in &forged {
            inject(&mut cluster, bad, msg);
        }
        cluster.propose(value(1));
        let forged_sigs: Vec<Signature> = forged.iter().filter_map(signature_of).collect();
        // The byzantine replica's own votes never leave it.
        cluster.run_with(10_000, &mut |m| {
            let genuine_vote = signature_of(&m.msg).is_some_and(|s| !forged_sigs.contains(&s));
            (m.from != bad || !genuine_vote).then(|| m.msg.clone())
        });
        for r in &reps {
            assert!(cluster.delivered[r].is_empty(), "{r} decided");
        }
    }

    /// The same forgeries arrive first, then the replica's genuine votes:
    /// the invalid ones do not shadow them, and the slot decides.
    #[test]
    fn a_later_valid_vote_still_counts() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 22);
        let reps = cluster.replicas();
        let (down, bad) = (reps[2], reps[3]);
        cluster.down = vec![down];
        for msg in votes_signed_by(&cluster, down, value(2).digest()) {
            inject(&mut cluster, bad, &msg);
        }
        cluster.propose(value(2));
        cluster.run(10_000);
        for r in [reps[0], reps[1], bad] {
            assert_eq!(
                cluster.delivered[&r],
                vec![(BatchNum(0), value(2))],
                "at {r}"
            );
        }
    }

    /// A replica first votes, validly signed, for a value nobody
    /// proposed, then for the proposal: its first valid vote is the one
    /// that counts, so with one replica down nobody decides.
    #[test]
    fn an_equivocating_replicas_first_valid_vote_stands() {
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 23);
        let reps = cluster.replicas();
        let (down, bad) = (reps[2], reps[3]);
        cluster.down = vec![down];
        for msg in votes_signed_by(&cluster, bad, value(66).digest()) {
            inject(&mut cluster, bad, &msg);
        }
        cluster.propose(value(3));
        cluster.run(10_000);
        for r in &reps {
            assert!(cluster.delivered[r].is_empty(), "{r} decided");
        }
    }

    /// A hundred forged votes of each kind from one replica before the
    /// proposal: the cluster decides as usual, and all but a handful of
    /// the flood are dropped without a signature check.
    #[test]
    fn a_vote_flood_is_dropped_unchecked() {
        const FLOOD: usize = 100;
        let mut cluster: Cluster<Vec<u8>> = Cluster::new(1, 24);
        let reps = cluster.replicas();
        let (signer, bad, victim) = (reps[2], reps[3], reps[1]);
        for n in 0..FLOOD {
            // Distinct digests, so no two flood votes are alike.
            for msg in votes_signed_by(&cluster, signer, Digest([n as u8; 32])) {
                cluster.network.push_back(InFlight {
                    from: bad,
                    to: victim,
                    msg,
                });
            }
        }
        cluster.propose(value(4));
        cluster.run(50_000);
        let log = cluster.assert_agreement();
        assert_eq!(log, vec![(BatchNum(0), value(4))]);
        let unchecked = cluster.engine(victim).votes_never_verified();
        assert!(
            unchecked >= 2 * (FLOOD - MAX_PARKED_PER_REPLICA) as u64,
            "{unchecked} of {} flood votes unchecked",
            2 * FLOOD
        );
    }
}
