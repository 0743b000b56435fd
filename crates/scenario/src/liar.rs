//! Byzantine actors, kept outside the honest ones.
//!
//! A [`Liar`] wraps any honest actor of a deployment, an edge or a
//! replica, and rewrites the read answers that actor sends to clients
//! with one [`Lie`]. The honest code carries no lie and no behaviour
//! knob: the lie is told at the message boundary, after the honest actor
//! did its work, exactly as a compromised node would re-encode an answer
//! on its way out. [`install`] puts a liar in place before the run or
//! mid-run; the wrapped actor keeps its one start, its queue and its
//! state, so `Deployment::edge_node` / `node` still reach it.
//!
//! What the wrapper does to the traffic of the actor it wraps:
//!
//! * It strips the held anchors (`ReadQuery::held`) from every inbound
//!   read, so the actor answers in full, and elides each rewritten
//!   answer against the stripped anchor itself
//!   (`ReadResponse::held_by`): a body lie still rides a held answer.
//!   An answer whose anchor the lie rewrote ([`Lie::StaleRoot`],
//!   [`Lie::Coalition`]) stays full — held, the lie would never reach
//!   the client.
//! * It takes `reply_to` off every forward the actor sends, so the
//!   replica answers the wrapped edge alone. Once the edge has absorbed
//!   that answer (its cache stays honest), the liar relays it to the
//!   client through the lie.
//!
//! The client-side `ReadVerifier` catches every lie, which is what the
//! byzantine tests pin.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use transedge_common::{BatchNum, ClusterId, Key, NodeId, Value};
use transedge_core::{Deployment, EdgeReadNode, NetMsg};
use transedge_crypto::Digest;
use transedge_edge::{
    Anchor, BatchHeader, Body, CertifiedDelta, MultiProofBody, ReadResponse, ScanProof,
};
use transedge_simnet::{Actor, Context};

/// The lies a [`Liar`] tells in the answers its actor sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lie {
    /// Lie about the first present value (keeps the honest proof —
    /// clients reject with a value/digest mismatch).
    TamperValue,
    /// Corrupt the proof: flip a point proof's first fold-slot bit, or a
    /// scan proof's first entry or boundary sibling (clients reject the
    /// proof against the certified root).
    ForgeProof,
    /// Swap in a stale/forged state root while keeping the real
    /// certificate (clients reject the certificate over the recomputed
    /// digest).
    StaleRoot,
    /// Silently drop one answer. From a point-read section: the first
    /// proven key and its value slot, keeping the proof — which no
    /// longer matches the advertised key set, so the client rejects it
    /// as a bad proof. From a scan: the middle row — the attack
    /// completeness proofs exist for: every surviving row still
    /// verifies individually, so only the scan chain's
    /// row-count-versus-proof check catches it.
    OmitKey,
    /// Inject a bogus key into the changed list of the last delta of an
    /// attached freshness feed — re-shipping the wrapped edge's feed
    /// head when the client's cursor left nothing to send. Either the
    /// changed-key digest no longer matches the delta digest the
    /// replica certificate covers (`BadDelta`) or the delta repeats a
    /// batch the client said it holds (`FeedSpliced`): cryptographic
    /// evidence the directory gossips fleet-wide, like a forged proof.
    TamperDelta,
    /// Lie *consistently* with every other coalition member. The forged
    /// state root is a pure function of the batch number
    /// ([`coalition_root`]), so K colluding edges serve bit-identical
    /// forgeries — a client comparing their answers by vote would see
    /// perfect agreement and learn nothing. Only the proof chain
    /// convicts: the consensus certificate covers the *committed*
    /// digest, the recomputed digest over the forged root differs, and
    /// the rejection is signable evidence against each member
    /// individually. Attached feeds get a shared bogus key too.
    Coalition,
}

/// The coalition's agreed forged state root for one batch: a pure
/// function of the batch number, no covert channel needed. Every
/// [`Lie::Coalition`] member substitutes this root, so K colluding
/// edges answer bit-for-bit identically — and each is still convicted
/// by the certificate-versus-recomputed-digest check.
pub fn coalition_root(num: BatchNum) -> Digest {
    let mut d = [0xC0u8; 32];
    d[..8].copy_from_slice(&num.0.to_le_bytes());
    Digest(d)
}

/// The value [`Lie::TamperValue`] swaps in.
const FORGED: &str = "forged-by-edge";

impl Lie {
    /// Tell this lie in `result`, a full answer. `head` is the feed head
    /// of the answer's partition that the serving edge holds, which a
    /// feed lie re-ships when the attached tail is empty. Returns how
    /// many parts of the answer — its attached feed, and its anchor or
    /// body — the lie changed; an answer it cannot touch comes back as
    /// it was and counts 0.
    pub fn tell(self, result: &mut ReadResponse, head: Option<&Arc<CertifiedDelta>>) -> u64 {
        // A liar strips the held anchors, so its actor answers full.
        let Anchor::Full(anchor) = &mut result.anchor else {
            return 0;
        };
        let header = &mut anchor.0.header;
        match &mut result.body {
            Body::Point { body, fresh } => {
                u64::from(self.doctor_feed(fresh, head))
                    + u64::from(self.forge_root(header) || self.doctor_body(body))
            }
            Body::Scan(scan) => u64::from(self.forge_root(header) || self.doctor_scan(scan)),
        }
    }

    /// Put this lie's forged root into a header; false for a lie that
    /// leaves roots alone (or a root already forged).
    fn forge_root(self, header: &mut BatchHeader) -> bool {
        let forged = match self {
            Lie::StaleRoot => Digest([0xDE; 32]),
            Lie::Coalition => coalition_root(header.num),
            _ => return false,
        };
        std::mem::replace(&mut header.merkle_root, forged) != forged
    }

    /// Doctor a point body. The body is immutable, so a changed body is
    /// rebuilt, exactly as a lying node would re-encode it.
    fn doctor_body(self, body: &mut MultiProofBody) -> bool {
        let (mut keys, mut values, mut proof) = (
            body.keys().to_vec(),
            body.values().to_vec(),
            body.proof().clone(),
        );
        let changed = match self {
            Lie::TamperValue => values.iter_mut().find(|v| v.is_some()).map(|v| {
                *v = Some(Value::from(FORGED));
            }),
            // Every proof over fewer buckets than the whole leaf level
            // has a fold slot; flipping its bit moves every sibling.
            Lie::ForgeProof => proof.empty_slots.first_mut().map(|bits| *bits ^= 1),
            Lie::OmitKey if !keys.is_empty() => {
                keys.remove(0);
                values.remove(0);
                Some(())
            }
            _ => None,
        };
        if changed.is_some() {
            *body = MultiProofBody::new(keys, values, proof);
        }
        changed.is_some()
    }

    /// Doctor a scan window.
    fn doctor_scan(self, scan: &mut ScanProof) -> bool {
        match self {
            Lie::TamperValue => scan.rows.first_mut().map(|(_, v)| *v = Value::from(FORGED)),
            Lie::ForgeProof => scan
                .left
                .first_mut()
                .or_else(|| scan.right.first_mut())
                .map(|digest| digest.0[0] ^= 0xFF),
            // The completeness attack: drop a row but keep the honest
            // siblings. Every surviving row is committed — only the
            // fold of the whole window, whose occupied buckets the
            // verifier rebuilds from the rows, misses the root.
            Lie::OmitKey if !scan.rows.is_empty() => {
                scan.rows.remove(scan.rows.len() / 2);
                Some(())
            }
            _ => None,
        }
        .is_some()
    }

    /// Doctor an attached freshness feed: a bogus key in the last
    /// delta's changed list, re-shipping `head` into an empty tail.
    fn doctor_feed(
        self,
        fresh: &mut Option<Vec<Arc<CertifiedDelta>>>,
        head: Option<&Arc<CertifiedDelta>>,
    ) -> bool {
        // Coalition members forge the *same* bogus delta key as each
        // other (a shared constant), for the same reason their forged
        // roots match: agreement must not look like honesty.
        let bogus = match self {
            Lie::TamperDelta => Key::from_u32(u32::MAX),
            Lie::Coalition => Key::from_u32(u32::MAX - 1),
            _ => return false,
        };
        let Some(feed) = fresh else {
            return false;
        };
        if feed.is_empty() {
            feed.extend(head.cloned());
        }
        let last = feed.last_mut();
        last.map(|last| Arc::make_mut(last).changed.push(bogus))
            .is_some()
    }
}

/// A byzantine wrapper around an honest actor: everything reaches the
/// actor and leaves it as usual, except the read answers it sends to
/// clients, which carry its [`Lie`].
pub struct Liar {
    inner: Box<dyn Actor<NetMsg>>,
    lie: Lie,
    /// Mutations that changed an answer ([`Lie::tell`]'s count).
    tampered: u64,
    /// The held anchors stripped from each read, by the client and
    /// request id its answers go to, and partition.
    held: HashMap<(NodeId, u64, ClusterId), Digest>,
    /// The forwards the wrapped edge sent, by the replica asked and the
    /// upstream request id: the client and request id to relay to.
    relays: HashMap<(NodeId, u64), (NodeId, u64)>,
}

impl Liar {
    /// Tell the lie in `result`, bound for `client` under `req`, then
    /// elide it against the anchor the client named — unless the lie
    /// rewrote that anchor: held, it would never reach the client.
    fn tell(&mut self, client: NodeId, req: u64, mut result: ReadResponse) -> ReadResponse {
        let cluster = result.cluster();
        let inner: &dyn Any = self.inner.as_ref();
        let edge = inner.downcast_ref::<EdgeReadNode>();
        let head = edge.and_then(|edge| edge.feed_head(cluster));
        self.tampered += self.lie.tell(&mut result, head);
        if matches!(self.lie, Lie::StaleRoot | Lie::Coalition) {
            return result;
        }
        result.held_by(self.held.get(&(client, req, cluster)).copied())
    }

    /// Rewrite what the wrapped actor sent in this handler: forwards
    /// lose their `reply_to` (remembered for the relay), answers to
    /// clients carry the lie.
    fn rewrite(&mut self, ctx: &mut Context<'_, NetMsg>) {
        for (to, msg) in ctx.sends_mut() {
            if let NetMsg::Read { req, query } = msg {
                if let Some(client) = query.reply_to.take() {
                    self.relays.insert((to, *req), client);
                }
            } else if matches!((to, &msg), (NodeId::Client(_), NetMsg::ReadResult { .. })) {
                let taken = std::mem::replace(msg, NetMsg::DirectoryPull);
                if let NetMsg::ReadResult { req, result } = taken {
                    let result = self.tell(to, req, result);
                    *msg = NetMsg::ReadResult { req, result };
                }
            }
        }
    }
}

impl Actor<NetMsg> for Liar {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.inner.on_start(ctx);
        self.rewrite(ctx);
    }

    fn on_message(&mut self, from: NodeId, mut msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        let mut relay = None;
        if let NetMsg::Read { req, query } = &mut msg {
            let (client, req) = query.reply_to.unwrap_or((from, *req));
            for (cluster, digest) in query.held.drain(..) {
                self.held.insert((client, req, cluster), digest);
            }
        } else if let NetMsg::ReadResult { req, result } = &msg {
            let to = self.relays.remove(&(from, *req));
            relay = to.map(|(client, req)| (client, req, result.clone()));
        }
        self.inner.on_message(from, msg, ctx);
        self.rewrite(ctx);
        if let Some((client, req, result)) = relay {
            let result = self.tell(client, req, result);
            ctx.send(client, NetMsg::ReadResult { req, result });
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, NetMsg>) {
        self.inner.on_timer(token, ctx);
        self.rewrite(ctx);
    }

    fn inner(&self) -> Option<&(dyn Actor<NetMsg> + 'static)> {
        Some(self.inner.as_ref())
    }

    fn inner_mut(&mut self) -> Option<&mut (dyn Actor<NetMsg> + 'static)> {
        Some(self.inner.as_mut())
    }
}

/// Make the actor registered under `id` — an edge or a replica — tell
/// `lie` from now on. Before the run the liar receives the actor's one
/// start; mid-run (a turncoat) it restarts nothing. Panics naming `id`
/// if no actor is registered there.
pub fn install(dep: &mut Deployment, id: NodeId, lie: Lie) {
    dep.sim.wrap_actor(id, |inner| {
        Box::new(Liar {
            inner,
            lie,
            tampered: 0,
            held: HashMap::new(),
            relays: HashMap::new(),
        })
    });
}

/// How many mutations the liar at `id` made that changed an answer.
/// Panics if no liar is installed there.
pub fn tampered(dep: &Deployment, id: NodeId) -> u64 {
    dep.sim
        .actor_as::<Liar>(id)
        .unwrap_or_else(|| panic!("no liar at {id}"))
        .tampered
}
