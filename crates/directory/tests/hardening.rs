//! Byzantine gossip hardening: the directory must not be a demotion
//! oracle for liars. An edge (or any participant) advertising a
//! *fabricated* rejection-evidence record — honest proof-carrying
//! material dressed up as a byzantine catch — is ignored (the evidence
//! check fails at every honest receiver) and itself struck locally.

use std::collections::HashMap;
use std::sync::Arc;

use transedge_common::{
    BatchNum, ClientId, ClusterId, ClusterTopology, EdgeId, Epoch, Key, NodeId, SimDuration,
    SimTime, Value,
};
use transedge_consensus::messages::accept_statement;
use transedge_consensus::Certificate;
use transedge_crypto::hmac::derive_seed;
use transedge_crypto::merkle::value_digest;
use transedge_crypto::{Digest, KeyStore, Keypair, Sha256, VersionedMerkleTree};
use transedge_directory::{
    is_cryptographic, DirectoryAgent, EvidenceBody, GossipDelta, SignedEvidence, StateSummary,
};
use transedge_edge::{
    changed_keys_digest, BatchCommitment, CertifiedDelta, FeedWindow, MultiProofBody,
    MultiProofBundle, ReadQuery, ReadRejection, ReadResponse, ReadVerifier, VerifyParams,
};
use transedge_storage::VersionedStore;

const DEPTH: u32 = 8;

#[derive(Clone, Debug)]
struct TestHeader {
    cluster: ClusterId,
    num: BatchNum,
    merkle_root: Digest,
    lce: Epoch,
    delta: Digest,
    timestamp: SimTime,
}

impl BatchCommitment for TestHeader {
    fn cluster(&self) -> ClusterId {
        self.cluster
    }
    fn batch(&self) -> BatchNum {
        self.num
    }
    fn merkle_root(&self) -> &Digest {
        &self.merkle_root
    }
    fn lce(&self) -> Epoch {
        self.lce
    }
    fn timestamp(&self) -> SimTime {
        self.timestamp
    }
    fn certified_digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"test/hardening-header");
        h.update(&self.cluster.0.to_le_bytes());
        h.update(&self.num.0.to_le_bytes());
        h.update(self.merkle_root.as_bytes());
        h.update(&self.lce.0.to_le_bytes());
        h.update(self.delta.as_bytes());
        h.update(&self.timestamp.0.to_le_bytes());
        h.finalize()
    }
    fn delta_digest(&self) -> Digest {
        self.delta
    }
}

/// A one-cluster world that can mint certified point bundles, plus
/// registered identity keys for edges and one client.
struct World {
    keys: KeyStore,
    replicas: Vec<(NodeId, Keypair)>,
    header: TestHeader,
    cert: Certificate,
    store: VersionedStore,
    tree: VersionedMerkleTree,
    edge_keys: HashMap<EdgeId, Keypair>,
    client_key: Keypair,
}

impl World {
    fn new() -> Self {
        let topo = ClusterTopology::new(1, 1).unwrap();
        let (mut keys, secrets) = KeyStore::for_topology(&topo, &[5u8; 32]);
        let mut store = VersionedStore::new();
        let mut tree = VersionedMerkleTree::with_depth(DEPTH);
        let num = BatchNum(0);
        let mut updates = Vec::new();
        for i in 0u32..8 {
            let key = Key::from_u32(i);
            let value = Value::from(format!("v{i}").as_str());
            store.write(key.clone(), value.clone(), num);
            updates.push((key, value_digest(&value)));
        }
        let root = tree.apply_batch(num.0, updates.iter().map(|(k, d)| (k, *d)));
        let header = TestHeader {
            cluster: ClusterId(0),
            num,
            merkle_root: root,
            lce: Epoch::NONE,
            delta: changed_keys_digest(&[]),
            timestamp: SimTime(1_000),
        };
        let replicas: Vec<_> = topo
            .replicas_of(ClusterId(0))
            .take(topo.certificate_quorum())
            .map(|r| (NodeId::Replica(r), secrets[&r].clone()))
            .collect();
        let cert = certify(&replicas, &header);
        let mut edge_keys = HashMap::new();
        for index in 0u16..4 {
            let id = EdgeId::new(ClusterId(0), index);
            let kp = Keypair::from_seed(derive_seed(&[5u8; 32], &format!("edge/{index}")));
            keys.register(NodeId::Edge(id), kp.public());
            edge_keys.insert(id, kp);
        }
        let client_key = Keypair::from_seed(derive_seed(&[5u8; 32], "client/0"));
        keys.register(NodeId::Client(ClientId(0)), client_key.public());
        World {
            keys,
            replicas,
            header,
            cert,
            store,
            tree,
            edge_keys,
            client_key,
        }
    }

    fn verifier(&self) -> ReadVerifier {
        ReadVerifier::new(VerifyParams {
            tree_depth: DEPTH,
            freshness_window: SimDuration::from_secs(30),
            quorum: 2,
        })
    }

    /// The honest section for `keys` (sorted), or — `forge` set — the
    /// classic TamperValue forgery: first value swapped, proof kept.
    fn section(&self, keys: &[Key], forge: bool) -> MultiProofBundle<TestHeader> {
        let mut values: Vec<Option<Value>> = keys
            .iter()
            .map(|k| {
                self.store
                    .read_at(k, self.header.num)
                    .map(|v| v.value.clone())
            })
            .collect();
        if forge {
            values[0] = Some(Value::from("forged-by-edge"));
        }
        let proof = self.tree.prove_multi(keys, self.header.num.0);
        MultiProofBundle {
            commitment: self.header.clone(),
            cert: self.cert.clone(),
            body: MultiProofBody::new(keys.to_vec(), values, proof),
        }
    }

    /// Batch `num`'s certified feed delta: it changed `changed` and left
    /// the tree alone (the sections below are all served at batch 0).
    fn delta(&self, num: u64, changed: Vec<Key>) -> Arc<CertifiedDelta<TestHeader>> {
        let commitment = TestHeader {
            num: BatchNum(num),
            delta: changed_keys_digest(&changed),
            ..self.header.clone()
        };
        Arc::new(CertifiedDelta {
            cert: certify(&self.replicas, &commitment),
            commitment,
            changed,
        })
    }

    fn agent(&self, edge: EdgeId) -> DirectoryAgent<TestHeader> {
        DirectoryAgent::new(
            NodeId::Edge(edge),
            self.edge_keys[&edge].clone(),
            self.verifier(),
        )
    }

    /// A point read of `keys` answered with the TamperValue forgery,
    /// and the cryptographic rejection it draws.
    fn tampered_read(
        &self,
        keys: Vec<Key>,
    ) -> (ReadQuery, ReadResponse<TestHeader>, ReadRejection) {
        let query = ReadQuery::point(keys.clone());
        let response = ReadResponse::Point {
            section: Box::new(self.section(&keys, true)),
            fresh: None,
        };
        let rejection = self
            .verifier()
            .verify_query(&self.keys, ClusterId(0), &query, &response, NOW)
            .expect_err("tampered bundle must fail verification");
        assert!(is_cryptographic(&rejection), "got {rejection:?}");
        (query, response, rejection)
    }
}

/// A delta carrying `evidence` from a sender that claims to hold
/// nothing (so the receiver's reply, if any, is everything it holds).
fn delta_of(evidence: Vec<SignedEvidence<TestHeader>>) -> GossipDelta<TestHeader> {
    GossipDelta {
        summary: StateSummary::default(),
        evidence,
    }
}

/// `f+1` replica signatures over `header`'s certified digest.
fn certify(replicas: &[(NodeId, Keypair)], header: &TestHeader) -> Certificate {
    let digest = header.certified_digest();
    let stmt = accept_statement(ClusterId(0), header.num, &digest);
    Certificate {
        cluster: ClusterId(0),
        slot: header.num,
        digest,
        sigs: replicas.iter().map(|(r, k)| (*r, k.sign(&stmt))).collect(),
    }
}

fn edge(i: u16) -> EdgeId {
    EdgeId::new(ClusterId(0), i)
}

const NOW: SimTime = SimTime(2_000);

/// The honest flow this hardening protects: a client that caught a
/// *real* forgery gossips evidence with the offending proof attached,
/// and receivers verify, admit, and demote fleet-wide.
#[test]
fn genuine_evidence_is_admitted_and_demotes() {
    let world = World::new();
    // The byzantine edge tampered with a value (keeping the honest
    // proof) — the classic TamperValue forgery.
    let (query, response, rejection) =
        world.tampered_read(vec![Key::from_u32(0), Key::from_u32(1)]);

    // The witnessing client signs the evidence…
    let mut witness = DirectoryAgent::<TestHeader>::new(
        NodeId::Client(ClientId(0)),
        world.client_key.clone(),
        world.verifier(),
    );
    assert!(witness.witness(edge(1), ClusterId(0), &query, &response, &rejection, NOW));
    assert!(witness.knows_byzantine(edge(1)));

    // …and every honest receiver re-verifies and admits it.
    let mut receiver = world.agent(edge(0));
    let push = witness.delta_for(NodeId::Edge(edge(0)));
    let (report, _) = receiver.ingest_delta(NodeId::Client(ClientId(0)), &push, &world.keys, NOW);
    assert_eq!(report.evidence_accepted, 1);
    assert_eq!(report.evidence_rejected, 0);
    assert!(receiver.knows_byzantine(edge(1)));
    assert!(!receiver.struck(NodeId::Client(ClientId(0))));
    // The demotion shows in the list routing layers read.
    assert_eq!(receiver.convicted_edges(), vec![edge(1)]);
    assert_eq!(receiver.learned_at(edge(1)), Some(NOW));
}

/// Fabricated evidence: an honest, fully-verifying response attached
/// as "proof" of byzantine behaviour. The receiver re-runs the
/// verifier, sees the response verify, drops the record, and strikes
/// the sender.
#[test]
fn fabricated_evidence_is_rejected_and_sender_demoted() {
    let world = World::new();
    let query_keys = vec![Key::from_u32(2)];
    let query = ReadQuery::point(query_keys.clone());
    let honest: ReadResponse<TestHeader> = ReadResponse::Point {
        section: Box::new(world.section(&query_keys, false)),
        fresh: None,
    };
    // Edge 2 frames edge 1 with honest material, signing the claim
    // with its own (registered) key — the signature is fine; the
    // *evidence check* is what fails.
    let fabricated = SignedEvidence::sign(
        NodeId::Edge(edge(2)),
        EvidenceBody {
            subject: edge(1),
            cluster: ClusterId(0),
            query,
            response: honest,
            observed_at: NOW,
        },
        &world.edge_keys[&edge(2)],
    );
    assert!(
        fabricated.verify(&world.keys, &world.verifier()).is_none(),
        "honest material must not pass the evidence check"
    );

    let mut receiver = world.agent(edge(0));
    let delta = delta_of(vec![fabricated]);
    let (report, _) = receiver.ingest_delta(NodeId::Edge(edge(2)), &delta, &world.keys, NOW);
    assert_eq!(report.evidence_accepted, 0);
    assert_eq!(report.evidence_rejected, 1);
    // The framed edge keeps its standing; the fabricator loses its.
    assert!(!receiver.knows_byzantine(edge(1)));
    assert!(receiver.convicted_edges().is_empty());
    assert!(receiver.struck(NodeId::Edge(edge(2))));
}

/// A subscriber holding feed deltas 1..=3 reads keys 0 and 1 (served at
/// batch 0) and tells the edge so; `sent` is what came back with them.
fn subscribed_read(
    world: &World,
    window: &FeedWindow<TestHeader>,
    sent: Vec<Arc<CertifiedDelta<TestHeader>>>,
) -> (ReadQuery, ReadResponse<TestHeader>) {
    let keys = vec![Key::from_u32(0), Key::from_u32(1)];
    let mut query = ReadQuery::point(keys.clone());
    query.feed = Some(vec![(ClusterId(0), window.cursor().unwrap())]);
    let response = ReadResponse::Point {
        section: Box::new(world.section(&keys, false)),
        fresh: Some(sent),
    };
    (query, response)
}

fn window_of(
    deltas: impl IntoIterator<Item = Arc<CertifiedDelta<TestHeader>>>,
) -> FeedWindow<TestHeader> {
    let mut window = FeedWindow::default();
    window.absorb(&deltas.into_iter().collect::<Vec<_>>());
    window
}

/// Feed evidence, the admissible direction: a rejection that rests on
/// the query (cursor included — the witness signed it) and the deltas
/// the edge *sent* reproduces at a receiver that holds no window.
#[test]
fn feed_evidence_against_the_signed_cursor_is_admitted() {
    let world = World::new();
    let other = |n: u64| world.delta(n, vec![Key::from_u32(100 + n as u32)]);
    let window = window_of((1..=3).map(other));
    // The edge re-ships batch 3, which the cursor says is held.
    let (query, response) = subscribed_read(&world, &window, vec![other(3), other(4)]);
    let mut held = window.clone();
    let rejection = world
        .verifier()
        .verify_and_extend(&world.keys, ClusterId(0), &query, &response, &mut held, NOW)
        .expect_err("a tail repeating a held batch is spliced");
    let spliced = ReadRejection::FeedSpliced {
        expected: BatchNum(4),
        got: BatchNum(3),
    };
    assert_eq!(rejection, spliced);

    let mut witness = DirectoryAgent::<TestHeader>::new(
        NodeId::Client(ClientId(0)),
        world.client_key.clone(),
        world.verifier(),
    );
    assert!(witness.witness(edge(1), ClusterId(0), &query, &response, &rejection, NOW));
    let push = witness.delta_for(NodeId::Edge(edge(0)));
    assert_eq!(
        push.evidence[0].verify(&world.keys, &world.verifier()),
        Some(spliced),
        "a third party reproduces the rejection from the signed cursor"
    );
    let mut receiver = world.agent(edge(0));
    let (report, _) = receiver.ingest_delta(NodeId::Client(ClientId(0)), &push, &world.keys, NOW);
    assert_eq!((report.evidence_accepted, report.evidence_rejected), (1, 0));
    assert!(receiver.knows_byzantine(edge(1)));
    // Stripping the cursor from the query breaks the witness's signature.
    let mut stripped = push.evidence[0].clone();
    stripped.body.query.feed = Some(Vec::new());
    assert!(stripped.verify(&world.keys, &world.verifier()).is_none());
}

/// The inadmissible direction: the edge proves a head past a delta the
/// witness *holds* that touches a queried key. The witness rejects (and
/// demotes locally), but no receiver can reproduce it — to them the
/// response verifies — so as gossip it is a fabrication that gets its
/// sender struck. Clients therefore never relay such a rejection.
#[test]
fn a_rejection_resting_on_a_held_delta_is_not_evidence() {
    let world = World::new();
    let other = |n: u64| world.delta(n, vec![Key::from_u32(100 + n as u32)]);
    let touching = world.delta(2, vec![Key::from_u32(1)]);
    let window = window_of([other(1), touching, other(3)]);
    let (query, response) = subscribed_read(&world, &window, vec![other(4)]);
    let mut held = window.clone();
    let rejection = world
        .verifier()
        .verify_and_extend(&world.keys, ClusterId(0), &query, &response, &mut held, NOW)
        .expect_err("held batch 2 changed key 1");
    assert_eq!(rejection, ReadRejection::BadDelta);
    assert!(is_cryptographic(&rejection));
    // Without the window there is nothing to object to…
    assert!(world
        .verifier()
        .verify_query(&world.keys, ClusterId(0), &query, &response, NOW)
        .is_ok());
    // …so a record of it is dropped, and whoever relays it is struck.
    let record = SignedEvidence::sign(
        NodeId::Edge(edge(2)),
        EvidenceBody {
            subject: edge(1),
            cluster: ClusterId(0),
            query,
            response,
            observed_at: NOW,
        },
        &world.edge_keys[&edge(2)],
    );
    assert!(record.verify(&world.keys, &world.verifier()).is_none());
    let mut receiver = world.agent(edge(0));
    let delta = delta_of(vec![record]);
    let (report, _) = receiver.ingest_delta(NodeId::Edge(edge(2)), &delta, &world.keys, NOW);
    assert_eq!((report.evidence_accepted, report.evidence_rejected), (0, 1));
    assert!(!receiver.knows_byzantine(edge(1)));
    assert!(receiver.struck(NodeId::Edge(edge(2))));
}

/// Push–pull delta anti-entropy: two agents with divergent states
/// converge in a single push + reply (two legs), exchanging only the
/// records the other side's summary proves it is missing — and once
/// converged, the next delta carries *no* records at all (the peer's
/// summary is remembered), so steady-state gossip costs summaries,
/// not state.
#[test]
fn delta_exchange_converges_in_two_legs_then_goes_quiet() {
    let world = World::new();
    let mut a = world.agent(edge(0));
    let mut b = world.agent(edge(1));
    // Divergent histories: each side holds verified byzantine evidence
    // the other lacks, against different subjects.
    let (query, response, rejection) = world.tampered_read(vec![Key::from_u32(0)]);
    assert!(a.witness(edge(2), ClusterId(0), &query, &response, &rejection, NOW));
    let (query, response, rejection) = world.tampered_read(vec![Key::from_u32(3)]);
    assert!(b.witness(edge(3), ClusterId(0), &query, &response, &rejection, NOW));

    // Leg 1: A pushes its delta (no summary known for B yet → full
    // state); B merges and replies with exactly what A is missing.
    let push = a.delta_for(NodeId::Edge(edge(1)));
    assert!(!push.evidence.is_empty());
    let (report, reply) = b.ingest_delta(NodeId::Edge(edge(0)), &push, &world.keys, NOW);
    assert_eq!(report.evidence_rejected, 0);
    assert!(b.knows_byzantine(edge(2)), "evidence must ride the delta");
    let reply = reply.expect("B holds records A lacks — it must reply");
    assert_eq!(reply.evidence.len(), 1, "only the missing record");
    assert_eq!(reply.evidence[0].body.subject, edge(3));

    // Leg 2: A merges the reply. Both fingerprints now agree.
    let (report, counter) = a.ingest_delta(NodeId::Edge(edge(1)), &reply, &world.keys, NOW);
    assert_eq!(report.evidence_rejected, 0);
    assert!(
        counter.is_none(),
        "A owes nothing back — convergence in two legs"
    );
    assert_eq!(a.state().fingerprint(), b.state().fingerprint());
    assert_eq!(a.convicted_edges(), vec![edge(2), edge(3)]);

    // Steady state: the next push carries a summary but zero records,
    // and provokes no reply.
    let quiet = a.delta_for(NodeId::Edge(edge(1)));
    assert!(
        quiet.evidence.is_empty(),
        "a remembered peer summary must suppress redundant records"
    );
    let (_, reply) = b.ingest_delta(NodeId::Edge(edge(0)), &quiet, &world.keys, NOW);
    assert!(reply.is_none(), "nothing beats an identical state");
}

/// The answer to a startup pull from an agent that holds nothing: a
/// delta with a summary and zero records. The client ingests it like
/// any delta — nobody is struck, nothing is convicted, nothing is owed
/// back — which is what lets the edge answer every pull and the client
/// stop waiting.
#[test]
fn an_empty_bootstrap_answer_is_ingested_without_striking_anyone() {
    let world = World::new();
    let client = NodeId::Client(ClientId(0));
    let mut cold_edge = world.agent(edge(0));
    let answer = cold_edge.delta_for(client);
    assert!(answer.evidence.is_empty());
    assert_eq!(answer.summary, StateSummary::default());

    let mut booting =
        DirectoryAgent::<TestHeader>::new(client, world.client_key.clone(), world.verifier());
    let (report, reply) = booting.ingest_delta(NodeId::Edge(edge(0)), &answer, &world.keys, NOW);
    assert_eq!((report.evidence_accepted, report.evidence_rejected), (0, 0));
    assert!(reply.is_none());
    assert!(!booting.struck(NodeId::Edge(edge(0))));
    assert!(booting.convicted_edges().is_empty());
    assert_eq!(booting.stats.gossip_ingested, 1);
}

/// An agent remembers summaries for edge peers only. Clients speak the
/// delta leg too (evidence pushes), and a summary kept per client would
/// be state that grows with the client population and is never read:
/// after three clients push (each drawing, as its pull half, the
/// records the earlier ones brought), an answer toward any of them
/// still ships every record, while the push toward an edge peer whose
/// summary *is* remembered stays quiet.
#[test]
fn client_summaries_are_not_remembered() {
    let world = World::new();
    let mut keys = world.keys.clone();
    let mut hub = world.agent(edge(0));
    let (query, response, rejection) = world.tampered_read(vec![Key::from_u32(0)]);
    for id in 0u32..3 {
        let client = NodeId::Client(ClientId(id));
        let kp = Keypair::from_seed(derive_seed(&[5u8; 32], &format!("client/{id}")));
        keys.register(client, kp.public());
        let mut witness = DirectoryAgent::<TestHeader>::new(client, kp, world.verifier());
        let subject = edge(id as u16 + 1);
        assert!(witness.witness(subject, ClusterId(0), &query, &response, &rejection, NOW));
        let push = witness.delta_for(NodeId::Edge(edge(0)));
        let (report, reply) = hub.ingest_delta(client, &push, &keys, NOW);
        assert_eq!((report.evidence_accepted, report.evidence_rejected), (1, 0));
        // The pull half: what the earlier clients brought.
        assert_eq!(reply.map_or(0, |r| r.evidence.len()), id as usize);
    }
    assert_eq!(hub.convicted_edges(), vec![edge(1), edge(2), edge(3)]);
    for id in 0u32..3 {
        let answer = hub.delta_for(NodeId::Client(ClientId(id)));
        assert_eq!(answer.evidence.len(), 3, "no client summary was kept");
    }

    // An edge peer's summary is kept: once it has shown it holds the
    // record, pushes toward it carry the summary alone.
    let mut peer = world.agent(edge(1));
    let push = hub.delta_for(NodeId::Edge(edge(1)));
    assert_eq!(push.evidence.len(), 3);
    let (_, reply) = peer.ingest_delta(NodeId::Edge(edge(0)), &push, &keys, NOW);
    assert!(reply.is_none());
    let back = peer.delta_for(NodeId::Edge(edge(0)));
    hub.ingest_delta(NodeId::Edge(edge(1)), &back, &keys, NOW);
    assert!(hub.delta_for(NodeId::Edge(edge(1))).evidence.is_empty());
}
