//! Property tests for the directory CRDT: merge must be idempotent,
//! commutative, and associative, so *any* gossip delivery order —
//! shuffled, duplicated, re-grouped — converges every replica to the
//! same directory state. These are the laws the anti-entropy epidemic
//! protocol leans on; nothing else makes "a rejection observed by one
//! client demotes the edge fleet-wide" safe to run over a lossy,
//! reordering network.

use proptest::prelude::*;
use transedge_common::{BatchNum, ClusterId, EdgeId, Epoch, NodeId, ReplicaId, SimTime};
use transedge_crypto::{Digest, Signature};
use transedge_directory::{
    DirectoryState, EvidenceBody, ObservationBody, SignedEvidence, SignedObservation,
};
use transedge_edge::{BatchCommitment, ReadQuery, ReadResponse};

/// Minimal commitment for evidence payloads (merge is syntactic; the
/// embedded response is opaque to the CRDT).
#[derive(Clone, Debug)]
struct TestHeader;

impl BatchCommitment for TestHeader {
    fn cluster(&self) -> ClusterId {
        ClusterId(0)
    }
    fn batch(&self) -> BatchNum {
        BatchNum(0)
    }
    fn merkle_root(&self) -> &Digest {
        const ZERO: &Digest = &Digest([0u8; 32]);
        ZERO
    }
    fn lce(&self) -> Epoch {
        Epoch::NONE
    }
    fn timestamp(&self) -> SimTime {
        SimTime(0)
    }
    fn certified_digest(&self) -> Digest {
        Digest([0u8; 32])
    }
}

type State = DirectoryState<TestHeader>;

/// One gossip record. Signatures are arbitrary bytes: validation
/// happens at ingest, *before* the CRDT — the join itself must obey
/// the laws for any record set.
#[derive(Clone, Debug)]
enum Record {
    Observation(SignedObservation),
    Evidence(SignedEvidence<TestHeader>),
}

fn observation(observer: u8, subject: u8, seq: u64, failures: u64, sig: u8) -> Record {
    Record::Observation(SignedObservation {
        observer: NodeId::Replica(ReplicaId::new(ClusterId(0), observer as u16)),
        body: ObservationBody {
            subject: EdgeId::new(ClusterId((subject % 3) as u16), (subject / 3) as u16),
            seq,
            ewma_latency_us: 100 + failures,
            successes: seq,
            failures,
            rejections: 0,
            observed_at: SimTime(seq),
        },
        sig: Signature([sig; 64]),
    })
}

fn evidence(witness: u8, subject: u8, observed_at: u64, sig: u8) -> Record {
    Record::Evidence(SignedEvidence {
        witness: NodeId::Replica(ReplicaId::new(ClusterId(0), witness as u16)),
        body: EvidenceBody {
            subject: EdgeId::new(ClusterId((subject % 3) as u16), (subject / 3) as u16),
            cluster: ClusterId((subject % 3) as u16),
            query: ReadQuery::point(vec![]),
            response: ReadResponse::Point {
                sections: vec![],
                fresh: None,
            },
            observed_at: SimTime(observed_at),
        },
        sig: Signature([sig; 64]),
    })
}

fn admit(state: &mut State, record: &Record) {
    match record {
        Record::Observation(o) => {
            state.admit_observation(o.clone());
        }
        Record::Evidence(e) => {
            state.admit_evidence(e.clone());
        }
    }
}

fn state_of(records: &[Record]) -> State {
    let mut s = State::new();
    for r in records {
        admit(&mut s, r);
    }
    s
}

/// Deterministic Fisher–Yates over a cheap LCG: the proptest shim has
/// no shuffle strategy, so the permutation is derived from a seed.
fn shuffled(records: &[Record], seed: u64) -> Vec<Record> {
    let mut out: Vec<Record> = records.to_vec();
    let mut x = seed | 1;
    for i in (1..out.len()).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (x >> 33) as usize % (i + 1);
        out.swap(i, j);
    }
    out
}

fn record_strategy() -> impl Strategy<Value = Record> {
    prop_oneof![
        ((any::<u8>(), 0u8..9), (1u64..6, any::<u64>(), any::<u8>()))
            .prop_map(|((o, s), (q, f, g))| observation(o % 4, s, q, f % 100, g)),
        (any::<u8>(), 0u8..9, 0u64..50, any::<u8>()).prop_map(|(w, s, t, g)| evidence(
            w % 4,
            s,
            t,
            g
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Idempotence: merging a state into itself (or re-delivering any
    /// prefix of its records) changes nothing.
    #[test]
    fn merge_is_idempotent(records in proptest::collection::vec(record_strategy(), 1..24)) {
        let mut s = state_of(&records);
        let before = s.fingerprint();
        let copy = s.clone();
        prop_assert_eq!(s.merge(&copy), 0, "self-merge must be a no-op");
        prop_assert_eq!(s.fingerprint(), before);
        // Re-delivering every record singly is also a no-op.
        for r in &records {
            admit(&mut s, r);
        }
        prop_assert_eq!(s.fingerprint(), before);
    }

    /// Commutativity: A ∪ B == B ∪ A.
    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(record_strategy(), 0..16),
        b in proptest::collection::vec(record_strategy(), 0..16),
    ) {
        let mut ab = state_of(&a);
        ab.merge(&state_of(&b));
        let mut ba = state_of(&b);
        ba.merge(&state_of(&a));
        prop_assert_eq!(ab.fingerprint(), ba.fingerprint());
        prop_assert_eq!(ab.observation_count(), ba.observation_count());
        prop_assert_eq!(ab.evidence_count(), ba.evidence_count());
    }

    /// Associativity: (A ∪ B) ∪ C == A ∪ (B ∪ C).
    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec(record_strategy(), 0..12),
        b in proptest::collection::vec(record_strategy(), 0..12),
        c in proptest::collection::vec(record_strategy(), 0..12),
    ) {
        let (sa, sb, sc) = (state_of(&a), state_of(&b), state_of(&c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(left.fingerprint(), right.fingerprint());
    }

    /// The epidemic property the laws buy: every shuffled delivery
    /// order of the same records (with duplicates) converges to the
    /// same state — and every replica agrees on the winning record per
    /// key, even under same-`seq` equivocation.
    #[test]
    fn shuffled_delivery_orders_converge(
        records in proptest::collection::vec(record_strategy(), 1..24),
        seeds in proptest::collection::vec(any::<u64>(), 2..6),
    ) {
        let reference = state_of(&records);
        for seed in seeds {
            let mut delivery = shuffled(&records, seed);
            // Duplicate a slice of the stream (gossip re-pushes).
            let dup: Vec<Record> = delivery.iter().take(4).cloned().collect();
            delivery.extend(dup);
            let replica = state_of(&delivery);
            prop_assert_eq!(replica.fingerprint(), reference.fingerprint());
            prop_assert_eq!(replica.observation_count(), reference.observation_count());
            prop_assert_eq!(replica.evidence_count(), reference.evidence_count());
        }
    }
}
