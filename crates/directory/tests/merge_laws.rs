//! Property tests for the directory CRDT: merge must be idempotent,
//! commutative, and associative, so *any* gossip delivery order —
//! shuffled, duplicated, re-grouped — converges every replica to the
//! same directory state. These are the laws the anti-entropy epidemic
//! protocol leans on; nothing else makes "a rejection observed by one
//! client demotes the edge fleet-wide" safe to run over a lossy,
//! reordering network.

use proptest::prelude::*;
use transedge_common::{BatchNum, ClusterId, EdgeId, Epoch, NodeId, ReplicaId, SimTime};
use transedge_consensus::Certificate;
use transedge_crypto::{Digest, MultiProof, Signature};
use transedge_directory::{DirectoryState, EvidenceBody, SignedEvidence};
use transedge_edge::{
    changed_keys_digest, BatchHeader, CdVector, CommittedHeader, MultiProofBody, ReadQuery,
    ReadResponse,
};

/// An opaque stand-in response: an empty point section under batch 0's
/// header (merge is syntactic; the embedded response is opaque to the
/// CRDT) and an unsigned certificate.
fn empty_response() -> ReadResponse {
    let mut cd = CdVector::new(3);
    cd.set(ClusterId(0), Epoch(0));
    let header = CommittedHeader {
        header: BatchHeader {
            cluster: ClusterId(0),
            num: BatchNum(0),
            cd,
            lce: Epoch::NONE,
            merkle_root: Digest::ZERO,
            delta_digest: changed_keys_digest(&[]),
            timestamp: SimTime(0),
        },
        body_digest: Digest::ZERO,
    };
    let cert = Certificate {
        cluster: ClusterId(0),
        slot: BatchNum(0),
        digest: Digest([0u8; 32]),
        sigs: Vec::new(),
    };
    let proof = MultiProof {
        buckets: Vec::new(),
        empty_slots: Vec::new(),
        siblings: Vec::new(),
    };
    ReadResponse::full(
        header,
        cert,
        MultiProofBody::new(Vec::new(), Vec::new(), proof),
    )
}

type State = DirectoryState;

/// One gossip record. Signatures are arbitrary bytes: validation
/// happens at ingest, *before* the CRDT — the join itself must obey
/// the laws for any record set.
type Record = SignedEvidence;

fn subject(s: u8) -> EdgeId {
    EdgeId::new(ClusterId((s % 3) as u16), (s / 3) as u16)
}

fn evidence(witness: u8, s: u8, observed_at: u64, sig: u8) -> Record {
    SignedEvidence {
        witness: NodeId::Replica(ReplicaId::new(ClusterId(0), witness as u16)),
        body: EvidenceBody {
            subject: subject(s),
            cluster: ClusterId((s % 3) as u16),
            query: ReadQuery::point(vec![]),
            response: empty_response(),
            observed_at: SimTime(observed_at),
        },
        sig: Signature([sig; 64]),
    }
}

fn state_of(records: &[Record]) -> State {
    let mut s = State::default();
    for r in records {
        s.admit_evidence(r.clone());
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

/// Two to four records competing for **one** subject — different
/// witnesses and signatures, observation times from a range narrow
/// enough to tie — so every generated set makes the min-rank join pick
/// a winner, by time and by content digest both.
fn rivals() -> impl Strategy<Value = Vec<Record>> {
    (
        0u8..9,
        proptest::collection::vec((any::<u8>(), 0u64..4, any::<u8>()), 2..5),
    )
        .prop_map(|(s, claims)| {
            claims
                .into_iter()
                .map(|(w, t, g)| evidence(w % 4, s, t, g))
                .collect()
        })
}

/// `groups` rival sets, flattened: subjects repeat across sets too.
fn records(groups: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(rivals(), groups).prop_map(|sets| sets.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Idempotence: merging a state into itself (or re-delivering any
    /// prefix of its records) changes nothing.
    #[test]
    fn merge_is_idempotent(records in records(1..8)) {
        let mut s = state_of(&records);
        let before = s.fingerprint();
        let copy = s.clone();
        prop_assert_eq!(s.merge(&copy), 0, "self-merge must be a no-op");
        prop_assert_eq!(s.fingerprint(), before);
        // Re-delivering every record singly is also a no-op.
        for r in &records {
            prop_assert!(!s.admit_evidence(r.clone()));
        }
        prop_assert_eq!(s.fingerprint(), before);
    }

    /// Commutativity: A ∪ B == B ∪ A.
    #[test]
    fn merge_is_commutative(
        a in records(0..6),
        b in records(0..6),
    ) {
        let mut ab = state_of(&a);
        ab.merge(&state_of(&b));
        let mut ba = state_of(&b);
        ba.merge(&state_of(&a));
        prop_assert_eq!(ab.fingerprint(), ba.fingerprint());
        prop_assert_eq!(ab.evidence_count(), ba.evidence_count());
    }

    /// Associativity: (A ∪ B) ∪ C == A ∪ (B ∪ C).
    #[test]
    fn merge_is_associative(
        a in records(0..5),
        b in records(0..5),
        c in records(0..5),
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
    /// same state — and every replica keeps, per subject, the record of
    /// smallest rank among all its rivals.
    #[test]
    fn shuffled_delivery_orders_converge(
        records in records(1..8),
        seeds in proptest::collection::vec(any::<u64>(), 2..6),
    ) {
        let reference = state_of(&records);
        for r in &records {
            let winner = reference.evidence_for(r.body.subject).expect("admitted subject");
            prop_assert!(winner.rank() <= r.rank());
        }
        for seed in seeds {
            let mut delivery = shuffled(&records, seed);
            // Duplicate a slice of the stream (gossip re-pushes).
            let dup: Vec<Record> = delivery.iter().take(4).cloned().collect();
            delivery.extend(dup);
            let replica = state_of(&delivery);
            prop_assert_eq!(replica.fingerprint(), reference.fingerprint());
            prop_assert_eq!(replica.evidence_count(), reference.evidence_count());
        }
    }
}
