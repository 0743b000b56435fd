//! The verified-certificate memo at the verifier's one quorum-check
//! seam: what a hit may and may not stand for. (That a *warm* memo never
//! changes a verdict is checked for every forgery of the point, feed
//! and scan suites — see `Partition::verdict` and its twins.) Here:
//! failures are never remembered, a hit is for exact bytes, the memo is
//! bounded, nothing time-dependent is cached, and `sig_checks` counts
//! the signatures actually verified — what a client is charged.

mod common;

use common::{anchor_mut, body, with_feed, Partition};
use transedge_common::{BatchNum, ClusterId, Epoch, Key, SimDuration, SimTime};
use transedge_edge::{
    CertifiedDelta, QuorumCheck, ReadQuery, ReadRejection, ReadResponse, SnapshotPolicy,
    VerifiedCerts,
};

const T0: u64 = 100_000_000;
const SECOND: u64 = 1_000_000;
const SERVED: BatchNum = BatchNum(1);
const NOW: SimTime = SimTime(T0 + SECOND + SECOND / 2);

/// Batch 0 is the base state, 1 overwrites key 1, 2..=5 touch keys
/// nobody reads (the honest freshness feed).
fn world() -> Partition {
    let mut p = Partition::new();
    p.commit(&[(1, "a"), (2, "b"), (3, "c")], Epoch::NONE, SimTime(T0));
    p.commit(&[(1, "overwrite")], Epoch(0), SimTime(T0 + SECOND));
    for n in 2..=5u32 {
        p.commit(
            &[(5_000 + n, "elsewhere")],
            Epoch(n as i64 - 1),
            SimTime(T0 + n as u64 * SECOND),
        );
    }
    p
}

fn keys() -> Vec<Key> {
    vec![Key::from_u32(1), Key::from_u32(2)]
}

/// One read through `memo`, reduced to its rejection.
fn read(
    p: &Partition,
    memo: &VerifiedCerts,
    query: &ReadQuery,
    response: &ReadResponse,
    now: SimTime,
) -> Result<(), ReadRejection> {
    p.verifier()
        .verify_query(memo, ClusterId(0), query, response, now)
        .map(|_| ())
}

#[test]
fn a_failed_check_is_never_remembered() {
    let p = world();
    let memo = VerifiedCerts::new(p.keys.clone());
    let quorum = p.topo.certificate_quorum() as u64;
    let query = ReadQuery::point(keys());
    let honest = p.section(&keys(), SERVED);
    // One signature transplanted from another slot's certificate: a
    // well-formed signer list that falls one valid signature short.
    let mut forged = honest.clone();
    anchor_mut(&mut forged).1.sigs[0] = p.certs[0].sigs[0];
    for round in 1..=2 {
        assert_eq!(
            read(&p, &memo, &query, &forged.clone(), NOW),
            Err(ReadRejection::BadCertificate)
        );
        // Rejected again *and* fully re-checked: nothing was remembered.
        assert_eq!(memo.sig_checks(), round * quorum);
        assert_eq!(memo.hits(), 0);
    }
    // Only a success is remembered, and only for its exact bytes.
    assert_eq!(read(&p, &memo, &query, &honest.clone(), NOW), Ok(()));
    assert_eq!(memo.sig_checks(), 3 * quorum);
    assert_eq!(read(&p, &memo, &query, &honest, NOW), Ok(()));
    assert_eq!((memo.sig_checks(), memo.hits()), (3 * quorum, 1));
    assert_eq!(
        read(&p, &memo, &query, &forged, NOW),
        Err(ReadRejection::BadCertificate)
    );
    assert_eq!(memo.sig_checks(), 4 * quorum);
}

#[test]
fn a_memoised_slot_does_not_vouch_for_another_digest() {
    let p = world();
    let memo = VerifiedCerts::new(p.keys.clone());
    let quorum = p.topo.certificate_quorum() as u64;
    let query = ReadQuery::point(keys());
    let honest = p.section(&keys(), SERVED);
    assert_eq!(read(&p, &memo, &query, &honest.clone(), NOW), Ok(()));
    assert_eq!(memo.sig_checks(), quorum);

    // The stale-root attack against a warm memo: the memoised
    // certificate under a commitment whose root was rewritten. The
    // recomputed digest no longer matches the certificate's, so the
    // chain stops before the quorum check — no signature is touched,
    // none is charged.
    let mut rerooted = honest.clone();
    anchor_mut(&mut rerooted).0.header.merkle_root = p.headers[0].header.merkle_root;
    assert_eq!(
        read(&p, &memo, &query, &rerooted.clone(), NOW),
        Err(ReadRejection::BadCertificate)
    );
    assert_eq!((memo.sig_checks(), memo.hits()), (quorum, 0));

    // The same forgery with the certificate's statement rewritten to
    // match: same `(cluster, slot)`, same signatures, another digest.
    // Different bytes — a miss — and the signatures do not cover it.
    let rerooted_anchor = anchor_mut(&mut rerooted);
    rerooted_anchor.1.digest = rerooted_anchor.0.certified_digest();
    assert_eq!(
        read(&p, &memo, &query, &rerooted, NOW),
        Err(ReadRejection::BadCertificate)
    );
    assert_eq!((memo.sig_checks(), memo.hits()), (2 * quorum, 0));

    // Neither does a response for the wrong partition reach it.
    assert!(matches!(
        p.verifier()
            .verify_query(&memo, ClusterId(3), &query, &honest, NOW),
        Err(ReadRejection::WrongCluster { .. })
    ));
    assert_eq!((memo.sig_checks(), memo.hits()), (2 * quorum, 0));
}

#[test]
fn a_feed_is_charged_up_to_the_delta_that_fails() {
    let p = world();
    let memo = VerifiedCerts::new(p.keys.clone());
    let quorum = p.topo.certificate_quorum() as u64;
    let query = ReadQuery::point(keys());
    let fresh = |feed: Vec<CertifiedDelta>| with_feed(p.section(&keys(), SERVED), feed);
    let tail: Vec<_> = (2..=5).map(|n| p.delta(BatchNum(n))).collect();

    // The third delta's certificate is below quorum: deltas one to
    // three were checked, the fourth and the section never were.
    let mut broken = tail.clone();
    broken[2].cert.sigs.truncate(quorum as usize - 1);
    assert_eq!(
        read(&p, &memo, &query, &fresh(broken), NOW),
        Err(ReadRejection::BadCertificate)
    );
    assert_eq!(memo.sig_checks(), 3 * quorum - 1);

    // A feed spliced at its first delta costs nothing at all.
    assert!(matches!(
        read(&p, &memo, &query, &fresh(tail[1..].to_vec()), NOW),
        Err(ReadRejection::FeedSpliced { .. })
    ));
    assert_eq!(memo.sig_checks(), 3 * quorum - 1);

    // The honest tail now pays only for what the memo has not seen —
    // deltas three and four and the section — and a re-read of it, one
    // delta longer, only for the new delta.
    assert_eq!(
        read(&p, &memo, &query, &fresh(tail[..3].to_vec()), NOW),
        Ok(())
    );
    assert_eq!((memo.sig_checks(), memo.hits()), (5 * quorum - 1, 2));
    assert_eq!(read(&p, &memo, &query, &fresh(tail), NOW), Ok(()));
    assert_eq!((memo.sig_checks(), memo.hits()), (6 * quorum - 1, 6));
}

#[test]
fn the_memo_is_bounded_and_evicts_the_least_recent() {
    let p = world();
    let memo = VerifiedCerts::new(p.keys.clone());
    let quorum = p.topo.certificate_quorum();
    // Capacity + 1 distinct honest certificates, oldest first.
    let cert_of = |slot: u64| {
        let mut header = p.headers[0].clone();
        header.header.num = BatchNum(slot);
        p.certify(&header)
    };
    let first = cert_of(0);
    assert!(memo.check_quorum(&first, quorum));
    for slot in 1..VerifiedCerts::CAPACITY as u64 {
        assert!(memo.check_quorum(&cert_of(slot), quorum));
    }
    // Full, nothing evicted yet: the oldest still hits (and becomes the
    // most recent, leaving slot 1 the eviction candidate).
    let checked = memo.sig_checks();
    assert!(memo.check_quorum(&first, quorum));
    assert_eq!((memo.sig_checks(), memo.hits()), (checked, 1));
    // One more evicts slot 1, which is then re-checked and still
    // verifies; slot 0 was touched and survives.
    assert!(memo.check_quorum(&cert_of(VerifiedCerts::CAPACITY as u64), quorum));
    let checked = memo.sig_checks();
    assert!(memo.check_quorum(&cert_of(1), quorum));
    assert_eq!(memo.sig_checks(), checked + quorum as u64);
    assert!(memo.check_quorum(&first, quorum));
    assert_eq!(
        (memo.sig_checks(), memo.hits()),
        (checked + quorum as u64, 2)
    );
}

#[test]
fn time_dependent_checks_are_never_cached() {
    let p = world();
    let memo = VerifiedCerts::new(p.keys.clone());
    let quorum = p.topo.certificate_quorum() as u64;
    let query = ReadQuery::point(keys());
    let response = p.section(&keys(), SERVED);
    assert_eq!(read(&p, &memo, &query, &response, NOW), Ok(()));

    // Aged past the freshness window, in both directions of skew.
    let skew = SimDuration::from_secs(31).as_micros();
    let served_ts = p.headers[SERVED.0 as usize].header.timestamp.0;
    for now in [SimTime(served_ts + skew), SimTime(served_ts - skew)] {
        assert_eq!(
            read(&p, &memo, &query, &response, now),
            Err(ReadRejection::StaleTimestamp)
        );
    }
    // Below a raised LCE floor.
    let floored = query
        .clone()
        .with_policy(SnapshotPolicy::MinEpoch(Epoch(1)));
    assert_eq!(
        read(&p, &memo, &floored, &response, NOW),
        Err(ReadRejection::StaleSnapshot {
            required: Epoch(1),
            lce: Epoch(0)
        })
    );
    // Every one of those reached the memo and hit it; the verdicts came
    // from the checks behind it.
    assert_eq!((memo.sig_checks(), memo.hits()), (quorum, 3));

    // Nor are proofs: a memoised certificate over a forged slot bit.
    let honest = p.section(&keys(), SERVED);
    let mut proof = body(&honest).proof().clone();
    proof.empty_slots[0] ^= 1;
    let forged = common::rebuild(
        &honest,
        body(&honest).keys().to_vec(),
        body(&honest).values().to_vec(),
        proof,
    );
    assert_eq!(
        read(&p, &memo, &query, &forged, NOW),
        Err(ReadRejection::BadProof)
    );
    assert_eq!((memo.sig_checks(), memo.hits()), (quorum, 4));
}

/// The memo key is `sha256(encode(cert) ‖ quorum as u64 LE)` — the
/// digest the memo has always keyed on, now hashed from a reused
/// buffer — for every certificate, whatever the previous key's length,
/// and a different quorum is a different key.
#[test]
fn the_memo_key_hashes_the_certificate_encoding_and_the_quorum() {
    use transedge_common::Encode as _;

    let p = world();
    let memo = VerifiedCerts::new(p.keys.clone());
    let mut thin = p.certs[0].clone();
    thin.sigs.truncate(1);
    for cert in p.certs.iter().chain([&thin]).chain(p.certs.iter().rev()) {
        for quorum in [1, 2] {
            let mut bytes = cert.encode_to_vec();
            bytes.extend_from_slice(&(quorum as u64).to_le_bytes());
            assert_eq!(
                memo.memo_key(cert, quorum),
                transedge_crypto::sha256(&bytes)
            );
        }
        assert_ne!(memo.memo_key(cert, 1), memo.memo_key(cert, 2));
    }
}
