//! The point-read adversary suite: everything an untrusted node could do
//! to a point answer, driven only through `ReadVerifier::verify_query`
//! against a real partition state — honest responses verify to the
//! committed content, every forgery trips its typed rejection.
//!
//! One suite for the one point shape. The property test is
//! parameterised over keys per section (1..=8, present and absent), so
//! a single-key replica answer, a wide batched read and an edge's
//! superset replay all run the same attack matrix. A point answer is
//! one section by type: there is no list to empty, reorder or tear.

mod common;

use std::sync::Arc;

use common::{rebuild, Partition, Section, TestHeader, DEPTH};
use proptest::prelude::*;
use transedge_common::{BatchNum, ClusterId, Encode as _, Epoch, Key, SimDuration, SimTime, Value};
use transedge_crypto::{Digest, ScanRange};
use transedge_edge::{
    CertifiedDelta, PageToken, QueryAnswer, ReadQuery, ReadRejection, ReadResponse, SnapshotPolicy,
    SnapshotSource,
};

/// Batch `n` is stamped `T0 + n` seconds — far enough from zero that a
/// verifier clock *behind* the batch is representable too.
const T0: u64 = 100_000_000;
const SECOND: u64 = 1_000_000;
/// The batch every response is served at: 0 is the base state, 1
/// overwrites one key (so the roots differ), 2 and 3 only touch keys
/// nobody reads (the honest freshness feed).
const SERVED: BatchNum = BatchNum(1);
/// A verifier clock shortly after the served batch.
const NOW: SimTime = SimTime(T0 + SECOND + SECOND / 2);

fn world(key_tags: &[(u16, u8)]) -> Partition {
    let mut p = Partition::new();
    let base: Vec<(u32, String)> = key_tags
        .iter()
        .map(|(k, v)| (*k as u32 % 512, format!("a{v}")))
        .collect();
    p.commit(&base, Epoch::NONE, SimTime(T0));
    p.commit(
        &[(key_tags[0].0 as u32 % 512, "overwrite")],
        Epoch(0),
        SimTime(T0 + SECOND),
    );
    p.commit(&[(5_000, "elsewhere")], Epoch(1), SimTime(T0 + 2 * SECOND));
    p.commit(&[(5_001, "elsewhere")], Epoch(2), SimTime(T0 + 3 * SECOND));
    p
}

/// `count` distinct keys, committed and never-written ones alternating.
fn request(key_tags: &[(u16, u8)], count: usize) -> Vec<Key> {
    let mut present: Vec<u32> = key_tags.iter().map(|(k, _)| *k as u32 % 512).collect();
    present.sort_unstable();
    present.dedup();
    let mut present = present.into_iter();
    (0..count)
        .map(|i| match (i % 2, present.next()) {
            (0, Some(k)) => Key::from_u32(k),
            _ => Key::from_u32(512 + i as u32),
        })
        .collect()
}

fn respond(section: Section) -> ReadResponse<TestHeader> {
    ReadResponse::Point {
        section: Box::new(section),
        fresh: None,
    }
}

/// Verify `response` against `query` the only way a client can.
fn verify(
    p: &Partition,
    query: &ReadQuery,
    response: &ReadResponse<TestHeader>,
    now: SimTime,
) -> Result<Vec<(Key, Option<Value>)>, ReadRejection> {
    match p.verdict(ClusterId(0), query, response, now)? {
        QueryAnswer::Values(values) => Ok(values),
        other => panic!("a point query yields values, got {other:?}"),
    }
}

/// The rejection `section` earns as the answer to a plain read of `keys`.
fn rejection(p: &Partition, keys: &[Key], section: Section) -> ReadRejection {
    verify(p, &ReadQuery::point(keys.to_vec()), &respond(section), NOW)
        .expect_err("a forged response must not verify")
}

fn parts(section: &Section) -> (Vec<Key>, Vec<Option<Value>>, transedge_crypto::MultiProof) {
    let body = &section.body;
    (
        body.keys().to_vec(),
        body.values().to_vec(),
        body.proof().clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// An honest section verifies to exactly the committed content;
    /// every mutation of its body, commitment or certificate, or of the
    /// query's floors, is rejected with the right typed error.
    #[test]
    fn point_forgeries_never_survive(
        key_tags in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..24),
        per_section in 1usize..9,
    ) {
        let p = world(&key_tags);
        let keys = request(&key_tags, per_section);
        let section = p.section(&keys, SERVED);
        let query = ReadQuery::point(keys.clone());

        // Honest: verifies, in request order, to the committed state.
        let values = verify(&p, &query, &respond(section.clone()), NOW)
            .expect("an honest section verifies");
        prop_assert_eq!(values.len(), keys.len());
        for ((key, value), asked) in values.iter().zip(&keys) {
            prop_assert_eq!(key, asked);
            prop_assert_eq!(value.clone(), p.value_at(key, SERVED), "key {:?}", key);
        }
        // A superset section answers a narrower request; the unasked
        // keys are verified and dropped. A narrower section leaves a
        // key unanswered.
        let narrow = ReadQuery::point(keys[..1].to_vec());
        prop_assert_eq!(
            verify(&p, &narrow, &respond(section.clone()), NOW).unwrap(),
            values[..1].to_vec()
        );
        if keys.len() >= 2 {
            prop_assert_eq!(
                rejection(&p, &keys, p.section(&keys[1..], SERVED)),
                ReadRejection::MissingKey(keys[0].clone())
            );
        }

        let (k, v, proof) = parts(&section);
        prop_assert_eq!(section.body.encoded_len(), section.body.encode_to_vec().len());
        for i in 0..k.len() {
            // Value forgery: a present slot swapped for a lie is a
            // ValueMismatch, a conjured value on a proven absence a
            // PhantomValue — requested or not (the narrow query).
            let mut vals = v.clone();
            let expect = match &vals[i] {
                Some(_) => ReadRejection::ValueMismatch(k[i].clone()),
                None => ReadRejection::PhantomValue(k[i].clone()),
            };
            vals[i] = Some(Value::from("forged"));
            let forged = rebuild(&section, k.clone(), vals, proof.clone());
            prop_assert_eq!(rejection(&p, &keys, forged.clone()), expect.clone());
            prop_assert_eq!(rejection(&p, &keys[..1], forged), expect);
            // A value withheld from a proven-present key.
            if v[i].is_some() {
                let mut vals = v.clone();
                vals[i] = None;
                let forged = rebuild(&section, k.clone(), vals, proof.clone());
                prop_assert_eq!(
                    rejection(&p, &keys, forged),
                    ReadRejection::ValueMismatch(k[i].clone())
                );
            }
            // Dropped key: the key and its slot go, the proof
            // stays — it no longer matches the advertised set. In
            // the rare case the rest still verifies (the dropped
            // key shared its bucket), the omission is named.
            let (mut dk, mut dv) = (k.clone(), v.clone());
            let dropped = dk.remove(i);
            dv.remove(i);
            let err = rejection(&p, &keys, rebuild(&section, dk, dv, proof.clone()));
            prop_assert!(
                err == ReadRejection::BadProof || err == ReadRejection::MissingKey(dropped),
                "{:?}", err
            );
        }
        // Forged or dropped sibling: the joint fold breaks.
        for j in 0..proof.siblings.len() {
            let mut forged_proof = proof.clone();
            forged_proof.siblings[j] = Digest([0xEE; 32]);
            let forged = rebuild(&section, k.clone(), v.clone(), forged_proof);
            prop_assert_eq!(rejection(&p, &keys, forged), ReadRejection::BadProof);
            let mut short = proof.clone();
            short.siblings.remove(j);
            let forged = rebuild(&section, k.clone(), v.clone(), short);
            prop_assert_eq!(rejection(&p, &keys, forged), ReadRejection::BadProof);
        }
        // Bucket tamper: a rewritten digest inside a proven bucket.
        for bi in 0..proof.buckets.len() {
            for ei in 0..proof.buckets[bi].entries.len() {
                let mut forged_proof = proof.clone();
                forged_proof.buckets[bi].entries[ei].value_hash = Digest([0xAB; 32]);
                let forged = rebuild(&section, k.clone(), v.clone(), forged_proof);
                let err = rejection(&p, &keys, forged);
                prop_assert!(
                    matches!(err, ReadRejection::BadProof | ReadRejection::ValueMismatch(_)),
                    "{:?}", err
                );
            }
        }
        // A key list out of order or repeated is malformed before
        // any hashing.
        if k.len() >= 2 {
            let (mut uk, mut uv) = (k.clone(), v.clone());
            uk.swap(0, 1);
            uv.swap(0, 1);
            let forged = rebuild(&section, uk, uv, proof.clone());
            prop_assert_eq!(rejection(&p, &keys, forged), ReadRejection::BadProof);
        }
        let (mut rk, mut rv) = (k.clone(), v.clone());
        rk.push(k[k.len() - 1].clone());
        rv.push(v[v.len() - 1].clone());
        let forged = rebuild(&section, rk, rv, proof.clone());
        prop_assert_eq!(rejection(&p, &keys, forged), ReadRejection::BadProof);
        // Cross-batch splice: batch 0's internally consistent body
        // under batch 1's certified commitment.
        let stale = p.section(&keys, BatchNum(0));
        let err = rejection(&p, &keys, p.wrap(stale.body, SERVED));
        prop_assert!(
            matches!(err, ReadRejection::BadProof | ReadRejection::ValueMismatch(_)),
            "{:?}", err
        );

        // Forged certificate: below quorum, for another slot, or real
        // but over a header whose root was rewritten (the stale-root
        // attack).
        let mut thin = section.clone();
        thin.cert.sigs.truncate(p.topo.certificate_quorum() - 1);
        prop_assert_eq!(rejection(&p, &keys, thin), ReadRejection::BadCertificate);
        let mut wrong_slot = section.clone();
        wrong_slot.cert = p.certs[0].clone();
        prop_assert_eq!(rejection(&p, &keys, wrong_slot), ReadRejection::BadCertificate);
        let mut rerooted = section.clone();
        rerooted.commitment.merkle_root = p.headers[0].merkle_root;
        prop_assert_eq!(rejection(&p, &keys, rerooted), ReadRejection::BadCertificate);
        // Wrong cluster: an honest response for a partition nobody asked.
        prop_assert_eq!(
            p.verdict(ClusterId(3), &query, &respond(section.clone()), NOW)
                .unwrap_err(),
            ReadRejection::WrongCluster { expected: ClusterId(3), got: ClusterId(0) }
        );
        // Stale timestamp, in both directions of clock skew.
        let skew = SimDuration::from_secs(31).as_micros();
        let served_ts = p.headers[1].timestamp.0;
        for now in [SimTime(served_ts + skew), SimTime(served_ts - skew)] {
            prop_assert_eq!(
                verify(&p, &query, &respond(section.clone()), now).unwrap_err(),
                ReadRejection::StaleTimestamp
            );
        }
        // LCE floor: a round-2 fetch the served snapshot cannot satisfy.
        let floored = query.clone().with_policy(SnapshotPolicy::MinEpoch(Epoch(1)));
        prop_assert_eq!(
            verify(&p, &floored, &respond(section.clone()), NOW).unwrap_err(),
            ReadRejection::StaleSnapshot { required: Epoch(1), lce: Epoch(0) }
        );
        let reachable = query.clone().with_policy(SnapshotPolicy::MinEpoch(Epoch(0)));
        prop_assert!(verify(&p, &reachable, &respond(section.clone()), NOW).is_ok());
        // A scan where a section was asked (and the other way round).
        let window = ScanRange::new(0, 63);
        let scan = ReadResponse::Scan { bundle: Box::new(p.scan(window, SERVED)) };
        prop_assert_eq!(verify(&p, &query, &scan, NOW).unwrap_err(), ReadRejection::ShapeMismatch);
        prop_assert_eq!(
            p.verdict(
                ClusterId(0),
                &ReadQuery::scan(ClusterId(0), window),
                &respond(section.clone()),
                NOW,
            )
            .unwrap_err(),
            ReadRejection::ShapeMismatch
        );

        // Freshness feed: the honest tail (batches 2 and 3 touch no
        // queried key) verifies — even once the served batch itself has
        // aged out, because the head is what must be fresh.
        let feed = vec![p.delta(BatchNum(2)), p.delta(BatchNum(3))];
        let fresh = |feed: Vec<CertifiedDelta<TestHeader>>| ReadResponse::Point {
            section: Box::new(section.clone()),
            fresh: Some(feed.into_iter().map(Arc::new).collect()),
        };
        let late = SimTime(p.headers[3].timestamp.0 + skew - 2 * SECOND);
        prop_assert!(verify(&p, &query, &respond(section.clone()), late).is_err());
        prop_assert_eq!(verify(&p, &query, &fresh(feed.clone()), late), Ok(values.clone()));
        // Tampered changed list, gapped chain, and a delta touching a
        // queried key (honestly certified — it contradicts the claim).
        let mut tampered = feed.clone();
        tampered[1].changed.push(Key::from_u32(9_999));
        prop_assert_eq!(verify(&p, &query, &fresh(tampered), NOW).unwrap_err(), ReadRejection::BadDelta);
        prop_assert_eq!(
            verify(&p, &query, &fresh(feed[1..].to_vec()), NOW).unwrap_err(),
            ReadRejection::FeedSpliced { expected: BatchNum(2), got: BatchNum(3) }
        );
        let touching = ReadResponse::Point {
            section: Box::new(p.section(&keys, BatchNum(0))),
            fresh: Some(vec![Arc::new(p.delta(SERVED))]),
        };
        let touched = ReadQuery::point(vec![Key::from_u32(key_tags[0].0 as u32 % 512)]);
        prop_assert_eq!(
            verify(&p, &touched, &touching, NOW).unwrap_err(),
            ReadRejection::BadDelta
        );
    }
}

/// Every `ReadRejection` variant is something the verifier can actually
/// say: each is produced here from a concrete response, and the
/// exhaustive `match` makes a new variant fail to compile until it is
/// given a producer — an unreachable variant cannot survive.
#[test]
fn every_rejection_variant_is_reachable() {
    fn name(r: &ReadRejection) -> &'static str {
        match r {
            ReadRejection::WrongCluster { .. } => "WrongCluster",
            ReadRejection::BadCertificate => "BadCertificate",
            ReadRejection::StaleTimestamp => "StaleTimestamp",
            ReadRejection::StaleSnapshot { .. } => "StaleSnapshot",
            ReadRejection::MissingKey(_) => "MissingKey",
            ReadRejection::BadProof => "BadProof",
            ReadRejection::ValueMismatch(_) => "ValueMismatch",
            ReadRejection::PhantomValue(_) => "PhantomValue",
            ReadRejection::ScanRangeNotCovered { .. } => "ScanRangeNotCovered",
            ReadRejection::BadRangeProof => "BadRangeProof",
            ReadRejection::IncompleteScan { .. } => "IncompleteScan",
            ReadRejection::ScanRowMismatch(_) => "ScanRowMismatch",
            ReadRejection::ShapeMismatch => "ShapeMismatch",
            ReadRejection::SnapshotPinMismatch { .. } => "SnapshotPinMismatch",
            ReadRejection::PageOutOfRange { .. } => "PageOutOfRange",
            ReadRejection::BadDelta => "BadDelta",
            ReadRejection::FeedSpliced { .. } => "FeedSpliced",
        }
    }
    const ALL: [&str; 17] = [
        "BadCertificate",
        "BadDelta",
        "BadProof",
        "BadRangeProof",
        "FeedSpliced",
        "IncompleteScan",
        "MissingKey",
        "PageOutOfRange",
        "PhantomValue",
        "ScanRangeNotCovered",
        "ScanRowMismatch",
        "ShapeMismatch",
        "SnapshotPinMismatch",
        "StaleSnapshot",
        "StaleTimestamp",
        "ValueMismatch",
        "WrongCluster",
    ];

    let p = world(&[(1, 1), (2, 2), (3, 3)]);
    let k = |n: u32| Key::from_u32(n);
    let keys = vec![k(1), k(2), k(900)];
    let section = p.section(&keys, SERVED);
    let (sk, sv, sproof) = parts(&section);
    let point = |q: &ReadQuery, section: Section, now: SimTime| {
        verify(&p, q, &respond(section), now).unwrap_err()
    };
    let plain = ReadQuery::point(keys.clone());
    let mut seen: Vec<ReadRejection> = Vec::new();

    // ---- point chain ----
    seen.push(
        p.verdict(ClusterId(1), &plain, &respond(section.clone()), NOW)
            .unwrap_err(),
    );
    let mut thin = section.clone();
    thin.cert.sigs.clear();
    seen.push(point(&plain, thin, NOW));
    seen.push(point(&plain, section.clone(), SimTime(T0 * 2)));
    let floored = plain
        .clone()
        .with_policy(SnapshotPolicy::MinEpoch(Epoch(5)));
    seen.push(point(&floored, section.clone(), NOW));
    seen.push(point(&plain, p.section(&keys[..2], SERVED), NOW));
    let mut forged = sproof.clone();
    forged.siblings[0] = Digest([0xEE; 32]);
    seen.push(point(
        &plain,
        rebuild(&section, sk.clone(), sv.clone(), forged),
        NOW,
    ));
    let lie = |slot: usize| {
        let mut vals = sv.clone();
        vals[slot] = Some(Value::from("forged"));
        rebuild(&section, sk.clone(), vals, sproof.clone())
    };
    let absent = sk.iter().position(|key| *key == k(900)).unwrap();
    let present = sk.iter().position(|key| *key == k(1)).unwrap();
    seen.push(point(&plain, lie(present), NOW));
    seen.push(point(&plain, lie(absent), NOW));
    let fresh = |feed: Vec<CertifiedDelta<TestHeader>>| ReadResponse::Point {
        section: Box::new(section.clone()),
        fresh: Some(feed.into_iter().map(Arc::new).collect()),
    };
    let mut edited = p.delta(BatchNum(2));
    edited.changed.clear();
    seen.push(verify(&p, &plain, &fresh(vec![edited]), NOW).unwrap_err());
    seen.push(verify(&p, &plain, &fresh(vec![p.delta(BatchNum(3))]), NOW).unwrap_err());

    // ---- scan chain ----
    let range = ScanRange::new(0, (1 << DEPTH) - 1);
    let scan_query = ReadQuery::scan(ClusterId(0), range);
    let scan = |q: &ReadQuery, bundle| {
        p.verdict(
            ClusterId(0),
            q,
            &ReadResponse::Scan {
                bundle: Box::new(bundle),
            },
            NOW,
        )
        .unwrap_err()
    };
    seen.push(scan(&plain, p.scan(range, SERVED)));
    seen.push(scan(&scan_query, p.scan(ScanRange::new(0, 63), SERVED)));
    let mut bad_proof = p.scan(range, SERVED);
    bad_proof.scan.proof.occupied[0].1[0].value_hash = Digest([0xEE; 32]);
    seen.push(scan(&scan_query, bad_proof));
    let mut omitted = p.scan(range, SERVED);
    omitted.scan.rows.pop();
    seen.push(scan(&scan_query, omitted));
    let mut swapped = p.scan(range, SERVED);
    swapped.scan.rows[0].1 = Value::from("forged");
    seen.push(scan(&scan_query, swapped));
    let paged = ReadQuery::scatter_scan(vec![ClusterId(0)], range, 64);
    let replayed_token = paged.clone().with_page(PageToken {
        batch: SERVED,
        resume: 0,
    });
    seen.push(scan(&replayed_token, p.scan(ScanRange::new(0, 63), SERVED)));
    // Page splice: page two pinned at one batch, answered at another.
    let pinned = paged.with_page(PageToken {
        batch: BatchNum(3),
        resume: 64,
    });
    seen.push(scan(&pinned, p.scan(ScanRange::new(64, 127), SERVED)));

    let mut names: Vec<&str> = seen.iter().map(name).collect();
    names.sort_unstable();
    assert_eq!(names, ALL, "one producer per variant: {seen:?}");
}
