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

use common::{anchor_mut, anchor_of, body, rebuild, scan_mut, with_feed, Partition, DEPTH};
use proptest::prelude::*;
use transedge_common::{BatchNum, ClusterId, Encode as _, Epoch, Key, SimDuration, SimTime, Value};
use transedge_consensus::Certificate;
use transedge_crypto::{Digest, MerkleTree, ScanRange};
use transedge_edge::{
    same_batch_conflict, Anchor, Body, CertifiedDelta, CommittedHeader, MultiProofBody,
    QueryAnswer, ReadQuery, ReadRejection, ReadResponse, SnapshotPolicy, SnapshotSource,
    HELD_ANCHOR_SIZE,
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

/// Verify `response` against `query` the only way a client can.
fn verify(
    p: &Partition,
    query: &ReadQuery,
    response: &ReadResponse,
    now: SimTime,
) -> Result<Vec<(Key, Option<Value>)>, ReadRejection> {
    match p.verdict(ClusterId(0), query, response, now)? {
        QueryAnswer::Values(values) => Ok(values),
        other => panic!("a point query yields values, got {other:?}"),
    }
}

/// The rejection `section` earns as the answer to a plain read of `keys`.
fn rejection(p: &Partition, keys: &[Key], section: ReadResponse) -> ReadRejection {
    verify(p, &ReadQuery::point(keys.to_vec()), &section, NOW)
        .expect_err("a forged response must not verify")
}

fn parts(section: &ReadResponse) -> (Vec<Key>, Vec<Option<Value>>, transedge_crypto::MultiProof) {
    let body = body(section);
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
        let values = verify(&p, &query, &section, NOW)
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
            verify(&p, &narrow, &section, NOW).unwrap(),
            values[..1].to_vec()
        );
        if keys.len() >= 2 {
            prop_assert_eq!(
                rejection(&p, &keys, p.section(&keys[1..], SERVED)),
                ReadRejection::MissingKey(keys[0].clone())
            );
        }

        let (k, v, proof) = parts(&section);
        prop_assert_eq!(body(&section).encoded_len(), body(&section).encode_to_vec().len());
        // The multiproof as the tree makes it, every entry included.
        let full = p.tree.prove_multi(&k, SERVED.0);
        for i in 0..k.len() {
            // Value forgery: a present slot swapped for a lie, or a
            // value conjured on a proven absence, is hashed into the
            // fold and misses the root — requested or not (the narrow
            // query).
            let mut vals = v.clone();
            vals[i] = Some(Value::from("forged"));
            let forged = rebuild(&section, k.clone(), vals, proof.clone());
            prop_assert_eq!(rejection(&p, &keys, forged.clone()), ReadRejection::BadProof);
            prop_assert_eq!(rejection(&p, &keys[..1], forged), ReadRejection::BadProof);
            if v[i].is_some() {
                // A value withheld from a present key: its entry is
                // missing from the bucket, so the fold misses the root.
                let mut vals = v.clone();
                vals[i] = None;
                let forged = rebuild(&section, k.clone(), vals.clone(), proof.clone());
                prop_assert_eq!(rejection(&p, &keys, forged), ReadRejection::BadProof);
                // Withheld with its entry shipped instead, the fold
                // holds and shows the key present: sent as absent.
                let shipped = MultiProofBody::stripped(k.clone(), vals, full.clone());
                prop_assert_eq!(
                    rejection(&p, &keys, p.wrap(shipped.clone(), SERVED)),
                    ReadRejection::ValueMismatch(k[i].clone())
                );
                // The value and its own entry both shipped: a second
                // encoding of the honest answer.
                let forged = rebuild(&section, k.clone(), v.clone(), shipped.proof().clone());
                prop_assert_eq!(rejection(&p, &keys, forged), ReadRejection::BadProof);
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
        // Any other encoding of the same slots. Each slot is either a
        // set bit or a shipped sibling.
        let is_set = |slot: usize| proof.empty_slots[slot / 8] & (1 << (slot % 8)) != 0;
        let set_bits: usize = proof.empty_slots.iter().map(|b| b.count_ones() as usize).sum();
        let slots = set_bits + proof.siblings.len();
        let empties = MerkleTree::with_depth(DEPTH).prove(&Key::from_u32(0)).siblings;
        for slot in 0..slots {
            let shipped = (0..slot).filter(|s| !is_set(*s)).count();
            let mut flipped = proof.clone();
            flipped.empty_slots[slot / 8] ^= 1 << (slot % 8);
            if is_set(slot) {
                // A cleared bit with an empty digest shipped instead; at
                // the slot's own height it still folds to the root.
                for empty in &empties {
                    let mut explicit = flipped.clone();
                    explicit.siblings.insert(shipped, *empty);
                    let forged = rebuild(&section, k.clone(), v.clone(), explicit);
                    prop_assert_eq!(rejection(&p, &keys, forged), ReadRejection::BadProof);
                }
            } else {
                // A set bit over a shipped sibling, its digest dropped.
                flipped.siblings.remove(shipped);
                let forged = rebuild(&section, k.clone(), v.clone(), flipped);
                prop_assert_eq!(rejection(&p, &keys, forged), ReadRejection::BadProof);
            }
        }
        // A bitmap a byte short or a byte long, and a stray bit past
        // the last slot.
        let mut stray = proof.clone();
        match slots % 8 {
            0 => stray.empty_slots.push(1),
            _ => *stray.empty_slots.last_mut().unwrap() |= 0x80,
        }
        let mut short = proof.clone();
        short.empty_slots.pop();
        let mut long = proof.clone();
        long.empty_slots.push(0);
        for bitmap in [stray, short, long] {
            let forged = rebuild(&section, k.clone(), v.clone(), bitmap);
            prop_assert_eq!(rejection(&p, &keys, forged), ReadRejection::BadProof);
        }
        // Bucket tamper: a rewritten digest of a bucket neighbour the
        // section ships.
        for bi in 0..proof.buckets.len() {
            for ei in 0..proof.buckets[bi].entries.len() {
                let mut forged_proof = proof.clone();
                forged_proof.buckets[bi].entries[ei].value_hash = Digest([0xAB; 32]);
                let forged = rebuild(&section, k.clone(), v.clone(), forged_proof);
                prop_assert_eq!(rejection(&p, &keys, forged), ReadRejection::BadProof);
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
        let err = rejection(&p, &keys, p.wrap(body(&stale).clone(), SERVED));
        prop_assert_eq!(err, ReadRejection::BadProof);

        // Forged certificate: below quorum, for another slot, or real
        // but over a header whose root was rewritten (the stale-root
        // attack) — or whose CD entry, LCE or changed-key digest was,
        // the fields Algorithm 2 and the feed read.
        let mut thin = section.clone();
        anchor_mut(&mut thin).1.sigs.truncate(p.topo.certificate_quorum() - 1);
        prop_assert_eq!(rejection(&p, &keys, thin), ReadRejection::BadCertificate);
        let mut wrong_slot = section.clone();
        anchor_mut(&mut wrong_slot).1 = p.certs[0].clone();
        prop_assert_eq!(rejection(&p, &keys, wrong_slot), ReadRejection::BadCertificate);
        let mut rerooted = section.clone();
        anchor_mut(&mut rerooted).0.header.merkle_root = p.headers[0].header.merkle_root;
        prop_assert_eq!(rejection(&p, &keys, rerooted), ReadRejection::BadCertificate);
        // A replica's real signature over another statement in place
        // of one signature of the quorum.
        let mut resigned = section.clone();
        let signer = p.topo.replicas_of(ClusterId(0)).next().unwrap();
        anchor_mut(&mut resigned).1.sigs[0].1 = p.secrets[&signer].sign(b"not the accept statement");
        prop_assert_eq!(rejection(&p, &keys, resigned), ReadRejection::BadCertificate);
        for (name, forged) in common::rewritten(anchor_of(&section).0) {
            let mut rewritten = section.clone();
            anchor_mut(&mut rewritten).0 = forged;
            prop_assert_eq!(
                rejection(&p, &keys, rewritten),
                ReadRejection::BadCertificate,
                "{}", name
            );
        }
        // Wrong cluster: an honest response for a partition nobody asked.
        prop_assert_eq!(
            p.verdict(ClusterId(3), &query, &section, NOW)
                .unwrap_err(),
            ReadRejection::WrongCluster { expected: ClusterId(3), got: ClusterId(0) }
        );
        // Stale timestamp, in both directions of clock skew.
        let skew = SimDuration::from_secs(31).as_micros();
        let served_ts = p.headers[1].header.timestamp.0;
        for now in [SimTime(served_ts + skew), SimTime(served_ts - skew)] {
            prop_assert_eq!(
                verify(&p, &query, &section, now).unwrap_err(),
                ReadRejection::StaleTimestamp
            );
        }
        // LCE floor: a round-2 fetch the served snapshot cannot satisfy.
        let floored = query.clone().with_policy(SnapshotPolicy::MinEpoch(Epoch(1)));
        prop_assert_eq!(
            verify(&p, &floored, &section, NOW).unwrap_err(),
            ReadRejection::StaleSnapshot { required: Epoch(1), lce: Epoch(0) }
        );
        let reachable = query.clone().with_policy(SnapshotPolicy::MinEpoch(Epoch(0)));
        prop_assert!(verify(&p, &reachable, &section, NOW).is_ok());
        // A scan where a section was asked (and the other way round).
        let window = ScanRange::new(0, 63);
        let scan = p.scan(window, SERVED);
        prop_assert_eq!(verify(&p, &query, &scan, NOW).unwrap_err(), ReadRejection::ShapeMismatch);
        prop_assert_eq!(
            p.verdict(
                ClusterId(0),
                &ReadQuery::scan(ClusterId(0), window),
                &section,
                NOW,
            )
            .unwrap_err(),
            ReadRejection::ShapeMismatch
        );

        // Freshness feed: the honest tail (batches 2 and 3 touch no
        // queried key) verifies — even once the served batch itself has
        // aged out, because the head is what must be fresh.
        let feed = vec![p.delta(BatchNum(2)), p.delta(BatchNum(3))];
        let fresh = |feed: Vec<CertifiedDelta>| with_feed(section.clone(), feed);
        let late = SimTime(p.headers[3].header.timestamp.0 + skew - 2 * SECOND);
        prop_assert!(verify(&p, &query, &section, late).is_err());
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
        let touching = with_feed(p.section(&keys, BatchNum(0)), vec![p.delta(SERVED)]);
        let touched = ReadQuery::point(vec![Key::from_u32(key_tags[0].0 as u32 % 512)]);
        prop_assert_eq!(
            verify(&p, &touched, &touching, NOW).unwrap_err(),
            ReadRejection::BadDelta
        );
    }
}

/// A second certified history of `section`'s batch: its header one
/// microsecond later, under a certificate of its own.
fn second_history(p: &Partition, section: &ReadResponse) -> (CommittedHeader, Certificate) {
    let mut forked = anchor_of(section).0.clone();
    forked.header.timestamp = SimTime(forked.header.timestamp.0 + 1);
    let cert = p.certify(&forked);
    (forked, cert)
}

/// A fork is one partition and one batch number under two certified
/// digests, and nothing else: the same anchor twice, two batches, or
/// two partitions never conflict, and a conflict carries both anchors
/// in the order given.
#[test]
fn same_batch_conflict_is_one_batch_under_two_digests() {
    let p = world(&[(1, 1), (2, 2)]);
    let section = p.section(&[Key::from_u32(1)], SERVED);
    let held = anchor_of(&section);
    assert_eq!(same_batch_conflict(held, held), None);
    let later = p.section(&[Key::from_u32(1)], BatchNum(2));
    assert_eq!(same_batch_conflict(held, anchor_of(&later)), None);
    let (forked, forked_cert) = second_history(&p, &section);
    let mut elsewhere = forked.clone();
    elsewhere.header.cluster = ClusterId(1);
    assert_eq!(same_batch_conflict(held, (&elsewhere, &forked_cert)), None);
    let Some(ReadRejection::Fork { held: first, got }) =
        same_batch_conflict(held, (&forked, &forked_cert))
    else {
        panic!("a fork");
    };
    assert_eq!(*first, (held.0.clone(), held.1.clone()));
    assert_eq!(*got, (forked, forked_cert));
}

/// Every `ReadRejection` variant is something the trusted checker can
/// actually say: each is produced here from a concrete response (a fork
/// from two concrete anchors, by `same_batch_conflict`), and the
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
            ReadRejection::ScanRangeNotCovered { .. } => "ScanRangeNotCovered",
            ReadRejection::BadRangeProof => "BadRangeProof",
            ReadRejection::ShapeMismatch => "ShapeMismatch",
            ReadRejection::BadDelta => "BadDelta",
            ReadRejection::FeedSpliced { .. } => "FeedSpliced",
            ReadRejection::Fork { .. } => "Fork",
        }
    }
    const ALL: [&str; 13] = [
        "BadCertificate",
        "BadDelta",
        "BadProof",
        "BadRangeProof",
        "FeedSpliced",
        "Fork",
        "MissingKey",
        "ScanRangeNotCovered",
        "ShapeMismatch",
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
    let point = |q: &ReadQuery, section: ReadResponse, now: SimTime| {
        verify(&p, q, &section, now).unwrap_err()
    };
    let plain = ReadQuery::point(keys.clone());
    let mut seen: Vec<ReadRejection> = Vec::new();

    // ---- point chain ----
    seen.push(p.verdict(ClusterId(1), &plain, &section, NOW).unwrap_err());
    let mut thin = section.clone();
    anchor_mut(&mut thin).1.sigs.clear();
    seen.push(point(&plain, thin, NOW));
    seen.push(point(&plain, section.clone(), SimTime(T0 * 2)));
    let floored = plain
        .clone()
        .with_policy(SnapshotPolicy::MinEpoch(Epoch(5)));
    seen.push(point(&floored, section.clone(), NOW));
    seen.push(point(&plain, p.section(&keys[..2], SERVED), NOW));
    let mut forged = sproof.clone();
    forged.empty_slots[0] ^= 1;
    seen.push(point(
        &plain,
        rebuild(&section, sk.clone(), sv.clone(), forged),
        NOW,
    ));
    // A present key sent as absent, its entry shipped in its bucket.
    let present = sk.iter().position(|key| *key == k(1)).unwrap();
    let mut withheld = sv.clone();
    withheld[present] = None;
    let full = p.tree.prove_multi(&sk, SERVED.0);
    let shipped = MultiProofBody::stripped(sk.clone(), withheld, full);
    seen.push(point(&plain, p.wrap(shipped, SERVED), NOW));
    let fresh = |feed: Vec<CertifiedDelta>| with_feed(section.clone(), feed);
    let mut edited = p.delta(BatchNum(2));
    edited.changed.clear();
    seen.push(verify(&p, &plain, &fresh(vec![edited]), NOW).unwrap_err());
    seen.push(verify(&p, &plain, &fresh(vec![p.delta(BatchNum(3))]), NOW).unwrap_err());

    // ---- scan chain ----
    let range = ScanRange::new(0, (1 << DEPTH) - 1);
    let scan_query = ReadQuery::scan(ClusterId(0), range);
    let scan = |q: &ReadQuery, answer| p.verdict(ClusterId(0), q, &answer, NOW).unwrap_err();
    seen.push(scan(&plain, p.scan(range, SERVED)));
    seen.push(scan(&scan_query, p.scan(ScanRange::new(0, 63), SERVED)));
    let mut swapped = p.scan(range, SERVED);
    scan_mut(&mut swapped).rows[0].1 = Value::from("forged");
    seen.push(scan(&scan_query, swapped));
    // Fork: a second header certified under the served batch number,
    // next to the anchor a reader already holds.
    let (forked, forked_cert) = second_history(&p, &section);
    let held = anchor_of(&section);
    seen.extend(same_batch_conflict(held, (&forked, &forked_cert)));

    let mut names: Vec<&str> = seen.iter().map(name).collect();
    names.sort_unstable();
    assert_eq!(names, ALL, "one producer per variant: {seen:?}");
}

/// A held answer is the full one less its anchor, and nothing a
/// verifier can take on its own: eliding keys on the certified digest
/// the query named (another digest, or none, leaves the answer full),
/// the held value carries no header and no certificate, the verifier
/// refuses it as mis-shaped, and rebuilt around the receiver's copy of
/// the anchor it verifies to exactly what the full answer did. On the
/// wire a held answer is the full one with its anchor swapped for the
/// reference, and rebuilding restores the full size — for a point
/// answer, one with a feed tail, and a scan.
#[test]
fn a_held_answer_rebuilds_to_the_full_one_and_never_verifies_alone() {
    let p = world(&[(1, 1), (2, 2), (3, 3)]);
    let keys = vec![Key::from_u32(1), Key::from_u32(900)];
    let query = ReadQuery::point(keys.clone());
    let full = p.section(&keys, SERVED);
    let digest = anchor_of(&full).1.digest;
    let other = p.certs[0].digest;
    assert_ne!(digest, other);
    for named in [None, Some(other)] {
        let kept = full.clone().held_by(named);
        assert!(kept.anchor().is_some(), "named {named:?}: stays full");
    }
    let held = full.clone().held_by(Some(digest));
    let (
        Anchor::Held { cluster, batch },
        Body::Point {
            body: held_body,
            fresh,
        },
    ) = (&held.anchor, &held.body)
    else {
        panic!("named at its own digest, the answer is held: {held:?}");
    };
    assert_eq!((*cluster, *batch), (ClusterId(0), SERVED));
    assert_eq!(held_body.encode_to_vec(), body(&full).encode_to_vec());
    assert!(fresh.is_none());
    assert!(held.anchor().is_none());
    assert_eq!(
        verify(&p, &query, &held, NOW).unwrap_err(),
        ReadRejection::ShapeMismatch
    );
    let anchor = (&p.headers[1], &p.certs[1]);
    assert_eq!(
        verify(&p, &query, &held.clone().rebuild(anchor), NOW),
        verify(&p, &query, &full, NOW)
    );

    // The scan form, likewise.
    let range = ScanRange::new(0, 63);
    let scan_query = ReadQuery::scan(ClusterId(0), range);
    let full_scan = p.scan(range, SERVED);
    let held_scan = full_scan.clone().held_by(Some(digest));
    assert!(matches!(held_scan.anchor, Anchor::Held { .. }));
    let scan_verdict = |r: &ReadResponse| p.verdict(ClusterId(0), &scan_query, r, NOW);
    assert_eq!(
        scan_verdict(&held_scan).unwrap_err(),
        ReadRejection::ShapeMismatch
    );
    assert_eq!(
        scan_verdict(&held_scan.clone().rebuild(anchor)),
        scan_verdict(&full_scan)
    );

    // One size each: the held answer is the full one, anchor for
    // reference.
    let anchor_size = transedge_edge::anchor_size(anchor.0, anchor.1);
    let fed = with_feed(
        full.clone(),
        vec![p.delta(BatchNum(2)), p.delta(BatchNum(3))],
    );
    for full in [full, fed, full_scan] {
        let held = full.clone().held_by(Some(digest));
        assert_eq!(
            held.wire_size(),
            full.wire_size() - anchor_size + HELD_ANCHOR_SIZE
        );
        assert_eq!(held.rebuild(anchor).wire_size(), full.wire_size());
    }
}

/// A held answer names an anchor but cannot vouch for its body: a body
/// proven against another batch's root, rebuilt around the anchor the
/// receiver holds, fails the proof check — cryptographic, like any
/// forged proof.
#[test]
fn a_held_body_from_another_batch_fails_its_proof() {
    let p = world(&[(1, 1), (2, 2), (3, 3)]);
    let keys = vec![Key::from_u32(1), Key::from_u32(2)];
    let query = ReadQuery::point(keys.clone());
    let anchor = (&p.headers[1], &p.certs[1]);
    let digest = Some(p.certs[0].digest);
    let mut forged = p.section(&keys, BatchNum(0)).held_by(digest);
    let Anchor::Held { batch, .. } = &mut forged.anchor else {
        panic!("held: {forged:?}");
    };
    *batch = SERVED;
    assert_eq!(
        verify(&p, &query, &forged.rebuild(anchor), NOW).unwrap_err(),
        ReadRejection::BadProof
    );

    let range = ScanRange::new(0, 63);
    let stale = p.scan(range, BatchNum(0)).held_by(digest);
    let scan_query = ReadQuery::scan(ClusterId(0), range);
    assert_eq!(
        p.verdict(ClusterId(0), &scan_query, &stale.rebuild(anchor), NOW)
            .unwrap_err(),
        ReadRejection::BadRangeProof
    );
}
