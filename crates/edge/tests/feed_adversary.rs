//! Property tests of the certified delta stream's verifier boundary:
//! every way an untrusted relay could doctor a commit feed — splicing
//! out a delta, replaying one, reordering the chain, editing a changed
//! key set, attaching a feed whose deltas touch the queried keys, or
//! forging the certificate — is rejected by `verify_feed` /
//! `verify_delta` with a typed, *cryptographic* rejection. The honest
//! chain always verifies.
//!
//! The second half is the feed **cursor**: a subscriber that kept the
//! deltas it verified is sent only the ones past them. Splitting a
//! chain into held ++ sent never changes a verdict; a sent tail that
//! does not start exactly where the cursor says is spliced; a cursor
//! that cannot vouch for `served + 1` buys nothing; and a window only
//! ever grows by deltas of a response that verified end to end.

mod common;

use std::sync::Arc;

use common::{Partition, TestHeader};

use proptest::prelude::*;
use transedge_common::{
    BatchNum, ClusterId, ClusterTopology, Epoch, Key, NodeId, SimDuration, SimTime,
};
use transedge_consensus::messages::accept_statement;
use transedge_consensus::Certificate;
use transedge_crypto::{Digest, KeyStore, Sha256};
use transedge_edge::{
    changed_keys_digest, BatchCommitment, CertifiedDelta, FeedCursor, FeedWindow, Pushed,
    QueryAnswer, QuorumCheck, ReadQuery, ReadRejection, ReadResponse, ReadVerifier, VerifiedCerts,
    VerifyParams, MAX_FEED_DELTAS,
};

/// A minimal commitment whose certified digest folds in the delta
/// digest, mirroring `transedge-core`'s `BatchHeader` — the property
/// the whole stream leans on: consensus signs the changed-key set.
#[derive(Clone, Debug)]
struct FeedHeader {
    cluster: ClusterId,
    num: BatchNum,
    root: Digest,
    lce: Epoch,
    delta: Digest,
    timestamp: SimTime,
}

impl BatchCommitment for FeedHeader {
    fn cluster(&self) -> ClusterId {
        self.cluster
    }
    fn batch(&self) -> BatchNum {
        self.num
    }
    fn merkle_root(&self) -> &Digest {
        &self.root
    }
    fn lce(&self) -> Epoch {
        self.lce
    }
    fn timestamp(&self) -> SimTime {
        self.timestamp
    }
    fn certified_digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"test/feed-header");
        h.update(&self.cluster.0.to_le_bytes());
        h.update(&self.num.0.to_le_bytes());
        h.update(self.root.as_bytes());
        h.update(&self.lce.0.to_le_bytes());
        h.update(self.delta.as_bytes());
        h.update(&self.timestamp.0.to_le_bytes());
        h.finalize()
    }
    fn delta_digest(&self) -> Digest {
        self.delta
    }
}

/// A cluster that can mint honestly certified deltas.
struct Publisher {
    topo: ClusterTopology,
    keys: KeyStore,
    secrets: std::collections::HashMap<transedge_common::ReplicaId, transedge_crypto::Keypair>,
    /// A client memo that has already verified every certificate
    /// [`Publisher::delta`] minted.
    warm: VerifiedCerts,
}

impl Publisher {
    fn new() -> Self {
        let topo = ClusterTopology::new(1, 1).unwrap();
        let (keys, secrets) = KeyStore::for_topology(&topo, &[7u8; 32]);
        Publisher {
            topo,
            warm: VerifiedCerts::new(keys.clone()),
            keys,
            secrets,
        }
    }

    fn verifier(&self) -> ReadVerifier {
        ReadVerifier::new(VerifyParams {
            tree_depth: 8,
            freshness_window: SimDuration::from_secs(30),
            quorum: self.topo.certificate_quorum(),
        })
    }

    /// Certify one batch's delta: sorted unique `changed` keys, digest
    /// folded into the certified header, `f+1` replica signatures.
    fn delta(&self, num: u64, changed: Vec<Key>) -> CertifiedDelta<FeedHeader> {
        let header = FeedHeader {
            cluster: ClusterId(0),
            num: BatchNum(num),
            root: Digest([0u8; 32]),
            lce: Epoch(num as i64),
            delta: changed_keys_digest(&changed),
            timestamp: SimTime(1_000 * num),
        };
        let digest = header.certified_digest();
        let stmt = accept_statement(ClusterId(0), BatchNum(num), &digest);
        let sigs: Vec<_> = self
            .topo
            .replicas_of(ClusterId(0))
            .take(self.topo.certificate_quorum())
            .map(|r| (NodeId::Replica(r), self.secrets[&r].sign(&stmt)))
            .collect();
        let cert = Certificate {
            cluster: ClusterId(0),
            slot: BatchNum(num),
            digest,
            sigs,
        };
        assert!(self
            .warm
            .check_quorum(&cert, self.topo.certificate_quorum()));
        CertifiedDelta {
            commitment: header,
            cert,
            changed,
        }
    }

    /// The verdict on `feed` as the tail of a read of [`queried`]
    /// served at `served` — through the plain key directory and through
    /// the memo that already holds every honest certificate. The two
    /// must agree: memoisation never changes a verdict.
    fn verify_feed(
        &self,
        served: u64,
        feed: &[CertifiedDelta<FeedHeader>],
    ) -> Result<BatchNum, ReadRejection> {
        self.verify_split(served, &[], feed)
    }

    /// [`Publisher::verify_feed`] for a subscriber that already holds
    /// (verified, on an earlier read) the `held` prefix of the chain
    /// and was sent only the rest.
    fn verify_split(
        &self,
        served: u64,
        held: &[CertifiedDelta<FeedHeader>],
        sent: &[CertifiedDelta<FeedHeader>],
    ) -> Result<BatchNum, ReadRejection> {
        let (cluster, served) = (ClusterId(0), BatchNum(served));
        let verifier = self.verifier();
        let plain = verifier.verify_feed(&self.keys, cluster, served, &queried(), held, sent);
        let memoised = verifier.verify_feed(&self.warm, cluster, served, &queried(), held, sent);
        assert_eq!(memoised, plain, "a warm memo changed the verdict");
        plain
    }

    /// An honest feed: batches `served+1 ..= served+n`, each changing a
    /// distinct set of keys drawn from `key_sets` (none of which may
    /// contain a queried key — the caller controls that).
    fn feed(&self, served: u64, key_sets: &[Vec<u32>]) -> Vec<CertifiedDelta<FeedHeader>> {
        key_sets
            .iter()
            .enumerate()
            .map(|(i, set)| {
                let mut ks: Vec<Key> = set.iter().map(|k| Key::from_u32(*k)).collect();
                ks.sort();
                ks.dedup();
                self.delta(served + 1 + i as u64, ks)
            })
            .collect()
    }
}

/// Changed-key sets that never touch the queried keys (queried keys
/// live below 100; changed keys start at 100).
fn changed_sets() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(100u32..10_000, 0..6), 2..8)
}

fn queried() -> Vec<Key> {
    vec![Key::from_u32(1), Key::from_u32(2)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The honest chain always verifies, and returns the head batch.
    #[test]
    fn honest_feed_verifies_to_head(sets in changed_sets(), served in 0u64..50) {
        let p = Publisher::new();
        let feed = p.feed(served, &sets);
        let head = p.verify_feed(served, &feed)
            .expect("honest feed must verify");
        prop_assert_eq!(head, BatchNum(served + sets.len() as u64));
    }

    /// Omitting any non-final delta leaves a gap in the chain —
    /// `FeedSpliced`. (Truncating the *tail* is allowed: it only
    /// weakens the freshness claim, never hides a change before the
    /// claimed head.)
    #[test]
    fn omitted_delta_is_spliced(
        sets in changed_sets(),
        served in 0u64..50,
        pick in any::<prop::sample::Index>(),
    ) {
        let p = Publisher::new();
        let mut feed = p.feed(served, &sets);
        let drop_at = pick.index(feed.len() - 1); // never the last
        feed.remove(drop_at);
        let err = p.verify_feed(served, &feed)
            .expect_err("a gapped feed must not verify");
        prop_assert!(matches!(err, ReadRejection::FeedSpliced { .. }), "{:?}", err);
    }

    /// Replaying (duplicating) any delta breaks contiguity at the next
    /// position — `FeedSpliced`.
    #[test]
    fn replayed_delta_is_spliced(
        sets in changed_sets(),
        served in 0u64..50,
        pick in any::<prop::sample::Index>(),
    ) {
        let p = Publisher::new();
        let mut feed = p.feed(served, &sets);
        let dup_at = pick.index(feed.len());
        feed.insert(dup_at, feed[dup_at].clone());
        let err = p.verify_feed(served, &feed)
            .expect_err("a replayed delta must not verify");
        prop_assert!(matches!(err, ReadRejection::FeedSpliced { .. }), "{:?}", err);
    }

    /// Swapping two adjacent deltas (reordering) breaks contiguity.
    #[test]
    fn reordered_feed_is_spliced(
        sets in changed_sets(),
        served in 0u64..50,
        pick in any::<prop::sample::Index>(),
    ) {
        let p = Publisher::new();
        let mut feed = p.feed(served, &sets);
        let at = pick.index(feed.len() - 1);
        feed.swap(at, at + 1);
        let err = p.verify_feed(served, &feed)
            .expect_err("a reordered feed must not verify");
        prop_assert!(matches!(err, ReadRejection::FeedSpliced { .. }), "{:?}", err);
    }

    /// Editing any delta's changed-key list — adding, dropping, or
    /// substituting a key — breaks the recomputation against the
    /// certified delta digest: `BadDelta`, whatever the edit.
    #[test]
    fn tampered_changed_set_is_bad_delta(
        sets in changed_sets(),
        served in 0u64..50,
        pick in any::<prop::sample::Index>(),
        add in any::<bool>(),
    ) {
        let p = Publisher::new();
        let mut feed = p.feed(served, &sets);
        let at = pick.index(feed.len());
        if add {
            // Key 50 sorts below every changed key (they start at 100)
            // and is not queried, so ordering stays canonical — only
            // the digest betrays the edit.
            feed[at].changed.insert(0, Key::from_u32(50));
        } else if feed[at].changed.is_empty() {
            feed[at].changed.push(Key::from_u32(50));
        } else {
            feed[at].changed.remove(0);
        }
        let err = p.verify_feed(served, &feed)
            .expect_err("an edited changed set must not verify");
        prop_assert_eq!(err, ReadRejection::BadDelta);
    }

    /// A feed whose (honestly certified!) deltas touch a queried key
    /// contradicts the freshness claim itself — the served value is
    /// provably *not* current — and is rejected as `BadDelta`.
    #[test]
    fn delta_touching_queried_key_is_rejected(
        sets in changed_sets(),
        served in 0u64..50,
        pick in any::<prop::sample::Index>(),
    ) {
        let p = Publisher::new();
        let mut sets = sets;
        let at = pick.index(sets.len());
        sets[at].push(1); // queried key
        let feed = p.feed(served, &sets);
        let err = p.verify_feed(served, &feed)
            .expect_err("a feed touching a queried key must not verify");
        prop_assert_eq!(err, ReadRejection::BadDelta);
    }

    /// A certificate below quorum — or one transplanted from a
    /// different batch — fails the signature check: `BadCertificate`.
    #[test]
    fn forged_certificate_is_rejected(
        sets in changed_sets(),
        served in 0u64..50,
        pick in any::<prop::sample::Index>(),
        truncate in any::<bool>(),
    ) {
        let p = Publisher::new();
        let mut feed = p.feed(served, &sets);
        let at = pick.index(feed.len());
        if truncate {
            // Below f+1 distinct signatures.
            feed[at].cert.sigs.clear();
        } else {
            // Certificate for the right digest, wrong slot.
            feed[at].cert.slot = BatchNum(feed[at].cert.slot.0 + 1_000);
        }
        let err = p.verify_feed(served, &feed)
            .expect_err("a forged certificate must not verify");
        prop_assert_eq!(err, ReadRejection::BadCertificate);
    }

    /// (a) Where a chain is cut into held ++ sent changes nothing: for
    /// every split point the verdict — the head, or the rejection with
    /// its batch numbers — is the one the whole chain gets when all of
    /// it is sent. Honest chains, chains with a dropped delta, and
    /// chains with an (honestly certified) delta touching a queried key.
    #[test]
    fn any_split_into_held_and_sent_gives_the_whole_chains_verdict(
        sets in changed_sets(),
        served in 0u64..50,
        pick in any::<prop::sample::Index>(),
        doctor in 0u8..3,
    ) {
        let p = Publisher::new();
        let mut sets = sets;
        if doctor == 1 {
            let at = pick.index(sets.len());
            sets[at].push(2); // queried key
        }
        let mut feed = p.feed(served, &sets);
        if doctor == 2 {
            feed.remove(pick.index(feed.len() - 1));
        }
        let whole = p.verify_feed(served, &feed);
        prop_assert_eq!(whole.is_ok(), doctor == 0);
        for cut in 0..=feed.len() {
            prop_assert_eq!(p.verify_split(served, &feed[..cut], &feed[cut..]), whole.clone());
        }
    }
}

// ---- the cursor, end to end through `verify_query` -------------------

const T0: u64 = 100_000_000;
const SECOND: u64 = 1_000_000;
const SERVED: BatchNum = BatchNum(1);
const HEAD: u64 = 9;
const NOW: SimTime = SimTime(T0 + 10 * SECOND);

/// Batch 0 is the base state, batch 1 (the served one) overwrites a
/// read key, 2..=9 touch keys nobody reads — the honest feed — except
/// that batch 8 changes key 3, which [`read_keys`] does not contain.
fn world() -> Partition {
    let mut p = Partition::new();
    p.commit(&[(1, "a"), (2, "b"), (3, "c")], Epoch::NONE, SimTime(T0));
    p.commit(&[(1, "a1")], Epoch(0), SimTime(T0 + SECOND));
    for n in 2..=HEAD {
        let key = if n == 8 { 3 } else { 1_000 + n as u32 };
        p.commit(&[(key, "w")], Epoch(n as i64 - 1), SimTime(T0 + n * SECOND));
    }
    p
}

fn read_keys() -> Vec<Key> {
    vec![Key::from_u32(1), Key::from_u32(2)]
}

fn deltas(
    p: &Partition,
    batches: std::ops::RangeInclusive<u64>,
) -> Vec<Arc<CertifiedDelta<TestHeader>>> {
    batches.map(|n| Arc::new(p.delta(BatchNum(n)))).collect()
}

/// A subscriber's window holding exactly `batches` (verified earlier).
fn window_of(p: &Partition, batches: std::ops::RangeInclusive<u64>) -> FeedWindow<TestHeader> {
    let mut window = FeedWindow::default();
    for delta in deltas(p, batches) {
        assert_eq!(window.push(delta), Pushed::Extended);
    }
    window
}

/// The query a subscriber holding `window` sends for `keys`.
fn query_with(keys: Vec<Key>, window: &FeedWindow<TestHeader>) -> ReadQuery {
    let mut query = ReadQuery::point(keys).with_feed_freshness();
    query.feed = Some(
        window
            .cursor()
            .map(|c| (ClusterId(0), c))
            .into_iter()
            .collect(),
    );
    query
}

/// What an edge answers: `keys` served at [`SERVED`] plus `sent`.
fn response(
    p: &Partition,
    keys: &[Key],
    sent: Vec<Arc<CertifiedDelta<TestHeader>>>,
) -> ReadResponse<TestHeader> {
    ReadResponse::Point {
        section: Box::new(p.section(keys, SERVED)),
        fresh: Some(sent),
    }
}

type Verdict = Result<(QueryAnswer, Vec<Arc<CertifiedDelta<TestHeader>>>), ReadRejection>;

/// Verify as the subscriber does — against its window, extending it on
/// success — through the plain key directory and through the warm memo
/// (on a copy of the window), which must agree.
fn subscribe(
    p: &Partition,
    window: &mut FeedWindow<TestHeader>,
    query: &ReadQuery,
    response: &ReadResponse<TestHeader>,
    now: SimTime,
) -> Verdict {
    let mut copy = window.clone();
    let (v, c) = (p.verifier(), ClusterId(0));
    let memoised = v.verify_and_extend(&p.warm, c, query, response, &mut copy, now);
    let plain = v.verify_and_extend(&p.keys, c, query, response, window, now);
    assert_eq!(
        plain.is_ok(),
        memoised.is_ok(),
        "a warm memo changed the verdict"
    );
    assert_eq!(plain.as_ref().err(), memoised.as_ref().err());
    assert_eq!(copy.cursor(), window.cursor());
    plain
}

fn spliced(verdict: Verdict, expected: u64, got: u64) {
    assert_eq!(
        verdict.unwrap_err(),
        ReadRejection::FeedSpliced {
            expected: BatchNum(expected),
            got: BatchNum(got)
        }
    );
}

#[test]
fn the_window_keeps_a_contiguous_bounded_run() {
    let p = Publisher::new();
    let delta = |n: u64| Arc::new(p.delta(n, Vec::new()));
    let mut window = FeedWindow::default();
    assert_eq!(window.cursor(), None);
    assert_eq!(window.push(delta(5)), Pushed::Extended);
    assert_eq!(window.push(delta(6)), Pushed::Extended);
    // At or before the head: a repeat delivery, ignored.
    assert_eq!(window.push(delta(6)), Pushed::Duplicate);
    assert_eq!(window.push(delta(2)), Pushed::Duplicate);
    assert_eq!(window.len(), 2);
    // Past a gap: the old run is no use as a certificate.
    assert_eq!(window.push(delta(9)), Pushed::Restarted);
    let at = |first, head| {
        Some(FeedCursor {
            first: BatchNum(first),
            head: BatchNum(head),
        })
    };
    assert_eq!((window.len(), window.cursor()), (1, at(9, 9)));
    // The cap drops the oldest and the run stays contiguous.
    for n in 10..10 + 2 * MAX_FEED_DELTAS as u64 {
        assert_eq!(window.push(delta(n)), Pushed::Extended);
        assert!(window.len() <= MAX_FEED_DELTAS);
    }
    let head = 9 + 2 * MAX_FEED_DELTAS as u64;
    assert_eq!(window.cursor(), at(head + 1 - MAX_FEED_DELTAS as u64, head));
    // A verified run reaching further back becomes the base (newest
    // kept under the cap); one that only overlaps changes nothing; one
    // past a gap restarts.
    let run = |batches: std::ops::RangeInclusive<u64>| batches.map(delta).collect::<Vec<_>>();
    let mut small = FeedWindow::default();
    small.absorb(&run(20..=22));
    small.absorb(&run(10..=21));
    assert_eq!(small.cursor(), at(10, 22));
    small.absorb(&run(12..=15));
    assert_eq!(small.cursor(), at(10, 22));
    small.absorb(&run(1..=5));
    assert_eq!(
        small.cursor(),
        at(10, 22),
        "older and disjoint: the newer run wins"
    );
    small.absorb(&run(30..=31));
    assert_eq!(small.cursor(), at(30, 31));
    // `after` vouches only for batches it chains to.
    assert!(window
        .after(BatchNum(head - MAX_FEED_DELTAS as u64 - 1))
        .is_none());
    assert_eq!(window.after(BatchNum(head - 3)).unwrap().count(), 3);
    assert_eq!(window.after(BatchNum(head)).unwrap().count(), 0);
    assert!(window.after(BatchNum(head + 1)).is_none());
}

/// The honest exchange: a first contact is sent the whole tail, a
/// second read only what is new — and both verify to the same views.
#[test]
fn a_warm_cursor_is_sent_only_the_suffix() {
    let p = world();
    let mut window = FeedWindow::default();
    let first = query_with(read_keys(), &window);
    assert_eq!(first.feed_resume(ClusterId(0), SERVED), SERVED);
    let (_, run) = subscribe(
        &p,
        &mut window,
        &first,
        &response(&p, &read_keys(), deltas(&p, 2..=5)),
        NOW,
    )
    .unwrap();
    assert_eq!(run.len(), 4);
    assert_eq!(
        window.cursor(),
        Some(FeedCursor {
            first: BatchNum(2),
            head: BatchNum(5)
        })
    );

    let second = query_with(read_keys(), &window);
    assert_eq!(second.feed_resume(ClusterId(0), SERVED), BatchNum(5));
    assert!(second.wire_size() > first.wire_size());
    let (answer, run) = subscribe(
        &p,
        &mut window,
        &second,
        &response(&p, &read_keys(), deltas(&p, 6..=HEAD)),
        NOW,
    )
    .unwrap();
    // The certified run is held ++ sent, all the way from served + 1.
    let batches: Vec<u64> = run.iter().map(|d| d.batch().0).collect();
    assert_eq!(batches, (2..=HEAD).collect::<Vec<_>>());
    assert_eq!(window.cursor().unwrap().head, BatchNum(HEAD));
    // The same read with nothing held and everything sent: same answer.
    let mut cold = FeedWindow::default();
    let (whole, _) = subscribe(
        &p,
        &mut cold,
        &first,
        &response(&p, &read_keys(), deltas(&p, 2..=HEAD)),
        NOW,
    )
    .unwrap();
    assert_eq!(answer, whole);
    // Nothing newer: an empty tail, proven current by held deltas alone.
    let third = query_with(read_keys(), &window);
    let (_, run) = subscribe(
        &p,
        &mut window,
        &third,
        &response(&p, &read_keys(), Vec::new()),
        NOW,
    )
    .unwrap();
    assert_eq!(run.len(), (HEAD - 1) as usize);
    // A run reaching further back than the window becomes its base, so
    // the next read served there finds a cursor that does reach.
    assert_eq!(
        window.cursor(),
        Some(FeedCursor {
            first: BatchNum(2),
            head: BatchNum(HEAD)
        })
    );
    let again = query_with(read_keys(), &window);
    assert_eq!(again.feed_resume(ClusterId(0), SERVED), BatchNum(HEAD));
}

/// (b) With `[2, 5]` held, the sent tail must start at exactly 6.
#[test]
fn a_sent_tail_must_start_right_after_the_cursor() {
    let p = world();
    let held = window_of(&p, 2..=5);
    let query = query_with(read_keys(), &held);
    let try_with = |sent| {
        let mut window = held.clone();
        let verdict = subscribe(
            &p,
            &mut window,
            &query,
            &response(&p, &read_keys(), sent),
            NOW,
        );
        assert_eq!(
            window.cursor(),
            held.cursor(),
            "a rejected tail was appended"
        );
        verdict
    };
    spliced(try_with(deltas(&p, 7..=HEAD)), 6, 7); // skips past cursor + 1
    spliced(try_with(deltas(&p, 5..=HEAD)), 6, 5); // repeats a held batch
    spliced(try_with(deltas(&p, 3..=HEAD)), 6, 3); // starts below the cursor
    spliced(try_with(deltas(&p, 2..=HEAD)), 6, 2); // the whole tail, unasked
                                                   // A third party holding nothing reproduces each from the signed
                                                   // cursor alone.
    let replayed = response(&p, &read_keys(), deltas(&p, 5..=HEAD));
    assert_eq!(
        p.verdict(ClusterId(0), &query, &replayed, NOW).unwrap_err(),
        ReadRejection::FeedSpliced {
            expected: BatchNum(6),
            got: BatchNum(5)
        }
    );
}

/// (c) A window that restarted at 4 cannot vouch for batches 2 and 3,
/// so its cursor buys nothing for a response served at 1: a suffix-only
/// reply is spliced, never silently accepted; the whole tail verifies.
#[test]
fn a_cursor_short_of_the_served_batch_gets_the_whole_tail_or_nothing() {
    let p = world();
    let held = window_of(&p, 4..=6);
    let query = query_with(read_keys(), &held);
    assert_eq!(query.feed_resume(ClusterId(0), SERVED), SERVED);
    let mut window = held.clone();
    spliced(
        subscribe(
            &p,
            &mut window,
            &query,
            &response(&p, &read_keys(), deltas(&p, 7..=HEAD)),
            NOW,
        ),
        2,
        7,
    );
    assert_eq!(window.cursor(), held.cursor());
    let (_, run) = subscribe(
        &p,
        &mut window,
        &query,
        &response(&p, &read_keys(), deltas(&p, 2..=HEAD)),
        NOW,
    )
    .unwrap();
    assert_eq!(run.len(), (HEAD - 1) as usize);
    // A run reaching further back than the window becomes its base, so
    // the next read served there finds a cursor that does reach.
    assert_eq!(
        window.cursor(),
        Some(FeedCursor {
            first: BatchNum(2),
            head: BatchNum(HEAD)
        })
    );
    let again = query_with(read_keys(), &window);
    assert_eq!(again.feed_resume(ClusterId(0), SERVED), BatchNum(HEAD));
    // So does a cursor *ahead* of a lagging edge's head stand alone.
    let ahead = window_of(&p, 2..=7);
    let query = query_with(read_keys(), &ahead);
    let mut window = ahead.clone();
    let (_, run) = subscribe(
        &p,
        &mut window,
        &query,
        &response(&p, &read_keys(), Vec::new()),
        NOW,
    )
    .unwrap();
    assert_eq!(run.len(), 6);
}

/// (d) Whatever fails — a sent delta, the chain, a held delta against
/// the keys, the head's freshness, the sections under the feed — the
/// window is exactly what it was.
#[test]
fn nothing_is_appended_unless_every_check_passes() {
    let p = world();
    let held = window_of(&p, 2..=5);
    let keys = read_keys();
    let query = query_with(keys.clone(), &held);
    let honest = || deltas(&p, 6..=7);
    let doctored = |edit: &dyn Fn(&mut CertifiedDelta<TestHeader>)| {
        let mut sent = honest();
        edit(Arc::make_mut(&mut sent[1]));
        sent
    };
    let mut tampered_section = p.section(&keys, SERVED);
    let body = &tampered_section.body;
    let mut values = body.values().to_vec();
    values[0] = Some("forged".into());
    tampered_section = common::rebuild(
        &tampered_section,
        body.keys().to_vec(),
        values,
        body.proof().clone(),
    );
    let late = SimTime(p.headers[7].timestamp.0 + 31 * SECOND);
    // Key 3 changed in batch 8: a reader of key 3 may not be told the
    // batch-1 values are current through 9 …
    let touched = vec![Key::from_u32(2), Key::from_u32(3)];
    // … nor lean on a window that holds batch 8.
    let holds_8 = window_of(&p, 2..=8);

    type Case = (
        ReadQuery,
        ReadResponse<TestHeader>,
        SimTime,
        FeedWindow<TestHeader>,
        ReadRejection,
    );
    let case = |sent, now, rejection| {
        (
            query.clone(),
            response(&p, &keys, sent),
            now,
            held.clone(),
            rejection,
        )
    };
    let cases: Vec<Case> = vec![
        case(
            doctored(&|d| d.changed.push(Key::from_u32(9_999))),
            NOW,
            ReadRejection::BadDelta,
        ),
        case(
            doctored(&|d| d.cert.sigs.clear()),
            NOW,
            ReadRejection::BadCertificate,
        ),
        case(
            deltas(&p, 7..=8),
            NOW,
            ReadRejection::FeedSpliced {
                expected: BatchNum(6),
                got: BatchNum(7),
            },
        ),
        case(honest(), late, ReadRejection::StaleTimestamp),
        (
            query.clone(),
            ReadResponse::Point {
                section: Box::new(tampered_section),
                fresh: Some(honest()),
            },
            NOW,
            held.clone(),
            ReadRejection::ValueMismatch(keys[0].clone()),
        ),
        (
            query_with(touched.clone(), &held),
            response(&p, &touched, deltas(&p, 6..=HEAD)),
            NOW,
            held.clone(),
            ReadRejection::BadDelta,
        ),
        (
            query_with(touched.clone(), &holds_8),
            response(&p, &touched, deltas(&p, HEAD..=HEAD)),
            NOW,
            holds_8.clone(),
            ReadRejection::BadDelta,
        ),
    ];
    for (query, response, now, before, rejection) in cases {
        let mut window = before.clone();
        let verdict = subscribe(&p, &mut window, &query, &response, now);
        assert_eq!(verdict.unwrap_err(), rejection);
        assert_eq!(
            (window.len(), window.cursor()),
            (before.len(), before.cursor())
        );
    }
    // The last case rests on a delta only the subscriber holds: a third
    // party sees a response that verifies, so it is no evidence.
    let query = query_with(touched.clone(), &holds_8);
    let sent_9 = response(&p, &touched, deltas(&p, HEAD..=HEAD));
    assert!(p.verdict(ClusterId(0), &query, &sent_9, NOW).is_ok());
    // The honest exchange does extend the window.
    let mut window = held.clone();
    subscribe(
        &p,
        &mut window,
        &query_with(keys.clone(), &held),
        &response(&p, &keys, honest()),
        NOW,
    )
    .unwrap();
    assert_eq!(window.cursor().unwrap().head, BatchNum(7));
}
