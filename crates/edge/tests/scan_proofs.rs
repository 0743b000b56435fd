//! Property tests for the scan chain of `ReadVerifier::verify_query`: across random
//! partition contents and random windows, *no* single-row omission,
//! reordered, duplicated or foreign row, spare or missing boundary
//! sibling, boundary truncation, or cross-batch splice of an
//! otherwise-valid window survives verification — and the honest scan
//! always verifies to exactly the committed rows of the window. A
//! window ships its rows and boundary siblings only; the verifier
//! rebuilds the occupied buckets from the rows.

mod common;

use common::{anchor_mut, anchor_of, scan_mut, scan_of, Partition};

use proptest::prelude::*;
use transedge_common::{BatchNum, ClusterId, Epoch, Key, SimDuration, SimTime, Value};
use transedge_crypto::range::MAX_RANGE_BUCKETS;
use transedge_crypto::{sha256, Digest, ScanRange};
use transedge_edge::{
    QueryAnswer, ReadQuery, ReadRejection, ReadResponse, ScanProof, SnapshotSource,
};

/// Shallow tree: 64 buckets → dense windows and bucket collisions.
const DEPTH: u32 = 6;

impl Partition {
    fn verify(
        &self,
        answer: &ReadResponse,
        requested: &ScanRange,
    ) -> Result<Vec<(Key, Value)>, ReadRejection> {
        self.verify_as(ClusterId(0), answer, requested, SimTime(2_500))
    }

    /// The verdict on `answer` as the answer to a one-window scan of
    /// `requested` — through the plain key directory and through the
    /// memo that already holds every honest certificate (both via
    /// `Partition::verdict`, which asserts they agree).
    fn verify_as(
        &self,
        cluster: ClusterId,
        answer: &ReadResponse,
        requested: &ScanRange,
        now: SimTime,
    ) -> Result<Vec<(Key, Value)>, ReadRejection> {
        let query = ReadQuery::scan(cluster, *requested);
        match self.verdict(cluster, &query, answer, now)? {
            QueryAnswer::Rows(rows) => Ok(rows),
            other => panic!("a one-window scan yields its rows, got {other:?}"),
        }
    }
}

/// Two batches over random keys; batch 1 always overwrites something so
/// the roots differ (the splice attack needs a second, different root).
fn world(key_tags: &[(u16, u8)]) -> Partition {
    let mut p = Partition::with_depth(DEPTH);
    let batch0: Vec<(u32, String)> = key_tags
        .iter()
        .map(|(k, v)| (*k as u32 % 512, format!("a{v}")))
        .collect();
    p.commit(&batch0, Epoch::NONE, SimTime(1_000));
    let batch1: Vec<(u32, String)> = vec![(key_tags[0].0 as u32 % 512, "overwrite".to_string())];
    p.commit(&batch1, Epoch::NONE, SimTime(2_000));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Honest scans verify to exactly the committed window; every
    /// single-row omission (client-visible rows *and* proof entries),
    /// every boundary truncation, and the cross-batch splice are
    /// rejected with the right typed error.
    #[test]
    fn scan_forgeries_never_survive(
        key_tags in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..32),
        first in 0u64..64,
        width in 1u64..24,
    ) {
        let p = world(&key_tags);
        let last = (first + width - 1).min((1 << DEPTH) - 1);
        let range = ScanRange::new(first, last);
        let honest = p.scan(range, BatchNum(1));

        // Honest: verifies, and the rows are exactly the committed
        // content of the window, in tree order.
        let rows = p.verify(&honest, &range).expect("honest scan verifies");
        let mut expected: Vec<(Key, Value)> = p
            .store
            .range_at(range.digest_bounds(DEPTH), BatchNum(1))
            .map(|(k, v)| (k.clone(), v.value.clone()))
            .collect();
        expected.sort_by_key(|(k, _)| sha256(k.as_bytes()));
        prop_assert_eq!(&rows, &expected);

        // 1. Omit any single returned row. Every surviving row is
        // committed; only the fold of the whole window, whose buckets
        // the verifier rebuilds from the rows, misses the root.
        let forged = |edit: &dyn Fn(&mut ScanProof)| {
            let mut b = honest.clone();
            edit(scan_mut(&mut b));
            p.verify(&b, &range)
        };
        let n = scan_of(&honest).rows.len();
        for i in 0..n {
            prop_assert_eq!(
                forged(&|s| { s.rows.remove(i); }),
                Err(ReadRejection::BadRangeProof),
                "omitting row {}", i
            );
            // A duplicated row, and two rows out of strict key-hash
            // order: the same row set in another encoding.
            prop_assert_eq!(
                forged(&|s| s.rows.insert(i, s.rows[i].clone())),
                Err(ReadRejection::BadRangeProof),
                "duplicating row {}", i
            );
            if i + 1 < n {
                prop_assert_eq!(
                    forged(&|s| s.rows.swap(i, i + 1)),
                    Err(ReadRejection::BadRangeProof),
                    "swapping rows {} and {}", i, i + 1
                );
            }
        }
        // A committed row of a neighbouring window, added at the edge
        // it borders (so key-hash order still holds).
        let top = (1u64 << DEPTH) - 1;
        let rows_of = |first, last| p.rows_at(&ScanRange::new(first, last), BatchNum(1));
        if let Some(row) = (range.last < top).then(|| rows_of(range.last + 1, top)).and_then(|r| r.first().cloned()) {
            prop_assert_eq!(
                forged(&|s| s.rows.push(row.clone())),
                Err(ReadRejection::BadRangeProof)
            );
        }
        if let Some(row) = (range.first > 0).then(|| rows_of(0, range.first - 1)).and_then(|r| r.last().cloned()) {
            prop_assert_eq!(
                forged(&|s| s.rows.insert(0, row.clone())),
                Err(ReadRejection::BadRangeProof)
            );
        }
        // A spare or a missing boundary sibling, on either side.
        let spare = Digest([0xAB; 32]);
        prop_assert_eq!(forged(&|s| s.left.push(spare)), Err(ReadRejection::BadRangeProof));
        prop_assert_eq!(forged(&|s| s.right.push(spare)), Err(ReadRejection::BadRangeProof));
        if !scan_of(&honest).left.is_empty() {
            prop_assert_eq!(forged(&|s| { s.left.pop(); }), Err(ReadRejection::BadRangeProof));
        }
        if !scan_of(&honest).right.is_empty() {
            prop_assert_eq!(forged(&|s| { s.right.pop(); }), Err(ReadRejection::BadRangeProof));
        }

        // 2. Boundary truncation: a proof for a narrower window...
        if range.width() > 1 {
            let narrow = ScanRange::new(range.first + 1, range.last);
            let truncated = p.scan(narrow, BatchNum(1));
            // ...honestly labelled is not the window requested;
            prop_assert!(matches!(
                p.verify(&truncated, &range),
                Err(ReadRejection::ScanRangeNotCovered { .. })
            ));
            // ...and relabelled as the full window, its siblings no
            // longer fold to the certified root.
            let mut relabelled = truncated.clone();
            scan_mut(&mut relabelled).range = range;
            prop_assert!(p.verify(&relabelled, &range).is_err());
            // ...and the converse: the honest window answered to a
            // request for the narrower one is not the window asked for
            // either — decided before any proof work, so gutting the
            // proof does not change the verdict.
            let mut gutted = honest.clone();
            scan_mut(&mut gutted).rows.clear();
            scan_mut(&mut gutted).left.clear();
            for wider in [&honest, &gutted] {
                prop_assert_eq!(
                    p.verify(wider, &narrow),
                    Err(ReadRejection::ScanRangeNotCovered {
                        requested: narrow,
                        proven: range,
                    })
                );
            }
        }

        // 3. Cross-batch splice: batch 0's (internally consistent)
        // window and proof under batch 1's certified commitment. The
        // roots differ, so the splice folds to the wrong root.
        let stale = p.scan(range, BatchNum(0));
        let mut spliced = honest.clone();
        *scan_mut(&mut spliced) = scan_of(&stale).clone();
        prop_assert!(matches!(
            p.verify(&spliced, &range),
            Err(ReadRejection::BadRangeProof)
        ));
    }
}

/// The remaining typed rejections, pinned deterministically.
#[test]
fn scan_rejection_classes_are_typed() {
    let p = world(&[(1, 1), (2, 2), (3, 3), (4, 4), (130, 5)]);
    let range = ScanRange::new(0, (1 << DEPTH) - 1);
    let honest = p.scan(range, BatchNum(1));
    assert!(!scan_of(&honest).rows.is_empty());

    // Tampered row value: the row's recomputed entry misses the root.
    let mut b = honest.clone();
    scan_mut(&mut b).rows[0].1 = Value::from("forged");
    assert_eq!(p.verify(&b, &range), Err(ReadRejection::BadRangeProof));

    // Injected phantom row: an entry the committed window lacks.
    let mut b = honest.clone();
    scan_mut(&mut b)
        .rows
        .push((Key::from_u32(9_999), Value::from("phantom")));
    assert_eq!(p.verify(&b, &range), Err(ReadRejection::BadRangeProof));

    // Reordered rows: strict key-hash order is the one encoding.
    assert!(scan_of(&honest).rows.len() > 1);
    let mut b = honest.clone();
    scan_mut(&mut b).rows.reverse();
    assert_eq!(p.verify(&b, &range), Err(ReadRejection::BadRangeProof));

    // Forged root with the real certificate.
    let mut b = honest.clone();
    anchor_mut(&mut b).0.header.merkle_root = Digest([0xDE; 32]);
    assert_eq!(p.verify(&b, &range), Err(ReadRejection::BadCertificate));
    // So is every other certified field Algorithm 2 or the feed reads.
    for (name, forged) in common::rewritten(anchor_of(&honest).0) {
        let mut b = honest.clone();
        anchor_mut(&mut b).0 = forged;
        assert_eq!(
            p.verify(&b, &range),
            Err(ReadRejection::BadCertificate),
            "{name}"
        );
    }

    // Stale timestamp outside the freshness window.
    let late = p.verify_as(
        ClusterId(0),
        &honest,
        &range,
        SimTime(SimDuration::from_secs(40).as_micros()),
    );
    assert_eq!(late, Err(ReadRejection::StaleTimestamp));

    // Wrong partition.
    let wrong = p.verify_as(ClusterId(1), &honest, &range, SimTime(2_500));
    assert!(matches!(wrong, Err(ReadRejection::WrongCluster { .. })));

    // A query no honest replica serves, one bucket wider than a window:
    // every answer is rejected, and none panics the checker — the
    // honest window is not the one asked, and relabelled as the wide
    // one it names no provable range.
    let wide = ScanRange::new(0, MAX_RANGE_BUCKETS);
    assert_eq!(
        p.verify(&honest, &wide),
        Err(ReadRejection::ScanRangeNotCovered {
            requested: wide,
            proven: range,
        })
    );
    let mut relabelled = honest.clone();
    scan_mut(&mut relabelled).range = wide;
    assert_eq!(
        p.verify(&relabelled, &wide),
        Err(ReadRejection::BadRangeProof)
    );
}
