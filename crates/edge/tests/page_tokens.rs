//! Property tests for the unified query verifier's pagination pins:
//! across random partition contents, ranges, and page widths, an
//! honest paginated scan verifies page by page to exactly the
//! committed rows of the full range — and **no tampered or replayed
//! [`PageToken`] survives [`ReadVerifier::verify_query`]**: swapping
//! the pinned batch (the page-splice attack) or moving the resume
//! bound outside the remaining range (replaying already-scanned
//! buckets, or fabricating a continuation) is rejected before any row
//! is accepted.

mod common;

use common::Partition;

use proptest::prelude::*;
use transedge_common::{BatchNum, ClusterId, Epoch, Key, SimTime, Value};
use transedge_crypto::{sha256, ScanRange};
use transedge_edge::{PageToken, QueryAnswer, ReadQuery, ReadRejection, ReadResponse};

/// Shallow tree: 64 buckets → dense windows and short page chains.
const DEPTH: u32 = 6;

impl Partition {
    /// What an honest server answers a page query with: the scan of the
    /// query's current window, pinned where the query demands (or at
    /// `fallback` for unpinned first pages).
    fn serve(&self, query: &ReadQuery, fallback: BatchNum) -> ReadResponse {
        let window = query.scan_window().expect("scan query");
        let at = query.pinned_batch().unwrap_or(fallback);
        self.scan(window, at)
    }

    fn verify(
        &self,
        query: &ReadQuery,
        response: &ReadResponse,
    ) -> Result<QueryAnswer, ReadRejection> {
        self.verdict(ClusterId(0), query, response, SimTime(2_500))
    }
}

/// Two batches over random keys; batch 1 always overwrites something so
/// the roots differ (the page-splice attack needs a second, different
/// root to splice from).
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

    /// Honest pagination verifies page by page to exactly the committed
    /// rows of the range; tampered and replayed tokens never survive.
    #[test]
    fn tampered_page_tokens_never_survive(
        key_tags in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..32),
        first in 0u64..40,
        width in 2u64..24,
        window in 1u64..8,
    ) {
        let p = world(&key_tags);
        let last = (first + width - 1).min((1 << DEPTH) - 1);
        let range = ScanRange::new(first, last);
        let base = ReadQuery::scatter_scan(vec![ClusterId(0)], range, window);
        let latest = BatchNum(1);

        // --- Honest pagination: drive the token chain to exhaustion.
        let mut rows: Vec<(Key, Value)> = Vec::new();
        let mut query = base.clone();
        let mut pages = 0u64;
        let mut tokens: Vec<PageToken> = Vec::new();
        loop {
            let response = p.serve(&query, latest);
            let answer = p.verify(&query, &response).expect("honest page verifies");
            let QueryAnswer::Rows { rows: page_rows, next } = answer else {
                panic!("scan answer expected");
            };
            rows.extend(page_rows);
            pages += 1;
            match next {
                Some(token) => {
                    // Tokens pin the serving batch and advance strictly.
                    prop_assert_eq!(token.batch, latest);
                    prop_assert!(token.resume > range.first && token.resume <= range.last);
                    if let Some(prev) = tokens.last() {
                        prop_assert!(token.resume > prev.resume);
                    }
                    tokens.push(token);
                    query = base.clone().with_page(token);
                }
                None => break,
            }
        }
        prop_assert_eq!(pages, range.width().div_ceil(window));
        let mut expected: Vec<(Key, Value)> = p
            .store
            .range_at(range.digest_bounds(DEPTH), latest)
            .map(|(k, v)| (k.clone(), v.value.clone()))
            .collect();
        expected.sort_by_key(|(k, _)| sha256(k.as_bytes()));
        prop_assert_eq!(&rows, &expected, "pages stitch to the full committed range");

        // The attacks below need at least one continuation token
        // (single-page ranges have none).
        if tokens.is_empty() {
            return Ok(());
        }
        let token = tokens[0];

        // --- 1. Batch swapped in the token: the served page (still a
        // perfectly valid proof!) is at the wrong batch → the page
        // splice is rejected before any row is accepted.
        let swapped = PageToken { batch: BatchNum(0), resume: token.resume };
        let q = base.clone().with_page(swapped);
        // An honest-at-batch-1 response does not match the swapped pin…
        let response = p.serve(&base.clone().with_page(token), latest);
        prop_assert_eq!(
            p.verify(&q, &response).unwrap_err(),
            ReadRejection::SnapshotPinMismatch { pinned: BatchNum(0), got: BatchNum(1) }
        );
        // …and a server that *honours* the forged pin serves a batch-0
        // page that can never splice into the batch-1 chain: the
        // verifier rejects it against the token the session actually
        // holds (batch 1).
        let spliced = p.serve(&q, latest);
        let held = base.clone().with_page(token);
        prop_assert_eq!(
            p.verify(&held, &spliced).unwrap_err(),
            ReadRejection::SnapshotPinMismatch { pinned: BatchNum(1), got: BatchNum(0) }
        );

        // --- 2. Resume bound moved backwards (to or before the first
        // window) or past the end: a replayed/fabricated token, rejected
        // outright.
        for resume in [range.first, range.first.saturating_sub(1), range.last + 1] {
            let bad = PageToken { batch: latest, resume };
            let q = base.clone().with_page(bad);
            let response = p.serve(&base.clone().with_page(token), latest);
            let err = p.verify(&q, &response).unwrap_err();
            prop_assert_eq!(
                err,
                ReadRejection::PageOutOfRange { resume, range },
                "resume bound {} must be rejected", resume
            );
        }
    }
}
