//! The unified typed read-query protocol: one request/response pair for
//! every proof-carrying read shape TransEdge serves.
//!
//! Before this module, each query shape carried its own ad-hoc wire
//! protocol and verifier entry point (point reads, range scans), and
//! every caller re-implemented snapshot-floor and retry plumbing per
//! shape. A [`ReadQuery`] names all of it in one typed value:
//!
//! * a [`QueryShape`] — point reads over a key set (which may span
//!   partitions) or a range scan over the tree order of one or more
//!   partitions (scatter-gather);
//! * a [`SnapshotPolicy`] — serve the latest snapshot, or the earliest
//!   snapshot whose LCE reaches a dependency floor (round two of
//!   Algorithm 2, uniform across shapes: scans get the same LCE-floor
//!   semantics as point reads);
//! * an optional [`PageToken`] — multi-window scans resume from a
//!   bucket bound *pinned to the batch the first window was served at*,
//!   so a paginated scan is one consistent snapshot even when its pages
//!   are served by different untrusted nodes.
//!
//! Servers answer with a [`ReadResponse`]; the single verifier entry
//! point [`crate::ReadVerifier::verify_query`] dispatches to the
//! section/scan proof checks and enforces the policy and the page pin,
//! so an untrusted node cannot splice pages across batches or downgrade
//! a floor without being caught.

use transedge_common::{BatchNum, ClusterId, Epoch, Key, Value};
use transedge_crypto::range::MAX_RANGE_BUCKETS;
use transedge_crypto::ScanRange;
use transedge_obs::TraceContext;

use std::sync::Arc;

use crate::feed::FeedCursor;
use crate::response::{BatchCommitment, CertifiedDelta, MultiProofBundle, ScanBundle};

/// Which snapshot a [`ReadQuery`] must be served at.
///
/// # Examples
///
/// ```
/// use transedge_common::Epoch;
/// use transedge_edge::SnapshotPolicy;
///
/// // Round-one reads take whatever is newest…
/// assert!(SnapshotPolicy::Latest.min_lce().is_none());
/// // …round-two reads demand a dependency floor.
/// assert_eq!(SnapshotPolicy::MinEpoch(Epoch(4)).min_lce(), Epoch(4));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotPolicy {
    /// The newest snapshot the server has applied.
    Latest,
    /// The earliest snapshot whose LCE is at least this epoch — the
    /// round-two dependency floor of Algorithm 2, applied uniformly to
    /// point reads *and* scans.
    MinEpoch(Epoch),
}

impl SnapshotPolicy {
    /// The LCE floor this policy imposes ([`Epoch::NONE`] when it
    /// imposes none).
    pub fn min_lce(&self) -> Epoch {
        match self {
            SnapshotPolicy::MinEpoch(e) => *e,
            SnapshotPolicy::Latest => Epoch::NONE,
        }
    }
}

/// What a [`ReadQuery`] asks for: point reads or a range scan.
///
/// # Examples
///
/// ```
/// use transedge_common::{ClusterId, Key};
/// use transedge_crypto::ScanRange;
/// use transedge_edge::QueryShape;
///
/// let point = QueryShape::Point { keys: vec![Key::from_u32(7)] };
/// let scan = QueryShape::Scan {
///     clusters: vec![ClusterId(0), ClusterId(1)], // scatter-gather
///     range: ScanRange::new(0, 1023),
///     window: 256, // served as four consecutive pages per cluster
/// };
/// assert!(matches!(point, QueryShape::Point { .. }));
/// assert!(matches!(scan, QueryShape::Scan { .. }));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryShape {
    /// Snapshot point reads. Keys may span partitions — the client's
    /// session plans one sub-query per partition and stitches the
    /// verified answers (with a cross-partition dependency check).
    Point { keys: Vec<Key> },
    /// A verified range scan of the same tree-order window on each
    /// named partition (scatter-gather when more than one). A `range`
    /// wider than `window` buckets is served as consecutive pages, each
    /// at most `window` (and never more than
    /// [`MAX_RANGE_BUCKETS`]) wide, pinned to one
    /// snapshot via [`PageToken`].
    Scan {
        clusters: Vec<ClusterId>,
        range: ScanRange,
        /// Maximum buckets per page (clamped to `1..=MAX_RANGE_BUCKETS`).
        window: u64,
    },
}

/// Resume bound for a multi-window scan: the batch the scan is pinned
/// to and the first bucket of the next page.
///
/// The token is what keeps pagination snapshot-consistent across pages
/// served by *different untrusted nodes*: the verifier rejects a page
/// at any batch other than `batch` (no splice across batches) and a
/// token whose `resume` has been moved outside the query's remaining
/// range (no silent replay of already-scanned buckets).
///
/// # Examples
///
/// ```
/// use transedge_common::BatchNum;
/// use transedge_edge::PageToken;
///
/// let token = PageToken { batch: BatchNum(3), resume: 256 };
/// assert_eq!(token.batch, BatchNum(3));
/// assert_eq!(token.resume, 256);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageToken {
    /// Batch the first page was served (and verified) at; every later
    /// page must be served at exactly this batch.
    pub batch: BatchNum,
    /// First tree-order bucket of the next page.
    pub resume: u64,
}

/// One typed read query: shape, snapshot policy, and (for scan
/// continuations) the page to resume from. The single client-facing
/// entry point of the proof-carrying read protocol.
///
/// # Examples
///
/// ```
/// use transedge_common::{ClusterId, Epoch, Key};
/// use transedge_crypto::ScanRange;
/// use transedge_edge::{ReadQuery, SnapshotPolicy};
///
/// // A snapshot point read (keys may span partitions).
/// let rot = ReadQuery::point(vec![Key::from_u32(1), Key::from_u32(2)]);
/// assert!(rot.page.is_none());
///
/// // A paginated scatter-gather scan with a round-2 LCE floor.
/// let scan = ReadQuery::scatter_scan(
///     vec![ClusterId(0), ClusterId(1)],
///     ScanRange::new(0, 511),
///     128,
/// )
/// .with_policy(SnapshotPolicy::MinEpoch(Epoch(0)));
/// assert_eq!(scan.scan_window().unwrap(), ScanRange::new(0, 127));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadQuery {
    /// Which snapshot must serve the query.
    pub consistency: SnapshotPolicy,
    /// What is being read.
    pub shape: QueryShape,
    /// Scan continuation: resume from this page, pinned to its batch.
    pub page: Option<PageToken>,
    /// Subscription mode (`Some`): ask the serving edge to attach its
    /// verified delta-feed tail as a freshness certificate
    /// ([`ReadResponse::Point`]'s `fresh` field), proving the served
    /// values unchanged through the feed head. The cursors name, per
    /// partition the query touches, the run of deltas the client has
    /// already verified and holds, so only newer ones need travel; a
    /// partition without one (a first contact) gets the whole tail.
    /// Ignored for scan shapes.
    pub feed: Option<Vec<(ClusterId, FeedCursor)>>,
    /// Causal-trace propagation context: the client operation this
    /// query serves and the span that caused this hop. Purely
    /// observational — servers never branch on it.
    pub trace: Option<TraceContext>,
}

impl ReadQuery {
    /// A point read of `keys` at the latest snapshot (the classic
    /// round-one ROT request).
    pub fn point(keys: Vec<Key>) -> Self {
        ReadQuery {
            consistency: SnapshotPolicy::Latest,
            shape: QueryShape::Point { keys },
            page: None,
            feed: None,
            trace: None,
        }
    }

    /// A single-partition scan of `range` at the latest snapshot,
    /// served in one window (the classic verified scan).
    pub fn scan(cluster: ClusterId, range: ScanRange) -> Self {
        Self::scatter_scan(vec![cluster], range, MAX_RANGE_BUCKETS)
    }

    /// A scan of the same `range` on every cluster in `clusters`
    /// (scatter-gather), paginated into windows of at most `window`
    /// buckets.
    pub fn scatter_scan(clusters: Vec<ClusterId>, range: ScanRange, window: u64) -> Self {
        ReadQuery {
            consistency: SnapshotPolicy::Latest,
            shape: QueryShape::Scan {
                clusters,
                range,
                window,
            },
            page: None,
            feed: None,
            trace: None,
        }
    }

    /// Replace the snapshot policy (builder style).
    pub fn with_policy(mut self, policy: SnapshotPolicy) -> Self {
        self.consistency = policy;
        self
    }

    /// Continue a paginated scan from `token` (builder style).
    pub fn with_page(mut self, token: PageToken) -> Self {
        self.page = Some(token);
        self
    }

    /// Ask the serving edge to attach its delta-feed tail as a
    /// freshness certificate (builder style; subscription mode, nothing
    /// held yet).
    pub fn with_feed_freshness(mut self) -> Self {
        self.feed = Some(Vec::new());
        self
    }

    /// Attach a causal-trace propagation context (builder style).
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The exact batch this query is pinned to, if any: its page
    /// token's. Only a scan continuation pins a batch.
    pub fn pinned_batch(&self) -> Option<BatchNum> {
        self.page.as_ref().map(|t| t.batch)
    }

    /// The LCE floor imposed by the snapshot policy.
    pub fn min_lce(&self) -> Epoch {
        self.consistency.min_lce()
    }

    /// The effective window of the *current page* of a scan query:
    /// starts at the page token's resume bound (or the range start for
    /// the first page) and extends at most `window` buckets, clamped to
    /// the query range and the protocol cap. `None` for point queries
    /// and for tokens whose resume bound lies outside the range.
    pub fn scan_window(&self) -> Option<ScanRange> {
        let QueryShape::Scan { range, window, .. } = &self.shape else {
            return None;
        };
        let width = (*window).clamp(1, MAX_RANGE_BUCKETS);
        let start = self.page.as_ref().map_or(range.first, |t| t.resume);
        if start < range.first || start > range.last {
            return None;
        }
        Some(ScanRange::new(
            start,
            range.last.min(start.saturating_add(width - 1)),
        ))
    }

    /// The feed cursors restricted to `cluster` (sub-query planning).
    pub fn feed_for(&self, cluster: ClusterId) -> Option<Vec<(ClusterId, FeedCursor)>> {
        let cursors = self.feed.as_ref()?;
        Some(
            cursors
                .iter()
                .filter(|(c, _)| *c == cluster)
                .copied()
                .collect(),
        )
    }

    /// The batch after which `cluster`'s feed deltas must travel with a
    /// response served at `served`: [`FeedCursor::resume_after`] of the
    /// partition's cursor, or `served` itself (the whole tail) when the
    /// query carries none.
    pub fn feed_resume(&self, cluster: ClusterId, served: BatchNum) -> BatchNum {
        let mut cursors = self.feed.iter().flatten();
        cursors
            .find(|(c, _)| *c == cluster)
            .map_or(served, |(_, cursor)| cursor.resume_after(served))
    }

    /// Clusters a scan scatters over (empty for point queries, whose
    /// partitions are derived from the keys by the planner).
    pub fn scan_clusters(&self) -> &[ClusterId] {
        match &self.shape {
            QueryShape::Scan { clusters, .. } => clusters,
            QueryShape::Point { .. } => &[],
        }
    }

    /// Wire-size estimate for the simulator's bandwidth model, computed
    /// structurally from the shape (keys, scan bounds, window), the
    /// policy, and the page token — never a flat constant.
    pub fn wire_size(&self) -> usize {
        let policy = match self.consistency {
            SnapshotPolicy::Latest => 1,
            SnapshotPolicy::MinEpoch(_) => 9,
        };
        let page = if self.page.is_some() { 17 } else { 1 };
        // Absent is one byte; a cursor is a cluster and two batches.
        let feed = self.feed.as_ref().map_or(1, |c| 5 + c.len() * 18);
        // Trace context rides along as two u64 ids when present.
        let trace = if self.trace.is_some() { 17 } else { 1 };
        let shape = match &self.shape {
            QueryShape::Point { keys } => 4 + keys.iter().map(|k| k.len() + 4).sum::<usize>(),
            QueryShape::Scan { clusters, .. } => 4 + clusters.len() * 2 + 16 + 8,
        };
        policy + page + feed + trace + shape
    }
}

/// The payload an untrusted node answers a [`ReadQuery`] with. Every
/// variant is proof-carrying — clients verify it end to end via
/// [`crate::ReadVerifier::verify_query`].
///
/// # Examples
///
/// ```
/// use transedge_edge::ReadResponse;
///
/// fn describe<H>(r: &ReadResponse<H>) -> &'static str {
///     match r {
///         ReadResponse::Point { .. } => "point section",
///         ReadResponse::Scan { .. } => "scan window",
///         ReadResponse::Gather { .. } => "stitched per-partition parts",
///     }
/// }
/// ```
#[derive(Clone, Debug)]
pub enum ReadResponse<H> {
    /// One point-read section — one certified commitment and one
    /// multiproof over the keys it carries, so an answer mixing batches
    /// or carrying nothing cannot be expressed. A replica proves
    /// exactly the keys asked; an edge replays a cached section proving
    /// at least those, or forwards the question whole. Boxed, like a
    /// scan bundle: inline it would set the size of every message in
    /// flight. `fresh`, when present, is the serving edge's delta-feed
    /// tail up to its feed head — a freshness certificate proving the
    /// served values current through the head. It starts right after
    /// the batch
    /// [`ReadQuery::feed_resume`] names: the served batch, or the head
    /// of the run the client said it holds (`Some(vec![])` claims
    /// nothing newer exists). Verified end to end like everything
    /// else; an invalid or key-touching feed is cryptographic evidence.
    Point {
        section: Box<MultiProofBundle<H>>,
        fresh: Option<Vec<Arc<CertifiedDelta<H>>>>,
    },
    /// One proof-carrying scan window — the one the query asked for;
    /// the verifier accepts no other. Boxed: scan bundles dwarf the
    /// other payloads.
    Scan { bundle: Box<ScanBundle<H>> },
    /// Edge-tier scatter-gather: one section per partition of a
    /// cross-partition query, stitched by the single edge the client
    /// contacted. Each part is verified independently against *its own*
    /// partition's certified root — the stitching edge is an untrusted
    /// courier, nothing more. Parts must not nest further gathers (a
    /// nested gather fails the per-part shape check).
    Gather { parts: Vec<GatherPart<H>> },
}

/// One partition's slice of a [`ReadResponse::Gather`].
#[derive(Clone, Debug)]
pub struct GatherPart<H> {
    /// Partition this part answers for.
    pub cluster: ClusterId,
    /// The partition's own proof-carrying payload.
    pub body: ReadResponse<H>,
}

impl<H: BatchCommitment> ReadResponse<H> {
    /// The snapshot batch this response claims to serve (`None` only
    /// for an empty gather: gathers span partitions with independent
    /// batch spaces, and their first part's claim is reported).
    pub fn batch(&self) -> Option<BatchNum> {
        match self {
            ReadResponse::Point { section, .. } => Some(section.batch()),
            ReadResponse::Scan { bundle } => Some(bundle.batch()),
            ReadResponse::Gather { parts } => parts.first().and_then(|p| p.body.batch()),
        }
    }

    /// The freshness feed attached to this response, if any.
    pub fn fresh_feed(&self) -> Option<&[Arc<CertifiedDelta<H>>]> {
        match self {
            ReadResponse::Point { fresh, .. } => fresh.as_deref(),
            _ => None,
        }
    }
}

/// A verified answer to one per-partition sub-query, produced by
/// [`crate::ReadVerifier::verify_query`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryAnswer {
    /// Point reads: `(key, value)` in request order, absent keys proven
    /// absent.
    Values(Vec<(Key, Option<Value>)>),
    /// One verified scan page: the complete committed rows of the page
    /// window, plus the token for the next page (`None` when the range
    /// is exhausted).
    Rows {
        rows: Vec<(Key, Value)>,
        next: Option<PageToken>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_window_pages_through_the_range() {
        let q = ReadQuery::scatter_scan(vec![ClusterId(0)], ScanRange::new(0, 1023), 256);
        assert_eq!(q.scan_window(), Some(ScanRange::new(0, 255)));
        let page2 = q.clone().with_page(PageToken {
            batch: BatchNum(5),
            resume: 256,
        });
        assert_eq!(page2.scan_window(), Some(ScanRange::new(256, 511)));
        assert_eq!(page2.pinned_batch(), Some(BatchNum(5)));
        // The final page is clamped to the range end.
        let last = q.clone().with_page(PageToken {
            batch: BatchNum(5),
            resume: 1000,
        });
        assert_eq!(last.scan_window(), Some(ScanRange::new(1000, 1023)));
        // A resume bound outside the range has no window.
        let bad = q.with_page(PageToken {
            batch: BatchNum(5),
            resume: 2048,
        });
        assert_eq!(bad.scan_window(), None);
    }

    #[test]
    fn window_clamps_to_protocol_cap() {
        let q = ReadQuery::scatter_scan(
            vec![ClusterId(0)],
            ScanRange::new(0, 3 * MAX_RANGE_BUCKETS),
            u64::MAX,
        );
        assert_eq!(
            q.scan_window(),
            Some(ScanRange::new(0, MAX_RANGE_BUCKETS - 1))
        );
        // A zero window still makes progress.
        let tiny = ReadQuery::scatter_scan(vec![ClusterId(0)], ScanRange::new(4, 9), 0);
        assert_eq!(tiny.scan_window(), Some(ScanRange::new(4, 4)));
    }

    #[test]
    fn wire_size_scales_with_shape() {
        let small = ReadQuery::point(vec![Key::from_u32(1)]);
        let large = ReadQuery::point((0..100).map(Key::from_u32).collect());
        assert!(large.wire_size() > small.wire_size());
        let scan = ReadQuery::scan(ClusterId(0), ScanRange::new(0, 63));
        // Scan sizes account for the range bounds, not a flat constant.
        assert!(scan.wire_size() >= 16 + 8);
        let scatter = ReadQuery::scatter_scan(
            vec![ClusterId(0), ClusterId(1), ClusterId(2)],
            ScanRange::new(0, 63),
            64,
        );
        assert!(scatter.wire_size() > scan.wire_size());
        let paged = scan.clone().with_page(PageToken {
            batch: BatchNum(1),
            resume: 32,
        });
        assert!(paged.wire_size() > scan.wire_size());
    }

    #[test]
    fn policy_floors_and_pins() {
        assert_eq!(SnapshotPolicy::MinEpoch(Epoch(3)).min_lce(), Epoch(3));
        // Only a page token pins a batch, whatever the policy.
        let q = ReadQuery::scan(ClusterId(0), ScanRange::new(0, 7))
            .with_policy(SnapshotPolicy::MinEpoch(Epoch(1)));
        assert_eq!(q.pinned_batch(), None);
        let q = q.with_page(PageToken {
            batch: BatchNum(2),
            resume: 4,
        });
        assert_eq!(q.pinned_batch(), Some(BatchNum(2)));
    }
}
