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
//!   partitions (scatter-gather), one proven window of at most
//!   [`MAX_RANGE_BUCKETS`](transedge_crypto::range::MAX_RANGE_BUCKETS)
//!   buckets per partition;
//! * a [`SnapshotPolicy`] — serve the latest snapshot, or the earliest
//!   snapshot whose LCE reaches a dependency floor (round two of
//!   Algorithm 2, uniform across shapes: scans get the same LCE-floor
//!   semantics as point reads).
//!
//! Servers answer with a [`ReadResponse`]; the single verifier entry
//! point [`crate::ReadVerifier::verify_query`] dispatches to the
//! section/scan proof checks and enforces the policy, so an untrusted
//! node cannot downgrade a floor without being caught.

use transedge_common::{BatchNum, ClusterId, ClusterTopology, Epoch, Key, NodeId, Value};
use transedge_consensus::Certificate;
use transedge_crypto::{Digest, ScanRange};
use transedge_obs::TraceContext;

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::feed::FeedCursor;
use crate::response::{
    anchor_size, CertifiedDelta, CommittedHeader, MultiProofBody, ScanProof, HELD_ANCHOR_SIZE,
};

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
    /// named partition (scatter-gather when more than one), served as
    /// one proven window per partition. No honest replica answers a
    /// `range` that fails [`ScanRange::is_valid_for_depth`]: outside
    /// the leaf space, or wider than
    /// [`MAX_RANGE_BUCKETS`](transedge_crypto::range::MAX_RANGE_BUCKETS).
    Scan {
        clusters: Vec<ClusterId>,
        range: ScanRange,
    },
}

/// One other point part of a client's read, named on a round-two (or
/// later) sub-query sent straight to a replica: its keys, the LCE the
/// client holds for it, and the request id the client waits on should
/// the serving replica forward it. When the served header's CD vector
/// names an epoch of `cluster` above `floor`, the answer just made the
/// client's view of `cluster` stale, and the replica sends `keys` on to
/// `cluster`'s leader at that epoch, replying to the client under `req`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chase {
    pub cluster: ClusterId,
    pub keys: Vec<Key>,
    /// The LCE the client holds for `cluster`: its view's or its floor,
    /// whichever is higher.
    pub floor: Epoch,
    /// The client's request id for a forwarded answer.
    pub req: u64,
}

impl Chase {
    /// Wire size: a cluster, a floor, a request id, then the keys.
    fn wire_size(&self) -> usize {
        2 + 8 + 8 + 4 + self.keys.iter().map(|k| k.len() + 4).sum::<usize>()
    }
}

/// One typed read query: shape and snapshot policy. The single
/// client-facing entry point of the proof-carrying read protocol.
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
/// assert!(rot.scan_clusters().is_empty());
///
/// // A scatter-gather scan with a round-2 LCE floor.
/// let scan = ReadQuery::scatter_scan(vec![ClusterId(0), ClusterId(1)], ScanRange::new(0, 511))
///     .with_policy(SnapshotPolicy::MinEpoch(Epoch(0)));
/// assert_eq!(scan.min_lce(), Epoch(0));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadQuery {
    /// Which snapshot must serve the query.
    pub consistency: SnapshotPolicy,
    /// What is being read.
    pub shape: QueryShape,
    /// Subscription mode (`Some`): ask the serving edge to attach its
    /// verified delta-feed tail as a freshness certificate
    /// ([`Body::Point`]'s `fresh` field), proving the served
    /// values unchanged through the feed head. The cursors name, per
    /// partition the query touches, the run of deltas the client has
    /// already verified and holds, so only newer ones need travel; a
    /// partition without one (a first contact) gets the whole tail.
    /// Ignored for scan shapes.
    pub feed: Option<Vec<(ClusterId, FeedCursor)>>,
    /// Held anchors: per partition, the certified digest
    /// ([`Certificate::digest`]) of the newest certified header the
    /// client has verified there. A server answering a part at exactly
    /// that anchor sends a held answer ([`Anchor::Held`]) — the body
    /// without the header and certificate the client already holds. Keyed on the digest, not
    /// the batch number, so an honest server never elides against a
    /// different header, even were two certified for one batch. Empty
    /// on a first contact. An edge forwards it upstream with
    /// [`ReadQuery::reply_to`], and the replica elides only the copy it
    /// sends the client, so what an edge absorbs is a full answer.
    pub held: Vec<(ClusterId, Digest)>,
    /// Where the answer goes besides the asker: a client and the
    /// request id it asked under. An honest edge forwarding a part it
    /// cannot replay names its client here, and the replica sends its
    /// answer straight to that client (held when the client named the
    /// anchor) as well as full to the edge, which only caches it. A
    /// replica chasing a part ([`Chase`]) names the client too, and is
    /// not answered itself: it caches nothing. A replica ignores a
    /// `reply_to` naming anything but a client. `None` from clients.
    pub reply_to: Option<(NodeId, u64)>,
    /// The read's other point parts a replica serving this part is to
    /// chase ([`Chase`]). Only a client's round-two (or later) point
    /// part sent straight to a replica carries any; round-one queries,
    /// scans, parts sent through an edge and the forwards themselves
    /// carry none.
    pub chase: Vec<Chase>,
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
            feed: None,
            held: Vec::new(),
            reply_to: None,
            chase: Vec::new(),
            trace: None,
        }
    }

    /// A single-partition scan of `range` at the latest snapshot (the
    /// classic verified scan).
    pub fn scan(cluster: ClusterId, range: ScanRange) -> Self {
        Self::scatter_scan(vec![cluster], range)
    }

    /// A scan of the same `range` on every cluster in `clusters`
    /// (scatter-gather).
    pub fn scatter_scan(clusters: Vec<ClusterId>, range: ScanRange) -> Self {
        ReadQuery {
            consistency: SnapshotPolicy::Latest,
            shape: QueryShape::Scan { clusters, range },
            feed: None,
            held: Vec::new(),
            reply_to: None,
            chase: Vec::new(),
            trace: None,
        }
    }

    /// Replace the snapshot policy (builder style).
    pub fn with_policy(mut self, policy: SnapshotPolicy) -> Self {
        self.consistency = policy;
        self
    }

    /// Ask the serving edge to attach its delta-feed tail as a
    /// freshness certificate (builder style; subscription mode, nothing
    /// held yet).
    pub fn with_feed_freshness(mut self) -> Self {
        self.feed = Some(Vec::new());
        self
    }

    /// The LCE floor imposed by the snapshot policy.
    pub fn min_lce(&self) -> Epoch {
        self.consistency.min_lce()
    }

    /// The query split into one part per partition it touches,
    /// ascending by partition: each part is this query restricted to
    /// its partition — the point keys the partition owns (in query
    /// order), or the scan of that partition alone — with this query's
    /// policy, reply address, trace and that partition's feed
    /// cursors and held anchor, and no chase entries. The one
    /// split there is: a client plans its parts with it, and an edge
    /// taking a whole query as a single contact serves the same parts.
    pub fn split(&self, topo: &ClusterTopology) -> Vec<(ClusterId, ReadQuery)> {
        let part = |cluster: ClusterId, shape: QueryShape| {
            let query = ReadQuery {
                consistency: self.consistency,
                shape,
                feed: self.feed_for(cluster),
                held: self
                    .held_for(cluster)
                    .map(|d| (cluster, d))
                    .into_iter()
                    .collect(),
                reply_to: self.reply_to,
                chase: Vec::new(),
                trace: self.trace,
            };
            (cluster, query)
        };
        match &self.shape {
            QueryShape::Point { keys } => {
                let mut by_cluster: BTreeMap<ClusterId, Vec<Key>> = BTreeMap::new();
                for key in keys {
                    by_cluster
                        .entry(topo.partition_of(key))
                        .or_default()
                        .push(key.clone());
                }
                by_cluster
                    .into_iter()
                    .map(|(cluster, keys)| part(cluster, QueryShape::Point { keys }))
                    .collect()
            }
            QueryShape::Scan { clusters, range } => {
                let mut clusters = clusters.clone();
                clusters.sort_unstable();
                clusters.dedup();
                clusters
                    .into_iter()
                    .map(|cluster| {
                        let shape = QueryShape::Scan {
                            clusters: vec![cluster],
                            range: *range,
                        };
                        part(cluster, shape)
                    })
                    .collect()
            }
        }
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

    /// The certified digest of the anchor the client holds for
    /// `cluster`, if it named one.
    pub fn held_for(&self, cluster: ClusterId) -> Option<Digest> {
        self.held
            .iter()
            .find_map(|(c, digest)| (*c == cluster).then_some(*digest))
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
    /// structurally from the shape (keys, scan bounds), the policy,
    /// the feed cursors, the held anchors, the
    /// reply address and the chase entries — never a flat constant.
    pub fn wire_size(&self) -> usize {
        let policy = match self.consistency {
            SnapshotPolicy::Latest => 1,
            SnapshotPolicy::MinEpoch(_) => 9,
        };
        // No entries cost nothing: the policy tag flags a list, which
        // is then a `u16` count and the entries.
        let chase = match self.chase.len() {
            0 => 0,
            _ => 2 + self.chase.iter().map(Chase::wire_size).sum::<usize>(),
        };
        // Absent is one byte; a cursor is a cluster and two batches.
        let feed = self.feed.as_ref().map_or(1, |c| 5 + c.len() * 18);
        // A `u16` count (one anchor per partition at most), then a
        // cluster and a digest each.
        let held = 2 + self.held.len() * (2 + 32);
        // Absent is one byte; present adds a node id (a tag and two
        // `u16`s or a `u32`) and a request id.
        let reply_to = if self.reply_to.is_some() {
            1 + 5 + 8
        } else {
            1
        };
        // Trace context rides along as two u64 ids when present.
        let trace = if self.trace.is_some() { 17 } else { 1 };
        let shape = match &self.shape {
            QueryShape::Point { keys } => 4 + keys.iter().map(|k| k.len() + 4).sum::<usize>(),
            QueryShape::Scan { clusters, .. } => 4 + clusters.len() * 2 + 16,
        };
        policy + feed + held + reply_to + chase + trace + shape
    }
}

/// The payload an untrusted node answers one partition's part of a
/// [`ReadQuery`] with: an [`Anchor`] and a [`Body`] proven against its
/// root. Every answer is proof-carrying and names exactly one partition:
/// a query spanning several is answered with one response per
/// partition, never one response spanning them.
///
/// An answer is either **full** — the certified anchor (header, body
/// digest, `f+1` certificate), verified end to end with its body by
/// [`crate::ReadVerifier::verify_query`] — or **held**: the partition
/// and batch of an anchor the asking client named in
/// [`ReadQuery::held`], plus the same body. A held answer carries no
/// header and no certificate; its receiver rebuilds the full answer
/// from its own verified copy ([`ReadResponse::rebuild`]) and verifies
/// that. Only full answers enter a cache.
///
/// # Examples
///
/// ```
/// use transedge_edge::{Anchor, Body, ReadResponse};
///
/// fn describe(r: &ReadResponse) -> &'static str {
///     match (&r.anchor, &r.body) {
///         (Anchor::Full(_), Body::Point { .. }) => "point section",
///         (Anchor::Full(_), Body::Scan(_)) => "scan window",
///         (Anchor::Held { .. }, Body::Point { .. }) => "point body at a held anchor",
///         (Anchor::Held { .. }, Body::Scan(_)) => "scan window at a held anchor",
///     }
/// }
/// ```
#[derive(Clone, Debug)]
pub struct ReadResponse {
    pub anchor: Anchor,
    pub body: Body,
}

/// The snapshot an answer is served at.
#[derive(Clone, Debug)]
pub enum Anchor {
    /// The certified header, the digest of the segments it omits and
    /// the `f+1` certificate over both. Boxed: inline it would set the
    /// size of every message in flight.
    Full(Box<(CommittedHeader, Certificate)>),
    /// The partition and batch of an anchor the query named as held.
    /// The receiver rebuilds the answer around its own copy of it.
    Held { cluster: ClusterId, batch: BatchNum },
}

/// What an answer proves against its anchor's Merkle root.
#[derive(Clone, Debug)]
pub enum Body {
    /// One point-read section body: one multiproof over the keys it
    /// carries, so an answer mixing batches or carrying nothing cannot
    /// be expressed. A replica proves exactly the keys asked; an edge
    /// replays a cached body admitted for exactly those, or forwards
    /// the question whole. `fresh`, when present, is the serving edge's
    /// delta-feed tail up to its feed head — a freshness certificate
    /// proving the served values current through the head. It starts
    /// right after the batch [`ReadQuery::feed_resume`] names: the
    /// served batch, or the head of the run the client said it holds
    /// (`Some(vec![])` claims nothing newer exists). Verified end to
    /// end like everything else; an invalid or key-touching feed is
    /// cryptographic evidence.
    Point {
        body: MultiProofBody,
        fresh: Option<Vec<Arc<CertifiedDelta>>>,
    },
    /// One proof-carrying scan window — the one the query asked for;
    /// the verifier accepts no other. Boxed: windows dwarf the other
    /// payloads.
    Scan(Box<ScanProof>),
}

impl From<MultiProofBody> for Body {
    /// A point body with no feed attached.
    fn from(body: MultiProofBody) -> Self {
        Body::Point { body, fresh: None }
    }
}

impl From<ScanProof> for Body {
    fn from(scan: ScanProof) -> Self {
        Body::Scan(Box::new(scan))
    }
}

impl ReadResponse {
    /// A full answer: `body` under the certified `commitment`.
    pub fn full(commitment: CommittedHeader, cert: Certificate, body: impl Into<Body>) -> Self {
        ReadResponse {
            anchor: Anchor::Full(Box::new((commitment, cert))),
            body: body.into(),
        }
    }

    /// The partition this response's certified header (or held
    /// reference) names — unverified until
    /// [`crate::ReadVerifier::verify_query`] passes, so good for routing
    /// the answer to the part that owes it, never for trusting it.
    pub fn cluster(&self) -> ClusterId {
        match &self.anchor {
            Anchor::Full(full) => full.0.header.cluster,
            Anchor::Held { cluster, .. } => *cluster,
        }
    }

    /// The snapshot batch this response claims to serve.
    pub fn batch(&self) -> BatchNum {
        match &self.anchor {
            Anchor::Full(full) => full.0.header.num,
            Anchor::Held { batch, .. } => *batch,
        }
    }

    /// The freshness feed attached to this response, if any.
    pub fn fresh_feed(&self) -> Option<&[Arc<CertifiedDelta>]> {
        match &self.body {
            Body::Point { fresh, .. } => fresh.as_deref(),
            Body::Scan(_) => None,
        }
    }

    /// The certified anchor of a full answer; `None` for a held one.
    pub fn anchor(&self) -> Option<(&CommittedHeader, &Certificate)> {
        match &self.anchor {
            Anchor::Full(full) => Some((&full.0, &full.1)),
            Anchor::Held { .. } => None,
        }
    }

    /// This answer as its receiver may be sent it: held when `held` —
    /// the digest the query named for the answer's partition — is the
    /// certified digest of this full answer's anchor, unchanged
    /// otherwise.
    pub fn held_by(mut self, held: Option<Digest>) -> ReadResponse {
        if let Anchor::Full(full) = &self.anchor {
            if held == Some(full.1.digest) {
                let header = &full.0.header;
                let (cluster, batch) = (header.cluster, header.num);
                self.anchor = Anchor::Held { cluster, batch };
            }
        }
        self
    }

    /// A held answer rebuilt into the full answer around `anchor`, the
    /// receiver's own verified copy of the anchor it names (the caller
    /// checks it is that one); a full answer comes back unchanged.
    pub fn rebuild(mut self, (commitment, cert): (&CommittedHeader, &Certificate)) -> ReadResponse {
        if let Anchor::Held { .. } = self.anchor {
            self.anchor = Anchor::Full(Box::new((commitment.clone(), cert.clone())));
        }
        self
    }

    /// Structural wire size (the bandwidth model's, and the one size
    /// every answer is charged: on the network and in an evidence
    /// record): the certified anchor ([`anchor_size`]) or
    /// the held reference to it ([`HELD_ANCHOR_SIZE`]), then the body —
    /// a section body's structural size equals its wire image
    /// byte for byte — and, on a point body, the feed tail sent (a
    /// one-byte tag when there is none).
    pub fn wire_size(&self) -> usize {
        let anchor = match &self.anchor {
            Anchor::Full(full) => anchor_size(&full.0, &full.1),
            Anchor::Held { .. } => HELD_ANCHOR_SIZE,
        };
        let body = match &self.body {
            Body::Point { body, fresh } => {
                let feed = fresh.as_ref().map_or(1, |sent| {
                    5 + sent.iter().map(|d| d.wire_size()).sum::<usize>()
                });
                body.encoded_len() + feed
            }
            Body::Scan(scan) => scan.encoded_len(),
        };
        anchor + body
    }
}

/// A verified answer to one per-partition sub-query, produced by
/// [`crate::ReadVerifier::verify_query`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryAnswer {
    /// Point reads: `(key, value)` in request order, absent keys proven
    /// absent.
    Values(Vec<(Key, Option<Value>)>),
    /// One verified scan window: its complete committed rows, in tree
    /// order.
    Rows(Vec<(Key, Value)>),
}

#[cfg(test)]
mod tests {
    use super::*;

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
        );
        assert!(scatter.wire_size() > scan.wire_size());
        // A reply address costs its node id and request id on top of
        // the one-byte absent tag.
        let mut direct = small.clone();
        direct.reply_to = Some((NodeId::Client(transedge_common::ClientId(3)), 7));
        assert_eq!(direct.wire_size(), small.wire_size() + 5 + 8);
        // An empty chase list is free; an entry costs its cluster,
        // floor, request id and keys behind a count.
        let mut chased = small.clone();
        chased.chase.push(Chase {
            cluster: ClusterId(1),
            keys: vec![Key::from_u32(2)],
            floor: Epoch(3),
            req: 9,
        });
        let key = Key::from_u32(2).len() + 4;
        assert_eq!(chased.wire_size(), small.wire_size() + 2 + 22 + key);
    }

    /// Each part of a split names only its own partition's anchor, and
    /// every named anchor is a cluster and a digest on the wire.
    #[test]
    fn split_restricts_held_anchors_and_wire_size_counts_them() {
        let topo = ClusterTopology::new(3, 1).unwrap();
        let keys: Vec<Key> = (0..64).map(Key::from_u32).collect();
        let mut query = ReadQuery::point(keys);
        let bare = query.wire_size();
        query.held = vec![
            (ClusterId(0), Digest([1; 32])),
            (ClusterId(2), Digest([3; 32])),
        ];
        assert_eq!(query.wire_size(), bare + 2 * (2 + 32));
        let parts = query.split(&topo);
        assert_eq!(parts.len(), 3);
        for (cluster, part) in parts {
            assert_eq!(part.held_for(cluster), query.held_for(cluster));
            let named: Vec<ClusterId> = part.held.iter().map(|(c, _)| *c).collect();
            let expect: Vec<ClusterId> = query
                .held_for(cluster)
                .map(|_| cluster)
                .into_iter()
                .collect();
            assert_eq!(named, expect);
        }
        assert_eq!(query.held_for(ClusterId(1)), None);
    }
}
