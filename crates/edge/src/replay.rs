//! Store-free edge serving: cache the certified answers an edge
//! forwarded from upstream replicas and replay them to clients.
//!
//! An edge replay node is the cheapest possible read scaler: it holds
//! no partition state, no Merkle tree, and no signing keys — only the
//! point-read sections and scan windows it saw go past. Because every
//! one is anchored in an `f+1` certificate and a Merkle proof,
//! replaying it can serve a later client *without any trust in the
//! edge node*: the client's [`crate::verifier::ReadVerifier`] re-checks
//! everything. This is WedgeChain's lazy-trust pattern applied to
//! TransEdge's ROT protocol. A replay is an exact match: a point answer
//! serves the key set it was admitted for and a scan window the window
//! it was admitted under, each at its own batch, and nothing else. Each
//! kind is one LRU of whole answers, bounded by the configured capacity.

use std::collections::BTreeMap;
use std::sync::Arc;

use transedge_common::{BatchNum, ClusterId, Epoch, Key, SimTime};
use transedge_consensus::Certificate;
use transedge_crypto::ScanRange;

use crate::cache::LruCache;
use crate::feed::{FeedWindow, Pushed};
use crate::pipeline::sorted_unique;
use crate::query::{Body, ReadResponse};
use crate::response::{CertifiedDelta, CommittedHeader, MultiProofBody, ScanProof};

/// Answers an edge caches per kind and partition unless configured
/// otherwise. On the benchmark's `multi-edge-hot` a larger cache adds
/// no hit and only pins bodies no request repeats.
pub const DEFAULT_REPLAY_CAPACITY: usize = 64;

transedge_obs::counters! {
    /// Counters for the replay path.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct ReplayStats {
        "replay." {
            /// Point-read sections absorbed from upstream.
            admitted,
            /// Scan proofs absorbed from upstream.
            scans_admitted,
            /// Certified deltas applied to the feed window (already
            /// verified by the caller).
            deltas_applied,
            /// Feed windows reset because a delta arrived past a gap (the
            /// contiguity the freshness certificate needs was broken).
            feed_resets,
            /// Cached point answers dropped by push invalidation: a delta
            /// proved one of their keys changed after the batch they
            /// snapshot.
            fragments_invalidated,
            /// Freshness feeds attached to served responses.
            freshness_attached,
            /// Freshness requests refused: the feed could not chain from
            /// the served batch, or a queried key changed inside the
            /// window.
            freshness_refused,
            /// Cached answers (point answers, scan windows) dropped
            /// because their batch aged past `max_batches` — eviction, as
            /// opposed to `fragments_invalidated` (a delta proved the
            /// answer superseded). Either way the answer is gone from
            /// [`ReplayCache::objects`] too.
            evicted_entries,
        }
    }
}

/// The cache an edge replay node runs on.
#[derive(Clone, Debug)]
pub struct ReplayCache {
    /// Certified headers by batch, newest retained up to `max_batches`.
    commitments: BTreeMap<BatchNum, (CommittedHeader, Certificate)>,
    /// `(sorted unique keys, batch)` → the section body admitted for
    /// exactly that key set. Bodies are shared by reference with
    /// in-flight responses.
    points: LruCache<(Vec<Key>, BatchNum), MultiProofBody>,
    /// `(window, batch)` → the scan proof admitted for that window.
    scans: LruCache<(ScanRange, BatchNum), ScanProof>,
    /// The verified deltas this cache can attach as a freshness
    /// certificate, ending at the feed head.
    feed: FeedWindow,
    max_batches: usize,
    pub stats: ReplayStats,
}

impl ReplayCache {
    /// `capacity` answers of each kind over `max_batches` batches.
    pub fn new(capacity: usize, max_batches: usize) -> Self {
        ReplayCache {
            commitments: BTreeMap::new(),
            points: LruCache::new(capacity),
            scans: LruCache::new(capacity),
            feed: FeedWindow::default(),
            max_batches: max_batches.max(1),
            stats: ReplayStats::default(),
        }
    }

    /// Absorb a full answer: remember its certified header and cache
    /// its body under its own key set or window. Admission shares a
    /// point body's allocation, it does not copy it. A held answer
    /// carries no anchor and is not cached.
    pub fn admit(&mut self, answer: &ReadResponse) {
        let Some((commitment, cert)) = answer.anchor() else {
            return;
        };
        let batch = commitment.header.num;
        match &answer.body {
            Body::Point { body, .. } => {
                self.points
                    .insert((body.keys().to_vec(), batch), body.clone());
                self.stats.admitted += 1;
            }
            Body::Scan(scan) => {
                self.scans.insert((scan.range, batch), (**scan).clone());
                self.stats.scans_admitted += 1;
            }
        }
        self.commitments
            .insert(batch, (commitment.clone(), cert.clone()));
        // Cached before the eviction pass so that an answer too old to
        // survive it (a late upstream response) is swept with its
        // commitment rather than stranded.
        self.evict_to_cap();
    }

    /// Drop the oldest commitments past `max_batches`, then sweep the
    /// answers of evicted batches — they are unreachable (replay only
    /// scans live commitments), so keeping them would just occupy
    /// cache slots.
    fn evict_to_cap(&mut self) {
        if self.commitments.len() <= self.max_batches {
            return;
        }
        while self.commitments.len() > self.max_batches {
            self.commitments.pop_first();
        }
        let before = self.points.len() + self.scans.len();
        let commitments = &self.commitments;
        self.points.retain(|(_, b), _| commitments.contains_key(b));
        self.scans.retain(|(_, b), _| commitments.contains_key(b));
        let after = self.points.len() + self.scans.len();
        self.stats.evicted_entries += (before - after) as u64;
    }

    /// Try to answer a scan for `range` from cache: the window admitted
    /// for exactly `range` at the newest admitted batch passing the LCE
    /// and timestamp floors — the client's verifier accepts no other.
    pub fn replay_scan(
        &mut self,
        range: &ScanRange,
        min_lce: Epoch,
        min_timestamp: SimTime,
    ) -> Option<ReadResponse> {
        let (batch, scan) = self
            .passing_batches(min_lce, min_timestamp)
            .into_iter()
            .find_map(|batch| Some((batch, self.scans.get(&(*range, batch))?.clone())))?;
        Some(self.answer(batch, scan))
    }

    /// `body` under batch `batch`'s retained commitment and certificate.
    fn answer(&self, batch: BatchNum, body: impl Into<Body>) -> ReadResponse {
        let (commitment, cert) = self.commitments[&batch].clone();
        ReadResponse::full(commitment, cert, body)
    }

    /// Cached scan windows across live batches (diagnostics).
    pub fn scan_window_count(&self) -> usize {
        self.scans.len()
    }

    /// Newest admitted batch, if any.
    pub fn latest_batch(&self) -> Option<BatchNum> {
        self.commitments.keys().next_back().copied()
    }

    /// Apply a certified delta the caller has **already verified**
    /// (edge nodes run [`crate::ReadVerifier::verify_delta`] before
    /// anything reaches the cache — nothing pushed is trusted until it
    /// recomputes under a replica certificate). Unless the feed window
    /// drops it as a repeat delivery, the delta *push-invalidates*: a
    /// cached point answer at an older batch proving any changed key is
    /// now provably superseded, so it is dropped instead of aging out.
    pub fn apply_delta(&mut self, delta: CertifiedDelta) {
        let delta = Arc::new(delta);
        match self.feed.push(delta.clone()) {
            Pushed::Duplicate => return,
            Pushed::Restarted => self.stats.feed_resets += 1,
            Pushed::Extended => {}
        }
        let (batch, before) = (delta.batch(), self.points.len());
        self.points
            .retain(|(keys, b), _| *b >= batch || !delta.touches(keys));
        self.stats.fragments_invalidated += (before - self.points.len()) as u64;
        self.stats.deltas_applied += 1;
    }

    /// The feed window (its head is where a resubscription resumes).
    pub fn feed(&self) -> &FeedWindow {
        &self.feed
    }

    /// The freshness certificate for a response served at `from`. The
    /// decision is over the whole feed tail `(from, head]`: attach only
    /// if the window chains from the served batch without a gap and
    /// **no queried key changed inside it** — otherwise the served
    /// values are not the head values and attaching the feed would be
    /// the exact lie [`crate::ReadRejection::BadDelta`] exists to
    /// catch. What *travels* is the tail after `resume` (see
    /// [`crate::FeedCursor::resume_after`]): the whole of it for a
    /// client holding nothing useful, only the unseen suffix for one
    /// whose window already covers `(from, resume]`. `Some(vec![])`
    /// means nothing newer than `resume` exists.
    pub fn freshness_since(
        &mut self,
        from: BatchNum,
        keys: &[Key],
        resume: BatchNum,
    ) -> Option<Vec<Arc<CertifiedDelta>>> {
        match self.feed.after(from) {
            Some(tail) if !tail.clone().any(|d| d.touches(keys)) => {
                self.stats.freshness_attached += 1;
                Some(tail.filter(|d| d.batch() > resume).cloned().collect())
            }
            _ => {
                self.stats.freshness_refused += 1;
                None
            }
        }
    }

    /// Try to answer a point request for `keys` from cache: the body
    /// admitted for exactly the asked key set (sorted, deduplicated) at
    /// the newest admitted batch whose LCE is at least `min_lce` and
    /// whose timestamp is at least `min_timestamp`. Else `None`: the
    /// caller forwards the question whole, refreshing the cache. A
    /// subset, a superset or a request split across cached answers is a
    /// miss on purpose — the forward is the same one upstream hop a
    /// fill would take, and a wider body costs bytes nobody asked for.
    ///
    /// The timestamp floor is what keeps an honest edge from wedging:
    /// without it, a hot key set would be replayed from the same aging
    /// batch forever, and once that batch fell out of the client's
    /// freshness window every reply would be rejected — while the cache
    /// never refreshed, because every request kept hitting. Pass
    /// [`SimTime::ZERO`] to disable the floor. Round-2 fetches
    /// (`min_lce` set) are likewise satisfied from *newer* admitted
    /// batches whenever one holds the key set.
    pub fn replay(
        &mut self,
        keys: &[Key],
        min_lce: Epoch,
        min_timestamp: SimTime,
    ) -> Option<ReadResponse> {
        let mut asked = (sorted_unique(keys), BatchNum(0));
        let body = self
            .passing_batches(min_lce, min_timestamp)
            .into_iter()
            .find_map(|batch| {
                asked.1 = batch;
                self.points.get(&asked).cloned()
            })?;
        Some(self.answer(asked.1, body))
    }

    /// Admitted batches passing the LCE and timestamp floors, newest
    /// first. Both LCE and leader timestamps are monotone over batches,
    /// so the scan stops at the first batch below either floor —
    /// nothing older can satisfy them.
    fn passing_batches(&self, min_lce: Epoch, min_timestamp: SimTime) -> Vec<BatchNum> {
        self.commitments
            .iter()
            .rev()
            .take_while(|(_, (c, _))| {
                c.header.lce >= min_lce && c.header.timestamp >= min_timestamp
            })
            .map(|(b, _)| *b)
            .collect()
    }

    /// Cached point answers (only answers of live commitments are
    /// retained).
    pub fn fragment_count(&self) -> usize {
        self.points.len()
    }

    /// Every cached answer rebuilt as the full answer it was admitted as —
    /// its body or window under its batch's retained commitment and
    /// certificate — least recently used first within each kind, point
    /// answers before scan windows: what the cache holds, for whoever
    /// inspects it.
    pub fn objects(&self) -> Vec<ReadResponse> {
        let points =
            (self.points.iter()).map(|((_, batch), body)| self.answer(*batch, body.clone()));
        let scans = (self.scans.iter()).map(|((_, batch), scan)| self.answer(*batch, scan.clone()));
        points.chain(scans).collect()
    }
}

/// An edge's replay caches, one per partition it has served or
/// couriered. Partitions get fully separate [`ReplayCache`]s: batch
/// numbers are per-partition, so sharing one cache across partitions
/// would collide their batch spaces.
#[derive(Clone, Debug)]
pub struct PartitionCaches {
    caches: BTreeMap<ClusterId, ReplayCache>,
    capacity: usize,
    max_batches: usize,
}

impl PartitionCaches {
    /// Each partition's cache is created on first touch with
    /// `capacity` answers of each kind over `max_batches` batches.
    pub fn new(capacity: usize, max_batches: usize) -> Self {
        PartitionCaches {
            caches: BTreeMap::new(),
            capacity,
            max_batches,
        }
    }

    /// The partition's cache, created on first touch.
    pub fn cache_for(&mut self, cluster: ClusterId) -> &mut ReplayCache {
        let (capacity, batches) = (self.capacity, self.max_batches);
        self.caches
            .entry(cluster)
            .or_insert_with(|| ReplayCache::new(capacity, batches))
    }

    /// The partition's cache, if it has ever been touched.
    pub fn get(&self, cluster: ClusterId) -> Option<&ReplayCache> {
        self.caches.get(&cluster)
    }

    /// Every live partition cache, in cluster order.
    pub fn iter(&self) -> impl Iterator<Item = (ClusterId, &ReplayCache)> {
        self.caches.iter().map(|(c, cache)| (*c, cache))
    }
}
