//! Store-free edge serving: cache certified response fragments from
//! upstream replicas and replay them to clients.
//!
//! An edge replay node is the cheapest possible read scaler: it holds
//! no partition state, no Merkle tree, and no signing keys — only the
//! point-read sections and scan windows it saw go past. Because every
//! one is anchored in an `f+1` certificate and a Merkle proof,
//! replaying it can serve a later client *without any trust in the
//! edge node*: the client's [`crate::verifier::ReadVerifier`] re-checks
//! everything. This is WedgeChain's lazy-trust pattern applied to
//! TransEdge's ROT protocol. A replay is what was admitted, whole: the
//! cache never composes an answer out of several sections, and a scan
//! window answers the window it was admitted under and no other.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use transedge_common::{BatchNum, ClusterId, Epoch, Key, SimTime};
use transedge_consensus::Certificate;
use transedge_crypto::ScanRange;

use crate::cache::LruCache;
use crate::feed::{FeedWindow, Pushed};
use crate::response::{
    BatchCommitment, CertifiedDelta, MultiProofBody, MultiProofBundle, ScanBundle, ScanProof,
};

/// Counters for the replay path.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayStats {
    /// Point-read sections absorbed from upstream.
    pub admitted: u64,
    /// Scan proofs absorbed from upstream.
    pub scans_admitted: u64,
    /// Certified deltas applied to the feed window (already verified by
    /// the caller).
    pub deltas_applied: u64,
    /// Feed windows reset because a delta arrived past a gap (the
    /// contiguity the freshness certificate needs was broken).
    pub feed_resets: u64,
    /// Cached `(key, batch)` entries dropped by push invalidation: a
    /// delta proved their key changed after the batch they snapshot.
    pub fragments_invalidated: u64,
    /// Freshness feeds attached to served responses.
    pub freshness_attached: u64,
    /// Freshness requests refused: the feed could not chain from the
    /// served batch, or a queried key changed inside the window.
    pub freshness_refused: u64,
    /// Cached entries (`(key, batch)` entries, scan windows) dropped
    /// because their batch aged past `max_batches` — *capacity*
    /// eviction, as opposed to `fragments_invalidated` (a delta proved
    /// the entry superseded). The persistence plane's spill accounting
    /// rides on this split: an evicted entry is still durable on disk,
    /// an invalidated one is provably dead everywhere.
    pub evicted_entries: u64,
}

impl transedge_obs::RegisterMetrics for ReplayStats {
    fn register_metrics(&self, scope: &str, reg: &mut transedge_obs::MetricRegistry) {
        reg.counter(scope, "replay.admitted", self.admitted);
        reg.counter(scope, "replay.scans_admitted", self.scans_admitted);
        reg.counter(scope, "replay.deltas_applied", self.deltas_applied);
        reg.counter(scope, "replay.feed_resets", self.feed_resets);
        reg.counter(
            scope,
            "replay.fragments_invalidated",
            self.fragments_invalidated,
        );
        reg.counter(scope, "replay.freshness_attached", self.freshness_attached);
        reg.counter(scope, "replay.freshness_refused", self.freshness_refused);
        reg.counter(scope, "replay.evicted_entries", self.evicted_entries);
    }
}

/// Cached scan windows per batch (few per batch — a linear scan of a
/// short list beats an index here). Past this many, the oldest goes.
const MAX_SCANS_PER_BATCH: usize = 32;

/// Cached section bodies per batch. The key-capacity LRU alone bounds
/// *entries*, not bytes: a workload of many distinct key sets under a
/// generous capacity would pin every body it ever admitted. Past this
/// many at one batch, the oldest body goes.
const MAX_BODIES_PER_BATCH: usize = 128;

/// The cache an edge replay node runs on.
#[derive(Clone, Debug)]
pub struct ReplayCache<H> {
    /// Certified headers by batch, newest retained up to `max_batches`.
    commitments: BTreeMap<u64, (H, Certificate)>,
    /// The one point structure: `(key, batch)` → the tightest admitted
    /// section body proving `key` at `batch`. Capacity counts proven
    /// keys (a k-key body occupies up to k entries, all sharing one
    /// allocation), and recency is per key, so a hot key keeps its body
    /// alive while the cold keys beside it age out.
    points: LruCache<(Key, u64), MultiProofBody>,
    /// Indexed bodies per batch, oldest first — what
    /// [`MAX_BODIES_PER_BATCH`] counts.
    bodies: BTreeMap<u64, VecDeque<MultiProofBody>>,
    /// Per-`(range, batch)` scan-proof cache: batch → cached windows,
    /// oldest first. A window serves requests for exactly its range.
    scans: BTreeMap<u64, Vec<ScanProof>>,
    /// The verified deltas this cache can attach as a freshness
    /// certificate, ending at the feed head.
    feed: FeedWindow<H>,
    max_batches: usize,
    pub stats: ReplayStats,
}

impl<H: BatchCommitment + Clone> ReplayCache<H> {
    pub fn new(read_capacity: usize, max_batches: usize) -> Self {
        ReplayCache {
            commitments: BTreeMap::new(),
            points: LruCache::new(read_capacity),
            bodies: BTreeMap::new(),
            scans: BTreeMap::new(),
            feed: FeedWindow::default(),
            max_batches: max_batches.max(1),
            stats: ReplayStats::default(),
        }
    }

    /// Absorb a point-read section: remember the certified header and
    /// index the body under every key it serves at least as tightly as
    /// what is cached (fewer proven keys = fewer bytes and leaf hashes
    /// on replay; the newer body wins a tie). Admission shares the
    /// body's allocation, it does not copy it.
    pub fn admit_section(&mut self, section: &MultiProofBundle<H>) {
        let batch = section.batch().0;
        self.commitments
            .insert(batch, (section.commitment.clone(), section.cert.clone()));
        let body = &section.body;
        let mut indexed = false;
        for key in body.keys() {
            let ck = (key.clone(), batch);
            let tighter = self
                .points
                .peek(&ck)
                .is_none_or(|old| body.keys().len() <= old.keys().len());
            if tighter {
                self.points.insert(ck, body.clone());
                indexed = true;
            }
        }
        if indexed {
            let bodies = self.bodies.entry(batch).or_default();
            bodies.push_back(body.clone());
            if bodies.len() > MAX_BODIES_PER_BATCH {
                let oldest = bodies.pop_front().expect("over the bound");
                for key in oldest.keys() {
                    let ck = (key.clone(), batch);
                    if self.points.peek(&ck).is_some_and(|b| b.same_body(&oldest)) {
                        self.points.remove(&ck);
                    }
                }
            }
        }
        // Indexed before the eviction pass so that a section too old to
        // survive it (a late upstream response) is swept with its
        // commitment rather than stranded.
        self.evict_to_cap();
        self.stats.admitted += 1;
    }

    /// Drop the oldest commitments past `max_batches`, then sweep the
    /// entries and scan windows of evicted batches — they are
    /// unreachable (replay only scans live commitments), so keeping
    /// them would just occupy cache slots.
    fn evict_to_cap(&mut self) {
        let mut evicted_any = false;
        while self.commitments.len() > self.max_batches {
            self.commitments.pop_first();
            evicted_any = true;
        }
        if evicted_any {
            let before = self.points.len() + self.scan_window_count();
            let commitments = &self.commitments;
            self.points.retain(|(_, b), _| commitments.contains_key(b));
            self.bodies.retain(|b, _| commitments.contains_key(b));
            self.scans.retain(|b, _| commitments.contains_key(b));
            let after = self.points.len() + self.scan_window_count();
            self.stats.evicted_entries += (before - after) as u64;
        }
    }

    /// Absorb an upstream scan response: remember the certified header
    /// and the proof-carrying window, unless that `(batch, range)` is
    /// already cached.
    pub fn admit_scan(&mut self, bundle: &ScanBundle<H>) {
        // The bundle is unverified upstream input. A window whose row
        // count disagrees with what its own proof commits to would fail
        // every client's rows-versus-entries count check on replay, and
        // the mismatch is detectable locally — do not cache it.
        let proven_rows: usize = bundle
            .scan
            .proof
            .occupied
            .iter()
            .map(|(_, entries)| entries.len())
            .sum();
        if bundle.scan.rows.len() != proven_rows {
            return;
        }
        let batch = bundle.commitment.batch();
        self.commitments
            .insert(batch.0, (bundle.commitment.clone(), bundle.cert.clone()));
        let windows = self.scans.entry(batch.0).or_default();
        if !windows.iter().any(|w| w.range == bundle.scan.range) {
            if windows.len() >= MAX_SCANS_PER_BATCH {
                windows.remove(0);
            }
            windows.push(bundle.scan.clone());
        }
        self.evict_to_cap();
        self.stats.scans_admitted += 1;
    }

    /// Try to answer a scan for `range` from cache: the newest admitted
    /// batch passing the LCE and timestamp floors holding a window
    /// admitted for exactly `range` — the client's verifier accepts no
    /// other.
    ///
    /// With `pinned` (a page continuation) only a window cached at
    /// **exactly that batch** may serve and the floors are ignored —
    /// no newer batch is an acceptable substitute, because the client's
    /// verifier rejects any other batch as a snapshot-pin mismatch.
    pub fn replay_scan(
        &self,
        range: &ScanRange,
        pinned: Option<BatchNum>,
        min_lce: Epoch,
        min_timestamp: SimTime,
    ) -> Option<ScanBundle<H>> {
        let candidates = match pinned {
            Some(batch) => vec![batch.0],
            None => self.passing_batches(min_lce, min_timestamp),
        };
        let (batch, scan) = candidates.into_iter().find_map(|batch| {
            let scan = self.scans.get(&batch)?.iter().find(|w| w.range == *range)?;
            Some((batch, scan.clone()))
        })?;
        let (commitment, cert) = self.commitments[&batch].clone();
        Some(ScanBundle {
            commitment,
            cert,
            scan,
        })
    }

    /// Cached scan windows across live batches (diagnostics).
    pub fn scan_window_count(&self) -> usize {
        self.scans.values().map(|w| w.len()).sum()
    }

    /// Newest admitted batch, if any.
    pub fn latest_batch(&self) -> Option<BatchNum> {
        self.commitments.keys().next_back().map(|b| BatchNum(*b))
    }

    /// Apply a certified delta the caller has **already verified**
    /// (edge nodes run [`crate::ReadVerifier::verify_delta`] before
    /// anything reaches the cache — nothing pushed is trusted until it
    /// recomputes under a replica certificate). Unless the feed window
    /// drops it as a repeat delivery, the delta *push-invalidates*:
    /// cached entries for the changed keys at older batches are now
    /// provably superseded, so they are dropped instead of aging out.
    pub fn apply_delta(&mut self, delta: CertifiedDelta<H>) {
        let delta = Arc::new(delta);
        match self.feed.push(delta.clone()) {
            Pushed::Duplicate => return,
            Pushed::Restarted => self.stats.feed_resets += 1,
            Pushed::Extended => {}
        }
        let (batch, changed) = (delta.batch().0, &delta.changed);
        let before = self.points.len();
        self.points
            .retain(|(key, b), _| *b >= batch || changed.binary_search(key).is_err());
        self.stats.fragments_invalidated += (before - self.points.len()) as u64;
        self.stats.deltas_applied += 1;
    }

    /// The feed window (its head is where a resubscription resumes).
    pub fn feed(&self) -> &FeedWindow<H> {
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
    ) -> Option<Vec<Arc<CertifiedDelta<H>>>> {
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

    /// Try to answer a point request for `keys` from cache: the newest
    /// admitted batch whose LCE is at least `min_lce` and whose
    /// timestamp is at least `min_timestamp` holding **one** body that
    /// proves every asked key — the tightest such body (a superset
    /// replay costs bytes, never an upstream hop). Else `None`: the
    /// caller forwards the question whole, refreshing the cache. A
    /// request only partly cached is a miss on purpose — filling it
    /// takes the same one upstream hop as forwarding it, and every
    /// extra section would carry its own commitment, certificate and
    /// multiproof.
    ///
    /// The timestamp floor is what keeps an honest edge from wedging:
    /// without it, a hot key set would be replayed from the same aging
    /// batch forever, and once that batch fell out of the client's
    /// freshness window every reply would be rejected — while the cache
    /// never refreshed, because every request kept hitting. Pass
    /// [`SimTime::ZERO`] to disable the floor. Round-2 fetches
    /// (`min_lce` set) are likewise satisfied from *newer* admitted
    /// batches whenever one answers the keys.
    pub fn replay(
        &mut self,
        keys: &[Key],
        min_lce: Epoch,
        min_timestamp: SimTime,
    ) -> Option<MultiProofBundle<H>> {
        // Candidates are what the index holds under the asked keys; a
        // wide body all of whose keys tighter ones took over is not
        // among them (see `admit_section`).
        let (batch, body) = self
            .passing_batches(min_lce, min_timestamp)
            .into_iter()
            .find_map(|batch| {
                keys.iter()
                    .filter_map(|key| self.points.peek(&(key.clone(), batch)))
                    .filter(|body| keys.iter().all(|k| body.proves(k)))
                    .min_by_key(|body| body.keys().len())
                    .map(|body| (batch, body.clone()))
            })?;
        for key in keys {
            self.points.get(&(key.clone(), batch));
        }
        let (commitment, cert) = self.commitments[&batch].clone();
        Some(MultiProofBundle {
            commitment,
            cert,
            body,
        })
    }

    /// Admitted batches passing the LCE and timestamp floors, newest
    /// first. Both LCE and leader timestamps are monotone over batches,
    /// so the scan stops at the first batch below either floor —
    /// nothing older can satisfy them.
    fn passing_batches(&self, min_lce: Epoch, min_timestamp: SimTime) -> Vec<u64> {
        self.commitments
            .iter()
            .rev()
            .take_while(|(_, (c, _))| c.lce() >= min_lce && c.timestamp() >= min_timestamp)
            .map(|(b, _)| *b)
            .collect()
    }

    /// Proven `(key, batch)` entries currently cached (only entries of
    /// live commitments are retained).
    pub fn fragment_count(&self) -> usize {
        self.points.len()
    }
}

/// An edge's replay caches, one per partition it has served or
/// couriered. Partitions get fully separate [`ReplayCache`]s: batch
/// numbers are per-partition, so sharing one cache across partitions
/// would collide their batch spaces.
#[derive(Clone, Debug)]
pub struct PartitionCaches<H> {
    caches: BTreeMap<ClusterId, ReplayCache<H>>,
    read_capacity: usize,
    max_batches: usize,
}

impl<H: BatchCommitment + Clone> PartitionCaches<H> {
    /// Each partition's cache is created on first touch with
    /// `read_capacity` fragments over `max_batches` batches.
    pub fn new(read_capacity: usize, max_batches: usize) -> Self {
        PartitionCaches {
            caches: BTreeMap::new(),
            read_capacity,
            max_batches,
        }
    }

    /// The partition's cache, created on first touch.
    pub fn cache_for(&mut self, cluster: ClusterId) -> &mut ReplayCache<H> {
        let (capacity, batches) = (self.read_capacity, self.max_batches);
        self.caches
            .entry(cluster)
            .or_insert_with(|| ReplayCache::new(capacity, batches))
    }

    /// The partition's cache, if it has ever been touched.
    pub fn get(&self, cluster: ClusterId) -> Option<&ReplayCache<H>> {
        self.caches.get(&cluster)
    }

    /// Every live partition cache, in cluster order.
    pub fn iter(&self) -> impl Iterator<Item = (ClusterId, &ReplayCache<H>)> {
        self.caches.iter().map(|(c, cache)| (*c, cache))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Header;

    impl BatchCommitment for Header {
        fn cluster(&self) -> ClusterId {
            ClusterId(0)
        }
        fn batch(&self) -> BatchNum {
            BatchNum(0)
        }
        fn merkle_root(&self) -> &transedge_crypto::Digest {
            unreachable!("these tests never verify")
        }
        fn lce(&self) -> Epoch {
            Epoch::NONE
        }
        fn timestamp(&self) -> SimTime {
            SimTime::ZERO
        }
        fn certified_digest(&self) -> transedge_crypto::Digest {
            unreachable!("these tests never verify")
        }
    }

    fn section(keys: &[u32]) -> MultiProofBundle<Header> {
        let keys: Vec<Key> = keys.iter().copied().map(Key::from_u32).collect();
        let values = vec![None; keys.len()];
        let proof = transedge_crypto::MultiProof {
            buckets: Vec::new(),
            siblings: Vec::new(),
        };
        MultiProofBundle {
            commitment: Header,
            cert: Certificate {
                cluster: ClusterId(0),
                slot: BatchNum(0),
                digest: transedge_crypto::Digest::ZERO,
                sigs: Vec::new(),
            },
            body: MultiProofBody::new(keys, values, proof),
        }
    }

    #[test]
    fn one_batch_never_holds_more_than_the_body_bound() {
        let mut cache: ReplayCache<Header> = ReplayCache::new(1 << 20, 4);
        let admissions = MAX_BODIES_PER_BATCH as u32 + 40;
        for i in 0..admissions {
            // Overlapping pairs {i, i+1}: each admission also takes
            // key i over from the pair before it.
            cache.admit_section(&section(&[i, i + 1]));
            assert!(cache.bodies[&0].len() <= MAX_BODIES_PER_BATCH);
        }
        // The oldest bodies went, and their index entries with them:
        // nothing cached points at a body the bound dropped.
        assert!(!cache.points.contains(&(Key::from_u32(0), 0)));
        let live = &cache.bodies[&0];
        for key in 0..=admissions {
            if let Some(body) = cache.points.peek(&(Key::from_u32(key), 0)) {
                assert!(live.iter().any(|b| b.same_body(body)), "key {key}");
            }
        }
        // The newest admission replays whole, as its one section.
        let asked = [Key::from_u32(admissions - 1), Key::from_u32(admissions)];
        let section = cache.replay(&asked, Epoch::NONE, SimTime::ZERO);
        assert_eq!(section.expect("cached").body.keys(), asked);
    }
}
