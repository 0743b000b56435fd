//! Key material registry for a deployment.
//!
//! The paper assumes "each edge node has a unique public/private key
//! that it uses in all communications" (§2, Interface) and that the
//! membership of each cluster is known (permissioned setting, §6.1).
//! [`KeyStore`] is that public-key directory: every node can look up
//! every other node's verification key. Secret keys live only inside
//! the owning node's actor.
//!
//! Registration decodes each key once into a [`VerifyingKey`] (the odd
//! multiples of `−A` every check under it reads). The directory is
//! shared by every clone of the store: one table per deployment.
//!
//! A store fresh from setup checks every signature every time. An actor
//! takes its own handle with [`KeyStore::with_memo`]: the same keys, a
//! bounded memo of the signatures its checks accepted, and counters of
//! the checks it ran ([`SigStats`]). Clones of that handle share both —
//! a replica's consensus engine and executor do — and two handles taken
//! from one store share neither.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use transedge_common::{ClusterTopology, NodeId, ReplicaId, Result, TransEdgeError};

use crate::digest::Digest;
use crate::ed25519::{verify_batch, Keypair, PublicKey, Signature, VerifyingKey, MAX_BATCH};
use crate::hmac::derive_seed;
use crate::sha2::Sha256;

/// Public-key directory for a whole deployment, plus deterministic
/// keypair derivation for the simulator.
#[derive(Clone, Default)]
pub struct KeyStore {
    keys: Arc<HashMap<NodeId, VerifyingKey>>,
    memo: Option<Arc<Mutex<SigMemo>>>,
}

/// The signature checks one memo handle ran, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SigStats {
    /// Signatures verified one at a time.
    pub checks: u64,
    /// Batch equations evaluated (two signatures or more each).
    pub batches: u64,
    /// Signatures inside those batches.
    pub batched: u64,
    /// Signatures answered from the memo instead of checked.
    pub memo_hits: u64,
}

impl SigStats {
    fn add(&mut self, other: SigStats) {
        self.checks += other.checks;
        self.batches += other.batches;
        self.batched += other.batched;
        self.memo_hits += other.memo_hits;
    }
}

/// Accepted signatures one memo remembers before it forgets the oldest.
/// What comes back comes back soon: a coordinator's prepared record at
/// prepare and again at commit, a leader's verified shares inside its
/// own cluster's prepared record. At 256 every such re-check of the
/// benchmark's consensus workloads still hits; at 128 some miss.
const MEMO_CAPACITY: usize = 256;

/// Signatures one actor has accepted, keyed by SHA-256 over
/// signer key ‖ signature ‖ statement. Failures are never remembered;
/// eviction is first in, first out.
#[derive(Default)]
struct SigMemo {
    accepted: HashSet<Digest>,
    /// `accepted` in insertion order.
    order: VecDeque<Digest>,
    stats: SigStats,
}

impl SigMemo {
    fn id(key: &VerifyingKey, sig: &Signature, msg: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(key.public().as_bytes());
        h.update(sig.as_bytes());
        h.update(msg);
        h.finalize()
    }

    fn remember(&mut self, id: Digest) {
        if !self.accepted.insert(id) {
            return;
        }
        if self.order.len() == MEMO_CAPACITY {
            let oldest = self.order.pop_front().expect("at capacity");
            self.accepted.remove(&oldest);
        }
        self.order.push_back(id);
    }
}

/// Verdicts for `items`, at most [`MAX_BATCH`] per batch equation. A
/// batch that fails is re-checked one signature at a time, so every
/// verdict is the one a single check gives.
fn check(items: &[(&VerifyingKey, &[u8], &Signature)], stats: &mut SigStats) -> Vec<bool> {
    let mut verdicts = Vec::with_capacity(items.len());
    for chunk in items.chunks(MAX_BATCH) {
        if chunk.len() > 1 {
            stats.batches += 1;
            stats.batched += chunk.len() as u64;
            if verify_batch(chunk) {
                verdicts.resize(verdicts.len() + chunk.len(), true);
                continue;
            }
        }
        stats.checks += chunk.len() as u64;
        verdicts.extend(chunk.iter().map(|(key, msg, sig)| key.verify(msg, sig)));
    }
    verdicts
}

impl KeyStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Derive keypairs for every replica of a topology from one master
    /// seed. Deterministic: the same seed yields the same deployment.
    /// Returns the public directory and the per-replica keypairs (to be
    /// handed to each simulated node).
    pub fn for_topology(
        topology: &ClusterTopology,
        master_seed: &[u8; 32],
    ) -> (KeyStore, HashMap<ReplicaId, Keypair>) {
        let mut store = KeyStore::new();
        let mut secrets = HashMap::new();
        for replica in topology.all_replicas() {
            let label = format!("replica/{}/{}", replica.cluster.0, replica.index);
            let kp = Keypair::from_seed(derive_seed(master_seed, &label));
            store.register(NodeId::Replica(replica), kp.public());
            secrets.insert(replica, kp);
        }
        (store, secrets)
    }

    /// Register a node's public key (setup time only — the permissioned
    /// membership is fixed before the system starts). A key that does
    /// not decode is registered all the same and verifies nothing.
    pub fn register(&mut self, node: NodeId, key: PublicKey) {
        Arc::make_mut(&mut self.keys).insert(node, VerifyingKey::new(key));
    }

    /// A handle for one actor: these keys, an empty memo of accepted
    /// signatures and zeroed [`SigStats`], shared by the handle's clones
    /// and by nothing else.
    pub fn with_memo(&self) -> KeyStore {
        KeyStore {
            keys: Arc::clone(&self.keys),
            memo: Some(Arc::default()),
        }
    }

    /// The checks this handle ran (zero for a store without a memo,
    /// which counts nothing).
    pub fn sig_stats(&self) -> SigStats {
        self.memo()
            .map_or_else(SigStats::default, |memo| memo.stats)
    }

    fn memo(&self) -> Option<MutexGuard<'_, SigMemo>> {
        self.memo
            .as_ref()
            .map(|memo| memo.lock().expect("signature memo lock"))
    }

    /// Look up a node's public key.
    pub fn public_key(&self, node: NodeId) -> Option<PublicKey> {
        self.keys.get(&node).map(VerifyingKey::public)
    }

    /// Verify that `sig` is `node`'s signature over `msg` (a signature
    /// the memo accepted before passes unchecked).
    pub fn verify(&self, node: NodeId, msg: &[u8], sig: &Signature) -> Result<()> {
        if !self.keys.contains_key(&node) {
            return Err(TransEdgeError::Unknown(format!("no public key for {node}")));
        }
        if self.count_valid(msg, &[(node, *sig)]) == 1 {
            Ok(())
        } else {
            Err(TransEdgeError::Verification(format!(
                "bad signature from {node}"
            )))
        }
    }

    /// Is each `(signer, statement, signature)` valid? Batched, with the
    /// verdict of a single check for each; an unregistered signer's is
    /// `false`. Not memoised: for signatures a node sees once, such as
    /// consensus votes.
    pub fn verify_many(&self, items: &[(NodeId, &[u8], &Signature)]) -> Vec<bool> {
        let known: Vec<_> = items
            .iter()
            .filter_map(|(node, msg, sig)| Some((self.keys.get(node)?, *msg, *sig)))
            .collect();
        let mut stats = SigStats::default();
        let mut verdicts = check(&known, &mut stats).into_iter();
        if let Some(mut memo) = self.memo() {
            memo.stats.add(stats);
        }
        items
            .iter()
            .map(|(node, ..)| {
                self.keys.contains_key(node) && verdicts.next().expect("a verdict per known signer")
            })
            .collect()
    }

    /// Count how many of the `(signer, signature)` pairs are valid
    /// signatures over `msg` from *distinct* registered nodes (a signer's
    /// first pair is the one that counts). Used for `f+1` / `2f+1`
    /// certificate checks: signatures the memo already accepted count
    /// unchecked, the rest are checked in one batch and the valid ones
    /// remembered.
    pub fn count_valid(&self, msg: &[u8], sigs: &[(NodeId, Signature)]) -> usize {
        let mut memo = self.memo();
        let mut stats = SigStats::default();
        let mut seen: Vec<NodeId> = Vec::with_capacity(sigs.len());
        let mut fresh = Vec::with_capacity(sigs.len());
        for (node, sig) in sigs {
            if seen.contains(node) {
                continue;
            }
            seen.push(*node);
            let Some(key) = self.keys.get(node) else {
                continue;
            };
            let id = memo.as_ref().map(|_| SigMemo::id(key, sig, msg));
            if memo
                .as_ref()
                .zip(id)
                .is_some_and(|(memo, id)| memo.accepted.contains(&id))
            {
                stats.memo_hits += 1;
            } else {
                fresh.push(((key, msg, sig), id));
            }
        }
        let items: Vec<_> = fresh.iter().map(|(item, _)| *item).collect();
        let verdicts = check(&items, &mut stats);
        let mut valid = stats.memo_hits as usize;
        for ((_, id), ok) in fresh.iter().zip(verdicts) {
            if ok {
                valid += 1;
                if let Some((memo, id)) = memo.as_mut().zip(*id) {
                    memo.remember(id);
                }
            }
        }
        if let Some(memo) = memo.as_mut() {
            memo.stats.add(stats);
        }
        valid
    }

    /// Require at least `quorum` valid signatures over `msg`.
    pub fn require_quorum(
        &self,
        msg: &[u8],
        sigs: &[(NodeId, Signature)],
        quorum: usize,
    ) -> Result<()> {
        let got = self.count_valid(msg, sigs);
        if got >= quorum {
            Ok(())
        } else {
            Err(TransEdgeError::QuorumNotMet {
                wanted: quorum,
                got,
            })
        }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ed25519::tamper;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use transedge_common::ClusterId;

    fn deployment() -> (KeyStore, HashMap<ReplicaId, Keypair>) {
        let topo = ClusterTopology::new(2, 1).unwrap();
        KeyStore::for_topology(&topo, &[42u8; 32])
    }

    fn replica(cluster: u16, index: u16) -> NodeId {
        NodeId::Replica(ReplicaId::new(ClusterId(cluster), index))
    }

    #[test]
    fn derivation_is_deterministic() {
        let (a, _) = deployment();
        let (b, _) = deployment();
        let r = NodeId::Replica(ReplicaId::new(ClusterId(0), 0));
        assert_eq!(a.public_key(r), b.public_key(r));
        assert_eq!(a.len(), 8); // 2 clusters × 4 replicas
    }

    #[test]
    fn different_replicas_have_different_keys() {
        let (store, _) = deployment();
        let a = store
            .public_key(NodeId::Replica(ReplicaId::new(ClusterId(0), 0)))
            .unwrap();
        let b = store
            .public_key(NodeId::Replica(ReplicaId::new(ClusterId(0), 1)))
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn verify_via_store() {
        let (store, secrets) = deployment();
        let r = ReplicaId::new(ClusterId(1), 2);
        let sig = secrets[&r].sign(b"batch 7");
        assert!(store.verify(NodeId::Replica(r), b"batch 7", &sig).is_ok());
        assert!(store.verify(NodeId::Replica(r), b"batch 8", &sig).is_err());
        // Signature attributed to the wrong node fails.
        let other = NodeId::Replica(ReplicaId::new(ClusterId(1), 3));
        assert!(store.verify(other, b"batch 7", &sig).is_err());
    }

    #[test]
    fn quorum_counting_dedupes_signers() {
        let (store, secrets) = deployment();
        let r0 = ReplicaId::new(ClusterId(0), 0);
        let r1 = ReplicaId::new(ClusterId(0), 1);
        let msg = b"root";
        let s0 = secrets[&r0].sign(msg);
        let s1 = secrets[&r1].sign(msg);
        // Duplicate signer must count once.
        let sigs = vec![
            (NodeId::Replica(r0), s0),
            (NodeId::Replica(r0), s0),
            (NodeId::Replica(r1), s1),
        ];
        assert_eq!(store.count_valid(msg, &sigs), 2);
        assert!(store.require_quorum(msg, &sigs, 2).is_ok());
        assert_eq!(
            store.require_quorum(msg, &sigs, 3),
            Err(TransEdgeError::QuorumNotMet { wanted: 3, got: 2 })
        );
    }

    #[test]
    fn unknown_signer_is_an_error() {
        let (store, secrets) = deployment();
        let r = ReplicaId::new(ClusterId(0), 0);
        let sig = secrets[&r].sign(b"m");
        let ghost = NodeId::Replica(ReplicaId::new(ClusterId(9), 9));
        assert!(matches!(
            store.verify(ghost, b"m", &sig),
            Err(TransEdgeError::Unknown(_))
        ));
    }

    #[test]
    fn clones_share_one_key_table() {
        let (store, _) = deployment();
        let handle = store.with_memo();
        assert!(Arc::ptr_eq(&store.keys, &store.clone().keys));
        assert!(Arc::ptr_eq(&store.keys, &handle.keys));
    }

    #[test]
    fn verify_many_gives_each_item_its_own_verdict() {
        let (store, secrets) = deployment();
        let store = store.with_memo();
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 9]).collect();
        let sigs: Vec<Signature> = (0..4u16)
            .map(|i| secrets[&ReplicaId::new(ClusterId(0), i)].sign(&msgs[i as usize]))
            .collect();
        let mut items: Vec<(NodeId, &[u8], &Signature)> = (0..4u16)
            .map(|i| {
                (
                    replica(0, i),
                    msgs[i as usize].as_slice(),
                    &sigs[i as usize],
                )
            })
            .collect();
        assert_eq!(store.verify_many(&items), vec![true; 4]);
        // A bad signature, an unknown signer: the others still pass.
        items[1].1 = b"not what was signed";
        items[3].0 = replica(9, 9);
        assert_eq!(store.verify_many(&items), vec![true, false, true, false]);
        // Two batches (4, then 3 known), the failing one re-checked.
        assert_eq!(
            store.sig_stats(),
            SigStats {
                checks: 3,
                batches: 2,
                batched: 7,
                memo_hits: 0
            }
        );
    }

    #[test]
    fn a_failed_check_is_never_remembered() {
        let (store, secrets) = deployment();
        let memo = store.with_memo();
        let msg = b"root";
        let good = secrets[&ReplicaId::new(ClusterId(0), 0)].sign(msg);
        let bad = secrets[&ReplicaId::new(ClusterId(0), 1)].sign(b"other root");
        let sigs = [(replica(0, 0), good), (replica(0, 1), bad)];
        for round in 1..=3u64 {
            assert_eq!(memo.count_valid(msg, &sigs), 1);
            let stats = memo.sig_stats();
            // Round one batches both and falls back to singles; later
            // rounds hit the good one and check the bad one again.
            assert_eq!((stats.memo_hits, stats.batches), (round - 1, 1));
            assert_eq!(stats.checks, 2 + (round - 1));
        }
        assert_eq!(memo.memo().unwrap().accepted.len(), 1);
    }

    #[test]
    fn handles_from_one_store_share_nothing() {
        let (store, secrets) = deployment();
        let (a, b) = (store.with_memo(), store.with_memo());
        let msg = b"root";
        let sigs: Vec<(NodeId, Signature)> = (0..2u16)
            .map(|i| {
                (
                    replica(0, i),
                    secrets[&ReplicaId::new(ClusterId(0), i)].sign(msg),
                )
            })
            .collect();
        assert_eq!(a.count_valid(msg, &sigs), 2);
        assert_eq!(a.clone().count_valid(msg, &sigs), 2);
        assert_eq!(a.sig_stats().memo_hits, 2, "a clone shares its memo");
        assert_eq!(b.count_valid(msg, &sigs), 2);
        assert_eq!(b.sig_stats().memo_hits, 0, "another handle does not");
        assert_eq!(b.sig_stats().batched, 2);
        // The setup store neither remembers nor counts.
        assert_eq!(store.count_valid(msg, &sigs), 2);
        assert_eq!(store.sig_stats(), SigStats::default());
    }

    #[test]
    fn the_memo_stays_bounded_over_a_long_run() {
        let (store, secrets) = deployment();
        let memo = store.with_memo();
        let signers: Vec<ReplicaId> = (0..2u16).map(|i| ReplicaId::new(ClusterId(0), i)).collect();
        let quorum = |n: usize| -> (Vec<u8>, Vec<(NodeId, Signature)>) {
            let msg = (n as u64).to_le_bytes().to_vec();
            let sigs = signers
                .iter()
                .map(|r| (NodeId::Replica(*r), secrets[r].sign(&msg)))
                .collect();
            (msg, sigs)
        };
        let rounds = MEMO_CAPACITY; // two signatures each
        for n in 0..rounds {
            let (msg, sigs) = quorum(n);
            assert_eq!(memo.count_valid(&msg, &sigs), 2);
            let held = memo.memo().unwrap().accepted.len();
            assert!(held <= MEMO_CAPACITY, "{held} remembered");
        }
        // The newest are remembered, the oldest evicted first.
        let (msg, sigs) = quorum(rounds - 1);
        memo.count_valid(&msg, &sigs);
        assert_eq!(memo.sig_stats().memo_hits, 2);
        let (msg, sigs) = quorum(0);
        memo.count_valid(&msg, &sigs);
        assert_eq!(memo.sig_stats().memo_hits, 2);
        let inner = memo.memo().unwrap();
        assert_eq!(
            (inner.accepted.len(), inner.order.len()),
            (MEMO_CAPACITY, MEMO_CAPACITY)
        );
    }

    /// `cases` quorum checks over random signer lists — every tamper
    /// shape, duplicate signers, unregistered and undecodable keys — each
    /// counted by `count_valid` (batched, and then again from a warm
    /// memo) against the count of single checks.
    fn differential_count_sweep(cases: usize, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut batched = 0;
        for case in 0..cases {
            let msg: Vec<u8> = (0..rng.gen_range(1..60usize)).map(|_| rng.gen()).collect();
            let mut store = KeyStore::new();
            let mut sigs: Vec<(NodeId, Signature)> = Vec::new();
            let signers = rng.gen_range(1..=12u16);
            for i in 0..signers {
                let node = replica(0, i);
                let kp = Keypair::from_seed(rng.gen());
                // Mostly honest, so that some lists reach a quorum.
                let shape = if rng.gen_bool(0.6) {
                    0
                } else {
                    rng.gen_range(0..tamper::SHAPES)
                };
                let (pk, sig) = tamper::signature(shape, &kp, &msg, &mut rng);
                // One signer in ten is never registered.
                if rng.gen_range(0..10) > 0 {
                    store.register(node, pk);
                }
                sigs.push((node, sig));
                // A second, different signature under the same signer
                // now and then, before or after: only the first counts.
                if rng.gen_range(0..5) == 0 {
                    sigs.insert(rng.gen_range(0..=sigs.len()), (node, kp.sign(&msg)));
                }
            }
            let mut seen = Vec::new();
            let singles = sigs
                .iter()
                .filter(|(node, sig)| {
                    !seen.contains(node) && {
                        seen.push(*node);
                        store
                            .public_key(*node)
                            .is_some_and(|pk| pk.verify(&msg, sig))
                    }
                })
                .count();
            let memo = store.with_memo();
            assert_eq!(store.count_valid(&msg, &sigs), singles, "case {case}");
            assert_eq!(memo.count_valid(&msg, &sigs), singles, "case {case}");
            assert_eq!(memo.count_valid(&msg, &sigs), singles, "case {case}, warm");
            assert_eq!(memo.sig_stats().memo_hits, singles as u64, "case {case}");
            batched += memo.sig_stats().batched;
        }
        assert!(batched > cases as u64, "{batched} signatures batched");
    }

    #[test]
    fn batched_counts_equal_single_counts() {
        differential_count_sweep(64, 3);
    }

    /// The release-mode sweep CI runs with `--include-ignored`.
    #[test]
    #[ignore = "10 000 cases: run in release with --include-ignored"]
    fn batched_counts_equal_single_counts_10k() {
        differential_count_sweep(10_000, 4);
    }
}
