//! Cluster topology configuration.
//!
//! TransEdge divides nodes into clusters; each cluster holds one data
//! partition and consists of `3f+1` replicas, tolerating `f` byzantine
//! nodes (paper §2, §3.1). The paper's evaluation uses 5 clusters of 7
//! replicas (`f = 2`); [`ClusterTopology::paper_default`] reproduces
//! that.
//!
//! Keys are mapped to partitions by hashing ("Keys are uniformly
//! distributed across the clusters using hashing", §5.1). We use FNV-1a
//! here: the *assignment* of keys to partitions is not security
//! sensitive (integrity comes from the per-partition Merkle trees), it
//! just needs to be uniform and deterministic, and keeping it local
//! avoids a dependency cycle with the crypto crate.

use crate::error::{Result, TransEdgeError};
use crate::ids::{ClusterId, ReplicaId};
use crate::value::Key;

/// Static description of the whole deployment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterTopology {
    n_clusters: u16,
    f: u16,
}

impl ClusterTopology {
    /// A topology of `n_clusters` clusters, each tolerating `f`
    /// byzantine replicas (so each cluster has `3f+1` members).
    pub fn new(n_clusters: u16, f: u16) -> Result<Self> {
        if n_clusters == 0 {
            return Err(TransEdgeError::Config("need at least one cluster".into()));
        }
        if f == 0 {
            return Err(TransEdgeError::Config(
                "f = 0 would make the BFT layer pointless; use f >= 1".into(),
            ));
        }
        Ok(Self { n_clusters, f })
    }

    /// The paper's evaluation setup: 5 clusters × 7 replicas (f = 2).
    pub fn paper_default() -> Self {
        Self {
            n_clusters: 5,
            f: 2,
        }
    }

    /// Number of clusters (== number of partitions).
    pub fn n_clusters(&self) -> usize {
        self.n_clusters as usize
    }

    /// Byzantine failures tolerated per cluster.
    pub fn f(&self) -> usize {
        self.f as usize
    }

    /// Replicas per cluster: `3f + 1`.
    pub fn replicas_per_cluster(&self) -> usize {
        3 * self.f as usize + 1
    }

    /// Size of a BFT write/accept quorum: `2f + 1`.
    pub fn bft_quorum(&self) -> usize {
        2 * self.f as usize + 1
    }

    /// Signatures needed to certify a batch to clients: `f + 1`
    /// (at least one is from a correct replica).
    pub fn certificate_quorum(&self) -> usize {
        self.f as usize + 1
    }

    /// All cluster ids.
    pub fn clusters(&self) -> impl Iterator<Item = ClusterId> + '_ {
        (0..self.n_clusters).map(ClusterId)
    }

    /// All replicas of one cluster.
    pub fn replicas_of(&self, cluster: ClusterId) -> impl Iterator<Item = ReplicaId> + '_ {
        let n = self.replicas_per_cluster() as u16;
        (0..n).map(move |i| ReplicaId::new(cluster, i))
    }

    /// Every replica in the deployment.
    pub fn all_replicas(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        self.clusters().flat_map(move |c| {
            let n = self.replicas_per_cluster() as u16;
            (0..n).map(move |i| ReplicaId::new(c, i))
        })
    }

    /// Total replica count across all clusters.
    pub fn total_replicas(&self) -> usize {
        self.n_clusters() * self.replicas_per_cluster()
    }

    /// The partition (cluster) responsible for `key`.
    pub fn partition_of(&self, key: &Key) -> ClusterId {
        ClusterId((fnv1a(key.as_bytes()) % self.n_clusters as u64) as u16)
    }

    /// Validate that a replica id belongs to this topology.
    pub fn contains(&self, replica: ReplicaId) -> bool {
        replica.cluster.0 < self.n_clusters
            && (replica.index as usize) < self.replicas_per_cluster()
    }
}

/// FNV-1a 64-bit hash (key→partition placement only; not security
/// sensitive — see module docs).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_evaluation_setup() {
        let t = ClusterTopology::paper_default();
        assert_eq!(t.n_clusters(), 5);
        assert_eq!(t.f(), 2);
        assert_eq!(t.replicas_per_cluster(), 7);
        assert_eq!(t.bft_quorum(), 5);
        assert_eq!(t.certificate_quorum(), 3);
        assert_eq!(t.total_replicas(), 35);
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(ClusterTopology::new(0, 1).is_err());
        assert!(ClusterTopology::new(3, 0).is_err());
    }

    #[test]
    fn replica_enumeration() {
        let t = ClusterTopology::new(2, 1).unwrap();
        let reps: Vec<_> = t.replicas_of(ClusterId(1)).collect();
        assert_eq!(reps.len(), 4);
        assert_eq!(reps[0], ReplicaId::new(ClusterId(1), 0));
        assert_eq!(t.all_replicas().count(), 8);
    }

    #[test]
    fn partitioning_is_deterministic_and_in_range() {
        let t = ClusterTopology::paper_default();
        for i in 0..1000u32 {
            let k = Key::from_u32(i);
            let p = t.partition_of(&k);
            assert!(p.0 < 5);
            assert_eq!(p, t.partition_of(&k));
        }
    }

    #[test]
    fn partitioning_is_roughly_uniform() {
        let t = ClusterTopology::paper_default();
        let mut counts = [0usize; 5];
        let n = 50_000u32;
        for i in 0..n {
            counts[t.partition_of(&Key::from_u32(i)).as_usize()] += 1;
        }
        let expected = n as usize / 5;
        for (c, &count) in counts.iter().enumerate() {
            let dev = (count as f64 - expected as f64).abs() / expected as f64;
            assert!(dev < 0.05, "cluster {c} got {count}, expected ~{expected}");
        }
    }

    #[test]
    fn contains_checks_bounds() {
        let t = ClusterTopology::new(2, 1).unwrap();
        assert!(t.contains(ReplicaId::new(ClusterId(0), 3)));
        assert!(!t.contains(ReplicaId::new(ClusterId(0), 4)));
        assert!(!t.contains(ReplicaId::new(ClusterId(2), 0)));
    }

    #[test]
    fn paper_default_is_five_clusters_tolerating_two() {
        assert_eq!(
            ClusterTopology::new(5, 2).unwrap(),
            ClusterTopology::paper_default()
        );
        assert_eq!(
            ClusterTopology::new(3, 1).unwrap().replicas_per_cluster(),
            4
        );
    }
}
