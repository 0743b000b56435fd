//! Workload specification and generation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use transedge_common::{ClusterId, ClusterTopology, Key, Value};
use transedge_core::client::ClientOp;
use transedge_crypto::range::MAX_RANGE_BUCKETS;
use transedge_crypto::ScanRange;

use crate::zipf::Zipfian;

/// Transaction-type shares, in percent (must sum to 100).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    pub read_only_pct: u8,
    pub local_rw_pct: u8,
    pub distributed_rw_pct: u8,
    pub write_only_pct: u8,
}

impl Mix {
    pub fn validate(&self) {
        let sum = self.read_only_pct as u32
            + self.local_rw_pct as u32
            + self.distributed_rw_pct as u32
            + self.write_only_pct as u32;
        assert_eq!(sum, 100, "mix percentages must sum to 100, got {sum}");
    }
}

/// Key-selection distribution.
#[derive(Clone, Debug)]
pub enum KeyDistribution {
    /// Paper default: uniform over the key space.
    Uniform,
    /// Skewed access (YCSB's zipfian) — an extension knob for
    /// contention experiments.
    Zipfian { theta: f64 },
}

/// Everything needed to generate a client script. Each op has one
/// spelling: a point read is [`ClientOp::ReadOnly`], a scan a
/// single-partition [`ClientOp::RangeScan`] (a scan scattered over
/// several partitions is written by hand as a `ClientOp::Query` of
/// `ReadQuery::scatter_scan`).
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    pub topo: ClusterTopology,
    /// Total keys (the deployment must preload at least this many).
    pub n_keys: u32,
    pub value_size: usize,
    pub mix: Mix,
    /// Reads per read-write transaction (paper: 5).
    pub rw_reads: usize,
    /// Writes per read-write transaction (paper: 3).
    pub rw_writes: usize,
    /// Keys read by a read-only transaction (paper: 5, one per
    /// cluster).
    pub rot_keys: usize,
    /// Clusters a read-only transaction spans (paper: varies 1–5).
    pub rot_clusters: usize,
    pub distribution: KeyDistribution,
    /// Percent of *all* operations issued as verified range scans
    /// (rolled before the [`Mix`], which governs the rest). Scans are
    /// the extension query type — 0 reproduces the paper's mixes
    /// exactly.
    pub scan_pct: u8,
    /// Width of each scan window, in tree-order buckets. Windows are
    /// aligned to multiples of this width so repeated scans revisit the
    /// same windows and edge caches get reuse.
    pub scan_buckets: u64,
    /// Merkle tree depth of the deployment the script will run against
    /// (scan windows must stay inside its `2^depth` leaf space).
    pub tree_depth: u32,
    /// Rotation applied to the zipfian rank → key mapping within each
    /// cluster pool. Two specs differing only in `hot_offset` skew the
    /// same total mass onto *different* keys — a flash crowd moving to
    /// a new hot set mid-run (the scenario layer's `HotKeyShift`
    /// regenerates client tails with a shifted offset). Ignored under
    /// [`KeyDistribution::Uniform`].
    pub hot_offset: u64,
}

impl WorkloadSpec {
    /// The paper's default transaction shapes on its 5-cluster setup:
    /// RW = 5 reads + 3 writes across clusters, ROT = 5 keys, one per
    /// cluster (§5.1).
    pub fn paper_default(topo: ClusterTopology) -> Self {
        let n = topo.n_clusters();
        WorkloadSpec {
            topo,
            n_keys: 10_000,
            value_size: 256,
            mix: Mix {
                read_only_pct: 50,
                local_rw_pct: 20,
                distributed_rw_pct: 20,
                write_only_pct: 10,
            },
            rw_reads: 5,
            rw_writes: 3,
            rot_keys: n,
            rot_clusters: n,
            distribution: KeyDistribution::Uniform,
            scan_pct: 0,
            scan_buckets: 256,
            tree_depth: transedge_core::node::DEFAULT_TREE_DEPTH,
            hot_offset: 0,
        }
    }

    /// The same spec with its zipfian hot set rotated by `offset`
    /// ranks — the flash-crowd knob (see [`WorkloadSpec::hot_offset`]).
    pub fn with_hot_offset(self, offset: u64) -> Self {
        WorkloadSpec {
            hot_offset: offset,
            ..self
        }
    }

    /// 100% cross-partition point reads: `keys` keys spread over
    /// `clusters` partitions per read — the workload the edge-tier
    /// scatter-gather (single-contact) experiments run. The same spec
    /// as [`WorkloadSpec::read_only`].
    pub fn scatter_points(topo: ClusterTopology, keys: usize, clusters: usize) -> Self {
        Self::read_only(topo, keys, clusters)
    }

    /// Throughput mode: 100% *single-partition* point reads of `keys`
    /// keys each. With `keys` at or above the serving tier's
    /// multiproof threshold every request is answered by one coalesced
    /// Merkle multiproof, which is what the ops/sec benches measure.
    pub fn throughput_points(topo: ClusterTopology, keys: usize) -> Self {
        Self::scatter_points(topo, keys, 1)
    }

    /// Saturating open-loop scripts: `clients` parallel actors, each
    /// holding `ops_per_client` back-to-back operations drawn from this
    /// spec under a distinct derived seed. The simulator's actors are
    /// closed-loop (one op in flight each), so offered load is set by
    /// fleet width, not timers — a wide enough fleet keeps the serving
    /// tier saturated regardless of individual latencies, which is the
    /// open-loop approximation the throughput bench drives.
    pub fn generate_fleet(
        &self,
        clients: usize,
        ops_per_client: usize,
        seed: u64,
    ) -> Vec<Vec<ClientOp>> {
        (0..clients)
            .map(|c| {
                self.generate(
                    ops_per_client,
                    seed ^ ((c as u64 + 1).wrapping_mul(0x9E37_79B9)),
                )
            })
            .collect()
    }

    /// 100% verified range scans of `scan_buckets`-wide windows, spread
    /// over all partitions.
    pub fn scans(topo: ClusterTopology, scan_buckets: u64) -> Self {
        WorkloadSpec {
            scan_pct: 100,
            scan_buckets,
            ..Self::paper_default(topo)
        }
    }

    /// 100% read-only transactions over `clusters` clusters reading
    /// `keys` keys total.
    pub fn read_only(topo: ClusterTopology, keys: usize, clusters: usize) -> Self {
        assert!(clusters <= topo.n_clusters());
        assert!(keys >= clusters);
        WorkloadSpec {
            mix: Mix {
                read_only_pct: 100,
                local_rw_pct: 0,
                distributed_rw_pct: 0,
                write_only_pct: 0,
            },
            rot_keys: keys,
            rot_clusters: clusters,
            ..Self::paper_default(topo)
        }
    }

    /// 100% distributed read-write transactions with the given
    /// read/write counts.
    pub fn distributed_rw(topo: ClusterTopology, reads: usize, writes: usize) -> Self {
        WorkloadSpec {
            mix: Mix {
                read_only_pct: 0,
                local_rw_pct: 0,
                distributed_rw_pct: 100,
                write_only_pct: 0,
            },
            rw_reads: reads,
            rw_writes: writes,
            ..Self::paper_default(topo)
        }
    }

    /// 100% local read-write transactions.
    pub fn local_rw(topo: ClusterTopology, reads: usize, writes: usize) -> Self {
        WorkloadSpec {
            mix: Mix {
                read_only_pct: 0,
                local_rw_pct: 100,
                distributed_rw_pct: 0,
                write_only_pct: 0,
            },
            rw_reads: reads,
            rw_writes: writes,
            ..Self::paper_default(topo)
        }
    }

    /// 100% local write-only transactions.
    pub fn write_only(topo: ClusterTopology, writes: usize) -> Self {
        WorkloadSpec {
            mix: Mix {
                read_only_pct: 0,
                local_rw_pct: 0,
                distributed_rw_pct: 0,
                write_only_pct: 100,
            },
            rw_writes: writes,
            ..Self::paper_default(topo)
        }
    }

    /// Generate a deterministic script of `count` operations.
    pub fn generate(&self, count: usize, seed: u64) -> Vec<ClientOp> {
        self.mix.validate();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7261_6e64);
        let zipf = match &self.distribution {
            KeyDistribution::Zipfian { theta } => Some(Zipfian::new(self.n_keys as u64, *theta)),
            KeyDistribution::Uniform => None,
        };
        // Pre-index keys by cluster for cluster-targeted picks. Keys
        // are grouped once; picking within a cluster is O(1).
        let mut by_cluster: Vec<Vec<u32>> = vec![Vec::new(); self.topo.n_clusters()];
        for i in 0..self.n_keys {
            by_cluster[self.topo.partition_of(&Key::from_u32(i)).as_usize()].push(i);
        }
        let mut ops = Vec::with_capacity(count);
        for _ in 0..count {
            // Scans roll first (the extension query type); the paper's
            // mix governs everything else.
            if self.scan_pct > 0 && rng.gen_range(0u32..100) < self.scan_pct as u32 {
                ops.push(self.gen_scan(&mut rng));
                continue;
            }
            let roll = rng.gen_range(0u32..100);
            let ro = self.mix.read_only_pct as u32;
            let lrw = ro + self.mix.local_rw_pct as u32;
            let drw = lrw + self.mix.distributed_rw_pct as u32;
            let op = if roll < ro {
                self.gen_rot(&mut rng, &by_cluster, zipf.as_ref())
            } else if roll < lrw {
                self.gen_local_rw(&mut rng, &by_cluster, true)
            } else if roll < drw {
                self.gen_distributed_rw(&mut rng, &by_cluster)
            } else {
                self.gen_local_rw(&mut rng, &by_cluster, false)
            };
            ops.push(op);
        }
        ops
    }

    fn pick_in_cluster(
        &self,
        rng: &mut SmallRng,
        by_cluster: &[Vec<u32>],
        cluster: ClusterId,
        exclude: &[Key],
    ) -> Key {
        let pool = &by_cluster[cluster.as_usize()];
        assert!(!pool.is_empty(), "no keys in {cluster}");
        loop {
            let key = Key::from_u32(pool[rng.gen_range(0..pool.len())]);
            if !exclude.contains(&key) {
                return key;
            }
        }
    }

    fn pick_clusters(&self, rng: &mut SmallRng, n: usize) -> Vec<ClusterId> {
        let total = self.topo.n_clusters();
        assert!(n <= total);
        let mut all: Vec<ClusterId> = self.topo.clusters().collect();
        // Partial Fisher–Yates.
        for i in 0..n {
            let j = rng.gen_range(i..total);
            all.swap(i, j);
        }
        all.truncate(n);
        all
    }

    /// "Read-only transactions read n unique keys from m clusters"
    /// (§5.1): spread `rot_keys` keys round-robin over `rot_clusters`
    /// clusters.
    fn gen_rot(
        &self,
        rng: &mut SmallRng,
        by_cluster: &[Vec<u32>],
        zipf: Option<&Zipfian>,
    ) -> ClientOp {
        let clusters = self.pick_clusters(rng, self.rot_clusters);
        let mut keys: Vec<Key> = Vec::with_capacity(self.rot_keys);
        for i in 0..self.rot_keys {
            let cluster = clusters[i % clusters.len()];
            let key = match zipf {
                // Zipfian: skew *which* key within the cluster pool.
                Some(z) => {
                    let pool = &by_cluster[cluster.as_usize()];
                    let rank = (z.sample(rng) as usize + self.hot_offset as usize) % pool.len();
                    Key::from_u32(pool[rank])
                }
                None => self.pick_in_cluster(rng, by_cluster, cluster, &keys),
            };
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        ClientOp::ReadOnly { keys }
    }

    /// A verified scan: an aligned `scan_buckets`-wide window of one
    /// partition. Alignment keeps the window vocabulary small so
    /// repeated scans hit edge caches; the paper has no scan workload —
    /// this drives the extension query type.
    fn gen_scan(&self, rng: &mut SmallRng) -> ClientOp {
        let cluster = self.pick_clusters(rng, 1)[0];
        let leaves = 1u64 << self.tree_depth;
        let window = self.scan_buckets.clamp(1, leaves.min(MAX_RANGE_BUCKETS));
        let slots = (leaves / window).max(1);
        let start = rng.gen_range(0..slots) * window;
        let range = ScanRange::new(start, (start + window - 1).min(leaves - 1));
        ClientOp::RangeScan { cluster, range }
    }

    fn gen_local_rw(
        &self,
        rng: &mut SmallRng,
        by_cluster: &[Vec<u32>],
        with_reads: bool,
    ) -> ClientOp {
        let cluster = self.pick_clusters(rng, 1)[0];
        let mut used: Vec<Key> = Vec::new();
        let reads: Vec<Key> = if with_reads {
            (0..self.rw_reads)
                .map(|_| {
                    let k = self.pick_in_cluster(rng, by_cluster, cluster, &used);
                    used.push(k.clone());
                    k
                })
                .collect()
        } else {
            Vec::new()
        };
        let writes: Vec<(Key, Value)> = (0..self.rw_writes)
            .map(|_| {
                let k = self.pick_in_cluster(rng, by_cluster, cluster, &used);
                used.push(k.clone());
                (k, self.random_value(rng))
            })
            .collect();
        ClientOp::ReadWrite { reads, writes }
    }

    /// "Each read-write transaction contains 5 read and 3 write
    /// operations distributed across 5 clusters" (§5.1). The *write*
    /// count determines how many clusters participate — the paper reads
    /// "R=5,W=1" as essentially a local transaction (§5.2, Figure 10
    /// discussion) — and reads are drawn from those same clusters.
    fn gen_distributed_rw(&self, rng: &mut SmallRng, by_cluster: &[Vec<u32>]) -> ClientOp {
        let span = self.topo.n_clusters().min(self.rw_writes.max(1));
        let clusters = self.pick_clusters(rng, span);
        let mut used: Vec<Key> = Vec::new();
        let pick = |i: usize, rng: &mut SmallRng, used: &mut Vec<Key>| {
            let cluster = clusters[i % clusters.len()];
            let k = self.pick_in_cluster(rng, by_cluster, cluster, used);
            used.push(k.clone());
            k
        };
        let reads: Vec<Key> = (0..self.rw_reads)
            .map(|i| pick(i, rng, &mut used))
            .collect();
        let writes: Vec<(Key, Value)> = (0..self.rw_writes)
            .map(|i| {
                let k = pick(self.rw_reads + i, rng, &mut used);
                (k, self.random_value(rng))
            })
            .collect();
        ClientOp::ReadWrite { reads, writes }
    }

    fn random_value(&self, rng: &mut SmallRng) -> Value {
        Value::filled(self.value_size, rng.gen())
    }
}
