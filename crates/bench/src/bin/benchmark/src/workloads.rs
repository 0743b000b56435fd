//! The seven whole-deployment workloads and the benchmark's own fixed
//! configuration. Everything a run feeds the program is made here,
//! from the seed alone.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use transedge_common::{ClusterId, ClusterTopology, Key, SimDuration, Value};
use transedge_core::client::{ClientConfig, ClientOp};
use transedge_core::setup::{ClientPlan, DeploymentConfig};
use transedge_core::{CacheConfig, ClientProfile, EdgeConfig, NodeConfig, QueryShape};
use transedge_crypto::{sha256, ScanRange};
use transedge_simnet::{CostModel, FaultPlan, LatencyModel};
use transedge_workload::{KeyDistribution, WorkloadSpec};

pub const N_CLUSTERS: u16 = 5;
pub const FAULT_TOLERANCE: u16 = 1;
pub const N_KEYS: u32 = 10_000;
pub const VALUE_SIZE: usize = 256;
pub const TREE_DEPTH: u32 = 16;
/// Scan window of `scan-edge`, in tree-order buckets.
pub const SCAN_WIDTH: u64 = 256;
/// Keys per single-partition read of `multi-edge-hot`.
pub const MULTI_KEYS: usize = 6;
/// Keys per partition the `feed-churn` writers overwrite: two per
/// writer, so the hot set is 80 keys and writers never conflict.
const HOT_PER_PARTITION: usize = 16;
const GOSSIP_INTERVAL: SimDuration = SimDuration::from_millis(20);
const FEED_INTERVAL: SimDuration = SimDuration::from_millis(50);

/// What one workload's reads look like — the layer pass shapes its
/// inputs from this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadShape {
    /// Point reads of this many keys per touched partition.
    Points(usize),
    /// Range scans of this many buckets.
    Scan(u64),
}

/// One named workload: who runs what against which deployment.
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what it stresses and what it
    /// bypasses.
    pub why: &'static str,
    pub shape: ReadShape,
    /// Keys written per read-write transaction (0: read-only).
    pub writes_per_txn: usize,
    build: fn(u64) -> (DeploymentConfig, Vec<ClientPlan>),
}

impl Workload {
    /// Deployment configuration and client plans for `seed`.
    pub fn inputs(&self, seed: u64) -> (DeploymentConfig, Vec<ClientPlan>) {
        (self.build)(seed)
    }
}

pub const ALL: [Workload; 7] = [
    Workload {
        name: "rot-direct",
        why: "48 clients x 60 zipfian 5-key/5-cluster ROTs straight from replicas: client verify and replica serve do everything, edge code nothing; the control for every edge feature",
        shape: ReadShape::Points(1),
        writes_per_txn: 0,
        build: rot_direct,
    },
    Workload {
        name: "rot-edge",
        why: "the rot-direct scripts through one edge per cluster, replay cache an eighth of the touched keys: hot set replays, tail evicts and forwards; paired with rot-direct it is edge vs direct",
        shape: ReadShape::Points(1),
        writes_per_txn: 0,
        build: rot_edge,
    },
    Workload {
        name: "rot-edge-contact",
        why: "the same scripts sent whole to one edge contact (directory, sibling forwards, gather verification); paired with rot-edge it is single-contact vs fan-out",
        shape: ReadShape::Points(1),
        writes_per_txn: 0,
        build: rot_edge_contact,
    },
    Workload {
        name: "multi-edge-hot",
        why: "48 clients x 120 single-partition 6-key reads, half the fleet mirroring the other, cache fits: multiproof bodies, coalescer and zero-copy replay serve; replicas and the point shape idle",
        shape: ReadShape::Points(MULTI_KEYS),
        writes_per_txn: 0,
        build: multi_edge_hot,
    },
    Workload {
        name: "scan-edge",
        why: "16 clients x 500 verified 256-bucket scans via edges: range proofs, rows_at, SHA-256 and bandwidth dominate and signatures are a small share, which the point workloads hide",
        shape: ReadShape::Scan(SCAN_WIDTH),
        writes_per_txn: 0,
        build: scan_edge,
    },
    Workload {
        name: "mixed-rw",
        why: "8 clients x 120 ops of the paper mix (50% ROT, 20% local RW, 20% distributed RW, 10% write-only), no edges: consensus, OCC, apply_batch and 2PC beside reads; aborts and organic round 2",
        shape: ReadShape::Points(1),
        writes_per_txn: 3,
        build: mixed_rw,
    },
    Workload {
        name: "feed-churn",
        why: "8 writers churning an 80-key hot set beside 16 subscribed readers (2 warm keys + 1 hot) via feed-fed edges: push invalidation, feed-tail verification, round-2 skipping on the same cache",
        shape: ReadShape::Points(2),
        writes_per_txn: 2,
        build: feed_churn,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

pub fn topology() -> ClusterTopology {
    ClusterTopology::new(N_CLUSTERS, FAULT_TOLERANCE).expect("fixed topology is valid")
}

/// The benchmark's own deployment configuration, spelled out so a
/// change to a library default does not silently move the ruler.
fn base_config(seed: u64, edge: EdgeConfig) -> DeploymentConfig {
    DeploymentConfig {
        topo: topology(),
        node: NodeConfig {
            batch_interval: SimDuration::from_millis(5),
            max_batch_size: 2000,
            tree_depth: TREE_DEPTH,
            ..NodeConfig::default()
        },
        client: ClientConfig {
            // The invariant monitor checks recorded results.
            record_results: true,
            ..ClientConfig::default()
        },
        latency: LatencyModel {
            intra_cluster: SimDuration::from_micros(250),
            inter_cluster_base: SimDuration::from_millis(1),
            extra_inter_cluster: SimDuration::ZERO,
            client_local: SimDuration::from_millis(1),
            jitter_frac: 0.05,
            bytes_per_sec: Some(1_000_000_000 / 8),
            ..LatencyModel::paper_default()
        },
        cost: CostModel::calibrated(),
        faults: FaultPlan::none(),
        seed,
        n_keys: N_KEYS,
        value_size: VALUE_SIZE,
        edge,
    }
}

fn spec(base: WorkloadSpec) -> WorkloadSpec {
    WorkloadSpec {
        n_keys: N_KEYS,
        value_size: VALUE_SIZE,
        tree_depth: TREE_DEPTH,
        ..base
    }
}

fn plans(scripts: Vec<Vec<ClientOp>>) -> Vec<ClientPlan> {
    scripts.into_iter().map(ClientPlan::ops).collect()
}

fn one_edge_per_cluster() -> transedge_core::EdgeConfigBuilder {
    EdgeConfig::builder().per_cluster(1)
}

// ---- rot-direct / rot-edge / rot-edge-contact: one set of scripts ----

const ROT_OPS: usize = 60;

fn rot_scripts(seed: u64) -> Vec<Vec<ClientOp>> {
    spec(WorkloadSpec {
        distribution: KeyDistribution::Zipfian { theta: 0.99 },
        ..WorkloadSpec::scatter_points(topology(), 5, 5)
    })
    .generate_fleet(48, ROT_OPS, seed)
}

/// Replay-cache capacity (fragments per partition cache) an eighth of
/// the distinct keys the scripts touch in an average partition: the
/// zipfian head fits, the tail evicts.
fn rot_edge_cache(scripts: &[Vec<ClientOp>]) -> CacheConfig {
    let distinct: BTreeSet<&Key> = scripts.iter().flatten().flat_map(point_keys).collect();
    CacheConfig {
        capacity: (distinct.len() / (8 * N_CLUSTERS as usize)).max(1),
        ..CacheConfig::default()
    }
}

fn rot_direct(seed: u64) -> (DeploymentConfig, Vec<ClientPlan>) {
    (
        base_config(seed, EdgeConfig::none()),
        plans(rot_scripts(seed)),
    )
}

fn rot_edge(seed: u64) -> (DeploymentConfig, Vec<ClientPlan>) {
    let scripts = rot_scripts(seed);
    let edge = one_edge_per_cluster()
        .cache(rot_edge_cache(&scripts))
        .build()
        .expect("edge config");
    (base_config(seed, edge), plans(scripts))
}

fn rot_edge_contact(seed: u64) -> (DeploymentConfig, Vec<ClientPlan>) {
    let scripts = rot_scripts(seed);
    let edge = one_edge_per_cluster()
        .cache(rot_edge_cache(&scripts))
        .gossip_directory(GOSSIP_INTERVAL)
        .build()
        .expect("edge config");
    let contact = ClientProfile::new().single_contact();
    let plans = scripts
        .into_iter()
        .map(|ops| ClientPlan::with_profile(ops, contact))
        .collect();
    (base_config(seed, edge), plans)
}

// ---- the other four ---------------------------------------------------

fn multi_edge_hot(seed: u64) -> (DeploymentConfig, Vec<ClientPlan>) {
    const OPS: usize = 120;
    let fresh =
        spec(WorkloadSpec::throughput_points(topology(), MULTI_KEYS)).generate_fleet(24, OPS, seed);
    // The second half of the fleet repeats the first half one op
    // behind, so popular key sets recur just after their first answer
    // landed and edges replay admitted multiproof bodies.
    let lagged = fresh.iter().map(|script| {
        let mut ops = vec![script[0].clone()];
        ops.extend(script[..OPS - 1].iter().cloned());
        ops
    });
    let scripts: Vec<_> = fresh.iter().cloned().chain(lagged).collect();
    (base_config(seed, EdgeConfig::honest(1)), plans(scripts))
}

fn scan_edge(seed: u64) -> (DeploymentConfig, Vec<ClientPlan>) {
    let scripts = spec(WorkloadSpec::scans(topology(), SCAN_WIDTH)).generate_fleet(16, 500, seed);
    (base_config(seed, EdgeConfig::honest(1)), plans(scripts))
}

/// Eight clients, not the issue's 24: read latency here is multi-modal
/// (one, two or three rounds), and a percentile is only steady across
/// seeds while it sits inside a mode. At 8 clients about 70 % of reads
/// take one round and about 9 % three, so p50 and p95 each sit inside
/// one. At 24 x 40, half the reads take two rounds and the quartile
/// spread of `read_p95_ms` over ten seeds measured 12 %, 9 % and 23 %
/// on three sets of seeds — the driver refuses a benchmark at 25 %.
/// The 960 operations and ~480 reads are the issue's.
fn mixed_rw(seed: u64) -> (DeploymentConfig, Vec<ClientPlan>) {
    let scripts = spec(WorkloadSpec::paper_default(topology())).generate_fleet(8, 120, seed);
    (base_config(seed, EdgeConfig::none()), plans(scripts))
}

fn feed_churn(seed: u64) -> (DeploymentConfig, Vec<ClientPlan>) {
    const WRITERS: usize = 8;
    const WRITER_TXNS: usize = 12;
    const READERS: usize = 16;
    const READER_ROTS: usize = 30;
    let topo = topology();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6665_6564);
    let mut hot: Vec<Vec<Key>> = vec![Vec::new(); N_CLUSTERS as usize];
    let mut warm: Vec<Vec<Key>> = vec![Vec::new(); N_CLUSTERS as usize];
    for key in (0..N_KEYS).map(Key::from_u32) {
        let c = topo.partition_of(&key).as_usize();
        if hot[c].len() < HOT_PER_PARTITION {
            hot[c].push(key);
        } else {
            warm[c].push(key);
        }
    }
    // Which partitions an operation touches is fixed, so load is spread
    // the same way under every seed; the seed picks the keys.
    let n = N_CLUSTERS as usize;
    let partitions = |client: usize, op: usize| {
        let a = (client + op) % n;
        (a, (a + 1 + (client + op / n) % (n - 1)) % n)
    };
    let mut plans = Vec::with_capacity(WRITERS + READERS);
    // Writers: each commits cross-partition transactions over its own
    // two hot keys per partition (slices are disjoint, so writers
    // never conflict with each other).
    for w in 0..WRITERS {
        let ops = (0..WRITER_TXNS)
            .map(|t| {
                let (a, b) = partitions(w, t);
                let mut pick = |c: usize| {
                    let key = &hot[c][w + WRITERS * rng.gen_range(0..HOT_PER_PARTITION / WRITERS)];
                    (key.clone(), Value::filled(VALUE_SIZE, rng.gen()))
                };
                ClientOp::ReadWrite {
                    reads: Vec::new(),
                    writes: vec![pick(a), pick(b)],
                }
            })
            .collect();
        plans.push(ClientPlan::ops(ops));
    }
    // Readers: two never-written keys of the reader's home partition
    // (they stay warm in the edge cache) plus one hot key of another —
    // the stale-cache versus fresh-dependency tension that forces
    // round 2 unless the feed tail proves the warm keys current.
    for r in 0..READERS {
        let home = r % n;
        let mut pool: Vec<Key> = Vec::new();
        while pool.len() < 4 {
            let key = &warm[home][rng.gen_range(0..warm[home].len())];
            if !pool.contains(key) {
                pool.push(key.clone());
            }
        }
        let ops = (0..READER_ROTS)
            .map(|t| {
                let other = (home + 1 + (r + t) % (n - 1)) % n;
                let first = rng.gen_range(0..pool.len());
                ClientOp::ReadOnly {
                    keys: vec![
                        pool[first].clone(),
                        pool[(first + 1) % pool.len()].clone(),
                        hot[other][rng.gen_range(0..HOT_PER_PARTITION)].clone(),
                    ],
                }
            })
            .collect();
        plans.push(ClientPlan::with_profile(
            ops,
            ClientProfile::new().subscriber(),
        ));
    }
    let edge = one_edge_per_cluster()
        .cache(CacheConfig::default())
        .commit_feed(FEED_INTERVAL)
        .build()
        .expect("edge config");
    (base_config(seed, edge), plans)
}

// ---- script inspection --------------------------------------------------

/// Keys a point-shaped read names (empty for everything else).
pub fn point_keys(op: &ClientOp) -> &[Key] {
    match op {
        ClientOp::ReadOnly { keys } => keys,
        ClientOp::Query { query } => match &query.shape {
            QueryShape::Point { keys } => keys,
            QueryShape::Scan { .. } => &[],
        },
        _ => &[],
    }
}

/// The window a scan-shaped read names.
pub fn scan_window(op: &ClientOp) -> Option<(ClusterId, ScanRange)> {
    match op {
        ClientOp::RangeScan { cluster, range } => Some((*cluster, *range)),
        _ => None,
    }
}

/// Digest of every client's script, in order: the identity of a
/// workload's generated input.
pub fn script_digest(plans: &[ClientPlan]) -> String {
    let mut text = String::new();
    for plan in plans {
        text.push_str(&format!("{:?}\n", plan.ops));
    }
    sha256(text.as_bytes()).to_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(name: &str, seed: u64) -> String {
        script_digest(&by_name(name).unwrap().inputs(seed).1)
    }

    #[test]
    fn same_seed_same_scripts_other_seed_other_scripts() {
        // The two edge variants of rot-direct are held to its scripts
        // by the next test.
        for w in ALL.iter().filter(|w| !w.name.starts_with("rot-edge")) {
            let first = digest(w.name, 7);
            assert_eq!(first, digest(w.name, 7), "{}", w.name);
            assert_ne!(first, digest(w.name, 8), "{}", w.name);
        }
    }

    #[test]
    fn the_three_rot_workloads_share_their_scripts() {
        let direct = digest("rot-direct", 3);
        assert_eq!(digest("rot-edge", 3), direct);
        assert_eq!(digest("rot-edge-contact", 3), direct);
    }

    #[test]
    fn rot_edge_cache_is_smaller_than_the_touched_keys() {
        let (config, plans) = by_name("rot-edge").unwrap().inputs(1);
        let scripts: Vec<_> = plans.into_iter().map(|p| p.ops).collect();
        let distinct: BTreeSet<&Key> = scripts.iter().flatten().flat_map(point_keys).collect();
        let cap = config.edge.cache.capacity;
        assert!(cap >= 8 && cap * N_CLUSTERS as usize * 4 < distinct.len());
    }

    #[test]
    fn feed_churn_writers_never_share_a_key() {
        let (_, plans) = by_name("feed-churn").unwrap().inputs(5);
        let mut owner: std::collections::HashMap<Key, usize> = Default::default();
        for (w, plan) in plans.iter().enumerate() {
            for op in &plan.ops {
                if let ClientOp::ReadWrite { writes, .. } = op {
                    assert_eq!(writes.len(), 2);
                    for (key, _) in writes {
                        assert_eq!(*owner.entry(key.clone()).or_insert(w), w);
                    }
                }
            }
        }
    }

    #[test]
    fn op_counts_are_the_documented_constants() {
        let ops = |name: &str| -> Vec<usize> {
            by_name(name)
                .unwrap()
                .inputs(1)
                .1
                .iter()
                .map(|p| p.ops.len())
                .collect()
        };
        assert_eq!(ops("rot-direct"), vec![60; 48]);
        assert_eq!(ops("multi-edge-hot"), vec![120; 48]);
        assert_eq!(ops("scan-edge"), vec![500; 16]);
        assert_eq!(ops("mixed-rw"), vec![120; 8]);
        let churn = ops("feed-churn");
        assert_eq!(churn[..8], [12; 8]);
        assert_eq!(churn[8..], [30; 16]);
    }
}
