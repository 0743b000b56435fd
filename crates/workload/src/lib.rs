//! # transedge-workload
//!
//! The workload generator behind every experiment: "The workload
//! generator is inspired by YCSB and its transactional extensions. The
//! workload generator generates operations based on the provided
//! ratios. A key for each operation is also picked randomly. Then, a
//! group of operations are bundled into a transaction." (paper §5.1).
//!
//! Parameters mirror the paper's: total key count (1M at paper scale),
//! 4-byte keys / 256-byte values, uniform key choice via hashing
//! (zipfian offered as an extension), per-transaction read and write
//! counts, the share of each transaction type, and — for distributed
//! transactions — how many clusters each transaction spans.

pub mod spec;
pub mod zipf;

pub use spec::{KeyDistribution, Mix, WorkloadSpec};
pub use zipf::Zipfian;

#[cfg(test)]
mod tests {
    use transedge_common::ClusterTopology;
    use transedge_core::client::ClientOp;

    use crate::spec::{Mix, WorkloadSpec};

    fn topo() -> ClusterTopology {
        ClusterTopology::paper_default()
    }

    #[test]
    fn scatter_points_span_their_partitions() {
        let t = topo();
        let spec = WorkloadSpec::scatter_points(t.clone(), 4, 2);
        for op in spec.generate(48, 11) {
            let ClientOp::ReadOnly { keys } = op else {
                panic!("scatter points must be point reads, got {op:?}");
            };
            assert!(!keys.is_empty() && keys.len() <= 4);
            let mut clusters: Vec<_> = keys.iter().map(|k| t.partition_of(k)).collect();
            clusters.sort_unstable();
            clusters.dedup();
            assert_eq!(clusters.len(), 2, "each read spans two partitions");
        }
    }

    #[test]
    fn hot_offset_moves_the_zipfian_hot_set() {
        use crate::spec::KeyDistribution;
        use std::collections::HashMap;
        use transedge_common::Key;

        let spec = WorkloadSpec {
            distribution: KeyDistribution::Zipfian { theta: 0.99 },
            ..WorkloadSpec::read_only(topo(), 5, 5)
        };
        let shifted = spec.clone().with_hot_offset(1_000);
        assert_eq!(spec.hot_offset, 0);
        assert_eq!(shifted.hot_offset, 1_000);

        let top_key = |s: &WorkloadSpec| -> Key {
            let mut counts: HashMap<Key, usize> = HashMap::new();
            for op in s.generate(400, 17) {
                let ClientOp::ReadOnly { keys } = op else {
                    panic!()
                };
                for k in keys {
                    *counts.entry(k).or_default() += 1;
                }
            }
            counts.into_iter().max_by_key(|(_, n)| *n).unwrap().0
        };
        // Same seed, same mass distribution — but the crowd lands on a
        // different hot key once the offset rotates the rank mapping.
        assert_ne!(top_key(&spec), top_key(&shifted));
    }

    #[test]
    fn generates_requested_count() {
        let spec = WorkloadSpec::paper_default(topo());
        let ops = spec.generate(100, 7);
        assert_eq!(ops.len(), 100);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let spec = WorkloadSpec::paper_default(topo());
        let a = format!("{:?}", spec.generate(50, 3));
        let b = format!("{:?}", spec.generate(50, 3));
        let c = format!("{:?}", spec.generate(50, 4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn read_only_mix_produces_only_rots() {
        let spec = WorkloadSpec::read_only(topo(), 5, 5);
        for op in spec.generate(64, 1) {
            match op {
                ClientOp::ReadOnly { keys } => assert_eq!(keys.len(), 5),
                other => panic!("unexpected op {other:?}"),
            }
        }
    }

    #[test]
    fn rot_spans_requested_cluster_count() {
        let t = topo();
        for clusters in 1..=5usize {
            let spec = WorkloadSpec::read_only(t.clone(), clusters, clusters);
            for op in spec.generate(32, 9) {
                let ClientOp::ReadOnly { keys } = op else {
                    panic!()
                };
                let mut parts: Vec<_> = keys.iter().map(|k| t.partition_of(k)).collect();
                parts.sort_unstable();
                parts.dedup();
                assert_eq!(parts.len(), clusters, "want {clusters} clusters");
            }
        }
    }

    #[test]
    fn distributed_rw_span_follows_write_count() {
        let t = topo();
        for writes in 1..=5usize {
            let spec = WorkloadSpec::distributed_rw(t.clone(), 5, writes);
            for op in spec.generate(16, 5 + writes as u64) {
                let ClientOp::ReadWrite { reads, writes: w } = op else {
                    panic!()
                };
                assert_eq!(reads.len(), 5);
                assert_eq!(w.len(), writes);
                let mut parts: Vec<_> = reads
                    .iter()
                    .chain(w.iter().map(|(k, _)| k))
                    .map(|k| t.partition_of(k))
                    .collect();
                parts.sort_unstable();
                parts.dedup();
                // The write count bounds the participation span (§5.2:
                // "R=5,W=1 essentially means local-read-write").
                assert!(
                    parts.len() <= writes.max(1),
                    "span {} > writes {}",
                    parts.len(),
                    writes
                );
            }
        }
    }

    #[test]
    fn local_rw_stays_in_one_cluster() {
        let t = topo();
        let spec = WorkloadSpec::local_rw(t.clone(), 2, 2);
        for op in spec.generate(32, 5) {
            let ClientOp::ReadWrite { reads, writes } = op else {
                panic!()
            };
            let mut parts: Vec<_> = reads
                .iter()
                .chain(writes.iter().map(|(k, _)| k))
                .map(|k| t.partition_of(k))
                .collect();
            parts.sort_unstable();
            parts.dedup();
            assert_eq!(parts.len(), 1);
        }
    }

    #[test]
    fn mix_ratios_roughly_hold() {
        let t = topo();
        let spec = WorkloadSpec {
            mix: Mix {
                read_only_pct: 50,
                local_rw_pct: 30,
                distributed_rw_pct: 20,
                write_only_pct: 0,
            },
            ..WorkloadSpec::paper_default(t)
        };
        let ops = spec.generate(2000, 11);
        let rot = ops
            .iter()
            .filter(|o| matches!(o, ClientOp::ReadOnly { .. }))
            .count();
        let frac = rot as f64 / ops.len() as f64;
        assert!((0.45..0.55).contains(&frac), "rot fraction {frac}");
    }

    #[test]
    fn scan_mix_produces_valid_aligned_windows() {
        let t = topo();
        let spec = WorkloadSpec {
            scan_pct: 50,
            scan_buckets: 256,
            ..WorkloadSpec::paper_default(t.clone())
        };
        let ops = spec.generate(400, 13);
        let scans: Vec<_> = ops
            .iter()
            .filter_map(|o| match o {
                ClientOp::RangeScan { cluster, range } => Some((*cluster, *range)),
                _ => None,
            })
            .collect();
        let frac = scans.len() as f64 / ops.len() as f64;
        assert!((0.4..0.6).contains(&frac), "scan fraction {frac}");
        for (cluster, range) in &scans {
            assert!(cluster.as_usize() < t.n_clusters());
            assert!(range.is_valid_for_depth(spec.tree_depth));
            assert_eq!(range.width(), 256);
            assert_eq!(range.first % 256, 0, "windows are aligned");
        }
        // The aligned vocabulary repeats windows (cache reuse fodder).
        let mut distinct: Vec<_> = scans.iter().collect();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() < scans.len());
        // 100%-scan constructor emits nothing but scans.
        for op in WorkloadSpec::scans(t, 128).generate(32, 5) {
            assert!(matches!(op, ClientOp::RangeScan { .. }));
        }
    }

    #[test]
    fn keys_stay_in_range() {
        let spec = WorkloadSpec {
            n_keys: 100,
            ..WorkloadSpec::paper_default(topo())
        };
        for op in spec.generate(100, 2) {
            let keys: Vec<_> = match &op {
                ClientOp::ReadOnly { keys } => keys.clone(),
                ClientOp::ReadWrite { reads, writes } => reads
                    .iter()
                    .cloned()
                    .chain(writes.iter().map(|(k, _)| k.clone()))
                    .collect(),
                // Scans name bucket windows, not keys.
                ClientOp::RangeScan { .. } | ClientOp::Query { .. } => Vec::new(),
            };
            for k in keys {
                let i = u32::from_be_bytes(k.as_bytes().try_into().unwrap());
                assert!(i < 100);
            }
        }
    }
}
