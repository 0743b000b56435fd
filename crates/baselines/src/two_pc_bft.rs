//! The 2PC/BFT baseline (paper §3.5).
//!
//! Same clusters, same consensus, same 2PC layer — but no read-only
//! segment shortcuts: a read-only transaction reads its keys (any
//! replica), then *commits* through the full machinery: BFT agreement
//! in every accessed cluster plus two-phase commit across them. This is
//! the cost TransEdge's snapshot reads avoid, and what Figure 4
//! contrasts.

use transedge_core::client::ClientOp;
use transedge_core::setup::{Deployment, DeploymentConfig};
use transedge_core::{QueryShape, ReadQuery, SnapshotPolicy};

/// Build a deployment whose clients run read-only operations through
/// 2PC/BFT: every point read at the latest snapshot in `client_ops` —
/// the `ReadOnly` sugar or the `Query` it stands for — becomes a
/// read-write transaction with no writes, which the client tags
/// `OpKind::ReadOnly`. Everything else matches [`Deployment::build`].
/// Only the scripts are rewritten: a tail handed to
/// [`Deployment::retarget_client_ops`] would run TransEdge reads.
pub fn build_two_pc_bft(config: DeploymentConfig, client_ops: Vec<Vec<ClientOp>>) -> Deployment {
    let scripts = client_ops
        .into_iter()
        .map(|ops| ops.into_iter().map(via_2pc).collect())
        .collect();
    Deployment::build(config, scripts)
}

/// A point read at the latest snapshot as a read-write transaction with
/// an empty write set; any other op as it is.
fn via_2pc(op: ClientOp) -> ClientOp {
    match op {
        ClientOp::ReadOnly { keys }
        | ClientOp::Query {
            query:
                ReadQuery {
                    consistency: SnapshotPolicy::Latest,
                    shape: QueryShape::Point { keys },
                    ..
                },
        } => ClientOp::ReadWrite {
            reads: keys,
            writes: vec![],
        },
        op => op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transedge_common::{ClusterId, Key, SimTime, Value};
    use transedge_core::metrics::OpKind;
    use transedge_core::ReadQuery;

    fn keys_on(
        topo: &transedge_common::ClusterTopology,
        cluster: ClusterId,
        count: usize,
    ) -> Vec<Key> {
        (0u32..10_000)
            .map(Key::from_u32)
            .filter(|k| topo.partition_of(k) == cluster)
            .take(count)
            .collect()
    }

    /// A point read at the latest snapshot commits through 2PC/BFT
    /// whether it is written as the `ReadOnly` sugar or as the `Query`
    /// it stands for: admitted like any transaction, never served as a
    /// snapshot read.
    #[test]
    fn baseline_rot_commits_and_is_tagged_read_only() {
        let config = DeploymentConfig::for_testing();
        let topo = config.topo.clone();
        let k0 = keys_on(&topo, ClusterId(0), 1);
        let k1 = keys_on(&topo, ClusterId(1), 1);
        let keys = vec![k0[0].clone(), k1[0].clone()];
        let reads = [
            ClientOp::ReadOnly { keys: keys.clone() },
            ClientOp::Query {
                query: ReadQuery::point(keys),
            },
        ];
        for op in reads {
            let mut dep = build_two_pc_bft(config.clone(), vec![vec![op.clone()]]);
            dep.run_until_done(SimTime(60_000_000));
            let samples = dep.samples();
            assert_eq!(samples.len(), 1, "{op:?}");
            assert!(samples[0].committed, "{op:?}");
            assert_eq!(samples[0].kind, OpKind::ReadOnly, "{op:?}");
            let replicas: Vec<_> = topo.all_replicas().map(|r| dep.node(r)).collect();
            assert!(
                replicas.iter().any(|node| node.stats.txns_admitted > 0),
                "{op:?} went through admission"
            );
            assert!(
                replicas.iter().all(|node| node.stats.rot_served == 0),
                "{op:?} was served as a snapshot read"
            );
        }
    }

    #[test]
    fn baseline_rot_is_slower_than_snapshot_rot() {
        // The headline comparison (Figure 4), in miniature: run the
        // same distributed read-only op through both systems with the
        // paper-like latency model and compare.
        let mk_config = || {
            let mut c = DeploymentConfig::for_testing();
            c.latency = transedge_simnet::LatencyModel::paper_default();
            c
        };
        let topo = mk_config().topo.clone();
        let k0 = keys_on(&topo, ClusterId(0), 1);
        let k1 = keys_on(&topo, ClusterId(1), 1);
        let ops = vec![ClientOp::ReadOnly {
            keys: vec![k0[0].clone(), k1[0].clone()],
        }];

        let mut baseline = build_two_pc_bft(mk_config(), vec![ops.clone()]);
        baseline.run_until_done(SimTime(120_000_000));
        let baseline_latency = baseline.samples()[0].latency();

        let mut transedge = Deployment::build(mk_config(), vec![ops]);
        transedge.run_until_done(SimTime(120_000_000));
        let te_latency = transedge.samples()[0].latency();

        assert!(
            baseline_latency > te_latency,
            "2PC/BFT ROT ({baseline_latency}) must exceed TransEdge ROT ({te_latency})"
        );
    }

    /// The baseline is the script rewrite and nothing else: its read
    /// runs exactly as the same keys read by a read-write transaction
    /// with no writes on a plain deployment, and both are tagged
    /// read-only.
    #[test]
    fn baseline_rot_is_a_read_write_transaction_without_writes() {
        let mut config = DeploymentConfig::for_testing();
        config.latency = transedge_simnet::LatencyModel::paper_default();
        let topo = config.topo.clone();
        let k0 = keys_on(&topo, ClusterId(0), 3);
        let k1 = keys_on(&topo, ClusterId(1), 3);
        let reads: Vec<Vec<Key>> = (0..3).map(|i| vec![k0[i].clone(), k1[i].clone()]).collect();
        let rots = reads
            .iter()
            .map(|keys| ClientOp::ReadOnly { keys: keys.clone() })
            .collect();
        let txns = reads
            .into_iter()
            .map(|reads| ClientOp::ReadWrite {
                reads,
                writes: vec![],
            })
            .collect();
        let mut baseline = build_two_pc_bft(config.clone(), vec![rots]);
        baseline.run_until_done(SimTime(60_000_000));
        let mut plain = Deployment::build(config, vec![txns]);
        plain.run_until_done(SimTime(60_000_000));
        let (baseline, plain) = (baseline.samples(), plain.samples());
        assert_eq!(plain.len(), 3);
        assert!(plain.iter().all(|s| s.kind == OpKind::ReadOnly));
        assert_eq!(format!("{baseline:?}"), format!("{plain:?}"));
    }

    #[test]
    fn baseline_read_write_path_is_unchanged() {
        let config = DeploymentConfig::for_testing();
        let topo = config.topo.clone();
        let k0 = keys_on(&topo, ClusterId(0), 2);
        let ops = vec![ClientOp::ReadWrite {
            reads: vec![k0[0].clone()],
            writes: vec![(k0[1].clone(), Value::from("w"))],
        }];
        let mut dep = build_two_pc_bft(config, vec![ops]);
        dep.run_until_done(SimTime(60_000_000));
        let samples = dep.samples();
        assert!(samples[0].committed);
        assert_eq!(samples[0].kind, OpKind::LocalReadWrite);
    }
}
