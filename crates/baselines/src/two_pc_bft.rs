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

/// Build a deployment whose clients run read-only operations through
/// 2PC/BFT. Everything else matches [`Deployment::build`].
pub fn build_two_pc_bft(
    mut config: DeploymentConfig,
    client_ops: Vec<Vec<ClientOp>>,
) -> Deployment {
    config.client.rot_via_2pc = true;
    Deployment::build(config, client_ops)
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
