//! **Figure 4** — average latency of read-only transactions executed
//! over a 2PC/BFT system vs TransEdge, as the number of accessed
//! clusters grows from 1 to 5, with a third column for TransEdge
//! reads served through one untrusted edge cache per cluster.
//!
//! Paper result: TransEdge is 24× faster at 2 clusters, 9× at 5;
//! 2PC/BFT sits at 69–82 ms beyond one cluster.

use transedge_bench::support::*;
use transedge_core::metrics::OpKind;
use transedge_workload::WorkloadSpec;

fn main() {
    let scale = Scale::detect();
    banner(
        "Figure 4",
        "read-only latency: TransEdge vs 2PC/BFT vs edge tier, 1–5 clusters",
        scale,
    );
    let clients = scale.pick(8, 20);
    let ops_per_client = scale.pick(12, 50);
    let systems = [
        System::TwoPcBft,
        System::TransEdge,
        System::TransEdgeWithEdges,
    ];
    header(&["clusters", "2PC/BFT", "TransEdge", "TE+edge", "speedup"]);
    for clusters in 1..=5usize {
        let config = experiment_config(scale);
        let spec = WorkloadSpec::read_only(config.topo.clone(), 5.max(clusters), clusters);
        let lat = systems.map(|system| {
            let ops = spec.generate(clients * ops_per_client, 40 + clusters as u64);
            run_system(
                system,
                experiment_config(scale),
                split_clients(ops, clients),
            )
            .summary(Some(OpKind::ReadOnly))
            .mean_latency_ms
        });
        row(&[
            clusters.to_string(),
            fmt_ms(lat[0]),
            fmt_ms(lat[1]),
            fmt_ms(lat[2]),
            format!("{:.1}x", lat[0] / lat[1].max(1e-9)),
        ]);
    }
    paper_reference(&[
        "2PC/BFT:   ~12 ms at 1 cluster, 69–82 ms at 2–5 clusters",
        "TransEdge: ~1–8 ms across 1–5 clusters",
        "speedup:   24x at 2 clusters down to 9x at 5 clusters",
        "TE+edge:   extension tier (no paper counterpart)",
    ]);
}
