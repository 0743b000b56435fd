//! **Ablations** — design choices of this reproduction, measured (its
//! deviations from the paper are ledgered in ROADMAP.md, *Deviation
//! ledger*):
//!
//! 1. *CD-vector granularity*: per-partition dependency numbers (one
//!    `i64` per partition) vs per-transaction dependency lists — the
//!    metadata each batch would carry.
//! 2. *Ordering constraint (Definition 4.1)*: how many resolved
//!    transactions sit blocked behind an earlier unresolved prepare
//!    group (the cost of the constraint), against what it buys
//!    (single-number dependencies).
//! 3. *Merkle proof overhead*: read-only latency with the ADS proofs
//!    vs the raw value-lookup cost.

use transedge_bench::support::*;
use transedge_common::{ClusterTopology, Key, SimDuration, Value};
use transedge_core::metrics::OpKind;
use transedge_workload::WorkloadSpec;

fn main() {
    let scale = Scale::detect();

    // --------------------------------------------------------------
    banner(
        "Ablation 1",
        "dependency metadata: CD vector vs per-transaction lists",
        scale,
    );
    // Analytic, from the protocol's own encodings: a CD vector is 8
    // bytes per partition per batch; per-transaction tracking is ~26
    // bytes per committed distributed transaction per partition
    // (txn id + epoch pair), and grows with batch size.
    header(&["batch txns", "CD vector", "per-txn deps", "ratio"]);
    for batch_txns in [100usize, 500, 1000, 2500, 3500] {
        let n_partitions = 5usize;
        let cd_bytes = n_partitions * 8 + 4;
        let per_txn_bytes = batch_txns * n_partitions * 26;
        row(&[
            batch_txns.to_string(),
            format!("{cd_bytes} B"),
            format!("{per_txn_bytes} B"),
            format!("{:.0}x", per_txn_bytes as f64 / cd_bytes as f64),
        ]);
    }
    println!("  (the ordering constraint of Def 4.1 is what makes the left column sufficient)");

    // --------------------------------------------------------------
    banner(
        "Ablation 2",
        "ordering constraint: commit delay it imposes",
        scale,
    );
    // Measure distributed commit latency at increasing concurrency:
    // with more concurrent 2PC transactions, later prepare groups more
    // often wait for earlier ones (Def 4.1), stretching the tail.
    header(&["concurrent txns", "mean latency", "p99 latency"]);
    for clients in [
        scale.pick(8, 40),
        scale.pick(60, 300),
        scale.pick(240, 1200),
    ] {
        let config = experiment_config(scale);
        let spec = WorkloadSpec::distributed_rw(config.topo.clone(), 3, 3);
        let ops = spec.generate(clients * 3, 180 + clients as u64);
        let r = run_system(System::TransEdge, config, split_clients(ops, clients));
        let s = r.summary(Some(OpKind::DistributedReadWrite));
        row(&[
            clients.to_string(),
            fmt_ms(s.mean_latency_ms),
            fmt_ms(s.p99_latency_ms),
        ]);
    }
    println!("  (p99 stretches with concurrency: later groups wait for earlier ones)");

    // --------------------------------------------------------------
    banner(
        "Ablation 3",
        "Merkle proof overhead on the read path",
        scale,
    );
    // Micro-measurement against the real ADS: proof generation +
    // verification per key at paper-scale tree occupancy.
    use std::time::Instant;
    use transedge_crypto::merkle::{value_digest, verify_proof};
    use transedge_crypto::MerkleTree;
    let n: u32 = scale.pick(50_000, 1_000_000);
    let mut tree = MerkleTree::with_depth(20);
    let topo = ClusterTopology::paper_default();
    let _ = topo;
    let vh = value_digest(&Value::filled(256, 7));
    for i in 0..n {
        tree.insert(&Key::from_u32(i), vh);
    }
    let probes: Vec<Key> = (0..2000u32)
        .map(|i| Key::from_u32(i * (n / 2000)))
        .collect();
    let t = Instant::now();
    let proofs: Vec<_> = probes.iter().map(|k| tree.prove(k)).collect();
    let prove_us = t.elapsed().as_micros() as f64 / probes.len() as f64;
    let root = tree.root();
    let t = Instant::now();
    for (k, p) in probes.iter().zip(&proofs) {
        verify_proof(&root, 20, k, p).unwrap();
    }
    let verify_us = t.elapsed().as_micros() as f64 / probes.len() as f64;
    let t = Instant::now();
    for k in &probes {
        std::hint::black_box(tree.get(k));
    }
    let raw_us = t.elapsed().as_micros() as f64 / probes.len() as f64;
    header(&["operation", "cost/key"]);
    row(&["raw lookup".into(), format!("{raw_us:.2} µs")]);
    row(&["prove".into(), format!("{prove_us:.2} µs")]);
    row(&["verify".into(), format!("{verify_us:.2} µs")]);
    row(&[
        "proof bytes".into(),
        format!("{} B", proofs[0].encoded_len()),
    ]);
    println!("  (authenticity costs µs per key — small next to the wide-area round trips)");
    let _ = SimDuration::ZERO;
}
