//! The paper's central correctness claim, checked on real executions:
//! **TransEdge guarantees serializability** for read-write *and*
//! read-only transactions (Theorems 3.4 and 4.5), via the
//! serializability-graph (SG) test of Bernstein et al. that the paper's
//! own proofs use.
//!
//! Method: run a contended mixed workload where every written value
//! encodes its writer, reconstruct per-key version orders from the
//! replicas' multi-version stores, build the SG over committed
//! transactions (wr / ww / rw edges) plus read-only transactions
//! (wr / rw edges), and assert it is acyclic.

use std::collections::{HashMap, HashSet};

use transedge::common::{ClusterId, ClusterTopology, Key, SimTime, Value};
use transedge::core::client::{ClientOp, QueryOutcome};
use transedge::core::setup::{Deployment, DeploymentConfig};

/// Node in the serializability graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
enum SgNode {
    /// The initial database state.
    Genesis,
    /// A committed read-write transaction, identified by its value tag.
    Txn(u32),
    /// A read-only transaction (client, index).
    Rot(u32, u32),
}

/// Parse the writer tag out of a written value ("txn:<tag>").
fn writer_of(value: &Value) -> SgNode {
    let s = String::from_utf8_lossy(value.as_bytes());
    match s
        .strip_prefix("txn:")
        .and_then(|t| t.split(':').next().and_then(|t| t.parse::<u32>().ok()))
    {
        Some(tag) => SgNode::Txn(tag),
        None => SgNode::Genesis,
    }
}

struct SgBuilder {
    edges: HashMap<SgNode, HashSet<SgNode>>,
}

impl SgBuilder {
    fn new() -> Self {
        SgBuilder {
            edges: HashMap::new(),
        }
    }

    fn edge(&mut self, from: SgNode, to: SgNode) {
        if from != to {
            self.edges.entry(from).or_default().insert(to);
        }
    }

    /// DFS cycle check; returns a cycle if one exists.
    fn find_cycle(&self) -> Option<Vec<SgNode>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks: HashMap<SgNode, Mark> = HashMap::new();
        let mut stack_path: Vec<SgNode> = Vec::new();
        // Iterative DFS with explicit stack.
        let nodes: Vec<SgNode> = self
            .edges
            .keys()
            .copied()
            .chain(self.edges.values().flatten().copied())
            .collect();
        for start in nodes {
            if marks.get(&start).copied().unwrap_or(Mark::White) != Mark::White {
                continue;
            }
            let mut stack: Vec<(SgNode, usize)> = vec![(start, 0)];
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                if *idx == 0 {
                    marks.insert(node, Mark::Grey);
                    stack_path.push(node);
                }
                let succs: Vec<SgNode> = self
                    .edges
                    .get(&node)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default();
                if *idx < succs.len() {
                    let next = succs[*idx];
                    *idx += 1;
                    match marks.get(&next).copied().unwrap_or(Mark::White) {
                        Mark::White => stack.push((next, 0)),
                        Mark::Grey => {
                            // Cycle found: slice the path from `next`.
                            let pos = stack_path.iter().position(|n| *n == next).unwrap();
                            let mut cycle = stack_path[pos..].to_vec();
                            cycle.push(next);
                            return Some(cycle);
                        }
                        Mark::Black => {}
                    }
                } else {
                    marks.insert(node, Mark::Black);
                    stack_path.pop();
                    stack.pop();
                }
            }
        }
        None
    }
}

/// Per-key committed version order: writer tags, oldest first
/// (including the genesis version when present).
fn version_orders(
    dep: &Deployment,
    keys: &[Key],
    topo: &ClusterTopology,
) -> HashMap<Key, Vec<SgNode>> {
    let mut orders = HashMap::new();
    for key in keys {
        let cluster = topo.partition_of(key);
        // Any correct replica's store works; take replica 0.
        let node = dep.node(transedge::common::ReplicaId::new(cluster, 0));
        let writers: Vec<SgNode> = node
            .exec
            .store
            .versions(key)
            .map(|versions| versions.iter().map(|v| writer_of(&v.value)).collect())
            .unwrap_or_default();
        orders.insert(key.clone(), writers);
    }
    orders
}

#[test]
fn mixed_contended_history_is_serializable() {
    let mut config = DeploymentConfig::for_testing();
    config.client.record_results = true;
    // Real latencies so interleavings are non-trivial.
    config.latency = transedge::simnet::LatencyModel::paper_default();
    let topo = config.topo.clone();

    // A small hot key set across both clusters → real contention.
    let hot: Vec<Key> = {
        let mut per_cluster: Vec<Vec<Key>> = topo
            .clusters()
            .map(|c| {
                (0u32..10_000)
                    .map(Key::from_u32)
                    .filter(|k| topo.partition_of(k) == c)
                    .take(12)
                    .collect()
            })
            .collect();
        let mut v = Vec::new();
        for c in per_cluster.iter_mut() {
            v.append(c);
        }
        v
    };

    // 6 writer clients × 8 ops: read one hot key, write two hot keys
    // (often crossing clusters); every value names its writer tag.
    let mut scripts: Vec<Vec<ClientOp>> = Vec::new();
    let mut tags_per_client: Vec<Vec<u32>> = Vec::new();
    let mut tag = 0u32;
    for c in 0..6u32 {
        let mut ops = Vec::new();
        let mut tags = Vec::new();
        for i in 0..8u32 {
            tag += 1;
            tags.push(tag);
            let read = hot[((c * 7 + i * 3) as usize) % hot.len()].clone();
            let w1 = hot[((c * 7 + i * 3 + 1) as usize) % hot.len()].clone();
            let w2 = hot[((c * 7 + i * 3 + 11) as usize) % hot.len()].clone();
            ops.push(ClientOp::ReadWrite {
                reads: vec![read],
                writes: vec![
                    (w1, Value::from(format!("txn:{tag}:a").as_str())),
                    (w2, Value::from(format!("txn:{tag}:b").as_str())),
                ],
            });
        }
        scripts.push(ops);
        tags_per_client.push(tags);
    }
    // 2 reader clients × 10 cross-cluster snapshot reads.
    for _ in 0..2 {
        let ops = (0..10)
            .map(|_| ClientOp::ReadOnly { keys: hot.clone() })
            .collect();
        scripts.push(ops);
    }

    let mut dep = Deployment::build(config, scripts);
    dep.run_until_done(SimTime(600_000_000));

    // ---- collect the history -------------------------------------
    // Map txn tag → outcome, reads; only committed ones enter the SG.
    // (Writer tags are unique across clients by construction.)
    let mut rots: Vec<(u32, u32, QueryOutcome)> = Vec::new();
    let mut committed_count = 0usize;
    let mut aborted_count = 0usize;
    for id in &dep.client_ids {
        let client = dep.client(*id);
        assert_eq!(client.stats.verification_failures, 0);
        // Deviation: Theorem 4.6 says two rounds always suffice, but a
        // ROT here can need a third (ledger: ROADMAP.md, *Deviation
        // ledger*). Fresh dependencies can ride into the round-two
        // response on group-mates with disjoint participant sets, so the
        // client loops until satisfied instead. Report — serializability
        // (checked below) holds regardless.
        if client.stats.third_round_needed > 0 {
            println!(
                "note: client {} needed {} extra ROT round(s)",
                client.id.0, client.stats.third_round_needed
            );
        }
        for (i, rot) in client.query_results.iter().enumerate() {
            rots.push((id.0, i as u32, rot.clone()));
        }
        for outcome in &client.txn_outcomes {
            if outcome.committed {
                committed_count += 1;
            } else {
                aborted_count += 1;
            }
        }
    }
    println!(
        "history: {committed_count} committed RW, {aborted_count} aborted RW, {} ROTs",
        rots.len()
    );
    assert!(committed_count > 10, "need a meaningful committed history");

    // ---- per-key version order from the stores --------------------
    let orders = version_orders(&dep, &hot, &topo);
    // Sanity: aborted transactions' writes must never appear.
    let committed_tags: HashSet<u32> = {
        // Tags present in stores are exactly the committed writers.
        orders
            .values()
            .flatten()
            .filter_map(|n| match n {
                SgNode::Txn(t) => Some(*t),
                _ => None,
            })
            .collect()
    };

    // ---- build the SG ---------------------------------------------
    let mut sg = SgBuilder::new();
    // ww and genesis edges from version order.
    for writers in orders.values() {
        let mut prev = SgNode::Genesis;
        for &w in writers {
            sg.edge(prev, w);
            prev = w;
        }
    }
    // RW transactions' wr/rw edges come from their committed reads.
    // Outcomes are recorded in op order, so the i-th outcome of writer
    // client c carries tag tags_per_client[c][i] — the same node its
    // writes appear under in the version orders, which is what lets
    // the SG see read->write cycles through a single transaction.
    for id in &dep.client_ids {
        let client = dep.client(*id);
        let Some(tags) = tags_per_client.get(id.0 as usize) else {
            continue; // a reader client
        };
        for (i, outcome) in client.txn_outcomes.iter().enumerate() {
            if !outcome.committed {
                continue;
            }
            let reader = SgNode::Txn(tags[i]);
            for (key, read_value) in &outcome.reads {
                let writer = match read_value {
                    Some(v) => writer_of(v),
                    None => SgNode::Genesis,
                };
                if let SgNode::Txn(t) = writer {
                    if !committed_tags.contains(&t) {
                        panic!("committed txn read a value from an uncommitted writer");
                    }
                }
                sg.edge(writer, reader);
                // rw edge: reader → writer of the *next* version.
                if let Some(order) = orders.get(key) {
                    // The genesis version is order[0], so position()
                    // finds every writer uniformly; the rw edge goes to
                    // the version that overwrote the one read.
                    if let Some(p) = order.iter().position(|w| *w == writer) {
                        if let Some(next_writer) = order.get(p + 1).copied() {
                            sg.edge(reader, next_writer);
                        }
                    }
                }
            }
        }
    }
    // ROT edges: wr from each value's writer, rw to the next writer.
    for (cid, idx, rot) in &rots {
        let node = SgNode::Rot(*cid, *idx);
        for (key, value) in &rot.values {
            let writer = match value {
                Some(v) => writer_of(v),
                None => SgNode::Genesis,
            };
            sg.edge(writer, node);
            if let Some(order) = orders.get(key) {
                if let Some(p) = order.iter().position(|w| *w == writer) {
                    if let Some(next_writer) = order.get(p + 1).copied() {
                        sg.edge(node, next_writer);
                    }
                }
            }
        }
    }

    // ---- the SG test ----------------------------------------------
    if let Some(cycle) = sg.find_cycle() {
        panic!("serializability violated — SG cycle: {cycle:?}");
    }
}

#[test]
fn replicas_converge_to_identical_state() {
    // After a mixed run, every replica of a cluster must hold the same
    // Merkle root and the same applied-batch count — the determinism
    // the whole design rests on.
    let config = DeploymentConfig::for_testing();
    let topo = config.topo.clone();
    let keys: Vec<Key> = (0u32..10_000)
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == ClusterId(0))
        .take(6)
        .chain(
            (0u32..10_000)
                .map(Key::from_u32)
                .filter(|k| topo.partition_of(k) == ClusterId(1))
                .take(6),
        )
        .collect();
    let mut scripts = Vec::new();
    for c in 0..4usize {
        let ops = (0..6)
            .map(|i| ClientOp::ReadWrite {
                reads: vec![],
                writes: vec![
                    (keys[(c + i) % keys.len()].clone(), Value::from("x")),
                    (keys[(c + i + 5) % keys.len()].clone(), Value::from("y")),
                ],
            })
            .collect();
        scripts.push(ops);
    }
    let mut dep = Deployment::build(config, scripts);
    dep.run_until_done(SimTime(600_000_000));
    for cluster in topo.clusters() {
        let reference = dep.node(transedge::common::ReplicaId::new(cluster, 0));
        let ref_applied = reference.exec.applied_batches();
        let ref_root = reference.exec.tree.root_at(ref_applied - 1);
        assert!(ref_applied >= 1);
        for r in topo.replicas_of(cluster).skip(1) {
            let node = dep.node(r);
            assert_eq!(
                node.exec.applied_batches(),
                ref_applied,
                "{r} applied-count diverged"
            );
            assert_eq!(
                node.exec.tree.root_at(ref_applied - 1),
                ref_root,
                "{r} merkle root diverged"
            );
        }
    }
}
