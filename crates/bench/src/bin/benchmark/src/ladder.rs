//! The traced layer pass: after a workload's last repetition, with the
//! finished deployment still alive, time calls into each crate's
//! public functions on that deployment's real state (µs per call,
//! median of [`CALLS`] calls, inputs shaped by the workload) and record
//! a span around every call.
//!
//! Program symbols are limited to the ones the ROADMAP keeps — see the
//! README's list before deleting any of them.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use transedge_common::{
    BatchNum, ClientId, ClusterId, ClusterTopology, EdgeId, Epoch, Key, NodeId, ReplicaId, TxnId,
    Value,
};
use transedge_consensus::messages::accept_statement;
use transedge_consensus::Certificate;
use transedge_core::batch::{ReadOp, Transaction, WriteOp};
use transedge_core::conflict::{self, Footprint};
use transedge_core::setup::{ClientPlan, Deployment};
use transedge_core::{NetMsg, ReadPayload, ReadQuery};
use transedge_crypto::merkle::value_digest;
use transedge_crypto::{
    sha256, verify_multi_proof, verify_range_proof, KeyStore, Keypair, MerkleProof, MultiProof,
    RangeProof, ScanRange, VersionedMerkleTree,
};
use transedge_edge::{LruCache, ReadPipeline, ReadVerifier, SnapshotSource, VerifyParams};
use transedge_obs::MetricRegistry;
use transedge_simnet::{
    Actor, Context, CostModel, FaultPlan, LatencyModel, SimMessage, Simulation,
};

use crate::run::Rep;
use crate::spans::{scope, Recorder};
use crate::workloads::{
    point_keys, scan_window, topology, ReadShape, Workload, SCAN_WIDTH, TREE_DEPTH,
};

/// Calls per rung.
pub const CALLS: usize = 200;
/// Calls per span for rungs far below a microsecond, so the two clock
/// reads do not dominate.
const TIGHT: usize = 64;
const IDLE_EVENTS: u64 = 200_000;

type Named = Vec<(&'static str, f64)>;

pub struct Ladder {
    pub metrics: Named,
    /// Contents of `trace-<workload>.json`.
    pub trace_json: String,
}

/// A [`SnapshotSource`] that records a child span per call.
struct TracedSource<'a, S: SnapshotSource> {
    inner: &'a S,
    rec: &'a RefCell<Recorder>,
    trace: &'a Cell<u64>,
}

impl<S: SnapshotSource> SnapshotSource for TracedSource<'_, S> {
    fn value_at(&self, key: &Key, batch: BatchNum) -> Option<Value> {
        scope(self.rec, "storage.value_at", self.trace.get(), || {
            self.inner.value_at(key, batch)
        })
    }

    fn prove_at(&self, key: &Key, batch: BatchNum) -> MerkleProof {
        scope(self.rec, "crypto.merkle.prove_at", self.trace.get(), || {
            self.inner.prove_at(key, batch)
        })
    }

    fn rows_at(&self, range: &ScanRange, batch: BatchNum) -> Vec<(Key, Value)> {
        scope(self.rec, "storage.rows_at", self.trace.get(), || {
            self.inner.rows_at(range, batch)
        })
    }

    fn prove_range(&self, range: &ScanRange, batch: BatchNum) -> RangeProof {
        scope(self.rec, "crypto.range.prove", self.trace.get(), || {
            self.inner.prove_range(range, batch)
        })
    }

    fn prove_multi(&self, keys: &[Key], batch: BatchNum) -> MultiProof {
        scope(
            self.rec,
            "crypto.merkle.prove_multi",
            self.trace.get(),
            || self.inner.prove_multi(keys, batch),
        )
    }
}

/// Collects the responses to the reads the pass injects.
struct Probe {
    got: Vec<(u64, ReadPayload, usize)>,
}

impl Actor<NetMsg> for Probe {
    fn on_message(&mut self, _from: NodeId, msg: NetMsg, _ctx: &mut Context<'_, NetMsg>) {
        let size = msg.size_bytes();
        if let NetMsg::ReadResult { req, result } = msg {
            self.got.push((req, result, size));
        }
    }
}

const PROBE: NodeId = NodeId::Client(ClientId(u32::MAX));

/// The workload's own reads as per-partition sub-queries, clients
/// taking turns, first `limit`.
fn sub_queries(
    topo: &ClusterTopology,
    plans: &[ClientPlan],
    limit: usize,
) -> Vec<(ClusterId, ReadQuery)> {
    let longest = plans.iter().map(|p| p.ops.len()).max().unwrap_or(0);
    let mut out = Vec::new();
    for turn in 0..longest {
        for plan in plans {
            let Some(op) = plan.ops.get(turn) else {
                continue;
            };
            let subscribed = plan.profile.is_some_and(|p| p.subscribe);
            let mut by_partition: BTreeMap<ClusterId, Vec<Key>> = BTreeMap::new();
            for key in point_keys(op) {
                by_partition
                    .entry(topo.partition_of(key))
                    .or_default()
                    .push(key.clone());
            }
            for (cluster, keys) in by_partition {
                let query = ReadQuery::point(keys);
                out.push((
                    cluster,
                    if subscribed {
                        query.with_feed_freshness()
                    } else {
                        query
                    },
                ));
            }
            if let Some((cluster, range)) = scan_window(op) {
                out.push((cluster, ReadQuery::scan(cluster, range)));
            }
            if out.len() >= limit {
                out.truncate(limit);
                return out;
            }
        }
    }
    out
}

/// Send `queries` to the tier the workload's clients read from and
/// collect the real responses.
fn capture(
    dep: &mut Deployment,
    queries: &[(ClusterId, ReadQuery)],
) -> Result<Vec<(ReadPayload, usize)>, String> {
    dep.sim
        .add_actor(PROBE, Box::new(Probe { got: Vec::new() }));
    let via_edges = !dep.edge_ids.is_empty();
    for (req, (cluster, query)) in queries.iter().enumerate() {
        let target = if via_edges {
            NodeId::Edge(EdgeId::new(*cluster, 0))
        } else {
            NodeId::Replica(ReplicaId::new(*cluster, 0))
        };
        let msg = NetMsg::Read {
            req: req as u64,
            query: query.clone(),
        };
        dep.sim.inject(PROBE, target, msg);
    }
    let answered = |dep: &Deployment| dep.sim.actor_as::<Probe>(PROBE).map_or(0, |p| p.got.len());
    let mut budget = 2_000_000u64;
    while answered(dep) < queries.len() && budget > 0 && dep.sim.step() {
        budget -= 1;
    }
    let probe = dep.sim.remove_actor(PROBE).expect("probe was added");
    let probe: Box<dyn std::any::Any> = probe;
    let mut got = probe.downcast::<Probe>().expect("probe actor").got;
    if got.len() != queries.len() {
        return Err(format!(
            "layer pass: {} of {} injected reads answered",
            got.len(),
            queries.len()
        ));
    }
    got.sort_by_key(|(req, ..)| *req);
    Ok(got.into_iter().map(|(_, r, size)| (r, size)).collect())
}

/// The i-th call's point-read input: `k` adjacent keys of the sorted
/// partition, a different group every call.
fn nth_key_group(sorted: &[Key], k: usize, i: usize) -> &[Key] {
    let at = (i * 37 % (sorted.len() / k)) * k;
    &sorted[at..at + k]
}

/// The i-th call's scan input: an aligned `width`-bucket window.
fn nth_window(width: u64, i: usize) -> ScanRange {
    let slots = (1u64 << TREE_DEPTH) / width;
    let first = (i as u64 * 37 % slots) * width;
    ScanRange::new(first, first + width - 1)
}

/// `CALLS` spans called `name`, each around `per_span` calls of `f`.
fn rung(rec: &RefCell<Recorder>, name: &'static str, per_span: usize, mut f: impl FnMut(usize)) {
    for call in 0..CALLS {
        scope(rec, name, 0, || {
            for i in 0..per_span {
                f(call * per_span + i);
            }
        });
    }
}

/// Pure event-loop cost: two actors bouncing an empty message.
struct PingPong;
#[derive(Debug)]
struct Ping;
impl SimMessage for Ping {
    fn size_bytes(&self) -> usize {
        0
    }
}
impl Actor<Ping> for PingPong {
    fn on_message(&mut self, from: NodeId, _msg: Ping, ctx: &mut Context<'_, Ping>) {
        ctx.send(from, Ping);
    }
}

fn idle_events_per_s() -> f64 {
    let mut sim: Simulation<Ping> = Simulation::new(
        LatencyModel::instant(),
        CostModel::zero(),
        FaultPlan::none(),
        1,
    );
    let a = NodeId::Replica(ReplicaId::new(ClusterId(0), 0));
    let b = NodeId::Replica(ReplicaId::new(ClusterId(0), 1));
    sim.add_actor(a, Box::new(PingPong));
    sim.add_actor(b, Box::new(PingPong));
    sim.inject(a, b, Ping);
    let t = Instant::now();
    let mut events = 0u64;
    while events < IDLE_EVENTS && sim.step() {
        events += 1;
    }
    events as f64 / t.elapsed().as_secs_f64()
}

/// Run the whole pass over `rep`'s finished deployment.
pub fn layer_pass(workload: &Workload, rep: &mut Rep) -> Result<Ladder, String> {
    let rec = Recorder::new();
    let rec = &rec;
    let trace = Cell::new(0u64);
    let topo = topology();
    let depth = TREE_DEPTH;

    // Real responses first: capturing steps the deployment.
    let queries = sub_queries(&topo, &rep.plans, CALLS);
    let captured = capture(&mut rep.dep, &queries)?;
    let now = rep.dep.sim.now();

    let dep = &rep.dep;
    let cluster = ClusterId(0);
    let exec = &dep.node(ReplicaId::new(cluster, 0)).exec;
    let batch = BatchNum(exec.applied_batches().saturating_sub(1));
    let root = exec.tree.root_at(batch.0);
    let mut mine: Vec<Key> = dep
        .data
        .iter()
        .map(|(k, _)| k.clone())
        .filter(|k| topo.partition_of(k) == cluster)
        .collect();
    mine.sort();
    let (k, width) = match workload.shape {
        ReadShape::Points(k) => (k, SCAN_WIDTH),
        ReadShape::Scan(w) => (1, w),
    };
    let keys_of = |i: usize| nth_key_group(&mine, k, i);
    let window_of = |i: usize| nth_window(width, i);

    // ---- crypto primitives ------------------------------------------
    let kib = vec![0xA5u8; 1024];
    rung(rec, "crypto.sha256", TIGHT, |_| {
        std::hint::black_box(sha256(std::hint::black_box(&kib)));
    });
    let signer = Keypair::from_seed([7u8; 32]);
    let message = |i: usize| -> [u8; 64] {
        let mut m = [0x3Cu8; 64];
        m[..8].copy_from_slice(&(i as u64).to_le_bytes());
        m
    };
    let mut sigs = Vec::with_capacity(CALLS);
    rung(rec, "crypto.ed25519_sign", 1, |i| {
        sigs.push(signer.sign(&message(i)));
    });
    let public = signer.public();
    rung(rec, "crypto.ed25519_verify", 1, |i| {
        assert!(public.verify(&message(i), &sigs[i]));
    });

    // ---- a quorum certificate like the ones every response carries ---
    let (bench_keys, secrets) = KeyStore::for_topology(&topo, &[9u8; 32]);
    let quorum = topo.certificate_quorum();
    let digest = sha256(b"transedge-benchmark");
    let statement = accept_statement(cluster, BatchNum(1), &digest);
    let cert = Certificate {
        cluster,
        slot: BatchNum(1),
        digest,
        sigs: topo
            .replicas_of(cluster)
            .take(quorum)
            .map(|r| (NodeId::Replica(r), secrets[&r].sign(&statement)))
            .collect(),
    };

    rung(rec, "consensus.cert_verify", 1, |_| {
        cert.verify(&bench_keys, quorum)
            .expect("own certificate verifies");
    });

    // ---- Merkle proofs on the replica's own tree ----------------------
    let mut multi: Vec<MultiProof> = Vec::with_capacity(CALLS);
    rung(rec, "crypto.merkle.prove_multi", 1, |i| {
        multi.push(exec.prove_multi(keys_of(i), batch));
    });
    let verify_multi = |i: usize| {
        verify_multi_proof(&root, depth, keys_of(i), &multi[i]).expect("own multiproof verifies");
    };
    rung(rec, "crypto.merkle.verify_multi", 1, verify_multi);
    let mut ranges: Vec<RangeProof> = Vec::with_capacity(CALLS);
    rung(rec, "crypto.range.prove", 1, |i| {
        ranges.push(exec.prove_range(&window_of(i), batch));
    });
    let verify_range = |i: usize| {
        verify_range_proof(&root, depth, &window_of(i), &ranges[i])
            .expect("own range proof verifies");
    };
    rung(rec, "crypto.range.verify", 1, verify_range);

    // ---- versioned tree updates, write-set sized ----------------------
    let per_batch = workload.writes_per_txn.max(1);
    let mut tree = VersionedMerkleTree::with_depth(depth);
    let filler = value_digest(&Value::filled(8, 1));
    tree.apply_batch(0, mine.iter().map(|key| (key, filler)));
    let mut version = 0u64;
    rung(rec, "crypto.merkle_versioned.apply", 1, |i| {
        version += 1;
        let at = i * per_batch % (mine.len() - per_batch);
        let digest = value_digest(&Value::filled(8, i as u8));
        tree.apply_batch(
            version,
            mine[at..at + per_batch].iter().map(|key| (key, digest)),
        );
    });

    // ---- OCC admission -------------------------------------------------
    let txns: Vec<Transaction> = (0..CALLS)
        .map(|i| {
            let keys = &mine[(i * 8) % (mine.len() - 8)..][..8];
            let (reads, writes) = keys.split_at(5);
            Transaction {
                id: TxnId::new(ClientId(0), i as u64),
                reads: reads
                    .iter()
                    .map(|key| ReadOp {
                        key: key.clone(),
                        version: exec.read_latest(key).1,
                    })
                    .collect(),
                writes: writes[..per_batch.min(3)]
                    .iter()
                    .map(|key| WriteOp {
                        key: key.clone(),
                        value: Value::filled(8, 2),
                    })
                    .collect(),
            }
        })
        .collect();
    let mut in_progress = Footprint::new();
    for txn in txns.iter().skip(CALLS / 2) {
        in_progress.absorb(txn, &topo, Some(cluster));
    }
    let prepared = Footprint::new();
    rung(rec, "core.conflict.admit", 1, |i| {
        let txn = &txns[i % (CALLS / 2)];
        std::hint::black_box(conflict::admit(
            txn,
            &exec.store,
            &in_progress,
            &prepared,
            &topo,
            cluster,
        ))
        .expect("disjoint transactions admit");
    });

    // ---- LRU cache at the workload's replay-cache size -----------------
    let capacity = dep.config.edge.cache.capacity.min(mine.len() / 2);
    let mut lru: LruCache<Key, Epoch> = LruCache::new(capacity);
    for key in &mine[..capacity] {
        lru.insert(key.clone(), Epoch::NONE);
    }
    rung(rec, "edge.cache.get_hit", TIGHT, |i| {
        std::hint::black_box(lru.get(&mine[i % capacity]));
    });
    rung(rec, "edge.cache.insert_evict", TIGHT, |i| {
        // Alternate between the upper and lower half of the key list
        // (the upper first: the lower is resident), so every insert
        // into the full cache is new and evicts.
        let set = (i / capacity + 1) % 2;
        let key = &mine[set * (mine.len() / 2) + i % capacity];
        lru.insert(key.clone(), Epoch::NONE);
    });

    // ---- storage, straight through the source seam ---------------------
    let traced = TracedSource {
        inner: exec,
        rec,
        trace: &trace,
    };
    for i in 0..CALLS {
        std::hint::black_box(traced.value_at(&mine[i * 37 % mine.len()], batch));
        std::hint::black_box(traced.rows_at(&window_of(i), batch));
    }

    // ---- replayed reads: serve through the pipeline, verify the real
    // responses. Alternate chunks run with the recorder off: the same
    // calls without spans are the tracing-overhead baseline.
    let verifier = ReadVerifier::new(VerifyParams {
        tree_depth: depth,
        freshness_window: dep.config.node.freshness_window,
        quorum,
    });
    let serve = |pipeline: &mut ReadPipeline, i: usize| match workload.shape {
        ReadShape::Points(_) => {
            std::hint::black_box(pipeline.serve_multi(&traced, keys_of(i), batch));
        }
        ReadShape::Scan(_) => {
            std::hint::black_box(pipeline.serve_scan(&traced, &window_of(i), batch));
        }
    };
    let (mut on_ns, mut off_ns) = (0u128, 0u128);
    const CHUNK: usize = 25;
    for chunk in 0..CALLS / CHUNK {
        for enabled in [true, false] {
            rec.borrow_mut().enabled = enabled;
            let t = Instant::now();
            for i in chunk * CHUNK..(chunk + 1) * CHUNK {
                let id = i as u64 + 1;
                trace.set(id);
                // A fresh pipeline has nothing cached: the first serve
                // is the miss, the second the hit.
                let mut pipeline = ReadPipeline::new(capacity);
                scope(rec, "read", id, || {
                    scope(rec, "edge.pipeline.serve_miss", id, || {
                        serve(&mut pipeline, i)
                    });
                });
                scope(rec, "read", id, || {
                    scope(rec, "edge.pipeline.serve_hit", id, || {
                        serve(&mut pipeline, i)
                    });
                });
            }
            let ns = t.elapsed().as_nanos();
            if enabled {
                on_ns += ns;
            } else {
                off_ns += ns;
            }
        }
    }
    rec.borrow_mut().enabled = true;
    let mut body_bytes = Vec::with_capacity(captured.len());
    for (i, ((part, query), (response, size))) in queries.iter().zip(&captured).enumerate() {
        let id = i as u64 + 1;
        body_bytes.push(*size as f64);
        scope(rec, "verify", id, || {
            scope(rec, "edge.verifier.verify_query", id, || {
                verifier
                    .verify_query(&dep.keys, *part, query, response, now)
                    .map(std::hint::black_box)
            })
            .map_err(|rejection| format!("layer pass: honest response rejected: {rejection:?}"))?;
            scope(rec, "consensus.cert_verify", id, || {
                cert.verify(&bench_keys, quorum)
            })
            .map_err(|e| format!("layer pass: own certificate rejected: {e}"))?;
            match workload.shape {
                ReadShape::Points(_) => {
                    scope(rec, "crypto.merkle.verify_multi", id, || verify_multi(i))
                }
                ReadShape::Scan(_) => scope(rec, "crypto.range.verify", id, || verify_range(i)),
            }
            Ok::<(), String>(())
        })?;
    }

    // ---- the ladder, by catalogue name: rungs from the calls made on
    // their own, pipeline and verifier from the replayed reads ----------
    let rec = rec.borrow();
    let us = |name: &str| rec.median_us(name, false);
    let replayed_us = |name: &str| rec.median_us(name, true);
    let verify_query_us = replayed_us("edge.verifier.verify_query");
    // The verifier's own share: what is left of a replayed verify after
    // the certificate check and the shape's Merkle check timed beside
    // it. Those two run on the benchmark's certificate and proof of the
    // same shape, not on the response's own bytes (the response is
    // opaque here), so this is an estimate.
    let verifier_self_us = verify_query_us
        - replayed_us("consensus.cert_verify")
        - replayed_us(match workload.shape {
            ReadShape::Points(_) => "crypto.merkle.verify_multi",
            ReadShape::Scan(_) => "crypto.range.verify",
        });
    let idle_per_s = idle_events_per_s();
    let mut metrics: Named = vec![
        (
            "crypto.sha256_us_per_kib",
            us("crypto.sha256") / TIGHT as f64,
        ),
        ("crypto.ed25519_sign_us", us("crypto.ed25519_sign")),
        ("crypto.ed25519_verify_us", us("crypto.ed25519_verify")),
        (
            "crypto.merkle.prove_multi_us",
            us("crypto.merkle.prove_multi"),
        ),
        (
            "crypto.merkle.verify_multi_us",
            us("crypto.merkle.verify_multi"),
        ),
        ("crypto.range.prove_us", us("crypto.range.prove")),
        ("crypto.range.verify_us", us("crypto.range.verify")),
        (
            "crypto.merkle_versioned.apply_us_per_key",
            us("crypto.merkle_versioned.apply") / per_batch as f64,
        ),
        ("consensus.cert_verify_us", us("consensus.cert_verify")),
        (
            "edge.pipeline.serve_miss_us",
            replayed_us("edge.pipeline.serve_miss"),
        ),
        (
            "edge.pipeline.serve_hit_us",
            replayed_us("edge.pipeline.serve_hit"),
        ),
        (
            "edge.pipeline.self_us",
            rec.median_self_us("edge.pipeline.serve_miss"),
        ),
        ("storage.value_at_us", us("storage.value_at")),
        ("storage.rows_at_us", us("storage.rows_at")),
        (
            "edge.cache.get_hit_us",
            us("edge.cache.get_hit") / TIGHT as f64,
        ),
        (
            "edge.cache.insert_evict_us",
            us("edge.cache.insert_evict") / TIGHT as f64,
        ),
        ("edge.verifier.verify_query_us", verify_query_us),
        ("edge.verifier.self_us", verifier_self_us),
        (
            "edge.response.body_bytes",
            crate::stats::median(&body_bytes),
        ),
        ("core.conflict.admit_us", us("core.conflict.admit")),
        ("simnet.idle_events_per_s", idle_per_s),
        (
            "benchmark.trace_overhead_pct",
            100.0 * (on_ns as f64 - off_ns as f64) / off_ns as f64,
        ),
    ];
    // Every partition a scripted read touches is one proof-carrying
    // section some client verified, whichever way it was routed.
    let sections = sub_queries(&topo, &rep.plans, usize::MAX).len() as f64;
    let explained_us = explained_cpu_us(&rep.registry, &metrics, rep.events, sections, workload);
    metrics.push((
        "benchmark.cpu_explained_pct",
        100.0 * explained_us / (rep.wall_s * 1e6),
    ));
    Ok(Ladder {
        metrics,
        trace_json: rec.to_json(workload.name),
    })
}

/// Σ (run count × ladder µs): how much of the measured wall time the
/// ladder's rungs account for. A model with stated terms, not a
/// profile — see the README.
fn explained_cpu_us(
    reg: &MetricRegistry,
    ladder: &Named,
    events: u64,
    sections: f64,
    workload: &Workload,
) -> f64 {
    let us = |name: &str| {
        ladder
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let c = |name: &str| reg.fleet_counter(name) as f64;
    let net = |kind: &str| reg.counter_value("net", &format!("net.{kind}.messages")) as f64;
    let replicas = topology().replicas_per_cluster() as f64;
    // Clients verify every section they accept; certificate checks
    // the client shared did not run.
    let client_verify = sections * us("edge.verifier.verify_query_us")
        - c("query.cert_checks_shared") * us("consensus.cert_verify_us");
    // Replicas assemble each response they serve (a pipeline miss at
    // worst); edges replay hits out of an LRU.
    let replica_serve = (c("node.rot_served")
        + c("node.rot_fetches_served")
        + c("node.rot_pinned_served")
        + c("node.rot_scans_served"))
        * us("edge.pipeline.serve_miss_us");
    let edge_replay =
        (c("edge.served_from_cache") + c("edge.scans_from_cache")) * us("edge.cache.get_hit_us");
    // Consensus: every vote is verified by its receiver and signed
    // once per broadcast; every applied write updates each replica's
    // versioned tree; every feed delta is certificate-checked.
    let votes = net("propose") + net("write") + net("accept");
    let consensus = votes * us("crypto.ed25519_verify_us")
        + votes / (replicas - 1.0) * us("crypto.ed25519_sign_us");
    let apply = c("node.txns_admitted")
        * workload.writes_per_txn as f64
        * replicas
        * us("crypto.merkle_versioned.apply_us_per_key");
    let admit = (c("node.txns_admitted") + c("node.txns_rejected")) * us("core.conflict.admit_us");
    let feed = c("edge.feed_deltas_received") * us("consensus.cert_verify_us");
    let event_loop = events as f64 * 1e6 / us("simnet.idle_events_per_s").max(1.0);
    client_verify + replica_serve + edge_replay + consensus + apply + admit + feed + event_loop
}

#[cfg(test)]
mod tests {
    use super::*;
    use transedge_core::client::ClientOp;

    #[test]
    fn sub_queries_split_reads_by_partition_and_keep_scans_whole() {
        let topo = topology();
        let a = Key::from_u32(1);
        let b = (2..)
            .map(Key::from_u32)
            .find(|k| topo.partition_of(k) != topo.partition_of(&a))
            .unwrap();
        let window = ScanRange::new(0, 255);
        let plans = vec![ClientPlan::ops(vec![
            ClientOp::ReadOnly {
                keys: vec![a.clone(), b.clone()],
            },
            ClientOp::RangeScan {
                cluster: ClusterId(3),
                range: window,
            },
        ])];
        let subs = sub_queries(&topo, &plans, CALLS);
        assert_eq!(subs.len(), 3);
        let mut parts: Vec<ClusterId> = subs[..2].iter().map(|(c, _)| *c).collect();
        parts.sort();
        let mut want = vec![topo.partition_of(&a), topo.partition_of(&b)];
        want.sort();
        assert_eq!(parts, want);
        assert_eq!(
            subs[2],
            (ClusterId(3), ReadQuery::scan(ClusterId(3), window))
        );
    }

    #[test]
    fn call_inputs_are_shaped_and_vary() {
        let keys: Vec<Key> = (0..100).map(Key::from_u32).collect();
        assert_eq!(nth_key_group(&keys, 6, 0).len(), 6);
        assert_ne!(nth_key_group(&keys, 6, 0), nth_key_group(&keys, 6, 1));
        let w = nth_window(256, 3);
        assert_eq!((w.width(), w.first % 256), (256, 0));
        assert!(w.is_valid_for_depth(TREE_DEPTH));
    }
}
