//! **Figure 4** — average latency of read-only transactions executed
//! over a 2PC/BFT system vs TransEdge, as the number of accessed
//! clusters grows from 1 to 5 — plus the edge read tier's cold/warm
//! cache behaviour through the new `ReadPipeline`.
//!
//! Paper result: TransEdge is 24× faster at 2 clusters, 9× at 5;
//! 2PC/BFT sits at 69–82 ms beyond one cluster.
//!
//! Emits `BENCH_rot.json` so later changes can track the read-path
//! trajectory (latencies, speedups, and edge cache hit rates).

use transedge_bench::json::JsonObject;
use transedge_bench::support::*;
use transedge_common::{ClusterId, EdgeId, Key, SimDuration, SimTime, Value};
use transedge_core::client::ClientOp;
use transedge_core::edge_node::EdgeBehavior;
use transedge_core::metrics::{summarize, OpKind};
use transedge_core::setup::{ClientPlan, Deployment};
use transedge_core::{ClientProfile, EdgeConfig};
use transedge_crypto::ScanRange;
use transedge_edge::{SnapshotStore, DEFAULT_SPILL_THRESHOLD};
use transedge_obs::{breakdown_at_percentile, PhaseBreakdown};
use transedge_scenario::campaign::{self, CampaignScale};
use transedge_workload::WorkloadSpec;

/// The deployment's tree depth — scan windows live in its `2^depth`
/// leaf space.
const TREE_DEPTH: u32 = transedge_core::node::DEFAULT_TREE_DEPTH;

struct ClusterRow {
    clusters: usize,
    twopc_ms: f64,
    transedge_ms: f64,
    edge_ms: f64,
}

/// Cold vs warm serving through the edge tier: one client reads the
/// same keys repeatedly; the first round must go upstream, the rest
/// replay from the edge cache.
struct EdgeCacheResult {
    cold_ms: f64,
    warm_ms: f64,
    served_from_cache: u64,
    forwarded: u64,
    hit_rate: f64,
}

fn edge_cache_cold_vs_warm(scale: Scale) -> EdgeCacheResult {
    let mut config = experiment_config(scale);
    config.edge = EdgeConfig::honest(1);
    config.client.record_results = true;
    let topo = config.topo.clone();
    let keys: Vec<_> = (0u32..config.n_keys.min(10_000))
        .map(transedge_common::Key::from_u32)
        .filter(|k| topo.partition_of(k) == transedge_common::ClusterId(0))
        .take(4)
        .collect();
    let rounds = scale.pick(30, 200);
    let script = (0..rounds)
        .map(|_| ClientOp::ReadOnly { keys: keys.clone() })
        .collect::<Vec<_>>();
    let mut dep = Deployment::build(config, vec![script]);
    dep.run_until_done(SimTime(3_600_000_000));
    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    let lats: Vec<f64> = client
        .samples
        .iter()
        .filter(|s| s.kind == OpKind::ReadOnly)
        .map(|s| s.latency().as_micros() as f64 / 1_000.0)
        .collect();
    let cold_ms = lats[0];
    let warm_ms = lats[1..].iter().sum::<f64>() / (lats.len() - 1).max(1) as f64;
    let edge = dep.edge_node(EdgeId::new(transedge_common::ClusterId(0), 0));
    let stats = edge.stats;
    let total = stats.served_from_cache + stats.forwarded;
    EdgeCacheResult {
        cold_ms,
        warm_ms,
        served_from_cache: stats.served_from_cache,
        forwarded: stats.forwarded,
        hit_rate: if total == 0 {
            0.0
        } else {
            stats.served_from_cache as f64 / total as f64
        },
    }
}

/// Partial assembly under widening key sets: each round reads a pair
/// of keys, then the same pair widened by the next key. The pair's
/// cached section proves nothing the wide read did not ask for, so the
/// edge answers with it plus one upstream section for the new key,
/// pinned at the cached batch. Without partial assembly every widened
/// request would fall through to the replicas whole.
struct PartialAssemblyResult {
    requests: u64,
    partial: u64,
    full_replays: u64,
    forwarded: u64,
    key_hit_rate: f64,
    upstream_keys: u64,
    assembled_accepted: u64,
}

fn edge_partial_assembly(scale: Scale) -> PartialAssemblyResult {
    let mut config = experiment_config(scale);
    config.edge = EdgeConfig::honest(1);
    config.client.record_results = true;
    let topo = config.topo.clone();
    let keys: Vec<_> = (0u32..config.n_keys.min(10_000))
        .map(transedge_common::Key::from_u32)
        .filter(|k| topo.partition_of(k) == transedge_common::ClusterId(0))
        .take(12)
        .collect();
    let window = 3usize;
    let stride = 2usize;
    let rounds = scale.pick(20, 150);
    let script: Vec<ClientOp> = (0..rounds)
        .flat_map(|i| {
            let start = (i * stride) % (keys.len() - window);
            [window - 1, window].map(|width| ClientOp::ReadOnly {
                keys: keys[start..start + width].to_vec(),
            })
        })
        .collect();
    let mut dep = Deployment::build(config, vec![script]);
    dep.run_until_done(SimTime(3_600_000_000));
    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    let edge = dep.edge_node(EdgeId::new(transedge_common::ClusterId(0), 0));
    let stats = edge.stats;
    PartialAssemblyResult {
        requests: stats.requests,
        partial: stats.partial_assembled,
        full_replays: stats.served_from_cache,
        forwarded: stats.forwarded,
        key_hit_rate: stats.key_hit_rate(),
        upstream_keys: stats.keys_fetched_upstream,
        assembled_accepted: client.stats.assembled_accepted,
    }
}

/// Verified range scans through the edge tier: a wide aligned window is
/// scanned repeatedly (cold forwards once, warm replays from the edge's
/// per-(range, batch) scan cache), then a narrower sub-window rides the
/// cached wider proof (overlap-aware covering reuse — the client
/// verifies the wide window's completeness and filters).
struct ScanExperimentResult {
    requests: u64,
    from_cache: u64,
    forwarded: u64,
    covered_by_wider: u64,
    mean_rows: f64,
    cold_ms: f64,
    warm_ms: f64,
    hit_rate: f64,
}

fn edge_scan_workload(scale: Scale) -> ScanExperimentResult {
    let mut config = experiment_config(scale);
    config.edge = EdgeConfig::honest(1);
    config.client.record_results = true;
    let topo = config.topo.clone();
    // An aligned 512-bucket window of cluster 0's tree order that is
    // guaranteed to contain preloaded keys.
    let key = (0u32..config.n_keys)
        .map(Key::from_u32)
        .find(|k| topo.partition_of(k) == ClusterId(0))
        .expect("cluster 0 holds keys");
    let start = {
        let b = ScanRange::bucket_of(&key, TREE_DEPTH);
        b - (b % 512)
    };
    let wide = ScanRange::new(start, start + 511);
    let narrow = ScanRange::new(start + 64, start + 255);
    let rounds = scale.pick(10, 50);
    let mut script: Vec<ClientOp> = (0..rounds)
        .map(|_| ClientOp::RangeScan {
            cluster: ClusterId(0),
            range: wide,
        })
        .collect();
    script.extend((0..rounds).map(|_| ClientOp::RangeScan {
        cluster: ClusterId(0),
        range: narrow,
    }));
    let mut dep = Deployment::build(config, vec![script]);
    dep.run_until_done(SimTime(3_600_000_000));
    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.stats.scans_accepted, 2 * rounds as u64);
    let lats: Vec<f64> = client
        .samples
        .iter()
        .filter(|s| s.kind == OpKind::RangeScan)
        .map(|s| s.latency().as_micros() as f64 / 1_000.0)
        .collect();
    let mean_rows = client
        .scan_results
        .iter()
        .map(|r| r.rows.len() as f64)
        .sum::<f64>()
        / client.scan_results.len().max(1) as f64;
    let edge = dep.edge_node(EdgeId::new(ClusterId(0), 0));
    let stats = edge.stats;
    ScanExperimentResult {
        requests: stats.scan_requests,
        from_cache: stats.scans_from_cache,
        forwarded: stats.scans_forwarded,
        covered_by_wider: client.stats.scans_covered_by_wider,
        mean_rows,
        cold_ms: lats[0],
        warm_ms: lats[1..].iter().sum::<f64>() / (lats.len() - 1).max(1) as f64,
        hit_rate: if stats.scan_requests == 0 {
            0.0
        } else {
            stats.scans_from_cache as f64 / stats.scan_requests as f64
        },
    }
}

/// Paginated scans through the unified query API: one `ReadQuery`
/// covers four consecutive windows; the session pins the snapshot with
/// the first page's batch and drives the remaining pages through the
/// edge tier. The first query's pages forward upstream; repeats replay
/// every page from the edge's scan cache (the continuation pages via
/// exact-batch pinned replay).
struct PaginationResult {
    queries: u64,
    pages: u64,
    mean_pages: f64,
    rows: u64,
    served: u64,
    verified: u64,
    rejected: u64,
    from_cache: u64,
    forwarded: u64,
    cold_ms: f64,
    warm_ms: f64,
}

fn edge_paginated_scans(scale: Scale) -> PaginationResult {
    let mut config = experiment_config(scale);
    config.edge = EdgeConfig::honest(1);
    config.client.record_results = true;
    let topo = config.topo.clone();
    let key = (0u32..config.n_keys)
        .map(Key::from_u32)
        .find(|k| topo.partition_of(k) == ClusterId(0))
        .expect("cluster 0 holds keys");
    // Four aligned 128-bucket windows = one 512-bucket range.
    let start = {
        let b = ScanRange::bucket_of(&key, TREE_DEPTH);
        b - (b % 512)
    };
    let range = ScanRange::new(start, start + 511);
    let queries = scale.pick(8, 40) as u64;
    let script: Vec<ClientOp> = (0..queries)
        .map(|_| ClientOp::Query {
            query: transedge_core::ReadQuery::scatter_scan(vec![ClusterId(0)], range, 128),
        })
        .collect();
    let mut dep = Deployment::build(config, vec![script]);
    dep.run_until_done(SimTime(3_600_000_000));
    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.query_results.len(), queries as usize);
    let pages: u64 = client.query_results.iter().map(|q| q.pages as u64).sum();
    let rows: u64 = client
        .query_results
        .iter()
        .flat_map(|q| q.rows.iter())
        .map(|(_, rows)| rows.len() as u64)
        .sum();
    let lats: Vec<f64> = client
        .samples
        .iter()
        .filter(|s| s.kind == OpKind::RangeScan)
        .map(|s| s.latency().as_micros() as f64 / 1_000.0)
        .collect();
    let m = client.metrics().paginated();
    let edge = dep.edge_node(EdgeId::new(ClusterId(0), 0));
    PaginationResult {
        queries,
        pages,
        mean_pages: pages as f64 / queries.max(1) as f64,
        rows,
        served: m.served,
        verified: m.verified,
        rejected: m.rejected,
        from_cache: edge.stats.scans_from_cache,
        forwarded: edge.stats.scans_forwarded,
        cold_ms: lats[0],
        warm_ms: lats[1..].iter().sum::<f64>() / (lats.len() - 1).max(1) as f64,
    }
}

/// Cross-partition scatter-gather through one `ReadQuery`: the same
/// tree-order window is scanned on two partitions at once; the session
/// fans the sub-queries out through each partition's edge, verifies
/// every section against its own certified root, and stitches the
/// verified rows with the cross-partition dependency check.
struct ScatterResult {
    queries: u64,
    partitions: u64,
    served: u64,
    verified: u64,
    rejected: u64,
    mean_rows: f64,
    mean_ms: f64,
}

fn edge_scatter_gather(scale: Scale) -> ScatterResult {
    let mut config = experiment_config(scale);
    config.edge = EdgeConfig::honest(1);
    config.client.record_results = true;
    let topo = config.topo.clone();
    let key = (0u32..config.n_keys)
        .map(Key::from_u32)
        .find(|k| topo.partition_of(k) == ClusterId(0))
        .expect("cluster 0 holds keys");
    let start = {
        let b = ScanRange::bucket_of(&key, TREE_DEPTH);
        b - (b % 256)
    };
    let range = ScanRange::new(start, start + 255);
    let clusters = vec![ClusterId(0), ClusterId(1)];
    let queries = scale.pick(10, 50) as u64;
    let script: Vec<ClientOp> = (0..queries)
        .map(|_| ClientOp::Query {
            query: transedge_core::ReadQuery::scatter_scan(clusters.clone(), range, 256),
        })
        .collect();
    let mut dep = Deployment::build(config, vec![script]);
    dep.run_until_done(SimTime(3_600_000_000));
    let client = dep.client(dep.client_ids[0]);
    assert_eq!(client.stats.verification_failures, 0);
    assert_eq!(client.query_results.len(), queries as usize);
    for q in &client.query_results {
        assert_eq!(q.snapshot.len(), 2, "both partitions answered");
    }
    let rows: u64 = client
        .query_results
        .iter()
        .flat_map(|q| q.rows.iter())
        .map(|(_, rows)| rows.len() as u64)
        .sum();
    let lats: Vec<f64> = client
        .samples
        .iter()
        .filter(|s| s.kind == OpKind::RangeScan)
        .map(|s| s.latency().as_micros() as f64 / 1_000.0)
        .collect();
    let m = client.metrics().scatter();
    ScatterResult {
        queries,
        partitions: clusters.len() as u64,
        served: m.served,
        verified: m.verified,
        rejected: m.rejected,
        mean_rows: rows as f64 / queries.max(1) as f64,
        mean_ms: lats.iter().sum::<f64>() / lats.len().max(1) as f64,
    }
}

/// The gossiped edge directory + edge-tier scatter-gather experiments:
/// how fast a verified rejection propagates through the fleet
/// (anti-entropy rounds until every edge knows), how much of the
/// forwarded sub-query traffic stays inside the edge tier, and what a
/// single-contact cross-partition query costs versus the classic
/// client-side fan-out.
struct DirectoryResult {
    edges: u64,
    informed: u64,
    propagation_rounds: f64,
    evidence_sent: u64,
    gather_queries: u64,
    gather_completed: u64,
    foreign_subs: u64,
    sibling_forwards: u64,
    replica_forwards: u64,
    forwarded_hit_rate: f64,
    /// Duplicate certificate checks the one-pass gather verification
    /// skipped (satellite fix: sections sharing a commitment are
    /// charged one quorum check).
    gather_cert_checks_shared: u64,
    single_contact_ms: f64,
    fanout_ms: f64,
    /// Causal-trace decomposition of the same two runs: the p50/p95
    /// operation's end-to-end latency split into its phase components
    /// (`obs` block of `BENCH_rot.json`).
    single_contact_p50: PhaseBreakdown,
    single_contact_p95: PhaseBreakdown,
    fanout_p50: PhaseBreakdown,
    fanout_p95: PhaseBreakdown,
}

/// What one scatter workload run measures: mean ROT latency, gather
/// counters, aggregated edge stats, and the flight recorder's p50/p95
/// per-phase decomposition.
struct ContactRun {
    mean_ms: f64,
    gathers_accepted: u64,
    cert_checks_shared: u64,
    edge: transedge_core::edge_node::EdgeNodeStats,
    p50: PhaseBreakdown,
    p95: PhaseBreakdown,
}

/// One scatter workload run: 2-partition unified point queries, with
/// or without the single-contact path.
fn scatter_contact_run(scale: Scale, single_contact: bool) -> ContactRun {
    let mut config = experiment_config(scale);
    config.client.record_results = true;
    config.client.single_contact = single_contact;
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .gossip_directory(SimDuration::from_millis(20))
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let spec = WorkloadSpec::scatter_points(topo, 4, 2);
    let clients = scale.pick(4, 12);
    let ops = spec.generate(clients * scale.pick(10, 40), 77);
    let mut dep = Deployment::build(config, split_clients(ops, clients));
    dep.run_until_done(SimTime(3_600_000_000));
    let mut gathers_accepted = 0;
    let mut cert_checks_shared = 0;
    let mut lats: Vec<f64> = Vec::new();
    for id in &dep.client_ids {
        let client = dep.client(*id);
        assert_eq!(client.stats.verification_failures, 0);
        gathers_accepted += client.stats.gathers_accepted;
        cert_checks_shared += client.metrics().cert_checks_shared();
        lats.extend(
            client
                .samples
                .iter()
                .filter(|s| s.kind == OpKind::ReadOnly)
                .map(|s| s.latency().as_micros() as f64 / 1_000.0),
        );
    }
    let mut edge_stats = transedge_core::edge_node::EdgeNodeStats::default();
    for e in &dep.edge_ids {
        let s = dep.edge_node(*e).stats;
        edge_stats.gather_requests += s.gather_requests;
        edge_stats.gather_completed += s.gather_completed;
        edge_stats.foreign_subs += s.foreign_subs;
        edge_stats.foreign_forward_sibling += s.foreign_forward_sibling;
        edge_stats.foreign_forward_replica += s.foreign_forward_replica;
    }
    let mean = lats.iter().sum::<f64>() / lats.len().max(1) as f64;
    // Per-phase decomposition of the run's p50/p95 operations, read
    // off the flight recorder. Each breakdown decomposes *one actual
    // trace*, so its components sum exactly to that operation's
    // end-to-end latency.
    let traces = dep.completed_traces();
    let p50 = breakdown_at_percentile(&traces, 0.50).unwrap_or_default();
    let p95 = breakdown_at_percentile(&traces, 0.95).unwrap_or_default();
    ContactRun {
        mean_ms: mean,
        gathers_accepted,
        cert_checks_shared,
        edge: edge_stats,
        p50,
        p95,
    }
}

fn edge_directory_fleet(scale: Scale) -> DirectoryResult {
    // Demotion propagation: one client trips over a byzantine edge;
    // its signed evidence must reach the whole fleet via anti-entropy
    // push rounds.
    let gossip = SimDuration::from_millis(20);
    let mut config = experiment_config(scale);
    config.client.record_results = true;
    let byz = EdgeId::new(ClusterId(0), 0);
    config.edge = EdgeConfig::builder()
        .per_cluster(3)
        .byzantine(byz, EdgeBehavior::TamperValue)
        .gossip_directory(gossip)
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let keys: Vec<Key> = (0u32..config.n_keys)
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == ClusterId(0))
        .take(2)
        .collect();
    let script: Vec<ClientOp> = (0..12)
        .map(|_| ClientOp::ReadOnly { keys: keys.clone() })
        .collect();
    let mut dep = Deployment::build(config, vec![script]);
    dep.run_until_done(SimTime(3_600_000_000));
    let evidence_sent = dep.client(dep.client_ids[0]).stats.directory_evidence_sent;
    // Gossip keeps ticking after the client script ends; run the sim
    // until every edge has (re-verified and) admitted the evidence.
    let total_edges = dep.edge_ids.len() as u64;
    let informed = |dep: &Deployment| -> u64 {
        dep.edge_ids
            .iter()
            .filter(|e| {
                dep.edge_node(**e)
                    .directory()
                    .is_some_and(|a| a.knows_byzantine(byz))
            })
            .count() as u64
    };
    let deadline = dep.sim.now() + SimDuration::from_secs(10);
    while informed(&dep) < total_edges && dep.sim.now() < deadline {
        if !dep.sim.step() {
            break;
        }
    }
    let learned: Vec<SimTime> = dep
        .edge_ids
        .iter()
        .filter_map(|e| {
            dep.edge_node(*e)
                .directory()
                .and_then(|a| a.learned_at(byz))
        })
        .collect();
    let propagation_rounds = match (learned.iter().min(), learned.iter().max()) {
        (Some(first), Some(last)) if last > first => {
            (last.saturating_since(*first).as_micros() as f64 / gossip.as_micros() as f64).ceil()
        }
        _ => 0.0,
    };

    // Single-contact vs fan-out on the same scatter workload.
    let single = scatter_contact_run(scale, true);
    let fanout = scatter_contact_run(scale, false);
    assert!(
        single.gathers_accepted > 0,
        "single-contact path must be exercised"
    );
    DirectoryResult {
        edges: total_edges,
        informed: informed(&dep),
        propagation_rounds,
        evidence_sent,
        gather_queries: single.edge.gather_requests,
        gather_completed: single.edge.gather_completed,
        foreign_subs: single.edge.foreign_subs,
        sibling_forwards: single.edge.foreign_forward_sibling,
        replica_forwards: single.edge.foreign_forward_replica,
        forwarded_hit_rate: single.edge.forwarded_hit_rate(),
        gather_cert_checks_shared: single.cert_checks_shared,
        single_contact_ms: single.mean_ms,
        fanout_ms: fanout.mean_ms,
        single_contact_p50: single.p50,
        single_contact_p95: single.p95,
        fanout_p50: fanout.p50,
        fanout_p95: fanout.p95,
    }
}

/// Saturating open-loop throughput run: six-key point reads replayed
/// through the edge caches.
struct ThroughputResult {
    ops: u64,
    window_s: f64,
    ops_per_sec: f64,
    mean_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    bytes_per_read: f64,
    served_from_cache: u64,
    cached_partitions: u64,
}

/// Throughput mode: a wide fleet of closed-loop clients (offered load
/// scales with fleet width — the sim's open-loop saturation knob)
/// issuing single-partition multi-key point reads. Every replica
/// answer ships as one section under one deduplicated Merkle
/// multiproof; edges admit the body into their replay caches by
/// reference and replay it locally.
fn edge_throughput(scale: Scale) -> ThroughputResult {
    const KEYS_PER_OP: usize = 6;
    let mut config = experiment_config(scale);
    config.client.record_results = true;
    config.edge = EdgeConfig::honest(1);
    let topo = config.topo.clone();
    let spec = WorkloadSpec::throughput_points(topo.clone(), KEYS_PER_OP);
    let clients = scale.pick(8, 32);
    let ops_per_client = scale.pick(12, 50);
    // Half the fleet draws fresh key sets; the other half mirrors them
    // one op behind (popular key sets repeat just after their first
    // answer landed), so the edge tier replays admitted sections
    // instead of forwarding everything upstream.
    let fresh = spec.generate_fleet((clients / 2).max(1), ops_per_client, 91);
    let mut scripts = fresh.clone();
    for script in fresh {
        let mut lagged = vec![script[0].clone()];
        lagged.extend(script.into_iter().take(ops_per_client.saturating_sub(1)));
        scripts.push(lagged);
    }
    let mut dep = Deployment::build(config, scripts);
    dep.run_until_done(SimTime(3_600_000_000));

    let mut read_bytes = 0u64;
    for id in &dep.client_ids {
        let client = dep.client(*id);
        assert_eq!(
            client.stats.verification_failures, 0,
            "honest throughput run must verify everything"
        );
        read_bytes += client.metrics().read_result_bytes();
    }
    let samples: Vec<_> = dep
        .samples()
        .into_iter()
        .filter(|s| s.kind == OpKind::ReadOnly && s.committed)
        .collect();
    let ops = samples.len() as u64;
    assert!(ops > 0, "throughput run produced no committed reads");
    let first = samples.iter().map(|s| s.start).min().unwrap();
    let last = samples.iter().map(|s| s.end).max().unwrap();
    let window_s = last.saturating_since(first).as_secs_f64();
    let summary = summarize(&samples, Some(OpKind::ReadOnly));

    let mut served_from_cache = 0u64;
    let mut cached_partitions = 0u64;
    for e in &dep.edge_ids {
        let node = dep.edge_node(*e);
        served_from_cache += node.stats.served_from_cache;
        cached_partitions += node.cached_partitions() as u64;
    }
    assert!(
        served_from_cache > 0,
        "the mirrored half of the fleet must replay from the edges"
    );

    ThroughputResult {
        ops,
        window_s,
        ops_per_sec: ops as f64 / window_s.max(1e-9),
        mean_ms: summary.mean_latency_ms,
        p95_ms: summary.p95_latency_ms,
        p99_ms: summary.p99_latency_ms,
        bytes_per_read: read_bytes as f64 / ops.max(1) as f64,
        served_from_cache,
        cached_partitions,
    }
}

/// One certified-delta-stream run (PR 7): writers keep cross-partition
/// commits flowing while a reader repeatedly snapshots two warm keys
/// plus one hot, push-invalidated key — the stale-cache-vs-fresh-CD
/// tension that forces round-2 `MinEpoch` fetches on unsubscribed
/// clients. With `subscribe` the reader requests verified feed
/// attachments and upgrades its snapshot views to a consistent cut of
/// the feed heads instead.
struct PushRun {
    rots: u64,
    warm: u64,
    round2: u64,
    freshness_upgrades: u64,
    round2_skipped: u64,
    deltas_received: u64,
    freshness_attached: u64,
    window_s: f64,
    mean_ms: f64,
}

fn push_run(scale: Scale, subscribe: bool, feed: SimDuration) -> PushRun {
    let mut config = experiment_config(scale);
    config.client.record_results = true;
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .commit_feed(feed)
        .build()
        .expect("edge config");
    let topo = config.topo.clone();
    let pick_keys = |cluster: ClusterId| -> Vec<Key> {
        (0u32..config.n_keys.min(10_000))
            .map(Key::from_u32)
            .filter(|k| topo.partition_of(k) == cluster)
            .take(8)
            .collect()
    };
    let k0 = pick_keys(ClusterId(0));
    let k1 = pick_keys(ClusterId(1));
    let writes = scale.pick(15, 60);
    let mut plans: Vec<ClientPlan> = (0..3usize)
        .map(|c| {
            ClientPlan::ops(
                (0..writes)
                    .map(|i| ClientOp::ReadWrite {
                        reads: vec![],
                        writes: vec![
                            (k0[2 + (c + i) % 6].clone(), Value::from("w0")),
                            (k1[2 + (c + i) % 6].clone(), Value::from("w1")),
                        ],
                    })
                    .collect(),
            )
        })
        .collect();
    let reads = scale.pick(24, 96);
    let mut reader_profile = ClientProfile::new();
    if subscribe {
        reader_profile = reader_profile.subscriber();
    }
    plans.push(ClientPlan::with_profile(
        (0..reads)
            .map(|_| ClientOp::ReadOnly {
                keys: vec![k0[0].clone(), k0[1].clone(), k1[2].clone()],
            })
            .collect(),
        reader_profile,
    ));
    let mut dep = Deployment::build_custom(config, plans);
    dep.run_until_done(sim_limit());

    let all = dep.samples();
    let window_s = match (
        all.iter().map(|s| s.start).min(),
        all.iter().map(|s| s.end).max(),
    ) {
        (Some(a), Some(b)) => b.saturating_since(a).as_secs_f64(),
        _ => 0.0,
    };
    let mut deltas_received = 0u64;
    let mut freshness_attached = 0u64;
    for e in &dep.edge_ids {
        let stats = &dep.edge_node(*e).stats;
        deltas_received += stats.feed_deltas_received;
        freshness_attached += stats.freshness_attached;
        assert_eq!(stats.bad_deltas_dropped, 0, "honest feed run");
    }
    let reader = dep.client(*dep.client_ids.last().unwrap());
    assert_eq!(reader.stats.verification_failures, 0);
    let rots: Vec<_> = reader
        .samples
        .iter()
        .filter(|s| s.kind == OpKind::ReadOnly && s.committed)
        .collect();
    let lats: Vec<f64> = rots
        .iter()
        .map(|s| s.latency().as_micros() as f64 / 1_000.0)
        .collect();
    PushRun {
        rots: rots.len() as u64,
        warm: rots.iter().filter(|s| s.rot_warm).count() as u64,
        round2: rots.iter().filter(|s| s.rot_round2).count() as u64,
        freshness_upgrades: reader.metrics().freshness_upgrades(),
        round2_skipped: reader.metrics().round2_skipped_by_feed(),
        deltas_received,
        freshness_attached,
        window_s,
        mean_ms: lats.iter().sum::<f64>() / lats.len().max(1) as f64,
    }
}

/// The push block: subscribed run vs unsubscribed control on the same
/// workload and feed cadence.
struct PushResult {
    feed_interval_ms: f64,
    deltas_received: u64,
    deltas_per_sec: f64,
    freshness_attached: u64,
    freshness_upgrades: u64,
    round2_skipped: u64,
    warm_reads: u64,
    warm_ratio: f64,
    round2_subscribed: u64,
    round2_control: u64,
    round2_eliminated: u64,
    subscribed_ms: f64,
    control_ms: f64,
}

fn edge_push_feed(scale: Scale) -> PushResult {
    let feed = SimDuration::from_millis(50);
    let sub = push_run(scale, true, feed);
    let ctrl = push_run(scale, false, feed);
    assert!(sub.freshness_upgrades > 0, "subscription must be exercised");
    assert_eq!(ctrl.freshness_upgrades, 0, "control must not subscribe");
    PushResult {
        feed_interval_ms: feed.as_micros() as f64 / 1_000.0,
        deltas_received: sub.deltas_received,
        deltas_per_sec: sub.deltas_received as f64 / sub.window_s.max(1e-9),
        freshness_attached: sub.freshness_attached,
        freshness_upgrades: sub.freshness_upgrades,
        round2_skipped: sub.round2_skipped,
        warm_reads: sub.warm,
        warm_ratio: sub.warm as f64 / sub.rots.max(1) as f64,
        round2_subscribed: sub.round2,
        round2_control: ctrl.round2,
        round2_eliminated: ctrl.round2.saturating_sub(sub.round2),
        subscribed_ms: sub.mean_ms,
        control_ms: ctrl.mean_ms,
    }
}

/// One crash/restart run: warm cluster 0's edge, crash it at
/// [`RESTART_CRASH_AT`], restart it either with its disk (hydrated
/// through the verifier) or wiped (cold control), then probe with the
/// same key set from a second client.
struct RestartRun {
    objects_spilled: u64,
    hydrate_admitted: u64,
    hydrate_rejected: u64,
    /// Upstream work after the restart: forwards + partial-assembly
    /// key fetches + scan forwards (the restarted actor's counters
    /// start at zero, so these are post-restart only).
    replica_fetches: u64,
    /// Sim time from the restart until the edge is warm for the probe
    /// set — the completion of the first probe read that needed no
    /// upstream fetch. A hydrated edge is warm at its first probe
    /// read; a cold edge only after its first read was absorbed.
    restart_to_warm_ms: f64,
    /// Mean probe latency once warm.
    warm_probe_ms: f64,
}

const RESTART_CRASH_AT: SimTime = SimTime(2_000_000);

fn restart_run(scale: Scale, hydrated: bool) -> RestartRun {
    let mut config = experiment_config(scale);
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .persistent()
        .build()
        .expect("edge config");
    config.client.record_results = true;
    let topo = config.topo.clone();
    let keys: Vec<_> = (0u32..config.n_keys.min(10_000))
        .map(Key::from_u32)
        .filter(|k| topo.partition_of(k) == ClusterId(0))
        .take(4)
        .collect();
    let rounds = scale.pick(12, 60);
    let script = |n: usize| -> Vec<ClientOp> {
        (0..n)
            .map(|_| ClientOp::ReadOnly { keys: keys.clone() })
            .collect()
    };
    // The probe starts 1 ms after the restart, so its first read
    // lands on the rehydrating (or cold) edge.
    let probe_delay = SimDuration(RESTART_CRASH_AT.0 + 1_000);
    let mut dep = Deployment::build_custom(
        config,
        vec![
            ClientPlan::ops(script(rounds)),
            ClientPlan::with_profile(
                script(rounds),
                ClientProfile::new().start_delay(probe_delay),
            ),
        ],
    );
    dep.run_until(RESTART_CRASH_AT);
    let e0 = EdgeId::new(ClusterId(0), 0);
    let store = dep.crash_edge(e0);
    let objects_spilled = store.len() as u64;
    assert!(objects_spilled > 0, "warm-up must spill snapshot objects");
    if hydrated {
        dep.restart_edge(e0, store);
    } else {
        dep.restart_edge(e0, SnapshotStore::new(DEFAULT_SPILL_THRESHOLD));
    }
    dep.run_until_done(SimTime(3_600_000_000));

    let stats = dep.edge_node(e0).stats;
    let replica_fetches = stats.forwarded + stats.keys_fetched_upstream + stats.scans_forwarded;
    let probe = dep.client(dep.client_ids[1]);
    assert_eq!(probe.stats.verification_failures, 0);
    assert_eq!(probe.stats.gave_up, 0);
    let samples: Vec<_> = probe
        .samples
        .iter()
        .filter(|s| s.kind == OpKind::ReadOnly)
        .collect();
    assert!(samples.len() >= 2);
    let warm_idx = if replica_fetches == 0 { 0 } else { 1 };
    let restart_to_warm_ms = samples[warm_idx]
        .end
        .saturating_since(RESTART_CRASH_AT)
        .as_micros() as f64
        / 1_000.0;
    let warm_tail = &samples[warm_idx.max(1)..];
    let warm_probe_ms = warm_tail
        .iter()
        .map(|s| s.latency().as_micros() as f64 / 1_000.0)
        .sum::<f64>()
        / warm_tail.len().max(1) as f64;
    RestartRun {
        objects_spilled,
        hydrate_admitted: stats.hydrate_admitted,
        hydrate_rejected: stats.hydrate_rejected,
        replica_fetches,
        restart_to_warm_ms,
        warm_probe_ms,
    }
}

struct RestartResult {
    hydrated: RestartRun,
    cold: RestartRun,
}

fn edge_restart(scale: Scale) -> RestartResult {
    let hydrated = restart_run(scale, true);
    let cold = restart_run(scale, false);
    assert!(
        hydrated.hydrate_admitted > 0,
        "hydration must re-admit the spilled objects"
    );
    assert_eq!(hydrated.hydrate_rejected, 0, "honest disk, no rejections");
    assert_eq!(
        hydrated.replica_fetches, 0,
        "a hydrated restart serves the probe set with zero replica fetches"
    );
    assert!(
        cold.replica_fetches > 0,
        "the cold control must pay upstream fetches"
    );
    assert!(
        hydrated.restart_to_warm_ms < cold.restart_to_warm_ms,
        "hydrated restart must reach warm strictly faster ({} vs {} ms)",
        hydrated.restart_to_warm_ms,
        cold.restart_to_warm_ms
    );
    RestartResult { hydrated, cold }
}

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
    let mut rows: Vec<ClusterRow> = Vec::new();
    for clusters in 1..=5usize {
        let config = experiment_config(scale);
        let spec = WorkloadSpec::read_only(config.topo.clone(), 5.max(clusters), clusters);
        let mut lat = [0.0f64; 3];
        for (i, system) in systems.iter().enumerate() {
            let ops = spec.generate(clients * ops_per_client, 40 + clusters as u64);
            let result = run_system(
                *system,
                experiment_config(scale),
                split_clients(ops, clients),
            );
            lat[i] = result.summary(Some(OpKind::ReadOnly)).mean_latency_ms;
        }
        row(&[
            clusters.to_string(),
            fmt_ms(lat[0]),
            fmt_ms(lat[1]),
            fmt_ms(lat[2]),
            format!("{:.1}x", lat[0] / lat[1].max(1e-9)),
        ]);
        rows.push(ClusterRow {
            clusters,
            twopc_ms: lat[0],
            transedge_ms: lat[1],
            edge_ms: lat[2],
        });
    }

    // Edge cache: cold vs warm through the ReadPipeline/replay tier.
    println!();
    println!("  edge cache (same keys, repeated):");
    let cache = edge_cache_cold_vs_warm(scale);
    header(&["cold", "warm", "hit rate", "replayed", "forwarded"]);
    row(&[
        fmt_ms(cache.cold_ms),
        fmt_ms(cache.warm_ms),
        fmt_pct(cache.hit_rate * 100.0),
        cache.served_from_cache.to_string(),
        cache.forwarded.to_string(),
    ]);

    // Partial assembly over overlapping key sets.
    println!();
    println!("  partial assembly (sliding key window):");
    let pa = edge_partial_assembly(scale);
    header(&["requests", "partial", "full", "fwd", "key hits", "upstream"]);
    row(&[
        pa.requests.to_string(),
        pa.partial.to_string(),
        pa.full_replays.to_string(),
        pa.forwarded.to_string(),
        fmt_pct(pa.key_hit_rate * 100.0),
        pa.upstream_keys.to_string(),
    ]);

    // Verified range scans: cold/warm through the edge scan cache,
    // plus covering reuse of a cached wider window.
    println!();
    println!("  verified range scans (wide window, then covered sub-window):");
    let scan = edge_scan_workload(scale);
    header(&["cold", "warm", "hit rate", "covered", "rows/scan"]);
    row(&[
        fmt_ms(scan.cold_ms),
        fmt_ms(scan.warm_ms),
        fmt_pct(scan.hit_rate * 100.0),
        scan.covered_by_wider.to_string(),
        format!("{:.1}", scan.mean_rows),
    ]);

    // Paginated multi-window scans through the unified ReadQuery API.
    println!();
    println!("  paginated scans (4 windows per query, pinned snapshot):");
    let pagination = edge_paginated_scans(scale);
    header(&["queries", "pages", "cold", "warm", "cached", "fwd"]);
    row(&[
        pagination.queries.to_string(),
        pagination.pages.to_string(),
        fmt_ms(pagination.cold_ms),
        fmt_ms(pagination.warm_ms),
        pagination.from_cache.to_string(),
        pagination.forwarded.to_string(),
    ]);

    // Cross-partition scatter-gather through one ReadQuery.
    println!();
    println!("  scatter-gather (one query, two partitions):");
    let scatter = edge_scatter_gather(scale);
    header(&["queries", "parts", "verified", "rows/q", "mean"]);
    row(&[
        scatter.queries.to_string(),
        scatter.partitions.to_string(),
        scatter.verified.to_string(),
        format!("{:.1}", scatter.mean_rows),
        fmt_ms(scatter.mean_ms),
    ]);

    // Gossiped directory: demotion propagation + edge-tier forwarding.
    println!();
    println!("  edge directory (gossiped demotion, single-contact scatter):");
    let directory = edge_directory_fleet(scale);
    header(&["edges", "rounds", "fwd hit", "1-contact", "fan-out"]);
    row(&[
        format!("{}/{}", directory.informed, directory.edges),
        format!("{:.0}", directory.propagation_rounds),
        fmt_pct(directory.forwarded_hit_rate * 100.0),
        fmt_ms(directory.single_contact_ms),
        fmt_ms(directory.fanout_ms),
    ]);

    // Causal-trace decomposition of the p95 read on each contact path.
    println!();
    println!("  p95 phase decomposition (µs, from the causal-trace flight recorder):");
    header(&["path", "e2e", "queue", "wire", "serve", "verify", "round2"]);
    for (path, b) in [
        ("1-contact", &directory.single_contact_p95),
        ("fan-out", &directory.fanout_p95),
    ] {
        row(&[
            path.to_string(),
            b.e2e_us.to_string(),
            b.queue_us.to_string(),
            b.wire_us.to_string(),
            b.serve_us.to_string(),
            b.verify_us.to_string(),
            b.round2_us.to_string(),
        ]);
    }

    // Throughput mode: saturating open-loop fleet of 6-key reads.
    println!();
    println!("  throughput (open-loop fleet, 6-key reads):");
    let tp = edge_throughput(scale);
    header(&["ops", "ops/sec", "p95", "p99", "replayed", "B/read"]);
    row(&[
        tp.ops.to_string(),
        format!("{:.0}", tp.ops_per_sec),
        fmt_ms(tp.p95_ms),
        fmt_ms(tp.p99_ms),
        tp.served_from_cache.to_string(),
        format!("{:.0}", tp.bytes_per_read),
    ]);

    // Certified delta streams: push invalidation + subscription tier.
    println!();
    println!("  certified delta stream (subscribed vs unsubscribed control):");
    let push = edge_push_feed(scale);
    header(&["deltas/s", "warm", "r2 sub", "r2 ctrl", "sub", "ctrl"]);
    row(&[
        format!("{:.1}", push.deltas_per_sec),
        fmt_pct(push.warm_ratio * 100.0),
        push.round2_subscribed.to_string(),
        push.round2_control.to_string(),
        fmt_ms(push.subscribed_ms),
        fmt_ms(push.control_ms),
    ]);

    // Verified warm restarts: hydrate from disk vs cold control.
    println!();
    println!("  verified warm restart (crash mid-workload, re-admit disk state):");
    let restart = edge_restart(scale);
    header(&[
        "objects",
        "admitted",
        "warm hyd",
        "warm cold",
        "fetch hyd",
        "fetch cold",
    ]);
    row(&[
        restart.hydrated.objects_spilled.to_string(),
        restart.hydrated.hydrate_admitted.to_string(),
        fmt_ms(restart.hydrated.restart_to_warm_ms),
        fmt_ms(restart.cold.restart_to_warm_ms),
        restart.hydrated.replica_fetches.to_string(),
        restart.cold.replica_fetches.to_string(),
    ]);

    // Scenario campaigns: declarative chaos timelines under the
    // invariant monitor (a campaign that returns ran with zero
    // violations — wrong-value, snapshot-atomicity, framing and
    // convergence checks all held through the chaos).
    println!();
    println!("  scenario campaigns (chaos timelines under invariant monitoring):");
    let campaign_scale = if scale.full {
        CampaignScale::full()
    } else {
        CampaignScale::quick()
    };
    let campaigns = [
        campaign::churn(&campaign_scale),
        campaign::partition_heal(&campaign_scale),
        campaign::flash_crowd(&campaign_scale),
        campaign::coalition(&campaign_scale),
    ];
    header(&[
        "campaign",
        "avail",
        "p95",
        "rejected",
        "rounds",
        "convicted",
    ]);
    for c in &campaigns {
        row(&[
            c.name.to_string(),
            fmt_pct(c.availability_pct),
            fmt_ms(c.p95_ms),
            c.rejected_reads.to_string(),
            format!("{:.0}", c.demotion_rounds),
            c.convicted.to_string(),
        ]);
    }

    paper_reference(&[
        "2PC/BFT:   ~12 ms at 1 cluster, 69–82 ms at 2–5 clusters",
        "TransEdge: ~1–8 ms across 1–5 clusters",
        "speedup:   24x at 2 clusters down to 9x at 5 clusters",
        "scans:     extension query type (no paper counterpart)",
    ]);

    // Machine-readable summary for trajectory tracking across PRs,
    // assembled through the typed writer in `transedge_bench::json`
    // (insertion-ordered keys, escaped strings, non-finite floats
    // surfaced as `null` for the schema gate to catch).
    //
    // Bump `schema_version` when a metrics block is added/renamed so
    // `scripts/validate_bench.sh` (and any trajectory tooling) can
    // tell schemas apart. 2 = added the `scan` block; 3 = added the
    // `pagination` and `scatter` blocks of the unified ReadQuery
    // protocol; 4 = added the `directory` block (gossiped demotion
    // propagation, edge-tier forwarding, single-contact vs fan-out);
    // 5 = added the `throughput` block (multiproof ops/sec mode) and
    // the directory block's `gather_cert_checks_shared`
    // one-pass-verification delta; 6 = added the `push` block
    // (certified delta stream: deltas/sec, staleness window, round-2
    // fetches eliminated by subscription); 7 = added the `restart`
    // block (verified warm restart: hydration from the
    // content-addressed snapshot store vs cold control); 8 = added the
    // `scenarios` block (chaos campaign trajectories under zero
    // invariant violations); 9 = added the `obs` block (causal-trace
    // per-phase p50/p95 decomposition of the single-contact and
    // fan-out scatter runs, components summing to end-to-end);
    // 10 = one point-read shape: `partial_assembly.fragment_hit_rate`
    // renamed `key_hit_rate`; the throughput block lost
    // `multiproof_ratio`, `multis_accepted`, `rot_multi_served` and
    // `multis_from_cache` (every point answer is a multiproof section
    // now) and gained `served_from_cache`; 11 = the throughput block
    // lost `cache_shards` (the replay caches are one per-partition
    // map; there is no shard count to report).
    let mut doc = JsonObject::new()
        .field("figure", "fig04_rot_latency")
        .field("schema_version", 11u64)
        .field("mode", if scale.full { "full" } else { "quick" });
    doc.set(
        "clusters",
        rows.iter()
            .map(|r| {
                JsonObject::new()
                    .field("clusters", r.clusters)
                    .field("twopc_ms", r.twopc_ms)
                    .field("transedge_ms", r.transedge_ms)
                    .field("transedge_edge_ms", r.edge_ms)
                    .field("speedup", r.twopc_ms / r.transedge_ms.max(1e-9))
            })
            .collect::<Vec<_>>(),
    );
    doc.set(
        "edge_cache",
        JsonObject::new()
            .field("cold_ms", cache.cold_ms)
            .field("warm_ms", cache.warm_ms)
            .field("hit_rate", cache.hit_rate)
            .field("replayed", cache.served_from_cache)
            .field("forwarded", cache.forwarded),
    );
    doc.set(
        "partial_assembly",
        JsonObject::new()
            .field("requests", pa.requests)
            .field("partial", pa.partial)
            .field("full_replays", pa.full_replays)
            .field("forwarded", pa.forwarded)
            .field("key_hit_rate", pa.key_hit_rate)
            .field("upstream_keys", pa.upstream_keys)
            .field("assembled_accepted", pa.assembled_accepted),
    );
    doc.set(
        "scan",
        JsonObject::new()
            .field("requests", scan.requests)
            .field("from_cache", scan.from_cache)
            .field("forwarded", scan.forwarded)
            .field("covered_by_wider", scan.covered_by_wider)
            .field("mean_rows", scan.mean_rows)
            .field("cold_ms", scan.cold_ms)
            .field("warm_ms", scan.warm_ms)
            .field("hit_rate", scan.hit_rate),
    );
    doc.set(
        "pagination",
        JsonObject::new()
            .field("queries", pagination.queries)
            .field("pages", pagination.pages)
            .field("mean_pages", pagination.mean_pages)
            .field("rows", pagination.rows)
            .field("served", pagination.served)
            .field("verified", pagination.verified)
            .field("rejected", pagination.rejected)
            .field("from_cache", pagination.from_cache)
            .field("forwarded", pagination.forwarded)
            .field("cold_ms", pagination.cold_ms)
            .field("warm_ms", pagination.warm_ms),
    );
    doc.set(
        "scatter",
        JsonObject::new()
            .field("queries", scatter.queries)
            .field("partitions", scatter.partitions)
            .field("served", scatter.served)
            .field("verified", scatter.verified)
            .field("rejected", scatter.rejected)
            .field("mean_rows", scatter.mean_rows)
            .field("mean_ms", scatter.mean_ms),
    );
    doc.set(
        "directory",
        JsonObject::new()
            .field("edges", directory.edges)
            .field("informed", directory.informed)
            .field("propagation_rounds", directory.propagation_rounds)
            .field("evidence_sent", directory.evidence_sent)
            .field("gather_queries", directory.gather_queries)
            .field("gather_completed", directory.gather_completed)
            .field("foreign_subs", directory.foreign_subs)
            .field("sibling_forwards", directory.sibling_forwards)
            .field("replica_forwards", directory.replica_forwards)
            .field("forwarded_hit_rate", directory.forwarded_hit_rate)
            .field(
                "gather_cert_checks_shared",
                directory.gather_cert_checks_shared,
            )
            .field("single_contact_ms", directory.single_contact_ms)
            .field("fanout_ms", directory.fanout_ms),
    );
    // Per-phase decomposition of the actual p50/p95 operations of the
    // two scatter runs, read off the causal-trace flight recorder.
    // Components sum exactly to each operation's end-to-end latency
    // (wire is the residual), which `validate_bench.sh` gates at ±5%.
    doc.set(
        "obs",
        JsonObject::new()
            .field(
                "single_contact",
                JsonObject::new()
                    .field("p50", breakdown_json(&directory.single_contact_p50))
                    .field("p95", breakdown_json(&directory.single_contact_p95)),
            )
            .field(
                "fanout",
                JsonObject::new()
                    .field("p50", breakdown_json(&directory.fanout_p50))
                    .field("p95", breakdown_json(&directory.fanout_p95)),
            ),
    );
    doc.set(
        "throughput",
        JsonObject::new()
            .field("ops", tp.ops)
            .field("window_s", tp.window_s)
            .field("ops_per_sec", tp.ops_per_sec)
            .field("mean_ms", tp.mean_ms)
            .field("p95_ms", tp.p95_ms)
            .field("p99_ms", tp.p99_ms)
            .field("bytes_per_read", tp.bytes_per_read)
            .field("served_from_cache", tp.served_from_cache)
            .field("cached_partitions", tp.cached_partitions),
    );
    // `staleness_window_ms` is the subscription tier's freshness bound:
    // a warm subscriber's view trails the commit log by at most one
    // feed interval plus the push's one-way latency.
    doc.set(
        "push",
        JsonObject::new()
            .field("staleness_window_ms", push.feed_interval_ms)
            .field("deltas_received", push.deltas_received)
            .field("deltas_per_sec", push.deltas_per_sec)
            .field("freshness_attached", push.freshness_attached)
            .field("freshness_upgrades", push.freshness_upgrades)
            .field("round2_skipped_by_feed", push.round2_skipped)
            .field("warm_reads", push.warm_reads)
            .field("warm_ratio", push.warm_ratio)
            .field("round2_subscribed", push.round2_subscribed)
            .field("round2_control", push.round2_control)
            .field("round2_eliminated", push.round2_eliminated)
            .field("subscribed_ms", push.subscribed_ms)
            .field("control_ms", push.control_ms),
    );
    // `restart_to_warm_ms` is measured from the restart instant to the
    // completion of the first probe read needing no upstream fetch —
    // hydration's verification cost (ed25519 + sha over every stored
    // object) is inside the hydrated number, so the contrast is fair.
    doc.set(
        "restart",
        JsonObject::new()
            .field("objects_spilled", restart.hydrated.objects_spilled)
            .field("hydrate_admitted", restart.hydrated.hydrate_admitted)
            .field("hydrate_rejected", restart.hydrated.hydrate_rejected)
            .field(
                "restart_to_warm_ms_hydrated",
                restart.hydrated.restart_to_warm_ms,
            )
            .field("restart_to_warm_ms_cold", restart.cold.restart_to_warm_ms)
            .field("replica_fetches_hydrated", restart.hydrated.replica_fetches)
            .field("replica_fetches_cold", restart.cold.replica_fetches)
            .field("warm_probe_ms_hydrated", restart.hydrated.warm_probe_ms)
            .field("warm_probe_ms_cold", restart.cold.warm_probe_ms),
    );
    // Every campaign already ran under the invariant monitor; a key
    // appearing here at all means zero violations.
    let mut scenarios = JsonObject::new();
    for c in &campaigns {
        scenarios.set(
            &c.name.replace('-', "_"),
            JsonObject::new()
                .field("availability_pct", c.availability_pct)
                .field("p95_ms", c.p95_ms)
                .field("rejected_reads", c.rejected_reads)
                .field("demotion_rounds", c.demotion_rounds)
                .field("convicted", c.convicted)
                .field("total_ops", c.total_ops)
                .field("invariant_checks", c.invariant_checks),
        );
    }
    doc.set("scenarios", scenarios);
    // Anchor at the workspace root regardless of bench CWD.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = root.join("BENCH_rot.json");
    std::fs::write(&out, doc.to_pretty()).expect("write BENCH_rot.json");
    println!("\n  wrote {}", out.display());
    // One campaign's flight recorder as Chrome trace format, for
    // chrome://tracing / Perfetto; CI uploads it as an artifact. The
    // coalition campaign is the interesting dump: it contains the
    // rejected lying reads next to their replica retries.
    let coalition_trace = campaigns
        .iter()
        .find(|c| c.name == "coalition")
        .map(|c| c.chrome_trace.as_str())
        .unwrap_or("{\"traceEvents\":[]}");
    let trace_out = root.join("TRACE_scenario.json");
    std::fs::write(&trace_out, coalition_trace).expect("write TRACE_scenario.json");
    println!("  wrote {}", trace_out.display());
}

/// One [`PhaseBreakdown`] as its `obs`-block JSON object.
fn breakdown_json(b: &PhaseBreakdown) -> JsonObject {
    JsonObject::new()
        .field("e2e_us", b.e2e_us)
        .field("queue_us", b.queue_us)
        .field("wire_us", b.wire_us)
        .field("serve_us", b.serve_us)
        .field("verify_us", b.verify_us)
        .field("round2_us", b.round2_us)
        .field("gossip_us", b.gossip_us)
        .field("components_sum_us", b.components_sum_us())
}
