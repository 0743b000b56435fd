//! Latency / throughput / abort accounting.
//!
//! Clients record one [`TxnSample`] per finished operation; the bench
//! harnesses aggregate them into the numbers the paper's figures plot.

use transedge_common::{SimDuration, SimTime};
use transedge_obs::percentile;

/// What kind of operation a sample describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    LocalWriteOnly,
    LocalReadWrite,
    DistributedReadWrite,
    ReadOnly,
    /// Verified range scan over one partition's tree order.
    RangeScan,
}

/// One finished client operation.
#[derive(Clone, Copy, Debug)]
pub struct TxnSample {
    pub kind: OpKind,
    pub start: SimTime,
    pub end: SimTime,
    pub committed: bool,
    /// For read-only transactions: did it need the second round?
    pub rot_round2: bool,
    /// For read-only transactions of a subscribed client: was every
    /// partition served from a warm edge replay carrying a verified
    /// feed attachment? Warm reads are the ones the subscription tier
    /// promises to keep round-2-free; a cold forward (no attachment)
    /// re-enters the ordinary two-round protocol.
    pub rot_warm: bool,
    /// Latency of round 1 alone (read-only transactions).
    pub round1_latency: Option<SimDuration>,
}

impl TxnSample {
    pub fn latency(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// The shape classes a unified read query belongs to, computed once
/// when the query is planned. A query can belong to several at once
/// (e.g. a paginated scatter-gather scan counts under `scan`,
/// `paginated`, *and* `scatter`); point queries that touch one
/// partition count under `point` alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryClass {
    /// Scan shape (otherwise point).
    pub scan: bool,
    /// The scan range spans more than one page window.
    pub paginated: bool,
    /// The plan fans out to more than one partition.
    pub scatter: bool,
}

/// served/verified/rejected counters for one query-shape class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShapeCounters {
    /// Responses received for sub-queries of this class.
    pub served: u64,
    /// Responses that passed end-to-end verification.
    pub verified: u64,
    /// Responses rejected by the verifier (byzantine evidence).
    pub rejected: u64,
}

/// Per-query-shape counters of the unified read protocol, emitted from
/// the client's single verify dispatch point. Each event increments
/// every class the query belongs to (see [`QueryClass`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadQueryMetrics {
    pub point: ShapeCounters,
    pub scan: ShapeCounters,
    pub paginated: ShapeCounters,
    pub scatter: ShapeCounters,
}

impl ReadQueryMetrics {
    fn apply(&mut self, class: QueryClass, bump: impl Fn(&mut ShapeCounters)) {
        if class.scan {
            bump(&mut self.scan);
        } else {
            bump(&mut self.point);
        }
        if class.paginated {
            bump(&mut self.paginated);
        }
        if class.scatter {
            bump(&mut self.scatter);
        }
    }

    /// A response for a sub-query of `class` arrived.
    pub fn served(&mut self, class: QueryClass) {
        self.apply(class, |c| c.served += 1);
    }

    /// A response verified end to end.
    pub fn verified(&mut self, class: QueryClass) {
        self.apply(class, |c| c.verified += 1);
    }

    /// A response was rejected by the verifier.
    pub fn rejected(&mut self, class: QueryClass) {
        self.apply(class, |c| c.rejected += 1);
    }
}

/// One consolidated, typed snapshot of a client's read-protocol
/// metrics: the per-shape served/verified/rejected counters plus the
/// cross-cutting totals that used to live as ad-hoc `ClientStats`
/// fields (`cert_checks_shared`, `read_result_bytes`). Harnesses read
/// it through `ClientActor::metrics()` and the accessors below — the
/// fields are crate-private so the accessor API is the stable surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientMetrics {
    pub(crate) shapes: ReadQueryMetrics,
    pub(crate) cert_checks_shared: u64,
    pub(crate) read_result_bytes: u64,
    pub(crate) freshness_upgrades: u64,
    pub(crate) round2_skipped_by_feed: u64,
}

impl transedge_obs::RegisterMetrics for ClientMetrics {
    fn register_metrics(&self, scope: &str, reg: &mut transedge_obs::MetricRegistry) {
        for (class, c) in [
            ("point", self.shapes.point),
            ("scan", self.shapes.scan),
            ("paginated", self.shapes.paginated),
            ("scatter", self.shapes.scatter),
        ] {
            reg.counter(scope, &format!("query.{class}.served"), c.served);
            reg.counter(scope, &format!("query.{class}.verified"), c.verified);
            reg.counter(scope, &format!("query.{class}.rejected"), c.rejected);
        }
        reg.counter(scope, "query.cert_checks_shared", self.cert_checks_shared);
        reg.counter(scope, "query.read_result_bytes", self.read_result_bytes);
        reg.counter(scope, "query.freshness_upgrades", self.freshness_upgrades);
        reg.counter(
            scope,
            "query.round2_skipped_by_feed",
            self.round2_skipped_by_feed,
        );
    }
}

impl ClientMetrics {
    /// Counters for single-partition point sub-queries.
    pub fn point(&self) -> ShapeCounters {
        self.shapes.point
    }

    /// Counters for scan-shaped sub-queries.
    pub fn scan(&self) -> ShapeCounters {
        self.shapes.scan
    }

    /// Counters for multi-page scans.
    pub fn paginated(&self) -> ShapeCounters {
        self.shapes.paginated
    }

    /// Counters for queries fanning out to several partitions.
    pub fn scatter(&self) -> ShapeCounters {
        self.shapes.scatter
    }

    /// Duplicate certificate checks skipped by the one-pass
    /// verification charge (stitched sections and gather parts sharing
    /// a content-identical commitment are charged one quorum check).
    pub fn cert_checks_shared(&self) -> u64 {
        self.cert_checks_shared
    }

    /// Total wire bytes of every read response this client received
    /// (structural sizes — the throughput bench's bytes-per-read).
    pub fn read_result_bytes(&self) -> u64 {
        self.read_result_bytes
    }

    /// Responses whose attached delta-feed tail verified, upgrading the
    /// partition view to the feed head (subscription mode).
    pub fn freshness_upgrades(&self) -> u64 {
        self.freshness_upgrades
    }

    /// Queries whose round-2 MinEpoch re-fetch was eliminated because a
    /// verified feed attachment already satisfied the dependency floor
    /// the un-upgraded snapshot would have missed.
    pub fn round2_skipped_by_feed(&self) -> u64 {
        self.round2_skipped_by_feed
    }
}

/// Aggregated view over a set of samples.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub count: usize,
    pub committed: usize,
    pub aborted: usize,
    pub mean_latency_ms: f64,
    pub p50_latency_ms: f64,
    pub p95_latency_ms: f64,
    pub p99_latency_ms: f64,
    pub round2_fraction: f64,
    pub mean_round1_ms: f64,
    /// Mean of (total − round1) over transactions that ran a round 2 —
    /// the paper's Figure 5 "round 2" bar is this times
    /// `round2_fraction` (effective latency).
    pub mean_round2_extra_ms: f64,
}

/// Aggregate samples (optionally filtered by kind).
pub fn summarize(samples: &[TxnSample], kind: Option<OpKind>) -> Summary {
    let filtered: Vec<&TxnSample> = samples
        .iter()
        .filter(|s| kind.is_none_or(|k| s.kind == k))
        .collect();
    if filtered.is_empty() {
        return Summary::default();
    }
    let mut latencies: Vec<f64> = filtered
        .iter()
        .map(|s| s.latency().as_millis_f64())
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let committed = filtered.iter().filter(|s| s.committed).count();
    let round2: Vec<&&TxnSample> = filtered.iter().filter(|s| s.rot_round2).collect();
    let round1: Vec<f64> = filtered
        .iter()
        .filter_map(|s| s.round1_latency.map(|d| d.as_millis_f64()))
        .collect();
    let mean_round2_extra = if round2.is_empty() {
        0.0
    } else {
        round2
            .iter()
            .map(|s| {
                s.latency().as_millis_f64()
                    - s.round1_latency.map(|d| d.as_millis_f64()).unwrap_or(0.0)
            })
            .sum::<f64>()
            / round2.len() as f64
    };
    Summary {
        count: filtered.len(),
        committed,
        aborted: filtered.len() - committed,
        mean_latency_ms: latencies.iter().sum::<f64>() / latencies.len() as f64,
        p50_latency_ms: percentile(&latencies, 0.50),
        p95_latency_ms: percentile(&latencies, 0.95),
        p99_latency_ms: percentile(&latencies, 0.99),
        round2_fraction: round2.len() as f64 / filtered.len() as f64,
        mean_round1_ms: if round1.is_empty() {
            0.0
        } else {
            round1.iter().sum::<f64>() / round1.len() as f64
        },
        mean_round2_extra_ms: mean_round2_extra,
    }
}

/// Throughput over a window: committed ops per simulated second.
pub fn throughput_tps(samples: &[TxnSample], kind: Option<OpKind>, window: SimDuration) -> f64 {
    if window.as_secs_f64() <= 0.0 {
        return 0.0;
    }
    let committed = samples
        .iter()
        .filter(|s| kind.is_none_or(|k| s.kind == k) && s.committed)
        .count();
    committed as f64 / window.as_secs_f64()
}

/// Abort percentage (paper's Figure 13 / Table 1 metric).
pub fn abort_percent(samples: &[TxnSample], kind: Option<OpKind>) -> f64 {
    let s = summarize(samples, kind);
    if s.count == 0 {
        0.0
    } else {
        100.0 * s.aborted as f64 / s.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: OpKind, start_ms: u64, end_ms: u64, committed: bool) -> TxnSample {
        TxnSample {
            kind,
            start: SimTime(start_ms * 1000),
            end: SimTime(end_ms * 1000),
            committed,
            rot_round2: false,
            rot_warm: false,
            round1_latency: None,
        }
    }

    #[test]
    fn summary_basics() {
        let samples = vec![
            sample(OpKind::ReadOnly, 0, 10, true),
            sample(OpKind::ReadOnly, 0, 20, true),
            sample(OpKind::DistributedReadWrite, 0, 100, false),
        ];
        let s = summarize(&samples, Some(OpKind::ReadOnly));
        assert_eq!(s.count, 2);
        assert_eq!(s.committed, 2);
        assert!((s.mean_latency_ms - 15.0).abs() < 1e-9);
        let all = summarize(&samples, None);
        assert_eq!(all.count, 3);
        assert_eq!(all.aborted, 1);
    }

    #[test]
    fn abort_percent_matches() {
        let samples = vec![
            sample(OpKind::DistributedReadWrite, 0, 1, true),
            sample(OpKind::DistributedReadWrite, 0, 1, true),
            sample(OpKind::DistributedReadWrite, 0, 1, false),
            sample(OpKind::DistributedReadWrite, 0, 1, true),
        ];
        assert!((abort_percent(&samples, None) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_counts_committed_only() {
        let samples = vec![
            sample(OpKind::ReadOnly, 0, 1, true),
            sample(OpKind::ReadOnly, 0, 1, false),
        ];
        let tps = throughput_tps(&samples, None, SimDuration::from_secs(2));
        assert!((tps - 0.5).abs() < 1e-9);
    }

    #[test]
    fn round2_accounting() {
        let mut s1 = sample(OpKind::ReadOnly, 0, 30, true);
        s1.rot_round2 = true;
        s1.round1_latency = Some(SimDuration::from_millis(10));
        let s2 = {
            let mut s = sample(OpKind::ReadOnly, 0, 10, true);
            s.round1_latency = Some(SimDuration::from_millis(10));
            s
        };
        let sum = summarize(&[s1, s2], Some(OpKind::ReadOnly));
        assert!((sum.round2_fraction - 0.5).abs() < 1e-9);
        assert!((sum.mean_round1_ms - 10.0).abs() < 1e-9);
        assert!((sum.mean_round2_extra_ms - 20.0).abs() < 1e-9);
    }

    #[test]
    fn query_metrics_count_every_applicable_class() {
        let mut m = ReadQueryMetrics::default();
        let point = QueryClass::default();
        m.served(point);
        m.verified(point);
        assert_eq!(m.point.served, 1);
        assert_eq!(m.point.verified, 1);
        assert_eq!(m.scan.served, 0);
        // A paginated scatter-gather scan counts under all three scan
        // classes, never under point.
        let fancy = QueryClass {
            scan: true,
            paginated: true,
            scatter: true,
        };
        m.served(fancy);
        m.rejected(fancy);
        assert_eq!(m.scan.served, 1);
        assert_eq!(m.paginated.served, 1);
        assert_eq!(m.scatter.served, 1);
        assert_eq!(m.scan.rejected, 1);
        assert_eq!(m.point.served, 1);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = summarize(&[], None);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_latency_ms, 0.0);
    }
}
