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
    fn empty_summary_is_zeroed() {
        let s = summarize(&[], None);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_latency_ms, 0.0);
    }
}
