#!/usr/bin/env bash
# Schema gate for the bench trajectory: BENCH_rot.json (emitted by
# `cargo bench -p transedge-bench --bench fig04_rot_latency`) must
# carry every read-path metrics block later PRs track. Run locally
# after touching the read path, and by CI's `bench-smoke` job.
#
#   usage: scripts/validate_bench.sh [path/to/BENCH_rot.json]
set -euo pipefail

BENCH_JSON="${1:-BENCH_rot.json}"

if ! command -v jq >/dev/null 2>&1; then
  echo "error: jq is required" >&2
  exit 1
fi

if [ ! -f "$BENCH_JSON" ]; then
  echo "error: $BENCH_JSON missing — run the fig04 bench first" >&2
  exit 1
fi

# schema_version pins the shape below; bump both together.
jq -e '
  .figure == "fig04_rot_latency"
  and .schema_version == 11
  and (.clusters | length == 5)
  and ([.clusters[]
        | select(.twopc_ms > 0 and .transedge_ms > 0
                 and .transedge_edge_ms > 0)] | length == 5)
  and (.edge_cache.hit_rate >= 0 and .edge_cache.hit_rate <= 1)
  and (.partial_assembly.requests > 0)
  and (.partial_assembly.partial >= 1)
  and (.partial_assembly.key_hit_rate > 0)
  and (.partial_assembly.key_hit_rate <= 1)
  and (.scan.requests > 0)
  and (.scan.from_cache >= 1)
  and (.scan.forwarded >= 1)
  and (.scan.covered_by_wider >= 1)
  and (.scan.mean_rows > 0)
  and (.scan.hit_rate >= 0 and .scan.hit_rate <= 1)
  and (.pagination.queries > 0)
  and (.pagination.mean_pages >= 2)
  and (.pagination.verified >= .pagination.pages)
  and (.pagination.rejected == 0)
  and (.pagination.from_cache >= 1)
  and (.pagination.rows > 0)
  and (.scatter.queries > 0)
  and (.scatter.partitions >= 2)
  and (.scatter.verified >= 2 * .scatter.queries)
  and (.scatter.rejected == 0)
  and (.scatter.mean_rows > 0)
  and (.directory.edges > 0)
  and (.directory.informed == .directory.edges)
  and (.directory.propagation_rounds >= 0)
  and (.directory.evidence_sent >= 1)
  and (.directory.gather_queries > 0)
  and (.directory.gather_completed >= 1)
  and (.directory.foreign_subs >= 1)
  and (.directory.forwarded_hit_rate >= 0 and .directory.forwarded_hit_rate <= 1)
  and (.directory.single_contact_ms > 0)
  and (.directory.fanout_ms > 0)
  and (.directory.gather_cert_checks_shared >= 0)
  and ([.obs.single_contact.p50, .obs.single_contact.p95,
        .obs.fanout.p50, .obs.fanout.p95]
       | all(
           (.e2e_us | type == "number" and . > 0)
           and ([.queue_us, .wire_us, .serve_us, .verify_us,
                 .round2_us, .gossip_us]
                | all(type == "number" and . >= 0))
           and (.components_sum_us >= 0.95 * .e2e_us)
           and (.components_sum_us <= 1.05 * .e2e_us)))
  and (.throughput.ops > 0)
  and (.throughput.ops_per_sec | type == "number" and isnormal and . > 0)
  and (.throughput.window_s > 0)
  and (.throughput.p95_ms > 0)
  and (.throughput.p99_ms >= .throughput.p95_ms)
  and (.throughput.bytes_per_read > 0)
  and (.throughput.served_from_cache >= 1)
  and (.push.staleness_window_ms > 0)
  and (.push.deltas_received >= 1)
  and (.push.deltas_per_sec > 0)
  and (.push.freshness_attached >= 1)
  and (.push.freshness_upgrades >= 1)
  and (.push.round2_skipped_by_feed >= 1)
  and (.push.warm_reads >= 1)
  and (.push.warm_ratio > 0 and .push.warm_ratio <= 1)
  and (.push.round2_control >= 1)
  and (.push.round2_eliminated >= 1)
  and (.push.round2_subscribed < .push.round2_control)
  and (.push.subscribed_ms > 0)
  and (.push.control_ms > 0)
  and (.restart.objects_spilled >= 1)
  and (.restart.hydrate_admitted >= 1)
  and (.restart.hydrate_rejected == 0)
  and (.restart.replica_fetches_hydrated == 0)
  and (.restart.replica_fetches_cold >= 1)
  and (.restart.restart_to_warm_ms_hydrated > 0)
  and (.restart.restart_to_warm_ms_cold > .restart.restart_to_warm_ms_hydrated)
  and ([.scenarios.churn, .scenarios.partition_heal,
        .scenarios.flash_crowd, .scenarios.coalition]
       | all(.availability_pct | type == "number" and isnormal and . > 0)
       and all(.p95_ms | type == "number" and isnormal and . > 0)
       and all(.rejected_reads >= 0)
       and all(.demotion_rounds >= 0)
       and all(.invariant_checks >= 1)
       and all(.total_ops > 0))
  and (.scenarios.coalition.rejected_reads >= 1)
  and (.scenarios.coalition.convicted >= 1)
  and (.scenarios.churn.rejected_reads == 0)
  and (.scenarios.flash_crowd.rejected_reads == 0)
' "$BENCH_JSON" >/dev/null

echo "ok: $BENCH_JSON matches bench schema v11"
