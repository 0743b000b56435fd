//! The metric catalogue: every name the benchmark prints, with its
//! unit and direction, and for end-to-end metrics the share by which
//! it may worsen before a change counts as a regression.
//! `BENCHMARK.json` is generated from this table ([`manifest`]) and a
//! test holds the checked-in file to it. The README says why each
//! metric is here and which end-to-end metric each layer should move.

use std::fmt::Write as _;

use crate::workloads;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which a change may worsen it.
    /// The driver compares medians over runs of different seeds and one
    /// bound serves all seven workloads, so the workload that moves
    /// most with the seed sets it (the README lists the spreads).
    pub bound: f64,
    /// A pure function of workload and seed (simulated time, counts):
    /// two runs at one seed agree to the last digit, which `selfcheck`
    /// and the repetitions of every run hold it to.
    pub exact: bool,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one driver run measures.
pub const RUN_SECONDS: u32 = 12;

const fn exact(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: true,
    }
}

const fn clocked(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        exact: false,
        ..exact(name, unit, better, bound)
    }
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const END_TO_END: [EndToEnd; 8] = [
    exact("read_p50_ms", "ms", Better::Lower, 0.25),
    exact("read_p95_ms", "ms", Better::Lower, 0.25),
    exact("sim_ops_per_s", "1/s", Better::Higher, 0.25),
    exact("bytes_per_read", "B", Better::Lower, 0.25),
    exact("commit_pct", "%", Better::Higher, 0.02),
    clocked("wall_ops_per_s", "1/s", Better::Higher, 0.25),
    clocked("peak_heap_mb", "MB", Better::Lower, 0.05),
    clocked("setup_s", "s", Better::Lower, 0.25),
];

/// Units `sim_ms`/`sim_us` are simulated time (exact per seed); `us`
/// is this machine's clock.
pub const PER_LAYER: [PerLayer; 61] = [
    // Simulated outcomes only some workloads have.
    lower("rw_p50_ms", "sim_ms"),
    lower("rw_p95_ms", "sim_ms"),
    lower("round2_pct", "%"),
    lower("failed_pct", "%"),
    // simnet
    lower("simnet.events", "count"),
    higher("simnet.events_per_s", "1/s"),
    lower("simnet.msgs_per_op", "count"),
    lower("simnet.bytes_per_op", "B"),
    higher("simnet.idle_events_per_s", "1/s"),
    // obs: the p50 read's exact phase decomposition, and p95 queueing
    lower("obs.e2e_us_p50", "sim_us"),
    lower("obs.wire_us_p50", "sim_us"),
    lower("obs.queue_us_p50", "sim_us"),
    lower("obs.serve_us_p50", "sim_us"),
    lower("obs.verify_us_p50", "sim_us"),
    lower("obs.round2_us_p50", "sim_us"),
    lower("obs.gossip_us_p50", "sim_us"),
    lower("obs.overlap_us_p50", "sim_us"),
    lower("obs.queue_us_p95", "sim_us"),
    // core.client
    lower("core.client.round2_reads", "count"),
    lower("core.client.third_rounds", "count"),
    lower("core.client.retries", "count"),
    lower("core.client.gave_up", "count"),
    lower("core.client.verification_failures", "count"),
    higher("core.client.cert_checks_shared", "count"),
    // core.node
    lower("core.node.reads_served_per_op", "count"),
    lower("core.node.batches_proposed", "count"),
    lower("core.node.txns_rejected", "count"),
    lower("core.node.deltas_published", "count"),
    // core.edge_node / edge.replay
    higher("core.edge_node.cache_hit_pct", "%"),
    lower("core.edge_node.forwarded_per_op", "count"),
    lower("core.edge_node.sibling_forwards", "count"),
    lower("core.edge_node.feed_deltas_received", "count"),
    lower("edge.replay.evicted_entries", "count"),
    higher("edge.replay.freshness_attached", "count"),
    lower("edge.replay.freshness_refused", "count"),
    // allocator, over the timed loop and the build before it
    lower("alloc.count_per_op", "count"),
    lower("alloc.bytes_per_op", "B"),
    // The real-clock ladder.
    lower("crypto.sha256_us_per_kib", "us"),
    lower("crypto.ed25519_sign_us", "us"),
    lower("crypto.ed25519_verify_us", "us"),
    lower("crypto.merkle.prove_multi_us", "us"),
    lower("crypto.merkle.verify_multi_us", "us"),
    lower("crypto.range.prove_us", "us"),
    lower("crypto.range.verify_us", "us"),
    lower("crypto.merkle_versioned.apply_us_per_key", "us"),
    lower("consensus.cert_verify_us", "us"),
    lower("storage.value_at_us", "us"),
    lower("storage.rows_at_us", "us"),
    lower("edge.pipeline.serve_miss_us", "us"),
    lower("edge.pipeline.serve_hit_us", "us"),
    lower("edge.pipeline.self_us", "us"),
    lower("edge.cache.get_hit_us", "us"),
    lower("edge.cache.insert_evict_us", "us"),
    lower("edge.verifier.verify_query_us", "us"),
    lower("edge.verifier.self_us", "us"),
    lower("edge.response.body_bytes", "B"),
    lower("core.conflict.admit_us", "us"),
    // The benchmark's own health.
    higher("benchmark.cpu_explained_pct", "%"),
    lower("benchmark.trace_overhead_pct", "%"),
    lower("benchmark.wall_spread_pct", "%"),
    lower("benchmark.reps", "count"),
];

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let better = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"crates/bench/src/bin/benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"crates/bench/src/bin/benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let workloads: Vec<String> = workloads::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            )
        })
        .collect();
    let _ = write!(
        out,
        "  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    );
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(well_formed(unit, 16, "_/%.-"), "{unit}");
        }
        for w in &workloads::ALL {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn bounds_and_setup_metric_fit_the_contract() {
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn checked_in_manifest_matches_the_catalogue() {
        let checked_in = include_str!("../../../../../../BENCHMARK.json");
        assert_eq!(checked_in, manifest(), "regenerate: benchmark manifest");
        assert!(checked_in.len() <= 64 * 1024);
    }
}
