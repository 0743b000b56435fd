//! The four scenario campaigns end to end: every one must
//! run its full timeline under the invariant monitor with zero
//! violations (a campaign panics on the first one), and the coalition
//! campaign must end with every member convicted fleet-wide by
//! cryptographic evidence within the bounded gossip rounds.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use transedge::common::{SimDuration, SimTime};
use transedge::core::setup::{ClientPlan, Deployment, DeploymentConfig};
use transedge::core::{CacheConfig, ClientProfile, EdgeConfig};
use transedge::scenario::campaign::{self, CampaignOutcome, MAX_DEMOTION_ROUNDS};
use transedge::workload::WorkloadSpec;

// Each campaign runs once per test binary: its own test and the
// reachability test below read the same outcome.
fn churn() -> &'static CampaignOutcome {
    static RUN: OnceLock<CampaignOutcome> = OnceLock::new();
    RUN.get_or_init(campaign::churn)
}

fn partition_heal() -> &'static CampaignOutcome {
    static RUN: OnceLock<CampaignOutcome> = OnceLock::new();
    RUN.get_or_init(campaign::partition_heal)
}

fn flash_crowd() -> &'static CampaignOutcome {
    static RUN: OnceLock<CampaignOutcome> = OnceLock::new();
    RUN.get_or_init(campaign::flash_crowd)
}

fn coalition() -> &'static CampaignOutcome {
    static RUN: OnceLock<CampaignOutcome> = OnceLock::new();
    RUN.get_or_init(campaign::coalition)
}

#[test]
fn churn_campaign_holds_invariants() {
    let outcome = churn();
    assert!(
        outcome.availability_pct > 50.0,
        "churn availability {:.1}%",
        outcome.availability_pct
    );
    assert!(outcome.p95_ms > 0.0, "p95 must be measured");
    assert_eq!(
        outcome.rejected_reads, 0,
        "nothing lies in the churn campaign"
    );
    assert_eq!(outcome.demotion_rounds, 0.0);
    assert_eq!(outcome.convicted, 0);
    // One sweep per event plus the final one.
    assert!(outcome.invariant_checks >= 6);
}

#[test]
fn partition_heal_campaign_holds_invariants() {
    let outcome = partition_heal();
    assert!(
        outcome.availability_pct >= 80.0,
        "quorum holds through the partition, availability {:.1}%",
        outcome.availability_pct
    );
    assert!(outcome.p95_ms > 0.0);
    assert_eq!(outcome.rejected_reads, 0);
    assert_eq!(outcome.convicted, 0);
}

#[test]
fn flash_crowd_campaign_holds_invariants() {
    let outcome = flash_crowd();
    assert!(
        outcome.availability_pct >= 99.9,
        "no faults, no loss: availability {:.1}%",
        outcome.availability_pct
    );
    assert!(outcome.p95_ms > 0.0);
    assert_eq!(
        outcome.rejected_reads, 0,
        "re-targeted reads must all verify"
    );
}

#[test]
fn coalition_campaign_convicts_every_member() {
    let outcome = coalition();
    assert_eq!(
        outcome.convicted, 2,
        "every coalition member fleet-demoted via evidence"
    );
    assert!(
        outcome.rejected_reads > 0,
        "consistent lies must be caught by verification"
    );
    assert!(
        outcome.demotion_rounds <= MAX_DEMOTION_ROUNDS,
        "convergence bounded: {} rounds",
        outcome.demotion_rounds
    );
    assert!(
        outcome.availability_pct >= 90.0,
        "reads fall back to replicas, availability {:.1}%",
        outcome.availability_pct
    );
}

/// What no campaign deploys: the paper mix with a fifth of the ops
/// paginated two-partition scans, through one feed-fed edge per
/// cluster whose cache holds a fraction of the keys; of four clients
/// two subscribe and one sends its reads whole to a single contact.
fn mixed_feed_and_scan_counters() -> BTreeMap<String, u64> {
    let mut config = DeploymentConfig::for_testing();
    config.latency = transedge::simnet::LatencyModel::paper_default();
    config.edge = EdgeConfig::builder()
        .per_cluster(1)
        .cache(CacheConfig {
            capacity: 32,
            max_batches: 8,
        })
        .commit_feed(SimDuration::from_millis(20))
        .build()
        .expect("edge config");
    let mut spec = WorkloadSpec::paper_default(config.topo.clone());
    spec.n_keys = config.n_keys;
    spec.value_size = config.value_size;
    spec.scan_pct = 20;
    spec.scan_clusters = 2;
    spec.scan_pages = 2;
    let plans = spec
        .generate_fleet(4, 40, 4205)
        .into_iter()
        .enumerate()
        .map(|(client, ops)| match client {
            0 | 2 => ClientPlan::with_profile(ops, ClientProfile::new().subscriber()),
            1 => ClientPlan::with_profile(ops, ClientProfile::new().single_contact()),
            _ => ClientPlan::ops(ops),
        })
        .collect();
    let mut dep = Deployment::build_custom(config, plans);
    dep.run_until_done(SimTime(600_000_000));
    dep.metrics().fleet_counters()
}

/// Every counter some run registers and no run moves, with why. A
/// plane nothing reaches shows up here as a failing diff — reach it,
/// delete it, or add it with its reason; a name leaves the list the
/// day a run first moves it.
const NEVER_MOVED: &[(&str, &str)] = &[
    // Liveness: with 100 (campaigns) or 20 (mixed) retries every op
    // finishes; no test anywhere drives a client to give up.
    ("client.gave_up", "every op completes"),
    // Theorem 4.6; the benchmark's mixed-rw and feed-churn do move it
    // (ROADMAP open item 1), these five runs do not.
    ("client.third_round_needed", "ROADMAP item 1"),
    // No actor fabricates evidence: only crates/directory/tests feed an
    // agent a record that fails re-verification.
    (
        "directory.evidence_rejected",
        "nobody gossips a fabrication",
    ),
    ("directory.senders_struck", "nobody gossips a fabrication"),
    // Replicas are honest and links lossless while a feed runs: no
    // delta fails its certificate, none arrives past a gap, and no
    // subscriber has to catch up from the feed log.
    ("edge.bad_deltas_dropped", "replicas publish honest deltas"),
    ("replay.feed_resets", "no delta is lost"),
    ("node.deltas_replayed", "no subscriber falls behind"),
    // Push invalidation drops a touched entry before a subscriber can
    // ask for its freshness.
    (
        "replay.freshness_refused",
        "touched entries are invalidated first",
    ),
    // Churn restarts edges over the disks they crashed with, inside
    // the freshness window: nothing to reject, nothing aged, no cold
    // edge to transfer state to (tests/persistence.rs does all three).
    ("edge.hydrate_rejected", "disks are never corrupted"),
    (
        "edge.hydrate_stale",
        "restart is inside the freshness window",
    ),
    ("edge.sibling_objects_admitted", "no edge starts cold"),
    ("edge.sibling_objects_rejected", "no edge starts cold"),
    // A campaign-sized run spills each object once and far fewer than
    // the store's retention threshold.
    ("persist.deduped", "no object spills twice"),
    ("persist.pruned", "retention threshold never reached"),
    // Honest clients send well-formed scan windows.
    ("node.rot_scans_rejected", "no malformed window is sent"),
    // No campaign crashes a leader (tests/fault_tolerance.rs and
    // tests/determinism.rs do).
    ("node.view_changes", "no leader crashes"),
];

#[test]
fn counters_no_run_reaches_are_a_pinned_list() {
    let mixed = mixed_feed_and_scan_counters();
    let runs = [
        &churn().counters,
        &partition_heal().counters,
        &flash_crowd().counters,
        &coalition().counters,
        &mixed,
    ];
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for run in runs {
        for (name, value) in run {
            *totals.entry(name).or_default() += value;
        }
    }
    let never_moved: BTreeSet<&str> = totals
        .iter()
        .filter(|(_, total)| **total == 0)
        .map(|(name, _)| *name)
        .collect();
    let pinned: BTreeSet<&str> = NEVER_MOVED.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        never_moved, pinned,
        "registered counters that stayed 0 in every run (left) differ from the pinned list"
    );
}
