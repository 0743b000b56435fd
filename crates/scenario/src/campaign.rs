//! Ready-made scenario campaigns: churn, partition-heal, flash-crowd
//! and coalition, each returning the availability / latency /
//! rejection / convergence outcome `tests/scenarios.rs` asserts on.
//!
//! Every campaign builds its own deployment, scripts a client fleet,
//! runs its timeline under an [`InvariantMonitor`], and panics on the
//! first invariant violation — a campaign that returns at all ran
//! clean.

use std::collections::BTreeMap;

use transedge_common::{
    ClusterId, ClusterTopology, EdgeId, NodeId, ReplicaId, SimDuration, SimTime,
};
use transedge_core::client::ClientConfig;
use transedge_core::{metrics, ClientOp};
use transedge_core::{Deployment, DeploymentConfig, EdgeConfig, NodeConfig};
use transedge_simnet::{CostModel, FaultPlan, LatencyModel};
use transedge_workload::{KeyDistribution, WorkloadSpec};

use crate::event::{Scenario, ScenarioEvent};
use crate::monitor::InvariantMonitor;
use crate::runner::ScenarioRunner;

/// Ample sim-time budget — campaigns finish far earlier or panic with
/// diagnostics.
const SIM_LIMIT: SimTime = SimTime(3_600_000_000);

/// Fleet-demotion bound asserted by the coalition campaign: every
/// member convicted everywhere within this many gossip rounds of the
/// first conviction.
pub const MAX_DEMOTION_ROUNDS: f64 = 64.0;

/// How big every campaign runs — deployment width and offered load:
/// a small fleet, seconds of wall clock.
const CLUSTERS: u16 = 2;
const CLIENTS: usize = 4;
const OPS_PER_CLIENT: usize = 24;

/// One campaign's measured outcome (invariants already held, or the
/// campaign panicked instead of returning).
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Committed operations as a percentage of every scripted one.
    pub availability_pct: f64,
    /// p95 operation latency (ms) across the whole run, chaos included.
    pub p95_ms: f64,
    /// Responses rejected by client-side verification — byzantine
    /// evidence, each also pushed to the directory.
    pub rejected_reads: u64,
    /// Gossip rounds from first conviction anywhere to fleet-wide
    /// demotion (0 when nothing lied).
    pub demotion_rounds: f64,
    /// Scripted liars convicted fleet-wide.
    pub convicted: usize,
    /// Invariant sweeps that ran.
    pub invariant_checks: u64,
    /// Every registered counter summed over the fleet at the end of
    /// the run (`Deployment::metrics().fleet_counters()`) — what the
    /// campaign reached, for the reachability test.
    pub counters: BTreeMap<String, u64>,
}

fn base_config(edge: EdgeConfig, seed: u64) -> DeploymentConfig {
    DeploymentConfig {
        topo: ClusterTopology::new(CLUSTERS, 1).expect("campaign topology"),
        node: NodeConfig {
            batch_interval: SimDuration::from_millis(2),
            max_batch_size: 64,
            ..NodeConfig::default()
        },
        client: ClientConfig {
            record_results: true,
            retry_after: SimDuration::from_millis(100),
            max_retries: 100,
            ..ClientConfig::default()
        },
        latency: LatencyModel::paper_default(),
        cost: CostModel::zero(),
        faults: FaultPlan::none(),
        seed,
        n_keys: 512,
        value_size: 32,
        edge,
    }
}

/// 100% cross-partition read-only transactions sized to the campaign
/// deployment.
fn rot_spec(config: &DeploymentConfig) -> WorkloadSpec {
    let n = config.topo.n_clusters();
    let mut spec = WorkloadSpec::read_only(config.topo.clone(), n, n);
    spec.n_keys = config.n_keys;
    spec.value_size = config.value_size;
    spec
}

/// The paper's mixed workload (ROT + local/distributed read-write)
/// sized to the campaign deployment.
fn mixed_spec(config: &DeploymentConfig) -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default(config.topo.clone());
    spec.n_keys = config.n_keys;
    spec.value_size = config.value_size;
    spec
}

fn run_campaign(
    name: &'static str,
    mut dep: Deployment,
    scripts: Vec<Vec<ClientOp>>,
    spec: WorkloadSpec,
    scenario: Scenario,
) -> CampaignOutcome {
    let total_ops: usize = scripts.iter().map(Vec::len).sum();
    let mut monitor = InvariantMonitor::new(&dep);
    for ops in &scripts {
        monitor.note_ops(ops);
    }
    ScenarioRunner::new(scenario)
        .with_workload(spec)
        .run(&mut dep, &mut monitor, SIM_LIMIT)
        .unwrap_or_else(|v| panic!("campaign {name}: invariant violated: {v}"));
    let report = monitor
        .finish(&dep, MAX_DEMOTION_ROUNDS)
        .unwrap_or_else(|v| panic!("campaign {name}: invariant violated: {v}"));
    let samples = dep.samples();
    let summary = metrics::summarize(&samples, None);
    let rejected_reads: u64 = dep
        .client_ids
        .iter()
        .map(|id| dep.client(*id).stats.verification_failures)
        .sum();
    CampaignOutcome {
        availability_pct: 100.0 * summary.committed as f64 / total_ops.max(1) as f64,
        p95_ms: summary.p95_latency_ms,
        rejected_reads,
        demotion_rounds: report.rounds,
        convicted: report.convicted.len(),
        invariant_checks: monitor.checks_run(),
        counters: dep.metrics().fleet_counters(),
    }
}

fn ms(millis: u64) -> SimTime {
    SimTime(millis * 1_000)
}

/// Edge churn: two edges per cluster with the persistence plane on;
/// one edge per cluster crashes mid-workload and restarts later (warm
/// hydration through the verifier). Reads ride out the churn on the
/// surviving sibling or the replicas.
pub fn churn() -> CampaignOutcome {
    let edge = EdgeConfig::builder()
        .per_cluster(2)
        .persistent()
        .build()
        .expect("churn edge config");
    let config = base_config(edge, 901);
    let spec = rot_spec(&config);
    let scripts = spec.generate_fleet(CLIENTS, OPS_PER_CLIENT, 4201);
    let dep = Deployment::build(config, scripts.clone());
    let scenario = Scenario::named("churn")
        .at(
            ms(40),
            ScenarioEvent::EdgeCrash {
                edge: EdgeId::new(ClusterId(0), 0),
            },
        )
        .at(
            ms(70),
            ScenarioEvent::EdgeCrash {
                edge: EdgeId::new(ClusterId(1), 1),
            },
        )
        .at(
            ms(160),
            ScenarioEvent::EdgeRestart {
                edge: EdgeId::new(ClusterId(0), 0),
            },
        )
        .at(
            ms(200),
            ScenarioEvent::EdgeRestart {
                edge: EdgeId::new(ClusterId(1), 1),
            },
        )
        .at(ms(260), ScenarioEvent::Checkpoint);
    run_campaign("churn", dep, scripts, spec, scenario)
}

/// Partition and heal: the last follower of every cluster is cut off
/// from its cluster peers mid-run, then healed. Quorum (`2f+1` of
/// `3f+1`) holds throughout, so the mixed workload keeps committing;
/// snapshot atomicity must hold across the cut.
pub fn partition_heal() -> CampaignOutcome {
    let config = base_config(EdgeConfig::honest(1), 902);
    let spec = mixed_spec(&config);
    let scripts = spec.generate_fleet(CLIENTS, OPS_PER_CLIENT, 4202);
    let topo = config.topo.clone();
    let dep = Deployment::build(config, scripts.clone());
    let mut scenario = Scenario::named("partition-heal");
    for cluster in topo.clusters() {
        let replicas: Vec<ReplicaId> = topo.replicas_of(cluster).collect();
        let (cut, rest) = replicas.split_last().expect("non-empty cluster");
        scenario = scenario
            .at(
                ms(40),
                ScenarioEvent::PartitionStart {
                    name: format!("{cluster:?}"),
                    a: vec![NodeId::Replica(*cut)],
                    b: rest.iter().map(|r| NodeId::Replica(*r)).collect(),
                },
            )
            .at(
                ms(160),
                ScenarioEvent::PartitionHeal {
                    name: format!("{cluster:?}"),
                },
            );
    }
    scenario = scenario.at(ms(220), ScenarioEvent::Checkpoint);
    run_campaign("partition-heal", dep, scripts, spec, scenario)
}

/// Flash crowd: a zipfian read-only workload whose hot set jumps to
/// entirely different keys mid-run (client tails regenerated with a
/// rotated rank mapping), while one cluster's certification cadence is
/// skewed slower. Edge caches must re-warm on the new hot set with no
/// verification anomalies.
pub fn flash_crowd() -> CampaignOutcome {
    let config = base_config(EdgeConfig::honest(1), 903);
    let mut spec = rot_spec(&config);
    spec.distribution = KeyDistribution::Zipfian { theta: 0.99 };
    let scripts = spec.generate_fleet(CLIENTS, OPS_PER_CLIENT, 4203);
    let hot_offset = u64::from(config.n_keys / 3);
    let dep = Deployment::build(config, scripts.clone());
    let scenario = Scenario::named("flash-crowd")
        .at(
            ms(50),
            ScenarioEvent::ClockSkew {
                cluster: ClusterId(0),
                interval: SimDuration::from_millis(8),
            },
        )
        .at(ms(70), ScenarioEvent::HotKeyShift { offset: hot_offset })
        .at(ms(140), ScenarioEvent::Checkpoint);
    run_campaign("flash-crowd", dep, scripts, spec, scenario)
}

/// Coalition: every edge fronting cluster 0 turns coat at once and
/// forges the *same* root per batch — consistent lying that majority
/// voting over the edge tier would believe. Certificate verification
/// convicts each member on first contact, evidence gossips fleet-wide
/// (bounded rounds asserted), honest edges stay clean, and reads fall
/// back to the replicas, so the workload still finishes.
pub fn coalition() -> CampaignOutcome {
    let edge = EdgeConfig::builder()
        .per_cluster(2)
        .gossip_directory(SimDuration::from_millis(10))
        .build()
        .expect("coalition edge config");
    let config = base_config(edge, 904);
    let spec = rot_spec(&config);
    let scripts = spec.generate_fleet(CLIENTS, OPS_PER_CLIENT, 4204);
    let members: Vec<EdgeId> = (0..2).map(|i| EdgeId::new(ClusterId(0), i)).collect();
    let dep = Deployment::build(config, scripts.clone());
    let scenario = Scenario::named("coalition")
        .at(ms(80), ScenarioEvent::CoalitionActivate { members })
        .at(ms(200), ScenarioEvent::Checkpoint);
    run_campaign("coalition", dep, scripts, spec, scenario)
}
