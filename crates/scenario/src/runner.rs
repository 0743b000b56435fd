//! Drives a [`Scenario`] timeline through a live deployment under
//! continuous invariant checking.

use std::collections::HashMap;

use transedge_common::{NodeId, SimTime};
use transedge_core::{ClientActor, Deployment};
use transedge_simnet::PartitionHandle;
use transedge_workload::WorkloadSpec;

use crate::event::{Scenario, ScenarioEvent};
use crate::liar::{self, Lie};
use crate::monitor::{InvariantMonitor, InvariantViolation};

/// Applies a scenario's events at their scheduled instants, sweeping
/// the [`InvariantMonitor`] after each one and once more when every
/// client finished. State that must outlive single events lives here:
/// name → handle bindings of imposed partitions.
pub struct ScenarioRunner {
    scenario: Scenario,
    /// The campaign workload — required by
    /// [`ScenarioEvent::HotKeyShift`] to regenerate client tails.
    workload: Option<WorkloadSpec>,
    partitions: HashMap<String, PartitionHandle>,
}

impl ScenarioRunner {
    pub fn new(scenario: Scenario) -> Self {
        ScenarioRunner {
            scenario,
            workload: None,
            partitions: HashMap::new(),
        }
    }

    /// Attach the workload spec the clients were scripted from —
    /// required before a [`ScenarioEvent::HotKeyShift`] can apply.
    pub fn with_workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = Some(spec);
        self
    }

    /// Run the whole timeline, then until every client finishes (or
    /// `limit`, whichever panics first — see
    /// [`Deployment::run_until_done`]). Returns the number of events
    /// applied; the first invariant violation aborts the run.
    pub fn run(
        mut self,
        dep: &mut Deployment,
        monitor: &mut InvariantMonitor,
        limit: SimTime,
    ) -> Result<usize, InvariantViolation> {
        let schedule = self.scenario.schedule();
        let applied = schedule.len();
        for (at, event) in schedule {
            dep.run_until(at);
            self.apply(dep, monitor, &event);
            Self::checked(dep, monitor)?;
        }
        dep.run_until_done(limit);
        Self::checked(dep, monitor)?;
        Ok(applied)
    }

    /// One monitor sweep; on a violation, dump the flight recorder
    /// (every recently completed causal trace, Chrome trace format) to
    /// stderr before aborting the campaign, so the offending read's
    /// full span tree survives the post-mortem.
    fn checked(dep: &Deployment, monitor: &mut InvariantMonitor) -> Result<(), InvariantViolation> {
        if let Err(violation) = monitor.check(dep) {
            eprintln!(
                "invariant violation: {violation:?}\nflight recorder ({} traces):\n{}",
                dep.completed_traces().len(),
                dep.export_trace()
            );
            return Err(violation);
        }
        Ok(())
    }

    fn apply(
        &mut self,
        dep: &mut Deployment,
        monitor: &mut InvariantMonitor,
        event: &ScenarioEvent,
    ) {
        match event {
            ScenarioEvent::EdgeCrash { edge } => dep.crash_edge(*edge),
            ScenarioEvent::EdgeRestart { edge } => dep.restart_edge(*edge),
            ScenarioEvent::PartitionStart { name, a, b } => {
                let handle = dep.impose_partition(a.iter().copied(), b.iter().copied());
                self.partitions.insert(name.clone(), handle);
            }
            ScenarioEvent::PartitionHeal { name } => {
                let handle = self
                    .partitions
                    .get(name)
                    .unwrap_or_else(|| panic!("PartitionHeal of unknown partition {name:?}"));
                dep.heal_partition(*handle);
            }
            ScenarioEvent::HotKeyShift { offset } => self.hot_key_shift(dep, monitor, *offset),
            ScenarioEvent::ClockSkew { cluster, interval } => {
                dep.set_batch_interval(*cluster, *interval);
            }
            ScenarioEvent::CoalitionActivate { members } => {
                monitor.expect_byzantine(members.iter().copied());
                for &member in members {
                    liar::install(dep, NodeId::Edge(member), Lie::Coalition);
                }
            }
            ScenarioEvent::ReplicaCrash { replica } => dep.crash_replica(*replica),
            ScenarioEvent::DropRate { p } => dep.set_drop_prob(*p),
            ScenarioEvent::Checkpoint => {}
        }
    }

    /// Swap every still-active client's pending tail for a freshly
    /// generated script with the hot set rotated by `offset`. Each new
    /// tail is noted with the monitor first — its writes become
    /// permissible before any of them can be read back.
    fn hot_key_shift(&self, dep: &mut Deployment, monitor: &mut InvariantMonitor, offset: u64) {
        let spec = self
            .workload
            .as_ref()
            .expect("HotKeyShift requires ScenarioRunner::with_workload")
            .clone()
            .with_hot_offset(offset);
        for id in dep.client_ids.clone() {
            let Some(client) = dep.sim.actor_as::<ClientActor>(NodeId::Client(id)) else {
                continue;
            };
            let pending = client.pending_ops();
            if pending == 0 {
                continue;
            }
            let seed = offset
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(u64::from(id.0) + 1);
            let ops = spec.generate(pending, seed);
            monitor.note_ops(&ops);
            dep.retarget_client_ops(id, ops);
        }
    }
}
