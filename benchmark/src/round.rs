//! The fault, failover and probe calls `run_lumos` makes at the start of
//! every round on a faulted, tiered fleet. Both faulted workloads
//! (`fleet-unsup`'s replay and `fleet-100k`) drive their rounds through
//! here, so the sequence is written once.

use lumos_fed::Runtime;
use lumos_sim::{
    AggregationPolicy, DeviceProfile, DeviceWork, EventDrivenRuntime, FaultPlan, FaultState,
};
use lumos_topo::{ShardRoundPolicies, Topology};

use crate::trace::Tracer;

/// One round's compiled fault outcomes.
pub struct RoundFaults {
    /// The plan the probe and the epoch close run under.
    pub plan: FaultPlan,
    /// Churn availability of every device this round.
    pub avail: Vec<bool>,
    /// Devices that crash mid-round (their update never forms).
    pub crashed: Vec<u32>,
    /// Devices whose upload exhausts its retry budget (arrives next round).
    pub exhausted: Vec<u32>,
}

impl RoundFaults {
    /// Devices that are available and do not crash this round.
    pub fn live(&self) -> usize {
        self.avail.iter().filter(|&&a| a).count() - self.crashed.len()
    }
}

/// Re-homes the shards of outaged aggregators to their failover
/// successors, then compiles the round's fault plan.
pub fn compile(
    faults: &mut FaultState,
    topo: &Topology,
    runtime: &mut Runtime,
    profiles: &[DeviceProfile],
    tr: &mut Tracer,
) -> RoundFaults {
    let rehome = tr.scope("topo.tier_s", || {
        let outaged = faults.outaged_aggregators(topo.num_aggregators());
        (!outaged.is_empty()).then(|| topo.failover_map(&outaged))
    });
    if let Some(map) = &rehome {
        let served = map.iter().enumerate().filter(|&(s, &t)| t as usize != s);
        let served = served.count() as u64;
        faults.note_failovers(served);
        tr.count("topo.failovers", served as f64);
    }
    runtime.network.set_rehome(rehome.clone());
    runtime.set_failover(rehome);
    let retries_before = faults.counters().retries;
    let plan = tr.scope("sim.fault_compile_s", || faults.compile_round(profiles));
    tr.count(
        "sim.retries",
        (faults.counters().retries - retries_before) as f64,
    );
    let avail: Vec<bool> = profiles.iter().map(|p| p.available).collect();
    let crashed = plan.crashed_devices(&avail);
    let exhausted = plan.exhausted_uploads(&avail);
    tr.count("sim.crashed_devices", crashed.len() as f64);
    RoundFaults {
        plan,
        avail,
        crashed,
        exhausted,
    }
}

/// The event-driven probe: schedules the round's `work` under its fault
/// plan and lets the per-shard policies judge each event as it lands.
/// Returns the late devices with the rounds their updates ride the
/// staleness buffer.
pub fn probe(
    profiles: &[DeviceProfile],
    work: &[DeviceWork],
    faults: &RoundFaults,
    policy: &AggregationPolicy,
    topo: &Topology,
    tr: &mut Tracer,
) -> Vec<(u32, u32)> {
    let schedule = tr.scope("sim.schedule_s", || {
        EventDrivenRuntime::new_with_faults(profiles, work, Some(&faults.plan))
    });
    let mut events = 0u64;
    let verdicts = tr.scope("sim.dispatch_s", || {
        let mut shards = ShardRoundPolicies::new(policy, &schedule, topo);
        schedule.run(|t, ev| {
            events += 1;
            shards.on_event(t, ev)
        });
        shards.verdicts()
    });
    tr.count("sim.events_per_round", events as f64);
    verdicts
}

/// Devices whose update reached the aggregate this round, read from the
/// epoch close's delivery record.
pub fn delivered(stats: &lumos_sim::EpochStats, silenced: &[bool]) -> usize {
    let landed = stats.update_delivery_secs.iter().zip(silenced);
    landed.filter(|(t, &off)| t.is_some() && !off).count()
}
