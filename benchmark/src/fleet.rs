//! The `fleet-100k` workload: the federation substrate at 10⁵ devices,
//! with no GNN.
//!
//! Each round carries the synthetic traffic of the scale sweep (two ring
//! neighbours plus the aggregation upload) and drives the call sequence
//! `run_lumos` makes per round: the topology's failover map, the fault
//! stream's `compile_round`, the event-driven probe judged by
//! `ShardRoundPolicies` (these three through [`crate::round`]), the
//! `SimNetwork` sends (late and exhausted uploads deferred, not dropped),
//! then `Runtime::end_epoch_closing`.

use std::collections::BTreeMap;

use lumos_common::timer::{time_it, Stopwatch};
use lumos_fed::{ledger_work, CostModel, Runtime, SimNetwork, TierSpec};
use lumos_sim::{
    AggregationPolicy, DeviceProfile, DeviceWork, FaultState, RecoveryPolicy, Scenario,
    ScenarioState,
};
use lumos_topo::Topology;

use crate::round;
use crate::trace::Tracer;
use crate::trainer::fault_spec;

/// Fleet size.
pub const DEVICES: usize = 100_000;
/// Rounds per run.
pub const ROUNDS: usize = 8;
/// Share of the fleet whose landing closes an async round.
const QUORUM: f64 = 0.7;
/// Bytes of one update on the synthetic wire (the trainer's embedding).
const UPDATE_BYTES: u64 = 64;
/// Tree nodes every synthetic device carries.
const TREE_NODES: usize = 4;
/// GNN layers the cost model prices.
const LAYERS: usize = 2;
/// Sends one deferred update carries: two ring neighbours and the upload.
const SENDS_PER_UPDATE: usize = 3;

/// What one run measured and produced.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Fleet sampling, topology, ledger and probe-template construction.
    pub setup_s: f64,
    /// Set-up plus every round.
    pub run_s: f64,
    /// Inter-device messages per device per round.
    pub msgs_per_device_round: f64,
    /// Mean simulated seconds per round.
    pub virtual_makespan_s: f64,
    /// Bytes reaching the server per round.
    pub server_bytes_per_round: f64,
    /// Tree nodes behind the busiest aggregator.
    pub busiest_aggregator_nodes: usize,
    /// Mean over rounds of (updates pooled or carried) ÷ (updates live
    /// devices attempted); the carried ones are read from the runtime's
    /// carry-over ledger. Anything under 1 means an update went missing.
    pub update_yield: f64,
    /// Mean over rounds of (updates that reached this round's aggregate)
    /// ÷ (updates live devices attempted): how fresh the aggregate is.
    pub in_round_share: f64,
    /// Updates discarded for good.
    pub wasted_updates: u64,
    /// Shard-rounds served by a failover successor.
    pub failovers: u64,
    /// Deterministic outputs, bitwise, for same-seed comparison.
    pub fingerprint: Vec<u64>,
}

/// Aggregator count for `n` devices: `⌈√n⌉`.
fn aggregators_for(n: usize) -> usize {
    (n as f64).sqrt().ceil() as usize
}

/// The two ring neighbours device `d` sends to each round.
fn ring_targets(d: u32, n: u32) -> [u32; 2] {
    [(d + 1) % n, (d + 7) % n]
}

/// Everything a run holds before its first round.
struct Fleet {
    scenario: ScenarioState,
    topo: Topology,
    runtime: Runtime,
    faults: FaultState,
    tree_sizes: Vec<usize>,
    min_updates: usize,
    policy: AggregationPolicy,
    template: Vec<DeviceWork>,
}

/// Fleet sampling, topology, ledger and probe-template construction.
fn setup(n: usize, seed: u64) -> Fleet {
    let scenario = ScenarioState::new(Scenario::Churn, n, seed);
    let topo = Topology::seeded(n, aggregators_for(n), seed);
    let mut runtime = Runtime::new(n, CostModel::default());
    runtime.set_embedding_bytes(UPDATE_BYTES);
    runtime.network = SimNetwork::new_sharded(topo.shard_vector());
    runtime.set_tier(TierSpec {
        topology: topo.clone(),
        aggregator: DeviceProfile::baseline(),
        partial_bytes: UPDATE_BYTES,
    });
    let faults = FaultState::new(fault_spec(), RecoveryPolicy::default(), seed);
    let tree_sizes = vec![TREE_NODES; n];
    let min_updates = (QUORUM * n as f64).ceil() as usize;
    let policy = AggregationPolicy::Async { min_updates }.resolve(n);
    let template = {
        let mut probe = SimNetwork::new_sharded(topo.shard_vector());
        let snap = probe.snapshot();
        send_round(&mut probe, &topo, &vec![false; n]);
        ledger_work(&probe, &snap, &tree_sizes, LAYERS)
    };
    Fleet {
        scenario,
        topo,
        runtime,
        faults,
        tree_sizes,
        min_updates,
        policy,
        template,
    }
}

/// Wall seconds of one set-up alone.
pub fn setup_secs(n: usize, seed: u64) -> f64 {
    time_it(|| setup(n, seed)).1
}

/// One run of `rounds` rounds over a fleet of `n` devices drawn from `seed`.
pub fn run(n: usize, rounds: usize, seed: u64, tr: &mut Tracer) -> FleetRun {
    let mut total = Stopwatch::started();
    let (fleet, setup_s) = time_it(|| setup(n, seed));
    let Fleet {
        mut scenario,
        topo,
        mut runtime,
        mut faults,
        tree_sizes,
        min_updates,
        policy,
        template,
    } = fleet;

    let mut in_round = Vec::with_capacity(rounds);
    let mut yields = Vec::with_capacity(rounds);
    for round in 0..rounds {
        tr.set_round(round as u64);
        runtime.set_profiles(scenario.profiles().to_vec());
        runtime.begin_epoch();
        let rf = round::compile(&mut faults, &topo, &mut runtime, scenario.profiles(), tr);
        tr.scope("fed.sends_s", || runtime.carry_in());
        let late_staleness = round::probe(scenario.profiles(), &template, &rf, &policy, &topo, tr);
        let late: Vec<u32> = late_staleness.iter().map(|&(d, _)| d).collect();

        // Late uploads ride the staleness buffer `staleness` rounds;
        // exhausted ones arrive one round late. Neither is dropped.
        let mut silenced: Vec<bool> = rf.avail.iter().map(|&a| !a).collect();
        let mut parked: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for &d in &rf.crashed {
            silenced[d as usize] = true;
        }
        for &(d, s) in &late_staleness {
            silenced[d as usize] = true;
            parked.entry(s).or_default().push(d);
        }
        for &d in &rf.exhausted {
            if !silenced[d as usize] {
                silenced[d as usize] = true;
                parked.entry(1).or_default().push(d);
            }
        }
        let live = rf.live();
        let waiting = runtime.deferred_sends();
        tr.scope("fed.sends_s", || {
            send_round(&mut runtime.network, &topo, &silenced);
            for (&s, devices) in &parked {
                let sends: Vec<(u32, u32, u64)> = devices
                    .iter()
                    .flat_map(|&d| {
                        let [a, b] = ring_targets(d, n as u32);
                        [
                            (d, a, UPDATE_BYTES),
                            (d, b, UPDATE_BYTES),
                            (d, SimNetwork::SERVER, UPDATE_BYTES),
                        ]
                    })
                    .collect();
                runtime.defer_sends(s, sends);
            }
        });
        // The carry-over ledger's growth this round, in updates.
        let carried = (runtime.deferred_sends() - waiting) / SENDS_PER_UPDATE;
        runtime.set_fault_plan(Some(rf.plan));
        let (messages, delivered, close_events) = tr.scope("fed.close_s", || {
            let record = runtime.end_epoch_closing(&tree_sizes, LAYERS, &late, min_updates);
            let stats = record.sim.as_ref().expect("profiled runtime simulates");
            (
                record.total_messages,
                round::delivered(stats, &silenced),
                stats.events,
            )
        });
        tr.count("fed.messages_per_round", messages as f64);
        tr.count(
            "fed.ledger_entries",
            runtime.network.ledger_entries() as f64,
        );
        tr.count("sim.events_per_round", close_events as f64);
        let live = live.max(1) as f64;
        let round_yield = (delivered + carried) as f64 / live;
        tr.count("sim.update_yield", round_yield);
        yields.push(round_yield);
        in_round.push(delivered as f64 / live);
        if round + 1 < rounds {
            scenario.advance_round();
        }
    }
    total.stop();

    let msgs_per_device_round = runtime.avg_messages_per_device_per_epoch();
    let virtual_makespan_s = runtime.avg_sim_epoch_secs();
    let server_bytes_per_round = runtime.network.server_bytes_received() as f64 / rounds as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / rounds.max(1) as f64;
    let update_yield = mean(&yields);
    let in_round_share = mean(&in_round);
    let c = faults.counters();
    FleetRun {
        setup_s,
        run_s: total.secs(),
        msgs_per_device_round,
        virtual_makespan_s,
        server_bytes_per_round,
        busiest_aggregator_nodes: topo.ranges().map(|(_, m)| m.len()).max().unwrap_or(0)
            * TREE_NODES,
        update_yield,
        in_round_share,
        wasted_updates: runtime.late_drops(),
        failovers: c.failovers,
        fingerprint: vec![
            msgs_per_device_round.to_bits(),
            virtual_makespan_s.to_bits(),
            server_bytes_per_round.to_bits(),
            update_yield.to_bits(),
            in_round_share.to_bits(),
            c.retries,
            c.crashed_devices,
            c.lost_messages,
            c.failovers,
        ],
    }
}

/// One round of synthetic traffic: each live device sends to its two ring
/// neighbours and uploads to its aggregator; every aggregator that is not
/// re-homed forwards one partial to the server.
fn send_round(net: &mut SimNetwork, topo: &Topology, silenced: &[bool]) {
    let n = silenced.len() as u32;
    for d in 0..n {
        if !silenced[d as usize] {
            for to in ring_targets(d, n) {
                net.send(d, to, UPDATE_BYTES);
            }
        }
    }
    net.round();
    for d in 0..n {
        if !silenced[d as usize] {
            net.send_to_aggregator(d, UPDATE_BYTES);
        }
    }
    for shard in 0..topo.num_aggregators() as u32 {
        if net.rehome_target(shard) == shard {
            net.send_aggregator_to_server(shard, UPDATE_BYTES);
        }
    }
    net.round();
}
