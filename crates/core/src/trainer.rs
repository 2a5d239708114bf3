//! The tree-based GNN trainer (§VI) and the end-to-end Lumos pipeline.
//!
//! Pipeline per run: split the graph into ego networks → construct trimmed
//! trees (§V) → LDP feature exchange (§VI-A) → per-epoch message passing on
//! every tree with shared weights, POOL across devices (Eq. 31), loss
//! computation (§VI-C), synchronized gradient update — with every
//! inter-device message recorded on the federated runtime's ledger.
//!
//! `run_lumos` runs that pipeline as a sequence of named stages. A
//! `RunSetup` builds everything fixed before the first round. Each round
//! then runs the fault stage, the carry-over, the re-balancer and the
//! policy probe, and folds their outcomes into one `RoundVerdict`. The
//! POOL weights, the message accounting, the carry-over and the epoch
//! close all read that verdict.

use std::rc::Rc;

use lumos_balance::{rebalance_assignment, Assignment, BalanceObjective};
use lumos_common::rng::Xoshiro256pp;
use lumos_data::{sample_non_edges, Dataset, EdgeSplit, NodeSplit};
use lumos_fed::{ledger_work, CostModel, Runtime, SimNetwork, TierSpec};
use lumos_gnn::{
    accuracy_masked, cross_entropy_masked, link_logits, link_prediction_loss, roc_auc,
    EncoderConfig, GnnEncoder, LinearDecoder,
};
use lumos_graph::Graph;
use lumos_tensor::{Adam, ParamStore, Tape, VarId};

use lumos_sim::{
    AggregationPolicy, DeviceProfile, DeviceWork, EventDrivenRuntime, FaultPlan, FaultState,
    RoundPolicy, ScenarioState, StalenessBuffer,
};
use lumos_topo::{ShardRoundPolicies, Topology};

use crate::batch::{build_batched, BatchedTrees, PoolArrays};
use crate::config::{LumosConfig, TaskKind};
use crate::constructor::{construct_assignment, construct_assignment_sharded};
use crate::init::{exchange_features, exchange_missing_features, LdpExchange};
use crate::report::{ConstructorReport, EpochMetrics, RunReport, SimSummary};
use crate::tree::{DeviceTree, LocalGraphKind};

/// Embedding size of a pooled vertex message on the wire (16 f32 values).
const EMBEDDING_BYTES: u64 = 16 * 4;

/// A protocol send `(from, to, bytes)` held back for a later round.
type DeferredSend = (u32, u32, u64);

/// Memoized late probe: the fleet it was simulated against and the
/// `(device, staleness)` pairs the policy cut that round.
type LateProbe = (Vec<DeviceProfile>, Vec<(u32, u32)>);

/// Runs the full Lumos system on a dataset and returns the report.
pub fn run_lumos(ds: &Dataset, cfg: &LumosConfig) -> RunReport {
    let mut run = RunSetup::new(ds, cfg);
    let mut faults = FaultStage::new(&run);
    let mut carry = CarryOver::new(&run);
    let mut rebalancer = Rebalancer::default();
    let mut probe = Probe::new(&run);
    let mut best_val = 0.0f64;
    for epoch in 0..cfg.epochs {
        run.begin_round();
        let plan = faults.compile_round(&mut run);
        // Deferred protocol traffic from earlier rounds' parked devices
        // lands in this epoch's ledger window — accounted in the round
        // where it arrives, not the round where it was cut.
        run.runtime.carry_in();
        if rebalancer.step(&mut run) {
            // The probe's template follows the migrated trees.
            probe = Probe::new(&run);
        }
        let late = probe
            .as_mut()
            .map_or_else(Vec::new, |p| p.late(&run, plan.as_ref()));
        let verdict = RoundVerdict::new(&run, plan.as_ref(), late);
        let weights = verdict.pool_weights(&carry.buffer.advance(run.n));
        let pool = run.forest.pool(weights);
        // The round's tape lives until the round ends: dropped any earlier,
        // its buffers go back to the OS before the accounting's allocations
        // and are faulted in again next round (twice the system time).
        let mut tape = Tape::new();
        let loss = run.train_step(&mut tape, &pool);
        let deferred = run.record_round_messages(&verdict);
        carry.park(&mut run.runtime, &verdict.parked, &deferred);
        run.close_round(plan, &verdict, epoch);
        // `eval_every = 0` evaluates at the final epoch only.
        if epoch.checked_rem(cfg.eval_every) == Some(0) || epoch + 1 == cfg.epochs {
            let val_metric = run.evaluate(false);
            best_val = best_val.max(val_metric);
            run.report.history.push(EpochMetrics {
                epoch,
                loss,
                val_metric,
            });
        }
    }
    let test_metric = run.evaluate(true);
    run.finish(test_metric, best_val, &faults, &carry, &rebalancer)
}

/// The task's split and loss inputs.
enum Objective {
    /// Node classification: labels, the train-node mask and the split.
    Classify {
        targets: Rc<Vec<u32>>,
        mask: Rc<Vec<f32>>,
        split: NodeSplit,
    },
    /// Link prediction: the positive training edges' endpoint lists and
    /// the edge split.
    Link {
        src: Rc<Vec<u32>>,
        dst: Rc<Vec<u32>>,
        split: EdgeSplit,
    },
}

impl Objective {
    fn edge_split(&self) -> Option<&EdgeSplit> {
        match self {
            Objective::Link { split, .. } => Some(split),
            Objective::Classify { .. } => None,
        }
    }
}

/// Everything fixed before the first round: the task split, the fleet and
/// its runtime, the aggregation topology, the constructed trees with their
/// LDP exchange and batch, the model, and the report shell.
struct RunSetup<'a> {
    ds: &'a Dataset,
    cfg: &'a LumosConfig,
    /// Fleet size: one device per vertex.
    n: usize,
    layers: usize,
    rng: Xoshiro256pp,
    objective: Objective,
    runtime: Runtime,
    scenario: Option<ScenarioState>,
    /// `Some` only with ≥ 2 real shards.
    topology: Option<Topology>,
    /// The policy actually executed: `Buffered { decay: 0 }` resolves to
    /// `Deadline` and a full-fleet `Async` quorum to `FullSync` up front,
    /// so both bit-for-bit collapses hold by construction.
    policy: AggregationPolicy,
    assignment: Assignment,
    forest: Forest,
    store: ParamStore,
    encoder: GnnEncoder,
    /// The classification head (supervised runs only).
    head: Option<LinearDecoder>,
    opt: Adam,
    report: RunReport,
}

impl<'a> RunSetup<'a> {
    fn new(ds: &'a Dataset, cfg: &'a LumosConfig) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
        let n = ds.num_nodes();
        // Link prediction trains on the 80% train-edge graph;
        // classification trains on the full graph with node masks.
        let (objective, train_graph) = match cfg.task {
            TaskKind::Supervised => {
                let split = NodeSplit::uniform(n, &mut rng);
                let mask = split.train_mask.iter().map(|&b| if b { 1.0 } else { 0.0 });
                let objective = Objective::Classify {
                    targets: Rc::new(ds.labels.clone()),
                    mask: Rc::new(mask.collect()),
                    split,
                };
                (objective, ds.graph.clone())
            }
            TaskKind::Unsupervised => {
                let split = EdgeSplit::uniform(&ds.graph, &mut rng);
                let g = split.train_graph(n);
                let objective = Objective::Link {
                    src: Rc::new(split.train_edges.iter().map(|&(u, _)| u).collect()),
                    dst: Rc::new(split.train_edges.iter().map(|&(_, v)| v).collect()),
                    split,
                };
                (objective, g)
            }
        };

        // Fleet and runtime come up before the constructor so the VirtualSecs
        // objective can price each device's tree nodes. The fleet draws from
        // its own seed-derived RNG stream, so enabling a scenario changes
        // timing statistics (and, under VirtualSecs, tree placement) only —
        // never the trainer's stochastic streams.
        let mut runtime = Runtime::new(n, CostModel::default());
        runtime.set_embedding_bytes(EMBEDDING_BYTES);
        let scenario = cfg.scenario.map(|s| ScenarioState::new(s, n, cfg.seed));
        if let Some(state) = &scenario {
            runtime.set_profiles(state.profiles().to_vec());
        }
        let enc_cfg = EncoderConfig::paper(cfg.backbone, ds.feature_dim);
        let node_costs = match cfg.balance_objective {
            BalanceObjective::TreeNodes => None,
            // Without a scenario there are no profiles to price with, so this
            // silently degenerates to the node-count objective.
            BalanceObjective::VirtualSecs => {
                runtime.node_costs_micros(enc_cfg.num_layers, EMBEDDING_BYTES)
            }
        };

        // Aggregation topology (hierarchical mode). A single-aggregator tree
        // resolves to the flat topology up front (`TopologyConfig::effective`).
        // Device→shard placement is cost-aware when per-device prices exist,
        // seeded otherwise — and static thereafter: live re-balancing
        // migrates tree nodes between devices, never devices between
        // aggregators.
        let topology: Option<Topology> =
            cfg.topology
                .effective(n)
                .aggregators()
                .map(|k| match node_costs.as_deref() {
                    Some(costs) => Topology::cost_balanced(costs, k),
                    None => Topology::seeded(n, k, cfg.seed),
                });
        if let Some(topo) = &topology {
            // The compact per-shard ledger replaces the per-edge matrix —
            // memory stays O(devices + aggregators) — and the tier spec makes
            // every profiled epoch's makespan run through the aggregators.
            runtime.network = SimNetwork::new_sharded(topo.shard_vector());
            runtime.set_tier(TierSpec {
                topology: topo.clone(),
                aggregator: DeviceProfile::baseline(),
                partial_bytes: EMBEDDING_BYTES,
            });
        }
        let (assignment, constructor) =
            construct(cfg, &train_graph, node_costs.as_deref(), topology.as_ref());

        // Phase 2: LDP embedding initialization (§VI-A).
        let trees = build_trees(cfg, &assignment);
        let exchange = exchange_features(
            &ds.features,
            ds.feature_dim,
            &trees,
            cfg.epsilon,
            &mut rng,
            &mut runtime.network,
        );
        let batch = build_batched(&trees, &ds.features, ds.feature_dim, &exchange);
        let mut report = RunReport::new("lumos", &ds.name, cfg.backbone.name(), cfg.task.name());
        report.constructor = constructor;
        report.init_messages = exchange.messages;

        // Phase 3: model setup (§VIII-B hyperparameters).
        let mut store = ParamStore::new();
        let encoder = GnnEncoder::new(&mut store, &enc_cfg, &mut rng);
        let head = (cfg.task == TaskKind::Supervised).then(|| {
            LinearDecoder::new(
                &mut store,
                "head",
                encoder.out_dim(),
                ds.num_classes,
                &mut rng,
            )
        });
        Self {
            ds,
            cfg,
            n,
            layers: enc_cfg.num_layers,
            rng,
            objective,
            runtime,
            scenario,
            topology,
            policy: cfg.aggregation_policy.resolve(n),
            assignment,
            forest: Forest {
                trees,
                exchange,
                batch,
                pool_memo: None,
            },
            store,
            encoder,
            head,
            opt: Adam::new(cfg.lr),
            report,
        }
    }

    fn profiles(&self) -> Option<&[DeviceProfile]> {
        self.scenario.as_ref().map(ScenarioState::profiles)
    }

    /// Whether policy-late updates park in the staleness buffer instead of
    /// being dropped: `Buffered`, and the `Async` quorum, whose overflow
    /// rides the buffer at decay 1.0 — both only with a scenario.
    fn parks_late(&self) -> bool {
        self.scenario.is_some()
            && matches!(
                self.policy,
                AggregationPolicy::Buffered { .. } | AggregationPolicy::Async { .. }
            )
    }

    /// Installs the live fleet on the runtime and opens the epoch's ledger
    /// window.
    fn begin_round(&mut self) {
        if let Some(state) = &self.scenario {
            self.runtime.set_profiles(state.profiles().to_vec());
        }
        self.runtime.begin_epoch();
    }

    /// Rebuilds the trees, the batch and the POOL memo after a migration.
    /// Devices that just inherited a branch never held its leaves'
    /// features: only the missing (owner, neighbor) pairs are topped up,
    /// on this epoch's ledger.
    fn rebuild_forest(&mut self) {
        let trees = build_trees(self.cfg, &self.assignment);
        let (ds, forest) = (self.ds, &mut self.forest);
        exchange_missing_features(
            &ds.features,
            ds.feature_dim,
            &trees,
            self.cfg.epsilon,
            &mut self.rng,
            &mut self.runtime.network,
            &mut forest.exchange,
        );
        forest.batch = build_batched(&trees, &ds.features, ds.feature_dim, &forest.exchange);
        forest.trees = trees;
        forest.pool_memo = None;
    }

    /// One dry-run epoch of protocol messages on a scratch ledger in the
    /// live network's mode (a sharded ledger yields the aggregate inbound
    /// schedule the real epochs run): the per-destination work whose
    /// simulated timing the probe judges.
    fn work_template(&self) -> Vec<DeviceWork> {
        let mut net = match &self.topology {
            Some(topo) => SimNetwork::new_sharded(topo.shard_vector()),
            None => SimNetwork::new(self.n),
        };
        let snap = net.snapshot();
        record_epoch_messages(
            &mut net,
            &RoundVerdict::everyone(self.n),
            &self.forest.trees,
            self.cfg,
            self.objective.edge_split(),
            self.topology.as_ref(),
        );
        ledger_work(&net, &snap, &self.forest.batch.tree_sizes, self.layers)
    }

    /// Accounts this round's protocol traffic on the live ledger and
    /// returns the parked devices' captured sends.
    fn record_round_messages(&mut self, verdict: &RoundVerdict) -> Vec<DeferredSend> {
        record_epoch_messages(
            &mut self.runtime.network,
            verdict,
            &self.forest.trees,
            self.cfg,
            self.objective.edge_split(),
            self.topology.as_ref(),
        )
    }

    /// Closes the epoch record on the verdict's cut, then advances the
    /// fleet to the next round.
    fn close_round(&mut self, plan: Option<FaultPlan>, verdict: &RoundVerdict, epoch: usize) {
        // Hand the plan to the runtime so the epoch's own simulation
        // replays the same crashes and retry chains the probe saw.
        self.runtime.set_fault_plan(plan);
        let sizes = &self.forest.batch.tree_sizes;
        match self.policy {
            // The async quorum: the epoch record's simulation closes the
            // round at the `min_updates`-th landing, the overflow rides
            // the staleness buffer, and nothing counts as dropped.
            AggregationPolicy::Async { min_updates } if self.scenario.is_some() => {
                let late = &verdict.late;
                self.runtime
                    .end_epoch_closing(sizes, self.layers, late, min_updates);
            }
            _ => {
                self.runtime
                    .end_epoch_dropping(sizes, self.layers, &verdict.late);
            }
        }
        // Churn applies *between* rounds: the fleet after the last epoch is
        // never simulated, so advancing there would overcount drops.
        if epoch + 1 < self.cfg.epochs {
            if let Some(state) = &mut self.scenario {
                state.advance_round();
            }
        }
    }

    /// Forward pass over the batched forest followed by the POOL layer
    /// (Eq. 31), gathered through `pool`: the round's
    /// [`BatchedTrees::weighted_pool`] view while training, every leaf at
    /// weight 1 for evaluation. Training with a topology pools tier by
    /// tier; evaluation is offline and pools server-side, as one tier.
    fn forward(&mut self, tape: &mut Tape, pool: &PoolArrays, training: bool) -> VarId {
        let batch = &self.forest.batch;
        let x = tape.constant(batch.features.clone());
        let h_tree = self
            .encoder
            .forward(tape, &self.store, x, &batch.mg, training, &mut self.rng);
        // Each tier is a contiguous device range, given by its end.
        let tier_ends: Vec<u32> = match self.topology.as_ref().filter(|_| training) {
            Some(topo) => topo.ranges().map(|(_, members)| members.end).collect(),
            // One tier holding every device.
            None => vec![u32::MAX],
        };
        pool_tiers(tape, h_tree, batch.num_vertices, pool, &tier_ends)
    }

    /// One synchronized training step on this round's POOL, recorded on
    /// the round's `tape`: forward, the task loss (§VI-C), backward and the
    /// optimizer update. Returns the loss.
    fn train_step(&mut self, tape: &mut Tape, pool: &PoolArrays) -> f64 {
        let h = self.forward(tape, pool, true);
        let loss_var = match &self.objective {
            Objective::Classify { targets, mask, .. } => {
                let head = self.head.as_ref().expect("supervised head");
                let logits = head.forward(tape, &self.store, h);
                cross_entropy_masked(tape, logits, targets.clone(), mask.clone())
            }
            Objective::Link { src, dst, .. } => {
                let negs = sample_non_edges(
                    &self.ds.graph,
                    src.len() * self.cfg.negatives_per_positive,
                    &mut self.rng,
                );
                let neg_src: Rc<Vec<u32>> = Rc::new(negs.iter().map(|&(u, _)| u).collect());
                let neg_dst: Rc<Vec<u32>> = Rc::new(negs.iter().map(|&(_, v)| v).collect());
                let pos_logits = link_logits(tape, h, src.clone(), dst.clone());
                let neg_logits = link_logits(tape, h, neg_src, neg_dst);
                link_prediction_loss(tape, pos_logits, neg_logits)
            }
        };
        let loss = tape.value(loss_var).item() as f64;
        self.store.zero_grad();
        let grads = tape.backward(loss_var);
        tape.accumulate_param_grads(&grads, &mut self.store);
        self.opt.step(&mut self.store);
        loss
    }

    /// Evaluation on the validation or test split (no dropout). Evaluation
    /// is offline: every device's embedding participates, and the pooling
    /// runs server-side — no aggregation tier on the wire.
    fn evaluate(&mut self, test: bool) -> f64 {
        let mut tape = Tape::new();
        let full_pool = self.forest.batch.full_pool();
        let h = self.forward(&mut tape, &full_pool, false);
        match &self.objective {
            Objective::Classify { split, .. } => {
                let mask = if test {
                    &split.test_mask
                } else {
                    &split.val_mask
                };
                let head = self.head.as_ref().expect("supervised head");
                let logits = head.forward(&mut tape, &self.store, h);
                accuracy_masked(tape.value(logits), &self.ds.labels, mask)
            }
            Objective::Link { split, .. } => {
                let (pos, neg) = if test {
                    (&split.test_edges, &split.test_negatives)
                } else {
                    (&split.val_edges, &split.val_negatives)
                };
                let score = |pairs: &[(u32, u32)], tape: &mut Tape| -> Vec<f32> {
                    let src: Rc<Vec<u32>> = Rc::new(pairs.iter().map(|&(u, _)| u).collect());
                    let dst: Rc<Vec<u32>> = Rc::new(pairs.iter().map(|&(_, v)| v).collect());
                    let z = link_logits(tape, h, src, dst);
                    tape.value(z).data().to_vec()
                };
                let pos_scores = score(pos, &mut tape);
                let neg_scores = score(neg, &mut tape);
                roc_auc(&pos_scores, &neg_scores)
            }
        }
    }

    /// Seals the report: the test metric, the traffic and timing averages,
    /// and the simulation summary when a scenario ran.
    fn finish(
        mut self,
        test_metric: f64,
        best_val: f64,
        faults: &FaultStage,
        carry: &CarryOver,
        rebalancer: &Rebalancer,
    ) -> RunReport {
        let runtime = &self.runtime;
        let sim = self.scenario.as_ref().map(|state| {
            let recovery = faults.0.as_ref().map(FaultState::counters);
            let recovery = recovery.cloned().unwrap_or_default();
            SimSummary {
                scenario: state.scenario().name().to_string(),
                total_virtual_secs: runtime.total_sim_secs(),
                avg_epoch_virtual_secs: runtime.avg_sim_epoch_secs(),
                straggler_sequence: runtime.straggler_sequence(),
                mean_utilization: runtime.mean_sim_utilization(),
                dropped_device_rounds: state.dropped_device_rounds(),
                late_drops: runtime.late_drops(),
                buffered_updates: carry.buffer.total_buffered(),
                // The deadline policy wastes its cuts even when fault
                // recovery parks exhausted uploads.
                wasted_updates: if self.parks_late() {
                    0
                } else {
                    runtime.late_drops()
                },
                migrations: rebalancer.migrations,
                migrated_nodes: rebalancer.migrated_nodes,
                lost_messages: recovery.lost_messages,
                retries: recovery.retries,
                retry_secs: recovery.retry_secs,
                crashed_devices: recovery.crashed_devices,
                failovers: recovery.failovers,
            }
        });
        let report = &mut self.report;
        report.test_metric = test_metric;
        report.best_val_metric = best_val;
        report.avg_messages_per_device_per_epoch = runtime.avg_messages_per_device_per_epoch();
        report.avg_epoch_secs = runtime.avg_epoch_wall_secs();
        report.avg_epoch_makespan = runtime.avg_epoch_makespan();
        report.sim = sim;
        self.report
    }
}

/// Phase 1: the heterogeneity-aware tree constructor (§V); in hierarchical
/// mode each shard balances independently inside its own secure lanes.
fn construct(
    cfg: &LumosConfig,
    g: &Graph,
    node_costs: Option<&[u64]>,
    topology: Option<&Topology>,
) -> (Assignment, ConstructorReport) {
    let (trim, iters, seed) = (cfg.tree_trimming, cfg.mcmc_iterations, cfg.seed);
    let (security, backend) = (cfg.security, cfg.compare_backend);
    match topology {
        Some(topo) => {
            construct_assignment_sharded(g, trim, iters, security, backend, seed, node_costs, topo)
        }
        None => construct_assignment(g, trim, iters, security, backend, seed, node_costs),
    }
}

/// One tree per device from the constructor's kept-neighbor lists: the
/// builder that setup and every migration share.
fn build_trees(cfg: &LumosConfig, assignment: &Assignment) -> Vec<DeviceTree> {
    let kind = if cfg.virtual_nodes {
        LocalGraphKind::VirtualNodeTree
    } else {
        LocalGraphKind::RawEgoNetwork
    };
    (0..assignment.num_devices() as u32)
        .map(|v| DeviceTree::build(kind, v, assignment.kept(v).to_vec()))
        .collect()
}

/// The device trees, their LDP feature exchange and the batched forest
/// built from both, plus the POOL memo: the last round's per-device
/// weights and the arrays they built.
struct Forest {
    trees: Vec<DeviceTree>,
    exchange: LdpExchange,
    batch: BatchedTrees,
    pool_memo: Option<(Vec<f32>, PoolArrays)>,
}

impl Forest {
    /// The POOL arrays for one round's per-device weights, rebuilt only
    /// when the weights changed since the last round.
    fn pool(&mut self, weights: Vec<f32>) -> PoolArrays {
        if self.pool_memo.as_ref().is_none_or(|(w, _)| *w != weights) {
            let pool = self.batch.weighted_pool(&weights);
            self.pool_memo = Some((weights, pool));
        }
        self.pool_memo.as_ref().expect("memo just filled").1.clone()
    }
}

/// Seeded fault injection (strictly opt-in). The fault stream draws from
/// its own domain-separated RNG, so enabling it never perturbs the
/// trainer's or the fleet's stochastic streams — and it is inert without
/// a scenario, because there are no profiles to crash or delay against.
struct FaultStage(Option<FaultState>);

impl FaultStage {
    fn new(run: &RunSetup) -> Self {
        let cfg = run.cfg;
        Self(
            (!cfg.faults.is_none() && run.scenario.is_some())
                .then(|| FaultState::new(cfg.faults.clone(), cfg.recovery, cfg.seed)),
        )
    }

    /// Compiles this round's fault outcomes before any traffic lands on
    /// the ledger: who crashes mid-round, whose upload exhausts its retry
    /// budget, and which aggregators sit inside an outage window (their
    /// shards re-home to the deterministic cyclic successor for the whole
    /// round — ledger routing and tier timing alike).
    fn compile_round(&mut self, run: &mut RunSetup) -> Option<FaultPlan> {
        let (fstate, state) = (self.0.as_mut()?, run.scenario.as_ref()?);
        if let Some(topo) = &run.topology {
            let outaged = fstate.outaged_aggregators(topo.num_aggregators());
            let rehome = (!outaged.is_empty()).then(|| topo.failover_map(&outaged));
            if let Some(map) = &rehome {
                let served = map
                    .iter()
                    .enumerate()
                    .filter(|&(k, &t)| t as usize != k)
                    .count();
                fstate.note_failovers(served as u64);
            }
            run.runtime.network.set_rehome(rehome.clone());
            run.runtime.set_failover(rehome);
        }
        Some(fstate.compile_round(state.profiles()))
    }
}

/// The carry-over: parked updates wait in the staleness buffer until their
/// arrival round, and their senders' silenced protocol sends wait on the
/// runtime for the same number of rounds. The async quorum parks at decay
/// 1.0 — its overflow is carried, never discounted and never dropped —
/// and fault recovery parks under every policy: an upload that exhausts
/// its retry budget arrives one round late instead of vanishing.
struct CarryOver {
    buffer: StalenessBuffer,
}

impl CarryOver {
    fn new(run: &RunSetup) -> Self {
        let decay = match run.policy {
            AggregationPolicy::Buffered { decay, .. } => decay,
            _ => 1.0,
        };
        Self {
            buffer: StalenessBuffer::new(decay),
        }
    }

    /// Parks each `(device, staleness)` update and defers that device's
    /// captured sends by the same number of rounds.
    fn park(&mut self, runtime: &mut Runtime, parked: &[(u32, u32)], deferred: &[DeferredSend]) {
        for &(d, staleness) in parked {
            self.buffer.push(d, staleness);
            let sends = deferred
                .iter()
                .filter(|&&(from, _, _)| from == d)
                .copied()
                .collect();
            runtime.defer_sends(staleness, sends);
        }
    }
}

/// Live re-balancing (parking policies only): price the fleet as it stands
/// (churn-absent devices cost `UNAVAILABLE_COST_FACTOR ×` their nominal
/// rate) and migrate tree nodes off devices whose per-node price stayed
/// above `cfg.rebalance_threshold ×` the fleet mean for
/// `cfg.rebalance_patience` consecutive rounds.
#[derive(Default)]
struct Rebalancer {
    /// Consecutive overpriced rounds per device.
    streaks: Vec<u32>,
    migrations: u64,
    migrated_nodes: u64,
}

impl Rebalancer {
    /// Runs this round's trigger; true when tree nodes moved and the
    /// forest was rebuilt.
    fn step(&mut self, run: &mut RunSetup) -> bool {
        let cfg = run.cfg;
        if !run.parks_late() {
            return false;
        }
        let Some(prices) = run.runtime.node_costs_micros(run.layers, EMBEDDING_BYTES) else {
            return false;
        };
        self.streaks.resize(prices.len(), 0);
        let mean = prices.iter().map(|&p| p as f64).sum::<f64>() / prices.len().max(1) as f64;
        let mut overloaded: Vec<u32> = Vec::new();
        for (d, &p) in prices.iter().enumerate() {
            if p as f64 > cfg.rebalance_threshold * mean {
                self.streaks[d] += 1;
                if self.streaks[d] >= cfg.rebalance_patience {
                    overloaded.push(d as u32);
                }
            } else {
                self.streaks[d] = 0;
            }
        }
        if overloaded.is_empty() {
            return false;
        }
        let outcome = rebalance_assignment(&mut run.assignment, &prices, &overloaded);
        for &d in &overloaded {
            self.streaks[d as usize] = 0;
        }
        if outcome.moved_nodes == 0 {
            return false;
        }
        self.migrations += 1;
        self.migrated_nodes += outcome.moved_nodes as u64;
        run.rebuild_forest();
        true
    }
}

/// The semi-sync probe. The per-round message pattern is static between
/// migrations (same trees, same protocol every epoch), so one dry run of
/// the recorder yields the per-destination work whose simulated timing
/// decides, each round, which updates land past the deadline. It exists
/// only for a cutting policy with a scenario: without profiles there is
/// nothing to time against.
struct Probe {
    template: Vec<DeviceWork>,
    memo: Option<LateProbe>,
}

impl Probe {
    fn new(run: &RunSetup) -> Option<Self> {
        (run.policy != AggregationPolicy::FullSync && run.scenario.is_some()).then(|| Self {
            template: run.work_template(),
            memo: None,
        })
    }

    /// This round's late devices with their staleness. The decisions happen
    /// at event granularity: the policy's arrival-time handlers subscribe
    /// to the scheduled event stream and judge each update as it lands
    /// (hierarchical mode routes events to per-shard handlers, each cutting
    /// against its own local median). The verdicts are a pure function of
    /// (fleet, template, fault plan), so they are re-simulated only when
    /// churn changed the fleet — or on every faulted round, because a fault
    /// plan changes every round even on a frozen fleet.
    fn late(&mut self, run: &RunSetup, plan: Option<&FaultPlan>) -> Vec<(u32, u32)> {
        let profiles = run.profiles().expect("the probe runs only with a scenario");
        let stale = plan.is_some()
            || self
                .memo
                .as_ref()
                .is_none_or(|(fleet, _)| fleet.as_slice() != profiles);
        if stale {
            let schedule = EventDrivenRuntime::new_with_faults(profiles, &self.template, plan);
            let late = match &run.topology {
                Some(topo) => {
                    let mut shards = ShardRoundPolicies::new(&run.policy, &schedule, topo);
                    schedule.run(|t, ev| shards.on_event(t, ev));
                    shards.verdicts()
                }
                None => {
                    let mut round = RoundPolicy::new(&run.policy, &schedule);
                    schedule.run(|t, ev| round.on_event(t, ev));
                    round.verdicts()
                }
            };
            self.memo = Some((profiles.to_vec(), late));
        }
        self.memo.as_ref().expect("probe just cached").1.clone()
    }
}

/// What becomes of one device's round update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Pooled this round; the device's protocol sends go on the ledger.
    Pooled,
    /// Lost for good: the device sends nothing, now or later.
    Dropped,
    /// Parked in the staleness buffer: silenced on this round's ledger,
    /// its sends captured for re-injection in the arrival round.
    Parked,
}

/// Who takes part in one round, computed once from the fleet, the fault
/// plan and the probe.
struct RoundVerdict {
    /// Per device.
    fates: Vec<Fate>,
    /// Parked updates as `(device, rounds in flight)`: the policy-late
    /// devices when the policy parks them, then every exhausted upload at
    /// one round.
    parked: Vec<(u32, u32)>,
    /// Policy-late devices: the cut the epoch close applies.
    late: Vec<u32>,
}

impl RoundVerdict {
    /// Every device takes part: the probe's dry-run round.
    fn everyone(n: usize) -> Self {
        Self {
            fates: vec![Fate::Pooled; n],
            parked: Vec::new(),
            late: Vec::new(),
        }
    }

    fn new(run: &RunSetup, plan: Option<&FaultPlan>, late: Vec<(u32, u32)>) -> Self {
        // Churn makes absent devices actually absent: they send no protocol
        // messages and their embeddings leave the POOL for the rounds they
        // sit out.
        let avail: Vec<bool> = run.profiles().map_or_else(
            || vec![true; run.n],
            |fleet| fleet.iter().map(|p| p.available).collect(),
        );
        // Crashed devices lose the round outright, like churn. Exhausted
        // uploads are parked and arrive one round late.
        let (crashed, exhausted) = plan.map_or_else(Default::default, |p| {
            (p.crashed_devices(&avail), p.exhausted_uploads(&avail))
        });
        // Policy-late devices park only when the policy buffers; the
        // deadline policy genuinely drops them, even under faults.
        let parked_late: &[(u32, u32)] = if run.parks_late() { &late } else { &[] };
        let parked: Vec<(u32, u32)> = parked_late
            .iter()
            .copied()
            .chain(exhausted.iter().map(|&d| (d, 1)))
            .collect();
        let mut fates: Vec<Fate> = avail
            .iter()
            .map(|&a| if a { Fate::Pooled } else { Fate::Dropped })
            .collect();
        for &d in crashed.iter().chain(late.iter().map(|(d, _)| d)) {
            fates[d as usize] = Fate::Dropped;
        }
        for &(d, _) in &parked {
            fates[d as usize] = Fate::Parked;
        }
        Self {
            fates,
            parked,
            late: late.iter().map(|&(d, _)| d).collect(),
        }
    }

    /// The round's per-device POOL weights: only pooled devices contribute,
    /// and buffered updates blend back in at `decay^staleness` in the round
    /// they arrive — even if their sender is out again (the update already
    /// landed).
    fn pool_weights(&self, arrivals: &[f64]) -> Vec<f32> {
        let fresh = |f: &Fate| if *f == Fate::Pooled { 1.0f32 } else { 0.0 };
        self.fates
            .iter()
            .zip(arrivals)
            .map(|(f, &a)| fresh(f) + a as f32)
            .collect()
    }

    /// Whether `from`'s message to `to` goes on the live ledger now. A
    /// parked sender's message is captured into `deferred` instead.
    fn admits(&self, from: u32, to: u32, deferred: &mut Vec<DeferredSend>) -> bool {
        match self.fates[from as usize] {
            Fate::Pooled => true,
            Fate::Dropped => false,
            Fate::Parked => {
                deferred.push((from, to, EMBEDDING_BYTES));
                false
            }
        }
    }
}

/// The POOL (Eq. 31) evaluated tier by tier. Each tier — an aggregator's
/// members, or one tier holding every device — gathers its members'
/// (optionally staleness-scaled) leaf rows and scatter-adds them into a
/// partial; the server sums the partials, and the per-vertex mean
/// coefficients normalize once at the top. A tier's leaves are one
/// contiguous run of `owners`, because trees are laid out in device order.
/// A single tier is exactly the flat gather → scale → scatter → scale
/// sequence, so flat mode keeps the seed op sequence — and its bitstream —
/// untouched. A tier without a surviving leaf adds no op; with none at all
/// the empty pool scatters to zero.
fn pool_tiers(
    tape: &mut Tape,
    h_tree: VarId,
    num_vertices: usize,
    pool: &PoolArrays,
    tier_ends: &[u32],
) -> VarId {
    let mut server_sum: Option<VarId> = None;
    let mut lo = 0usize;
    for &end in tier_ends {
        let hi = lo + pool.owners[lo..].partition_point(|&o| o < end);
        if lo == hi {
            continue;
        }
        let mut leaves = tape.gather_rows(h_tree, Rc::new(pool.leaves[lo..hi].to_vec()));
        // Fractional staleness weights insert one extra per-leaf scale
        // between gather and scatter; uniform pools skip it.
        if let Some(w) = &pool.leaf_weights {
            leaves = tape.scale_rows(leaves, Rc::new(w[lo..hi].to_vec()));
        }
        let vertices = Rc::new(pool.vertices[lo..hi].to_vec());
        let partial = tape.scatter_add_rows(leaves, vertices, num_vertices);
        server_sum = Some(match server_sum {
            Some(acc) => tape.add(acc, partial),
            None => partial,
        });
        lo = hi;
    }
    let sum = server_sum.unwrap_or_else(|| {
        let none = tape.gather_rows(h_tree, pool.leaves.clone());
        tape.scatter_add_rows(none, pool.vertices.clone(), num_vertices)
    });
    tape.scale_rows(sum, pool.coeff.clone())
}

/// Records the inter-device messages one training epoch incurs (§VI-B/C):
///
/// * each device sends the updated embedding of every neighbor leaf back to
///   that leaf's owner (one message per retained branch);
/// * each owner's pooled embedding requires no further messages (the leaves
///   arrived above);
/// * unsupervised training additionally fetches the embeddings of retained
///   neighbors and of sampled negatives (Eq. 33);
/// * finally every device ships its loss/gradient contribution to the
///   aggregation point.
///
/// Only devices the `verdict` pools send on this ledger (messages *to* the
/// others still count — their senders paid either way). Parked devices'
/// sends are returned instead, so the runtime can re-inject them in the
/// round where they actually arrive; dropped devices send nothing, now or
/// later.
///
/// With a topology the final aggregation tier routes through it: each
/// surviving device uploads to its own aggregator (same cost to the
/// device as a server upload) and every aggregator forwards exactly one
/// pooled partial to the server — per-round server traffic is
/// O(aggregators), not O(devices). A parked device's deferred upload still
/// targets the server directly: a stale partial arrives after its shard's
/// round already closed, so it skips the aggregator tier on re-injection.
fn record_epoch_messages(
    net: &mut SimNetwork,
    verdict: &RoundVerdict,
    trees: &[DeviceTree],
    cfg: &LumosConfig,
    edge_split: Option<&EdgeSplit>,
    topo: Option<&Topology>,
) -> Vec<DeferredSend> {
    let mut deferred = Vec::new();
    let mut send = |net: &mut SimNetwork, from: u32, to: u32| {
        if verdict.admits(from, to, &mut deferred) {
            net.send(from, to, EMBEDDING_BYTES);
        }
    };
    for tree in trees {
        for &v in &tree.neighbors {
            // Leaf embedding u → owner v after the l-layer update.
            send(net, tree.center, v);
        }
    }
    net.round();
    // Link prediction: positive fetches cross once per training edge;
    // negatives are requested per sampled pair.
    if let Some(split) = edge_split {
        for &(u, v) in &split.train_edges {
            send(net, v, u);
        }
        let neg_count = split.train_edges.len() * cfg.negatives_per_positive;
        for i in 0..neg_count {
            // Negative-sample embedding transfers (uniformly attributed).
            let from = (i % trees.len()) as u32;
            let to = ((i / 2) % trees.len()) as u32;
            // A device already holds its own embedding — a self-addressed
            // fetch never crosses the wire.
            if from != to {
                send(net, from, to);
            }
        }
        net.round();
    }
    // Loss/gradient aggregation: one message per surviving device — to
    // the server directly in flat mode, to the device's own aggregator
    // (then one partial per aggregator up to the server) in hierarchical
    // mode.
    for v in 0..trees.len() as u32 {
        if verdict.admits(v, SimNetwork::SERVER, &mut deferred) {
            match topo {
                Some(_) => net.send_to_aggregator(v, EMBEDDING_BYTES),
                None => net.send_to_server(v, EMBEDDING_BYTES),
            }
        }
    }
    if let Some(topo) = topo {
        for shard in 0..topo.num_aggregators() as u32 {
            // An outage-covered aggregator ships nothing: its members were
            // re-homed to the successor, whose own (merged) partial is
            // sent here.
            if net.rehome_target(shard) == shard {
                net.send_aggregator_to_server(shard, EMBEDDING_BYTES);
            }
        }
    }
    net.round();
    deferred
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_data::Scale;
    use lumos_gnn::Backbone;

    fn smoke_config(task: TaskKind) -> LumosConfig {
        LumosConfig::new(Backbone::Gcn, task)
            .with_epochs(30)
            .with_mcmc_iterations(30)
            .with_seed(7)
    }

    #[test]
    fn supervised_run_beats_random_guessing() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised);
        let report = run_lumos(&ds, &cfg);
        // 4 balanced classes → random ≈ 0.25. Lumos must clearly beat it.
        assert!(
            report.test_metric > 0.4,
            "accuracy {} too low",
            report.test_metric
        );
        assert!(!report.history.is_empty());
        assert!(report.avg_messages_per_device_per_epoch > 0.0);
        assert!(report.init_messages > 0);
        assert!(report.constructor.trimmed);
    }

    #[test]
    fn unsupervised_run_beats_random_auc() {
        let ds = Dataset::lastfm_like(Scale::Smoke);
        // Link prediction under ε = 2 needs the paper's longer training to
        // rise above the LDP noise floor (§VIII-B uses 300 epochs).
        let mut cfg = smoke_config(TaskKind::Unsupervised).with_epochs(500);
        cfg.eval_every = 50;
        let report = run_lumos(&ds, &cfg);
        assert!(
            report.test_metric > 0.57,
            "AUC {} too low",
            report.test_metric
        );
    }

    #[test]
    fn loss_decreases_during_training() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised).with_epochs(40);
        let report = run_lumos(&ds, &cfg);
        let first = report.history.first().unwrap().loss;
        let last = report.history.last().unwrap().loss;
        assert!(last < first, "loss {first} → {last} must decrease");
    }

    #[test]
    fn zero_eval_every_evaluates_at_the_final_epoch_only() {
        // Regression: `eval_every = 0` used to panic with a remainder by
        // zero on the first epoch.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let mut cfg = smoke_config(TaskKind::Supervised).with_epochs(3);
        cfg.eval_every = 0;
        let report = run_lumos(&ds, &cfg);
        let epochs: Vec<usize> = report.history.iter().map(|m| m.epoch).collect();
        assert_eq!(epochs, vec![2]);
        assert_eq!(report.best_val_metric, report.history[0].val_metric);
    }

    #[test]
    fn trimming_reduces_messages_and_max_workload() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let trimmed = run_lumos(&ds, &smoke_config(TaskKind::Supervised).with_epochs(3));
        let untrimmed = run_lumos(
            &ds,
            &smoke_config(TaskKind::Supervised)
                .with_epochs(3)
                .without_tree_trimming(),
        );
        assert!(
            trimmed.avg_messages_per_device_per_epoch < untrimmed.avg_messages_per_device_per_epoch,
            "trimming must cut communication: {} vs {}",
            trimmed.avg_messages_per_device_per_epoch,
            untrimmed.avg_messages_per_device_per_epoch
        );
        assert!(trimmed.constructor.max_workload < untrimmed.constructor.max_workload);
        assert!(trimmed.avg_epoch_makespan < untrimmed.avg_epoch_makespan);
    }

    #[test]
    fn bitsliced_backend_is_outcome_identical_with_cheaper_crypto() {
        // The comparison engine decides only *how* orderings are computed:
        // the trees, and therefore the entire training trajectory, must be
        // bit-identical — while the constructor's secure traffic collapses.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised).with_epochs(5);
        let scalar = run_lumos(&ds, &cfg);
        let sliced = run_lumos(
            &ds,
            &cfg.clone()
                .with_compare_backend(lumos_balance::CompareBackend::Bitsliced),
        );
        assert_eq!(scalar.test_metric.to_bits(), sliced.test_metric.to_bits());
        assert_eq!(scalar.final_loss().to_bits(), sliced.final_loss().to_bits());
        assert_eq!(
            scalar.constructor.max_workload,
            sliced.constructor.max_workload
        );
        assert_eq!(
            scalar.constructor.comparisons,
            sliced.constructor.comparisons
        );
        assert!(
            sliced.constructor.secure_comm.messages * 8 < scalar.constructor.secure_comm.messages,
            "bit-slicing must collapse constructor traffic: {} vs {}",
            sliced.constructor.secure_comm.messages,
            scalar.constructor.secure_comm.messages
        );
    }

    #[test]
    fn ablation_without_virtual_nodes_runs() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised)
            .with_epochs(5)
            .without_virtual_nodes();
        let report = run_lumos(&ds, &cfg);
        assert!(report.test_metric > 0.0);
    }

    #[test]
    fn scenario_overlay_reports_sim_without_changing_training() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised).with_epochs(6);
        let plain = run_lumos(&ds, &cfg);
        let hetero = run_lumos(
            &ds,
            &cfg.clone()
                .with_scenario(lumos_sim::Scenario::StragglerTail),
        );
        // Timing overlay only: the learned model is bit-identical.
        assert_eq!(plain.test_metric.to_bits(), hetero.test_metric.to_bits());
        assert_eq!(plain.final_loss().to_bits(), hetero.final_loss().to_bits());
        assert!(plain.sim.is_none());
        let sim = hetero.sim.expect("scenario run must report sim stats");
        assert_eq!(sim.scenario, "straggler-tail");
        assert_eq!(sim.straggler_sequence.len(), 6);
        assert!(sim.total_virtual_secs > 0.0);
        assert!(sim.avg_epoch_virtual_secs > 0.0);
        assert!(sim.mean_utilization > 0.0 && sim.mean_utilization <= 1.0);
        assert_eq!(sim.dropped_device_rounds, 0);
        assert_eq!(sim.late_drops, 0, "full-sync never drops");
        assert!(sim.dominant_straggler().is_some());
    }

    #[test]
    fn deadline_policy_drops_stragglers_and_shortens_epochs() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let base = smoke_config(TaskKind::Supervised)
            .with_epochs(4)
            .with_scenario(lumos_sim::Scenario::StragglerTail);
        let full = run_lumos(&ds, &base);
        let deadline = run_lumos(
            &ds,
            &base
                .clone()
                .with_aggregation_policy(AggregationPolicy::Deadline { factor: 2.0 }),
        );
        let (fs, ds_sim) = (full.sim.clone().unwrap(), deadline.sim.clone().unwrap());
        // The Pareto tail lands past 2× the median every round.
        assert!(ds_sim.late_drops > 0, "straggler tail must breach deadline");
        assert_eq!(fs.late_drops, 0);
        // Dropping them closes the barrier earlier.
        assert!(
            ds_sim.avg_epoch_virtual_secs < fs.avg_epoch_virtual_secs,
            "deadline {} must undercut full-sync {}",
            ds_sim.avg_epoch_virtual_secs,
            fs.avg_epoch_virtual_secs
        );
        // And fewer updates cross the wire.
        assert!(
            deadline.avg_messages_per_device_per_epoch < full.avg_messages_per_device_per_epoch
        );
        // By design NOT a timing overlay: the pooled update changed.
        assert_ne!(
            full.final_loss().to_bits(),
            deadline.final_loss().to_bits(),
            "dropping updates must change the training math"
        );
        // Still learns on the surviving cohort.
        assert!(deadline.test_metric > 0.3);
    }

    #[test]
    fn deadline_policy_is_inert_without_a_scenario() {
        // No profiles → no timing signal → FullSync behavior, bit for bit.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised).with_epochs(5);
        let plain = run_lumos(&ds, &cfg);
        let polled = run_lumos(
            &ds,
            &cfg.clone()
                .with_aggregation_policy(AggregationPolicy::Deadline { factor: 1.5 }),
        );
        assert_eq!(plain.test_metric.to_bits(), polled.test_metric.to_bits());
        assert_eq!(plain.final_loss().to_bits(), polled.final_loss().to_bits());
        assert_eq!(
            plain.avg_messages_per_device_per_epoch.to_bits(),
            polled.avg_messages_per_device_per_epoch.to_bits()
        );
        assert!(polled.sim.is_none());
    }

    #[test]
    fn deadline_runs_are_seed_deterministic() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised)
            .with_epochs(4)
            .with_scenario(lumos_sim::Scenario::StragglerTail)
            .with_aggregation_policy(AggregationPolicy::Deadline { factor: 2.0 });
        let a = run_lumos(&ds, &cfg);
        let b = run_lumos(&ds, &cfg);
        assert_eq!(a.test_metric.to_bits(), b.test_metric.to_bits());
        assert_eq!(a.final_loss().to_bits(), b.final_loss().to_bits());
        let (sa, sb) = (a.sim.unwrap(), b.sim.unwrap());
        assert_eq!(sa.late_drops, sb.late_drops);
        assert_eq!(sa.straggler_sequence, sb.straggler_sequence);
        assert_eq!(
            sa.total_virtual_secs.to_bits(),
            sb.total_virtual_secs.to_bits()
        );
    }

    #[test]
    fn uniform_scenario_beats_straggler_tail_on_makespan() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised).with_epochs(4);
        let uniform = run_lumos(
            &ds,
            &cfg.clone().with_scenario(lumos_sim::Scenario::Uniform),
        );
        let tail = run_lumos(
            &ds,
            &cfg.clone()
                .with_scenario(lumos_sim::Scenario::StragglerTail),
        );
        let (u, t) = (uniform.sim.unwrap(), tail.sim.unwrap());
        assert!(
            u.avg_epoch_virtual_secs < t.avg_epoch_virtual_secs,
            "uniform {} must undercut straggler-tail {}",
            u.avg_epoch_virtual_secs,
            t.avg_epoch_virtual_secs
        );
    }

    #[test]
    fn churn_scenario_drops_devices() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised)
            .with_epochs(8)
            .with_scenario(lumos_sim::Scenario::Churn);
        let report = run_lumos(&ds, &cfg);
        let sim = report.sim.unwrap();
        // 300 devices × 10% dropout × 8 rounds ⇒ churn must bite.
        assert!(sim.dropped_device_rounds > 0);
    }

    #[test]
    fn churn_silences_absent_devices() {
        // Regression: churn used to be a pure timing overlay — absent
        // devices kept sending protocol messages and pooling their
        // embeddings as if they had never left.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised).with_epochs(8);
        let plain = run_lumos(&ds, &cfg);
        let churn = run_lumos(&ds, &cfg.clone().with_scenario(lumos_sim::Scenario::Churn));
        let sim = churn.sim.clone().unwrap();
        assert!(sim.dropped_device_rounds > 0, "churn must bite");
        assert!(
            churn.avg_messages_per_device_per_epoch < plain.avg_messages_per_device_per_epoch,
            "absent devices must send nothing: churn {} vs frozen fleet {}",
            churn.avg_messages_per_device_per_epoch,
            plain.avg_messages_per_device_per_epoch
        );
        assert_ne!(
            plain.final_loss().to_bits(),
            churn.final_loss().to_bits(),
            "absent devices must leave the POOL"
        );
    }

    #[test]
    fn no_self_addressed_negative_fetches() {
        // Regression: the uniform attribution of negative-sample transfers
        // maps index 0 to the pair (0, 0) — a device fetching its own
        // embedding — which used to be recorded as wire traffic.
        let ds = Dataset::lastfm_like(Scale::Smoke);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let split = EdgeSplit::uniform(&ds.graph, &mut rng);
        let n = ds.num_nodes();
        let trees: Vec<DeviceTree> = (0..n as u32)
            .map(|v| DeviceTree::build(LocalGraphKind::VirtualNodeTree, v, vec![]))
            .collect();
        let cfg = LumosConfig::new(lumos_gnn::Backbone::Gcn, TaskKind::Unsupervised);
        let mut net = SimNetwork::new(n);
        let snap = net.snapshot();
        record_epoch_messages(
            &mut net,
            &RoundVerdict::everyone(n),
            &trees,
            &cfg,
            Some(&split),
            None,
        );
        let edges = net.sent_matrix_since(&snap);
        assert!(!edges.is_empty());
        for ((from, to), _) in edges {
            assert_ne!(from, to, "self-addressed message on the ledger");
        }
    }

    #[test]
    fn buffered_policy_banks_late_updates_and_keeps_the_makespan_win() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let base = smoke_config(TaskKind::Supervised)
            .with_epochs(4)
            .with_scenario(lumos_sim::Scenario::StragglerTail);
        let full = run_lumos(&ds, &base);
        let deadline = run_lumos(
            &ds,
            &base
                .clone()
                .with_aggregation_policy(AggregationPolicy::Deadline { factor: 2.0 }),
        );
        let buffered = run_lumos(
            &ds,
            &base
                .clone()
                .with_aggregation_policy(AggregationPolicy::Buffered {
                    factor: 2.0,
                    decay: 0.5,
                }),
        );
        let fs = full.sim.clone().unwrap();
        let dsim = deadline.sim.clone().unwrap();
        let bs = buffered.sim.clone().unwrap();
        // Late work is banked for a later round, never discarded.
        assert!(bs.buffered_updates > 0, "tail must breach the deadline");
        assert_eq!(bs.wasted_updates, 0, "buffered never wastes an update");
        assert!(dsim.wasted_updates > 0, "deadline discards late work");
        assert_eq!(fs.wasted_updates, 0);
        // The barrier win survives the buffering.
        let deadline_win = fs.avg_epoch_virtual_secs - dsim.avg_epoch_virtual_secs;
        let buffered_win = fs.avg_epoch_virtual_secs - bs.avg_epoch_virtual_secs;
        assert!(deadline_win > 0.0);
        assert!(
            buffered_win >= 0.95 * deadline_win,
            "buffered win {buffered_win} must keep ≥95% of the deadline win {deadline_win}"
        );
        // Blending stale updates is a genuinely different trajectory from
        // dropping them (and from never cutting at all).
        assert_ne!(
            buffered.final_loss().to_bits(),
            deadline.final_loss().to_bits()
        );
        assert_ne!(buffered.final_loss().to_bits(), full.final_loss().to_bits());
        assert!(buffered.test_metric > 0.3);
    }

    #[test]
    fn async_quorum_closes_rounds_early_and_never_drops() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let base = smoke_config(TaskKind::Supervised)
            .with_epochs(4)
            .with_scenario(lumos_sim::Scenario::StragglerTail);
        let full = run_lumos(&ds, &base);
        // 80% quorum: the round closes when 4 of every 5 updates land —
        // the Pareto tail stops gating the barrier entirely.
        let quorum = ds.num_nodes() * 4 / 5;
        let asynced = run_lumos(
            &ds,
            &base
                .clone()
                .with_aggregation_policy(AggregationPolicy::Async {
                    min_updates: quorum,
                }),
        );
        let fs = full.sim.clone().unwrap();
        let asim = asynced.sim.clone().unwrap();
        // Nothing is dropped and nothing is wasted: the overflow rides the
        // staleness buffer into the next round at full weight.
        assert_eq!(asim.late_drops, 0, "the quorum never drops");
        assert_eq!(asim.wasted_updates, 0, "the quorum never wastes");
        assert!(asim.buffered_updates > 0, "the overflow must be carried");
        // Closing at the quorum beats waiting for the straggler tail.
        assert!(
            asim.avg_epoch_virtual_secs < fs.avg_epoch_virtual_secs,
            "async {} must undercut full-sync {}",
            asim.avg_epoch_virtual_secs,
            fs.avg_epoch_virtual_secs
        );
        // A genuinely different trajectory that still learns.
        assert_ne!(asynced.final_loss().to_bits(), full.final_loss().to_bits());
        assert!(asynced.test_metric > 0.3);
    }

    #[test]
    fn zero_decay_buffered_collapses_to_deadline_bitwise() {
        // `decay = 0` means an update arriving late is worth nothing —
        // exactly the deadline policy, and the runs must agree bit for bit.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let base = smoke_config(TaskKind::Supervised)
            .with_epochs(4)
            .with_scenario(lumos_sim::Scenario::StragglerTail);
        let deadline = run_lumos(
            &ds,
            &base
                .clone()
                .with_aggregation_policy(AggregationPolicy::Deadline { factor: 2.0 }),
        );
        let collapsed = run_lumos(
            &ds,
            &base
                .clone()
                .with_aggregation_policy(AggregationPolicy::Buffered {
                    factor: 2.0,
                    decay: 0.0,
                }),
        );
        assert_eq!(
            deadline.test_metric.to_bits(),
            collapsed.test_metric.to_bits()
        );
        assert_eq!(
            deadline.final_loss().to_bits(),
            collapsed.final_loss().to_bits()
        );
        assert_eq!(
            deadline.avg_messages_per_device_per_epoch.to_bits(),
            collapsed.avg_messages_per_device_per_epoch.to_bits()
        );
        assert_eq!(deadline.sim, collapsed.sim);
    }

    #[test]
    fn buffered_churn_run_performs_live_migrations() {
        // Devices that sit out consecutive rounds are priced at 4× their
        // nominal rate, sail past the 2× fleet-mean threshold, and must
        // have their tree nodes migrated to cheaper endpoints.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised)
            .with_epochs(8)
            .with_scenario(lumos_sim::Scenario::Churn)
            .with_aggregation_policy(AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 0.5,
            });
        let report = run_lumos(&ds, &cfg);
        let sim = report.sim.unwrap();
        assert!(
            sim.migrations >= 1,
            "sustained churn overload must trigger a live migration"
        );
        assert!(sim.migrated_nodes >= 1);
        assert!(report.test_metric > 0.3, "still learns through churn");
    }

    #[test]
    fn runs_are_deterministic_under_seed() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised).with_epochs(5);
        let a = run_lumos(&ds, &cfg);
        let b = run_lumos(&ds, &cfg);
        assert_eq!(a.test_metric, b.test_metric);
        assert_eq!(a.final_loss(), b.final_loss());
    }

    #[test]
    fn hierarchical_run_learns_and_differs_from_flat() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised);
        let flat = run_lumos(&ds, &cfg);
        let tiered = run_lumos(
            &ds,
            &cfg.clone()
                .with_topology(lumos_topo::TopologyConfig::Hierarchical { aggregators: 4 }),
        );
        // Sharded balance reshapes the trees, so the trajectory genuinely
        // changes — and still clearly beats random guessing.
        assert!(
            tiered.test_metric > 0.4,
            "hierarchical accuracy {} too low",
            tiered.test_metric
        );
        assert_ne!(
            flat.final_loss().to_bits(),
            tiered.final_loss().to_bits(),
            "per-shard balancing must change tree placement"
        );
        // Per-shard MCMC compares devices only inside their own lanes.
        assert!(tiered.constructor.comparisons < flat.constructor.comparisons);
    }

    #[test]
    fn hierarchical_runs_are_seed_deterministic() {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised)
            .with_epochs(4)
            .with_topology(lumos_topo::TopologyConfig::Hierarchical { aggregators: 3 })
            .with_scenario(lumos_sim::Scenario::StragglerTail);
        let a = run_lumos(&ds, &cfg);
        let b = run_lumos(&ds, &cfg);
        assert_eq!(a.test_metric.to_bits(), b.test_metric.to_bits());
        assert_eq!(a.final_loss().to_bits(), b.final_loss().to_bits());
        let (sa, sb) = (a.sim.unwrap(), b.sim.unwrap());
        assert_eq!(
            sa.total_virtual_secs.to_bits(),
            sb.total_virtual_secs.to_bits()
        );
    }

    #[test]
    fn single_aggregator_topology_collapses_to_flat_bitwise() {
        // `Hierarchical { aggregators: 1 }` resolves to `Flat` up front —
        // one aggregator that hears every device and forwards one partial
        // IS the server's front door, so the whole run must agree bit for
        // bit with the flat path (satellite 3: RunReport identity).
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised)
            .with_epochs(5)
            .with_scenario(lumos_sim::Scenario::StragglerTail);
        let flat = run_lumos(&ds, &cfg);
        let one = run_lumos(
            &ds,
            &cfg.clone()
                .with_topology(lumos_topo::TopologyConfig::Hierarchical { aggregators: 1 }),
        );
        assert_eq!(flat.test_metric.to_bits(), one.test_metric.to_bits());
        assert_eq!(flat.final_loss().to_bits(), one.final_loss().to_bits());
        assert_eq!(
            flat.avg_messages_per_device_per_epoch.to_bits(),
            one.avg_messages_per_device_per_epoch.to_bits()
        );
        assert_eq!(
            flat.avg_epoch_makespan.to_bits(),
            one.avg_epoch_makespan.to_bits()
        );
        assert_eq!(flat.constructor.comparisons, one.constructor.comparisons);
        assert_eq!(flat.sim, one.sim);
    }

    #[test]
    fn hierarchical_scenario_run_pays_the_aggregator_hop() {
        // With profiles installed, the epoch barrier extends to the last
        // aggregator partial's arrival at the server.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = smoke_config(TaskKind::Supervised)
            .with_epochs(4)
            .with_topology(lumos_topo::TopologyConfig::Hierarchical { aggregators: 4 })
            .with_scenario(lumos_sim::Scenario::Uniform);
        let report = run_lumos(&ds, &cfg);
        let sim = report.sim.expect("scenario run must report sim stats");
        assert!(sim.total_virtual_secs > 0.0);
        assert!(report.avg_epoch_makespan > 0.0);
        // 4 epochs is a smoke run: just confirm it trains at all.
        assert!(report.test_metric > 0.25);
    }

    #[test]
    fn default_rebalance_trigger_is_bit_identical_to_explicit_defaults() {
        // Satellite 1 regression: exposing the re-balancer knobs through
        // the config must leave the default trajectory untouched.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let base = smoke_config(TaskKind::Supervised)
            .with_epochs(8)
            .with_scenario(lumos_sim::Scenario::Churn)
            .with_aggregation_policy(AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 0.5,
            });
        let implicit = run_lumos(&ds, &base);
        let explicit = run_lumos(&ds, &base.clone().with_rebalance_trigger(2.0, 2));
        assert_eq!(
            implicit.test_metric.to_bits(),
            explicit.test_metric.to_bits()
        );
        assert_eq!(
            implicit.final_loss().to_bits(),
            explicit.final_loss().to_bits()
        );
        assert_eq!(implicit.sim, explicit.sim);
    }

    #[test]
    fn hair_trigger_rebalance_migrates_at_least_as_eagerly() {
        // A 1.01× threshold with single-round patience fires on any
        // overload the default (2×, 2 rounds) would have tolerated.
        let ds = Dataset::facebook_like(Scale::Smoke);
        let base = smoke_config(TaskKind::Supervised)
            .with_epochs(8)
            .with_scenario(lumos_sim::Scenario::Churn)
            .with_aggregation_policy(AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 0.5,
            });
        let default = run_lumos(&ds, &base);
        let eager = run_lumos(&ds, &base.clone().with_rebalance_trigger(1.01, 1));
        let (d, e) = (default.sim.unwrap(), eager.sim.unwrap());
        assert!(
            e.migrations >= d.migrations,
            "hair trigger must migrate at least as often: {} vs {}",
            e.migrations,
            d.migrations
        );
        assert!(e.migrations >= 1);
    }
}
