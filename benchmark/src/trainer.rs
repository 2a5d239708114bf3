//! The two trainer workloads (`paper-sup`, `fleet-unsup`): their inputs,
//! their configurations, and the traced replay of a `run_lumos` call
//! through each layer's public functions.
//!
//! The replay follows `run_lumos` call for call wherever a layer has a
//! public entry: the split, the constructor, tree building, the LDP
//! exchange, batching, model set-up, the fault, topology and probe calls
//! (through [`crate::round`], shared with `fleet-100k`), re-balancing,
//! forward, loss, backward, gradient accumulation, Adam, the ledger sends
//! and the epoch close. Trainer glue with no public entry is not copied:
//! the replay pools flat instead of tier by tier, does not re-inject
//! deferred sends and keeps no re-balance streaks, so on `fleet-unsup`
//! its rounds time the same layers on the same shapes without being
//! bit-identical, and that glue's cost lands in `core.unattributed_s`.
//! Three pieces are re-stated because a measured layer needs them: the
//! flat POOL after the encoder (`paper-sup`'s epoch-0 loss must equal the
//! real run's bit for bit), the evaluation (`gnn.eval_s`), and one round
//! of protocol traffic on the ledger ([`record_round`], for `fed.sends_s`
//! and the probe's work template). The last is the benchmark's own copy
//! of the trainer's private message recording: the figures built on it
//! (`server_bytes_per_round` and the `fed.*` layers on these workloads)
//! do not follow changes to the trainer's traffic.

use std::rc::Rc;

use lumos_balance::{
    rebalance_assignment, Assignment, BalanceObjective, CompareBackend, SecurityMode,
};
use lumos_common::rng::Xoshiro256pp;
use lumos_core::batch::PoolArrays;
use lumos_core::init::exchange_missing_features;
use lumos_core::{
    build_batched, construct_assignment, construct_assignment_sharded, exchange_features,
    BatchedTrees, ConstructorReport, DeviceTree, LdpExchange, LocalGraphKind, LumosConfig,
    RunReport, TaskKind,
};
use lumos_data::{sample_non_edges, Dataset, EdgeSplit, NodeSplit, Scale};
use lumos_fed::{ledger_work, CostModel, Runtime, SimNetwork, TierSpec};
use lumos_gnn::{
    accuracy_masked, cross_entropy_masked, link_logits, link_prediction_loss, roc_auc, Backbone,
    EncoderConfig, GnnEncoder, LinearDecoder,
};
use lumos_graph::Graph;
use lumos_sim::{
    AggregationPolicy, DeviceProfile, DeviceWork, FaultSpec, FaultState, OutageWindow, Scenario,
    ScenarioState, StalenessBuffer,
};
use lumos_tensor::{Adam, ParamStore, Tape, VarId};
use lumos_topo::{Topology, TopologyConfig};

use crate::round;
use crate::trace::Tracer;

/// Embedding size of one pooled vertex message on the wire (16 f32), as
/// the trainer prices it.
const EMBEDDING_BYTES: u64 = 16 * 4;

/// Which trainer workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trainer {
    /// Facebook-like, GCN, supervised, real bit-sliced secure comparisons.
    PaperSup,
    /// LastFM-like, GCN, link prediction, churn + async + tiers + faults.
    FleetUnsup,
}

/// Training epochs of `paper-sup`.
const PAPER_SUP_EPOCHS: usize = 40;
/// Training epochs of `fleet-unsup`.
const FLEET_UNSUP_EPOCHS: usize = 100;

/// The fault stream both fleet workloads run under: 5% mid-round
/// crashes, 10% message loss, and aggregator 1 dark for rounds 1 and 2.
pub fn fault_spec() -> FaultSpec {
    FaultSpec::Faults {
        crash_rate: 0.05,
        loss_rate: 0.10,
        duplicate_rate: 0.0,
        outages: vec![OutageWindow {
            aggregator: 1,
            from_round: 1,
            until_round: 3,
        }],
    }
}

impl Trainer {
    /// The generated dataset: the preset's own graph, labels and features.
    ///
    /// The graph does not follow the workload seed: the power-law degree
    /// draw moved the edge count, and with it every cost and message
    /// figure, by up to 12% between seeds, which buried real changes in
    /// seed-to-seed spread. The seed drives everything else a run draws —
    /// the split, LDP noise, weights, dropout, negatives, the MCMC chain,
    /// the fleet and the fault stream — through [`Trainer::config`].
    pub fn dataset(self) -> Dataset {
        match self {
            Trainer::PaperSup => Dataset::facebook_like(Scale::Small),
            Trainer::FleetUnsup => Dataset::lastfm_like(Scale::Small),
        }
    }

    /// The run configuration for `seed` (the run seed also seeds the
    /// fleet, the fault stream and the constructor).
    pub fn config(self, seed: u64) -> LumosConfig {
        match self {
            Trainer::PaperSup => {
                // The Uniform fleet is a pure timing overlay (training is
                // bit-identical without it); it gives the plain path a
                // simulated makespan to report.
                let mut cfg = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
                    .with_epsilon(2.0)
                    .with_epochs(PAPER_SUP_EPOCHS)
                    .with_mcmc_iterations(1_000)
                    .with_compare_backend(CompareBackend::Bitsliced)
                    .with_scenario(Scenario::Uniform)
                    .with_seed(seed);
                cfg.security = SecurityMode::Simulated;
                cfg
            }
            Trainer::FleetUnsup => LumosConfig::new(Backbone::Gcn, TaskKind::Unsupervised)
                .with_epsilon(2.0)
                .with_epochs(FLEET_UNSUP_EPOCHS)
                .with_scenario(Scenario::Churn)
                .with_aggregation_policy(AggregationPolicy::Async { min_updates: 700 })
                .with_topology(TopologyConfig::Hierarchical { aggregators: 4 })
                .with_faults(fault_spec())
                .with_seed(seed),
        }
    }
}

/// Everything `run_lumos` holds when its first round starts.
pub struct Setup {
    rng: Xoshiro256pp,
    runtime: Runtime,
    scenario: Option<ScenarioState>,
    topology: Option<Topology>,
    assignment: Assignment,
    /// The constructor's report, as `run_lumos` would file it.
    pub constructor: ConstructorReport,
    trees: Vec<DeviceTree>,
    exchange: LdpExchange,
    batch: BatchedTrees,
    node_split: Option<NodeSplit>,
    edge_split: Option<EdgeSplit>,
    kind: LocalGraphKind,
    enc_cfg: EncoderConfig,
}

/// Replays `run_lumos` from generated inputs to the first round: split,
/// fleet and ledger, constructor, tree build, LDP exchange and batching.
pub fn setup(ds: &Dataset, cfg: &LumosConfig, tr: &mut Tracer) -> Setup {
    assert_eq!(
        cfg.balance_objective,
        BalanceObjective::TreeNodes,
        "the replay prices no per-device costs"
    );
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let n = ds.num_nodes();
    let (node_split, edge_split, train_graph): (_, _, Graph) = match cfg.task {
        TaskKind::Supervised => (
            Some(NodeSplit::uniform(n, &mut rng)),
            None,
            ds.graph.clone(),
        ),
        TaskKind::Unsupervised => {
            let split = EdgeSplit::uniform(&ds.graph, &mut rng);
            let g = split.train_graph(n);
            (None, Some(split), g)
        }
    };

    let mut runtime = Runtime::new(n, CostModel::default());
    runtime.set_embedding_bytes(EMBEDDING_BYTES);
    let scenario = cfg.scenario.map(|s| ScenarioState::new(s, n, cfg.seed));
    if let Some(state) = &scenario {
        runtime.set_profiles(state.profiles().to_vec());
    }
    let enc_cfg = EncoderConfig::paper(cfg.backbone, ds.feature_dim);
    let topology = cfg
        .topology
        .effective(n)
        .aggregators()
        .map(|k| Topology::seeded(n, k, cfg.seed));
    if let Some(topo) = &topology {
        runtime.network = SimNetwork::new_sharded(topo.shard_vector());
        runtime.set_tier(TierSpec {
            topology: topo.clone(),
            aggregator: DeviceProfile::baseline(),
            partial_bytes: EMBEDDING_BYTES,
        });
    }

    let (assignment, constructor) = tr.scope("balance.construct_s", || match &topology {
        Some(topo) => construct_assignment_sharded(
            &train_graph,
            cfg.tree_trimming,
            cfg.mcmc_iterations,
            cfg.security,
            cfg.compare_backend,
            cfg.seed,
            None,
            topo,
        ),
        None => construct_assignment(
            &train_graph,
            cfg.tree_trimming,
            cfg.mcmc_iterations,
            cfg.security,
            cfg.compare_backend,
            cfg.seed,
            None,
        ),
    });
    tr.count("balance.comparisons", constructor.comparisons as f64);
    tr.count(
        "balance.mcmc_improving_ratio",
        improving_ratio(&constructor.mcmc_trace),
    );
    tr.count(
        "crypto.ot_messages",
        constructor.secure_comm.messages as f64,
    );
    tr.count("crypto.ot_bytes", constructor.secure_comm.bytes as f64);

    let kind = if cfg.virtual_nodes {
        LocalGraphKind::VirtualNodeTree
    } else {
        LocalGraphKind::RawEgoNetwork
    };
    let trees = tr.scope("core.tree_build_s", || build_trees(kind, &assignment));
    let exchange = tr.scope("ldp.exchange_s", || {
        exchange_features(
            &ds.features,
            ds.feature_dim,
            &trees,
            cfg.epsilon,
            &mut rng,
            &mut runtime.network,
        )
    });
    tr.count("ldp.messages", exchange.messages as f64);
    let batch = tr.scope("core.batch_s", || {
        build_batched(&trees, &ds.features, ds.feature_dim, &exchange)
    });
    tr.count("core.tree_nodes", batch.total_nodes() as f64);

    Setup {
        rng,
        runtime,
        scenario,
        topology,
        assignment,
        constructor,
        trees,
        exchange,
        batch,
        node_split,
        edge_split,
        kind,
        enc_cfg,
    }
}

/// Share of MCMC iterations that lowered the objective.
fn improving_ratio(trace: &[usize]) -> f64 {
    if trace.len() < 2 {
        return 0.0;
    }
    let improving = trace.windows(2).filter(|w| w[1] < w[0]).count();
    improving as f64 / (trace.len() - 1) as f64
}

fn build_trees(kind: LocalGraphKind, assignment: &Assignment) -> Vec<DeviceTree> {
    (0..assignment.num_devices() as u32)
        .map(|v| DeviceTree::build(kind, v, assignment.kept(v).to_vec()))
        .collect()
}

/// Server bytes of one protocol round on a fresh ledger of the set-up's
/// mode, every device live.
pub fn server_bytes_per_round(setup: &Setup, cfg: &LumosConfig) -> f64 {
    let mut net = fresh_network(setup.trees.len(), setup.topology.as_ref());
    let silenced = vec![false; setup.trees.len()];
    record_round(
        &setup.trees,
        cfg,
        &mut net,
        setup.edge_split.as_ref(),
        &silenced,
        setup.topology.as_ref(),
    );
    net.server_bytes_received() as f64
}

fn fresh_network(n: usize, topo: Option<&Topology>) -> SimNetwork {
    match topo {
        Some(t) => SimNetwork::new_sharded(t.shard_vector()),
        None => SimNetwork::new(n),
    }
}

/// One round of protocol traffic on `net`: leaf embeddings back to their
/// owners, the link-prediction fetches, then the aggregation upload
/// (through the aggregators when there is a topology). Silenced devices
/// send nothing.
fn record_round(
    trees: &[DeviceTree],
    cfg: &LumosConfig,
    net: &mut SimNetwork,
    edge_split: Option<&EdgeSplit>,
    silenced: &[bool],
    topo: Option<&Topology>,
) {
    for tree in trees {
        if silenced[tree.center as usize] {
            continue;
        }
        for &v in &tree.neighbors {
            net.send(tree.center, v, EMBEDDING_BYTES);
        }
    }
    net.round();
    if let Some(split) = edge_split.filter(|_| cfg.task == TaskKind::Unsupervised) {
        for &(u, v) in &split.train_edges {
            if !silenced[v as usize] {
                net.send(v, u, EMBEDDING_BYTES);
            }
        }
        let n = trees.len();
        for i in 0..split.train_edges.len() * cfg.negatives_per_positive {
            let (from, to) = ((i % n) as u32, ((i / 2) % n) as u32);
            if from != to && !silenced[from as usize] {
                net.send(from, to, EMBEDDING_BYTES);
            }
        }
        net.round();
    }
    match topo {
        Some(topo) => {
            for v in 0..trees.len() as u32 {
                if !silenced[v as usize] {
                    net.send_to_aggregator(v, EMBEDDING_BYTES);
                }
            }
            for shard in 0..topo.num_aggregators() as u32 {
                if net.rehome_target(shard) == shard {
                    net.send_aggregator_to_server(shard, EMBEDDING_BYTES);
                }
            }
        }
        None => {
            for v in 0..trees.len() as u32 {
                if !silenced[v as usize] {
                    net.send_to_server(v, EMBEDDING_BYTES);
                }
            }
        }
    }
    net.round();
}

/// The probe's per-device work for one fault-free round of traffic.
fn work_template(setup: &Setup, cfg: &LumosConfig, layers: usize) -> Vec<DeviceWork> {
    let mut probe = fresh_network(setup.trees.len(), setup.topology.as_ref());
    let snap = probe.snapshot();
    let silenced = vec![false; setup.trees.len()];
    record_round(
        &setup.trees,
        cfg,
        &mut probe,
        setup.edge_split.as_ref(),
        &silenced,
        setup.topology.as_ref(),
    );
    ledger_work(&probe, &snap, &setup.batch.tree_sizes, layers)
}

/// What the replayed rounds produced.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Training loss of every epoch, in order.
    pub losses: Vec<f64>,
    /// Test metric after the last epoch.
    pub test_metric: f64,
}

/// The opt-in round machinery `fleet-unsup` runs — async quorum over
/// aggregator shards, faults and the staleness buffer. `paper-sup` runs
/// none of it.
struct Opted {
    faults: FaultState,
    topo: Topology,
    policy: AggregationPolicy,
    min_updates: usize,
    template: Vec<DeviceWork>,
    staleness: StalenessBuffer,
}

/// Replays `run_lumos`'s rounds from a finished set-up.
pub fn replay_rounds(ds: &Dataset, cfg: &LumosConfig, mut s: Setup, tr: &mut Tracer) -> Replay {
    let n = ds.num_nodes();
    let layers = s.enc_cfg.num_layers;
    let mut opted = s.topology.clone().map(|topo| {
        let policy = cfg.aggregation_policy.resolve(n);
        let AggregationPolicy::Async { min_updates } = policy else {
            panic!("the tiered workload runs the async quorum");
        };
        assert!(!cfg.faults.is_none() && s.scenario.is_some());
        Opted {
            faults: FaultState::new(cfg.faults.clone(), cfg.recovery, cfg.seed),
            topo,
            policy,
            min_updates,
            template: work_template(&s, cfg, layers),
            // The async quorum carries late updates at full weight.
            staleness: StalenessBuffer::new(1.0),
        }
    });

    let mut store = ParamStore::new();
    let encoder = GnnEncoder::new(&mut store, &s.enc_cfg, &mut s.rng);
    let decoder = (cfg.task == TaskKind::Supervised).then(|| {
        LinearDecoder::new(
            &mut store,
            "head",
            encoder.out_dim(),
            ds.num_classes,
            &mut s.rng,
        )
    });
    let mut opt = Adam::new(cfg.lr);
    let targets = Rc::new(ds.labels.clone());
    let train_mask: Option<Rc<Vec<f32>>> = s.node_split.as_ref().map(|sp| {
        Rc::new(
            sp.train_mask
                .iter()
                .map(|&b| if b { 1.0 } else { 0.0 })
                .collect(),
        )
    });
    let pos_pairs = s.edge_split.as_ref().map(|sp| {
        let src: Vec<u32> = sp.train_edges.iter().map(|&(u, _)| u).collect();
        let dst: Vec<u32> = sp.train_edges.iter().map(|&(_, v)| v).collect();
        (Rc::new(src), Rc::new(dst))
    });
    let mut full_pool = s.batch.masked_pool(&[]);

    let mut losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        tr.set_round(epoch as u64);
        if let Some(state) = &s.scenario {
            s.runtime.set_profiles(state.profiles().to_vec());
        }
        s.runtime.begin_epoch();
        let mut round = None;
        if let Some(o) = &mut opted {
            let state = s.scenario.as_ref().expect("the tiered workload churns");
            let profiles = state.profiles().to_vec();
            let rf = round::compile(&mut o.faults, &o.topo, &mut s.runtime, &profiles, tr);
            rebalance(&mut s, &mut o.template, &mut full_pool, ds, cfg, tr);
            let late = round::probe(&profiles, &o.template, &rf, &o.policy, &o.topo, tr);
            round = Some((rf, late));
        }
        // Absent, crashed, late and exhausted devices send nothing this
        // round and leave the POOL; buffered updates blend back in.
        let mut silenced = vec![false; n];
        if let Some((rf, late)) = &round {
            for (off, &a) in silenced.iter_mut().zip(&rf.avail) {
                *off = !a;
            }
            let late = late.iter().map(|&(d, _)| d);
            for d in rf
                .crashed
                .iter()
                .copied()
                .chain(late)
                .chain(rf.exhausted.iter().copied())
            {
                silenced[d as usize] = true;
            }
        }

        let pool: PoolArrays = tr.scope("core.pool_s", || match &mut opted {
            Some(o) => {
                let arrivals = o.staleness.advance(n);
                let weights: Vec<f32> = silenced
                    .iter()
                    .zip(&arrivals)
                    .map(|(&off, &w)| if off { 0.0 } else { 1.0 } + w as f32)
                    .collect();
                s.batch.weighted_pool(&weights)
            }
            None => full_pool.clone(),
        });

        let mut tape = Tape::new();
        let h = forward_pooled(
            &mut tape, &store, &encoder, &s.batch, true, &mut s.rng, &pool, tr,
        );
        let loss_var: VarId = tr.scope("gnn.loss_s", || match cfg.task {
            TaskKind::Supervised => {
                let dec = decoder.as_ref().expect("supervised head");
                let logits = dec.forward(&mut tape, &store, h);
                let mask = train_mask.clone().expect("supervised mask");
                cross_entropy_masked(&mut tape, logits, targets.clone(), mask)
            }
            TaskKind::Unsupervised => {
                let (src, dst) = pos_pairs.clone().expect("unsupervised pairs");
                let negs = sample_non_edges(
                    &ds.graph,
                    src.len() * cfg.negatives_per_positive,
                    &mut s.rng,
                );
                let neg_src: Rc<Vec<u32>> = Rc::new(negs.iter().map(|&(u, _)| u).collect());
                let neg_dst: Rc<Vec<u32>> = Rc::new(negs.iter().map(|&(_, v)| v).collect());
                let pos_logits = link_logits(&mut tape, h, src, dst);
                let neg_logits = link_logits(&mut tape, h, neg_src, neg_dst);
                link_prediction_loss(&mut tape, pos_logits, neg_logits)
            }
        });
        losses.push(tape.value(loss_var).item() as f64);
        tr.count("tensor.tape_ops", tape.len() as f64);
        let grads = tr.scope("tensor.backward_s", || tape.backward(loss_var));
        tr.scope("tensor.grad_accum_s", || {
            store.zero_grad();
            tape.accumulate_param_grads(&grads, &mut store);
        });
        tr.scope("tensor.adam_s", || opt.step(&mut store));

        tr.scope("fed.sends_s", || {
            record_round(
                &s.trees,
                cfg,
                &mut s.runtime.network,
                s.edge_split.as_ref(),
                &silenced,
                s.topology.as_ref(),
            )
        });
        let tree_sizes = &s.batch.tree_sizes;
        let (messages, close_events) = match (&mut opted, round) {
            (Some(o), Some((rf, late_staleness))) => {
                for &(d, st) in &late_staleness {
                    o.staleness.push(d, st);
                }
                for &d in &rf.exhausted {
                    o.staleness.push(d, 1);
                }
                // Updates that landed this round or were carried into a
                // later one, over the updates live devices attempted.
                let live = rf.live();
                let silenced_live = (0..n).filter(|&d| rf.avail[d] && silenced[d]).count();
                let carried = silenced_live - rf.crashed.len();
                let late: Vec<u32> = late_staleness.iter().map(|&(d, _)| d).collect();
                s.runtime.set_fault_plan(Some(rf.plan));
                let (messages, events, delivered) = tr.scope("fed.close_s", || {
                    let record =
                        s.runtime
                            .end_epoch_closing(tree_sizes, layers, &late, o.min_updates);
                    let stats = record.sim.as_ref().expect("profiled runtime simulates");
                    (
                        record.total_messages,
                        stats.events,
                        round::delivered(stats, &silenced),
                    )
                });
                tr.count(
                    "sim.update_yield",
                    (delivered + carried) as f64 / live.max(1) as f64,
                );
                (messages, events)
            }
            _ => tr.scope("fed.close_s", || {
                let record = s.runtime.end_epoch_dropping(tree_sizes, layers, &[]);
                let events = record.sim.as_ref().map_or(0, |st| st.events);
                (record.total_messages, events)
            }),
        };
        tr.count("fed.messages_per_round", messages as f64);
        tr.count("sim.events_per_round", close_events as f64);
        tr.count(
            "fed.ledger_entries",
            s.runtime.network.ledger_entries() as f64,
        );

        if epoch + 1 < cfg.epochs {
            if let Some(state) = &mut s.scenario {
                state.advance_round();
            }
        }
        if epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs {
            tr.scope("gnn.eval_s", || {
                evaluate(
                    &store,
                    &encoder,
                    decoder.as_ref(),
                    &s,
                    ds,
                    cfg,
                    false,
                    &full_pool,
                )
            });
        }
    }
    // The closing test evaluation is filed under the last round.
    let test_metric = tr.scope("gnn.eval_s", || {
        evaluate(
            &store,
            &encoder,
            decoder.as_ref(),
            &s,
            ds,
            cfg,
            true,
            &full_pool,
        )
    });
    Replay {
        losses,
        test_metric,
    }
}

/// Live re-balancing through its public entry: devices the runtime prices
/// above `rebalance_threshold` × the fleet mean shed tree nodes, and a
/// migration rebuilds the trees and the batch (the top-up exchange is its
/// own, nested layer). The trainer only fires after `rebalance_patience`
/// such rounds in a row; that streak bookkeeping has no public entry and
/// is not replayed, so the replay re-balances at least as often.
fn rebalance(
    s: &mut Setup,
    template: &mut Vec<DeviceWork>,
    full_pool: &mut PoolArrays,
    ds: &Dataset,
    cfg: &LumosConfig,
    tr: &mut Tracer,
) {
    let layers = s.enc_cfg.num_layers;
    let Some(prices) = s.runtime.node_costs_micros(layers, EMBEDDING_BYTES) else {
        return;
    };
    let mean = prices.iter().map(|&p| p as f64).sum::<f64>() / prices.len().max(1) as f64;
    let overloaded: Vec<u32> = (0..prices.len() as u32)
        .filter(|&d| prices[d as usize] as f64 > cfg.rebalance_threshold * mean)
        .collect();
    if overloaded.is_empty() {
        return;
    }
    tr.enter("balance.rebalance_s");
    let outcome = rebalance_assignment(&mut s.assignment, &prices, &overloaded);
    if outcome.moved_nodes > 0 {
        tr.count("balance.migrations", 1.0);
        s.trees = build_trees(s.kind, &s.assignment);
        tr.scope("ldp.topup_s", || {
            exchange_missing_features(
                &ds.features,
                ds.feature_dim,
                &s.trees,
                cfg.epsilon,
                &mut s.rng,
                &mut s.runtime.network,
                &mut s.exchange,
            )
        });
        s.batch = build_batched(&s.trees, &ds.features, ds.feature_dim, &s.exchange);
        *template = work_template(s, cfg, layers);
        *full_pool = s.batch.masked_pool(&[]);
    }
    tr.exit();
}

/// Forward pass plus the flat POOL (Eq. 31) through the tape's public ops.
#[allow(clippy::too_many_arguments)]
fn forward_pooled(
    tape: &mut Tape,
    store: &ParamStore,
    encoder: &GnnEncoder,
    batch: &BatchedTrees,
    training: bool,
    rng: &mut Xoshiro256pp,
    pool: &PoolArrays,
    tr: &mut Tracer,
) -> VarId {
    let h_tree = tr.scope("gnn.forward_s", || {
        let x = tape.constant(batch.features.clone());
        encoder.forward(tape, store, x, &batch.mg, training, rng)
    });
    tr.scope("core.pool_s", || {
        let mut leaves = tape.gather_rows(h_tree, pool.leaves.clone());
        if let Some(w) = &pool.leaf_weights {
            leaves = tape.scale_rows(leaves, w.clone());
        }
        let summed = tape.scatter_add_rows(leaves, pool.vertices.clone(), batch.num_vertices);
        tape.scale_rows(summed, pool.coeff.clone())
    })
}

/// Validation or test metric with every device pooled and no dropout.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    store: &ParamStore,
    encoder: &GnnEncoder,
    decoder: Option<&LinearDecoder>,
    s: &Setup,
    ds: &Dataset,
    cfg: &LumosConfig,
    test: bool,
    full_pool: &PoolArrays,
) -> f64 {
    let mut tape = Tape::new();
    // Evaluation draws nothing: a throwaway stream keeps the signature.
    let mut rng = Xoshiro256pp::seed_from_u64(0);
    let mut quiet = Tracer::new(false);
    let h = forward_pooled(
        &mut tape, store, encoder, &s.batch, false, &mut rng, full_pool, &mut quiet,
    );
    match cfg.task {
        TaskKind::Supervised => {
            let split = s.node_split.as_ref().expect("supervised split");
            let mask = if test {
                &split.test_mask
            } else {
                &split.val_mask
            };
            let logits = decoder
                .expect("supervised head")
                .forward(&mut tape, store, h);
            accuracy_masked(tape.value(logits), &ds.labels, mask)
        }
        TaskKind::Unsupervised => {
            let split = s.edge_split.as_ref().expect("unsupervised split");
            let (pos, neg) = if test {
                (&split.test_edges, &split.test_negatives)
            } else {
                (&split.val_edges, &split.val_negatives)
            };
            let mut score = |pairs: &[(u32, u32)]| -> Vec<f32> {
                let src: Rc<Vec<u32>> = Rc::new(pairs.iter().map(|&(u, _)| u).collect());
                let dst: Rc<Vec<u32>> = Rc::new(pairs.iter().map(|&(_, v)| v).collect());
                let z = link_logits(&mut tape, h, src, dst);
                tape.value(z).data().to_vec()
            };
            let p = score(pos);
            let q = score(neg);
            roc_auc(&p, &q)
        }
    }
}

/// The deterministic fields of a report, bitwise: two same-seed runs must
/// agree on every one.
pub fn fingerprint(r: &RunReport) -> Vec<u64> {
    let mut f = vec![
        r.test_metric.to_bits(),
        r.best_val_metric.to_bits(),
        r.avg_messages_per_device_per_epoch.to_bits(),
        r.avg_epoch_makespan.to_bits(),
        r.init_messages,
        r.constructor.comparisons,
        r.constructor.secure_comm.messages,
        r.constructor.secure_comm.bytes,
        r.constructor.max_workload as u64,
    ];
    f.extend(
        r.history
            .iter()
            .flat_map(|m| [m.loss.to_bits(), m.val_metric.to_bits()]),
    );
    if let Some(sim) = &r.sim {
        f.extend([
            sim.total_virtual_secs.to_bits(),
            sim.buffered_updates,
            sim.wasted_updates,
            sim.migrations,
            sim.migrated_nodes,
            sim.lost_messages,
            sim.retries,
            sim.crashed_devices,
            sim.failovers,
        ]);
    }
    f
}
