//! Configuration of a Lumos run.

use lumos_balance::{BalanceObjective, CompareBackend, SecurityMode};
use lumos_gnn::Backbone;
use lumos_sim::{AggregationPolicy, FaultSpec, RecoveryPolicy, Scenario};
use lumos_topo::TopologyConfig;

/// Learning task (§VIII-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Node classification with local labels (cross-entropy).
    Supervised,
    /// Link prediction with negative sampling (Eq. 33).
    Unsupervised,
}

impl TaskKind {
    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Supervised => "supervised",
            TaskKind::Unsupervised => "unsupervised",
        }
    }

    /// Name of the metric this task reports.
    pub fn metric_name(self) -> &'static str {
        match self {
            TaskKind::Supervised => "accuracy",
            TaskKind::Unsupervised => "roc-auc",
        }
    }
}

/// Full configuration of a Lumos run. Defaults follow §VIII-B.
#[derive(Debug, Clone)]
pub struct LumosConfig {
    /// GNN backbone.
    pub backbone: Backbone,
    /// Learning task.
    pub task: TaskKind,
    /// Privacy budget ε for the feature encoder (2 in the paper).
    pub epsilon: f64,
    /// Training epochs (300 in the paper; scaled presets use fewer).
    pub epochs: usize,
    /// Adam learning rate (0.01 in the paper).
    pub lr: f32,
    /// MCMC iterations for the tree constructor (1,000 Facebook / 300
    /// LastFM in the paper).
    pub mcmc_iterations: usize,
    /// Whether to run the real simulated crypto or its exact cost model.
    pub security: SecurityMode,
    /// Which secure-comparison engine backs the tree constructor's
    /// oracles. The default `Scalar` evaluates one circuit per comparison
    /// and preserves the seed → bit-identical report/meter contract;
    /// `Bitsliced` packs 64 independent comparisons per circuit (identical
    /// outcomes, ~64× fewer OT messages on batched sweeps).
    pub compare_backend: CompareBackend,
    /// Run seed (weights, LDP noise, MCMC, splits).
    pub seed: u64,
    /// Ablation: include virtual nodes (false = "Lumos w.o. VN").
    pub virtual_nodes: bool,
    /// Ablation: trim trees (false = "Lumos w.o. TT").
    pub tree_trimming: bool,
    /// Negative samples per positive edge in the unsupervised loss.
    pub negatives_per_positive: usize,
    /// Evaluate on the validation split every this many epochs (and
    /// always at the final epoch); 0 evaluates at the final epoch only.
    pub eval_every: usize,
    /// Optional heterogeneous-device scenario: when set, every epoch is
    /// additionally priced per-device by the `lumos-sim` discrete-event
    /// simulator and the report carries a [`crate::report::SimSummary`].
    /// For churn-free scenarios this is a pure timing overlay — the
    /// training math is unchanged. Scenarios with churn make absent
    /// devices actually absent: they send no protocol messages and their
    /// embeddings leave the POOL for the rounds they sit out.
    pub scenario: Option<Scenario>,
    /// What the tree constructor balances: the paper's tree-node count, or
    /// capability-weighted virtual seconds. `VirtualSecs` needs a
    /// `scenario` (the fleet profiles are where the per-node µs prices come
    /// from) and falls back to `TreeNodes` without one.
    pub balance_objective: BalanceObjective,
    /// How each round's updates are aggregated. The default `FullSync` is
    /// the paper's synchronous barrier and keeps churn-free scenarios pure
    /// timing overlays; `Deadline { factor }` drops updates landing after
    /// `factor ×` the round's median delivery time from the pooled update,
    /// the message accounting, and the barrier — deliberately changing the
    /// training math. `Buffered { factor, decay }` keeps the same barrier
    /// cut but blends each late update into the round where it actually
    /// arrives with weight `decay^staleness`, accounts its messages there,
    /// and live-migrates tree nodes off devices whose price stays above
    /// twice the fleet mean. `Async { min_updates }` abolishes the barrier
    /// entirely: the round closes the moment `min_updates` updates have
    /// landed, the overflow is carried into the next round at full weight,
    /// and nothing is ever dropped (`min_updates ≥ n_devices` resolves to
    /// `FullSync`). Every non-default policy needs a `scenario` (the
    /// timing signal comes from the fleet profiles) and is inert without
    /// one.
    pub aggregation_policy: AggregationPolicy,
    /// How device updates reach the server. The default `Flat` is the
    /// paper's star (every device uploads straight to the server, bit-
    /// identical to the seed path); `Hierarchical { aggregators }` routes
    /// uploads through K edge aggregators — the balance problem runs per
    /// shard, aggregators apply the aggregation policy against their own
    /// local deadline, the ledger switches to the compact O(devices + K)
    /// sharded mode, and per-round server traffic drops from O(devices)
    /// to O(K). A single-aggregator tree resolves to `Flat`
    /// (`TopologyConfig::effective`).
    pub topology: TopologyConfig,
    /// Live re-balance trigger: a device priced above
    /// `rebalance_threshold ×` the fleet-mean per-node cost for
    /// `rebalance_patience` consecutive rounds has its tree nodes
    /// migrated to cheaper endpoints (buffered policy only). Defaults
    /// (2.0, 2) match the constants PR 6 shipped with.
    pub rebalance_threshold: f64,
    /// Consecutive overpriced rounds required before migrating.
    pub rebalance_patience: u32,
    /// Seeded fault injection: the default `FaultSpec::None` injects
    /// nothing and leaves every code path bit-identical to the seed.
    /// `FaultSpec::Faults { .. }` compiles a deterministic per-round
    /// [`lumos_sim::FaultPlan`] (mid-round crashes, message loss/
    /// duplication, aggregator outage windows) from its own RNG stream.
    /// Needs a `scenario` — the fault plan rides on the fleet profiles —
    /// and is inert without one.
    pub faults: FaultSpec,
    /// How lost sends recover: per-send timeout, exponential backoff with
    /// seeded jitter, and a retry budget. Sends that exhaust the budget
    /// degrade into the buffered-staleness path instead of vanishing.
    /// Only consulted when `faults` is set.
    pub recovery: RecoveryPolicy,
}

impl LumosConfig {
    /// Paper-default configuration for a backbone and task.
    ///
    /// The paper trains everything at `lr = 0.01`; on this substrate the
    /// unsupervised dot-product decoder occasionally collapses to the
    /// trivial solution at that rate (dead ReLUs pin the loss at ln 2), so
    /// link-prediction runs default to `lr = 0.003` — applied uniformly to
    /// Lumos and every baseline (see EXPERIMENTS.md).
    pub fn new(backbone: Backbone, task: TaskKind) -> Self {
        Self {
            backbone,
            task,
            epsilon: 2.0,
            epochs: 80,
            lr: match task {
                TaskKind::Supervised => 0.01,
                TaskKind::Unsupervised => 0.003,
            },
            mcmc_iterations: 300,
            security: SecurityMode::CostModel,
            compare_backend: CompareBackend::Scalar,
            seed: 0x10_0A05,
            virtual_nodes: true,
            tree_trimming: true,
            negatives_per_positive: 1,
            eval_every: 10,
            scenario: None,
            balance_objective: BalanceObjective::TreeNodes,
            aggregation_policy: AggregationPolicy::FullSync,
            topology: TopologyConfig::Flat,
            rebalance_threshold: 2.0,
            rebalance_patience: 2,
            faults: FaultSpec::None,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Builder-style: set ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Builder-style: set epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder-style: set seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: disable virtual nodes (ablation "w.o. VN").
    pub fn without_virtual_nodes(mut self) -> Self {
        self.virtual_nodes = false;
        self
    }

    /// Builder-style: disable tree trimming (ablation "w.o. TT").
    pub fn without_tree_trimming(mut self) -> Self {
        self.tree_trimming = false;
        self
    }

    /// Builder-style: set MCMC iterations.
    pub fn with_mcmc_iterations(mut self, iters: usize) -> Self {
        self.mcmc_iterations = iters;
        self
    }

    /// Builder-style: choose the secure-comparison engine.
    pub fn with_compare_backend(mut self, backend: CompareBackend) -> Self {
        self.compare_backend = backend;
        self
    }

    /// Builder-style: enable a heterogeneous-device scenario.
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Builder-style: choose what the tree constructor balances.
    pub fn with_balance_objective(mut self, objective: BalanceObjective) -> Self {
        self.balance_objective = objective;
        self
    }

    /// Builder-style: choose how each round's updates are aggregated.
    ///
    /// # Panics
    /// Panics on an invalid policy (deadline factor not finite or below 1,
    /// buffered decay outside `[0, 1]`) — here, at configuration time,
    /// rather than mid-training.
    pub fn with_aggregation_policy(mut self, policy: AggregationPolicy) -> Self {
        policy.validate();
        self.aggregation_policy = policy;
        self
    }

    /// Builder-style: choose the aggregation topology.
    ///
    /// # Panics
    /// Panics on an invalid topology (zero aggregators) at configuration
    /// time rather than mid-training.
    pub fn with_topology(mut self, topology: TopologyConfig) -> Self {
        topology.validate();
        self.topology = topology;
        self
    }

    /// Builder-style: set the live re-balance trigger — migrate a
    /// device's tree nodes after it stays priced above `threshold ×` the
    /// fleet mean for `patience` consecutive rounds. The defaults
    /// (2.0, 2) reproduce the previously hardcoded behaviour bit for bit.
    ///
    /// # Panics
    /// Panics if `threshold` is not finite and positive, or `patience`
    /// is zero — both would make the trigger fire never or always.
    pub fn with_rebalance_trigger(mut self, threshold: f64, patience: u32) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "rebalance threshold must be finite and positive, got {threshold}"
        );
        assert!(patience >= 1, "rebalance patience must be at least 1 round");
        self.rebalance_threshold = threshold;
        self.rebalance_patience = patience;
        self
    }

    /// Builder-style: enable seeded fault injection. `FaultSpec::None`
    /// (the default) is bit-identical to the seed path; anything else
    /// needs a `scenario` to ride on.
    ///
    /// # Panics
    /// Panics on an invalid spec (a rate outside `[0, 1]`, an empty
    /// outage window) at configuration time rather than mid-training.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        faults.validate();
        self.faults = faults;
        self
    }

    /// Builder-style: set the retry/backoff recovery policy applied to
    /// injected message loss.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let c = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised);
        assert_eq!(c.epsilon, 2.0);
        assert_eq!(c.lr, 0.01);
        assert!(c.virtual_nodes && c.tree_trimming);
        assert_eq!(c.compare_backend, CompareBackend::Scalar);
        assert_eq!(c.balance_objective, BalanceObjective::TreeNodes);
        assert_eq!(c.aggregation_policy, AggregationPolicy::FullSync);
        assert_eq!(c.topology, TopologyConfig::Flat);
        assert_eq!(c.rebalance_threshold, 2.0);
        assert_eq!(c.rebalance_patience, 2);
        assert!(c.faults.is_none(), "faults are strictly opt-in");
        assert_eq!(c.recovery, RecoveryPolicy::default());
        assert_eq!(TaskKind::Supervised.metric_name(), "accuracy");
        assert_eq!(TaskKind::Unsupervised.metric_name(), "roc-auc");
    }

    #[test]
    fn builders_apply() {
        let c = LumosConfig::new(Backbone::Gat, TaskKind::Unsupervised)
            .with_epsilon(0.5)
            .with_epochs(10)
            .with_seed(9)
            .with_mcmc_iterations(50)
            .with_compare_backend(CompareBackend::Bitsliced)
            .with_scenario(Scenario::StragglerTail)
            .with_balance_objective(BalanceObjective::VirtualSecs)
            .with_aggregation_policy(AggregationPolicy::Deadline { factor: 2.0 })
            .without_virtual_nodes()
            .without_tree_trimming();
        assert_eq!(c.epsilon, 0.5);
        assert_eq!(c.epochs, 10);
        assert_eq!(c.seed, 9);
        assert_eq!(c.mcmc_iterations, 50);
        assert_eq!(c.compare_backend, CompareBackend::Bitsliced);
        assert_eq!(c.scenario, Some(Scenario::StragglerTail));
        assert_eq!(c.balance_objective, BalanceObjective::VirtualSecs);
        assert_eq!(
            c.aggregation_policy,
            AggregationPolicy::Deadline { factor: 2.0 }
        );
        assert!(!c.virtual_nodes && !c.tree_trimming);
    }

    #[test]
    #[should_panic(expected = "deadline factor")]
    fn invalid_deadline_factor_fails_at_configuration_time() {
        // Regression: a sub-unit factor used to slip through the builder
        // and only panic at the first epoch's probe (or never, without a
        // scenario).
        LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
            .with_aggregation_policy(AggregationPolicy::Deadline { factor: 0.5 });
    }

    #[test]
    #[should_panic(expected = "buffered decay")]
    fn invalid_buffered_decay_fails_at_configuration_time() {
        LumosConfig::new(Backbone::Gcn, TaskKind::Supervised).with_aggregation_policy(
            AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 1.5,
            },
        );
    }

    #[test]
    fn scenario_defaults_to_off() {
        let c = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised);
        assert_eq!(c.scenario, None);
    }

    #[test]
    fn topology_and_rebalance_builders_apply() {
        let c = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
            .with_topology(TopologyConfig::Hierarchical { aggregators: 4 })
            .with_rebalance_trigger(3.0, 5);
        assert_eq!(c.topology, TopologyConfig::Hierarchical { aggregators: 4 });
        assert_eq!(c.rebalance_threshold, 3.0);
        assert_eq!(c.rebalance_patience, 5);
    }

    #[test]
    fn fault_builders_apply() {
        let c = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
            .with_faults(FaultSpec::message_loss(0.1))
            .with_recovery(RecoveryPolicy {
                retry_budget: 7,
                ..RecoveryPolicy::default()
            });
        assert!(!c.faults.is_none());
        assert_eq!(c.recovery.retry_budget, 7);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_loss_rate_fails_at_configuration_time() {
        LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
            .with_faults(FaultSpec::message_loss(1.5));
    }

    #[test]
    #[should_panic(expected = "async quorum")]
    fn zero_quorum_fails_at_configuration_time() {
        LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
            .with_aggregation_policy(AggregationPolicy::Async { min_updates: 0 });
    }

    #[test]
    #[should_panic(expected = "at least one aggregator")]
    fn zero_aggregator_topology_fails_at_configuration_time() {
        LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
            .with_topology(TopologyConfig::Hierarchical { aggregators: 0 });
    }

    #[test]
    #[should_panic(expected = "rebalance threshold")]
    fn non_positive_rebalance_threshold_fails_at_configuration_time() {
        LumosConfig::new(Backbone::Gcn, TaskKind::Supervised).with_rebalance_trigger(0.0, 2);
    }

    #[test]
    #[should_panic(expected = "rebalance patience")]
    fn zero_rebalance_patience_fails_at_configuration_time() {
        LumosConfig::new(Backbone::Gcn, TaskKind::Supervised).with_rebalance_trigger(2.0, 0);
    }
}
