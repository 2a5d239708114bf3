//! Collapse contracts of the event-driven runtime at the `run_lumos` level.
//!
//! Every round's timing and every aggregation decision flows through
//! `lumos_sim::EventDrivenRuntime`. An `Async` quorum of the whole fleet
//! *is* the synchronous barrier (`AggregationPolicy::resolve` collapses it
//! up front), so the two runs must agree bit for bit. The live handlers'
//! verdicts are checked against the post-hoc reference oracles one layer
//! down (`crates/sim/tests/sim_properties.rs`,
//! `crates/topo/tests/topo_properties.rs`), and `tests/golden_reports.rs`
//! pins every policy's full report.

mod common;

use common::assert_reports_identical;
use lumos::core::{run_lumos, LumosConfig, TaskKind};
use lumos::data::{Dataset, Scale};
use lumos::gnn::Backbone;
use lumos::sim::{AggregationPolicy, Scenario};
use proptest::prelude::*;

fn base_config(seed: u64) -> LumosConfig {
    LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(4)
        .with_mcmc_iterations(10)
        .with_seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// An async quorum of the entire fleet collapses to `FullSync` bit for
    /// bit: waiting for everyone's update *is* the synchronous barrier.
    #[test]
    fn full_fleet_async_quorum_collapses_to_full_sync(seed in any::<u64>()) {
        let ds = Dataset::facebook_like(Scale::Smoke);
        let cfg = base_config(seed).with_scenario(Scenario::StragglerTail);
        let barrier = run_lumos(&ds, &cfg);
        let collapsed = run_lumos(
            &ds,
            &cfg.clone().with_aggregation_policy(AggregationPolicy::Async {
                min_updates: ds.num_nodes(),
            }),
        );
        assert_reports_identical(&barrier, &collapsed);
    }
}
