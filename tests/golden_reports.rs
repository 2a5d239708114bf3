//! Golden report digests across the configuration cross-product.
//!
//! Each configuration's `RunReport` folds into one `u64` over the exact
//! bits of every deterministic field (`common::report_fields`: history,
//! constructor statistics and the whole `SimSummary` included, wall-clock
//! fields excluded). The table pins those digests, so any change to the
//! training math, the message accounting, the simulated timing or the
//! recovery counters, on any path, fails here and names the
//! configuration.
//!
//! The matrix is task × {no scenario, every preset} × every aggregation
//! policy × {Flat, Hierarchical 4} × {no faults, crash + loss + outage},
//! at Smoke scale and 4 epochs. Without a scenario the policies and the
//! fault spec are inert (no profiles to time or fault against), so those
//! rows share one digest per topology;
//! `policies_and_faults_are_inert_without_a_scenario` checks that collapse
//! field by field.
//!
//! A deliberate change to the report bits regenerates the table: the
//! failing assertion prints every configuration's new digest line.

mod common;

use common::{assert_reports_identical, report_fields, str_bits};
use lumos::core::{run_lumos, LumosConfig, RunReport, TaskKind};
use lumos::data::{Dataset, Scale};
use lumos::gnn::Backbone;
use lumos::sim::{AggregationPolicy, FaultSpec, OutageWindow, Scenario};
use lumos::topo::TopologyConfig;

/// One `u64` over every `(name, bits)` entry of the report's field list.
fn report_digest(r: &RunReport) -> u64 {
    report_fields(r).iter().fold(0, |h, (name, bits)| {
        let h = (h ^ str_bits(name)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h ^ bits)
            .rotate_left(29)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
    })
}

fn dataset(task: TaskKind) -> Dataset {
    match task {
        TaskKind::Supervised => Dataset::facebook_like(Scale::Smoke),
        TaskKind::Unsupervised => Dataset::lastfm_like(Scale::Smoke),
    }
}

fn base_config(task: TaskKind) -> LumosConfig {
    LumosConfig::new(Backbone::Gcn, task)
        .with_epochs(4)
        .with_mcmc_iterations(10)
        .with_seed(0x601D)
}

fn chaos() -> FaultSpec {
    FaultSpec::Faults {
        crash_rate: 0.05,
        loss_rate: 0.15,
        duplicate_rate: 0.0,
        outages: vec![OutageWindow {
            aggregator: 1,
            from_round: 1,
            until_round: 3,
        }],
    }
}

/// Every `(name, config)` pair of the matrix for one task.
fn matrix(task: TaskKind, n: usize) -> Vec<(String, LumosConfig)> {
    let policies = [
        AggregationPolicy::FullSync,
        AggregationPolicy::Deadline { factor: 2.0 },
        AggregationPolicy::Buffered {
            factor: 2.0,
            decay: 0.5,
        },
        AggregationPolicy::Async {
            min_updates: n * 4 / 5,
        },
    ];
    let topologies = [
        ("flat", TopologyConfig::Flat),
        ("hier4", TopologyConfig::Hierarchical { aggregators: 4 }),
    ];
    let mut out = Vec::new();
    for scenario in std::iter::once(None).chain(Scenario::ALL.map(Some)) {
        for policy in policies {
            for (topo_name, topo) in topologies {
                for faulted in [false, true] {
                    let mut cfg = base_config(task)
                        .with_aggregation_policy(policy)
                        .with_topology(topo);
                    if let Some(s) = scenario {
                        cfg = cfg.with_scenario(s);
                    }
                    if faulted {
                        cfg = cfg.with_faults(chaos());
                    }
                    let name = format!(
                        "{}/{}/{}/{}/{}",
                        task.name(),
                        scenario.map_or("none", |s| s.name()),
                        policy.name(),
                        topo_name,
                        if faulted { "faults" } else { "calm" }
                    );
                    out.push((name, cfg));
                }
            }
        }
    }
    out
}

/// Runs one task's matrix and compares every digest against [`GOLDEN`].
fn check_task(task: TaskKind) {
    let ds = dataset(task);
    let actual: Vec<(String, u64)> = matrix(task, ds.num_nodes())
        .into_iter()
        .map(|(name, cfg)| {
            let digest = report_digest(&run_lumos(&ds, &cfg));
            (name, digest)
        })
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN
        .iter()
        .filter(|(name, _)| name.starts_with(task.name()))
        .map(|&(name, digest)| (name.to_string(), digest))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    assert!(
        actual == expected,
        "golden digests diverged for {}; current table:\n{table}",
        task.name()
    );
}

#[test]
fn supervised_reports_match_the_golden_digests() {
    check_task(TaskKind::Supervised);
}

#[test]
fn unsupervised_reports_match_the_golden_digests() {
    check_task(TaskKind::Unsupervised);
}

#[test]
fn policies_and_faults_are_inert_without_a_scenario() {
    let ds = dataset(TaskKind::Supervised);
    let plain = run_lumos(&ds, &base_config(TaskKind::Supervised));
    let inert = run_lumos(
        &ds,
        &base_config(TaskKind::Supervised)
            .with_aggregation_policy(AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 0.5,
            })
            .with_faults(chaos()),
    );
    assert_reports_identical(&plain, &inert);
}

const GOLDEN: &[(&str, u64)] = &[
    ("supervised/none/full-sync/flat/calm", 0x6c9a1d3aa73fc144),
    ("supervised/none/full-sync/flat/faults", 0x6c9a1d3aa73fc144),
    ("supervised/none/full-sync/hier4/calm", 0xe414f53964f9d8bf),
    ("supervised/none/full-sync/hier4/faults", 0xe414f53964f9d8bf),
    ("supervised/none/deadline/flat/calm", 0x6c9a1d3aa73fc144),
    ("supervised/none/deadline/flat/faults", 0x6c9a1d3aa73fc144),
    ("supervised/none/deadline/hier4/calm", 0xe414f53964f9d8bf),
    ("supervised/none/deadline/hier4/faults", 0xe414f53964f9d8bf),
    ("supervised/none/buffered/flat/calm", 0x6c9a1d3aa73fc144),
    ("supervised/none/buffered/flat/faults", 0x6c9a1d3aa73fc144),
    ("supervised/none/buffered/hier4/calm", 0xe414f53964f9d8bf),
    ("supervised/none/buffered/hier4/faults", 0xe414f53964f9d8bf),
    ("supervised/none/async/flat/calm", 0x6c9a1d3aa73fc144),
    ("supervised/none/async/flat/faults", 0x6c9a1d3aa73fc144),
    ("supervised/none/async/hier4/calm", 0xe414f53964f9d8bf),
    ("supervised/none/async/hier4/faults", 0xe414f53964f9d8bf),
    ("supervised/uniform/full-sync/flat/calm", 0xce0372aa16bb2da3),
    (
        "supervised/uniform/full-sync/flat/faults",
        0x62cd772fafe885a1,
    ),
    (
        "supervised/uniform/full-sync/hier4/calm",
        0x363494cfb95a7092,
    ),
    (
        "supervised/uniform/full-sync/hier4/faults",
        0xd865a2fb7cb3fbd7,
    ),
    ("supervised/uniform/deadline/flat/calm", 0x76b9e0d32a111b9d),
    (
        "supervised/uniform/deadline/flat/faults",
        0x9342f383c5609491,
    ),
    ("supervised/uniform/deadline/hier4/calm", 0x363494cfb95a7092),
    (
        "supervised/uniform/deadline/hier4/faults",
        0xfb4f98e6a4877b53,
    ),
    ("supervised/uniform/buffered/flat/calm", 0xd6378fd0933d98a9),
    (
        "supervised/uniform/buffered/flat/faults",
        0xe4d2e28abe10fecc,
    ),
    ("supervised/uniform/buffered/hier4/calm", 0x363494cfb95a7092),
    (
        "supervised/uniform/buffered/hier4/faults",
        0xf03ad4d0cc24a28f,
    ),
    ("supervised/uniform/async/flat/calm", 0x05f0e030b1b7e1bd),
    ("supervised/uniform/async/flat/faults", 0xf6c9316c2f9c48c9),
    ("supervised/uniform/async/hier4/calm", 0xb84848421bf04691),
    ("supervised/uniform/async/hier4/faults", 0xc0536126e834b640),
    (
        "supervised/mobile-fleet/full-sync/flat/calm",
        0x733030a6c3e9603a,
    ),
    (
        "supervised/mobile-fleet/full-sync/flat/faults",
        0xcd01a1f7b02261de,
    ),
    (
        "supervised/mobile-fleet/full-sync/hier4/calm",
        0x02ee4b7dd118291e,
    ),
    (
        "supervised/mobile-fleet/full-sync/hier4/faults",
        0x0446536f9746a5df,
    ),
    (
        "supervised/mobile-fleet/deadline/flat/calm",
        0x842b7361376cf8ff,
    ),
    (
        "supervised/mobile-fleet/deadline/flat/faults",
        0xb57938acf98f7704,
    ),
    (
        "supervised/mobile-fleet/deadline/hier4/calm",
        0xc980f34e19d478b7,
    ),
    (
        "supervised/mobile-fleet/deadline/hier4/faults",
        0xaadf651951c495c2,
    ),
    (
        "supervised/mobile-fleet/buffered/flat/calm",
        0x171e410b4811e80f,
    ),
    (
        "supervised/mobile-fleet/buffered/flat/faults",
        0xa3a9144d2de8d01a,
    ),
    (
        "supervised/mobile-fleet/buffered/hier4/calm",
        0x5ce3947324e701e5,
    ),
    (
        "supervised/mobile-fleet/buffered/hier4/faults",
        0xa8fbdc24c522a298,
    ),
    (
        "supervised/mobile-fleet/async/flat/calm",
        0x944ff4ea05bf94f3,
    ),
    (
        "supervised/mobile-fleet/async/flat/faults",
        0x90036b65c9d43976,
    ),
    (
        "supervised/mobile-fleet/async/hier4/calm",
        0x5847ce171ab40331,
    ),
    (
        "supervised/mobile-fleet/async/hier4/faults",
        0xa22a905762ed8c39,
    ),
    (
        "supervised/straggler-tail/full-sync/flat/calm",
        0x8685fce97cc8a1c0,
    ),
    (
        "supervised/straggler-tail/full-sync/flat/faults",
        0xa770f53118897c16,
    ),
    (
        "supervised/straggler-tail/full-sync/hier4/calm",
        0xb737fb0700bd58d6,
    ),
    (
        "supervised/straggler-tail/full-sync/hier4/faults",
        0x9b525be8f7f14157,
    ),
    (
        "supervised/straggler-tail/deadline/flat/calm",
        0xd827480408e3eec3,
    ),
    (
        "supervised/straggler-tail/deadline/flat/faults",
        0x34fed1c9bc908e15,
    ),
    (
        "supervised/straggler-tail/deadline/hier4/calm",
        0x132f9e9348693764,
    ),
    (
        "supervised/straggler-tail/deadline/hier4/faults",
        0xb3018c736299c472,
    ),
    (
        "supervised/straggler-tail/buffered/flat/calm",
        0x14225238e331cbfd,
    ),
    (
        "supervised/straggler-tail/buffered/flat/faults",
        0xcb9b981966e7bd2f,
    ),
    (
        "supervised/straggler-tail/buffered/hier4/calm",
        0xb0ba7835255b533f,
    ),
    (
        "supervised/straggler-tail/buffered/hier4/faults",
        0x75870cf0f696336f,
    ),
    (
        "supervised/straggler-tail/async/flat/calm",
        0xe46bf2021cafde42,
    ),
    (
        "supervised/straggler-tail/async/flat/faults",
        0xee59fc536d46f7b1,
    ),
    (
        "supervised/straggler-tail/async/hier4/calm",
        0xc333c358c99cc19a,
    ),
    (
        "supervised/straggler-tail/async/hier4/faults",
        0x14266dce1a490e7a,
    ),
    ("supervised/churn/full-sync/flat/calm", 0xb3f712a207ca41fb),
    ("supervised/churn/full-sync/flat/faults", 0x3d3b09eb66da2cca),
    ("supervised/churn/full-sync/hier4/calm", 0xd981460a5f97fc6a),
    (
        "supervised/churn/full-sync/hier4/faults",
        0xcb322b0a0b1416e7,
    ),
    ("supervised/churn/deadline/flat/calm", 0x3ab867b6598eff79),
    ("supervised/churn/deadline/flat/faults", 0xcffbf7b6fef588db),
    ("supervised/churn/deadline/hier4/calm", 0x82f3768849112aa6),
    ("supervised/churn/deadline/hier4/faults", 0x2226cc6dfd7e2696),
    ("supervised/churn/buffered/flat/calm", 0x67ad8bc7ed84ee87),
    ("supervised/churn/buffered/flat/faults", 0x95092a9ab0880ba8),
    ("supervised/churn/buffered/hier4/calm", 0xd47f038ac71b4c35),
    ("supervised/churn/buffered/hier4/faults", 0x7408c76041b7481f),
    ("supervised/churn/async/flat/calm", 0x3bf0fc63e7962136),
    ("supervised/churn/async/flat/faults", 0x924c780ee9fee39b),
    ("supervised/churn/async/hier4/calm", 0x93039557e723f416),
    ("supervised/churn/async/hier4/faults", 0x30c23fd5b3658504),
    ("unsupervised/none/full-sync/flat/calm", 0x8a7dd21ea717e1ff),
    (
        "unsupervised/none/full-sync/flat/faults",
        0x8a7dd21ea717e1ff,
    ),
    ("unsupervised/none/full-sync/hier4/calm", 0x70daa1106c7b2a21),
    (
        "unsupervised/none/full-sync/hier4/faults",
        0x70daa1106c7b2a21,
    ),
    ("unsupervised/none/deadline/flat/calm", 0x8a7dd21ea717e1ff),
    ("unsupervised/none/deadline/flat/faults", 0x8a7dd21ea717e1ff),
    ("unsupervised/none/deadline/hier4/calm", 0x70daa1106c7b2a21),
    (
        "unsupervised/none/deadline/hier4/faults",
        0x70daa1106c7b2a21,
    ),
    ("unsupervised/none/buffered/flat/calm", 0x8a7dd21ea717e1ff),
    ("unsupervised/none/buffered/flat/faults", 0x8a7dd21ea717e1ff),
    ("unsupervised/none/buffered/hier4/calm", 0x70daa1106c7b2a21),
    (
        "unsupervised/none/buffered/hier4/faults",
        0x70daa1106c7b2a21,
    ),
    ("unsupervised/none/async/flat/calm", 0x8a7dd21ea717e1ff),
    ("unsupervised/none/async/flat/faults", 0x8a7dd21ea717e1ff),
    ("unsupervised/none/async/hier4/calm", 0x70daa1106c7b2a21),
    ("unsupervised/none/async/hier4/faults", 0x70daa1106c7b2a21),
    (
        "unsupervised/uniform/full-sync/flat/calm",
        0x5ddbabc6b945c813,
    ),
    (
        "unsupervised/uniform/full-sync/flat/faults",
        0xed79ba0ef4947dee,
    ),
    (
        "unsupervised/uniform/full-sync/hier4/calm",
        0x24dc109f05787428,
    ),
    (
        "unsupervised/uniform/full-sync/hier4/faults",
        0x0835d9b0458e3f44,
    ),
    (
        "unsupervised/uniform/deadline/flat/calm",
        0x3e78b733e5805318,
    ),
    (
        "unsupervised/uniform/deadline/flat/faults",
        0x38af1317079a42a9,
    ),
    (
        "unsupervised/uniform/deadline/hier4/calm",
        0xae15b3a6fc0f9606,
    ),
    (
        "unsupervised/uniform/deadline/hier4/faults",
        0x6b489fa051ad015b,
    ),
    (
        "unsupervised/uniform/buffered/flat/calm",
        0x0bff53d77e598484,
    ),
    (
        "unsupervised/uniform/buffered/flat/faults",
        0x17f76c7a3fed78c7,
    ),
    (
        "unsupervised/uniform/buffered/hier4/calm",
        0x004834115e2b7378,
    ),
    (
        "unsupervised/uniform/buffered/hier4/faults",
        0x7bf8e670a17fdd07,
    ),
    ("unsupervised/uniform/async/flat/calm", 0x8702a74f8c1435c4),
    ("unsupervised/uniform/async/flat/faults", 0xbe24cd5bc277e01d),
    ("unsupervised/uniform/async/hier4/calm", 0x3e0190c7e4208f77),
    (
        "unsupervised/uniform/async/hier4/faults",
        0x79afc8577a00b64a,
    ),
    (
        "unsupervised/mobile-fleet/full-sync/flat/calm",
        0xcb4ec3781c9a1b60,
    ),
    (
        "unsupervised/mobile-fleet/full-sync/flat/faults",
        0xd1fd2beb5dea9839,
    ),
    (
        "unsupervised/mobile-fleet/full-sync/hier4/calm",
        0x44a9f8e57b6ed782,
    ),
    (
        "unsupervised/mobile-fleet/full-sync/hier4/faults",
        0xc6d1bd727c3ed0e3,
    ),
    (
        "unsupervised/mobile-fleet/deadline/flat/calm",
        0xcdfb48ee7491db88,
    ),
    (
        "unsupervised/mobile-fleet/deadline/flat/faults",
        0x52a0652cfda3cd12,
    ),
    (
        "unsupervised/mobile-fleet/deadline/hier4/calm",
        0x55ce7d4854d880cb,
    ),
    (
        "unsupervised/mobile-fleet/deadline/hier4/faults",
        0x386adeb71f2476c6,
    ),
    (
        "unsupervised/mobile-fleet/buffered/flat/calm",
        0xb1874d6c64ce728a,
    ),
    (
        "unsupervised/mobile-fleet/buffered/flat/faults",
        0x0da16631ad4cfea2,
    ),
    (
        "unsupervised/mobile-fleet/buffered/hier4/calm",
        0x962eaa175b835dd1,
    ),
    (
        "unsupervised/mobile-fleet/buffered/hier4/faults",
        0xea44718582a98f1a,
    ),
    (
        "unsupervised/mobile-fleet/async/flat/calm",
        0x6cb5e7ee35e1dc6d,
    ),
    (
        "unsupervised/mobile-fleet/async/flat/faults",
        0x65f0a4f0c229526e,
    ),
    (
        "unsupervised/mobile-fleet/async/hier4/calm",
        0xa967372b82689f24,
    ),
    (
        "unsupervised/mobile-fleet/async/hier4/faults",
        0xa83675191ad148c4,
    ),
    (
        "unsupervised/straggler-tail/full-sync/flat/calm",
        0x391a7fa8504c181a,
    ),
    (
        "unsupervised/straggler-tail/full-sync/flat/faults",
        0x7670120a76acd49b,
    ),
    (
        "unsupervised/straggler-tail/full-sync/hier4/calm",
        0x0838e5e547985f23,
    ),
    (
        "unsupervised/straggler-tail/full-sync/hier4/faults",
        0x1d2e0931159b6709,
    ),
    (
        "unsupervised/straggler-tail/deadline/flat/calm",
        0x330b5a69c698cf9c,
    ),
    (
        "unsupervised/straggler-tail/deadline/flat/faults",
        0x0014e3dfcc37a426,
    ),
    (
        "unsupervised/straggler-tail/deadline/hier4/calm",
        0xbe36f69cd41233f8,
    ),
    (
        "unsupervised/straggler-tail/deadline/hier4/faults",
        0x38b09a6695a46da3,
    ),
    (
        "unsupervised/straggler-tail/buffered/flat/calm",
        0x2fa5124b1940482d,
    ),
    (
        "unsupervised/straggler-tail/buffered/flat/faults",
        0x8df399cb861c567e,
    ),
    (
        "unsupervised/straggler-tail/buffered/hier4/calm",
        0x777a7d99304e7f09,
    ),
    (
        "unsupervised/straggler-tail/buffered/hier4/faults",
        0x30990d7334b21d39,
    ),
    (
        "unsupervised/straggler-tail/async/flat/calm",
        0x13cb7173048e3259,
    ),
    (
        "unsupervised/straggler-tail/async/flat/faults",
        0xb03d5a7d8fd0fe14,
    ),
    (
        "unsupervised/straggler-tail/async/hier4/calm",
        0xfc3219b26c868aff,
    ),
    (
        "unsupervised/straggler-tail/async/hier4/faults",
        0x9ab0c627c66f24ee,
    ),
    ("unsupervised/churn/full-sync/flat/calm", 0xdaa7f091db90c8e7),
    (
        "unsupervised/churn/full-sync/flat/faults",
        0x916d3bc604073b82,
    ),
    (
        "unsupervised/churn/full-sync/hier4/calm",
        0x61df1f076f522b8a,
    ),
    (
        "unsupervised/churn/full-sync/hier4/faults",
        0xb04929c135f6e034,
    ),
    ("unsupervised/churn/deadline/flat/calm", 0xfe2b23b4aa137355),
    (
        "unsupervised/churn/deadline/flat/faults",
        0x415a6d22222d8e21,
    ),
    ("unsupervised/churn/deadline/hier4/calm", 0x29cbf2be1b1e6cb1),
    (
        "unsupervised/churn/deadline/hier4/faults",
        0x54696b8efb574fab,
    ),
    ("unsupervised/churn/buffered/flat/calm", 0x5a7ff588e37ecd59),
    (
        "unsupervised/churn/buffered/flat/faults",
        0xf825912a77c3b47b,
    ),
    ("unsupervised/churn/buffered/hier4/calm", 0xab73145cd4aa37cf),
    (
        "unsupervised/churn/buffered/hier4/faults",
        0x4ab993fe23d5abcc,
    ),
    ("unsupervised/churn/async/flat/calm", 0x82ee62cde96eafa0),
    ("unsupervised/churn/async/flat/faults", 0xfb17c36bdbc6cebe),
    ("unsupervised/churn/async/hier4/calm", 0xa8acaa1cc08632d0),
    ("unsupervised/churn/async/hier4/faults", 0x04ee7d8b32baf22c),
];
