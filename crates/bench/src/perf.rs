//! Perf trajectory: scalar vs bit-sliced secure-comparison throughput.
//!
//! Two wall-clock measurements, both under the *real* simulated OT
//! circuits (`SecurityMode::Simulated` — the cost-model oracles are nearly
//! free and would measure nothing):
//!
//! 1. **Batched comparison throughput** on the 48-bit weighted-workload
//!    lane ([`lumos_balance::WEIGHTED_WORKLOAD_BITS`]): ns per comparison
//!    for a large independent sweep, per backend. After a warm-up the two
//!    backends' sweeps are interleaved pair by pair, so a noisy-neighbor
//!    burst lands on both sides of one pair's ratio instead of on one
//!    whole backend; the speedup is the median of the per-pair ratios.
//! 2. **MCMC iteration rate**: full Algorithm-2 iterations per second on a
//!    cost-weighted graph (so every comparison rides the 48-bit lane), per
//!    backend.
//!
//! [`to_json`] renders the machine-readable `BENCH_perf.json` record that
//! CI smoke-parses to assert the bit-sliced win holds (≥10× median on the
//! batched sweep, with the min and max pair ratios recorded alongside);
//! keeping it in a dated artifact is what finally gives the repo a
//! recorded perf trajectory instead of anecdotes.

use std::time::Instant;

use lumos_balance::{
    greedy_init_weighted, make_oracle_backend, mcmc_balance, CompareBackend, CompareOracle,
    McmcConfig, SecurityMode, WEIGHTED_WORKLOAD_BITS,
};
use lumos_common::rng::Xoshiro256pp;
use lumos_common::stats::Ecdf;
use lumos_common::table::{fmt2, Table};
use lumos_graph::generate::erdos_renyi;

use crate::args::HarnessArgs;

/// Results of one scalar-vs-bitsliced measurement pass.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Comparison bit width (the 48-bit weighted-workload lane).
    pub bits: u32,
    /// Independent pairs per batched sweep.
    pub batch_lanes: usize,
    /// Median ns per comparison over the timed sweeps, scalar backend.
    pub scalar_ns_per_cmp: f64,
    /// Median ns per comparison over the timed sweeps, bit-sliced backend.
    pub bitsliced_ns_per_cmp: f64,
    /// Per-pair speedups (scalar / bit-sliced ns of one interleaved pair of
    /// sweeps), ascending.
    pub compare_ratios: Vec<f64>,
    /// OT-traffic messages per sweep, scalar backend.
    pub scalar_messages: u64,
    /// OT-traffic messages per sweep, bit-sliced backend.
    pub bitsliced_messages: u64,
    /// MCMC iterations per second, scalar backend.
    pub mcmc_scalar_iters_per_sec: f64,
    /// MCMC iterations per second, bit-sliced backend.
    pub mcmc_bitsliced_iters_per_sec: f64,
    /// MCMC iterations measured per backend.
    pub mcmc_iterations: usize,
}

impl PerfReport {
    /// Wall-clock speedup of the batched sweep: the median per-pair ratio.
    pub fn compare_speedup(&self) -> f64 {
        Ecdf::new(self.compare_ratios.clone()).quantile(0.5)
    }

    /// Wire-message ratio of the batched sweep (scalar / bitsliced).
    pub fn message_ratio(&self) -> f64 {
        self.scalar_messages as f64 / self.bitsliced_messages as f64
    }

    /// Wall-clock speedup of MCMC iterations (bitsliced / scalar rate).
    pub fn mcmc_speedup(&self) -> f64 {
        self.mcmc_bitsliced_iters_per_sec / self.mcmc_scalar_iters_per_sec
    }
}

/// Times one batched 48-bit sweep per backend and one secure MCMC run per
/// backend, and checks on the way that the two backends agree bit for bit
/// on every outcome (panicking loudly otherwise — a perf record measured
/// on divergent engines would be meaningless).
pub fn run(args: &HarnessArgs) -> PerfReport {
    let bits = WEIGHTED_WORKLOAD_BITS;
    let lanes = if args.quick { 1024 } else { 4096 };
    let timed_pairs = if args.quick { 15 } else { 31 };
    // One bit-sliced sample repeats its sweep so both sides of a pair time
    // windows of similar length: a scheduler hiccup then shifts a ratio by
    // a bounded fraction instead of swamping a sub-millisecond sweep.
    let sliced_reps = 16;
    let mut rng = Xoshiro256pp::seed_from_u64(args.seed);
    let pairs: Vec<(u64, u64)> = (0..lanes)
        .map(|_| (rng.next_below(1 << bits), rng.next_below(1 << bits)))
        .collect();

    let mut scalar =
        make_oracle_backend(SecurityMode::Simulated, CompareBackend::Scalar, args.seed);
    let mut sliced = make_oracle_backend(
        SecurityMode::Simulated,
        CompareBackend::Bitsliced,
        args.seed,
    );
    // Warm-up pass (page-in, dealer state) before the timed pairs.
    assert_eq!(
        scalar.compare_batch(&pairs, bits),
        sliced.compare_batch(&pairs, bits),
        "backends must agree lane for lane"
    );
    let (scalar_base, sliced_base) = (scalar.meter(), sliced.meter());
    let sweeps: Vec<(f64, f64)> = (0..timed_pairs)
        .map(|_| {
            let s = time_sweeps(scalar.as_mut(), &pairs, bits, 1);
            (s, time_sweeps(sliced.as_mut(), &pairs, bits, sliced_reps))
        })
        .collect();
    let per_sweep = |oracle: &dyn CompareOracle, base, reps: usize| {
        oracle.meter().since(&base).messages / (timed_pairs * reps) as u64
    };
    let median_ns = |pick: fn(&(f64, f64)) -> f64| {
        Ecdf::new(sweeps.iter().map(pick).collect()).quantile(0.5) / lanes as f64
    };
    let mut compare_ratios: Vec<f64> = sweeps.iter().map(|&(s, b)| s / b).collect();
    compare_ratios.sort_by(f64::total_cmp);

    // MCMC iteration rate under the real circuits, cost-weighted so every
    // comparison runs on the wide lane.
    let mcmc_iters = if args.quick { 8 } else { 20 };
    let mut grng = Xoshiro256pp::seed_from_u64(args.seed ^ 0xD1CE);
    let g = erdos_renyi(48, 0.12, &mut grng);
    let costs: Vec<u64> = (0..g.num_nodes())
        .map(|_| grng.range_u64(1, 1000))
        .collect();
    // Best-of-N passes per backend: a single wall-clock sample on a shared
    // CI runner is one noisy-neighbor spike away from a spurious failure;
    // the fastest pass is the least-perturbed estimate of each engine.
    let mcmc_passes = if args.quick { 2 } else { 3 };
    let mcmc_rate = |backend: CompareBackend| {
        let mut best_rate = 0.0f64;
        let mut last = None;
        for _ in 0..mcmc_passes {
            let mut oracle = make_oracle_backend(SecurityMode::Simulated, backend, args.seed);
            let init = greedy_init_weighted(&g, Some(&costs), oracle.as_mut());
            let cfg = McmcConfig {
                iterations: mcmc_iters,
                seed: args.seed ^ 0x5EED,
            };
            #[allow(clippy::disallowed_methods)] // mirrored lumos-lint waiver
            let start = Instant::now(); // lumos-lint: allow(wallclock-time) — benchmark iteration-rate meter, output only
            let out = mcmc_balance(&g, init, &cfg, oracle.as_mut());
            best_rate = best_rate.max(mcmc_iters as f64 / start.elapsed().as_secs_f64());
            last = Some(out);
        }
        (best_rate, last.expect("at least one pass"))
    };
    let (scalar_rate, scalar_chain) = mcmc_rate(CompareBackend::Scalar);
    let (sliced_rate, sliced_chain) = mcmc_rate(CompareBackend::Bitsliced);
    assert_eq!(
        scalar_chain.assignment, sliced_chain.assignment,
        "backends must drive the chain to the same state"
    );

    PerfReport {
        bits,
        batch_lanes: lanes,
        scalar_ns_per_cmp: median_ns(|p| p.0),
        bitsliced_ns_per_cmp: median_ns(|p| p.1),
        scalar_messages: per_sweep(scalar.as_ref(), scalar_base, 1),
        bitsliced_messages: per_sweep(sliced.as_ref(), sliced_base, sliced_reps),
        compare_ratios,
        mcmc_scalar_iters_per_sec: scalar_rate,
        mcmc_bitsliced_iters_per_sec: sliced_rate,
        mcmc_iterations: mcmc_iters,
    }
}

/// Mean wall-clock ns of one batched sweep over `reps` back-to-back sweeps.
fn time_sweeps(
    oracle: &mut dyn CompareOracle,
    pairs: &[(u64, u64)],
    bits: u32,
    reps: usize,
) -> f64 {
    #[allow(clippy::disallowed_methods)] // mirrored lumos-lint waiver
    let start = Instant::now(); // lumos-lint: allow(wallclock-time) — benchmark throughput meter; timings go to BENCH_perf.json, not into any report the determinism tests pin
    for _ in 0..reps {
        std::hint::black_box(oracle.compare_batch(pairs, bits));
    }
    start.elapsed().as_secs_f64() * 1e9 / reps as f64
}

/// Renders the report as a human-readable markdown table.
pub fn table(r: &PerfReport) -> Table {
    let mut t = Table::new(
        "Secure-comparison backends: scalar vs bit-sliced (real OT circuits)",
        &["metric", "scalar", "bitsliced", "ratio"],
    );
    t.row(&[
        format!(
            "ns / {}-bit comparison (batch {}, median of {} pairs)",
            r.bits,
            r.batch_lanes,
            r.compare_ratios.len()
        ),
        fmt2(r.scalar_ns_per_cmp),
        fmt2(r.bitsliced_ns_per_cmp),
        format!("{}x", fmt2(r.compare_speedup())),
    ]);
    t.row(&[
        "OT messages / sweep".into(),
        r.scalar_messages.to_string(),
        r.bitsliced_messages.to_string(),
        format!("{}x", fmt2(r.message_ratio())),
    ]);
    t.row(&[
        format!("MCMC iters / s ({} iters)", r.mcmc_iterations),
        fmt2(r.mcmc_scalar_iters_per_sec),
        fmt2(r.mcmc_bitsliced_iters_per_sec),
        format!("{}x", fmt2(r.mcmc_speedup())),
    ]);
    t
}

/// The machine-readable `BENCH_perf.json` record CI smoke-parses.
pub fn to_json(r: &PerfReport, args: &HarnessArgs) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"perf_compare\",\n",
            "  \"seed\": {seed},\n",
            "  \"quick\": {quick},\n",
            "  \"bits\": {bits},\n",
            "  \"batch_lanes\": {lanes},\n",
            "  \"compare\": {{\n",
            "    \"scalar_ns\": {sns},\n",
            "    \"bitsliced_ns\": {bns},\n",
            "    \"pairs\": {pairs},\n",
            "    \"speedup\": {spd},\n",
            "    \"speedup_min\": {smin},\n",
            "    \"speedup_max\": {smax},\n",
            "    \"scalar_messages\": {sm},\n",
            "    \"bitsliced_messages\": {bm},\n",
            "    \"message_ratio\": {mr}\n",
            "  }},\n",
            "  \"mcmc\": {{\n",
            "    \"iterations\": {mi},\n",
            "    \"scalar_iters_per_sec\": {sr},\n",
            "    \"bitsliced_iters_per_sec\": {br},\n",
            "    \"speedup\": {ms}\n",
            "  }}\n",
            "}}\n",
        ),
        seed = args.seed,
        quick = args.quick,
        bits = r.bits,
        lanes = r.batch_lanes,
        sns = r.scalar_ns_per_cmp,
        bns = r.bitsliced_ns_per_cmp,
        pairs = r.compare_ratios.len(),
        spd = r.compare_speedup(),
        smin = r.compare_ratios[0],
        smax = r.compare_ratios[r.compare_ratios.len() - 1],
        sm = r.scalar_messages,
        bm = r.bitsliced_messages,
        mr = r.message_ratio(),
        mi = r.mcmc_iterations,
        sr = r.mcmc_scalar_iters_per_sec,
        br = r.mcmc_bitsliced_iters_per_sec,
        ms = r.mcmc_speedup(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_data::Scale;

    #[test]
    fn quick_run_reports_deterministic_facts_and_renders() {
        // Only deterministic properties are asserted here: wall-clock
        // thresholds in a debug-mode unit test sharing the host with the
        // rest of the suite would be a flake factory. The hard ≥10×/≥1.5×
        // wall-clock gates live in CI's release-mode perf_compare step.
        let args = HarnessArgs {
            scale: Scale::Smoke,
            seed: 7,
            quick: true,
            json: None,
            sensitivity: false,
        };
        let r = run(&args);
        assert!(r.scalar_ns_per_cmp > 0.0 && r.bitsliced_ns_per_cmp > 0.0);
        assert!(r.mcmc_scalar_iters_per_sec > 0.0 && r.mcmc_bitsliced_iters_per_sec > 0.0);
        assert!(
            r.message_ratio() > 40.0,
            "message ratio {:.1} must approach the 64-lane packing",
            r.message_ratio()
        );
        let json = to_json(&r, &args);
        assert!(json.contains("\"bench\": \"perf_compare\""));
        assert!(json.contains("\"speedup\""));
        // Table renders without panicking.
        let _ = table(&r);
    }
}
