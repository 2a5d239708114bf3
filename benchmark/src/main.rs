//! The Lumos benchmark: end-to-end and per-layer figures on three
//! workloads, each built from generated inputs and a seed.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fleet-unsup --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it states the
//! provenance: the host's core count, the commit (read from the
//! checkout's `.git`; the source fingerprint stands in for it outside a
//! git checkout), the tracing overhead, and every metric's unit,
//! direction and sample count. Progress goes to
//! standard error. Each measured operation runs in a child process of its
//! own (`--child`), and every figure is a median over them (save one,
//! below).
//!
//! # Workloads, and why each exists
//!
//! * `paper-sup` — the paper's plain path with the secure constructor
//!   really evaluated: Facebook-like (1,200 devices), GCN, supervised,
//!   ε = 2, 40 epochs, simulated secure comparisons on the bit-sliced
//!   engine with 1,000 MCMC iterations, flat topology, full sync, on a
//!   uniform fleet (a pure timing overlay). Both the constructor
//!   (`setup_s`) and the training step (`run_s`) carry real weight; the
//!   simulator does almost none. Not listed in `BENCHMARK.json`: its wall
//!   times follow the host's speed more than the others (the engine
//!   spawns two threads per comparison batch, and set-up is half kernel
//!   time), and on a shared 2-core host its `run_s` spread over ten seeds
//!   exceeded the 0.24 bound in three proofs of four. It stays runnable
//!   for claims about the constructor and for the bit-identical replay
//!   check below.
//! * `fleet-unsup` — the same tensor layer under a different op mix plus
//!   every trainer-side opt-in path: LastFM-like (1,000 devices), link
//!   prediction, 100 epochs, churn, an async quorum of 700, four
//!   aggregators, and the fault stream (5% crashes, 10% loss, aggregator
//!   1 dark in rounds 1–2), with the cost-model constructor so crypto
//!   does not bury training.
//! * `fleet-100k` — the simulator at scale with no GNN: 100,000 churning
//!   devices under ⌈√n⌉ = 317 seeded aggregators, the same fault stream
//!   and a 70% async quorum, driven through the per-round call sequence
//!   `run_lumos` makes. The only workload where `sim`/`fed`/`topo` carry
//!   most of the time.
//!
//! The seed drives the run seed (split, LDP noise, weights, MCMC chain),
//! the fleet and the fault stream; the trainer workloads keep their
//! preset graph (see [`trainer::Trainer::dataset`] for why).
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! `setup_s` (median of set-ups repeated in-process until a second is
//! spent — on the trainer workloads in set-up children spread over the
//! window until [`SETUP_BUDGET_SECS`] is spent, at least one for each of
//! the seed and two seed-derived siblings; after each run on
//! `fleet-100k`), `run_s` (median wall time of one `run_lumos` call, or
//! set-up plus all rounds on `fleet-100k`), `peak_rss_mb` (median over
//! runs), `test_metric` (accuracy / ROC-AUC; on `fleet-100k` the share of
//! live devices' updates that reach their own round's aggregate),
//! `msgs_per_device_round`, `max_tree_nodes` (busiest device's tree, mean
//! over the three chains; busiest aggregator's tree nodes on
//! `fleet-100k`), `virtual_makespan_s` and `server_bytes_per_round`. The
//! last five are deterministic per seed. On the trainer workloads
//! `server_bytes_per_round` is the benchmark's own reconstruction of one
//! protocol round (`run_lumos` does not report its server bytes), so it
//! does not follow changes to the trainer's traffic; on `fleet-100k` it
//! is the program's ledger.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The traced run replays the workload's rounds through each layer's
//! public functions and reports every layer's per-round median (`.p50`)
//! and p90 (`.p90`); [`LAYERS`] records which end-to-end metric, on which
//! workload, each one should move, and the provenance line repeats it.
//! Set-up layers have one sample per set-up. `core.unattributed_s` is the
//! untraced `run_s` minus the layers' summed self time (trainer glue with
//! no public entry lands there); `core.trace_overhead` is traced over
//! untraced `run_s`, minus one.
//!
//! # Failure accounting
//!
//! Every child operation is one operation attempted. A run fails if its
//! loss is non-finite, its `test_metric` falls under the workload's
//! floor, its deterministic outputs differ from the invocation's first
//! same-seed run, or — on `fleet-unsup` and `fleet-100k` — an update is
//! discarded or the outage window performs no failover; on `fleet-100k`
//! also if an update neither reaches the aggregate nor enters the
//! carry-over ledger. The set-up under
//! the run's own seed fails unless it reproduces the run's
//! `ConstructorReport` (`comparisons`, `secure_comm.messages`,
//! `max_workload`); on `paper-sup` the traced replay's epoch-0 loss must
//! also equal the run's bit for bit.
//!
//! Held-out seed for checking later claims: [`HELD_OUT_SEED`].

#![forbid(unsafe_code)]

mod fleet;
mod round;
mod trace;
mod trainer;

use std::collections::BTreeMap;
use std::process::ExitCode;

use lumos_common::timer::{time_it, Stopwatch};
use lumos_core::{run_lumos, RunReport};

use trace::{median, quantile, Tracer};
use trainer::Trainer;

/// A seed no tuning run used; later performance claims are re-checked on it.
const HELD_OUT_SEED: u64 = 104_729;

/// MCMC chains (the seed and its siblings) the trainer set-ups cycle
/// through; the deterministic set-up figures come from one child each.
const TRAINER_SETUPS: usize = 3;
/// A child repeats its set-up until this many seconds are spent and
/// reports the median: a 30 ms set-up timed once is mostly noise.
const SETUP_MIN_SECS: f64 = 1.0;
/// Trainer set-up children keep coming until they have taken this many
/// wall seconds, so a sub-second set-up is sampled across the window
/// rather than in three slices of it.
const SETUP_BUDGET_SECS: f64 = 6.0;
/// Most set-up children one invocation may start.
const MAX_SETUPS: usize = 32;
/// Fewest measured runs per invocation: determinism is always checked, and
/// a median of three shrugs off one run caught in a host slowdown.
const MIN_RUNS: usize = 3;

/// One per-layer metric: unit, direction, and what it should move.
struct Layer {
    /// Metric name (reported with `.p50` and `.p90` suffixes).
    name: &'static str,
    /// Unit of the per-round value.
    unit: &'static str,
    /// `"lower"` or `"higher"`.
    better: &'static str,
    /// End-to-end metric(s) and workload(s) it should move.
    moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const SETUP_MOVES: &str =
    "setup_s and run_s on paper-sup; barely on fleet-unsup; absent on fleet-100k";
const TRAIN_MOVES: &str = "run_s on paper-sup and fleet-unsup; never on fleet-100k";
const FLEET_UNSUP_MOVES: &str = "run_s on fleet-unsup only";
const FED_MOVES: &str =
    "run_s on fleet-100k; at most 2% of run_s on fleet-unsup; nothing on paper-sup";

/// Every per-layer metric, grouped set-up → training → federation.
const LAYERS: &[Layer] = &[
    layer("balance.construct_s", "s", "lower", SETUP_MOVES),
    layer("balance.comparisons", "count", "lower", SETUP_MOVES),
    layer(
        "balance.mcmc_improving_ratio",
        "ratio",
        "higher",
        SETUP_MOVES,
    ),
    layer("crypto.ot_messages", "count", "lower", SETUP_MOVES),
    layer("crypto.ot_bytes", "B", "lower", SETUP_MOVES),
    layer("core.tree_build_s", "s", "lower", SETUP_MOVES),
    layer("ldp.exchange_s", "s", "lower", SETUP_MOVES),
    layer("ldp.messages", "count", "lower", SETUP_MOVES),
    layer("core.batch_s", "s", "lower", SETUP_MOVES),
    layer("core.tree_nodes", "count", "lower", SETUP_MOVES),
    layer("gnn.forward_s", "s", "lower", TRAIN_MOVES),
    layer("gnn.loss_s", "s", "lower", TRAIN_MOVES),
    layer("gnn.eval_s", "s", "lower", TRAIN_MOVES),
    layer("tensor.tape_ops", "count", "lower", TRAIN_MOVES),
    layer("tensor.backward_s", "s", "lower", TRAIN_MOVES),
    layer("tensor.grad_accum_s", "s", "lower", TRAIN_MOVES),
    layer("tensor.adam_s", "s", "lower", TRAIN_MOVES),
    layer("core.pool_s", "s", "lower", TRAIN_MOVES),
    layer("balance.rebalance_s", "s", "lower", FLEET_UNSUP_MOVES),
    layer("balance.migrations", "count", "lower", FLEET_UNSUP_MOVES),
    layer("ldp.topup_s", "s", "lower", FLEET_UNSUP_MOVES),
    layer("fed.sends_s", "s", "lower", FED_MOVES),
    layer("fed.messages_per_round", "count", "lower", FED_MOVES),
    layer(
        "fed.ledger_entries",
        "count",
        "lower",
        "run_s and peak_rss_mb on fleet-100k",
    ),
    layer("fed.close_s", "s", "lower", FED_MOVES),
    layer("sim.fault_compile_s", "s", "lower", FED_MOVES),
    layer("sim.schedule_s", "s", "lower", FED_MOVES),
    layer("sim.dispatch_s", "s", "lower", FED_MOVES),
    layer("sim.events_per_round", "count", "lower", FED_MOVES),
    layer(
        "sim.update_yield",
        "ratio",
        "higher",
        "correct on fleet-unsup and fleet-100k: under 1 an update went missing",
    ),
    layer("sim.retries", "count", "lower", FED_MOVES),
    layer("sim.crashed_devices", "count", "lower", FED_MOVES),
    layer("topo.tier_s", "s", "lower", FED_MOVES),
    layer("topo.failovers", "count", "lower", FED_MOVES),
];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Trainer(Trainer),
    Fleet100k,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "paper-sup" => Some(Workload::Trainer(Trainer::PaperSup)),
            "fleet-unsup" => Some(Workload::Trainer(Trainer::FleetUnsup)),
            "fleet-100k" => Some(Workload::Fleet100k),
            _ => None,
        }
    }

    /// Lowest acceptable `test_metric`, set below every value seen on the
    /// seed commit. On `paper-sup` a rare seed is still converging after 40
    /// epochs (0.507 seen, against ≥ 0.667 for the rest and 0.25 for
    /// chance over four balanced classes), so the floor catches a collapse,
    /// not a slow seed.
    fn floor(self) -> f64 {
        match self {
            Workload::Trainer(Trainer::PaperSup) => 0.45,
            Workload::Trainer(Trainer::FleetUnsup) => 0.45,
            Workload::Fleet100k => 0.8,
        }
    }

    /// Whether the workload runs the fault stream (no-discard and
    /// failover checks apply).
    fn faulted(self) -> bool {
        self != Workload::Trainer(Trainer::PaperSup)
    }
}

/// One reported figure.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    better: &'static str,
    samples: usize,
}

fn metric(
    name: &str,
    value: f64,
    unit: &'static str,
    better: &'static str,
    samples: usize,
) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        better,
        samples,
    }
}

/// Operation accounting and the failure reasons seen.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Records one operation; `problems` lists why it failed (if it did).
    fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("FAILED {what}: {p}");
            }
        }
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One operation's outputs, passed from a child process to its parent as
/// `key value` lines on standard output.
#[derive(Debug, Default)]
struct Record(BTreeMap<String, String>);

impl Record {
    fn set(&mut self, key: &str, value: impl ToString) {
        self.0.insert(key.to_string(), value.to_string());
    }

    /// A numeric field (NaN when missing or malformed).
    fn num(&self, key: &str) -> f64 {
        self.0
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    }

    fn text(&self, key: &str) -> &str {
        self.0.get(key).map_or("", String::as_str)
    }

    /// The failure reasons the child found in its own outputs.
    fn problems(&self) -> Vec<String> {
        let p = self.text("problems");
        p.split(" | ")
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect()
    }

    fn set_problems(&mut self, problems: &[String]) {
        self.set("problems", problems.join(" | "));
    }

    fn print(&self) {
        for (k, v) in &self.0 {
            println!("{k} {v}");
        }
    }

    fn parse(text: &str) -> Self {
        let pairs = text.lines().filter_map(|l| l.split_once(' '));
        Record(pairs.map(|(k, v)| (k.to_string(), v.to_string())).collect())
    }
}

/// Runs one operation in a fresh child process (`--child <op>`), so each
/// measurement gets its own address space and allocator state: a run's
/// speed varies more between processes than within one, and the median
/// over several processes averages that out.
fn spawn(op: &str, w: &str, seed: u64, index: usize) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--child", op, "--workload", w, "--seed", &seed.to_string()])
        .args(["--index", &index.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child `{op}` exited with {}", out.status));
    }
    Ok(Record::parse(&String::from_utf8_lossy(&out.stdout)))
}

/// Checks common to every trainer run (determinism is checked by the
/// parent, across runs).
fn check_report(w: Workload, r: &RunReport) -> Vec<String> {
    let mut problems = Vec::new();
    if r.history.iter().any(|m| !m.loss.is_finite()) {
        problems.push("non-finite loss".into());
    }
    // NaN fails the floor too.
    let above_floor = r.test_metric >= w.floor();
    if !above_floor {
        problems.push(format!(
            "test_metric {} under floor {}",
            r.test_metric,
            w.floor()
        ));
    }
    if w.faulted() {
        let sim = r.sim.as_ref();
        if sim.is_none_or(|s| s.wasted_updates != 0) {
            problems.push("an update was discarded".into());
        }
        if sim.is_none_or(|s| s.failovers == 0) {
            problems.push("the outage window performed no failover".into());
        }
    }
    problems
}

/// The constructor fields a set-up replay must reproduce.
fn constructor_key(c: &lumos_core::ConstructorReport) -> String {
    format!(
        "{},{},{}",
        c.comparisons, c.secure_comm.messages, c.max_workload
    )
}

/// The `i`-th run seed of a workload seed: the seed itself first, then
/// seed-derived siblings.
fn sub_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Child: timed set-up replays under the run seed of chain
/// `index % TRAINER_SETUPS`; only a chain's first child reports the
/// deterministic figures, so every chain weighs the same in them.
fn child_setup(t: Trainer, seed: u64, index: usize) -> Record {
    let seed = sub_seed(seed, index % TRAINER_SETUPS);
    let ds = t.dataset();
    let cfg = t.config(seed);
    let mut secs = Vec::new();
    let s = loop {
        let (s, t) = time_it(|| trainer::setup(&ds, &cfg, &mut Tracer::new(false)));
        secs.push(t);
        if secs.iter().sum::<f64>() >= SETUP_MIN_SECS {
            break s;
        }
    };
    eprintln!("set-up {index}: {:.3} s x{}", median(&secs), secs.len());
    let mut rec = Record::default();
    rec.set("index", index);
    rec.set("setup_s", median(&secs));
    rec.set("constructor", constructor_key(&s.constructor));
    if index < TRAINER_SETUPS {
        rec.set("max_tree_nodes", s.constructor.max_workload);
        rec.set(
            "server_bytes_per_round",
            trainer::server_bytes_per_round(&s, &cfg),
        );
    }
    rec
}

/// Child: one timed `run_lumos` call.
fn child_trainer_run(w: Workload, t: Trainer, seed: u64) -> Record {
    let ds = t.dataset();
    let cfg = t.config(seed);
    let (r, secs) = time_it(|| run_lumos(&ds, &cfg));
    eprintln!(
        "run: {secs:.3} s, test_metric {:.4}, loss {:.4} -> {:.4}",
        r.test_metric,
        r.history.first().map_or(f64::NAN, |m| m.loss),
        r.final_loss()
    );
    let mut rec = Record::default();
    rec.set("run_s", secs);
    rec.set("test_metric", r.test_metric);
    rec.set("msgs_per_device_round", r.avg_messages_per_device_per_epoch);
    let makespan = r
        .sim
        .as_ref()
        .map_or(f64::NAN, |s| s.avg_epoch_virtual_secs);
    rec.set("virtual_makespan_s", makespan);
    rec.set("constructor", constructor_key(&r.constructor));
    rec.set("fingerprint", hex(&trainer::fingerprint(&r)));
    rec.set_problems(&check_report(w, &r));
    rec.set("peak_rss_mb", peak_rss_mb());
    rec
}

/// Checks on one `fleet-100k` run.
fn check_fleet(w: Workload, r: &fleet::FleetRun) -> Vec<String> {
    let mut problems = Vec::new();
    let above_floor = r.in_round_share >= w.floor();
    if !above_floor {
        problems.push(format!(
            "in-round update share {} under floor {}",
            r.in_round_share,
            w.floor()
        ));
    }
    // NaN fails too.
    let conserved = r.update_yield >= 1.0;
    if !conserved {
        problems.push(format!(
            "updates went missing: yield {} under 1",
            r.update_yield
        ));
    }
    if r.wasted_updates != 0 {
        problems.push("an update was discarded".into());
    }
    if r.failovers == 0 {
        problems.push("the outage window performed no failover".into());
    }
    problems
}

/// Child: one whole `fleet-100k` run, then extra set-ups until
/// [`SETUP_MIN_SECS`] of set-up time is measured.
fn child_fleet_run(w: Workload, seed: u64) -> Record {
    let r = fleet::run(fleet::DEVICES, fleet::ROUNDS, seed, &mut Tracer::new(false));
    eprintln!("run: {:.3} s (set-up {:.3} s)", r.run_s, r.setup_s);
    let mut rec = Record::default();
    rec.set("peak_rss_mb", peak_rss_mb());
    let mut setups = vec![r.setup_s];
    while setups.iter().sum::<f64>() < SETUP_MIN_SECS {
        setups.push(fleet::setup_secs(fleet::DEVICES, seed));
    }
    rec.set("setup_s", median(&setups));
    rec.set("run_s", r.run_s);
    rec.set("test_metric", r.in_round_share);
    rec.set("msgs_per_device_round", r.msgs_per_device_round);
    rec.set("max_tree_nodes", r.busiest_aggregator_nodes);
    rec.set("virtual_makespan_s", r.virtual_makespan_s);
    rec.set("server_bytes_per_round", r.server_bytes_per_round);
    rec.set("fingerprint", hex(&r.fingerprint));
    rec.set_problems(&check_fleet(w, &r));
    rec
}

fn hex(words: &[u64]) -> String {
    words
        .iter()
        .map(|w| format!("{w:x}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Runs one measured operation in a child; checks its own problems and
/// its determinism against the first run. False when the child crashed
/// (it would crash again, so the caller stops spending budget).
fn run_once(w: &str, seed: u64, runs: &mut Vec<Record>, ops: &mut Ops) -> bool {
    match spawn("run", w, seed, 0) {
        Ok(rec) => {
            let mut problems = rec.problems();
            if runs
                .first()
                .is_some_and(|f| f.text("fingerprint") != rec.text("fingerprint"))
            {
                problems.push("deterministic outputs differ from the first same-seed run".into());
            }
            ops.record("run", problems);
            runs.push(rec);
            true
        }
        Err(e) => {
            ops.record("run", vec![e]);
            false
        }
    }
}

/// The end-to-end metrics: name, unit, direction.
const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("test_metric", "score", "higher"),
    ("msgs_per_device_round", "count", "lower"),
    ("max_tree_nodes", "count", "lower"),
    ("virtual_makespan_s", "s", "lower"),
    ("server_bytes_per_round", "B", "lower"),
];

/// Each end-to-end metric as the median over the operations that report
/// it (deterministic ones agree across runs, or the runs failed), except
/// `max_tree_nodes`: the trainer set-ups' MCMC chains end on neighbouring
/// integers, and their mean moves less between seeds than their median.
fn end_to_end<'a>(records: impl Iterator<Item = &'a Record> + Clone) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|&(name, unit, better)| {
            let v: Vec<f64> = records
                .clone()
                .filter(|r| r.0.contains_key(name))
                .map(|r| r.num(name))
                .collect();
            let value = if name == "max_tree_nodes" {
                v.iter().sum::<f64>() / v.len() as f64
            } else {
                median(&v)
            };
            metric(name, value, unit, better, v.len())
        })
        .collect()
}

/// Untraced trainer run: set-ups (cycling through the run's seed and two
/// seed-derived siblings, so `setup_s` and `max_tree_nodes` cover several
/// MCMC chains rather than one chain's luck) until [`SETUP_BUDGET_SECS`]
/// is spent, and `run_lumos` calls until the time budget is spent, each
/// in its own process. The set-ups are spread between the first runs so
/// both sample the window: host speed drifts over seconds.
fn trainer_e2e(name: &str, seed: u64, seconds: f64, ops: &mut Ops) -> Vec<Metric> {
    let budget = Stopwatch::started();
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    let mut next_setup = 0;
    let mut setup_wall = 0.0;
    for pass in 1.. {
        // Pace the set-ups over the first MIN_RUNS runs: before each run,
        // catch up to that share of the chains and of the set-up budget.
        let done = pass.min(MIN_RUNS);
        let chains = TRAINER_SETUPS * done / MIN_RUNS;
        let secs = SETUP_BUDGET_SECS * done as f64 / MIN_RUNS as f64;
        while next_setup < MAX_SETUPS && (next_setup < chains || setup_wall < secs) {
            let (rec, secs) = time_it(|| spawn("setup", name, seed, next_setup));
            setup_wall += secs;
            match rec {
                Ok(rec) => setups.push(rec),
                Err(e) => ops.record("set-up", vec![e]),
            }
            next_setup += 1;
        }
        let more_runs = runs.len() < MIN_RUNS || budget.secs() < seconds;
        if !more_runs || !run_once(name, seed, &mut runs, ops) {
            break;
        }
    }
    // The set-up under the run's own seed must reproduce the run's
    // constructor report.
    let run_constructor = runs.first().map(|r| r.text("constructor"));
    for rec in &setups {
        let mut problems = Vec::new();
        let replayed = rec.text("constructor");
        let own_chain = (rec.num("index") as usize).is_multiple_of(TRAINER_SETUPS);
        if own_chain && run_constructor.is_some_and(|c| c != replayed) {
            let run = run_constructor.unwrap_or_default();
            problems.push(format!("replayed constructor ({replayed}) != run ({run})"));
        }
        ops.record("set-up", problems);
    }
    end_to_end(setups.iter().chain(&runs))
}

/// Untraced `fleet-100k`: whole runs, each in its own process, until the
/// time budget is spent.
fn fleet_e2e(name: &str, seed: u64, seconds: f64, ops: &mut Ops) -> Vec<Metric> {
    let budget = Stopwatch::started();
    let mut runs = Vec::new();
    while (runs.len() < MIN_RUNS || budget.secs() < seconds) && run_once(name, seed, &mut runs, ops)
    {
    }
    end_to_end(runs.iter())
}

/// Folds a tracer's samples into the per-layer metrics, plus the
/// remainder and the tracing overhead.
fn layer_metrics(tr: &Tracer, untraced_s: f64, traced_s: f64) -> Vec<Metric> {
    let samples = tr.samples();
    let mut out = Vec::new();
    for l in LAYERS {
        let v = samples.get(l.name).map_or(&[][..], Vec::as_slice);
        let (p50, p90) = if v.is_empty() {
            (0.0, 0.0)
        } else {
            (median(v), quantile(v, 0.9))
        };
        out.push(metric(
            &format!("{}.p50", l.name),
            p50,
            l.unit,
            l.better,
            v.len(),
        ));
        out.push(metric(
            &format!("{}.p90", l.name),
            p90,
            l.unit,
            l.better,
            v.len(),
        ));
    }
    out.push(metric(
        "core.unattributed_s",
        untraced_s - tr.total_self_secs(),
        "s",
        "lower",
        1,
    ));
    out.push(metric(
        "core.trace_overhead",
        traced_s / untraced_s - 1.0,
        "ratio",
        "lower",
        1,
    ));
    out
}

/// Traced trainer run: one untraced `run_lumos`, then the traced replay,
/// whose set-up and epoch-0 loss must match it.
fn trainer_traced(w: Workload, t: Trainer, seed: u64, ops: &mut Ops) -> Vec<Metric> {
    let ds = t.dataset();
    let cfg = t.config(seed);
    let (r, untraced_s) = time_it(|| run_lumos(&ds, &cfg));
    ops.record("run", check_report(w, &r));
    let mut tr = Tracer::new(true);
    let ((constructor, replay), traced_s) = time_it(|| {
        let s = trainer::setup(&ds, &cfg, &mut tr);
        let constructor = s.constructor.clone();
        (constructor, trainer::replay_rounds(&ds, &cfg, s, &mut tr))
    });
    let mut problems = Vec::new();
    if constructor_key(&constructor) != constructor_key(&r.constructor) {
        problems.push(format!(
            "replayed constructor ({}) != run ({})",
            constructor_key(&constructor),
            constructor_key(&r.constructor)
        ));
    }
    if replay.losses.iter().any(|l| !l.is_finite()) {
        problems.push("non-finite replayed loss".into());
    }
    if t == Trainer::PaperSup {
        let real = r.history.first().map(|m| m.loss.to_bits());
        let replayed = replay.losses.first().map(|l| l.to_bits());
        if real != replayed {
            problems.push(format!(
                "replayed epoch-0 loss {replayed:?} != run {real:?}"
            ));
        }
    }
    eprintln!(
        "untraced {untraced_s:.3} s, traced replay {traced_s:.3} s, replay test_metric {:.4}",
        replay.test_metric
    );
    ops.record("traced replay", problems);
    layer_metrics(&tr, untraced_s, traced_s)
}

/// Traced `fleet-100k`: one untraced run, then the same run traced.
fn fleet_traced(w: Workload, seed: u64, ops: &mut Ops) -> Vec<Metric> {
    let r = fleet::run(fleet::DEVICES, fleet::ROUNDS, seed, &mut Tracer::new(false));
    ops.record("run", check_fleet(w, &r));
    let mut tr = Tracer::new(true);
    let t = fleet::run(fleet::DEVICES, fleet::ROUNDS, seed, &mut tr);
    let mut problems = check_fleet(w, &t);
    if t.fingerprint != r.fingerprint {
        problems.push("traced run's deterministic outputs differ from the untraced run".into());
    }
    ops.record("traced run", problems);
    eprintln!("untraced {:.3} s, traced {:.3} s", r.run_s, t.run_s);
    layer_metrics(&tr, r.run_s, t.run_s)
}

/// A JSON number (`null` for NaN/∞, which JSON lacks).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// The repository root: the benchmark package's parent directory.
fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The commit checked out at the repository root, read from `.git/HEAD`
/// and the loose or packed ref it names; `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => match std::fs::read_to_string(git.join(name)) {
            Ok(id) => id.trim().to_string(),
            Err(_) => {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed.lines().find_map(|l| {
                    let (id, r) = l.split_once(' ')?;
                    (r == name).then(|| id.to_string())
                })?
            }
        },
    };
    let hex = !id.is_empty() && id.bytes().all(|b| b.is_ascii_hexdigit());
    hex.then_some(id)
}

/// Hash of every source file the program is built from, so results can be
/// matched to code even outside a git checkout.
fn source_fingerprint() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    for sub in ["crates", "benchmark/src"] {
        walk(&root.join(sub), &mut files);
    }
    files.sort();
    // FNV-1a over (path, contents) pairs in sorted order.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(f).unwrap_or_default();
        for b in rel.as_bytes().iter().chain(&body) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv1a:{h:016x}")
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: lumos-benchmark --workload paper-sup|fleet-unsup|fleet-100k \
         --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut name = String::new();
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut child = None;
    let mut index = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => name = value,
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            // Internal: one operation in a child process (see `spawn`).
            "--child" => child = Some(value),
            "--index" => match value.parse::<usize>() {
                Ok(i) if i < MAX_SETUPS => index = i,
                _ => return usage("--index out of range"),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(w), Some(seed)) = (Workload::parse(&name), seed) else {
        return usage("--workload and --seed are required and must be valid");
    };
    if let Some(op) = child {
        let rec = match (op.as_str(), w) {
            ("setup", Workload::Trainer(t)) => child_setup(t, seed, index),
            ("run", Workload::Trainer(t)) => child_trainer_run(w, t, seed),
            ("run", Workload::Fleet100k) => child_fleet_run(w, seed),
            _ => return usage(&format!("unknown child operation {op}")),
        };
        rec.print();
        return ExitCode::SUCCESS;
    }
    let (Some(seconds), Some(traced)) = (seconds, traced) else {
        return usage("--seconds and --trace are required and must be valid");
    };

    let mut ops = Ops::default();
    let metrics = match (w, traced) {
        (Workload::Trainer(_), false) => trainer_e2e(&name, seed, seconds, &mut ops),
        (Workload::Fleet100k, false) => fleet_e2e(&name, seed, seconds, &mut ops),
        (Workload::Trainer(t), true) => trainer_traced(w, t, seed, &mut ops),
        (Workload::Fleet100k, true) => fleet_traced(w, seed, &mut ops),
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let source = source_fingerprint();
    let commit = git_commit().unwrap_or_else(|| source.clone());
    let described: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"samples\": {}}}",
                m.name, m.unit, m.better, m.samples
            )
        })
        .collect();
    let overhead = metrics
        .iter()
        .find(|m| m.name == "core.trace_overhead")
        .map_or("null".into(), |m| num(m.value));
    let layers: Vec<String> = if traced {
        LAYERS
            .iter()
            .map(|l| format!("\"{}\": \"{}\"", l.name, l.moves))
            .collect()
    } else {
        Vec::new()
    };
    println!(
        "{{\"provenance\": {{\"workload_seed\": {seed}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"nproc\": {nproc}, \"commit\": \"{commit}\", \"source\": \"{}\", \
         \"trace_overhead\": {overhead}, \"metrics\": {{{}}}, \"layer_moves\": {{{}}}}}}}",
        source,
        described.join(", "),
        layers.join(", ")
    );
    let values: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    let correct = ops.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        values.join(", ")
    );
    ExitCode::SUCCESS
}
