//! Report comparison shared by the root integration suites.
//!
//! [`report_fields`] is the one list of every deterministic `RunReport`
//! field (the `SimSummary` and the constructor statistics included), each
//! as exact bits. Wall-clock fields (`avg_epoch_secs`,
//! `constructor.wall_secs`) are the only ones left out. The golden digests
//! fold this list, and [`assert_reports_identical`] compares it entry by
//! entry, so "identical" means the same thing in every suite.

use lumos::core::RunReport;

/// FNV-1a over a byte string: how string fields enter the list.
pub fn str_bits(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every deterministic field of a report as `(name, bits)`, in a fixed
/// order. Vectors contribute their length, then one entry per element.
pub fn report_fields(r: &RunReport) -> Vec<(String, u64)> {
    let mut f: Vec<(String, u64)> = Vec::new();
    let mut put = |name: &str, bits: u64| f.push((name.to_string(), bits));
    put("system", str_bits(&r.system));
    put("dataset", str_bits(&r.dataset));
    put("backbone", str_bits(&r.backbone));
    put("task", str_bits(&r.task));
    put("test_metric", r.test_metric.to_bits());
    put("best_val_metric", r.best_val_metric.to_bits());
    put("history.len", r.history.len() as u64);
    for (i, h) in r.history.iter().enumerate() {
        put(&format!("history[{i}].epoch"), h.epoch as u64);
        put(&format!("history[{i}].loss"), h.loss.to_bits());
        put(&format!("history[{i}].val_metric"), h.val_metric.to_bits());
    }
    put(
        "avg_messages_per_device_per_epoch",
        r.avg_messages_per_device_per_epoch.to_bits(),
    );
    put("avg_epoch_makespan", r.avg_epoch_makespan.to_bits());
    put("init_messages", r.init_messages);
    let c = &r.constructor;
    put("constructor.trimmed", u64::from(c.trimmed));
    put("constructor.weighted", u64::from(c.weighted));
    put("constructor.workloads.len", c.workloads.len() as u64);
    for (i, &w) in c.workloads.iter().enumerate() {
        put(&format!("constructor.workloads[{i}]"), w as u64);
    }
    put("constructor.max_workload", c.max_workload as u64);
    put("constructor.max_weighted_workload", c.max_weighted_workload);
    put("constructor.untrimmed_max", c.untrimmed_max as u64);
    put("constructor.secure_comm.messages", c.secure_comm.messages);
    put("constructor.secure_comm.bytes", c.secure_comm.bytes);
    put("constructor.secure_comm.rounds", c.secure_comm.rounds);
    put("constructor.comparisons", c.comparisons);
    put("constructor.server_messages", c.server_messages);
    put("constructor.mcmc_trace.len", c.mcmc_trace.len() as u64);
    for (i, &m) in c.mcmc_trace.iter().enumerate() {
        put(&format!("constructor.mcmc_trace[{i}]"), m as u64);
    }
    put("sim.present", u64::from(r.sim.is_some()));
    if let Some(s) = &r.sim {
        put("sim.scenario", str_bits(&s.scenario));
        put("sim.total_virtual_secs", s.total_virtual_secs.to_bits());
        put(
            "sim.avg_epoch_virtual_secs",
            s.avg_epoch_virtual_secs.to_bits(),
        );
        put(
            "sim.straggler_sequence.len",
            s.straggler_sequence.len() as u64,
        );
        for (i, &d) in s.straggler_sequence.iter().enumerate() {
            put(&format!("sim.straggler_sequence[{i}]"), u64::from(d));
        }
        put("sim.mean_utilization", s.mean_utilization.to_bits());
        put("sim.dropped_device_rounds", s.dropped_device_rounds);
        put("sim.late_drops", s.late_drops);
        put("sim.buffered_updates", s.buffered_updates);
        put("sim.wasted_updates", s.wasted_updates);
        put("sim.migrations", s.migrations);
        put("sim.migrated_nodes", s.migrated_nodes);
        put("sim.lost_messages", s.lost_messages);
        put("sim.retries", s.retries);
        put("sim.retry_secs", s.retry_secs.to_bits());
        put("sim.crashed_devices", s.crashed_devices);
        put("sim.failovers", s.failovers);
    }
    f
}

/// Asserts every deterministic field of two reports is bit-identical,
/// naming the first field that differs.
pub fn assert_reports_identical(a: &RunReport, b: &RunReport) {
    let (fa, fb) = (report_fields(a), report_fields(b));
    for ((name_a, bits_a), (name_b, bits_b)) in fa.iter().zip(&fb) {
        assert_eq!(name_a, name_b, "report shapes diverged");
        assert_eq!(bits_a, bits_b, "{name_a} diverged");
    }
    assert_eq!(fa.len(), fb.len(), "report shapes diverged");
}
