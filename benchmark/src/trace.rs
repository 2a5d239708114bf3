//! In-memory span and counter recorder for the traced run, plus the
//! order statistics every reported figure goes through.
//!
//! A span has a name, a start, an end and a parent id; it is kept in
//! memory and folded into per-layer figures only after the run. A span's
//! *self* time is its duration minus the time its child spans cover, so
//! nested layers are never counted twice. Every span and counter carries
//! the round it belongs to (the setup replay counts as its own round
//! key, [`SETUP_ROUND`]), and each layer figure is the per-round total's
//! median and p90. A round-phase layer that did not run in some round
//! counts zero there, so its samples cover every round.
//!
//! The clock is `lumos_common::timer`, the workspace's audited wall-clock
//! meter. A disabled tracer records nothing and reads no clock, so the
//! same replay code serves the untraced set-up timing.

use std::collections::{BTreeMap, BTreeSet};

use lumos_common::timer::Stopwatch;

/// Round key of the set-up replay, apart from the training rounds.
pub const SETUP_ROUND: u64 = u64::MAX;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer metric the span's self time is charged to.
    pub name: &'static str,
    /// Round key the span belongs to.
    pub round: u64,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started (equal to `start` while open).
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Span and counter recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    clock: Stopwatch,
    round: u64,
    rounds: BTreeSet<u64>,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: Vec<(&'static str, u64, f64)>,
}

impl Tracer {
    /// A recording tracer, or (with `enabled = false`) a no-op one.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            clock: if enabled {
                Stopwatch::started()
            } else {
                Stopwatch::new()
            },
            round: SETUP_ROUND,
            rounds: BTreeSet::new(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Sets the round key later spans and counters are filed under.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
        if self.enabled && round != SETUP_ROUND {
            self.rounds.insert(round);
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.clock.secs();
        self.spans.push(Span {
            name,
            round: self.round,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end = self.clock.secs();
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Adds `value` to counter `name` for the current round.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counters.push((name, self.round, value));
        }
    }

    /// Sum of all spans' self time (the time the named layers account for).
    pub fn total_self_secs(&self) -> f64 {
        self.self_times().iter().sum()
    }

    /// Each span's duration minus the durations of its direct children.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        own
    }

    /// Per-round samples of every layer: span self times and counters,
    /// summed within each round key, keyed by layer name. Set-up layers
    /// get one sample per set-up; round layers one per training round.
    pub fn samples(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut per_round: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *per_round.entry((s.name, s.round)).or_insert(0.0) += own;
        }
        for &(name, round, v) in &self.counters {
            *per_round.entry((name, round)).or_insert(0.0) += v;
        }
        let names: BTreeSet<&'static str> = per_round.keys().map(|&(name, _)| name).collect();
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for name in names {
            let samples = if per_round.contains_key(&(name, SETUP_ROUND)) {
                vec![per_round[&(name, SETUP_ROUND)]]
            } else {
                let at = |r: &u64| per_round.get(&(name, *r)).copied().unwrap_or(0.0);
                self.rounds.iter().map(at).collect()
            };
            out.insert(name, samples);
        }
        out
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` (NaN for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn self_time_excludes_children_and_rounds_stay_apart() {
        let mut t = Tracer::new(true);
        t.count("setup", 7.0);
        t.set_round(0);
        t.enter("outer");
        t.scope("inner", || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        t.exit();
        t.count("events", 3.0);
        t.set_round(1);
        t.count("events", 5.0);
        t.set_round(2);
        let spans = &t.spans;
        assert_eq!(spans[1].parent, Some(0));
        let outer = spans[0].end - spans[0].start;
        let inner = spans[1].end - spans[1].start;
        let s = t.samples();
        assert!((s["outer"][0] - (outer - inner)).abs() < 1e-12);
        assert!((t.total_self_secs() - outer).abs() < 1e-12);
        assert_eq!(s["events"], vec![3.0, 5.0, 0.0]);
        assert_eq!(s["outer"].len(), 3);
        assert_eq!(s["setup"], vec![7.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.scope("x", || ());
        t.count("y", 1.0);
        assert!(t.spans.is_empty());
        assert!(t.samples().is_empty());
    }
}
