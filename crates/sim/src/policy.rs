//! Semi-synchronous aggregation policies over the per-destination timing
//! signal.
//!
//! Lumos is synchronous: the round closes only when every update has
//! arrived (§IV-B), so one straggler prices the whole epoch. With the
//! per-destination schedule reporting *when each device's update actually
//! lands* ([`EpochStats::update_delivery_secs`]), a deadline policy becomes
//! well-defined: updates landing after a multiple of the round's median
//! finish time are dropped from the pooled update, and the barrier closes
//! without them — the Fig. 8c-style straggler-dropping trade the paper
//! motivates. The buffered policy keeps the same barrier cut but routes
//! the late updates into a [`StalenessBuffer`] instead of the void: each
//! one is blended into a later round's POOL with weight
//! `decay^staleness` (FedAsync-style staleness discounting), where the
//! staleness is how many extra round-lengths the update spent in flight.
//! The fully-asynchronous policy retires the barrier outright: the round
//! closes the moment `min_updates` have landed
//! ([`AggregationPolicy::Async`]), and every update that missed the quorum
//! is carried to the next round at full weight — nothing is dropped and
//! nothing is discounted.
//!
//! The trainer runs each policy as an *event handler* ([`RoundPolicy`]):
//! subscribed to an [`EventDrivenRuntime`] run, it judges each update as
//! its landing event pops and, for `Async`, closes the round from inside
//! the event stream. The post-hoc functions
//! ([`AggregationPolicy::late_devices`],
//! [`AggregationPolicy::late_with_staleness`]) compute the same verdicts
//! from a finished round's timing signal. They are the reference oracles
//! the handlers are tested against.

use crate::epoch::EpochStats;
use crate::queue::VirtualTime;
use crate::runtime::{Control, EventDrivenRuntime, SimEvent};

/// Upper bound on how many rounds a late update may stay in flight before
/// it is blended in: both its arrival round and its staleness exponent are
/// clamped here, so no buffered update is deferred (or discounted)
/// unboundedly — a device 1000× past the deadline still lands within
/// `STALENESS_CAP` rounds.
pub const STALENESS_CAP: u32 = 8;

/// How a round's updates are aggregated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum AggregationPolicy {
    /// The paper's synchronous barrier: every update is waited for. The
    /// default, and the only policy under which a scenario is a pure
    /// timing overlay.
    #[default]
    FullSync,
    /// Semi-synchronous deadline: a device whose update lands after
    /// `factor × median update-delivery time` is dropped from that round's
    /// pooled update and message accounting, and its events no longer gate
    /// the barrier. `factor >= 1`, so the median device (and with it at
    /// least half the round) always survives.
    Deadline {
        /// Deadline as a multiple of the round's median delivery time.
        factor: f64,
    },
    /// Buffered semi-sync: the same deadline cut as
    /// [`AggregationPolicy::Deadline`] (late devices still leave the
    /// round's barrier, keeping its makespan win), but late updates are
    /// buffered instead of discarded and blended into the round where they
    /// actually arrive with weight `decay^staleness`. Their protocol
    /// messages are likewise accounted in the arrival round. `decay = 0`
    /// weighs every stale update by zero — exactly the deadline's discard —
    /// and collapses to it bit for bit via
    /// [`AggregationPolicy::effective`].
    Buffered {
        /// Deadline as a multiple of the round's median delivery time.
        factor: f64,
        /// Per-round staleness discount in `[0, 1]`: an update arriving
        /// `s` rounds late pools with weight `decay^s`.
        decay: f64,
    },
    /// Barrier-free asynchronous aggregation: the round pools the moment
    /// `min_updates` updates have landed — no global barrier at all. The
    /// quorum is the `min_updates` earliest landings in `(delivery time,
    /// device id)` order (the tie-break mirrors the event queue's total
    /// order, so the set is push-order-independent); every other update is
    /// carried to the next round at *full* weight (staleness 1, no decay) —
    /// nothing is dropped (`late_drops = 0`) and nothing is wasted
    /// (`wasted_updates = 0`). With `min_updates >= n_devices` the quorum
    /// is the whole fleet, which is exactly the synchronous barrier:
    /// [`AggregationPolicy::resolve`] collapses that configuration to
    /// `FullSync` up front, bit for bit.
    Async {
        /// Updates that must land before the round closes and pools.
        min_updates: usize,
    },
}

impl AggregationPolicy {
    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AggregationPolicy::FullSync => "full-sync",
            AggregationPolicy::Deadline { .. } => "deadline",
            AggregationPolicy::Buffered { .. } => "buffered",
            AggregationPolicy::Async { .. } => "async",
        }
    }

    /// Checks the policy's parameters; call at configuration time so a bad
    /// deadline fails fast instead of mid-training (or never, when no
    /// scenario means no round is ever judged).
    ///
    /// # Panics
    /// Panics if a deadline factor is not finite or is below 1 (a factor
    /// below 1 would drop the median device — and with it any guarantee
    /// that a round keeps a majority), or if a buffered decay is not a
    /// finite value in `[0, 1]` (a weight above 1 would *amplify* stale
    /// updates with their own age), or if an async quorum is zero (a round
    /// must wait for at least one update before pooling).
    pub fn validate(&self) {
        match *self {
            AggregationPolicy::FullSync => {}
            AggregationPolicy::Async { min_updates } => {
                assert!(
                    min_updates >= 1,
                    "async quorum must wait for at least one update"
                );
            }
            AggregationPolicy::Deadline { factor } => {
                assert!(
                    factor.is_finite() && factor >= 1.0,
                    "deadline factor must be finite and >= 1, got {factor}"
                );
            }
            AggregationPolicy::Buffered { factor, decay } => {
                assert!(
                    factor.is_finite() && factor >= 1.0,
                    "deadline factor must be finite and >= 1, got {factor}"
                );
                assert!(
                    decay.is_finite() && (0.0..=1.0).contains(&decay),
                    "buffered decay must be in [0, 1], got {decay}"
                );
            }
        }
    }

    /// The policy actually executed: `Buffered` with `decay = 0` weighs
    /// every stale update by zero, which is the deadline's discard — it is
    /// resolved to `Deadline` up front so the two configurations are
    /// bit-identical by construction (same pool masks, same message
    /// accounting, no carry-over traffic).
    pub fn effective(self) -> AggregationPolicy {
        match self {
            AggregationPolicy::Buffered { factor, decay: 0.0 } => {
                AggregationPolicy::Deadline { factor }
            }
            p => p,
        }
    }

    /// The policy actually executed for a fleet of `n_devices`: applies
    /// [`AggregationPolicy::effective`], then collapses an `Async` quorum
    /// of the whole fleet (or more) to `FullSync` — waiting for every
    /// device *is* the synchronous barrier, so the two configurations are
    /// made bit-identical by construction (same code path, same reports).
    pub fn resolve(self, n_devices: usize) -> AggregationPolicy {
        match self.effective() {
            AggregationPolicy::Async { min_updates } if min_updates >= n_devices => {
                AggregationPolicy::FullSync
            }
            p => p,
        }
    }

    /// The deadline factor shared by the cutting policies (`None` under
    /// [`AggregationPolicy::FullSync`] and [`AggregationPolicy::Async`],
    /// which cut by quorum rank, not by deadline).
    fn cut_factor(&self) -> Option<f64> {
        match *self {
            AggregationPolicy::FullSync | AggregationPolicy::Async { .. } => None,
            AggregationPolicy::Deadline { factor } | AggregationPolicy::Buffered { factor, .. } => {
                Some(factor)
            }
        }
    }

    /// The devices this policy drops from a round with the given timing:
    /// those whose update landed strictly after `factor ×` the round's
    /// median delivery time (lower median — deterministic, no averaging).
    /// Empty under [`AggregationPolicy::FullSync`] and for rounds where
    /// nothing ran. Returned sorted by device id.
    ///
    /// # Panics
    /// Panics if a deadline factor is not finite or is below 1.
    pub fn late_devices(&self, stats: &EpochStats) -> Vec<u32> {
        self.late_with_staleness(stats)
            .into_iter()
            .map(|(d, _)| d)
            .collect()
    }

    /// [`AggregationPolicy::late_devices`] plus each late device's
    /// *staleness*: how many additional round-lengths its update spends in
    /// flight past the deadline, `ceil(delivery / deadline) - 1`, clamped
    /// to `1..=`[`STALENESS_CAP`]. An update landing just past the
    /// deadline arrives next round (staleness 1); one landing at 3× the
    /// deadline arrives two rounds later (staleness 2). Sorted by device
    /// id.
    ///
    /// Under [`AggregationPolicy::Async`] the "late" set is the complement
    /// of the quorum — every device whose update lands after the
    /// `min_updates` earliest (in `(delivery time, device id)` order) —
    /// each at staleness 1: carried to the next round, undecayed.
    ///
    /// # Panics
    /// Panics if the policy's parameters are invalid (see
    /// [`AggregationPolicy::validate`]).
    pub fn late_with_staleness(&self, stats: &EpochStats) -> Vec<(u32, u32)> {
        self.validate();
        if let AggregationPolicy::Async { min_updates } = *self {
            return async_overflow(min_updates, &stats.update_delivery_secs);
        }
        let Some(factor) = self.cut_factor() else {
            return Vec::new();
        };
        let mut times: Vec<f64> = stats
            .update_delivery_secs
            .iter()
            .flatten()
            .copied()
            .collect();
        if times.is_empty() {
            return Vec::new();
        }
        times.sort_by(f64::total_cmp);
        let median = times[(times.len() - 1) / 2];
        let deadline = factor * median;
        stats
            .update_delivery_secs
            .iter()
            .enumerate()
            .filter_map(|(d, t)| {
                let t = (*t)?;
                if t <= deadline {
                    return None;
                }
                let staleness = if deadline > 0.0 {
                    ((t / deadline).ceil() - 1.0).clamp(1.0, STALENESS_CAP as f64) as u32
                } else {
                    STALENESS_CAP
                };
                Some((d as u32, staleness))
            })
            .collect()
    }
}

/// Landings in quorum order: every `(delivery time, device)` that lands,
/// sorted by time with ties broken by device id — the same total order the
/// event queue pops simultaneous landings in, so the quorum boundary is a
/// pure function of the schedule.
fn landing_order(planned: &[Option<f64>]) -> Vec<(f64, u32)> {
    let mut landed: Vec<(f64, u32)> = planned
        .iter()
        .enumerate()
        .filter_map(|(d, t)| t.map(|t| (t, d as u32)))
        .collect();
    landed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    landed
}

/// The devices an async quorum of `min_updates` leaves out, each at
/// staleness 1, sorted by device id. Empty when the whole round fits in
/// the quorum.
fn async_overflow(min_updates: usize, planned: &[Option<f64>]) -> Vec<(u32, u32)> {
    let landed = landing_order(planned);
    if landed.len() <= min_updates {
        return Vec::new();
    }
    let mut late: Vec<(u32, u32)> = landed[min_updates..].iter().map(|&(_, d)| (d, 1)).collect();
    late.sort_unstable_by_key(|&(d, _)| d);
    late
}

/// One round of an aggregation policy, expressed as an event handler.
///
/// Where [`AggregationPolicy::late_with_staleness`] judges a *finished*
/// round from its timing signal, a `RoundPolicy` subscribes to the live
/// [`EventDrivenRuntime`] stream and decides at arrival time: as each
/// update's landing event pops it is judged on the spot (on time, or late
/// with its staleness), and under [`AggregationPolicy::Async`] the round
/// is closed from inside the stream the moment the quorum lands. Because
/// the schedule is static, the deadline (a median over the round) and the
/// quorum boundary are priced from
/// [`EventDrivenRuntime::update_delivery_secs`] at construction — the
/// verdicts are therefore identical to the post-hoc path, which is exactly
/// the refactor's compatibility contract (property-tested in
/// `tests/sim_properties.rs`).
///
/// For sharded (hierarchical) aggregation, construct one `RoundPolicy` per
/// shard with [`RoundPolicy::for_members`]: each judges only its members,
/// against its shard-local median.
#[derive(Debug, Clone)]
pub struct RoundPolicy {
    planned: Vec<Option<f64>>,
    burst: Vec<bool>,
    mode: RoundMode,
    verdicts: Vec<(u32, u32)>,
}

#[derive(Debug, Clone)]
enum RoundMode {
    /// Nothing to decide: run to the barrier (`FullSync`, rounds where
    /// nothing lands, and async quorums the whole round fits inside).
    Barrier,
    /// Deadline cut: judge each landing against the precomputed deadline.
    Cut { deadline: f64 },
    /// Async quorum: close the round once every awaited landing has
    /// popped; everyone else is carried at staleness 1.
    Quorum {
        awaiting: Vec<bool>,
        remaining: usize,
        late: Vec<(u32, u32)>,
    },
}

impl RoundPolicy {
    /// A handler judging the whole fleet.
    ///
    /// # Panics
    /// Panics if the policy's parameters are invalid.
    pub fn new(policy: &AggregationPolicy, schedule: &EventDrivenRuntime) -> Self {
        Self::for_members(policy, schedule, None)
    }

    /// A handler judging only devices in `members` (a shard's contiguous
    /// id range): landings outside it are ignored and the deadline median
    /// is computed over members alone.
    ///
    /// # Panics
    /// Panics if the policy's parameters are invalid.
    pub fn for_members(
        policy: &AggregationPolicy,
        schedule: &EventDrivenRuntime,
        members: Option<std::ops::Range<u32>>,
    ) -> Self {
        policy.validate();
        let mut planned = schedule.update_delivery_secs().to_vec();
        if let Some(range) = &members {
            for (d, t) in planned.iter_mut().enumerate() {
                if !range.contains(&(d as u32)) {
                    *t = None;
                }
            }
        }
        let burst = schedule.ships_burst().to_vec();
        let mode = match *policy {
            AggregationPolicy::FullSync => RoundMode::Barrier,
            AggregationPolicy::Deadline { factor } | AggregationPolicy::Buffered { factor, .. } => {
                let mut times: Vec<f64> = planned.iter().flatten().copied().collect();
                if times.is_empty() {
                    RoundMode::Barrier
                } else {
                    times.sort_by(f64::total_cmp);
                    let median = times[(times.len() - 1) / 2];
                    RoundMode::Cut {
                        deadline: factor * median,
                    }
                }
            }
            AggregationPolicy::Async { min_updates } => {
                let landed = landing_order(&planned);
                if min_updates >= planned.len() || landed.is_empty() {
                    // A quorum of the whole fleet *is* the synchronous
                    // barrier (the collapse `resolve` performs up front) —
                    // drains included, so the round stays bit-identical to
                    // `FullSync`.
                    RoundMode::Barrier
                } else {
                    // Churn can leave fewer live landings than the
                    // configured quorum; clamping to the live fleet closes
                    // the round at the last landing instead of deadlocking
                    // on updates that can never arrive.
                    let quorum = min_updates.min(landed.len());
                    let mut awaiting = vec![false; planned.len()];
                    for &(_, d) in &landed[..quorum] {
                        awaiting[d as usize] = true;
                    }
                    RoundMode::Quorum {
                        awaiting,
                        remaining: quorum,
                        late: async_overflow(min_updates, &planned),
                    }
                }
            }
        };
        Self {
            planned,
            burst,
            mode,
            verdicts: Vec::new(),
        }
    }

    /// Feeds one event through the policy. A bursting device's update
    /// lands at its `Delivered` event, a burst-less one's at its
    /// `ComputeDone`; everything else (arrivals, drains, non-members) is
    /// passed through. Returns [`Control::CloseRound`] exactly when an
    /// async quorum completes.
    pub fn on_event(&mut self, t: VirtualTime, ev: &SimEvent) -> Control {
        let d = ev.device() as usize;
        let landing = match ev {
            SimEvent::Delivered(_) => self.planned[d].is_some() && self.burst[d],
            SimEvent::ComputeDone(_) => self.planned[d].is_some() && !self.burst[d],
            // Fault events are never landings: a crashed or exhausted
            // device has `planned[d] == None` and is handled by the
            // recovery layer (staleness buffer), not the round policy.
            SimEvent::Arrived { .. }
            | SimEvent::InboxDrained(_)
            | SimEvent::Crashed(_)
            | SimEvent::Lost(_)
            | SimEvent::RetryDue(_) => false,
        };
        if !landing {
            return Control::Continue;
        }
        match &mut self.mode {
            RoundMode::Barrier => Control::Continue,
            RoundMode::Cut { deadline } => {
                let deadline = *deadline;
                let t = t.secs();
                if t > deadline {
                    let staleness = if deadline > 0.0 {
                        ((t / deadline).ceil() - 1.0).clamp(1.0, STALENESS_CAP as f64) as u32
                    } else {
                        STALENESS_CAP
                    };
                    self.verdicts.push((d as u32, staleness));
                }
                Control::Continue
            }
            RoundMode::Quorum {
                awaiting,
                remaining,
                late,
            } => {
                if awaiting[d] {
                    awaiting[d] = false;
                    *remaining -= 1;
                    if *remaining == 0 {
                        // The quorum is complete: everyone still in flight
                        // is carried to the next round, at full weight.
                        self.verdicts.append(late);
                        return Control::CloseRound;
                    }
                }
                Control::Continue
            }
        }
    }

    /// The round's late/carried set, `(device, staleness)` sorted by
    /// device id — the same pairs the post-hoc
    /// [`AggregationPolicy::late_with_staleness`] computes.
    pub fn verdicts(mut self) -> Vec<(u32, u32)> {
        self.verdicts.sort_unstable_by_key(|&(d, _)| d);
        self.verdicts
    }
}

/// The buffered policy's per-device staleness buffer: late updates enter
/// with their staleness (rounds until arrival) and come back out, at most
/// [`STALENESS_CAP`] rounds later, as additive POOL weights
/// `decay^staleness` for their device.
///
/// The buffer is pure bookkeeping over `(device, rounds remaining)` pairs —
/// deterministic, no RNG, no float state beyond the decay — so the
/// conservation property (*every* pushed update is collected within the
/// cap) is property-tested directly in `tests/sim_properties.rs`.
#[derive(Debug, Clone)]
pub struct StalenessBuffer {
    decay: f64,
    /// In-flight late updates: `(device, rounds remaining, staleness)`.
    in_flight: Vec<(u32, u32, u32)>,
    buffered: u64,
}

impl StalenessBuffer {
    /// Creates an empty buffer with the given per-round decay.
    ///
    /// # Panics
    /// Panics unless `decay` is a finite value in `[0, 1]`.
    pub fn new(decay: f64) -> Self {
        assert!(
            decay.is_finite() && (0.0..=1.0).contains(&decay),
            "buffered decay must be in [0, 1], got {decay}"
        );
        Self {
            decay,
            in_flight: Vec::new(),
            buffered: 0,
        }
    }

    /// The POOL weight of an update that is `staleness` rounds old.
    pub fn weight(&self, staleness: u32) -> f64 {
        self.decay.powi(staleness as i32)
    }

    /// Buffers one late update: it will arrive (and be collected by
    /// [`StalenessBuffer::advance`]) after `staleness` rounds, clamped to
    /// `1..=`[`STALENESS_CAP`].
    pub fn push(&mut self, device: u32, staleness: u32) {
        let s = staleness.clamp(1, STALENESS_CAP);
        self.in_flight.push((device, s, s));
        self.buffered += 1;
    }

    /// Advances one round: every in-flight update ages by one round, and
    /// those arriving now are drained into a per-device additive weight
    /// vector (`decay^staleness` each; a device can receive several
    /// arrivals in one round). Call exactly once per round, *before*
    /// pushing that round's late updates.
    pub fn advance(&mut self, num_devices: usize) -> Vec<f64> {
        let mut weights = vec![0.0f64; num_devices];
        self.in_flight.retain_mut(|(d, remaining, staleness)| {
            *remaining -= 1;
            if *remaining == 0 {
                weights[*d as usize] += self.decay.powi(*staleness as i32);
                false
            } else {
                true
            }
        });
        weights
    }

    /// Total updates ever buffered (the report's `buffered_updates`).
    pub fn total_buffered(&self) -> u64 {
        self.buffered
    }

    /// Updates still in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{simulate_epoch, DeviceWork};
    use crate::profile::DeviceProfile;

    fn stats_with(deliveries: Vec<Option<f64>>) -> EpochStats {
        EpochStats {
            makespan_secs: 0.0,
            busy_secs: vec![0.0; deliveries.len()],
            idle_secs: vec![0.0; deliveries.len()],
            update_delivery_secs: deliveries,
            straggler: None,
            active_devices: 0,
            events: 0,
        }
    }

    #[test]
    fn full_sync_never_drops() {
        let s = stats_with(vec![Some(1.0), Some(1e9)]);
        assert!(AggregationPolicy::FullSync.late_devices(&s).is_empty());
    }

    #[test]
    fn deadline_drops_the_tail_but_keeps_the_median() {
        let s = stats_with(vec![Some(1.0), Some(1.1), Some(0.9), None, Some(40.0)]);
        // Sorted deliveries: 0.9, 1.0, 1.1, 40 → lower median 1.0, deadline
        // 2.0 at factor 2 → only the 40s device is late; the absent device
        // (None) is never dropped.
        let late = AggregationPolicy::Deadline { factor: 2.0 }.late_devices(&s);
        assert_eq!(late, vec![4]);
    }

    #[test]
    fn at_least_half_the_round_survives() {
        for n in 1..32usize {
            let s = stats_with((0..n).map(|i| Some((i + 1) as f64)).collect());
            let late = AggregationPolicy::Deadline { factor: 1.0 }.late_devices(&s);
            assert!(
                n - late.len() >= n.div_ceil(2),
                "n={n}: {} dropped",
                late.len()
            );
        }
    }

    #[test]
    fn empty_round_drops_nobody() {
        let s = stats_with(vec![None, None]);
        assert!(AggregationPolicy::Deadline { factor: 2.0 }
            .late_devices(&s)
            .is_empty());
    }

    #[test]
    #[should_panic]
    fn sub_unit_factor_panics() {
        let s = stats_with(vec![Some(1.0)]);
        AggregationPolicy::Deadline { factor: 0.5 }.late_devices(&s);
    }

    #[test]
    fn reads_the_simulated_signal_end_to_end() {
        // A Pareto-style tail on real simulated timing: the slow device's
        // update lands far past 2× the median and is dropped.
        let mut profiles = vec![DeviceProfile::baseline(); 5];
        profiles[3].compute_rate /= 100.0;
        let w: Vec<DeviceWork> = (0..5)
            .map(|_| DeviceWork::aggregate(100.0, 1, 64, 0))
            .collect();
        let stats = simulate_epoch(&profiles, &w);
        let late = AggregationPolicy::Deadline { factor: 2.0 }.late_devices(&stats);
        assert_eq!(late, vec![3]);
        assert_eq!(AggregationPolicy::FullSync.name(), "full-sync");
        assert_eq!(
            AggregationPolicy::Deadline { factor: 2.0 }.name(),
            "deadline"
        );
    }

    #[test]
    fn buffered_cuts_exactly_like_the_deadline() {
        // Same factor ⇒ same late set: buffering changes what happens to a
        // late update, never who is late.
        let s = stats_with(vec![Some(1.0), Some(1.1), Some(0.9), None, Some(40.0)]);
        let deadline = AggregationPolicy::Deadline { factor: 2.0 };
        let buffered = AggregationPolicy::Buffered {
            factor: 2.0,
            decay: 0.5,
        };
        assert_eq!(buffered.late_devices(&s), deadline.late_devices(&s));
        assert_eq!(buffered.name(), "buffered");
    }

    #[test]
    fn staleness_counts_round_lengths_past_the_deadline() {
        // Deadline 2.0 (factor 2 × lower median 1.0): 2.5s ⇒ next round
        // (staleness 1), 4.5s ⇒ ceil(2.25)-1 = 2 rounds, 1000s ⇒ capped.
        let s = stats_with(vec![
            Some(1.0),
            Some(1.0),
            Some(1.0),
            Some(2.5),
            Some(4.5),
            Some(1000.0),
        ]);
        let late = AggregationPolicy::Buffered {
            factor: 2.0,
            decay: 0.5,
        }
        .late_with_staleness(&s);
        assert_eq!(late, vec![(3, 1), (4, 2), (5, STALENESS_CAP)]);
    }

    #[test]
    fn zero_decay_is_effectively_the_deadline() {
        let collapsed = AggregationPolicy::Buffered {
            factor: 2.0,
            decay: 0.0,
        }
        .effective();
        assert_eq!(collapsed, AggregationPolicy::Deadline { factor: 2.0 });
        // Non-zero decay and the other policies pass through untouched.
        let buffered = AggregationPolicy::Buffered {
            factor: 2.0,
            decay: 0.5,
        };
        assert_eq!(buffered.effective(), buffered);
        assert_eq!(
            AggregationPolicy::FullSync.effective(),
            AggregationPolicy::FullSync
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_decay_panics() {
        AggregationPolicy::Buffered {
            factor: 2.0,
            decay: 1.5,
        }
        .validate();
    }

    #[test]
    fn staleness_buffer_delivers_after_the_advertised_delay() {
        let mut buf = StalenessBuffer::new(0.5);
        buf.push(1, 1);
        buf.push(3, 2);
        // Round +1: only the staleness-1 update arrives, at weight 0.5.
        let w = buf.advance(4);
        assert_eq!(w, vec![0.0, 0.5, 0.0, 0.0]);
        assert_eq!(buf.in_flight(), 1);
        // Round +2: the staleness-2 update arrives at 0.25.
        let w = buf.advance(4);
        assert_eq!(w, vec![0.0, 0.0, 0.0, 0.25]);
        assert_eq!(buf.in_flight(), 0);
        assert_eq!(buf.total_buffered(), 2);
    }

    #[test]
    fn staleness_buffer_accumulates_same_round_arrivals() {
        // Two updates from the same device landing in the same round add
        // their weights; a zero staleness is clamped up to one round.
        let mut buf = StalenessBuffer::new(0.5);
        buf.push(0, 0);
        buf.push(0, 1);
        let w = buf.advance(1);
        assert_eq!(w, vec![1.0]);
    }

    #[test]
    fn async_quorum_carries_the_overflow_at_full_staleness() {
        // Quorum 2 over landings at 1.0 (d0), 3.0 (d1), 2.0 (d2), 5.0
        // (d4): the two earliest (d0, d2) pool; d1 and d4 are carried at
        // staleness 1. The absent device is never judged.
        let s = stats_with(vec![Some(1.0), Some(3.0), Some(2.0), None, Some(5.0)]);
        let late = AggregationPolicy::Async { min_updates: 2 }.late_with_staleness(&s);
        assert_eq!(late, vec![(1, 1), (4, 1)]);
        assert_eq!(AggregationPolicy::Async { min_updates: 2 }.name(), "async");
    }

    #[test]
    fn async_ties_at_the_quorum_boundary_break_by_device_id() {
        let s = stats_with(vec![Some(1.0), Some(1.0), Some(1.0)]);
        let late = AggregationPolicy::Async { min_updates: 2 }.late_with_staleness(&s);
        assert_eq!(late, vec![(2, 1)]);
    }

    #[test]
    fn async_quorum_of_everyone_carries_nobody() {
        let s = stats_with(vec![Some(1.0), Some(40.0), None]);
        let late = AggregationPolicy::Async { min_updates: 2 }.late_with_staleness(&s);
        assert!(late.is_empty(), "both landings fit in the quorum");
    }

    #[test]
    fn full_fleet_quorum_resolves_to_full_sync() {
        // min_updates >= n_devices is the synchronous barrier, collapsed up
        // front so both configurations share one code path bit for bit.
        let whole = AggregationPolicy::Async { min_updates: 8 };
        assert_eq!(whole.resolve(8), AggregationPolicy::FullSync);
        assert_eq!(whole.resolve(7), AggregationPolicy::FullSync);
        let partial = AggregationPolicy::Async { min_updates: 7 };
        assert_eq!(partial.resolve(8), partial);
        // resolve() still applies the zero-decay buffered collapse.
        let buffered = AggregationPolicy::Buffered {
            factor: 2.0,
            decay: 0.0,
        };
        assert_eq!(
            buffered.resolve(8),
            AggregationPolicy::Deadline { factor: 2.0 }
        );
    }

    #[test]
    #[should_panic]
    fn zero_quorum_panics() {
        AggregationPolicy::Async { min_updates: 0 }.validate();
    }

    fn straggler_fleet() -> (Vec<DeviceProfile>, Vec<DeviceWork>) {
        let mut profiles = vec![DeviceProfile::baseline(); 5];
        profiles[3].compute_rate /= 100.0;
        let w: Vec<DeviceWork> = (0..5)
            .map(|_| DeviceWork::aggregate(100.0, 1, 64, 0))
            .collect();
        (profiles, w)
    }

    #[test]
    fn round_policy_verdicts_match_the_post_hoc_path() {
        // The arrival-time handler and the finished-round computation must
        // agree exactly — that equivalence is what lets the trainer switch
        // between the lockstep and event-driven probes bit for bit.
        let (profiles, w) = straggler_fleet();
        for policy in [
            AggregationPolicy::FullSync,
            AggregationPolicy::Deadline { factor: 2.0 },
            AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 0.5,
            },
            AggregationPolicy::Async { min_updates: 3 },
        ] {
            let schedule = EventDrivenRuntime::new(&profiles, &w);
            let mut round = RoundPolicy::new(&policy, &schedule);
            let stats = schedule.run(|t, ev| round.on_event(t, ev));
            assert_eq!(
                round.verdicts(),
                policy.late_with_staleness(&stats),
                "{} handler disagreed with the post-hoc cut",
                policy.name()
            );
        }
    }

    #[test]
    fn round_policy_closes_the_async_round_at_the_quorum() {
        let (profiles, w) = straggler_fleet();
        let full = simulate_epoch(&profiles, &w);
        let schedule = EventDrivenRuntime::new(&profiles, &w);
        let mut round = RoundPolicy::new(&AggregationPolicy::Async { min_updates: 4 }, &schedule);
        let stats = schedule.run(|t, ev| round.on_event(t, ev));
        assert!(
            stats.makespan_secs < full.makespan_secs,
            "closing at the quorum must beat the barrier ({} !< {})",
            stats.makespan_secs,
            full.makespan_secs
        );
        assert_eq!(round.verdicts(), vec![(3, 1)], "the straggler is carried");
    }

    #[test]
    fn churn_shrunk_async_quorum_clamps_to_the_live_fleet() {
        // Regression: a quorum of 4 with only 2 live devices used to fall
        // back to the full barrier — waiting on updates that can never
        // arrive this round. The clamp closes the round at the last live
        // landing instead.
        use crate::epoch::Inbound;
        let mut profiles = vec![DeviceProfile::baseline(); 6];
        for p in &mut profiles[2..] {
            p.available = false;
        }
        let w: Vec<DeviceWork> = (0..6u32)
            .map(|d| DeviceWork {
                compute_units: 100.0 + 10.0 * d as f64,
                messages_out: 1,
                bytes_out: 64,
                inbound: Inbound::PerSender(vec![((d + 1) % 6, 64)]),
            })
            .collect();
        let full = EventDrivenRuntime::new(&profiles, &w).run(|_, _| Control::Continue);
        let schedule = EventDrivenRuntime::new(&profiles, &w);
        let mut landings: Vec<f64> = schedule
            .update_delivery_secs()
            .iter()
            .flatten()
            .copied()
            .collect();
        landings.sort_by(f64::total_cmp);
        assert_eq!(landings.len(), 2, "only the live devices land");
        let mut round = RoundPolicy::new(&AggregationPolicy::Async { min_updates: 4 }, &schedule);
        let stats = schedule.run(|t, ev| round.on_event(t, ev));
        assert_eq!(
            stats.makespan_secs.to_bits(),
            landings[1].to_bits(),
            "the clamped quorum closes at the last live landing"
        );
        assert!(
            stats.makespan_secs < full.makespan_secs,
            "closing early must beat the drain barrier"
        );
        assert!(
            round.verdicts().is_empty(),
            "every live update made the clamped quorum"
        );
    }

    #[test]
    fn shard_scoped_round_policy_ignores_outsiders() {
        // Members 0..3 of a 5-device fleet: the shard's median ignores the
        // outside straggler, and outsiders are never judged.
        let (profiles, w) = straggler_fleet();
        let schedule = EventDrivenRuntime::new(&profiles, &w);
        let policy = AggregationPolicy::Deadline { factor: 2.0 };
        let mut round = RoundPolicy::for_members(&policy, &schedule, Some(0..3));
        let _stats = schedule.run(|t, ev| round.on_event(t, ev));
        assert!(
            round.verdicts().is_empty(),
            "the slow device is not a member, so the shard has no stragglers"
        );
    }
}
