//! Property tests for the discrete-event core: the virtual clock never
//! runs backwards, the epoch simulator's invariants hold for arbitrary
//! seeded fleets and workloads, and the per-destination schedule dominates
//! the aggregate one — collapsing to it bit-for-bit exactly when every
//! sender lands at or before its receiver's own burst barrier.

use proptest::prelude::*;

use lumos_common::rng::Xoshiro256pp;
use lumos_sim::{
    simulate_epoch, AggregationPolicy, DeviceProfile, DeviceWork, EventDrivenRuntime, EventQueue,
    Inbound, RoundPolicy, StalenessBuffer, VirtualTime, SERVER_SENDER, STALENESS_CAP,
};

/// Random fleet + aggregate workload of `n` devices from one seed.
fn random_fleet(seed: u64, n: usize) -> (Vec<DeviceProfile>, Vec<DeviceWork>) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let profiles = (0..n)
        .map(|_| DeviceProfile {
            compute_rate: rng.range_f64(0.5, 500.0),
            uplink_bytes_per_sec: rng.range_f64(64.0, 1e5),
            downlink_bytes_per_sec: rng.range_f64(64.0, 1e5),
            latency_secs: rng.range_f64(0.0, 0.5),
            available: rng.bernoulli(0.9),
        })
        .collect();
    let work = (0..n)
        .map(|_| {
            DeviceWork::aggregate(
                rng.range_f64(0.0, 5000.0),
                rng.next_below(32),
                rng.next_below(1 << 16),
                rng.next_below(1 << 16),
            )
        })
        .collect();
    (profiles, work)
}

/// Splits each device's aggregate inbound bytes across random senders
/// (peers, itself, or the server), preserving the per-device totals.
fn scatter_inbound(seed: u64, work: &[DeviceWork]) -> Vec<DeviceWork> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5EED_CA57);
    let n = work.len() as u64;
    work.iter()
        .map(|w| {
            let total = w.bytes_in();
            let mut remaining = total;
            let mut list = Vec::new();
            while remaining > 0 {
                let chunk = (rng.next_below(remaining) + 1).min(remaining);
                let sender = match rng.next_below(n + 2) {
                    s if s < n => s as u32,
                    s if s == n => SERVER_SENDER,
                    _ => SERVER_SENDER, // second server slot keeps draws simple
                };
                list.push((sender, chunk));
                remaining -= chunk;
            }
            DeviceWork {
                inbound: Inbound::PerSender(list),
                ..w.clone()
            }
        })
        .collect()
}

/// The sender's burst barrier, with the exact float operations of the
/// simulator's event chain.
fn barrier_secs(p: &DeviceProfile, w: &DeviceWork) -> f64 {
    (p.compute_secs(w.compute_units) + p.upload_secs(w.bytes_out)) + p.latency_secs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Virtual-clock monotonicity: however events are pushed, pops are
    /// non-decreasing in time, FIFO at ties, and nothing is lost.
    #[test]
    fn event_pops_are_monotone_in_time(seed in any::<u64>(), len in 1usize..256) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut queue = EventQueue::new();
        for i in 0..len {
            queue.push(VirtualTime::new(rng.range_f64(0.0, 1e6)), i);
        }
        prop_assert_eq!(queue.len(), len);
        let mut popped = 0usize;
        let mut last = VirtualTime::ZERO;
        let mut last_seq = 0usize;
        while let Some((t, seq)) = queue.pop() {
            prop_assert!(t >= last, "clock ran backwards: {} < {}", t.secs(), last.secs());
            if t == last && popped > 0 {
                prop_assert!(seq > last_seq, "ties must pop in push order");
            }
            last = t;
            last_seq = seq;
            popped += 1;
        }
        prop_assert_eq!(popped, len);
    }

    /// The synchronous barrier dominates every device: busy time never
    /// exceeds the makespan, idle is the exact complement for available
    /// devices, and utilization stays in [0, 1] — under both inbound
    /// representations.
    #[test]
    fn epoch_invariants_hold_for_random_fleets(seed in any::<u64>(), n in 1usize..48) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let per_sender = scatter_inbound(seed, &aggregate);
        for work in [&aggregate, &per_sender] {
            let stats = simulate_epoch(&profiles, work);
            prop_assert!(stats.makespan_secs >= 0.0);
            for (d, p) in profiles.iter().enumerate() {
                prop_assert!(
                    stats.busy_secs[d] <= stats.makespan_secs + 1e-9,
                    "device {} busy {} exceeds makespan {}",
                    d, stats.busy_secs[d], stats.makespan_secs
                );
                prop_assert!(stats.idle_secs[d] >= 0.0);
                if p.available {
                    let sum = stats.busy_secs[d] + stats.idle_secs[d];
                    prop_assert!(
                        (sum - stats.makespan_secs).abs() < 1e-9 || stats.makespan_secs == 0.0,
                        "busy + idle must equal makespan for device {}", d
                    );
                } else {
                    prop_assert_eq!(stats.busy_secs[d], 0.0);
                    prop_assert_eq!(stats.idle_secs[d], 0.0);
                    prop_assert_eq!(stats.update_delivery_secs[d], None);
                }
            }
            let u = stats.mean_utilization();
            prop_assert!((0.0..=1.0 + 1e-12).contains(&u), "utilization {} out of range", u);
            // Straggler exists iff some available device had work.
            let any_ran = profiles.iter().zip(work.iter()).any(|(p, w)| p.available && !w.is_idle());
            prop_assert_eq!(stats.straggler.is_some(), any_ran);
        }
    }

    /// Naming senders can only delay drains: on the same work, the
    /// per-destination makespan dominates the aggregate (self-timed) one.
    #[test]
    fn per_destination_makespan_dominates_aggregate(seed in any::<u64>(), n in 1usize..32) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let per_sender = scatter_inbound(seed, &aggregate);
        let agg = simulate_epoch(&profiles, &aggregate);
        let per = simulate_epoch(&profiles, &per_sender);
        prop_assert!(
            per.makespan_secs >= agg.makespan_secs,
            "per-destination {} fell below aggregate {}",
            per.makespan_secs, agg.makespan_secs
        );
        // Busy time is the device's own critical path either way: waiting
        // for senders is idle, never busy.
        for d in 0..n {
            prop_assert_eq!(per.busy_secs[d].to_bits(), agg.busy_secs[d].to_bits());
        }
    }

    /// Degenerate case, bit for bit: when every inbound byte originates at
    /// or before its receiver's own burst barrier, the per-destination
    /// schedule IS the aggregate schedule — same makespan bits, same
    /// straggler, same busy/idle bits.
    #[test]
    fn early_senders_collapse_to_the_aggregate_schedule(seed in any::<u64>(), n in 1usize..32) {
        let (profiles, aggregate) = random_fleet(seed, n);
        // Keep only the cross-sender contributions that land at or before
        // the receiver's own barrier; reroute the rest to the receiver
        // itself (self-timed by definition). Totals are preserved.
        let scattered = scatter_inbound(seed, &aggregate);
        let filtered: Vec<DeviceWork> = scattered
            .iter()
            .enumerate()
            .map(|(d, w)| {
                let Inbound::PerSender(list) = &w.inbound else { unreachable!() };
                let own = barrier_secs(&profiles[d], w);
                let list = list
                    .iter()
                    .map(|&(s, b)| {
                        let keep = s != SERVER_SENDER
                            && (s as usize) < n
                            && profiles[s as usize].available
                            && !scattered[s as usize].is_idle()
                            && barrier_secs(&profiles[s as usize], &scattered[s as usize]) <= own;
                        if keep { (s, b) } else { (d as u32, b) }
                    })
                    .collect();
                DeviceWork { inbound: Inbound::PerSender(list), ..w.clone() }
            })
            .collect();
        let agg = simulate_epoch(&profiles, &aggregate);
        let per = simulate_epoch(&profiles, &filtered);
        prop_assert_eq!(per.makespan_secs.to_bits(), agg.makespan_secs.to_bits());
        prop_assert_eq!(per.straggler, agg.straggler);
        for d in 0..n {
            prop_assert_eq!(per.busy_secs[d].to_bits(), agg.busy_secs[d].to_bits());
            prop_assert_eq!(per.idle_secs[d].to_bits(), agg.idle_secs[d].to_bits());
        }
    }

    /// Bit-identical replay: the simulator is a pure function of its
    /// inputs, with no hidden clock or iteration-order dependence.
    #[test]
    fn epoch_simulation_is_replayable(seed in any::<u64>(), n in 1usize..32) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let work = scatter_inbound(seed, &aggregate);
        let a = simulate_epoch(&profiles, &work);
        let b = simulate_epoch(&profiles, &work);
        prop_assert_eq!(a, b);
    }

    /// The deadline policy can never empty a round: the median device (and
    /// with it at least half the participants) always survives, and only
    /// participants are ever dropped.
    #[test]
    fn deadline_keeps_at_least_half_the_round(
        seed in any::<u64>(), n in 1usize..32, factor in 1.0f64..4.0
    ) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let work = scatter_inbound(seed, &aggregate);
        let stats = simulate_epoch(&profiles, &work);
        let late = AggregationPolicy::Deadline { factor }.late_devices(&stats);
        let participants = stats.update_delivery_secs.iter().flatten().count();
        prop_assert!(late.len() <= participants / 2);
        for &d in &late {
            prop_assert!(stats.update_delivery_secs[d as usize].is_some());
        }
        prop_assert!(AggregationPolicy::FullSync.late_devices(&stats).is_empty());
    }

    /// Staleness-buffer conservation: however pushes and rounds interleave,
    /// every buffered update arrives exactly once within [`STALENESS_CAP`]
    /// rounds, at exactly `decay^staleness` weight — no update is lost, none
    /// outlives the cap.
    #[test]
    fn staleness_buffer_loses_no_update(
        seed in any::<u64>(), n in 1usize..16, rounds in 1usize..24, decay in 0.0f64..=1.0
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut buf = StalenessBuffer::new(decay);
        let mut pushed = 0u64;
        let mut expected = 0.0f64;
        let mut delivered = 0.0f64;
        for _ in 0..rounds {
            delivered += buf.advance(n).iter().sum::<f64>();
            for _ in 0..rng.next_below(4) {
                let d = rng.next_below(n as u64) as u32;
                // Deliberately overshoot the cap sometimes: the buffer must
                // clamp, never defer (or discount) unboundedly.
                let s = rng.next_below(2 * STALENESS_CAP as u64) as u32;
                buf.push(d, s);
                pushed += 1;
                expected += decay.powi(s.clamp(1, STALENESS_CAP) as i32);
            }
        }
        for _ in 0..STALENESS_CAP {
            delivered += buf.advance(n).iter().sum::<f64>();
        }
        prop_assert_eq!(buf.in_flight(), 0, "an update outlived STALENESS_CAP");
        prop_assert_eq!(buf.total_buffered(), pushed);
        prop_assert!(
            (delivered - expected).abs() < 1e-9 * (1.0 + expected.abs()),
            "delivered weight {} != expected {}", delivered, expected
        );
    }

    /// Staleness weights discount monotonically: an older update never
    /// outweighs a fresher one, and every weight stays in [0, 1].
    #[test]
    fn staleness_weights_decay_monotonically(decay in 0.0f64..=1.0) {
        let buf = StalenessBuffer::new(decay);
        let mut prev = 1.0f64;
        for s in 1..=STALENESS_CAP {
            let w = buf.weight(s);
            prop_assert!((0.0..=1.0).contains(&w), "weight {} out of range", w);
            prop_assert!(w <= prev, "weight rose with age: {} > {}", w, prev);
            prev = w;
        }
    }

    /// The buffered policy's cut is the deadline's cut — identical late set
    /// on any simulated round, stalenesses always within the cap — and at
    /// `decay = 0` the whole policy resolves to the deadline.
    #[test]
    fn buffered_cut_matches_deadline_and_zero_decay_collapses(
        seed in any::<u64>(), n in 1usize..32, factor in 1.0f64..4.0, decay in 0.0f64..=1.0
    ) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let work = scatter_inbound(seed, &aggregate);
        let stats = simulate_epoch(&profiles, &work);
        let deadline = AggregationPolicy::Deadline { factor };
        let buffered = AggregationPolicy::Buffered { factor, decay };
        prop_assert_eq!(buffered.late_devices(&stats), deadline.late_devices(&stats));
        for (d, s) in buffered.late_with_staleness(&stats) {
            prop_assert!((1..=STALENESS_CAP).contains(&s), "device {} staleness {}", d, s);
        }
        prop_assert_eq!(
            AggregationPolicy::Buffered { factor, decay: 0.0 }.effective(),
            deadline
        );
    }

    /// The arrival-time handler is the post-hoc policy: for any fleet and
    /// any policy, judging updates as their landing events pop yields the
    /// exact `(device, staleness)` pairs the finished-round computation
    /// does. The post-hoc cut is the reference oracle for the handler the
    /// trainer's probe runs.
    #[test]
    fn round_policy_verdicts_equal_the_post_hoc_cut(
        seed in any::<u64>(), n in 1usize..32, factor in 1.0f64..4.0,
        decay in 0.01f64..=1.0, quorum in 1usize..40
    ) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let work = scatter_inbound(seed, &aggregate);
        for policy in [
            AggregationPolicy::FullSync,
            AggregationPolicy::Deadline { factor },
            AggregationPolicy::Buffered { factor, decay },
            AggregationPolicy::Async { min_updates: quorum },
        ] {
            let schedule = EventDrivenRuntime::new(&profiles, &work);
            let mut round = RoundPolicy::new(&policy, &schedule);
            let stats = schedule.run(|t, ev| round.on_event(t, ev));
            prop_assert_eq!(
                round.verdicts(),
                policy.late_with_staleness(&stats),
                "{} handler disagreed with the post-hoc path", policy.name()
            );
        }
    }

    /// `Async` with a quorum the whole round fits inside never closes
    /// early: the run is the synchronous barrier, bit for bit — the
    /// sim-level half of the `min_updates >= n_devices` ⇒ `FullSync`
    /// collapse.
    #[test]
    fn async_full_quorum_is_the_barrier_bitwise(seed in any::<u64>(), n in 1usize..32) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let work = scatter_inbound(seed, &aggregate);
        let barrier = simulate_epoch(&profiles, &work);
        let schedule = EventDrivenRuntime::new(&profiles, &work);
        let mut round = RoundPolicy::new(
            &AggregationPolicy::Async { min_updates: n },
            &schedule,
        );
        let stats = schedule.run(|t, ev| round.on_event(t, ev));
        prop_assert_eq!(&stats, &barrier);
        prop_assert!(round.verdicts().is_empty(), "nobody misses a full quorum");
    }

    /// An async round closes exactly when its quorum completes: the
    /// makespan is the quorum's latest landing time (bitwise), never the
    /// barrier's.
    #[test]
    fn async_round_closes_at_the_quorum_landing(
        seed in any::<u64>(), n in 2usize..32, quorum in 1usize..31
    ) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let work = scatter_inbound(seed, &aggregate);
        let schedule = EventDrivenRuntime::new(&profiles, &work);
        // Quorum boundary from the static signal: `min_updates`-th landing
        // in (time, device) order.
        let mut landings: Vec<(f64, u32)> = schedule
            .update_delivery_secs()
            .iter()
            .enumerate()
            .filter_map(|(d, t)| t.map(|t| (t, d as u32)))
            .collect();
        landings.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Only rounds where someone actually misses the quorum close early.
        if quorum < landings.len() {
            let close_at = landings[quorum - 1].0;
            let mut round = RoundPolicy::new(
                &AggregationPolicy::Async { min_updates: quorum },
                &schedule,
            );
            let stats = schedule.run(|t, ev| round.on_event(t, ev));
            prop_assert_eq!(
                stats.makespan_secs.to_bits(), close_at.to_bits(),
                "round closed at {} instead of the quorum landing {}",
                stats.makespan_secs, close_at
            );
            prop_assert_eq!(round.verdicts().len(), landings.len() - quorum);
        }
    }
}
