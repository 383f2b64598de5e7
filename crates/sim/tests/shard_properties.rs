//! Property tests for the event queue, the partitioned scheduler and the
//! timer machinery.
//!
//! Three invariants, each fuzzed over generated inputs:
//!
//! 1. **Pop order** — against `std`'s `BinaryHeap` as the reference,
//!    events pop in exactly the `(time, insertion)` order wherever the
//!    calendar queue puts an event (the current day, either edge of the
//!    span of its days ring, years ahead, the saturated last day), at
//!    every width a delay bound from 1 µs to 1 s gives it and whatever
//!    horizon the pop is held to (none, the head's own time, just below
//!    it — where nothing may pop or move) — with the queue's work, not
//!    its time, bounded at both density extremes.
//! 2. **Lookahead floor & dispatch order** — under the parallel
//!    scheduler with cross-shard traffic, the merged trace lists
//!    deliveries in nondecreasing global time order (the scheduler
//!    invariant: no shard outruns an earlier event pending elsewhere),
//!    and every latency lies in `[d − U, d]` end to end (the delay model
//!    survives the cross-shard outbox path).
//! 3. **Timer invalidation** — a cancelled timer never fires, and no
//!    timer double-fires, however many generation-bumping rate changes
//!    and track jumps interleave with the cancellations.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::{Arc, Mutex};

use ftgcs_sim::clock::RateModel;
use ftgcs_sim::engine::{Ctx, SimBuilder, SimConfig};
use ftgcs_sim::network::{DelayConfig, DelayDistribution};
use ftgcs_sim::node::{Behavior, NodeId, TimerId, TimerTag, TrackId};
use ftgcs_sim::shard::{EventQueue, Partition, SchedulerKind};
use ftgcs_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Property 1: pop order.
// ---------------------------------------------------------------------

/// An [`EventQueue`] beside the reference it must agree with: `std`'s
/// heap over `(time, insertion number)`, the order the queue's public
/// API promises.
struct Twin {
    queue: EventQueue<u64>,
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    pushed: u64,
    now: SimTime,
    /// State of the generator that draws each pop's horizon.
    horizons: u64,
}

fn lcg(state: u64) -> u64 {
    state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// Days in the queue's ring of days, and so in one of its years.
const DAYS: f64 = 4096.0;

/// The delay bounds the pop-order property draws from, each with the
/// day width the queue takes from it: the narrowest power of two whose
/// `DAYS` days span the bound. (The order the test checks does not
/// depend on the widths; where the edge cases land does.)
const BOUNDS: [(f64, f64); 3] = [
    (1e-6, 1.0 / (1u64 << 31) as f64),
    (1e-3, 1.0 / (1u64 << 21) as f64),
    (1.0, 1.0 / (1u64 << 12) as f64),
];

impl Twin {
    fn new(max_delay: f64) -> Self {
        Twin {
            queue: EventQueue::new(SimDuration::from_secs(max_delay)),
            heap: BinaryHeap::new(),
            pushed: 0,
            now: SimTime::ZERO,
            horizons: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn push(&mut self, time: SimTime) {
        self.queue.push(time, self.pushed);
        self.heap.push(Reverse((time, self.pushed)));
        self.pushed += 1;
    }

    /// A pop held to the last instant before `head`: it must return
    /// nothing and move nothing — the length stays, and a second such
    /// pop (the first may have made the head's day current) leaves the
    /// work counters where they were.
    fn pop_below(&mut self, head: SimTime) -> Result<(), String> {
        let below = SimTime::from_secs(head.as_secs().next_down());
        let len = self.queue.len();
        let first = self.queue.pop_before(below);
        let stats = self.queue.stats();
        let second = self.queue.pop_before(below);
        if first.is_some() || second.is_some() {
            return Err(format!(
                "popped {first:?}, {second:?} below the head {head:?}"
            ));
        }
        if self.queue.len() != len || self.queue.stats() != stats {
            return Err(format!("a pop below the head {head:?} moved the queue"));
        }
        Ok(())
    }

    /// Pops both, the queue under a horizon drawn per pop: none, the
    /// head's own time (the bound is inclusive), a microsecond past it,
    /// or the head's time after a try just below it. An empty queue is
    /// asked with no horizon. `Err` names the first disagreement.
    fn pop(&mut self) -> Result<Option<SimTime>, String> {
        self.horizons = lcg(self.horizons);
        let head = self.heap.peek().map(|&Reverse((time, _))| time);
        let until = match (head, self.horizons >> 62) {
            (None, _) | (_, 0) => SimTime::from_secs(f64::INFINITY),
            (Some(head), 1) => head,
            (Some(head), 2) => head + SimDuration::from_micros(1.0),
            (Some(head), _) => {
                self.pop_below(head)?;
                head
            }
        };
        let got = self.queue.pop_before(until);
        let want = self.heap.pop().map(|Reverse(e)| e);
        if got != want {
            return Err(format!("queue popped {got:?}, heap {want:?}"));
        }
        if let Some((time, _)) = got {
            self.now = time;
        }
        Ok(got.map(|(time, _)| time))
    }

    /// A hold model: `pops` times, pop one event and push one a random
    /// lead in `[0, spread)` ahead — steady traffic at one density.
    fn hold(&mut self, pops: usize, spread: f64, lcg: &mut u64) -> Result<(), String> {
        for _ in 0..pops {
            self.pop()?;
            *lcg = self::lcg(*lcg);
            let lead = (*lcg >> 11) as f64 / (1u64 << 53) as f64 * spread;
            self.push(self.now + SimDuration::from_secs(lead));
        }
        Ok(())
    }

    fn drain(&mut self) -> Result<(), String> {
        while self.pop()?.is_some() {}
        if self.queue.is_empty() {
            Ok(())
        } else {
            Err(format!("heap ran dry with {} queued", self.queue.len()))
        }
    }
}

proptest! {
    #[test]
    fn pops_match_a_binary_heap_wherever_an_event_lands(
        bound in 0usize..BOUNDS.len(),
        ops in prop::collection::vec((0u8..16, 0.0f64..1.0), 50..400),
    ) {
        let (max_delay, width) = BOUNDS[bound];
        let mut twin = Twin::new(max_delay);
        // Some 40 events in flight, a millisecond of leads, 3000 pops:
        // days, years or beyond a ring of years ahead, by the bound.
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        for n in 0..40 {
            twin.push(SimTime::from_secs(1e-5 * f64::from(n)));
        }
        if let Err(e) = twin.hold(3000, 1e-3, &mut lcg) {
            prop_assert!(false, "warm-up: {e}");
        }
        for (kind, x) in ops {
            let now = twin.now.as_secs();
            // A time `x` into the day `days` after the current one.
            let day_ahead = |days: f64| ((now / width).floor() + days + x) * width;
            let time = match kind {
                // Pop (a third of the ops).
                0..=3 => {
                    if let Err(e) = twin.pop() {
                        prop_assert!(false, "{e}");
                    }
                    continue;
                }
                // This very instant: equal times, distinct ties.
                4 => now,
                // The current day or the next few.
                5 => now + x * 1e-6,
                // Somewhere in the year.
                6 | 7 => now + x * 1e-3,
                // Years ahead; beyond the ring of years.
                8 => now + 1.0 + x * 100.0,
                9 => now + 1e6 * (1.0 + x),
                // Where doubles are integers and every width saturates
                // the day index (once popped, `now` is up there too and
                // the cases above add nothing to it).
                10 => 9.0e15 + (x * 64.0).floor(),
                // The empty-queue sentinel's time.
                11 => f64::INFINITY,
                // Either edge of the days ring's span, and just past it
                // (into the ring of years).
                12 => day_ahead(DAYS - 1.0),
                13 => day_ahead(DAYS),
                14 => day_ahead(DAYS + 1.0),
                // The first day of the next year, with a later day of
                // that year already in the days ring.
                _ => {
                    twin.push(SimTime::from_secs(day_ahead(DAYS)));
                    ((now / width / DAYS).floor() + 1.0) * DAYS * width
                }
            };
            twin.push(SimTime::from_secs(time));
        }
        if let Err(e) = twin.drain() {
            prop_assert!(false, "drain: {e}");
        }
    }
}

/// The horizon cases by name: the head in the current day and in the
/// late tier, a bound below, at and between equal times, no bound on an
/// empty queue.
#[test]
fn finite_horizons_hold_the_head_back_and_nothing_else() {
    let t = SimTime::from_secs;
    let mut twin = Twin::new(1e-3);
    let mut lcg = 3;
    for n in 0..40 {
        twin.push(t(1e-5 * f64::from(n)));
    }
    twin.hold(3000, 1e-3, &mut lcg).unwrap();
    twin.drain().unwrap();
    assert_eq!(twin.queue.pop_before(t(f64::INFINITY)), None);

    // Head in a later day; then, that day current, a push behind it
    // (the late tier) becomes the head.
    let base = twin.now.as_secs();
    let (first, second) = (twin.pushed, twin.pushed + 1);
    twin.push(t(base + 0.5));
    twin.push(t(base + 0.5));
    twin.pop_below(t(base + 0.5)).unwrap();
    let late = twin.queue.stats().late_pushes;
    twin.push(t(base + 0.25));
    assert_eq!(twin.queue.stats().late_pushes, late + 1);
    twin.pop_below(t(base + 0.25)).unwrap();
    assert_eq!(
        twin.queue.pop_before(t(base + 0.4)),
        Some((t(base + 0.25), second + 1))
    );
    // Inclusive, and between two equal times the earlier insertion.
    assert_eq!(
        twin.queue.pop_before(t(base + 0.5)),
        Some((t(base + 0.5), first))
    );
    twin.pop_below(t(base + 0.5)).unwrap();
    assert_eq!(
        twin.queue.pop_before(t(base + 0.5)),
        Some((t(base + 0.5), second))
    );
    assert_eq!(twin.queue.pop_before(t(f64::INFINITY)), None);
    assert!(twin.queue.is_empty());
}

#[test]
fn one_crowded_instant_costs_n_log_n_comparisons() {
    const N: u64 = 100_000;
    let mut twin = Twin::new(1e-3);
    let mut lcg = 7;
    for n in 0..64 {
        twin.push(SimTime::from_secs(1e-5 * f64::from(n)));
    }
    twin.hold(4000, 1e-3, &mut lcg).unwrap();
    let before = twin.queue.stats();
    // Half the crowd is queued ahead of time and lands in one day's
    // list; the other half arrives while that day is current, one push
    // per pop — into the sorted day if pushes cost O(day), into the
    // heap tier if they cost O(log day).
    let instant = twin.now + SimDuration::from_secs(0.5);
    for _ in 0..N / 2 {
        twin.push(instant);
    }
    while twin.now < instant {
        twin.pop().unwrap();
    }
    for _ in 0..N / 2 {
        twin.push(instant);
        twin.pop().unwrap();
    }
    twin.drain().unwrap();
    let stats = twin.queue.stats();
    let compares = stats.key_compares - before.key_compares;
    assert!(
        compares < 2 * N * u64::from(N.ilog2() + 1),
        "{compares} comparisons for {N} events at one instant"
    );
    assert!(stats.late_pushes - before.late_pushes >= N / 2);
    assert!(
        stats.entries_walked - before.entries_walked < N,
        "{} list steps wasted on a crowd that is all due at once",
        stats.entries_walked - before.entries_walked
    );
}

#[test]
fn a_million_empty_days_between_events_are_never_walked() {
    const N: u64 = 6000;
    let mut twin = Twin::new(1e-3);
    let mut lcg = 7;
    for n in 0..64 {
        twin.push(SimTime::from_secs(1e-5 * f64::from(n)));
    }
    // Leads within a millisecond, 64 in flight.
    twin.hold(4000, 1e-3, &mut lcg).unwrap();
    twin.drain().unwrap();
    let before = twin.queue.stats();
    // Now one event every 100 s: 2·10⁸ days of 2⁻²¹ s apart, fifty
    // thousand years, so each is beyond even the ring of years when
    // pushed.
    for n in 1..=N {
        twin.push(twin.now + SimDuration::from_secs(100.0 * n as f64));
    }
    twin.drain().unwrap();
    let stats = twin.queue.stats();
    let sorted = stats.buckets_sorted - before.buckets_sorted;
    assert!(sorted <= N, "{sorted} days sorted for {N} events");
    // Each pop may look through every queued event a few times (its
    // year's list, the slab for the first bucket); day by day it would
    // be 2·10⁸ steps per event.
    let walked = stats.entries_walked - before.entries_walked;
    assert!(
        walked < N * 20_000,
        "{walked} steps for {N} sparse events: walking the empty days?"
    );
}

// ---------------------------------------------------------------------
// Property 2: lookahead floor.
// ---------------------------------------------------------------------

/// Broadcasts its current Newtonian time on a fixed cadence; receivers
/// emit one `(from, send_time)` row per delivery, stamped by the engine
/// with the receiver and the delivery time. (Reading Newtonian time in a
/// behavior is the omniscient-observer convention used by trace
/// recorders; here it measures the network itself.)
struct Beacon;

impl Behavior<f64> for Beacon {
    fn on_start(&mut self, ctx: &mut Ctx<'_, f64>) {
        ctx.set_timer_at(TrackId::MAIN, 0.01, TimerTag::new(0));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, f64>, _tag: TimerTag) {
        let now = ctx.newtonian_now().as_secs();
        ctx.broadcast(now);
        let next = ctx.track_value(TrackId::MAIN) + 0.05;
        ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(0));
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, f64>, from: NodeId, msg: &f64) {
        ctx.emit("delivery", vec![from.index() as f64, *msg]);
    }
}

proptest! {
    #[test]
    fn no_message_beats_the_lookahead_horizon(
        seed in 0u64..1_000_000,
        nodes in 4usize..12,
        block in 1usize..5,
        dist in 0u8..3,
    ) {
        // The cross-shard assertion at the bottom needs a genuinely
        // partitioned network; discard 1-shard cases before paying for
        // the simulation.
        prop_assume!(block < nodes);
        let d = 1e-3;
        let u = 4e-4;
        let distribution = match dist {
            0 => DelayDistribution::Uniform,
            1 => DelayDistribution::AsymmetricById,
            _ => DelayDistribution::AlternatingByDst,
        };
        let partition = Partition::by_blocks(nodes, block);
        let config = SimConfig {
            delay: DelayConfig::new(
                SimDuration::from_secs(d),
                SimDuration::from_secs(u),
                distribution,
            ),
            rho: 1e-4,
            rate_model: RateModel::RandomConstant,
            seed,
            sample_interval: None,
            scheduler: SchedulerKind::Parallel {
                partition: partition.clone(),
                workers: 2,
            },
            telemetry: false,
        };
        let mut b = SimBuilder::new(config);
        let ids: Vec<NodeId> = (0..nodes).map(|_| b.add_node(Box::new(Beacon))).collect();
        // Ring plus one long chord: guarantees cross-shard edges for
        // every block size > 0.
        for i in 0..nodes {
            b.add_edge(ids[i], ids[(i + 1) % nodes]);
        }
        if nodes > 4 {
            b.add_edge(ids[0], ids[nodes / 2]);
        }
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(0.5));
        let deliveries = &sim.trace().rows;
        prop_assert!(!deliveries.is_empty(), "workload delivered nothing");
        let mut cross_shard = 0usize;
        // The trace lists rows in the merged dispatch order, which must
        // be the global time order: a barrier merge that interleaved two
        // shards' windows wrongly would show as a decreasing delivery
        // timestamp here. (A shard outrunning an arrival trips the
        // executor's own debug assertion.)
        let mut last_dispatch = f64::NEG_INFINITY;
        for row in deliveries {
            let (from, to) = (row.values[0] as usize, row.node.index());
            let (sent, delivered) = (row.values[1], row.t.as_secs());
            prop_assert!(
                delivered >= last_dispatch,
                "dispatch went backwards: {from}->{to} delivered at \
                 {delivered:.9} after an event at {last_dispatch:.9}"
            );
            last_dispatch = delivered;
            let latency = delivered - sent;
            prop_assert!(
                latency >= d - u - 1e-12,
                "message {from}->{to} beat the lookahead floor: \
                 latency {latency:.9} < d-U {:.9}",
                d - u
            );
            prop_assert!(
                latency <= d + 1e-12,
                "message {from}->{to} exceeded the delay bound: {latency:.9}"
            );
            if partition.shard_of(NodeId(from)) != partition.shard_of(NodeId(to)) {
                cross_shard += 1;
            }
        }
        // The property is about cross-shard traffic: make sure the
        // generated topology actually produced some.
        prop_assert!(cross_shard > 0, "no cross-shard messages exercised");
    }
}

// ---------------------------------------------------------------------
// Property 3: timer invalidation.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct TimerLog {
    fired: Vec<u64>,
    cancelled: BTreeSet<u64>,
    /// Tokens issued so far (dense `0..next_token`).
    next_token: u64,
    /// Tokens issued but neither fired nor cancelled yet.
    still_pending: BTreeSet<u64>,
}

/// Executes a generated script of timer ops on a tick cadence, logging
/// which data-timer tokens fire and which were cancelled first.
struct Scripted {
    ops: Vec<(u8, f64)>,
    next_op: usize,
    next_token: u64,
    /// Live handles: `(token, id)`; entries move to `retired` on fire.
    pending: Vec<(u64, TimerId)>,
    /// Handles of already-fired timers. Cancelling one is a stale
    /// cancel — the epoch in [`TimerId`] must make it a no-op even
    /// when the engine has reused the slot for a later timer.
    retired: Vec<(u64, TimerId)>,
    log: Arc<Mutex<TimerLog>>,
}

const TICK: f64 = 0.05;

impl Behavior<()> for Scripted {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        ctx.set_timer_at(TrackId::MAIN, TICK, TimerTag::new(0));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, tag: TimerTag) {
        if tag.kind == 1 {
            let mut log = self.log.lock().unwrap();
            log.fired.push(tag.b);
            log.still_pending.remove(&tag.b);
            drop(log);
            if let Some(pos) = self.pending.iter().position(|&(token, _)| token == tag.b) {
                self.retired.push(self.pending.swap_remove(pos));
            }
            return;
        }
        // Tick: run the next scripted op, then re-arm the tick.
        if let Some(&(op, value)) = self.ops.get(self.next_op) {
            self.next_op += 1;
            match op % 4 {
                0 => {
                    let token = self.next_token;
                    self.next_token += 1;
                    let target = ctx.track_value(TrackId::MAIN) + value * 4.0 * TICK;
                    let id =
                        ctx.set_timer_at(TrackId::MAIN, target, TimerTag::new(1).with_b(token));
                    self.pending.push((token, id));
                    let mut log = self.log.lock().unwrap();
                    log.next_token = self.next_token;
                    log.still_pending.insert(token);
                }
                1 => {
                    // Half the cancels target live timers (recorded as
                    // cancelled), half replay a stale handle of an
                    // already-fired timer (must be a no-op).
                    if value < 0.5 {
                        if !self.pending.is_empty() {
                            let idx = (value * 2.0 * self.pending.len() as f64) as usize
                                % self.pending.len();
                            let (token, id) = self.pending.swap_remove(idx);
                            ctx.cancel_timer(id);
                            let mut log = self.log.lock().unwrap();
                            log.cancelled.insert(token);
                            log.still_pending.remove(&token);
                        }
                    } else if !self.retired.is_empty() {
                        let idx = ((value - 0.5) * 2.0 * self.retired.len() as f64) as usize
                            % self.retired.len();
                        let (_, stale) = self.retired[idx];
                        ctx.cancel_timer(stale);
                    }
                }
                2 => ctx.set_multiplier(TrackId::MAIN, 1.0 + value),
                _ => {
                    let v = ctx.track_value(TrackId::MAIN);
                    ctx.jump_track(TrackId::MAIN, v + value * TICK);
                }
            }
        }
        let next = ctx.track_value(TrackId::MAIN) + TICK;
        ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(0));
    }

    fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &()) {}
}

proptest! {
    #[test]
    fn cancelled_timers_never_fire_despite_generation_churn(
        ops in prop::collection::vec((0u8..4, 0.0f64..1.0), 1..48),
    ) {
        let horizon = 4.0 * TICK * (ops.len() as f64 + 4.0);
        let log = Arc::new(Mutex::new(TimerLog::default()));
        let config = SimConfig {
            rho: 1e-4,
            seed: 13,
            ..SimConfig::default()
        };
        let mut b = SimBuilder::new(config);
        b.add_node(Box::new(Scripted {
            ops,
            next_op: 0,
            next_token: 0,
            pending: Vec::new(),
            retired: Vec::new(),
            log: Arc::clone(&log),
        }));
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(horizon));
        let log = log.lock().unwrap();
        for token in &log.fired {
            prop_assert!(
                !log.cancelled.contains(token),
                "cancelled timer {token} fired anyway"
            );
        }
        let mut seen = BTreeSet::new();
        for token in &log.fired {
            prop_assert!(
                seen.insert(*token),
                "timer {token} fired more than once (stale generation \
                 entry dispatched)"
            );
        }
        // Stale cancels must not have killed later timers: every token
        // that was neither cancelled nor still pending at the horizon
        // fired exactly once. (`seen` already proves "at most once".)
        let issued: BTreeSet<u64> = (0..log.next_token).collect();
        for token in issued {
            prop_assert!(
                seen.contains(&token)
                    || log.cancelled.contains(&token)
                    || log.still_pending.contains(&token),
                "timer {token} vanished: not fired, not cancelled, not \
                 pending (a stale cancel killed a reused slot?)"
            );
        }
    }
}
