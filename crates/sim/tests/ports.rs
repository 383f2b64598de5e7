//! The port contract: a delivery knows which of the receiver's links it
//! arrived on.
//!
//! On random graphs, nodes run random scripts of `send` / `broadcast` /
//! `broadcast_with_loopback` / `send_self`, and every message is relayed
//! a few hops by a randomly chosen primitive, so ports are stamped both
//! at boot and from inside dispatches (a parallel window's included).
//! Every delivery must see `ctx.neighbors()[port] == from`; loopbacks,
//! timers and `on_start` must see no port; and the recorded
//! `(time, to, from, port)` list must be the same on the global queue
//! and on the parallel scheduler pinned to 1, 2 and 4 workers.
//!
//! Carrying the port must not fatten a queued event: the size test pins
//! it, and its slab node in the calendar queue, at one cache line.

use ftgcs_sim::clock::RateModel;
use ftgcs_sim::engine::{queued_event_sizes, Ctx, SimBuilder, SimConfig};
use ftgcs_sim::network::{DelayConfig, DelayDistribution};
use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};
use ftgcs_sim::shard::{Partition, SchedulerKind};
use ftgcs_sim::time::{SimDuration, SimTime};
use ftgcs_sim::trace::{Row, RowValues, Trace};
use proptest::prelude::*;

/// The shape of the algorithm crates' messages: 16 bytes, and room in
/// the tag for the event's own.
#[derive(Debug, Clone, Copy)]
enum Wire {
    #[allow(
        dead_code,
        reason = "a second payload-free variant, as `core::Msg` has"
    )]
    Beat,
    #[allow(dead_code, reason = "a 4-byte payload, as `core::Msg::VirtualPulse`")]
    Tagged { instance: u32 },
    /// A relay with this many hops left.
    Relay { hops: u64 },
}

#[test]
fn a_queued_event_stays_one_cache_line() {
    assert_eq!(std::mem::size_of::<Wire>(), 16);
    // `Pending<Wire>`, and the slab node that holds it with its key and
    // its list link.
    assert_eq!(queued_event_sizes::<Wire>(), (32, 64));
}

/// One scripted action: which primitive, and an argument picking the
/// neighbour for `send`.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    arg: usize,
}

/// Runs its script off timers, relays what it receives, and records
/// every delivery as a `"delivery"` row `[from, port]` (`-1`: none).
struct Scripted {
    script: Vec<(f64, Op)>,
}

impl Scripted {
    fn act(ctx: &mut Ctx<'_, Wire>, op: Op, hops: u64) {
        let msg = Wire::Relay { hops };
        match op.kind % 4 {
            0 => {
                // A neighbour if there is one, else oneself: `send`
                // takes both.
                let me = ctx.my_id();
                let to = ctx.neighbors().get(op.arg % ctx.neighbors().len().max(1));
                let to = to.copied().unwrap_or(me);
                ctx.send(to, msg);
            }
            1 => ctx.broadcast(msg),
            2 => ctx.broadcast_with_loopback(msg),
            _ => ctx.send_self(msg),
        }
    }
}

impl Behavior<Wire> for Scripted {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire>) {
        assert_eq!(ctx.sender_port(), None, "on_start is no delivery");
        for (i, &(at, _)) in self.script.iter().enumerate() {
            ctx.set_timer_at(TrackId::MAIN, at, TimerTag::new(0).with_b(i as u64));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, tag: TimerTag) {
        assert_eq!(ctx.sender_port(), None, "a timer is no delivery");
        let (_, op) = self.script[tag.b as usize];
        Scripted::act(ctx, op, 2);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire>, from: NodeId, msg: &Wire) {
        let port = ctx.sender_port();
        if from == ctx.my_id() {
            assert_eq!(port, None, "a loopback arrives on no port");
        } else {
            let port = port.expect("a neighbour's message arrives on a port");
            assert_eq!(
                ctx.neighbors()[port],
                from,
                "port {port} of {}",
                ctx.my_id()
            );
        }
        ctx.emit(
            "delivery",
            &[from.index() as f64, port.map_or(-1.0, |p| p as f64)],
        );
        if let Wire::Relay { hops } = *msg {
            if hops > 0 {
                let op = Op {
                    kind: ctx.rng().next_u32() as u8,
                    arg: ctx.rng().index(64),
                };
                Scripted::act(ctx, op, hops - 1);
            }
        }
    }
}

fn config(seed: u64, scheduler: SchedulerKind) -> SimConfig {
    SimConfig {
        delay: DelayConfig::new(
            SimDuration::from_millis(1.0),
            SimDuration::from_micros(300.0),
            DelayDistribution::Uniform,
        ),
        rho: 1e-4,
        rate_model: RateModel::RandomConstant,
        seed,
        sample_interval: None,
        scheduler,
        telemetry: false,
    }
}

/// The deliveries of one run: `(time, to, [from, port])` in dispatch
/// order.
fn deliveries(
    n: usize,
    edges: &[(usize, usize)],
    scripts: &[Vec<(f64, Op)>],
    seed: u64,
    scheduler: SchedulerKind,
) -> Vec<(SimTime, NodeId, RowValues)> {
    let mut b = SimBuilder::new(config(seed, scheduler));
    for script in scripts {
        b.add_node(Box::new(Scripted {
            script: script.clone(),
        }));
    }
    for &(x, y) in edges {
        b.add_edge(NodeId(x), NodeId(y));
    }
    let mut sim = b.build();
    let mut trace = Trace::new();
    sim.run_until_with(SimTime::from_secs(0.1), &mut trace);
    assert_eq!(sim.node_count(), n);
    let rows = trace.rows;
    rows.into_iter()
        .map(
            |Row {
                 t, node, values, ..
             }| (t, node, values),
        )
        .collect()
}

proptest! {
    #[test]
    fn every_delivery_names_its_port_on_every_scheduler(
        n in 2usize..14,
        seed in 0u64..1_000_000,
        picks in prop::collection::vec((0usize..14, 0usize..14), 0..40),
        ops in prop::collection::vec((0usize..14, 0u8..4, 0usize..64, 0u32..50), 1..40),
    ) {
        // A random simple graph, its edges in the order drawn (ports
        // are positions in that order, so the order is part of the
        // input).
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (x, y) in picks {
            let (x, y) = (x % n, y % n);
            if x != y && !edges.contains(&(x, y)) && !edges.contains(&(y, x)) {
                edges.push((x, y));
            }
        }
        let mut scripts: Vec<Vec<(f64, Op)>> = vec![Vec::new(); n];
        for (who, kind, arg, at) in ops {
            scripts[who % n].push((f64::from(at) * 1e-3, Op { kind, arg }));
        }

        let global = deliveries(n, &edges, &scripts, seed, SchedulerKind::Global);
        // Guards the comparison below against two empty lists: only a
        // plain broadcast from an isolated node delivers nothing.
        let linked = |v: usize| edges.iter().any(|&(x, y)| x == v || y == v);
        let delivers = scripts.iter().enumerate().any(|(v, script)| {
            script.iter().any(|(_, op)| op.kind % 4 != 1 || linked(v))
        });
        prop_assert_eq!(!global.is_empty(), delivers);
        for workers in [1usize, 2, 4] {
            let parallel = SchedulerKind::Parallel {
                partition: Partition::by_blocks(n, n.div_ceil(4)),
                workers,
            };
            let got = deliveries(n, &edges, &scripts, seed, parallel);
            prop_assert!(
                got == global,
                "deliveries differ on {workers} worker(s): {} vs {} on the global queue",
                got.len(),
                global.len()
            );
        }
    }
}
