//! Node identities and the behavior interface.
//!
//! A simulation hosts a fixed set of nodes connected by a communication
//! graph. Each node is driven by a [`Behavior`]: a state machine reacting to
//! simulation start, message arrivals, and timer expirations. Correct
//! algorithm nodes and Byzantine adversaries are both just behaviors — the
//! engine gives them the same interface, and fault tolerance must come from
//! the algorithm, not the harness.

use crate::engine::Ctx;

/// Identifier of a node in a simulation (dense, `0..n`).
///
/// # Examples
///
/// ```
/// use ftgcs_sim::node::NodeId;
///
/// let v = NodeId(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(format!("{v}"), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

/// Identifier of a logical clock track owned by a node.
///
/// Track [`TrackId::MAIN`] is created automatically for every node and holds
/// the node's *logical clock* `L_v`; behaviors may create additional tracks
/// (e.g. one virtual clock per estimated neighbor cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(pub usize);

impl TrackId {
    /// The main logical-clock track, present on every node.
    pub const MAIN: TrackId = TrackId(0);

    /// Returns the dense per-node index of this track.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Application-defined tag identifying why a timer fired.
///
/// `kind` discriminates the timer's purpose; `a` and `b` carry parameters
/// (a round number, a cluster instance index, ...). The engine never
/// interprets tags.
///
/// # Examples
///
/// ```
/// use ftgcs_sim::node::TimerTag;
///
/// const PULSE: u32 = 1;
/// let tag = TimerTag::new(PULSE).with_a(7);
/// assert_eq!(tag.kind, PULSE);
/// assert_eq!(tag.a, 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TimerTag {
    /// Purpose discriminator.
    pub kind: u32,
    /// First parameter (e.g. an instance index).
    pub a: u32,
    /// Second parameter (e.g. a round number).
    pub b: u64,
}

impl TimerTag {
    /// Creates a tag with the given kind and zeroed parameters.
    #[must_use]
    pub fn new(kind: u32) -> Self {
        TimerTag { kind, a: 0, b: 0 }
    }

    /// Sets the first parameter.
    #[must_use]
    pub fn with_a(mut self, a: u32) -> Self {
        self.a = a;
        self
    }

    /// Sets the second parameter.
    #[must_use]
    pub fn with_b(mut self, b: u64) -> Self {
        self.b = b;
        self
    }
}

/// Handle to a pending timer, usable for cancellation.
///
/// The handle carries the timer slot's reuse epoch, so cancelling a
/// handle whose timer has already fired (or been cancelled) is a
/// guaranteed no-op even after the engine reuses the slot for a new
/// timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId {
    pub(crate) id: u32,
    pub(crate) epoch: u32,
}

/// The driver of a node: reacts to simulation events via the [`Ctx`] API.
///
/// Implementations hold all per-node algorithm state. The engine guarantees
/// run-to-completion semantics: callbacks of one node never interleave.
/// Behaviors must be [`Send`] because the parallel scheduler
/// ([`crate::shard::SchedulerKind::Parallel`]) dispatches different
/// nodes' callbacks on worker threads — a single behavior still only
/// ever runs on one thread at a time, so `Sync` is not required, but
/// shared test probes must use `Arc<Mutex<…>>` rather than
/// `Rc<RefCell<…>>`.
///
/// # Examples
///
/// A node that broadcasts one message at logical time 1.0 and counts
/// receipts:
///
/// ```
/// use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};
/// use ftgcs_sim::engine::Ctx;
///
/// struct Beacon { received: usize }
///
/// impl Behavior<&'static str> for Beacon {
///     fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
///         ctx.set_timer_at(TrackId::MAIN, 1.0, TimerTag::new(0));
///     }
///     fn on_timer(&mut self, ctx: &mut Ctx<'_, &'static str>, _tag: TimerTag) {
///         ctx.broadcast("ping");
///     }
///     fn on_message(&mut self, _ctx: &mut Ctx<'_, &'static str>, _from: NodeId, _m: &&'static str) {
///         self.received += 1;
///     }
/// }
/// ```
pub trait Behavior<M>: Send {
    /// Called once at simulation time 0, in node-id order.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>);

    /// Called when a message from `from` is delivered to this node.
    ///
    /// `from` is a neighbour or the node itself (a loopback). For a
    /// neighbour, [`Ctx::sender_port`] is `Some(p)` with
    /// `ctx.neighbors()[p] == from`; for a loopback it is `None`.
    /// Per-sender state belongs in a table indexed by that port, built
    /// from `ctx.neighbors()` in [`Behavior::on_start`] — the neighbour
    /// list never changes during a run.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: &M);

    /// Called when a timer set by this node fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: TimerTag);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_conversions() {
        let v: NodeId = 5usize.into();
        assert_eq!(v, NodeId(5));
        assert_eq!(v.index(), 5);
        assert_eq!(v.to_string(), "n5");
    }

    #[test]
    fn timer_tag_builders() {
        let t = TimerTag::new(9).with_a(2).with_b(1000);
        assert_eq!((t.kind, t.a, t.b), (9, 2, 1000));
        assert_ne!(t, TimerTag::new(9));
    }

    #[test]
    fn main_track_is_zero() {
        assert_eq!(TrackId::MAIN.index(), 0);
    }
}
