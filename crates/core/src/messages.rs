//! Wire messages of the FTGCS protocol.
//!
//! Correct nodes exchange only *pulses* — content-less beats whose
//! information is their timing (paper, Section 2) — plus the level pulses
//! of the global-skew estimator (Appendix C.2). The only payload is the
//! level counter, which merely compresses "one pulse per level" into a
//! single message, and the instance routing tag on [`Msg::VirtualPulse`],
//! which never leaves its sender (self-loopback only).

use ftgcs_sim::engine::Ctx;
use ftgcs_sim::node::NodeId;

/// A protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// A cluster-synchronization pulse. Content-less: receivers attribute
    /// it by sender identity and arrival time.
    Pulse,
    /// A self-loopback pulse of a *silent* estimator instance: node `v`
    /// simulating cluster `B`'s ClusterSync sends this to itself in place
    /// of broadcasting. Correct nodes ignore `VirtualPulse` from anyone
    /// but themselves, so the routing tag is trustworthy.
    VirtualPulse {
        /// Index of the estimator instance on the sending node.
        instance: u32,
    },
    /// A max-estimator level pulse: "my estimate `M_v` has crossed level
    /// `level`" (Lemma C.2). Equivalent to `level` content-less pulses;
    /// receivers keep the per-sender maximum.
    Level {
        /// The crossed level (multiples of the configured level unit).
        level: u64,
    },
}

/// Who can have sent a delivery to this node, in the order per-sender
/// tables are laid out: its neighbours by port, then the node itself (a
/// loopback arrives on no port). Such a table is built once, when a node
/// starts, so that a delivery finds its sender's entry by index — see
/// [`sender_index`] — and never by searching for `from`.
pub(crate) fn senders<'c>(ctx: &'c Ctx<'_, Msg>) -> impl Iterator<Item = NodeId> + 'c {
    ctx.neighbors().iter().copied().chain([ctx.my_id()])
}

/// Index, in a table of `len` entries laid out by [`senders`], of the
/// sender of the message being delivered.
pub(crate) fn sender_index(ctx: &Ctx<'_, Msg>, len: usize) -> usize {
    ctx.sender_port().unwrap_or(len - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_small_and_copyable() {
        // Pulses must stay cheap: they are broadcast every round.
        assert!(std::mem::size_of::<Msg>() <= 16);
        let m = Msg::Level { level: 7 };
        let n = m;
        assert_eq!(m, n);
    }

    #[test]
    fn a_queued_message_is_one_cache_line() {
        // `Pending<Msg>` and the calendar queue's slab node holding it:
        // a field added to either, or to `Msg`, must not push an event
        // onto a second line (that cost the bare queue 4-5 %).
        assert_eq!(ftgcs_sim::engine::queued_event_sizes::<Msg>(), (32, 64));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Msg::Pulse), "Pulse");
        assert!(format!("{:?}", Msg::VirtualPulse { instance: 2 }).contains('2'));
    }
}
