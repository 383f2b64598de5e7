//! The event queue, and how the network is partitioned into shards of it.
//!
//! Every scheduler stores its events in the one queue type here,
//! [`Shard`]: a two-level calendar queue popping in `(time, tie)` order.
//! The model bounds every message delay from above, by `d`, so nearly all
//! queued events are due within a narrow band of "now". That is the good
//! case for a calendar queue: a push is an O(1) append to the list of the
//! time bucket the event is due in, and a bucket is sorted only when it
//! becomes current — a dozen comparisons on adjacent memory where a
//! binary heap of a few thousand 64-byte entries sifts through a dozen
//! scattered levels. A k-member cluster pulse enqueues its k² fan-out as
//! k² appends. The bucket width comes from the same bound: the queue's
//! ring of days spans `d`, so a message goes straight to its day however
//! far ahead of "now" it is due (Brown's calendar-queue sizing problem,
//! CACM 1988, answered by the model). The width cannot change the
//! dispatch order (see [`Shard`]).
//!
//! [`SchedulerKind::Global`] drains a single such queue on the calling
//! thread. [`SchedulerKind::Parallel`] splits the network along the seam
//! the paper's model provides — every message is delayed by at least
//! `d − U > 0` — into one queue per [`Partition`] shard and advances
//! them on several threads between lookahead barriers (see
//! [`crate::par`]). Events carry a `(time, tie)` key whose tie the engine
//! derives from `(source, per-source counter)`, so the dispatch order is
//! the same total order on one queue, on many, and on every thread count
//! — `tests/shard_equivalence.rs` pins it byte-for-byte. The delay floor
//! `d − U` is therefore a *performance* knob (larger floor → longer
//! windows), never a correctness input.
//!
//! An event crosses the queue's boundary once in each direction:
//! `Shard::push` is inlined up to the expression that builds the
//! payload, which is so written once, into its slab node, and
//! `Shard::pop_if`, the only pop, hands it from there to the dispatch
//! loop it is inlined into. (Every further copy through the stack was a
//! 16-byte reload of bytes just stored in 8-byte pieces, which the store
//! buffer cannot forward: EXPERIMENTS.md, "Cost of moving an event".)

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// Assignment of simulation nodes to scheduler shards.
///
/// Shard ids are dense (`0..shard_count`). Every partition is sound —
/// all traffic is delayed by `≥ d − U` — so a good one is a matter of
/// cost: few edges cut (a message that crosses shards is staged and
/// merged, one that stays is a plain push) and a handful of shards per
/// worker, each fat enough to keep its calendar queue busy. For the
/// paper's cluster graphs that is a few contiguous runs of clusters per
/// worker (see `ftgcs::cluster::worker_partition`).
///
/// # Examples
///
/// ```
/// use ftgcs_sim::shard::Partition;
/// use ftgcs_sim::node::NodeId;
///
/// // Two clusters of 4 nodes each.
/// let p = Partition::by_blocks(8, 4);
/// assert_eq!(p.shard_count(), 2);
/// assert_eq!(p.shard_of(NodeId(5)), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    shard_of: Vec<u32>,
    shard_count: usize,
}

impl Partition {
    /// All nodes in one shard — the degenerate case, equivalent to the
    /// single global queue.
    #[must_use]
    pub fn single(nodes: usize) -> Self {
        Partition {
            shard_of: vec![0; nodes],
            shard_count: 1,
        }
    }

    /// Contiguous blocks of `block` nodes per shard (the layout of
    /// cluster graphs, whose cluster `c` owns nodes `c·k..(c+1)·k`).
    /// The last shard may be smaller when `block` does not divide
    /// `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero.
    #[must_use]
    pub fn by_blocks(nodes: usize, block: usize) -> Self {
        assert!(block > 0, "shard block size must be positive");
        let shard_of: Vec<u32> = (0..nodes).map(|i| (i / block) as u32).collect();
        let shard_count = shard_of.last().map_or(1, |&s| s as usize + 1);
        Partition {
            shard_of,
            shard_count,
        }
    }

    /// An explicit node → shard assignment (may be ragged).
    ///
    /// The shard count is `max(assignment) + 1`; empty shards in the
    /// middle of the range are allowed and harmless.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` shards are requested.
    #[must_use]
    pub fn from_assignment(assignment: Vec<usize>) -> Self {
        let shard_count = assignment.iter().max().map_or(1, |&s| s + 1);
        assert!(
            u32::try_from(shard_count).is_ok(),
            "shard count {shard_count} exceeds u32 range"
        );
        let shard_of = assignment.into_iter().map(|s| s as u32).collect();
        Partition {
            shard_of,
            shard_count,
        }
    }

    /// Number of shards (always at least 1).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Number of nodes covered by the partition.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.shard_of.len()
    }

    /// The shard owning `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the partition.
    #[must_use]
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.shard_of[node.index()] as usize
    }

    /// The dense node → shard map (one `u32` per node).
    pub(crate) fn shard_map(&self) -> &[u32] {
        &self.shard_of
    }
}

/// Resolves the worker-thread count for a parallel run: `requested`
/// exactly, or the machine's available parallelism when it is `0`,
/// clamped to `[1, shards]` (a shard is the unit of sequential work).
/// An explicit count is honoured even above the core count: the
/// dispatch order is byte-identical on every thread count, and a
/// count that does not depend on the host keeps the partition a
/// function of the spec alone.
#[must_use]
pub fn resolve_workers(requested: usize, shards: usize) -> usize {
    let avail = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    resolve_workers_from(requested, avail, shards)
}

/// Pure core of [`resolve_workers`].
fn resolve_workers_from(requested: usize, avail: usize, shards: usize) -> usize {
    let want = if requested > 0 { requested } else { avail };
    want.clamp(1, shards.max(1))
}

/// Which event scheduler a simulation uses.
///
/// Both variants dispatch events in the identical global order, so
/// switching the scheduler never changes a run's trace — only its
/// throughput. Both keep their events in the same store of per-shard
/// calendar queues: `Global` drains its one shard in a plain loop on the
/// calling thread; `Parallel` runs one queue per shard, on the calling
/// thread and `workers − 1` threads scoped to the `run_until_with` call,
/// between conservative lookahead barriers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// One shard drained in one loop, with no windows and no threads;
    /// the reference path, and the only one that runs at zero lookahead
    /// (`U = d`).
    #[default]
    Global,
    /// Per-shard queues advanced by `workers` threads (the caller is
    /// one of them) between `d − U` lookahead barriers. The merged
    /// trace is byte-identical to the global queue's on every worker
    /// count.
    Parallel {
        /// Node → shard assignment; must cover exactly the
        /// simulation's nodes.
        partition: Partition,
        /// Executing threads, honoured exactly even above the core
        /// count; `0` means auto (available parallelism). Always capped
        /// at the shard count. See [`resolve_workers`].
        workers: usize,
    },
}

/// Total dispatch order: earliest time first, tie-break among equal
/// times. The tie is either an insertion sequence number
/// ([`EventQueue::push`]) or, for the engine's node events, a
/// deterministic `(source, per-source counter)` encoding — the latter is
/// what makes the dispatch order independent of how events raced across
/// worker threads. Clock samples are not queued, so they have no key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key {
    pub(crate) time: SimTime,
    pub(crate) tie: u128,
}

/// Written out — two float tests, then the ties — because every bucket
/// sort, late-tier sift and tier pick pays for it, and the derived chain
/// goes through `SimTime`'s out-of-line `partial_cmp().expect()`. A
/// `SimTime` is never NaN, so "neither less nor greater" is "equal".
impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (a, b) = (self.time.as_secs(), other.time.as_secs());
        if a < b {
            std::cmp::Ordering::Less
        } else if a > b {
            std::cmp::Ordering::Greater
        } else {
            self.tie.cmp(&other.tie)
        }
    }
}

impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Key {
    /// Sentinel greater than every real key (empty-shard head).
    pub(crate) fn max() -> Key {
        Key {
            time: SimTime::from_secs(f64::INFINITY),
            tie: u128::MAX,
        }
    }
}

/// Deterministic tie for an event created by `node`: node events order
/// by `(node, counter)` among equal times.
pub(crate) fn tie_for_node(node: NodeId, counter: u64) -> u128 {
    ((node.index() as u128 + 1) << 64) | u128::from(counter)
}

/// Buckets ("days") in the sliding ring of days; a power of two. It and
/// the ring of years cost a shard `DAYS + YEARS` `u32` list heads —
/// 20 KB — and nothing else.
const DAY_BITS: u32 = 12;
const DAYS: usize = 1 << DAY_BITS;
const DAY_MASK: u64 = DAYS as u64 - 1;
/// Years (`DAYS` aligned days each) in the ring of years.
const YEARS: usize = 1 << 10;
const YEAR_MASK: u64 = YEARS as u64 - 1;
/// End-of-list marker of the intrusive lists.
const NIL: u32 = u32::MAX;
/// Bucket widths are `2^e` seconds for `e` in `±WIDTH_EXP_MAX`, so the
/// reciprocal is an exact, finite `f64`.
const WIDTH_EXP_MAX: i32 = 1000;

/// The exponent of the bucket width for a maximum message delay `d`:
/// the narrowest `2^e` whose [`DAYS`] days span `d` (`DAYS · 2^e ≥ d`),
/// clamped to `±WIDTH_EXP_MAX`. Narrower, and a message would wait in
/// the ring of years; wider, and the days it lands in would be fatter
/// to sort.
fn width_exp(d: f64) -> i32 {
    (-WIDTH_EXP_MAX..WIDTH_EXP_MAX)
        .find(|&e| pow2(e + DAY_BITS as i32) >= d)
        .unwrap_or(WIDTH_EXP_MAX)
}

/// One queued event in the slab. `next` links it into its bucket's list
/// (or into the free list once `payload` is taken); it sits between the
/// two key halves so the node adds no padding to its key and payload.
struct Node<T> {
    time: SimTime,
    next: u32,
    tie: u128,
    payload: Option<T>,
}

/// Bytes one queued `T` occupies in the slab (see
/// `engine::queued_event_sizes`).
pub(crate) fn slab_node_size<T>() -> usize {
    std::mem::size_of::<Node<T>>()
}

/// A sortable reference to a slab node: the key travels with the index
/// so ordering a bucket never touches the slab.
#[derive(Clone, Copy)]
struct Handle {
    time: SimTime,
    node: u32,
    tie: u128,
}

impl Handle {
    fn of<T>(nodes: &[Node<T>], node: u32) -> Handle {
        let n = &nodes[node as usize];
        Handle {
            time: n.time,
            node,
            tie: n.tie,
        }
    }

    fn key(&self) -> Key {
        Key {
            time: self.time,
            tie: self.tie,
        }
    }
}

/// `2^exp` as an exact `f64` (`|exp| ≤ 1022`).
fn pow2(exp: i32) -> f64 {
    f64::from_bits(((1023 + exp) as u64) << 52)
}

/// `64 · WORDS` intrusive lists through a slab, with one occupancy bit
/// per list so runs of empty slots are skipped a word at a time.
struct Ring<const WORDS: usize> {
    heads: Vec<u32>,
    occupied: [u64; WORDS],
}

impl<const WORDS: usize> Ring<WORDS> {
    const SLOTS: usize = 64 * WORDS;

    fn new() -> Self {
        Ring {
            heads: vec![NIL; Self::SLOTS],
            occupied: [0; WORDS],
        }
    }

    fn is_occupied(&self, slot: usize) -> bool {
        self.occupied[slot / 64] & 1 << (slot % 64) != 0
    }

    /// Prepends node `idx` to `slot`'s list.
    fn link<T>(&mut self, nodes: &mut [Node<T>], slot: usize, idx: u32) {
        nodes[idx as usize].next = self.heads[slot];
        self.heads[slot] = idx;
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// Empties `slot`, returning the head of what was its list.
    fn take(&mut self, slot: usize) -> u32 {
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        std::mem::replace(&mut self.heads[slot], NIL)
    }

    /// The ring distance (`from..=SLOTS`) from slot `start` to the next
    /// occupied slot.
    fn next_occupied(&self, start: usize, from: usize) -> Option<usize> {
        let mut dist = from;
        while dist <= Self::SLOTS {
            let slot = (start + dist) & (Self::SLOTS - 1);
            let word = self.occupied[slot / 64] >> (slot % 64);
            if word != 0 {
                let dist = dist + word.trailing_zeros() as usize;
                return (dist <= Self::SLOTS).then_some(dist);
            }
            dist += 64 - slot % 64;
        }
        None
    }
}

/// One shard's event store: a two-level calendar queue.
///
/// Every queued event lives in one slab node and is due in bucket
/// ("day") `⌊time / w⌋`, where the width `w` is fixed at construction
/// from the maximum message delay `d`: the narrowest power of two with
/// `DAYS · w ≥ d` ([`width_exp`]). The `days` ring slides with the
/// current day: an event due at most [`DAYS`] days ahead is prepended,
/// in O(1), to the list of its day's slot (the current day's own slot
/// serves the day `DAYS` ahead). A message sent from the current day is
/// due at most `⌈d / w⌉ ≤ DAYS` days ahead, so every message lands there
/// straight away. Only an event due more than `DAYS` days ahead — a
/// timer beyond the span — goes to the list of its year (`DAYS` aligned
/// days) in the `years` ring, and moves to its day when the current day
/// enters that year. An event more than [`YEARS`] years ahead shares a
/// `years` slot with nearer ones and is told apart by recomputing its
/// year; it is stepped over once per `YEARS` years. When a day becomes
/// current its events move as [`Handle`]s into `cur`, sorted by [`Key`]
/// so pops take from the end. An event pushed into or before the current
/// day goes to `late`, a binary min-heap of handles, so such a push
/// costs O(log b) whatever the day holds. The next event is the smaller
/// of `cur`'s end and `late`'s root.
///
/// `⌊time / w⌋` is monotone in `time` for every `w > 0`, days dispatch
/// in index order and each is fully sorted, so the pop order is the
/// `(time, tie)` order **whatever `w` is** — the width only moves cost.
pub(crate) struct Shard<T> {
    nodes: Vec<Node<T>>,
    /// Head of the free list through `nodes`.
    free: u32,
    /// The next `DAYS` days, by day.
    days: Ring<{ DAYS / 64 }>,
    /// Events due more than `DAYS` days ahead when pushed, by year;
    /// never one of the current year.
    years: Ring<{ YEARS / 64 }>,
    /// The current day's events, sorted descending.
    cur: Vec<Handle>,
    /// Min-heap of events pushed at or before the current day.
    late: Vec<Handle>,
    /// Index of the current day: every event in the rings is due in a
    /// later one, every event in `cur` or `late` in this or an earlier.
    cur_bucket: u64,
    /// Reciprocal of the bucket width.
    inv_width: f64,
    len: usize,
    stats: QueueStats,
}

impl<T> Shard<T> {
    /// An empty queue sized for messages delayed at most `max_delay`.
    pub(crate) fn new(max_delay: SimDuration) -> Self {
        Shard {
            nodes: Vec::new(),
            free: NIL,
            days: Ring::new(),
            years: Ring::new(),
            cur: Vec::new(),
            late: Vec::new(),
            cur_bucket: 0,
            inv_width: pow2(-width_exp(max_delay.as_secs())),
            len: 0,
            stats: QueueStats::default(),
        }
    }

    /// Number of queued events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The day `time` is due in. The cast saturates: times too large
    /// for the width share the last day (and are ordered by its sort),
    /// negative ones the first.
    fn bucket_of(&self, time: SimTime) -> u64 {
        (time.as_secs() * self.inv_width) as u64
    }

    /// Enqueues one event. Inlined all the way up to the expression
    /// that builds `payload`, which is so written straight into the slab.
    #[inline(always)]
    pub(crate) fn push(&mut self, Key { time, tie }: Key, payload: T) {
        let node = Node {
            time,
            next: NIL,
            tie,
            payload: Some(payload),
        };
        let idx = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 queued events")
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        self.len += 1;
        let bucket = self.bucket_of(time);
        if bucket > self.cur_bucket {
            self.place(idx, bucket);
            return;
        }
        self.stats.late_pushes += 1;
        let handle = Handle {
            time,
            node: idx,
            tie,
        };
        // Sift up.
        let mut i = self.late.len();
        self.late.push(handle);
        while i > 0 {
            let parent = (i - 1) / 2;
            self.stats.key_compares += 1;
            if self.late[parent].key() <= handle.key() {
                break;
            }
            self.late[i] = self.late[parent];
            i = parent;
        }
        self.late[i] = handle;
    }

    /// Links node `idx`, due in the later day `bucket`, into its day, or
    /// into its year if that day is beyond the span of the days ring.
    fn place(&mut self, idx: u32, bucket: u64) {
        if bucket - self.cur_bucket <= DAYS as u64 {
            let day = (bucket & DAY_MASK) as usize;
            self.days.link(&mut self.nodes, day, idx);
        } else {
            let slot = ((bucket >> DAY_BITS) & YEAR_MASK) as usize;
            self.years.link(&mut self.nodes, slot, idx);
        }
    }

    /// Smallest key this shard could dispatch next (`Key::max()` when
    /// empty).
    pub(crate) fn head_key(&mut self) -> Key {
        self.settle();
        match (self.cur.last(), self.late.first()) {
            (Some(c), Some(l)) => c.key().min(l.key()),
            (Some(h), None) | (None, Some(h)) => h.key(),
            (None, None) => Key::max(),
        }
    }

    /// Pops the earliest event if `due` accepts its time — the caller's
    /// horizon, inclusive for the serial engine, strict for a parallel
    /// window. `None`, and nothing moved, if it does not or the shard is
    /// empty.
    #[inline]
    pub(crate) fn pop_if(&mut self, due: impl FnOnce(SimTime) -> bool) -> Option<(Key, T)> {
        self.settle();
        let (handle, from_late) = match (self.cur.last(), self.late.first()) {
            (Some(c), Some(l)) if l.key() < c.key() => (*l, true),
            (Some(c), _) => (*c, false),
            (None, Some(l)) => (*l, true),
            (None, None) => return None,
        };
        if !due(handle.time) {
            return None;
        }
        if from_late {
            self.pop_late();
        } else {
            self.cur.pop();
        }
        let node = &mut self.nodes[handle.node as usize];
        let payload = node.payload.take().expect("queued node holds a payload");
        node.next = self.free;
        self.free = handle.node;
        self.len -= 1;
        Some((handle.key(), payload))
    }

    /// Removes the root of the `late` heap.
    fn pop_late(&mut self) {
        let last = self.late.pop().expect("late heap is non-empty");
        let n = self.late.len();
        if n > 0 {
            // Sift `last` down from the root.
            let mut i = 0;
            loop {
                let mut child = 2 * i + 1;
                if child >= n {
                    break;
                }
                if child + 1 < n && self.late[child + 1].key() < self.late[child].key() {
                    child += 1;
                }
                self.stats.key_compares += 2;
                if last.key() <= self.late[child].key() {
                    break;
                }
                self.late[i] = self.late[child];
                i = child;
            }
            self.late[i] = last;
        }
    }

    /// Makes `cur` or `late` hold the earliest event whenever the shard
    /// holds any.
    fn settle(&mut self) {
        if self.cur.is_empty() && self.late.is_empty() && self.len > 0 {
            self.advance();
        }
    }

    /// Makes the earliest non-empty day current. Called with `cur` and
    /// `late` empty, so every queued event is in the rings.
    fn advance(&mut self) {
        loop {
            // The days ring holds the `DAYS` days after the current one,
            // so at most the rest of this year and a part of the next;
            // no event of the current year waits in the years ring.
            let today = (self.cur_bucket & DAY_MASK) as usize;
            let year = self.cur_bucket >> DAY_BITS;
            let next_year = match self.days.next_occupied(today, 1) {
                Some(dist) if dist < DAYS - today => {
                    self.cur_bucket += dist as u64;
                    self.load_day(today + dist);
                    return;
                }
                // A day of next year: its far events may come first.
                Some(_) => {
                    self.open_year(year + 1);
                    year + 1
                }
                None => self.open_next_year(year),
            };
            // Day 0 is the one day the scan above, which starts after
            // the current day, would miss.
            self.cur_bucket = next_year << DAY_BITS;
            if self.days.is_occupied(0) {
                self.load_day(0);
                return;
            }
        }
    }

    /// Opens the first year after `year` that holds events and returns
    /// it. Called with the days ring empty.
    fn open_next_year(&mut self, year: u64) -> u64 {
        let this_slot = (year & YEAR_MASK) as usize;
        let mut from = 1;
        while let Some(dist) = self.years.next_occupied(this_slot, from) {
            if self.open_year(year + dist as u64) {
                return year + dist as u64;
            }
            from = dist + 1;
        }
        // Nothing is due within `YEARS` years: go straight to the
        // earliest event's year.
        let first = self.first_bucket() >> DAY_BITS;
        self.open_year(first);
        first
    }

    /// Moves `day`'s events into `cur`, sorted.
    fn load_day(&mut self, day: usize) {
        let mut idx = self.days.take(day);
        while idx != NIL {
            self.cur.push(Handle::of(&self.nodes, idx));
            idx = self.nodes[idx as usize].next;
        }
        let mut compares = 0;
        self.cur.sort_unstable_by(|a, b| {
            compares += 1;
            b.key().cmp(&a.key())
        });
        self.stats.key_compares += compares;
        self.stats.buckets_sorted += 1;
        self.stats.entries_sorted += self.cur.len() as u64;
    }

    /// Moves the events of `year` from their `years` slot to their days;
    /// events of later years stay. Returns whether any moved.
    fn open_year(&mut self, year: u64) -> bool {
        let slot = (year & YEAR_MASK) as usize;
        let mut idx = self.years.take(slot);
        let mut moved = false;
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            let bucket = self.bucket_of(self.nodes[idx as usize].time);
            if bucket >> DAY_BITS == year {
                let day = (bucket & DAY_MASK) as usize;
                self.days.link(&mut self.nodes, day, idx);
                moved = true;
            } else {
                self.years.link(&mut self.nodes, slot, idx);
                self.stats.entries_walked += 1;
            }
            idx = next;
        }
        moved
    }

    /// The earliest day any queued event is due in: the fallback when
    /// none is due within a ring of years.
    fn first_bucket(&mut self) -> u64 {
        self.stats.entries_walked += self.nodes.len() as u64;
        self.nodes
            .iter()
            .filter(|n| n.payload.is_some())
            .map(|n| self.bucket_of(n.time))
            .min()
            .expect("a non-empty shard has a first bucket")
    }
}

impl<T> std::fmt::Debug for Shard<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Shard(len={}, width={}s, current={}+{})",
            self.len,
            1.0 / self.inv_width,
            self.cur.len(),
            self.late.len()
        )
    }
}

/// Work counters exposed for tests and diagnostics: what the calendar
/// queue did (for the parallel scheduler, its shards' queues, summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Buckets made current and sorted.
    pub buckets_sorted: u64,
    /// Events in those buckets (÷ `buckets_sorted`: the mean bucket).
    pub entries_sorted: u64,
    /// Pushes into or before the current bucket (the O(log b) tier).
    pub late_pushes: u64,
    /// Key comparisons made by the bucket sorts and the late tier's
    /// sifts: what keeping the order cost.
    pub key_compares: u64,
    /// List and slab steps that dispatched nothing: events passed over
    /// in a year's list because they are due a ring of years or more
    /// later, and the slab scans for the first bucket.
    pub entries_walked: u64,
}

impl QueueStats {
    /// The summed counters of `shards`' queues.
    pub(crate) fn of_shards<T>(shards: &[Shard<T>]) -> QueueStats {
        shards.iter().fold(QueueStats::default(), |sum, shard| {
            let s = shard.stats;
            QueueStats {
                buckets_sorted: sum.buckets_sorted + s.buckets_sorted,
                entries_sorted: sum.entries_sorted + s.entries_sorted,
                late_pushes: sum.late_pushes + s.late_pushes,
                key_compares: sum.key_compares + s.key_compares,
                entries_walked: sum.entries_walked + s.entries_walked,
            }
        })
    }
}

/// The calendar queue's public face: one queue popping in `(time,
/// insertion order)` order.
///
/// Generic over its payload so it can be property-tested independently
/// of the engine, which drives the same queue with its own deterministic
/// `(source, counter)` ties.
///
/// # Examples
///
/// ```
/// use ftgcs_sim::shard::EventQueue;
/// use ftgcs_sim::time::{SimDuration, SimTime};
///
/// let mut q = EventQueue::new(SimDuration::from_millis(1.0));
/// q.push(SimTime::from_secs(2.0), "late");
/// q.push(SimTime::from_secs(1.0), "early");
/// let until = SimTime::from_secs(10.0);
/// assert_eq!(q.pop_before(until), Some((SimTime::from_secs(1.0), "early")));
/// assert_eq!(q.pop_before(until), Some((SimTime::from_secs(2.0), "late")));
/// assert_eq!(q.pop_before(until), None);
/// ```
pub struct EventQueue<T> {
    shard: Shard<T>,
    /// Next insertion-order tie.
    seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue whose buckets are sized for events due at
    /// most `max_delay` after the latest pop — the engine passes the
    /// model's `d`. Any bound gives the same pop order; a wrong one only
    /// costs time.
    #[must_use]
    pub fn new(max_delay: SimDuration) -> Self {
        EventQueue {
            shard: Shard::new(max_delay),
            seq: 0,
        }
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shard.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Work counters of the calendar queue.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        self.shard.stats
    }

    /// Enqueues an event; equal times pop in insertion order.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let tie = u128::from(self.seq);
        self.seq += 1;
        self.shard.push(Key { time, tie }, payload);
    }

    /// Pops the earliest event if its time is at most `until`.
    pub fn pop_before(&mut self, until: SimTime) -> Option<(SimTime, T)> {
        self.shard
            .pop_if(|time| time <= until)
            .map(|(key, p)| (key.time, p))
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EventQueue({:?})", self.shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn partition_constructors() {
        let p = Partition::single(5);
        assert_eq!(p.shard_count(), 1);
        assert_eq!(p.node_count(), 5);
        assert_eq!(p.shard_of(NodeId(4)), 0);

        let p = Partition::by_blocks(10, 4);
        assert_eq!(p.shard_count(), 3);
        assert_eq!(p.shard_of(NodeId(9)), 2);

        let p = Partition::from_assignment(vec![2, 0, 2, 1]);
        assert_eq!(p.shard_count(), 3);
        assert_eq!(p.shard_of(NodeId(0)), 2);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_rejected() {
        let _ = Partition::by_blocks(4, 0);
    }

    #[test]
    fn worker_resolution_precedence() {
        // An explicit request is honoured above the core count, capped
        // only at the shard count.
        assert_eq!(resolve_workers_from(4, 16, 64), 4);
        assert_eq!(resolve_workers_from(8, 2, 64), 8);
        assert_eq!(resolve_workers_from(8, 16, 3), 3);
        // Auto: available parallelism, capped at shards.
        assert_eq!(resolve_workers_from(0, 16, 64), 16);
        assert_eq!(resolve_workers_from(0, 16, 4), 4);
        // Degenerate inputs still yield at least one worker.
        assert_eq!(resolve_workers_from(0, 0, 0), 1);
    }

    fn ms() -> SimDuration {
        SimDuration::from_millis(1.0)
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new(ms());
        q.push(t(1.0), "first");
        q.push(t(1.0), "second");
        q.push(t(1.0), "third");
        assert_eq!(q.pop_before(t(1.0)).unwrap().1, "first");
        assert_eq!(q.pop_before(t(1.0)).unwrap().1, "second");
        assert_eq!(q.pop_before(t(1.0)).unwrap().1, "third");
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_respects_bound() {
        let mut q = EventQueue::new(ms());
        assert_eq!(q.pop_before(t(f64::INFINITY)), None);
        q.push(t(5.0), ());
        assert_eq!(q.pop_before(t(4.999)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(t(5.0)), Some((t(5.0), ())));
    }

    #[test]
    fn burst_is_sorted_not_sifted_and_fast_path_covers_it() {
        let mut q = EventQueue::new(ms());
        let before = q.stats();
        // A burst of 16 events (a pulse fan-out): 16 appends ahead of
        // the current day, none through the heap tier.
        for i in 0..16 {
            q.push(t(3.0 + 0.01 * f64::from(i)), i);
        }
        while q.pop_before(t(4.0)).is_some() {}
        let stats = q.stats();
        assert_eq!(stats.late_pushes, before.late_pushes, "burst sifted");
        assert_eq!(stats.entries_sorted - before.entries_sorted, 16);
        assert!(q.is_empty());
    }

    #[test]
    fn late_and_ring_pushes_interleave_correctly() {
        let mut q = EventQueue::new(ms());
        q.push(t(4.0), "last");
        q.push(t(3.0), "second");
        assert_eq!(q.pop_before(t(10.0)).unwrap().1, "second");
        let late = q.stats().late_pushes;
        q.push(t(3.5), "ring");
        q.push(t(3.0), "late");
        q.push(t(f64::INFINITY), "never");
        assert_eq!(q.stats().late_pushes, late + 1);
        let order: Vec<&str> =
            std::iter::from_fn(|| q.pop_before(t(10.0)).map(|(_, s)| s)).collect();
        assert_eq!(order, vec!["late", "ring", "last"]);
        assert_eq!(q.len(), 1);
    }

    /// Reference order: `std`'s heap over the same keys. Pops the way a
    /// parallel window does, under a strict cap: at the head's own time
    /// nothing pops and nothing moves.
    fn drain_matches_heap(shard: &mut Shard<usize>, heap: &mut BinaryHeap<Reverse<(Key, usize)>>) {
        while let Some(Reverse((key, id))) = heap.pop() {
            assert_eq!(shard.head_key(), key);
            let before = (shard.len(), shard.stats);
            assert_eq!(shard.pop_if(|time| time < key.time), None);
            assert_eq!((shard.len(), shard.stats), before);
            assert_eq!(shard.pop_if(|time| time <= key.time), Some((key, id)));
        }
        assert_eq!(shard.head_key(), Key::max());
        assert_eq!(shard.pop_if(|_| true), None);
        assert_eq!(shard.len(), 0);
    }

    /// A queue sized for `max_delay` seconds, holding the sentinel, a
    /// few events thousands of seconds (rings of years) ahead, timers a
    /// few milliseconds apart and a dense stretch of pairs of equal
    /// times, drains in heap order.
    fn mixed_queue_drains_in_heap_order(max_delay: f64) {
        let mut shard = Shard::new(SimDuration::from_secs(max_delay));
        let mut heap = BinaryHeap::new();
        let mut push = |key: Key| {
            let id = heap.len();
            shard.push(key, id);
            heap.push(Reverse((key, id)));
        };
        push(Key::max());
        for year in 1..4u32 {
            let time = t(f64::from(year) * 1e3);
            push(Key { time, tie: 7 });
        }
        for i in 0..64u32 {
            push(Key {
                time: t(5e-3 * f64::from(i)),
                tie: 9,
            });
        }
        for i in 0..3072u32 {
            let time = t(1e-6 * f64::from(i));
            push(Key { time, tie: 1 });
            push(Key { time, tie: 0 });
        }
        drain_matches_heap(&mut shard, &mut heap);
    }

    #[test]
    fn sentinel_keys_and_year_wraps_pop_in_heap_order() {
        mixed_queue_drains_in_heap_order(1e-3);
    }

    #[test]
    fn the_width_is_the_narrowest_power_of_two_whose_days_span_d() {
        assert_eq!(width_exp(1e-3), -21);
        assert_eq!(width_exp(1.0), -12);
        let days = DAYS as f64;
        let mut d = 1e-9;
        while d <= 1e3 {
            let e = width_exp(d);
            assert!(
                days * pow2(e) >= d && d > days * pow2(e - 1),
                "d = {d}: 2^{e}"
            );
            d *= 1.07;
        }
        for d in [0.0, 5e-324, 1e300] {
            let e = width_exp(d);
            assert!(e.abs() <= WIDTH_EXP_MAX, "d = {d}: 2^{e}");
            mixed_queue_drains_in_heap_order(d);
        }
    }

    /// The point of the width: a message, sent from the current day and
    /// due at most `d` later, never waits in the ring of years — not
    /// even at exactly `d` when `d` is a power of two and so spans all
    /// `DAYS` days.
    #[test]
    fn a_message_never_waits_in_the_years_ring() {
        for d in [1e-3, 1.0] {
            let mut shard = Shard::new(SimDuration::from_secs(d));
            let mut time = t(0.0);
            for i in 0..20_000usize {
                shard.push(Key { time, tie: 0 }, ());
                assert_eq!(shard.years.occupied, [0; YEARS / 64], "d = {d}");
                let (now, ()) = shard.pop_if(|_| true).expect("one in flight");
                time = t(now.time.as_secs() + d * [1.0, 0.5, 0.999][i % 3]);
            }
        }
    }

    /// A fatter event is a decision, not an accident: with a message of
    /// a tag and a `u64` (`ftgcs::messages::Msg`; `Option<u64>` here) a
    /// queued event is one cache line, and so are two sort handles.
    #[test]
    fn a_queued_event_is_one_cache_line() {
        type Event = crate::engine::Pending<Option<u64>>;
        assert_eq!(size_of::<Event>(), 32);
        assert_eq!(size_of::<Node<Event>>(), 64);
        assert_eq!(size_of::<Handle>(), 32);
    }

    #[test]
    fn ring_scan_wraps_and_width_helpers_are_exact() {
        assert_eq!(pow2(-3), 0.125);
        assert_eq!(pow2(WIDTH_EXP_MAX).log2(), f64::from(WIDTH_EXP_MAX));
        let mut ring = Ring::<{ YEARS / 64 }>::new();
        assert_eq!(ring.next_occupied(5, 1), None);
        ring.occupied[0] = 1 << 5 | 1 << 2;
        // From slot 5: slot 2 is 1021 slots ahead, slot 5 itself a ring.
        assert_eq!(ring.next_occupied(5, 1), Some(YEARS - 3));
        assert_eq!(ring.next_occupied(5, YEARS - 2), Some(YEARS));
        assert_eq!(ring.next_occupied(YEARS - 1, 1), Some(3));
    }
}
