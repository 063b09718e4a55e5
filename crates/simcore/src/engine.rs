//! Generic discrete-event queue.
//!
//! The simulator in `netsim` drives everything from a single
//! [`EventQueue`]: events are pushed with an absolute firing time and
//! popped in time order. Events scheduled for the same instant fire in
//! insertion order (FIFO), which keeps runs deterministic — a property
//! the whole reproduction depends on (every run is a pure function of
//! its seed).
//!
//! # Engine internals
//!
//! Entries are ordered on `(time, seq)`, where `seq` is a monotonically
//! increasing insertion counter. Because every key is unique, the pop
//! order is the *total* order over `(time, seq)` — same-time FIFO falls
//! out of the key itself, not out of any property of the container
//! shape. Any correct priority structure therefore pops the exact same
//! sequence, which is what lets the engine be swapped without
//! disturbing bit-for-bit determinism (see
//! `tests/timer_wheel_differential.rs` for the differential proof
//! against a reference `BinaryHeap`).
//!
//! The queue has two parts: a **timer wheel** for events in any order,
//! and FIFO **lanes** for streams whose times never decrease (see
//! below). A wheel payload lives in a free-listed slab from push to
//! pop. The rungs only move 24-byte `Copy` nodes — `(time, seq, slot)`
//! — so sorting and re-filing never touch a payload, and a pop reads
//! exactly one slab slot. Cancelling a timer empties its slot; the
//! floating node is filtered out (a tombstone) when its bucket
//! eventually drains.
//!
//! The wheel is a three-rung **hierarchical timer wheel**, finest rung
//! first:
//!
//! 1. **Near run** — a `Vec` sorted by *descending* `(time, seq)`,
//!    holding every entry with `time <= horizon`. The minimum sits at
//!    the tail, so a pop is `Vec::pop`. A push into this rung scans
//!    from the tail to its place; new keys carry the largest `seq` yet
//!    and mostly fire soon, so they land a few slots from the tail.
//! 2. **Wheel ring** — `SLOTS` (64) buckets of `2^width_shift`
//!    nanoseconds each, covering `(horizon, ring_end]`. A push lands in
//!    its bucket with one shift and one append — O(1), no comparisons
//!    against other pending entries. An occupancy bitmap finds the
//!    next non-empty bucket. A bucket is a FIFO chain of links in one
//!    arena shared by all buckets, so the ring's storage follows the
//!    most nodes it held at once, not each bucket's largest batch.
//! 3. **Overflow** — an unsorted spill list for entries beyond
//!    `ring_end`, with its exact minimum key maintained on push. When
//!    both finer rungs drain, the wheel *rebases* at the overflow
//!    minimum and re-files the spill list (each entry is re-filed at
//!    most once per full ring span consumed, so the amortized cost per
//!    entry is O(1)).
//!
//! When the near run drains, `migrate` moves the next occupied bucket
//! — whole slots at a time — into it and sorts the batch. A bucket
//! fills in push order, i.e. in ascending `seq`, so a stable radix sort
//! on the time offset within the bucket orders it in a few linear
//! passes. The slot
//! width self-tunes toward drain batches in `[MIN_BATCH, MAX_BATCH]`,
//! but only at rebase points (when the ring is empty), so an entry's
//! bucket index never changes underneath it.
//!
//! The rungs are invisible in the pop order: every entry still compares
//! by the same total `(time, seq)` order, each coarser rung only ever
//! holds entries *later* than everything in the finer rungs, and
//! migration/rebasing are driven purely by key values — never by wall
//! clock — so runs remain bit-for-bit deterministic.
//!
//! # FIFO lanes
//!
//! [`EventQueue::push_lane`] appends to a caller-numbered lane: a
//! `VecDeque` of `(time, seq, payload)` with the payload inline, no
//! slab slot and no wheel node. A lane suits a stream whose firing
//! times never decrease in push order — say, packets on a fixed-delay
//! link — so its head is always its minimum. A lane entry carries the
//! same `(time, seq)` key a plain push would stamp; a pop takes the
//! least key among the near run's tail (the wheel's minimum) and the
//! lane heads; and a lane push earlier than its lane's tail falls back
//! to the wheel under that same key. The pop order is therefore the
//! same total `(time, seq)` order whichever part holds an entry. Lane
//! entries cannot be cancelled. Lanes are created on first use.
//!
//! Keys are compared *packed*: `time << 64 | seq` in one `u128`, whose
//! integer order is the `(time, seq)` tuple order. Each lane's front
//! key is kept in a flat `heads` array beside the lanes (`NO_KEY` for
//! an empty lane), updated only when a push fills an empty lane or a
//! pop exposes a new front. Selecting the next entry is then a
//! minimum over the near tail's key and `heads`, kept with conditional
//! moves rather than branches and without touching any `VecDeque`;
//! `peek_time` makes the same selection. `pop_until` is inlined into
//! each engine's dispatch loop, and only the refill from the coarser
//! rungs is an out-of-line call.
//!
//! # Cancelable timers
//!
//! [`EventQueue::schedule_timer`] is `push` plus a [`TimerId`] receipt;
//! [`EventQueue::cancel_timer`] revokes a pending timer. Cancellation
//! is O(1) for wheel- and overflow-resident timers (the slab slot is
//! freed and the floating node is filtered out when its bucket drains);
//! only the rare cancellations of a timer that is already in the near
//! run (a binary search and `Vec::remove`), or that is the exact
//! overflow minimum (a spill rescan), pay more. Once nothing live is
//! pending, every floating tombstone is dropped at once. Cancelled
//! timers count as neither popped nor pending: `total_pushed -
//! total_cancelled - total_popped == len` at all times.

use crate::time::SimTime;
use std::collections::VecDeque;
use std::hint::select_unpredictable;

/// Number of buckets in the wheel ring: one bit each in the `u64`
/// occupancy bitmap. Kept small so the bucket headers and their tail
/// lines stay cache-resident under a scattered push pattern.
const SLOTS: usize = 64;

/// Bucket drains below this (mean, per rebase period) widen the slots
/// (too many migrations, each paying a bitmap scan + sort).
const MIN_BATCH: usize = 64;

/// Bucket drains above this shrink the slots (near run getting too
/// long to sort and insert into cheaply).
const MAX_BATCH: usize = 512;

/// End of a bucket chain or of the free-link list.
const NIL: u32 = u32::MAX;

/// Bounds for the adaptive slot width, as powers of two of nanoseconds:
/// 64 ns up to ~2.2 s per slot.
const MIN_WIDTH_SHIFT: u32 = 6;
const MAX_WIDTH_SHIFT: u32 = 31;

/// Initial slot width: 2^18 ns ≈ 262 µs, a compromise between LAN RTTs
/// and WAN timer spacings; the width self-tunes from there.
const INIT_WIDTH_SHIFT: u32 = 18;

/// The packed key of no entry: larger than every real key (a real key
/// would need `seq == u64::MAX`, i.e. 2^64 pushes).
const NO_KEY: u128 = u128::MAX;

/// Pack a `(time, seq)` key into one integer with the same order.
#[inline]
fn pack(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_nanos()) << 64) | u128::from(seq)
}

/// The firing time of a packed key.
#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// One pending entry: the `(time, seq)` ordering key plus the slab slot
/// holding its payload.
#[derive(Debug, Clone, Copy)]
struct Node {
    time: SimTime,
    seq: u64,
    slot: usize,
}

impl Node {
    /// The packed total-order key: earliest time first, then insertion
    /// order.
    #[inline]
    fn key(&self) -> u128 {
        pack(self.time, self.seq)
    }
}

/// A ring-resident node and the `links` index of the next node in its
/// bucket (or of the next free link).
#[derive(Debug, Clone, Copy)]
struct Link {
    node: Node,
    next: u32,
}

/// A slab slot: the payload of the entry with sequence number `seq`,
/// or `None` once that entry popped or was cancelled.
#[derive(Debug, Clone)]
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// Is this node's entry still pending (not cancelled, slot not reused)?
#[inline]
fn node_live<E>(slab: &[Slot<E>], node: &Node) -> bool {
    let slot = &slab[node.slot];
    slot.seq == node.seq && slot.event.is_some()
}

/// Indices of the set bits of `bits`, lowest first.
fn set_bits(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let idx = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
        bits &= bits - 1;
        Some(idx)
    })
}

/// Sort a migrated bucket into near-run order: descending `(time, seq)`.
///
/// A bucket holds its nodes in ascending `seq` (see
/// `EventQueue::chains`), and so does `batch`. Reversed, equal times
/// are in descending `seq`, and a stable LSD radix sort on each node's
/// offset from the bucket `start` (below `2^width_shift`) finishes the
/// order in a few linear passes, without comparisons. A pass whose
/// digit is the same for every node would not move anything and is
/// skipped.
fn sort_batch(batch: &mut Vec<Node>, scratch: &mut Vec<Node>, start: u64, width_shift: u32) {
    batch.reverse();
    scratch.extend_from_slice(batch);
    for shift in (0..width_shift).step_by(8) {
        // Inverted digit, so larger offsets come first.
        let digit = |n: &Node| usize::from(!(((n.time.as_nanos() - start) >> shift) as u8));
        let mut at = [0usize; 256];
        for n in batch.iter() {
            at[digit(n)] += 1;
        }
        if at[digit(&batch[0])] == batch.len() {
            continue;
        }
        let mut sum = 0;
        for a in &mut at {
            (*a, sum) = (sum, sum + *a);
        }
        for n in batch.iter() {
            let d = digit(n);
            scratch[at[d]] = *n;
            at[d] += 1;
        }
        std::mem::swap(batch, scratch);
    }
    // Leave the buffer empty: nothing for the next sort or a `Clone`
    // (checkpoint) to carry.
    scratch.clear();
}

/// A point-in-time snapshot of [`EventQueue`] internals for
/// observability (see [`EventQueue::health`]). Sampled by the harness
/// between supervised step slices and surfaced as gauges, without the
/// harness reaching into queue internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueHealth {
    /// Live events in the near (sorted run) rung.
    pub near_depth: usize,
    /// Live events parked in the wheel ring buckets.
    pub ring_occupancy: usize,
    /// Live events spilled past the wheel horizon into overflow.
    pub overflow_live: usize,
    /// Live events in the FIFO lanes, all lanes together.
    pub lane_depth: usize,
    /// Cancelled-timer tombstones still floating in the rungs.
    pub stale_timers: usize,
    /// Allocated payload slab slots (high-water mark of pending wheel
    /// events: the slab holds the payload of every wheel entry; lane
    /// entries hold theirs inline).
    pub slab_slots: usize,
    /// Slab slots currently on the free list; `slab_slots -
    /// free_slots == len - lane_depth` at all times.
    pub free_slots: usize,
    /// Total pending live events (== `EventQueue::len`): `near_depth +
    /// ring_occupancy + overflow_live + lane_depth`.
    pub len: usize,
    /// Lifetime count of past-time pushes clamped to `now`.
    pub past_clamps: u64,
    /// Lifetime count of lane pushes earlier than their lane's tail,
    /// which went to the wheel instead.
    pub lane_fallbacks: u64,
}

/// An event queue over an arbitrary event payload type `E`.
///
/// `Clone` is a deep copy: nodes, payload slab, free list, lanes,
/// counters and the whole wheel geometry carry over verbatim, so a
/// cloned queue pops the identical `(time, seq)` sequence as the
/// original. This is the engine half of the checkpoint/resume contract.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Nodes with `time <= horizon`, sorted by descending key. Never
    /// contains cancelled timers.
    near: Vec<Node>,
    /// Times at or below this belong to the near run.
    horizon: SimTime,
    /// Wheel buckets: nodes with `horizon < time < ring_end()`,
    /// indexed by `(time - ring_base) >> width_shift`, each a `(head,
    /// tail)` chain through `links`, valid while its `occ` bit is set.
    /// Each bucket, like `overflow`, is in ascending `seq` order: a push
    /// carries the largest `seq` yet, a rebase re-files the (ascending)
    /// spill list into an empty ring, and removals keep the order.
    chains: [(u32, u32); SLOTS],
    /// Arena of the ring's nodes, shared by all buckets.
    links: Vec<Link>,
    /// Head of the list of free `links`, threaded through `next`.
    free_link: u32,
    /// One bit per bucket: does it hold any node (possibly stale)?
    occ: u64,
    /// Wheel origin (ns). Bucket `i` covers
    /// `[ring_base + (i << width_shift), ring_base + ((i+1) << width_shift))`.
    ring_base: u64,
    /// log2 of the bucket width in nanoseconds (adaptive, but only at
    /// rebase points so existing indices never move).
    width_shift: u32,
    /// Live (non-cancelled) nodes across all buckets.
    ring_len: usize,
    /// Spill list for nodes at or beyond `ring_end()`, in ascending
    /// `seq` order.
    overflow: Vec<Node>,
    /// Exact minimum live packed key in `overflow`, if any.
    overflow_min: Option<u128>,
    /// Live nodes in `overflow` (the Vec may also hold tombstones).
    overflow_live: usize,
    /// Cancelled timers still floating in a bucket or the overflow list
    /// (their slab slots are already recycled). While this is zero —
    /// the common case, since the simulator's event chains never cancel
    /// — drains skip the per-node liveness filter entirely.
    stale: usize,
    /// Payload of every pending event, addressed by `Node::slot`.
    slab: Vec<Slot<E>>,
    /// Slots of `slab` ready for reuse.
    free: Vec<usize>,
    /// Scratch space for `sort_batch`; empty between sorts.
    sort_buf: Vec<Node>,
    /// FIFO lanes, indexed by the caller's lane number; each is in
    /// ascending `(time, seq)` order. Grown on first use of a lane.
    lanes: Vec<VecDeque<(SimTime, u64, E)>>,
    /// Packed key of each lane's front entry, `NO_KEY` while the lane
    /// is empty: what a pop selects over instead of the lanes.
    heads: Vec<u128>,
    /// Live nodes drained / drain batches since the last width
    /// adaptation (rebase-time feedback for `width_shift`).
    drained_keys: u64,
    drained_batches: u64,
    seq: u64,
    now: SimTime,
    pushed: u64,
    popped: u64,
    cancelled: u64,
    past_clamps: u64,
    lane_fallbacks: u64,
}

/// Receipt for a pending timer scheduled with
/// [`EventQueue::schedule_timer`]; redeem it (at most once) with
/// [`EventQueue::cancel_timer`].
#[derive(Debug, Clone, Copy)]
pub struct TimerId {
    time: SimTime,
    seq: u64,
    slot: usize,
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at time zero.
    pub fn new() -> Self {
        Self::with_capacity(1024)
    }

    /// An empty queue pre-sized for `cap` pending events (callers that
    /// know their fan-out — e.g. one chain per flow — avoid growth
    /// reallocations on the hot path).
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            near: Vec::with_capacity(cap.min(2 * MAX_BATCH)),
            horizon: SimTime::ZERO,
            chains: [(NIL, NIL); SLOTS],
            links: Vec::new(),
            free_link: NIL,
            occ: 0,
            ring_base: 0,
            width_shift: INIT_WIDTH_SHIFT,
            ring_len: 0,
            overflow: Vec::new(),
            overflow_min: None,
            overflow_live: 0,
            stale: 0,
            slab: Vec::new(),
            free: Vec::new(),
            sort_buf: Vec::new(),
            lanes: Vec::new(),
            heads: Vec::new(),
            drained_keys: 0,
            drained_batches: 0,
            seq: 0,
            now: SimTime::ZERO,
            pushed: 0,
            popped: 0,
            cancelled: 0,
            past_clamps: 0,
            lane_fallbacks: 0,
        }
    }

    /// Current simulated time: the firing time of the most recently
    /// popped event (zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// First nanosecond beyond the wheel ring's coverage.
    #[inline]
    fn ring_end(&self) -> u64 {
        self.ring_base.saturating_add((SLOTS as u64) << self.width_shift)
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller and panics
    /// in debug builds; in release it is clamped to `now` to keep the
    /// run monotonic, and the clamp is counted (see
    /// [`EventQueue::past_clamps`]) so watchdogs can surface the masked
    /// causality bug instead of letting it pass silently.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) {
        self.schedule_timer(at, event);
    }

    /// Schedule a cancelable timer to fire `event` at absolute time
    /// `at`. Identical to [`EventQueue::push`] except it returns a
    /// [`TimerId`] receipt for [`EventQueue::cancel_timer`]. Scheduling
    /// is O(1) (amortized) regardless of how far out `at` is.
    pub fn schedule_timer(&mut self, at: SimTime, event: E) -> TimerId {
        let (time, seq) = self.stamp(at);
        let slot = self.insert(time, seq, event);
        TimerId { time, seq, slot }
    }

    /// Schedule `event` at `at` on FIFO lane `lane` (lanes are numbered
    /// by the caller from 0 and created on first use). Same key, same
    /// past-time clamp and same pop order as [`EventQueue::push`], but
    /// the payload is held inline in the lane, at O(1) per push and pop.
    ///
    /// Meant for a stream whose times never decrease in push order. A
    /// push earlier than the lane's tail still fires in order: it goes
    /// to the wheel under the same key, and `false` is returned.
    pub fn push_lane(&mut self, lane: usize, at: SimTime, event: E) -> bool {
        let (time, seq) = self.stamp(at);
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
            self.heads.resize(lane + 1, NO_KEY);
        }
        let fifo = &mut self.lanes[lane];
        match fifo.back() {
            Some(&(tail, _, _)) if time < tail => {
                self.lane_fallbacks += 1;
                self.insert(time, seq, event);
                return false;
            }
            Some(_) => {}
            None => self.heads[lane] = pack(time, seq),
        }
        fifo.push_back((time, seq, event));
        true
    }

    /// Clamp a past `at` to `now` (counting the clamp) and take the
    /// next sequence number: the `(time, seq)` key of a new entry.
    #[inline]
    fn stamp(&mut self, at: SimTime) -> (SimTime, u64) {
        debug_assert!(at >= self.now, "event scheduled in the past: {at} < {}", self.now);
        let time = if at < self.now {
            self.past_clamps += 1;
            self.now
        } else {
            at
        };
        let seq = self.seq;
        self.seq += 1;
        self.pushed += 1;
        (time, seq)
    }

    /// Put a stamped entry into the wheel; returns its slab slot.
    #[inline]
    fn insert(&mut self, time: SimTime, seq: u64, event: E) -> usize {
        let filled = Slot { seq, event: Some(event) };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = filled;
                slot
            }
            None => {
                self.slab.push(filled);
                self.slab.len() - 1
            }
        };
        let node = Node { time, seq, slot };
        if time <= self.horizon {
            // Every key in the run is older (smaller seq), so the new
            // node goes in front of all entries at or before its time.
            let mut i = self.near.len();
            while i > 0 && self.near[i - 1].time <= time {
                i -= 1;
            }
            self.near.insert(i, node);
        } else {
            self.file_beyond_horizon(node);
        }
        slot
    }

    /// File a node with `time > horizon` into its wheel bucket or the
    /// overflow list. Shared by pushes and rebase re-filing.
    #[inline]
    fn file_beyond_horizon(&mut self, node: Node) {
        let at_ns = node.time.as_nanos();
        if at_ns < self.ring_end() {
            let idx = ((at_ns - self.ring_base) >> self.width_shift) as usize;
            let link = Link { node, next: NIL };
            let at = match self.free_link {
                NIL => {
                    self.links.push(link);
                    u32::try_from(self.links.len() - 1).expect("under 2^32 ring nodes")
                }
                free => {
                    self.free_link = self.links[free as usize].next;
                    self.links[free as usize] = link;
                    free
                }
            };
            if self.occ & (1 << idx) == 0 {
                self.occ |= 1 << idx;
                self.chains[idx] = (at, at);
            } else {
                let tail = &mut self.chains[idx].1;
                self.links[*tail as usize].next = at;
                *tail = at;
            }
            self.ring_len += 1;
        } else {
            if self.overflow_min.is_none_or(|m| node.key() < m) {
                self.overflow_min = Some(node.key());
            }
            self.overflow.push(node);
            self.overflow_live += 1;
        }
    }

    /// Cancel a pending timer. Returns `true` if the timer was still
    /// pending (it will now never fire), `false` if it already fired or
    /// was already cancelled.
    ///
    /// Wheel- and overflow-resident timers cancel in O(1): the slab slot
    /// is freed immediately and the floating node is filtered out when
    /// its bucket eventually drains. Only a timer that already migrated
    /// into the near run (a binary search and `Vec::remove`) or that is
    /// the exact overflow minimum (a spill rescan keeps `peek_time`
    /// exact) pays more.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        match self.slab.get_mut(id.slot) {
            Some(slot) if slot.seq == id.seq && slot.event.is_some() => slot.event = None,
            _ => return false,
        }
        self.free.push(id.slot);
        self.cancelled += 1;
        if id.time <= self.horizon {
            // Near-resident: remove eagerly so the tail (and thus
            // `peek_time`/`pop`) never sees a tombstone.
            let key = pack(id.time, id.seq);
            let i = self
                .near
                .binary_search_by(|n| key.cmp(&n.key()))
                .expect("live near timer must be in the near run");
            self.near.remove(i);
        } else if id.time.as_nanos() < self.ring_end() {
            self.ring_len -= 1;
            self.stale += 1;
        } else {
            self.overflow_live -= 1;
            self.stale += 1;
            if self.overflow_min == Some(pack(id.time, id.seq)) {
                self.rescan_overflow_min();
            }
        }
        self.drop_tombstones_if_drained();
        true
    }

    /// Recompute the overflow's exact live minimum (dropping tombstoned
    /// nodes while at it).
    fn rescan_overflow_min(&mut self) {
        let before = self.overflow.len();
        let slab = &self.slab;
        self.overflow.retain(|n| node_live(slab, n));
        self.stale -= before - self.overflow.len();
        self.overflow_min = self.overflow.iter().map(Node::key).min();
    }

    /// Once nothing live is pending in the wheel, every node still
    /// floating in a bucket or the spill list is a tombstone: drop them
    /// all, so a drained wheel holds (and reports) no stale timers.
    #[inline]
    fn drop_tombstones_if_drained(&mut self) {
        if self.stale != 0 && self.wheel_len() == 0 {
            self.clear_buckets();
            self.overflow.clear();
            self.overflow_min = None;
            self.stale = 0;
        }
    }

    /// Empty the ring, which holds no live node (callers run with
    /// `ring_len == 0`): clear the bitmap and the arena; returns how
    /// many tombstones were dropped.
    fn clear_buckets(&mut self) -> usize {
        debug_assert_eq!(self.ring_len, 0);
        let dropped = set_bits(self.occ).map(|idx| self.chain(idx).count()).sum();
        self.occ = 0;
        self.links.clear();
        self.free_link = NIL;
        dropped
    }

    /// The nodes of occupied bucket `idx`, in chain (ascending `seq`)
    /// order.
    fn chain(&self, idx: usize) -> impl Iterator<Item = &Node> {
        let mut at = self.chains[idx].0;
        std::iter::from_fn(move || {
            let link = (at != NIL).then(|| &self.links[at as usize])?;
            at = link.next;
            Some(&link.node)
        })
    }

    /// Pop the next event, advancing the clock to its firing time.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::from_nanos(u64::MAX))
    }

    /// Pop the next event if it fires at or before `end`, advancing the
    /// clock to its firing time; otherwise leave it pending and return
    /// `None`. One call does the work of a `peek_time` and a `pop`.
    ///
    /// Inlined into each engine's dispatch loop, so the chosen entry is
    /// read straight into the caller's `match` instead of through a
    /// returned stack slot; the refill path (`migrate`) stays out of
    /// line.
    #[inline]
    pub fn pop_until(&mut self, end: SimTime) -> Option<(SimTime, E)> {
        if self.near.is_empty() {
            // Bring the wheel's minimum to the near run's tail (a no-op
            // on an empty wheel).
            let _ = self.migrate();
        }
        let (key, lane) = self.select(self.near.last().map_or(NO_KEY, Node::key));
        if key == NO_KEY || key_time(key) > end {
            return None;
        }
        let time = key_time(key);
        debug_assert!(time >= self.now, "event queue time went backwards");
        self.now = time;
        self.popped += 1;
        let event = match lane {
            Some(i) => {
                let fifo = &mut self.lanes[i];
                let (_, _, event) = fifo.pop_front().expect("lane head was just seen");
                self.heads[i] = fifo.front().map_or(NO_KEY, |&(time, seq, _)| pack(time, seq));
                event
            }
            None => {
                let node = self.near.pop().expect("near tail was just seen");
                let event =
                    self.slab[node.slot].event.take().expect("popped node's slot holds its event");
                self.free.push(node.slot);
                self.drop_tombstones_if_drained();
                event
            }
        };
        Some((time, event))
    }

    /// The least of `wheel` (the wheel's minimum key, or `NO_KEY`) and
    /// the lane heads, with the lane it heads (`None` for the wheel).
    /// Ties cannot occur: keys are unique.
    ///
    /// The scan keeps a plain `(key, lane)` pair, with `usize::MAX` for
    /// the wheel, and updates it with conditional moves rather than a
    /// branch: which head wins is data-dependent and mispredicts often.
    /// The sentinel becomes `None` once, after the scan.
    #[inline]
    fn select(&self, wheel: u128) -> (u128, Option<usize>) {
        debug_assert!(
            self.lanes.iter().zip(&self.heads).all(|(fifo, &head)| {
                head == fifo.front().map_or(NO_KEY, |&(time, seq, _)| pack(time, seq))
            }),
            "a lane head is out of step with its lane"
        );
        let (mut key, mut lane) = (wheel, usize::MAX);
        for (i, &head) in self.heads.iter().enumerate() {
            let less = head < key;
            key = select_unpredictable(less, head, key);
            lane = select_unpredictable(less, i, lane);
        }
        (key, (lane != usize::MAX).then_some(lane))
    }

    /// Refill the (empty) near run from the coarser rungs: drain the
    /// next occupied wheel bucket (whole slots at a time), advance the
    /// horizon to that bucket's end, and sort the batch. When the ring
    /// is empty too, rebase it at the overflow minimum and re-file the
    /// spill list. Returns `None` when every rung is empty.
    ///
    /// Every ingredient — bucket geometry, occupancy, overflow minimum
    /// — is a pure function of the entries pushed so far, so the rung
    /// split can never perturb determinism; and since each coarser rung
    /// only holds entries strictly beyond the finer rungs' coverage,
    /// the near run's minimum is always the global minimum.
    ///
    /// Runs once per drained batch, so it stays out of line: inlined
    /// pops carry only the call.
    #[inline(never)]
    fn migrate(&mut self) -> Option<()> {
        debug_assert!(self.near.is_empty());
        loop {
            if self.ring_len > 0 {
                let idx = self.occ.trailing_zeros() as usize;
                self.occ &= !(1 << idx);
                let mut at = self.chains[idx].0;
                while at != NIL {
                    let Link { node, next } = self.links[at as usize];
                    // Stale nodes are dropped here; their slots were
                    // already recycled at cancel time.
                    if self.stale == 0 || node_live(&self.slab, &node) {
                        self.near.push(node);
                    } else {
                        self.stale -= 1;
                    }
                    self.links[at as usize].next = self.free_link;
                    self.free_link = at;
                    at = next;
                }
                debug_assert!(self.near.windows(2).all(|w| w[0].seq < w[1].seq));
                let live = self.near.len();
                self.ring_len -= live;
                // The drained bucket covers [start, end); entries
                // exactly at `end` sit in the *next* bucket, so the
                // horizon (inclusive) stops one nanosecond short of it.
                self.horizon = SimTime::from_nanos(
                    self.ring_base
                        .saturating_add((idx as u64 + 1) << self.width_shift)
                        .saturating_sub(1),
                );
                self.drained_keys += live as u64;
                self.drained_batches += 1;
                if live > 0 {
                    let start = self.ring_base + ((idx as u64) << self.width_shift);
                    sort_batch(&mut self.near, &mut self.sort_buf, start, self.width_shift);
                    return Some(());
                }
                // All-tombstone bucket: keep draining.
            } else if self.overflow_live > 0 {
                self.rebase();
                // The overflow minimum's time equals the new horizon,
                // so re-filing always lands at least one node in near.
                return Some(());
            } else {
                return None;
            }
        }
    }

    /// Move the (empty) ring so it starts at the overflow minimum,
    /// adapt the slot width from the drain batches observed since the
    /// last rebase, and re-file the spill list into the new geometry.
    /// The overflow minimum itself lands in the near run (its time
    /// equals the new horizon), so a rebase always makes progress.
    fn rebase(&mut self) {
        debug_assert!(self.near.is_empty() && self.ring_len == 0);
        // With zero live ring nodes, anything left in a bucket is a
        // cancelled timer's floating tombstone. Sweep them out before
        // the geometry changes underneath their (stale) indices; the
        // emptied arena then re-fills from its start.
        self.stale -= self.clear_buckets();
        let min_time = key_time(self.overflow_min.expect("rebase requires a live overflow node"));
        self.adapt_width();
        self.horizon = min_time;
        self.ring_base = min_time.as_nanos();
        // Re-file in place: nodes still beyond the new ring stay in the
        // spill list (in their ascending `seq` order), so a rebase
        // neither allocates nor holds a second copy of the list.
        let mut spill = std::mem::take(&mut self.overflow);
        debug_assert!(spill.windows(2).all(|w| w[0].seq < w[1].seq));
        self.overflow_min = None;
        self.overflow_live = 0;
        let ring_end = self.ring_end();
        spill.retain(|&node| {
            if self.stale != 0 && !node_live(&self.slab, &node) {
                self.stale -= 1;
                false
            } else if node.time <= self.horizon {
                self.near.push(node);
                false
            } else if node.time.as_nanos() < ring_end {
                self.file_beyond_horizon(node);
                false
            } else {
                if self.overflow_min.is_none_or(|m| node.key() < m) {
                    self.overflow_min = Some(node.key());
                }
                self.overflow_live += 1;
                true
            }
        });
        self.overflow = spill;
        // Every node that landed in near has the minimum's time, and
        // the spill list is in ascending `seq`: reversed, it is sorted.
        self.near.reverse();
    }

    /// Steer drain batches into `[MIN_BATCH, MAX_BATCH]`: bitmap scans
    /// and sort setup cost a pass per drain (wants wide slots), while
    /// sorting and near-run inserts grow with the batch (wants narrow).
    /// Only called while the ring is empty, so existing bucket indices
    /// never move.
    fn adapt_width(&mut self) {
        if self.drained_batches == 0 {
            return;
        }
        let mean = self.drained_keys / self.drained_batches;
        if mean < MIN_BATCH as u64 && self.width_shift < MAX_WIDTH_SHIFT {
            self.width_shift += 1;
        } else if mean > MAX_BATCH as u64 && self.width_shift > MIN_WIDTH_SHIFT {
            self.width_shift -= 1;
        }
        self.drained_keys = 0;
        self.drained_batches = 0;
    }

    /// Firing time of the next event without popping it: the earlier of
    /// the wheel's minimum and the lane heads.
    ///
    /// Exact at every rung: the near run's tail when it is non-empty,
    /// else the minimum of the first occupied wheel bucket holding a
    /// live node, else the maintained overflow minimum. The bucket scan
    /// is not maintained per push — it only runs in the brief window
    /// where the near run is drained, i.e. at most once per migration
    /// cycle, so its amortized cost matches the drain it precedes.
    pub fn peek_time(&self) -> Option<SimTime> {
        let (key, _) = self.select(self.peek_wheel());
        (key != NO_KEY).then(|| key_time(key))
    }

    /// Packed key of the wheel's next event, or `NO_KEY`.
    fn peek_wheel(&self) -> u128 {
        if let Some(node) = self.near.last() {
            return node.key();
        }
        if self.ring_len > 0 {
            let earliest = set_bits(self.occ).find_map(|idx| {
                self.chain(idx)
                    .filter(|n| self.stale == 0 || node_live(&self.slab, n))
                    .map(Node::key)
                    .min()
            });
            return earliest.expect("ring_len > 0 implies a live bucket node");
        }
        self.overflow_min.unwrap_or(NO_KEY)
    }

    /// Live entries in the wheel's three rungs.
    #[inline]
    fn wheel_len(&self) -> usize {
        self.near.len() + self.ring_len + self.overflow_live
    }

    /// Live entries in the lanes.
    fn lane_len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Number of pending (live, uncancelled) events.
    pub fn len(&self) -> usize {
        self.wheel_len() + self.lane_len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events pushed over the queue's lifetime, timers included
    /// (diagnostics).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total events popped over the queue's lifetime (diagnostics).
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Total timers cancelled before firing. At any instant
    /// `total_pushed - total_cancelled - total_popped == len`.
    pub fn total_cancelled(&self) -> u64 {
        self.cancelled
    }

    /// How many release-mode pushes were silently clamped from the past
    /// to `now`. Non-zero means a caller has a causality bug that debug
    /// builds would have caught with a panic.
    pub fn past_clamps(&self) -> u64 {
        self.past_clamps
    }

    /// Point-in-time engine-health snapshot for observability: rung
    /// depths, tombstone debt and lifetime diagnostics in one plain
    /// struct. Costs a handful of field reads — cheap enough to sample
    /// after every supervised step slice — and keeps metric consumers out of
    /// the queue's private layout (simcore deliberately does not
    /// depend on the `obs` crate; the harness folds this snapshot into
    /// its registry).
    pub fn health(&self) -> QueueHealth {
        QueueHealth {
            near_depth: self.near.len(),
            ring_occupancy: self.ring_len,
            overflow_live: self.overflow_live,
            lane_depth: self.lane_len(),
            stale_timers: self.stale,
            slab_slots: self.slab.len(),
            free_slots: self.free.len(),
            len: self.len(),
            past_clamps: self.past_clamps,
            lane_fallbacks: self.lane_fallbacks,
        }
    }

    /// Iterate over the pending events in arbitrary order (used for
    /// end-of-run accounting, e.g. counting in-flight payloads).
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        let lanes = self.lanes.iter().flatten().map(|(_, _, event)| event);
        self.slab.iter().filter_map(|s| s.event.as_ref()).chain(lanes)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn health_snapshot_tracks_rungs_and_tombstones() {
        let mut q = EventQueue::new();
        assert_eq!(q.health(), QueueHealth::default());
        // The rungs partition the pending entries, and the slab holds
        // exactly one slot per pending payload — after every step.
        let check = |q: &EventQueue<&str>| {
            let h = q.health();
            assert_eq!(h.len, q.len());
            assert_eq!(h.near_depth + h.ring_occupancy + h.overflow_live, h.len);
            assert_eq!(h.slab_slots - h.free_slots, h.len, "slab slots in use != pending");
            h
        };
        // Events plus timers far enough apart to exercise rungs.
        for i in 0..8u64 {
            q.push(SimTime::from_nanos(i + 1), "ev");
            check(&q);
        }
        let far = q.schedule_timer(SimTime::from_nanos(1_000_000_000), "far");
        check(&q);
        let near = q.schedule_timer(SimTime::from_nanos(2), "near-timer");
        let h = check(&q);
        assert_eq!(h.stale_timers, 0);
        assert_eq!(h.slab_slots, 10);
        assert!(q.cancel_timer(near));
        check(&q);
        assert!(q.cancel_timer(far));
        // The bucket-resident cancel left one floating tombstone; the
        // far one was the overflow minimum, so its rescan dropped it.
        assert_eq!(check(&q).stale_timers, 1);
        while q.pop().is_some() {
            check(&q);
        }
        // Draining the last live event dropped the tombstone too.
        assert_eq!(
            q.health(),
            QueueHealth { slab_slots: 10, free_slots: 10, ..QueueHealth::default() }
        );
    }

    /// Lane entries count in `len` and `lane_depth`, take no slab slot,
    /// and pop merged with the wheel in `(time, seq)` order.
    #[test]
    fn health_splits_len_across_rungs_and_lanes() {
        let mut q = EventQueue::new();
        let check = |q: &EventQueue<u32>| {
            let h = q.health();
            assert_eq!(h.len, q.len());
            assert_eq!(h.near_depth + h.ring_occupancy + h.overflow_live + h.lane_depth, h.len);
            assert_eq!(h.slab_slots - h.free_slots, h.len - h.lane_depth);
            assert_eq!(q.iter().count(), h.len);
            h
        };
        q.push(SimTime::from_nanos(5), 0);
        q.push(SimTime::from_nanos(1_000_000), 1);
        q.push(SimTime::from_nanos(60_000_000_000), 2);
        assert!(q.push_lane(3, SimTime::from_nanos(5), 3));
        assert!(q.push_lane(0, SimTime::from_nanos(7), 4));
        assert!(q.push_lane(0, SimTime::from_nanos(7), 5));
        let h = check(&q);
        assert_eq!((h.lane_depth, h.len, h.slab_slots), (3, 6, 3));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        // Nothing fires by t = 4; the same-instant tie at t = 5 goes to
        // the wheel entry, pushed first.
        assert_eq!(q.pop_until(SimTime::from_nanos(4)), None);
        assert_eq!(q.pop_until(SimTime::from_nanos(5)), Some((SimTime::from_nanos(5), 0)));
        assert_eq!(check(&q).near_depth, 0);
        let order: Vec<u32> = std::iter::from_fn(|| {
            let popped = q.pop().map(|(_, v)| v);
            check(&q);
            popped
        })
        .collect();
        assert_eq!(order, [3, 4, 5, 1, 2]);
        assert_eq!(q.health().lane_depth, 0);
    }

    /// The buckets share one arena. 10k far-future pushes that a rebase
    /// files into one bucket size it; 10k more, spread over many
    /// buckets and rebases, reuse it: the ring keeps room for the most
    /// nodes it held at once, not for each bucket's largest batch.
    #[test]
    fn buckets_share_storage_sized_to_the_ring_peak() {
        let mut q = EventQueue::new();
        let fill = |q: &mut EventQueue<u64>, spacing: u64| {
            let base = q.now().as_nanos() + 1_000_000_000;
            for i in 0..10_000u64 {
                q.push(SimTime::from_nanos(base + i * spacing), i);
            }
            q.pop();
            let peak = q.health().ring_occupancy;
            while q.pop().is_some() {}
            peak
        };
        assert!(fill(&mut q, 10) > 9_000, "the rebase should file 10k nodes in the ring");
        let sized = q.links.capacity();
        assert!(sized < 2 * 10_000, "ring kept {sized} links");
        fill(&mut q, 100_000);
        assert_eq!(q.links.capacity(), sized, "spread pushes grew the ring's storage");
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(7), ());
        q.push(SimTime::from_nanos(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now().as_nanos(), 7);
        q.pop();
        assert_eq!(q.now().as_nanos(), 9);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 1u32);
        let (t, v) = q.pop().unwrap();
        assert_eq!(v, 1);
        // Schedule relative to the popped time.
        q.push(t + SimDuration::from_nanos(5), 2);
        q.push(t + SimDuration::from_nanos(1), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn counters_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_nanos(1), ());
        q.push(SimTime::from_nanos(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time().unwrap().as_nanos(), 1);
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
    }

    /// Deterministic LCG covering orderings a hand-written case misses:
    /// deep heaps, duplicate times, pops interleaved with pushes.
    #[test]
    fn randomized_schedule_pops_sorted_by_time_then_seq() {
        let mut state: u64 = 0x243F_6A88_85A3_08D3;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut q = EventQueue::new();
        let mut popped: Vec<(u64, u64)> = Vec::new();
        for round in 0..1000 {
            // Push a few events at times >= now (coarse buckets force
            // plenty of same-time collisions).
            for _ in 0..(next() % 4) {
                let t = q.now().as_nanos() + (next() % 16) * 10;
                q.push(SimTime::from_nanos(t), round);
            }
            if next() % 3 == 0 {
                if let Some((t, _)) = q.pop() {
                    popped.push((t.as_nanos(), 0));
                }
            }
        }
        while let Some((t, _)) = q.pop() {
            popped.push((t.as_nanos(), 0));
        }
        assert_eq!(q.total_pushed(), q.total_popped());
        // now() never went backwards and equals the last popped time.
        assert_eq!(q.now().as_nanos(), popped.last().unwrap().0);
    }

    /// Events spread across several slot widths: pops must still come
    /// out in exact `(time, seq)` order while the wheel drains bucket
    /// by bucket, and interleaved near-term pushes must not be starved
    /// by already-migrated later events.
    #[test]
    fn banded_schedule_pops_in_exact_order() {
        let mut q = EventQueue::new();
        // Far-flung timers first (all beyond the initial horizon)...
        for i in 0..500u64 {
            q.push(SimTime::from_nanos(1_000_000 + i * 7_919_773), i);
        }
        // ...then near-term chatter, including exact duplicates of the
        // earliest timer times.
        q.push(SimTime::from_nanos(1_000_000), 1000);
        q.push(SimTime::from_nanos(10), 1001);
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "times went backwards");
            last = t;
            popped += 1;
            // Mid-drain, schedule a near event: it must pop before any
            // pending far timer.
            if popped == 100 {
                q.push(q.now(), 2000);
                let (tn, v) = q.pop().unwrap();
                assert_eq!((tn, v), (q.now(), 2000));
            }
        }
        assert_eq!(q.total_pushed(), q.total_popped());
        assert_eq!(q.total_pushed(), 503);
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_capacity(1);
        for i in 0..50u64 {
            let t = SimTime::from_nanos((i * 7919) % 100);
            a.push(t, i);
            b.push(t, i);
        }
        for _ in 0..50 {
            assert_eq!(a.pop().unwrap(), b.pop().unwrap());
        }
    }

    #[test]
    fn timer_cancel_prevents_firing_and_reports_status() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 1u32);
        let id = q.schedule_timer(SimTime::from_nanos(20), 2);
        q.push(SimTime::from_nanos(30), 3);
        assert!(q.cancel_timer(id), "first cancel succeeds");
        assert!(!q.cancel_timer(id), "double cancel reports false");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
        assert_eq!(q.total_pushed(), 3);
        assert_eq!(q.total_cancelled(), 1);
        assert_eq!(q.total_popped(), 2);
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        let mut q = EventQueue::new();
        let id = q.schedule_timer(SimTime::from_nanos(5), 1u32);
        assert_eq!(q.pop().unwrap().1, 1);
        assert!(!q.cancel_timer(id));
        // Slot reuse must not let a stale id cancel the new tenant.
        let _id2 = q.schedule_timer(SimTime::from_nanos(9), 2);
        assert!(!q.cancel_timer(id));
        assert_eq!(q.pop().unwrap().1, 2);
    }

    /// Cancelling the exact minimum of each rung must keep `peek_time`
    /// exact (it drives the caller's end-of-run cutoff).
    #[test]
    fn cancel_of_rung_minimum_keeps_peek_exact() {
        let mut q = EventQueue::new();
        let a = q.schedule_timer(SimTime::from_nanos(1_000), 1u32);
        let b = q.schedule_timer(SimTime::from_nanos(2_000), 2);
        // Same bucket (initial width 2^18 ns): b is bucket minimum
        // after a is cancelled.
        assert!(q.cancel_timer(a));
        assert_eq!(q.peek_time().unwrap().as_nanos(), 2_000);
        // Overflow minimum: far beyond the ring.
        let c = q.schedule_timer(SimTime::from_nanos(7_200 * 1_000_000_000), 3);
        let _d = q.schedule_timer(SimTime::from_nanos(7_300 * 1_000_000_000), 4);
        assert!(q.cancel_timer(b));
        assert_eq!(q.peek_time().unwrap().as_nanos(), 7_200 * 1_000_000_000);
        assert!(q.cancel_timer(c));
        assert_eq!(q.peek_time().unwrap().as_nanos(), 7_300 * 1_000_000_000);
        assert_eq!(q.pop().unwrap().1, 4);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    /// A timer that has already migrated into the near run cancels
    /// eagerly (the run's tail must never be a tombstone).
    #[test]
    fn cancel_of_near_resident_timer() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), 0u32);
        let id = q.schedule_timer(SimTime::from_nanos(150), 1);
        q.push(SimTime::from_nanos(200), 2);
        // Pop once: the whole first bucket (all three entries)
        // migrates.
        assert_eq!(q.pop().unwrap().1, 0);
        assert!(q.cancel_timer(id));
        assert_eq!(q.peek_time().unwrap().as_nanos(), 200);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.pop().is_none());
    }

    /// An all-cancelled bucket must be skipped by migration without
    /// yielding phantom events.
    #[test]
    fn all_tombstone_bucket_is_skipped() {
        let mut q = EventQueue::new();
        let ids: Vec<_> =
            (0..10).map(|i| q.schedule_timer(SimTime::from_nanos(1_000 + i), i)).collect();
        q.push(SimTime::from_nanos(1_000_000_000), 99u64);
        for id in ids {
            assert!(q.cancel_timer(id));
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time().unwrap(), SimTime::from_nanos(1_000_000_000));
        assert_eq!(q.pop().unwrap().1, 99);
        assert!(q.pop().is_none());
    }

    /// Tombstones floating beyond the last live event must not outlive
    /// it: once nothing live is pending — whether the last entry popped
    /// or was cancelled — the queue reports zero stale timers.
    #[test]
    fn cancel_then_drain_leaves_no_tombstones() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(500), 0u64);
        let ids: Vec<_> =
            (1..=4).map(|i| q.schedule_timer(SimTime::from_nanos(1_000_000 + i), i)).collect();
        for id in ids {
            assert!(q.cancel_timer(id));
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.health().stale_timers, 4);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(500), 0)));
        assert_eq!(q.health().stale_timers, 0);
        assert!(q.pop().is_none());

        // The cancel that empties the queue sweeps as well.
        let a = q.schedule_timer(SimTime::from_nanos(2_000_000), 1);
        let b = q.schedule_timer(SimTime::from_nanos(2_000_001), 2);
        assert!(q.cancel_timer(b));
        assert_eq!(q.health().stale_timers, 1);
        assert!(q.cancel_timer(a));
        let h = q.health();
        assert_eq!((h.len, h.stale_timers), (0, 0));
        assert_eq!(h.slab_slots, h.free_slots);
        assert!(q.pop().is_none());
        assert_eq!(q.total_pushed() - q.total_cancelled() - q.total_popped(), 0);
    }

    /// Keys far beyond the ring span live in the overflow rung and
    /// surface via rebase, in exact order, even across multiple
    /// rebases.
    #[test]
    fn overflow_rebase_preserves_order() {
        let mut q = EventQueue::new();
        // Spread keys over ~100 s to force overflow and many rebases.
        let mut times: Vec<u64> = (0..2_000u64)
            .map(|i| (i.wrapping_mul(2_654_435_761) % 100_000) * 1_000_000)
            .collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        times.sort_unstable();
        for &expect in &times {
            let (t, _) = q.pop().expect("2000 keys pending");
            assert_eq!(t.as_nanos(), expect);
        }
        assert!(q.pop().is_none());
        assert_eq!(q.total_pushed(), q.total_popped());
    }

    /// Mixed plain events and timers interleaved across rungs must pop
    /// in exact `(time, seq)` order, with `iter` seeing exactly the
    /// live payloads.
    #[test]
    fn mixed_events_and_timers_pop_in_order() {
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for i in 0..400u64 {
            let t = (i.wrapping_mul(48_271) % 50_000) * 20_000;
            if i % 3 == 0 {
                let _ = q.schedule_timer(SimTime::from_nanos(t), i);
            } else {
                q.push(SimTime::from_nanos(t), i);
            }
            expect.push((t, i));
        }
        assert_eq!(q.iter().count(), 400);
        expect.sort_unstable();
        for &(t, v) in &expect {
            let (pt, pv) = q.pop().expect("entry pending");
            assert_eq!((pt.as_nanos(), pv), (t, v));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.pop();
        q.push(SimTime::from_nanos(5), ());
    }

    /// Release builds clamp past events to `now` — and count the clamp
    /// so the caller's watchdog can surface the masked causality bug.
    #[test]
    #[cfg(not(debug_assertions))]
    fn scheduling_in_past_clamps_and_counts_in_release() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 1u32);
        q.pop();
        assert_eq!(q.past_clamps(), 0);
        q.push(SimTime::from_nanos(5), 2);
        assert_eq!(q.past_clamps(), 1);
        let (t, v) = q.pop().unwrap();
        assert_eq!(t.as_nanos(), 10, "clamped to now");
        assert_eq!(v, 2);
    }
}
