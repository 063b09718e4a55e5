//! Differential test: [`simcore::EventQueue`] against a
//! `BinaryHeap` reference, on randomized schedules — plain-push
//! schedules with no cancels, pacing/RTO-style workloads through the
//! timer path ([`EventQueue::schedule_timer`] /
//! [`EventQueue::cancel_timer`]), and FIFO lane streams
//! ([`EventQueue::push_lane`]) mixed with both.
//!
//! The determinism contract (DESIGN.md §6e/§6g) says any correct
//! min-heap keyed on `(time, seq)` pops the *identical* total order,
//! because the monotonically increasing `seq` makes every key unique.
//! It extends to cancelable timers: a timer shares the queue's single
//! `(time, seq)` key space with plain events, so the pop stream of the
//! survivors must be *identical* to a heap that never had the cancelled
//! keys — tombstones and lazily-filtered wheel buckets are invisible in
//! the output. The reference mirrors that by assigning the same
//! monotone sequence numbers and skipping cancelled ones at pop time.
//! Lanes take keys from the same counter, so a lane push is a plain
//! push to the reference.
//!
//! Randomness is a hand-rolled LCG from fixed seeds (same policy as
//! `tests/properties.rs`): failures are reproducible by construction.

use dtnperf::simcore::{EventQueue, SimDuration, SimTime, TimerId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Reference queue: a plain binary heap over `(time, seq, payload)`
/// plus a cancelled-seq set consulted at pop time. Every insert —
/// whether it models a plain push or a cancelable timer — consumes one
/// sequence number, exactly like the engine's shared counter.
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    cancelled: HashSet<u64>,
    seq: u64,
    now: SimTime,
}

impl ReferenceQueue {
    fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Insert and return the assigned seq (the reference's "timer id").
    fn push(&mut self, at: SimTime, payload: u64) -> u64 {
        let at = at.max(self.now); // mirror the engine's past clamp
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, seq, payload)));
        seq
    }

    /// Cancel by seq; true if it was still pending (like the engine).
    fn cancel(&mut self, seq: u64) -> bool {
        // The heap still physically holds the entry; pop() filters it.
        // Inserting twice or cancelling a popped seq reads as false.
        if self.heap.iter().any(|Reverse((_, s, _))| *s == seq) && self.cancelled.insert(seq) {
            return true;
        }
        false
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        while let Some(Reverse((t, seq, payload))) = self.heap.pop() {
            if self.cancelled.remove(&seq) {
                continue;
            }
            self.now = t;
            return Some((t, payload));
        }
        None
    }

    /// Firing time of the next live entry.
    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, seq, _))) = self.heap.peek() {
            if !self.cancelled.contains(&seq) {
                return Some(t);
            }
            self.heap.pop();
            self.cancelled.remove(&seq);
        }
        None
    }

    /// Pop only if the next live entry fires at or before `end`.
    fn pop_until(&mut self, end: SimTime) -> Option<(SimTime, u64)> {
        while let Some(&Reverse((t, seq, _))) = self.heap.peek() {
            if !self.cancelled.contains(&seq) {
                return if t <= end { self.pop() } else { None };
            }
            self.heap.pop();
            self.cancelled.remove(&seq);
        }
        None
    }
}

/// Minimal LCG (Numerical Recipes constants), good enough to scatter
/// times and interleave operations.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn assert_drained_identically(engine: &mut EventQueue<u64>, reference: &mut ReferenceQueue) {
    loop {
        let a = engine.pop();
        let b = reference.pop();
        assert_eq!(a, b, "engine and reference diverged while draining");
        if a.is_none() {
            break;
        }
    }
}

/// The paper-simulation workload shape: per-burst pacing events nanos
/// out, RTO/TLP timers milliseconds out that usually get cancelled
/// (rescheduled) before firing, and steady pops advancing the clock.
#[test]
fn randomized_pacing_rto_workload_matches_reference() {
    for seed in 0..24u64 {
        let mut rng = Lcg(0xba5eba11 ^ (seed << 13));
        let mut engine: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        // Outstanding cancelable timers: (engine id, reference seq).
        let mut timers: Vec<(TimerId, u64)> = Vec::new();
        let mut payload = 0u64;
        for _ in 0..5000 {
            match rng.next() % 8 {
                // Pacing-like near events (plain pushes, never cancelled).
                0..=3 => {
                    let t = engine.now() + SimDuration::from_nanos(rng.next() % 4096);
                    engine.push(t, payload);
                    reference.push(t, payload);
                    payload += 1;
                }
                // RTO/TLP-like timers: 1–20 ms out, cancelable.
                4 => {
                    let t = engine.now()
                        + SimDuration::from_nanos(1_000_000 + rng.next() % 19_000_000);
                    let id = engine.schedule_timer(t, payload);
                    let seq = reference.push(t, payload);
                    timers.push((id, seq));
                    payload += 1;
                }
                // Cancel a random outstanding timer (an ACK re-arming
                // the RTO). Both sides must agree whether it was live.
                5 => {
                    if !timers.is_empty() {
                        let i = (rng.next() as usize) % timers.len();
                        let (id, seq) = timers.swap_remove(i);
                        assert_eq!(
                            engine.cancel_timer(id),
                            reference.cancel(seq),
                            "cancel liveness diverged (seed {seed})"
                        );
                    }
                }
                // Pops advance `now`, so later pushes land relative to
                // a moving clock like a real run.
                _ => {
                    assert_eq!(engine.pop(), reference.pop(), "mid-run divergence (seed {seed})");
                }
            }
        }
        assert_drained_identically(&mut engine, &mut reference);
        assert_eq!(
            engine.total_pushed() - engine.total_cancelled() - engine.total_popped(),
            0,
            "conservation after drain (seed {seed})"
        );
    }
}

/// Heavy same-time collisions across both scheduling paths: plain
/// events and timers landing on identical instants must interleave in
/// exact FIFO (seq) order, including after some timers are cancelled.
#[test]
fn same_time_mixed_events_and_timers_keep_fifo_order() {
    for seed in 0..8u64 {
        let mut rng = Lcg(0x7ea7 ^ (seed << 29));
        let mut engine: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut timers = Vec::new();
        for payload in 0..3000u64 {
            // Only 16 distinct instants: nearly everything collides.
            let t = SimTime::ZERO + SimDuration::from_nanos(rng.next() % 16);
            if rng.next().is_multiple_of(3) {
                let id = engine.schedule_timer(t, payload);
                let seq = reference.push(t, payload);
                timers.push((id, seq));
            } else {
                engine.push(t, payload);
                reference.push(t, payload);
            }
        }
        // Cancel half of the timers, scattered.
        for (i, (id, seq)) in timers.into_iter().enumerate() {
            if i.is_multiple_of(2) {
                assert_eq!(engine.cancel_timer(id), reference.cancel(seq));
            }
        }
        assert_drained_identically(&mut engine, &mut reference);
    }
}

/// Cancel storms around partial drains: cancelling timers that already
/// fired must be a no-op on both sides, and timers cancelled while
/// resident in far wheel buckets must never resurface.
#[test]
fn cancel_after_partial_drain_matches_reference() {
    for seed in 0..8u64 {
        let mut rng = Lcg(0xc0ffee ^ (seed << 7));
        let mut engine: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut timers = Vec::new();
        for payload in 0..2000u64 {
            // Spread across the near band, the wheel ring, and the
            // overflow horizon (three rungs of the scheduler).
            let t = SimTime::ZERO + SimDuration::from_nanos(rng.next() % 3_000_000_000);
            let id = engine.schedule_timer(t, payload);
            let seq = reference.push(t, payload);
            timers.push((id, seq));
        }
        // Drain a third, cancel a random half (some already fired —
        // both sides must report them dead), then drain the rest.
        for _ in 0..timers.len() / 3 {
            assert_eq!(engine.pop(), reference.pop(), "pre-cancel divergence (seed {seed})");
        }
        for (i, (id, seq)) in timers.into_iter().enumerate() {
            if rng.next().is_multiple_of(2) {
                assert_eq!(
                    engine.cancel_timer(id),
                    reference.cancel(seq),
                    "cancel #{i} liveness diverged (seed {seed})"
                );
            }
        }
        assert_drained_identically(&mut engine, &mut reference);
    }
}

/// The near rung is a run sorted by descending `(time, seq)`; this
/// stresses its three non-trivial paths against the reference heap:
/// pushes that land at the *head* of the run (just under the horizon,
/// so the insert walks the whole run), dense same-time ties (the insert
/// must pass every equal-time entry), and near-resident cancels (a
/// binary search and removal) interleaved with pops.
#[test]
fn sorted_near_run_head_inserts_ties_and_cancels_match_reference() {
    // Initial wheel bucket width. Nothing here is pushed more than one
    // bucket past `now`, so the ring never rebases and bucket `k`
    // keeps covering `[k * SPAN, (k + 1) * SPAN)`; once the bucket
    // holding `now` has migrated, the horizon is its last nanosecond.
    const SPAN: u64 = 1 << 18;
    for seed in 0..8u64 {
        let mut rng = Lcg(0x5eed ^ (seed << 17));
        let mut engine: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut timers: Vec<(TimerId, u64)> = Vec::new();
        let mut payload = 0u64;
        let mut head_inserts = 0;
        for step in 0..4000 {
            let now = engine.now().as_nanos();
            match rng.next() % 10 {
                // Head-of-run pushes, half of them cancelable timers.
                0..=2 => {
                    let head = (now | (SPAN - 1)) - rng.next() % 4;
                    let t = SimTime::from_nanos(head.max(now));
                    let depth = engine.health().near_depth;
                    if rng.next().is_multiple_of(2) {
                        let id = engine.schedule_timer(t, payload);
                        timers.push((id, reference.push(t, payload)));
                    } else {
                        engine.push(t, payload);
                        reference.push(t, payload);
                    }
                    if engine.health().near_depth > depth {
                        head_inserts += 1;
                    }
                    payload += 1;
                }
                // Dense ties: bursts onto three instants at `now`.
                3..=5 => {
                    let t = SimTime::from_nanos(now + rng.next() % 3);
                    for _ in 0..1 + rng.next() % 8 {
                        if rng.next().is_multiple_of(3) {
                            let id = engine.schedule_timer(t, payload);
                            timers.push((id, reference.push(t, payload)));
                        } else {
                            engine.push(t, payload);
                            reference.push(t, payload);
                        }
                        payload += 1;
                    }
                }
                // Cancels: mostly near-resident, some already fired.
                6 | 7 => {
                    if !timers.is_empty() {
                        let i = (rng.next() as usize) % timers.len();
                        let (id, seq) = timers.swap_remove(i);
                        assert_eq!(
                            engine.cancel_timer(id),
                            reference.cancel(seq),
                            "cancel liveness diverged (seed {seed}, step {step})"
                        );
                    }
                }
                _ => {
                    assert_eq!(
                        engine.pop(),
                        reference.pop(),
                        "mid-run divergence (seed {seed}, step {step})"
                    );
                }
            }
            // Every few hundred steps, drain most of the queue so the
            // clock (and the run) moves on to later buckets.
            if step % 500 == 499 {
                for _ in 0..engine.len() * 3 / 4 {
                    assert_eq!(engine.pop(), reference.pop(), "drain divergence (seed {seed})");
                }
            }
            let h = engine.health();
            assert_eq!(h.slab_slots - h.free_slots, h.len, "slab accounting (seed {seed})");
        }
        assert!(head_inserts > 500, "only {head_inserts} head pushes hit the run (seed {seed})");
        assert_drained_identically(&mut engine, &mut reference);
        assert_eq!(engine.health().stale_timers, 0, "tombstones after drain (seed {seed})");
    }
}

#[test]
fn randomized_bulk_schedules_match_reference() {
    for seed in 0..32u64 {
        let mut rng = Lcg(0x9e3779b97f4a7c15 ^ seed);
        let mut engine = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let n = 1 + (rng.next() % 2000) as usize;
        // Alternate seeds between a tight time range (heavy same-time
        // collisions, where FIFO tie-ordering actually matters) and a
        // seconds-wide one (events land far beyond the near band).
        let spread = if seed.is_multiple_of(2) { 64 } else { 3_000_000_000 };
        for i in 0..n {
            let t = SimTime::ZERO + SimDuration::from_nanos(rng.next() % spread);
            engine.push(t, i as u64);
            reference.push(t, i as u64);
        }
        assert_drained_identically(&mut engine, &mut reference);
    }
}

#[test]
fn interleaved_push_pop_matches_reference() {
    for seed in 0..16u64 {
        let mut rng = Lcg(0xdeadbeefcafe ^ (seed << 17));
        let mut engine = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut next_payload = 0u64;
        for _ in 0..4000 {
            // Bias towards pushes so the queues stay non-trivially
            // deep; pops advance `now`, making later pushes relative
            // to a moving clock like a real simulation.
            if !rng.next().is_multiple_of(3) {
                // Mostly near-term events plus an RTO-timer-like tail
                // milliseconds out — the bimodal spread a TCP
                // simulation produces, which keeps the engine's far
                // band (see DESIGN.md §6e) busy migrating.
                let delta = if rng.next().is_multiple_of(7) {
                    SimDuration::from_nanos(1_000_000 + rng.next() % 20_000_000)
                } else {
                    SimDuration::from_nanos(rng.next() % 1000)
                };
                let t = engine.now() + delta;
                engine.push(t, next_payload);
                reference.push(t, next_payload);
                next_payload += 1;
            } else {
                assert_eq!(engine.pop(), reference.pop(), "mid-run divergence");
            }
        }
        assert_drained_identically(&mut engine, &mut reference);
    }
}

#[test]
fn popped_times_are_monotone_and_count_preserving() {
    let mut rng = Lcg(42);
    let mut engine = EventQueue::with_capacity(512);
    let n = 5000u64;
    for i in 0..n {
        let t = SimTime::ZERO + SimDuration::from_micros(rng.next() % 10_000);
        engine.push(t, i);
    }
    let mut last = SimTime::ZERO;
    let mut seen = 0u64;
    while let Some((t, _)) = engine.pop() {
        assert!(t >= last, "pop times went backwards");
        last = t;
        seen += 1;
    }
    assert_eq!(seen, n, "events were lost or duplicated");
    assert_eq!(engine.total_popped(), engine.total_pushed());
}

/// Random operations over three monotone lane streams, plain wheel
/// pushes and cancelable timers: the lane keys share the wheel's
/// `(time, seq)` space, so the merged pop stream — through `pop` and
/// `pop_until` alike — must be the reference heap's.
#[test]
fn lane_streams_mixed_with_wheel_and_timers_match_reference() {
    for seed in 0..16u64 {
        let mut rng = Lcg(0x1a9e ^ (seed << 11));
        let mut engine: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut tails = [SimTime::ZERO; 3];
        let mut timers: Vec<(TimerId, u64)> = Vec::new();
        for step in 0..6000u64 {
            let payload = step;
            let now = engine.now();
            match rng.next() % 10 {
                // A lane stream: fixed-delay-like, never earlier than
                // its own tail, sometimes equal to it.
                0..=3 => {
                    let lane = (rng.next() % 3) as usize;
                    let delay = [1_000, 50_000, 30_000_000][lane];
                    let t = (now + SimDuration::from_nanos(delay + rng.next() % 2_000))
                        .max(tails[lane]);
                    tails[lane] = t;
                    assert!(engine.push_lane(lane, t, payload), "monotone push fell back");
                    reference.push(t, payload);
                }
                4 | 5 => {
                    let t = now + SimDuration::from_nanos(rng.next() % 5_000_000);
                    engine.push(t, payload);
                    reference.push(t, payload);
                }
                6 => {
                    let t = now + SimDuration::from_nanos(1_000_000 + rng.next() % 200_000_000);
                    timers.push((engine.schedule_timer(t, payload), reference.push(t, payload)));
                }
                7 => {
                    if !timers.is_empty() {
                        let (id, seq) = timers.swap_remove((rng.next() as usize) % timers.len());
                        assert_eq!(engine.cancel_timer(id), reference.cancel(seq));
                    }
                }
                8 => {
                    let end = now + SimDuration::from_nanos(rng.next() % 100_000);
                    assert_eq!(
                        engine.pop_until(end),
                        reference.pop_until(end),
                        "pop_until divergence (seed {seed}, step {step})"
                    );
                }
                _ => {
                    assert_eq!(
                        engine.pop(),
                        reference.pop(),
                        "mid-run divergence (seed {seed}, step {step})"
                    );
                }
            }
            let h = engine.health();
            assert_eq!(
                h.near_depth + h.ring_occupancy + h.overflow_live + h.lane_depth,
                h.len,
                "rung split (seed {seed})"
            );
            assert_eq!(h.slab_slots - h.free_slots, h.len - h.lane_depth, "slab (seed {seed})");
        }
        assert_eq!(engine.iter().count(), engine.len());
        assert_drained_identically(&mut engine, &mut reference);
    }
}

/// Same-instant ties everywhere: lane heads, the near run and far
/// wheel buckets all hold entries at the same few instants, so every
/// pop is decided by `seq` alone.
#[test]
fn lane_ties_with_near_run_and_buckets_keep_fifo_order() {
    // Instants one bucket width (2^18 ns) apart, so the ties sit in the
    // near run and in several ring buckets at once.
    const INSTANTS: u64 = 12;
    const GAP: u64 = 1 << 18;
    for seed in 0..8u64 {
        let mut rng = Lcg(0x71e5 ^ (seed << 23));
        let mut engine: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut tails = [0u64; 2];
        for payload in 0..4000u64 {
            let now = engine.now().as_nanos().div_ceil(GAP);
            let pick = |rng: &mut Lcg, from: u64| {
                SimTime::from_nanos((from + rng.next() % 3).min(INSTANTS) * GAP)
            };
            match rng.next() % 6 {
                0 | 1 => {
                    let lane = (rng.next() % 2) as usize;
                    let t = pick(&mut rng, now.max(tails[lane]));
                    tails[lane] = t.as_nanos() / GAP;
                    assert!(engine.push_lane(lane, t, payload));
                    reference.push(t, payload);
                }
                2 | 3 => {
                    let t = pick(&mut rng, now);
                    engine.push(t, payload);
                    reference.push(t, payload);
                }
                4 => {
                    let t = pick(&mut rng, now);
                    let _ = engine.schedule_timer(t, payload);
                    reference.push(t, payload);
                }
                _ => assert_eq!(engine.pop(), reference.pop(), "tie divergence (seed {seed})"),
            }
        }
        assert_drained_identically(&mut engine, &mut reference);
    }
}

/// A lane push earlier than its lane's tail goes to the wheel under
/// the key it was stamped with, and still pops in reference order.
#[test]
fn non_monotone_lane_push_falls_back_to_the_wheel() {
    let mut engine: EventQueue<u64> = EventQueue::new();
    assert!(engine.push_lane(0, SimTime::from_nanos(500), 0));
    assert!(!engine.push_lane(0, SimTime::from_nanos(100), 1));
    assert!(engine.push_lane(0, SimTime::from_nanos(500), 2));
    let h = engine.health();
    assert_eq!((h.lane_depth, h.len, h.lane_fallbacks), (2, 3, 1));
    assert_eq!(engine.peek_time(), Some(SimTime::from_nanos(100)));
    let order: Vec<u64> = std::iter::from_fn(|| engine.pop().map(|(_, p)| p)).collect();
    assert_eq!(order, [1, 0, 2]);
    assert_eq!(engine.health().lane_fallbacks, 1, "a lifetime count, not a depth");

    for seed in 0..8u64 {
        let mut rng = Lcg(0xfa11 ^ (seed << 5));
        let mut engine: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut fell_back = 0;
        for payload in 0..4000u64 {
            if rng.next().is_multiple_of(4) {
                assert_eq!(engine.pop(), reference.pop(), "divergence (seed {seed})");
                continue;
            }
            let t = engine.now() + SimDuration::from_nanos(rng.next() % 3_000_000);
            fell_back += usize::from(!engine.push_lane((payload % 2) as usize, t, payload));
            reference.push(t, payload);
        }
        assert!(fell_back > 1000, "only {fell_back} fallbacks (seed {seed})");
        assert_drained_identically(&mut engine, &mut reference);
    }
}

/// A clone taken mid-stream (a checkpoint) holds the lanes too: it pops
/// exactly what the original pops.
#[test]
fn clone_mid_lane_stream_pops_identically() {
    let mut rng = Lcg(0xc10e);
    let mut engine: EventQueue<u64> = EventQueue::new();
    let mut reference = ReferenceQueue::new();
    let mut tail = SimTime::ZERO;
    for payload in 0..3000u64 {
        match rng.next() % 4 {
            0 => {
                tail = tail.max(engine.now() + SimDuration::from_nanos(rng.next() % 40_000_000));
                assert!(engine.push_lane(1, tail, payload));
                reference.push(tail, payload);
            }
            1 => {
                let t = engine.now() + SimDuration::from_nanos(rng.next() % 40_000_000);
                let _ = engine.schedule_timer(t, payload);
                reference.push(t, payload);
            }
            _ => assert_eq!(engine.pop(), reference.pop()),
        }
    }
    let mut copy = engine.clone();
    assert!(copy.health().lane_depth > 0);
    assert_eq!(copy.health(), engine.health());
    loop {
        let (a, b) = (engine.pop(), copy.pop());
        assert_eq!(a, b, "clone diverged");
        assert_eq!(a, reference.pop(), "original diverged from the reference");
        if a.is_none() {
            break;
        }
    }
}

/// Run `op` on `engine` and, once it exists, on its mid-stream clone:
/// the two must answer alike.
fn on_both<R: PartialEq + std::fmt::Debug>(
    engine: &mut EventQueue<u64>,
    copy: &mut Option<EventQueue<u64>>,
    op: impl Fn(&mut EventQueue<u64>) -> R,
) -> R {
    let answer = op(engine);
    if let Some(copy) = copy {
        assert_eq!(op(copy), answer, "the clone diverged");
    }
    answer
}

/// Lanes that drain to empty and refill, over and over, mixed with
/// wheel pushes: `peek_time` must name the next popped time after every
/// operation, and a clone taken mid-stream must answer every later
/// operation as the original does.
#[test]
fn lanes_draining_and_refilling_keep_peek_and_pop_exact() {
    for seed in 0..8u64 {
        let mut rng = Lcg(0x4ead ^ (seed << 19));
        let mut engine: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut copy = None;
        let mut tails = [SimTime::ZERO; 4];
        // Pending entries per lane, and the lane of each laned payload.
        let mut depth = [0usize; 4];
        let mut lane_of = std::collections::HashMap::new();
        let mut refills = 0;
        let mut payload = 0u64;
        for step in 0..6000u64 {
            let now = engine.now();
            match rng.next() % 10 {
                // Short bursts onto a lane, often one that just drained.
                0..=2 => {
                    let lane = (rng.next() % 4) as usize;
                    refills += usize::from(depth[lane] == 0);
                    for _ in 0..1 + rng.next() % 2 {
                        let t = now + SimDuration::from_nanos(rng.next() % 3_000);
                        let t = t.max(tails[lane]);
                        tails[lane] = t;
                        assert!(on_both(&mut engine, &mut copy, |q| q.push_lane(lane, t, payload)));
                        reference.push(t, payload);
                        lane_of.insert(payload, lane);
                        depth[lane] += 1;
                        payload += 1;
                    }
                }
                3 => {
                    let t = now + SimDuration::from_nanos(rng.next() % 2_000_000);
                    on_both(&mut engine, &mut copy, |q| q.push(t, payload));
                    reference.push(t, payload);
                    payload += 1;
                }
                // Pops outnumber pushes, so every lane keeps draining.
                _ => {
                    let popped = on_both(&mut engine, &mut copy, EventQueue::pop);
                    assert_eq!(popped, reference.pop(), "divergence (seed {seed}, step {step})");
                    if let Some(lane) = popped.and_then(|(_, p)| lane_of.remove(&p)) {
                        depth[lane] -= 1;
                    }
                }
            }
            let peek = on_both(&mut engine, &mut copy, |q| q.peek_time());
            assert_eq!(peek, reference.peek_time(), "peek (seed {seed}, step {step})");
            // Clone halfway, at the first step with a lane entry pending.
            if step >= 3000 && copy.is_none() && engine.health().lane_depth > 0 {
                copy = Some(engine.clone());
            }
        }
        assert!(refills > 300, "only {refills} refills of a drained lane (seed {seed})");
        assert!(copy.is_some(), "no clone taken (seed {seed})");
        while let Some(popped) = on_both(&mut engine, &mut copy, EventQueue::pop) {
            assert_eq!(Some(popped), reference.pop(), "drain divergence (seed {seed})");
        }
        assert_eq!(reference.pop(), None);
    }
}

/// `pop_until(end)` pops a lane head at exactly `end` and leaves one at
/// `end + 1`, whichever of a lane or the wheel holds the entry.
#[test]
fn pop_until_bounds_lane_heads_inclusively() {
    for on_lane in [true, false] {
        let mut engine: EventQueue<u64> = EventQueue::new();
        let push = |engine: &mut EventQueue<u64>, t: u64, payload| {
            if on_lane {
                assert!(engine.push_lane(2, SimTime::from_nanos(t), payload));
            } else {
                engine.push(SimTime::from_nanos(t), payload);
            }
        };
        push(&mut engine, 1_000, 0);
        push(&mut engine, 1_001, 1);
        assert!(engine.push_lane(0, SimTime::from_nanos(5_000), 2));
        let end = SimTime::from_nanos(1_000);
        assert_eq!(engine.pop_until(end), Some((end, 0)));
        assert_eq!(engine.pop_until(end), None, "a head at end + 1 popped");
        assert_eq!(engine.peek_time(), Some(SimTime::from_nanos(1_001)));
        assert_eq!(engine.now(), end);
        let next = SimTime::from_nanos(1_001);
        assert_eq!(engine.pop_until(next), Some((next, 1)));
        assert_eq!(engine.pop_until(SimTime::from_nanos(4_999)), None);
        assert_eq!(engine.pop(), Some((SimTime::from_nanos(5_000), 2)));
        assert_eq!((engine.pop(), engine.peek_time()), (None, None));
    }
}

/// Lane and wheel entries at the very end of the clock, `u64::MAX`
/// included: the packed keys still order them, and the last one is
/// still distinguishable from an empty queue.
#[test]
fn lane_times_near_the_end_of_the_clock_match_reference() {
    let mut engine: EventQueue<u64> = EventQueue::new();
    let mut reference = ReferenceQueue::new();
    let max = u64::MAX;
    let schedule = [
        (Some(0), max - 9),
        (None, max - 5),
        (Some(1), max - 5),
        (Some(0), max - 5),
        (None, max),
        (Some(1), max),
        (Some(0), max),
        (None, max - 1),
    ];
    for (payload, &(lane, t)) in schedule.iter().enumerate() {
        let t = SimTime::from_nanos(t);
        match lane {
            Some(lane) => assert!(engine.push_lane(lane, t, payload as u64)),
            None => engine.push(t, payload as u64),
        }
        reference.push(t, payload as u64);
    }
    assert_eq!(engine.pop_until(SimTime::from_nanos(max - 10)), None);
    let end = SimTime::from_nanos(max - 1);
    loop {
        assert_eq!(engine.peek_time(), reference.peek_time());
        let popped = engine.pop_until(end);
        assert_eq!(popped, reference.pop_until(end));
        if popped.is_none() {
            break;
        }
    }
    assert_eq!(engine.len(), 3, "the three entries at u64::MAX stay pending");
    assert_eq!(engine.peek_time(), Some(SimTime::from_nanos(max)));
    assert_drained_identically(&mut engine, &mut reference);
    assert_eq!(engine.peek_time(), None);
}

/// Several FIFO servers share one lane, as a simulator's flows share a
/// lane per event kind: each server's completions never go back in
/// time, but the merged stream does, so pushes alternate between the
/// lane and the wheel. Times on a coarse grid make same-instant ties
/// between laned and fallen-back entries common; a clone taken
/// mid-stream must answer every later operation alike, and
/// `lane_fallbacks` must count exactly the pushes that fell back.
#[test]
fn interleaved_server_streams_in_one_lane_match_reference() {
    const SERVERS: usize = 4;
    const GRID: u64 = 1_000;
    for seed in 0..8u64 {
        let mut rng = Lcg(0x5e4e ^ (seed << 13));
        let mut engine: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut copy = None;
        let mut busy_until = [SimTime::ZERO; SERVERS];
        let mut laned = std::collections::HashMap::new();
        let (mut fell_back, mut mixed_ties) = (0u64, 0u64);
        let mut last_pop: Option<(SimTime, bool)> = None;
        for payload in 0..8000u64 {
            let now = engine.now();
            match rng.next() % 8 {
                // One server completes a job: after its previous one,
                // never before now.
                0..=3 => {
                    let s = (rng.next() % SERVERS as u64) as usize;
                    let service = SimDuration::from_nanos(GRID * (rng.next() % 4));
                    let t = busy_until[s].max(now) + service;
                    busy_until[s] = t;
                    let in_lane = on_both(&mut engine, &mut copy, |q| q.push_lane(0, t, payload));
                    fell_back += u64::from(!in_lane);
                    laned.insert(payload, in_lane);
                    reference.push(t, payload);
                }
                4 => {
                    let t = now + SimDuration::from_nanos(GRID * (rng.next() % 8));
                    on_both(&mut engine, &mut copy, |q| q.push(t, payload));
                    laned.insert(payload, false);
                    reference.push(t, payload);
                }
                _ => {
                    let popped = on_both(&mut engine, &mut copy, EventQueue::pop);
                    assert_eq!(popped, reference.pop(), "divergence (seed {seed}, step {payload})");
                    if let Some((t, p)) = popped {
                        let in_lane = laned.remove(&p).expect("popped payload was pushed");
                        if last_pop.is_some_and(|(lt, ll)| lt == t && ll != in_lane) {
                            mixed_ties += 1;
                        }
                        last_pop = Some((t, in_lane));
                    }
                }
            }
            assert_eq!(engine.health().lane_fallbacks, fell_back, "fallback count (seed {seed})");
            if payload == 4000 {
                copy = Some(engine.clone());
            }
        }
        assert!(fell_back > 500, "only {fell_back} fallbacks (seed {seed})");
        assert!(mixed_ties > 100, "only {mixed_ties} laned/wheel ties (seed {seed})");
        while let Some(popped) = on_both(&mut engine, &mut copy, EventQueue::pop) {
            assert_eq!(Some(popped), reference.pop(), "drain divergence (seed {seed})");
        }
        assert_eq!(reference.pop(), None);
    }
}

/// Selection over many lane heads, most of them empty: a few sparse
/// lane numbers out of 0..=63 (always 0 and 63, the ends of the head
/// scan) drain and refill among wheel pushes and cancelable timers.
/// After every operation `peek_time` must match the reference; pops go
/// through `pop` and through `pop_until` at exactly the next head time
/// (with `pop_until` one nanosecond earlier popping nothing); and a
/// clone taken mid-stream must answer every later operation alike.
#[test]
fn sparse_lanes_up_to_63_select_the_reference_minimum() {
    for seed in 0..8u64 {
        let mut rng = Lcg(0x5e1e ^ (seed << 17));
        let mut lanes = vec![0, 63];
        while lanes.len() < 6 {
            let lane = (rng.next() % 64) as usize;
            if !lanes.contains(&lane) {
                lanes.push(lane);
            }
        }
        let mut engine: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut copy = None;
        let mut tails = [SimTime::ZERO; 64];
        let mut depth = [0usize; 64];
        // The lane of each laned payload; wheel payloads are absent.
        let mut lane_of = std::collections::HashMap::new();
        let mut timers: Vec<(TimerId, u64)> = Vec::new();
        let (mut refills, mut lane_pops, mut wheel_pops) = (0, [0usize; 64], 0);
        let mut payload = 0u64;
        for step in 0..8000u64 {
            let now = engine.now();
            // Pops outnumber pushes, so every lane keeps draining.
            match rng.next() % 12 {
                0..=2 => {
                    let lane = lanes[(rng.next() % lanes.len() as u64) as usize];
                    refills += usize::from(depth[lane] == 0);
                    for _ in 0..1 + rng.next() % 2 {
                        let t =
                            (now + SimDuration::from_nanos(rng.next() % 20_000)).max(tails[lane]);
                        tails[lane] = t;
                        assert!(on_both(&mut engine, &mut copy, |q| q.push_lane(lane, t, payload)));
                        reference.push(t, payload);
                        lane_of.insert(payload, lane);
                        depth[lane] += 1;
                        payload += 1;
                    }
                }
                3 => {
                    let t = now + SimDuration::from_nanos(rng.next() % 50_000_000);
                    on_both(&mut engine, &mut copy, |q| q.push(t, payload));
                    reference.push(t, payload);
                    payload += 1;
                }
                4 => {
                    let t = now + SimDuration::from_nanos(rng.next() % 200_000_000);
                    // A clone holds the same slots, so the original's
                    // receipt cancels the copy's timer too.
                    let id = engine.schedule_timer(t, payload);
                    if let Some(copy) = &mut copy {
                        copy.schedule_timer(t, payload);
                    }
                    timers.push((id, reference.push(t, payload)));
                    payload += 1;
                }
                5 if !timers.is_empty() => {
                    let (id, seq) = timers.swap_remove((rng.next() as usize) % timers.len());
                    let cancelled = on_both(&mut engine, &mut copy, |q| q.cancel_timer(id));
                    assert_eq!(
                        cancelled,
                        reference.cancel(seq),
                        "cancel (seed {seed}, step {step})"
                    );
                }
                kind => {
                    let popped = match reference.peek_time() {
                        Some(t) if kind % 2 == 0 => {
                            if t > now {
                                let early = SimTime::from_nanos(t.as_nanos() - 1);
                                let none = on_both(&mut engine, &mut copy, |q| q.pop_until(early));
                                assert_eq!(none, None, "popped early (seed {seed}, step {step})");
                            }
                            let popped = on_both(&mut engine, &mut copy, |q| q.pop_until(t));
                            assert_eq!(popped, reference.pop_until(t));
                            popped
                        }
                        _ => {
                            let popped = on_both(&mut engine, &mut copy, EventQueue::pop);
                            assert_eq!(popped, reference.pop());
                            popped
                        }
                    };
                    assert!(popped.is_some() || reference.peek_time().is_none());
                    if let Some((_, p)) = popped {
                        match lane_of.remove(&p) {
                            Some(lane) => {
                                depth[lane] -= 1;
                                lane_pops[lane] += 1;
                            }
                            None => wheel_pops += 1,
                        }
                    }
                }
            }
            let peek = on_both(&mut engine, &mut copy, |q| q.peek_time());
            assert_eq!(peek, reference.peek_time(), "peek (seed {seed}, step {step})");
            if step >= 4000 && copy.is_none() && engine.health().lane_depth > 0 {
                copy = Some(engine.clone());
            }
        }
        assert!(refills > 1000, "only {refills} refills (seed {seed})");
        assert!(wheel_pops > 500, "only {wheel_pops} wheel pops (seed {seed})");
        for &lane in &lanes {
            assert!(lane_pops[lane] > 300, "lane {lane}: {} pops (seed {seed})", lane_pops[lane]);
        }
        assert!(copy.is_some(), "no clone taken (seed {seed})");
        while let Some(popped) = on_both(&mut engine, &mut copy, EventQueue::pop) {
            assert_eq!(Some(popped), reference.pop(), "drain divergence (seed {seed})");
        }
        assert_eq!((reference.pop(), engine.peek_time()), (None, None));
    }
}
