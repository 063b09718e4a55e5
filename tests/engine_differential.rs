//! Differential test: the timer-wheel engine inside
//! [`simcore::EventQueue`] against a straightforward
//! `BinaryHeap`-based reference, on randomized push/pop schedules.
//!
//! The determinism contract (DESIGN.md §6e) says any correct min-heap
//! keyed on `(time, seq)` pops the *identical* total order, because
//! the monotonically increasing `seq` makes every key unique. This
//! suite is the executable form of that claim: if the engine's ordering
//! logic ever breaks tie-ordering or drops an element, these tests
//! catch it without needing a full simulation to diverge first.
//!
//! Randomness is a hand-rolled LCG from fixed seeds (same policy as
//! `tests/properties.rs`): failures are reproducible by construction,
//! and the root crate stays dependency-free.

use dtnperf::simcore::{EventQueue, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reference implementation: `std::collections::BinaryHeap` (a binary
/// max-heap) over `Reverse<(time, seq)>`, with the same same-time FIFO
/// tiebreak the real engine guarantees via its monotonic sequence
/// number.
struct ReferenceQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, ElemBox<E>)>>,
    seq: u64,
    now: SimTime,
}

/// Payload wrapper that always compares equal, so the reference heap
/// orders strictly on `(time, seq)` and never peeks at the event —
/// exactly like the real engine.
struct ElemBox<E>(E);

impl<E> PartialEq for ElemBox<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for ElemBox<E> {}
impl<E> PartialOrd for ElemBox<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for ElemBox<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> ReferenceQueue<E> {
    fn new() -> Self {
        ReferenceQueue { heap: BinaryHeap::new(), seq: 0, now: SimTime::ZERO }
    }

    fn push(&mut self, at: SimTime, event: E) {
        // Mirror the engine's release-mode clamp so the two stay
        // comparable even on schedules that touch the past.
        let at = at.max(self.now);
        self.heap.push(Reverse((at, self.seq, ElemBox(event))));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((t, _, ElemBox(e))) = self.heap.pop()?;
        self.now = t;
        Some((t, e))
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

/// Drain both queues completely and assert the pop streams are
/// identical — times, payloads, and order.
fn assert_drained_identically(engine: &mut EventQueue<u64>, reference: &mut ReferenceQueue<u64>) {
    loop {
        let a = engine.pop();
        let b = reference.pop();
        assert_eq!(a, b, "engine and reference diverged while draining");
        if a.is_none() {
            break;
        }
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
