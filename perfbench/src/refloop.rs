//! The frozen reference loop the benchmark divides host time by.
//!
//! The benchmark runs on shared, noisy machines whose speed drifts in
//! episodes of roughly 150 ms (on a 2-vCPU Xeon VM, consecutive 1M-event
//! slices of one run swing between 128 and 209 ns/event). Timing this
//! fixed piece of work between the program's own steps, on the same
//! thread, samples the machine's speed at the moments the program runs;
//! `wall_rel` is the program's host time in units of this loop's time.
//!
//! The loop is a miniature discrete-event loop: a binary heap of 4096
//! pending timers over a 32 KiB state table; each step pops the
//! earliest timer, hashes its state and re-arms it. Its mix of heap
//! sifts, dependent arithmetic and unpredictable branches resembles the
//! simulator's, which is why it tracks the simulator's slowdowns. On
//! the 2-vCPU Xeon VM (2 MiB L2) where it was chosen, over eight
//! same-seed `cc_mix_256` runs, dividing by it narrowed the run-to-run
//! quartile spread of host time from 9.5% to 3.3%, while a 1 MiB
//! pointer chase widened it to 15%: neighbours sharing the core's caches
//! slow a pointer chase far more than they slow the simulator.
//!
//! It allocates nothing while it runs (the heap keeps a constant size
//! inside its initial capacity) and its work never depends on the
//! workload or the seed.
//!
//! **Frozen.** A change that claims a performance gain must not touch
//! this file: the reference is what makes two commits comparable.
//! Callers must interleave it more finely than the ~150 ms drift
//! episodes — between step slices, or from a timer signal inside a
//! call that cannot be stepped (`sampler`), not only around a whole
//! run — or the ratio picks up the drift instead of cancelling it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Pending timers, one per state slot.
const TIMERS: usize = 4096;
/// Pop/re-arm steps per timed run.
pub const STEPS: u32 = 1 << 17;
/// Median seconds of one run on the machine above. `setup_s` is set-up
/// time in reference runs times this: set-up seconds at that machine's
/// typical speed, free of the drift between runs that a raw reading of
/// a few microseconds carries.
pub const NOMINAL_S: f64 = 0.017;

/// The reference loop's heap and state table.
pub struct RefLoop {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    state: Vec<u64>,
}

impl RefLoop {
    /// Arm every timer from a fixed xorshift stream, so every build on
    /// every machine starts from the same state.
    pub fn new() -> Self {
        let mut heap = BinaryHeap::with_capacity(2 * TIMERS);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for id in 0..TIMERS as u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            heap.push(Reverse((x % 1_000_000, id)));
        }
        RefLoop {
            heap,
            state: (0..TIMERS as u64).collect(),
        }
    }

    /// Run [`STEPS`] steps and return the host seconds taken.
    pub fn time(&mut self) -> f64 {
        self.time_steps(STEPS)
    }

    /// Run `steps` steps and return the host seconds taken. Allocates
    /// nothing, so a signal handler may call it (see `sampler`).
    pub fn time_steps(&mut self, steps: u32) -> f64 {
        let start = Instant::now();
        for _ in 0..steps {
            // Infallible: every step pushes back the timer it popped.
            let Reverse((t, id)) = self.heap.pop().expect("the heap never empties");
            let s = &mut self.state[id as usize];
            let mut h = *s ^ t;
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            *s = h;
            let dt = if h & 3 == 0 {
                1 + (h >> 40) % 200_000
            } else {
                1 + (h >> 50) % 5_000
            };
            self.heap.push(Reverse((t + dt, id)));
        }
        black_box(&self.state);
        start.elapsed().as_secs_f64()
    }
}
