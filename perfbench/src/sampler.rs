//! Reference runs taken from a timer signal while one long call runs.
//!
//! `FleetSim::run` serves a whole fleet in one call of several seconds,
//! so the benchmark cannot put reference-loop runs between its steps as
//! it does for the stepped workloads. Instead an interval timer
//! (`setitimer`, `SIGALRM`) interrupts the call every [`INTERVAL_US`],
//! and the handler, on the same thread, runs a short reference run of
//! [`SAMPLE_STEPS`] steps on a second [`RefLoop`]. The samples follow
//! the machine's speed during the call, as interleaved runs do; the
//! handler's own time is taken out of the call's.
//!
//! On the 2-vCPU Xeon VM, over 16 alternating `fleet_1m` passes in two
//! processes, the coefficient of variation of a pass's host time over
//! its median reference run was 6.0% with these samples and 8.5% with a
//! block of reference runs after the call (raw host time: 6–11%).
//!
//! The handler allocates nothing, takes no lock and only calls
//! `clock_gettime` (through `Instant`), which is async-signal-safe. The
//! main thread touches the sampler's state only while the timer is
//! disarmed. Off Linux, [`run_sampled`] runs the call unsampled.

use crate::refloop::{RefLoop, STEPS};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::time::Instant;

/// Timer period: a third of the ~150 ms drift episodes.
pub const INTERVAL_US: i64 = 50_000;
/// Steps of one sample (about 2 ms, so the handler takes about 4% of
/// the call).
pub const SAMPLE_STEPS: u32 = STEPS / 8;
/// Most samples one call keeps (about 200 s at [`INTERVAL_US`]).
pub const MAX_SAMPLES: usize = 4096;

struct LoopCell(UnsafeCell<Option<RefLoop>>);
// The handler and the main thread never use the loop at once: the main
// thread sets it up before arming the timer, and `BUSY` keeps a second
// handler (on another thread, in a multi-threaded test) out.
unsafe impl Sync for LoopCell {}

static LOOP: LoopCell = LoopCell(UnsafeCell::new(None));
static ACTIVE: AtomicBool = AtomicBool::new(false);
static BUSY: AtomicBool = AtomicBool::new(false);
static SAMPLES: [AtomicU64; MAX_SAMPLES] = [const { AtomicU64::new(0) }; MAX_SAMPLES];
static TAKEN: AtomicUsize = AtomicUsize::new(0);
static HANDLER_NS: AtomicU64 = AtomicU64::new(0);

extern "C" fn on_alarm(_signal: i32) {
    if !ACTIVE.load(SeqCst) || BUSY.swap(true, SeqCst) {
        return;
    }
    let start = Instant::now();
    // SAFETY: ACTIVE is only set while the loop exists and the main
    // thread leaves it alone, and BUSY lets one handler in at a time.
    if let Some(r) = unsafe { (*LOOP.0.get()).as_mut() } {
        let t = r.time_steps(SAMPLE_STEPS);
        let i = TAKEN.fetch_add(1, SeqCst);
        if i < MAX_SAMPLES {
            SAMPLES[i].store(t.to_bits(), SeqCst);
        }
    }
    HANDLER_NS.fetch_add(start.elapsed().as_nanos() as u64, SeqCst);
    BUSY.store(false, SeqCst);
}

#[cfg(target_os = "linux")]
mod timer {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Timeval {
        tv_sec: c_long,
        tv_usec: c_long,
    }

    #[repr(C)]
    struct Itimerval {
        it_interval: Timeval,
        it_value: Timeval,
    }

    extern "C" {
        fn setitimer(which: c_int, new: *const Itimerval, old: *mut Itimerval) -> c_int;
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    const ITIMER_REAL: c_int = 0;
    const SIGALRM: c_int = 14;

    /// Set the timer to fire every `period_us` (0 stops it).
    fn set(period_us: i64) -> bool {
        let period = Timeval {
            tv_sec: 0,
            tv_usec: period_us as c_long,
        };
        let it = Itimerval {
            it_interval: period,
            it_value: period,
        };
        // SAFETY: a plain libc call on a valid, initialised argument.
        unsafe { setitimer(ITIMER_REAL, &it, std::ptr::null_mut()) == 0 }
    }

    /// Install the handler and start the timer; false if either failed.
    pub fn arm(handler: extern "C" fn(i32), period_us: i64) -> bool {
        // SAFETY: installs an `extern "C" fn(c_int)` signal handler.
        let installed = unsafe { signal(SIGALRM, handler as usize) } != usize::MAX;
        installed && set(period_us)
    }

    /// Stop the timer.
    pub fn disarm() {
        set(0);
    }
}

#[cfg(not(target_os = "linux"))]
mod timer {
    pub fn arm(_handler: extern "C" fn(i32), _period_us: i64) -> bool {
        false
    }
    pub fn disarm() {}
}

/// Run `f` under the sampling timer. Returns its result and its host
/// seconds net of the handler's, and appends each sample to `samples`,
/// scaled to a full reference run ([`STEPS`] steps). Reserve
/// [`MAX_SAMPLES`] in `samples` first to keep its growth out of the
/// heap figures; it gets no samples when the timer cannot be armed.
pub fn run_sampled<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> (T, f64) {
    // SAFETY: the timer is disarmed, so the handler does not run.
    unsafe {
        let cell = &mut *LOOP.0.get();
        if cell.is_none() {
            *cell = Some(RefLoop::new());
        }
    }
    TAKEN.store(0, SeqCst);
    HANDLER_NS.store(0, SeqCst);
    ACTIVE.store(true, SeqCst);
    let armed = timer::arm(on_alarm, INTERVAL_US);
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    timer::disarm();
    ACTIVE.store(false, SeqCst);
    if !armed {
        return (out, wall);
    }
    let scale = f64::from(STEPS) / f64::from(SAMPLE_STEPS);
    let taken = TAKEN.load(SeqCst).min(MAX_SAMPLES);
    samples.extend(
        SAMPLES[..taken]
            .iter()
            .map(|s| f64::from_bits(s.load(SeqCst)) * scale),
    );
    let handler_s = HANDLER_NS.load(SeqCst) as f64 * 1e-9;
    (out, wall - handler_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_a_long_call_and_takes_the_handler_out() {
        let mut samples = Vec::with_capacity(MAX_SAMPLES);
        let (x, net) = run_sampled(&mut samples, || {
            let start = Instant::now();
            let mut x = 0u64;
            while start.elapsed().as_secs_f64() < 0.3 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            x
        });
        assert!(x > 0);
        if cfg!(target_os = "linux") {
            assert!(samples.len() >= 3, "{} samples", samples.len());
            assert!(samples.iter().all(|s| *s > 0.0));
            assert!(net < 0.3, "net {net} s still holds the handler's time");
        }
        // Disarmed afterwards: nothing more arrives.
        let n = samples.len();
        std::thread::sleep(std::time::Duration::from_millis(120));
        assert_eq!(TAKEN.load(SeqCst).min(MAX_SAMPLES), n);
    }
}
