//! The fleet flow lifecycle does not touch the heap.
//!
//! A flow's open, every event it handles and its close reuse a slot
//! that an earlier flow left behind (sender, receiver, controller and
//! their buffers), so a long fleet run allocates only while its slab,
//! queue and interval series grow, and while a slot's buffers first
//! grow to the flows it serves (a few allocations per slot). This
//! counts every allocation the process makes during one run of more
//! than 20,000 flows over all four controllers, with a shallow-buffer
//! class that drops and recovers, and bounds it per served flow. The
//! classes' short RTTs keep the flows open at once (the slab's size)
//! near 1% of the flows served, so the bound measures the per-flow
//! lifecycle rather than the slab's warm-up. Nothing here depends on
//! host timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dtnperf::netsim::{ArrivalProcess, FleetClass, FleetProfile, FleetSim, SizeDist};
use dtnperf::prelude::*;

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over; the counter is an
// atomic and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract
        // for a block `System` handed out.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn class(name: &str, cc: CcAlgorithm, pacing: bool, rtt_ms: u64, buffer: Bytes) -> FleetClass {
    FleetClass {
        name: name.into(),
        weight: 1,
        cc,
        pacing,
        rtt: SimDuration::from_millis(rtt_ms),
        bottleneck: BitRate::gbps(25.0),
        buffer,
    }
}

#[test]
fn fleet_flows_allocate_at_most_one_per_ten_flows() {
    let mut p = FleetProfile::new(
        "alloc_free",
        ArrivalProcess::Poisson { rate_per_sec: 10_000.0 },
        SizeDist::LogNormal { median_bytes: 256.0 * 1024.0, sigma: 0.8 },
    );
    p.max_flows = 24_000;
    p.duration = SimDuration::from_secs(3);
    p.classes = vec![
        class("cubic", CcAlgorithm::Cubic, false, 4, Bytes::mib(64)),
        class("bbr1", CcAlgorithm::BbrV1, true, 8, Bytes::mib(64)),
        class("bbr3", CcAlgorithm::BbrV3, true, 2, Bytes::mib(64)),
        // Shallow: bursts from concurrent flows tail-drop, so the
        // receivers' out-of-order rings and the retransmit queues work.
        class("htcp_shallow", CcAlgorithm::Htcp, false, 1, Bytes::kib(512)),
    ];
    let sim = FleetSim::new(p).expect("profile is valid");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let r = sim.run().expect("run completes");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(r.flows_served >= 20_000, "served {} flows", r.flows_served);
    assert!(r.drops > 0 && r.retx_bursts > 0, "the shallow class must drop and retransmit");
    let per_flow = allocations as f64 / r.flows_served as f64;
    assert!(
        per_flow <= 0.1,
        "{allocations} allocations for {} flows: {per_flow:.3} per flow (bound 0.1)",
        r.flows_served
    );
}
