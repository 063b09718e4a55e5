//! Raw simulator performance: how fast the discrete-event engine
//! chews through representative workloads (reported as wall time per
//! simulated test; the event counts are printed by `--nocapture`
//! diagnostics elsewhere).

use bench::timing::BenchGroup;
use bench::{quick_opts, BenchScenario};
use dtnperf::prelude::*;

fn scenario_lan_single() -> BenchScenario {
    BenchScenario {
        name: "lan_single",
        host: Testbeds::esnet_host(KernelVersion::L6_8),
        path: Testbeds::esnet_path(EsnetPath::Lan),
        opts: quick_opts(1),
        faults: FaultPlan::none(),
    }
}

fn scenario_wan_paced() -> BenchScenario {
    BenchScenario {
        name: "wan_paced",
        host: Testbeds::amlight_host(KernelVersion::L6_8),
        path: Testbeds::amlight_path(AmLightPath::Wan25ms),
        opts: quick_opts(2).zerocopy().fq_rate(BitRate::gbps(50.0)),
        faults: FaultPlan::none(),
    }
}

fn scenario_multiflow() -> BenchScenario {
    BenchScenario {
        name: "multiflow",
        host: Testbeds::esnet_host(KernelVersion::L5_15),
        path: Testbeds::esnet_path(EsnetPath::Lan),
        opts: quick_opts(1).parallel(8),
        faults: FaultPlan::none(),
    }
}

fn main() {
    let mut group = BenchGroup::new("simulator", 1, 5);
    for scenario in [scenario_lan_single(), scenario_wan_paced(), scenario_multiflow()] {
        group.bench(scenario.name, || {
            let gbps = scenario.run_or_exit();
            assert!(gbps > 0.5, "{}: {gbps}", scenario.name);
            gbps
        });
    }

    use dtnperf::simcore::{EventQueue, SimTime};
    group.bench("event_queue_push_pop_100k", || {
        let mut q = EventQueue::new();
        for i in 0..100_000u64 {
            q.push(SimTime::from_nanos((i * 7919) % 1_000_000), i);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        acc
    });

    // Worst case for the near rung's sorted run: a full bucket has
    // migrated in, and every push lands at the head of the run (the
    // horizon's last nanosecond, behind every same-time tie), so each
    // insert walks and shifts the whole run before the pop takes its
    // tail.
    group.bench("event_queue_head_insert_100k", || {
        const RUN: u64 = 512;
        const HORIZON_NS: u64 = (1 << 18) - 1; // end of the first bucket
        let mut q = EventQueue::new();
        for i in 1..=RUN {
            q.push(SimTime::from_nanos(i), i);
        }
        let mut acc = q.pop().map_or(0, |(_, v)| v);
        for i in 0..100_000u64 {
            q.push(SimTime::from_nanos(HORIZON_NS), i);
            acc = acc.wrapping_add(q.pop().map_or(0, |(_, v)| v));
        }
        acc
    });
}
