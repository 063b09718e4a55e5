//! Out-of-program layer replays, run by traced runs only.
//!
//! Each replay drives one layer's public API alone, with inputs drawn
//! from the run's seed and shaped by the workload that ran: the queue
//! depth, event spacing and cancel share it showed, its paths' RTTs,
//! MTUs, bursts and buffers, its loss share and its zerocopy share. Each
//! returns host nanoseconds per operation. The caller divides by the
//! reference loop's nanoseconds per step for the normalised figure.

use dtnperf::linuxhost::{CostModel, TxMode};
use dtnperf::nethw::{EnqueueOutcome, SharedBufferSwitch};
use dtnperf::netsim::{ArrivalSampler, FleetProfile};
use dtnperf::prelude::*;
use dtnperf::simcore::{EventQueue, SimRng, TimerId};
use dtnperf::tcpstack::{SendSlot, TcpReceiver, TcpSender};
use obs::{HdrHistogram, IntervalAggregator};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Host nanoseconds per operation over `ops` operations.
pub struct Replay {
    pub ns_per_op: f64,
    pub ops: u64,
}

/// Time `f`, which returns how many operations it made.
fn timed(f: impl FnOnce() -> u64) -> Replay {
    let start = Instant::now();
    let ops = f();
    let ns = start.elapsed().as_nanos() as f64;
    Replay {
        ns_per_op: ns / ops.max(1) as f64,
        ops,
    }
}

/// How a workload used the event queue.
pub struct QueueShape {
    /// Live events (the median depth sampled at slice boundaries).
    pub depth: usize,
    /// Mean simulated time from an event's pop to its re-push: depth
    /// times the simulated time per event.
    pub gap: SimDuration,
    /// Timer cancellations per event (0 for `netsim::sim`, which
    /// never cancels).
    pub cancel_share: f64,
}

/// `EventQueue` shaped like `shape`: each round pops the earliest
/// event and re-pushes it 0.5–1.5 gaps later. With a cancel share,
/// every flow also holds a 200 ms loss timer; a fired timer is
/// re-armed, and after each popped event, with the cancel share's
/// probability, that flow's timer is cancelled and scheduled anew, as
/// an ACK re-arms a retransmission timer. Operations are pushes, pops,
/// schedules and cancels.
pub fn engine(shape: &QueueShape, rounds: u64, seed: u64) -> Replay {
    const TIMER: u32 = 1 << 31;
    let depth = shape.depth.max(1);
    let gap_ns = shape.gap.as_nanos().max(1) as f64;
    let timed_flows = shape.cancel_share > 0.0;
    let rto = SimDuration::from_millis(200);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut q: EventQueue<u32> = EventQueue::with_capacity(2 * depth);
    let mut timers: Vec<Option<TimerId>> = vec![None; depth];
    for flow in 0..depth as u32 {
        let at = SimTime::from_nanos((gap_ns * rng.uniform(0.0, 1.0)) as u64);
        q.push(at, flow);
        if timed_flows {
            timers[flow as usize] = Some(q.schedule_timer(
                SimTime::ZERO + rto + SimDuration::from_nanos(u64::from(flow)),
                flow | TIMER,
            ));
        }
    }
    timed(|| {
        let mut ops = 0u64;
        for _ in 0..rounds {
            let Some((now, ev)) = q.pop() else { break };
            let flow = (ev & !TIMER) as usize;
            ops += 1;
            if ev & TIMER != 0 {
                // The timer fired: re-arm it.
                timers[flow] = Some(q.schedule_timer(now + rto, ev));
                ops += 1;
                continue;
            }
            let gap = (gap_ns * rng.uniform(0.5, 1.5)) as u64;
            q.push(now + SimDuration::from_nanos(gap.max(1)), ev);
            ops += 1;
            if timed_flows && rng.chance(shape.cancel_share) {
                if let Some(id) = timers[flow].take() {
                    q.cancel_timer(id);
                }
                timers[flow] = Some(q.schedule_timer(now + rto, flow as u32 | TIMER));
                ops += 2;
            }
        }
        black_box(q.len());
        ops
    })
}

/// What one of a workload's flows looks like to its TCP sender.
#[derive(Clone, Debug)]
pub struct FlowShape {
    pub rtt: SimDuration,
    pub mtu: Bytes,
    /// GSO burst: the simulator's transfer unit.
    pub burst: Bytes,
    /// Send buffer (`tcp_wmem` max) and receive buffer.
    pub sndbuf: Bytes,
    pub rcvbuf: Bytes,
}

/// A `TcpSender`/`TcpReceiver` ACK clock under `cc`, over each of
/// `flows` in turn (an equal share of `acks` each), losing bursts with
/// probability `loss`. Each operation is one ACK: `on_ack`, then
/// `next_slot` and `mark_transmitted` for whatever the window releases.
/// Pacing lives outside `TcpSender` (in the simulator's qdisc model),
/// so paced and unpaced flows replay alike.
pub fn tcp(cc: CcAlgorithm, flows: &[FlowShape], loss: f64, acks: u64, seed: u64) -> Replay {
    let per_flow = acks / flows.len().max(1) as u64;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut wire: VecDeque<(SimTime, u64)> = VecDeque::with_capacity(1 << 16);
    timed(|| {
        let mut done = 0u64;
        for f in flows {
            let init_cwnd = Bytes::new(10 * f.mtu.as_u64());
            let mut rcv = TcpReceiver::new(f.burst, f.rcvbuf.max(f.burst));
            let mut snd = TcpSender::new(
                cc.build(f.mtu, init_cwnd),
                f.burst,
                f.mtu,
                f.sndbuf,
                rcv.rwnd(),
            );
            snd.rtt.on_sample(f.rtt, SimTime::ZERO);
            let mut now = SimTime::ZERO;
            let mut flow_done = 0u64;
            wire.clear();
            // Bounded: a stuck sender ends the replay instead of spinning.
            for _ in 0..per_flow.saturating_mul(4) {
                if flow_done == per_flow {
                    break;
                }
                while snd.app_can_write() {
                    snd.app_wrote();
                }
                while let SendSlot::New(idx) | SendSlot::Retransmit(idx) = snd.next_slot(now) {
                    snd.mark_transmitted(idx, now);
                    if !rng.chance(loss) {
                        wire.push_back((now + f.rtt, idx));
                    }
                }
                match wire.pop_front() {
                    Some((at, idx)) => {
                        now = now.max(at);
                        let ack = rcv.on_burst(idx);
                        while rcv.app_read() {}
                        black_box(snd.on_ack(ack.cum_ack, ack.acked_idx, ack.rwnd, now));
                        flow_done += 1;
                    }
                    None => {
                        // Everything in flight was lost: the RTO recovers.
                        now = snd.rto_deadline().unwrap_or(now).max(now);
                        snd.on_rto(now);
                    }
                }
            }
            done += flow_done;
        }
        done
    })
}

/// The host cost model of `hosts`: per burst, the five service calls a
/// transfer makes (sender app and softirq, receiver softirq and app,
/// ACK), with each host's GSO burst. A `zc_share` of the sends go
/// zerocopy, the rest copy. Operations are service calls.
pub fn host(hosts: &[HostConfig], zc_share: f64, bursts: u64, seed: u64) -> Replay {
    let models: Vec<(CostModel, Bytes)> = hosts
        .iter()
        .map(|h| (CostModel::new(h), h.offload.gso_max_size))
        .collect();
    let mut rng = SimRng::seed_from_u64(seed);
    let window = Bytes::mib(64);
    timed(|| {
        let mut acc = SimDuration::from_nanos(0);
        for i in 0..bursts {
            let (m, burst) = &models[i as usize % models.len()];
            let mode = if rng.chance(zc_share) {
                TxMode::Zerocopy
            } else {
                TxMode::Copy
            };
            acc += m.tx_app_service(*burst, mode, window, &mut rng);
            acc += m.tx_softirq_service(*burst, &mut rng);
            acc += m.rx_softirq_service(*burst, &mut rng);
            acc += m.rx_app_service(*burst, false, &mut rng);
            acc += m.ack_service(&mut rng);
        }
        black_box(acc);
        bursts * 5
    })
}

/// `SharedBufferSwitch::enqueue` at the bottleneck of each of `paths`
/// in turn, in that path's bursts, offered 10% more than its rate in
/// jittered bursts so the buffer fills and drops. Departures retire as
/// simulated time passes. Operations are enqueues.
pub fn switch(paths: &[(PathSpec, Bytes)], enqueues: u64, seed: u64) -> Replay {
    let mut rng = SimRng::seed_from_u64(seed);
    let per_path = enqueues / paths.len().max(1) as u64;
    let mut pending: VecDeque<SimTime> = VecDeque::with_capacity(1 << 16);
    timed(|| {
        let mut drops = 0;
        for &(ref path, burst) in paths {
            let rate = path.usable_rate();
            let mut sw = SharedBufferSwitch::new(path.switch_buffer, &[rate], false);
            let gap_ns = rate.serialize_time(burst).as_nanos() as f64 / 1.1;
            let mut now_ns = 0.0f64;
            pending.clear();
            for _ in 0..per_path {
                now_ns += gap_ns * rng.uniform(0.5, 1.5);
                let now = SimTime::from_nanos(now_ns as u64);
                while pending.front().is_some_and(|&t| t <= now) {
                    pending.pop_front();
                    sw.departed(0, burst);
                }
                if let EnqueueOutcome::Queued { departs_at } = sw.enqueue(0, burst, now) {
                    pending.push_back(departs_at);
                }
            }
            drops += sw.total_drops();
        }
        black_box(drops);
        per_path * paths.len() as u64
    })
}

/// `ArrivalSampler` plus the per-flow class and size draw, over
/// `flows` arrivals of `profile`. Operations are flows.
pub fn sampler(profile: &FleetProfile, flows: u64) -> Replay {
    let fingerprint = profile.fingerprint();
    let mut s = ArrivalSampler::new(profile, fingerprint);
    timed(|| {
        let mut t = 0.0;
        let mut bytes = 0u64;
        for id in 0..flows {
            t = s.next_arrival(t);
            bytes = bytes.wrapping_add(profile.draw_flow(fingerprint, id).size_bytes);
        }
        black_box((t, bytes));
        flows
    })
}

/// Streaming completion records: per completion, one record into each
/// of two run-wide `HdrHistogram`s (FCT, slowdown) and three into a
/// 1 s `IntervalAggregator` (fct_us, goodput_mbps, slowdown_x100), at
/// 10k completions per simulated second, sealing finished intervals
/// as time advances. Operations are records.
pub fn obs(completions: u64, seed: u64) -> Replay {
    const WIDTH_NS: u64 = 1_000_000_000;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut fct = HdrHistogram::new();
    let mut slowdown = HdrHistogram::new();
    let mut agg = IntervalAggregator::new(WIDTH_NS);
    let replay = timed(|| {
        let mut t_ns = 0u64;
        for i in 0..completions {
            t_ns += rng.uniform_u64(1_000, 200_000);
            let f = rng.uniform_u64(1_000, 2_000_000);
            let sd = rng.uniform_u64(100, 5_000);
            fct.record(f);
            slowdown.record(sd);
            agg.record(t_ns, "fct_us", f);
            agg.record(t_ns, "goodput_mbps", rng.uniform_u64(10, 20_000));
            agg.record(t_ns, "slowdown_x100", sd);
            if i % 1024 == 0 {
                agg.seal_before(t_ns.saturating_sub(WIDTH_NS));
            }
        }
        black_box((fct.count(), slowdown.count(), agg.open_len()));
        completions * 5
    });
    black_box(agg.finish().len());
    replay
}
