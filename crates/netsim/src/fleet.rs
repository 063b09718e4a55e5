//! Fleet simulation: millions of dynamically arriving flows in one run.
//!
//! [`FleetSim`] executes a [`FleetProfile`]:
//! flows open at sampled arrival times, transfer a finite number of
//! bursts through a per-class FIFO bottleneck, and close when the final
//! burst is cumulatively acknowledged — the burst-granularity FIN.
//! Per-flow state lives in a generation-guarded slot slab: every event
//! is handled on its slot in place, a close bumps the slot's generation
//! and frees it, and the next open resets it in place with its buffers
//! kept. The slab grows only while every slot is busy, so resident
//! memory is **O(active flows)** regardless of how many flows the run
//! serves, and a flow's lifecycle allocates nothing once the slab has
//! warmed up. Results fold through [`obs::IntervalAggregator`] as
//! streaming FCT / goodput histograms — there is never a per-flow
//! result vector.
//!
//! The engine runs on the same loop ([`Running`]) as
//! [`crate::Simulation`]: a fleet run can be stepped, checkpointed,
//! resumed and supervised like any other, and [`FleetSim::run`] is
//! `start().finish()`.
//!
//! The per-flow loss timers (TLP/RTO) are *cancelable* wheel timers:
//! every deadline change and every close cancels the stale timer
//! through [`EventQueue::cancel_timer`]'s tombstone path, and the
//! end-of-run invariants assert (via [`EventQueue::health`]) that the
//! timer slab balances — a closing flow must not leak slab slots.
//!
//! Each close also classifies *what limited this flow* from the
//! sender's own counters — the fleet-level counterpart of the
//! per-interval [`crate::attribution`] verdicts — so the result can
//! roll up "what limited the p99" across millions of flows.

use std::collections::BTreeMap;

use obs::{HdrHistogram, IntervalAggregator, IntervalRecord};
use simcore::{Bytes, EventQueue, QueueHealth, SimDuration, SimTime, TimerId, Watchdog};
use tcpstack::{SendSlot, TcpReceiver, TcpSender, TimerKind};

use crate::error::SimError;
use crate::run::{observe, Engine, Running};
use crate::workload::{ArrivalSampler, FleetProfile};

/// Wire MTU used for fleet flows (standard Ethernet; the fleet models
/// transfer shape, not offload geometry, so jumbo vs 1500 is a class
/// concern folded into the bottleneck rate).
const FLEET_MTU: u64 = 1500;

/// Initial congestion window: IW10.
const INIT_CWND_MULT: u64 = 10;

/// Events the fleet loop schedules.
///
/// `slot`/`gen` address a flow through the generation-guarded slab: a
/// slot is reused after close with a bumped generation, so any event
/// still in flight for the dead flow (a duplicate ACK delivery, a paced
/// transmit) no-ops instead of corrupting the new tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowEvent {
    /// The next flow arrival. Opens one flow and schedules the next.
    Open,
    /// A paced transmit opportunity for one flow.
    Tx {
        /// Slot index in the flow slab.
        slot: u32,
        /// Slot generation the event was issued for.
        gen: u32,
    },
    /// A burst (and its ACK) finished the bottleneck + RTT round trip.
    Deliver {
        /// Slot index in the flow slab.
        slot: u32,
        /// Slot generation the event was issued for.
        gen: u32,
        /// Burst index being delivered.
        idx: u64,
    },
    /// A loss timer (TLP or RTO) fired.
    Timer {
        /// Slot index in the flow slab.
        slot: u32,
        /// Slot generation the event was issued for.
        gen: u32,
    },
    /// Advance the streaming-aggregation watermark.
    Seal,
    /// The flow completed (final cum-ACK): record FCT, reclaim state.
    Close {
        /// Slot index in the flow slab.
        slot: u32,
        /// Slot generation the event was issued for.
        gen: u32,
    },
}

/// Per-flow resident state: everything a live flow needs. Handlers
/// work on it where it sits in the slab. At close it stays there with
/// its generation bumped, and the next open resets it in place
/// ([`TcpSender::reinit`], [`TcpReceiver::reinit`]), so a flow's whole
/// life — open, every event, close — touches the heap only when its
/// scoreboard outgrows what earlier tenants left behind.
#[derive(Clone)]
struct FlowSlot {
    sender: TcpSender,
    recv: TcpReceiver,
    /// Bumped at close; events carry the generation they were issued
    /// for and no-op against a later tenant.
    gen: u32,
    /// Index into the profile's class list.
    class: usize,
    opened_at: SimTime,
    /// Transfer size in bursts (the FIN point).
    bursts: u64,
    /// Ideal (uncontended) completion time: one RTT plus pure
    /// serialization at the class bottleneck. The FCT normalizer.
    ideal: SimDuration,
    /// Paced flows transmit one burst per [`FlowEvent::Tx`], gapped at
    /// the class bottleneck rate; unpaced flows dump the whole window.
    paced: bool,
    pace_gap: SimDuration,
    next_pace_at: SimTime,
    /// A `Tx` event is already scheduled (never double-arm).
    tx_armed: bool,
    /// The pending cancelable loss timer, with the deadline/kind it was
    /// armed for (to skip no-op rearms).
    timer: Option<(TimerId, SimTime, TimerKind)>,
    /// A `Close` event has been pushed; ignore further completions.
    closing: bool,
}

impl FlowSlot {
    /// A fresh generation-0 slot; `on_open` sets the per-flow fields.
    fn new(sender: TcpSender, recv: TcpReceiver) -> Self {
        FlowSlot {
            sender,
            recv,
            gen: 0,
            class: 0,
            opened_at: SimTime::ZERO,
            bursts: 0,
            ideal: SimDuration::ZERO,
            paced: false,
            pace_gap: SimDuration::ZERO,
            next_pace_at: SimTime::ZERO,
            tx_armed: false,
            timer: None,
            closing: false,
        }
    }
}

/// Aggregated outcome of one fleet run. Bounded size: histograms and
/// interval records only — never per-flow data.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Profile name.
    pub name: String,
    /// Flows opened (arrivals admitted).
    pub flows_opened: u64,
    /// Flows served to completion (== opened at end of run).
    pub flows_served: u64,
    /// High-water mark of simultaneously open flows.
    pub peak_active: usize,
    /// Slot-slab high-water mark (allocated flow slots). The O(active)
    /// memory witness: `peak_slots == peak_active` regardless of
    /// `flows_served`.
    pub peak_slots: usize,
    /// Events processed by the loop.
    pub events: u64,
    /// Past-time push clamps observed by the queue (should be 0).
    pub past_clamps: u64,
    /// Application bytes transferred by completed flows.
    pub total_bytes: u64,
    /// Simulated time when the last event fired.
    pub finished_at: SimTime,
    /// Flow-completion-time distribution, microseconds.
    pub fct: HdrHistogram,
    /// FCT slowdown distribution: `100 × fct / ideal_fct`, where the
    /// ideal is one RTT plus pure serialization at the class
    /// bottleneck. 100 = ideal; scale-free across profiles with
    /// different RTTs and sizes.
    pub slowdown: HdrHistogram,
    /// FCT distribution per limiting factor, keyed `rto_stall`,
    /// `loss_recovery`, `cwnd_limited` or `bottleneck_share`.
    pub factors: BTreeMap<&'static str, HdrHistogram>,
    /// Streaming interval series (`fct_us`, `goodput_mbps` metrics).
    pub intervals: Vec<IntervalRecord>,
    /// Samples the aggregator dropped below the watermark (must be 0:
    /// closes are recorded at `now`, seals only trail it).
    pub late_dropped: u64,
    /// Bursts tail-dropped at a full class bottleneck buffer.
    pub drops: u64,
    /// Bursts put on the wire (including retransmissions).
    pub wire_bursts: u64,
    /// Sum of per-flow RTO firings (each one is a ≥ min-RTO stall).
    pub rto_events: u64,
    /// Sum of per-flow tail-loss-probe firings.
    pub tlp_events: u64,
    /// Sum of per-flow retransmitted bursts.
    pub retx_bursts: u64,
    /// Armed loss timers cancelled through the wheel's tombstone path:
    /// one per moved deadline and one per close with a timer pending.
    pub timers_cancelled: u64,
    /// Final queue health (slab balance asserted before returning).
    pub health: QueueHealth,
}

impl FleetResult {
    /// FCT quantile in microseconds (`None` until a flow completed).
    pub fn fct_us(&self, q: f64) -> Option<u64> {
        self.fct.quantile(q)
    }

    /// Slowdown quantile (`100` = ideal completion time).
    pub fn slowdown_x100(&self, q: f64) -> Option<u64> {
        self.slowdown.quantile(q)
    }

    /// Mean fleet goodput over the whole run, Gbit/s.
    pub fn goodput_gbps(&self) -> f64 {
        let secs = self.finished_at.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.total_bytes as f64 * 8.0 / secs / 1e9
    }

    /// "What limited the p99": for each factor that limited some flow,
    /// the number of its flows with FCT above the fleet-wide p99,
    /// descending. The factor whose flows dominate the tail is the
    /// fleet-level bottleneck verdict.
    pub fn tail_rollup(&self) -> Vec<(&'static str, u64)> {
        let Some(p99) = self.fct.quantile(0.99) else {
            return Vec::new();
        };
        let mut rows: Vec<(&'static str, u64)> = self
            .factors
            .iter()
            .map(|(&factor, h)| {
                (factor, h.nonzero_buckets().filter(|&(v, _)| v > p99).map(|(_, c)| c).sum())
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }
}

/// A fleet run. Build with [`FleetSim::new`], run with
/// [`FleetSim::run`], or [`FleetSim::start`] it to step it.
pub struct FleetSim {
    profile: FleetProfile,
    fingerprint: u64,
    /// Event budget: exceeding it trips the watchdog instead of
    /// spinning forever.
    event_budget: u64,
}

impl FleetSim {
    /// A runner for `profile`. Fails fast on an invalid profile.
    pub fn new(profile: FleetProfile) -> Result<Self, SimError> {
        let problems = profile.validate();
        if !problems.is_empty() {
            return Err(SimError::InvalidConfig(problems));
        }
        let fingerprint = profile.fingerprint();
        // Generously above the worst observed events per flow, so only
        // a livelock or a runaway trips it.
        let event_budget = profile.max_flows.saturating_mul(400).saturating_add(10_000_000);
        Ok(FleetSim { profile, fingerprint, event_budget })
    }

    /// Trip the watchdog after `events` loop iterations instead of the
    /// budget derived from the profile's `max_flows`.
    pub fn with_event_budget(mut self, events: u64) -> Self {
        self.event_budget = events;
        self
    }

    /// Schedule the first arrival and hand back the run, to be stepped,
    /// checkpointed, resumed and finished.
    pub fn start(self) -> Running<Loop> {
        Running::new(Loop::new(self.profile, self.fingerprint), self.event_budget)
    }

    /// Execute the profile to completion: all arrivals within the
    /// duration served, all flows closed, queue drained. Fails with
    /// [`SimError::Stalled`] when the watchdog trips: a livelock, or
    /// more events than the budget allows.
    pub fn run(self) -> Result<FleetResult, SimError> {
        self.start().finish()
    }
}

/// The fleet engine: all mutable run state. Flow slots live apart from
/// the [`Net`] part so every handler can borrow its slot in place and
/// hand it to the network methods alongside.
#[derive(Clone)]
pub struct Loop {
    /// Canonical profile fingerprint (per-flow draw seed base).
    fingerprint: u64,
    /// The flow slab. A closed slot stays here, free, until an open
    /// resets it in place; the slab only grows when every slot is busy.
    slots: Vec<FlowSlot>,
    free: Vec<u32>,
    net: Net,
    sampler: ArrivalSampler,
    /// Arrival clock in float seconds (kept separate from SimTime so
    /// ns rounding never perturbs the sampled sequence).
    arrival_secs: f64,
    /// An `Open` event is pending in the queue.
    open_pending: bool,
    agg: IntervalAggregator,
    fct: HdrHistogram,
    slowdown: HdrHistogram,
    factors: BTreeMap<&'static str, HdrHistogram>,
    flows_opened: u64,
    flows_served: u64,
    active: usize,
    peak_active: usize,
    total_bytes: u64,
    rto_events: u64,
    tlp_events: u64,
    retx_bursts: u64,
}

/// What every flow shares: the profile, the event queue, the class
/// bottlenecks and the wire counters. Its methods act on one borrowed
/// [`FlowSlot`].
#[derive(Clone)]
struct Net {
    p: FleetProfile,
    q: EventQueue<FlowEvent>,
    /// Per-class bottleneck: the time its FIFO becomes idle.
    busy_until: Vec<SimTime>,
    drops: u64,
    wire_bursts: u64,
    timers_cancelled: u64,
}

/// The slot an event addresses, if its flow is still the one the event
/// was issued for.
#[inline]
fn live(slots: &mut [FlowSlot], i: u32, gen: u32) -> Option<&mut FlowSlot> {
    slots.get_mut(i as usize).filter(|s| s.gen == gen)
}

impl Loop {
    /// The run's state with its first arrival (and the first seal)
    /// queued.
    fn new(p: FleetProfile, fingerprint: u64) -> Self {
        let mut q = EventQueue::with_capacity(1024);
        let mut sampler = ArrivalSampler::new(&p, fingerprint);
        let first = sampler.next_arrival(0.0);
        let open_pending = first <= p.duration.as_secs_f64();
        if open_pending {
            q.push(SimTime::from_secs_f64(first), FlowEvent::Open);
            q.push(SimTime::ZERO + p.interval_width, FlowEvent::Seal);
        }
        Loop {
            slots: Vec::new(),
            free: Vec::new(),
            agg: IntervalAggregator::new(p.interval_width.as_nanos()),
            net: Net {
                busy_until: vec![SimTime::ZERO; p.classes.len()],
                p,
                q,
                drops: 0,
                wire_bursts: 0,
                timers_cancelled: 0,
            },
            sampler,
            arrival_secs: first,
            open_pending,
            fct: HdrHistogram::new(),
            slowdown: HdrHistogram::new(),
            factors: BTreeMap::new(),
            flows_opened: 0,
            flows_served: 0,
            active: 0,
            peak_active: 0,
            total_bytes: 0,
            rto_events: 0,
            tlp_events: 0,
            retx_bursts: 0,
            fingerprint,
        }
    }

    // ---- event handlers --------------------------------------------------

    fn on_open(&mut self, now: SimTime) {
        self.open_pending = false;
        let flow_id = self.flows_opened;
        self.flows_opened += 1;
        let draw = self.net.p.draw_flow(self.fingerprint, flow_id);
        let class = &self.net.p.classes[draw.class];
        let burst = self.net.p.burst;
        let mtu = Bytes::new(FLEET_MTU);
        let bdp = class.bottleneck.bdp(class.rtt);
        // Buffers sized so the path, not the host, is the constraint:
        // twice the BDP, floor of 16 bursts.
        let buf = (bdp * 2).max(burst * 16);
        let cc = class.cc.build(mtu, Bytes::new(INIT_CWND_MULT * FLEET_MTU));
        // A free slot is reset in place, keeping its buffers; the slab
        // grows only when every slot holds a live flow.
        let i = match self.free.pop() {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                slot.recv.reinit(burst, buf);
                slot.sender.reinit(cc, burst, mtu, buf, slot.recv.rwnd());
                i
            }
            None => {
                let recv = TcpReceiver::new(burst, buf);
                let sender = TcpSender::new(cc, burst, mtu, buf, recv.rwnd());
                self.slots.push(FlowSlot::new(sender, recv));
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[i as usize];
        // Seed the estimator with the handshake RTT (RFC 6298 §2.2: the
        // SYN/SYN-ACK exchange yields the first sample). Without it a
        // flow that loses its very first burst sits out the 1 s
        // no-sample initial RTO — a rung that would dominate every
        // fleet tail quantile.
        slot.sender.rtt.on_sample(class.rtt, now);
        slot.sender.set_flow_bursts(draw.bursts);
        let pace_gap = class.bottleneck.serialize_time(burst);
        slot.class = draw.class;
        slot.opened_at = now;
        slot.bursts = draw.bursts;
        slot.ideal = class.rtt
            + SimDuration::from_nanos(pace_gap.as_nanos().saturating_mul(draw.bursts));
        slot.paced = class.pacing;
        slot.pace_gap = pace_gap;
        slot.next_pace_at = now;
        slot.tx_armed = false;
        slot.timer = None;
        slot.closing = false;
        self.active += 1;
        self.peak_active = self.peak_active.max(self.active);
        // First pump (also fills the app buffer).
        self.net.drive(now, i, slot);
        self.net.rearm_timer(now, i, slot);

        // Schedule the next arrival while inside the horizon.
        let next = self.sampler.next_arrival(self.arrival_secs);
        self.arrival_secs = next;
        if next <= self.net.p.duration.as_secs_f64() && self.flows_opened < self.net.p.max_flows {
            self.net.q.push(SimTime::from_secs_f64(next), FlowEvent::Open);
            self.open_pending = true;
        }
    }

    fn on_tx(&mut self, now: SimTime, i: u32, gen: u32) {
        let Some(slot) = live(&mut self.slots, i, gen) else { return };
        slot.tx_armed = false;
        match slot.sender.next_slot(now) {
            SendSlot::Blocked => {}
            SendSlot::New(idx) | SendSlot::Retransmit(idx) => {
                self.net.transmit(now, i, slot, idx);
                slot.next_pace_at = now + slot.pace_gap;
            }
        }
        self.net.arm_tx(now, i, slot);
        self.net.rearm_timer(now, i, slot);
    }

    fn on_deliver(&mut self, now: SimTime, i: u32, gen: u32, idx: u64) {
        let Some(slot) = live(&mut self.slots, i, gen) else { return };
        let ack = slot.recv.on_burst(idx);
        // The application consumes immediately: the fleet measures
        // transfer time, not receiver-app scheduling.
        while slot.recv.app_read() {}
        let _ = slot.sender.on_ack(ack.cum_ack, ack.acked_idx, ack.rwnd, now);
        self.net.drive(now, i, slot);
        if slot.sender.is_complete() && !slot.closing {
            slot.closing = true;
            self.net.q.push(now, FlowEvent::Close { slot: i, gen });
        }
        self.net.rearm_timer(now, i, slot);
    }

    fn on_timer(&mut self, now: SimTime, i: u32, gen: u32) {
        let Some(slot) = live(&mut self.slots, i, gen) else { return };
        slot.timer = None;
        // Re-derive what is actually due (the deadline may have moved
        // since arming; a moved deadline just rearms below).
        if let Some((deadline, kind)) = slot.sender.timer_deadline() {
            if deadline <= now {
                match kind {
                    TimerKind::Tlp => slot.sender.on_tlp(now),
                    TimerKind::Rto => slot.sender.on_rto(now),
                }
                self.net.drive(now, i, slot);
            }
        }
        self.net.rearm_timer(now, i, slot);
    }

    fn on_seal(&mut self, now: SimTime) {
        self.agg.seal_before(now.as_nanos());
        if self.active > 0 || self.open_pending {
            self.net.q.push(now + self.net.p.interval_width, FlowEvent::Seal);
        }
    }

    fn on_close(&mut self, now: SimTime, i: u32, gen: u32) {
        debug_assert_eq!(self.slots[i as usize].gen, gen, "close for a reused slot");
        let Some(slot) = live(&mut self.slots, i, gen) else { return };
        if let Some((id, _, _)) = slot.timer.take() {
            // Teardown through the tombstone path: the slab slot must
            // come back (asserted against `health()` at end of run).
            self.net.cancel_timer(id);
        }
        let fct = now.saturating_since(slot.opened_at);
        let fct_us = (fct.as_nanos() / 1_000).max(1);
        let bytes = slot.bursts * self.net.p.burst.as_u64();
        let goodput_mbps =
            ((bytes as f64 * 8.0 / fct.as_secs_f64().max(1e-9)) / 1e6).round() as u64;
        let slowdown_x100 =
            (fct.as_nanos().saturating_mul(100) / slot.ideal.as_nanos().max(1)).max(100);
        let t = now.as_nanos();
        self.agg.record(t, "fct_us", fct_us);
        self.agg.record(t, "goodput_mbps", goodput_mbps);
        self.agg.record(t, "slowdown_x100", slowdown_x100);
        self.fct.record(fct_us);
        self.slowdown.record(slowdown_x100);
        self.factors.entry(classify_flow(slot)).or_default().record(fct_us);
        self.rto_events += slot.sender.rto_events();
        self.tlp_events += slot.sender.tlp_events();
        self.retx_bursts += slot.sender.retx_bursts();
        self.total_bytes += bytes;
        self.flows_served += 1;
        self.active -= 1;
        // The slot stays where it is: the bumped generation turns every
        // event still in flight for this flow into a no-op, and the next
        // open resets it in place.
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(i);
    }
}

impl Engine for Loop {
    type Event = FlowEvent;
    type Output = FleetResult;

    fn queue(&self) -> &EventQueue<FlowEvent> {
        &self.net.q
    }

    /// The run lasts until the queue drains.
    fn step(&mut self, watchdog: &mut Watchdog) -> Result<bool, SimError> {
        let Some((now, ev)) = self.net.q.pop() else { return Ok(false) };
        observe(watchdog, now)?;
        match ev {
            FlowEvent::Open => self.on_open(now),
            FlowEvent::Tx { slot, gen } => self.on_tx(now, slot, gen),
            FlowEvent::Deliver { slot, gen, idx } => self.on_deliver(now, slot, gen, idx),
            FlowEvent::Timer { slot, gen } => self.on_timer(now, slot, gen),
            FlowEvent::Seal => self.on_seal(now),
            FlowEvent::Close { slot, gen } => self.on_close(now, slot, gen),
        }
        Ok(true)
    }

    fn finish(self) -> Result<FleetResult, SimError> {
        let q = &self.net.q;
        let now = q.now();
        if self.active != 0 {
            return Err(SimError::StateCorruption {
                at: now,
                what: format!("queue drained with {} flows still open", self.active),
            });
        }
        let health = q.health();
        if health.slab_slots != health.free_slots {
            return Err(SimError::StateCorruption {
                at: now,
                what: format!(
                    "timer slab leaked: {} slots allocated, {} free",
                    health.slab_slots, health.free_slots
                ),
            });
        }
        let late_dropped = self.agg.late();
        Ok(FleetResult {
            name: self.net.p.name.clone(),
            flows_opened: self.flows_opened,
            flows_served: self.flows_served,
            peak_active: self.peak_active,
            peak_slots: self.slots.len(),
            events: q.total_popped(),
            past_clamps: q.past_clamps(),
            total_bytes: self.total_bytes,
            finished_at: now,
            fct: self.fct,
            slowdown: self.slowdown,
            factors: self.factors,
            intervals: self.agg.finish(),
            late_dropped,
            drops: self.net.drops,
            wire_bursts: self.net.wire_bursts,
            rto_events: self.rto_events,
            tlp_events: self.tlp_events,
            retx_bursts: self.retx_bursts,
            timers_cancelled: self.net.timers_cancelled,
            health,
        })
    }
}

impl Net {
    /// Fill the app buffer and transmit whatever the window and pacing
    /// mode allow right now.
    fn drive(&mut self, now: SimTime, i: u32, slot: &mut FlowSlot) {
        while slot.sender.app_can_write() {
            slot.sender.app_wrote();
        }
        if slot.paced {
            self.arm_tx(now, i, slot);
        } else {
            loop {
                match slot.sender.next_slot(now) {
                    SendSlot::Blocked => break,
                    SendSlot::New(idx) | SendSlot::Retransmit(idx) => {
                        self.transmit(now, i, slot, idx)
                    }
                }
            }
        }
    }

    /// Schedule the next paced transmit if one is due and none pending.
    fn arm_tx(&mut self, now: SimTime, i: u32, slot: &mut FlowSlot) {
        if slot.paced && !slot.tx_armed && slot.sender.can_send() {
            let at = slot.next_pace_at.max(now);
            self.q.push(at, FlowEvent::Tx { slot: i, gen: slot.gen });
            slot.tx_armed = true;
        }
    }

    /// Push one burst through the class bottleneck: FIFO queueing
    /// behind `busy_until`, tail drop past the buffer cap, delivery
    /// (data + returning ACK) one RTT after serialization.
    fn transmit(&mut self, now: SimTime, i: u32, slot: &mut FlowSlot, idx: u64) {
        slot.sender.mark_transmitted(idx, now);
        let class = &self.p.classes[slot.class];
        let start = self.busy_until[slot.class].max(now);
        let backlog = class.bottleneck.bytes_in(start.saturating_since(now));
        if backlog + self.p.burst > class.buffer {
            // Tail drop: the sender discovers it via SACK holes or its
            // loss timers. `busy_until` does not advance — the burst
            // never occupied the link.
            self.drops += 1;
            return;
        }
        let ser = class.bottleneck.serialize_time(self.p.burst);
        self.busy_until[slot.class] = start + ser;
        self.wire_bursts += 1;
        self.q.push(start + ser + class.rtt, FlowEvent::Deliver { slot: i, gen: slot.gen, idx });
    }

    /// Keep exactly one wheel timer matching the sender's earliest
    /// deadline. Deadline changes cancel the stale timer through the
    /// tombstone path; identical deadlines are left armed (no churn).
    fn rearm_timer(&mut self, now: SimTime, i: u32, slot: &mut FlowSlot) {
        let desired = slot.sender.timer_deadline();
        match (slot.timer, desired) {
            (None, None) => {}
            (Some((_, at, kind)), Some((want_at, want_kind)))
                if at == want_at.max(now) && kind == want_kind => {}
            (cur, want) => {
                if let Some((id, _, _)) = cur {
                    self.cancel_timer(id);
                    slot.timer = None;
                }
                if let Some((at, kind)) = want {
                    // A deadline already in the past fires "now": clamp
                    // so the queue never sees a past push.
                    let at = at.max(now);
                    let id = self.q.schedule_timer(at, FlowEvent::Timer { slot: i, gen: slot.gen });
                    slot.timer = Some((id, at, kind));
                }
            }
        }
    }

    /// Cancel a pending loss timer through the wheel's tombstone path.
    fn cancel_timer(&mut self, id: TimerId) {
        if self.q.cancel_timer(id) {
            self.timers_cancelled += 1;
        }
    }
}

/// Judge what limited a flow's completion time from its sender
/// counters — the per-flow analogue of
/// [`crate::attribution::LimitingFactor`] — and name it as
/// [`FleetResult::factors`] keys it. Diagnostic priority order: an RTO
/// dwarfs everything; loss recovery dominates window shaping; a
/// mostly-cwnd-limited flow was window-bound; anything else got its
/// fair share of the bottleneck (or was too short to be limited by
/// anything else).
fn classify_flow(slot: &FlowSlot) -> &'static str {
    let s = &slot.sender;
    if s.rto_events() > 0 {
        "rto_stall"
    } else if s.retx_bursts() > 0 || s.tlp_events() > 0 {
        // Retransmitted (fast recovery / TLP) but never timed out.
        "loss_recovery"
    } else if s.acks_processed() > 0 && s.cwnd_limited_acks() * 2 >= s.acks_processed() {
        "cwnd_limited"
    } else {
        "bottleneck_share"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ArrivalProcess, Diurnal, FleetClass, SizeDist};
    use simcore::{BitRate, WatchdogTrip};
    use tcpstack::CcAlgorithm;

    fn wan_class(pacing: bool) -> FleetClass {
        FleetClass {
            name: "wan".into(),
            weight: 1,
            cc: CcAlgorithm::Cubic,
            pacing,
            rtt: SimDuration::from_millis(10),
            bottleneck: BitRate::gbps(10.0),
            buffer: Bytes::mib(8),
        }
    }

    fn small_profile(rate: f64, secs: u64) -> FleetProfile {
        let mut p = FleetProfile::new(
            "unit",
            ArrivalProcess::Poisson { rate_per_sec: rate },
            SizeDist::BoundedPareto { alpha: 1.3, min_bytes: 65_536, max_bytes: 4 << 20 },
        );
        p.duration = SimDuration::from_secs(secs);
        p.classes.push(wan_class(false));
        p
    }

    #[test]
    fn serves_every_arrival_and_balances_the_slab() {
        let r = FleetSim::new(small_profile(500.0, 2))
            .expect("profile is valid")
            .run()
            .expect("run completes");
        assert!(r.flows_opened > 500, "expected ~1000 arrivals, got {}", r.flows_opened);
        assert_eq!(r.flows_opened, r.flows_served);
        assert_eq!(r.late_dropped, 0, "closes are recorded at now; seals trail");
        assert_eq!(r.health.slab_slots, r.health.free_slots);
        assert_eq!(r.health.len, 0);
        assert_eq!(r.past_clamps, 0);
        assert_eq!(r.fct.count(), r.flows_served);
        assert!(r.peak_active >= 1);
        assert!(r.peak_slots <= r.peak_active, "slots are reused, never hoarded");
        assert!(!r.intervals.is_empty());
        let interval_flows: u64 =
            r.intervals.iter().filter_map(|rec| rec.metrics.get("fct_us")).map(|h| h.count()).sum();
        assert_eq!(interval_flows, r.flows_served, "every close lands in an interval");
    }

    #[test]
    fn fct_quantiles_are_monotone() {
        let r = FleetSim::new(small_profile(800.0, 2))
            .expect("profile is valid")
            .run()
            .expect("run completes");
        let p50 = r.fct_us(0.50).expect("flows completed");
        let p99 = r.fct_us(0.99).expect("flows completed");
        let p999 = r.fct_us(0.999).expect("flows completed");
        assert!(p50 <= p99 && p99 <= p999, "p50 {p50} <= p99 {p99} <= p999 {p999}");
    }

    #[test]
    fn runs_are_deterministic() {
        let a = FleetSim::new(small_profile(300.0, 1))
            .expect("valid")
            .run()
            .expect("run completes");
        let b = FleetSim::new(small_profile(300.0, 1))
            .expect("valid")
            .run()
            .expect("run completes");
        assert_eq!(a.flows_served, b.flows_served);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fct, b.fct);
        assert_eq!(a.total_bytes, b.total_bytes);
        assert_eq!(
            a.intervals.iter().map(|r| r.to_json_line()).collect::<Vec<_>>(),
            b.intervals.iter().map(|r| r.to_json_line()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn mmpp_diurnal_profile_completes_with_mixed_classes() {
        let mut p = FleetProfile::new(
            "mixed",
            ArrivalProcess::Mmpp2 {
                calm_rate: 50.0,
                burst_rate: 2_000.0,
                mean_calm_secs: 0.2,
                mean_burst_secs: 0.02,
            },
            SizeDist::LogNormal { median_bytes: 256_000.0, sigma: 1.2 },
        );
        p.duration = SimDuration::from_secs(2);
        p.classes.push(wan_class(false));
        p.classes.push(FleetClass {
            name: "paced".into(),
            weight: 2,
            cc: CcAlgorithm::BbrV3,
            pacing: true,
            rtt: SimDuration::from_millis(1),
            bottleneck: BitRate::gbps(25.0),
            buffer: Bytes::mib(4),
        });
        p.diurnal = Some(Diurnal { amplitude: 0.5, period_secs: 1.0 });
        let r = FleetSim::new(p)
            .expect("valid")
            .run()
            .expect("run completes");
        assert_eq!(r.flows_opened, r.flows_served);
        assert_eq!(r.health.slab_slots, r.health.free_slots);
        assert!(r.timers_cancelled > 0, "completing flows must cancel armed loss timers");
    }

    #[test]
    fn shallow_buffer_incast_drops_and_recovers() {
        let mut p = FleetProfile::new(
            "incast",
            ArrivalProcess::Mmpp2 {
                calm_rate: 10.0,
                burst_rate: 20_000.0,
                mean_calm_secs: 0.05,
                mean_burst_secs: 0.005,
            },
            SizeDist::BoundedPareto { alpha: 1.1, min_bytes: 32_768, max_bytes: 1 << 20 },
        );
        p.burst = Bytes::kib(16);
        p.duration = SimDuration::from_millis(500);
        p.classes.push(FleetClass {
            name: "leaf".into(),
            weight: 1,
            cc: CcAlgorithm::Cubic,
            pacing: false,
            rtt: SimDuration::from_micros(200),
            bottleneck: BitRate::gbps(10.0),
            buffer: Bytes::kib(256),
        });
        let r = FleetSim::new(p)
            .expect("valid")
            .run()
            .expect("incast drains despite drops");
        assert_eq!(r.flows_opened, r.flows_served);
        assert!(r.drops > 0, "a shallow buffer under incast must tail-drop");
        assert!(
            r.factors.contains_key("rto_stall") || r.factors.contains_key("loss_recovery"),
            "dropped flows must be classified as loss-limited: {:?}",
            r.factors.keys().collect::<Vec<_>>()
        );
        let rollup = r.tail_rollup();
        assert!(!rollup.is_empty());
    }

    #[test]
    fn event_budget_trips_the_watchdog() {
        let err = FleetSim::new(small_profile(500.0, 2))
            .expect("valid")
            .with_event_budget(50)
            .run()
            .expect_err("50 events cannot serve ~1000 flows");
        // The trip lands on the event after the budget is spent.
        assert!(matches!(
            err,
            SimError::Stalled { trip: WatchdogTrip::BudgetExhausted { events: 51, budget: 50 }, .. }
        ));
    }

    #[test]
    fn invalid_profile_is_rejected() {
        let mut p = small_profile(100.0, 1);
        p.classes.clear();
        assert!(matches!(FleetSim::new(p), Err(SimError::InvalidConfig(_))));
    }
}
