//! The discrete-event host-and-path engine behind [`Simulation`],
//! stepped by the shared run loop ([`crate::Running`]).
//!
//! See the crate docs for the pipeline diagram. Design notes:
//!
//! * **One app-write chain per flow.** `AppWrite → AppWriteDone →
//!   AppWrite …` — the application core's FIFO server is what spaces
//!   the writes, exactly like a busy `iperf3` thread. The chain parks
//!   when the socket buffer fills and is revived by an ACK.
//! * **Loss points.** Random path loss (production WANs), shared-buffer
//!   tail drop at the switch, and RX-ring overflow at the receiver.
//!   With 802.3x flow control the receiver *parks* arrivals instead of
//!   dropping them (pause frames hold the data upstream) — Table III
//!   vs Tables I/II.
//! * **Lazy RTO timers.** One pending `RtoCheck` per flow that
//!   re-validates the deadline when it fires, so ACK processing never
//!   needs to cancel events.

use crate::attribution::{
    classify, Attribution, BottleneckVerdict, CoreProfile, IntervalObs, LimitingFactor,
    StageProfile,
};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::faults::{Fault, FaultEvent};
use crate::host::SimHost;
use crate::result::{FlowResult, RunResult};
use crate::run::{observe, Checkpoint, Engine, Running};
use crate::telemetry::{CaState, CounterSnapshot, FlowInfo, TelemetrySampler};
use linuxhost::{Pacer, SendOutcome, Stage, TxMode, ZerocopyAccounting};
use nethw::{EnqueueOutcome, SharedBufferSwitch};
use simcore::{BitRate, Bytes, EventQueue, SimDuration, SimRng, SimTime, Watchdog};
use tcpstack::{SendSlot, TcpReceiver, TcpSender, TimerKind};
use std::collections::VecDeque;

/// Propagation of the host↔switch edge hop.
const EDGE_DELAY: SimDuration = SimDuration::from_micros(5);

/// TCP Small Queues horizon: a flow parks at most this much transmit
/// time in the qdisc; more data stays in the socket until the pacer
/// drains (prevents unbounded qdisc queues and keeps the RTO clock
/// honest).
const TSQ_HORIZON: SimDuration = SimDuration::from_millis(2);

/// The event queue's FIFO lanes (see `EventQueue::push_lane`): one per
/// event stream whose firing times never decrease in push order. Each
/// push site says why its stream is monotone.
#[derive(Debug, Clone, Copy)]
enum Lane {
    SwitchArrive,
    SwitchDepart,
    RxArrive,
    AckArrive,
}

#[derive(Debug, Clone)]
pub enum Ev {
    AppWrite(usize),
    AppWriteDone(usize, TxMode),
    TxDequeue { flow: usize, idx: u64 },
    SwitchArrive { flow: usize, idx: u64 },
    SwitchDepart { flow: usize, idx: u64 },
    RxArrive { flow: usize, idx: u64 },
    RxSoftirqDone { flow: usize, idx: u64 },
    RxAppReadDone(usize),
    AckArrive { flow: usize, cum: u64, idx: u64, rwnd: Bytes },
    RtoCheck(usize),
    PacerResume(usize),
    CrossToggle,
    IntervalTick,
    /// `ss`/`ethtool`/`mpstat` sampling tick — only ever scheduled when
    /// [`crate::WorkloadSpec::telemetry`] is set; strictly read-only.
    TelemetryTick,
    OmitBoundary,
    /// Fault `i` of the plan begins.
    FaultBegin(usize),
    /// Fault `i` of the plan clears.
    FaultEnd(usize),
    /// Gilbert–Elliott state flip for bursty-loss episode `i`.
    GeToggle(usize),
}

#[derive(Clone)]
struct FlowState {
    sender: TcpSender,
    receiver: TcpReceiver,
    pacer: Pacer,
    zc: Option<ZerocopyAccounting>,
    /// Modes of app-written bursts not yet assigned a sequence index.
    pending_modes: VecDeque<TxMode>,
    /// Mode per in-flight burst: `burst_modes[i]` belongs to burst
    /// `modes_base + i`. Indices are assigned contiguously (new bursts
    /// enter at `snd_nxt`) and released only from the front as the
    /// cumulative ACK advances, so a deque plus base index replaces the
    /// old ordered map without touching the allocator per burst.
    burst_modes: VecDeque<TxMode>,
    /// Burst index of `burst_modes[0]`.
    modes_base: u64,
    intervals: Vec<BitRate>,
    rng: SimRng,
}

/// Per-flow scalars the dispatch inner loop reads and writes on almost
/// every event, packed structure-of-arrays style into `Runner::hot`
/// (parallel to `Runner::flows`). A [`FlowState`] spans several cache
/// lines of mostly-cold protocol and config state; splitting the
/// per-event flags and counters into this 24-byte record keeps the
/// whole fleet's hot state resident (256 flows ≈ 6 KiB) instead of
/// striding across the big structs. Observer marks live in
/// [`Snapshot`]s, not here. `hot[f]` always pairs with `flows[f]`;
/// both clone together for checkpoints.
#[derive(Debug, Clone, Copy, Default)]
struct FlowHot {
    /// Sender app blocked on a full socket buffer (woken by an ACK).
    app_waiting: bool,
    /// Receiver app is mid read stint.
    rx_app_busy: bool,
    /// An `RtoCheck` event is already in flight for this flow.
    rto_scheduled: bool,
    /// A `PacerResume` event is already in flight (TSQ backlog gate).
    pacer_resume_pending: bool,
    /// Waiting for the driver queue to drain before sending more.
    tx_gated: bool,
    /// Bytes handed to the driver (TxDequeue → wire) — the TSQ ledger.
    driver_bytes: Bytes,
    /// Bursts fully read by the receiver application.
    delivered_bursts: u64,
}

/// Gilbert–Elliott bursty-loss state while an episode is active.
#[derive(Debug, Clone)]
struct GeState {
    /// Index of the driving fault in the plan.
    episode: usize,
    /// In the lossy (bad) state right now.
    bad: bool,
    mean_bad: SimDuration,
    mean_good: SimDuration,
    loss_bad: f64,
    /// Episode end (the fault's `ends_at`).
    until: SimTime,
}

/// Every cumulative counter an observer turns into a per-interval
/// delta, read at one instant by [`Runner::fill_snapshot`].
///
/// Each observer keeps the snapshot of its previous mark and diffs a
/// fresh one against it: the omit-window baseline (`Runner::omit`),
/// the 1 s interval tick shared by `cpu_intervals`, per-flow interval
/// goodput and attribution (`Runner::tick`), and the telemetry
/// sampler's previous sample. Taking one is strictly read-only.
#[derive(Debug, Clone, Default)]
pub(crate) struct Snapshot {
    /// When it was taken.
    pub(crate) t: SimTime,
    /// Sender per-core busy totals (CPU cores, ledger order).
    pub(crate) snd_busy: Vec<SimDuration>,
    /// Receiver per-core busy totals.
    pub(crate) rcv_busy: Vec<SimDuration>,
    /// Drop/pause/wire counter totals.
    pub(crate) counters: CounterSnapshot,
    /// Bursts each flow's receiving application has read.
    pub(crate) delivered: Vec<u64>,
    /// Zerocopy sends over all flows.
    pub(crate) zc_sends: u64,
    /// Zerocopy sends that fell back to copying, over all flows.
    pub(crate) zc_fallbacks: u64,
    /// ACKs processed by all senders.
    pub(crate) acks: u64,
    /// Of those, ACKs with `tcp_is_cwnd_limited()` true.
    pub(crate) cwnd_limited_acks: u64,
}

/// A configured, runnable simulation.
pub struct Simulation {
    cfg: SimConfig,
}

impl Simulation {
    /// Prepare a simulation; an invalid configuration is returned as
    /// [`SimError::InvalidConfig`] instead of asserting, so harnesses
    /// can record and skip bad scenarios rather than dying.
    pub fn new(cfg: SimConfig) -> Result<Self, SimError> {
        let problems = cfg.validate();
        if !problems.is_empty() {
            return Err(SimError::InvalidConfig(problems));
        }
        Ok(Simulation { cfg })
    }

    /// Run to completion and report. Fails with [`SimError::Stalled`]
    /// if the watchdog kills a livelocked loop, or
    /// [`SimError::ConservationViolation`] if end-of-run burst
    /// accounting does not balance.
    pub fn run(self) -> Result<RunResult, SimError> {
        self.start().finish()
    }

    /// Start the simulation without running it: schedules the initial
    /// events and hands back a [`RunningSim`] that can be stepped,
    /// checkpointed, and resumed. `start().finish()` is
    /// [`Simulation::run`].
    pub fn start(self) -> RunningSim {
        // Watchdog budget: a legitimate run processes a few million
        // events per simulated second; scale generously so only a true
        // runaway trips it.
        let wl = &self.cfg.workload;
        let budget = wl.event_budget.unwrap_or_else(|| {
            let secs = wl.duration.as_secs_f64().ceil().max(1.0) as u64;
            let flows_factor = (wl.num_flows as u64).max(1);
            secs.saturating_mul(50_000_000).saturating_mul(flows_factor).max(100_000_000)
        });
        Running::new(Runner::new(self.cfg), budget)
    }
}

/// A started [`Simulation`], driven through the shared run loop.
pub type RunningSim = Running<Runner>;

/// A snapshot of a [`RunningSim`] between events.
pub type SimCheckpoint = Checkpoint<Runner>;

/// The `netsim::sim` engine: hosts, switch, flows and observers.
#[derive(Clone)]
pub struct Runner {
    cfg: SimConfig,
    burst: Bytes,
    q: EventQueue<Ev>,
    flows: Vec<FlowState>,
    /// Hot per-flow scalars, parallel to `flows` (see [`FlowHot`]).
    hot: Vec<FlowHot>,
    snd_host: SimHost,
    rcv_host: SimHost,
    switch: SharedBufferSwitch,
    /// Bursts parked by pause-frame flow control (receiver side),
    /// bounded by `parked_cap`.
    parked: VecDeque<(usize, u64)>,
    /// Pause-buffer equivalent: how many bursts 802.3x can hold
    /// upstream before overflow becomes loss.
    parked_cap: usize,
    rng: SimRng,
    switch_drops: u64,
    ring_drops: u64,
    random_drops: u64,
    fault_drops: u64,
    /// Pause-frame holds: every time 802.3x (or a pause storm) parked a
    /// burst upstream instead of letting it reach the ring — the
    /// simulator's `ethtool -S … rx_pause` analogue.
    pause_parks: u64,
    /// Bursts handed to the wire (TxDequeue), incl. retransmissions.
    wire_sent: u64,
    /// Fault schedule (cloned out of the config).
    faults: Vec<FaultEvent>,
    /// Active link flaps (count, so overlapping flaps nest).
    link_down: u32,
    /// Active receiver-app stalls.
    rx_stalled: u32,
    /// Active pause-frame storms.
    pause_storm: u32,
    /// Active Gilbert–Elliott episode, if any.
    ge: Option<GeState>,
    cross_on: bool,
    cross_until: SimTime,
    cpu_intervals: Vec<(f64, f64)>,
    omit_time: SimTime,
    end_time: SimTime,
    /// The counters at the omit boundary (the run's start until then):
    /// the baseline of `FlowResult` bytes and the end-of-run CPU.
    omit: Snapshot,
    /// The counters at the last interval tick (or the omit boundary),
    /// shared by `cpu_intervals`, per-flow intervals and attribution.
    tick: Snapshot,
    /// Telemetry sampler; `None` (the default) costs one branch per
    /// dispatch of events that never get scheduled.
    sampler: Option<TelemetrySampler>,
    /// Classified intervals `(interval end, verdict)`; `None` unless
    /// [`crate::WorkloadSpec::attribution`] is on.
    verdicts: Option<Vec<(SimTime, LimitingFactor)>>,
}

impl Runner {
    /// The run's state, with its initial events queued.
    fn new(cfg: SimConfig) -> Self {
        let burst = cfg.sender.offload.gso_max_size;
        let mut rng = SimRng::seed_from_u64(cfg.workload.seed);
        let n = cfg.workload.num_flows;
        let snd_host = SimHost::new(&cfg.sender, n, &mut rng.fork());
        let rcv_host = SimHost::new(&cfg.receiver, n, &mut rng.fork());
        let mut switch = SharedBufferSwitch::new(
            cfg.path.switch_buffer,
            &[cfg.path.usable_rate()],
            // The bottleneck switch itself never runs 802.3x end to
            // end; `flow_control` protects the receiver edge (see
            // RxArrive handling).
            false,
        );
        if cfg.path.red {
            switch = switch.with_red(nethw::switch::RedParams::default());
        }
        // Pre-size per-flow buffers and the event queue for the run's
        // steady state: one ~1 s interval sample per simulated second
        // and a few dozen in-flight bursts/events per flow, so the hot
        // path never grows a Vec mid-run.
        let interval_cap = cfg.workload.duration.as_secs_f64().ceil() as usize + 1;
        let mut flows = Vec::with_capacity(n);
        for f in 0..n {
            let flow_rng = rng.fork();
            let cc = cfg
                .workload
                .flow_cc(f)
                .build(cfg.sender.offload.mtu, Bytes::new(10 * cfg.sender.offload.mtu.as_u64()));
            let rcv_buf = cfg.receiver.sysctl.tcp_rmem.max;
            let receiver = TcpReceiver::new(burst, rcv_buf.max(burst));
            let sender = TcpSender::new(
                cc,
                burst,
                cfg.sender.offload.mtu,
                cfg.sender.sysctl.tcp_wmem.max,
                receiver.rwnd(),
            );
            let pacer = Pacer::new(cfg.sender.sysctl.default_qdisc, cfg.workload.fq_rate);
            let zc = cfg.workload.zerocopy.then(|| {
                ZerocopyAccounting::for_kernel(cfg.sender.sysctl.optmem_max, cfg.sender.kernel)
            });
            flows.push(FlowState {
                sender,
                receiver,
                pacer,
                zc,
                pending_modes: VecDeque::with_capacity(64),
                burst_modes: VecDeque::with_capacity(64),
                modes_base: 0,
                intervals: Vec::with_capacity(interval_cap),
                rng: flow_rng,
            });
        }
        let omit_time = SimTime::ZERO + cfg.workload.omit;
        let end_time = SimTime::ZERO + cfg.workload.duration;
        // 802.3x can hold at most one advertised receive window of
        // data upstream: TCP admits no more un-ACKed data than the
        // receiver's buffer, so that is all pause frames ever have to
        // park for one socket. Anything beyond it (RTO duplicates
        // still in the fabric, additional sockets sharing the edge
        // port, pause storms) overflows the paused buffers and drops.
        let parked_cap = (cfg.receiver.sysctl.tcp_rmem.max.as_u64() / burst.as_u64())
            .max(4) as usize;
        let faults = cfg.workload.faults.events.clone();
        let verdicts = cfg.workload.attribution.then(Vec::new);
        let mut runner = Runner {
            cfg,
            burst,
            q: EventQueue::with_capacity((n * 64).max(1024)),
            flows,
            hot: vec![FlowHot::default(); n],
            snd_host,
            rcv_host,
            switch,
            parked: VecDeque::with_capacity(parked_cap.min(4096)),
            parked_cap,
            rng,
            switch_drops: 0,
            ring_drops: 0,
            random_drops: 0,
            fault_drops: 0,
            pause_parks: 0,
            wire_sent: 0,
            faults,
            link_down: 0,
            rx_stalled: 0,
            pause_storm: 0,
            ge: None,
            cross_on: false,
            cross_until: SimTime::ZERO,
            cpu_intervals: Vec::new(),
            omit_time,
            end_time,
            omit: Snapshot::default(),
            tick: Snapshot::default(),
            sampler: None,
            verdicts,
        };
        // Every observer starts from the (all-zero) counters at t = 0.
        let start = runner.snapshot(SimTime::ZERO);
        runner.sampler =
            runner.cfg.workload.telemetry.map(|tick| TelemetrySampler::new(tick, start.clone()));
        runner.tick = start.clone();
        runner.omit = start;
        // Kick off: one write chain per flow, staggered within 1 ms the
        // way parallel iperf3 threads start.
        for f in 0..runner.flows.len() {
            let jitter = SimDuration::from_nanos(runner.rng.uniform_u64(0, 1_000_000));
            runner.q.push(SimTime::ZERO + jitter, Ev::AppWrite(f));
        }
        runner.q.push(runner.omit_time, Ev::OmitBoundary);
        runner.q
            .push(runner.omit_time + SimDuration::from_secs(1), Ev::IntervalTick);
        // Zero-cost when disabled: without a sampler no tick event ever
        // enters the queue.
        if let Some(sampler) = &runner.sampler {
            runner.q.push(SimTime::ZERO + sampler.tick(), Ev::TelemetryTick);
        }
        if runner.cfg.path.cross_traffic.is_some() {
            runner.q.push(SimTime::ZERO, Ev::CrossToggle);
        }
        for (i, fe) in runner.faults.iter().enumerate() {
            runner.q.push(SimTime::ZERO + fe.at, Ev::FaultBegin(i));
            runner.q.push(SimTime::ZERO + fe.ends_at(), Ev::FaultEnd(i));
        }
        runner
    }


    // ---- sender application ------------------------------------------------

    fn on_app_write(&mut self, now: SimTime, f: usize) {
        let flow = &mut self.flows[f];
        if !flow.sender.app_can_write() {
            self.hot[f].app_waiting = true;
            return;
        }
        let mode = match &mut flow.zc {
            Some(acct) => match acct.try_send() {
                SendOutcome::Zerocopy => TxMode::Zerocopy,
                SendOutcome::CopiedFallback => TxMode::ZerocopyFallback,
            },
            None if self.cfg.workload.sendfile => TxMode::Sendfile,
            None => TxMode::Copy,
        };
        let window = flow.sender.inflight();
        let svc = self
            .snd_host
            .cost
            .tx_app_service(self.burst, mode, window, &mut flow.rng);
        // The copy/zerocopy write and the optional user-space checksum
        // are charged as separate stints on the same FIFO app core, so
        // the ledger can tell them apart; back to back they complete at
        // the exact same instant as one combined stint.
        let mut done = self.snd_host.serve_app(f, now, svc, Stage::TxApp);
        if self.cfg.workload.user_checksum {
            let ck = self.snd_host.cost.checksum_service(self.burst, &mut flow.rng);
            done = self.snd_host.serve_app(f, now, ck, Stage::Checksum);
        }
        self.q.push(done, Ev::AppWriteDone(f, mode));
    }

    fn on_app_write_done(&mut self, now: SimTime, f: usize, mode: TxMode) -> Result<(), SimError> {
        {
            let flow = &mut self.flows[f];
            flow.sender.app_wrote();
            flow.pending_modes.push_back(mode);
        }
        self.try_transmit(now, f)?;
        // Continue the write chain immediately; the app core's FIFO
        // spacing throttles the actual rate.
        self.on_app_write(now, f);
        Ok(())
    }

    // ---- transmission path -------------------------------------------------

    fn try_transmit(&mut self, now: SimTime, f: usize) -> Result<(), SimError> {
        loop {
            let flow = &mut self.flows[f];
            if !flow.sender.can_send() {
                break;
            }
            // TSQ: once the qdisc (or the driver TX path behind it)
            // holds a couple of milliseconds of data, stop feeding it
            // and resume when it drains.
            // TSQ is per flow, like Linux: at most ~1 ms of data at the
            // flow's pacing rate (min two bursts) may sit in the
            // qdisc+driver. fq's per-flow round robin means one flow's
            // backlog never gates another.
            let pacer_backlog = flow.pacer.backlog(now);
            if pacer_backlog >= TSQ_HORIZON {
                if !self.hot[f].pacer_resume_pending {
                    self.hot[f].pacer_resume_pending = true;
                    let resume = now + pacer_backlog.saturating_sub(TSQ_HORIZON / 2);
                    self.q.push(resume, Ev::PacerResume(f));
                }
                break;
            }
            let rate = flow
                .pacer
                .current_rate(flow.sender.tcp_pacing_rate(), self.snd_host.nic_rate());
            let driver_limit = rate
                .bytes_in(SimDuration::from_millis(2))
                .max(self.burst * 2);
            if self.hot[f].driver_bytes >= driver_limit {
                self.hot[f].tx_gated = true; // resumed when the driver drains
                break;
            }
            let auto_rate = flow.sender.tcp_pacing_rate();
            match flow.sender.next_slot(now) {
                SendSlot::Blocked => break,
                SendSlot::New(idx) => {
                    let Some(mode) = flow.pending_modes.pop_front() else {
                        return Err(SimError::StateCorruption {
                            at: now,
                            what: format!(
                                "sender granted new burst {idx} with no pending app \
                                 write (app_buffered and pending_modes out of sync)"
                            ),
                        });
                    };
                    debug_assert_eq!(
                        idx,
                        flow.modes_base + flow.burst_modes.len() as u64,
                        "new burst indices must be contiguous"
                    );
                    flow.burst_modes.push_back(mode);
                    let depart =
                        flow.pacer
                            .schedule(now, self.burst, auto_rate, self.snd_host.nic_rate());
                    self.q.push(depart, Ev::TxDequeue { flow: f, idx });
                }
                SendSlot::Retransmit(idx) => {
                    let depart =
                        flow.pacer
                            .schedule(now, self.burst, auto_rate, self.snd_host.nic_rate());
                    self.q.push(depart, Ev::TxDequeue { flow: f, idx });
                }
            }
        }
        self.ensure_rto(now, f);
        Ok(())
    }

    /// Schedule `ev` on `lane`. Debug builds check that the stream is
    /// monotone, i.e. that the push did not fall back to the wheel.
    #[inline]
    fn push_lane(&mut self, lane: Lane, at: SimTime, ev: Ev) {
        let laned = self.q.push_lane(lane as usize, at, ev);
        debug_assert!(laned, "{lane:?} push at {at} is earlier than the lane's tail");
    }

    fn on_tx_dequeue(&mut self, now: SimTime, f: usize, idx: u64) {
        // The burst leaves the qdisc now: restart its RTT/RTO clock so
        // pacer residence time doesn't masquerade as network delay.
        self.flows[f].sender.mark_transmitted(idx, now);
        self.hot[f].driver_bytes += self.burst;
        self.wire_sent += 1;
        let mode = {
            let flow = &self.flows[f];
            idx.checked_sub(flow.modes_base)
                .and_then(|off| flow.burst_modes.get(off as usize))
                .copied()
                .unwrap_or(TxMode::Copy)
        };
        let svc = self
            .snd_host
            .cost
            .tx_softirq_service(self.burst, &mut self.flows[f].rng);
        let t_irq = self.snd_host.serve_irq(f, now, svc, Stage::TxSoftirq);
        let window = self.flows[f].sender.inflight();
        let fab = self.snd_host.cost.fabric_tx_service(self.burst, mode, window);
        let t_fab = self.snd_host.serve_fabric(now, fab, Stage::FabricTx);
        let wire = self.cfg.sender.offload.wire_bytes(self.burst);
        let wire_done = self.snd_host.nic_transmit(t_irq.max(t_fab), wire);
        // Edge hop to the switch, then the switch-arrival logic runs
        // inline at that instant.
        // Monotone: the sender NIC completes in FIFO order, plus a fixed delay.
        let at = wire_done + EDGE_DELAY;
        self.push_lane(Lane::SwitchArrive, at, Ev::SwitchArrive { flow: f, idx });
    }

    fn on_switch_arrive(&mut self, now: SimTime, f: usize, idx: u64) -> Result<(), SimError> {
        // The burst left the sender's driver/NIC: credit the TSQ ledger
        // and resume a gated flow.
        {
            let hot = &mut self.hot[f];
            hot.driver_bytes = hot.driver_bytes.saturating_sub(self.burst);
            if hot.tx_gated {
                hot.tx_gated = false;
                self.try_transmit(now, f)?;
            }
        }
        // A downed bottleneck egress loses everything that reaches it.
        if self.link_down > 0 {
            self.fault_drops += 1;
            return Ok(());
        }
        // Gilbert–Elliott bad state: bursty fault loss on top of (not
        // instead of) the path's uniform random loss.
        if let Some(ge) = &self.ge {
            if ge.bad && now < ge.until {
                let p = ge.loss_bad;
                if self.flows[f].rng.chance(p) {
                    self.fault_drops += 1;
                    return Ok(());
                }
            }
        }
        let loss_p = self.cfg.path.random_loss;
        if loss_p > 0.0 && self.flows[f].rng.chance(loss_p) {
            self.random_drops += 1;
            return Ok(());
        }
        if self.switch.red_drop(&mut self.flows[f].rng) {
            self.switch_drops += 1;
            return Ok(());
        }
        let wire = self.cfg.sender.offload.wire_bytes(self.burst);
        match self.switch.enqueue(0, wire, now) {
            EnqueueOutcome::Dropped => {
                self.switch_drops += 1;
            }
            EnqueueOutcome::Queued { departs_at } => {
                // Monotone: the one port's `busy_until`; cross traffic only delays it.
                self.push_lane(Lane::SwitchDepart, departs_at, Ev::SwitchDepart { flow: f, idx });
            }
        }
        Ok(())
    }

    fn on_switch_depart(&mut self, now: SimTime, f: usize, idx: u64) {
        let wire = self.cfg.sender.offload.wire_bytes(self.burst);
        self.switch.departed(0, wire);
        // Monotone: `now` plus the path's fixed one-way delay.
        let at = now + self.cfg.path.one_way_delay();
        self.push_lane(Lane::RxArrive, at, Ev::RxArrive { flow: f, idx });
    }

    // ---- receiver ------------------------------------------------------------

    fn on_rx_arrive(&mut self, now: SimTime, f: usize, idx: u64) {
        // A pause storm holds *every* arrival upstream, ring state
        // notwithstanding — the edge port is XOFF'd by frames from
        // elsewhere in the fabric.
        if self.pause_storm > 0 {
            self.park(f, idx);
            return;
        }
        if !self.rcv_host.ring.offer(self.burst) {
            if self.cfg.path.flow_control {
                // 802.3x: pause frames hold the burst upstream instead
                // of dropping it; it re-enters when the ring drains.
                self.park(f, idx);
            } else {
                self.ring_drops += 1;
            }
            return;
        }
        let svc = self
            .rcv_host
            .cost
            .rx_softirq_service(self.burst, &mut self.flows[f].rng);
        let t_irq = self.rcv_host.serve_irq(f, now, svc, Stage::RxSoftirq);
        let fab = self
            .rcv_host
            .cost
            .fabric_rx_service(self.burst, self.cfg.workload.skip_rx_copy);
        let t_fab = self.rcv_host.serve_fabric(now, fab, Stage::FabricRx);
        self.q
            .push(t_irq.max(t_fab), Ev::RxSoftirqDone { flow: f, idx });
    }

    fn on_rx_softirq_done(&mut self, now: SimTime, f: usize, idx: u64) {
        self.rcv_host.ring.drain(self.burst);
        // A descriptor freed: un-park one flow-controlled burst (unless
        // a pause storm still has the edge XOFF'd).
        if self.pause_storm == 0 {
            if let Some((pf, pidx)) = self.parked.pop_front() {
                self.on_rx_arrive(now, pf, pidx);
            }
        }
        let ack = self.flows[f].receiver.on_burst(idx);
        // Monotone: `now` plus fixed delays, as at the other ACK site.
        self.push_lane(
            Lane::AckArrive,
            now + self.cfg.path.one_way_delay() + EDGE_DELAY,
            Ev::AckArrive { flow: f, cum: ack.cum_ack, idx: ack.acked_idx, rwnd: ack.rwnd },
        );
        self.maybe_start_rx_app(now, f);
    }

    fn maybe_start_rx_app(&mut self, now: SimTime, f: usize) {
        // A stalled receiver application reads nothing; data piles up
        // in the socket buffer until rwnd closes.
        if self.rx_stalled > 0 {
            return;
        }
        let flow = &mut self.flows[f];
        if self.hot[f].rx_app_busy || flow.receiver.readable_bursts() == 0 {
            return;
        }
        self.hot[f].rx_app_busy = true;
        let svc = self.rcv_host.cost.rx_app_service(
            self.burst,
            self.cfg.workload.skip_rx_copy,
            &mut flow.rng,
        );
        // Read copy and user checksum: separate ledger stages, same
        // completion instant as one combined stint (see on_app_write).
        let mut done = self.rcv_host.serve_app(f, now, svc, Stage::RxApp);
        if self.cfg.workload.user_checksum {
            let ck = self.rcv_host.cost.checksum_service(self.burst, &mut flow.rng);
            done = self.rcv_host.serve_app(f, now, ck, Stage::Checksum);
        }
        self.q.push(done, Ev::RxAppReadDone(f));
    }

    fn on_rx_app_read_done(&mut self, now: SimTime, f: usize) {
        let flow = &mut self.flows[f];
        let was_zero_window = flow.receiver.rwnd() < self.burst;
        let read = flow.receiver.app_read();
        debug_assert!(read, "read completion without readable data");
        self.hot[f].delivered_bursts += 1;
        self.hot[f].rx_app_busy = false;
        // Zero-window recovery: the read that reopens the window sends
        // a window-update ACK (otherwise a sender idled by rwnd=0 after
        // a receiver stall would never learn the window reopened).
        if was_zero_window && flow.receiver.rwnd() >= self.burst {
            let cum = flow.receiver.rcv_nxt();
            let rwnd = flow.receiver.rwnd();
            if cum > 0 {
                // Monotone: `now` plus fixed delays, as at the other ACK site.
                self.push_lane(
                    Lane::AckArrive,
                    now + self.cfg.path.one_way_delay() + EDGE_DELAY,
                    // `idx = cum - 1` is already cumulatively ACKed, so
                    // the sender treats this as a pure window refresh.
                    Ev::AckArrive { flow: f, cum, idx: cum - 1, rwnd },
                );
            }
        }
        self.maybe_start_rx_app(now, f);
    }

    // ---- ACK path --------------------------------------------------------------

    fn on_ack(
        &mut self,
        now: SimTime,
        f: usize,
        cum: u64,
        idx: u64,
        rwnd: Bytes,
    ) -> Result<(), SimError> {
        // ACKs ride the same bottleneck link: a flap eats them too.
        // Cumulative ACKs are self-healing, so the sender recovers from
        // the gap via later ACKs or its own RTO.
        if self.link_down > 0 {
            return Ok(());
        }
        {
            let svc = self.snd_host.cost.ack_service(&mut self.flows[f].rng);
            self.snd_host.charge_irq(f, svc, Stage::Ack);
        }
        let flow = &mut self.flows[f];
        let _outcome = flow.sender.on_ack(cum, idx, rwnd, now);
        // Zerocopy completions: everything cumulatively ACKed releases
        // its optmem charge.
        while flow.modes_base < cum {
            let Some(mode) = flow.burst_modes.pop_front() else { break };
            flow.modes_base += 1;
            if mode == TxMode::Zerocopy {
                if let Some(acct) = &mut flow.zc {
                    acct.complete();
                }
            }
        }
        let wake_app = self.hot[f].app_waiting && flow.sender.app_can_write();
        if wake_app {
            self.hot[f].app_waiting = false;
        }
        self.try_transmit(now, f)?;
        if wake_app {
            self.on_app_write(now, f);
        }
        Ok(())
    }

    fn ensure_rto(&mut self, now: SimTime, f: usize) {
        if self.hot[f].rto_scheduled {
            return;
        }
        if let Some((deadline, _)) = self.flows[f].sender.timer_deadline() {
            self.hot[f].rto_scheduled = true;
            self.q.push(deadline.max(now), Ev::RtoCheck(f));
        }
    }

    fn on_pacer_resume(&mut self, now: SimTime, f: usize) -> Result<(), SimError> {
        self.hot[f].pacer_resume_pending = false;
        self.try_transmit(now, f)
    }

    fn on_rto_check(&mut self, now: SimTime, f: usize) -> Result<(), SimError> {
        self.hot[f].rto_scheduled = false;
        match self.flows[f].sender.timer_deadline() {
            None => {}
            Some((d, kind)) if d <= now => {
                match kind {
                    TimerKind::Tlp => self.flows[f].sender.on_tlp(now),
                    TimerKind::Rto => self.flows[f].sender.on_rto(now),
                }
                self.try_transmit(now, f)?;
            }
            Some((d, _)) => {
                self.hot[f].rto_scheduled = true;
                self.q.push(d, Ev::RtoCheck(f));
            }
        }
        Ok(())
    }

    // ---- fault injection -------------------------------------------------------

    fn on_fault_begin(&mut self, now: SimTime, i: usize) {
        match self.faults[i].fault.clone() {
            Fault::BurstyLoss { duration, mean_bad, mean_good, loss_bad } => {
                // An episode starts in the bad state (the episode *is*
                // the bad weather); sojourns alternate from there.
                self.ge = Some(GeState {
                    episode: i,
                    bad: true,
                    mean_bad,
                    mean_good,
                    loss_bad,
                    until: now + duration,
                });
                self.schedule_ge_toggle(now, i);
            }
            Fault::LinkFlap { .. } => {
                self.link_down += 1;
            }
            Fault::ReceiverStall { .. } => {
                self.rx_stalled += 1;
            }
            Fault::PauseStorm { .. } => {
                self.pause_storm += 1;
            }
        }
    }

    fn on_fault_end(&mut self, now: SimTime, i: usize) {
        match self.faults[i].fault {
            Fault::BurstyLoss { .. } => {
                if self.ge.as_ref().is_some_and(|g| g.episode == i) {
                    self.ge = None;
                }
            }
            Fault::LinkFlap { .. } => {
                // Nothing to restore: the senders' own RTO/TLP machinery
                // rediscovers the path.
                self.link_down = self.link_down.saturating_sub(1);
            }
            Fault::ReceiverStall { .. } => {
                self.rx_stalled = self.rx_stalled.saturating_sub(1);
                if self.rx_stalled == 0 {
                    // Reads restart; each drain will emit a window
                    // update once rwnd reopens (see on_rx_app_read_done).
                    for f in 0..self.flows.len() {
                        self.maybe_start_rx_app(now, f);
                    }
                }
            }
            Fault::PauseStorm { .. } => {
                self.pause_storm = self.pause_storm.saturating_sub(1);
                if self.pause_storm == 0 {
                    // Feed each parked burst back through the edge once;
                    // whatever still doesn't fit re-parks (802.3x) or
                    // drops (no flow control).
                    let n = self.parked.len();
                    for _ in 0..n {
                        let Some((pf, pidx)) = self.parked.pop_front() else { break };
                        self.on_rx_arrive(now, pf, pidx);
                    }
                }
            }
        }
    }

    fn schedule_ge_toggle(&mut self, now: SimTime, episode: usize) {
        let Some(ge) = &self.ge else { return };
        let mean = if ge.bad { ge.mean_bad } else { ge.mean_good };
        let dwell = SimDuration::from_secs_f64(self.rng.exponential(mean.as_secs_f64()))
            .max(SimDuration::from_nanos(1));
        let next = now + dwell;
        if next < ge.until {
            self.q.push(next, Ev::GeToggle(episode));
        }
    }

    fn on_ge_toggle(&mut self, now: SimTime, episode: usize) {
        let Some(ge) = &mut self.ge else { return };
        if ge.episode != episode || now >= ge.until {
            return;
        }
        ge.bad = !ge.bad;
        self.schedule_ge_toggle(now, episode);
    }

    /// Park a burst held upstream by pause frames, dropping on pause-
    /// buffer overflow (802.3x cannot buy infinite memory).
    fn park(&mut self, f: usize, idx: u64) {
        self.pause_parks += 1;
        if self.parked.len() >= self.parked_cap {
            self.ring_drops += 1;
        } else {
            self.parked.push_back((f, idx));
        }
    }

    // ---- environment ------------------------------------------------------------

    /// Cross-traffic driver. ON/OFF periods are exponential, but while
    /// ON the egress occupancy is booked in ~250 µs slices so that
    /// production bursts *interleave* with test traffic (occupying a
    /// share of the port) rather than blocking it outright — a blocked
    /// port would release multi-millisecond line-rate trains that no
    /// receiver could absorb.
    fn on_cross_toggle(&mut self, now: SimTime) {
        let Some(spec) = self.cfg.path.cross_traffic else { return };
        if now >= self.cross_until {
            self.cross_on = !self.cross_on;
            let mean = if self.cross_on {
                spec.mean_burst.as_secs_f64()
            } else {
                spec.mean_gap().as_secs_f64().max(1e-9)
            };
            self.cross_until =
                now + SimDuration::from_secs_f64(self.rng.exponential(mean));
        }
        if self.cross_on {
            let slice = SimDuration::from_micros(250).min(self.cross_until - now);
            let ratio = (spec.burst_rate.as_bps() / self.cfg.path.usable_rate().as_bps())
                .min(0.95);
            self.switch.consume_egress(0, slice.mul_f64(ratio), now);
            self.q.push(now + slice.max(SimDuration::from_micros(1)), Ev::CrossToggle);
        } else {
            self.q.push(self.cross_until, Ev::CrossToggle);
        }
    }

    fn on_interval(&mut self, now: SimTime) {
        let cur = self.snapshot(now);
        self.classify_interval(&cur);
        let prev = &self.tick;
        // mpstat-style sample: utilisation over the last interval.
        let snd = self.snd_host.cpu_report(&prev.snd_busy, &cur.snd_busy, prev.t, now);
        let rcv = self.rcv_host.cpu_report(&prev.rcv_busy, &cur.rcv_busy, prev.t, now);
        self.cpu_intervals.push((snd.combined_pct(), rcv.combined_pct()));
        for (flow, (now_d, prev_d)) in
            self.flows.iter_mut().zip(cur.delivered.iter().zip(&prev.delivered))
        {
            flow.intervals.push(BitRate::average(
                Bytes::new((now_d - prev_d) * self.burst.as_u64()),
                SimDuration::from_secs(1),
            ));
        }
        self.tick = cur;
        let next = now + SimDuration::from_secs(1);
        if next <= self.end_time {
            self.q.push(next, Ev::IntervalTick);
        }
    }

    /// Overwrite `snap` with the counters as they stand at `now`.
    fn fill_snapshot(&self, now: SimTime, snap: &mut Snapshot) {
        snap.t = now;
        self.snd_host.busy_into(&mut snap.snd_busy);
        self.rcv_host.busy_into(&mut snap.rcv_busy);
        snap.counters = CounterSnapshot {
            ring_drops: self.ring_drops,
            switch_drops: self.switch_drops,
            random_drops: self.random_drops,
            fault_drops: self.fault_drops,
            pause_frames: self.pause_parks,
            wire_sent: self.wire_sent,
        };
        snap.delivered.clear();
        snap.delivered.extend(self.hot.iter().map(|h| h.delivered_bursts));
        let zc = |count: fn(&ZerocopyAccounting) -> u64| -> u64 {
            self.flows.iter().map(|fl| fl.zc.as_ref().map_or(0, count)).sum()
        };
        snap.zc_sends = zc(ZerocopyAccounting::zerocopy_sends);
        snap.zc_fallbacks = zc(ZerocopyAccounting::fallback_sends);
        snap.acks = self.flows.iter().map(|fl| fl.sender.acks_processed()).sum();
        snap.cwnd_limited_acks = self.flows.iter().map(|fl| fl.sender.cwnd_limited_acks()).sum();
    }

    /// A fresh [`Snapshot`] at `now`.
    fn snapshot(&self, now: SimTime) -> Snapshot {
        let mut snap = Snapshot::default();
        self.fill_snapshot(now, &mut snap);
        snap
    }

    /// Classify the interval from the last tick to `cur`. No-op when
    /// attribution is off or the interval is empty.
    fn classify_interval(&mut self, cur: &Snapshot) {
        let Some(mut verdicts) = self.verdicts.take() else { return };
        if cur.t > self.tick.t {
            verdicts.push((cur.t, classify(&self.interval_obs(&self.tick, cur))));
        }
        self.verdicts = Some(verdicts);
    }

    /// The classifier's observation for `(prev.t, cur.t]`.
    fn interval_obs(&self, prev: &Snapshot, cur: &Snapshot) -> IntervalObs {
        let dt = cur.t.saturating_since(prev.t).as_secs_f64();
        // Peak (not mean) busy fraction over a group of cores: one
        // pegged core bottlenecks the pipeline no matter how idle its
        // siblings are.
        let peak = |prev: &[SimDuration], cur: &[SimDuration]| {
            cur.iter()
                .zip(prev)
                .map(|(c, p)| c.saturating_sub(*p).as_secs_f64() / dt)
                .fold(0.0f64, f64::max)
        };
        let snd_app = self.snd_host.app_core_count();
        let rcv_app = self.rcv_host.app_core_count();
        let delivered = |s: &Snapshot| s.delivered.iter().sum::<u64>();
        let delivered_bits = (delivered(cur) - delivered(prev)) as f64 * self.burst.bits() as f64;
        let (c, p) = (cur.counters, prev.counters);
        IntervalObs {
            switch_drops: c.switch_drops - p.switch_drops,
            ring_drops: c.ring_drops - p.ring_drops,
            pause_parks: c.pause_frames - p.pause_frames,
            zc_sends: cur.zc_sends - prev.zc_sends,
            zc_fallbacks: cur.zc_fallbacks - prev.zc_fallbacks,
            acks: cur.acks - prev.acks,
            cwnd_limited_acks: cur.cwnd_limited_acks - prev.cwnd_limited_acks,
            snd_app_busy: peak(&prev.snd_busy[..snd_app], &cur.snd_busy[..snd_app]),
            snd_irq_busy: peak(&prev.snd_busy[snd_app..], &cur.snd_busy[snd_app..]),
            rcv_irq_busy: peak(&prev.rcv_busy[rcv_app..], &cur.rcv_busy[rcv_app..]),
            rcv_app_busy: peak(&prev.rcv_busy[..rcv_app], &cur.rcv_busy[..rcv_app]),
            delivered_gbps: delivered_bits / dt / 1e9,
            usable_gbps: self.cfg.path.usable_rate().as_gbps(),
            fq_total_gbps: self
                .cfg
                .workload
                .fq_rate
                .map(|r| r.as_gbps() * self.flows.len() as f64),
        }
    }

    /// One host's whole-run stage decomposition out of its ledger.
    fn stage_profile(host: &SimHost) -> StageProfile {
        let ledger = host.ledger();
        StageProfile {
            clock_hz: host.cost.clock_hz(),
            cores: (0..ledger.num_cores())
                .map(|i| CoreProfile {
                    role: host.core_role(i),
                    stage_busy: ledger.core_row(i),
                })
                .collect(),
        }
    }

    /// Telemetry tick: sample every flow and the host counters, then
    /// re-arm. Strictly read-only on flow/host/RNG state, so a sampled
    /// run reproduces the exact same traffic as an unsampled one.
    fn on_telemetry(&mut self, now: SimTime) {
        let Some(mut sampler) = self.sampler.take() else { return };
        self.telemetry_sample(&mut sampler, self.snapshot(now));
        let next = now + sampler.tick();
        if next <= self.end_time {
            self.q.push(next, Ev::TelemetryTick);
        }
        self.sampler = Some(sampler);
    }

    /// Record one full sample at `cur.t` (tick or end-of-run flush).
    fn telemetry_sample(&self, sampler: &mut TelemetrySampler, cur: Snapshot) {
        // IntervalTick sorts before TelemetryTick at equal timestamps
        // (FIFO push order), so a 1 s telemetry cadence sees each
        // interval's fresh verdict.
        let limiting = self.verdicts.as_ref().and_then(|v| v.last()).map(|(_, f)| *f);
        let infos = self.flows.iter().map(|flow| {
            let sender = &flow.sender;
            let cc = sender.cc();
            let ca_state = if sender.in_recovery() {
                CaState::Recovery
            } else if cc.in_slow_start() {
                CaState::SlowStart
            } else {
                CaState::CongestionAvoidance
            };
            FlowInfo {
                cwnd: cc.cwnd(),
                ssthresh: cc.ssthresh(),
                srtt: sender.rtt.srtt(),
                pacing_rate: sender.tcp_pacing_rate(),
                ca_state,
                bytes_retrans: Bytes::new(sender.retx_bursts() * self.burst.as_u64()),
                retr_packets: sender.retr_packets(),
                limiting,
            }
        });
        // A zero-length interval (the end-of-run flush landing exactly
        // on the last tick) reports 0 % busy.
        let prev = sampler.prev();
        let snd = self.snd_host.cpu_report(&prev.snd_busy, &cur.snd_busy, prev.t, cur.t);
        let rcv = self.rcv_host.cpu_report(&prev.rcv_busy, &cur.rcv_busy, prev.t, cur.t);
        sampler.record(cur, self.burst, infos, snd.per_core, rcv.per_core);
    }

    fn on_omit(&mut self, now: SimTime) {
        let mut omit = std::mem::take(&mut self.omit);
        self.fill_snapshot(now, &mut omit);
        // `cpu_intervals`, per-flow intervals and attribution measure
        // from the omit boundary on: warm-up slow start never pollutes
        // them.
        self.tick.clone_from(&omit);
        self.omit = omit;
    }

    /// End-of-run burst conservation: every burst handed to the wire is
    /// delivered to a receiver (incl. duplicates and window rejects),
    /// dropped with an attributed cause, or still inside the pipeline.
    fn check_conservation(&self) -> Result<(), SimError> {
        let delivered: u64 = self.flows.iter().map(|fl| fl.receiver.total_bursts()).sum();
        let dropped =
            self.switch_drops + self.ring_drops + self.random_drops + self.fault_drops;
        let pending: u64 = self
            .q
            .iter()
            .filter(|ev| {
                matches!(
                    ev,
                    Ev::SwitchArrive { .. }
                        | Ev::SwitchDepart { .. }
                        | Ev::RxArrive { .. }
                        | Ev::RxSoftirqDone { .. }
                )
            })
            .count() as u64;
        let in_flight = pending + self.parked.len() as u64;
        if self.wire_sent != delivered + dropped + in_flight {
            return Err(SimError::ConservationViolation {
                wire_sent: self.wire_sent,
                delivered,
                dropped,
                in_flight,
            });
        }
        Ok(())
    }
}

impl Engine for Runner {
    type Event = Ev;
    type Output = RunResult;

    fn queue(&self) -> &EventQueue<Ev> {
        &self.q
    }

    /// The run covers events up to `end_time`; later ones stay queued.
    fn step(&mut self, watchdog: &mut Watchdog) -> Result<bool, SimError> {
        let Some((now, ev)) = self.q.pop_until(self.end_time) else {
            return Ok(false);
        };
        observe(watchdog, now)?;
        match ev {
            Ev::AppWrite(f) => self.on_app_write(now, f),
            Ev::AppWriteDone(f, mode) => self.on_app_write_done(now, f, mode)?,
            Ev::TxDequeue { flow, idx } => self.on_tx_dequeue(now, flow, idx),
            Ev::SwitchArrive { flow, idx } => self.on_switch_arrive(now, flow, idx)?,
            Ev::SwitchDepart { flow, idx } => self.on_switch_depart(now, flow, idx),
            Ev::RxArrive { flow, idx } => self.on_rx_arrive(now, flow, idx),
            Ev::RxSoftirqDone { flow, idx } => self.on_rx_softirq_done(now, flow, idx),
            Ev::RxAppReadDone(f) => self.on_rx_app_read_done(now, f),
            Ev::AckArrive { flow, cum, idx, rwnd } => self.on_ack(now, flow, cum, idx, rwnd)?,
            Ev::RtoCheck(f) => self.on_rto_check(now, f)?,
            Ev::PacerResume(f) => self.on_pacer_resume(now, f)?,
            Ev::CrossToggle => self.on_cross_toggle(now),
            Ev::IntervalTick => self.on_interval(now),
            Ev::TelemetryTick => self.on_telemetry(now),
            Ev::OmitBoundary => self.on_omit(now),
            Ev::FaultBegin(i) => self.on_fault_begin(now, i),
            Ev::FaultEnd(i) => self.on_fault_end(now, i),
            Ev::GeToggle(i) => self.on_ge_toggle(now, i),
        }
        Ok(true)
    }

    fn has_pending(&self) -> bool {
        self.q.peek_time().is_some_and(|next| next <= self.end_time)
    }

    fn finish(mut self) -> Result<RunResult, SimError> {
        self.check_conservation()?;
        let end = self.snapshot(self.end_time);
        // Final partial attribution interval (a duration that is not a
        // tick multiple leaves a tail after the last in-range tick) —
        // classified before the telemetry flush so the flush sample
        // carries the final verdict.
        self.classify_interval(&end);
        // Final partial-interval flush so per-interval byte counts sum
        // exactly to the delivered-bytes ledger — data that arrived
        // after the last tick (or after the last in-range tick on a
        // duration that is not a tick multiple) must land somewhere.
        let telemetry = self.sampler.take().map(|mut sampler| {
            let prev = sampler.prev();
            if prev.t < self.end_time || prev.delivered != end.delivered {
                self.telemetry_sample(&mut sampler, end.clone());
            }
            sampler.finish()
        });
        let attribution = self.verdicts.take().map(|verdicts| Attribution {
            verdict: BottleneckVerdict::from_intervals(&verdicts),
            verdicts,
            sender_profile: Self::stage_profile(&self.snd_host),
            receiver_profile: Self::stage_profile(&self.rcv_host),
        });
        let window = self.end_time.saturating_since(self.omit_time);
        let flows = self
            .flows
            .iter()
            .zip(end.delivered.iter().zip(&self.omit.delivered))
            .enumerate()
            .map(|(id, (flow, (delivered, at_omit)))| {
                let bytes = Bytes::new((delivered - at_omit) * self.burst.as_u64());
                FlowResult {
                    id,
                    bytes,
                    goodput: BitRate::average(bytes, window),
                    // iperf3's Retr column counts the whole test,
                    // including slow-start losses before the omit mark.
                    retr_packets: flow.sender.retr_packets(),
                    rto_events: flow.sender.rto_events(),
                    zc_sends: flow.zc.as_ref().map_or(0, |z| z.zerocopy_sends()),
                    zc_fallbacks: flow.zc.as_ref().map_or(0, |z| z.fallback_sends()),
                    intervals: flow.intervals.clone(),
                }
            })
            .collect();
        let omit = &self.omit;
        Ok(RunResult {
            flows,
            window,
            sender_cpu: self.snd_host.cpu_report(&omit.snd_busy, &end.snd_busy, omit.t, end.t),
            receiver_cpu: self.rcv_host.cpu_report(&omit.rcv_busy, &end.rcv_busy, omit.t, end.t),
            cpu_intervals: self.cpu_intervals,
            switch_drops: self.switch_drops,
            ring_drops: self.ring_drops,
            random_drops: self.random_drops,
            fault_drops: self.fault_drops,
            wire_sent: self.wire_sent,
            events: self.q.total_popped(),
            past_clamps: self.q.past_clamps(),
            telemetry,
            attribution,
        })
    }
}
