//! A simulated host: CPU core servers, fabric, NIC egress, RX ring.
//!
//! Each core is a FIFO server (`next_free` + accumulated busy time).
//! Flows are assigned an app core and an IRQ core: round-robin over the
//! configured sets when affinity is tuned, random — with possible
//! app/IRQ collisions and cross-NUMA penalties — when `irqbalance` is
//! left on (the §III-A variance).

use linuxhost::{calib, CostModel, CpuReport, HostConfig, Stage};
use nethw::RxRing;
use simcore::{Bytes, CycleLedger, SimDuration, SimRng, SimTime};

#[derive(Debug, Clone, Copy, Default)]
struct CoreServer {
    next_free: SimTime,
}

/// Per-flow core assignment and penalties.
#[derive(Debug, Clone, Copy)]
struct FlowPlacement {
    app_core: usize,
    irq_core: usize,
    /// Service-time multiplier from bad placement (1.0 when tuned).
    placement_penalty: f64,
}

/// One simulated host (used as sender or receiver).
///
/// `Clone` deep-copies every server, ledger, and placement so a
/// checkpointed simulation resumes with bit-identical host state.
#[derive(Clone)]
pub struct SimHost {
    /// The host's cost model.
    pub cost: CostModel,
    cores: Vec<CoreServer>,
    fabric: CoreServer,
    nic_egress: CoreServer,
    nic_rate: simcore::BitRate,
    /// RX ring (receiver role).
    pub ring: RxRing,
    placements: Vec<FlowPlacement>,
    /// Application cores occupy indices `0..n_app` (IRQ cores follow).
    n_app: usize,
    /// Per-core, per-stage busy ledger: the host's only CPU account,
    /// read by `mpstat`-style reports and attribution alike. The
    /// fabric is booked as a pseudo-core at index `cores.len()`.
    /// Charging is strictly additive bookkeeping — it never alters
    /// service or completion times.
    ledger: CycleLedger,
}

impl SimHost {
    /// Build a host for `num_flows` flows, using `rng` for stochastic
    /// placement when irqbalance is on.
    pub fn new(cfg: &HostConfig, num_flows: usize, rng: &mut SimRng) -> Self {
        let cost = CostModel::new(cfg);
        let alloc = &cfg.cores;
        // Core index space: 0..n_app are app cores, n_app.. are IRQ cores.
        let n_app = alloc.app_cores.len();
        let n_irq = alloc.irq_cores.len();

        let mut placements = Vec::with_capacity(num_flows);
        for f in 0..num_flows {
            if alloc.irqbalance {
                // Random placement over the whole machine; app and IRQ
                // may land on the same core or on the wrong NUMA node.
                let app = rng.uniform_u64(0, n_app as u64) as usize;
                let irq = n_app + rng.uniform_u64(0, n_irq as u64) as usize;
                // With overlapping stock sets, a "collision" means the
                // scheduler put the app where IRQs fire: model that as
                // a coin flip per flow.
                let collided = rng.chance(0.30);
                let cross_numa = rng.uniform(1.0, 1.6);
                let penalty =
                    if collided { cross_numa / calib::SHARED_CORE_CAPACITY } else { cross_numa };
                placements.push(FlowPlacement {
                    app_core: app,
                    irq_core: irq,
                    placement_penalty: penalty,
                });
            } else {
                placements.push(FlowPlacement {
                    app_core: f % n_app,
                    irq_core: n_app + (f % n_irq),
                    placement_penalty: 1.0,
                });
            }
        }

        let mtu = cfg.offload.mtu;
        SimHost {
            cost,
            cores: vec![CoreServer::default(); n_app + n_irq],
            fabric: CoreServer::default(),
            nic_egress: CoreServer::default(),
            nic_rate: cfg.nic.effective_rate(),
            ring: RxRing::new(cfg.effective_ring_entries(), mtu),
            placements,
            n_app,
            ledger: CycleLedger::new(n_app + n_irq + 1, Stage::COUNT),
        }
    }

    fn serve(&mut self, core: usize, now: SimTime, svc: SimDuration, stage: Stage) -> SimTime {
        let start = self.cores[core].next_free.max(now);
        let done = start + svc;
        self.cores[core].next_free = done;
        self.ledger.charge(core, stage.index(), svc);
        done
    }

    /// Queue `svc` of work on the flow's application core, attributed
    /// to `stage`; returns the completion time.
    pub fn serve_app(&mut self, flow: usize, now: SimTime, svc: SimDuration, stage: Stage) -> SimTime {
        let p = self.placements[flow];
        self.serve(p.app_core, now, svc.mul_f64(p.placement_penalty), stage)
    }

    /// Queue `svc` of work on the flow's IRQ core, attributed to `stage`.
    pub fn serve_irq(&mut self, flow: usize, now: SimTime, svc: SimDuration, stage: Stage) -> SimTime {
        let p = self.placements[flow];
        self.serve(p.irq_core, now, svc.mul_f64(p.placement_penalty), stage)
    }

    /// Record IRQ-core busy time without waiting for completion
    /// (lightweight work like ACK processing).
    pub fn charge_irq(&mut self, flow: usize, svc: SimDuration, stage: Stage) {
        let p = self.placements[flow];
        self.ledger.charge(p.irq_core, stage.index(), svc);
    }

    /// Queue a burst on the host fabric (shared memory/DMA bandwidth),
    /// attributed to `stage`; returns the completion time.
    pub fn serve_fabric(&mut self, now: SimTime, svc: SimDuration, stage: Stage) -> SimTime {
        let start = self.fabric.next_free.max(now);
        let done = start + svc;
        self.fabric.next_free = done;
        self.ledger.charge(self.cores.len(), stage.index(), svc);
        done
    }

    /// Serialise a burst onto the wire through the NIC (single egress
    /// pipe at the NIC's effective rate). Returns the time the last bit
    /// leaves.
    pub fn nic_transmit(&mut self, now: SimTime, bytes: Bytes) -> SimTime {
        let start = self.nic_egress.next_free.max(now);
        let done = start + self.nic_rate.serialize_time(bytes);
        self.nic_egress.next_free = done;
        done
    }

    /// The NIC's effective (wire ∧ PCIe) rate.
    pub fn nic_rate(&self) -> simcore::BitRate {
        self.nic_rate
    }

    /// Overwrite `out` with each CPU core's total busy time (the
    /// fabric pseudo-core excluded): one end of a [`SimHost::cpu_report`]
    /// window.
    pub fn busy_into(&self, out: &mut Vec<SimDuration>) {
        out.clear();
        out.extend((0..self.cores.len()).map(|core| self.ledger.core_total(core)));
    }

    /// `mpstat` over `[start, end)`, from [`SimHost::busy_into`] reads
    /// taken at its two ends.
    pub fn cpu_report(
        &self,
        at_start: &[SimDuration],
        at_end: &[SimDuration],
        start: SimTime,
        end: SimTime,
    ) -> CpuReport {
        CpuReport::between(self.n_app, at_start, at_end, start, end)
    }

    /// The per-core, per-stage busy ledger. Core indices
    /// `0..app_core_count()` are app cores, then IRQ cores, with the
    /// fabric pseudo-core last.
    pub fn ledger(&self) -> &CycleLedger {
        &self.ledger
    }

    /// Number of application cores (ledger index prefix).
    pub fn app_core_count(&self) -> usize {
        self.n_app
    }

    /// Number of IRQ cores.
    pub fn irq_core_count(&self) -> usize {
        self.cores.len() - self.n_app
    }

    /// Human-readable role of a ledger core index (`app0`, `irq1`,
    /// `fabric`).
    pub fn core_role(&self, idx: usize) -> String {
        if idx < self.n_app {
            format!("app{idx}")
        } else if idx < self.cores.len() {
            format!("irq{}", idx - self.n_app)
        } else {
            "fabric".into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linuxhost::KernelVersion;

    fn host(flows: usize) -> SimHost {
        let cfg = HostConfig::esnet_amd(KernelVersion::L6_8);
        let mut rng = SimRng::seed_from_u64(1);
        SimHost::new(&cfg, flows, &mut rng)
    }

    fn busy(h: &SimHost) -> Vec<SimDuration> {
        let mut out = Vec::new();
        h.busy_into(&mut out);
        out
    }

    #[test]
    fn app_core_serialises_fifo() {
        let mut h = host(1);
        let svc = SimDuration::from_micros(10);
        let t1 = h.serve_app(0, SimTime::ZERO, svc, Stage::TxApp);
        let t2 = h.serve_app(0, SimTime::ZERO, svc, Stage::TxApp);
        assert_eq!(t1.as_nanos(), 10_000);
        assert_eq!(t2.as_nanos(), 20_000);
    }

    #[test]
    fn tuned_flows_get_distinct_cores() {
        let mut h = host(8);
        let svc = SimDuration::from_micros(10);
        // All 8 flows serve simultaneously without queueing: distinct cores.
        for f in 0..8 {
            let done = h.serve_app(f, SimTime::ZERO, svc, Stage::TxApp);
            assert_eq!(done.as_nanos(), 10_000, "flow {f} should not queue");
            assert_eq!(h.placements[f].placement_penalty, 1.0);
        }
    }

    #[test]
    fn irqbalance_creates_penalties() {
        let cfg = HostConfig::untuned(
            linuxhost::CpuArch::AmdEpyc73F3,
            nethw::NicModel::ConnectX7,
            KernelVersion::L5_15,
        );
        let mut rng = SimRng::seed_from_u64(7);
        let h = SimHost::new(&cfg, 16, &mut rng);
        let penalties: Vec<f64> = (0..16).map(|f| h.placements[f].placement_penalty).collect();
        assert!(penalties.iter().any(|&p| p > 1.0), "some flows must be penalised");
        let spread = penalties.iter().cloned().fold(f64::MIN, f64::max)
            / penalties.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 1.2, "placement variance should be visible, spread {spread:.2}");
    }

    #[test]
    fn nic_serialisation_spaces_bursts() {
        let mut h = host(1);
        let b = Bytes::kib(64);
        let t1 = h.nic_transmit(SimTime::ZERO, b);
        let t2 = h.nic_transmit(SimTime::ZERO, b);
        let one = h.nic_rate().serialize_time(b).as_nanos();
        assert_eq!(t1.as_nanos(), one);
        assert_eq!(t2.as_nanos(), 2 * one);
    }

    #[test]
    fn fabric_is_shared_across_flows() {
        let mut h = host(2);
        let svc = SimDuration::from_micros(5);
        let t1 = h.serve_fabric(SimTime::ZERO, svc, Stage::FabricTx);
        let t2 = h.serve_fabric(SimTime::ZERO, svc, Stage::FabricTx);
        assert!(t2 > t1, "fabric must serialise");
    }

    #[test]
    fn cpu_report_reflects_service() {
        let mut h = host(1);
        let start = busy(&h);
        h.serve_app(0, SimTime::ZERO, SimDuration::from_millis(500), Stage::TxApp);
        h.serve_irq(0, SimTime::ZERO, SimDuration::from_millis(250), Stage::TxSoftirq);
        let r = h.cpu_report(&start, &busy(&h), SimTime::ZERO, SimTime::from_secs_f64(1.0));
        assert!((r.app_pct - 50.0).abs() < 1e-6);
        assert!((r.irq_pct - 25.0).abs() < 1e-6);
    }

    #[test]
    fn cpu_report_subtracts_warmup() {
        let mut h = host(1);
        h.serve_app(0, SimTime::ZERO, SimDuration::from_millis(100), Stage::TxApp);
        let snap = busy(&h);
        h.serve_app(0, SimTime::from_secs_f64(1.0), SimDuration::from_millis(300), Stage::TxApp);
        let r = h.cpu_report(
            &snap,
            &busy(&h),
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(2.0),
        );
        assert!((r.app_pct - 30.0).abs() < 1e-6, "got {}", r.app_pct);
    }

    #[test]
    fn ledger_tracks_stage_and_busy_excludes_fabric() {
        let mut h = host(1);
        h.serve_app(0, SimTime::ZERO, SimDuration::from_micros(10), Stage::TxApp);
        h.serve_app(0, SimTime::ZERO, SimDuration::from_micros(4), Stage::Checksum);
        h.serve_irq(0, SimTime::ZERO, SimDuration::from_micros(6), Stage::TxSoftirq);
        h.charge_irq(0, SimDuration::from_micros(1), Stage::Ack);
        h.serve_fabric(SimTime::ZERO, SimDuration::from_micros(3), Stage::FabricTx);
        let ledger = h.ledger();
        // Stage cells land where they were charged.
        assert_eq!(ledger.busy(0, Stage::TxApp.index()), SimDuration::from_micros(10));
        assert_eq!(ledger.busy(0, Stage::Checksum.index()), SimDuration::from_micros(4));
        let irq_core = h.app_core_count();
        assert_eq!(ledger.busy(irq_core, Stage::TxSoftirq.index()), SimDuration::from_micros(6));
        assert_eq!(ledger.busy(irq_core, Stage::Ack.index()), SimDuration::from_micros(1));
        // Fabric books on the pseudo-core past all CPU cores.
        let fabric = h.app_core_count() + h.irq_core_count();
        assert_eq!(ledger.busy(fabric, Stage::FabricTx.index()), SimDuration::from_micros(3));
        // The mpstat read-out is the ledger's per-core totals over the
        // real cores only.
        let busy = busy(&h);
        assert_eq!(busy.len(), fabric);
        for (core, total) in busy.iter().enumerate() {
            assert_eq!(ledger.core_total(core), *total, "core {core}");
        }
        assert_eq!(busy[0], SimDuration::from_micros(14));
        assert_eq!(busy[irq_core], SimDuration::from_micros(7));
        assert_eq!(h.core_role(0), "app0");
        assert_eq!(h.core_role(irq_core), "irq0");
        assert_eq!(h.core_role(fabric), "fabric");
    }

    #[test]
    fn ring_size_comes_from_config() {
        let h = host(1);
        // ESnet preset: 8192 descriptors × 9000 B.
        assert_eq!(h.ring.capacity().as_u64(), 8192 * 9000);
    }
}
