//! Per-core CPU accounting, reported like `mpstat`.
//!
//! The paper's harness runs `mpstat` alongside iperf3 and aggregates
//! "TX/RX Cores": the utilisation of the cores used by the benchmark
//! tool plus those handling NIC interrupts — a value that can exceed
//! 100 % (Figs. 7–9).

use simcore::{SimDuration, SimTime};
use std::fmt;

/// The role a core plays during a test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreGroup {
    /// Runs the benchmark application (iperf3 thread).
    App,
    /// Handles NIC interrupts / softirq.
    Irq,
    /// Shared between app and IRQ work (bad affinity).
    Shared,
}

/// Busy-time accounting over a set of cores.
#[derive(Debug, Clone)]
pub struct CpuAccounting {
    groups: Vec<CoreGroup>,
    busy: Vec<SimDuration>,
}

impl CpuAccounting {
    /// New accounting: one entry per core with its group label.
    pub fn new(groups: Vec<CoreGroup>) -> Self {
        let n = groups.len();
        CpuAccounting { groups, busy: vec![SimDuration::ZERO; n] }
    }

    /// Record `dur` of busy time on core `idx`.
    pub fn add_busy(&mut self, idx: usize, dur: SimDuration) {
        self.busy[idx] += dur;
    }

    /// Number of cores tracked.
    pub fn num_cores(&self) -> usize {
        self.groups.len()
    }

    /// Total busy time on one core.
    pub fn busy(&self, idx: usize) -> SimDuration {
        self.busy[idx]
    }

    /// Produce a report over the elapsed window `[start, end)`.
    pub fn report(&self, start: SimTime, end: SimTime) -> CpuReport {
        let elapsed = end.saturating_since(start);
        let util = |idx: usize| {
            if elapsed.is_zero() {
                0.0
            } else {
                100.0 * self.busy[idx].as_secs_f64() / elapsed.as_secs_f64()
            }
        };
        let mut app_pct = 0.0;
        let mut irq_pct = 0.0;
        let mut per_core = Vec::with_capacity(self.groups.len());
        let mut peak = 0.0f64;
        for (idx, group) in self.groups.iter().enumerate() {
            let u = util(idx);
            per_core.push(u);
            peak = peak.max(u);
            match group {
                CoreGroup::App => app_pct += u,
                CoreGroup::Irq => irq_pct += u,
                CoreGroup::Shared => {
                    // Attribute half to each for group totals.
                    app_pct += u / 2.0;
                    irq_pct += u / 2.0;
                }
            }
        }
        CpuReport { per_core, app_pct, irq_pct, peak_core_pct: peak }
    }
}

/// An `mpstat`-style utilisation report.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuReport {
    /// Utilisation (%) of every tracked core.
    pub per_core: Vec<f64>,
    /// Sum of application-core utilisations (%).
    pub app_pct: f64,
    /// Sum of IRQ-core utilisations (%).
    pub irq_pct: f64,
    /// Busiest single core (%): ≈100 means that side is the bottleneck.
    pub peak_core_pct: f64,
}

impl CpuReport {
    /// The paper's "TX/RX Cores" metric: app + IRQ cores together
    /// (may exceed 100 %).
    pub fn combined_pct(&self) -> f64 {
        self.app_pct + self.irq_pct
    }

    /// An all-zero report (e.g. zero-length window).
    pub fn zero(num_cores: usize) -> Self {
        CpuReport {
            per_core: vec![0.0; num_cores],
            app_pct: 0.0,
            irq_pct: 0.0,
            peak_core_pct: 0.0,
        }
    }
}

impl fmt::Display for CpuReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "app={:.0}% irq={:.0}% combined={:.0}% peak={:.0}%",
            self.app_pct,
            self.irq_pct,
            self.combined_pct(),
            self.peak_core_pct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilisation_math() {
        let mut acct = CpuAccounting::new(vec![CoreGroup::App, CoreGroup::Irq]);
        acct.add_busy(0, SimDuration::from_millis(500));
        acct.add_busy(1, SimDuration::from_millis(250));
        let r = acct.report(SimTime::ZERO, SimTime::from_secs_f64(1.0));
        assert!((r.per_core[0] - 50.0).abs() < 1e-9);
        assert!((r.per_core[1] - 25.0).abs() < 1e-9);
        assert!((r.app_pct - 50.0).abs() < 1e-9);
        assert!((r.irq_pct - 25.0).abs() < 1e-9);
        assert!((r.combined_pct() - 75.0).abs() < 1e-9);
        assert!((r.peak_core_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn combined_can_exceed_100() {
        let mut acct = CpuAccounting::new(vec![CoreGroup::App, CoreGroup::Irq]);
        acct.add_busy(0, SimDuration::from_millis(990));
        acct.add_busy(1, SimDuration::from_millis(800));
        let r = acct.report(SimTime::ZERO, SimTime::from_secs_f64(1.0));
        assert!(r.combined_pct() > 150.0);
        assert!((r.peak_core_pct - 99.0).abs() < 1e-9);
    }

    #[test]
    fn shared_cores_split_between_groups() {
        let mut acct = CpuAccounting::new(vec![CoreGroup::Shared]);
        acct.add_busy(0, SimDuration::from_millis(600));
        let r = acct.report(SimTime::ZERO, SimTime::from_secs_f64(1.0));
        assert!((r.app_pct - 30.0).abs() < 1e-9);
        assert!((r.irq_pct - 30.0).abs() < 1e-9);
    }

    #[test]
    fn zero_window_is_safe() {
        let acct = CpuAccounting::new(vec![CoreGroup::App]);
        let r = acct.report(SimTime::ZERO, SimTime::ZERO);
        assert_eq!(r.app_pct, 0.0);
        let z = CpuReport::zero(3);
        assert_eq!(z.per_core.len(), 3);
    }

    #[test]
    fn accumulation_over_multiple_adds() {
        let mut acct = CpuAccounting::new(vec![CoreGroup::App]);
        for _ in 0..10 {
            acct.add_busy(0, SimDuration::from_millis(10));
        }
        assert_eq!(acct.busy(0), SimDuration::from_millis(100));
    }
}
