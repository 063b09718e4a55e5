//! Per-core CPU utilisation, reported like `mpstat`.
//!
//! The paper's harness runs `mpstat` alongside iperf3 and aggregates
//! "TX/RX Cores": the utilisation of the cores used by the benchmark
//! tool plus those handling NIC interrupts — a value that can exceed
//! 100 % (Figs. 7–9).

use simcore::{SimDuration, SimTime};
use std::fmt;

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
    /// The report over the window `[start, end)`, from two per-core
    /// busy-time vectors read at its two ends. Cores `0..n_app` run
    /// the application and the rest handle IRQs.
    pub fn between(
        n_app: usize,
        at_start: &[SimDuration],
        at_end: &[SimDuration],
        start: SimTime,
        end: SimTime,
    ) -> CpuReport {
        let elapsed = end.saturating_since(start);
        let mut app_pct = 0.0;
        let mut irq_pct = 0.0;
        let mut per_core = Vec::with_capacity(at_end.len());
        let mut peak = 0.0f64;
        for (idx, (now, mark)) in at_end.iter().zip(at_start).enumerate() {
            let u = if elapsed.is_zero() {
                0.0
            } else {
                100.0 * now.saturating_sub(*mark).as_secs_f64() / elapsed.as_secs_f64()
            };
            per_core.push(u);
            peak = peak.max(u);
            if idx < n_app {
                app_pct += u;
            } else {
                irq_pct += u;
            }
        }
        CpuReport { per_core, app_pct, irq_pct, peak_core_pct: peak }
    }

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

    fn ms(v: &[u64]) -> Vec<SimDuration> {
        v.iter().map(|&m| SimDuration::from_millis(m)).collect()
    }

    fn one_second(busy: &[u64]) -> CpuReport {
        let zero = vec![SimDuration::ZERO; busy.len()];
        CpuReport::between(1, &zero, &ms(busy), SimTime::ZERO, SimTime::from_secs_f64(1.0))
    }

    #[test]
    fn utilisation_math() {
        let r = one_second(&[500, 250]);
        assert!((r.per_core[0] - 50.0).abs() < 1e-9);
        assert!((r.per_core[1] - 25.0).abs() < 1e-9);
        assert!((r.app_pct - 50.0).abs() < 1e-9);
        assert!((r.irq_pct - 25.0).abs() < 1e-9);
        assert!((r.combined_pct() - 75.0).abs() < 1e-9);
        assert!((r.peak_core_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn combined_can_exceed_100() {
        let r = one_second(&[990, 800]);
        assert!(r.combined_pct() > 150.0);
        assert!((r.peak_core_pct - 99.0).abs() < 1e-9);
    }

    #[test]
    fn zero_window_is_safe() {
        let r = CpuReport::between(1, &ms(&[0]), &ms(&[10]), SimTime::ZERO, SimTime::ZERO);
        assert_eq!(r.app_pct, 0.0);
        assert_eq!(r.per_core, vec![0.0]);
        let z = CpuReport::zero(3);
        assert_eq!(z.per_core.len(), 3);
    }
}
