//! Per-core, per-stage busy-time ledger for bottleneck attribution.
//!
//! A [`CycleLedger`] is a flat `cores × stages` matrix of accumulated
//! busy time. It is the substrate of the simulator's `perf`-style
//! profiles: every service call an instrumented host executes charges
//! `(core, stage)` here, and the attribution layer later reads the
//! matrix back as per-interval deltas or whole-run profiles.
//!
//! The ledger is unit-neutral on purpose: it stores [`SimDuration`]s,
//! not cycles, because the clock rate is a property of the host model,
//! not of the accounting. Callers that want cycle counts multiply by
//! their own clock. Likewise it knows nothing about what a "stage" is —
//! stage indices are dense `usize`s supplied by the instrumenting
//! layer, keeping this crate free of TCP/Linux vocabulary.

use crate::time::SimDuration;

/// A `cores × stages` matrix of accumulated busy time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleLedger {
    num_cores: usize,
    num_stages: usize,
    /// Row-major: `busy[core * num_stages + stage]`.
    busy: Vec<SimDuration>,
}

impl CycleLedger {
    /// An all-zero ledger for `num_cores × num_stages` cells.
    pub fn new(num_cores: usize, num_stages: usize) -> Self {
        CycleLedger { num_cores, num_stages, busy: vec![SimDuration::ZERO; num_cores * num_stages] }
    }

    /// Number of cores tracked.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Charge `dur` of busy time to `(core, stage)`.
    pub fn charge(&mut self, core: usize, stage: usize, dur: SimDuration) {
        self.busy[core * self.num_stages + stage] += dur;
    }

    /// Accumulated busy time of one `(core, stage)` cell.
    pub fn busy(&self, core: usize, stage: usize) -> SimDuration {
        self.busy[core * self.num_stages + stage]
    }

    /// Total busy time on one core across all stages.
    pub fn core_total(&self, core: usize) -> SimDuration {
        let base = core * self.num_stages;
        self.busy[base..base + self.num_stages]
            .iter()
            .fold(SimDuration::ZERO, |acc, d| acc + *d)
    }

    /// One core's per-stage busy row, cloned.
    pub fn core_row(&self, core: usize) -> Vec<SimDuration> {
        let base = core * self.num_stages;
        self.busy[base..base + self.num_stages].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_totals() {
        let mut l = CycleLedger::new(3, 2);
        l.charge(0, 0, SimDuration::from_micros(10));
        l.charge(0, 1, SimDuration::from_micros(5));
        l.charge(2, 1, SimDuration::from_micros(7));
        assert_eq!(l.busy(0, 0), SimDuration::from_micros(10));
        assert_eq!(l.busy(1, 0), SimDuration::ZERO);
        assert_eq!(l.core_total(0), SimDuration::from_micros(15));
        assert_eq!(l.core_total(1), SimDuration::ZERO);
        assert_eq!(l.core_total(2), SimDuration::from_micros(7));
    }

    #[test]
    fn accumulation_is_additive() {
        let mut l = CycleLedger::new(1, 1);
        for _ in 0..100 {
            l.charge(0, 0, SimDuration::from_nanos(3));
        }
        assert_eq!(l.busy(0, 0), SimDuration::from_nanos(300));
    }

    #[test]
    fn core_row_matches_cells() {
        let mut l = CycleLedger::new(2, 3);
        l.charge(1, 0, SimDuration::from_nanos(1));
        l.charge(1, 2, SimDuration::from_nanos(9));
        assert_eq!(
            l.core_row(1),
            vec![
                SimDuration::from_nanos(1),
                SimDuration::ZERO,
                SimDuration::from_nanos(9)
            ]
        );
    }
}
