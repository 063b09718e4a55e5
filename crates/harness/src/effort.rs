//! Effort levels: how faithfully to reproduce the paper's 60-second,
//! ≥10-repetition methodology vs how long you're willing to wait.

/// Simulation effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Effort {
    /// CI-sized: 2 repetitions, short runs. Shapes hold; stdev columns
    /// are noisy.
    Smoke,
    /// Default: 5 repetitions, mid-length runs (WAN flows reach steady
    /// state).
    #[default]
    Standard,
    /// Paper-faithful: 10 repetitions of 60-second tests (§III-G).
    Full,
}

impl Effort {
    /// Repetitions per configuration ("run a minimum of 10 times").
    pub fn repetitions(self) -> usize {
        match self {
            Effort::Smoke => 2,
            Effort::Standard => 5,
            Effort::Full => 10,
        }
    }

    /// Duration (seconds) for single-stream LAN tests.
    pub fn lan_secs(self) -> u64 {
        match self {
            Effort::Smoke => 3,
            Effort::Standard => 8,
            Effort::Full => 60,
        }
    }

    /// Duration (seconds) for WAN tests — long enough for slow start
    /// plus CUBIC convergence at 100+ ms RTTs.
    pub fn wan_secs(self) -> u64 {
        match self {
            Effort::Smoke => 6,
            Effort::Standard => 18,
            Effort::Full => 60,
        }
    }

    /// Duration (seconds) for 8-stream tests (more events per second).
    pub fn multi_secs(self) -> u64 {
        match self {
            Effort::Smoke => 4,
            Effort::Standard => 14,
            Effort::Full => 60,
        }
    }

    /// Duration (seconds) for the many-flow `ext_scale` fan-in runs —
    /// short by design: 256 flows generate roughly 256× the events of a
    /// single stream, so paper-length tests would dominate wall-clock.
    pub fn scale_secs(self) -> u64 {
        match self {
            Effort::Smoke => 2,
            Effort::Standard => 6,
            Effort::Full => 20,
        }
    }

    /// Target flow count for the steady `ext_fleet` profile. The fleet
    /// engine holds arrival *rate* fixed and scales duration, so the
    /// per-flow statistics are comparable across efforts; Full crosses
    /// the ROADMAP item 2 bar of ≥1M flows in one simulation.
    pub fn fleet_target_flows(self) -> u64 {
        match self {
            Effort::Smoke => 60_000,
            Effort::Standard => 250_000,
            Effort::Full => 1_200_000,
        }
    }

    /// Warm-up seconds excluded from measurements (`iperf3 -O`).
    pub fn omit_secs(self, wan: bool) -> u64 {
        match self {
            Effort::Smoke => if wan { 2 } else { 0 },
            Effort::Standard => if wan { 4 } else { 1 },
            Effort::Full => if wan { 5 } else { 2 },
        }
    }

    /// Wall-clock deadline for one supervised repetition.
    /// Generous multiples of the worst observed per-rep runtime — the
    /// deadline exists to catch hangs, not to race healthy runs.
    pub fn rep_deadline(self) -> std::time::Duration {
        std::time::Duration::from_secs(match self {
            Effort::Smoke => 120,
            Effort::Standard => 300,
            Effort::Full => 1200,
        })
    }

    /// Read `REPRO_EFFORT` from the environment (`smoke` / `standard` /
    /// `full`), defaulting to [`Effort::Standard`].
    pub fn from_env() -> Self {
        match std::env::var("REPRO_EFFORT").as_deref() {
            Ok("smoke") => Effort::Smoke,
            Ok("full") => Effort::Full,
            Ok("standard") | Err(_) => Effort::Standard,
            Ok(other) => {
                eprintln!("REPRO_EFFORT='{other}' not recognized (smoke|standard|full); using standard");
                Effort::Standard
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_ladder_is_monotone() {
        let e = [Effort::Smoke, Effort::Standard, Effort::Full];
        for w in e.windows(2) {
            assert!(w[0].repetitions() <= w[1].repetitions());
            assert!(w[0].lan_secs() <= w[1].lan_secs());
            assert!(w[0].wan_secs() <= w[1].wan_secs());
            assert!(w[0].multi_secs() <= w[1].multi_secs());
            assert!(w[0].scale_secs() <= w[1].scale_secs());
            assert!(w[0].fleet_target_flows() <= w[1].fleet_target_flows());
            assert!(w[0].rep_deadline() <= w[1].rep_deadline());
        }
    }

    #[test]
    fn full_matches_paper_methodology() {
        assert_eq!(Effort::Full.repetitions(), 10);
        assert_eq!(Effort::Full.lan_secs(), 60);
        assert_eq!(Effort::Full.wan_secs(), 60);
        // ROADMAP item 2: full-effort fleet runs serve ≥1M flows.
        assert!(Effort::Full.fleet_target_flows() >= 1_000_000);
    }

    #[test]
    fn omit_shorter_than_duration() {
        for e in [Effort::Smoke, Effort::Standard, Effort::Full] {
            assert!(e.omit_secs(true) < e.wan_secs());
            assert!(e.omit_secs(false) < e.lan_secs());
        }
    }
}
