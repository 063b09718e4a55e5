//! A minimal timing harness for the `harness = false` bench targets.
//!
//! Mirrors the familiar bench output shape — warm-up, N timed
//! iterations, `name  time: [min mean max]` lines — without any
//! external dependency. Wall-clock only; good enough to catch the
//! order-of-magnitude regressions these targets exist for.

use std::time::{Duration, Instant};

/// Timing for one bench target.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Target name.
    pub name: String,
    /// Timed iterations.
    pub iters: u32,
    /// Fastest iteration.
    pub min: Duration,
    /// Mean iteration.
    pub mean: Duration,
    /// Slowest iteration.
    pub max: Duration,
}

impl BenchReport {
    /// The standard one-line rendering.
    pub fn render(&self) -> String {
        format!(
            "{:<32} time: [{} {} {}]  ({} iters)",
            self.name,
            fmt_duration(self.min),
            fmt_duration(self.mean),
            fmt_duration(self.max),
            self.iters
        )
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

/// A group of bench targets sharing warm-up/iteration settings.
pub struct BenchGroup {
    name: &'static str,
    warmup: u32,
    iters: u32,
    reports: Vec<BenchReport>,
}

impl BenchGroup {
    /// New group: `warmup` untimed iterations, then `iters` timed ones
    /// per target.
    pub fn new(name: &'static str, warmup: u32, iters: u32) -> Self {
        assert!(iters > 0, "need at least one timed iteration");
        println!("group {name}: {warmup} warm-up + {iters} timed iterations per target");
        BenchGroup { name, warmup, iters, reports: Vec::new() }
    }

    /// Run one target. The closure's return value is consumed through
    /// a volatile-ish sink (`std::hint::black_box`) so the work cannot
    /// be optimised away.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &BenchReport {
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut min = Duration::MAX;
        let mut max = Duration::ZERO;
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let start = Instant::now();
            std::hint::black_box(f());
            let dt = start.elapsed();
            min = min.min(dt);
            max = max.max(dt);
            total += dt;
        }
        let report = BenchReport {
            name: format!("{}/{name}", self.name),
            iters: self.iters,
            min,
            mean: total / self.iters,
            max,
        };
        println!("{}", report.render());
        self.reports.push(report);
        self.reports.last().expect("just pushed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_loop_runs_warmup_plus_iters() {
        let mut calls = 0u32;
        let mut g = BenchGroup::new("t", 2, 3);
        g.bench("count", || calls += 1);
        assert_eq!(calls, 5);
        let r = &g.reports[0];
        assert_eq!(r.iters, 3);
        assert!(r.min <= r.mean && r.mean <= r.max);
        assert!(r.name.contains("t/count"));
    }

    #[test]
    fn durations_render_with_sane_units() {
        assert!(fmt_duration(Duration::from_nanos(12)).contains("ns"));
        assert!(fmt_duration(Duration::from_micros(12)).contains("µs"));
        assert!(fmt_duration(Duration::from_millis(12)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with(" s"));
    }
}
