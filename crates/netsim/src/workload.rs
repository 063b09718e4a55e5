//! Fleet workload profiles: arrival processes, flow-size
//! distributions, and the per-flow mix.
//!
//! A [`FleetProfile`] describes production-shaped traffic declaratively
//! — flows *arrive* (Poisson or 2-state MMPP, optionally modulated by a
//! diurnal cycle), draw a heavy-tailed size (log-normal or bounded
//! Pareto) and a [`FleetClass`] (path RTT, bottleneck rate and buffer,
//! congestion controller, pacing), then open, transfer, and close
//! inside one simulation (see [`crate::FleetSim`]).
//!
//! Determinism contract: every random draw is derived from the
//! profile's canonical fingerprint via [`simcore::derive_seed`].
//! Arrivals use stream 0 (they are sampled sequentially in simulated
//! time); each flow's size/class draw uses stream `1 + flow_id`, so a
//! flow's identity is position-independent — re-ordering completions,
//! changing `REPRO_JOBS`, or adding observers cannot change what flow
//! `k` is.

use simcore::{derive_seed, BitRate, Bytes, Canon, Canonicalize, SimDuration, SimRng};
use tcpstack::CcAlgorithm;

/// How flow arrivals are spaced in time.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate (flows per second).
    Poisson {
        /// Mean arrival rate in flows per second.
        rate_per_sec: f64,
    },
    /// 2-state Markov-modulated Poisson process: exponential sojourns
    /// alternate between a calm and a burst rate — the incast /
    /// many-short-flow shape of the datacenter TCP-parameter study
    /// (arXiv:1905.01194).
    Mmpp2 {
        /// Arrival rate (flows/s) in the calm state.
        calm_rate: f64,
        /// Arrival rate (flows/s) in the burst state.
        burst_rate: f64,
        /// Mean sojourn in the calm state, seconds.
        mean_calm_secs: f64,
        /// Mean sojourn in the burst state, seconds.
        mean_burst_secs: f64,
    },
}

impl ArrivalProcess {
    /// The long-run mean arrival rate in flows per second.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Mmpp2 { calm_rate, burst_rate, mean_calm_secs, mean_burst_secs } => {
                let total = mean_calm_secs + mean_burst_secs;
                (calm_rate * mean_calm_secs + burst_rate * mean_burst_secs) / total
            }
        }
    }
}

/// Flow-size distribution, in bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeDist {
    /// Log-normal: `median · exp(σ·Z)` — the classic heavy-but-not-
    /// power-law tail of WAN transfer sizes.
    LogNormal {
        /// Median transfer size in bytes (`exp(μ)`).
        median_bytes: f64,
        /// Shape σ of the underlying normal.
        sigma: f64,
    },
    /// Bounded Pareto on `[min, max]` with tail index `alpha` — the
    /// mice-and-elephants mix of datacenter flow traces.
    BoundedPareto {
        /// Tail index α (smaller = heavier tail). Must be positive.
        alpha: f64,
        /// Smallest possible flow, bytes.
        min_bytes: u64,
        /// Largest possible flow, bytes.
        max_bytes: u64,
    },
}

/// Sinusoidal rate modulation: the arrival rate is multiplied by
/// `1 + amplitude · sin(2πt / period)`, the day/night swing of a
/// production fleet compressed to simulation scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diurnal {
    /// Peak-to-mean swing in `[0, 1)`.
    pub amplitude: f64,
    /// Cycle period in seconds of simulated time.
    pub period_secs: f64,
}

/// One entry of the per-flow mix: the path and host profile a flow
/// draws when it opens.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetClass {
    /// Display name ("wan-cubic-paced", "incast-leaf", …).
    pub name: String,
    /// Relative draw weight (flows pick a class ∝ weight).
    pub weight: u32,
    /// Congestion controller for flows of this class.
    pub cc: CcAlgorithm,
    /// Whether flows of this class pace bursts at the bottleneck rate
    /// (fq with a matched rate) instead of dumping the whole window.
    pub pacing: bool,
    /// Path round-trip time.
    pub rtt: SimDuration,
    /// Shared bottleneck rate for the class.
    pub bottleneck: BitRate,
    /// Bottleneck queue capacity (tail-drop beyond it).
    pub buffer: Bytes,
}

impl Canonicalize for FleetClass {
    fn canonicalize(&self, c: &mut Canon) {
        c.put_str("name", &self.name);
        c.put_u64("weight", self.weight as u64);
        c.put_str("cc", self.cc.name());
        c.put_bool("pacing", self.pacing);
        c.put_u64("rtt_ns", self.rtt.as_nanos());
        c.put_f64("bottleneck_gbps", self.bottleneck.as_gbps());
        c.put_u64("buffer_bytes", self.buffer.as_u64());
    }
}

/// A declarative fleet workload: arrivals, sizes, mix, and horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetProfile {
    /// Profile name (labels results and interval series).
    pub name: String,
    /// Flow arrival process.
    pub arrivals: ArrivalProcess,
    /// Flow size distribution.
    pub sizes: SizeDist,
    /// Optional diurnal rate modulation.
    pub diurnal: Option<Diurnal>,
    /// Arrival horizon: no new flows open after this; existing flows
    /// drain to completion.
    pub duration: SimDuration,
    /// The per-flow mix (at least one class).
    pub classes: Vec<FleetClass>,
    /// Base seed, combined with the profile fingerprint.
    pub seed: u64,
    /// Hard cap on opened flows (bounds runaway rates); `u64::MAX` by
    /// default.
    pub max_flows: u64,
    /// Transfer granularity (GSO burst); flow sizes round up to it.
    pub burst: Bytes,
    /// Width of the streaming FCT/goodput aggregation intervals.
    pub interval_width: SimDuration,
}

impl FleetProfile {
    /// A profile with sensible defaults: one class must still be added.
    pub fn new(name: impl Into<String>, arrivals: ArrivalProcess, sizes: SizeDist) -> Self {
        FleetProfile {
            name: name.into(),
            arrivals,
            sizes,
            diurnal: None,
            duration: SimDuration::from_secs(10),
            classes: Vec::new(),
            seed: 0,
            max_flows: u64::MAX,
            burst: Bytes::kib(64),
            interval_width: SimDuration::from_secs(1),
        }
    }

    /// Validation problems, in the `SimConfig::validate` style; empty
    /// means runnable.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        match self.arrivals {
            ArrivalProcess::Poisson { rate_per_sec } => {
                if !(rate_per_sec > 0.0 && rate_per_sec.is_finite()) {
                    problems.push(format!("poisson rate must be positive, got {rate_per_sec}"));
                }
            }
            ArrivalProcess::Mmpp2 { calm_rate, burst_rate, mean_calm_secs, mean_burst_secs } => {
                if !(calm_rate >= 0.0 && burst_rate > 0.0) {
                    problems.push("mmpp rates must be non-negative (burst positive)".into());
                }
                if !(mean_calm_secs > 0.0 && mean_burst_secs > 0.0) {
                    problems.push("mmpp mean sojourns must be positive".into());
                }
            }
        }
        match self.sizes {
            SizeDist::LogNormal { median_bytes, sigma } => {
                if !(median_bytes >= 1.0 && sigma >= 0.0) {
                    problems.push("log-normal needs median >= 1 byte and sigma >= 0".into());
                }
            }
            SizeDist::BoundedPareto { alpha, min_bytes, max_bytes } => {
                if !alpha.is_finite() || alpha <= 0.0 {
                    problems.push(format!("pareto alpha must be positive, got {alpha}"));
                }
                if min_bytes == 0 || min_bytes > max_bytes {
                    problems.push(format!(
                        "pareto bounds must satisfy 0 < min <= max, got [{min_bytes}, {max_bytes}]"
                    ));
                }
            }
        }
        if let Some(d) = self.diurnal {
            if !(0.0..1.0).contains(&d.amplitude) || !d.period_secs.is_finite() || d.period_secs <= 0.0 {
                problems.push("diurnal needs amplitude in [0,1) and a positive period".into());
            }
        }
        if self.classes.is_empty() {
            problems.push("fleet profile needs at least one class".into());
        }
        if self.classes.iter().all(|c| c.weight == 0) && !self.classes.is_empty() {
            problems.push("at least one class weight must be positive".into());
        }
        for class in &self.classes {
            let what = format!("class '{}' bottleneck", class.name);
            problems.extend(class.bottleneck.check_positive_finite(&what));
            if class.buffer < self.burst {
                problems.push(format!(
                    "class '{}' buffer smaller than one burst ({} < {})",
                    class.name,
                    class.buffer.as_u64(),
                    self.burst.as_u64()
                ));
            }
        }
        if self.duration.is_zero() {
            problems.push("fleet duration must be positive".into());
        }
        if self.max_flows == 0 {
            problems.push("max_flows must be positive".into());
        }
        if self.burst.is_zero() {
            problems.push("burst size must be positive".into());
        }
        problems
    }

    /// The canonical fingerprint (seed and cache identity).
    pub fn fingerprint(&self) -> u64 {
        let mut c = Canon::new();
        self.canonicalize(&mut c);
        c.fingerprint()
    }

    /// Deterministic per-flow draw: class index and size in bursts.
    /// Depends only on (profile, flow_id) — never on arrival order.
    pub fn draw_flow(&self, fingerprint: u64, flow_id: u64) -> FlowDraw {
        let mut rng = SimRng::seed_from_u64(derive_seed(fingerprint, self.seed, 1 + flow_id));
        let total: u64 = self.classes.iter().map(|c| c.weight as u64).sum();
        let mut pick = rng.uniform_u64(0, total.max(1));
        let mut class = 0;
        for (i, c) in self.classes.iter().enumerate() {
            if pick < c.weight as u64 {
                class = i;
                break;
            }
            pick -= c.weight as u64;
        }
        let size_bytes = sample_size(&self.sizes, &mut rng);
        let bursts = size_bytes.div_ceil(self.burst.as_u64()).max(1);
        FlowDraw { class, size_bytes, bursts }
    }
}

impl Canonicalize for FleetProfile {
    fn canonicalize(&self, c: &mut Canon) {
        c.put_str("name", &self.name);
        match self.arrivals {
            ArrivalProcess::Poisson { rate_per_sec } => c.scope("arrivals", |c| {
                c.put_str("kind", "poisson");
                c.put_f64("rate_per_sec", rate_per_sec);
            }),
            ArrivalProcess::Mmpp2 { calm_rate, burst_rate, mean_calm_secs, mean_burst_secs } => {
                c.scope("arrivals", |c| {
                    c.put_str("kind", "mmpp2");
                    c.put_f64("calm_rate", calm_rate);
                    c.put_f64("burst_rate", burst_rate);
                    c.put_f64("mean_calm_secs", mean_calm_secs);
                    c.put_f64("mean_burst_secs", mean_burst_secs);
                })
            }
        }
        match self.sizes {
            SizeDist::LogNormal { median_bytes, sigma } => c.scope("sizes", |c| {
                c.put_str("kind", "lognormal");
                c.put_f64("median_bytes", median_bytes);
                c.put_f64("sigma", sigma);
            }),
            SizeDist::BoundedPareto { alpha, min_bytes, max_bytes } => c.scope("sizes", |c| {
                c.put_str("kind", "bounded_pareto");
                c.put_f64("alpha", alpha);
                c.put_u64("min_bytes", min_bytes);
                c.put_u64("max_bytes", max_bytes);
            }),
        }
        match self.diurnal {
            None => c.put_str("diurnal", "none"),
            Some(d) => c.scope("diurnal", |c| {
                c.put_f64("amplitude", d.amplitude);
                c.put_f64("period_secs", d.period_secs);
            }),
        }
        c.put_u64("duration_ns", self.duration.as_nanos());
        let classes: Vec<&dyn Canonicalize> =
            self.classes.iter().map(|x| x as &dyn Canonicalize).collect();
        c.put_seq("classes", &classes);
        c.put_u64("seed", self.seed);
        c.put_u64("max_flows", self.max_flows);
        c.put_u64("burst_bytes", self.burst.as_u64());
        c.put_u64("interval_width_ns", self.interval_width.as_nanos());
    }
}

/// The deterministic identity of one flow: which class it belongs to
/// and how much it transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowDraw {
    /// Index into [`FleetProfile::classes`].
    pub class: usize,
    /// Sampled size in bytes (before burst rounding).
    pub size_bytes: u64,
    /// Size in whole bursts (`ceil(size / burst)`, at least 1).
    pub bursts: u64,
}

/// Sample one flow size in bytes.
pub fn sample_size(dist: &SizeDist, rng: &mut SimRng) -> u64 {
    match *dist {
        SizeDist::LogNormal { median_bytes, sigma } => {
            let z = standard_normal(rng);
            let v = median_bytes * (sigma * z).exp();
            // Clamp to a petabyte so a wild σ cannot overflow byte math.
            v.clamp(1.0, 1e15) as u64
        }
        SizeDist::BoundedPareto { alpha, min_bytes, max_bytes } => {
            if min_bytes == max_bytes {
                return min_bytes;
            }
            // Inverse-CDF of the bounded Pareto on [min, max].
            let u = rng.uniform(0.0, 1.0);
            let (lo, hi) = (min_bytes as f64, max_bytes as f64);
            let la = lo.powf(-alpha);
            let ha = hi.powf(-alpha);
            let x = (la - u * (la - ha)).powf(-1.0 / alpha);
            (x.clamp(lo, hi)) as u64
        }
    }
}

/// A standard normal via Box–Muller (two uniform draws per value; the
/// unused sine half is discarded to keep the draw count per sample
/// fixed, which the determinism contract prefers over caching).
fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = rng.uniform(0.0, 1.0).max(f64::EPSILON);
    let u2 = rng.uniform(0.0, 1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Sequential arrival-time sampler for a profile's process + diurnal
/// modulation. Draws are thinned against the per-state peak rate, so
/// the accepted stream has exactly the modulated intensity.
#[derive(Debug, Clone)]
pub struct ArrivalSampler {
    rng: SimRng,
    process: ArrivalProcess,
    diurnal: Option<Diurnal>,
    /// MMPP2 state: currently in the burst state?
    in_burst: bool,
    /// Absolute end of the current MMPP sojourn, seconds.
    sojourn_end_secs: f64,
}

impl ArrivalSampler {
    /// A sampler seeded from the profile fingerprint (stream 0).
    pub fn new(profile: &FleetProfile, fingerprint: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(derive_seed(fingerprint, profile.seed, 0));
        let (in_burst, sojourn_end_secs) = match profile.arrivals {
            ArrivalProcess::Poisson { .. } => (false, f64::INFINITY),
            ArrivalProcess::Mmpp2 { mean_calm_secs, .. } => {
                (false, rng.exponential(mean_calm_secs))
            }
        };
        ArrivalSampler {
            rng,
            process: profile.arrivals.clone(),
            diurnal: profile.diurnal,
            in_burst,
            sojourn_end_secs,
        }
    }

    /// Current state's base rate (flows/s).
    fn state_rate(&self) -> f64 {
        match self.process {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Mmpp2 { calm_rate, burst_rate, .. } => {
                if self.in_burst {
                    burst_rate
                } else {
                    calm_rate
                }
            }
        }
    }

    /// The diurnal multiplier at absolute time `t` seconds.
    fn diurnal_factor(&self, t: f64) -> f64 {
        match self.diurnal {
            None => 1.0,
            Some(d) => 1.0 + d.amplitude * (std::f64::consts::TAU * t / d.period_secs).sin(),
        }
    }

    /// The next arrival strictly after `now_secs`, in absolute seconds.
    pub fn next_arrival(&mut self, now_secs: f64) -> f64 {
        let mut t = now_secs;
        loop {
            // Peak intensity over the current state: thinning envelope.
            let peak = self.state_rate() * (1.0 + self.diurnal.map_or(0.0, |d| d.amplitude));
            if peak <= 0.0 {
                // Calm state with zero rate: jump to the state switch.
                t = self.sojourn_end_secs;
                self.switch_state(t);
                continue;
            }
            let cand = t + self.rng.exponential(1.0 / peak);
            if cand >= self.sojourn_end_secs {
                // The sojourn ended first: advance to the switch point
                // and re-draw from the new state (memorylessness makes
                // the discard exact, not an approximation).
                t = self.sojourn_end_secs;
                self.switch_state(t);
                continue;
            }
            t = cand;
            let actual = self.state_rate() * self.diurnal_factor(t);
            if self.rng.chance((actual / peak).clamp(0.0, 1.0)) {
                return t;
            }
        }
    }

    /// Flip the MMPP state at absolute time `t` and draw the next
    /// sojourn.
    fn switch_state(&mut self, t: f64) {
        if let ArrivalProcess::Mmpp2 { mean_calm_secs, mean_burst_secs, .. } = self.process {
            self.in_burst = !self.in_burst;
            let mean = if self.in_burst { mean_burst_secs } else { mean_calm_secs };
            self.sojourn_end_secs = t + self.rng.exponential(mean);
        } else {
            self.sojourn_end_secs = f64::INFINITY;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_class() -> FleetClass {
        FleetClass {
            name: "wan".into(),
            weight: 1,
            cc: CcAlgorithm::Cubic,
            pacing: true,
            rtt: SimDuration::from_millis(20),
            bottleneck: BitRate::gbps(10.0),
            buffer: Bytes::mib(4),
        }
    }

    fn profile(arrivals: ArrivalProcess, sizes: SizeDist) -> FleetProfile {
        let mut p = FleetProfile::new("test", arrivals, sizes);
        p.classes.push(one_class());
        p
    }

    fn mean_cv(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var.sqrt() / mean)
    }

    #[test]
    fn poisson_interarrivals_have_unit_cv_and_right_mean() {
        let p = profile(
            ArrivalProcess::Poisson { rate_per_sec: 100.0 },
            SizeDist::LogNormal { median_bytes: 1e6, sigma: 1.0 },
        );
        let fp = p.fingerprint();
        let mut s = ArrivalSampler::new(&p, fp);
        let mut t = 0.0;
        let gaps: Vec<f64> = (0..50_000)
            .map(|_| {
                let next = s.next_arrival(t);
                let gap = next - t;
                t = next;
                gap
            })
            .collect();
        let (mean, cv) = mean_cv(&gaps);
        assert!((mean - 0.01).abs() < 0.0005, "mean gap {mean} != 1/λ");
        assert!((cv - 1.0).abs() < 0.05, "exponential gaps have CV 1, got {cv}");
    }

    #[test]
    fn mmpp2_is_burstier_than_poisson_with_matching_mean() {
        let arr = ArrivalProcess::Mmpp2 {
            calm_rate: 20.0,
            burst_rate: 2000.0,
            mean_calm_secs: 0.5,
            mean_burst_secs: 0.05,
        };
        let mean_rate = arr.mean_rate();
        let p = profile(arr, SizeDist::LogNormal { median_bytes: 1e6, sigma: 1.0 });
        let fp = p.fingerprint();
        let mut s = ArrivalSampler::new(&p, fp);
        let mut t = 0.0;
        let gaps: Vec<f64> = (0..200_000)
            .map(|_| {
                let next = s.next_arrival(t);
                let gap = next - t;
                t = next;
                gap
            })
            .collect();
        let (mean, cv) = mean_cv(&gaps);
        // Tolerance is dominated by how many calm/burst sojourn cycles
        // the window happens to contain, not by the arrival count.
        assert!(
            (mean - 1.0 / mean_rate).abs() / (1.0 / mean_rate) < 0.15,
            "MMPP mean gap {mean} vs expected {}",
            1.0 / mean_rate
        );
        assert!(cv > 1.3, "MMPP inter-arrivals must be burstier than Poisson, CV {cv}");
    }

    #[test]
    fn lognormal_sizes_match_median_and_mean() {
        let mut rng = SimRng::seed_from_u64(7);
        let dist = SizeDist::LogNormal { median_bytes: 1_000_000.0, sigma: 1.5 };
        let mut sizes: Vec<f64> =
            (0..50_000).map(|_| sample_size(&dist, &mut rng) as f64).collect();
        sizes.sort_by(|a, b| a.partial_cmp(b).expect("sizes are finite"));
        let median = sizes[sizes.len() / 2];
        assert!(
            (median - 1e6).abs() / 1e6 < 0.05,
            "empirical median {median} vs 1e6"
        );
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        let expected_mean = 1e6 * (1.5f64 * 1.5 / 2.0).exp();
        assert!(
            (mean - expected_mean).abs() / expected_mean < 0.15,
            "empirical mean {mean} vs {expected_mean}"
        );
    }

    #[test]
    fn bounded_pareto_respects_bounds_and_mean() {
        let mut rng = SimRng::seed_from_u64(11);
        let (alpha, lo, hi) = (1.3f64, 32_768u64, 8_388_608u64);
        let dist = SizeDist::BoundedPareto { alpha, min_bytes: lo, max_bytes: hi };
        let samples: Vec<u64> = (0..50_000).map(|_| sample_size(&dist, &mut rng)).collect();
        assert!(samples.iter().all(|&s| (lo..=hi).contains(&s)));
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        // Analytic mean of the bounded Pareto (α ≠ 1).
        let (l, h) = (lo as f64, hi as f64);
        let expected = l.powf(alpha) / (1.0 - (l / h).powf(alpha))
            * (alpha / (alpha - 1.0))
            * (1.0 / l.powf(alpha - 1.0) - 1.0 / h.powf(alpha - 1.0));
        assert!(
            (mean - expected).abs() / expected < 0.1,
            "empirical mean {mean} vs analytic {expected}"
        );
    }

    #[test]
    fn diurnal_modulation_shifts_arrival_mass() {
        let mut p = profile(
            ArrivalProcess::Poisson { rate_per_sec: 1000.0 },
            SizeDist::LogNormal { median_bytes: 1e6, sigma: 1.0 },
        );
        p.diurnal = Some(Diurnal { amplitude: 0.8, period_secs: 2.0 });
        let fp = p.fingerprint();
        let mut s = ArrivalSampler::new(&p, fp);
        let (mut peak, mut trough) = (0u64, 0u64);
        let mut t = 0.0;
        while t < 20.0 {
            t = s.next_arrival(t);
            // sin > 0 on the first half of each period (peak), < 0 on
            // the second (trough).
            if (t % 2.0) < 1.0 {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > trough as f64 * 2.0,
            "diurnal peak half must dominate: {peak} vs {trough}"
        );
    }

    #[test]
    fn flow_draws_are_position_independent_and_weighted() {
        let mut p = profile(
            ArrivalProcess::Poisson { rate_per_sec: 10.0 },
            SizeDist::BoundedPareto { alpha: 1.2, min_bytes: 65_536, max_bytes: 1 << 24 },
        );
        p.classes.push(FleetClass { name: "lan".into(), weight: 3, ..one_class() });
        let fp = p.fingerprint();
        // Drawing flow 5 before or after flow 900 gives identical results.
        let a = p.draw_flow(fp, 5);
        let _ = p.draw_flow(fp, 900);
        let b = p.draw_flow(fp, 5);
        assert_eq!(a, b, "draws must depend only on (profile, flow_id)");
        // Weighted mix: class 1 (weight 3) gets ~3x the flows of class 0.
        let mut counts = [0u64; 2];
        for id in 0..20_000 {
            counts[p.draw_flow(fp, id).class] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "weight ratio {ratio} != 3");
    }

    #[test]
    fn validation_catches_bad_profiles() {
        let mut p = profile(
            ArrivalProcess::Poisson { rate_per_sec: 0.0 },
            SizeDist::BoundedPareto { alpha: 0.0, min_bytes: 10, max_bytes: 5 },
        );
        p.classes.clear();
        let problems = p.validate();
        assert!(problems.len() >= 3, "expected several problems, got {problems:?}");
        let good = profile(
            ArrivalProcess::Poisson { rate_per_sec: 10.0 },
            SizeDist::LogNormal { median_bytes: 1e6, sigma: 1.0 },
        );
        assert!(good.validate().is_empty());
    }

    #[test]
    fn fingerprint_distinguishes_profiles() {
        let a = profile(
            ArrivalProcess::Poisson { rate_per_sec: 10.0 },
            SizeDist::LogNormal { median_bytes: 1e6, sigma: 1.0 },
        );
        let mut b = a.clone();
        b.seed = 1;
        let mut c = a.clone();
        c.classes[0].pacing = false;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }
}
