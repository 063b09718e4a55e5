//! One test configuration: hosts × path × iperf3 flags (× faults).

use iperf3sim::Iperf3Opts;
use linuxhost::HostConfig;
use nethw::PathSpec;
use netsim::FaultPlan;

/// A named, runnable test configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short label ("default", "zc+pace50", …).
    pub label: String,
    /// Sending host.
    pub client: HostConfig,
    /// Receiving host.
    pub server: HostConfig,
    /// Network between them.
    pub path: PathSpec,
    /// iperf3 flags.
    pub opts: Iperf3Opts,
    /// Faults injected into the network during the run. The tool under
    /// test does not know about these — they model the testbed
    /// misbehaving, not a flag.
    pub faults: FaultPlan,
    /// Optional watchdog event-budget override (tests use a tiny
    /// budget to provoke `SimError::Stalled`).
    pub event_budget: Option<u64>,
}

impl Scenario {
    /// Construct.
    pub fn new(
        label: impl Into<String>,
        client: HostConfig,
        server: HostConfig,
        path: PathSpec,
        opts: Iperf3Opts,
    ) -> Self {
        Scenario {
            label: label.into(),
            client,
            server,
            path,
            opts,
            faults: FaultPlan::none(),
            event_budget: None,
        }
    }

    /// Symmetric hosts (the common case on both testbeds).
    pub fn symmetric(
        label: impl Into<String>,
        host: HostConfig,
        path: PathSpec,
        opts: Iperf3Opts,
    ) -> Self {
        Scenario::new(label, host.clone(), host, path, opts)
    }

    /// Builder: attach a fault-injection schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder: override the watchdog's total event budget.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = Some(budget);
        self
    }

    /// The scenario's stable 64-bit fingerprint — the identity seeds
    /// and cache keys derive from. `label` (and the hosts'/path's
    /// display names) are excluded, so renaming never re-seeds a run.
    pub fn fingerprint(&self) -> u64 {
        use simcore::Canonicalize;
        self.canon_fingerprint()
    }
}

impl simcore::Canonicalize for Scenario {
    fn canonicalize(&self, c: &mut simcore::Canon) {
        c.scope("client", |cc| self.client.canonicalize(cc));
        c.scope("server", |cc| self.server.canonicalize(cc));
        c.scope("path", |cc| self.path.canonicalize(cc));
        c.scope("opts", |cc| self.opts.canonicalize(cc));
        c.scope("faults", |cc| self.faults.canonicalize(cc));
        match self.event_budget {
            None => c.put_str("event_budget", "default"),
            Some(n) => c.put_u64("event_budget", n),
        }
    }
}
