//! Run accounting: cost, downtime, migrations, time shares.

use spothost_market::time::{SimDuration, SimTime};

/// Mutable accumulator the scheduler writes into during a run.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    /// When the service first came up; metrics are measured from here.
    pub service_start: Option<SimTime>,
    /// Total dollars spent across all leases (aggregated over the packed
    /// servers).
    pub cost: f64,
    /// Total service outage.
    pub downtime: SimDuration,
    /// Total degraded-performance time (lazy-restore fault-in windows).
    pub degraded: SimDuration,
    /// Provider-forced migrations (revocations handled).
    pub forced_migrations: u32,
    /// Voluntary planned migrations (spot -> on-demand or spot -> spot).
    pub planned_migrations: u32,
    /// Voluntary reverse migrations (on-demand -> spot).
    pub reverse_migrations: u32,
    /// Planned migrations aborted because the target was revoked while
    /// booting (diagnostic).
    pub aborted_migrations: u32,
    /// Lease time spent on spot servers.
    pub spot_time: SimDuration,
    /// Lease time spent on on-demand servers.
    pub on_demand_time: SimDuration,
    /// Server requests that yielded no running server, counted by this
    /// rule: a capacity or quota refusal (a storm's capacity crunch
    /// included), an injected startup failure, and an evacuation's
    /// replacement that fails to come up for any reason. A spot bid below
    /// the price is not counted, nor is a boot, restore or migration
    /// target whose spot price rose above its bid while it booted. Zero
    /// unless fault injection or a storm config (its on-demand quota
    /// included) is enabled.
    pub request_faults: u32,
    /// Revocations whose warning never arrived (injected warning-miss
    /// faults): the instance died with no grace window.
    pub unwarned_revocations: u32,
    /// Final checkpoint writes that failed or did not fit the remaining
    /// grace window, forcing a cold restart (injected mechanism faults).
    pub ckpt_faults: u32,
    /// Live migrations aborted mid-pre-copy and downgraded to a
    /// checkpoint/restore (injected mechanism faults).
    pub live_aborts: u32,
}

impl Accounting {
    /// Fresh all-zero accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a service outage `[from, to)`, clamped to the horizon.
    /// Returns the clamped interval actually accumulated (`None` when it
    /// is empty) — the single source of truth telemetry emits from, so an
    /// exported event stream replays to the same downtime total exactly.
    pub fn add_downtime(
        &mut self,
        from: SimTime,
        to: SimTime,
        horizon: SimTime,
    ) -> Option<(SimTime, SimTime)> {
        let from = from.min(horizon);
        let to = to.min(horizon);
        if to > from {
            self.downtime += to - from;
            Some((from, to))
        } else {
            None
        }
    }

    /// Record a degraded window `[from, to)`, clamped to the horizon.
    /// Returns the clamped interval actually accumulated, as
    /// [`Accounting::add_downtime`] does.
    pub fn add_degraded(
        &mut self,
        from: SimTime,
        to: SimTime,
        horizon: SimTime,
    ) -> Option<(SimTime, SimTime)> {
        let from = from.min(horizon);
        let to = to.min(horizon);
        if to > from {
            self.degraded += to - from;
            Some((from, to))
        } else {
            None
        }
    }

    /// The span over which availability is measured.
    pub fn active_span(&self, horizon: SimTime) -> SimDuration {
        match self.service_start {
            Some(s) => horizon.since(s),
            None => SimDuration::ZERO,
        }
    }

    /// Forced + planned + reverse migrations.
    pub fn total_migrations(&self) -> u32 {
        self.forced_migrations + self.planned_migrations + self.reverse_migrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downtime_clamps_to_horizon() {
        let mut a = Accounting::new();
        let horizon = SimTime::hours(10);
        let clamped = a.add_downtime(SimTime::hours(9), SimTime::hours(12), horizon);
        assert_eq!(a.downtime, SimDuration::hours(1));
        // The returned interval is the clamped one actually accumulated.
        assert_eq!(clamped, Some((SimTime::hours(9), SimTime::hours(10))));
        // Fully past the horizon: nothing.
        assert_eq!(
            a.add_downtime(SimTime::hours(11), SimTime::hours(12), horizon),
            None
        );
        assert_eq!(a.downtime, SimDuration::hours(1));
        // Inverted interval: nothing.
        assert_eq!(
            a.add_downtime(SimTime::hours(5), SimTime::hours(5), horizon),
            None
        );
        assert_eq!(a.downtime, SimDuration::hours(1));
    }

    #[test]
    fn active_span_needs_service_start() {
        let mut a = Accounting::new();
        assert_eq!(a.active_span(SimTime::hours(5)), SimDuration::ZERO);
        a.service_start = Some(SimTime::hours(1));
        assert_eq!(a.active_span(SimTime::hours(5)), SimDuration::hours(4));
    }

    #[test]
    fn migration_totals() {
        let mut a = Accounting::new();
        a.forced_migrations = 2;
        a.planned_migrations = 3;
        a.reverse_migrations = 4;
        assert_eq!(a.total_migrations(), 9);
    }
}
