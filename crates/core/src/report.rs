//! Per-run metrics derived from [`crate::accounting::Accounting`].

use crate::accounting::Accounting;
use spothost_market::time::{SimDuration, SimTime};

/// The metrics the paper reports for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Total cost divided by the cost of hosting the same service on
    /// on-demand servers for the same active span (the paper's
    /// "normalized cost", plotted as a percent).
    pub normalized_cost: f64,
    /// Fraction of the active span the service was down, in `[0,1]`
    /// (multiply by 100 for the paper's "% unavailability").
    pub unavailability: f64,
    /// Fraction of the active span the service ran degraded.
    pub degraded_fraction: f64,
    /// Forced migrations per service-hour (Figure 6(c)).
    pub forced_per_hour: f64,
    /// Planned + reverse migrations per service-hour (Figure 6(d)).
    pub planned_reverse_per_hour: f64,
    /// Fraction of lease-time spent on spot servers.
    pub spot_fraction: f64,
    /// Raw dollars spent.
    pub cost: f64,
    /// Dollars an on-demand-only deployment would have spent.
    pub baseline_cost: f64,
    /// Total downtime.
    pub downtime: SimDuration,
    /// The span metrics are measured over.
    pub active_span: SimDuration,
    /// Revocation-forced migrations (the provider took the server).
    pub forced_migrations: u32,
    /// Voluntary planned migrations at billing boundaries.
    pub planned_migrations: u32,
    /// Migrations back from on-demand fallback to a spot market.
    pub reverse_migrations: u32,
    /// Server requests that yielded no running server: capacity and
    /// quota refusals (storm crunches included), injected startup
    /// failures, and evacuation replacements that failed to come up for
    /// any reason. A spot bid below the price, and a boot, restore or
    /// migration target whose spot price rose above its bid while it
    /// booted, are not counted. Zero unless fault injection or a storm
    /// config (its on-demand quota included) is enabled.
    pub request_faults: u32,
    /// Revocations whose two-minute warning was lost (fault injection).
    pub unwarned_revocations: u32,
    /// Checkpoint operations that failed (fault injection).
    pub ckpt_faults: u32,
    /// Live migrations aborted mid-flight (fault injection).
    pub live_aborts: u32,
}

impl RunReport {
    /// Derive the report from run accounting.
    ///
    /// `baseline_rate` is the $/hour of the on-demand-only alternative
    /// (lowest-priced zone in scope, aggregated over the service's
    /// capacity units).
    pub fn from_accounting(acc: &Accounting, horizon: SimTime, baseline_rate: f64) -> Self {
        assert!(baseline_rate > 0.0);
        let span = acc.active_span(horizon);
        let span_hours = span.as_hours_f64();
        let span_ms = span.as_millis() as f64;
        let baseline_cost = baseline_rate * span_hours;
        let frac = |d: SimDuration| {
            if span_ms == 0.0 {
                0.0
            } else {
                d.as_millis() as f64 / span_ms
            }
        };
        let per_hour = |n: u32| {
            if span_hours == 0.0 {
                0.0
            } else {
                n as f64 / span_hours
            }
        };
        let lease_total = acc.spot_time + acc.on_demand_time;
        RunReport {
            normalized_cost: if baseline_cost == 0.0 {
                0.0
            } else {
                acc.cost / baseline_cost
            },
            unavailability: frac(acc.downtime),
            degraded_fraction: frac(acc.degraded),
            forced_per_hour: per_hour(acc.forced_migrations),
            planned_reverse_per_hour: per_hour(acc.planned_migrations + acc.reverse_migrations),
            spot_fraction: if lease_total == SimDuration::ZERO {
                0.0
            } else {
                acc.spot_time.as_millis() as f64 / lease_total.as_millis() as f64
            },
            cost: acc.cost,
            baseline_cost,
            downtime: acc.downtime,
            active_span: span,
            forced_migrations: acc.forced_migrations,
            planned_migrations: acc.planned_migrations,
            reverse_migrations: acc.reverse_migrations,
            request_faults: acc.request_faults,
            unwarned_revocations: acc.unwarned_revocations,
            ckpt_faults: acc.ckpt_faults,
            live_aborts: acc.live_aborts,
        }
    }

    /// All migrations of any kind.
    pub fn total_migrations(&self) -> u32 {
        self.forced_migrations + self.planned_migrations + self.reverse_migrations
    }

    /// Unavailability as the paper plots it (percent).
    pub fn unavailability_pct(&self) -> f64 {
        self.unavailability * 100.0
    }

    /// Normalized cost as the paper plots it (percent of baseline).
    pub fn normalized_cost_pct(&self) -> f64 {
        self.normalized_cost * 100.0
    }

    /// Does this run meet an availability SLO of the given number of nines?
    pub fn meets_nines(&self, nines: u32) -> bool {
        self.unavailability <= 10f64.powi(-(nines as i32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc() -> Accounting {
        let mut a = Accounting::new();
        a.service_start = Some(SimTime::ZERO);
        a.cost = 43.2; // vs 0.06*2400h = 144 baseline
        a.downtime = SimDuration::secs(360);
        a.degraded = SimDuration::secs(3_600);
        a.forced_migrations = 5;
        a.planned_migrations = 10;
        a.reverse_migrations = 9;
        a.spot_time = SimDuration::hours(2_200);
        a.on_demand_time = SimDuration::hours(200);
        a
    }

    #[test]
    fn report_math() {
        let horizon = SimTime::hours(2_400);
        let r = RunReport::from_accounting(&acc(), horizon, 0.06);
        assert!((r.baseline_cost - 144.0).abs() < 1e-9);
        assert!((r.normalized_cost - 0.3).abs() < 1e-9);
        assert!((r.normalized_cost_pct() - 30.0).abs() < 1e-9);
        // 360s over 2400h = 360 / 8,640,000 s ~ 4.17e-5.
        assert!((r.unavailability - 360.0 / 8_640_000.0).abs() < 1e-12);
        assert!((r.forced_per_hour - 5.0 / 2_400.0).abs() < 1e-12);
        assert!((r.planned_reverse_per_hour - 19.0 / 2_400.0).abs() < 1e-12);
        assert!((r.spot_fraction - 2_200.0 / 2_400.0).abs() < 1e-12);
    }

    #[test]
    fn nines_slo() {
        let horizon = SimTime::hours(2_400);
        let r = RunReport::from_accounting(&acc(), horizon, 0.06);
        // 4.17e-5 unavailability: meets 4 nines (1e-4) but not 5 (1e-5).
        assert!(r.meets_nines(4));
        assert!(!r.meets_nines(5));
    }

    #[test]
    fn never_started_service_reports_zeros() {
        let a = Accounting::new();
        let r = RunReport::from_accounting(&a, SimTime::hours(100), 0.06);
        assert_eq!(r.unavailability, 0.0);
        assert_eq!(r.normalized_cost, 0.0);
        assert_eq!(r.active_span, SimDuration::ZERO);
    }
}
