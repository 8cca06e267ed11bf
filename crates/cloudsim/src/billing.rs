//! Hourly billing, exactly as the paper describes EC2's 2015 rules (§2.1):
//!
//! * Spot instance-hours are billed at the spot price in effect at the
//!   **beginning** of each instance-hour — mid-hour price rises cost the
//!   customer nothing until the next hour starts. This is the reason the
//!   paper's planned migrations fire "near the end of a billing period".
//! * The final partial hour is **free if the provider revoked** the server
//!   and **billed in full if the customer terminated** it voluntarily.
//! * On-demand usage rounds up to started hours at the fixed price.

use spothost_market::time::{SimDuration, SimTime, MILLIS_PER_HOUR};
use spothost_market::trace::{PriceTrace, TraceCursor};

/// Charge for a spot lease `[start, end)` under the given price history.
///
/// Each complete instance-hour `i` costs `trace.price_at(start + i*1h)`.
/// The final partial hour follows the revocation rule above. A lease
/// revoked exactly on an hour boundary has no partial hour and pays all
/// complete hours.
///
/// This is the *replay* form: O(hours x log n) in binary searches. The
/// simulation hot path bills through [`SpotLeaseMeter`] instead, which is
/// bit-identical (same additions in the same order) but O(1) per hour when
/// consecutive hours are a few price changes apart and O(log d) when they
/// are `d` apart; this function remains the reference oracle for property
/// tests and for one-shot charges outside a simulation.
pub fn spot_lease_charge(trace: &PriceTrace, start: SimTime, end: SimTime, revoked: bool) -> f64 {
    assert!(end >= start, "lease must not end before it starts");
    let elapsed = end - start;
    let full_hours = elapsed.whole_hours();
    let has_partial = !elapsed.as_millis().is_multiple_of(MILLIS_PER_HOUR);
    let billed_hours = if revoked || !has_partial {
        full_hours
    } else {
        full_hours + 1
    };
    let mut total = 0.0;
    for i in 0..billed_hours {
        total += trace.price_at(start + SimDuration::hours(i));
    }
    total
}

/// Incremental billing accumulator for one running spot lease.
///
/// EC2 bills each instance-hour at the spot price in effect when the
/// hour *starts*, and a complete hour is owed no matter how the lease
/// later ends; only the final partial hour depends on who terminated it
/// (free if the provider revoked, billed if the customer walked away).
/// The meter exploits exactly that: [`advance_to`] charges each
/// instance-hour the moment it completes, seeking the price trace
/// forward with a [`TraceCursor`] (no allocation; O(1) for the next
/// price change and O(log d) for a jump of `d` changes, including the
/// first lookup from the trace start to a lease granted deep in the
/// horizon), and [`close`] settles only the final partial hour.
///
/// The accumulated charge is **bit-identical** to
/// [`spot_lease_charge`]'s replay: both perform the same f64 additions
/// of the same hour-start prices in the same order (proved by property
/// test against randomized traces and leases).
///
/// [`advance_to`]: SpotLeaseMeter::advance_to
/// [`close`]: SpotLeaseMeter::close
#[derive(Debug, Clone)]
pub struct SpotLeaseMeter<'a> {
    cursor: TraceCursor<'a>,
    start: SimTime,
    /// Complete instance-hours charged so far.
    hours_charged: u64,
    accrued: f64,
}

impl<'a> SpotLeaseMeter<'a> {
    /// Start metering a spot lease that begins (and starts billing) at
    /// `start`.
    pub fn new(trace: &'a PriceTrace, start: SimTime) -> Self {
        SpotLeaseMeter {
            cursor: trace.cursor(),
            start,
            hours_charged: 0,
            accrued: 0.0,
        }
    }

    /// The lease start time this meter bills from.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Charge accrued so far (complete instance-hours only).
    pub fn accrued(&self) -> f64 {
        self.accrued
    }

    /// Charge every instance-hour that has *completed* by `now`. A
    /// complete hour is owed regardless of how the lease later ends, so
    /// charging it eagerly is always correct. Calls must use
    /// non-decreasing `now` (the simulation clock); each call costs
    /// O(1) per completed hour plus O(log d) per jump of `d` price
    /// changes between hours.
    pub fn advance_to(&mut self, now: SimTime) {
        loop {
            let hour_start = self.start + SimDuration::hours(self.hours_charged);
            let hour_end = hour_start + SimDuration::hours(1);
            if hour_end > now {
                break;
            }
            self.accrued += self.cursor.price_at(hour_start);
            self.hours_charged += 1;
        }
    }

    /// Settle the lease at `end`: charge any remaining complete hours,
    /// then the final partial hour if the customer terminated
    /// voluntarily (`revoked = false`). Returns the total charge.
    pub fn close(mut self, end: SimTime, revoked: bool) -> f64 {
        assert!(end >= self.start, "lease must not end before it starts");
        self.advance_to(end);
        let has_partial = !(end - self.start)
            .as_millis()
            .is_multiple_of(MILLIS_PER_HOUR);
        if has_partial && !revoked {
            let partial_start = self.start + SimDuration::hours(self.hours_charged);
            self.accrued += self.cursor.price_at(partial_start);
        }
        self.accrued
    }
}

/// Charge for an on-demand lease `[start, end)` at fixed hourly price
/// `pon`: started hours round up.
pub fn on_demand_lease_charge(pon: f64, start: SimTime, end: SimTime) -> f64 {
    assert!(end >= start, "lease must not end before it starts");
    assert!(pon >= 0.0);
    (end - start).started_hours() as f64 * pon
}

#[cfg(test)]
mod tests {
    use super::*;
    use spothost_market::trace::PricePoint;

    fn flat_trace(price: f64) -> PriceTrace {
        PriceTrace::constant(price, SimTime::days(10))
    }

    fn stepping_trace() -> PriceTrace {
        // 0.10 for the first 90 minutes, then 0.50.
        PriceTrace::new(
            vec![
                PricePoint {
                    at: SimTime::ZERO,
                    price: 0.10,
                },
                PricePoint {
                    at: SimTime::minutes(90),
                    price: 0.50,
                },
            ],
            SimTime::days(10),
        )
    }

    #[test]
    fn spot_charges_hour_start_price() {
        let t = stepping_trace();
        // Lease [0, 2h) voluntary: hour 0 at 0.10, hour 1 (starts at 60min,
        // price still 0.10) at 0.10.
        let c = spot_lease_charge(&t, SimTime::ZERO, SimTime::hours(2), false);
        assert!((c - 0.20).abs() < 1e-12);
        // Lease [0, 3h): hour 2 starts at 120min where price is 0.50.
        let c = spot_lease_charge(&t, SimTime::ZERO, SimTime::hours(3), false);
        assert!((c - 0.70).abs() < 1e-12);
    }

    #[test]
    fn revoked_partial_hour_is_free() {
        let t = flat_trace(0.10);
        let start = SimTime::ZERO;
        let end = SimTime::minutes(150); // 2.5h
        let revoked = spot_lease_charge(&t, start, end, true);
        let voluntary = spot_lease_charge(&t, start, end, false);
        assert!((revoked - 0.20).abs() < 1e-12, "2 full hours only");
        assert!((voluntary - 0.30).abs() < 1e-12, "3 started hours");
    }

    #[test]
    fn revocation_on_exact_boundary_charges_all_full_hours() {
        let t = flat_trace(0.10);
        let c = spot_lease_charge(&t, SimTime::ZERO, SimTime::hours(2), true);
        assert!((c - 0.20).abs() < 1e-12);
    }

    #[test]
    fn zero_length_lease_is_free() {
        let t = flat_trace(0.10);
        assert_eq!(
            spot_lease_charge(&t, SimTime::hours(1), SimTime::hours(1), false),
            0.0
        );
        assert_eq!(
            on_demand_lease_charge(0.5, SimTime::ZERO, SimTime::ZERO),
            0.0
        );
    }

    #[test]
    fn sub_hour_revoked_lease_is_free() {
        // The paper notes revocation inside the first hour costs nothing.
        let t = flat_trace(0.25);
        let c = spot_lease_charge(&t, SimTime::ZERO, SimTime::minutes(59), true);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn lease_relative_hours_not_wall_clock() {
        let t = stepping_trace();
        // Lease starts at 30min; its first hour begins at price 0.10, its
        // second hour begins at 90min when the price is 0.50.
        let c = spot_lease_charge(&t, SimTime::minutes(30), SimTime::minutes(150), false);
        assert!((c - 0.60).abs() < 1e-12);
    }

    #[test]
    fn on_demand_rounds_up() {
        let pon = 0.24;
        let c = on_demand_lease_charge(pon, SimTime::ZERO, SimTime::minutes(61));
        assert!((c - 2.0 * pon).abs() < 1e-12);
        let c = on_demand_lease_charge(pon, SimTime::ZERO, SimTime::hours(1));
        assert!((c - pon).abs() < 1e-12);
    }
}
