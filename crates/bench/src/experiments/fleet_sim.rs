//! Fleet-scale hosting: cost, availability, and tail latency of an
//! autoscaled spot fleet over a simulated month — the 22nd experiment
//! (`repro fleet`).
//!
//! Where every other experiment prices a *single* server, this one asks
//! the paper's question at the scale the introduction poses it: an
//! online service whose fleet breathes between ~50 and ~2000 VMs with a
//! diurnal demand curve and occasional flash crowds. Each VM is a full
//! `spothost-core` scheduler (bidding, migration, fault recovery); a
//! least-loaded balancer plus the fleet-level MVA model turn the offered
//! user load into per-VM utilisation, response times, and SLO
//! violations; a target-tracking autoscaler acquires and releases VMs
//! every control interval.
//!
//! Two axes are compared, calm and under a half-intensity storm:
//!
//! * **single-zone multi-market** — all VMs bid across the markets of
//!   one availability zone, and
//! * **cross-region** — VMs diversify across three regions' spot pools.
//!
//! The headline number is *normalized cost*: fleet dollars as a fraction
//! of the textbook alternative, a static on-demand deployment
//! provisioned for the observed peak. Autoscaling and spot each
//! contribute a multiplicative share of that saving, which the report
//! separates (`same-hours on-demand` isolates the spot win).

use crate::settings::ExpSettings;
use spothost_analysis::mc::par_map;
use spothost_analysis::series::csv_escape;
use spothost_faults::StormConfig;
use spothost_fleet::{run_fleet_sim, FleetSimConfig, FleetSimReport};
use spothost_market::time::SimDuration;
use spothost_market::types::Zone;
use spothost_workload::TrafficConfig;
use std::fmt::Write as _;

/// Storm intensity of the stormy rows: well past the single-market
/// four-nines break point of the `storms` sweep, so scope has something
/// to prove.
pub const STORM_INTENSITY: f64 = 0.5;

/// One fleet variant's outcome.
#[derive(Debug, Clone)]
pub struct FleetRow {
    pub label: &'static str,
    pub report: FleetSimReport,
}

/// The rendered experiment: one row per scope x storm variant.
#[derive(Debug, Clone)]
pub struct FleetExp {
    pub rows: Vec<FleetRow>,
    /// Simulated horizon shared by every row.
    pub horizon: SimDuration,
}

fn scopes() -> [(&'static str, Vec<Zone>); 2] {
    [
        ("single-zone multi-market", vec![Zone::UsEast1a]),
        (
            "cross-region",
            vec![Zone::UsEast1a, Zone::UsWest1a, Zone::EuWest1a],
        ),
    ]
}

/// Build the fleet config for one variant at the settings' scale. Full
/// settings host the paper-scale fleet (floor 50, cap 2000, ~60k users
/// at the diurnal base) over a month; quick settings shrink the fleet
/// 10x and ride the quick horizon so CI stays fast.
pub fn config_for(settings: &ExpSettings, zones: Vec<Zone>, storm: f64) -> FleetSimConfig {
    let full = settings.horizon >= SimDuration::days(30);
    let (min_vms, max_vms, base_users) = if full {
        (50, 2000, 60_000.0)
    } else {
        (5, 200, 6_000.0)
    };
    FleetSimConfig {
        zones,
        storms: if storm > 0.0 {
            StormConfig::intensity(storm)
        } else {
            StormConfig::none()
        },
        traffic: TrafficConfig {
            base_users,
            ..TrafficConfig::diurnal_default()
        },
        min_vms,
        max_vms,
        ..FleetSimConfig::default()
    }
}

/// Horizon the fleet simulates: a month at full settings, else the
/// settings' own (quick) horizon.
pub fn horizon_for(settings: &ExpSettings) -> SimDuration {
    settings.horizon.min(SimDuration::days(30))
}

/// Run the four (storm, scope) variants on the pool, one fleet per
/// worker; rows keep the calm-then-storm, single-then-cross order.
pub fn run(settings: &ExpSettings) -> FleetExp {
    let horizon = horizon_for(settings);
    let variants: Vec<(f64, &'static str, Vec<Zone>)> = [0.0, STORM_INTENSITY]
        .into_iter()
        .flat_map(|storm| {
            scopes()
                .into_iter()
                .map(move |(name, zones)| (storm, name, zones))
        })
        .collect();
    let rows = par_map(variants, |(storm, name, zones)| {
        let cfg = config_for(settings, zones, storm);
        let report = run_fleet_sim(&cfg, settings.seed0, horizon);
        let label: &'static str = match (name, storm > 0.0) {
            ("single-zone multi-market", false) => "single-zone multi-market",
            ("cross-region", false) => "cross-region",
            ("single-zone multi-market", true) => "single-zone multi-market, storm",
            ("cross-region", true) => "cross-region, storm",
            _ => unreachable!("unknown variant"),
        };
        FleetRow { label, report }
    });
    FleetExp { rows, horizon }
}

impl FleetExp {
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "variant,normalized_cost,spot_cost_ratio,service_availability,\
             slo_violation_frac,worst_p99_s,mean_response_s,peak_vms,vm_hours,\
             vm_unavailability,spot_fraction,forced_migrations\n",
        );
        for row in &self.rows {
            let r = &row.report;
            let _ = writeln!(
                out,
                "{},{:.6},{:.6},{:.6},{:.6},{:.4},{:.4},{},{:.1},{:.6},{:.6},{}",
                csv_escape(row.label),
                r.normalized_cost(),
                r.spot_cost_ratio(),
                r.service_availability(),
                r.slo_violation_frac,
                r.worst_p99_s,
                r.mean_response_s,
                r.peak_vms,
                r.vm_hours,
                r.vm_unavailability,
                r.spot_fraction,
                r.forced_migrations,
            );
        }
        out
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "Fleet-scale hosting over {:.0} simulated days: autoscaled spot fleet\n\
             vs static peak-provisioned on-demand (diurnal + flash-crowd demand,\n\
             TPC-W per-VM model, storm rows at intensity {STORM_INTENSITY})\n\n",
            self.horizon.as_hours_f64() / 24.0,
        );
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>8} {:>9} {:>8} {:>8} {:>6}",
            "variant", "cost%", "spot%", "avail%", "SLOviol%", "p99 ms", "peak"
        );
        for row in &self.rows {
            let r = &row.report;
            let _ = writeln!(
                out,
                "{:<34} {:>7.1}% {:>7.1}% {:>8.4}% {:>7.3}% {:>8.0} {:>6}",
                row.label,
                100.0 * r.normalized_cost(),
                100.0 * r.spot_cost_ratio(),
                100.0 * r.service_availability(),
                100.0 * r.slo_violation_frac,
                1_000.0 * r.worst_p99_s,
                r.peak_vms,
            );
        }
        out.push('\n');
        for row in &self.rows {
            let _ = writeln!(out, "-- {} --", row.label);
            out.push_str(&row.report.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp() -> FleetExp {
        run(&ExpSettings::quick())
    }

    #[test]
    fn fleet_undercuts_static_peak_everywhere() {
        let f = exp();
        assert_eq!(f.rows.len(), 4);
        for row in &f.rows {
            assert!(
                row.report.normalized_cost() < 0.6,
                "{}: normalized {}",
                row.label,
                row.report.normalized_cost()
            );
            assert!(row.report.total_cost > 0.0, "{}: zero cost", row.label);
        }
    }

    #[test]
    fn diversification_helps_under_storms() {
        let f = exp();
        let single_storm = &f.rows[2].report;
        let cross_storm = &f.rows[3].report;
        assert!(
            cross_storm.vm_unavailability <= single_storm.vm_unavailability,
            "cross-region VM unavailability {} vs single-zone {}",
            cross_storm.vm_unavailability,
            single_storm.vm_unavailability
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = exp().render();
        let b = exp().render();
        assert_eq!(a, b);
    }
}
