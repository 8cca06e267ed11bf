//! Market scopes: which spot markets the scheduler may bid in (§4.2–4.5).

use crate::capacity::{exact_fit_type, fits};
use spothost_market::catalog::Catalog;
use spothost_market::types::{MarketId, Zone};

/// The set of markets the scheduler's bidding algorithm considers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MarketScope {
    /// One spot market plus the same zone's on-demand servers (§4.2).
    Single(MarketId),
    /// Every size market within one zone (§4.4, Figure 8).
    MultiMarket(Zone),
    /// Every size market across several zones (§4.5, Figure 9). Cross-zone
    /// moves between different regions are WAN migrations.
    MultiRegion(Vec<Zone>),
}

impl MarketScope {
    /// Zones this scope touches.
    pub fn zones(&self) -> Vec<Zone> {
        match self {
            MarketScope::Single(m) => vec![m.zone],
            MarketScope::MultiMarket(z) => vec![*z],
            MarketScope::MultiRegion(zs) => zs.clone(),
        }
    }

    /// Check the scope lists its zones sensibly: a multi-region scope
    /// needs at least one zone and may list each only once. (A repeated
    /// zone adds no market, but would make its storm edges fire twice.)
    pub fn validate(&self) -> Result<(), String> {
        if let MarketScope::MultiRegion(zones) = self {
            if zones.is_empty() {
                return Err("multi-region scope needs at least one zone".into());
            }
            for (i, z) in zones.iter().enumerate() {
                if zones[..i].contains(z) {
                    return Err(format!("multi-region scope lists zone {z} more than once"));
                }
            }
        }
        Ok(())
    }

    /// Spot markets the scheduler may bid in, for a service of `units`
    /// capacity units. Sizes that don't pack evenly are excluded.
    ///
    /// The returned list is pinned to canonical order — `(zone index,
    /// instance-type index)` ascending — regardless of the order zones
    /// were passed in a `MultiRegion` scope. Downstream consumers rely
    /// on this: the scheduler breaks score ties by list position and the
    /// forecaster state is aligned index-for-index, so a permuted list
    /// would silently change simulation results.
    pub fn candidates(&self, units: u32) -> Vec<MarketId> {
        let mut out: Vec<MarketId> = match self {
            MarketScope::Single(m) => [*m].into_iter().filter(|m| fits(units, m.itype)).collect(),
            MarketScope::MultiMarket(zone) => MarketId::all_in_zone(*zone)
                .into_iter()
                .filter(|m| fits(units, m.itype))
                .collect(),
            MarketScope::MultiRegion(zones) => zones
                .iter()
                .flat_map(|&z| MarketId::all_in_zone(z))
                .filter(|m| fits(units, m.itype))
                .collect(),
        };
        out.sort_by_key(|m| (m.zone.index(), m.itype.index()));
        out.dedup();
        out
    }

    /// Forecast-driven ordering hook for multi-market and multi-region
    /// scopes: stable-sort `items` by ascending `risk` so that when the
    /// scheduler's cost-based ranking ties, the *calmer* market wins.
    /// Single-market scopes have nothing to reorder, so this is a no-op
    /// there — keeping single-market runs bit-identical whether or not a
    /// forecaster is attached.
    pub fn rank_by_risk<T>(&self, items: &mut [T], mut risk: impl FnMut(&T) -> f64) {
        if matches!(self, MarketScope::Single(_)) {
            return;
        }
        items.sort_by(|a, b| risk(a).total_cmp(&risk(b)));
    }

    /// The on-demand fallback market when the service currently sits in
    /// `zone`: one exact-fit server in the same zone (forced migrations are
    /// always local — the two-minute warning leaves no room for a WAN
    /// move).
    pub fn on_demand_market(&self, zone: Zone, units: u32) -> MarketId {
        match self {
            // Single-market experiments replace the spot server with an
            // on-demand server of the same size (§3.1).
            MarketScope::Single(m) => {
                debug_assert_eq!(m.zone, zone);
                *m
            }
            _ => MarketId::new(zone, exact_fit_type(units)),
        }
    }

    /// The normalization baseline in $/hour: hosting the service entirely
    /// on on-demand servers, at the *lowest* on-demand price available in
    /// the scope's zones (§4.5).
    pub fn baseline_rate(&self, catalog: &Catalog, units: u32) -> f64 {
        catalog.cheapest_on_demand_for_units(&self.zones(), units)
    }

    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            MarketScope::Single(m) => m.to_string(),
            MarketScope::MultiMarket(z) => format!("multi-market({z})"),
            MarketScope::MultiRegion(zs) => {
                let names: Vec<&str> = zs.iter().map(|z| z.name()).collect();
                format!("multi-region({})", names.join("+"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spothost_market::types::InstanceType;

    #[test]
    fn single_scope_candidates() {
        let m = MarketId::new(Zone::UsEast1a, InstanceType::Large);
        let s = MarketScope::Single(m);
        assert_eq!(s.candidates(4), vec![m]);
        assert_eq!(s.candidates(2), vec![], "a large server overfills 2 units");
        assert_eq!(s.zones(), vec![Zone::UsEast1a]);
        assert_eq!(s.on_demand_market(Zone::UsEast1a, 4), m);
    }

    #[test]
    fn multi_market_candidates_filter_by_fit() {
        let s = MarketScope::MultiMarket(Zone::UsWest1a);
        assert_eq!(s.candidates(8).len(), 4, "all sizes pack 8 units");
        assert_eq!(s.candidates(2).len(), 2, "only small+medium pack 2");
        let c1 = s.candidates(1);
        assert_eq!(c1.len(), 1);
        assert_eq!(c1[0].itype, InstanceType::Small);
    }

    #[test]
    fn multi_region_spans_zones() {
        let s = MarketScope::MultiRegion(vec![Zone::UsEast1a, Zone::EuWest1a]);
        let c = s.candidates(8);
        assert_eq!(c.len(), 8);
        assert!(c.iter().any(|m| m.zone == Zone::UsEast1a));
        assert!(c.iter().any(|m| m.zone == Zone::EuWest1a));
    }

    #[test]
    fn candidate_order_is_canonical_regardless_of_zone_order() {
        // Regression: multi-region candidate order used to follow the
        // zones Vec passed in; it is now pinned to (zone, size) order.
        let fwd = MarketScope::MultiRegion(vec![Zone::UsEast1a, Zone::EuWest1a]);
        let rev = MarketScope::MultiRegion(vec![Zone::EuWest1a, Zone::UsEast1a]);
        let c = fwd.candidates(8);
        assert_eq!(c, rev.candidates(8));
        let keys: Vec<(usize, usize)> = c
            .iter()
            .map(|m| (m.zone.index(), m.itype.index()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "must be (zone, size) ascending");
        // Duplicate zones don't duplicate markets, but the scope is
        // invalid all the same.
        let dup = MarketScope::MultiRegion(vec![Zone::UsEast1a, Zone::UsEast1a]);
        assert_eq!(dup.candidates(8).len(), 4);
        let err = dup.validate().expect_err("repeated zone");
        assert!(err.contains("us-east-1a"), "{err}");
        fwd.validate().unwrap();
        rev.validate().unwrap();
        assert!(MarketScope::MultiRegion(vec![]).validate().is_err());
    }

    #[test]
    fn rank_by_risk_orders_multi_scopes_only() {
        let mut items = vec![("a", 0.3), ("b", 0.1), ("c", 0.2)];
        MarketScope::Single(MarketId::new(Zone::UsEast1a, InstanceType::Small))
            .rank_by_risk(&mut items, |x| x.1);
        assert_eq!(items[0].0, "a", "single scope must not reorder");
        MarketScope::MultiMarket(Zone::UsEast1a).rank_by_risk(&mut items, |x| x.1);
        let names: Vec<&str> = items.iter().map(|x| x.0).collect();
        assert_eq!(names, ["b", "c", "a"]);
    }

    #[test]
    fn on_demand_fallback_is_local_exact_fit() {
        let s = MarketScope::MultiRegion(vec![Zone::UsEast1a, Zone::EuWest1a]);
        let od = s.on_demand_market(Zone::EuWest1a, 8);
        assert_eq!(od, MarketId::new(Zone::EuWest1a, InstanceType::XLarge));
    }

    #[test]
    fn baseline_uses_cheapest_zone() {
        let catalog = Catalog::ec2_2015();
        let s = MarketScope::MultiRegion(vec![Zone::UsEast1a, Zone::EuWest1a]);
        let baseline = s.baseline_rate(&catalog, 8);
        let us_east = catalog.on_demand_price(MarketId::new(Zone::UsEast1a, InstanceType::XLarge));
        assert!((baseline - us_east).abs() < 1e-12, "us-east is cheaper");
    }

    #[test]
    fn labels() {
        assert_eq!(
            MarketScope::MultiMarket(Zone::UsEast1b).label(),
            "multi-market(us-east-1b)"
        );
        assert!(
            MarketScope::MultiRegion(vec![Zone::UsEast1a, Zone::UsWest1a])
                .label()
                .contains("us-east-1a+us-west-1a")
        );
    }
}
