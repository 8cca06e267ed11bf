//! Property-based tests of the MVA solver against the classical bounds of
//! closed queueing networks (asymptotic bound analysis), and of the MVA
//! table against the solver it caches.

use proptest::prelude::*;
use spothost_workload::mva::{fleet_response, ClosedNetwork, FleetLoad, MvaTable, Station};

fn arb_network() -> impl Strategy<Value = ClosedNetwork> {
    (prop::collection::vec(0.001f64..0.2, 1..5), 0.0f64..20.0).prop_map(|(demands, think)| {
        let stations = demands
            .into_iter()
            .enumerate()
            .map(|(i, d)| Station::new(format!("s{i}"), d))
            .collect();
        ClosedNetwork::new(stations, think)
    })
}

/// Populations that rise and fall: 0 and 1 first, then a random walk
/// of jumps in both directions.
fn arb_populations() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(-150i64..300, 1..40).prop_map(|steps| {
        let mut pops = vec![0u32, 1];
        let mut n = 1i64;
        for step in steps {
            n = (n + step).clamp(0, 600);
            pops.push(n as u32);
        }
        pops
    })
}

fn load_bits(l: &FleetLoad) -> [u64; 5] {
    [
        l.mean_response_s.to_bits(),
        l.p99_response_s.to_bits(),
        l.utilization.to_bits(),
        l.throughput.to_bits(),
        l.slo_violation_frac.to_bits(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_entries_equal_solve_bitwise(net in arb_network(), pops in arb_populations()) {
        let mut table = MvaTable::new(&net);
        for n in pops {
            let got = table.at(n);
            let want = net.solve(n);
            let bottleneck = want.utilizations.iter().copied().fold(0.0, f64::max);
            prop_assert_eq!(got.response_s.to_bits(), want.response_s.to_bits(), "n = {}", n);
            prop_assert_eq!(got.throughput.to_bits(), want.throughput.to_bits(), "n = {}", n);
            prop_assert_eq!(
                got.bottleneck_utilization.to_bits(),
                bottleneck.to_bits(),
                "n = {}", n
            );
        }
    }

    #[test]
    fn table_fleet_response_equals_the_stateless_one(
        net in arb_network(),
        queries in prop::collection::vec((0u64..4, 1u64..40, 0u64..4_000), 1..40),
        slo in 0.05f64..5.0,
    ) {
        // Kind 0: no users; kind 1: fewer users than servers; kind 2: an
        // exact split; otherwise any split.
        let mut table = MvaTable::new(&net);
        for (kind, servers, users) in queries {
            let users = match kind {
                0 => 0,
                1 => users % servers,
                2 => servers * (users % 100),
                _ => users,
            };
            let want = fleet_response(&net, users, servers, slo);
            let got = table.fleet_response(users, servers, slo);
            prop_assert_eq!(load_bits(&got), load_bits(&want),
                "users {} servers {}", users, servers);
        }
    }

    #[test]
    fn throughput_respects_bounds(net in arb_network(), n in 1u32..500) {
        let sol = net.solve(n);
        let d_total: f64 = net.stations.iter().map(|s| s.demand_s).sum();
        // Asymptotic bound analysis: X(n) <= min(1/Dmax, n/(Z + D)).
        let upper = (1.0 / net.bottleneck_demand())
            .min(n as f64 / (net.think_time_s + d_total));
        prop_assert!(sol.throughput <= upper * (1.0 + 1e-9),
            "X {} exceeds ABA bound {}", sol.throughput, upper);
        prop_assert!(sol.throughput > 0.0);
    }

    #[test]
    fn response_bounded_below_by_total_demand(net in arb_network(), n in 1u32..500) {
        let sol = net.solve(n);
        let d_total: f64 = net.stations.iter().map(|s| s.demand_s).sum();
        prop_assert!(sol.response_s >= d_total - 1e-9,
            "R {} below demand {}", sol.response_s, d_total);
    }

    #[test]
    fn response_monotone_in_population(net in arb_network(), n in 2u32..400) {
        let lo = net.solve(n - 1).response_s;
        let hi = net.solve(n).response_s;
        prop_assert!(hi >= lo - 1e-9, "R({}) = {} < R({}) = {}", n, hi, n - 1, lo);
    }

    #[test]
    fn littles_law_holds(net in arb_network(), n in 1u32..300) {
        // N = X * (R + Z): total population equals throughput times total
        // cycle time.
        let sol = net.solve(n);
        let cycle = sol.response_s + net.think_time_s;
        prop_assert!((sol.throughput * cycle - n as f64).abs() < 1e-6,
            "Little's law violated: X*(R+Z) = {}", sol.throughput * cycle);
    }

    #[test]
    fn queues_sum_to_jobs_in_service(net in arb_network(), n in 1u32..300) {
        // Jobs queued at stations plus jobs thinking = N.
        let sol = net.solve(n);
        let queued: f64 = sol.queue_lengths.iter().sum();
        let thinking = sol.throughput * net.think_time_s;
        prop_assert!((queued + thinking - n as f64).abs() < 1e-6);
    }

    #[test]
    fn utilizations_in_unit_interval(net in arb_network(), n in 1u32..500) {
        for (i, &u) in net.solve(n).utilizations.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&u), "station {i}: {u}");
        }
    }

    #[test]
    fn scaling_all_demands_scales_response(net in arb_network(), n in 1u32..200) {
        // Doubling every service demand (and zero think time) must exactly
        // double response times — MVA is homogeneous of degree one.
        let zero_think = ClosedNetwork::new(net.stations.clone(), 0.0);
        let doubled = ClosedNetwork::new(
            net.stations
                .iter()
                .map(|s| Station::new(s.name.clone(), s.demand_s * 2.0))
                .collect(),
            0.0,
        );
        let r1 = zero_think.solve(n).response_s;
        let r2 = doubled.solve(n).response_s;
        prop_assert!((r2 - 2.0 * r1).abs() < 1e-6 * r2.max(1.0));
    }
}
