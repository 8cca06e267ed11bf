//! Exact Mean-Value Analysis for closed product-form queueing networks
//! (Reiser & Lavenberg 1980).
//!
//! A population of N jobs (emulated browsers) cycles through a think-time
//! delay and a set of queueing stations. The exact recursion over
//! population sizes:
//!
//! ```text
//! R_i(n) = D_i * (1 + Q_i(n-1))         response at station i
//! X(n)   = n / (Z + sum_i R_i(n))       system throughput
//! Q_i(n) = X(n) * R_i(n)                mean queue at station i
//! ```

/// One queueing station with its aggregate per-job service demand.
#[derive(Debug, Clone, PartialEq)]
pub struct Station {
    /// Display name ("cpu", "io", ...).
    pub name: String,
    /// Total service demand per job, in seconds (visit count x per-visit
    /// service time).
    pub demand_s: f64,
}

impl Station {
    /// A station with a total per-job service demand (seconds). Panics
    /// on negative or non-finite demand.
    pub fn new(name: impl Into<String>, demand_s: f64) -> Self {
        assert!(demand_s >= 0.0 && demand_s.is_finite());
        Station {
            name: name.into(),
            demand_s,
        }
    }
}

/// A closed queueing network: stations plus a think-time delay.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedNetwork {
    /// Queueing stations jobs visit each cycle.
    pub stations: Vec<Station>,
    /// Think time between requests (delay station), seconds.
    pub think_time_s: f64,
}

/// Solution of the network at a given population.
#[derive(Debug, Clone, PartialEq)]
pub struct MvaResult {
    /// Mean response time per request (excluding think time), seconds.
    pub response_s: f64,
    /// System throughput, requests/second.
    pub throughput: f64,
    /// Mean queue length per station.
    pub queue_lengths: Vec<f64>,
    /// Utilisation per station.
    pub utilizations: Vec<f64>,
}

impl ClosedNetwork {
    /// A network from stations plus a think-time delay. Panics on an
    /// empty station list or a negative/non-finite think time.
    pub fn new(stations: Vec<Station>, think_time_s: f64) -> Self {
        assert!(!stations.is_empty(), "network needs at least one station");
        assert!(think_time_s >= 0.0 && think_time_s.is_finite());
        ClosedNetwork {
            stations,
            think_time_s,
        }
    }

    /// The bottleneck service demand (max over stations).
    pub fn bottleneck_demand(&self) -> f64 {
        self.stations.iter().map(|s| s.demand_s).fold(0.0, f64::max)
    }

    /// Exact MVA at population `n`.
    pub fn solve(&self, n: u32) -> MvaResult {
        let k = self.stations.len();
        let mut q = vec![0.0f64; k];
        let mut r = vec![0.0f64; k];
        let mut x = 0.0f64;
        for pop in 1..=n {
            x = self.step(pop, &mut q, &mut r);
        }
        let response_s = if n == 0 {
            0.0
        } else {
            n as f64 / x - self.think_time_s
        };
        let utilizations = self
            .stations
            .iter()
            .map(|s| (x * s.demand_s).min(1.0))
            .collect();
        MvaResult {
            response_s: response_s.max(0.0),
            throughput: x,
            queue_lengths: q,
            utilizations,
        }
    }

    /// One step of the recurrence: from the mean queue lengths `q` at
    /// population `pop - 1`, the response time per station into `r`, and
    /// the throughput at `pop`, which is returned. Leaves `q` at `pop`.
    fn step(&self, pop: u32, q: &mut [f64], r: &mut [f64]) -> f64 {
        let mut r_total = 0.0;
        for ((r, s), q) in r.iter_mut().zip(&self.stations).zip(q.iter()) {
            *r = s.demand_s * (1.0 + q);
            r_total += *r;
        }
        let x = pop as f64 / (self.think_time_s + r_total);
        for (q, r) in q.iter_mut().zip(r.iter()) {
            *q = x * r;
        }
        x
    }
}

/// Fleet-level load metrics: a population of users spread across many
/// identical VMs by a least-loaded balancer, each VM an independent copy
/// of one [`ClosedNetwork`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetLoad {
    /// User-weighted mean response time across the fleet, seconds.
    pub mean_response_s: f64,
    /// Approximate 99th-percentile response time, seconds: the
    /// most-loaded VM group's mean response scaled by `ln(100)` — exact
    /// when sojourn times are exponential, a documented approximation
    /// otherwise.
    pub p99_response_s: f64,
    /// User-weighted bottleneck-station utilisation across the fleet.
    pub utilization: f64,
    /// Aggregate throughput, requests/second.
    pub throughput: f64,
    /// User-weighted fraction of requests whose response time exceeds
    /// the SLO (exponential-sojourn approximation `exp(-slo / R)`).
    pub slo_violation_frac: f64,
}

/// The values of one [`ClosedNetwork::solve`] that [`fleet_response`]
/// reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MvaPoint {
    /// [`MvaResult::response_s`].
    pub response_s: f64,
    /// [`MvaResult::throughput`].
    pub throughput: f64,
    /// The largest of [`MvaResult::utilizations`].
    pub bottleneck_utilization: f64,
}

impl MvaPoint {
    fn of(sol: &MvaResult) -> Self {
        MvaPoint {
            response_s: sol.response_s,
            throughput: sol.throughput,
            bottleneck_utilization: sol.utilizations.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// One network's [`MvaPoint`]s by population, filled on first use.
///
/// [`ClosedNetwork::solve`] runs the recurrence from population 1 on
/// every call, although a fleet asks for the same few populations tick
/// after tick. The table keeps the recurrence's queue lengths at the
/// largest population solved so far: asking for a larger one continues
/// the recurrence from there, and a smaller one is a lookup. Entry `n`
/// is bit-identical to `solve(n)`, because both take the same steps of
/// the recurrence up to `n`. Memory grows with the largest population
/// asked for, three `f64`s per population.
#[derive(Debug, Clone)]
pub struct MvaTable {
    net: ClosedNetwork,
    /// Mean queue length per station at population `points.len() - 1`.
    queues: Vec<f64>,
    /// Entry `n` is the solution at population `n`.
    points: Vec<MvaPoint>,
}

impl MvaTable {
    /// An empty table of `net`'s solutions.
    pub fn new(net: &ClosedNetwork) -> Self {
        let zero = MvaPoint {
            response_s: 0.0,
            throughput: 0.0,
            bottleneck_utilization: 0.0,
        };
        MvaTable {
            net: net.clone(),
            queues: vec![0.0; net.stations.len()],
            points: vec![zero],
        }
    }

    /// The solution at population `n`: `solve(n)`'s values, bit for bit.
    pub fn at(&mut self, n: u32) -> MvaPoint {
        if let Some(&point) = self.points.get(n as usize) {
            return point;
        }
        let mut r = vec![0.0f64; self.queues.len()];
        for pop in self.points.len() as u32..=n {
            let x = self.net.step(pop, &mut self.queues, &mut r);
            let response_s = pop as f64 / x - self.net.think_time_s;
            self.points.push(MvaPoint {
                response_s: response_s.max(0.0),
                throughput: x,
                bottleneck_utilization: self
                    .net
                    .stations
                    .iter()
                    .map(|s| (x * s.demand_s).min(1.0))
                    .fold(0.0, f64::max),
            });
        }
        self.points[n as usize]
    }

    /// [`fleet_response`] over this table's network, solving each
    /// population through the table: bit-identical to the stateless call.
    pub fn fleet_response(&mut self, users: u64, servers: u64, slo_s: f64) -> FleetLoad {
        aggregate(users, servers, slo_s, |n| self.at(n))
    }
}

/// Solve the fleet: `users` concurrent users least-loaded-balanced over
/// `servers` identical VMs, each modelled by `per_vm`.
///
/// A least-loaded balancer over identical VMs splits the population as
/// evenly as integers allow: `users mod servers` VMs carry
/// `ceil(users/servers)` users, the rest `floor(users/servers)`. Only
/// those **two** populations ever need an MVA solve, so fleet-level
/// aggregation is O(users/servers) regardless of fleet size — this is
/// what lets a 2000-VM fleet re-solve its latency model at every
/// autoscaler control tick. A caller that asks again and again keeps an
/// [`MvaTable`] and calls [`MvaTable::fleet_response`] instead.
///
/// Panics if `servers == 0` (the caller decides what a total outage
/// means; this function only models a serving fleet).
pub fn fleet_response(per_vm: &ClosedNetwork, users: u64, servers: u64, slo_s: f64) -> FleetLoad {
    aggregate(users, servers, slo_s, |n| MvaPoint::of(&per_vm.solve(n)))
}

/// The fleet aggregation behind both [`fleet_response`] and
/// [`MvaTable::fleet_response`]; `solve(n)` is the per-VM solution at
/// population `n`.
fn aggregate(
    users: u64,
    servers: u64,
    slo_s: f64,
    mut solve: impl FnMut(u32) -> MvaPoint,
) -> FleetLoad {
    assert!(servers > 0, "fleet_response needs at least one serving VM");
    assert!(slo_s > 0.0 && slo_s.is_finite());
    if users == 0 {
        // No demand: an idle fleet serves a hypothetical request at the
        // raw (contention-free) demand.
        let r = solve(1);
        return FleetLoad {
            mean_response_s: r.response_s,
            p99_response_s: r.response_s * 100f64.ln(),
            utilization: 0.0,
            throughput: 0.0,
            slo_violation_frac: violation(r.response_s, slo_s),
        };
    }
    let lo_pop = users / servers;
    let hi_pop = lo_pop + 1;
    let hi_vms = users % servers;
    let lo_vms = servers - hi_vms;
    let hi = (hi_vms > 0).then(|| solve(hi_pop.min(u32::MAX as u64) as u32));
    let lo = (lo_vms > 0 && lo_pop > 0).then(|| solve(lo_pop.min(u32::MAX as u64) as u32));
    let mut weighted_r = 0.0;
    let mut weighted_u = 0.0;
    let mut weighted_v = 0.0;
    let mut throughput = 0.0;
    let mut worst_r = 0.0f64;
    let mut add = |sol: &MvaPoint, vms: u64, pop: u64| {
        let w = (vms * pop) as f64 / users as f64;
        weighted_r += w * sol.response_s;
        weighted_u += w * sol.bottleneck_utilization;
        weighted_v += w * violation(sol.response_s, slo_s);
        throughput += vms as f64 * sol.throughput;
        worst_r = worst_r.max(sol.response_s);
    };
    if let Some(sol) = &hi {
        add(sol, hi_vms, hi_pop);
    }
    if let Some(sol) = &lo {
        add(sol, lo_vms, lo_pop);
    }
    FleetLoad {
        mean_response_s: weighted_r,
        p99_response_s: worst_r * 100f64.ln(),
        utilization: weighted_u,
        throughput,
        slo_violation_frac: weighted_v,
    }
}

/// P(response > slo) under the exponential-sojourn approximation.
fn violation(mean_response_s: f64, slo_s: f64) -> f64 {
    if mean_response_s <= 0.0 {
        0.0
    } else {
        (-slo_s / mean_response_s).exp()
    }
}

/// The largest per-VM population whose bottleneck utilisation stays at
/// or below `target` — the autoscaler's "users one VM can absorb" knob.
/// Returns at least 1 (a VM always takes one user, however overloaded).
pub fn capacity_at_utilization(per_vm: &ClosedNetwork, target: f64) -> u64 {
    assert!((0.0..=1.0).contains(&target) && target > 0.0);
    let mut n = 1u64;
    loop {
        let sol = per_vm.solve((n + 1).min(u32::MAX as u64) as u32);
        let u = sol.utilizations.iter().copied().fold(0.0, f64::max);
        if u > target || n >= 1_000_000 {
            return n;
        }
        n += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(demand: f64, think: f64) -> ClosedNetwork {
        ClosedNetwork::new(vec![Station::new("cpu", demand)], think)
    }

    #[test]
    fn one_job_sees_raw_demand() {
        let net = single(0.05, 2.0);
        let r = net.solve(1);
        assert!((r.response_s - 0.05).abs() < 1e-12);
        assert!((r.throughput - 1.0 / 2.05).abs() < 1e-12);
    }

    #[test]
    fn throughput_saturates_at_inverse_bottleneck() {
        let net = single(0.05, 2.0);
        let r = net.solve(1_000);
        assert!((r.throughput - 20.0).abs() < 0.01, "X {}", r.throughput);
        // Heavy load: R ~ N*D - Z.
        let expect = 1_000.0 * 0.05 - 2.0;
        assert!((r.response_s - expect).abs() / expect < 0.01);
        assert!((r.utilizations[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn response_monotone_in_population() {
        let net = ClosedNetwork::new(
            vec![Station::new("cpu", 0.016), Station::new("io", 0.005)],
            2.0,
        );
        let mut prev = 0.0;
        for n in [1, 50, 100, 200, 400] {
            let r = net.solve(n).response_s;
            assert!(r >= prev, "response must grow with load");
            prev = r;
        }
    }

    #[test]
    fn light_load_response_near_total_demand() {
        // With plenty of think time and few jobs, no queueing happens.
        let net = ClosedNetwork::new(
            vec![Station::new("cpu", 0.01), Station::new("io", 0.02)],
            100.0,
        );
        let r = net.solve(10);
        assert!((r.response_s - 0.03).abs() < 0.001);
    }

    #[test]
    fn bottleneck_station_dominates_queueing() {
        let net = ClosedNetwork::new(
            vec![Station::new("cpu", 0.05), Station::new("io", 0.01)],
            1.0,
        );
        let r = net.solve(200);
        assert!(r.queue_lengths[0] > 10.0 * r.queue_lengths[1]);
        assert!(r.utilizations[0] > r.utilizations[1]);
    }

    #[test]
    fn zero_population() {
        let net = single(0.05, 2.0);
        let r = net.solve(0);
        assert_eq!(r.response_s, 0.0);
        assert_eq!(r.throughput, 0.0);
    }

    #[test]
    fn utilization_scales_with_demand() {
        let slow = single(0.05, 2.0).solve(30);
        let fast = single(0.025, 2.0).solve(30);
        assert!(slow.utilizations[0] > fast.utilizations[0]);
        assert!(slow.response_s > fast.response_s);
    }

    #[test]
    fn fleet_even_split_equals_single_vm() {
        // 300 users on 3 VMs is exactly 100 users on 1 VM, three times.
        let net = single(0.016, 4.0);
        let one = net.solve(100);
        let fleet = fleet_response(&net, 300, 3, 1.0);
        assert!((fleet.mean_response_s - one.response_s).abs() < 1e-12);
        assert!((fleet.throughput - 3.0 * one.throughput).abs() < 1e-9);
    }

    #[test]
    fn fleet_uneven_split_solves_two_populations() {
        let net = single(0.016, 4.0);
        // 301 users on 3 VMs: one VM at 101, two at 100.
        let fleet = fleet_response(&net, 301, 3, 1.0);
        let lo = net.solve(100).response_s;
        let hi = net.solve(101).response_s;
        assert!(fleet.mean_response_s > lo && fleet.mean_response_s < hi + 1e-12);
        assert!((fleet.p99_response_s - hi * 100f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn more_servers_cut_response_and_utilization() {
        let net = single(0.05, 2.0);
        let tight = fleet_response(&net, 1_000, 10, 0.5);
        let roomy = fleet_response(&net, 1_000, 40, 0.5);
        assert!(roomy.mean_response_s < tight.mean_response_s);
        assert!(roomy.utilization < tight.utilization);
        assert!(roomy.slo_violation_frac <= tight.slo_violation_frac);
    }

    #[test]
    fn idle_and_tiny_fleets() {
        let net = single(0.05, 2.0);
        let idle = fleet_response(&net, 0, 5, 0.5);
        assert!((idle.mean_response_s - 0.05).abs() < 1e-12);
        assert_eq!(idle.throughput, 0.0);
        // Fewer users than servers: every user alone on a VM.
        let sparse = fleet_response(&net, 3, 5, 0.5);
        assert!((sparse.mean_response_s - 0.05).abs() < 1e-12);
    }

    #[test]
    fn capacity_tracks_the_utilization_target() {
        let net = single(0.016, 4.0);
        let cap = capacity_at_utilization(&net, 0.6);
        let at = net.solve(cap as u32).utilizations[0];
        let above = net.solve(cap as u32 + 1).utilizations[0];
        assert!(at <= 0.6, "util at cap {at}");
        assert!(above > 0.6, "util just above cap {above}");
        assert!(capacity_at_utilization(&net, 0.9) > cap);
    }
}
