//! Fleet-simulator determinism guarantees, proptest-guarded:
//!
//! (a) a fixed `(config, seed, horizon)` triple gives a byte-identical
//!     [`FleetSimReport`] on every run — field-for-field equality AND an
//!     identical rendered text block, across random autoscaler shapes,
//!     storm intensities, and scopes;
//! (b) the report is internally conserved: the fleet never exceeds its
//!     configured bounds, cost stays finite and non-negative, and the
//!     accounting integrals (offered / unserved user-seconds, violation
//!     fractions) stay inside their definitional ranges;
//! (c) the fleet replays through its columnar store: recorded into
//!     blocks small enough to split a control tick, each VM's
//!     `LeaseClosed` costs, summed in its stream order and then folded
//!     in the order the fleet finished its VMs, equal `total_cost` bit
//!     for bit (the report's own fold order, so no tolerance is needed);
//! (d) zero-intensity storms are no storms: `StormConfig::intensity(0.0)`
//!     and `StormConfig::none()` give equal reports and byte-identical
//!     store files.

use proptest::prelude::*;
use spothost_core::telemetry::{Sink, SinkFactory, TelemetryEvent};
use spothost_eventstore::{ColReader, ColumnarSink, ColumnarStore};
use spothost_faults::StormConfig;
use spothost_fleet::{run_fleet_sim, run_fleet_sim_with, FleetSimConfig, FleetSimReport};
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::types::Zone;
use spothost_workload::TrafficConfig;
use std::cell::RefCell;
use std::rc::Rc;

fn arb_config() -> impl Strategy<Value = FleetSimConfig> {
    (
        1u32..=4,                                              // min_vms
        4u32..=12,                                             // extra headroom above min
        prop_oneof![Just(5u64), Just(15u64), Just(30u64)],     // control interval minutes
        0.3f64..0.9,                                           // target utilization
        100.0f64..1500.0,                                      // base users
        prop_oneof![Just(0.0f64), Just(0.3), Just(0.8)],       // storm intensity
        prop::bool::ANY,                                       // cross-region?
        prop_oneof![Just(0.0f64), Just(1.0 / 7.0), Just(0.5)], // flashes/day
    )
        .prop_map(
            |(min_vms, headroom, tick_min, util, base, storm, multi, flash)| FleetSimConfig {
                zones: if multi {
                    vec![Zone::UsEast1a, Zone::UsWest1a]
                } else {
                    vec![Zone::UsEast1a]
                },
                storms: StormConfig::intensity(storm),
                traffic: TrafficConfig {
                    base_users: base,
                    flash_per_day: flash,
                    ..TrafficConfig::diurnal_default()
                },
                min_vms,
                max_vms: min_vms + headroom,
                control_interval: SimDuration::minutes(tick_min),
                target_utilization: util,
                ..FleetSimConfig::default()
            },
        )
}

/// The store's sinks, each noting its VM when it drops: a VM's run, and
/// so its sink, ends when the fleet finishes the VM.
struct Finishes {
    store: ColumnarStore,
    order: Rc<RefCell<Vec<u32>>>,
}

struct Tracked {
    sink: ColumnarSink,
    vm: u32,
    order: Rc<RefCell<Vec<u32>>>,
}

impl Sink for Tracked {
    const ENABLED: bool = true;

    fn emit(&mut self, at: SimTime, event: TelemetryEvent) {
        self.sink.emit(at, event);
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.order.borrow_mut().push(self.vm);
    }
}

impl SinkFactory for Finishes {
    type Sink = Tracked;

    fn make(&mut self, vm: u32) -> Tracked {
        Tracked {
            sink: self.store.make(vm),
            vm,
            order: Rc::clone(&self.order),
        }
    }
}

/// Run `cfg` recorded into an in-memory store of `block_events`-event
/// blocks: the report, the store's bytes and the VMs' finish order.
fn recorded(
    cfg: &FleetSimConfig,
    seed: u64,
    block_events: usize,
) -> (FleetSimReport, Vec<u8>, Vec<u32>) {
    let store = ColumnarStore::in_memory().with_block_events(block_events);
    let order = Rc::new(RefCell::new(Vec::new()));
    let factory = Finishes {
        store: store.clone(),
        order: Rc::clone(&order),
    };
    let report = run_fleet_sim_with(cfg, seed, SimDuration::days(2), factory);
    store.finish().expect("in-memory store cannot fail");
    let order = order.borrow().clone();
    (report, store.bytes(), order)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fixed_seed_is_byte_identical(cfg in arb_config(), seed in 0u64..1000) {
        let horizon = SimDuration::days(2);
        let a = run_fleet_sim(&cfg, seed, horizon);
        let b = run_fleet_sim(&cfg, seed, horizon);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.render(), b.render());
    }

    #[test]
    fn report_is_conserved(cfg in arb_config(), seed in 0u64..1000) {
        let report = run_fleet_sim(&cfg, seed, SimDuration::days(2));
        prop_assert!(report.total_cost.is_finite() && report.total_cost >= 0.0);
        prop_assert!(report.vm_hours >= 0.0);
        prop_assert!(report.peak_vms >= cfg.min_vms && report.peak_vms <= cfg.max_vms);
        for s in &report.samples {
            prop_assert!(s.live >= cfg.min_vms && s.live <= cfg.max_vms,
                "live {} outside [{}, {}]", s.live, cfg.min_vms, cfg.max_vms);
            prop_assert!(s.serving <= s.live);
            prop_assert!(s.utilization >= 0.0 && s.utilization <= 1.0 + 1e-9);
        }
        prop_assert!(report.unserved_user_seconds <= report.offered_user_seconds + 1e-6);
        prop_assert!((0.0..=1.0).contains(&report.slo_violation_frac));
        prop_assert!((0.0..=1.0).contains(&report.vm_unavailability));
        prop_assert!((0.0..=1.0).contains(&report.spot_fraction));
        prop_assert!((0.0..=1.0).contains(&report.service_availability()));
        // Spawn/release bookkeeping: what was spawned and not released
        // is exactly what survived to the horizon.
        prop_assert!(report.released_vms <= report.spawned_vms);
    }

    #[test]
    fn store_replays_total_cost(cfg in arb_config(), seed in 0u64..1000, block_events in 1usize..64) {
        let (report, bytes, order) = recorded(&cfg, seed, block_events);
        let reader = ColReader::from_bytes(&bytes).expect("store parses");
        prop_assert!(reader.block_count() > 1, "blocks must split the run");
        let mut per_vm = vec![0.0f64; report.spawned_vms as usize];
        for se in reader.decode_all().expect("store decodes") {
            if let TelemetryEvent::LeaseClosed { cost, .. } = se.event {
                let vm = se.vm.expect("fleet events are tagged");
                per_vm[vm as usize] += cost;
            }
        }
        prop_assert_eq!(order.len(), per_vm.len(), "every VM finishes once");
        let total = order.iter().fold(0.0f64, |sum, &vm| sum + per_vm[vm as usize]);
        prop_assert_eq!(total.to_bits(), report.total_cost.to_bits(),
            "replayed {} != reported {}", total, report.total_cost);
    }

    #[test]
    fn zero_intensity_storms_are_no_storms(cfg in arb_config(), seed in 0u64..1000, block_events in 1usize..64) {
        let calm = FleetSimConfig { storms: StormConfig::none(), ..cfg.clone() };
        let zero = FleetSimConfig { storms: StormConfig::intensity(0.0), ..cfg };
        let (calm_report, calm_bytes, _) = recorded(&calm, seed, block_events);
        let (zero_report, zero_bytes, _) = recorded(&zero, seed, block_events);
        prop_assert_eq!(calm_report, zero_report);
        prop_assert!(calm_bytes == zero_bytes, "store bytes differ");
    }
}
