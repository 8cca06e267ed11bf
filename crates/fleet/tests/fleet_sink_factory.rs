//! Fleet-scale telemetry plumbing: attaching a columnar sink factory to
//! [`FleetSim`] must not perturb the simulation (identical report to the
//! uninstrumented run), and the captured store must carry per-VM tagged
//! streams that demultiplex back into each VM's emission order.

use spothost_eventstore::{ColReader, ColumnarStore, EventKind, Predicate};
use spothost_fleet::sim::{run_fleet_sim, run_fleet_sim_with, FleetSimConfig};
use spothost_market::time::SimDuration;
use spothost_workload::traffic::TrafficConfig;

fn small_cfg() -> FleetSimConfig {
    FleetSimConfig {
        min_vms: 2,
        max_vms: 12,
        control_interval: SimDuration::minutes(15),
        traffic: TrafficConfig {
            base_users: 600.0,
            ..TrafficConfig::diurnal_default()
        },
        ..FleetSimConfig::default()
    }
}

#[test]
fn columnar_factory_does_not_change_the_report() {
    let cfg = small_cfg();
    let horizon = SimDuration::days(3);
    let plain = run_fleet_sim(&cfg, 21, horizon);

    let store = ColumnarStore::in_memory();
    let instrumented = run_fleet_sim_with(&cfg, 21, horizon, store.clone());
    store.finish().expect("flush");

    // The sink observes; it must never steer. Whole-report equality is
    // the same bar the determinism proptest holds two plain runs to.
    assert_eq!(plain, instrumented);
    assert!(store.events_written() > 0, "fleet run emitted nothing");
}

#[test]
fn fleet_store_demultiplexes_per_vm_streams() {
    let cfg = small_cfg();
    let horizon = SimDuration::days(3);
    let store = ColumnarStore::in_memory().with_block_events(256);
    let report = run_fleet_sim_with(&cfg, 33, horizon, store.clone());
    store.finish().expect("flush");

    let reader = ColReader::from_bytes(&store.bytes()).expect("parse");
    let vms = reader.vms();
    assert!(
        vms.len() >= cfg.min_vms as usize,
        "expected at least the floor fleet tagged: {vms:?}"
    );
    // Every stream in a fleet store is VM-tagged, and the tags are
    // exactly the spawn indices 0..spawned_vms.
    assert!(vms.iter().all(|v| v.is_some()));
    for vm in &vms {
        assert!(vm.expect("tagged") < report.spawned_vms);
    }

    // Each VM's demultiplexed stream is internally time-ordered and
    // starts with its scheduler booting (first state change).
    for vm in vms.iter().take(3) {
        let vm = vm.expect("tagged");
        let sel = reader
            .select(&Predicate::any().with_vm(vm))
            .expect("select");
        assert!(!sel.events.is_empty(), "vm{vm} stream empty");
        assert!(sel
            .events
            .windows(2)
            .all(|w| w[0].at.as_millis() <= w[1].at.as_millis()));
        assert!(sel
            .events
            .iter()
            .any(|se| se.event.kind() == EventKind::StateChange));
    }

    // A kind query across the whole fleet: every closed lease was
    // emitted by some tagged VM.
    let closed = reader
        .select(&Predicate::any().with_kind(EventKind::LeaseClosed))
        .expect("select");
    assert!(!closed.events.is_empty());
    assert!(closed.events.iter().all(|se| se.vm.is_some()));
}
