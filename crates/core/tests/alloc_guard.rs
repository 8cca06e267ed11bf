//! The scheduler's per-decision work allocates nothing: a multi-region
//! run's heap allocation count does not grow with its horizon. Such a run
//! ranks every candidate market before each billing hour, so a decision
//! that allocated would cost an allocation or two per simulated hour.
//!
//! This binary holds a single test, so the counting allocator sees no
//! other test's allocations; it counts only on the thread that sets
//! `COUNTING`.

use spothost_core::{MarketScope, SchedulerConfig, SimRun};
use spothost_market::catalog::Catalog;
use spothost_market::gen::TraceSet;
use spothost_market::time::SimDuration;
use spothost_market::types::Zone;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: both methods forward their arguments to `System` unchanged, so
// `System`'s guarantees hold. Counting allocates nothing: it reads a
// const-initialised thread-local without a destructor and bumps an
// atomic. `realloc` and `alloc_zeroed` keep their default bodies, which
// call `alloc`, so every allocation is counted once.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made while one multi-region run of `days` runs.
fn allocations_of_a_run(days: u64) -> u64 {
    let cfg = SchedulerConfig::multi(MarketScope::MultiRegion(vec![
        Zone::UsEast1b,
        Zone::EuWest1a,
    ]));
    let traces = TraceSet::generate(
        &Catalog::ec2_2015(),
        &cfg.candidates(),
        3,
        SimDuration::days(days),
    );
    let run = SimRun::new(&traces, &cfg, 3);
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let report = run.run();
    COUNTING.with(|c| c.set(false));
    assert!(report.planned_migrations > 0, "the run must move markets");
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn a_multi_region_runs_allocations_do_not_grow_with_its_horizon() {
    let short = allocations_of_a_run(60);
    let long = allocations_of_a_run(120);
    eprintln!("allocations: {short} over 60 days, {long} over 120 days");
    // A growing vector of leases may double once more over the longer
    // run; one allocation per simulated day would add 60.
    assert!(
        long <= short + 8,
        "allocations grow with the horizon: {short} over 60 days, {long} over 120 days"
    );
}
