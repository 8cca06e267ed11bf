//! One module per paper table/figure (see DESIGN.md's experiment index).

pub mod ablation;
pub mod adaptive;
pub mod cost_impact;
pub mod faults;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fleet_sim;
pub mod jobs;
pub mod naive;
pub mod stability;
pub mod storms;
pub mod tab1;
pub mod tab2;
pub mod tab3;
pub mod tab4;

use crate::settings::ExpSettings;
use spothost_analysis::mc::par_map;
use spothost_core::telemetry::Sink;
use spothost_core::SimRun;
use spothost_eventstore::ColumnarStore;
use spothost_market::catalog::Catalog;
use spothost_market::gen::TraceSet;
use spothost_market::types::MarketId;
use std::fmt;
use std::time::{Duration, Instant};

/// Every experiment, by its CLI name, with a one-line description.
pub const ALL: [(&str, &str); 23] = [
    (
        "fig1",
        "Spot price traces over a month (small & large, us-east)",
    ),
    ("tab1", "Startup time of on-demand and spot instances"),
    ("tab2", "Overhead of migration mechanisms"),
    (
        "fig6",
        "Proactive vs reactive bidding (cost, unavailability, migrations)",
    ),
    (
        "fig7",
        "Migration mechanism combinations (typical & pessimistic)",
    ),
    ("fig8", "Multi-market bidding within a zone"),
    ("fig9", "Multi-region vs single-region bidding"),
    ("fig10", "Spot price volatility by zone and size"),
    ("fig11", "Proactive vs pure-spot hosting"),
    ("tab3", "Cost/availability trade-off summary"),
    ("tab4", "Nested vs native VM I/O throughput"),
    ("fig12", "TPC-W response time under nested virtualization"),
    (
        "cost_impact",
        "Impact of nested CPU overhead on cost savings (§6.3)",
    ),
    (
        "naive",
        "MOTIVATION: Figure 3's naive recovery vs the scheduler's mechanisms",
    ),
    (
        "stability",
        "EXTENSION: stability-aware multi-region bidding (§8 future work)",
    ),
    ("ablation_bid", "ABLATION: proactive bid multiple sweep"),
    (
        "ablation_hop",
        "ABLATION: multi-market hop hysteresis sweep",
    ),
    ("ablation_yank", "ABLATION: Yank checkpoint bound sweep"),
    (
        "faults",
        "ROBUSTNESS: unavailability vs injected fault rate (four-nines break point)",
    ),
    (
        "adaptive",
        "EXTENSION: forecast-driven adaptive bidding vs reactive/proactive",
    ),
    (
        "storms",
        "ROBUSTNESS: correlated failure storms vs market diversification (four-nines break intensity)",
    ),
    (
        "fleet",
        "FLEET: autoscaled spot fleet vs static on-demand peak (cost, availability, p99)",
    ),
    (
        "jobs",
        "JOBS: deadline batch scheduling on spot with checkpoint/restart economics",
    ),
];

/// One experiment's outcome from [`run_suite`].
#[derive(Debug)]
pub struct ExpRun {
    /// The experiment's CLI name, as listed in [`ALL`].
    pub name: &'static str,
    /// The rendered report.
    pub report: String,
    /// CSV artifacts as `(file name, contents)`; empty for experiments
    /// without a tabular form.
    pub artifacts: Vec<(String, String)>,
    /// Wall time of this experiment, from its start to its report.
    pub wall: Duration,
}

/// A requested experiment name that [`ALL`] does not list.
#[derive(Debug)]
pub struct UnknownExperiment(pub String);

impl fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown experiment '{}'", self.0)
    }
}

/// Run the named experiments concurrently on the pool and return their
/// outcomes in the order named. Every name is checked before any
/// experiment starts, so an unknown name runs nothing.
///
/// Experiments share nothing but the process-global trace arena, whose
/// entries are keyed by everything that determines a trace, so a report
/// does not depend on which experiments run beside it. An experiment's
/// own sweep (`run_grid`, `par_map_chunks`) nests its pool inside this
/// one.
pub fn run_suite<S: AsRef<str>>(
    names: &[S],
    settings: &ExpSettings,
) -> Result<Vec<ExpRun>, UnknownExperiment> {
    let names = names
        .iter()
        .map(|n| {
            let n = n.as_ref();
            ALL.iter()
                .find(|(known, _)| *known == n)
                .map(|(known, _)| *known)
                .ok_or_else(|| UnknownExperiment(n.to_string()))
        })
        .collect::<Result<Vec<&'static str>, _>>()?;
    Ok(par_map(names, |name| {
        let start = Instant::now();
        let (report, artifacts) = run_with_csv(name, settings).expect("name is listed in ALL");
        ExpRun {
            name,
            report,
            artifacts,
            wall: start.elapsed(),
        }
    }))
}

/// Run one experiment and also return CSV artifacts where the experiment
/// has a natural tabular form: `(rendered text, vec of (filename, csv))`.
/// `None` for a name [`ALL`] does not list.
pub fn run_with_csv(name: &str, settings: &ExpSettings) -> Option<(String, Vec<(String, String)>)> {
    Some(match name {
        "fig6" => {
            let f = fig6::run(settings);
            (f.render(), vec![("fig6.csv".into(), f.to_csv())])
        }
        "fig7" => {
            let f = fig7::run(settings);
            (f.render(), vec![("fig7.csv".into(), f.to_csv())])
        }
        "fig8" => {
            let f = fig8::run(settings);
            (f.render(), vec![("fig8.csv".into(), f.to_csv())])
        }
        "fig9" => {
            let f = fig9::run(settings);
            (f.render(), vec![("fig9.csv".into(), f.to_csv())])
        }
        "fig10" => {
            let f = fig10::run(settings);
            (f.render(), vec![("fig10.csv".into(), f.to_csv())])
        }
        "fig11" => {
            let f = fig11::run(settings);
            (f.render(), vec![("fig11.csv".into(), f.to_csv())])
        }
        "fig12" => {
            let f = fig12::run();
            (f.render(), vec![("fig12.csv".into(), f.to_csv())])
        }
        "faults" => {
            let f = faults::run(settings);
            (f.render(), vec![("faults.csv".into(), f.to_csv())])
        }
        "adaptive" => {
            let f = adaptive::run(settings);
            (f.render(), vec![("adaptive.csv".into(), f.to_csv())])
        }
        "storms" => {
            let f = storms::run(settings);
            (f.render(), vec![("storms.csv".into(), f.to_csv())])
        }
        "fleet" => {
            let f = fleet_sim::run(settings);
            (f.render(), vec![("fleet.csv".into(), f.to_csv())])
        }
        "jobs" => {
            let f = jobs::run(settings);
            (f.render(), vec![("jobs.csv".into(), f.to_csv())])
        }
        "fig1" => (fig1::run(settings).render(), vec![]),
        "tab1" => (tab1::run(settings).render(), vec![]),
        "tab2" => (tab2::run().render(), vec![]),
        "tab3" => (tab3::run(settings).render(), vec![]),
        "tab4" => (tab4::run(settings).render(), vec![]),
        "cost_impact" => (cost_impact::run(settings).render(), vec![]),
        "naive" => (naive::run(settings).render(), vec![]),
        "stability" => (stability::run(settings).render(), vec![]),
        "ablation_bid" => (ablation::run_bid(settings).render(), vec![]),
        "ablation_hop" => (ablation::run_hop(settings).render(), vec![]),
        "ablation_yank" => (ablation::run_yank(settings).render(), vec![]),
        _ => return None,
    })
}

/// A representative scheduler configuration for an experiment, used to
/// dump one seed's telemetry event stream alongside the figures (`repro
/// --trace DIR`). `None` for analytic experiments that run no
/// simulation (or, like fig1/fig10, only analyze raw price traces).
pub fn representative_config(name: &str) -> Option<spothost_core::SchedulerConfig> {
    use spothost_core::prelude::*;
    use spothost_market::prelude::*;
    use spothost_virt::MechanismCombo;
    let small = MarketId::new(Zone::UsEast1a, InstanceType::Small);
    Some(match name {
        "fig6" => {
            SchedulerConfig::single_market(small).with_policy(BiddingPolicy::proactive_default())
        }
        "fig7" => {
            SchedulerConfig::single_market(small).with_mechanism(MechanismCombo::CKPT_LR_LIVE)
        }
        "fig8" => SchedulerConfig::multi(MarketScope::MultiMarket(Zone::UsEast1b)),
        "fig9" | "stability" => SchedulerConfig::multi(MarketScope::MultiRegion(vec![
            Zone::UsEast1b,
            Zone::EuWest1a,
        ])),
        "fig11" => SchedulerConfig::single_market(small).with_policy(BiddingPolicy::PureSpot),
        "tab3" | "cost_impact" | "ablation_bid" | "ablation_hop" | "ablation_yank" => {
            SchedulerConfig::single_market(small)
        }
        "naive" => SchedulerConfig::single_market(small)
            .with_policy(BiddingPolicy::Reactive)
            .with_naive_restart(),
        "faults" => SchedulerConfig::single_market(small)
            .with_policy(BiddingPolicy::proactive_default())
            .with_faults(FaultConfig::uniform(0.2)),
        "adaptive" => {
            SchedulerConfig::single_market(small).with_policy(BiddingPolicy::adaptive_default())
        }
        "storms" => SchedulerConfig::single_market(small)
            .with_policy(BiddingPolicy::proactive_default())
            .with_faults(FaultConfig::uniform(storms::BASE_FAULT_RATE))
            .with_storms(spothost_core::StormConfig::intensity(0.5)),
        // One of the fleet's per-VM schedulers (the fleet itself is not a
        // single SchedulerConfig).
        "fleet" => SchedulerConfig::multi(MarketScope::MultiMarket(Zone::UsEast1a)).with_storms(
            spothost_core::StormConfig::intensity(fleet_sim::STORM_INTENSITY),
        ),
        _ => return None,
    })
}

/// Run one representative seed of an experiment with its telemetry into
/// `sink`. Scheduler experiments run their [`representative_config`];
/// `jobs` runs the batch-job simulator (checkpointing rung under faults,
/// so the job lifecycle vocabulary — start/checkpoint/restart/finish —
/// all appears). `None`, running nothing, for analytic experiments.
pub fn run_representative<S: Sink>(name: &str, settings: &ExpSettings, mut sink: S) -> Option<()> {
    let generate = |markets: &[MarketId]| {
        TraceSet::generate(
            &Catalog::ec2_2015(),
            markets,
            settings.seed0,
            settings.horizon,
        )
    };
    if name == "jobs" {
        use spothost_jobs::{run_jobs_on, JobPolicy, JobsConfig, JobsScratch};
        let cfg = JobsConfig::new(JobPolicy::CheckpointSpot)
            .with_faults(spothost_faults::FaultConfig::uniform(0.1));
        let traces = generate(&[cfg.market]);
        run_jobs_on(
            &cfg,
            &traces,
            settings.seed0,
            &mut sink,
            &mut JobsScratch::new(),
        );
        return Some(());
    }
    let cfg = representative_config(name)?;
    let traces = generate(&cfg.candidates());
    SimRun::new(&traces, &cfg, settings.seed0)
        .with_sink(sink)
        .run();
    Some(())
}

/// One representative seed's full telemetry recording for an experiment
/// ([`run_representative`]), as an in-memory columnar store: `repro
/// --trace DIR` writes it out as `.col` and decodes it to JSONL.
pub fn representative_recording(name: &str, settings: &ExpSettings) -> Option<ColumnarStore> {
    let store = ColumnarStore::in_memory();
    run_representative(name, settings, store.sink())?;
    Some(store)
}
