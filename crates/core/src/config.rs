//! Scheduler configuration.

use crate::policy::BiddingPolicy;
use crate::strategy::MarketScope;
use spothost_faults::{FaultConfig, StormConfig, StormSchedule};
use spothost_market::gen::{derive_seed, TraceSet};
use spothost_market::types::MarketId;
use spothost_virt::{MechanismCombo, ParamRegime, VirtParams};

/// A complete scheduler configuration: what to bid, where, and how to
/// migrate.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// How to bid: reactive, proactive, adaptive, pure-spot, on-demand.
    pub policy: BiddingPolicy,
    /// Which markets the scheduler may place the service in.
    pub scope: MarketScope,
    /// Which migration mechanisms (checkpointing, lazy restore, live
    /// migration) the scheduler moves state with.
    pub mechanism: MechanismCombo,
    /// Typical or pessimistic virtualization timing parameters.
    pub regime: ParamRegime,
    /// Service size in capacity units (small = 1). Must be one of
    /// [`crate::capacity::SUPPORTED_UNITS`].
    pub capacity_units: u32,
    /// Hysteresis for hopping to a cheaper spot market when the current one
    /// is still below on-demand: move only if the candidate is at least
    /// this fraction cheaper. Keeps multi-market bidding from flapping.
    pub hop_margin: f64,
    /// Stability-aware bidding weight (the paper's §8 future work). When
    /// choosing which spot market to migrate to, a candidate's effective
    /// rate is inflated by `stability_weight * baseline_rate * risk`,
    /// where `risk` is the observable fraction of the trailing week the
    /// market spent above its on-demand price. Zero (the default)
    /// reproduces the paper's greedy cheapest-market bidding.
    pub stability_weight: f64,
    /// Override the regime-derived virtualization parameters (ablation
    /// studies sweep e.g. the Yank bound through this).
    pub virt_params_override: Option<VirtParams>,
    /// The paper's Figure 3 *naive approach*: ignore the revocation
    /// warning, lose all memory state, and only after termination request
    /// an on-demand replacement that boots the service from its disk
    /// volume. Exists as a measurable motivation baseline; the scheduler's
    /// mechanisms are what remove its downtime.
    pub naive_restart: bool,
    /// Injected provider/mechanism faults ([`FaultConfig::none`] by
    /// default — the all-zero plan is bit-identical to no plan at all).
    pub faults: FaultConfig,
    /// Correlated-failure storms ([`StormConfig::none`] by default — an
    /// effect-free config builds no schedule and is bit-identical to no
    /// storms at all).
    pub storms: StormConfig,
    /// One storm schedule shared by every run of this config. `None` (the
    /// default) has each run build its own from its run seed; a fleet
    /// pins one built from its fleet seed
    /// ([`with_shared_storms`](Self::with_shared_storms)) so all its
    /// services see the *same* episode timeline — storms must be
    /// correlated across the fleet, not redrawn per service. A pinned
    /// schedule must be built from `storms` over the runs' trace set.
    pub storm_schedule: Option<StormSchedule>,
}

impl SchedulerConfig {
    /// Single-market configuration sized so the service is exactly one
    /// server of that market's type — the setting of Figures 6, 7, 11.
    /// Defaults: proactive bidding, CKPT+LR (the mechanism of Figure 6,
    /// §4.2 note 3), typical parameters.
    pub fn single_market(market: MarketId) -> Self {
        SchedulerConfig {
            policy: BiddingPolicy::proactive_default(),
            scope: MarketScope::Single(market),
            mechanism: MechanismCombo::CKPT_LR,
            regime: ParamRegime::Typical,
            capacity_units: market.itype.capacity_units(),
            hop_margin: 0.25,
            stability_weight: 0.0,
            virt_params_override: None,
            naive_restart: false,
            faults: FaultConfig::none(),
            storms: StormConfig::none(),
            storm_schedule: None,
        }
    }

    /// Multi-market / multi-region configuration hosting an
    /// xlarge-equivalent service (8 units) — the setting of Figures 8, 9.
    pub fn multi(scope: MarketScope) -> Self {
        SchedulerConfig {
            policy: BiddingPolicy::proactive_default(),
            scope,
            mechanism: MechanismCombo::CKPT_LR_LIVE,
            regime: ParamRegime::Typical,
            capacity_units: 8,
            hop_margin: 0.25,
            stability_weight: 0.0,
            virt_params_override: None,
            naive_restart: false,
            faults: FaultConfig::none(),
            storms: StormConfig::none(),
            storm_schedule: None,
        }
    }

    /// Replace the bidding policy.
    pub fn with_policy(mut self, policy: BiddingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the migration mechanism combo.
    pub fn with_mechanism(mut self, mechanism: MechanismCombo) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Switch between typical and pessimistic virtualization parameters.
    pub fn with_regime(mut self, regime: ParamRegime) -> Self {
        self.regime = regime;
        self
    }

    /// Resize the hosted service (units of small servers; must be one of
    /// [`crate::capacity::SUPPORTED_UNITS`]).
    pub fn with_capacity_units(mut self, units: u32) -> Self {
        self.capacity_units = units;
        self
    }

    /// Use the naive restart-from-disk recovery of the paper's Figure 3.
    pub fn with_naive_restart(mut self) -> Self {
        self.naive_restart = true;
        self
    }

    /// Enable stability-aware market selection (see `stability_weight`).
    pub fn with_stability_weight(mut self, weight: f64) -> Self {
        self.stability_weight = weight;
        self
    }

    /// Override the virtualization timing parameters.
    pub fn with_virt_params(mut self, params: VirtParams) -> Self {
        self.virt_params_override = Some(params);
        self
    }

    /// Inject provider/mechanism faults (see `spothost-faults`).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Inject correlated-failure storms (see `spothost-faults`).
    pub fn with_storms(mut self, storms: StormConfig) -> Self {
        self.storms = storms;
        self
    }

    /// Build the storm schedule once, from `seed` over `traces`, and pin
    /// it for every run of this config (see `storm_schedule`). A fleet
    /// passes its fleet seed, so its services share one timeline whatever
    /// their run seeds. Pins nothing when `storms` has no effect; call it
    /// after [`with_storms`](Self::with_storms).
    pub fn with_shared_storms(mut self, traces: &TraceSet, seed: u64) -> Self {
        self.storm_schedule = build_storms(&self.storms, traces, seed);
        self
    }

    /// The storm schedule a run of this config over `traces` follows: the
    /// pinned one, else one built from the run seed. `None` when `storms`
    /// has no effect.
    pub(crate) fn run_storms(&self, traces: &TraceSet, seed: u64) -> Option<StormSchedule> {
        self.storm_schedule
            .clone()
            .or_else(|| build_storms(&self.storms, traces, seed))
    }

    /// The virtualization parameters this configuration runs with.
    pub fn virt_params(&self) -> VirtParams {
        self.virt_params_override
            .clone()
            .unwrap_or_else(|| VirtParams::for_regime(self.regime))
    }

    /// Check every knob is in range; returns a human-readable error
    /// naming the offending field otherwise.
    pub fn validate(&self) -> Result<(), String> {
        self.policy.validate()?;
        if !crate::capacity::SUPPORTED_UNITS.contains(&self.capacity_units) {
            return Err(format!(
                "capacity_units must be one of {:?}, got {}",
                crate::capacity::SUPPORTED_UNITS,
                self.capacity_units
            ));
        }
        self.scope.validate()?;
        if self.scope.candidates(self.capacity_units).is_empty() {
            return Err("scope has no candidate markets for this capacity".into());
        }
        if !(0.0..1.0).contains(&self.hop_margin) {
            return Err("hop_margin must lie in [0,1)".into());
        }
        if !(self.stability_weight >= 0.0 && self.stability_weight.is_finite()) {
            return Err("stability_weight must be non-negative and finite".into());
        }
        if let Some(vp) = &self.virt_params_override {
            vp.validate()?;
        }
        self.faults.validate()?;
        self.storms.validate()?;
        if let Some(schedule) = &self.storm_schedule {
            if schedule.config() != &self.storms {
                return Err("storm_schedule must be built from the storms config".into());
            }
        }
        Ok(())
    }

    /// Markets the scheduler may bid in.
    pub fn candidates(&self) -> Vec<MarketId> {
        self.scope.candidates(self.capacity_units)
    }
}

/// The storm schedule drawn from `seed` over `traces`, or `None` when
/// `storms` has no effect: an effect-free config builds nothing and so
/// advances no stream.
fn build_storms(storms: &StormConfig, traces: &TraceSet, seed: u64) -> Option<StormSchedule> {
    storms.enabled().then(|| {
        StormSchedule::new(
            storms.clone(),
            derive_seed(seed, "storms", 0),
            traces.horizon(),
            traces.spike_spans(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spothost_market::time::SimDuration;
    use spothost_market::types::{InstanceType, Zone};

    #[test]
    fn single_market_defaults() {
        let m = MarketId::new(Zone::UsEast1a, InstanceType::Large);
        let cfg = SchedulerConfig::single_market(m);
        cfg.validate().unwrap();
        assert_eq!(cfg.capacity_units, 4);
        assert_eq!(cfg.candidates(), vec![m]);
        assert_eq!(cfg.mechanism, MechanismCombo::CKPT_LR);
    }

    #[test]
    fn multi_defaults() {
        let cfg = SchedulerConfig::multi(MarketScope::MultiMarket(Zone::UsEast1b));
        cfg.validate().unwrap();
        assert_eq!(cfg.capacity_units, 8);
        assert_eq!(cfg.candidates().len(), 4);
    }

    #[test]
    fn builder_chain() {
        let m = MarketId::new(Zone::UsWest1a, InstanceType::Small);
        let cfg = SchedulerConfig::single_market(m)
            .with_policy(BiddingPolicy::Reactive)
            .with_mechanism(MechanismCombo::CKPT)
            .with_regime(ParamRegime::Pessimistic);
        assert_eq!(cfg.policy, BiddingPolicy::Reactive);
        assert_eq!(cfg.mechanism, MechanismCombo::CKPT);
        assert_eq!(cfg.regime, ParamRegime::Pessimistic);
    }

    #[test]
    fn validation_rejects_bad_capacity() {
        let cfg =
            SchedulerConfig::multi(MarketScope::MultiMarket(Zone::UsEast1a)).with_capacity_units(3);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_policy_parameters() {
        let m = MarketId::new(Zone::UsEast1a, InstanceType::Small);
        let cfg = SchedulerConfig::single_market(m)
            .with_policy(BiddingPolicy::Proactive { bid_mult: 0.25 });
        let err = cfg.validate().expect_err("bid_mult < 1");
        assert!(err.contains("bid multiple"), "{err}");
        let cfg = SchedulerConfig::single_market(m)
            .with_policy(BiddingPolicy::Adaptive { risk_budget: 2.0 });
        assert!(cfg.validate().is_err());
        let cfg = SchedulerConfig::single_market(m).with_policy(BiddingPolicy::adaptive_default());
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_rejects_empty_multi_region() {
        let cfg = SchedulerConfig::multi(MarketScope::MultiRegion(vec![]));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_a_repeated_zone() {
        // Regression: a zone listed twice used to pass, and its storm
        // edges then fired twice per episode.
        let cfg = SchedulerConfig::multi(MarketScope::MultiRegion(vec![
            Zone::UsEast1a,
            Zone::UsWest1a,
            Zone::UsEast1a,
        ]));
        let err = cfg.validate().expect_err("repeated zone");
        assert!(err.contains("us-east-1a"), "{err}");
    }

    #[test]
    fn validation_rejects_a_schedule_of_another_storm_config() {
        use spothost_market::catalog::Catalog;
        let m = MarketId::new(Zone::UsEast1a, InstanceType::Small);
        let traces = TraceSet::generate(&Catalog::ec2_2015(), &[m], 1, SimDuration::days(2));
        let cfg = SchedulerConfig::single_market(m)
            .with_storms(StormConfig::intensity(0.5))
            .with_shared_storms(&traces, 7);
        assert!(cfg.storm_schedule.is_some());
        cfg.validate().unwrap();
        let err = cfg
            .with_storms(StormConfig::intensity(0.4))
            .validate()
            .expect_err("mismatched schedule");
        assert!(err.contains("storm_schedule"), "{err}");
        // An effect-free storm config pins nothing.
        let calm = SchedulerConfig::single_market(m).with_shared_storms(&traces, 7);
        assert!(calm.storm_schedule.is_none());
    }
}
