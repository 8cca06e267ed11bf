//! # spothost-forecast
//!
//! Online per-market spot-price forecasting for adaptive bidding.
//!
//! The paper fixes its proactive bid multiple at k=4 by inspecting the
//! February-2015 traces by hand (§3.1, footnote 1) and ranks candidate
//! markets by current price alone. This crate learns per-market price
//! dynamics *online* — from exactly the piecewise-constant price history a
//! real scheduler could observe:
//!
//! * [`ExcursionModel`] — an excursion-frequency estimate of
//!   P(price > b within the next lookahead) for a candidate bid b, and
//!   the window's highest price. It is the one estimator the bid rule
//!   reads, and it keeps each asked bid's answer current as history is
//!   fed (the update rule is in its module docs);
//! * [`MarketForecaster`] — that model fed per market, plus the adaptive
//!   bid rule ([`MarketForecaster::decide_bid`]): the *cheapest* ladder
//!   bid whose predicted revocation probability clears a configured risk
//!   budget, clamped to the provider cap.
//!
//! [`backtest`] is a walk-forward evaluation harness (train on a trace
//! prefix, score on the suffix) reporting pinball loss and empirical
//! coverage of a [`WindowQuantile`], a duration-weighted sliding-window
//! quantile that only the backtest feeds; `spothost-bench`'s `adaptive`
//! experiment renders its summary.
//!
//! Everything here is deterministic: estimators are pure functions of the
//! fed segment sequence (no wall clock, no hashing, no RNG), so runs are
//! reproducible per seed and the workspace's byte-identity guarantees
//! extend to forecast-driven experiments.

// Library code must not unwrap (see DESIGN.md "Failure semantics").
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod backtest;
pub mod excursion;
pub mod forecaster;
pub mod quantile;

pub use backtest::{walk_forward, BacktestParams, BacktestReport, QuantileScore};
pub use excursion::ExcursionModel;
pub use forecaster::{BidDecision, ForecastParams, MarketForecaster};
pub use quantile::WindowQuantile;
