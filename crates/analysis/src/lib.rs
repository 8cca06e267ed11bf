//! # spothost-analysis
//!
//! Statistics, Monte-Carlo execution, table/CSV rendering and report
//! output shared by the `spothost` experiment harness and CLI. Keeps the
//! experiment code (one module per paper table/figure in
//! `spothost-bench`) free of formatting and aggregation boilerplate.

// Library code must not unwrap (see DESIGN.md "Failure semantics").
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod hist;
pub mod mc;
pub mod series;
pub mod stats;
pub mod stdout;
pub mod table;

pub use hist::FixedHistogram;
pub use mc::{mc_run, Summary};
pub use series::{LabeledSeries, SeriesSet};
pub use stats::{empirical_coverage, mean, mean_std, percentile, pinball_loss, std_dev};
pub use table::TextTable;
