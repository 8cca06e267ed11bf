//! # spothost-bench
//!
//! The reproduction harness: one module per table and figure of the
//! paper's evaluation, each exposing a structured result plus a rendered
//! text block. The `repro` binary drives them (`repro all`), the
//! `trajectory` binary times the suite and two simulation kernels, and
//! integration tests assert the paper's qualitative claims against the
//! structured results.

pub mod experiments;
pub mod settings;

pub use settings::ExpSettings;
