//! # exspan-bench
//!
//! The experiment harness that regenerates every figure of the ExSPAN
//! evaluation (paper §7).  Each `figure*` function returns the data series of
//! one figure; the `figures` binary prints them (and the paper's expected
//! shape) and EXPERIMENTS.md records a reference run.

pub mod experiments;
pub mod report;

pub use experiments::*;
pub use report::{BenchReport, BenchSeries, FigureReport, Series};
