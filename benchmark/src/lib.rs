//! # ofar-perf
//!
//! The performance benchmark of the OFAR/Dragonfly reproduction: five
//! workloads, end-to-end and per-layer metrics, and a traced run. Every
//! layer is measured from outside, by timing calls into its public
//! functions; nothing outside this directory changes. See `README.md`
//! for the workload and metric tables and how to run it.

#![warn(missing_docs)]

pub mod compare;
pub mod host;
pub mod json;
pub mod micro;
pub mod run;
pub mod slices;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
