//! # ofar-core
//!
//! The public API of the OFAR reproduction (García et al., *On-the-Fly
//! Adaptive Routing in High-Radix Hierarchical Networks*, ICPP 2012):
//! simulation configuration, experiment runners, per-figure regeneration
//! and the analytic throughput bounds of §III.
//!
//! ## Quickstart
//!
//! ```
//! use ofar_core::prelude::*;
//!
//! // A small Dragonfly (h = 2, 72 nodes) with the paper's router model.
//! let cfg = SimConfig::paper(2);
//! let point = steady_state(
//!     cfg,
//!     MechanismKind::Ofar,
//!     &TrafficSpec::adversarial(2),
//!     0.2,                       // offered load, phits/(node·cycle)
//!     SteadyOpts { warmup: 1_000, measure: 2_000 },
//!     42,
//! );
//! assert!(point.throughput > 0.15, "OFAR must sustain ADV+2 at 0.2");
//! ```
//!
//! A run is a [`Point`] — configuration, mechanism, traffic, seed,
//! tunables and [`Shape`] — and [`run::network`] is the one place its
//! network is built. It refuses a configuration that the static
//! channel-dependency-graph verifier ([`verify`]) does not certify as
//! deadlock-free, and hooks a `Recorder` beside the caller's `extra`
//! hooks, which every runner hands back with its result. To police the
//! conservation laws at runtime as well, pass the engine's `Auditor` as
//! `extra` (`burst(&point, Auditor::new())`); [`run::replay_snapshot`]
//! always does.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod env;
pub mod experiments;
pub mod golden;
pub mod overload;
pub mod run;
pub mod store;
pub mod table;
pub mod theory;

pub use checkpoint::{Checkpoint, CheckpointPolicy};
pub use experiments::{Scale, SUITE_SEED};
pub use overload::{overload_point, OverloadOpts, OverloadPoint};
pub use run::{
    burst, burst_net, derive_watchdog, load_sweep, network, replay_snapshot, steady, steady_state,
    transient, BurstResult, CycleTrace, Point, ReplayReport, RunConfig, Shape, StallKind,
    SteadyOpts, SteadyPoint, TransientBucket, TransientOpts, Tunables,
};
pub use store::{point_from_line, point_key, point_to_line, write_atomic_text, ResultStore};
pub use table::Table;

// Re-export the sub-crates so downstream users need a single dependency.
pub use ofar_engine as engine;
pub use ofar_routing as routing;
pub use ofar_topology as topology;
pub use ofar_traffic as traffic;
pub use ofar_verify as verify;

/// Everything needed for typical experiments.
pub mod prelude {
    pub use crate::checkpoint::{Checkpoint, CheckpointPolicy};
    pub use crate::experiments::{self, Scale, SUITE_SEED};
    pub use crate::overload::{overload_point, OverloadOpts, OverloadPoint};
    pub use crate::run::{
        burst, burst_net, derive_watchdog, load_sweep, network, replay_snapshot, steady,
        steady_state, transient, BurstResult, CycleTrace, Point, ReplayReport, RunConfig, Shape,
        StallKind, SteadyOpts, SteadyPoint, TransientBucket, TransientOpts, Tunables,
    };
    pub use crate::store::ResultStore;
    pub use crate::table::Table;
    pub use crate::theory;
    pub use ofar_engine::{
        jain_index, random_global_links, AuditReport, AuditViolation, Auditor, FaultKind,
        FaultPlan, Hooks, Network, NoHooks, Policy, Recorder, RingMode, SimConfig, SnapshotError,
        Stats, StatsWindow,
    };
    pub use ofar_routing::{
        DependencyDecl, Mechanism, MechanismKind, MisrouteThreshold, OfarConfig, OfarPolicy,
        PbConfig, RingGuard,
    };
    pub use ofar_topology::{
        Dragonfly, DragonflyParams, GroupId, HamiltonianRing, NodeId, RouterId,
    };
    pub use ofar_traffic::{Bernoulli, OpenLoop, TrafficGen, TrafficPattern, TrafficSpec};
    pub use ofar_verify::{
        certify, certify_cached, conformance, Certificate, ConformanceError, ConformanceReport,
        TransitionWitness, VerifyError,
    };
}
