//! # ofar-engine
//!
//! A cycle-accurate network simulator for Dragonfly topologies,
//! reproducing the evaluation substrate of *On-the-Fly Adaptive Routing
//! in High-Radix Hierarchical Networks* (García et al., ICPP 2012, §V):
//!
//! * single-cycle, input-FIFO-buffered **virtual cut-through** routers;
//! * credit-based flow control in phits, whole-packet granularity;
//! * an **iterative separable batch allocator** (3 iterations) with
//!   least-recently-served arbiters, after Gupta & McKeown;
//! * per-cycle re-evaluated routing decisions at every input VC head;
//! * optional **escape subnetwork** — a physical or embedded Hamiltonian
//!   ring with bubble flow control and restricted injection (§IV-C);
//! * optional **link-level retransmission** over lossy links — CRC-32,
//!   sequence/ack replay, timeout with exponential backoff, and
//!   escalation of persistently-failing links to the §VII fail-stop
//!   machinery (see the [`llr`] module).
//!
//! The engine is routing-agnostic: mechanisms implement the
//! [`policy::Policy`] trait (see the `ofar-routing` crate for MIN,
//! Valiant, Piggybacking, PAR, OFAR and OFAR-L).
//!
//! The engine can also police its own invariants at runtime: build the
//! network with an [`Auditor`] as its [`Hooks`] parameter
//! ([`Network::with_hooks`]) — see the [`hooks`] and [`audit`] modules.

#![warn(missing_docs)]
// The hot-path contract (DESIGN.md §13): this crate runs inside
// `Network::step`, so outside tests nothing may truncate silently or
// panic without a written reason. A module `step` never enters opts out
// with one reasoned `#![allow]`; a single site with `#[expect]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod arena;
pub mod audit;
pub mod config;
pub mod crc;
pub mod fabric;
pub mod fault;
pub mod hooks;
pub mod llr;
pub mod mutation;
pub mod network;
mod occupancy;
pub mod packet;
pub mod policy;
pub mod probe;
pub mod recorder;
pub mod snapshot;
pub mod stats;
mod wheel;

pub use audit::{AuditReport, AuditViolation, Auditor};
pub use config::{ConfigError, PastLastCycle, RingMode, SimConfig, LAST_CYCLE};
pub use crc::{crc32, Crc32};
pub use fabric::{EscapeOut, Fabric, InDesc, OutLink, PortKind};
pub use fault::{random_global_links, FaultEvent, FaultKind, FaultPlan, FaultState};
pub use hooks::{Hooks, NoHooks, Phase, Tap};
pub use llr::{Fate, Llr, RxVerdict};
pub use mutation::EngineMutation;
pub use network::Network;
pub use packet::{
    Packet, Request, RequestKind, FLAG_AUX, FLAG_GLOBAL_MISROUTED, FLAG_LOCAL_MISROUTED,
    FLAG_ON_RING,
};
pub use policy::{InputCtx, NetSnapshot, Policy, RouterView};
pub use probe::{PortLoad, ViewProbe, PROBE_NOW};
pub use recorder::Recorder;
pub use snapshot::{
    config_fingerprint, diff_snapshots, peek_header, read_file, write_atomic, SectionDiff,
    SnapshotError, SnapshotHeader, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use stats::{jain_index, Stats, StatsWindow, STATS_COUNTERS};

/// A canary for each `clippy.toml` ban no crate has a live site for and
/// whose path is easy to get wrong: a typo there leaves its `#[expect]`
/// unfulfilled, which clippy reports, instead of banning nothing.
#[cfg(test)]
mod clippy_toml_canaries {
    #[test]
    fn every_ban_without_a_live_site_still_fires() {
        #[expect(clippy::disallowed_types, reason = "canary: the SystemTime ban")]
        let epoch = std::time::SystemTime::UNIX_EPOCH;
        #[expect(clippy::disallowed_methods, reason = "canary: the thread::current ban")]
        let thread = std::thread::current();
        #[expect(clippy::disallowed_types, reason = "canary: the ThreadId ban")]
        let id: std::thread::ThreadId = thread.id();
        #[expect(clippy::disallowed_macros, reason = "canary: the addr_of! ban")]
        let address = std::ptr::addr_of!(id);
        assert!(epoch.elapsed().is_ok() && !address.is_null());
    }
}
