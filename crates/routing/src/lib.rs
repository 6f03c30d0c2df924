//! # ofar-routing
//!
//! The routing mechanisms of the OFAR paper (García et al., ICPP 2012)
//! as [`ofar_engine::Policy`] implementations:
//!
//! * [`MinPolicy`] — deterministic minimal routing (MIN);
//! * [`ValiantPolicy`] — Valiant randomized routing (VAL);
//! * [`PbPolicy`] — Piggybacking indirect adaptive routing (PB);
//! * [`ParPolicy`] — Progressive Adaptive Routing (PAR, extension);
//! * [`OfarPolicy`] — **On-the-Fly Adaptive Routing** (OFAR), with the
//!   `OFAR-L` dissection variant (no local misrouting).
//!
//! [`MechanismKind`] / [`Mechanism`] wrap the family behind one enum for
//! sweep harnesses.
//!
//! [`deps`] exports each mechanism's channel-dependency declaration
//! ([`DependencyDecl`]) for the static deadlock verifier (`ofar-verify`).

#![warn(missing_docs)]
// The hot-path contract, as at `ofar-engine`'s crate root (DESIGN.md §13).
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

pub mod common;
pub mod deps;
pub mod mechanism;
pub mod minimal;
pub mod ofar;
pub mod par;
pub mod pb;
pub mod probe;
pub(crate) mod state;
pub mod valiant;

pub use common::VcLadder;
pub use deps::{ClassEdge, ClassId, DependencyDecl, EdgeWhy, MechanismDeps};
pub use mechanism::{Mechanism, MechanismKind};
pub use minimal::MinPolicy;
pub use ofar::{
    MisrouteThreshold, OfarConfig, OfarPolicy, RingGuard, RING_GUARD_DEFAULT, RING_GUARD_GRACE,
};
pub use par::{par_config, ParConfig, ParPolicy};
pub use pb::{PbConfig, PbPolicy};
pub use probe::{EnumerablePolicy, ProbeFeedback, ProbePin};
pub use valiant::ValiantPolicy;
