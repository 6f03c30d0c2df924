//! # ofar-topology
//!
//! Dragonfly topology substrate for the OFAR reproduction (García et al.,
//! ICPP 2012, §I and Fig. 1).
//!
//! A Dragonfly is a two-level hierarchical direct network:
//!
//! * **Groups** of `a` routers, fully connected by *local* links (one link
//!   between every pair of routers of a group).
//! * Groups fully connected by *global* links (exactly one link between
//!   every pair of groups).
//! * Each router attaches `p` compute nodes and `h` global links.
//!
//! For the balanced, maximum-size network of the paper, `a = 2h`, `p = h`,
//! and the number of groups is `g = a·h + 1 = 2h² + 1`, giving `4h³ + 2h`
//! routers and `4h⁴ + 2h²` compute nodes with `4h − 1` ports per router.
//!
//! The global link *arrangement* follows the consecutive ("palmtree")
//! wiring of the paper's Fig. 1: router `r` of a group hosts the links to
//! the groups at offsets `r·h + 1 ..= r·h + h`. This arrangement is what
//! concentrates the misrouted traffic of the ADV+h pattern onto single
//! local links (§III), which is the phenomenon OFAR's local misrouting
//! addresses.
//!
//! The crate also builds the **Hamiltonian escape rings** used by OFAR's
//! deadlock-free escape subnetwork (§IV-C), including the edge-disjoint
//! multi-ring embedding sketched as future work in §VII.

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

pub mod divisor;
pub mod dragonfly;
pub mod ids;
pub mod params;
pub mod ring;
pub mod route;

pub use divisor::Divisor;
pub use dragonfly::{Dragonfly, GlobalLink, LinkKind};
pub use ids::{GroupId, NodeId, RouterId};
pub use params::DragonflyParams;
pub use ring::{HamiltonianRing, RingEdge};
pub use route::{MinimalHop, RoutePhase};
