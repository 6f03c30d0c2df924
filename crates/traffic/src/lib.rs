//! # ofar-traffic
//!
//! Synthetic traffic generation for the OFAR evaluation (§V):
//!
//! * **UN** — uniform random: destination uniform over all nodes
//!   (including the source group, excluding the source node itself);
//! * **ADV+N** — adversarial: destination uniform over the nodes of
//!   group `i + N` for a source in group `i`. `ADV+1` stresses local
//!   links least; `ADV+n·h` concentrates the Valiant `l₂` hop on single
//!   local links and is the worst case of §III;
//! * **mixes** — weighted combinations (the paper's MIX1/2/3 blend UN,
//!   ADV+1 and ADV+h at 80/10/10, 60/20/20 and 20/40/40);
//! * **Bernoulli injection** at a configurable load in
//!   phits/(node·cycle), and fixed-size **bursts** (§VI-C);
//! * **halo-exchange stencils** with sequential or randomized task
//!   mapping — the near-neighbor application workload the paper's
//!   introduction motivates with (Bhatele et al.).
//!
//! The crate is engine-agnostic: generators yield `(src, dst)` pairs and
//! the experiment harness feeds them to the simulator.

#![warn(missing_docs)]

pub mod pattern;
pub mod stencil;

pub use pattern::{Bernoulli, OpenLoop, TrafficGen, TrafficPattern, TrafficSpec};
pub use stencil::{StencilTraffic, TaskMapping};
