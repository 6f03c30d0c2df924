//! The mechanisms' checkpoint state
//! ([`ofar_engine::Policy::save_state`] / `load_state`), written and read
//! through the engine's byte cursor ([`ofar_engine::snapshot::Enc`] /
//! [`Dec`]).
//!
//! The engine owns framing and checksums; a mechanism only appends its
//! raw dynamic state — the per-shard xoshiro256** streams, plus for PB
//! the broadcast-visible occupancy table. Decoding fails closed with an
//! `Err` naming the mechanism on any length or layout mismatch.

use ofar_engine::snapshot::{Dec, Enc, SnapshotError};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Per-shard RNG lanes for the parallel phases: one independent
/// xoshiro256** stream per shard, router lanes first (`0..routers`),
/// node lanes after (`routers..routers + nodes`).
///
/// A randomized decision made in `Network::step`'s `inject` or `route`
/// loop draws from the deciding shard's own lane: draws from `route` key
/// by the routing router's index, draws from `inject` by the injecting
/// node's. A single shared stream would serve the loops just as well
/// today, since they run in index order; the lanes stay because
/// removing them re-seeds every pick, and with it every table in
/// `results/` and the golden signatures (ROADMAP item 2b).
#[derive(Clone, Debug)]
pub(crate) struct RngLanes {
    /// Lane split point between router and node lanes. Config-derived
    /// (topology shape), so the codec carries only the streams.
    routers: usize,
    lanes: Vec<SmallRng>,
}

impl RngLanes {
    /// Derive `routers + nodes` independent streams from one policy
    /// seed. Lane `i` seeds from a golden-ratio stride over the base;
    /// `SmallRng::seed_from_u64` runs its own splitmix expansion on top,
    /// so adjacent lanes decorrelate.
    pub(crate) fn new(base: u64, routers: usize, nodes: usize) -> Self {
        let lanes = (0..routers + nodes)
            .map(|i| {
                SmallRng::seed_from_u64(
                    base.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(i as u64 + 1)),
                )
            })
            .collect();
        Self { routers, lanes }
    }

    /// The lane of router shard `r` (draws made from `route`).
    pub(crate) fn router(&mut self, r: usize) -> &mut SmallRng {
        &mut self.lanes[r]
    }

    /// The lane of node shard `n` (draws made from `inject`).
    pub(crate) fn node(&mut self, n: usize) -> &mut SmallRng {
        &mut self.lanes[self.routers + n]
    }

    /// Append the lane table: count header, then each lane's 256-bit
    /// state in lane-index order.
    pub(crate) fn save(&self, e: &mut Enc) {
        let Self {
            // The config-derived lane split: rebuilt by the policy
            // constructor and cross-checked against the lane count on
            // restore.
            routers: _,
            lanes,
        } = self;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "one lane per router and node of a network whose ids are u32"
        )]
        e.u32(lanes.len() as u32);
        for rng in lanes {
            e.u64s(&rng.state());
        }
    }

    /// Read a lane table of this network's shape from the cursor. `self`
    /// is the shape only and stays untouched, so a caller commits the
    /// result once the rest of its state has decoded too.
    pub(crate) fn decoded(&self, d: &mut Dec<'_>, who: &str) -> Result<Self, String> {
        let n = d.u32().map_err(named(who, "lane table"))? as usize;
        if n != self.lanes.len() {
            return Err(format!(
                "{who}: lane table has {n} streams, this network needs {}",
                self.lanes.len()
            ));
        }
        let mut lanes = Vec::with_capacity(n);
        for _ in 0..n {
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = d.u64().map_err(named(who, "lane table"))?;
            }
            lanes.push(SmallRng::from_state(s));
        }
        Ok(Self {
            routers: self.routers,
            lanes,
        })
    }

    /// The whole state is one lane table: decode it and require nothing
    /// follows.
    pub(crate) fn load(&mut self, d: &mut Dec<'_>, who: &str) -> Result<(), String> {
        let fresh = self.decoded(d, who)?;
        finish(d, who)?;
        *self = fresh;
        Ok(())
    }
}

/// Turn a cursor error into a `load_state` message naming the mechanism
/// and the table being read.
pub(crate) fn named<'a>(who: &'a str, what: &'a str) -> impl Fn(SnapshotError) -> String + 'a {
    move |e| format!("{who}: {what}: {e}")
}

/// A mechanism's state ends where its section does.
pub(crate) fn finish(d: &Dec<'_>, who: &str) -> Result<(), String> {
    if d.is_empty() {
        Ok(())
    } else {
        Err(format!("{who}: {} trailing bytes of state", d.remaining()))
    }
}
