//! Live fault injection: scheduled and runtime fail-stop failures of
//! links and routers, plus the derived per-port / per-ring liveness the
//! rest of the engine consults.
//!
//! Semantics (the paper's §VII fail-stop model, at packet granularity):
//!
//! * Failing the link between routers `a` and `b` kills **every** port
//!   pair between them, both directions — the canonical local/global
//!   link and any dedicated physical-ring wire riding the same cable.
//! * Failing a router kills all of its incident links. Its nodes keep
//!   their injection queues (traffic sourced there simply cannot leave),
//!   and ejection ports never fail.
//! * In-flight phits and credits on a failing link are *not* dropped:
//!   transfers already started complete (fail-stop at packet
//!   granularity), the allocator just never grants a dead output again.
//!   This keeps phit/credit conservation intact across failures.
//! * An escape ring survives iff every edge and every router along it is
//!   alive; packets never *enter* a dead ring, and packets caught on one
//!   exit through any live canonical port (see the routing crate).

use crate::fabric::{Fabric, PortKind};
use ofar_topology::{Dragonfly, HamiltonianRing, RouterId};
use std::collections::{BTreeMap, BTreeSet};

/// One kind of fault transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the full-duplex link(s) between two adjacent routers.
    FailLink(RouterId, RouterId),
    /// Restore a previously failed link.
    RestoreLink(RouterId, RouterId),
    /// Fail a router (all incident links).
    FailRouter(RouterId),
    /// Restore a previously failed router.
    RestoreRouter(RouterId),
    /// Transient: corrupt the payload of the *next* transfer crossing the
    /// link (either direction) — CRC-detected at the receiver, nacked and
    /// retransmitted by the LLR layer. One-shot; the link stays up.
    CorruptPhit(RouterId, RouterId),
    /// Transient: drop the *next* transfer crossing the link (either
    /// direction) on the wire — recovered by the LLR retransmit timeout.
    /// One-shot; the link stays up.
    DropPhit(RouterId, RouterId),
    /// Set a per-link Bernoulli bit-error-rate override, in parts per
    /// million per phit (`1_000_000` = every phit errors). Overrides
    /// [`crate::config::SimConfig::ber`] for this link until changed;
    /// ppm keeps the variant `Eq`/hashable where an `f64` payload could
    /// not be. `0` removes the override.
    SetLinkBer(RouterId, RouterId, u32),
}

impl FaultKind {
    /// Whether this kind needs the link-level retransmission layer (it
    /// models a wire error rather than a fail-stop transition).
    #[inline]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Self::CorruptPhit(..) | Self::DropPhit(..) | Self::SetLinkBer(..)
        )
    }
}

/// A scheduled fault transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the transition takes effect (applied at the top of
    /// `Network::step` for that cycle).
    pub at: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault transitions, consumed in time order
/// by `Network::step`. Build one up-front (seeded), hand it to
/// `Network::set_fault_plan`, and identical seeds reproduce identical
/// degraded runs.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a link failure at cycle `at`.
    pub fn fail_link_at(mut self, at: u64, a: RouterId, b: RouterId) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::FailLink(a, b),
        });
        self
    }

    /// Schedule a link restoration at cycle `at`.
    pub fn restore_link_at(mut self, at: u64, a: RouterId, b: RouterId) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::RestoreLink(a, b),
        });
        self
    }

    /// Schedule a router failure at cycle `at`.
    pub fn fail_router_at(mut self, at: u64, r: RouterId) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::FailRouter(r),
        });
        self
    }

    /// Schedule a router restoration at cycle `at`.
    pub fn restore_router_at(mut self, at: u64, r: RouterId) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::RestoreRouter(r),
        });
        self
    }

    /// Schedule a transient link failure: down at `at`, back up at
    /// `at + down_for`.
    pub fn transient_link(self, at: u64, down_for: u64, a: RouterId, b: RouterId) -> Self {
        self.fail_link_at(at, a, b)
            .restore_link_at(at + down_for, a, b)
    }

    /// Schedule a one-shot payload corruption of the next transfer
    /// crossing the `a`–`b` link at or after cycle `at`.
    pub fn corrupt_phit_at(mut self, at: u64, a: RouterId, b: RouterId) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::CorruptPhit(a, b),
        });
        self
    }

    /// Schedule a one-shot wire drop of the next transfer crossing the
    /// `a`–`b` link at or after cycle `at`.
    pub fn drop_phit_at(mut self, at: u64, a: RouterId, b: RouterId) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::DropPhit(a, b),
        });
        self
    }

    /// Schedule a per-link BER override (parts per million per phit) on
    /// the `a`–`b` link from cycle `at`. `ppm = 0` clears the override.
    pub fn set_link_ber_at(mut self, at: u64, a: RouterId, b: RouterId, ppm: u32) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::SetLinkBer(a, b, ppm),
        });
        self
    }

    /// Schedule a flapping link (a failing SerDes): `count` down/up
    /// cycles of the `a`–`b` link, first going down at `first_down`,
    /// staying down `down_for` cycles, repeating every `period` cycles.
    /// Composes with the fail-stop machinery — each flap is a
    /// `FailLink`/`RestoreLink` pair, so degraded routing kicks in while
    /// the link is down and the restore path heals it.
    pub fn flap_link(
        mut self,
        a: RouterId,
        b: RouterId,
        first_down: u64,
        down_for: u64,
        period: u64,
        count: usize,
    ) -> Self {
        assert!(
            down_for < period,
            "flap must come back up within its period"
        );
        for i in 0..count as u64 {
            let at = first_down + i * period;
            self = self.transient_link(at, down_for, a, b);
        }
        self
    }

    /// True when any event models a wire error (needs the LLR layer).
    pub fn has_transient(&self) -> bool {
        self.events.iter().any(|e| e.kind.is_transient())
    }

    /// Schedule `n` distinct random global-link failures at cycle `at`,
    /// chosen deterministically from `seed`.
    pub fn random_global_failures(topo: &Dragonfly, n: usize, at: u64, seed: u64) -> Self {
        let mut plan = Self::new();
        for (a, b) in random_global_links(topo, n, seed) {
            plan = plan.fail_link_at(at, a, b);
        }
        plan
    }

    fn push(&mut self, ev: FaultEvent) {
        self.events.push(ev);
        // Keep time order; stable so same-cycle events apply in insertion
        // order (deterministic).
        self.events.sort_by_key(|e| e.at);
    }

    /// The scheduled events, in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Pick `n` distinct global links (endpoint pairs) uniformly at random
/// from `seed`, deterministically. Panics if the topology has fewer than
/// `n` global links.
pub fn random_global_links(topo: &Dragonfly, n: usize, seed: u64) -> Vec<(RouterId, RouterId)> {
    let all: Vec<(RouterId, RouterId)> = topo.global_links().map(|l| (l.src, l.dst)).collect();
    assert!(
        n <= all.len(),
        "asked for {n} failures, only {} global links",
        all.len()
    );
    // Partial Fisher–Yates with an inline splitmix64 — the engine keeps
    // no RNG dependency, and this must be reproducible from the seed
    // alone.
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut pool = all;
    let mut picked = Vec::with_capacity(n);
    for _ in 0..n {
        #[expect(clippy::cast_possible_truncation, reason = "taken modulo pool.len()")]
        let i = (next() % pool.len() as u64) as usize;
        picked.push(pool.swap_remove(i));
    }
    picked
}

/// Current liveness of every output port and escape ring, derived from
/// the set of failed links/routers. Cheap to query per cycle; recomputed
/// in full on each (rare) fault transition.
#[derive(Clone, Debug)]
pub struct FaultState {
    /// `[router × n_out]` output-port liveness.
    out_up: Vec<bool>,
    /// Per-ring liveness.
    ring_up: Vec<bool>,
    /// Failed links, endpoints in canonical (sorted) order.
    failed_links: BTreeSet<(RouterId, RouterId)>,
    /// Failed routers.
    failed_routers: BTreeSet<RouterId>,
    n_out: usize,
    /// Fast path: true when nothing has ever failed (or all is restored).
    /// Transient wire-error state deliberately does NOT clear this — a
    /// lossy link is still *routable*, so the allocator's zero-fault fast
    /// path stays valid.
    healthy: bool,
    /// Pending one-shot payload corruptions, per canonical link pair.
    pending_corrupt: BTreeMap<(RouterId, RouterId), u32>,
    /// Pending one-shot wire drops, per canonical link pair.
    pending_drop: BTreeMap<(RouterId, RouterId), u32>,
    /// Per-link BER overrides in ppm per phit, canonical link pairs.
    link_ber_ppm: BTreeMap<(RouterId, RouterId), u32>,
}

impl FaultState {
    /// All-healthy state for a fabric.
    pub fn new(fab: &Fabric) -> Self {
        let nr = fab.topo().num_routers();
        Self {
            out_up: vec![true; nr * fab.n_out()],
            ring_up: vec![true; fab.rings().len()],
            failed_links: BTreeSet::new(),
            failed_routers: BTreeSet::new(),
            n_out: fab.n_out(),
            healthy: true,
            pending_corrupt: BTreeMap::new(),
            pending_drop: BTreeMap::new(),
            link_ber_ppm: BTreeMap::new(),
        }
    }

    /// True if any fault is currently active. The zero-fault fast path —
    /// routing and allocation skip all per-port checks when this is
    /// false.
    #[inline]
    pub fn any(&self) -> bool {
        !self.healthy
    }

    /// Liveness of output `port` of `router`.
    #[inline]
    pub fn link_up(&self, router: usize, port: usize) -> bool {
        self.healthy || self.out_up[router * self.n_out + port]
    }

    /// Liveness of escape ring `j`.
    #[inline]
    pub fn ring_up(&self, j: usize) -> bool {
        self.healthy || self.ring_up[j]
    }

    /// Liveness of the topology link between adjacent routers `a`/`b`.
    pub fn topo_link_up(&self, a: RouterId, b: RouterId) -> bool {
        self.router_up(a) && self.router_up(b) && !self.failed_links.contains(&canon(a, b))
    }

    /// Liveness of a router.
    #[inline]
    pub fn router_up(&self, r: RouterId) -> bool {
        self.healthy || !self.failed_routers.contains(&r)
    }

    /// Currently failed links (canonical endpoint order, ascending).
    pub fn failed_links(&self) -> impl Iterator<Item = (RouterId, RouterId)> + '_ {
        self.failed_links.iter().copied()
    }

    /// Currently failed routers.
    pub fn failed_routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.failed_routers.iter().copied()
    }

    /// Apply one fault transition. Returns true if the fault set changed
    /// (a duplicate failure or redundant restore returns false; transient
    /// one-shots always register and always return false — they do not
    /// alter the fail-stop liveness state).
    pub fn apply(&mut self, kind: FaultKind, fab: &Fabric) -> bool {
        let changed = match kind {
            FaultKind::FailLink(a, b) => self.failed_links.insert(canon(a, b)),
            FaultKind::RestoreLink(a, b) => self.failed_links.remove(&canon(a, b)),
            FaultKind::FailRouter(r) => self.failed_routers.insert(r),
            FaultKind::RestoreRouter(r) => self.failed_routers.remove(&r),
            FaultKind::CorruptPhit(a, b) => {
                *self.pending_corrupt.entry(canon(a, b)).or_insert(0) += 1;
                false
            }
            FaultKind::DropPhit(a, b) => {
                *self.pending_drop.entry(canon(a, b)).or_insert(0) += 1;
                false
            }
            FaultKind::SetLinkBer(a, b, ppm) => {
                if ppm == 0 {
                    self.link_ber_ppm.remove(&canon(a, b));
                } else {
                    self.link_ber_ppm.insert(canon(a, b), ppm);
                }
                false
            }
        };
        if changed {
            self.recompute(fab);
        }
        changed
    }

    /// Effective per-phit error probability of the `a`–`b` link: the
    /// per-link override when one is set, else the global `default_ber`.
    #[inline]
    pub fn link_ber(&self, a: RouterId, b: RouterId, default_ber: f64) -> f64 {
        match self.link_ber_ppm.get(&canon(a, b)) {
            Some(&ppm) => f64::from(ppm) / 1e6,
            None => default_ber,
        }
    }

    /// Consume a pending one-shot wire fault on the `a`–`b` link, if any.
    /// Drops take precedence over corruptions (a lost header phit hides
    /// any payload damage).
    pub fn take_pending(&mut self, a: RouterId, b: RouterId) -> Option<crate::llr::Fate> {
        let key = canon(a, b);
        for (map, fate) in [
            (&mut self.pending_drop, crate::llr::Fate::Drop),
            (&mut self.pending_corrupt, crate::llr::Fate::Corrupt),
        ] {
            if let Some(n) = map.get_mut(&key) {
                *n -= 1;
                if *n == 0 {
                    map.remove(&key);
                }
                return Some(fate);
            }
        }
        None
    }

    /// Rebuild the derived per-port and per-ring liveness from the fault
    /// sets.
    fn recompute(&mut self, fab: &Fabric) {
        self.healthy = self.failed_links.is_empty() && self.failed_routers.is_empty();
        let nr = fab.topo().num_routers();
        for r in 0..nr {
            let rid = RouterId::from(r);
            for port in 0..self.n_out {
                let link = fab.out_link(rid, port);
                let up = match link.kind {
                    // Ejection never fails; a dead router's nodes just
                    // cannot inject (no grants at a dead router's
                    // outputs would still allow ejection, but traffic
                    // cannot reach it anyway).
                    PortKind::Node => true,
                    _ => self.topo_link_up(rid, RouterId::new(link.dst_router)),
                };
                self.out_up[r * self.n_out + port] = up;
            }
        }
        let topo = fab.topo();
        for (j, ring) in fab.rings().iter().enumerate() {
            self.ring_up[j] = ring_alive(topo, ring, self);
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint codec (see crate::snapshot)
// ---------------------------------------------------------------------

use crate::snapshot::{Dec, Enc, SnapshotError};

fn encode_pair(e: &mut Enc, (a, b): (RouterId, RouterId)) {
    e.var(a.0.into());
    e.var(b.0.into());
}

fn decode_pair(d: &mut Dec<'_>) -> Result<(RouterId, RouterId), SnapshotError> {
    Ok((RouterId::new(d.var_u32()?), RouterId::new(d.var_u32()?)))
}

/// Refuse a key of an ordered set or map that does not come strictly
/// after the one before it: the encoder writes them ascending, each
/// once, so anything else would restore to a state that saves
/// differently.
fn ascending<K: Ord + Copy>(prev: &mut Option<K>, key: K) -> Result<K, SnapshotError> {
    if prev.is_some_and(|p| key <= p) {
        return Err(SnapshotError::Malformed("fault set keys not ascending"));
    }
    *prev = Some(key);
    Ok(key)
}

/// A fault kind travels as its tag, then the one or two routers it
/// names, then (tag 6) the BER in ppm.
fn encode_kind(e: &mut Enc, kind: FaultKind) {
    let (tag, a, b, ppm) = match kind {
        FaultKind::FailLink(a, b) => (0, a, Some(b), None),
        FaultKind::RestoreLink(a, b) => (1, a, Some(b), None),
        FaultKind::FailRouter(r) => (2, r, None, None),
        FaultKind::RestoreRouter(r) => (3, r, None, None),
        FaultKind::CorruptPhit(a, b) => (4, a, Some(b), None),
        FaultKind::DropPhit(a, b) => (5, a, Some(b), None),
        FaultKind::SetLinkBer(a, b, ppm) => (6, a, Some(b), Some(ppm)),
    };
    e.u8(tag);
    e.var(a.0.into());
    if let Some(b) = b {
        e.var(b.0.into());
    }
    if let Some(ppm) = ppm {
        e.var(ppm.into());
    }
}

fn decode_kind(d: &mut Dec<'_>) -> Result<FaultKind, SnapshotError> {
    let router = |d: &mut Dec<'_>| d.var_u32().map(RouterId::new);
    // Arguments are read left to right, in wire order.
    Ok(match d.u8()? {
        0 => FaultKind::FailLink(router(d)?, router(d)?),
        1 => FaultKind::RestoreLink(router(d)?, router(d)?),
        2 => FaultKind::FailRouter(router(d)?),
        3 => FaultKind::RestoreRouter(router(d)?),
        4 => FaultKind::CorruptPhit(router(d)?, router(d)?),
        5 => FaultKind::DropPhit(router(d)?, router(d)?),
        6 => FaultKind::SetLinkBer(router(d)?, router(d)?, d.var_u32()?),
        _ => return Err(SnapshotError::Malformed("unknown fault kind")),
    })
}

impl FaultPlan {
    /// Append the remaining schedule to a checkpoint.
    pub(crate) fn snap_encode(&self, e: &mut Enc) {
        let Self { events } = self;
        e.var(events.len() as u64);
        for ev in events {
            e.var(ev.at);
            encode_kind(e, ev.kind);
        }
    }

    /// Rebuild a schedule written by [`FaultPlan::snap_encode`].
    pub(crate) fn snap_decode(d: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        // A stamp, a tag and one router.
        let n = d.len(3, "fault plan size")?;
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            let at = d.var()?;
            let kind = decode_kind(d)?;
            events.push(FaultEvent { at, kind });
        }
        Ok(Self { events })
    }
}

impl FaultState {
    /// Append the live fault sets to a checkpoint. The derived per-port
    /// and per-ring liveness is *not* written — it is a pure function of
    /// the sets and is recomputed on restore — so the two can never
    /// disagree after a round-trip. The fault sets are ordered
    /// containers, so iteration is already sorted and the byte stream is
    /// deterministic by construction.
    pub(crate) fn snap_encode(&self, e: &mut Enc) {
        let Self {
            // Derived liveness and its fast-path flag: recomputed from
            // the fault sets on restore.
            out_up: _,
            ring_up: _,
            healthy: _,
            failed_links,
            failed_routers,
            // A fabric constant: rebuilt from the topology on restore.
            n_out: _,
            pending_corrupt,
            pending_drop,
            link_ber_ppm,
        } = self;
        e.var(failed_links.len() as u64);
        for &l in failed_links {
            encode_pair(e, l);
        }
        e.var(failed_routers.len() as u64);
        for r in failed_routers {
            e.var(r.0.into());
        }
        for map in [pending_corrupt, pending_drop, link_ber_ppm] {
            e.var(map.len() as u64);
            for (&k, &v) in map {
                encode_pair(e, k);
                e.var(v.into());
            }
        }
    }

    /// Rebuild the fault state written by [`FaultState::snap_encode`],
    /// re-deriving port and ring liveness from the restored sets.
    pub(crate) fn snap_decode(d: &mut Dec<'_>, fab: &Fabric) -> Result<Self, SnapshotError> {
        let mut state = Self::new(fab);
        let n_links = d.len(2, "failed-link set size")?;
        let mut prev = None;
        for _ in 0..n_links {
            let link = ascending(&mut prev, decode_pair(d)?)?;
            state.failed_links.insert(link);
        }
        let n_routers = d.len(1, "failed-router set size")?;
        let mut prev = None;
        for _ in 0..n_routers {
            let router = ascending(&mut prev, RouterId::new(d.var_u32()?))?;
            state.failed_routers.insert(router);
        }
        for map_idx in 0..3 {
            let n = d.len(3, "transient fault map size")?;
            let mut prev = None;
            for _ in 0..n {
                let k = ascending(&mut prev, decode_pair(d)?)?;
                let v = d.var_u32()?;
                // `take_pending` removes a one-shot entry as it reaches 0.
                if map_idx < 2 && v == 0 {
                    return Err(SnapshotError::Malformed(
                        "pending one-shot fault count is zero",
                    ));
                }
                match map_idx {
                    0 => state.pending_corrupt.insert(k, v),
                    1 => state.pending_drop.insert(k, v),
                    _ => state.link_ber_ppm.insert(k, v),
                };
            }
        }
        state.recompute(fab);
        Ok(state)
    }
}

fn ring_alive(topo: &Dragonfly, ring: &HamiltonianRing, faults: &FaultState) -> bool {
    ring.edges()
        .iter()
        .all(|e| faults.topo_link_up(e.from(), e.to(topo)))
}

#[inline]
fn canon(a: RouterId, b: RouterId) -> (RouterId, RouterId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn fab() -> Fabric {
        Fabric::new(SimConfig::paper(2))
    }

    #[test]
    fn every_fault_kind_keeps_its_wire_image() {
        let (a, b) = (RouterId::new(3), RouterId::new(0x0102_0304));
        let kinds = [
            FaultKind::FailLink(a, b),
            FaultKind::RestoreLink(a, b),
            FaultKind::FailRouter(a),
            FaultKind::RestoreRouter(b),
            FaultKind::CorruptPhit(a, b),
            FaultKind::DropPhit(a, b),
            FaultKind::SetLinkBer(a, b, 77),
        ];
        let mut e = Enc::default();
        for kind in kinds {
            encode_kind(&mut e, kind);
        }
        // Routers and the BER are varints: 3 is one byte, 0x0102_0304
        // four (seven bits at a time, low first).
        let want = [
            &[0, 3, 0x84, 0x86, 0x88, 0x08][..],
            &[1, 3, 0x84, 0x86, 0x88, 0x08],
            &[2, 3],
            &[3, 0x84, 0x86, 0x88, 0x08],
            &[4, 3, 0x84, 0x86, 0x88, 0x08],
            &[5, 3, 0x84, 0x86, 0x88, 0x08],
            &[6, 3, 0x84, 0x86, 0x88, 0x08, 77],
        ]
        .concat();
        assert_eq!(e.0, want);
        let mut d = Dec::new(&want);
        for kind in kinds {
            assert_eq!(decode_kind(&mut d), Ok(kind));
        }
        assert!(d.is_empty());
        assert_eq!(
            decode_kind(&mut Dec::new(&[7, 0])),
            Err(SnapshotError::Malformed("unknown fault kind"))
        );
    }

    #[test]
    fn healthy_state_reports_everything_up() {
        let f = fab();
        let s = FaultState::new(&f);
        assert!(!s.any());
        for port in 0..f.n_out() {
            assert!(s.link_up(0, port));
        }
        assert!(s.ring_up(0));
    }

    #[test]
    fn failing_a_link_kills_both_directions() {
        let f = fab();
        let mut s = FaultState::new(&f);
        let topo = *f.topo();
        let a = RouterId::new(0);
        let b = topo.local_neighbor(a, 0);
        assert!(s.apply(FaultKind::FailLink(a, b), &f));
        assert!(s.any());
        // The out port a→b is dead, and so is b→a.
        let pa = f.local_out(0);
        assert!(!s.link_up(a.idx(), pa));
        let back = topo.local_port_to(b, a);
        assert!(!s.link_up(b.idx(), f.local_out(back)));
        // Duplicate failure is a no-op; restore brings it back.
        assert!(!s.apply(FaultKind::FailLink(b, a), &f));
        assert!(s.apply(FaultKind::RestoreLink(a, b), &f));
        assert!(!s.any());
        assert!(s.link_up(a.idx(), pa));
    }

    #[test]
    fn router_failure_kills_incident_links_but_not_ejection() {
        let f = fab();
        let mut s = FaultState::new(&f);
        let r = RouterId::new(1);
        s.apply(FaultKind::FailRouter(r), &f);
        for port in 0..f.n_out() {
            let up = s.link_up(r.idx(), port);
            match f.out_kind(port) {
                PortKind::Node => assert!(up, "ejection must stay up"),
                _ => assert!(!up, "port {port} must be dead"),
            }
        }
        // Neighbours' links toward r are dead too.
        let topo = *f.topo();
        let n = topo.local_neighbor(r, 0);
        let toward = f.local_out(topo.local_port_to(n, r));
        assert!(!s.link_up(n.idx(), toward));
    }

    #[test]
    fn ring_dies_when_an_edge_fails() {
        let f = Fabric::new(SimConfig::paper(2).with_ring(crate::config::RingMode::Embedded));
        let mut s = FaultState::new(&f);
        let ring = f.ring().expect("paper config embeds a ring");
        let e = ring.edges()[0];
        s.apply(FaultKind::FailLink(e.from(), e.to(f.topo())), &f);
        assert!(!s.ring_up(0));
    }

    #[test]
    fn random_global_links_is_deterministic_and_distinct() {
        let topo = Dragonfly::new(SimConfig::paper(2).params);
        let a = random_global_links(&topo, 5, 42);
        let b = random_global_links(&topo, 5, 42);
        assert_eq!(a, b);
        let mut set: Vec<_> = a.iter().map(|&(x, y)| canon(x, y)).collect();
        set.sort();
        set.dedup();
        assert_eq!(set.len(), 5, "picks must be distinct");
        let c = random_global_links(&topo, 5, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn transient_kinds_do_not_flip_the_healthy_fast_path() {
        let f = fab();
        let mut s = FaultState::new(&f);
        let (a, b) = (
            RouterId::new(0),
            f.topo().local_neighbor(RouterId::new(0), 0),
        );
        assert!(!s.apply(FaultKind::CorruptPhit(a, b), &f));
        assert!(!s.apply(FaultKind::SetLinkBer(a, b, 1000), &f));
        assert!(
            !s.any(),
            "transient faults must keep the fail-stop fast path"
        );
        assert!(!s.pending_corrupt.is_empty());
        assert!(s.link_up(a.idx(), f.local_out(0)));
        assert!(
            (s.link_ber(b, a, 0.0) - 1e-3).abs() < 1e-12,
            "canonical pair, either order"
        );
        assert!((s.link_ber(a, RouterId::new(99), 0.5) - 0.5).abs() < 1e-12);
        assert!(!s.apply(FaultKind::SetLinkBer(a, b, 0), &f));
        assert_eq!(s.link_ber(a, b, 0.25), 0.25, "ppm 0 clears the override");
    }

    #[test]
    fn pending_one_shots_are_consumed_drop_first() {
        let f = fab();
        let mut s = FaultState::new(&f);
        let (a, b) = (
            RouterId::new(0),
            f.topo().local_neighbor(RouterId::new(0), 0),
        );
        s.apply(FaultKind::CorruptPhit(a, b), &f);
        s.apply(FaultKind::DropPhit(b, a), &f);
        assert_eq!(s.take_pending(b, a), Some(crate::llr::Fate::Drop));
        assert_eq!(s.take_pending(a, b), Some(crate::llr::Fate::Corrupt));
        assert_eq!(s.take_pending(a, b), None);
        assert!(s.pending_corrupt.is_empty() && s.pending_drop.is_empty());
    }

    #[test]
    fn flap_link_composes_fail_restore_pairs() {
        let p = FaultPlan::new().flap_link(RouterId::new(0), RouterId::new(1), 100, 20, 50, 3);
        let times: Vec<u64> = p.events().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![100, 120, 150, 170, 200, 220]);
        assert!(matches!(p.events()[0].kind, FaultKind::FailLink(..)));
        assert!(matches!(p.events()[1].kind, FaultKind::RestoreLink(..)));
        assert!(!p.has_transient(), "flaps are fail-stop transitions");
        let q = FaultPlan::new().drop_phit_at(5, RouterId::new(0), RouterId::new(1));
        assert!(q.has_transient());
    }

    #[test]
    fn plan_events_stay_time_ordered() {
        let p = FaultPlan::new()
            .fail_link_at(50, RouterId::new(0), RouterId::new(1))
            .transient_link(10, 15, RouterId::new(2), RouterId::new(3));
        let times: Vec<u64> = p.events().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![10, 25, 50]);
    }
}
