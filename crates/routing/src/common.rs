//! Helpers shared by every routing mechanism: minimal-path requests and
//! the position-indexed virtual-channel ladder.

use ofar_engine::{Packet, Request, RequestKind, RouterView};
use ofar_topology::MinimalHop;

/// Where the current router sits along the packet's journey. Destination
/// takes precedence (intra-group traffic counts as being at the
/// destination).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupPos {
    /// The packet is in its source group.
    Source,
    /// The packet is in an intermediate (Valiant or misrouted-into)
    /// group.
    Intermediate,
    /// The packet is in its destination group.
    Destination,
}

/// Classify the current router for `pkt`.
#[inline]
pub fn group_pos(view: &RouterView<'_>, pkt: &Packet) -> GroupPos {
    let topo = view.fab.topo();
    let here = view.group();
    if here == topo.group_of_node(pkt.dst) {
        GroupPos::Destination
    } else if here == topo.group_of_node(pkt.src) {
        GroupPos::Source
    } else {
        GroupPos::Intermediate
    }
}

/// Position-indexed VC assignment (§I of the paper).
///
/// Local links are visited on odd hops of the canonical
/// `l₁ g₁ l₂ g₂ l₃` Valiant template and global links on even hops, so
/// 3 local + 2 global VCs suffice; shorter paths "skip indexes
/// corresponding to missing hops". Assigning by *position* (which group
/// the packet is in) rather than by hop count realizes exactly that
/// skipping: a packet injected at its group's exit router still uses the
/// intermediate-group VC for `l₂`, keeping the ladder ascending along
/// every possible path and the channel-dependency graph acyclic:
///
/// `l(src, 0) → g(src, 0) → l(inter, 1) → g(inter, 1) → l(dst, last)`.
///
/// The source group gets `vcs_local − 2` local VCs (normally one; PAR's
/// fourth VC makes it two so its second source-group hop stays ordered),
/// the intermediate group the next one, and the destination group the
/// last one.
///
/// OFAR does not rely on VC order for deadlock freedom (the escape ring
/// does that) and uses the same mapping purely to reduce head-of-line
/// blocking.
#[derive(Clone, Copy, Debug)]
pub struct VcLadder {
    /// VCs available on local links.
    pub vcs_local: usize,
    /// VCs available on global links.
    pub vcs_global: usize,
}

impl VcLadder {
    /// Build for the configured VC counts.
    pub fn new(vcs_local: usize, vcs_global: usize) -> Self {
        assert!(vcs_local >= 1 && vcs_global >= 1);
        Self {
            vcs_local,
            vcs_global,
        }
    }

    /// Local VCs reserved for source-group hops.
    #[inline]
    fn source_budget(&self) -> usize {
        self.vcs_local.saturating_sub(2).max(1)
    }

    /// VC for the next *local* hop of `pkt` at group position `pos`.
    #[inline]
    pub fn local_vc(&self, pkt: &Packet, pos: GroupPos) -> usize {
        let budget = self.source_budget();
        match pos {
            GroupPos::Source => (pkt.local_hops as usize).min(budget - 1),
            GroupPos::Intermediate => budget.min(self.vcs_local - 1),
            GroupPos::Destination => self.vcs_local - 1,
        }
    }

    /// VC for the next *global* hop of `pkt` at group position `pos`.
    #[inline]
    pub fn global_vc(&self, pos: GroupPos) -> usize {
        match pos {
            GroupPos::Source => 0,
            _ => 1.min(self.vcs_global - 1),
        }
    }
}

/// The minimal next hop of `pkt` from the router of `view`, honoring a
/// pending Valiant intermediate group if the packet carries one.
#[inline]
pub fn current_minimal_hop(view: &RouterView<'_>, pkt: &Packet) -> MinimalHop {
    let topo = view.fab.topo();
    if let Some(inter) = pkt.intermediate {
        if let Some(hop) = topo.hop_toward_group(view.router, inter) {
            return hop;
        }
        // Arrival bookkeeping clears reached intermediates; fall through
        // to the destination route defensively.
    }
    topo.minimal_hop_to_node(view.router, pkt.dst)
}

/// The minimal next hop over *surviving* links only: equals
/// [`current_minimal_hop`] on a healthy network (zero-cost fast path),
/// detours dead local links within their group, and returns `None` when
/// the minimal direction is severed — its one global link is down, or
/// the destination is unreachable. Mechanisms decide what to do with
/// `None`: adaptive ones divert through another group, oblivious ones
/// wait (and the run watchdog reports the partition).
#[inline]
pub fn live_minimal_hop(view: &RouterView<'_>, pkt: &Packet) -> Option<MinimalHop> {
    if !view.faults().any() {
        return Some(current_minimal_hop(view, pkt));
    }
    let topo = view.fab.topo();
    let faults = view.faults();
    let dead = |a: ofar_topology::RouterId, b: ofar_topology::RouterId| !faults.topo_link_up(a, b);
    if let Some(inter) = pkt.intermediate {
        if view.group() != inter {
            return topo.hop_toward_group_avoiding(view.router, inter, &dead);
        }
    }
    topo.minimal_hop_to_node_avoiding(view.router, pkt.dst, &dead)
}

/// Translate a [`MinimalHop`] into a concrete allocator request, using
/// `ladder` for the VC choice.
#[inline]
pub fn hop_to_request(
    view: &RouterView<'_>,
    pkt: &Packet,
    hop: MinimalHop,
    ladder: &VcLadder,
    kind: RequestKind,
) -> Request {
    let fab = view.fab;
    match hop {
        MinimalHop::Eject { node } => Request::new(fab.eject_out(node), 0, RequestKind::Eject),
        MinimalHop::Local { port } => {
            let pos = group_pos(view, pkt);
            Request::new(fab.local_out(port), ladder.local_vc(pkt, pos), kind)
        }
        MinimalHop::Global { port } => {
            let pos = group_pos(view, pkt);
            Request::new(fab.global_out(port), ladder.global_vc(pos), kind)
        }
    }
}

/// Injection-VC choice shared by all mechanisms: spread packets over the
/// injection VCs round-robin by id, purely to reduce head-of-line
/// blocking at the source.
#[inline]
#[expect(clippy::cast_possible_truncation, reason = "modulo vcs_injection")]
pub fn injection_vc(vcs_injection: usize, pkt: &Packet) -> usize {
    (pkt.id % vcs_injection as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(local_hops: u8, global_hops: u8) -> Packet {
        Packet {
            id: 0,
            injected_at: 0,
            src: ofar_topology::NodeId::new(0),
            dst: ofar_topology::NodeId::new(1),
            intermediate: None,
            flags: 0,
            ring_exits_left: 0,
            local_hops,
            global_hops,
            ring_hops: 0,
            wait: 0,
            cur_group: ofar_topology::GroupId::new(0),
        }
    }

    #[test]
    fn ladder_matches_paper_vc_plan() {
        let l = VcLadder::new(3, 2);
        // l1 (source) → 0, l2 (intermediate) → 1, l3 (dest) → 2
        assert_eq!(l.local_vc(&pkt(0, 0), GroupPos::Source), 0);
        assert_eq!(l.local_vc(&pkt(0, 1), GroupPos::Intermediate), 1);
        assert_eq!(l.local_vc(&pkt(1, 2), GroupPos::Destination), 2);
        // index skipping: a packet injected at the exit router (no l1)
        // still gets VC 1 in the intermediate group and VC 2 at the
        // destination — position decides, not hop count.
        assert_eq!(l.local_vc(&pkt(0, 1), GroupPos::Intermediate), 1);
        assert_eq!(l.local_vc(&pkt(0, 1), GroupPos::Destination), 2);
        // g1 → 0, g2 → 1
        assert_eq!(l.global_vc(GroupPos::Source), 0);
        assert_eq!(l.global_vc(GroupPos::Intermediate), 1);
    }

    #[test]
    fn ladder_is_strictly_ascending_along_any_path() {
        // Deadlock-freedom argument: the (class, vc) pairs in path order
        // must be strictly increasing in the l0 < g0 < l1 < g1 < l2
        // ordering for every mechanism path shape.
        let l = VcLadder::new(3, 2);
        let rank_local = |vc: usize| 2 * vc; // l(vc) ranks 0, 2, 4
        let rank_global = |vc: usize| 2 * vc + 1; // g(vc) ranks 1, 3
                                                  // Valiant l-g-l-g-l
        let path = [
            rank_local(l.local_vc(&pkt(0, 0), GroupPos::Source)),
            rank_global(l.global_vc(GroupPos::Source)),
            rank_local(l.local_vc(&pkt(1, 1), GroupPos::Intermediate)),
            rank_global(l.global_vc(GroupPos::Intermediate)),
            rank_local(l.local_vc(&pkt(2, 2), GroupPos::Destination)),
        ];
        assert!(path.windows(2).all(|w| w[0] < w[1]), "VAL path {path:?}");
        // minimal l-g-l (skipping the intermediate indexes)
        let min_path = [
            rank_local(l.local_vc(&pkt(0, 0), GroupPos::Source)),
            rank_global(l.global_vc(GroupPos::Source)),
            rank_local(l.local_vc(&pkt(1, 1), GroupPos::Destination)),
        ];
        assert!(min_path.windows(2).all(|w| w[0] < w[1]));
        // Valiant with skipped l1: g-l-g-l
        let skip = [
            rank_global(l.global_vc(GroupPos::Source)),
            rank_local(l.local_vc(&pkt(0, 1), GroupPos::Intermediate)),
            rank_global(l.global_vc(GroupPos::Intermediate)),
            rank_local(l.local_vc(&pkt(1, 2), GroupPos::Destination)),
        ];
        assert!(skip.windows(2).all(|w| w[0] < w[1]), "skip path {skip:?}");
    }

    #[test]
    fn par_ladder_orders_two_source_hops() {
        let l = VcLadder::new(4, 2);
        assert_eq!(l.local_vc(&pkt(0, 0), GroupPos::Source), 0);
        assert_eq!(l.local_vc(&pkt(1, 0), GroupPos::Source), 1);
        assert_eq!(l.local_vc(&pkt(2, 1), GroupPos::Intermediate), 2);
        assert_eq!(l.local_vc(&pkt(3, 2), GroupPos::Destination), 3);
    }

    #[test]
    fn reduced_vc_ladders_stay_in_range() {
        // Fig. 9 config: 2 local, 1 global VCs.
        let l = VcLadder::new(2, 1);
        for pos in [
            GroupPos::Source,
            GroupPos::Intermediate,
            GroupPos::Destination,
        ] {
            for lh in 0..8 {
                assert!(l.local_vc(&pkt(lh, 0), pos) < 2);
            }
            assert_eq!(l.global_vc(pos), 0);
        }
        let single = VcLadder::new(1, 1);
        for pos in [
            GroupPos::Source,
            GroupPos::Intermediate,
            GroupPos::Destination,
        ] {
            assert_eq!(single.local_vc(&pkt(3, 0), pos), 0);
        }
    }

    #[test]
    fn injection_vc_spreads() {
        let mut p = pkt(0, 0);
        let mut seen = [false; 3];
        for id in 0..9 {
            p.id = id;
            seen[injection_vc(3, &p)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
