//! The Dragonfly graph: addressing and link arrangement.

use crate::divisor::Divisor;
use crate::ids::{GroupId, NodeId, RouterId};
use crate::params::DragonflyParams;

/// Classification of a physical link (used by the simulator to size
/// buffers, pick latencies and count virtual channels, §V).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Intra-group electrical link ("LL"/"LD" in PERCS terms).
    Local,
    /// Inter-group optical link ("D" in PERCS terms).
    Global,
}

/// One endpoint-resolved global link: router `src` global port `src_port`
/// connects to router `dst` global port `dst_port`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GlobalLink {
    /// Router hosting the source end.
    pub src: RouterId,
    /// Global port index at `src`.
    pub src_port: usize,
    /// Router hosting the destination end.
    pub dst: RouterId,
    /// Global port index at `dst`.
    pub dst_port: usize,
}

/// An immutable Dragonfly topology.
///
/// All adjacency is *computed*, not stored: the palmtree arrangement is
/// closed-form, so the struct is a dozen words regardless of network
/// size and can be copied freely into simulator workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dragonfly {
    params: DragonflyParams,
    /// `a`, `p`, `h` and the group count as the divisors of the closed
    /// forms, which run for every head packet every cycle.
    a: Divisor,
    p: Divisor,
    h: Divisor,
    groups: Divisor,
}

/// A port, offset or index argument as the `u32` the ids are made of.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "ports and group offsets of a network whose ids are u32"
)]
fn narrow(n: usize) -> u32 {
    debug_assert!(n <= u32::MAX as usize);
    n as u32
}

impl Dragonfly {
    /// Build the balanced maximum-size Dragonfly for a given `h` (the
    /// paper's configuration; `h = 6` reproduces the evaluated network).
    pub fn balanced(h: usize) -> Self {
        Self::new(DragonflyParams::balanced(h))
    }

    /// Build a Dragonfly with explicit parameters.
    ///
    /// # Panics
    /// Panics if a parameter is zero or the network outgrows `u32` ids.
    pub fn new(params: DragonflyParams) -> Self {
        Self {
            params,
            a: Divisor::new(params.a),
            p: Divisor::new(params.p),
            h: Divisor::new(params.h),
            groups: Divisor::new(params.groups()),
        }
    }

    /// The sizing parameters.
    #[inline]
    pub fn params(&self) -> &DragonflyParams {
        &self.params
    }

    /// Number of groups.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.params.groups()
    }

    /// Number of routers.
    #[inline]
    pub fn num_routers(&self) -> usize {
        self.params.routers()
    }

    /// Number of compute nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.params.nodes()
    }

    /// Routers per group (`a`).
    #[inline]
    pub fn routers_per_group(&self) -> usize {
        self.params.a
    }

    /// Nodes per router (`p`).
    #[inline]
    pub fn nodes_per_router(&self) -> usize {
        self.params.p
    }

    // ----- addressing ------------------------------------------------

    /// Group that a router belongs to.
    #[inline]
    pub fn group_of(&self, r: RouterId) -> GroupId {
        GroupId::new(self.a.div(r.0))
    }

    /// Index of a router within its group (`0 .. a`).
    #[inline]
    pub fn local_index(&self, r: RouterId) -> usize {
        self.a.rem(r.0) as usize
    }

    /// Router id from (group, local index).
    #[inline]
    pub fn router_at(&self, g: GroupId, local: usize) -> RouterId {
        debug_assert!(local < self.params.a);
        RouterId::from(g.idx() * self.params.a + local)
    }

    /// Router a node is attached to.
    #[inline]
    pub fn router_of_node(&self, n: NodeId) -> RouterId {
        RouterId::new(self.p.div(n.0))
    }

    /// Group a node belongs to.
    #[inline]
    pub fn group_of_node(&self, n: NodeId) -> GroupId {
        self.group_of(self.router_of_node(n))
    }

    /// Index of a node within its router (`0 .. p`).
    #[inline]
    pub fn node_index(&self, n: NodeId) -> usize {
        self.p.rem(n.0) as usize
    }

    /// First node attached to a router; nodes of router `r` are
    /// `r·p .. r·p + p`.
    #[inline]
    pub fn first_node_of(&self, r: RouterId) -> NodeId {
        NodeId::from(r.idx() * self.params.p)
    }

    // ----- local links -----------------------------------------------

    /// Neighbor reached through local port `port ∈ 0 .. a−1` of router `r`.
    ///
    /// Local port numbering skips the router itself: port `j` of the
    /// router with local index `i` leads to local index `j` when `j < i`
    /// and `j + 1` otherwise.
    #[inline]
    pub fn local_neighbor(&self, r: RouterId, port: usize) -> RouterId {
        debug_assert!(port < self.params.a - 1);
        let me = self.local_index(r);
        let them = if port < me { port } else { port + 1 };
        self.router_at(self.group_of(r), them)
    }

    /// Local port of `r` that leads to router `to` of the same group.
    ///
    /// # Panics
    /// Panics in debug builds if the routers are not distinct members of
    /// the same group.
    #[inline]
    pub fn local_port_to(&self, r: RouterId, to: RouterId) -> usize {
        debug_assert_eq!(self.group_of(r), self.group_of(to));
        debug_assert_ne!(r, to);
        let me = self.local_index(r);
        let them = self.local_index(to);
        if them < me {
            them
        } else {
            them - 1
        }
    }

    // ----- global links (palmtree arrangement) ------------------------

    /// Group offset (1-based, mod number of groups) served by global port
    /// `k ∈ 0..h` of a router with local index `r`: `r·h + k + 1`.
    #[inline]
    fn offset_of_port(&self, local_idx: usize, k: usize) -> usize {
        local_idx * self.params.h + k + 1
    }

    /// Which (local router index, global port) of a group hosts the global
    /// link towards the group at `offset ∈ 1 .. groups`.
    #[inline]
    pub fn global_host_for_offset(&self, offset: usize) -> (usize, usize) {
        debug_assert!(offset >= 1 && offset < self.num_groups());
        let link = narrow(offset - 1);
        (self.h.div(link) as usize, self.h.rem(link) as usize)
    }

    /// Group at `offset` groups past the group of router `r`.
    #[inline]
    fn group_past(&self, r: RouterId, offset: usize) -> GroupId {
        GroupId::new(self.groups.rem(self.group_of(r).0 + narrow(offset)))
    }

    /// Fully resolve global port `k` of router `r`: the remote router and
    /// the remote global-port index.
    pub fn global_neighbor(&self, r: RouterId, k: usize) -> (RouterId, usize) {
        let d = self.offset_of_port(self.local_index(r), k);
        let dst_group = self.group_past(r, d);
        // Seen from the destination group, the same physical link has
        // offset `groups − d`.
        let (remote_local, remote_port) = self.global_host_for_offset(self.num_groups() - d);
        (self.router_at(dst_group, remote_local), remote_port)
    }

    /// The router (and its global port) of group `from` that hosts the
    /// unique global link towards group `to`.
    #[inline]
    pub fn global_link_from(&self, from: GroupId, to: GroupId) -> (RouterId, usize) {
        debug_assert_ne!(from, to);
        let d = self.groups.rem(to.0 + self.groups.get() - from.0);
        let (local, port) = self.global_host_for_offset(d as usize);
        (self.router_at(from, local), port)
    }

    /// Enumerate every global link once (with `src` in the lower-offset
    /// direction). Mostly useful for validation and wiring statistics.
    pub fn global_links(&self) -> impl Iterator<Item = GlobalLink> + '_ {
        let topo = *self;
        (0..self.num_routers()).flat_map(move |r| {
            let r = RouterId::from(r);
            (0..topo.params.h).filter_map(move |k| {
                let (dst, dst_port) = topo.global_neighbor(r, k);
                // Emit each full-duplex link once.
                (r < dst).then_some(GlobalLink {
                    src: r,
                    src_port: k,
                    dst,
                    dst_port,
                })
            })
        })
    }

    /// Minimal hop distance between two routers (0, 1, 2 or 3; the
    /// Dragonfly diameter is 3).
    pub fn min_router_hops(&self, src: RouterId, dst: RouterId) -> usize {
        if src == dst {
            return 0;
        }
        let gs = self.group_of(src);
        let gd = self.group_of(dst);
        if gs == gd {
            return 1;
        }
        let (exit, _) = self.global_link_from(gs, gd);
        let (entry, _) = self.global_link_from(gd, gs);
        let mut hops = 1; // the global hop
        if exit != src {
            hops += 1;
        }
        if entry != dst {
            hops += 1;
        }
        hops
    }

    /// Classify the direct link between two routers, if one exists:
    /// routers of the same group are joined by exactly one local link,
    /// and a router pair of different groups by at most one global link.
    /// Used by the CDG verifier to check that every declared ring edge is
    /// a real wire.
    pub fn link_between(&self, a: RouterId, b: RouterId) -> Option<LinkKind> {
        if a == b {
            return None;
        }
        if self.group_of(a) == self.group_of(b) {
            return Some(LinkKind::Local);
        }
        (0..self.params.h)
            .any(|k| self.global_neighbor(a, k).0 == b)
            .then_some(LinkKind::Global)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_h() -> impl Iterator<Item = usize> {
        1..=6
    }

    #[test]
    fn local_ports_form_complete_graph() {
        let topo = Dragonfly::balanced(3);
        let a = topo.routers_per_group();
        for g in 0..topo.num_groups() {
            for i in 0..a {
                let r = topo.router_at(GroupId::from(g), i);
                let mut seen = vec![false; a];
                for port in 0..a - 1 {
                    let n = topo.local_neighbor(r, port);
                    assert_eq!(topo.group_of(n).idx(), g);
                    assert_ne!(n, r);
                    assert!(!seen[topo.local_index(n)], "duplicate local neighbor");
                    seen[topo.local_index(n)] = true;
                    // port mapping is its own inverse through the pair
                    assert_eq!(topo.local_port_to(r, n), port);
                    let back = topo.local_port_to(n, r);
                    assert_eq!(topo.local_neighbor(n, back), r);
                }
            }
        }
    }

    #[test]
    fn exactly_one_global_link_per_group_pair() {
        for h in all_h() {
            let topo = Dragonfly::balanced(h);
            let groups = topo.num_groups();
            let mut count = vec![0u32; groups * groups];
            for link in topo.global_links() {
                let gs = topo.group_of(link.src).idx();
                let gd = topo.group_of(link.dst).idx();
                assert_ne!(gs, gd, "global link inside a group");
                count[gs * groups + gd] += 1;
                count[gd * groups + gs] += 1;
            }
            for s in 0..groups {
                for d in 0..groups {
                    let expect = u32::from(s != d);
                    assert_eq!(
                        count[s * groups + d],
                        expect,
                        "h={h}: groups {s}->{d} must have exactly {expect} link(s)"
                    );
                }
            }
        }
    }

    #[test]
    fn global_wiring_is_symmetric() {
        for h in all_h() {
            let topo = Dragonfly::balanced(h);
            for r in 0..topo.num_routers() {
                let r = RouterId::from(r);
                for k in 0..h {
                    let (n, back) = topo.global_neighbor(r, k);
                    let (rr, kk) = topo.global_neighbor(n, back);
                    assert_eq!((rr, kk), (r, k), "h={h}: link {r}:{k} not symmetric");
                }
            }
        }
    }

    #[test]
    fn global_link_from_agrees_with_ports() {
        let topo = Dragonfly::balanced(4);
        for from in 0..topo.num_groups() {
            for to in 0..topo.num_groups() {
                if from == to {
                    continue;
                }
                let (router, port) = topo.global_link_from(GroupId::from(from), GroupId::from(to));
                assert_eq!(topo.group_of(router).idx(), from);
                assert_eq!(
                    topo.group_of(topo.global_neighbor(router, port).0).idx(),
                    to
                );
            }
        }
    }

    #[test]
    fn consecutive_offsets_share_a_router() {
        // The palmtree property behind the ADV+h pathology (§III): the h
        // links with offsets r·h+1..r·h+h all live on the same router.
        let topo = Dragonfly::balanced(6);
        let h = 6;
        let g = GroupId::new(10);
        for r in 0..topo.routers_per_group() {
            let mut hosts = Vec::new();
            for d in r * h + 1..=r * h + h {
                let to = GroupId::from((g.idx() + d) % topo.num_groups());
                let (router, _) = topo.global_link_from(g, to);
                hosts.push(router);
            }
            assert!(hosts.windows(2).all(|w| w[0] == w[1]));
            assert_eq!(topo.local_index(hosts[0]), r);
        }
    }

    #[test]
    fn diameter_is_three() {
        let topo = Dragonfly::balanced(2);
        let mut max = 0;
        for s in 0..topo.num_routers() {
            for d in 0..topo.num_routers() {
                max = max.max(topo.min_router_hops(RouterId::from(s), RouterId::from(d)));
            }
        }
        assert_eq!(max, 3);
    }

    /// The closed forms against their definitions written out with `/`
    /// and `%`: every router, node and ordered group pair of the
    /// balanced networks up to h = 8 and of one unbalanced one.
    #[test]
    fn addressing_equals_the_written_out_quotients() {
        let unbalanced = Dragonfly::new(DragonflyParams::new(3, 5, 2));
        for topo in (1..=8).map(Dragonfly::balanced).chain([unbalanced]) {
            let DragonflyParams { p, a, h } = *topo.params();
            let groups = a * h + 1;
            assert_eq!(topo.num_groups(), groups);
            for r in 0..topo.num_routers() {
                let rid = RouterId::from(r);
                assert_eq!(topo.group_of(rid).idx(), r / a);
                assert_eq!(topo.local_index(rid), r % a);
                for k in 0..h {
                    let d = (r % a) * h + k + 1;
                    let to = (r / a + d) % groups;
                    assert_eq!(topo.group_of(topo.global_neighbor(rid, k).0).idx(), to);
                    // Seen from `to`, the same link has offset `groups − d`.
                    let back = groups - d - 1;
                    assert_eq!(
                        topo.global_neighbor(rid, k),
                        (RouterId::from(to * a + back / h), back % h),
                        "{topo:?} {rid}:{k}"
                    );
                }
            }
            for n in 0..topo.num_nodes() {
                let nid = NodeId::from(n);
                assert_eq!(topo.router_of_node(nid).idx(), n / p);
                assert_eq!(topo.node_index(nid), n % p);
                assert_eq!(topo.group_of_node(nid).idx(), n / p / a);
            }
            for from in 0..groups {
                for to in (0..groups).filter(|&to| to != from) {
                    let d = (to + groups - from) % groups;
                    let host = ((d - 1) / h, (d - 1) % h);
                    assert_eq!(topo.global_host_for_offset(d), host);
                    assert_eq!(
                        topo.global_link_from(GroupId::from(from), GroupId::from(to)),
                        (RouterId::from(from * a + host.0), host.1),
                        "{topo:?} {from}->{to}"
                    );
                }
            }
        }
    }

    #[test]
    fn node_addressing_roundtrips() {
        let topo = Dragonfly::balanced(3);
        for n in 0..topo.num_nodes() {
            let n = NodeId::from(n);
            let r = topo.router_of_node(n);
            let base = topo.first_node_of(r);
            assert_eq!(base.idx() + topo.node_index(n), n.idx());
            assert!(topo.node_index(n) < topo.nodes_per_router());
        }
    }
}
