//! Hamiltonian escape rings (§IV-C, §VII).
//!
//! OFAR avoids deadlock with a deadlock-free *escape subnetwork*: a
//! Hamiltonian ring over all routers, managed with bubble flow control.
//! The ring can be **physical** (two extra ports per router) or
//! **embedded** (an extra virtual channel on the local/global links that
//! form a Hamiltonian cycle of the base topology).
//!
//! §VII sketches, as future work, that up to `h` *edge-disjoint*
//! Hamiltonian rings can be embedded for fault tolerance. This module
//! implements that embedding constructively:
//!
//! * Ring `i` steps between groups with a fixed offset taken from the
//!   block `i·h + 1 ..= i·h + h`, choosing one coprime with the number of
//!   groups so the group-level cycle is Hamiltonian. Distinct blocks use
//!   distinct global links, and since all offsets are `≤ a·h/2`, no two
//!   rings can pick the two directions of the same physical link.
//! * Inside each group, ring `i` follows the image of the classic Walecki
//!   decomposition of `K_a` (`a` even) into `a/2` edge-disjoint
//!   Hamiltonian paths, relabelled so that path `i` connects the group's
//!   ring-entry router (`a − 1 − i`) to its ring-exit router (`i`).
//!
//! Both properties (spanning cycle over real links; pairwise edge
//! disjointness) are re-checked by `validate`/tests rather than trusted.

#![allow(
    clippy::cast_possible_truncation,
    clippy::unwrap_used,
    clippy::panic,
    reason = "ring construction and validation run once per fabric, never inside `step`; a malformed ring must fail loud"
)]

use crate::dragonfly::Dragonfly;
use crate::ids::RouterId;

/// One directed step of an embedded ring: the physical output port of
/// `from` that the ring uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RingEdge {
    /// Local link: `from`'s local port `port`.
    Local {
        /// Router the edge departs from.
        from: RouterId,
        /// Local port index at `from`.
        port: usize,
    },
    /// Global link: `from`'s global port `port`.
    Global {
        /// Router the edge departs from.
        from: RouterId,
        /// Global port index at `from`.
        port: usize,
    },
}

impl RingEdge {
    /// The router this edge departs from.
    pub fn from(&self) -> RouterId {
        match *self {
            RingEdge::Local { from, .. } | RingEdge::Global { from, .. } => from,
        }
    }

    /// Resolve the router this edge arrives at.
    pub fn to(&self, topo: &Dragonfly) -> RouterId {
        match *self {
            RingEdge::Local { from, port } => topo.local_neighbor(from, port),
            RingEdge::Global { from, port } => topo.global_neighbor(from, port).0,
        }
    }

    /// A canonical undirected key for edge-disjointness checks: the two
    /// endpoint routers sorted (there is at most one local and one global
    /// link per router pair, and a local and a global link never join the
    /// same pair — local implies same group).
    fn undirected_key(&self, topo: &Dragonfly) -> (RouterId, RouterId) {
        let a = self.from();
        let b = self.to(topo);
        if a < b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

/// A Hamiltonian cycle over all routers of a Dragonfly.
#[derive(Clone, Debug)]
pub struct HamiltonianRing {
    /// Routers in ring order; `order[i]` connects to
    /// `order[(i + 1) % len]`.
    order: Vec<RouterId>,
    /// Inverse of `order`: `pos[r.idx()]` is the ring position of `r`.
    pos: Vec<u32>,
    /// `edges[i]` is the physical link from `order[i]` to the next router.
    edges: Vec<RingEdge>,
    /// Which of the `h` disjoint rings this is.
    index: usize,
}

impl HamiltonianRing {
    /// Build embedded ring `index ∈ 0 .. h` (ring 0 is the default escape
    /// ring; higher indices are the fault-tolerance extension of §VII).
    ///
    /// # Panics
    /// Panics if `index > 0` and `a` is odd (the Walecki decomposition
    /// needs an even complete graph), or if `index ≥ h`, or if no usable
    /// coprime group offset exists in the ring's offset block.
    pub fn embedded(topo: &Dragonfly, index: usize) -> Self {
        let p = *topo.params();
        let (a, h, groups) = (p.a, p.h, p.groups());
        assert!(index < h, "ring index {index} out of range (h = {h})");
        assert!(
            index == 0 || a % 2 == 0,
            "multi-ring embedding requires an even number of routers per group"
        );

        // Group-level offset: one coprime value from this ring's block.
        let offset = (index * h + 1..=index * h + h)
            .find(|&o| gcd(o, groups) == 1)
            .unwrap_or_else(|| panic!("no offset coprime with {groups} in block {index}"));
        let exit_local = (offset - 1) / h; // == index
        let exit_port = (offset - 1) % h;
        let entry_local = (groups - offset - 1) / h; // == a - 1 - index
        debug_assert_eq!(exit_local, index);
        debug_assert_eq!(entry_local, a - 1 - index);

        // In-group Hamiltonian path from `entry_local` to `exit_local`.
        let path = in_group_path(a, index);
        debug_assert_eq!(*path.first().unwrap(), entry_local);
        debug_assert_eq!(*path.last().unwrap(), exit_local);

        let n = topo.num_routers();
        let mut order = Vec::with_capacity(n);
        let mut edges = Vec::with_capacity(n);
        let mut group = 0usize;
        for _ in 0..groups {
            let g = crate::ids::GroupId::from(group);
            for (i, &local) in path.iter().enumerate() {
                let r = topo.router_at(g, local);
                order.push(r);
                if i + 1 < path.len() {
                    edges.push(RingEdge::Local {
                        from: r,
                        port: topo.local_port_to(r, topo.router_at(g, path[i + 1])),
                    });
                } else {
                    edges.push(RingEdge::Global {
                        from: r,
                        port: exit_port,
                    });
                }
            }
            group = (group + offset) % groups;
        }
        debug_assert_eq!(group, 0, "group cycle must close");

        let mut pos = vec![u32::MAX; n];
        for (i, r) in order.iter().enumerate() {
            pos[r.idx()] = i as u32;
        }
        let ring = Self {
            order,
            pos,
            edges,
            index,
        };
        debug_assert!(ring.validate(topo).is_ok());
        ring
    }

    /// Embed `k ≤ h` pairwise edge-disjoint rings.
    pub fn embed_disjoint(topo: &Dragonfly, k: usize) -> Vec<Self> {
        (0..k).map(|i| Self::embedded(topo, i)).collect()
    }

    /// Ring length (= number of routers).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the ring is empty (never true for a valid topology).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Which of the disjoint rings this is.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Routers in ring order.
    pub fn order(&self) -> &[RouterId] {
        &self.order
    }

    /// Ring position of a router.
    pub fn position_of(&self, r: RouterId) -> usize {
        self.pos[r.idx()] as usize
    }

    /// The router after `r` along the ring.
    pub fn next_router(&self, r: RouterId) -> RouterId {
        self.order[(self.position_of(r) + 1) % self.len()]
    }

    /// The physical link the ring uses to leave router `r` (embedded
    /// model only; the physical-ring model uses dedicated ports instead).
    pub fn edge_from(&self, r: RouterId) -> RingEdge {
        self.edges[self.position_of(r)]
    }

    /// All directed ring edges, in ring order.
    pub fn edges(&self) -> &[RingEdge] {
        &self.edges
    }

    /// Export the ring as directed `(from, to)` router pairs in
    /// traversal order — the raw form consumed by the CDG verifier
    /// (`ofar-verify`), which re-derives the cycle property from the
    /// pairs against the topology instead of trusting this builder.
    pub fn successor_pairs(&self, topo: &Dragonfly) -> Vec<(RouterId, RouterId)> {
        self.edges.iter().map(|e| (e.from(), e.to(topo))).collect()
    }

    /// Check that this is a spanning cycle over real links.
    pub fn validate(&self, topo: &Dragonfly) -> Result<(), String> {
        let n = topo.num_routers();
        if self.order.len() != n {
            return Err(format!("ring visits {} of {n} routers", self.order.len()));
        }
        let mut seen = vec![false; n];
        for (i, &r) in self.order.iter().enumerate() {
            if seen[r.idx()] {
                return Err(format!("router {r} visited twice"));
            }
            seen[r.idx()] = true;
            let e = self.edges[i];
            if e.from() != r {
                return Err(format!("edge {i} departs {:?}, expected {r}", e.from()));
            }
            let next = self.order[(i + 1) % n];
            if e.to(topo) != next {
                return Err(format!(
                    "edge {i} lands on {:?}, expected {next}",
                    e.to(topo)
                ));
            }
        }
        Ok(())
    }

    /// Check that a family of rings is pairwise edge-disjoint (undirected).
    pub fn pairwise_edge_disjoint(topo: &Dragonfly, rings: &[Self]) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        for ring in rings {
            for e in &ring.edges {
                if !seen.insert(e.undirected_key(topo)) {
                    return false;
                }
            }
        }
        true
    }

    /// How many of `rings` remain fully usable when the given undirected
    /// links have failed. A ring survives iff none of its edges is failed.
    /// (§VII: the escape subnetwork must stay connected, so a single
    /// failed ring edge disables that ring.)
    pub fn surviving_rings(
        topo: &Dragonfly,
        rings: &[Self],
        failed: &[(RouterId, RouterId)],
    ) -> usize {
        let failed: std::collections::BTreeSet<(RouterId, RouterId)> = failed
            .iter()
            .map(|&(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        rings
            .iter()
            .filter(|ring| {
                ring.edges
                    .iter()
                    .all(|e| !failed.contains(&e.undirected_key(topo)))
            })
            .count()
    }
}

/// Greatest common divisor (Euclid).
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Hamiltonian path of `K_a` (vertices `0 .. a`) from `a − 1 − i` to `i`.
///
/// For `i == 0` a simple explicit path is used (valid for odd `a` too).
/// For `i > 0` (even `a` only) this is the reversed, relabelled Walecki
/// path `π(P_i)`, with `π(v) = v` for `v < a/2` and `π(v) = 3a/2 − 1 − v`
/// otherwise, so distinct `i` yield pairwise edge-disjoint paths.
fn in_group_path(a: usize, i: usize) -> Vec<usize> {
    if i == 0 && a % 2 == 1 {
        // Odd-sized groups: only a single ring is supported; any
        // permutation from a − 1 to 0 works.
        let mut path: Vec<usize> = vec![a - 1];
        path.extend(1..a - 1);
        path.push(0);
        return path;
    }
    let n = a / 2;
    debug_assert!(i < n);
    // Walecki path P_i over Z_{2n}: i, i+1, i−1, i+2, i−2, …, i+n.
    let mut walecki = Vec::with_capacity(a);
    walecki.push(i);
    for t in 1..n {
        walecki.push((i + t) % a);
        walecki.push((i + a - t) % a);
    }
    walecki.push((i + n) % a);
    debug_assert_eq!(walecki.len(), a);
    // Relabel so endpoints become {i, a − 1 − i}, then reverse so the
    // path runs entry (a − 1 − i) → exit (i).
    let pi = |v: usize| if v < n { v } else { 3 * n - 1 - v };
    let mut path: Vec<usize> = walecki.into_iter().map(pi).collect();
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walecki_paths_are_hamiltonian_and_disjoint() {
        for a in [4usize, 6, 8, 12, 16] {
            let mut used = std::collections::BTreeSet::new();
            for i in 0..a / 2 {
                let path = in_group_path(a, i);
                assert_eq!(path.len(), a, "a={a} i={i}");
                assert_eq!(path[0], a - 1 - i);
                assert_eq!(path[a - 1], i);
                let mut seen = vec![false; a];
                for &v in &path {
                    assert!(!seen[v], "a={a} i={i}: vertex {v} repeated");
                    seen[v] = true;
                }
                for w in path.windows(2) {
                    let key = (w[0].min(w[1]), w[0].max(w[1]));
                    assert!(used.insert(key), "a={a} i={i}: edge {key:?} reused");
                }
            }
        }
    }

    #[test]
    fn odd_group_single_path_valid() {
        let path = in_group_path(5, 0);
        assert_eq!(path[0], 4);
        assert_eq!(*path.last().unwrap(), 0);
        let mut sorted = path.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn embedded_ring_is_valid_for_various_h() {
        for h in 2..=6 {
            let topo = Dragonfly::balanced(h);
            let ring = HamiltonianRing::embedded(&topo, 0);
            ring.validate(&topo).unwrap();
            assert_eq!(ring.len(), topo.num_routers());
        }
    }

    #[test]
    fn h_disjoint_rings_embed_for_balanced_networks() {
        for h in 2..=5 {
            let topo = Dragonfly::balanced(h);
            let rings = HamiltonianRing::embed_disjoint(&topo, h);
            assert_eq!(rings.len(), h);
            for ring in &rings {
                ring.validate(&topo).unwrap();
            }
            assert!(
                HamiltonianRing::pairwise_edge_disjoint(&topo, &rings),
                "h={h}: rings share an edge"
            );
        }
    }

    #[test]
    fn ring_navigation_roundtrips() {
        let topo = Dragonfly::balanced(3);
        let ring = HamiltonianRing::embedded(&topo, 0);
        for &r in ring.order() {
            let next = ring.next_router(r);
            assert_eq!(ring.edge_from(r).to(&topo), next);
            assert_eq!(
                (ring.position_of(r) + 1) % ring.len(),
                ring.position_of(next)
            );
        }
    }

    #[test]
    fn failures_disable_only_affected_rings() {
        let topo = Dragonfly::balanced(3);
        let rings = HamiltonianRing::embed_disjoint(&topo, 3);
        assert_eq!(HamiltonianRing::surviving_rings(&topo, &rings, &[]), 3);
        // Fail one edge of ring 1: exactly one ring dies (disjointness).
        let e = rings[1].edges()[5];
        let failed = [(e.from(), e.to(&topo))];
        assert_eq!(HamiltonianRing::surviving_rings(&topo, &rings, &failed), 2);
        // Fail an edge per ring: none survive.
        let failed: Vec<_> = rings
            .iter()
            .map(|r| {
                let e = r.edges()[0];
                (e.from(), e.to(&topo))
            })
            .collect();
        assert_eq!(HamiltonianRing::surviving_rings(&topo, &rings, &failed), 0);
    }

    #[test]
    fn duplicate_failures_count_once() {
        let topo = Dragonfly::balanced(3);
        let rings = HamiltonianRing::embed_disjoint(&topo, 3);
        let e = rings[0].edges()[2];
        let (a, b) = (e.from(), e.to(&topo));
        // the same edge reported three times kills exactly one ring
        let failed = [(a, b), (a, b), (a, b)];
        assert_eq!(HamiltonianRing::surviving_rings(&topo, &rings, &failed), 2);
    }

    #[test]
    fn either_endpoint_order_matches() {
        let topo = Dragonfly::balanced(3);
        let rings = HamiltonianRing::embed_disjoint(&topo, 3);
        let e = rings[2].edges()[7];
        let (a, b) = (e.from(), e.to(&topo));
        assert_eq!(
            HamiltonianRing::surviving_rings(&topo, &rings, &[(a, b)]),
            HamiltonianRing::surviving_rings(&topo, &rings, &[(b, a)]),
        );
        assert_eq!(
            HamiltonianRing::surviving_rings(&topo, &rings, &[(b, a)]),
            2
        );
    }

    #[test]
    fn non_ring_links_do_not_affect_survival() {
        let topo = Dragonfly::balanced(2);
        let rings = HamiltonianRing::embed_disjoint(&topo, 2);
        // collect every undirected link NOT used by any ring and fail
        // them all: every ring must survive
        let used: std::collections::BTreeSet<_> = rings
            .iter()
            .flat_map(|r| r.edges().iter().map(|e| e.undirected_key(&topo)))
            .collect();
        let mut failed = Vec::new();
        let a = topo.routers_per_group();
        for r in 0..topo.num_routers() {
            let r = RouterId::from(r);
            for p in 0..a - 1 {
                let n = topo.local_neighbor(r, p);
                if !used.contains(&(r.min(n), r.max(n))) {
                    failed.push((r, n));
                }
            }
            for k in 0..topo.params().h {
                let n = topo.global_neighbor(r, k).0;
                if !used.contains(&(r.min(n), r.max(n))) {
                    failed.push((r, n));
                }
            }
        }
        assert!(!failed.is_empty(), "some non-ring links must exist");
        assert_eq!(
            HamiltonianRing::surviving_rings(&topo, &rings, &failed),
            rings.len()
        );
    }

    #[test]
    fn pairs_that_are_not_links_are_ignored() {
        let topo = Dragonfly::balanced(2);
        let rings = HamiltonianRing::embed_disjoint(&topo, 2);
        // a cross-group pair with no global link between them (the
        // Dragonfly has one link per *group* pair, not per router pair),
        // plus a degenerate self-pair
        let x = RouterId::new(0);
        let y = (0..topo.num_routers())
            .map(RouterId::from)
            .find(|&y| {
                topo.group_of(y) != topo.group_of(x)
                    && (0..topo.params().h).all(|k| {
                        topo.global_neighbor(x, k).0 != y && topo.global_neighbor(y, k).0 != x
                    })
            })
            .expect("a non-adjacent cross-group router exists");
        let failed = [(x, y), (RouterId::new(3), RouterId::new(3))];
        assert_eq!(
            HamiltonianRing::surviving_rings(&topo, &rings, &failed),
            rings.len()
        );
    }
}
