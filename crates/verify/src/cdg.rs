//! The concrete channel-dependency graph, read in place, and its cycle
//! analysis.
//!
//! Channels are grouped into `(landing router, class)` vertices: every
//! concrete channel that lands at router `v` on class `A` has exactly
//! the same outgoing dependencies (the channels departing `v` on the
//! declared successor classes), so a cycle exists among the grouped
//! vertices **iff** one exists among the raw channels — the grouping is
//! an exact quotient, not an approximation. This keeps the graph at
//! `routers × classes` vertices instead of `routers × ports × VCs`.
//!
//! The graph is never built. A vertex's successors are each successor
//! class of its own class, in declaration order, times its router's
//! neighbours over that class's link kind, read from two flat neighbour
//! tables. One iterative Tarjan pass finds the strongly-connected
//! components, and a witness cycle is drawn only for the refusal that
//! names one. `referee` (tests only) is the same analysis over the
//! materialized graph, and the tests hold the two equal.

use crate::report::{ChannelRef, VerifyError};
use ofar_routing::{ClassId, MechanismDeps};
use ofar_topology::{Dragonfly, RouterId};
use std::collections::VecDeque;

#[cfg(test)]
mod referee;

/// What the canonical subgraph adds to a granted certificate.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Drained {
    /// Cyclic strongly-connected components (each drained into the
    /// escape layer when there are any).
    pub cycles: usize,
    /// Concrete channel-to-channel dependencies.
    pub dependencies: usize,
}

/// Discharge the canonical obligation of `decl` over `topo` with `vl`
/// local and `vg` global VCs: a ladder mechanism's graph must be
/// acyclic ([`VerifyError::DependencyCycle`]), and every class on a
/// cycle of an escape mechanism's graph must drain into the escape
/// layer ([`VerifyError::NoEscapeDrain`]).
pub(crate) fn check(
    topo: &Dragonfly,
    vl: usize,
    vg: usize,
    decl: &MechanismDeps,
) -> Result<Drained, VerifyError> {
    let graph = Cdg::new(topo, vl, vg, decl);
    let sccs = graph.components();
    if !decl.uses_escape {
        if let Some(scc) = sccs.cyclic.first() {
            return Err(VerifyError::DependencyCycle {
                mechanism: decl.mechanism,
                cycle: graph.cycle_from(scc.first, &sccs.id),
            });
        }
    } else {
        // Duato drain: every class inside a cycle must be able to leave
        // the cyclic dependency in one transition into the (acyclic +
        // bubble-protected) escape layer.
        for scc in &sccs.cyclic {
            for &class in &scc.classes {
                if !decl.drains_to_escape(class) {
                    return Err(VerifyError::NoEscapeDrain {
                        mechanism: decl.mechanism,
                        class,
                        cycle: graph.cycle_through(&sccs, scc, class),
                    });
                }
            }
        }
    }
    Ok(Drained {
        cycles: sccs.cyclic.len(),
        dependencies: graph.concrete_dependencies(),
    })
}

/// "No index yet" / "no component yet".
const NONE: u32 = u32::MAX;

/// The quotient dependency graph of one declaration over one topology,
/// as the tables its successors are read from.
struct Cdg {
    /// Routers of the topology.
    routers: usize,
    /// Local class slots per router; the global ones follow them.
    vl: usize,
    /// Class slots per router.
    classes: usize,
    /// Each class slot's successor slots, in declaration order.
    succ: Vec<Vec<usize>>,
    /// `local[r·(a−1) + j]`: the router behind local port `j` of `r`.
    local: Vec<RouterId>,
    /// `global[r·h + k]`: the router behind global port `k` of `r`.
    global: Vec<RouterId>,
    /// Local links per router, `a − 1`.
    locals: usize,
    /// Global links per router, `h`.
    globals: usize,
}

/// The strongly-connected components of a [`Cdg`].
struct Components {
    /// Component of every vertex.
    id: Vec<u32>,
    /// The cyclic (two or more vertices) components, by smallest
    /// member. Quotient vertices never self-loop (a channel's successors
    /// depart a *different* router), so singletons are acyclic.
    cyclic: Vec<CyclicScc>,
}

/// A cyclic strongly-connected component.
struct CyclicScc {
    /// Its smallest member vertex.
    first: usize,
    /// The distinct channel classes of its member vertices, sorted.
    classes: Vec<ClassId>,
}

impl Cdg {
    /// The tables of the canonical (non-escape) part of `decl` over
    /// `topo`.
    fn new(topo: &Dragonfly, vl: usize, vg: usize, decl: &MechanismDeps) -> Self {
        let classes = vl + vg;
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); classes];
        for e in &decl.edges {
            if let (Some(from), Some(to)) = (slot_of(e.from, vl, vg), slot_of(e.to, vl, vg)) {
                if !succ[from].contains(&to) {
                    succ[from].push(to);
                }
            }
        }
        let (locals, globals) = (topo.params().a - 1, topo.params().h);
        let routers = (0..topo.num_routers()).map(RouterId::from);
        let local = routers
            .clone()
            .flat_map(|v| (0..locals).map(move |j| topo.local_neighbor(v, j)))
            .collect();
        let global = routers
            .flat_map(|v| (0..globals).map(move |k| topo.global_neighbor(v, k).0))
            .collect();
        Self {
            routers: topo.num_routers(),
            vl,
            classes,
            succ,
            local,
            global,
            locals,
            globals,
        }
    }

    /// Links per router of the kind class slot `slot` rides.
    fn links(&self, slot: usize) -> usize {
        if slot < self.vl {
            self.locals
        } else {
            self.globals
        }
    }

    /// The successors of vertex `v`, in the order the referee's
    /// adjacency list holds them: each successor class in declaration
    /// order, each over the router's links of that class's kind in port
    /// order.
    fn successors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        let (r, slot) = (v / self.classes, v % self.classes);
        self.succ[slot].iter().flat_map(move |&to| {
            self.row(r, to)
                .iter()
                .map(move |w| w.idx() * self.classes + to)
        })
    }

    /// The routers behind router `r`'s links of the kind class slot `to`
    /// rides, in port order.
    fn row(&self, r: usize, to: usize) -> &[RouterId] {
        if to < self.vl {
            &self.local[r * self.locals..][..self.locals]
        } else {
            &self.global[r * self.globals..][..self.globals]
        }
    }

    /// Concrete dependency-edge count (for the certificate): each
    /// quotient edge into `(w, B)` stands for as many concrete target
    /// channels as there are `B`-kind links into `w`, and each quotient
    /// source vertex for as many concrete source channels. Every router
    /// has the same links, so it is the per-router sum times the routers.
    fn concrete_dependencies(&self) -> usize {
        let per_router: usize = (self.succ.iter().enumerate())
            .map(|(slot, succ)| {
                self.links(slot) * succ.iter().map(|&to| self.links(to)).sum::<usize>()
            })
            .sum();
        per_router * self.routers
    }

    /// The strongly-connected components by one iterative Tarjan pass.
    /// A vertex with an index and no component yet is on Tarjan's stack.
    fn components(&self) -> Components {
        let n = self.routers * self.classes;
        let mut index = vec![NONE; n];
        let mut low = vec![NONE; n];
        let mut id = vec![NONE; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut frames = Vec::new();
        let mut cyclic = Vec::new();
        let mut seen = vec![false; self.classes];
        let (mut next_index, mut next_id) = (0u32, 0u32);
        for s in 0..n {
            if index[s] != NONE {
                continue;
            }
            index[s] = next_index;
            low[s] = next_index;
            next_index += 1;
            stack.push(s as u32);
            // DFS frames: a vertex, the successor class and the link of
            // that class to resume at.
            frames.push((s, 0, 0));
            'dfs: while let Some((v, mut k, mut j)) = frames.pop() {
                let (r, succ) = (v / self.classes, &self.succ[v % self.classes]);
                let mut lowv = low[v];
                while let Some(&to) = succ.get(k) {
                    let row = self.row(r, to);
                    while let Some(w) = row.get(j) {
                        let w = w.idx() * self.classes + to;
                        j += 1;
                        if index[w] == NONE {
                            low[v] = lowv;
                            frames.push((v, k, j));
                            index[w] = next_index;
                            low[w] = next_index;
                            next_index += 1;
                            stack.push(w as u32);
                            frames.push((w, 0, 0));
                            continue 'dfs;
                        }
                        if id[w] == NONE {
                            lowv = lowv.min(index[w]);
                        }
                    }
                    (k, j) = (k + 1, 0);
                }
                low[v] = lowv;
                if let Some(&(u, ..)) = frames.last() {
                    low[u] = low[u].min(lowv);
                }
                if lowv != index[v] {
                    continue;
                }
                // `v` roots a component: its members are the stack from
                // `v` up.
                let root = stack
                    .iter()
                    .rposition(|&w| w as usize == v)
                    .expect("root on the stack");
                let members = &stack[root..];
                for &w in members {
                    id[w as usize] = next_id;
                }
                if members.len() >= 2 {
                    for &w in members {
                        seen[w as usize % self.classes] = true;
                    }
                    let classes = (0..self.classes)
                        .filter(|&slot| std::mem::take(&mut seen[slot]))
                        .map(|slot| self.class_of(slot))
                        .collect();
                    cyclic.push(CyclicScc {
                        first: members.iter().min().map_or(v, |&w| w as usize),
                        classes,
                    });
                }
                stack.truncate(root);
                next_id += 1;
            }
        }
        cyclic.sort_unstable_by_key(|scc| scc.first);
        Components { id, cyclic }
    }

    /// The class of slot `slot`.
    fn class_of(&self, slot: usize) -> ClassId {
        if slot < self.vl {
            ClassId::Local { vc: slot as u8 }
        } else {
            ClassId::Global {
                vc: (slot - self.vl) as u8,
            }
        }
    }

    /// A concrete cycle through the first member of `scc` on `class`,
    /// for reporting the exact channels a drain-free class participates
    /// in.
    fn cycle_through(&self, sccs: &Components, scc: &CyclicScc, class: ClassId) -> Vec<ChannelRef> {
        let c = sccs.id[scc.first];
        let slot = slot_of(class, self.vl, self.classes - self.vl).expect("a link class");
        let start = (scc.first - scc.first % self.classes + slot..sccs.id.len())
            .step_by(self.classes)
            .find(|&v| sccs.id[v] == c)
            .expect("the class is one of the component's");
        self.cycle_from(start, &sccs.id)
    }

    /// BFS for the shortest `start → start` cycle staying inside the
    /// component of `start`.
    fn cycle_from(&self, start: usize, id: &[u32]) -> Vec<ChannelRef> {
        let c = id[start];
        let mut prev = vec![NONE; id.len()];
        let mut queue = VecDeque::from([start]);
        let mut closer: Option<usize> = None;
        'bfs: while let Some(v) = queue.pop_front() {
            for w in self.successors(v) {
                if id[w] != c {
                    continue;
                }
                if w == start {
                    closer = Some(v);
                    break 'bfs;
                }
                if prev[w] == NONE {
                    prev[w] = v as u32;
                    queue.push_back(w);
                }
            }
        }
        let mut path = vec![start];
        let mut at = closer.expect("SCC of size ≥ 2 must contain a cycle through each member");
        while at != start {
            path.push(at);
            at = prev[at] as usize;
        }
        path.push(start);
        path.reverse(); // start → … → start in edge direction
        path.windows(2)
            .map(|w| {
                let (from, to) = (w[0], w[1]);
                let slot = to % self.classes;
                let global = slot >= self.vl;
                ChannelRef {
                    from: RouterId::from(from / self.classes),
                    to: RouterId::from(to / self.classes),
                    global,
                    vc: (if global { slot - self.vl } else { slot }) as u8,
                }
            })
            .collect()
    }
}

/// Vertex slot of a canonical class, `None` for injection/escape.
fn slot_of(c: ClassId, vl: usize, vg: usize) -> Option<usize> {
    match c {
        ClassId::Local { vc } => ((vc as usize) < vl).then_some(vc as usize),
        ClassId::Global { vc } => ((vc as usize) < vg).then_some(vl + vc as usize),
        ClassId::Inject { .. } | ClassId::Escape => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{certificate, escape_layer, verify_decl, Certificate, RingSpec};
    use ofar_engine::SimConfig;
    use ofar_routing::{ClassEdge, DependencyDecl, EdgeWhy, MechanismKind};
    use ofar_topology::HamiltonianRing;
    use proptest::prelude::*;

    const MECHANISMS: [MechanismKind; 6] = [
        MechanismKind::Min,
        MechanismKind::Valiant,
        MechanismKind::Pb,
        MechanismKind::Par,
        MechanismKind::Ofar,
        MechanismKind::OfarL,
    ];

    /// [`verify_decl`] with the referee as its canonical half.
    fn verify_by_referee(
        topo: &Dragonfly,
        cfg: &SimConfig,
        decl: &MechanismDeps,
        rings: &[RingSpec],
    ) -> Result<Certificate, VerifyError> {
        escape_layer(topo, cfg, decl, rings)?;
        let drained = referee::check(topo, cfg.vcs_local, cfg.vcs_global, decl)?;
        Ok(certificate(topo, cfg, decl, rings, &drained))
    }

    /// Assert that the implicit graph and the referee agree on `decl`:
    /// the verdict with its certificate or witness, the cyclic
    /// components' class lists in order, and a witness cycle from each
    /// component's first member and through each of its classes.
    /// Returns the verdict.
    fn agree(
        h: usize,
        vl: usize,
        vg: usize,
        decl: &MechanismDeps,
    ) -> Result<Certificate, VerifyError> {
        let mut cfg = SimConfig::paper(h);
        (cfg.vcs_local, cfg.vcs_global) = (vl, vg);
        let topo = Dragonfly::new(cfg.params);
        let rings = [RingSpec::from_ring(
            &topo,
            &HamiltonianRing::embedded(&topo, 0),
        )];
        let verdict = verify_decl(&topo, &cfg, decl, &rings);
        let want = verify_by_referee(&topo, &cfg, decl, &rings);
        assert_eq!(format!("{verdict:?}"), format!("{want:?}"), "{decl:?}");

        let graph = Cdg::new(&topo, vl, vg, decl);
        let sccs = graph.components();
        let old = referee::Cdg::build(&topo, vl, vg, decl);
        let old_sccs = old.cyclic_sccs();
        let classes: Vec<_> = sccs.cyclic.iter().map(|s| s.classes.clone()).collect();
        let old_classes: Vec<_> = old_sccs.iter().map(|s| s.classes.clone()).collect();
        assert_eq!(classes, old_classes, "{decl:?}");
        for (scc, old_scc) in sccs.cyclic.iter().zip(&old_sccs) {
            assert_eq!(graph.cycle_from(scc.first, &sccs.id), old_scc.cycle);
            for &class in &scc.classes {
                assert_eq!(
                    graph.cycle_through(&sccs, scc, class),
                    old.cycle_through(old_scc, class)
                );
            }
        }
        verdict
    }

    /// Every mechanism's own declaration at h=2, over every VC count of
    /// the property below, with and without the escape layer: both
    /// refusal kinds and grants all occur, and each agrees with the
    /// referee.
    #[test]
    fn every_declaration_agrees_with_the_referee() {
        let (mut granted, mut cycles, mut undrained) = (0, 0, 0);
        for kind in MECHANISMS {
            for vl in 1..=4 {
                for vg in 1..=3 {
                    let mut cfg = SimConfig::paper(2);
                    (cfg.vcs_local, cfg.vcs_global) = (vl, vg);
                    let mut decl = kind.dependency_decl(&cfg);
                    for uses_escape in [false, true] {
                        decl.uses_escape = uses_escape;
                        match agree(2, vl, vg, &decl) {
                            Ok(_) => granted += 1,
                            Err(VerifyError::DependencyCycle { .. }) => cycles += 1,
                            Err(VerifyError::NoEscapeDrain { .. }) => undrained += 1,
                            Err(e) => panic!("{e}"),
                        }
                    }
                }
            }
        }
        assert!(
            granted > 0 && cycles > 0 && undrained > 0,
            "{granted} {cycles} {undrained}"
        );
    }

    /// Class `kind` (injection, local, global, escape) on VC `vc`.
    fn class(kind: u8, vc: u8) -> ClassId {
        match kind {
            0 => ClassId::Inject { vc },
            1 => ClassId::Local { vc },
            2 => ClassId::Global { vc },
            _ => ClassId::Escape,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every mechanism's declaration with class edges dropped and
        /// added and the escape layer toggled gets the referee's verdict,
        /// certificate, component classes and witnesses.
        #[test]
        fn mutated_declarations_agree_with_the_referee(
            h in 2usize..=3,
            vl in 1usize..=4,
            vg in 1usize..=3,
            mech in 0usize..6,
            keep in proptest::collection::vec(any::<bool>(), 64),
            // VCs up to one past the largest configured, so that
            // out-of-range classes occur too.
            added in proptest::collection::vec((0u8..4, 0u8..5, 0u8..4, 0u8..5), 0..8),
            toggle in any::<bool>(),
        ) {
            let mut cfg = SimConfig::paper(h);
            (cfg.vcs_local, cfg.vcs_global) = (vl, vg);
            let mut decl = MECHANISMS[mech].dependency_decl(&cfg);
            let mut i = 0;
            decl.edges.retain(|_| {
                i += 1;
                keep[(i - 1) % keep.len()]
            });
            for (fk, fv, tk, tv) in added {
                decl.edges.push(ClassEdge { from: class(fk, fv), to: class(tk, tv), why: EdgeWhy::Minimal });
            }
            decl.uses_escape ^= toggle;
            let _ = agree(h, vl, vg, &decl);
        }
    }
}
