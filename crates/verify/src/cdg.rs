//! Concrete channel-dependency-graph construction and cycle analysis.
//!
//! Channels are grouped into `(landing router, class)` vertices: every
//! concrete channel that lands at router `v` on class `A` has exactly
//! the same outgoing dependencies (the channels departing `v` on the
//! declared successor classes), so a cycle exists among the grouped
//! vertices **iff** one exists among the raw channels — the grouping is
//! an exact quotient, not an approximation. This keeps the graph at
//! `routers × classes` vertices instead of `routers × ports × VCs`.

use crate::report::ChannelRef;
use ofar_routing::{ClassId, MechanismDeps};
use ofar_topology::{Dragonfly, RouterId};

/// The quotient dependency graph of one declaration over one topology.
pub(crate) struct Cdg {
    /// Local then global class slots per router.
    vl: usize,
    vg: usize,
    /// Adjacency: vertex → successor vertices.
    adj: Vec<Vec<u32>>,
}

/// A cyclic strongly-connected component of the canonical graph.
pub(crate) struct CyclicScc {
    /// The distinct channel classes of its member vertices.
    pub classes: Vec<ClassId>,
    /// One concrete cycle through the component.
    pub cycle: Vec<ChannelRef>,
    /// Member vertices (for extracting a cycle through a given class).
    members: Vec<u32>,
}

impl Cdg {
    /// Instantiate the canonical (non-escape) part of `decl` over `topo`.
    pub fn build(topo: &Dragonfly, vl: usize, vg: usize, decl: &MechanismDeps) -> Self {
        let routers = topo.num_routers();
        let classes = vl + vg;
        let (a, h) = (topo.params().a, topo.params().h);

        // Class-level successor lists, indexed by class slot.
        let mut class_succ: Vec<Vec<ClassId>> = vec![Vec::new(); classes];
        for e in &decl.edges {
            let Some(slot) = slot_of(e.from, vl, vg) else {
                continue;
            };
            if matches!(e.to, ClassId::Local { .. } | ClassId::Global { .. })
                && slot_of(e.to, vl, vg).is_some()
                && !class_succ[slot].contains(&e.to)
            {
                class_succ[slot].push(e.to);
            }
        }

        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); routers * classes];
        for r in 0..routers {
            let v = RouterId::from(r);
            for slot in 0..classes {
                let succs = &class_succ[slot];
                if succs.is_empty() {
                    continue;
                }
                let out = &mut adj[r * classes + slot];
                for &to in succs {
                    match to {
                        ClassId::Local { vc } => {
                            for j in 0..a - 1 {
                                let w = topo.local_neighbor(v, j).idx();
                                out.push((w * classes + vc as usize) as u32);
                            }
                        }
                        ClassId::Global { vc } => {
                            for k in 0..h {
                                let w = topo.global_neighbor(v, k).0.idx();
                                out.push((w * classes + vl + vc as usize) as u32);
                            }
                        }
                        ClassId::Inject { .. } | ClassId::Escape => {}
                    }
                }
            }
        }
        Self { vl, vg, adj }
    }

    /// Concrete dependency-edge count (for the certificate): each
    /// quotient edge into `(w, B)` stands for as many concrete target
    /// channels as there are `B`-kind links into `w`, and each quotient
    /// source vertex for as many concrete source channels.
    pub fn concrete_dependencies(&self, topo: &Dragonfly) -> usize {
        let (a, h) = (topo.params().a, topo.params().h);
        let classes = self.vl + self.vg;
        let in_mult = |slot: usize| if slot < self.vl { a - 1 } else { h };
        self.adj
            .iter()
            .enumerate()
            .map(|(vtx, out)| in_mult(vtx % classes) * out.len())
            .sum()
    }

    /// All cyclic (size ≥ 2) strongly-connected components, each with
    /// its classes and a concrete example cycle. Quotient vertices never
    /// self-loop (a channel's successors depart a *different* router),
    /// so singleton components are acyclic.
    pub fn cyclic_sccs(&self) -> Vec<CyclicScc> {
        let comp = self.kosaraju();
        let n = self.adj.len();
        let mut size = vec![0u32; n];
        for &c in &comp {
            size[c as usize] += 1;
        }
        let mut out = Vec::new();
        let mut done = vec![false; n];
        for v in 0..n {
            let c = comp[v] as usize;
            if size[c] < 2 || done[c] {
                continue;
            }
            done[c] = true;
            out.push(self.describe_scc(v, &comp));
        }
        out
    }

    fn class_of(&self, vtx: usize) -> ClassId {
        let classes = self.vl + self.vg;
        let slot = vtx % classes;
        if slot < self.vl {
            ClassId::Local { vc: slot as u8 }
        } else {
            ClassId::Global {
                vc: (slot - self.vl) as u8,
            }
        }
    }

    fn router_of(&self, vtx: usize) -> RouterId {
        RouterId::from(vtx / (self.vl + self.vg))
    }

    /// Classes present in the SCC of `start` plus one concrete cycle
    /// found by a BFS from `start` back to itself inside the component.
    fn describe_scc(&self, start: usize, comp: &[u32]) -> CyclicScc {
        let c = comp[start];
        let mut classes: Vec<ClassId> = Vec::new();
        let mut members: Vec<u32> = Vec::new();
        for (v, &cv) in comp.iter().enumerate() {
            if cv == c {
                members.push(v as u32);
                let cl = self.class_of(v);
                if !classes.contains(&cl) {
                    classes.push(cl);
                }
            }
        }
        classes.sort();
        let cycle = self.shortest_cycle_from(start, comp, c);
        CyclicScc {
            classes,
            cycle,
            members,
        }
    }

    /// A concrete cycle through some member of `scc` on `class`, for
    /// reporting the exact channels a drain-free class participates in.
    /// Falls back to the component's representative cycle if the class is
    /// not in the component.
    pub fn cycle_through(&self, scc: &CyclicScc, class: ClassId) -> Vec<ChannelRef> {
        let Some(&start) = scc
            .members
            .iter()
            .find(|&&v| self.class_of(v as usize) == class)
        else {
            return scc.cycle.clone();
        };
        // Rebuild a membership map restricted to this component.
        let mut comp = vec![0u32; self.adj.len()];
        for &v in &scc.members {
            comp[v as usize] = 1;
        }
        self.shortest_cycle_from(start as usize, &comp, 1)
    }

    /// BFS for the shortest `start → start` cycle staying inside the
    /// vertices whose `comp` entry equals `c`.
    fn shortest_cycle_from(&self, start: usize, comp: &[u32], c: u32) -> Vec<ChannelRef> {
        let mut prev: Vec<Option<u32>> = vec![None; self.adj.len()];
        let mut queue = std::collections::VecDeque::from([start as u32]);
        let mut closer: Option<u32> = None;
        'bfs: while let Some(v) = queue.pop_front() {
            for &w in &self.adj[v as usize] {
                if comp[w as usize] != c {
                    continue;
                }
                if w as usize == start {
                    closer = Some(v);
                    break 'bfs;
                }
                if prev[w as usize].is_none() {
                    prev[w as usize] = Some(v);
                    queue.push_back(w);
                }
            }
        }
        let mut path = vec![start as u32];
        let mut at = closer.expect("SCC of size ≥ 2 must contain a cycle through each member");
        while at as usize != start {
            path.push(at);
            at = prev[at as usize].expect("BFS predecessor chain");
        }
        path.push(start as u32);
        path.reverse(); // start → … → start in edge direction
        path.windows(2)
            .map(|w| {
                let (from, to) = (w[0] as usize, w[1] as usize);
                let class = self.class_of(to);
                let (global, vc) = match class {
                    ClassId::Global { vc } => (true, vc),
                    ClassId::Local { vc } => (false, vc),
                    _ => unreachable!("canonical graph has only link classes"),
                };
                ChannelRef {
                    from: self.router_of(from),
                    to: self.router_of(to),
                    global,
                    vc,
                }
            })
            .collect()
    }

    /// Strongly-connected components by Kosaraju's algorithm (two
    /// iterative DFS passes); returns the component id per vertex.
    fn kosaraju(&self) -> Vec<u32> {
        let n = self.adj.len();
        // Pass 1: finish order on G.
        let mut order = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
        let mut stack: Vec<(u32, u32)> = Vec::new();
        for s in 0..n {
            if state[s] != 0 {
                continue;
            }
            state[s] = 1;
            stack.push((s as u32, 0));
            while let Some(&(v, i)) = stack.last() {
                if (i as usize) < self.adj[v as usize].len() {
                    let w = self.adj[v as usize][i as usize];
                    stack.last_mut().expect("non-empty").1 += 1;
                    if state[w as usize] == 0 {
                        state[w as usize] = 1;
                        stack.push((w, 0));
                    }
                } else {
                    state[v as usize] = 2;
                    order.push(v);
                    stack.pop();
                }
            }
        }
        // Pass 2: DFS on the reverse graph in reverse finish order.
        let mut radj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, out) in self.adj.iter().enumerate() {
            for &w in out {
                radj[w as usize].push(v as u32);
            }
        }
        let mut comp = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut dfs: Vec<u32> = Vec::new();
        for &s in order.iter().rev() {
            if comp[s as usize] != u32::MAX {
                continue;
            }
            comp[s as usize] = next;
            dfs.push(s);
            while let Some(v) = dfs.pop() {
                for &w in &radj[v as usize] {
                    if comp[w as usize] == u32::MAX {
                        comp[w as usize] = next;
                        dfs.push(w);
                    }
                }
            }
            next += 1;
        }
        comp
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
