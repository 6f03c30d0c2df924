//! Channel-dependency declarations: each mechanism exports the set of
//! legal (port-class, VC) → (port-class, VC) transitions its routing
//! function can produce, so the static verifier (`ofar-verify`) can
//! instantiate the concrete channel dependency graph over an actual
//! topology and prove deadlock freedom *before cycle 0*.
//!
//! The declarations are deliberately an **over-approximation**: every
//! transition the mechanism can take on a healthy network must be
//! declared, and declaring an impossible transition only makes the
//! verifier more conservative (it can reject, never wrongly accept).
//! Fault-driven detours (§VII) are excluded — degraded operation is
//! policed at runtime by the watchdog (`StallKind`) and the auditor,
//! not by the static certificate.

#![allow(
    clippy::cast_possible_truncation,
    reason = "the dependency declaration is built once per certification, never inside `step`; VC indices are bounded by SimConfig::validate's TooManyVcs"
)]

use ofar_engine::SimConfig;

use crate::mechanism::MechanismKind;

/// An abstract channel class: one equivalence class of (port-class, VC)
/// pairs that the ladder treats identically on every router.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ClassId {
    /// An injection-queue VC. Only ever a dependency *source* (nothing in
    /// the network waits for space in an injection queue — the unbounded
    /// source queue above it absorbs back-pressure), so injection classes
    /// can never participate in a cycle.
    Inject {
        /// Injection VC index.
        vc: u8,
    },
    /// A local-link VC.
    Local {
        /// VC index on the local link.
        vc: u8,
    },
    /// A global-link VC.
    Global {
        /// VC index on the global link.
        vc: u8,
    },
    /// Any escape-subnetwork channel: a physical ring-port VC or the
    /// extra embedded escape VC on a ring-edge link. The verifier expands
    /// this per ring; advance transitions never leave the packet's ring.
    Escape,
}

impl std::fmt::Display for ClassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::Inject { vc } => write!(f, "inj:v{vc}"),
            Self::Local { vc } => write!(f, "local:v{vc}"),
            Self::Global { vc } => write!(f, "global:v{vc}"),
            Self::Escape => write!(f, "escape"),
        }
    }
}

/// Why a declared transition exists — names the offending move when a
/// verification report prints a cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeWhy {
    /// First hop out of an injection queue.
    Inject,
    /// A hop along the minimal (or committed Valiant) path.
    Minimal,
    /// An in-transit local misroute (§IV-A) or PAR's second source-group
    /// hop.
    MisrouteLocal,
    /// An in-transit global misroute (§IV-A).
    MisrouteGlobal,
    /// Entry into the escape subnetwork (§IV-C).
    RingEnter,
    /// A hop along the escape ring.
    RingAdvance,
    /// Exit from the escape subnetwork back into a canonical VC.
    RingExit,
}

/// One declared class-level dependency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClassEdge {
    /// Class a packet currently occupies.
    pub from: ClassId,
    /// Class it may request next.
    pub to: ClassId,
    /// The routing move that creates the dependency.
    pub why: EdgeWhy,
}

/// The full dependency declaration of one mechanism under one
/// configuration.
#[derive(Clone, Debug)]
pub struct MechanismDeps {
    /// Mechanism name (matches [`MechanismKind::name`]).
    pub mechanism: &'static str,
    /// Whether deadlock freedom is delegated to the escape subnetwork
    /// (OFAR models) rather than proven by VC-order acyclicity.
    pub uses_escape: bool,
    /// Declared class-level transitions, deduplicated.
    pub edges: Vec<ClassEdge>,
}

impl MechanismDeps {
    /// All edges out of `from`.
    pub fn from(&self, from: ClassId) -> impl Iterator<Item = &ClassEdge> + '_ {
        self.edges.iter().filter(move |e| e.from == from)
    }

    /// Whether `from` has a declared entry into the escape layer.
    pub fn drains_to_escape(&self, from: ClassId) -> bool {
        self.edges
            .iter()
            .any(|e| e.from == from && e.to == ClassId::Escape)
    }
}

/// Exports the channel-dependency declaration of a routing mechanism.
///
/// Implemented on [`MechanismKind`] (and through it on the built policy
/// values) so the verifier can certify a `(mechanism, SimConfig)` pair
/// without instantiating a policy.
pub trait DependencyDecl {
    /// The declared transitions under `cfg` (the VC ladder shape depends
    /// on the configured VC counts).
    fn dependency_decl(&self, cfg: &SimConfig) -> MechanismDeps;
}

/// The ladder geometry shared by every declaration: which VC indexes the
/// position-indexed ladder of `common::VcLadder` can produce under `cfg`.
struct LadderShape {
    /// Source-group local VCs: `0..budget`.
    budget: u8,
    /// Intermediate-group local VC.
    mid_l: u8,
    /// Destination-group local VC.
    dst_l: u8,
    /// Source-position global VC (always 0).
    src_g: u8,
    /// Intermediate-position global VC.
    mid_g: u8,
    vl: u8,
    vg: u8,
}

impl LadderShape {
    fn new(cfg: &SimConfig) -> Self {
        let vl = cfg.vcs_local.max(1);
        let vg = cfg.vcs_global.max(1);
        let budget = vl.saturating_sub(2).max(1);
        Self {
            budget: budget as u8,
            mid_l: budget.min(vl - 1) as u8,
            dst_l: (vl - 1) as u8,
            src_g: 0,
            mid_g: 1.min(vg - 1) as u8,
            vl: vl as u8,
            vg: vg as u8,
        }
    }
}

/// Deduplicating edge collector.
struct EdgeSet {
    edges: Vec<ClassEdge>,
}

impl EdgeSet {
    fn new() -> Self {
        Self { edges: Vec::new() }
    }

    fn add(&mut self, from: ClassId, to: ClassId, why: EdgeWhy) {
        // First `why` wins: report the most specific reason recorded.
        if !self.edges.iter().any(|e| e.from == from && e.to == to) {
            self.edges.push(ClassEdge { from, to, why });
        }
    }
}

/// Injection edges shared by every mechanism: the first hop can be a
/// source-group local hop, the source global hop, or (intra-group
/// traffic) the destination local hop.
fn inject_edges(lad: &LadderShape, cfg: &SimConfig, out: &mut EdgeSet) {
    for vc in 0..cfg.vcs_injection as u8 {
        let from = ClassId::Inject { vc };
        out.add(from, ClassId::Local { vc: 0 }, EdgeWhy::Inject);
        out.add(from, ClassId::Local { vc: lad.dst_l }, EdgeWhy::Inject);
        out.add(from, ClassId::Global { vc: lad.src_g }, EdgeWhy::Inject);
    }
}

/// MIN: `l₁ g l₃` on the ascending ladder — acyclic by construction.
fn min_edges(cfg: &SimConfig, out: &mut EdgeSet) {
    let lad = LadderShape::new(cfg);
    inject_edges(&lad, cfg, out);
    out.add(
        ClassId::Local { vc: 0 },
        ClassId::Global { vc: lad.src_g },
        EdgeWhy::Minimal,
    );
    out.add(
        ClassId::Global { vc: lad.src_g },
        ClassId::Local { vc: lad.dst_l },
        EdgeWhy::Minimal,
    );
}

/// VAL: `l₁ g₁ l₂ g₂ l₃` through a random intermediate group, with the
/// index-skipping shortcuts (a packet landing at the intermediate
/// group's exit router goes `g₁ → g₂` directly).
fn val_edges(cfg: &SimConfig, out: &mut EdgeSet) {
    let lad = LadderShape::new(cfg);
    inject_edges(&lad, cfg, out);
    let (l1, g1) = (ClassId::Local { vc: 0 }, ClassId::Global { vc: lad.src_g });
    let (l2, g2) = (
        ClassId::Local { vc: lad.mid_l },
        ClassId::Global { vc: lad.mid_g },
    );
    let l3 = ClassId::Local { vc: lad.dst_l };
    out.add(l1, g1, EdgeWhy::Minimal);
    out.add(g1, l2, EdgeWhy::Minimal);
    out.add(l2, g2, EdgeWhy::Minimal);
    out.add(g1, g2, EdgeWhy::Minimal); // skipped l₂
    out.add(g2, l3, EdgeWhy::Minimal);
}

/// PB commits to MIN or VAL at injection, so its dependency set is the
/// union of both path shapes.
fn pb_edges(cfg: &SimConfig, out: &mut EdgeSet) {
    min_edges(cfg, out);
    val_edges(cfg, out);
}

/// PAR re-evaluates a provisional minimal decision at the global-link
/// host router and may divert onto a Valiant path, spending a *second*
/// source-group local hop. The 4th local VC keeps that second hop
/// ascending: `l₁ l₁' g₁ l₂ g₂ l₃`.
fn par_edges(cfg: &SimConfig, out: &mut EdgeSet) {
    pb_edges(cfg, out);
    let lad = LadderShape::new(cfg);
    // ascending source-group chain: hop i uses min(i, budget-1)
    for i in 0..lad.budget {
        let next = (i + 1).min(lad.budget - 1);
        if next > i {
            out.add(
                ClassId::Local { vc: i },
                ClassId::Local { vc: next },
                EdgeWhy::MisrouteLocal,
            );
        }
        out.add(
            ClassId::Local { vc: i },
            ClassId::Global { vc: lad.src_g },
            EdgeWhy::Minimal,
        );
    }
}

/// OFAR (§IV): fully adaptive in-transit misrouting over the canonical
/// VCs, with the escape ring as the deadlock-free drain. The canonical
/// subgraph is declared near-complete over the ladder-reachable classes
/// (local misroutes repeat a class — self-dependencies — and ring exits
/// can land a packet in *any* canonical VC), so the verifier must find a
/// declared escape entry on every class that ends up in a cycle.
fn ofar_edges(cfg: &SimConfig, local_misroute: bool, out: &mut EdgeSet) {
    let lad = LadderShape::new(cfg);
    inject_edges(&lad, cfg, out);

    // Ladder-produced target classes: where a routing decision can send
    // a packet next, whatever channel it currently occupies.
    let mut local_targets: Vec<u8> = (0..lad.budget).collect();
    for vc in [lad.mid_l, lad.dst_l] {
        if !local_targets.contains(&vc) {
            local_targets.push(vc);
        }
    }
    let mut global_targets: Vec<u8> = vec![lad.src_g];
    if !global_targets.contains(&lad.mid_g) {
        global_targets.push(lad.mid_g);
    }

    // Ring exits can land a packet on any canonical VC with credits
    // (`exit_vc` falls back to the fullest-credit VC), so *every*
    // canonical class is a possible dependency source.
    let mut sources: Vec<ClassId> = Vec::new();
    for vc in 0..lad.vl {
        sources.push(ClassId::Local { vc });
    }
    for vc in 0..lad.vg {
        sources.push(ClassId::Global { vc });
    }

    for &from in &sources {
        for &vc in &local_targets {
            let why = if local_misroute {
                EdgeWhy::MisrouteLocal
            } else {
                EdgeWhy::Minimal
            };
            out.add(from, ClassId::Local { vc }, why);
        }
        for &vc in &global_targets {
            out.add(from, ClassId::Global { vc }, EdgeWhy::MisrouteGlobal);
        }
        // Any blocked head past the patience threshold enters the ring.
        out.add(from, ClassId::Escape, EdgeWhy::RingEnter);
    }
    // Injection-queue heads enter the ring under starvation too.
    for vc in 0..cfg.vcs_injection as u8 {
        out.add(ClassId::Inject { vc }, ClassId::Escape, EdgeWhy::RingEnter);
    }
    // On the ring: advance (same ring — the verifier expands this per
    // ring) or exit into any canonical VC.
    out.add(ClassId::Escape, ClassId::Escape, EdgeWhy::RingAdvance);
    for &from in &sources {
        out.add(ClassId::Escape, from, EdgeWhy::RingExit);
    }
}

impl DependencyDecl for MechanismKind {
    fn dependency_decl(&self, cfg: &SimConfig) -> MechanismDeps {
        let mut es = EdgeSet::new();
        let uses_escape = match self {
            MechanismKind::Min => {
                min_edges(cfg, &mut es);
                false
            }
            MechanismKind::Valiant => {
                val_edges(cfg, &mut es);
                false
            }
            MechanismKind::Pb => {
                pb_edges(cfg, &mut es);
                false
            }
            MechanismKind::Par => {
                par_edges(cfg, &mut es);
                false
            }
            MechanismKind::Ofar => {
                ofar_edges(cfg, true, &mut es);
                true
            }
            MechanismKind::OfarL => {
                ofar_edges(cfg, false, &mut es);
                true
            }
        };
        MechanismDeps {
            mechanism: self.name(),
            uses_escape,
            edges: es.edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> SimConfig {
        SimConfig::paper(4)
    }

    /// Rank in the `l₁… < g₁ < l₂ < g₂ < l₃` total order of the ladder
    /// under `cfg`; `None` for classes outside it.
    fn rank(c: ClassId, cfg: &SimConfig) -> Option<u32> {
        let lad = LadderShape::new(cfg);
        let budget = u32::from(lad.budget);
        match c {
            ClassId::Local { vc } if vc < lad.budget => Some(u32::from(vc)),
            ClassId::Local { vc } if vc == lad.mid_l => Some(budget + 1),
            ClassId::Local { vc } if vc == lad.dst_l => Some(budget + 3),
            ClassId::Global { vc } if vc == lad.src_g => Some(budget),
            ClassId::Global { vc } if vc == lad.mid_g => Some(budget + 2),
            _ => None,
        }
    }

    #[test]
    fn ladder_mechanisms_declare_strictly_ascending_edges() {
        let par_cfg = MechanismKind::Par.adapt_config(paper());
        for (kind, cfg) in [
            (MechanismKind::Min, paper()),
            (MechanismKind::Valiant, paper()),
            (MechanismKind::Pb, paper()),
            (MechanismKind::Par, par_cfg),
        ] {
            let deps = kind.dependency_decl(&cfg);
            assert!(!deps.uses_escape);
            for e in &deps.edges {
                if let ClassId::Inject { .. } = e.from {
                    continue;
                }
                let (a, b) = (rank(e.from, &cfg).unwrap(), rank(e.to, &cfg).unwrap());
                assert!(
                    a < b,
                    "{}: {} → {} not ascending",
                    deps.mechanism,
                    e.from,
                    e.to
                );
            }
        }
    }

    #[test]
    fn ofar_declares_escape_entry_on_every_canonical_class() {
        let cfg = MechanismKind::Ofar.adapt_config(paper());
        for kind in [MechanismKind::Ofar, MechanismKind::OfarL] {
            let deps = kind.dependency_decl(&cfg);
            assert!(deps.uses_escape);
            for vc in 0..cfg.vcs_local as u8 {
                assert!(deps.drains_to_escape(ClassId::Local { vc }), "local v{vc}");
            }
            for vc in 0..cfg.vcs_global as u8 {
                assert!(
                    deps.drains_to_escape(ClassId::Global { vc }),
                    "global v{vc}"
                );
            }
            // and the ring can always be exited
            assert!(deps.from(ClassId::Escape).any(|e| e.to != ClassId::Escape));
        }
    }

    #[test]
    fn reduced_vc_ladder_collapses_to_a_cycle_for_valiant() {
        // Fig. 9's 2-local/1-global ladder folds g₁ and g₂ onto VC 0:
        // the VAL declaration then contains g0 → l1 → g0 — exactly the
        // cycle the static verifier must refuse without an escape ring.
        let cfg = SimConfig::reduced_vcs(2);
        let deps = MechanismKind::Valiant.dependency_decl(&cfg);
        let g0 = ClassId::Global { vc: 0 };
        let l1 = ClassId::Local { vc: 1 };
        assert!(deps.edges.iter().any(|e| e.from == g0 && e.to == l1));
        assert!(deps.edges.iter().any(|e| e.from == l1 && e.to == g0));
    }

    #[test]
    fn declarations_are_deduplicated() {
        for kind in MechanismKind::paper_set() {
            let cfg = kind.adapt_config(paper());
            let deps = kind.dependency_decl(&cfg);
            for (i, a) in deps.edges.iter().enumerate() {
                for b in &deps.edges[i + 1..] {
                    assert!(
                        !(a.from == b.from && a.to == b.to),
                        "{}: duplicate {} → {}",
                        deps.mechanism,
                        a.from,
                        a.to
                    );
                }
            }
        }
    }
}
