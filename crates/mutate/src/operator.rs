//! The mutation-operator catalog.
//!
//! Each operator is one *semantic* fault class — not a syntactic AST
//! tweak but a deliberate break of one rule the paper's safety argument
//! rests on (VC ladder discipline, misroute flag protocol, escape-ring
//! budget/patience, bubble flow control, credit accounting, or the
//! declarations the verifiers consume). Operators fall into four
//! categories by *where* the fault is seeded:
//!
//! * [`OpCategory::Policy`] — a [`crate::MutantPolicy`] wrapper rewrites
//!   the real mechanism's requests or perturbs packet header state
//!   before delegating;
//! * [`OpCategory::Declaration`] — the `MechanismDeps` fed to the
//!   verifiers is mutated while the routing code stays correct;
//! * [`OpCategory::Config`] — the `SimConfig` is skewed past a proof
//!   precondition (ring depth, ring presence, ladder width);
//! * [`OpCategory::Engine`] — the engine's own flow control is mutated
//!   through its hook seam: the network is built with the hook pair
//!   `(Auditor, EngineMutation)`, one [`ofar_engine::EngineMutation`]
//!   beside the auditor that records what it breaks.

use ofar_routing::MechanismKind;

/// Where a mutation operator seeds its fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpCategory {
    /// Request/header rewriting in a policy wrapper.
    Policy,
    /// Mutation of the declared dependency graph.
    Declaration,
    /// Mutation of the simulator configuration.
    Config,
    /// Flow-control mutation inside the engine.
    Engine,
}

/// One mutation operator of the catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MutationOp {
    // --- VC ladder discipline (policy) --------------------------------
    /// Every canonical local-port request reuses VC 0 (the ladder climb
    /// on local hops is forgotten). Generalizes PR 4's hand-written
    /// `ValFlatLadder`/`MinFlatVc` mutants.
    LocalVcFlatten,
    /// Canonical local-port requests shift one VC up (mod the ladder):
    /// a systematic off-by-one in the local VC computation.
    LocalVcSwap,
    /// Canonical local-port requests use the mirrored VC index
    /// (`vl-1-vc`): ladder direction inverted.
    LocalVcInvert,
    /// Every canonical global-port request reuses VC 0: the phase-2
    /// global hop forgets to climb.
    GlobalVcFlatten,
    /// Canonical global-port requests shift one VC up (mod the global
    /// ladder width).
    GlobalVcSwap,

    // --- delivery / escape-ring protocol (policy) ---------------------
    /// Ejection requests are suppressed: packets reach their
    /// destination and sit there forever.
    EjectNever,
    /// On-ring exits and ejections become ring advances: an on-ring
    /// packet rides past its destination forever (PR 4's
    /// `OfarRingRider`, promoted).
    RingRider,
    /// The per-packet ring-exit budget is reset before every decision —
    /// the §IV-C livelock bound (`max_ring_exits`) is never spent.
    ExitBudgetIgnored,
    /// The wait counter is cleared before every decision: the patience
    /// threshold is never reached and the escape ring is never entered.
    RingNever,

    // --- misroute flag protocol (policy) ------------------------------
    /// `FLAG_LOCAL_MISROUTED` is cleared before every decision: one
    /// local misroute per group becomes unbounded local misrouting.
    LocalFlagStuck,
    /// PAR's provisional flag (`FLAG_AUX`) is re-set before every
    /// decision: the provisional walk to the global-link host never
    /// commits.
    AuxFlagStuck,

    // --- Valiant intermediate choice (policy) -------------------------
    /// The chosen intermediate group is shifted by one (mod groups)
    /// after injection — an off-by-one that can select the source or
    /// destination group.
    IntermediateOffByOne,
    /// The intermediate group is dropped at injection: Valiant-committed
    /// mechanisms silently route minimally on phase-1 resources.
    IntermediateNever,

    // --- escape-ring admission (policy, config-built) ------------------
    /// The escape-ring admission guard is disabled (config-built,
    /// `RingGuard::Off`): blocked heads enter the ring regardless of its
    /// sensed occupancy. Past saturation the low-bandwidth ring turns
    /// into a congestion sink — caught by the admission watchdog, not by
    /// any safety oracle (the bubble keeps the ring deadlock-free either
    /// way).
    RingAdmitAlways,

    // --- declaration mutations ----------------------------------------
    /// All escape-entry edges (`… → escape`) are dropped from the OFAR
    /// declaration: canonical cycles lose their Duato drain.
    DeclDropEscapeDrain,
    /// Every local class in the declaration is retargeted to VC 0: the
    /// declared ladder collapses into a cycle.
    DeclFlattenLadder,
    /// A back edge from the top ladder VC to VC 0 is added to an
    /// otherwise acyclic declaration.
    DeclBackEdge,
    /// All injection edges are dropped from the declaration (the code
    /// still injects): the declaration under-approximates.
    DeclDropInject,

    // --- configuration mutations ---------------------------------------
    /// Ring buffers shrunk to one packet: the §IV-C bubble condition
    /// (`buf_ring ≥ 2·packet_size`) is violated.
    CfgShallowRingBuffer,
    /// The escape ring is removed from an OFAR configuration.
    CfgNoRing,
    /// The VC ladder is folded below the mechanism's path length
    /// (reduced-VC configuration without an escape ring).
    CfgFoldedLadder,

    // --- engine flow-control mutations ----------------------------------
    /// Returned credits are dropped at the landing loop
    /// ([`ofar_engine::EngineMutation::CreditLeak`]).
    EngineCreditLeak,
    /// Returned credits land twice
    /// ([`ofar_engine::EngineMutation::CreditDouble`]).
    EngineCreditDouble,
    /// Returned credits land on the next VC of the port
    /// ([`ofar_engine::EngineMutation::EscapeVcSkew`]).
    EngineEscapeVcSkew,
    /// Ring entry granted with space for one packet instead of two
    /// ([`ofar_engine::EngineMutation::RingBubbleSkip`]).
    EngineRingBubbleSkip,
    /// The congestion-management token bucket is ignored at injection
    /// ([`ofar_engine::EngineMutation::ThrottleBypass`]): the NIC
    /// injects on a short bucket, so granted − consumed drifts below
    /// the summed levels and the `ThrottleTokenLaw` deep check fires.
    EngineThrottleBypass,
}

impl MutationOp {
    /// Every operator in the catalog, in report order.
    pub const ALL: &'static [MutationOp] = &[
        MutationOp::LocalVcFlatten,
        MutationOp::LocalVcSwap,
        MutationOp::LocalVcInvert,
        MutationOp::GlobalVcFlatten,
        MutationOp::GlobalVcSwap,
        MutationOp::EjectNever,
        MutationOp::RingRider,
        MutationOp::ExitBudgetIgnored,
        MutationOp::RingNever,
        MutationOp::LocalFlagStuck,
        MutationOp::AuxFlagStuck,
        MutationOp::IntermediateOffByOne,
        MutationOp::IntermediateNever,
        MutationOp::RingAdmitAlways,
        MutationOp::DeclDropEscapeDrain,
        MutationOp::DeclFlattenLadder,
        MutationOp::DeclBackEdge,
        MutationOp::DeclDropInject,
        MutationOp::CfgShallowRingBuffer,
        MutationOp::CfgNoRing,
        MutationOp::CfgFoldedLadder,
        MutationOp::EngineCreditLeak,
        MutationOp::EngineCreditDouble,
        MutationOp::EngineEscapeVcSkew,
        MutationOp::EngineRingBubbleSkip,
        MutationOp::EngineThrottleBypass,
    ];

    /// Short stable name (kill-matrix row label; with the mechanism's,
    /// the key each pair's seed is derived from).
    pub fn name(self) -> &'static str {
        match self {
            MutationOp::LocalVcFlatten => "local-vc-flatten",
            MutationOp::LocalVcSwap => "local-vc-swap",
            MutationOp::LocalVcInvert => "local-vc-invert",
            MutationOp::GlobalVcFlatten => "global-vc-flatten",
            MutationOp::GlobalVcSwap => "global-vc-swap",
            MutationOp::EjectNever => "eject-never",
            MutationOp::RingRider => "ring-rider",
            MutationOp::ExitBudgetIgnored => "exit-budget-ignored",
            MutationOp::RingNever => "ring-never",
            MutationOp::LocalFlagStuck => "local-flag-stuck",
            MutationOp::AuxFlagStuck => "aux-flag-stuck",
            MutationOp::IntermediateOffByOne => "intermediate-off-by-one",
            MutationOp::IntermediateNever => "intermediate-never",
            MutationOp::RingAdmitAlways => "ring-admit-always",
            MutationOp::DeclDropEscapeDrain => "decl-drop-escape-drain",
            MutationOp::DeclFlattenLadder => "decl-flatten-ladder",
            MutationOp::DeclBackEdge => "decl-back-edge",
            MutationOp::DeclDropInject => "decl-drop-inject",
            MutationOp::CfgShallowRingBuffer => "cfg-shallow-ring-buffer",
            MutationOp::CfgNoRing => "cfg-no-ring",
            MutationOp::CfgFoldedLadder => "cfg-folded-ladder",
            MutationOp::EngineCreditLeak => "engine-credit-leak",
            MutationOp::EngineCreditDouble => "engine-credit-double",
            MutationOp::EngineEscapeVcSkew => "engine-escape-vc-skew",
            MutationOp::EngineRingBubbleSkip => "engine-ring-bubble-skip",
            MutationOp::EngineThrottleBypass => "engine-throttle-bypass",
        }
    }

    /// Which seam the operator mutates.
    pub fn category(self) -> OpCategory {
        use MutationOp::*;
        match self {
            DeclDropEscapeDrain | DeclFlattenLadder | DeclBackEdge | DeclDropInject => {
                OpCategory::Declaration
            }
            CfgShallowRingBuffer | CfgNoRing | CfgFoldedLadder => OpCategory::Config,
            EngineCreditLeak | EngineCreditDouble | EngineEscapeVcSkew | EngineRingBubbleSkip
            | EngineThrottleBypass => OpCategory::Engine,
            _ => OpCategory::Policy,
        }
    }

    /// Whether applying the operator to this mechanism seeds a *defect*
    /// — a break of a rule the mechanism's safety argument rests on.
    /// Every applicable pair must die in the oracle stack with a
    /// witness; a pair that would be the identity, or a legal behaviour
    /// of the host mechanism, is excluded here rather than tolerated as
    /// a survivor (DESIGN.md §11.3).
    pub fn applies_to(self, kind: MechanismKind) -> bool {
        use MechanismKind as K;
        use MutationOp::*;
        match self {
            LocalVcSwap | GlobalVcSwap | EjectNever | DeclDropInject | EngineCreditLeak
            | EngineCreditDouble | EngineEscapeVcSkew | EngineThrottleBypass => true,
            // OFAR's declaration is VC-agnostic: its safety rests on the
            // escape ring, not on a ladder, so reusing or mirroring a
            // ladder VC is legal there.
            LocalVcFlatten | LocalVcInvert => !matches!(kind, K::Ofar | K::OfarL),
            // MIN only ever uses global VC 0: flattening is the identity.
            GlobalVcFlatten => !matches!(kind, K::Min | K::Ofar | K::OfarL),
            RingRider | ExitBudgetIgnored | RingNever | LocalFlagStuck | RingAdmitAlways
            | DeclDropEscapeDrain | CfgShallowRingBuffer | CfgNoRing | EngineRingBubbleSkip => {
                matches!(kind, K::Ofar | K::OfarL)
            }
            AuxFlagStuck => kind == K::Par,
            IntermediateOffByOne => matches!(kind, K::Valiant | K::Pb | K::Par),
            // PAR picks its intermediate in-transit, not at injection;
            // PB's declaration contains MIN's, so routing minimally is
            // legal there.
            IntermediateNever => kind == K::Valiant,
            // OFAR's near-complete declaration keeps its escape drain
            // when flattened, so the mutant is not a defect there.
            DeclFlattenLadder | DeclBackEdge => {
                matches!(kind, K::Min | K::Valiant | K::Pb | K::Par)
            }
            // MIN's two-VC ladder genuinely fits a folded configuration,
            // so the folded config is only a defect for the three-phase
            // mechanisms.
            CfgFoldedLadder => matches!(kind, K::Valiant | K::Pb | K::Par),
        }
    }

    /// One-line description for reports.
    pub fn describe(self) -> &'static str {
        match self {
            MutationOp::LocalVcFlatten => "local hops reuse VC 0 (ladder climb forgotten)",
            MutationOp::LocalVcSwap => "local VC off-by-one (mod ladder)",
            MutationOp::LocalVcInvert => "local VC ladder direction inverted",
            MutationOp::GlobalVcFlatten => "global hops reuse VC 0",
            MutationOp::GlobalVcSwap => "global VC off-by-one (mod ladder)",
            MutationOp::EjectNever => "ejection suppressed at the destination",
            MutationOp::RingRider => "ring exits/ejections become ring advances",
            MutationOp::ExitBudgetIgnored => "ring-exit budget never decremented",
            MutationOp::RingNever => "wait counter cleared (escape ring never entered)",
            MutationOp::LocalFlagStuck => "local-misroute flag never observed set",
            MutationOp::AuxFlagStuck => "PAR provisional flag re-set every decision",
            MutationOp::IntermediateOffByOne => "intermediate group off-by-one after injection",
            MutationOp::IntermediateNever => "Valiant intermediate dropped at injection",
            MutationOp::RingAdmitAlways => "escape-ring admission guard disabled",
            MutationOp::DeclDropEscapeDrain => "declared escape-entry edges removed",
            MutationOp::DeclFlattenLadder => "declared local ladder collapsed to VC 0",
            MutationOp::DeclBackEdge => "cycle-closing back edge added to declaration",
            MutationOp::DeclDropInject => "declared injection edges removed",
            MutationOp::CfgShallowRingBuffer => "ring buffers below the 2-packet bubble",
            MutationOp::CfgNoRing => "escape ring removed from an OFAR config",
            MutationOp::CfgFoldedLadder => "VC ladder folded below the path length",
            MutationOp::EngineCreditLeak => "credit returns dropped",
            MutationOp::EngineCreditDouble => "credit returns doubled",
            MutationOp::EngineEscapeVcSkew => "credit returns land on the wrong VC",
            MutationOp::EngineRingBubbleSkip => "ring entry granted without the bubble",
            MutationOp::EngineThrottleBypass => "injection token bucket ignored",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = MutationOp::ALL.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MutationOp::ALL.len());
    }

    #[test]
    fn every_operator_applies_somewhere() {
        for &op in MutationOp::ALL {
            assert!(
                crate::MECHANISMS.iter().any(|&k| op.applies_to(k)),
                "{} applies to no mechanism",
                op.name()
            );
        }
    }
}
