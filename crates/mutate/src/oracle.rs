//! Drive one mutant through the oracle stack and record per-oracle
//! verdicts.
//!
//! Which oracles run depends on the operator's category:
//!
//! * **Config** mutants go to the CDG certifier ([`ofar_verify::certify`])
//!   — a skewed configuration must be refused before cycle 0, so the
//!   other oracles never see it.
//! * **Declaration** mutants go to the CDG certifier over the mutated
//!   declaration ([`ofar_verify::certify_decl`]) *and* to the
//!   conformance checker with the *real* policy against that
//!   declaration — a declaration can be wrong in two directions
//!   (cyclic, or an under-approximation of the code) and the two
//!   oracles split that work.
//! * **Policy** mutants go to the conformance model checker against the
//!   real declaration, then through an audited adversarial burst
//!   (runtime auditor + progress watchdog).
//! * **Engine** mutants bypass the static stack entirely (the routing
//!   code is untouched) and go straight to the audited burst.
//!
//! Every oracle that runs gets a recorded verdict, even after an
//! earlier oracle already killed the mutant — the matrix wants to know
//! *all* the detectors a defect trips, not just the first.

use crate::operator::{MutationOp, OpCategory};
use crate::MutantPolicy;
use ofar_core::{burst_net, network, Point, RunConfig, Shape, Tunables};
use ofar_engine::{Auditor, EngineMutation, Fabric, Hooks, Network, Policy, RingMode, SimConfig};
use ofar_routing::{ClassEdge, ClassId, DependencyDecl, EdgeWhy, MechanismDeps, MechanismKind};
use ofar_traffic::{OpenLoop, TrafficSpec};
use ofar_verify::{
    certify, certify_decl, conformance_with, OracleKind, OracleVerdict, RankingKind,
};

/// Deep-audit interval for mutation bursts: tight enough that a leaked
/// or doubled credit is caught within a handful of cycles of the seam
/// firing, loose enough that an h=2 burst stays fast.
const AUDIT_INTERVAL: u64 = 8;

/// Packets per node in the dynamic burst. Adversarial traffic at this
/// depth saturates the global links at h=2 without making a single
/// (mutant × oracle) run the matrix's critical path.
const BURST_DEPTH: usize = 8;

/// Offered load of the sustained-overload dynamic stage,
/// phits/(node·cycle). Well past every mechanism's ADV+1 saturation at
/// h=2, so router buffers stay congested — and the token buckets stay
/// short — for the whole run.
const OVERLOAD_OFFERED: f64 = 0.5;

/// Length of the sustained-overload segment in cycles.
const OVERLOAD_CYCLES: u64 = 4_000;

/// Rate-watchdog window: every `OVERLOAD_WINDOW` cycles a delivered
/// delta is compared against its floor.
const OVERLOAD_WINDOW: u64 = 500;

/// Minimum total packets delivered per window once the pipeline has
/// filled (the first window is exempt). Every mechanism sustains
/// several hundred at h=2 under [`OVERLOAD_OFFERED`]; this floor only
/// exists so the overload stage still carries a liveness check for
/// operators whose kill comes from the auditor.
const OVERLOAD_TOTAL_FLOOR: u64 = 150;

/// Packets per node of the synchronized wave driven at the admission
/// watchdog (see [`wave_admission_verdicts`]).
const WAVE_DEPTH: usize = 8;

/// Observation horizon of the admission watchdog, in cycles. Matches
/// [`ofar_routing::RING_GUARD_GRACE`]: the guard's whole effect lives
/// inside this window — past it, grace expires and guarded admissions
/// converge with unguarded ones (by design; the bound is what keeps the
/// liveness argument intact).
const WAVE_OBSERVE: u64 = 100;

/// Maximum escape-ring entries a guarded OFAR admits within
/// [`WAVE_OBSERVE`] cycles of the wave. Calibrated at h=2 across seeds
/// (the wave is closed-loop and nearly seed-invariant): the guard-on
/// twin of the `ring-admit-always` tuning admits 72 entries — those
/// made while the ring still sensed below threshold — while the
/// guard-off mutant admits 171, piling onto a ring it can sense is
/// already saturated. The cap sits between the two with margin on both
/// sides.
const WAVE_ENTRY_CAP: u64 = 120;

/// The verdicts of one mutant against every oracle that ran.
#[derive(Clone, Debug)]
pub struct MutantOutcome {
    /// The seeded operator.
    pub op: MutationOp,
    /// The host mechanism.
    pub mech: MechanismKind,
    /// Per-oracle verdicts, in stack order. Oracles that do not apply
    /// to the operator's category are absent.
    pub verdicts: Vec<(OracleKind, OracleVerdict)>,
}

impl MutantOutcome {
    /// The first oracle that killed the mutant, with its witness.
    pub fn killed_by(&self) -> Option<(OracleKind, &str)> {
        self.verdicts.iter().find_map(|(k, v)| match v {
            OracleVerdict::Fail { witness } => Some((*k, witness.as_str())),
            OracleVerdict::Pass => None,
        })
    }

    /// Every oracle that killed the mutant, in stack order.
    pub fn killers(&self) -> impl Iterator<Item = OracleKind> + '_ {
        self.verdicts
            .iter()
            .filter(|(_, v)| matches!(v, OracleVerdict::Fail { .. }))
            .map(|&(k, _)| k)
    }

    /// Whether the mutant survived the whole stack.
    pub fn survived(&self) -> bool {
        self.killed_by().is_none()
    }
}

/// Build the mutated configuration for a [`OpCategory::Config`]
/// operator from the mechanism-adapted base.
fn mutate_config(op: MutationOp, cfg: &SimConfig) -> SimConfig {
    let mut cfg = *cfg;
    match op {
        MutationOp::CfgShallowRingBuffer => cfg.buf_ring = cfg.packet_size,
        MutationOp::CfgNoRing => cfg.ring = RingMode::None,
        MutationOp::CfgFoldedLadder => {
            // The fold is the defect under test, not the ring: keep the
            // mechanism-adapted ring mode and only collapse the ladder.
            let folded = SimConfig::reduced_vcs(cfg.params.h);
            cfg.vcs_local = folded.vcs_local;
            cfg.vcs_global = folded.vcs_global;
            cfg.vcs_injection = folded.vcs_injection;
        }
        _ => unreachable!("{} is not a config operator", op.name()),
    }
    cfg
}

/// Build the mutated declaration for a [`OpCategory::Declaration`]
/// operator from the mechanism's real declaration.
fn mutate_decl(op: MutationOp, decl: &MechanismDeps) -> MechanismDeps {
    let mut decl = decl.clone();
    match op {
        MutationOp::DeclDropEscapeDrain => {
            decl.edges
                .retain(|e| !(e.to == ClassId::Escape && e.from != ClassId::Escape));
        }
        MutationOp::DeclFlattenLadder => {
            for e in &mut decl.edges {
                if let ClassId::Local { .. } = e.to {
                    e.to = ClassId::Local { vc: 0 };
                }
            }
            decl.edges.sort_unstable_by_key(|a| (a.from, a.to));
            decl.edges.dedup_by_key(|e| (e.from, e.to));
        }
        MutationOp::DeclBackEdge => {
            let top = decl
                .edges
                .iter()
                .filter_map(|e| match e.to {
                    ClassId::Local { vc } => Some(vc),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            decl.edges.push(ClassEdge {
                from: ClassId::Local { vc: top },
                to: ClassId::Local { vc: 0 },
                why: EdgeWhy::MisrouteLocal,
            });
        }
        MutationOp::DeclDropInject => {
            decl.edges
                .retain(|e| !matches!(e.from, ClassId::Inject { .. }));
        }
        _ => unreachable!("{} is not a declaration operator", op.name()),
    }
    decl
}

/// A network whose hooks are the runtime auditor at the harness's deep
/// cadence — the host of every mutant whose defect is not in the engine.
fn audited<P: Policy>(cfg: SimConfig, policy: P) -> Network<P, Auditor> {
    let hooks = Auditor::with_deep_interval(AUDIT_INTERVAL);
    Network::with_hooks(Fabric::new(cfg), policy, hooks)
}

/// Run the two dynamic oracles: an adversarial burst over a
/// caller-prepared network with auditing hooks. Returns
/// `(audit, watchdog)` verdicts.
fn dynamic_verdicts<P: Policy, H: Hooks>(
    net: &mut Network<P, H>,
    seed: u64,
) -> (OracleVerdict, OracleVerdict) {
    let result = burst_net(
        net,
        &TrafficSpec::adversarial(1),
        BURST_DEPTH,
        seed,
        RunConfig::default(),
    );
    let audit = audit_verdict(result.audit.unwrap_or_default());
    let watchdog = match result.stall {
        None => OracleVerdict::Pass,
        Some(stall) => OracleVerdict::Fail {
            witness: format!("{stall}, {} delivered", result.delivered),
        },
    };
    (audit, watchdog)
}

/// Verdict of the runtime auditor from its report.
fn audit_verdict(report: ofar_engine::AuditReport) -> OracleVerdict {
    if report.is_clean() {
        OracleVerdict::Pass
    } else {
        OracleVerdict::Fail {
            witness: format!(
                "{} violation(s); first: {}",
                report.total_violations(),
                report
                    .violations
                    .first()
                    .map(|v| v.to_string())
                    .unwrap_or_default()
            ),
        }
    }
}

/// The sustained-overload dynamic stage for the throttle seam: open-loop
/// adversarial injection at [`OVERLOAD_OFFERED`] for [`OVERLOAD_CYCLES`]
/// with the deep auditor enabled, and a per-window delivery-rate
/// watchdog instead of the burst runner's zero-drain triggers. Returns
/// `(audit, rate-watchdog)` verdicts.
fn overload_verdicts<P: Policy, H: Hooks>(
    net: &mut Network<P, H>,
    seed: u64,
) -> (OracleVerdict, OracleVerdict) {
    let topo = *net.fabric().topo();
    let mut source = OpenLoop::new(
        &topo,
        TrafficSpec::adversarial(1),
        OVERLOAD_OFFERED,
        net.cfg().packet_size,
        seed,
    );
    let mut window_start = 0u64;
    let mut watchdog = OracleVerdict::Pass;
    for cycle in 1..=OVERLOAD_CYCLES {
        source.cycle(|src, dst| net.generate(src, dst));
        net.step();
        if cycle % OVERLOAD_WINDOW == 0 {
            let delivered = net.stats().delivered_packets;
            let window = delivered - window_start;
            window_start = delivered;
            // The first window is pipeline fill; every later one must
            // sustain the floor.
            if cycle > OVERLOAD_WINDOW && window < OVERLOAD_TOTAL_FLOOR {
                let s = net.stats();
                watchdog = OracleVerdict::Fail {
                    witness: format!(
                        "overload rate-watchdog: {window} delivered in window ending at cycle \
                         {cycle} (floor {OVERLOAD_TOTAL_FLOOR}); backlog {}",
                        s.generated_packets - s.delivered_packets
                    ),
                };
                break;
            }
        }
    }
    let audit = audit_verdict(net.take_audit_report().unwrap_or_default());
    (audit, watchdog)
}

/// The admission watchdog for the escape-ring guard: a synchronized
/// closed-loop wave ([`WAVE_DEPTH`] adversarial packets per node, all
/// generated at cycle 0) slams every blocked head into the ring at
/// once, and the ring entries admitted within the guard's grace window
/// ([`WAVE_OBSERVE`] cycles) are counted against [`WAVE_ENTRY_CAP`].
///
/// This is the only window in which the guard is *observable*: a
/// guard-off OFAR cannot deadlock (the bubble certificate holds either
/// way) and under sustained overload every head eventually out-waits
/// the grace bound, so burst watchdogs and steady-state throughput
/// floors both pass the mutant. What the guard changes is the admission
/// *transient* — deferring entry while the ring senses saturated, so a
/// congestion spike cannot convert the escape resource into a sink in
/// the first place. The wave makes that transient deterministic
/// (closed-loop, seed-invariant up to destination choice) and the entry
/// count makes it checkable. The run then continues to
/// [`OVERLOAD_CYCLES`] so the deep auditor sweeps the drain as well.
fn wave_admission_verdicts<P: Policy, H: Hooks>(
    net: &mut Network<P, H>,
    seed: u64,
) -> (OracleVerdict, OracleVerdict) {
    let topo = *net.fabric().topo();
    OpenLoop::fill(
        &topo,
        TrafficSpec::adversarial(1),
        WAVE_DEPTH,
        seed,
        |src, dst| net.generate(src, dst),
    );
    while net.now() < WAVE_OBSERVE {
        net.step();
    }
    let entries = net.stats().ring_entries;
    let watchdog = if entries > WAVE_ENTRY_CAP {
        OracleVerdict::Fail {
            witness: format!(
                "admission watchdog: {entries} ring entries within {WAVE_OBSERVE} cycles of the \
                 wave (cap {WAVE_ENTRY_CAP}) — the ring is being admitted while sensed saturated"
            ),
        }
    } else {
        OracleVerdict::Pass
    };
    while net.now() < OVERLOAD_CYCLES
        && net.stats().delivered_packets < net.stats().generated_packets
    {
        net.step();
    }
    let audit = audit_verdict(net.take_audit_report().unwrap_or_default());
    (audit, watchdog)
}

/// Run one `(operator × mechanism)` mutant through its oracles.
///
/// `cfg` is the *base* configuration (e.g. [`SimConfig::paper`]); it is
/// adapted to the mechanism here. The seed only affects the dynamic
/// burst — the static oracles enumerate instead of sampling.
pub fn run_mutant(
    op: MutationOp,
    kind: MechanismKind,
    cfg: &SimConfig,
    seed: u64,
) -> MutantOutcome {
    assert!(op.applies_to(kind));
    let cfg = kind.adapt_config(*cfg);
    let rank = RankingKind::for_mechanism(kind);
    let mut verdicts = Vec::new();
    match op.category() {
        OpCategory::Config => {
            let bad = mutate_config(op, &cfg);
            verdicts.push((OracleKind::Cdg, certify(&bad, kind).into()));
        }
        OpCategory::Declaration => {
            let bad = mutate_decl(op, &kind.dependency_decl(&cfg));
            verdicts.push((OracleKind::Cdg, certify_decl(&cfg, &bad).into()));
            let conf = conformance_with(&cfg, kind.build(&cfg, 0), bad, rank);
            verdicts.push((OracleKind::Conformance, conf.into()));
        }
        OpCategory::Policy => {
            // The admission-guard defect is only observable when the
            // congestion-management layer that owns the guard is
            // actually on; the other policy mutants run the plain
            // configuration their mechanisms ship with.
            let cfg = if op == MutationOp::RingAdmitAlways {
                cfg.with_cm()
            } else {
                cfg
            };
            let decl = kind.dependency_decl(&cfg);
            let conf = conformance_with(&cfg, MutantPolicy::new(op, kind, &cfg, 0), decl, rank);
            verdicts.push((OracleKind::Conformance, conf.into()));
            let mut net = audited(cfg, MutantPolicy::new(op, kind, &cfg, seed));
            let (audit, watchdog) = if op == MutationOp::RingAdmitAlways {
                // Guard-off OFAR is deadlock-free (the bubble holds), so
                // the closed-loop burst cannot kill it; the wave
                // admission watchdog can.
                wave_admission_verdicts(&mut net, seed)
            } else {
                dynamic_verdicts(&mut net, seed)
            };
            verdicts.push((OracleKind::Audit, audit));
            verdicts.push((OracleKind::Watchdog, watchdog));
        }
        OpCategory::Engine => {
            // The throttle-bypass seam is dead code unless the token
            // bucket is live and actually runs dry: congestion
            // management on, with a sensing target low enough that the
            // adversarial burst throttles routers within a few EWMA
            // steps. Once a bucket is short, the bypassed injection
            // still pays full price into `cm_tokens_consumed` and the
            // token law breaks at the next deep audit.
            let cfg = if op == MutationOp::EngineThrottleBypass {
                let mut c = cfg.with_cm();
                c.cm_target_occupancy = 0.05;
                c.cm_hysteresis = 0.02;
                c.cm_min_rate = 0.05;
                c
            } else {
                cfg
            };
            // The bubble-skip defect only bites when ring entries are
            // actually attempted against depleted escape credits, so
            // that mutant gets the most hostile tuning the real OFAR
            // code allows: zero ring patience (every blocked head asks
            // for the ring at once) and a misroute threshold that
            // admits nothing (blocked heads cannot dodge sideways, so
            // the ring is the only relief valve). The default tuning
            // misroutes around congestion and never enters the ring at
            // this scale, leaving the seam unexercised.
            let bubble_skip = op == MutationOp::EngineRingBubbleSkip && kind.needs_ring();
            let ofar = bubble_skip.then(|| ofar_routing::OfarConfig {
                ring_patience: 0,
                threshold: ofar_routing::MisrouteThreshold::Static {
                    th_min: 0.0,
                    th_nonmin: -1.0,
                },
                ..ofar_routing::OfarConfig::base()
            });
            // The stage below drives the network: the point's shape only
            // sets the recorder's window, cycle 0 for either stage.
            let shape = Shape::burst(BURST_DEPTH);
            let point = Point::new(cfg, kind, &TrafficSpec::adversarial(1), seed, shape);
            let tunables = Tunables { ofar, pb: None };
            let extra = (
                Auditor::with_deep_interval(AUDIT_INTERVAL),
                engine_mutation(op),
            );
            let mut net = network(&Point { tunables, ..point }, extra);
            // The token law only has something to say while buckets run
            // dry, which a drained burst stops exercising after a few
            // hundred cycles — the throttle seam gets the sustained
            // stage instead.
            let (audit, watchdog) = if op == MutationOp::EngineThrottleBypass {
                overload_verdicts(&mut net, seed)
            } else {
                dynamic_verdicts(&mut net, seed)
            };
            verdicts.push((OracleKind::Audit, audit));
            verdicts.push((OracleKind::Watchdog, watchdog));
        }
    }
    MutantOutcome {
        op,
        mech: kind,
        verdicts,
    }
}

/// Map an engine-category operator onto the engine's fault seam.
fn engine_mutation(op: MutationOp) -> EngineMutation {
    match op {
        MutationOp::EngineCreditLeak => EngineMutation::CreditLeak,
        MutationOp::EngineCreditDouble => EngineMutation::CreditDouble,
        MutationOp::EngineEscapeVcSkew => EngineMutation::EscapeVcSkew,
        MutationOp::EngineRingBubbleSkip => EngineMutation::RingBubbleSkip,
        MutationOp::EngineThrottleBypass => EngineMutation::ThrottleBypass,
        _ => unreachable!("{} is not an engine operator", op.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_mutants_are_killed_by_the_cdg_oracle() {
        let cfg = SimConfig::paper(2);
        let out = run_mutant(MutationOp::CfgNoRing, MechanismKind::Ofar, &cfg, 1);
        let (oracle, witness) = out.killed_by().expect("ring-less OFAR must be refused");
        assert_eq!(oracle, OracleKind::Cdg);
        assert!(!witness.is_empty());
    }

    #[test]
    fn throttle_bypass_dies_in_the_token_law() {
        let cfg = SimConfig::paper(2);
        let out = run_mutant(
            MutationOp::EngineThrottleBypass,
            MechanismKind::Ofar,
            &cfg,
            7,
        );
        let (oracle, witness) = out.killed_by().expect("bypassed bucket must be caught");
        assert_eq!(oracle, OracleKind::Audit);
        assert!(witness.contains("throttle token law"), "witness: {witness}");
    }

    #[test]
    fn ring_admit_always_dies_in_the_admission_watchdog() {
        let cfg = SimConfig::paper(2);
        let out = run_mutant(MutationOp::RingAdmitAlways, MechanismKind::Ofar, &cfg, 7);
        let (oracle, witness) = out
            .killed_by()
            .expect("guard-off admissions must be caught");
        assert_eq!(oracle, OracleKind::Watchdog);
        assert!(witness.contains("admission watchdog"), "witness: {witness}");
    }

    #[test]
    fn the_guarded_twin_passes_the_admission_watchdog() {
        // Honesty anchor for the admission watchdog: the mutant's exact
        // ring-hungry tuning with the guard left *on* (what `Auto`
        // resolves to under CM) must clear the same wave cap — the
        // guard really is the only difference the oracle sees.
        use ofar_routing::{MisrouteThreshold, OfarConfig, RingGuard, RING_GUARD_DEFAULT};
        let cfg = MechanismKind::Ofar
            .adapt_config(SimConfig::paper(2))
            .with_cm();
        let twin = MechanismKind::Ofar.build_tuned(
            &cfg,
            7,
            Some(OfarConfig {
                ring_guard: RingGuard::Threshold(RING_GUARD_DEFAULT),
                ring_patience: 1,
                threshold: MisrouteThreshold::Static {
                    th_min: 0.0,
                    th_nonmin: -1.0,
                },
                ..OfarConfig::base()
            }),
            None,
        );
        let mut net = audited(cfg, twin);
        let (audit, watchdog) = wave_admission_verdicts(&mut net, 7);
        assert!(matches!(audit, OracleVerdict::Pass), "audit: {audit:?}");
        assert!(
            matches!(watchdog, OracleVerdict::Pass),
            "watchdog: {watchdog:?}"
        );
    }

    #[test]
    fn dropped_escape_drain_is_killed_statically() {
        let cfg = SimConfig::paper(2);
        let out = run_mutant(
            MutationOp::DeclDropEscapeDrain,
            MechanismKind::Ofar,
            &cfg,
            1,
        );
        assert_eq!(out.killed_by().expect("must be killed").0, OracleKind::Cdg);
    }
}
