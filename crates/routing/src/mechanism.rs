//! The mechanism family as one dispatchable type, mirroring the paper's
//! §V list (MIN, VAL, PB, OFAR, OFAR-L) plus the PAR extension.

use crate::minimal::MinPolicy;
use crate::ofar::{OfarConfig, OfarPolicy};
use crate::par::ParPolicy;
use crate::pb::{PbConfig, PbPolicy};
use crate::probe::{EnumerablePolicy, ProbeFeedback, ProbePin};
use crate::valiant::ValiantPolicy;
use ofar_engine::snapshot::{Dec, Enc};
use ofar_engine::{
    InputCtx, NetSnapshot, Packet, Policy, Request, RingMode, RouterView, SimConfig,
};

/// Which routing mechanism to simulate. `Copy`, hashable and printable —
/// convenient as a sweep axis in the experiment harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MechanismKind {
    /// Deterministic minimal routing.
    Min,
    /// Valiant randomized routing.
    Valiant,
    /// Piggybacking (Jiang et al.).
    Pb,
    /// Progressive Adaptive Routing (extension baseline; needs
    /// `vcs_local = 4`).
    Par,
    /// On-the-Fly Adaptive Routing (the paper's contribution).
    Ofar,
    /// OFAR without local misrouting (dissection model).
    OfarL,
}

/// Inverse of [`MechanismKind::name`]: command lines, and the mechanism
/// named by a self-describing snapshot file.
impl std::str::FromStr for MechanismKind {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        Ok(match name {
            "MIN" => MechanismKind::Min,
            "VAL" => MechanismKind::Valiant,
            "PB" => MechanismKind::Pb,
            "PAR" => MechanismKind::Par,
            "OFAR" => MechanismKind::Ofar,
            "OFAR-L" => MechanismKind::OfarL,
            _ => return Err(format!("unknown mechanism {name}")),
        })
    }
}

impl MechanismKind {
    /// Paper name of the mechanism.
    pub fn name(self) -> &'static str {
        match self {
            MechanismKind::Min => "MIN",
            MechanismKind::Valiant => "VAL",
            MechanismKind::Pb => "PB",
            MechanismKind::Par => "PAR",
            MechanismKind::Ofar => "OFAR",
            MechanismKind::OfarL => "OFAR-L",
        }
    }

    /// Whether the mechanism needs an escape ring to avoid deadlock.
    pub fn needs_ring(self) -> bool {
        matches!(self, MechanismKind::Ofar | MechanismKind::OfarL)
    }

    /// The five mechanisms evaluated in the paper.
    pub fn paper_set() -> [MechanismKind; 5] {
        [
            MechanismKind::Min,
            MechanismKind::Valiant,
            MechanismKind::Pb,
            MechanismKind::Ofar,
            MechanismKind::OfarL,
        ]
    }

    /// Adjust a base configuration to the mechanism's requirements:
    /// OFAR models get an escape ring (embedded unless one is already
    /// chosen), PAR gets its fourth local VC, and VC-ordered mechanisms
    /// drop the ring they do not use.
    pub fn adapt_config(self, mut cfg: SimConfig) -> SimConfig {
        match self {
            MechanismKind::Ofar | MechanismKind::OfarL => {
                if cfg.ring == RingMode::None {
                    cfg.ring = RingMode::Embedded;
                }
            }
            MechanismKind::Par => {
                cfg.vcs_local = cfg.vcs_local.max(4);
                cfg.ring = RingMode::None;
            }
            _ => cfg.ring = RingMode::None,
        }
        cfg
    }

    /// Instantiate the policy for an (already adapted) configuration.
    pub fn build(self, cfg: &SimConfig, seed: u64) -> Mechanism {
        match self {
            MechanismKind::Min => Mechanism::Min(MinPolicy::new(cfg)),
            MechanismKind::Valiant => Mechanism::Valiant(ValiantPolicy::new(cfg, seed)),
            MechanismKind::Pb => Mechanism::Pb(PbPolicy::new(cfg, seed)),
            MechanismKind::Par => Mechanism::Par(ParPolicy::new(cfg, seed)),
            MechanismKind::Ofar => Mechanism::Ofar(OfarPolicy::new(cfg, seed)),
            MechanismKind::OfarL => Mechanism::Ofar(OfarPolicy::without_local(cfg, seed)),
        }
    }

    /// Instantiate with explicit mechanism tunables where they exist.
    pub fn build_tuned(
        self,
        cfg: &SimConfig,
        seed: u64,
        ofar: Option<OfarConfig>,
        pb: Option<PbConfig>,
    ) -> Mechanism {
        match (self, ofar, pb) {
            (MechanismKind::Ofar | MechanismKind::OfarL, Some(mut o), _) => {
                if self == MechanismKind::OfarL {
                    o.local_misroute = false;
                }
                Mechanism::Ofar(OfarPolicy::with_config(cfg, seed, o))
            }
            (MechanismKind::Pb, _, Some(p)) => Mechanism::Pb(PbPolicy::with_config(cfg, seed, p)),
            _ => self.build(cfg, seed),
        }
    }
}

impl std::fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete routing mechanism (enum dispatch keeps the engine
/// monomorphic over one type while avoiding trait objects in the hot
/// per-cycle path).
#[derive(Clone, Debug)]
pub enum Mechanism {
    /// Minimal routing.
    Min(MinPolicy),
    /// Valiant routing.
    Valiant(ValiantPolicy),
    /// Piggybacking.
    Pb(PbPolicy),
    /// Progressive Adaptive Routing.
    Par(ParPolicy),
    /// OFAR or OFAR-L.
    Ofar(OfarPolicy),
}

impl Policy for Mechanism {
    fn name(&self) -> &'static str {
        match self {
            Mechanism::Min(p) => p.name(),
            Mechanism::Valiant(p) => p.name(),
            Mechanism::Pb(p) => p.name(),
            Mechanism::Par(p) => p.name(),
            Mechanism::Ofar(p) => p.name(),
        }
    }

    fn route(
        &mut self,
        view: &RouterView<'_>,
        input: InputCtx,
        pkt: &mut Packet,
    ) -> Option<Request> {
        match self {
            Mechanism::Min(p) => p.route(view, input, pkt),
            Mechanism::Valiant(p) => p.route(view, input, pkt),
            Mechanism::Pb(p) => p.route(view, input, pkt),
            Mechanism::Par(p) => p.route(view, input, pkt),
            Mechanism::Ofar(p) => p.route(view, input, pkt),
        }
    }

    fn on_inject(&mut self, view: &RouterView<'_>, pkt: &mut Packet) -> usize {
        match self {
            Mechanism::Min(p) => p.on_inject(view, pkt),
            Mechanism::Valiant(p) => p.on_inject(view, pkt),
            Mechanism::Pb(p) => p.on_inject(view, pkt),
            Mechanism::Par(p) => p.on_inject(view, pkt),
            Mechanism::Ofar(p) => p.on_inject(view, pkt),
        }
    }

    fn end_cycle(&mut self, net: &NetSnapshot<'_>) {
        if let Mechanism::Pb(p) = self {
            p.end_cycle(net)
        }
    }

    fn needs_ring(&self) -> bool {
        matches!(self, Mechanism::Ofar(_))
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        let mut e = Enc(std::mem::take(out));
        match self {
            Mechanism::Min(_) => {} // stateless
            Mechanism::Valiant(p) => p.save_state(&mut e),
            Mechanism::Pb(p) => p.save_state(&mut e),
            Mechanism::Par(p) => p.save_state(&mut e),
            Mechanism::Ofar(p) => p.save_state(&mut e),
        }
        *out = e.0;
    }

    fn load_state(&mut self, data: &[u8]) -> Result<(), String> {
        let d = &mut Dec::new(data);
        match self {
            Mechanism::Min(_) => crate::state::finish(d, "MIN"),
            Mechanism::Valiant(p) => p.load_state(d),
            Mechanism::Pb(p) => p.load_state(d),
            Mechanism::Par(p) => p.load_state(d),
            Mechanism::Ofar(p) => p.load_state(d),
        }
    }
}

impl EnumerablePolicy for Mechanism {
    fn set_probe(&mut self, pin: Option<ProbePin>) {
        match self {
            Mechanism::Min(p) => p.set_probe(pin),
            Mechanism::Valiant(p) => p.set_probe(pin),
            Mechanism::Pb(p) => p.set_probe(pin),
            Mechanism::Par(p) => p.set_probe(pin),
            Mechanism::Ofar(p) => p.set_probe(pin),
        }
    }

    fn probe_feedback(&self) -> ProbeFeedback {
        match self {
            Mechanism::Min(p) => p.probe_feedback(),
            Mechanism::Valiant(p) => p.probe_feedback(),
            Mechanism::Pb(p) => p.probe_feedback(),
            Mechanism::Par(p) => p.probe_feedback(),
            Mechanism::Ofar(p) => p.probe_feedback(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_their_named_policies() {
        for kind in [
            MechanismKind::Min,
            MechanismKind::Valiant,
            MechanismKind::Pb,
            MechanismKind::Par,
            MechanismKind::Ofar,
            MechanismKind::OfarL,
        ] {
            let cfg = kind.adapt_config(SimConfig::paper(2));
            let m = kind.build(&cfg, 42);
            assert_eq!(m.name(), kind.name());
            assert_eq!(m.needs_ring(), kind.needs_ring());
            assert_eq!(kind.name().parse(), Ok(kind));
        }
        assert!("ofar".parse::<MechanismKind>().is_err(), "names are exact");
    }

    #[test]
    fn adapt_config_sets_ring_and_vcs() {
        let base = SimConfig::paper(2);
        assert_eq!(
            MechanismKind::Ofar.adapt_config(base).ring,
            RingMode::Embedded
        );
        assert_eq!(MechanismKind::Min.adapt_config(base).ring, RingMode::None);
        assert_eq!(MechanismKind::Par.adapt_config(base).vcs_local, 4);
        // explicit physical ring survives adaptation
        let phys = base.with_ring(RingMode::Physical);
        assert_eq!(
            MechanismKind::OfarL.adapt_config(phys).ring,
            RingMode::Physical
        );
    }

    /// Format pin: the POLICY section of every stateful mechanism after
    /// 300 cycles of a fixed h = 2 workload. The bytes are part of the
    /// snapshot format (`SNAPSHOT_VERSION` 3, unchanged by v4 and v5,
    /// which touched only the STATE and CONFIG sections), so a codec refactor must
    /// leave length and CRC-32 exactly as they are.
    #[test]
    fn save_state_bytes_are_pinned() {
        use ofar_engine::{crc32, Network};
        use ofar_topology::NodeId;
        let pins = [
            (MechanismKind::Valiant, PIN_VAL),
            (MechanismKind::Pb, PIN_PB),
            (MechanismKind::Par, PIN_PAR),
            (MechanismKind::Ofar, PIN_OFAR),
        ];
        for (kind, want) in pins {
            let cfg = kind.adapt_config(SimConfig::paper(2).with_seed(11));
            let mut net = Network::new(cfg, kind.build(&cfg, 42));
            let nodes = net.num_nodes();
            for cycle in 0..300usize {
                if cycle % 16 == 0 {
                    for n in 0..nodes {
                        let dst = (n * 7 + cycle / 16 + 9) % nodes;
                        if dst != n {
                            net.generate(NodeId::from(n), NodeId::from(dst));
                        }
                    }
                }
                net.step();
            }
            assert!(net.stats().delivered_packets > 200, "{kind}: idle run");
            let mut bytes = Vec::new();
            net.policy().save_state(&mut bytes);
            assert_eq!((bytes.len(), crc32(&bytes)), want, "{kind}");
            // ...and the pinned bytes load back into a fresh policy that
            // re-saves them unchanged.
            let mut fresh = kind.build(&cfg, 7);
            fresh.load_state(&bytes).unwrap();
            let mut again = Vec::new();
            fresh.save_state(&mut again);
            assert_eq!(again, bytes, "{kind}: load/save round trip");
        }
    }

    const PIN_VAL: (usize, u32) = (3460, 3_512_305_920);
    const PIN_PB: (usize, u32) = (3752, 1_710_000_027);
    const PIN_PAR: (usize, u32) = (3460, 4_289_716_595);
    const PIN_OFAR: (usize, u32) = (3460, 2_435_466_148);

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(MechanismKind::OfarL.to_string(), "OFAR-L");
        assert_eq!(MechanismKind::Valiant.to_string(), "VAL");
    }
}
