//! The engine against its referee: `Network` and the naive stepper of
//! `naive/` run the same traffic under the same policy, and must agree
//! cycle by cycle — every `Policy` call with the packet it saw and what
//! it answered, every transmission and delivery tap, every `Stats`
//! counter and per-source delivery count — and, once both have drained,
//! on the delivered `(id, cycle)` stream.
//!
//! The configurations are the lossless, fault-free core: h = 2 and 3,
//! the six mechanisms, UN, ADV+1 and ADV+2 open loop at random loads or
//! one closed burst, and varied VC counts and buffer sizes. Run in the
//! dev profile (`cargo test -p ofar-engine --test referee`), where
//! overflow checks are on.

mod naive;

use naive::Naive;
use ofar_engine::{
    AuditViolation, Fabric, Hooks, InputCtx, NetSnapshot, Network, Packet, Policy, Request,
    RingMode, RouterView, SimConfig, Tap,
};
use ofar_routing::{MechanismKind, OfarConfig};
use ofar_topology::{NodeId, RouterId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// One `Policy` call and what it saw and answered.
#[derive(Debug, PartialEq)]
enum Call {
    Inject {
        router: RouterId,
        pkt: Packet,
        vc: usize,
    },
    Route {
        router: RouterId,
        port: usize,
        vc: usize,
        escape: bool,
        pkt: Packet,
        req: Option<Request>,
    },
}

/// A policy that records every call it forwards, into a log the test
/// holds a handle to.
struct Spy<P> {
    inner: P,
    calls: Rc<RefCell<Vec<Call>>>,
}

impl<P: Policy> Policy for Spy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(
        &mut self,
        view: &RouterView<'_>,
        input: InputCtx,
        pkt: &mut Packet,
    ) -> Option<Request> {
        let req = self.inner.route(view, input, pkt);
        self.calls.borrow_mut().push(Call::Route {
            router: view.router,
            port: input.port,
            vc: input.vc,
            escape: input.is_escape_vc,
            pkt: *pkt,
            req,
        });
        req
    }

    fn on_inject(&mut self, view: &RouterView<'_>, pkt: &mut Packet) -> usize {
        let vc = self.inner.on_inject(view, pkt);
        self.calls.borrow_mut().push(Call::Inject {
            router: view.router,
            pkt: *pkt,
            vc,
        });
        vc
    }

    fn end_cycle(&mut self, net: &NetSnapshot<'_>) {
        self.inner.end_cycle(net);
    }

    fn needs_ring(&self) -> bool {
        self.inner.needs_ring()
    }
}

/// The engine's `Transmit` and `Delivered` taps. A failed invariant
/// check is answered as a recording hook answers it, not asserted: the
/// comparison with the referee is the judge, and it names the first
/// cycle and call where the two part.
#[derive(Default)]
struct Taps(Vec<Tap>);

impl Hooks for Taps {
    fn check(&mut self, ok: impl FnOnce() -> bool, _: impl FnOnce() -> AuditViolation) -> bool {
        ok()
    }

    fn tap(&mut self, ev: Tap) {
        if matches!(ev, Tap::Transmit(..) | Tap::Delivered(..)) {
            self.0.push(ev);
        }
    }
}

/// What is driven: open-loop Bernoulli traffic for `cycles` cycles, or
/// a closed burst of `burst` packets per node at cycle 0; destinations
/// uniform (`adv` 0) or in the group `adv` over.
#[derive(Clone, Copy, Debug)]
struct Traffic {
    adv: usize,
    /// Offered load, in thousandths of a phit per node and cycle.
    load: u32,
    cycles: u64,
    burst: usize,
}

/// The destinations one cycle (or the burst) generates, in node order.
fn draw(
    rng: &mut SmallRng,
    cfg: &SimConfig,
    t: Traffic,
    per_node: impl Fn(&mut SmallRng) -> usize,
) -> Vec<(NodeId, NodeId)> {
    let p = &cfg.params;
    let (nodes, per_group) = (p.nodes(), p.p * p.a);
    let groups = nodes / per_group;
    let mut out = Vec::new();
    for src in 0..nodes {
        for _ in 0..per_node(rng) {
            let dst = if t.adv == 0 {
                (src + rng.gen_range(1..nodes)) % nodes
            } else {
                let g = (src / per_group + t.adv) % groups;
                g * per_group + rng.gen_range(0..per_group)
            };
            out.push((NodeId::from(src), NodeId::from(dst)));
        }
    }
    out
}

/// Run the engine and the referee side by side until both drain; the
/// first disagreement is the error.
fn agree(
    cfg: SimConfig,
    kind: MechanismKind,
    ofar: OfarConfig,
    t: Traffic,
    seed: u64,
) -> Result<(), String> {
    let (ours, theirs) = (Rc::default(), Rc::default());
    let spy = |calls: &Rc<RefCell<Vec<Call>>>| Spy {
        inner: kind.build_tuned(&cfg, seed, Some(ofar), None),
        calls: Rc::clone(calls),
    };
    let mut net = Network::with_hooks(Fabric::new(cfg), spy(&ours), Taps::default());
    let mut naive = Naive::new(Fabric::new(cfg), spy(&theirs));
    let mut rng = SmallRng::seed_from_u64(seed);
    let generate = |net: &mut Network<_, _>, naive: &mut Naive<_>, pairs: Vec<_>| {
        for (src, dst) in pairs {
            net.generate(src, dst);
            naive.generate(src, dst);
        }
    };
    generate(&mut net, &mut naive, draw(&mut rng, &cfg, t, |_| t.burst));
    let chance = f64::from(t.load) / 1000.0 / cfg.packet_size as f64;
    // Per packet id: the cycle of the last `route` call the engine made
    // for it. A packet is polled every cycle its port is free until it
    // is granted, so once the network has drained this is the cycle it
    // was ejected in.
    let mut last_polled: Vec<u64> = Vec::new();
    while net.now() < t.cycles || !(net.drained() && naive.drained()) {
        let now = net.now();
        prop_assert!(now < 200_000, "no drain by cycle {now}");
        if now < t.cycles {
            let pairs = draw(&mut rng, &cfg, t, |rng| usize::from(rng.gen_bool(chance)));
            generate(&mut net, &mut naive, pairs);
        }
        net.step();
        naive.step();
        let (mut ours, mut theirs) = (ours.borrow_mut(), theirs.borrow_mut());
        if *ours != *theirs {
            let at = ours
                .iter()
                .zip(theirs.iter())
                .take_while(|(a, b)| a == b)
                .count();
            return Err(format!(
                "cycle {now}: policy call {at} differs\n engine: {:?}\n  naive: {:?}",
                ours.get(at),
                theirs.get(at)
            ));
        }
        for call in ours.iter() {
            if let Call::Route { pkt, .. } = call {
                let id = usize::try_from(pkt.id).unwrap();
                if last_polled.len() <= id {
                    last_polled.resize(id + 1, u64::MAX);
                }
                last_polled[id] = now;
            }
        }
        prop_assert_eq!(&net.hooks().0, &naive.taps, "cycle {}: taps differ", now);
        prop_assert_eq!(
            net.stats().counters(),
            naive.stats.counters(),
            "cycle {}: stats differ",
            now
        );
        prop_assert_eq!(net.per_source_delivered(), &naive.per_src[..]);
        // The calls and taps are compared a cycle at a time.
        ours.clear();
        theirs.clear();
        net.hooks_mut().0.clear();
        naive.taps.clear();
    }
    let mut engine: Vec<(u64, u64)> = (0..last_polled.len() as u64)
        .map(|id| (last_polled[id as usize], id))
        .collect();
    engine.sort_unstable();
    let mut referee: Vec<(u64, u64)> = naive.delivered.iter().map(|&(id, at)| (at, id)).collect();
    referee.sort_unstable();
    prop_assert_eq!(engine.len() as u64, net.stats().generated_packets);
    prop_assert!(
        engine == referee,
        "the delivered (id, cycle) streams differ"
    );
    Ok(())
}

const KINDS: [MechanismKind; 6] = [
    MechanismKind::Min,
    MechanismKind::Valiant,
    MechanismKind::Pb,
    MechanismKind::Par,
    MechanismKind::Ofar,
    MechanismKind::OfarL,
];

/// The configuration a case draws: the paper's at `h`, then VCs (the
/// OFAR models may take Fig. 9's 2/1), injection VCs, buffer sizes and,
/// for the OFAR models, the ring model.
fn config(
    h: usize,
    kind: MechanismKind,
    reduced: bool,
    inj_vcs: usize,
    bufs: (usize, usize, usize),
    physical: bool,
) -> SimConfig {
    let mut cfg = if reduced && kind.needs_ring() {
        SimConfig::reduced_vcs(h)
    } else {
        SimConfig::paper(h)
    };
    cfg.vcs_injection = inj_vcs;
    (cfg.buf_local, cfg.buf_injection, cfg.buf_ring) = bufs;
    if physical {
        cfg.ring = RingMode::Physical;
    }
    kind.adapt_config(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_engine_agrees_with_the_naive_stepper(
        seed in any::<u64>(),
        h in 2usize..=3,
        kind in 0usize..8,
        shape in (0usize..3, 0u32..=900, 50u64..=400, 0usize..3),
        vcs in (any::<bool>(), 1usize..=3),
        bufs in (0usize..3, 0usize..3, 0usize..2, any::<bool>()),
        patience in 0usize..3,
    ) {
        // The OFAR models, with the most state to get wrong, twice as often.
        let kind = KINDS[if kind < 6 { kind } else { kind - 2 }];
        let (adv, load, cycles, burst) = shape;
        // One case in three is a closed burst of 2, 8 or 16 packets per
        // node, the rest open loop at 5 % to 95 % of a phit per node and
        // cycle.
        let t = if burst == 0 {
            Traffic { adv, load: 0, cycles: 0, burst: [2, 8, 16][load as usize % 3] }
        } else {
            Traffic { adv, load: 50 + load, cycles, burst: 0 }
        };
        let (local, inj, ring, physical) = bufs;
        let cfg = config(
            h,
            kind,
            vcs.0,
            vcs.1,
            ([16, 32, 48][local], [8, 16, 32][inj], [16, 32][ring]),
            physical,
        )
        .with_seed(seed);
        prop_assert!(cfg.validate().is_ok(), "{cfg:?}");
        // A short ring patience sends the OFAR models' blocked packets
        // onto the escape ring; the paper's 100 cycles rarely does here.
        let ofar = OfarConfig {
            ring_patience: [100, 8, 1][patience],
            ..OfarConfig::base()
        };
        agree(cfg, kind, ofar, t, seed)
            .map_err(|e| format!("{kind:?} h={h} {t:?} seed {seed}: {e}"))?;
    }
}
