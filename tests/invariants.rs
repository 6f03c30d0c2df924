//! Cross-crate conservation invariants: whatever the mechanism, traffic
//! pattern or escape-ring model, the simulator must neither create nor
//! destroy phits, and the credit ledger of every link must balance.

use ofar::engine::{Fabric, Hooks, PortKind, Tap};
use ofar::prelude::*;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn drive(
    kind: MechanismKind,
    spec: TrafficSpec,
    ring: RingMode,
    load: f64,
    cycles: u64,
    seed: u64,
) -> Network<Mechanism> {
    let mut cfg = SimConfig::paper(2).with_seed(seed);
    cfg.ring = ring;
    let cfg = kind.adapt_config(cfg);
    let mut net = Network::new(cfg, kind.build(&cfg, seed));
    let topo = Dragonfly::new(cfg.params);
    let mut source = OpenLoop::new(&topo, spec, load, cfg.packet_size, seed);
    for _ in 0..cycles {
        source.cycle(|src, dst| net.generate(src, dst));
        net.step();
    }
    net
}

fn assert_conservation(net: &Network<Mechanism>) {
    let size = net.cfg().packet_size as u64;
    let s = net.stats();
    assert_eq!(
        s.generated_packets * size,
        s.delivered_phits + net.phits_in_system(),
        "phit conservation violated for {}",
        net.policy().name()
    );
    assert_eq!(net.audit_now(), []);
}

#[test]
fn conservation_holds_for_every_mechanism_under_uniform_load() {
    for kind in MechanismKind::paper_set() {
        let net = drive(kind, TrafficSpec::uniform(), RingMode::None, 0.3, 2_000, 1);
        assert_conservation(&net);
        assert!(net.stats().delivered_packets > 0, "{kind} made no progress");
    }
}

#[test]
fn conservation_holds_under_adversarial_saturation() {
    for kind in MechanismKind::paper_set() {
        let net = drive(
            kind,
            TrafficSpec::adversarial(2),
            RingMode::None,
            0.8,
            2_500,
            2,
        );
        assert_conservation(&net);
    }
}

#[test]
fn conservation_holds_with_physical_ring() {
    for kind in [MechanismKind::Ofar, MechanismKind::OfarL] {
        let net = drive(
            kind,
            TrafficSpec::adversarial(2),
            RingMode::Physical,
            0.6,
            2_500,
            3,
        );
        assert_conservation(&net);
    }
}

#[test]
fn conservation_holds_with_reduced_vcs() {
    // The Fig. 9 configuration exercises the escape ring hard.
    let cfg = SimConfig::reduced_vcs(2).with_seed(9);
    let kind = MechanismKind::Ofar;
    let mut net = Network::new(cfg, kind.build(&cfg, 9));
    let topo = Dragonfly::new(cfg.params);
    let mut source = OpenLoop::new(&topo, TrafficSpec::adversarial(2), 0.7, cfg.packet_size, 9);
    for _ in 0..3_000 {
        source.cycle(|src, dst| net.generate(src, dst));
        net.step();
    }
    let size = net.cfg().packet_size as u64;
    assert_eq!(
        net.stats().generated_packets * size,
        net.stats().delivered_phits + net.phits_in_system()
    );
    assert_eq!(net.audit_now(), []);
}

#[test]
fn conservation_holds_for_mixes_and_par() {
    let net = drive(
        MechanismKind::Par,
        TrafficSpec::mix3(2),
        RingMode::None,
        0.5,
        2_000,
        4,
    );
    assert_conservation(&net);
    let net = drive(
        MechanismKind::Ofar,
        TrafficSpec::mix1(2),
        RingMode::None,
        0.5,
        2_000,
        5,
    );
    assert_conservation(&net);
}

#[test]
fn draining_returns_every_packet() {
    for kind in MechanismKind::paper_set() {
        let mut net = drive(kind, TrafficSpec::uniform(), RingMode::None, 0.2, 800, 6);
        let generated = net.stats().generated_packets;
        let mut guard = 0;
        while !net.drained() {
            net.step();
            guard += 1;
            assert!(guard < 100_000, "{kind} failed to drain");
        }
        assert_eq!(net.stats().delivered_packets, generated);
        assert_eq!(net.phits_in_system(), 0);
        assert_eq!(net.audit_now(), []);
    }
}

/// Phits the engine's transmit tap reported, summed over routers per
/// output port.
struct PortPhits(Vec<u64>);

impl Hooks for PortPhits {
    fn tap(&mut self, ev: Tap) {
        if let Tap::Transmit(_, port, phits) = ev {
            self.0[port] += u64::from(phits);
        }
    }
}

/// The transmit tap sees every phit a port sends: after a drained burst
/// the ejection ports carry exactly what was delivered and the link
/// ports one packet per hop, plus one per LLR retransmission when the
/// links are lossy.
#[test]
fn the_transmit_tap_accounts_for_every_phit() {
    for ber in [0.0, 1e-3] {
        let mut cfg = SimConfig::paper(2).with_seed(5);
        cfg.ber = ber;
        let cfg = MechanismKind::Ofar.adapt_config(cfg);
        let fab = Fabric::new(cfg);
        let tap = PortPhits(vec![0; fab.n_out()]);
        let mut net = Network::with_hooks(fab, MechanismKind::Ofar.build(&cfg, 5), tap);
        let spec = TrafficSpec::adversarial(1);
        let r = burst_net(&mut net, &spec, 4, 5, RunConfig::default());
        assert!(r.cycles.is_some(), "ber {ber}: the burst must drain");
        let sent = net.hooks_mut().0.clone();
        let (mut eject, mut link) = (0, 0);
        for (port, phits) in sent.into_iter().enumerate() {
            match net.fabric().out_kind(port) {
                PortKind::Node => eject += phits,
                _ => link += phits,
            }
        }
        let s = net.stats();
        let size = cfg.packet_size as u64;
        assert_eq!(eject, s.delivered_phits, "ber {ber}");
        assert_eq!(
            link,
            (s.hop_sum + s.llr_retransmits) * size,
            "ber {ber}: {} retransmits",
            s.llr_retransmits
        );
        assert_eq!(s.llr_retransmits > 0, ber > 0.0, "ber {ber}");
    }
}

/// One half of a pair: logs each tap it hears, tagged with its half,
/// into a log both halves share.
struct Half(u8, Rc<RefCell<Vec<(u8, Tap)>>>);

impl Hooks for Half {
    fn tap(&mut self, ev: Tap) {
        self.1.borrow_mut().push((self.0, ev));
    }
}

/// A pair hands every tap to `A`, then the same tap to `B`, before the
/// next one; and a lossy OFAR burst emits every kind of tap, each as
/// often as the counters say.
#[test]
fn both_halves_of_a_pair_hear_every_tap_in_order() {
    let mut cfg = SimConfig::paper(2).with_seed(5);
    cfg.ber = 1e-3;
    let cfg = MechanismKind::Ofar.adapt_config(cfg);
    let log = Rc::new(RefCell::new(Vec::new()));
    let pair = (Half(0, Rc::clone(&log)), Half(1, Rc::clone(&log)));
    let mut net = Network::with_hooks(Fabric::new(cfg), MechanismKind::Ofar.build(&cfg, 5), pair);
    let spec = TrafficSpec::adversarial(1);
    let r = burst_net(&mut net, &spec, 2, 5, RunConfig::default());
    assert!(r.cycles.is_some(), "the burst must drain");
    let log = log.take();
    assert!(log.len() % 2 == 0);
    // Slots: phase, collect, allocate, execute, transmit, delivered. The
    // match is exhaustive, so a new variant is named here or fails to
    // compile.
    let (mut seen, mut grants) = ([0u64; 6], 0);
    for two in log.chunks_exact(2) {
        let [(0, ev), (1, again)] = two else {
            panic!("halves out of order: {two:?}");
        };
        assert_eq!(ev, again);
        let slot = match *ev {
            Tap::Phase(_) => 0,
            Tap::Collect => 1,
            Tap::Allocate { .. } => 2,
            Tap::Execute { grants: n } => {
                grants += n as u64;
                3
            }
            Tap::Transmit(..) => 4,
            Tap::Delivered(..) => 5,
        };
        seen[slot] += 1;
    }
    let s = net.stats();
    assert!(seen.iter().all(|&n| n > 0), "a tap never fired: {seen:?}");
    assert_eq!(seen[0], 8 * net.now());
    assert!(s.llr_retransmits > 0);
    assert_eq!(seen[4], grants + s.llr_retransmits);
    assert_eq!(seen[5], s.delivered_packets);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    /// The timing wheel and the occupancy index are relocated/derived
    /// state: at any cycle of any run the index equals a recount, the
    /// conservation laws hold over the wheel's contents, a snapshot
    /// restored into a fresh network re-encodes to the same bytes, and
    /// every packet is delivered exactly once. A third of the cases run
    /// over lossy links (BER 1e-3, so LLR retransmits refile arrivals)
    /// with a flapping global link (so dead-link flushes land packets
    /// outside the deliver phase).
    #[test]
    fn wheel_and_index_agree_with_the_structures_they_summarize(
        mech in 0usize..5,
        load_pct in 5u32..=60,
        seed in 1u64..10_000,
        cycles in 50u64..1_200,
        variant in 0u32..3,
    ) {
        let kind = MechanismKind::paper_set()[mech];
        let lossy = variant == 0;
        let mut cfg = SimConfig::paper(2).with_seed(seed);
        if lossy {
            cfg.ber = 1e-3;
        }
        let cfg = kind.adapt_config(cfg);
        let build = || Network::new(cfg, kind.build(&cfg, seed));
        let mut net = build();
        let topo = Dragonfly::new(cfg.params);
        if lossy {
            let r0 = RouterId::new(0);
            let far = topo.global_neighbor(r0, 0).0;
            net.set_fault_plan(FaultPlan::new().flap_link(r0, far, 40, 60, 150, 4));
        }
        let load = f64::from(load_pct) / 100.0;
        let mut source = OpenLoop::new(&topo, TrafficSpec::uniform(), load, cfg.packet_size, seed);
        for _ in 0..cycles {
            source.cycle(|src, dst| net.generate(src, dst));
            net.step();
        }
        prop_assert_eq!(net.llr_enabled(), lossy);
        assert_conservation(&net);

        let bytes = net.save_snapshot();
        let mut fresh = build();
        fresh.restore_snapshot(&bytes).expect("own snapshot restores");
        assert_conservation(&fresh);
        prop_assert!(fresh.save_snapshot() == bytes, "restore then save changed the bytes");

        // Drain the restored copy: it must finish what the original
        // started, delivering everything once.
        let generated = fresh.stats().generated_packets;
        let mut guard = 0;
        while !fresh.drained() {
            fresh.step();
            guard += 1;
            prop_assert!(guard < 200_000, "{} failed to drain", kind);
        }
        prop_assert_eq!(fresh.stats().delivered_packets, generated);
        prop_assert_eq!(fresh.stats().duplicate_deliveries, 0);
        prop_assert_eq!(fresh.phits_in_system(), 0);
        assert_conservation(&fresh);
    }
}
