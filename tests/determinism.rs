//! Reproducibility: the simulator is fully deterministic for a given
//! seed, across every mechanism — a hard requirement for resuming a run
//! from its checkpoints and for debugging routing changes.

use ofar::prelude::*;

fn signature(kind: MechanismKind, seed: u64) -> (u64, u64, u64, u64, u64) {
    let cfg = kind.adapt_config(SimConfig::paper(2).with_seed(seed));
    let mut net = Network::new(cfg, kind.build(&cfg, seed));
    let topo = Dragonfly::new(cfg.params);
    let mut source = OpenLoop::new(&topo, TrafficSpec::mix2(2), 0.5, cfg.packet_size, seed);
    for _ in 0..2_000 {
        source.cycle(|src, dst| net.generate(src, dst));
        net.step();
    }
    let s = net.stats();
    (
        s.generated_packets,
        s.delivered_packets,
        s.latency_sum,
        s.hop_sum,
        s.local_misroutes + s.global_misroutes + s.ring_entries,
    )
}

#[test]
fn same_seed_same_history() {
    for kind in MechanismKind::paper_set() {
        let a = signature(kind, 99);
        let b = signature(kind, 99);
        assert_eq!(a, b, "{kind} is not deterministic");
    }
}

/// Hooks are invisible: an audited run observes the same simulation an
/// uninstrumented one executes — byte-identical snapshots, equal
/// counters — for every mechanism under saturating adversarial traffic.
#[test]
fn hooks_are_invisible_to_the_simulation() {
    use ofar::engine::Fabric;
    fn run<H: Hooks>(kind: MechanismKind, hooks: H) -> (Vec<u8>, Vec<u64>, bool) {
        let seed = 41;
        let cfg = kind.adapt_config(SimConfig::paper(2).with_seed(seed));
        let mut net = Network::with_hooks(Fabric::new(cfg), kind.build(&cfg, seed), hooks);
        let topo = Dragonfly::new(cfg.params);
        let mut source = OpenLoop::new(
            &topo,
            TrafficSpec::adversarial(1),
            0.7,
            cfg.packet_size,
            seed,
        );
        for _ in 0..400 {
            source.cycle(|src, dst| net.generate(src, dst));
            net.step();
        }
        let snapshot = net.save_snapshot();
        let counters = net.stats().counters().to_vec();
        (snapshot, counters, net.take_audit_report().is_some())
    }
    for kind in MechanismKind::paper_set() {
        let (plain_snap, plain_stats, plain_reported) = run(kind, NoHooks);
        let (audit_snap, audit_stats, audit_reported) = run(kind, Auditor::with_deep_interval(16));
        assert!(!plain_reported && audit_reported, "{kind}: wrong hooks ran");
        assert!(plain_stats.iter().any(|&c| c > 0), "{kind}: nothing ran");
        assert_eq!(
            plain_stats, audit_stats,
            "{kind}: auditing changed counters"
        );
        assert!(
            plain_snap == audit_snap,
            "{kind}: auditing changed the state"
        );
    }
}

/// A runner hands its caller's hooks back: a phase-counting hook passed
/// as the steady driver's `extra` saw all eight phases of every cycle,
/// and riding along moved no bit of the point `steady_state` measures.
#[test]
fn a_runner_hands_its_hooks_back() {
    use ofar::engine::Tap;
    struct PhaseCount(u64);
    impl Hooks for PhaseCount {
        fn tap(&mut self, ev: Tap) {
            if let Tap::Phase(_) = ev {
                self.0 += 1;
            }
        }
    }
    let (cfg, kind, spec) = (
        SimConfig::paper(2),
        MechanismKind::Ofar,
        TrafficSpec::uniform(),
    );
    let opts = SteadyOpts {
        warmup: 300,
        measure: 700,
    };
    let point = Point::new(cfg, kind, &spec, 5, Shape::Steady { load: 0.3, opts });
    let (counted, PhaseCount(phases)) =
        steady(&point, &CheckpointPolicy::disabled(), PhaseCount(0));
    assert_eq!(phases, 8 * (opts.warmup + opts.measure));
    let plain = steady_state(cfg, kind, &spec, 0.3, opts, 5);
    let bits = |p: &SteadyPoint| {
        let floats = [
            p.load,
            p.throughput,
            p.avg_latency,
            p.p50_latency,
            p.p99_latency,
            p.avg_hops,
            p.misroute_rate,
        ];
        (floats.map(f64::to_bits), p.ring_entries, p.delivered)
    };
    assert!(plain.delivered > 0);
    assert_eq!(bits(&counted), bits(&plain));
}

#[test]
fn different_seeds_different_histories() {
    // Not a strict requirement packet-for-packet, but identical full
    // signatures across seeds would indicate the seed is ignored.
    let mut distinct = 0;
    for kind in [
        MechanismKind::Valiant,
        MechanismKind::Ofar,
        MechanismKind::Pb,
    ] {
        if signature(kind, 1) != signature(kind, 2) {
            distinct += 1;
        }
    }
    assert!(distinct >= 2, "seeds appear to be ignored");
}

#[test]
fn faulted_runs_are_reproducible() {
    // Same seed + same fault plan ⇒ identical delivery statistics,
    // including the structured stall verdict. Covers the fault-injection
    // path end to end: plan application, drain/requeue of in-flight
    // phits, degraded routing and the watchdog diagnosis.
    let cfg = SimConfig::paper(2);
    let topo = Dragonfly::new(cfg.params);
    let run = |kind: MechanismKind| {
        let r0 = RouterId::new(0);
        let plan = FaultPlan::random_global_failures(&topo, 2, 120, 0xDE7).transient_link(
            300,
            900,
            r0,
            topo.global_neighbor(r0, 0).0,
        );
        let shape = Shape::Burst { packets: 3, plan };
        burst(
            &Point::new(cfg, kind, &TrafficSpec::mix2(2), 41, shape),
            NoHooks,
        )
        .0
    };
    for kind in [MechanismKind::Min, MechanismKind::Ofar] {
        let a = run(kind);
        let b = run(kind);
        assert_eq!(a.cycles, b.cycles, "{kind}: drain time diverged");
        assert_eq!(a.delivered, b.delivered, "{kind}: deliveries diverged");
        assert_eq!(
            a.avg_latency.to_bits(),
            b.avg_latency.to_bits(),
            "{kind}: latency diverged"
        );
        assert_eq!(a.ring_entries, b.ring_entries, "{kind}: ring use diverged");
        assert_eq!(a.stall, b.stall, "{kind}: stall verdict diverged");
    }
}

#[test]
fn runner_points_are_reproducible() {
    let cfg = SimConfig::paper(2);
    let opts = SteadyOpts {
        warmup: 1_000,
        measure: 1_500,
    };
    let a = steady_state(
        cfg,
        MechanismKind::Ofar,
        &TrafficSpec::adversarial(2),
        0.3,
        opts,
        7,
    );
    let b = steady_state(
        cfg,
        MechanismKind::Ofar,
        &TrafficSpec::adversarial(2),
        0.3,
        opts,
        7,
    );
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.avg_latency.to_bits(), b.avg_latency.to_bits());
    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
}

#[test]
fn snapshot_restore_is_invisible_to_signatures() {
    // A save/restore round-trip in the middle of a run must not perturb
    // the history: restoring into a fresh network and continuing yields
    // the same signature as never having snapshotted. The split lands
    // mid-retransmit-window (nonzero BER) and mid-fault-flap.
    let kind = MechanismKind::Ofar;
    let seed = 31;
    let mut cfg = SimConfig::paper(2).with_seed(seed);
    cfg.ber = 2e-5;
    let cfg = kind.adapt_config(cfg);
    let topo = Dragonfly::new(cfg.params);
    let r0 = RouterId::new(0);
    let plan = || {
        FaultPlan::random_global_failures(&topo, 2, 450, 0xFA2).transient_link(
            300,
            900,
            r0,
            topo.global_neighbor(r0, 0).0,
        )
    };
    let source = || OpenLoop::new(&topo, TrafficSpec::mix2(2), 0.4, cfg.packet_size, seed);
    let drive = |net: &mut Network<Mechanism>, source: &mut OpenLoop, n| {
        for _ in 0..n {
            source.cycle(|src, dst| net.generate(src, dst));
            net.step();
        }
    };

    // Uninterrupted reference.
    let mut net = Network::new(cfg, kind.build(&cfg, seed));
    net.set_fault_plan(plan());
    drive(&mut net, &mut source(), 2_000);
    let want = net.stats().counters();

    // Same run, interrupted at cycle 600 (inside the 300..900 flap).
    let mut net_a = Network::new(cfg, kind.build(&cfg, seed));
    net_a.set_fault_plan(plan());
    let mut source_a = source();
    drive(&mut net_a, &mut source_a, 600);
    let snap = net_a.save_snapshot();

    let mut net_b = Network::new(cfg, kind.build(&cfg, seed));
    net_b.restore_snapshot(&snap).expect("restore");
    let mut source_b = source();
    source_b.gen.set_rng_state(source_a.gen.rng_state());
    source_b.bern.set_rng_state(source_a.bern.rng_state());
    drive(&mut net_b, &mut source_b, 1_400);
    assert_eq!(
        want,
        net_b.stats().counters(),
        "restore changed the history"
    );
}

#[test]
fn checkpointed_steady_state_resumes_to_identical_results() {
    // Run once with periodic checkpoints, then again against the same
    // directory: the second run resumes from the newest checkpoint and
    // must produce the bit-identical SteadyPoint of an uncheckpointed
    // run. (This is the in-process version of the CI job "Checkpointed
    // figure resumes to the same table".)
    let dir = std::env::temp_dir().join(format!("ofar-ckpt-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = SimConfig::paper(2);
    let kind = MechanismKind::Ofar;
    let spec = TrafficSpec::adversarial(2);
    let opts = SteadyOpts {
        warmup: 800,
        measure: 1_200,
    };
    let plain = steady_state(cfg, kind, &spec, 0.25, opts, 11);
    let ckpt = CheckpointPolicy::every(500, &dir);
    let point = Point::new(cfg, kind, &spec, 11, Shape::Steady { load: 0.25, opts });
    let (first, NoHooks) = steady(&point, &ckpt, NoHooks);
    assert_eq!(plain, first, "checkpointing perturbed the run");
    // The newest checkpoint, the one a resume starts from, lies inside
    // the measurement window: the resumed point's percentiles rest on
    // the recorder's counts the checkpoint carries.
    let newest = std::fs::read_dir(&dir)
        .expect("checkpoint directory")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            let hex = name.strip_suffix(".bin")?.rsplit('-').next()?.to_string();
            u64::from_str_radix(&hex, 16).ok()
        })
        .max()
        .expect("no checkpoint files were written");
    assert!(
        opts.warmup < newest && newest < opts.warmup + opts.measure,
        "resume point {newest} is outside the window"
    );
    let (resumed, NoHooks) = steady(&point, &ckpt, NoHooks);
    assert_eq!(
        plain, resumed,
        "resumed run diverged from uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A figure scale small enough for tier-1: h=2, 500-cycle points, three
/// loads per curve, two-packet bursts.
fn tiny_scale() -> Scale {
    Scale {
        h: 2,
        steady: SteadyOpts {
            warmup: 200,
            measure: 300,
        },
        sweep_points: 3,
        burst_packets: 2,
        ..Scale::quick()
    }
}

/// `load_sweep` starts its highest loads first, but each point keeps the
/// seed of its own index and lands in its own slot: the sweep is the
/// in-order sequential map of `steady_state`.
#[test]
fn a_load_sweep_is_the_in_order_map_of_steady_state() {
    let scale = tiny_scale();
    let (cfg, kind, spec) = (
        scale.cfg(),
        MechanismKind::Ofar,
        TrafficSpec::adversarial(2),
    );
    let loads = [0.3, 0.1, 0.5, 0.1];
    let expected: Vec<_> = (loads.iter().enumerate())
        .map(|(i, &load)| {
            steady_state(
                cfg,
                kind,
                &spec,
                load,
                scale.steady,
                ofar::run::point_seed(7, i),
            )
        })
        .collect();
    assert_eq!(
        load_sweep(cfg, kind, &spec, &loads, scale.steady, 7),
        expected
    );
}

/// A figure runs its points as one flat list, but each point keeps the
/// seed of its own curve: Fig. 4's rows for a mechanism are the rows of
/// that mechanism's plain `load_sweep`, load `i` seeded by its index in
/// the curve, not in the list.
#[test]
fn a_figure_sweep_seeds_each_curve_like_load_sweep() {
    use ofar::table::{f1, f4};
    let scale = tiny_scale();
    let table = experiments::fig4(&scale);
    let mechs = [
        MechanismKind::Valiant,
        MechanismKind::Pb,
        MechanismKind::Ofar,
        MechanismKind::OfarL,
    ];
    let (spec, loads) = (TrafficSpec::adversarial(2), scale.loads(0.55));
    let mut expected = Vec::new();
    for kind in mechs {
        for p in load_sweep(scale.cfg(), kind, &spec, &loads, scale.steady, SUITE_SEED) {
            expected.push(vec![
                kind.name().to_string(),
                format!("{:.3}", p.load),
                f1(p.avg_latency),
                f1(p.p99_latency),
                f4(p.throughput),
                format!("{:.3}", p.misroute_rate),
                p.ring_entries.to_string(),
            ]);
        }
    }
    assert_eq!(table.rows, expected);
}

/// Fig. 7's flat `(pattern, mechanism)` list lands each burst in its own
/// row: the `cycles` column is that pair's `burst`.
#[test]
fn a_figure_burst_row_is_its_own_burst() {
    let scale = tiny_scale();
    let table = experiments::fig7(&scale);
    let h = scale.h;
    let patterns = [
        TrafficSpec::uniform(),
        TrafficSpec::adversarial(2),
        TrafficSpec::adversarial(h),
        TrafficSpec::mix1(h),
        TrafficSpec::mix2(h),
        TrafficSpec::mix3(h),
    ];
    let mechs = [MechanismKind::Pb, MechanismKind::Ofar, MechanismKind::OfarL];
    let mut rows = table.rows.iter();
    for spec in &patterns {
        for kind in mechs {
            let row = rows.next().expect("one row per (pattern, mechanism)");
            assert_eq!(
                (&row[0], &row[1]),
                (&spec.label(), &kind.name().to_string())
            );
            let shape = Shape::burst(scale.burst_packets);
            let (r, NoHooks) = burst(
                &Point::new(scale.cfg(), kind, spec, SUITE_SEED, shape),
                NoHooks,
            );
            let cycles = r.cycles.expect("a two-packet burst drains");
            assert_eq!(row[2], cycles.to_string(), "{} {kind}", spec.label());
        }
    }
    assert!(rows.next().is_none());
}
