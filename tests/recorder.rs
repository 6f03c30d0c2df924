//! The runners read their latencies from a `Recorder` hook, not from the
//! engine's delivery log. For every mechanism, over a steady window and
//! over a drained burst, the two agree exactly: the recorder's
//! percentiles are what a selection over the filtered log gives, and its
//! generation-cycle buckets hold the log's sums and counts.

use ofar::engine::{Auditor, Fabric};
use ofar::prelude::*;

const MECHANISMS: [MechanismKind; 6] = [
    MechanismKind::Min,
    MechanismKind::Valiant,
    MechanismKind::Pb,
    MechanismKind::Par,
    MechanismKind::Ofar,
    MechanismKind::OfarL,
];

/// Nearest-rank `pct`-th percentile of the log's latencies, selected as
/// the runners once did: 0 when empty.
fn select_nth(log: &mut [(u64, u32)], pct: usize) -> f64 {
    match log.len() {
        0 => 0.0,
        n => {
            let (_, &mut (_, latency), _) =
                log.select_nth_unstable_by_key((n - 1) * pct / 100, |&(_, l)| l);
            f64::from(latency)
        }
    }
}

fn recorded_network(kind: MechanismKind, recorder: Recorder) -> Network<Mechanism, Recorder> {
    let cfg = kind.adapt_config(SimConfig::paper(2).with_seed(3));
    let mut net = Network::with_hooks(Fabric::new(cfg), kind.build(&cfg, 3), recorder);
    net.enable_delivery_log();
    net
}

#[test]
fn a_steady_window_records_what_the_log_holds() {
    let (warmup, measure, width, buckets) = (600u64, 1_400u64, 100u64, 10usize);
    for kind in MECHANISMS {
        let recorder = Recorder::since(warmup).with_series(width, buckets);
        let mut net = recorded_network(kind, recorder);
        let topo = *net.fabric().topo();
        let packet_size = net.cfg().packet_size;
        let mut source = OpenLoop::new(&topo, TrafficSpec::adversarial(1), 0.4, packet_size, 3);
        for _ in 0..warmup + measure {
            source.cycle(|src, dst| net.generate(src, dst));
            net.step();
        }
        let mut log = net.take_delivery_log();
        log.retain(|&(at, _)| at >= warmup);
        let r = net.hooks();
        assert!(r.recorded() > 0, "{kind}: nothing recorded");
        assert_eq!(r.recorded(), log.len() as u64, "{kind}");
        for pct in [50, 99] {
            assert_eq!(
                r.percentile(pct as u64),
                select_nth(&mut log, pct),
                "{kind} p{pct}"
            );
        }
        let mut series = vec![(0u64, 0u64); buckets];
        for &(at, latency) in &log {
            if let Some(b) = series.get_mut(((at - warmup) / width) as usize) {
                b.0 += u64::from(latency);
                b.1 += 1;
            }
        }
        assert_eq!(r.series(), &series[..], "{kind}");
    }
}

#[test]
fn a_drained_burst_records_what_the_log_holds() {
    for kind in MECHANISMS {
        let mut net = recorded_network(kind, Recorder::since(0));
        let r = burst_net(
            &mut net,
            &TrafficSpec::adversarial(1),
            20,
            3,
            RunConfig::default(),
        );
        assert!(r.cycles.is_some(), "{kind}: the burst stalled");
        let mut log = net.take_delivery_log();
        assert_eq!(log.len() as u64, 20 * net.num_nodes() as u64, "{kind}");
        assert_eq!(r.p99_latency, Some(select_nth(&mut log, 99)), "{kind}");
        assert_eq!(
            net.hooks().percentile(50),
            select_nth(&mut log, 50),
            "{kind}"
        );
    }
}

/// A `Recorder` composes with an `Auditor`: the burst is audited clean
/// and reads the p99 a recorder alone reads.
#[test]
fn a_recorder_beside_an_auditor_records_the_same() {
    let kind = MechanismKind::Ofar;
    let cfg = kind.adapt_config(SimConfig::paper(2).with_seed(3));
    let spec = TrafficSpec::adversarial(1);
    let alone = burst(cfg, kind, &spec, 20, 3);
    let hooks = (Auditor::new(), Recorder::since(0));
    let mut net = Network::with_hooks(Fabric::new(cfg), kind.build(&cfg, 3), hooks);
    let paired = burst_net(&mut net, &spec, 20, 3, RunConfig::default());
    assert!(paired.audit.expect("the auditor reports").is_clean());
    assert_eq!(paired.p99_latency, alone.p99_latency);
    assert!(alone.p99_latency.is_some_and(|p99| p99 > 0.0));
    assert_eq!(paired.stats.counters(), alone.stats.counters());
}
