//! Property-based tests of the traffic generators.

use ofar_topology::{Dragonfly, NodeId};
use ofar_traffic::{Bernoulli, TrafficGen, TrafficPattern, TrafficSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn destinations_are_always_valid(
        h in 2usize..=4,
        seed in any::<u64>(),
        srcs in prop::collection::vec(any::<usize>(), 1..50),
    ) {
        let topo = Dragonfly::balanced(h);
        let mut gen = TrafficGen::new(&topo, TrafficSpec::uniform(), seed);
        for s in srcs {
            let src = NodeId::from(s % topo.num_nodes());
            let d = gen.destination(src);
            prop_assert!(d.idx() < topo.num_nodes());
            prop_assert_ne!(d, src);
        }
    }

    #[test]
    fn adversarial_offset_is_exact(
        h in 2usize..=4,
        offset_seed in any::<usize>(),
        seed in any::<u64>(),
        src_seed in any::<usize>(),
    ) {
        let topo = Dragonfly::balanced(h);
        let offset = 1 + offset_seed % (topo.num_groups() - 1);
        let mut gen = TrafficGen::new(&topo, TrafficSpec::adversarial(offset), seed);
        let src = NodeId::from(src_seed % topo.num_nodes());
        for _ in 0..32 {
            let d = gen.destination(src);
            let want = (topo.group_of_node(src).idx() + offset) % topo.num_groups();
            prop_assert_eq!(topo.group_of_node(d).idx(), want);
            prop_assert_ne!(d, src);
        }
    }

    #[test]
    fn mixes_only_produce_member_patterns(
        h in 2usize..=3,
        seed in any::<u64>(),
    ) {
        let topo = Dragonfly::balanced(h);
        // 50% ADV+1, 50% ADV+2: destinations only in those two groups
        let spec = TrafficSpec::mix(vec![
            (1.0, TrafficPattern::Adversarial { offset: 1 }),
            (1.0, TrafficPattern::Adversarial { offset: 2 }),
        ]);
        let mut gen = TrafficGen::new(&topo, spec, seed);
        let src = NodeId::new(0);
        for _ in 0..64 {
            let d = gen.destination(src);
            let rel = (topo.group_of_node(d).idx() + topo.num_groups()
                - topo.group_of_node(src).idx())
                % topo.num_groups();
            prop_assert!(rel == 1 || rel == 2, "unexpected offset {rel}");
        }
    }

    #[test]
    fn bernoulli_rate_is_statistically_close(load_milli in 1u32..800) {
        let load = f64::from(load_milli) / 1000.0;
        let mut b = Bernoulli::new(load, 8, 42);
        let nodes = 200;
        let cycles = 1_500;
        let mut count = 0u64;
        for _ in 0..cycles {
            b.cycle(nodes, |_| count += 1);
        }
        let measured = count as f64 / (nodes as f64 * cycles as f64);
        let expect = load / 8.0;
        // 5 sigma of a Bernoulli sum
        let sigma = (expect * (1.0 - expect) / (nodes as f64 * cycles as f64)).sqrt();
        prop_assert!(
            (measured - expect).abs() < 5.0 * sigma + 1e-9,
            "measured {measured}, expected {expect}"
        );
    }

    #[test]
    fn parse_inverts_label(h in 2usize..=6, offset in 1usize..40) {
        for spec in [
            TrafficSpec::uniform(),
            TrafficSpec::adversarial(offset),
            TrafficSpec::mix1(h),
            TrafficSpec::mix2(h),
            TrafficSpec::mix3(h),
        ] {
            prop_assert_eq!(TrafficSpec::parse(&spec.label(), h), Ok(spec));
        }
        prop_assert_eq!(TrafficSpec::parse("MIX2", h), Ok(TrafficSpec::mix2(h)));
        prop_assert!(TrafficSpec::parse("ADV+", h).is_err());
        prop_assert!(TrafficSpec::parse("MIX4", h).is_err());
    }

    #[test]
    fn generators_are_deterministic(seed in any::<u64>()) {
        let topo = Dragonfly::balanced(2);
        let mut a = TrafficGen::new(&topo, TrafficSpec::mix2(2), seed);
        let mut b = TrafficGen::new(&topo, TrafficSpec::mix2(2), seed);
        for s in 0..40usize {
            let src = NodeId::from(s % topo.num_nodes());
            prop_assert_eq!(a.destination(src), b.destination(src));
        }
    }
}
