//! Traffic patterns and injection processes.

use ofar_topology::{Dragonfly, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A destination distribution (§V).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrafficPattern {
    /// UN: uniform over all nodes except the source itself.
    Uniform,
    /// ADV+N: uniform over the nodes of group `src_group + offset`.
    Adversarial {
        /// Group offset `N ∈ 1 .. groups`.
        offset: usize,
    },
}

impl TrafficPattern {
    /// Short display name matching the paper ("UN", "ADV+2", …).
    pub fn label(&self) -> String {
        match self {
            TrafficPattern::Uniform => "UN".to_string(),
            TrafficPattern::Adversarial { offset } => format!("ADV+{offset}"),
        }
    }
}

/// A weighted mixture of patterns. Weights need not be normalized.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficSpec {
    components: Vec<(f64, TrafficPattern)>,
    total: f64,
}

impl TrafficSpec {
    /// A single-pattern spec.
    pub fn pure(p: TrafficPattern) -> Self {
        Self::mix(vec![(1.0, p)])
    }

    /// Uniform traffic.
    pub fn uniform() -> Self {
        Self::pure(TrafficPattern::Uniform)
    }

    /// ADV+`offset` traffic.
    pub fn adversarial(offset: usize) -> Self {
        Self::pure(TrafficPattern::Adversarial { offset })
    }

    /// A weighted mixture.
    ///
    /// # Panics
    /// Panics if no component has positive weight.
    pub fn mix(components: Vec<(f64, TrafficPattern)>) -> Self {
        let total: f64 = components.iter().map(|&(w, _)| w).sum();
        assert!(total > 0.0, "mixture needs positive total weight");
        Self { components, total }
    }

    /// The paper's MIX1 (80% UN, 10% ADV+1, 10% ADV+h).
    pub fn mix1(h: usize) -> Self {
        Self::mix(vec![
            (0.8, TrafficPattern::Uniform),
            (0.1, TrafficPattern::Adversarial { offset: 1 }),
            (0.1, TrafficPattern::Adversarial { offset: h }),
        ])
    }

    /// The paper's MIX2 (60/20/20).
    pub fn mix2(h: usize) -> Self {
        Self::mix(vec![
            (0.6, TrafficPattern::Uniform),
            (0.2, TrafficPattern::Adversarial { offset: 1 }),
            (0.2, TrafficPattern::Adversarial { offset: h }),
        ])
    }

    /// The paper's MIX3 (20/40/40).
    pub fn mix3(h: usize) -> Self {
        Self::mix(vec![
            (0.2, TrafficPattern::Uniform),
            (0.4, TrafficPattern::Adversarial { offset: 1 }),
            (0.4, TrafficPattern::Adversarial { offset: h }),
        ])
    }

    /// Component view (weight, pattern).
    pub fn components(&self) -> &[(f64, TrafficPattern)] {
        &self.components
    }

    /// Display label ("UN", "ADV+6", "MIX(0.8 UN + …)").
    pub fn label(&self) -> String {
        if self.components.len() == 1 {
            return self.components[0].1.label();
        }
        let parts: Vec<String> = self
            .components
            .iter()
            .map(|(w, p)| format!("{:.0}% {}", 100.0 * w / self.total, p.label()))
            .collect();
        format!("MIX({})", parts.join(" + "))
    }

    /// Inverse of [`TrafficSpec::label`] over the paper's patterns on a
    /// Dragonfly of the given `h`: `UN`, `ADV+<n>`, and the three mixes,
    /// by label or by their short names `MIX1`–`MIX3`.
    pub fn parse(label: &str, h: usize) -> Result<Self, String> {
        if label == "UN" {
            return Ok(Self::uniform());
        }
        if let Some(n) = label.strip_prefix("ADV+") {
            return match n.parse() {
                Ok(n) => Ok(Self::adversarial(n)),
                Err(_) => Err(format!("bad ADV offset in {label}")),
            };
        }
        [
            ("MIX1", Self::mix1(h)),
            ("MIX2", Self::mix2(h)),
            ("MIX3", Self::mix3(h)),
        ]
        .into_iter()
        .find(|(name, mix)| label == *name || label == mix.label())
        .map(|(_, mix)| mix)
        .ok_or_else(|| format!("unknown pattern {label}"))
    }

    /// `Err` naming the valid range when an ADV offset of the mixture
    /// does not lie in `1..groups`: no two groups are that far apart.
    pub fn check_offsets(&self, groups: usize) -> Result<(), String> {
        for &(_, p) in &self.components {
            if let TrafficPattern::Adversarial { offset } = p {
                if !(1..groups).contains(&offset) {
                    return Err(format!(
                        "ADV offset {offset} out of range: it must lie in 1..{groups}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A seeded destination generator over a topology.
#[derive(Clone, Debug)]
pub struct TrafficGen {
    nodes: usize,
    nodes_per_group: usize,
    groups: usize,
    spec: TrafficSpec,
    rng: SmallRng,
}

impl TrafficGen {
    /// Build a generator for `topo` with mixture `spec`.
    ///
    /// # Panics
    /// Panics if [`TrafficSpec::check_offsets`] refuses `spec` on `topo`.
    pub fn new(topo: &Dragonfly, spec: TrafficSpec, seed: u64) -> Self {
        if let Err(why) = spec.check_offsets(topo.num_groups()) {
            panic!("{why}");
        }
        Self {
            nodes: topo.num_nodes(),
            nodes_per_group: topo.routers_per_group() * topo.nodes_per_router(),
            groups: topo.num_groups(),
            spec,
            rng: SmallRng::seed_from_u64(seed ^ 0x7EAFF1C), // "traffic"
        }
    }

    /// Swap the pattern mixture (transient experiments, Fig. 6), keeping
    /// the RNG stream.
    pub fn set_spec(&mut self, spec: TrafficSpec) {
        self.spec = spec;
    }

    /// Current mixture.
    pub fn spec(&self) -> &TrafficSpec {
        &self.spec
    }

    /// Raw RNG state, for checkpointing the generator mid-run.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restore an RNG state captured by [`TrafficGen::rng_state`]; the
    /// destination stream resumes exactly where it left off.
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = SmallRng::from_state(state);
    }

    /// Sample a destination for a packet from `src`.
    pub fn destination(&mut self, src: NodeId) -> NodeId {
        let pattern = self.sample_pattern();
        match pattern {
            TrafficPattern::Uniform => loop {
                let d = self.rng.gen_range(0..self.nodes);
                if d != src.idx() {
                    return NodeId::from(d);
                }
            },
            TrafficPattern::Adversarial { offset } => {
                let src_group = src.idx() / self.nodes_per_group;
                let dst_group = (src_group + offset) % self.groups;
                let d =
                    dst_group * self.nodes_per_group + self.rng.gen_range(0..self.nodes_per_group);
                debug_assert_ne!(d, src.idx(), "ADV offset ≥ 1 never self-targets");
                NodeId::from(d)
            }
        }
    }

    fn sample_pattern(&mut self) -> TrafficPattern {
        let comps = &self.spec.components;
        if comps.len() == 1 {
            return comps[0].1;
        }
        let mut x = self.rng.gen_range(0.0..self.spec.total);
        for &(w, p) in comps {
            if x < w {
                return p;
            }
            x -= w;
        }
        comps.last().unwrap().1
    }
}

/// A Bernoulli injection process: every node generates a packet each
/// cycle with probability `load / packet_size` (`load` is in
/// phits/(node·cycle), the paper's offered-load unit).
#[derive(Clone, Debug)]
pub struct Bernoulli {
    prob: f64,
    rng: SmallRng,
}

impl Bernoulli {
    /// `Err` naming the valid range unless `load_phits` is a load a
    /// source of `packet_size`-phit packets can offer: `0..=packet_size`
    /// phits/(node·cycle), at most one packet a cycle (NaN lies in no
    /// range).
    pub fn check_load(load_phits: f64, packet_size: usize) -> Result<(), String> {
        if (0.0..=packet_size as f64).contains(&load_phits) {
            Ok(())
        } else {
            Err(format!(
                "offered load {load_phits} out of range: it must lie in 0..={packet_size} phits/(node·cycle)"
            ))
        }
    }

    /// Build for an offered load and packet size.
    ///
    /// # Panics
    /// Panics if [`Bernoulli::check_load`] refuses the load.
    pub fn new(load_phits: f64, packet_size: usize, seed: u64) -> Self {
        if let Err(why) = Self::check_load(load_phits, packet_size) {
            panic!("{why}");
        }
        Self {
            prob: load_phits / packet_size as f64,
            rng: SmallRng::seed_from_u64(seed ^ 0xBE2107111), // "bernoulli"
        }
    }

    /// Packet-generation probability per node per cycle.
    pub fn prob(&self) -> f64 {
        self.prob
    }

    /// Raw RNG state, for checkpointing the injection process mid-run.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restore an RNG state captured by [`Bernoulli::rng_state`]; the
    /// injection stream resumes exactly where it left off.
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = SmallRng::from_state(state);
    }

    /// Run one cycle: calls `sink(src)` for every node that generates a
    /// packet this cycle.
    pub fn cycle(&mut self, nodes: usize, mut sink: impl FnMut(NodeId)) {
        if self.prob == 0.0 {
            return;
        }
        for n in 0..nodes {
            if self.rng.gen_bool(self.prob) {
                sink(NodeId::from(n));
            }
        }
    }
}

/// The open-loop source of §V: one [`TrafficGen`] and one [`Bernoulli`]
/// over the same topology, seeded `seed + 1` and `seed + 2` so that a
/// run's policy (seeded `seed`), destinations and arrivals draw from
/// three separate streams. Every runner drives its network through this
/// pair; writing the derivation here is what makes "same seed" mean the
/// same thing in all of them.
#[derive(Clone, Debug)]
pub struct OpenLoop {
    /// Destination stream. Public so a checkpoint can capture and
    /// restore its RNG, and a transient can swap its mixture.
    pub gen: TrafficGen,
    /// Arrival process; public for the same reason.
    pub bern: Bernoulli,
}

impl OpenLoop {
    /// A source offering `load_phits` phits/(node·cycle) of `spec`.
    ///
    /// # Panics
    /// As [`TrafficGen::new`] and [`Bernoulli::new`].
    pub fn new(
        topo: &Dragonfly,
        spec: TrafficSpec,
        load_phits: f64,
        packet_size: usize,
        seed: u64,
    ) -> Self {
        Self {
            gen: Self::destinations(topo, spec, seed),
            bern: Bernoulli::new(load_phits, packet_size, seed.wrapping_add(2)),
        }
    }

    fn destinations(topo: &Dragonfly, spec: TrafficSpec, seed: u64) -> TrafficGen {
        TrafficGen::new(topo, spec, seed.wrapping_add(1))
    }

    /// One cycle of arrivals: `sink(src, dst)` for every packet born.
    pub fn cycle(&mut self, mut sink: impl FnMut(NodeId, NodeId)) {
        let gen = &mut self.gen;
        self.bern
            .cycle(gen.nodes, |src| sink(src, gen.destination(src)));
    }

    /// The closed burst of §VI-C: `packets_per_node` rounds of one packet
    /// from every node in node order, destinations from the stream an
    /// open loop of the same `seed` would draw.
    pub fn fill(
        topo: &Dragonfly,
        spec: TrafficSpec,
        packets_per_node: usize,
        seed: u64,
        mut sink: impl FnMut(NodeId, NodeId),
    ) {
        let mut gen = Self::destinations(topo, spec, seed);
        for _ in 0..packets_per_node {
            for n in 0..gen.nodes {
                let src = NodeId::from(n);
                sink(src, gen.destination(src));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Dragonfly {
        Dragonfly::balanced(3)
    }

    #[test]
    fn uniform_never_self_targets_and_covers_groups() {
        let topo = topo();
        let mut gen = TrafficGen::new(&topo, TrafficSpec::uniform(), 1);
        let src = NodeId::new(5);
        let mut group_seen = vec![false; topo.num_groups()];
        for _ in 0..20_000 {
            let d = gen.destination(src);
            assert_ne!(d, src);
            group_seen[topo.group_of_node(d).idx()] = true;
        }
        assert!(
            group_seen.iter().all(|&s| s),
            "uniform must reach all groups"
        );
    }

    #[test]
    fn adversarial_targets_exactly_offset_group() {
        let topo = topo();
        for offset in [1, 3, topo.num_groups() - 1] {
            let mut gen = TrafficGen::new(&topo, TrafficSpec::adversarial(offset), 2);
            for src in [0usize, 17, topo.num_nodes() - 1] {
                let src = NodeId::from(src);
                let want = (topo.group_of_node(src).idx() + offset) % topo.num_groups();
                for _ in 0..100 {
                    let d = gen.destination(src);
                    assert_eq!(topo.group_of_node(d).idx(), want);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn adversarial_offset_must_be_in_range() {
        let topo = topo();
        let groups = topo.num_groups();
        TrafficGen::new(&topo, TrafficSpec::adversarial(groups), 1);
    }

    #[test]
    fn mix_rates_are_respected() {
        let topo = topo();
        let mut gen = TrafficGen::new(&topo, TrafficSpec::mix1(3), 3);
        let src = NodeId::new(0);
        let src_group = topo.group_of_node(src).idx();
        let (mut adv1, mut adv3, mut other) = (0u32, 0u32, 0u32);
        let n = 30_000;
        for _ in 0..n {
            let d = gen.destination(src);
            let g = topo.group_of_node(d).idx();
            let g_rel = (g + topo.num_groups() - src_group) % topo.num_groups();
            match g_rel {
                1 => adv1 += 1,
                3 => adv3 += 1,
                _ => other += 1,
            }
        }
        // 80% UN spreads over 19 groups (~4.2% each to groups 1 and 3),
        // so adv1 ≈ adv3 ≈ 10% + 4.2% ≈ 14%, other ≈ 72%.
        let f = |c: u32| f64::from(c) / f64::from(n);
        assert!((0.10..0.20).contains(&f(adv1)), "adv1 {}", f(adv1));
        assert!((0.10..0.20).contains(&f(adv3)), "adv3 {}", f(adv3));
        assert!(f(other) > 0.6, "other {}", f(other));
    }

    #[test]
    fn bernoulli_rate_matches_load() {
        let mut b = Bernoulli::new(0.4, 8, 7); // 0.05 packets/node/cycle
        let mut count = 0u64;
        let nodes = 500;
        let cycles = 2000;
        for _ in 0..cycles {
            b.cycle(nodes, |_| count += 1);
        }
        let rate = count as f64 / (nodes as f64 * cycles as f64);
        assert!((rate - 0.05).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn zero_load_generates_nothing() {
        let mut b = Bernoulli::new(0.0, 8, 7);
        b.cycle(100, |_| panic!("no packets expected"));
    }

    #[test]
    #[should_panic(expected = "offered load 9 out of range: it must lie in 0..=8")]
    fn overload_rejected() {
        Bernoulli::new(9.0, 8, 7);
    }

    #[test]
    fn open_loop_is_the_hand_written_pair() {
        let topo = topo();
        let (spec, load, size, seed) = (TrafficSpec::mix2(3), 0.6, 8, 41);
        let mut gen = TrafficGen::new(&topo, spec.clone(), seed + 1);
        let mut bern = Bernoulli::new(load, size, seed + 2);
        let mut want = Vec::new();
        for _ in 0..50 {
            bern.cycle(topo.num_nodes(), |src| {
                want.push((src, gen.destination(src)))
            });
        }
        let mut source = OpenLoop::new(&topo, spec.clone(), load, size, seed);
        let mut got = Vec::new();
        for _ in 0..50 {
            source.cycle(|src, dst| got.push((src, dst)));
        }
        assert!(!want.is_empty());
        assert_eq!(want, got);

        // The closed burst: round by round, same destination stream.
        let mut gen = TrafficGen::new(&topo, spec.clone(), seed + 1);
        let want: Vec<_> = (0..2 * topo.num_nodes())
            .map(|i| NodeId::from(i % topo.num_nodes()))
            .map(|src| (src, gen.destination(src)))
            .collect();
        let mut got = Vec::new();
        OpenLoop::fill(&topo, spec, 2, seed, |src, dst| got.push((src, dst)));
        assert_eq!(want, got);
    }

    #[test]
    fn labels_match_paper_nomenclature() {
        assert_eq!(TrafficSpec::uniform().label(), "UN");
        assert_eq!(TrafficSpec::adversarial(6).label(), "ADV+6");
        assert!(TrafficSpec::mix2(6).label().starts_with("MIX("));
    }
}
