//! The paper's qualitative claims as tests (ROADMAP item 2a): what
//! EXPERIMENTS.md states in prose, asserted at quick scale. Every claim
//! names the figure and the sentence it encodes, and is judged over
//! several seeds with a margin taken from their spread — one burst cell
//! moves by a third between two random streams of the same seed number,
//! so a single run proves nothing and a hand-picked tolerance less.

use ofar::prelude::*;

const SEEDS: [u64; 3] = [2012, 7, 23];
/// Packets per node: enough for the mechanisms to separate (at 25 OFAR
/// and OFAR-L still drain within each other's seed spread at h = 2).
const BURST_PACKETS: usize = 40;

/// Drain times of one mechanism's bursts, one per seed.
struct Cell {
    kind: MechanismKind,
    cycles: Vec<f64>,
}

impl Cell {
    fn run(h: usize, kind: MechanismKind, spec: &TrafficSpec) -> Self {
        let cycles = SEEDS
            .iter()
            .map(|&seed| {
                let cfg = SimConfig::paper(h).with_seed(seed);
                let r = burst(cfg, kind, spec, BURST_PACKETS, seed);
                let stalled = || panic!("{kind} stalled on {} (seed {seed})", spec.label());
                r.cycles.unwrap_or_else(stalled) as f64
            })
            .collect();
        Self { kind, cycles }
    }

    fn mean(&self) -> f64 {
        self.cycles.iter().sum::<f64>() / self.cycles.len() as f64
    }

    /// Sample standard deviation over the seeds.
    fn spread(&self) -> f64 {
        let mean = self.mean();
        let ss: f64 = self.cycles.iter().map(|c| (c - mean).powi(2)).sum();
        (ss / (self.cycles.len() - 1) as f64).sqrt()
    }
}

/// `fast` drains sooner than `slow`: in every seed, and on average by
/// more than the two cells spread between seeds.
fn assert_drains_sooner(fast: &Cell, slow: &Cell, pattern: &str, claim: &str) {
    let told = format!(
        "{claim} — {pattern}, {BURST_PACKETS} pkts/node, seeds {SEEDS:?}: \
         {} {:?} vs {} {:?}",
        fast.kind, fast.cycles, slow.kind, slow.cycles
    );
    assert!(
        fast.cycles.iter().zip(&slow.cycles).all(|(f, s)| f < s),
        "{told}"
    );
    let margin = fast.spread() + slow.spread();
    assert!(
        slow.mean() - fast.mean() > margin,
        "{told}: the means are {:.0} apart, the seeds spread {margin:.0}",
        slow.mean() - fast.mean()
    );
}

/// Fig. 7 (§VI-C), EXPERIMENTS.md "Fig. 7 — burst consumption": "OFAR
/// fastest in every row, always ahead of OFAR-L (both paper claims)" —
/// here for the two adversarial rows, ADV+2 and ADV+h.
#[test]
fn fig7_ofar_drains_adversarial_bursts_before_ofar_l_and_pb() {
    const CLAIM: &str = "Fig. 7: OFAR consumes the burst before OFAR-L and before PB \
                         (EXPERIMENTS.md: \"OFAR fastest in every row, always ahead of OFAR-L\")";
    // At `SimConfig::paper(2)` the offsets 2 and h name one pattern;
    // h = 3 supplies an ADV+h row that is not also ADV+2.
    for (h, offset) in [(2, 2), (3, 3)] {
        let spec = TrafficSpec::adversarial(offset);
        let row = format!("{} at h = {h}", spec.label());
        let ofar = Cell::run(h, MechanismKind::Ofar, &spec);
        for other in [MechanismKind::OfarL, MechanismKind::Pb] {
            assert_drains_sooner(&ofar, &Cell::run(h, other, &spec), &row, CLAIM);
        }
    }
}
