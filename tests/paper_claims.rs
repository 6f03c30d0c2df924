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

/// Warm-up and window of a steady-state point: by cycle 1,500 every
/// mechanism is within a few percent of the throughput it shows at
/// 3,000 + 3,000 (PB is the slowest to get there: 0.13 at 750 + 750,
/// 0.24 here, 0.26 there).
const STEADY: SteadyOpts = SteadyOpts {
    warmup: 1_500,
    measure: 1_000,
};

/// One mechanism's reading of one quantity, one value per seed.
struct Cell {
    kind: MechanismKind,
    per_seed: Vec<f64>,
}

impl Cell {
    /// Drain times, in cycles, of a burst of `BURST_PACKETS` per node.
    fn burst_cycles(h: usize, kind: MechanismKind, spec: &TrafficSpec) -> Self {
        let drain = |seed| {
            let cfg = SimConfig::paper(h).with_seed(seed);
            let r = burst(cfg, kind, spec, BURST_PACKETS, seed);
            let stalled = || panic!("{kind} stalled on {} (seed {seed})", spec.label());
            r.cycles.unwrap_or_else(stalled) as f64
        };
        Self::over_seeds(kind, drain)
    }

    fn over_seeds(kind: MechanismKind, run: impl Fn(u64) -> f64) -> Self {
        Self {
            kind,
            per_seed: SEEDS.iter().map(|&seed| run(seed)).collect(),
        }
    }

    fn mean(&self) -> f64 {
        self.per_seed.iter().sum::<f64>() / self.per_seed.len() as f64
    }

    /// Sample standard deviation over the seeds.
    fn spread(&self) -> f64 {
        let mean = self.mean();
        let ss: f64 = self.per_seed.iter().map(|c| (c - mean).powi(2)).sum();
        (ss / (self.per_seed.len() - 1) as f64).sqrt()
    }
}

/// `fast` drains sooner than `slow`: in every seed, and on average by
/// more than the two cells spread between seeds.
fn assert_drains_sooner(fast: &Cell, slow: &Cell, pattern: &str, claim: &str) {
    let told = format!(
        "{claim} — {pattern}, {BURST_PACKETS} pkts/node, seeds {SEEDS:?}: \
         {} {:?} vs {} {:?}",
        fast.kind, fast.per_seed, slow.kind, slow.per_seed
    );
    assert!(
        fast.per_seed.iter().zip(&slow.per_seed).all(|(f, s)| f < s),
        "{told}"
    );
    let margin = fast.spread() + slow.spread();
    assert!(
        slow.mean() - fast.mean() > margin,
        "{told}: the means are {:.0} apart, the seeds spread {margin:.0}",
        slow.mean() - fast.mean()
    );
}

/// `hi` accepts more than `lo`: in every seed, and on average by more
/// than the two cells spread between seeds. `told` opens the message.
fn assert_accepts_more(hi: &Cell, lo: &Cell, told: &str) {
    assert!(
        hi.per_seed.iter().zip(&lo.per_seed).all(|(h, l)| h > l),
        "{told}"
    );
    let margin = hi.spread() + lo.spread();
    assert!(
        hi.mean() - lo.mean() > margin,
        "{told}: the means are {:.4} apart, the seeds spread {margin:.4}",
        hi.mean() - lo.mean()
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
        let ofar = Cell::burst_cycles(h, MechanismKind::Ofar, &spec);
        for other in [MechanismKind::OfarL, MechanismKind::Pb] {
            let slow = Cell::burst_cycles(h, other, &spec);
            assert_drains_sooner(&ofar, &slow, &row, CLAIM);
        }
    }
}

/// Fig. 2b (§III), EXPERIMENTS.md "Fig. 2b — Valiant throughput vs
/// adversarial offset": "under VAL … ADV+1 is gentle, ADV+n·h worst" —
/// the `l₂` hop of the intermediate group concentrates C(n) flows on one
/// local link. Here at h = 3, offered 1.0, over ADV+1, +2 and +3 = h,
/// whose C(n) `theory` gives as 1, 2 and 3: VAL's accepted load falls
/// at each step, in every seed and by more than the seeds spread.
#[test]
fn fig2b_val_accepts_less_as_the_l2_concentration_rises() {
    const H: usize = 3;
    const OFFERED: f64 = 1.0;
    let params = SimConfig::paper(H).params;
    let offsets = [1, 2, 3];
    let concentration = offsets.map(|n| theory::adv_l2_concentration(&params, n));
    assert_eq!(concentration, [1, 2, 3], "C(n) at h = {H}");
    let accepted = offsets.map(|n| {
        let spec = TrafficSpec::adversarial(n);
        Cell::over_seeds(MechanismKind::Valiant, |seed| {
            let cfg = SimConfig::paper(H).with_seed(seed);
            steady_state(cfg, MechanismKind::Valiant, &spec, OFFERED, STEADY, seed).throughput
        })
    });
    for i in 0..2 {
        let (hi, lo) = (&accepted[i], &accepted[i + 1]);
        let told = format!(
            "Fig. 2b, VAL at h = {H}, offered {OFFERED}, seeds {SEEDS:?}: \
             ADV+{} (C = {}) accepts {:?}, ADV+{} (C = {}) {:?}",
            offsets[i],
            concentration[i],
            hi.per_seed,
            offsets[i + 1],
            concentration[i + 1],
            lo.per_seed
        );
        assert_accepts_more(hi, lo, &told);
    }
}

/// Fig. 4 (§VI-A), EXPERIMENTS.md "Fig. 4 — ADV+2": accepted load falls
/// from OFAR to OFAR-L to PB to VAL, "exactly the paper's ordering" —
/// here at h = 3, offered 0.7 (past every mechanism's saturation): each
/// step holds in every seed and is larger than the two cells spread.
#[test]
fn fig4_ofar_ofar_l_pb_val_accept_adv2_in_the_paper_order() {
    const H: usize = 3;
    const OFFERED: f64 = 0.7;
    let spec = TrafficSpec::adversarial(2);
    let accepted = |kind| {
        Cell::over_seeds(kind, |seed| {
            let cfg = SimConfig::paper(H).with_seed(seed);
            steady_state(cfg, kind, &spec, OFFERED, STEADY, seed).throughput
        })
    };
    let order = [
        MechanismKind::Ofar,
        MechanismKind::OfarL,
        MechanismKind::Pb,
        MechanismKind::Valiant,
    ]
    .map(accepted);
    for pair in order.windows(2) {
        let (hi, lo) = (&pair[0], &pair[1]);
        let told = format!(
            "Fig. 4, ADV+2 at h = {H}, offered {OFFERED}, seeds {SEEDS:?}: \
             {} accepts {:?}, {} {:?}",
            hi.kind, hi.per_seed, lo.kind, lo.per_seed
        );
        assert_accepts_more(hi, lo, &told);
    }
}

/// The Fig. 5 setting: ADV+h at h = 3 — h = 2 has no room for the
/// claim, its wall 1/h equals the 0.5 bound of the global links —
/// offered more than any mechanism accepts.
const FIG5_H: usize = 3;
const FIG5_WALL: f64 = 1.0 / FIG5_H as f64;
const FIG5_SATURATED: f64 = 0.6;

/// Accepted load, in phits/(node·cycle), at offered load `load`, and
/// the sentence a failed assertion about it opens with.
fn fig5_accepted(kind: MechanismKind, load: f64) -> (Cell, String) {
    let spec = TrafficSpec::adversarial(FIG5_H);
    let cell = Cell::over_seeds(kind, |seed| {
        let cfg = SimConfig::paper(FIG5_H).with_seed(seed);
        steady_state(cfg, kind, &spec, load, STEADY, seed).throughput
    });
    let told = format!(
        "Fig. 5, {} at h = {FIG5_H} (wall 1/h = {FIG5_WALL:.3}), offered {load}, \
         seeds {SEEDS:?}: {kind} accepts {:?}",
        spec.label(),
        cell.per_seed
    );
    (cell, told)
}

/// Fig. 5 (§III, §VI-A), EXPERIMENTS.md "Fig. 5 — ADV+h, the headline
/// result": "every injection-time-decision mechanism is stuck at/below"
/// the local-link wall — in every seed, and by more than the seeds
/// spread.
#[test]
fn fig5_val_pb_and_ofar_l_stay_under_the_local_link_wall() {
    for kind in [
        MechanismKind::Valiant,
        MechanismKind::Pb,
        MechanismKind::OfarL,
    ] {
        let (c, told) = fig5_accepted(kind, FIG5_SATURATED);
        assert!(c.per_seed.iter().all(|&t| t < FIG5_WALL), "{told}");
        assert!(FIG5_WALL - c.mean() > c.spread(), "{told}");
    }
}

/// Fig. 5, same section: "only in-transit *local* misrouting escapes
/// the local-link wall", and OFAR's "throughput remains constant after
/// saturation" — offered 1.0 and offered 0.6 are accepted alike, to
/// within what the seeds of the two cells spread.
#[test]
fn fig5_ofar_clears_the_wall_and_stays_flat_past_saturation() {
    let (ofar, told) = fig5_accepted(MechanismKind::Ofar, FIG5_SATURATED);
    assert!(ofar.per_seed.iter().all(|&t| t > FIG5_WALL), "{told}");
    assert!(ofar.mean() - FIG5_WALL > ofar.spread(), "{told}");

    let (overloaded, told_overloaded) = fig5_accepted(MechanismKind::Ofar, 1.0);
    let apart = (overloaded.mean() - ofar.mean()).abs();
    let margin = ofar.spread() + overloaded.spread();
    assert!(
        apart < margin,
        "{told}; {told_overloaded}: the means are {apart:.4} apart, the seeds spread {margin:.4}"
    );
}

/// One steady-state point of the Fig. 8 setting: h = 2, OFAR over the
/// given escape-ring model.
fn fig8_point(ring: RingMode, spec: &TrafficSpec, load: f64, seed: u64) -> SteadyPoint {
    let cfg = SimConfig::paper(2).with_ring(ring).with_seed(seed);
    steady_state(cfg, MechanismKind::Ofar, spec, load, STEADY, seed)
}

/// Fig. 8 (§VII), EXPERIMENTS.md "Fig. 8 — physical vs embedded escape
/// ring": "no significant differences can be reported". Below the knee
/// the ring is never entered, so the two models are one network: equal
/// throughput and latency in every seed. Past it (UN at 0.8, ADV+2 at
/// 0.5) the accepted loads differ by less than the seeds spread.
#[test]
fn fig8_physical_and_embedded_rings_accept_alike() {
    let un = TrafficSpec::uniform();
    for seed in SEEDS {
        let p = fig8_point(RingMode::Physical, &un, 0.3, seed);
        let e = fig8_point(RingMode::Embedded, &un, 0.3, seed);
        let told = format!("Fig. 8, UN at 0.3, seed {seed}: physical {p:?}, embedded {e:?}");
        assert_eq!((p.ring_entries, e.ring_entries), (0, 0), "{told}");
        assert_eq!(p.throughput.to_bits(), e.throughput.to_bits(), "{told}");
        assert_eq!(p.avg_latency.to_bits(), e.avg_latency.to_bits(), "{told}");
    }

    for (spec, load) in [(un, 0.8), (TrafficSpec::adversarial(2), 0.5)] {
        let accepted = |ring| {
            Cell::over_seeds(MechanismKind::Ofar, |seed| {
                fig8_point(ring, &spec, load, seed).throughput
            })
        };
        let (p, e) = (accepted(RingMode::Physical), accepted(RingMode::Embedded));
        let apart = (p.mean() - e.mean()).abs();
        let margin = p.spread() + e.spread();
        assert!(
            apart < margin,
            "Fig. 8, {} at {load}, seeds {SEEDS:?}: physical accepts {:?}, embedded {:?}: \
             the means are {apart:.4} apart, the seeds spread {margin:.4}",
            spec.label(),
            p.per_seed,
            e.per_seed
        );
    }
}

/// Warm-up and window of a Fig. 9 point: the collapse takes time to
/// build, and at `STEADY` UN at 0.9 has not yet gridlocked.
const FIG9_STEADY: SteadyOpts = SteadyOpts {
    warmup: 6_000,
    measure: 2_000,
};

/// Fig. 9 (§VII), EXPERIMENTS.md "Fig. 9 — congestion with reduced VCs":
/// with 2 local / 1 global VCs "throughput significantly falls as the
/// canonical network gets completely congested" — UN past the knee
/// accepts less than UN at it — while the adversarial patterns "degrade
/// gracefully": ADV+2 (ADV+h at h = 2) at 0.9 accepts more than UN does.
#[test]
fn fig9_un_collapses_past_the_knee_with_reduced_vcs_while_adv2_holds() {
    let accepted = |spec: TrafficSpec, load| {
        Cell::over_seeds(MechanismKind::Ofar, |seed| {
            let cfg = SimConfig::reduced_vcs(2).with_seed(seed);
            steady_state(cfg, MechanismKind::Ofar, &spec, load, FIG9_STEADY, seed).throughput
        })
    };
    let past = accepted(TrafficSpec::uniform(), 0.9);
    for (label, hi) in [
        ("UN 0.5", accepted(TrafficSpec::uniform(), 0.5)),
        ("ADV+2 0.9", accepted(TrafficSpec::adversarial(2), 0.9)),
    ] {
        let told = format!(
            "Fig. 9, OFAR with 2/1 VCs at h = 2, seeds {SEEDS:?}: \
             {label} accepts {:?}, UN 0.9 {:?}",
            hi.per_seed, past.per_seed
        );
        assert_accepts_more(&hi, &past, &told);
    }
}
