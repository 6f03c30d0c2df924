//! The schedule-adversarial commutativity certifier (`ofar-race`).
//!
//! `Network::step` runs its two shard loops — `inject` over nodes,
//! `route` over routers — on the claim that each turn touches only its
//! own shard's state, so the order of the turns is unobservable. This
//! module executes that claim: running the same workload under a
//! permuted [`ShardSchedule`] must produce byte-identical snapshots at
//! every epoch. Any divergence is a commutativity violation, and the
//! certifier bisects it to the first divergent cycle and names the
//! diverging snapshot field (DESIGN.md §16).
//!
//! The protocol, per mechanism × traffic pattern:
//!
//! 1. run the workload under the **identity** schedule, saving a
//!    snapshot at every epoch boundary (the reference trace);
//! 2. for each adversarial schedule, run the identical workload and
//!    byte-compare the snapshot at each boundary against the reference;
//! 3. on the first divergent boundary, **bisect**: replay both runs from
//!    scratch (the simulator is deterministic, so a replay is exact) up
//!    to the last agreeing boundary, then step-and-compare every cycle
//!    to find the first divergent cycle;
//! 4. refine the diff through `Network::diff_snapshots_named` into a
//!    structured [`Witness`] — section, field, attributed phase, shard
//!    index.
//!
//! The verdict artifact (`results/commutativity.json`) is deterministic
//! and checked in; CI regenerates it and fails on drift.

use crate::json;
use ofar_engine::{diff_snapshots, Hooks, Network, NoHooks, Policy, ShardSchedule, SimConfig};
use ofar_routing::MechanismKind;
use ofar_topology::Dragonfly;
use ofar_traffic::{OpenLoop, TrafficSpec};
use std::fmt::Write as _;

/// Format version of the verdict artifact.
pub const RACE_VERSION: u32 = 2;

/// Parameters of one certification sweep.
#[derive(Clone, Copy, Debug)]
pub struct RaceConfig {
    /// Dragonfly scale parameter (`SimConfig::paper(h)`).
    pub h: usize,
    /// Cycles to drive each run.
    pub cycles: u64,
    /// Snapshot-comparison period in cycles.
    pub epoch: u64,
    /// Number of adversarial schedules
    /// ([`ShardSchedule::adversaries`]).
    pub schedules: usize,
    /// Base seed for policy and traffic streams.
    pub seed: u64,
}

impl RaceConfig {
    /// The PR-time smoke configuration: paper scale h=2 (68 routers),
    /// short runs, the four canonical adversaries. This is the
    /// configuration `results/commutativity.json` is generated under.
    pub fn smoke() -> Self {
        Self {
            h: 2,
            cycles: 400,
            epoch: 50,
            schedules: 4,
            seed: 0xC0117,
        }
    }

    /// The nightly configuration (`OFAR_FULL=1`): paper scale h=4
    /// (264 routers), longer runs, six adversaries.
    pub fn full() -> Self {
        Self {
            h: 4,
            cycles: 600,
            epoch: 100,
            schedules: 6,
            seed: 0xC0117,
        }
    }
}

/// A raw schedule divergence found by [`certify`], before phase
/// attribution.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The adversarial schedule that exposed the divergence.
    pub schedule: ShardSchedule,
    /// First cycle whose end-of-cycle snapshot differs from the
    /// identity run's.
    pub cycle: u64,
    /// Diverging snapshot section (`config`, `policy` or `state`).
    pub section: String,
    /// Diverging field, named by the STATE decoder (for the `state`
    /// section) or an opaque byte offset (for `policy`).
    pub field: String,
}

/// Outcome of certifying one (mechanism, pattern) cell.
#[derive(Clone, Debug)]
pub enum CertifyOutcome {
    /// Every adversarial schedule produced byte-identical snapshots at
    /// every epoch boundary.
    Commutes,
    /// A schedule diverged; the bisected witness is attached.
    Diverges(Divergence),
}

/// Per-cycle traffic injection, called once before each `step`.
pub type InjectFn<P, H = NoHooks> = Box<dyn FnMut(&mut Network<P, H>, u64)>;

/// Run one workload under permuted shard orders.
///
/// `build` must construct an identically-seeded run every call: a fresh
/// network plus its per-cycle traffic-injection closure. The certifier
/// relies on replays being exact (the workspace determinism contract,
/// D rules) to bisect without checkpointing traffic state.
///
/// Returns `Ok(Commutes)` when all `schedules` adversaries match the
/// identity run at every `epoch` boundary over `cycles` cycles;
/// `Ok(Diverges(_))` with the first divergent cycle otherwise. `Err` is
/// reserved for internal snapshot-codec failures.
pub fn certify<P, H, B>(
    mut build: B,
    schedules: &[ShardSchedule],
    cycles: u64,
    epoch: u64,
) -> Result<CertifyOutcome, String>
where
    P: Policy,
    H: Hooks,
    B: FnMut() -> (Network<P, H>, InjectFn<P, H>),
{
    assert!(epoch > 0, "epoch must be positive");
    // Reference trace: identity schedule, snapshot at every boundary.
    let boundaries: Vec<u64> = (1..=cycles)
        .filter(|c| c % epoch == 0 || *c == cycles)
        .collect();
    let (mut net, mut inject) = build();
    let mut reference: Vec<(u64, Vec<u8>)> = Vec::with_capacity(boundaries.len());
    for c in 0..cycles {
        inject(&mut net, c);
        net.step();
        if boundaries.contains(&(c + 1)) {
            reference.push((c + 1, net.save_snapshot()));
        }
    }
    drop(net);

    for &sched in schedules {
        let (mut adv, mut inject) = build();
        adv.set_shard_schedule(sched);
        let mut last_good = 0u64;
        let mut bad: Option<(u64, u64)> = None; // (agreeing boundary, divergent boundary)
        'scan: for c in 0..cycles {
            inject(&mut adv, c);
            adv.step();
            if let Some((cyc, snap)) = reference.iter().find(|(b, _)| *b == c + 1) {
                let mine = adv.save_snapshot();
                match diff_snapshots(snap, &mine).map_err(|e| format!("snapshot diff: {e}"))? {
                    None => last_good = *cyc,
                    Some(_) => {
                        bad = Some((last_good, *cyc));
                        break 'scan;
                    }
                }
            }
        }
        drop(adv);
        if let Some((lo, hi)) = bad {
            return Ok(CertifyOutcome::Diverges(bisect(&mut build, sched, lo, hi)?));
        }
    }
    Ok(CertifyOutcome::Commutes)
}

/// Replay the identity and adversarial runs from scratch to cycle `lo`
/// (known byte-identical), then step both in lockstep comparing every
/// end-of-cycle snapshot, returning the first divergent cycle in
/// `lo..=hi` with the diff refined to a named field.
fn bisect<P, H, B>(
    build: &mut B,
    sched: ShardSchedule,
    lo: u64,
    hi: u64,
) -> Result<Divergence, String>
where
    P: Policy,
    H: Hooks,
    B: FnMut() -> (Network<P, H>, InjectFn<P, H>),
{
    let (mut ident, mut inj_i) = build();
    let (mut adv, mut inj_a) = build();
    adv.set_shard_schedule(sched);
    for c in 0..hi {
        inj_i(&mut ident, c);
        ident.step();
        inj_a(&mut adv, c);
        adv.step();
        if c < lo {
            continue;
        }
        let a = ident.save_snapshot();
        let b = adv.save_snapshot();
        if let Some((diff, field)) = ident
            .diff_snapshots_named(&a, &b)
            .map_err(|e| format!("snapshot diff at cycle {}: {e}", c + 1))?
        {
            return Ok(Divergence {
                schedule: sched,
                cycle: c + 1,
                section: diff.section.to_string(),
                field,
            });
        }
    }
    Err(format!(
        "divergence between cycles {lo} and {hi} under {} did not reproduce on replay — \
         the workload builder is not deterministic",
        sched.describe()
    ))
}

/// Attribute a diverging snapshot location to the `Network::step` phase
/// that owns the field. Conservative and name-based.
pub fn attribute_phase(section: &str, field: &str) -> &'static str {
    if section == "config" {
        return "static (configuration)";
    }
    if section == "policy" {
        return "inject/route (policy draws)";
    }
    let f = field;
    if f.starts_with("src_q") || f.starts_with("inj_busy") || f.starts_with("cm.tokens") {
        "inject"
    } else if f.contains(".input[") || f.starts_with("llr") {
        "deliver"
    } else if f.contains(".output[") || f.starts_with("router_last_grant") {
        "route"
    } else if f.starts_with("cm.") {
        "cm_sense"
    } else if f.starts_with("stats.")
        || f.starts_with("delivered_log")
        || f.starts_with("delivered_per_src")
        || f.starts_with("link_phits")
    {
        "effect_commit"
    } else if f.starts_with("fault") || f.starts_with("plan") {
        "fault_apply"
    } else {
        "unknown"
    }
}

/// Extract the shard index a diverging field belongs to, with its axis
/// (`router` or `node`), when the field is per-shard state.
pub fn shard_of(field: &str) -> Option<(&'static str, u64)> {
    let axis = if field.starts_with("router")
        || field.starts_with("cm.cong")
        || field.starts_with("cm.throttled")
    {
        "router"
    } else if field.starts_with("src_q")
        || field.starts_with("inj_busy")
        || field.starts_with("cm.tokens")
        || field.starts_with("delivered_per_src")
    {
        "node"
    } else {
        return None;
    };
    let open = field.find('[')?;
    let close = field[open..].find(']')? + open;
    field[open + 1..close].parse().ok().map(|i| (axis, i))
}

/// A fully-attributed commutativity violation.
#[derive(Clone, Debug)]
pub struct Witness {
    /// Mechanism under test.
    pub mechanism: String,
    /// Traffic pattern label.
    pub pattern: String,
    /// Schedule that exposed the divergence.
    pub schedule: String,
    /// First divergent cycle (bisected).
    pub cycle: u64,
    /// Diverging snapshot section.
    pub section: String,
    /// Diverging field (schema-resolved).
    pub field: String,
    /// Attributed `Network::step` phase.
    pub phase: String,
    /// Shard axis and index of the diverging field, when per-shard.
    pub shard: Option<(&'static str, u64)>,
}

impl Witness {
    /// Build a witness from a raw divergence: attribute the phase and
    /// extract the shard.
    pub fn from_divergence(mechanism: &str, pattern: &str, d: &Divergence) -> Self {
        Witness {
            mechanism: mechanism.to_string(),
            pattern: pattern.to_string(),
            schedule: d.schedule.describe(),
            cycle: d.cycle,
            section: d.section.clone(),
            field: d.field.clone(),
            phase: attribute_phase(&d.section, &d.field).to_string(),
            shard: shard_of(&d.field),
        }
    }
}

impl std::fmt::Display for Witness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: schedule {} diverges at cycle {} — {} section, field {}, phase {}",
            self.mechanism,
            self.pattern,
            self.schedule,
            self.cycle,
            self.section,
            self.field,
            self.phase
        )?;
        if let Some((axis, idx)) = self.shard {
            write!(f, " ({axis} shard {idx})")?;
        }
        Ok(())
    }
}

/// Verdict for one (mechanism, pattern) cell.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Mechanism under test.
    pub mechanism: String,
    /// Traffic pattern label.
    pub pattern: String,
    /// Whether every adversarial schedule matched the identity run.
    pub commutes: bool,
    /// The bisected witness when `commutes` is false.
    pub witness: Option<Witness>,
}

/// One traffic pattern cell of the sweep.
#[derive(Clone, Debug)]
pub struct PatternCell {
    /// Stable label (artifact key).
    pub label: &'static str,
    /// Traffic spec to drive.
    pub spec: TrafficSpec,
    /// Offered load in phits/node/cycle.
    pub load: f64,
    /// Whether the congestion-management layer is enabled.
    pub cm: bool,
}

/// The smoke-sweep pattern set: uniform random plus the paper's ADV+1
/// adversary, both without CM (the CM layer joins in the full sweep).
pub fn smoke_patterns() -> Vec<PatternCell> {
    vec![
        PatternCell {
            label: "uniform",
            spec: TrafficSpec::uniform(),
            load: 0.5,
            cm: false,
        },
        PatternCell {
            label: "adv+1",
            spec: TrafficSpec::adversarial(1),
            load: 0.7,
            cm: false,
        },
    ]
}

/// The full-sweep pattern set: the smoke patterns plus an overloaded
/// ADV+1 cell with congestion management engaged, certifying the CM
/// sense/throttle layers as schedule-invariant too.
pub fn full_patterns() -> Vec<PatternCell> {
    let mut v = smoke_patterns();
    v.push(PatternCell {
        label: "adv+1+cm",
        spec: TrafficSpec::adversarial(1),
        load: 0.8,
        cm: true,
    });
    v
}

/// Certify one mechanism under one traffic pattern.
pub fn certify_mechanism(
    kind: MechanismKind,
    cell: &PatternCell,
    rc: &RaceConfig,
) -> Result<Verdict, String> {
    let mut cfg = SimConfig::paper(rc.h).with_seed(rc.seed);
    if cell.cm {
        cfg = cfg.with_cm();
    }
    let cfg = kind.adapt_config(cfg);
    let topo = Dragonfly::new(cfg.params);
    let seed = rc.seed;
    let spec = cell.spec.clone();
    let load = cell.load;
    let build = move || {
        let net = Network::new(cfg, kind.build(&cfg, seed));
        let mut source = OpenLoop::new(&topo, spec.clone(), load, cfg.packet_size, seed);
        let inject: InjectFn<ofar_routing::Mechanism> =
            Box::new(move |net, _cycle| source.cycle(|src, dst| net.generate(src, dst)));
        (net, inject)
    };
    let schedules = ShardSchedule::adversaries(rc.schedules);
    let outcome = certify(build, &schedules, rc.cycles, rc.epoch)?;
    Ok(match outcome {
        CertifyOutcome::Commutes => Verdict {
            mechanism: kind.name().to_string(),
            pattern: cell.label.to_string(),
            commutes: true,
            witness: None,
        },
        CertifyOutcome::Diverges(d) => Verdict {
            mechanism: kind.name().to_string(),
            pattern: cell.label.to_string(),
            commutes: false,
            witness: Some(Witness::from_divergence(kind.name(), cell.label, &d)),
        },
    })
}

/// Render the verdict artifact (`results/commutativity.json`).
/// Deterministic: ordered cells, no timestamps.
pub fn render(rc: &RaceConfig, verdicts: &[Verdict]) -> String {
    let schedules = ShardSchedule::adversaries(rc.schedules);
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"tool\": \"ofar-race\",");
    let _ = writeln!(s, "  \"race_version\": {RACE_VERSION},");
    let _ = writeln!(s, "  \"h\": {},", rc.h);
    let _ = writeln!(s, "  \"cycles\": {},", rc.cycles);
    let _ = writeln!(s, "  \"epoch\": {},", rc.epoch);
    let _ = writeln!(s, "  \"seed\": {},", rc.seed);
    s.push_str("  \"schedules\": [");
    for (i, sched) in schedules.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{}\"", json::escape(&sched.describe()));
    }
    s.push_str("],\n");
    s.push_str("  \"verdicts\": [");
    for (i, v) in verdicts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        let _ = write!(
            s,
            "\"mechanism\": \"{}\", \"pattern\": \"{}\", \"status\": \"{}\"",
            json::escape(&v.mechanism),
            json::escape(&v.pattern),
            if v.commutes { "commutes" } else { "diverges" }
        );
        if let Some(w) = &v.witness {
            let _ = write!(
                s,
                ", \"witness\": {{\"schedule\": \"{}\", \"cycle\": {}, \"section\": \"{}\", \
                 \"field\": \"{}\", \"phase\": \"{}\"",
                json::escape(&w.schedule),
                w.cycle,
                json::escape(&w.section),
                json::escape(&w.field),
                json::escape(&w.phase)
            );
            if let Some((axis, idx)) = w.shard {
                let _ = write!(s, ", \"shard_axis\": \"{axis}\", \"shard\": {idx}");
            }
            s.push('}');
        }
        s.push('}');
    }
    if !verdicts.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_covers_the_snapshot_schema() {
        assert_eq!(attribute_phase("state", "src_q[3]"), "inject");
        assert_eq!(
            attribute_phase("state", "router[7].input[2].vc[1].fifo"),
            "deliver"
        );
        assert_eq!(
            attribute_phase("state", "router[7].output[2].credits[1]"),
            "route"
        );
        assert_eq!(
            attribute_phase("state", "stats.latency_sum"),
            "effect_commit"
        );
        assert_eq!(attribute_phase("state", "cm.cong[4]"), "cm_sense");
        assert_eq!(attribute_phase("state", "cm.tokens[9]"), "inject");
        assert_eq!(
            attribute_phase("policy", "opaque policy bytes, offset 40"),
            "inject/route (policy draws)"
        );
    }

    #[test]
    fn shard_extraction_reads_axis_and_index() {
        assert_eq!(
            shard_of("router[7].output[2].credits[1]"),
            Some(("router", 7))
        );
        assert_eq!(shard_of("src_q[12]"), Some(("node", 12)));
        assert_eq!(shard_of("cm.tokens[135]"), Some(("node", 135)));
        assert_eq!(shard_of("stats.latency_sum"), None);
    }

    #[test]
    fn witness_carries_the_attributed_phase_and_shard() {
        let parallel = Divergence {
            schedule: ShardSchedule::Reversed,
            cycle: 42,
            section: "state".into(),
            field: "router[3].output[1].credits[0]".into(),
        };
        let w = Witness::from_divergence("OFAR", "adv+1", &parallel);
        assert_eq!(w.phase, "route");
        assert_eq!(w.shard, Some(("router", 3)));

        // The fold seam (DESIGN §16.4): a serialized counter, no shard.
        let commit = Divergence {
            schedule: ShardSchedule::Rotated(7),
            cycle: 50,
            section: "state".into(),
            field: "stats.latency_sum".into(),
        };
        let w = Witness::from_divergence("OFAR", "adv+1", &commit);
        assert_eq!(w.phase, "effect_commit");
        assert_eq!(w.shard, None);
        assert!(w.to_string().contains("phase effect_commit"), "{w}");
    }

    #[test]
    fn render_is_deterministic_and_parses() {
        let rc = RaceConfig::smoke();
        let verdicts = vec![
            Verdict {
                mechanism: "MIN".into(),
                pattern: "uniform".into(),
                commutes: true,
                witness: None,
            },
            Verdict {
                mechanism: "OFAR".into(),
                pattern: "adv+1".into(),
                commutes: false,
                witness: Some(Witness {
                    mechanism: "OFAR".into(),
                    pattern: "adv+1".into(),
                    schedule: "reversed".into(),
                    cycle: 7,
                    section: "state".into(),
                    field: "router[1].output[0].credits[0]".into(),
                    phase: "route".into(),
                    shard: Some(("router", 1)),
                }),
            },
        ];
        let a = render(&rc, &verdicts);
        let b = render(&rc, &verdicts);
        assert_eq!(a, b);
        let v = json::parse(&a).expect("artifact must parse");
        let arr = v.get("verdicts").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[1].get("status"),
            Some(&json::Value::Str("diverges".to_string()))
        );
        assert!(arr[1].get("witness").is_some());
    }

    /// End-to-end on the real engine at a tiny scale: MIN (stateless,
    /// no RNG) must certify clean over one reversed schedule quickly.
    #[test]
    fn min_commutes_at_tiny_scale() {
        let rc = RaceConfig {
            h: 2,
            cycles: 60,
            epoch: 20,
            schedules: 1,
            seed: 11,
        };
        let v = certify_mechanism(MechanismKind::Min, &smoke_patterns()[0], &rc).unwrap();
        assert!(v.commutes, "MIN diverged: {:?}", v.witness);
    }
}
