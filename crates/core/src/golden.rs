//! Golden signatures: a fixed table of small runs whose simulated
//! outcome is pinned across PRs (`results/golden-signatures.json`).
//!
//! `tests/determinism.rs` proves that one build repeats itself; this is
//! the cross-build half. A change that claims behaviour identity must
//! leave the checked-in table verifying byte for byte; a change that
//! moves simulated behaviour re-emits it (`-p ofar-bench -- golden
//! --emit`) and says why.
//!
//! Cells: the six mechanisms × {UN, ADV+1} at 0.3 load × seeds {1, 2012}
//! on h=2 for 1,500 cycles, plus OFAR and MIN on h=4 under UN at 0.1 for
//! 2,000 cycles and under a closed ADV+1 burst of 20 packets per node,
//! plus VAL, PB, PAR and OFAR-L on h=4 under a closed ADV+1 burst of 10,
//! plus one lossy cell — OFAR on h=2 under UN at 0.3 with `ber` 1e-3 —
//! so the link-level retransmission layer and its wire CRC are pinned too,
//! plus one cell of half-size buffers — OFAR-L on h=2 under ADV+1 at 0.5
//! with 16-phit local and ring buffers — where a ring entry is granted
//! with between one and two packets of room, so the bubble is pinned.

use crate::run::{burst_net, network, Point, RunConfig, Shape, SteadyOpts};
use ofar_engine::{crc32, NoHooks, SimConfig};
use ofar_routing::MechanismKind;
use ofar_traffic::{OpenLoop, TrafficSpec};
use rayon::prelude::*;
use std::fmt::Write as _;
use std::path::Path;

/// A cell's name in the table: mechanism, pattern, scale, seed, drive
/// and, where they are not the paper's, the bit-error rate and the
/// buffer sizes.
fn label(cell: &Point) -> String {
    let drive = match &cell.shape {
        Shape::Steady { load, opts } => format!("load{load}/{}c", opts.warmup + opts.measure),
        Shape::Burst { packets, .. } => format!("burst{packets}"),
        other => unreachable!("the table holds no {other:?} cell"),
    };
    let ber = if cell.cfg.ber > 0.0 {
        format!("/ber{}", cell.cfg.ber)
    } else {
        String::new()
    };
    let (cfg, paper) = (&cell.cfg, SimConfig::paper(cell.cfg.params.h));
    let bufs: String = [
        ("local", cfg.buf_local, paper.buf_local),
        ("injection", cfg.buf_injection, paper.buf_injection),
        ("ring", cfg.buf_ring, paper.buf_ring),
    ]
    .iter()
    .filter(|(_, phits, paper)| phits != paper)
    .map(|(buf, phits, _)| format!("/buf_{buf}{phits}"))
    .collect();
    format!(
        "{}/{}/h{}/seed{}/{drive}{ber}{bufs}",
        cell.kind.name(),
        cell.traffic.label(),
        cell.cfg.params.h,
        cell.seed
    )
}

/// The simulated outcome of one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Mechanism, pattern, scale, seed and drive of the run.
    pub cell: String,
    /// Cycle counter at the end of the run.
    pub cycles: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Sum of delivery latencies, cycles.
    pub latency_sum: u64,
    /// Sum of link hops over delivered packets.
    pub hop_sum: u64,
    /// Local plus global misroute grants.
    pub misroutes: u64,
    /// Escape-ring entries.
    pub ring_entries: u64,
    /// CRC-32 of the final `save_snapshot()` bytes up to its trailer —
    /// the value the trailer seals. (The CRC of the sealed file itself
    /// is the same constant residue for every snapshot.)
    pub snapshot_crc32: u32,
}

/// One cell: `kind` on `h` at `seed`, `shape` driven from the pattern
/// `spec`, on the lossless fabric.
fn cell(kind: MechanismKind, spec: &TrafficSpec, h: usize, seed: u64, shape: Shape) -> Point {
    Point::new(SimConfig::paper(h).with_seed(seed), kind, spec, seed, shape)
}

/// Open loop: Bernoulli arrivals at `load` for `cycles` cycles.
fn steady(load: f64, cycles: u64) -> Shape {
    let opts = SteadyOpts {
        warmup: 0,
        measure: cycles,
    };
    Shape::Steady { load, opts }
}

fn cells() -> Vec<Point> {
    use MechanismKind as K;
    let (un, adv1) = (TrafficSpec::uniform(), TrafficSpec::adversarial(1));
    let mut cells = Vec::new();
    for kind in [K::Min, K::Valiant, K::Pb, K::Par, K::Ofar, K::OfarL] {
        for spec in [&un, &adv1] {
            for seed in [1, 2012] {
                cells.push(cell(kind, spec, 2, seed, steady(0.3, 1_500)));
            }
        }
    }
    for kind in [K::Ofar, K::Min] {
        cells.push(cell(kind, &un, 4, 2012, steady(0.1, 2_000)));
        cells.push(cell(kind, &adv1, 4, 2012, Shape::burst(20)));
    }
    for kind in [K::Valiant, K::Pb, K::Par, K::OfarL] {
        cells.push(cell(kind, &adv1, 4, 2012, Shape::burst(10)));
    }
    let mut lossy = cell(K::Ofar, &un, 2, 2012, steady(0.3, 1_500));
    lossy.cfg.ber = 1e-3;
    cells.push(lossy);
    let mut bubble = cell(K::OfarL, &adv1, 2, 1, steady(0.5, 1_500));
    (bubble.cfg.buf_local, bubble.cfg.buf_ring) = (16, 16);
    cells.push(bubble);
    cells
}

/// Run one cell through its own loop (a steady cell has no measurement
/// window: the signature is of the whole run) and sign the result.
fn run_cell(cell: &Point) -> Signature {
    let mut net = network(cell, NoHooks);
    match cell.shape {
        Shape::Steady { load, opts } => {
            let topo = *net.fabric().topo();
            let size = net.cfg().packet_size;
            let mut source = OpenLoop::new(&topo, cell.traffic.clone(), load, size, cell.seed);
            for _ in 0..opts.warmup + opts.measure {
                source.cycle(|src, dst| net.generate(src, dst));
                net.step();
            }
        }
        Shape::Burst { packets, .. } => {
            let r = burst_net(
                &mut net,
                &cell.traffic,
                packets,
                cell.seed,
                RunConfig::default(),
            );
            assert!(r.stall.is_none(), "{}: burst stalled", label(cell));
        }
        _ => unreachable!("the table holds steady and burst cells"),
    }
    let snap = net.save_snapshot();
    let s = net.stats();
    Signature {
        cell: label(cell),
        cycles: net.now(),
        delivered: s.delivered_packets,
        latency_sum: s.latency_sum,
        hop_sum: s.hop_sum,
        misroutes: s.local_misroutes + s.global_misroutes,
        ring_entries: s.ring_entries,
        snapshot_crc32: crc32(&snap[..snap.len() - 4]),
    }
}

/// Run every cell of the table (in parallel; each is an independent
/// simulation) and return the signatures in table order.
pub fn signatures() -> Vec<Signature> {
    cells().par_iter().map(run_cell).collect()
}

/// The table as the checked-in JSON document: one signature per line so
/// a behaviour change reads as a line diff.
pub fn render(sigs: &[Signature]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"signatures\": [\n");
    for (i, s) in sigs.iter().enumerate() {
        let sep = if i + 1 == sigs.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"cell\": \"{}\", \"cycles\": {}, \"delivered\": {}, \"latency_sum\": {}, \
             \"hop_sum\": {}, \"misroutes\": {}, \"ring_entries\": {}, \
             \"snapshot_crc32\": \"{:08x}\"}}{sep}",
            s.cell,
            s.cycles,
            s.delivered,
            s.latency_sum,
            s.hop_sum,
            s.misroutes,
            s.ring_entries,
            s.snapshot_crc32
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Re-run the table and byte-compare it against the file at `path`.
/// `Err` names the first line that differs (or the I/O failure).
pub fn verify(path: &Path) -> Result<(), String> {
    let want = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let got = render(&signatures());
    if want == got {
        return Ok(());
    }
    let line = want
        .lines()
        .zip(got.lines())
        .position(|(w, g)| w != g)
        .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
    Err(format!(
        "golden signatures drifted from {} at line {}:\n  checked in: {}\n  this build: {}",
        path.display(),
        line + 1,
        want.lines().nth(line).unwrap_or("<end of file>"),
        got.lines().nth(line).unwrap_or("<end of file>"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape_and_labels() {
        let cells = cells();
        assert_eq!(cells.len(), 6 * 2 * 2 + 4 + 4 + 1 + 1);
        let mut labels: Vec<String> = cells.iter().map(label).collect();
        assert!(labels[cells.len() - 1].ends_with("/buf_local16/buf_ring16"));
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cells.len(), "labels must be unique");
    }
}
