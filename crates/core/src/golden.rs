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
//! so the link-level retransmission layer and its wire CRC are pinned too.

use crate::run::{burst_net, RunConfig};
use ofar_engine::{crc32, Network, SimConfig};
use ofar_routing::{Mechanism, MechanismKind};
use ofar_traffic::{OpenLoop, TrafficSpec};
use rayon::prelude::*;
use std::fmt::Write as _;
use std::path::Path;

/// What one cell drives through the network.
#[derive(Clone, Copy, Debug)]
enum Drive {
    /// Open loop: Bernoulli arrivals at `load` for `cycles` cycles.
    Steady { load: f64, cycles: u64 },
    /// Closed burst of `packets_per_node`, run until drained.
    Burst { packets_per_node: usize },
}

/// One run of the table.
#[derive(Clone, Debug)]
struct Cell {
    kind: MechanismKind,
    spec: TrafficSpec,
    h: usize,
    seed: u64,
    /// Per-phit bit-error rate of every link (0: the lossless fabric).
    ber: f64,
    drive: Drive,
}

impl Cell {
    fn label(&self) -> String {
        let drive = match self.drive {
            Drive::Steady { load, cycles } => format!("load{load}/{cycles}c"),
            Drive::Burst { packets_per_node } => format!("burst{packets_per_node}"),
        };
        let ber = if self.ber > 0.0 {
            format!("/ber{}", self.ber)
        } else {
            String::new()
        };
        format!(
            "{}/{}/h{}/seed{}/{drive}{ber}",
            self.kind.name(),
            self.spec.label(),
            self.h,
            self.seed
        )
    }
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

fn cells() -> Vec<Cell> {
    let six = [
        MechanismKind::Min,
        MechanismKind::Valiant,
        MechanismKind::Pb,
        MechanismKind::Par,
        MechanismKind::Ofar,
        MechanismKind::OfarL,
    ];
    let mut cells = Vec::new();
    for kind in six {
        for spec in [TrafficSpec::uniform(), TrafficSpec::adversarial(1)] {
            for seed in [1, 2012] {
                cells.push(Cell {
                    kind,
                    spec: spec.clone(),
                    h: 2,
                    seed,
                    ber: 0.0,
                    drive: Drive::Steady {
                        load: 0.3,
                        cycles: 1_500,
                    },
                });
            }
        }
    }
    for kind in [MechanismKind::Ofar, MechanismKind::Min] {
        cells.push(Cell {
            kind,
            spec: TrafficSpec::uniform(),
            h: 4,
            seed: 2012,
            ber: 0.0,
            drive: Drive::Steady {
                load: 0.1,
                cycles: 2_000,
            },
        });
        cells.push(Cell {
            kind,
            spec: TrafficSpec::adversarial(1),
            h: 4,
            seed: 2012,
            ber: 0.0,
            drive: Drive::Burst {
                packets_per_node: 20,
            },
        });
    }
    for kind in [
        MechanismKind::Valiant,
        MechanismKind::Pb,
        MechanismKind::Par,
        MechanismKind::OfarL,
    ] {
        cells.push(Cell {
            kind,
            spec: TrafficSpec::adversarial(1),
            h: 4,
            seed: 2012,
            ber: 0.0,
            drive: Drive::Burst {
                packets_per_node: 10,
            },
        });
    }
    cells.push(Cell {
        kind: MechanismKind::Ofar,
        spec: TrafficSpec::uniform(),
        h: 2,
        seed: 2012,
        ber: 1e-3,
        drive: Drive::Steady {
            load: 0.3,
            cycles: 1_500,
        },
    });
    cells
}

fn run_cell(cell: &Cell) -> Signature {
    let cfg = cell.kind.adapt_config(
        SimConfig::paper(cell.h)
            .with_seed(cell.seed)
            .with_ber(cell.ber),
    );
    let mut net: Network<Mechanism> = Network::new(cfg, cell.kind.build(&cfg, cell.seed));
    match cell.drive {
        Drive::Steady { load, cycles } => {
            let topo = *net.fabric().topo();
            let mut source =
                OpenLoop::new(&topo, cell.spec.clone(), load, cfg.packet_size, cell.seed);
            for _ in 0..cycles {
                source.cycle(|src, dst| net.generate(src, dst));
                net.step();
            }
        }
        Drive::Burst { packets_per_node } => {
            let r = burst_net(
                &mut net,
                &cell.spec,
                packets_per_node,
                cell.seed,
                RunConfig::default(),
            );
            assert!(r.stall.is_none(), "{}: burst stalled", cell.label());
        }
    }
    let snap = net.save_snapshot();
    let s = net.stats();
    Signature {
        cell: cell.label(),
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
        assert_eq!(cells.len(), 6 * 2 * 2 + 4 + 4 + 1);
        let mut labels: Vec<String> = cells.iter().map(Cell::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cells.len(), "labels must be unique");
    }
}
