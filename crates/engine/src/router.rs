//! Per-router mutable state: input units, output units and their
//! flow-control bookkeeping.

use crate::buffer::VcFifo;
use crate::fabric::Fabric;
use ofar_topology::RouterId;

/// An input port: its VC FIFOs and crossbar-side busy/arbitration
/// state. (Packets in flight on the attached link live in the
/// network-wide timing wheel, `engine::wheel`.)
#[derive(Debug)]
pub struct InputPort {
    /// Virtual-channel FIFOs.
    pub vcs: Vec<VcFifo>,
    /// The crossbar input is occupied (transferring a packet) until this
    /// cycle (exclusive).
    pub busy_until: u64,
    /// Least-recently-served stamps per VC for the input arbiter.
    pub vc_served_at: Vec<u64>,
}

impl InputPort {
    fn new(fab: &Fabric, router: RouterId, port: usize) -> Self {
        let desc = fab.in_desc(router, port);
        let nvc = desc.vcs as usize;
        let vcs = (0..nvc)
            .map(|vc| VcFifo::new(fab.in_capacity(router, port, vc), fab.cfg().packet_size))
            .collect();
        Self {
            vcs,
            busy_until: 0,
            vc_served_at: vec![0; nvc],
        }
    }

    /// Total occupancy across VCs, in phits.
    pub fn occupancy(&self) -> u32 {
        self.vcs.iter().map(VcFifo::occupancy).sum()
    }
}

/// An output port: downstream credit state and crossbar-side
/// busy/arbitration state. (Credits in flight back to it live in the
/// network-wide timing wheel, `engine::wheel`.)
#[derive(Debug)]
pub struct OutputPort {
    /// Available downstream space per VC, in phits. Ejection ports have
    /// an empty credit vector (the node is an infinite sink).
    pub credits: Vec<u32>,
    /// Per-VC capacity of the downstream buffer, in phits (mirror of the
    /// credit ceiling, kept here so occupancy estimates are O(1)).
    pub capacity: Vec<u32>,
    /// The output link is transmitting until this cycle (exclusive).
    pub busy_until: u64,
    /// Least-recently-served stamps per input port for the output
    /// arbiter.
    pub in_served_at: Vec<u64>,
}

impl OutputPort {
    fn new(fab: &Fabric, router: RouterId, port: usize) -> Self {
        let link = fab.out_link(router, port);
        let (credits, capacity) = if link.kind == crate::fabric::PortKind::Node {
            (Vec::new(), Vec::new())
        } else {
            let dst = RouterId::new(link.dst_router);
            let caps: Vec<u32> = (0..link.vcs as usize)
                .map(|vc| fab.in_capacity(dst, link.dst_port as usize, vc) as u32)
                .collect();
            (caps.clone(), caps)
        };
        Self {
            credits,
            capacity,
            busy_until: 0,
            in_served_at: vec![0; fab.n_in()],
        }
    }

    /// Occupancy estimate of the downstream VC buffer as seen through
    /// credits, in [0, 1]. This is the `Q` of §IV-B.
    #[inline]
    pub fn occupancy_frac(&self, vc: usize) -> f64 {
        let cap = self.capacity[vc];
        if cap == 0 {
            return 0.0;
        }
        f64::from(cap - self.credits[vc]) / f64::from(cap)
    }
}

/// All mutable state of one router.
#[derive(Debug)]
pub struct RouterStore {
    /// Input units, one per input port.
    pub inputs: Vec<InputPort>,
    /// Output units, one per output port.
    pub outputs: Vec<OutputPort>,
}

impl RouterStore {
    /// Allocate the state for router `router` under the given wiring.
    pub fn new(fab: &Fabric, router: RouterId) -> Self {
        Self {
            inputs: (0..fab.n_in())
                .map(|p| InputPort::new(fab, router, p))
                .collect(),
            outputs: (0..fab.n_out())
                .map(|p| OutputPort::new(fab, router, p))
                .collect(),
        }
    }

    /// Phits buffered in this router (input VCs only; packets on the
    /// crossbar are accounted at their source buffer until popped).
    pub fn buffered_phits(&self) -> u64 {
        self.inputs.iter().map(|i| u64::from(i.occupancy())).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RingMode, SimConfig};

    #[test]
    fn router_state_matches_fabric_shape() {
        let fab = Fabric::new(SimConfig::paper(2));
        let r = RouterStore::new(&fab, RouterId::new(3));
        assert_eq!(r.inputs.len(), fab.n_in());
        assert_eq!(r.outputs.len(), fab.n_out());
        // ejection outputs have no credits; link outputs mirror the
        // downstream VC count
        for port in 0..fab.n_out() {
            let link = fab.out_link(RouterId::new(3), port);
            if link.kind == crate::fabric::PortKind::Node {
                assert!(r.outputs[port].credits.is_empty());
            } else {
                assert_eq!(r.outputs[port].credits.len(), link.vcs as usize);
            }
        }
    }

    #[test]
    fn initial_credits_equal_capacity() {
        let fab = Fabric::new(SimConfig::paper(2).with_ring(RingMode::Embedded));
        for ridx in [0usize, 5, 17] {
            let r = RouterStore::new(&fab, RouterId::from(ridx));
            for out in &r.outputs {
                assert_eq!(out.credits, out.capacity);
                for vc in 0..out.credits.len() {
                    assert_eq!(out.occupancy_frac(vc), 0.0);
                }
            }
        }
    }
}
