//! The occupancy index: where the buffered packets and the waiting
//! sources are, as flat arrays the `route` and `inject` phases probe
//! instead of walking every port's FIFOs and every node's queue.
//!
//! Below the knee almost every router-cycle and port-cycle has nothing
//! to do; OFAR decides from the *local* state of the router a packet is
//! at (§IV), so a router with nothing buffered has no routing work, and
//! a node with an empty source queue nothing to inject.
//!
//! The index is derived state: `Network` updates it next to each of the
//! places an arena FIFO ([`Fifos`]) is pushed or popped and a source
//! queue ([`SrcQueues`]) fills or empties, [`Occupancy::recount`]
//! rebuilds it from those structures (snapshot restore), and the deep
//! audit checks the two agree. It is therefore outside snapshots.

use crate::arena::{Fifos, SrcQueues};
use crate::fabric::Fabric;

/// Buffered-packet counts per input port, the set of occupied ports of
/// each router, and the set of nodes with a non-empty source queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Occupancy {
    /// Packets buffered per input port, `[router × n_in]`.
    pub port_pkts: Vec<u32>,
    /// Per router: bit `p` is set iff `port_pkts[router × n_in + p]` is
    /// nonzero (`SimConfig::validate` bounds the radix by `MAX_PORTS`,
    /// the width of the word).
    pub port_mask: Vec<u64>,
    /// Bit `node % 64` of word `node / 64` is set iff `node`'s source
    /// queue is non-empty.
    pub src_pending: Vec<u64>,
}

impl Occupancy {
    /// The index of an empty network of `routers` routers with `n_in`
    /// input ports each and `nodes` nodes.
    pub fn empty(routers: usize, n_in: usize, nodes: usize) -> Self {
        Self {
            port_pkts: vec![0; routers * n_in],
            port_mask: vec![0; routers],
            src_pending: vec![0; nodes.div_ceil(64)],
        }
    }

    /// Count `fifos`' packets per port of `fab` and `src_q`'s queues.
    pub fn recount(fab: &Fabric, fifos: &Fifos, src_q: &SrcQueues) -> Self {
        let nr = fab.topo().num_routers();
        let mut occ = Self::empty(nr, fab.n_in(), src_q.queued().len());
        for (node, &queued) in src_q.queued().iter().enumerate() {
            if queued != 0 {
                occ.src_pending[node / 64] |= 1 << (node % 64);
            }
        }
        let descs = (0..nr).flat_map(|r| fab.in_descs(r.into()));
        for (desc, pkts) in descs.zip(&mut occ.port_pkts) {
            *pkts = fifos.queued[desc.slots()].iter().sum();
        }
        for (mask, ports) in occ
            .port_mask
            .iter_mut()
            .zip(occ.port_pkts.chunks(fab.n_in()))
        {
            for (p, &pkts) in ports.iter().enumerate() {
                *mask |= u64::from(pkts != 0) << p;
            }
        }
        occ
    }
}
