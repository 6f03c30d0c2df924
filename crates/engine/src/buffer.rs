//! Virtual-channel FIFO buffers, counted in phits.

use crate::packet::Packet;
use std::collections::VecDeque;

/// One virtual-channel FIFO of an input port.
///
/// Occupancy is tracked in phits (the paper's flow-control unit); the
/// queue itself stores whole packets, as virtual cut-through only moves
/// and accounts whole packets once the header has been accepted.
#[derive(Clone, Debug)]
pub struct VcFifo {
    q: VecDeque<Packet>,
    occupancy: u32,
    capacity: u32,
}

impl VcFifo {
    /// Create a FIFO holding up to `capacity_phits` phits.
    pub fn new(capacity_phits: usize, packet_size: usize) -> Self {
        Self {
            q: VecDeque::with_capacity(capacity_phits / packet_size.max(1) + 1),
            occupancy: 0,
            capacity: capacity_phits as u32,
        }
    }

    /// Current occupancy in phits.
    #[inline]
    pub fn occupancy(&self) -> u32 {
        self.occupancy
    }

    /// Capacity in phits.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Free space in phits.
    #[inline]
    pub fn free(&self) -> u32 {
        self.capacity - self.occupancy
    }

    /// Whether a packet of `phits` fits.
    #[inline]
    pub fn fits(&self, phits: u32) -> bool {
        self.free() >= phits
    }

    /// Number of queued packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the FIFO is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Append a packet occupying `phits` phits.
    ///
    /// # Panics
    /// Panics if the packet does not fit — callers must have reserved
    /// space through the credit mechanism, so an overflow here is a
    /// flow-control bug, not an operational condition.
    #[inline]
    pub fn push(&mut self, pkt: Packet, phits: u32) {
        // lint:allow(P001, overflow here means a broken credit loop; failing loud beats silent corruption)
        assert!(
            self.fits(phits),
            "VC overflow: {} + {phits} > {} phits (flow-control violation)",
            self.occupancy,
            self.capacity
        );
        self.occupancy += phits;
        self.q.push_back(pkt);
    }

    /// [`Self::push`] without the flow-control assertion, for networks
    /// whose hook answers [`crate::Hooks::tolerates_overflow`]: a seeded
    /// credit defect makes overflow an *expected* consequence that the
    /// runtime auditor — not a panic — must detect and report.
    #[inline]
    pub(crate) fn push_overflowing(&mut self, pkt: Packet, phits: u32) {
        self.occupancy += phits;
        self.q.push_back(pkt);
    }

    /// The packet at the head, if any.
    #[inline]
    pub fn head(&self) -> Option<&Packet> {
        self.q.front()
    }

    /// Mutable access to the head packet (routing bookkeeping).
    #[inline]
    pub fn head_mut(&mut self) -> Option<&mut Packet> {
        self.q.front_mut()
    }

    /// Remove the head packet, releasing `phits` phits.
    #[inline]
    pub fn pop(&mut self, phits: u32) -> Packet {
        // lint:allow(P001, pop contract requires a prior occupancy check; an empty pop is a broken allocator)
        let pkt = self.q.pop_front().expect("pop from empty VC");
        debug_assert!(self.occupancy >= phits);
        self.occupancy -= phits;
        pkt
    }

    /// Iterate queued packets, head first (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &Packet> {
        self.q.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofar_topology::{GroupId, NodeId};

    fn pkt(id: u64) -> Packet {
        Packet {
            id,
            injected_at: 0,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            intermediate: None,
            flags: 0,
            ring_exits_left: 0,
            local_hops: 0,
            global_hops: 0,
            ring_hops: 0,
            wait: 0,
            cur_group: GroupId::new(0),
        }
    }

    #[test]
    fn fifo_order_and_occupancy() {
        let mut f = VcFifo::new(32, 8);
        assert!(f.is_empty());
        f.push(pkt(1), 8);
        f.push(pkt(2), 8);
        assert_eq!(f.occupancy(), 16);
        assert_eq!(f.free(), 16);
        assert_eq!(f.len(), 2);
        assert_eq!(f.head().unwrap().id, 1);
        assert_eq!(f.pop(8).id, 1);
        assert_eq!(f.pop(8).id, 2);
        assert!(f.is_empty());
        assert_eq!(f.occupancy(), 0);
    }

    #[test]
    fn fits_respects_capacity() {
        let mut f = VcFifo::new(32, 8);
        for i in 0..4 {
            assert!(f.fits(8));
            f.push(pkt(i), 8);
        }
        assert!(!f.fits(8));
        assert!(f.fits(0));
    }

    #[test]
    #[should_panic(expected = "VC overflow")]
    fn overflow_panics() {
        let mut f = VcFifo::new(8, 8);
        f.push(pkt(1), 8);
        f.push(pkt(2), 8);
    }
}
