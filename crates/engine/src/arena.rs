//! The router-state arena: the mutable port and VC state of every
//! router, as flat arrays indexed by the offsets the [`Fabric`] computes
//! ([`Fabric::in_slot`], [`Fabric::out_lane`]).
//!
//! Every head-of-VC packet is re-evaluated every cycle from the credits
//! of its candidate outputs (§IV-A/B): the engine's inner loop is "visit
//! each head, read a few counters". Here one router's heads, stamps,
//! credits and busy times each sit in consecutive entries of one array,
//! the head packet by value, so a poll dereferences no per-port or
//! per-VC heap object. The per-VC capacities, fixed at construction,
//! live on the `Fabric`.

use crate::fabric::Fabric;
use crate::packet::Packet;

/// All routers' mutable state. Index spaces: *port* arrays are
/// `[router × n_in]` or `[router × n_out]`, *slot* arrays follow
/// [`Fabric::in_slot`], *lane* arrays [`Fabric::out_lane`].
pub(crate) struct Arena {
    /// Per input port: the crossbar input is busy until this cycle
    /// (exclusive).
    pub in_busy: Vec<u64>,
    /// Per input slot: least-recently-served stamp of the input arbiter.
    pub vc_served_at: Vec<u64>,
    /// The input VC FIFOs, per slot.
    pub fifos: Fifos,
    /// Per output port: the link is busy until this cycle (exclusive).
    pub out_busy: Vec<u64>,
    /// Per lane: available downstream space, in phits.
    pub credits: Vec<u32>,
    /// `[router × n_out × n_in]`: least-recently-served stamp of each
    /// input at each output's arbiter.
    pub in_served_at: Vec<u64>,
}

impl Arena {
    /// The state of an empty network: nothing buffered, every credit
    /// at its lane's capacity.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a validated packet_size fits u32"
    )]
    pub fn new(fab: &Fabric) -> Self {
        let nr = fab.topo().num_routers();
        Self {
            in_busy: vec![0; nr * fab.n_in()],
            vc_served_at: vec![0; fab.slot_caps().len()],
            fifos: Fifos::new(fab.slot_caps().len(), fab.cfg().packet_size as u32),
            out_busy: vec![0; nr * fab.n_out()],
            credits: fab.lane_caps().to_vec(),
            in_served_at: vec![0; nr * fab.n_out() * fab.n_in()],
        }
    }
}

/// End of a tail chain / of the free list.
const NIL: u32 = u32::MAX;

/// A queued packet behind its VC's head.
#[derive(Clone, Copy)]
struct Tail {
    pkt: Packet,
    next: u32,
}

/// Tails in the order they were first needed, addressed by a `u32` that
/// stays good for the pool's life: it grows a `CHUNK` at a time and an
/// entry never moves. Source queues are unbounded past saturation, and
/// one doubling `Vec` would hold the old and the new copy at once on
/// every growth — which is what a run's peak memory then records.
struct Pool<const CHUNK: usize> {
    chunks: Vec<Vec<Tail>>,
}

impl<const CHUNK: usize> Pool<CHUNK> {
    /// Store `tail` in a new entry and return its index.
    fn push(&mut self, tail: Tail) -> usize {
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            // Amortised: one allocation per CHUNK tails, at the pool's peak only.
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let last = self.chunks.len() - 1;
        self.chunks[last].push(tail);
        last * CHUNK + self.chunks[last].len() - 1
    }
}

impl<const CHUNK: usize> std::ops::Index<u32> for Pool<CHUNK> {
    type Output = Tail;
    #[inline]
    fn index(&self, n: u32) -> &Tail {
        &self.chunks[n as usize / CHUNK][n as usize % CHUNK]
    }
}

impl<const CHUNK: usize> std::ops::IndexMut<u32> for Pool<CHUNK> {
    #[inline]
    fn index_mut(&mut self, n: u32) -> &mut Tail {
        &mut self.chunks[n as usize / CHUNK][n as usize % CHUNK]
    }
}

/// One FIFO of whole packets per slot — an input VC, or a node's source
/// queue (virtual cut-through moves and accounts whole packets) — every
/// packet `size` phits.
///
/// The head of each FIFO is held by value in [`Self::heads`]; the
/// packets behind it are chained through one shared pool, so memory
/// follows what is actually buffered and a FIFO can outgrow its VC's
/// capacity where a hook tolerates that ([`Self::push_overflowing`]).
pub(crate) struct Fifos<const CHUNK: usize = 1024> {
    size: u32,
    /// Packets queued per slot.
    pub queued: Vec<u32>,
    /// The head packet of each slot, where `queued` is nonzero.
    pub heads: Vec<Packet>,
    /// First and last pool entry of each slot's tail chain; `first` is
    /// `NIL` for a chain of none, `last` is then stale.
    first: Vec<u32>,
    last: Vec<u32>,
    pool: Pool<CHUNK>,
    free: u32,
}

impl<const CHUNK: usize> Fifos<CHUNK> {
    /// `slots` empty FIFOs of `size`-phit packets.
    pub fn new(slots: usize, size: u32) -> Self {
        Self {
            size,
            queued: vec![0; slots],
            heads: vec![Packet::default(); slots],
            first: vec![NIL; slots],
            last: vec![NIL; slots],
            pool: Pool { chunks: Vec::new() },
            free: NIL,
        }
    }

    /// Occupancy of `slot` in phits, the paper's flow-control unit.
    #[inline]
    pub fn occupancy(&self, slot: usize) -> u32 {
        self.queued[slot] * self.size
    }

    /// Whether one more packet fits in `slot` under `capacity` phits.
    #[inline]
    pub fn fits(&self, slot: usize, capacity: u32) -> bool {
        self.occupancy(slot) + self.size <= capacity
    }

    /// Append a packet to `slot`, whose buffer holds `capacity` phits.
    ///
    /// # Panics
    /// Panics if the packet does not fit — callers must have reserved
    /// space through the credit mechanism, so an overflow here is a
    /// flow-control bug, not an operational condition.
    #[inline]
    pub fn push(&mut self, slot: usize, pkt: Packet, capacity: u32) {
        assert!(
            self.fits(slot, capacity),
            "VC overflow: {} + {} > {capacity} phits (flow-control violation)",
            self.occupancy(slot),
            self.size
        );
        self.push_overflowing(slot, pkt);
    }

    /// [`Self::push`] without the flow-control assertion, for networks
    /// whose hook answers [`crate::Hooks::tolerates_overflow`]: a seeded
    /// credit defect makes overflow an *expected* consequence that the
    /// runtime auditor — not a panic — must detect and report.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the pool holds at most the packets in the network, far below u32::MAX"
    )]
    pub fn push_overflowing(&mut self, slot: usize, pkt: Packet) {
        self.queued[slot] += 1;
        if self.queued[slot] == 1 {
            self.heads[slot] = pkt;
            return;
        }
        let tail = Tail { pkt, next: NIL };
        let n = if self.free == NIL {
            self.pool.push(tail) as u32
        } else {
            let n = self.free;
            self.free = std::mem::replace(&mut self.pool[n], tail).next;
            n
        };
        if self.first[slot] == NIL {
            self.first[slot] = n;
        } else {
            self.pool[self.last[slot]].next = n;
        }
        self.last[slot] = n;
    }

    /// Remove and return the head packet of `slot`; the next one, if
    /// any, becomes the head.
    #[inline]
    pub fn pop(&mut self, slot: usize) -> Packet {
        // Callers check occupancy first: an empty pop is a broken allocator.
        assert!(self.queued[slot] != 0, "pop from empty VC");
        self.queued[slot] -= 1;
        let pkt = self.heads[slot];
        let n = self.first[slot];
        if n != NIL {
            let tail = self.pool[n];
            self.heads[slot] = tail.pkt;
            self.first[slot] = tail.next;
            self.pool[n].next = self.free;
            self.free = n;
        }
        pkt
    }

    /// The packets queued in `slot`, head first.
    pub fn iter(&self, slot: usize) -> impl Iterator<Item = &Packet> {
        let head = (self.queued[slot] != 0).then(|| &self.heads[slot]);
        let mut n = self.first[slot];
        head.into_iter().chain(std::iter::from_fn(move || {
            let tail = (n != NIL).then(|| &self.pool[n])?;
            n = tail.next;
            Some(&tail.pkt)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn pkt(id: u64) -> Packet {
        Packet {
            id,
            ..Packet::default()
        }
    }

    #[test]
    #[should_panic(expected = "VC overflow")]
    fn overflow_panics() {
        let mut f = Fifos::<4>::new(1, 8);
        f.push(0, pkt(1), 8);
        f.push(0, pkt(2), 8);
    }

    #[test]
    #[should_panic(expected = "pop from empty VC")]
    fn empty_pop_panics() {
        Fifos::<4>::new(1, 8).pop(0);
    }

    proptest! {
        /// Against one `VecDeque` per slot: the same packets in the same
        /// order, the head by value, the occupancy — with pushes past
        /// the capacity going through the overflow seam, pool entries
        /// recycled across slots, and a pool chunk of four tails so that
        /// chains and the free list cross chunk boundaries (two pushes
        /// for every pop: the queues grow well past one chunk).
        #[test]
        fn agrees_with_a_deque_reference(
            ops in proptest::collection::vec((0usize..4, 0u8..3), 1..400),
        ) {
            const CAP: u32 = 24; // three packets
            let mut fifos = Fifos::<4>::new(4, 8);
            let mut reference = vec![VecDeque::new(); 4];
            let mut peak_tails = 0;
            for (id, (slot, push)) in ops.into_iter().enumerate() {
                let id = id as u64;
                if push != 0 {
                    prop_assert_eq!(fifos.fits(slot, CAP), reference[slot].len() < 3);
                    if fifos.fits(slot, CAP) {
                        fifos.push(slot, pkt(id), CAP);
                    } else {
                        fifos.push_overflowing(slot, pkt(id));
                    }
                    reference[slot].push_back(id);
                } else if let Some(want) = reference[slot].pop_front() {
                    prop_assert_eq!(fifos.pop(slot).id, want);
                }
                let tails = reference.iter().map(|q| q.len().saturating_sub(1)).sum();
                peak_tails = peak_tails.max(tails);
                for (s, q) in reference.iter().enumerate() {
                    prop_assert_eq!(fifos.queued[s] as usize, q.len());
                    prop_assert_eq!(fifos.occupancy(s) as usize, 8 * q.len());
                    if let Some(&head) = q.front() {
                        prop_assert_eq!(fifos.heads[s].id, head);
                    }
                    let got: Vec<u64> = fifos.iter(s).map(|p| p.id).collect();
                    prop_assert_eq!(got, q.iter().copied().collect::<Vec<_>>());
                }
            }
            let pooled: usize = fifos.pool.chunks.iter().map(Vec::len).sum();
            prop_assert_eq!(pooled, peak_tails, "the pool recycles its entries");
            prop_assert_eq!(fifos.pool.chunks.len(), peak_tails.div_ceil(4));
        }
    }
}
