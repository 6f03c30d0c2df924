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
use ofar_topology::{GroupId, NodeId};

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
            fifos: Fifos::new(fab.slot_caps().len(), fab.cfg().packet_size as u32, ()),
            out_busy: vec![0; nr * fab.n_out()],
            credits: fab.lane_caps().to_vec(),
            in_served_at: vec![0; nr * fab.n_out() * fab.n_in()],
        }
    }
}

/// End of a tail chain / of the free list.
pub(crate) const NIL: u32 = u32::MAX;

/// What a FIFO stores for a packet behind its head: the packet itself,
/// or the part of it the slot does not imply. [`Self::stow`] then
/// [`Self::unstow`] at the same slot gives back every packet the FIFO
/// is ever handed.
pub(crate) trait Stow: Copy {
    /// What [`Self::unstow`] reads besides the tail and its slot.
    type Ctx: Copy;
    fn stow(pkt: Packet) -> Self;
    fn unstow(self, ctx: Self::Ctx, slot: usize) -> Packet;
}

/// A VC buffer's packets have travelled: the tail is the whole packet.
impl Stow for Packet {
    type Ctx = ();
    #[inline]
    fn stow(pkt: Packet) -> Self {
        pkt
    }
    #[inline]
    fn unstow(self, (): (), _: usize) -> Packet {
        self
    }
}

/// A packet waiting behind the head of its node's source queue. It is
/// as [`crate::Network::generate`] made it: only the head is offered to
/// `Policy::on_inject`, the one call that may edit a queued packet, so
/// everything but these three fields follows from the node (the slot).
/// The two `u64` fields are kept as `[u32; 2]` words, so a tail aligns
/// to 4 bytes and packs into 24 (see [`Tail`]).
#[derive(Clone, Copy)]
pub(crate) struct Queued {
    id: [u32; 2],
    injected_at: [u32; 2],
    dst: NodeId,
}

/// `v` as its low and high `u32` words.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "the low word is the truncation"
)]
fn words(v: u64) -> [u32; 2] {
    [v as u32, (v >> 32) as u32]
}

/// The `u64` whose [`words`] are `w`.
#[inline]
fn unwords(w: [u32; 2]) -> u64 {
    u64::from(w[0]) | u64::from(w[1]) << 32
}

/// What a fresh packet takes from the network rather than from its
/// generation.
#[derive(Clone, Copy)]
pub(crate) struct Fresh {
    /// Nodes per group: node `n` is in group `n / nodes_per_group`.
    nodes_per_group: u32,
    /// `SimConfig::max_ring_exits`.
    ring_exits: u8,
}

impl Fresh {
    /// The fresh-packet fields of `fab`'s network.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a group's node count fits u32, as every node id does"
    )]
    pub fn of(fab: &Fabric) -> Self {
        let p = &fab.cfg().params;
        Self {
            nodes_per_group: (p.p * p.a) as u32,
            ring_exits: fab.cfg().max_ring_exits,
        }
    }

    /// The packet generated at node `src` for `dst` with `id` at cycle
    /// `injected_at`, before anything has routed it.
    #[inline]
    pub fn packet(self, id: u64, injected_at: u64, src: NodeId, dst: NodeId) -> Packet {
        Packet {
            id,
            injected_at,
            src,
            dst,
            intermediate: None,
            flags: 0,
            ring_exits_left: self.ring_exits,
            local_hops: 0,
            global_hops: 0,
            ring_hops: 0,
            wait: 0,
            cur_group: GroupId::new(src.0 / self.nodes_per_group),
        }
    }
}

impl Stow for Queued {
    type Ctx = Fresh;
    #[inline]
    fn stow(pkt: Packet) -> Self {
        Self {
            id: words(pkt.id),
            injected_at: words(pkt.injected_at),
            dst: pkt.dst,
        }
    }
    #[inline]
    fn unstow(self, ctx: Fresh, slot: usize) -> Packet {
        let (id, injected_at) = (unwords(self.id), unwords(self.injected_at));
        ctx.packet(id, injected_at, NodeId::from(slot), self.dst)
    }
}

/// A pool entry and the index of the next one in its chain: a queued
/// packet behind its FIFO's head, or a block of the timing wheel's
/// events ([`crate::wheel`]).
#[derive(Clone, Copy)]
pub(crate) struct Tail<T> {
    pub item: T,
    pub next: u32,
}

// A burst parks every packet it generates behind a source-queue head:
// 24 bytes a packet (20 of `Queued`, 4 of link, no padding) and a pool
// chunk of 24 KB, against 56 whole.
const _: () = assert!(size_of::<Tail<Queued>>() <= 24);

/// Entries in the order they were first needed, addressed by a `u32` that
/// stays good for the pool's life: it grows a `CHUNK` at a time and an
/// entry never moves. Source queues are unbounded past saturation, and
/// one doubling `Vec` would hold the old and the new copy at once on
/// every growth — which is what a run's peak memory then records.
pub(crate) struct Pool<T, const CHUNK: usize> {
    chunks: Vec<Vec<Tail<T>>>,
}

impl<T, const CHUNK: usize> Pool<T, CHUNK> {
    /// A pool of no entries; it allocates nothing until the first push.
    pub fn new() -> Self {
        Self { chunks: Vec::new() }
    }

    /// Entries ever pushed.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Store `tail` in a new entry and return its index.
    pub fn push(&mut self, tail: Tail<T>) -> usize {
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            // Amortised: one allocation per CHUNK tails, at the pool's peak only.
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let last = self.chunks.len() - 1;
        self.chunks[last].push(tail);
        last * CHUNK + self.chunks[last].len() - 1
    }
}

impl<T, const CHUNK: usize> std::ops::Index<u32> for Pool<T, CHUNK> {
    type Output = Tail<T>;
    #[inline]
    fn index(&self, n: u32) -> &Tail<T> {
        &self.chunks[n as usize / CHUNK][n as usize % CHUNK]
    }
}

impl<T, const CHUNK: usize> std::ops::IndexMut<u32> for Pool<T, CHUNK> {
    #[inline]
    fn index_mut(&mut self, n: u32) -> &mut Tail<T> {
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
/// A tail is pooled as a `T` ([`Stow`]) and expanded as it becomes the
/// head.
pub(crate) struct Fifos<T: Stow = Packet, const CHUNK: usize = 1024> {
    size: u32,
    ctx: T::Ctx,
    /// Packets queued per slot.
    pub queued: Vec<u32>,
    /// The head packet of each slot, where `queued` is nonzero.
    pub heads: Vec<Packet>,
    /// First and last pool entry of each slot's tail chain; `first` is
    /// `NIL` for a chain of none, `last` is then stale.
    first: Vec<u32>,
    last: Vec<u32>,
    pool: Pool<T, CHUNK>,
    free: u32,
}

impl<T: Stow, const CHUNK: usize> Fifos<T, CHUNK> {
    /// `slots` empty FIFOs of `size`-phit packets, whose tails unstow
    /// with `ctx`.
    pub fn new(slots: usize, size: u32, ctx: T::Ctx) -> Self {
        Self {
            size,
            ctx,
            queued: vec![0; slots],
            heads: vec![Packet::default(); slots],
            first: vec![NIL; slots],
            last: vec![NIL; slots],
            pool: Pool::new(),
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
        let tail = Tail {
            item: T::stow(pkt),
            next: NIL,
        };
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
            // One pool lookup serves the read and the relink.
            let tail = &mut self.pool[n];
            let (next, stowed) = (tail.next, tail.item);
            tail.next = self.free;
            self.free = n;
            self.first[slot] = next;
            self.heads[slot] = stowed.unstow(self.ctx, slot);
        }
        pkt
    }

    /// Whether `pkt`, queued behind the head of `slot`, would come back
    /// unchanged when it reached the head.
    pub fn keeps(&self, slot: usize, pkt: Packet) -> bool {
        T::stow(pkt).unstow(self.ctx, slot) == pkt
    }

    /// The packets queued in `slot`, head first.
    pub fn iter(&self, slot: usize) -> impl Iterator<Item = Packet> + '_ {
        let head = (self.queued[slot] != 0).then(|| self.heads[slot]);
        let mut n = self.first[slot];
        head.into_iter().chain(std::iter::from_fn(move || {
            let tail = (n != NIL).then(|| &self.pool[n])?;
            n = tail.next;
            Some(tail.item.unstow(self.ctx, slot))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    const FRESH: Fresh = Fresh {
        nodes_per_group: 2,
        ring_exits: 4,
    };

    /// A packet `T` keeps at `slot`: for [`Queued`] a fresh one of
    /// `slot`'s node, for [`Packet`] any.
    fn pkt<T: Stow>(ctx: T::Ctx, slot: usize, id: u64) -> Packet {
        let made = Packet {
            id,
            injected_at: id / 2,
            dst: NodeId::new(id as u32),
            ..Packet::default()
        };
        T::stow(made).unstow(ctx, slot)
    }

    #[test]
    #[should_panic(expected = "VC overflow")]
    fn overflow_panics() {
        let mut f = Fifos::<Packet, 4>::new(1, 8, ());
        f.push(0, pkt::<Packet>((), 0, 1), 8);
        f.push(0, pkt::<Packet>((), 0, 2), 8);
    }

    #[test]
    #[should_panic(expected = "pop from empty VC")]
    fn empty_pop_panics() {
        Fifos::<Packet, 4>::new(1, 8, ()).pop(0);
    }

    /// Against one `VecDeque` per slot: the same packets in the same
    /// order, the head by value, the occupancy — with pushes past
    /// the capacity going through the overflow seam, pool entries
    /// recycled across slots, and a pool chunk of four tails so that
    /// chains and the free list cross chunk boundaries (two pushes
    /// for every pop: the queues grow well past one chunk).
    fn agrees_with_a_deque<T: Stow>(ctx: T::Ctx, ops: Vec<(usize, u8)>) -> Result<(), String> {
        const CAP: u32 = 24; // three packets
        let mut fifos = Fifos::<T, 4>::new(4, 8, ctx);
        let mut reference = vec![VecDeque::new(); 4];
        let mut peak_tails = 0;
        for (id, (slot, push)) in ops.into_iter().enumerate() {
            let p = pkt::<T>(ctx, slot, id as u64);
            if push != 0 {
                prop_assert_eq!(fifos.fits(slot, CAP), reference[slot].len() < 3);
                if fifos.fits(slot, CAP) {
                    fifos.push(slot, p, CAP);
                } else {
                    fifos.push_overflowing(slot, p);
                }
                reference[slot].push_back(p);
            } else if let Some(want) = reference[slot].pop_front() {
                prop_assert_eq!(fifos.pop(slot), want);
            }
            let tails = reference.iter().map(|q| q.len().saturating_sub(1)).sum();
            peak_tails = peak_tails.max(tails);
            for (s, q) in reference.iter().enumerate() {
                prop_assert_eq!(fifos.queued[s] as usize, q.len());
                prop_assert_eq!(fifos.occupancy(s) as usize, 8 * q.len());
                if let Some(&head) = q.front() {
                    prop_assert_eq!(fifos.heads[s], head);
                }
                let got: Vec<Packet> = fifos.iter(s).collect();
                prop_assert_eq!(got, q.iter().copied().collect::<Vec<_>>());
            }
        }
        prop_assert_eq!(
            fifos.pool.len(),
            peak_tails,
            "the pool recycles its entries"
        );
        prop_assert_eq!(fifos.pool.chunks.len(), peak_tails.div_ceil(4));
        Ok(())
    }

    proptest! {
        #[test]
        fn vc_buffers_agree_with_a_deque_reference(
            ops in proptest::collection::vec((0usize..4, 0u8..3), 1..400),
        ) {
            agrees_with_a_deque::<Packet>((), ops)?;
        }

        #[test]
        fn source_queues_agree_with_a_deque_reference(
            ops in proptest::collection::vec((0usize..4, 0u8..3), 1..400),
        ) {
            agrees_with_a_deque::<Queued>(FRESH, ops)?;
        }
    }
}
