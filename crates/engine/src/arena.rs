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
//!
//! The nodes' source queues ([`SrcQueues`]) are here too, their heads
//! by value like a VC's, the fresh packets behind them as varints.

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
    /// Per input slot: least-recently-served stamp of the input arbiter
    /// (the cycle after the last grant; 0 = never), 32-bit under
    /// [`crate::LAST_CYCLE`].
    pub vc_served_at: Vec<u32>,
    /// The input VC FIFOs, per slot.
    pub fifos: Fifos,
    /// Per output port: the link is busy until this cycle (exclusive).
    pub out_busy: Vec<u64>,
    /// Per lane: available downstream space, in phits.
    pub credits: Vec<u32>,
    /// `[router × n_out × n_in]`: least-recently-served stamp of each
    /// input at each output's arbiter, as `vc_served_at`.
    pub in_served_at: Vec<u32>,
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
pub(crate) const NIL: u32 = u32::MAX;

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
    pub fn packet(self, id: u64, injected_at: u32, src: NodeId, dst: NodeId) -> Packet {
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

/// A pool entry and the index of the next one in its chain: a VC
/// buffer's packet behind its head, a block of a source queue's tails,
/// or a block of the timing wheel's events ([`crate::wheel`]).
#[derive(Clone, Copy)]
pub(crate) struct Tail<T> {
    pub item: T,
    pub next: u32,
}

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
/// One FIFO of whole packets per input VC (virtual cut-through moves
/// and accounts whole packets), every packet `size` phits.
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
    pool: Pool<Packet, CHUNK>,
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
            item: pkt,
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
            let (next, item) = (tail.next, tail.item);
            tail.next = self.free;
            self.free = n;
            self.first[slot] = next;
            self.heads[slot] = item;
        }
        pkt
    }

    /// The packets queued in `slot`, head first.
    pub fn iter(&self, slot: usize) -> impl Iterator<Item = Packet> + '_ {
        let head = (self.queued[slot] != 0).then(|| self.heads[slot]);
        let mut n = self.first[slot];
        head.into_iter().chain(std::iter::from_fn(move || {
            let tail = (n != NIL).then(|| &self.pool[n])?;
            n = tail.next;
            Some(tail.item)
        }))
    }
}

/// Payload bytes of a source-queue block; the other four are its link.
const PAYLOAD: usize = 28;
/// The longest encoded tail: a ten-byte id delta, a five-byte cycle
/// delta and a five-byte destination. It fits in a block, so a tail
/// spans at most two.
const MAX_TAIL: usize = 20;
/// Two blocks' payloads side by side: a tail is encoded and decoded
/// there, with whole-payload copies in and out, wherever it crosses a
/// block end.
type Window = [u8; 2 * PAYLOAD];

// A burst parks every packet it generates behind a source-queue head,
// about five bytes each in blocks of 32 with no padding: a 256-block
// pool chunk is 8 KB.
const _: () = assert!(size_of::<Tail<[u8; PAYLOAD]>>() == 32);

/// The most blocks a [`pos`] can address.
const MAX_BLOCKS: usize = 1 << 27;

/// `d` with its sign in the low bit, so that a small delta of either
/// sign is a short varint.
#[inline]
fn zigzag(d: u64) -> u64 {
    // Shifted as an i64, the sign bit fills the word.
    let d = d as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// The inverse of [`zigzag`].
#[inline]
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Write `v` into `w` at `at` as an LEB128 varint; the index past it.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "each byte takes the low seven bits"
)]
fn put_var(w: &mut Window, mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        w[at] = v as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    w[at] = v as u8;
    at + 1
}

/// The varint [`put_var`] wrote at `*at`; `*at` moves past it.
#[inline]
fn get_var(w: &Window, at: &mut usize) -> u64 {
    let (mut v, mut shift) = (0, 0);
    loop {
        let b = w[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// A byte position in a source queue's block chain, `block << 5 |
/// offset`, as its block and offset; the offset is at most
/// [`PAYLOAD`], a full block.
#[inline]
fn pos(p: u32) -> (u32, usize) {
    (p >> 5, p as usize & 31)
}

/// Where one node's tails are, and what the deltas at either end are
/// taken against: the queue's own record, never the head that
/// `on_inject` may edit.
#[derive(Clone, Copy, Default)]
struct Ends {
    /// Id of the packet last decoded into the head (or pushed as the
    /// head of an empty queue), and of the packet last pushed.
    front_id: u64,
    back_id: u64,
    /// Their cycles.
    front_at: u32,
    back_at: u32,
    /// The [`pos`] of the next tail to decode, and of the first byte
    /// not yet written.
    read: u32,
    write: u32,
}

/// Every node's unbounded source queue (latency includes the time a
/// packet waits here, §V).
///
/// The head is held by value, where `on_inject` may edit it. Every
/// packet behind it is as [`crate::Network::generate`] made it, so it
/// is stored as three LEB128 varints — its id and its cycle as
/// zigzagged deltas from the packet pushed before it, then its
/// destination — about five bytes, in a chain of 32-byte blocks per
/// node. The blocks come from one pool that grows `CHUNK` at a time and
/// never moves, and a drained block goes onto a free list that the next
/// new block is taken from.
pub(crate) struct SrcQueues<const CHUNK: usize = 256> {
    fresh: Fresh,
    /// Packets queued per node.
    queued: Vec<u32>,
    /// The head packet of each node, where `queued` is nonzero.
    heads: Vec<Packet>,
    ends: Vec<Ends>,
    pool: Pool<[u8; PAYLOAD], CHUNK>,
    free: u32,
}

impl<const CHUNK: usize> SrcQueues<CHUNK> {
    /// `nodes` empty queues, whose tails expand as `fresh` packets.
    pub fn new(nodes: usize, fresh: Fresh) -> Self {
        Self {
            fresh,
            queued: vec![0; nodes],
            heads: vec![Packet::default(); nodes],
            ends: vec![Ends::default(); nodes],
            pool: Pool::new(),
            free: NIL,
        }
    }

    /// Packets queued per node.
    #[inline]
    pub fn queued(&self) -> &[u32] {
        &self.queued
    }

    /// The head packet of `node`'s queue, which must not be empty, for
    /// `Policy::on_inject` to edit.
    #[inline]
    pub fn head_mut(&mut self, node: usize) -> &mut Packet {
        &mut self.heads[node]
    }

    /// Whether `pkt` may wait behind the head of `node`'s queue: it is a
    /// fresh packet of `node`, which its three stored fields give back.
    pub fn keeps(&self, node: usize, pkt: Packet) -> bool {
        self.fresh
            .packet(pkt.id, pkt.injected_at, NodeId::from(node), pkt.dst)
            == pkt
    }

    /// Append `pkt` to `node`'s queue: as it is, into an empty queue,
    /// else as a packet [`Self::keeps`] takes.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "an offset in a block is below 32"
    )]
    pub fn push(&mut self, node: usize, pkt: Packet) {
        self.queued[node] += 1;
        if self.queued[node] == 1 {
            self.heads[node] = pkt;
            let e = &mut self.ends[node];
            (e.front_id, e.front_at) = (pkt.id, pkt.injected_at);
            (e.back_id, e.back_at) = (pkt.id, pkt.injected_at);
            return;
        }
        debug_assert!(self.keeps(node, pkt), "a queued tail is a fresh packet");
        let e = &mut self.ends[node];
        let id = zigzag(pkt.id.wrapping_sub(e.back_id));
        let at = zigzag(u64::from(pkt.injected_at).wrapping_sub(e.back_at.into()));
        (e.back_id, e.back_at) = (pkt.id, pkt.injected_at);
        let mut write = e.write;
        if self.queued[node] == 2 {
            write = self.block() << 5;
            self.ends[node].read = write;
        }
        let (b, off) = pos(write);
        let mut w: Window = [0; 2 * PAYLOAD];
        w[..PAYLOAD].copy_from_slice(&self.pool[b].item);
        let mut n = put_var(&mut w, off, id);
        n = put_var(&mut w, n, at);
        n = put_var(&mut w, n, pkt.dst.0.into());
        self.pool[b].item.copy_from_slice(&w[..PAYLOAD]);
        // At most one split: a tail fits in a block.
        self.ends[node].write = if n <= PAYLOAD {
            b << 5 | n as u32
        } else {
            let next = self.block();
            self.pool[b].next = next;
            self.pool[next].item.copy_from_slice(&w[PAYLOAD..]);
            next << 5 | (n - PAYLOAD) as u32
        };
    }

    /// Remove and return the head packet of `node`'s queue; the next
    /// one, if any, becomes the head.
    #[inline]
    pub fn pop(&mut self, node: usize) -> Packet {
        // Callers check the queue first: an empty pop is a broken inject.
        assert!(self.queued[node] != 0, "pop from empty source queue");
        self.queued[node] -= 1;
        let pkt = self.heads[node];
        if self.queued[node] != 0 {
            let mut e = self.ends[node];
            let mut b = pos(e.read).0;
            self.heads[node] = self.decode(node, &mut e);
            // Free the blocks the read left, and with the last tail the
            // one it ends in.
            while b != pos(e.read).0 {
                let next = self.pool[b].next;
                self.release(b);
                b = next;
            }
            if self.queued[node] == 1 {
                self.release(b);
            }
            self.ends[node] = e;
        }
        pkt
    }

    /// The packets queued at `node`, head first.
    pub fn iter(&self, node: usize) -> impl Iterator<Item = Packet> + '_ {
        let mut e = self.ends[node];
        let n = self.queued[node] as usize;
        let head = (n != 0).then(|| self.heads[node]);
        head.into_iter()
            .chain((1..n).map(move |_| self.decode(node, &mut e)))
    }

    /// The tail at `e.read` of `node`'s chain, its deltas taken from
    /// `e`'s front, which it then becomes; `e.read` moves past it.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a destination is a node id, a cycle delta lands back in u32, an offset in a block is below 32"
    )]
    fn decode(&self, node: usize, e: &mut Ends) -> Packet {
        let (mut b, mut off) = pos(e.read);
        if off == PAYLOAD {
            (b, off) = (self.pool[b].next, 0);
        }
        // The block, and the next one where the tail may cross into it
        // (the last block of a chain has none, and no tail crosses it).
        let block = &self.pool[b];
        let mut w: Window = [0; 2 * PAYLOAD];
        w[..PAYLOAD].copy_from_slice(&block.item);
        if off + MAX_TAIL > PAYLOAD && block.next != NIL {
            w[PAYLOAD..].copy_from_slice(&self.pool[block.next].item);
        }
        let mut n = off;
        e.front_id = e.front_id.wrapping_add(unzigzag(get_var(&w, &mut n)));
        let at = u64::from(e.front_at).wrapping_add(unzigzag(get_var(&w, &mut n)));
        e.front_at = at as u32;
        let dst = NodeId::new(get_var(&w, &mut n) as u32);
        e.read = if n <= PAYLOAD {
            b << 5 | n as u32
        } else {
            block.next << 5 | (n - PAYLOAD) as u32
        };
        self.fresh
            .packet(e.front_id, e.front_at, NodeId::from(node), dst)
    }

    /// A block to end a chain with: the free list's first, or a new one.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "checked against MAX_BLOCKS"
    )]
    fn block(&mut self) -> u32 {
        if self.free == NIL {
            let n = self.pool.push(Tail {
                item: [0; PAYLOAD],
                next: NIL,
            });
            assert!(n < MAX_BLOCKS, "source-queue tails past 4 GB");
            n as u32
        } else {
            let n = self.free;
            self.free = std::mem::replace(&mut self.pool[n].next, NIL);
            n
        }
    }

    /// Put block `b` on the free list.
    #[inline]
    fn release(&mut self, b: u32) {
        self.pool[b].next = self.free;
        self.free = b;
    }

    /// Bytes the pool's chunks hold, blocks in use, free and not yet
    /// taken.
    #[cfg(test)]
    pub fn pool_bytes(&self) -> usize {
        self.pool.chunks.len() * CHUNK * size_of::<Tail<[u8; PAYLOAD]>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FLAG_AUX;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    const FRESH: Fresh = Fresh {
        nodes_per_group: 2,
        ring_exits: 4,
    };

    fn pkt(id: u64) -> Packet {
        Packet {
            id,
            injected_at: (id / 2) as u32,
            dst: NodeId::new(id as u32),
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

    #[test]
    #[should_panic(expected = "pop from empty source queue")]
    fn empty_source_queue_pop_panics() {
        SrcQueues::<4>::new(1, FRESH).pop(0);
    }

    /// The zigzag edges, and ids a whole varint apart, through a queue:
    /// run in the dev profile, overflow checks would catch an
    /// arithmetic delta.
    #[test]
    fn zigzag_edges_round_trip() {
        let min = i64::MIN as u64;
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(u64::MAX), 1, "a delta of -1");
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(min), u64::MAX, "the ten-byte varint");
        assert_eq!(zigzag(i64::MAX as u64), u64::MAX - 1);
        for d in [0, 1, u64::MAX, min, min - 1, min + 1, 1 << 32] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        let mut q = SrcQueues::<4>::new(1, FRESH);
        let ids = [5, 5 + min, 4 + min, u64::MAX, 0, min, 0];
        let ats = [0, u32::MAX, 0, u32::MAX, 1, u32::MAX - 1, 0];
        let want: Vec<Packet> = ids
            .iter()
            .zip(ats)
            .map(|(&id, at)| FRESH.packet(id, at, NodeId::new(0), NodeId::new(u32::MAX)))
            .collect();
        for &p in &want {
            q.push(0, p);
        }
        assert_eq!(q.iter(0).collect::<Vec<_>>(), want);
        for &p in &want {
            assert_eq!(q.pop(0), p);
        }
    }

    proptest! {
        /// Against one `VecDeque` per slot: the same packets in the same
        /// order, the head by value, the occupancy — with pushes past
        /// the capacity going through the overflow seam, pool entries
        /// recycled across slots, and a pool chunk of four tails so that
        /// chains and the free list cross chunk boundaries (two pushes
        /// for every pop: the queues grow well past one chunk).
        #[test]
        fn vc_buffers_agree_with_a_deque_reference(
            ops in proptest::collection::vec((0usize..4, 0u8..3), 1..400),
        ) {
            const CAP: u32 = 24; // three packets
            let mut fifos = Fifos::<4>::new(4, 8);
            let mut reference = vec![VecDeque::new(); 4];
            let mut peak_tails = 0;
            for (id, (slot, push)) in ops.into_iter().enumerate() {
                let p = pkt(id as u64);
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
            prop_assert_eq!(fifos.pool.len(), peak_tails, "the pool recycles its entries");
            prop_assert_eq!(fifos.pool.chunks.len(), peak_tails.div_ceil(4));
        }

        /// Against one `VecDeque` per node: pushes of fresh packets with
        /// any `u64` id and `u32` cycle — near the previous packet's,
        /// below it, or anywhere, so deltas grow, shrink and wrap and
        /// tails of 3 to 20 bytes straddle block ends — pops, and edits
        /// of the head as `on_inject` may make them, which no later tail
        /// may read back. Heads, counts and `iter` agree after every
        /// op; on pool chunks of four blocks, the pool holds as many
        /// blocks as were ever live at once, and none when no queue has
        /// a tail.
        #[test]
        fn source_queues_agree_with_a_deque_reference(
            ops in proptest::collection::vec(
                (0usize..4, 0u8..6, any::<u64>(), any::<u32>()),
                1..400,
            ),
        ) {
            let mut q = SrcQueues::<4>::new(4, FRESH);
            let mut reference = vec![VecDeque::new(); 4];
            let mut last = [(0u64, 0u32); 4];
            let mut peak_live = 0;
            for (node, op, raw, dst) in ops {
                match op {
                    0..=2 => {
                        let (id, at) = last[node];
                        let (id, at) = match op {
                            0 => (id.wrapping_add(raw % 300), at.wrapping_add(raw as u32 % 3)),
                            1 => (id.wrapping_sub(raw % 300), at.wrapping_sub(raw as u32 % 3)),
                            _ => (raw, (raw >> 32) as u32),
                        };
                        last[node] = (id, at);
                        let p = FRESH.packet(id, at, NodeId::from(node), NodeId::new(dst >> (raw % 32)));
                        q.push(node, p);
                        reference[node].push_back(p);
                    }
                    3 | 4 => {
                        if let Some(want) = reference[node].pop_front() {
                            prop_assert_eq!(q.pop(node), want);
                        }
                    }
                    _ => {
                        if let Some(head) = reference[node].front_mut() {
                            for h in [head, q.head_mut(node)] {
                                h.id ^= raw;
                                h.injected_at ^= dst;
                                h.set(FLAG_AUX);
                            }
                        }
                    }
                }
                let mut free = 0;
                let mut n = q.free;
                while n != NIL {
                    free += 1;
                    n = q.pool[n].next;
                }
                let live = q.pool.len() - free;
                peak_live = peak_live.max(live);
                if reference.iter().all(|r| r.len() <= 1) {
                    prop_assert_eq!(live, 0, "a queue without tails holds no block");
                }
                for (s, r) in reference.iter().enumerate() {
                    prop_assert_eq!(q.queued()[s] as usize, r.len());
                    if let Some(&head) = r.front() {
                        prop_assert_eq!(q.heads[s], head);
                    }
                    prop_assert_eq!(q.iter(s).collect::<Vec<_>>(), r.iter().copied().collect::<Vec<_>>());
                }
            }
            prop_assert_eq!(q.pool.len(), peak_live, "the pool recycles its blocks");
            prop_assert_eq!(q.pool.chunks.len(), peak_live.div_ceil(4));
        }
    }
}
