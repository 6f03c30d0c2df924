//! The network-wide timing wheel: every packet and credit in flight on
//! a link, filed under the cycle it lands.
//!
//! Link latencies are a handful of small constants (10 and 100 cycles
//! in the paper's model), so one ring of `slots` per-cycle buckets —
//! the next power of two that leaves the largest latency two slots of
//! room — holds everything in flight, and `deliver` drains exactly the
//! bucket of the current cycle: a port with nothing landing costs
//! nothing. Events of one bucket are applied in submission order; they
//! commute, because at most one arrival lands per input port and one
//! credit per output port in any cycle (a link moves one packet per
//! `packet_size` cycles), which [`Wheel::file_arrival`] and
//! [`Wheel::file_credit`] debug-assert.
//!
//! A bucket is a chain of fixed-size blocks of events, taken from one
//! pool per event kind (an `arena::Pool`, whose entries never move) and
//! handed back whole, in O(1), as `deliver` drains it. Memory follows
//! what is in flight, plus at most one partly filled block per bucket;
//! a `Vec` per bucket kept the capacity of the busiest cycle it ever
//! held. The drain still walks contiguous memory, a block at a time.
//!
//! The wheel is *relocated* state, not new state: snapshots still carry
//! one time-ordered list per port ([`Wheel::backlog`] gathers them, the
//! decoder scatters them back), so the file format does not know the
//! wheel exists.

use crate::arena::{Pool, Tail, NIL};
use crate::config::{LAT_GLOBAL, LAT_LOCAL};
use crate::fabric::Fabric;
use crate::packet::Packet;

/// A packet in flight towards VC `vc` of input (`router`, `port`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Arrival {
    pub router: u32,
    pub port: u16,
    pub vc: u8,
    pub pkt: Packet,
}

/// `phits` credits in flight back to VC `vc` of output (`router`,
/// `port`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Credit {
    pub router: u32,
    pub port: u16,
    pub vc: u8,
    pub phits: u32,
}

/// Events per block.
const BLOCK: usize = 32;
/// Blocks per pool chunk: 57.6 KB of arrivals or 12.4 KB of credits,
/// below the allocator's `mmap` threshold (DESIGN.md §3).
const CHUNK: usize = 32;

/// One bucket's events of one kind: `len` of them in a chain of pool
/// blocks from `first` to `last`, every block full but the last, whose
/// `next` is stale.
#[derive(Clone, Copy)]
struct Chain {
    first: u32,
    last: u32,
    len: u32,
}

impl Chain {
    const EMPTY: Self = Self {
        first: NIL,
        last: NIL,
        len: 0,
    };
}

/// Every bucket's events of one kind, in blocks of `BLOCK` from one
/// pool that grows `CHUNK` blocks at a time. A drained bucket's blocks
/// go onto the free list, and filing takes from it before the pool
/// grows, so the pool holds the most blocks the buckets ever needed at
/// once.
struct Buckets<T, const BLOCK: usize, const CHUNK: usize> {
    chains: Vec<Chain>,
    pool: Pool<[T; BLOCK], CHUNK>,
    /// First block of the free list, chained through `next`.
    free: u32,
}

impl<T: Copy, const BLOCK: usize, const CHUNK: usize> Buckets<T, BLOCK, CHUNK> {
    fn new(buckets: usize) -> Self {
        Self {
            chains: vec![Chain::EMPTY; buckets],
            pool: Pool::new(),
            free: NIL,
        }
    }

    /// Append `e` to bucket `b`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the pool holds at most the events in flight, far below u32::MAX"
    )]
    fn push(&mut self, b: usize, e: T) {
        let chain = &mut self.chains[b];
        let k = chain.len as usize % BLOCK;
        if k == 0 {
            // No block yet, or the last one is full: take the free
            // list's first, or grow the pool (filled with `e`, which
            // the write below repeats).
            let n = if self.free == NIL {
                self.pool.push(Tail {
                    item: [e; BLOCK],
                    next: NIL,
                }) as u32
            } else {
                let n = self.free;
                self.free = self.pool[n].next;
                n
            };
            if chain.len == 0 {
                chain.first = n;
            } else {
                self.pool[chain.last].next = n;
            }
            chain.last = n;
        }
        self.pool[chain.last].item[k] = e;
        chain.len += 1;
    }

    /// Empty bucket `b`, handing its blocks to the free list in O(1),
    /// and return its old chain, which [`Self::iter`] reads until the
    /// next push.
    fn take(&mut self, b: usize) -> Chain {
        let chain = std::mem::replace(&mut self.chains[b], Chain::EMPTY);
        if chain.len != 0 {
            self.pool[chain.last].next = self.free;
            self.free = chain.first;
        }
        chain
    }

    /// The events of `chain`, in filing order, a block at a time.
    fn iter(&self, chain: Chain) -> impl Iterator<Item = &T> {
        let (mut n, mut left) = (chain.first, chain.len as usize);
        std::iter::from_fn(move || {
            (left != 0).then(|| {
                let block = &self.pool[n];
                let len = left.min(BLOCK);
                (n, left) = (block.next, left - len);
                &block.item[..len]
            })
        })
        .flatten()
    }

    /// The events of bucket `b`, in filing order.
    fn events(&self, b: usize) -> impl Iterator<Item = &T> {
        self.iter(self.chains[b])
    }
}

/// The timing wheel. See the module docs.
pub(crate) struct Wheel {
    arrivals: Buckets<Arrival, BLOCK, CHUNK>,
    credits: Buckets<Credit, BLOCK, CHUNK>,
    /// The next cycle [`Self::due`] will be asked for; everything
    /// filed lands in `due .. due + slots − 1`.
    due: u64,
    /// Largest link latency of the fabric (the restore-time horizon).
    max_latency: u64,
}

impl Wheel {
    /// An empty wheel whose next drained cycle is `now`.
    pub fn new(now: u64) -> Self {
        // Every link takes one of the two link latencies.
        Self::with_max_latency(LAT_LOCAL.max(LAT_GLOBAL), now)
    }

    #[expect(clippy::expect_used, reason = "a link latency fits usize")]
    fn with_max_latency(max_latency: u64, now: u64) -> Self {
        // Two slots of room past the largest latency: an event filed
        // during cycle `now` lands by `now + max_latency`, and one
        // restored at a cycle boundary may carry that stamp too.
        let slots = usize::try_from(max_latency + 2)
            .expect("link latency fits usize")
            .next_power_of_two();
        Self {
            arrivals: Buckets::new(slots),
            credits: Buckets::new(slots),
            due: now,
            max_latency,
        }
    }

    /// Largest link latency of the fabric: no event lands later than
    /// this many cycles after it was filed.
    pub fn max_latency(&self) -> u64 {
        self.max_latency
    }

    /// Buckets in the ring, a power of two.
    fn slots(&self) -> usize {
        self.arrivals.chains.len()
    }

    /// The bucket of cycle `at`.
    #[expect(clippy::cast_possible_truncation, reason = "masked to a slot index")]
    fn slot_of(&self, at: u64) -> usize {
        (at & (self.slots() as u64 - 1)) as usize
    }

    /// The bucket of cycle `at`, which must lie in the window.
    fn slot_to_file(&self, at: u64) -> usize {
        // An event outside the window would land a revolution late, silently.
        assert!(
            at >= self.due && at - self.due < self.slots() as u64 - 1,
            "event for cycle {at} is outside the wheel ({} slots, next drain {})",
            self.slots(),
            self.due
        );
        self.slot_of(at)
    }

    /// File a packet landing at cycle `at`.
    pub fn file_arrival(&mut self, at: u64, a: Arrival) {
        let slot = self.slot_to_file(at);
        debug_assert!(
            !self
                .arrivals
                .events(slot)
                .any(|e| (e.router, e.port) == (a.router, a.port)),
            "two arrivals at input ({}, {}) in cycle {at}",
            a.router,
            a.port
        );
        self.arrivals.push(slot, a);
    }

    /// File a credit landing at cycle `at`.
    pub fn file_credit(&mut self, at: u64, c: Credit) {
        let slot = self.slot_to_file(at);
        debug_assert!(
            !self
                .credits
                .events(slot)
                .any(|e| (e.router, e.port) == (c.router, c.port)),
            "two credits at output ({}, {}) in cycle {at}",
            c.router,
            c.port
        );
        self.credits.push(slot, c);
    }

    /// Drain the bucket of cycle `now` — which must be the cycle after
    /// the previous call's: its arrivals and its credits, each in
    /// submission order. The bucket is empty, and its blocks are free,
    /// as soon as this returns; the caller reads them once.
    pub fn due(
        &mut self,
        now: u64,
    ) -> (
        impl Iterator<Item = Arrival> + '_,
        impl Iterator<Item = Credit> + '_,
    ) {
        debug_assert_eq!(
            now, self.due,
            "the wheel is drained once per cycle, in order"
        );
        self.due = now + 1;
        let slot = self.slot_of(now);
        let (arrivals, credits) = (self.arrivals.take(slot), self.credits.take(slot));
        (
            self.arrivals.iter(arrivals).copied(),
            self.credits.iter(credits).copied(),
        )
    }

    /// Pending buckets with their landing cycles, in time order.
    fn pending(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        (0..self.slots() as u64).map(move |ahead| {
            let at = self.due.wrapping_add(ahead);
            (at, self.slot_of(at))
        })
    }

    /// Packets in flight with their landing cycles, in time order.
    pub fn arrivals(&self) -> impl Iterator<Item = (u64, &Arrival)> {
        self.pending()
            .flat_map(|(at, slot)| self.arrivals.events(slot).map(move |a| (at, a)))
    }

    /// Credits in flight with their landing cycles, in time order.
    pub fn credits(&self) -> impl Iterator<Item = (u64, &Credit)> {
        self.pending()
            .flat_map(|(at, slot)| self.credits.events(slot).map(move |c| (at, c)))
    }

    /// Gather the wheel back into one time-ordered list per port of
    /// `fab` — the shape snapshots store and the conservation checks
    /// reason in. Linear in ports plus events; the events stay where
    /// they are and are borrowed.
    pub fn backlog(&self, fab: &Fabric) -> Backlog<'_> {
        let routers = fab.topo().num_routers();
        let (n_in, n_out) = (fab.n_in(), fab.n_out());
        Backlog {
            arrivals: Pipelines::gather(routers, n_in, || self.arrivals(), |a| (a.router, a.port)),
            credits: Pipelines::gather(routers, n_out, || self.credits(), |c| (c.router, c.port)),
        }
    }
}

/// The wheel's contents as per-port link pipelines (see
/// [`Wheel::backlog`]): each port's events with their landing cycles,
/// in time order.
pub(crate) struct Backlog<'w> {
    arrivals: Pipelines<'w, Arrival>,
    credits: Pipelines<'w, Credit>,
}

impl<'w> Backlog<'w> {
    /// The packets in flight towards input (`router`, `port`).
    pub fn arrivals(&self, router: usize, port: usize) -> &[(u64, &'w Arrival)] {
        self.arrivals.at(router, port)
    }

    /// The credits in flight back to output (`router`, `port`).
    pub fn credits(&self, router: usize, port: usize) -> &[(u64, &'w Credit)] {
        self.credits.at(router, port)
    }
}

/// Events grouped by the fabric's port offset (`router · ports + port`):
/// those at offset `k` are `events[from[k]..from[k + 1]]`.
struct Pipelines<'w, T> {
    events: Vec<(u64, &'w T)>,
    from: Vec<usize>,
    /// Ports per router.
    ports: usize,
}

impl<'w, T> Pipelines<'w, T> {
    /// Counting sort, by port offset, of `events()` — which yields the
    /// same sequence, in time order, each time it is called; `port_of`
    /// names an event's (router, port). It is stable, so each port's
    /// events stay in time order.
    /// Snapshot and audit only: never per cycle under `NoHooks`.
    fn gather<I: Iterator<Item = (u64, &'w T)>>(
        routers: usize,
        ports: usize,
        events: impl Fn() -> I,
        port_of: impl Fn(&T) -> (u32, u16),
    ) -> Self {
        let offset_of = |e: &T| {
            let (router, port) = port_of(e);
            router as usize * ports + usize::from(port)
        };
        let offsets = routers * ports;
        let mut from = vec![0; offsets + 1];
        for (_, e) in events() {
            from[offset_of(e) + 1] += 1;
        }
        for k in 0..offsets {
            from[k + 1] += from[k];
        }
        let mut sorted = Vec::new();
        if let Some(first) = events().next() {
            sorted.resize(from[offsets], first);
            let mut next = from.clone();
            for (at, e) in events() {
                let k = offset_of(e);
                sorted[next[k]] = (at, e);
                next[k] += 1;
            }
        }
        Self {
            events: sorted,
            from,
            ports,
        }
    }

    fn at(&self, router: usize, port: usize) -> &[(u64, &'w T)] {
        let k = router * self.ports + port;
        &self.events[self.from[k]..self.from[k + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arrival(id: u64) -> Arrival {
        let pkt = Packet {
            id,
            ..Packet::default()
        };
        Arrival {
            router: id as u32,
            port: 0,
            vc: 0,
            pkt,
        }
    }

    #[test]
    fn slot_count_is_derived_from_the_link_latencies() {
        let w = Wheel::new(0);
        assert_eq!(w.max_latency(), 100);
        assert_eq!(w.slots(), 128);
        assert_eq!(Wheel::with_max_latency(10, 0).slots(), 16);
        assert_eq!(Wheel::with_max_latency(126, 0).slots(), 128);
        assert_eq!(Wheel::with_max_latency(127, 0).slots(), 256);
    }

    /// Every offset `now+1 … now+slots−1`, with 10- and 100-cycle links
    /// mixed in, lands on exactly its cycle — over more than three
    /// revolutions, starting from a cycle that is not a multiple of the
    /// slot count.
    #[test]
    fn events_land_on_exactly_their_cycle() {
        let start = 1_000_003u64;
        let mut w = Wheel::with_max_latency(100, start);
        let slots = w.slots() as u64;
        assert_eq!(slots, 128);
        let mut expected: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        let mut next_id = 0u64;
        for now in start..start + 4 * slots {
            let got: Vec<u64> = w.due(now).0.map(|a| a.pkt.id).collect();
            assert_eq!(
                got,
                expected.remove(&now).unwrap_or_default(),
                "cycle {now}"
            );
            if now >= start + 3 * slots {
                continue; // let the tail drain
            }
            // One offset from the full range per cycle, plus the two
            // real link latencies every cycle.
            let sweep = 1 + (now - start) % (slots - 1);
            for lat in [sweep, 10, 100] {
                w.file_arrival(now + lat, arrival(next_id));
                expected.entry(now + lat).or_default().push(next_id);
                next_id += 1;
            }
        }
        assert!(expected.is_empty(), "events never delivered: {expected:?}");
        assert_eq!(w.arrivals().count(), 0);
    }

    #[test]
    fn pending_events_are_listed_in_time_order() {
        let fab = Fabric::new(crate::SimConfig::paper(2));
        let mut w = Wheel::new(500);
        let credit = |port: u16, vc: u8| Credit {
            router: 7,
            port,
            vc,
            phits: 8,
        };
        for (i, lat) in [100u64, 3, 57, 10].into_iter().enumerate() {
            w.file_credit(500 + lat, credit(2, i as u8));
        }
        // Port 4 shares two of port 2's slots; port 3, between them,
        // stays empty, as does everything before, after and on the
        // arrival side.
        for (i, lat) in [57u64, 3, 99].into_iter().enumerate() {
            w.file_credit(500 + lat, credit(4, 10 + i as u8));
        }
        let stamps: Vec<u64> = w.credits().map(|(at, _)| at).collect();
        assert_eq!(stamps, vec![503, 503, 510, 557, 557, 599, 600]);
        let b = w.backlog(&fab);
        let listed = |port| -> Vec<(u64, u8)> {
            let events = b.credits(7, port).iter();
            events.map(|&(at, c)| (at, c.vc)).collect()
        };
        assert_eq!(listed(2), vec![(503, 1), (510, 3), (557, 2), (600, 0)]);
        assert_eq!(listed(4), vec![(503, 11), (557, 10), (599, 12)]);
        assert!(listed(3).is_empty() && listed(1).is_empty() && listed(5).is_empty());
        let (last_router, last_port) = (fab.topo().num_routers() - 1, fab.n_out() - 1);
        assert!(b.credits(0, 0).is_empty() && b.credits(last_router, last_port).is_empty());
        assert!(b.arrivals(7, 2).is_empty() && b.arrivals(last_router, fab.n_in() - 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside the wheel")]
    fn filing_a_full_revolution_ahead_panics() {
        let mut w = Wheel::with_max_latency(100, 0);
        assert!(w.due(0).0.next().is_none());
        w.file_arrival(128, arrival(1)); // now + slots
    }

    #[test]
    #[should_panic(expected = "outside the wheel")]
    fn filing_into_the_past_panics() {
        let mut w = Wheel::with_max_latency(100, 0);
        assert!(w.due(0).0.next().is_none());
        w.file_arrival(0, arrival(1));
    }

    /// The block chains against one `Vec` per bucket, driven as the
    /// wheel drives them over eight buckets: an op either drains the
    /// bucket of the next cycle or files one event up to six cycles past
    /// it, and there are two files for every drain, so a bucket's chain
    /// runs to several blocks and a run to many revolutions. With blocks
    /// of `BLOCK` events and chunks of `CHUNK` blocks, chains, partial
    /// blocks and the free list cross block and chunk boundaries. The
    /// pool holds exactly the most blocks the buckets needed at once:
    /// never more than the peak in flight fills, plus one per bucket.
    fn agrees_with_per_bucket_vecs<const BLOCK: usize, const CHUNK: usize>(
        ops: Vec<(u8, u64)>,
    ) -> Result<(), String> {
        const SLOTS: usize = 8;
        let mut buckets = Buckets::<u32, BLOCK, CHUNK>::new(SLOTS);
        let mut reference = vec![Vec::new(); SLOTS];
        let (mut due, mut id) = (0u64, 0u32);
        let (mut peak_blocks, mut peak_in_flight) = (0, 0);
        for (op, ahead) in ops {
            if op == 0 {
                let slot = due as usize % SLOTS;
                let chain = buckets.take(slot);
                let got: Vec<u32> = buckets.iter(chain).copied().collect();
                prop_assert_eq!(got, std::mem::take(&mut reference[slot]), "cycle {}", due);
                due += 1;
            } else {
                let slot = (due + ahead) as usize % SLOTS;
                buckets.push(slot, id);
                reference[slot].push(id);
                id += 1;
            }
            for (slot, want) in reference.iter().enumerate() {
                let got: Vec<u32> = buckets.events(slot).copied().collect();
                prop_assert_eq!(&got, want, "bucket {}", slot);
            }
            let in_flight: usize = reference.iter().map(Vec::len).sum();
            let blocks: usize = reference.iter().map(|b| b.len().div_ceil(BLOCK)).sum();
            peak_in_flight = peak_in_flight.max(in_flight);
            peak_blocks = peak_blocks.max(blocks);
        }
        prop_assert_eq!(
            buckets.pool.len(),
            peak_blocks,
            "the pool recycles its blocks"
        );
        prop_assert!(peak_blocks <= peak_in_flight.div_ceil(BLOCK) + SLOTS);
        Ok(())
    }

    proptest! {
        #[test]
        fn one_event_blocks_agree_with_per_bucket_vecs(
            ops in proptest::collection::vec((0u8..3, 0u64..7), 1..400),
        ) {
            agrees_with_per_bucket_vecs::<1, 3>(ops)?;
        }

        #[test]
        fn three_event_blocks_agree_with_per_bucket_vecs(
            ops in proptest::collection::vec((0u8..3, 0u64..7), 1..400),
        ) {
            agrees_with_per_bucket_vecs::<3, 2>(ops)?;
        }

        #[test]
        fn four_event_blocks_agree_with_per_bucket_vecs(
            ops in proptest::collection::vec((0u8..3, 0u64..7), 1..400),
        ) {
            agrees_with_per_bucket_vecs::<4, 4>(ops)?;
        }
    }
}
