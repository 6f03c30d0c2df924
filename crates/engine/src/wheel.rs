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
//! The wheel is *relocated* state, not new state: snapshots still carry
//! one time-ordered list per port ([`Wheel::backlog`] gathers them, the
//! decoder scatters them back), so the file format does not know the
//! wheel exists.

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

/// Everything landing in one cycle, in submission order.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    pub arrivals: Vec<Arrival>,
    pub credits: Vec<Credit>,
}

/// The timing wheel. See the module docs.
#[derive(Debug)]
pub(crate) struct Wheel {
    slots: Vec<Slot>,
    /// The next cycle [`Self::due`] will be asked for; everything
    /// filed lands in `due .. due + slots − 1`.
    due: u64,
    /// Largest link latency of the fabric (the restore-time horizon).
    max_latency: u64,
}

impl Wheel {
    /// An empty wheel for `fab`'s links whose next drained cycle is
    /// `now`.
    pub fn new(fab: &Fabric, now: u64) -> Self {
        // Every link takes one of the two configured latencies, both
        // validated to be at least one cycle.
        Self::with_max_latency(fab.cfg().lat_local.max(fab.cfg().lat_global), now)
    }

    #[expect(clippy::expect_used, reason = "a validated latency fits usize")]
    fn with_max_latency(max_latency: u64, now: u64) -> Self {
        // Two slots of room past the largest latency: an event filed
        // during cycle `now` lands by `now + max_latency`, and one
        // restored at a cycle boundary may carry that stamp too.
        let slots = usize::try_from(max_latency + 2)
            .expect("link latency fits usize")
            .next_power_of_two();
        Self {
            slots: std::iter::repeat_with(Slot::default).take(slots).collect(),
            due: now,
            max_latency,
        }
    }

    /// Largest link latency of the fabric: no event lands later than
    /// this many cycles after it was filed.
    pub fn max_latency(&self) -> u64 {
        self.max_latency
    }

    #[expect(clippy::cast_possible_truncation, reason = "masked to a slot index")]
    fn slot_mut(&mut self, at: u64) -> &mut Slot {
        // An event outside the window would land a revolution late, silently.
        assert!(
            at >= self.due && at - self.due < self.slots.len() as u64 - 1,
            "event for cycle {at} is outside the wheel ({} slots, next drain {})",
            self.slots.len(),
            self.due
        );
        let mask = self.slots.len() as u64 - 1;
        &mut self.slots[(at & mask) as usize]
    }

    /// File a packet landing at cycle `at`.
    pub fn file_arrival(&mut self, at: u64, a: Arrival) {
        let slot = self.slot_mut(at);
        debug_assert!(
            !slot
                .arrivals
                .iter()
                .any(|e| (e.router, e.port) == (a.router, a.port)),
            "two arrivals at input ({}, {}) in cycle {at}",
            a.router,
            a.port
        );
        slot.arrivals.push(a);
    }

    /// File a credit landing at cycle `at`.
    pub fn file_credit(&mut self, at: u64, c: Credit) {
        let slot = self.slot_mut(at);
        debug_assert!(
            !slot
                .credits
                .iter()
                .any(|e| (e.router, e.port) == (c.router, c.port)),
            "two credits at output ({}, {}) in cycle {at}",
            c.router,
            c.port
        );
        slot.credits.push(c);
    }

    /// The bucket of cycle `now` — which must be the cycle after the
    /// previous call's. The caller drains both of its lists.
    #[expect(clippy::cast_possible_truncation, reason = "masked to a slot index")]
    pub fn due(&mut self, now: u64) -> &mut Slot {
        debug_assert_eq!(
            now, self.due,
            "the wheel is drained once per cycle, in order"
        );
        self.due = now + 1;
        let mask = self.slots.len() as u64 - 1;
        &mut self.slots[(now & mask) as usize]
    }

    /// Pending slots with their landing cycles, in time order.
    #[expect(clippy::cast_possible_truncation, reason = "masked to a slot index")]
    fn pending(&self) -> impl Iterator<Item = (u64, &Slot)> {
        let mask = self.slots.len() as u64 - 1;
        (0..self.slots.len() as u64).map(move |ahead| {
            let at = self.due.wrapping_add(ahead);
            (at, &self.slots[(at & mask) as usize])
        })
    }

    /// Packets in flight with their landing cycles, in time order.
    pub fn arrivals(&self) -> impl Iterator<Item = (u64, &Arrival)> {
        self.pending()
            .flat_map(|(at, slot)| slot.arrivals.iter().map(move |a| (at, a)))
    }

    /// Credits in flight with their landing cycles, in time order.
    pub fn credits(&self) -> impl Iterator<Item = (u64, &Credit)> {
        self.pending()
            .flat_map(|(at, slot)| slot.credits.iter().map(move |c| (at, c)))
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
    fn slot_count_is_derived_from_the_fabric() {
        let fab = Fabric::new(crate::SimConfig::paper(2));
        let w = Wheel::new(&fab, 0);
        assert_eq!(w.max_latency(), 100);
        assert_eq!(w.slots.len(), 128);
        assert_eq!(Wheel::with_max_latency(10, 0).slots.len(), 16);
        assert_eq!(Wheel::with_max_latency(126, 0).slots.len(), 128);
        assert_eq!(Wheel::with_max_latency(127, 0).slots.len(), 256);
    }

    /// Every offset `now+1 … now+slots−1`, with 10- and 100-cycle links
    /// mixed in, lands on exactly its cycle — over more than three
    /// revolutions, starting from a cycle that is not a multiple of the
    /// slot count.
    #[test]
    fn events_land_on_exactly_their_cycle() {
        let start = 1_000_003u64;
        let mut w = Wheel::with_max_latency(100, start);
        let slots = w.slots.len() as u64;
        assert_eq!(slots, 128);
        let mut expected: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        let mut next_id = 0u64;
        for now in start..start + 4 * slots {
            let got: Vec<u64> = w.due(now).arrivals.drain(..).map(|a| a.pkt.id).collect();
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
        let mut w = Wheel::new(&fab, 500);
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
        assert!(w.due(0).arrivals.is_empty());
        w.file_arrival(128, arrival(1)); // now + slots
    }

    #[test]
    #[should_panic(expected = "outside the wheel")]
    fn filing_into_the_past_panics() {
        let mut w = Wheel::with_max_latency(100, 0);
        assert!(w.due(0).arrivals.is_empty());
        w.file_arrival(0, arrival(1));
    }
}
