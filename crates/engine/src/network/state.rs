//! Checkpoint/restart: the STATE section of a snapshot (see
//! [`crate::snapshot`] for the file format).
//!
//! The section's layout is written down twice and no more:
//! `encode_state` writes it, `decode_state` reads it — and names each
//! field as it goes, so the offset → field map of the snapshot differ
//! ([`Network::locate_state_field`]) is the same traversal, not a copy.

#![allow(
    clippy::cast_possible_truncation,
    reason = "the snapshot codec runs between steps, never inside one; ids and ports are bounded by the fabric dimensions"
)]

use super::cm_sense::{CmState, CM_CONG_ONE};
use super::Network;
use crate::arena::{Arena, Fresh, SrcQueues};
use crate::config::LAST_CYCLE;
use crate::fault::{FaultPlan, FaultState};
use crate::hooks::Hooks;
use crate::llr::Llr;
use crate::occupancy::Occupancy;
use crate::policy::Policy;
use crate::snapshot::{
    self, decode_packet_in, encode_packet, Dec, Enc, SnapshotError, PACKET_MIN_BYTES,
};
use crate::stats::{Stats, STATS_COUNTERS};
use crate::wheel::{Arrival, Credit, Wheel};
use ofar_topology::RouterId;

/// What `decode_state` announces each field to, right after consuming
/// its bytes. Restoring announces to `()`, which compiles to nothing —
/// that instance of the decoder carries no labels; locating a field
/// announces to a [`Probe`].
trait Labels {
    fn field(&mut self, d: &mut Dec<'_>, label: impl FnOnce() -> String);
}

impl Labels for () {
    #[inline(always)]
    fn field(&mut self, _: &mut Dec<'_>, _: impl FnOnce() -> String) {}
}

/// Keeps the first field that ends past byte `offset` — the one covering
/// it — and ends the cursor there, so the decoder stops at its next read.
struct Probe {
    offset: usize,
    found: Option<String>,
}

impl Labels for Probe {
    fn field(&mut self, d: &mut Dec<'_>, label: impl FnOnce() -> String) {
        if self.found.is_none() && d.pos() > self.offset {
            self.found = Some(label());
            d.end();
        }
    }
}

/// A least-recently-served stamp: a cycle + 1 that fits in 32 bits.
fn stamp(d: &mut Dec<'_>) -> Result<u32, SnapshotError> {
    u32::try_from(d.var()?).map_err(|_| SnapshotError::Malformed("LRS stamp past the last cycle"))
}

impl<P: Policy, H: Hooks> Network<P, H> {
    /// Serialize the complete live state into a self-describing snapshot
    /// (see [`crate::snapshot`] for the format). Must be called at a
    /// step boundary — between [`Self::step`] calls — where the
    /// allocator's per-cycle scratch state is empty by construction.
    ///
    /// The returned bytes embed the configuration and mechanism name, so
    /// [`crate::snapshot::peek_header`] plus [`Self::restore_snapshot`]
    /// rebuild an identical network from the bytes alone. Restore is
    /// bit-exact: the resumed run produces the same statistics and
    /// delivery stream as an uninterrupted one.
    pub fn save_snapshot(&self) -> Vec<u8> {
        snapshot::write_frame(
            &snapshot::encode_config(self.fab.cfg(), self.policy.name()),
            |e| self.policy.save_state(&mut e.0),
            |e| self.encode_state(e),
        )
    }

    /// Restore a snapshot produced by [`Self::save_snapshot`] into this
    /// network. The network must have been built with the same
    /// configuration and mechanism (checked via the config fingerprint
    /// before anything is touched). On any error the network is left
    /// exactly as it was — decoding happens into temporaries and is
    /// committed only once the whole file has validated.
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let frame = snapshot::parse_frame(bytes)?;
        let own_config = snapshot::encode_config(self.fab.cfg(), self.policy.name());
        let expected = crate::crc::crc32(&own_config);
        if frame.fingerprint != expected || frame.config != own_config.as_slice() {
            // Name the more specific cause when only the mechanism
            // differs under an otherwise identical configuration.
            let (_, mech) = snapshot::decode_config(frame.config)?;
            if mech != self.policy.name() {
                return Err(SnapshotError::MechanismMismatch {
                    expected: self.policy.name().to_string(),
                    found: mech,
                });
            }
            return Err(SnapshotError::ConfigMismatch {
                expected,
                found: frame.fingerprint,
            });
        }
        let mut d = Dec::new(frame.state);
        let decoded = self.decode_state(&mut d, &mut ())?;
        if !d.is_empty() {
            return Err(SnapshotError::Malformed("trailing bytes in STATE"));
        }
        self.policy
            .load_state(frame.policy)
            .map_err(SnapshotError::Policy)?;
        self.commit_state(decoded);
        Ok(())
    }

    fn encode_state(&self, e: &mut Enc) {
        // Exhaustive on purpose: a new field does not compile until it is
        // encoded below or listed as `field: _` with why it holds no state.
        let Self {
            fab,
            arena,
            // The POLICY section: `save_snapshot` writes it through
            // `Policy::save_state`.
            policy: _,
            now,
            next_id,
            src_q,
            inj_busy,
            wheel,
            // Derived from `arena.fifos` and `src_q`; rebuilt on restore.
            occ: _,
            stats,
            delivered_log,
            faults,
            plan,
            plan_cursor,
            faults_ever,
            router_last_grant,
            llr,
            cm,
            delivered_per_src,
            // Diagnostic harness state, deliberately outside simulation
            // snapshots.
            hooks: _,
            // Per-cycle scratch: rebuilt each cycle and dead at snapshot
            // boundaries.
            reqs: _,
            grants: _,
            best_out: _,
        } = self;
        e.var(*now);
        e.var(*next_id);
        e.u8(u8::from(*faults_ever));
        e.var(*plan_cursor as u64);
        plan.snap_encode(e);
        faults.snap_encode(e);
        e.vars(&stats.counters());
        e.var(self.num_nodes() as u64);
        for (node, &queued) in src_q.queued().iter().enumerate() {
            e.var(queued.into());
            for p in src_q.iter(node) {
                encode_packet(e, &p);
            }
        }
        e.vars(inj_busy);
        e.vars(router_last_grant);
        match delivered_log {
            None => e.u8(0),
            Some(log) => {
                e.u8(1);
                e.var(log.len() as u64);
                for &(at, lat) in log {
                    e.var(at);
                    e.var(lat.into());
                }
            }
        }
        // The format stores each router's ports in turn, each link's
        // pipeline with its port; the wheel is gathered into that shape.
        let backlog = wheel.backlog(fab);
        let (n_in, n_out) = (fab.n_in(), fab.n_out());
        for ridx in 0..fab.topo().num_routers() {
            let router = RouterId::from(ridx);
            for (port, desc) in fab.in_descs(router).iter().enumerate() {
                for slot in desc.slots() {
                    e.var(arena.fifos.queued[slot].into());
                    for p in arena.fifos.iter(slot) {
                        encode_packet(e, &p);
                    }
                }
                let arrivals = backlog.arrivals(ridx, port);
                e.var(arrivals.len() as u64);
                for &(at, a) in arrivals {
                    e.var(at);
                    e.u8(a.vc);
                    encode_packet(e, &a.pkt);
                }
                e.var(arena.in_busy[ridx * n_in + port]);
                e.vars(&arena.vc_served_at[desc.slots()]);
            }
            for (port, link) in fab.out_links(router).iter().enumerate() {
                e.vars(&arena.credits[link.lanes()]);
                let credits = backlog.credits(ridx, port);
                e.var(credits.len() as u64);
                for &(at, c) in credits {
                    e.var(at);
                    e.u8(c.vc);
                    e.var(c.phits.into());
                }
                e.var(arena.out_busy[ridx * n_out + port]);
                e.vars(&arena.in_served_at[(ridx * n_out + port) * n_in..][..n_in]);
            }
        }
        match llr {
            None => e.u8(0),
            Some(llr) => {
                e.u8(1);
                llr.snap_encode(e);
            }
        }
        // CM + fairness state (format v2). The presence tag must agree
        // with cfg.cm_enabled — it is written anyway so a corrupted file
        // fails closed instead of desynchronizing the stream.
        match cm {
            None => e.u8(0),
            Some(cm) => {
                e.u8(1);
                e.vars(&cm.tokens);
                e.vars(&cm.cong);
                for &t in &cm.throttled {
                    e.u8(u8::from(t));
                }
            }
        }
        e.vars(delivered_per_src);
    }

    /// Decode the STATE section into temporaries without touching
    /// `self`; [`Self::commit_state`] applies them only after the whole
    /// section validated. Every field is announced to `l` right after its
    /// bytes are consumed, shard indices spelled out: the labels are what
    /// [`Self::locate_state_field`] answers with.
    fn decode_state<L: Labels>(
        &self,
        d: &mut Dec<'_>,
        l: &mut L,
    ) -> Result<DecodedState, SnapshotError> {
        let malformed = |what| Err(SnapshotError::Malformed(what));
        // A per-shard vector of words, each announced as `name[i]`.
        let words = |d: &mut Dec<'_>, l: &mut L, n: usize, name: &str| {
            let mut words = Vec::with_capacity(n);
            for i in 0..n {
                words.push(d.var()?);
                l.field(d, || format!("{name}[{i}]"));
            }
            Ok::<_, SnapshotError>(words)
        };
        let now = d.var()?;
        l.field(d, || "now".into());
        if now > LAST_CYCLE {
            return malformed("now past the last cycle");
        }
        let next_id = d.var()?;
        l.field(d, || "next_id".into());
        let faults_ever = d.flag("bad faults_ever flag")?;
        l.field(d, || "faults_ever".into());
        let plan_cursor = d.var_usize()?;
        l.field(d, || "plan_cursor".into());
        let plan = FaultPlan::snap_decode(d)?;
        l.field(d, || "fault plan".into());
        if plan_cursor > plan.events().len() {
            return malformed("plan cursor past the end of the plan");
        }
        let faults = FaultState::snap_decode(d, &self.fab)?;
        l.field(d, || "fault state".into());
        let mut stats = Stats::default();
        let mut counters = [0u64; STATS_COUNTERS];
        for (c, name) in counters.iter_mut().zip(Stats::counter_names()) {
            *c = d.var()?;
            l.field(d, || format!("stats.{name}"));
        }
        stats.set_counters(&counters);
        let nodes = self.num_nodes();
        // Each queue is at least its one-byte count.
        let n_queues = d.len(1, "source-queue count")?;
        l.field(d, || "source-queue count".into());
        if n_queues != nodes {
            return malformed("source-queue count disagrees");
        }
        let mut src_q = SrcQueues::new(nodes, Fresh::of(&self.fab));
        for node in 0..nodes {
            for i in 0..d.len(PACKET_MIN_BYTES, "source queue size")? {
                let pkt = decode_packet_in(d, self.fab.topo())?;
                // Only the head has been offered to `on_inject`; a packet
                // behind it is still as `generate` made it.
                if i > 0 && !src_q.keeps(node, pkt) {
                    return malformed("source-queue tail is not a fresh packet of its node");
                }
                src_q.push(node, pkt);
            }
            l.field(d, || format!("src_q[{node}]"));
        }
        let inj_busy = words(d, l, nodes, "inj_busy")?;
        let nr = self.fab.topo().num_routers();
        let router_last_grant = words(d, l, nr, "router_last_grant")?;
        let delivered_log = match d.u8()? {
            0 => None,
            1 => {
                let n = d.len(2, "delivery log size")?;
                let mut log = Vec::with_capacity(n);
                for _ in 0..n {
                    log.push((d.var()?, d.var_u32()?));
                }
                Some(log)
            }
            _ => return malformed("bad Option tag for delivery log"),
        };
        l.field(d, || "delivered_log".into());
        let (n_in, n_out) = (self.fab.n_in(), self.fab.n_out());
        let mut arena = Arena::new(&self.fab);
        // Link pipelines are scattered into a wheel whose next drained
        // cycle is the snapshot's `now`. A stamp is only accepted where
        // the live engine could have put it: not in the past, within the
        // largest link latency, strictly after its port's previous one —
        // anything else would land in the wrong slot.
        let mut wheel = Wheel::new(now);
        let horizon = wheel.max_latency();
        let stamp_ok = |at: u64, prev: Option<u64>| {
            at >= now && at - now <= horizon && prev.is_none_or(|p| at > p)
        };
        for r in 0..nr {
            let router = RouterId::from(r);
            for (pi, desc) in self.fab.in_descs(router).iter().enumerate() {
                for (vi, slot) in desc.slots().enumerate() {
                    let capacity = self.fab.slot_caps()[slot];
                    let n = d.len(PACKET_MIN_BYTES, "VC buffer size")?;
                    for _ in 0..n {
                        let pkt = decode_packet_in(d, self.fab.topo())?;
                        if !arena.fifos.fits(slot, capacity) {
                            return malformed("VC buffer overflows its capacity");
                        }
                        arena.fifos.push(slot, pkt, capacity);
                    }
                    l.field(d, || format!("router[{r}].input[{pi}].vc[{vi}].fifo"));
                }
                let n = d.len(2 + PACKET_MIN_BYTES, "arrival pipeline size")?;
                let mut prev = None;
                for _ in 0..n {
                    let at = d.var()?;
                    let vc = d.u8()?;
                    let pkt = decode_packet_in(d, self.fab.topo())?;
                    if vc >= desc.vcs {
                        return malformed("arrival targets a VC out of range");
                    }
                    if !stamp_ok(at, prev) {
                        return malformed("arrival stamp outside the link pipeline");
                    }
                    prev = Some(at);
                    wheel.file_arrival(
                        at,
                        Arrival {
                            router: r as u32,
                            port: pi as u16,
                            vc,
                            pkt,
                        },
                    );
                }
                l.field(d, || format!("router[{r}].input[{pi}].arrivals"));
                arena.in_busy[r * n_in + pi] = d.var()?;
                l.field(d, || format!("router[{r}].input[{pi}].busy_until"));
                for (vi, t) in arena.vc_served_at[desc.slots()].iter_mut().enumerate() {
                    *t = stamp(d)?;
                    l.field(d, || format!("router[{r}].input[{pi}].vc_served_at[{vi}]"));
                }
            }
            for (po, link) in self.fab.out_links(router).iter().enumerate() {
                for (vi, lane) in link.lanes().enumerate() {
                    let c = d.var_u32()?;
                    l.field(d, || format!("router[{r}].output[{po}].credits[{vi}]"));
                    if c > self.fab.lane_caps()[lane] {
                        return malformed("credits exceed downstream capacity");
                    }
                    arena.credits[lane] = c;
                }
                let n = d.len(3, "credit pipeline size")?;
                let mut prev = None;
                for _ in 0..n {
                    let at = d.var()?;
                    let vc = d.u8()?;
                    let phits = d.var_u32()?;
                    if vc >= link.vcs {
                        return malformed("credit event targets a VC out of range");
                    }
                    if !stamp_ok(at, prev) {
                        return malformed("credit stamp outside the link pipeline");
                    }
                    prev = Some(at);
                    wheel.file_credit(
                        at,
                        Credit {
                            router: r as u32,
                            port: po as u16,
                            vc,
                            phits,
                        },
                    );
                }
                l.field(d, || format!("router[{r}].output[{po}].credit_events"));
                arena.out_busy[r * n_out + po] = d.var()?;
                l.field(d, || format!("router[{r}].output[{po}].busy_until"));
                let stamps = &mut arena.in_served_at[(r * n_out + po) * n_in..][..n_in];
                for (ii, t) in stamps.iter_mut().enumerate() {
                    *t = stamp(d)?;
                    l.field(d, || format!("router[{r}].output[{po}].in_served_at[{ii}]"));
                }
            }
        }
        let llr = match d.u8()? {
            0 => None,
            1 => {
                let llr = Llr::snap_decode(d, &self.fab)?;
                let backlog = wheel.backlog(&self.fab);
                llr.check_wire(|r, port| backlog.arrivals(r, port).len())?;
                Some(llr)
            }
            _ => return malformed("bad Option tag for LLR"),
        };
        l.field(d, || "llr".into());
        let cm_present = d.u8()?;
        l.field(d, || "cm presence tag".into());
        let cm = match cm_present {
            0 => {
                if self.fab.cfg().cm_enabled {
                    return malformed("CM state missing for a cm_enabled config");
                }
                None
            }
            1 => {
                if !self.fab.cfg().cm_enabled {
                    return malformed("CM state present for a cm-disabled config");
                }
                let mut cm = CmState::new(self.fab.cfg(), nodes, nr);
                for (node, t) in cm.tokens.iter_mut().enumerate() {
                    let v = d.var_u32()?;
                    l.field(d, || format!("cm.tokens[{node}]"));
                    if v > cm.cap {
                        return malformed("bucket level exceeds its capacity");
                    }
                    *t = v;
                }
                for (r, c) in cm.cong.iter_mut().enumerate() {
                    let v = d.var_u32()?;
                    l.field(d, || format!("cm.cong[{r}]"));
                    if v > CM_CONG_ONE {
                        return malformed("congestion estimate above 1.0");
                    }
                    *c = v;
                }
                for (r, t) in cm.throttled.iter_mut().enumerate() {
                    *t = d.flag("bad throttled flag")?;
                    l.field(d, || format!("cm.throttled[{r}]"));
                }
                // The incremental credit sums are derived state:
                // recompute them from the just-decoded credits rather
                // than trusting (or carrying) them in the file.
                cm.rebuild_free(&self.fab, &arena.credits);
                Some(cm)
            }
            _ => return malformed("bad Option tag for CM state"),
        };
        let delivered_per_src = words(d, l, nodes, "delivered_per_src")?;
        Ok(DecodedState {
            now,
            next_id,
            faults_ever,
            plan_cursor,
            plan,
            faults,
            stats,
            src_q,
            inj_busy,
            router_last_grant,
            delivered_log,
            arena,
            wheel,
            llr,
            cm,
            delivered_per_src,
        })
    }

    /// Map a byte offset inside a STATE section payload to the field
    /// whose encoding covers it, shard indices spelled out
    /// (`"router[7].output[2].credits[1]"`): what a byte-level snapshot
    /// divergence ([`snapshot::diff_snapshots`]) hit. It is the restore
    /// path (`decode_state`) run with a probe for labels, so it costs a
    /// restore of the section up to `offset`; only called on divergence.
    pub fn locate_state_field(&self, state: &[u8], offset: usize) -> String {
        let mut probe = Probe {
            offset,
            found: None,
        };
        let decoded = self.decode_state(&mut Dec::new(state), &mut probe);
        match (probe.found, decoded) {
            (Some(label), _) => label,
            (None, Ok(_)) => "past the end of STATE".to_string(),
            (None, Err(e)) => format!("unmappable offset {offset}: {e}"),
        }
    }

    fn commit_state(&mut self, s: DecodedState) {
        self.now = s.now;
        self.next_id = s.next_id;
        self.faults_ever = s.faults_ever;
        self.plan_cursor = s.plan_cursor;
        self.plan = s.plan;
        self.faults = s.faults;
        self.stats = s.stats;
        // The occupancy index is derived state: recount it from the
        // decoded FIFOs and queues rather than carrying it in the file.
        self.occ = Occupancy::recount(&self.fab, &s.arena.fifos, &s.src_q);
        self.wheel = s.wheel;
        self.src_q = s.src_q;
        self.inj_busy = s.inj_busy;
        self.router_last_grant = s.router_last_grant;
        self.delivered_log = s.delivered_log;
        self.arena = s.arena;
        self.llr = s.llr;
        self.cm = s.cm;
        self.delivered_per_src = s.delivered_per_src;
        // Per-cycle scratch is empty at every step boundary; clear it so
        // a restore into a mid-turn network cannot leak stale requests.
        self.reqs.clear();
        self.grants.clear();
    }
}

/// Fully decoded STATE section, held apart from the network until the
/// whole snapshot has validated.
struct DecodedState {
    now: u64,
    next_id: u64,
    faults_ever: bool,
    plan_cursor: usize,
    plan: FaultPlan,
    faults: FaultState,
    stats: Stats,
    src_q: SrcQueues,
    inj_busy: Vec<u64>,
    router_last_grant: Vec<u64>,
    delivered_log: Option<Vec<(u64, u32)>>,
    arena: Arena,
    wheel: Wheel,
    llr: Option<Llr>,
    cm: Option<CmState>,
    delivered_per_src: Vec<u64>,
}
