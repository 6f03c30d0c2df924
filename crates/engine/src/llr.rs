//! Link-level retransmission (LLR): a reliable delivery layer over lossy
//! links.
//!
//! The base engine models a perfectly lossless fabric; real high-radix
//! links fail *transiently* far more often than they fail-stop — bit
//! errors, dropped phits, flapping SerDes. This module adds the link
//! retry hardware production Dragonfly deployments rely on (the lossless
//! reliable link layer the InfiniBand routing-engine literature assumes
//! underneath its deadlock-free routing engines):
//!
//! * every network link (local, global and escape-ring — never the
//!   on-router injection/ejection wires) gets a **sender-side replay
//!   buffer** of up to [`crate::config::LLR_WINDOW`] packets,
//!   each stamped with a per-link sequence number and a CRC-32 over the
//!   header fields ([`crate::packet::Packet::fingerprint`]);
//! * the receiver recomputes the CRC and checks the sequence number
//!   against a selective-repeat window: a corrupted packet is discarded
//!   and **nacked**, a duplicate (spurious retransmission) is discarded
//!   silently, a good packet is accepted and **acked** — acks and nacks
//!   ride the credit-return path, so they share its latency and are
//!   never lost;
//! * a transfer that vanishes on the wire (dropped phit) triggers a
//!   **retransmit timeout** of one round trip plus
//!   [`crate::config::LLR_TIMEOUT_SLACK`], doubling per retry
//!   up to `2^llr_backoff_cap` (exponential backoff);
//! * a packet retried past [`crate::config::SimConfig::llr_retry_budget`]
//!   **escalates** the link to the §VII fail-stop machinery: the copies
//!   already reserved downstream are force-delivered (fail-stop at
//!   packet granularity — transfers already started complete), the link
//!   is failed, and the degraded-mode routing of PR 1 plus the dead-port
//!   auditing of PR 2 take over seamlessly.
//!
//! Flow-control interaction: the credit decremented at the *first*
//! transmission keeps the downstream space reserved across every retry,
//! so retransmissions never consume new credits and the conservation
//! laws keep holding with one amendment — a replay entry whose sequence
//! number the receiver has not accepted yet *is* the canonical copy of
//! its packet (copies in flight are phantoms). See
//! [`Llr::undelivered_phits`].
//!
//! Error model: each phit of a transfer flips independently with the
//! effective per-phit error probability of the link
//! ([`crate::fault::FaultState::link_ber`] override, else
//! [`crate::config::SimConfig::ber`]). A failed transfer is a *drop*
//! (header phit hit — the receiver never sees the packet) with
//! probability `1/packet_size`, otherwise a *corruption* (payload hit —
//! CRC-detected at the receiver). One-shot
//! [`crate::fault::FaultKind::CorruptPhit`] / `DropPhit` events queue a
//! deterministic fault for the next transfer crossing the link.
//! Undetected errors (a corruption that preserves the CRC, ~2⁻³² per
//! event in hardware) are not modelled.

use crate::config::{LLR_TIMEOUT_SLACK, LLR_WINDOW};
use crate::crc::crc32;
use crate::fabric::{Fabric, PortKind};
use crate::packet::Packet;
use std::collections::VecDeque;

/// Outcome of one wire transfer, decided at transmission time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Arrives intact.
    Good,
    /// Arrives with a CRC-detectable payload corruption.
    Corrupt,
    /// Never arrives (header phit lost).
    Drop,
}

/// One replay-buffer entry: a transmitted packet awaiting its ack.
#[derive(Clone, Debug)]
pub struct LlrEntry {
    /// Link-local sequence number.
    pub seq: u32,
    /// Downstream VC the reservation was taken on.
    pub out_vc: u8,
    /// Retransmissions so far.
    pub retries: u32,
    /// Cycle of the last transmission.
    pub sent_at: u64,
    /// The last transmission is known failed (nack received, or timeout
    /// expired) and the entry awaits retransmission.
    pub lost: bool,
    /// The retained packet.
    pub pkt: Packet,
    /// CRC-32 computed at first transmission.
    pub crc: u32,
}

/// An ack or nack travelling back to the sender on the credit path.
#[derive(Clone, Copy, Debug)]
struct AckEvent {
    /// Cycle it reaches the sender.
    at: u64,
    /// Acknowledged sequence number.
    seq: u32,
    /// true = ack (free the entry), false = nack (retransmit).
    ok: bool,
}

/// Sender-side state of one directed link.
#[derive(Clone, Debug, Default)]
struct TxLink {
    /// Next sequence number to assign.
    next_seq: u32,
    /// Replay buffer, in sequence order.
    entries: VecDeque<LlrEntry>,
    /// Acks/nacks in flight back to this sender.
    acks: VecDeque<AckEvent>,
}

/// Metadata travelling with a packet on the wire (alongside the engine's
/// arrival event, in lockstep).
#[derive(Clone, Copy, Debug)]
struct WireMeta {
    /// Sequence number.
    seq: u32,
    /// CRC as received (corrupted on the wire when the fate said so).
    wire_crc: u32,
}

/// Receiver-side state of one directed link: the selective-repeat
/// acceptance window and the wire-metadata queue.
#[derive(Clone, Debug, Default)]
struct RxLink {
    /// Lowest sequence number not yet cumulatively accepted.
    base: u32,
    /// Bit `i` set ⇔ `base + i` accepted (out of order).
    mask: u64,
    /// Metadata of packets in flight toward this input, arrival order.
    wire: VecDeque<WireMeta>,
}

impl RxLink {
    /// Whether `seq` has already been accepted.
    fn accepted(&self, seq: u32) -> bool {
        let d = seq.wrapping_sub(self.base);
        if d >= 1 << 31 {
            return true; // behind the window: long acked
        }
        d < 64 && self.mask & (1 << d) != 0
    }

    /// Mark `seq` accepted and slide the window.
    fn accept(&mut self, seq: u32) {
        let d = seq.wrapping_sub(self.base);
        debug_assert!(d < 64, "sender window exceeded the receiver window");
        if d < 64 {
            self.mask |= 1 << d;
        }
        while self.mask & 1 != 0 {
            self.mask >>= 1;
            self.base = self.base.wrapping_add(1);
        }
    }
}

/// What the receiver decided about a landed transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxVerdict {
    /// CRC good, sequence fresh: accept into the VC buffer.
    Accept,
    /// CRC mismatch: discard, nack.
    CrcDrop,
    /// Already accepted (spurious retransmission): discard silently.
    Duplicate,
}

/// The link-level retransmission state of a whole network. Lives on
/// [`crate::network::Network`] as an `Option` — `None` (the default on a
/// lossless configuration) keeps the healthy path zero-cost.
#[derive(Clone, Debug)]
pub struct Llr {
    n_out: usize,
    n_in: usize,
    /// `[router × n_out]` sender state (unused slots for ejection ports).
    tx: Vec<TxLink>,
    /// `[router × n_in]` receiver state (unused slots for injection).
    rx: Vec<RxLink>,
    /// splitmix64 state for wire-error sampling.
    rng: u64,
    /// Per-directed-link retransmission counters (`[router × n_out]`),
    /// the raw data of the per-link retry histogram.
    retx_per_link: Vec<u64>,
    /// Delivered-packet-id bitmap for exactly-once accounting.
    delivered_ids: Vec<u64>,
}

impl Llr {
    /// Fresh LLR state for a fabric, seeded for wire-error sampling.
    pub fn new(fab: &Fabric, seed: u64) -> Self {
        let nr = fab.topo().num_routers();
        let (n_in, n_out) = (fab.n_in(), fab.n_out());
        Self {
            n_out,
            n_in,
            tx: vec![TxLink::default(); nr * n_out],
            rx: vec![RxLink::default(); nr * n_in],
            rng: seed ^ 0xC2B2_AE3D_27D4_EB4F,
            retx_per_link: vec![0; nr * n_out],
            delivered_ids: Vec::new(),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` (53-bit mantissa).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Sample the fate of one transfer of `size` phits under per-phit
    /// error probability `ber`.
    pub fn sample_fate(&mut self, ber: f64, size: u32) -> Fate {
        if ber <= 0.0 {
            return Fate::Good;
        }
        // `powi` takes an i32, which a packet size fits.
        let p_fail = 1.0 - (1.0 - ber).powi(size as i32);
        if self.next_f64() >= p_fail {
            return Fate::Good;
        }
        // A failed transfer is a drop iff the (first) hit phit was the
        // header; uniform over phits, that is probability 1/size.
        if self.next_f64() < 1.0 / f64::from(size.max(1)) {
            Fate::Drop
        } else {
            Fate::Corrupt
        }
    }

    /// A nonzero CRC perturbation for a corrupted wire image.
    pub fn corruption(&mut self) -> u32 {
        loop {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "deliberate truncation; keeps the low 32 bits of the generator word"
            )]
            let x = (self.next_u64() >> 16) as u32;
            if x != 0 {
                return x;
            }
        }
    }

    #[inline]
    fn tx_idx(&self, router: usize, port: usize) -> usize {
        router * self.n_out + port
    }

    #[inline]
    fn rx_idx(&self, router: usize, port: usize) -> usize {
        router * self.n_in + port
    }

    /// Whether the replay buffer of (`router`, `port`) can take one more
    /// packet (gates new grants on that output).
    #[inline]
    pub fn tx_has_room(&self, router: usize, port: usize) -> bool {
        self.tx[self.tx_idx(router, port)].entries.len() < LLR_WINDOW
    }

    /// Replay-buffer occupancy of (`router`, out `port`), in packets.
    #[inline]
    pub fn tx_occupancy(&self, router: usize, port: usize) -> usize {
        self.tx[self.tx_idx(router, port)].entries.len()
    }

    /// Retransmissions issued by (`router`, out `port`) so far.
    #[inline]
    pub fn link_retransmits(&self, router: usize, port: usize) -> u64 {
        self.retx_per_link[router * self.n_out + port]
    }

    /// Record a transmission: assign a sequence number, compute the CRC,
    /// store the replay entry, and return `(seq, wire_crc)` for the wire
    /// (the caller pairs it with the fate it sampled). `retransmit`
    /// entries are recorded through [`Self::record_retransmit`].
    pub fn record_send(
        &mut self,
        router: usize,
        port: usize,
        out_vc: u8,
        pkt: Packet,
        now: u64,
        fate: Fate,
    ) -> (u32, u32) {
        let corruption = if fate == Fate::Corrupt {
            self.corruption()
        } else {
            0
        };
        let t = &mut self.tx[router * self.n_out + port];
        debug_assert!(t.entries.len() < LLR_WINDOW, "replay buffer overflow");
        let seq = t.next_seq;
        t.next_seq = t.next_seq.wrapping_add(1);
        let crc = crc32(&pkt.fingerprint(seq));
        t.entries.push_back(LlrEntry {
            seq,
            out_vc,
            retries: 0,
            sent_at: now,
            lost: false,
            pkt,
            crc,
        });
        (seq, crc ^ corruption)
    }

    /// Push the wire metadata toward the receiving input port, in
    /// lockstep with the engine's arrival event. Not called for a
    /// dropped transfer (no arrival exists).
    pub fn push_wire(&mut self, dst_router: usize, dst_port: usize, seq: u32, wire_crc: u32) {
        let i = self.rx_idx(dst_router, dst_port);
        self.rx[i].wire.push_back(WireMeta { seq, wire_crc });
    }

    /// Judge a landed transfer at (`dst_router`, `dst_port`): pop the
    /// wire metadata, recompute the CRC over the packet, and run the
    /// sequence check. Returns the verdict plus the sequence number (for
    /// the ack/nack). On `Accept` the sequence is marked accepted.
    pub fn receive(
        &mut self,
        dst_router: usize,
        dst_port: usize,
        pkt: &Packet,
    ) -> (RxVerdict, u32) {
        let i = self.rx_idx(dst_router, dst_port);
        #[expect(
            clippy::expect_used,
            reason = "wire metadata is written at send time for every in-flight packet"
        )]
        let meta = self.rx[i]
            .wire
            .pop_front()
            .expect("arrival without wire metadata (LLR enabled mid-flight?)");
        if crc32(&pkt.fingerprint(meta.seq)) != meta.wire_crc {
            return (RxVerdict::CrcDrop, meta.seq);
        }
        if self.rx[i].accepted(meta.seq) {
            return (RxVerdict::Duplicate, meta.seq);
        }
        self.rx[i].accept(meta.seq);
        (RxVerdict::Accept, meta.seq)
    }

    /// Queue an ack (`ok = true`) or nack toward the sender of
    /// (`up_router`, `up_port`), arriving at `at` (credit-path latency).
    pub fn push_ack(&mut self, up_router: usize, up_port: usize, seq: u32, ok: bool, at: u64) {
        let i = self.tx_idx(up_router, up_port);
        self.tx[i].acks.push_back(AckEvent { at, seq, ok });
    }

    /// Process acks/nacks due at `now` for (`router`, `port`): acked
    /// entries are freed, nacked entries are marked lost. Returns the
    /// number of nacks processed.
    pub fn drain_acks(&mut self, router: usize, port: usize, now: u64) -> u64 {
        let i = self.tx_idx(router, port);
        let t = &mut self.tx[i];
        let mut nacks = 0;
        while let Some(&AckEvent { at, seq, ok }) = t.acks.front() {
            if at > now {
                break;
            }
            t.acks.pop_front();
            if ok {
                // Selective ack: free the entry (may be out of order).
                if let Some(pos) = t.entries.iter().position(|e| e.seq == seq) {
                    t.entries.remove(pos);
                }
            } else {
                nacks += 1;
                if let Some(e) = t.entries.iter_mut().find(|e| e.seq == seq) {
                    e.lost = true;
                }
            }
        }
        nacks
    }

    /// Retransmit timeout for an entry on a link of latency `lat`: one
    /// round trip plus [`LLR_TIMEOUT_SLACK`], doubling per retry up to
    /// `2^backoff_cap`.
    pub fn timeout(lat: u64, size: u64, retries: u32, backoff_cap: u32) -> u64 {
        let base = 2 * lat + size + LLR_TIMEOUT_SLACK;
        base << retries.min(backoff_cap)
    }

    /// Expire outstanding entries of (`router`, `port`) whose timeout
    /// passed, marking them lost. Returns how many timed out.
    pub fn expire(
        &mut self,
        router: usize,
        port: usize,
        now: u64,
        lat: u64,
        size: u64,
        backoff_cap: u32,
    ) -> u64 {
        let i = self.tx_idx(router, port);
        let mut n = 0;
        for e in self.tx[i].entries.iter_mut() {
            if !e.lost && now >= e.sent_at + Self::timeout(lat, size, e.retries, backoff_cap) {
                e.lost = true;
                n += 1;
            }
        }
        n
    }

    /// The oldest lost entry of (`router`, `port`) eligible for
    /// retransmission, if any. Returns `(seq, retries)`.
    pub fn next_retransmit(&self, router: usize, port: usize) -> Option<(u32, u32)> {
        self.tx[router * self.n_out + port]
            .entries
            .iter()
            .find(|e| e.lost)
            .map(|e| (e.seq, e.retries))
    }

    /// Re-send the lost entry `seq` of (`router`, `port`): bump its retry
    /// counter, stamp `now`, sample the wire image. Returns
    /// `(out_vc, pkt, wire_crc, fate)` for the caller to put on the wire.
    pub fn record_retransmit(
        &mut self,
        router: usize,
        port: usize,
        seq: u32,
        now: u64,
        fate: Fate,
    ) -> (u8, Packet, u32, Fate) {
        let corruption = if fate == Fate::Corrupt {
            self.corruption()
        } else {
            0
        };
        let i = self.tx_idx(router, port);
        self.retx_per_link[i] += 1;
        #[expect(
            clippy::expect_used,
            reason = "a replay entry exists for every outstanding seq by protocol invariant"
        )]
        let e = self.tx[i]
            .entries
            .iter_mut()
            .find(|e| e.seq == seq)
            .expect("retransmit of unknown seq");
        e.retries += 1;
        e.sent_at = now;
        // The sender cannot observe the wire: a dropped retransmission is
        // rediscovered by `expire` after the (backed-off) timeout.
        e.lost = false;
        (e.out_vc, e.pkt, e.crc ^ corruption, fate)
    }

    /// Entries of (`router`, `port`) the receiver has not accepted —
    /// each is the canonical copy of its packet (any copy in flight is a
    /// phantom). `dst` locates the receiver state.
    pub fn undelivered(
        &self,
        router: usize,
        port: usize,
        dst_router: usize,
        dst_port: usize,
    ) -> impl Iterator<Item = &LlrEntry> {
        let rx = &self.rx[dst_router * self.n_in + dst_port];
        self.tx[router * self.n_out + port]
            .entries
            .iter()
            .filter(move |e| !rx.accepted(e.seq))
    }

    /// Total phits whose canonical copy currently lives in a replay
    /// buffer (undelivered entries), network-wide. Replaces the
    /// in-flight-arrival term of phit conservation when LLR is enabled.
    pub fn undelivered_phits(&self, fab: &Fabric, size: u64) -> u64 {
        let nr = fab.topo().num_routers();
        let mut phits = 0;
        for r in 0..nr {
            for port in 0..self.n_out {
                let link = fab.out_link(ofar_topology::RouterId::from(r), port);
                if link.kind == PortKind::Node {
                    continue;
                }
                phits += self
                    .undelivered(r, port, link.dst_router as usize, link.dst_port as usize)
                    .count() as u64
                    * size;
            }
        }
        phits
    }

    /// Remove every entry of (`router`, `port`) and return the ones the
    /// receiver has not accepted (escalation / fail-stop force-delivery);
    /// their sequence numbers are marked accepted so copies still in
    /// flight are discarded as duplicates. Pending acks landing before
    /// `keep_from` are dropped, and the sequence space continues (a
    /// restored link keeps counting).
    pub fn take_undelivered(
        &mut self,
        router: usize,
        port: usize,
        dst_router: usize,
        dst_port: usize,
        keep_from: u64,
    ) -> Vec<LlrEntry> {
        let ti = self.tx_idx(router, port);
        let entries = std::mem::take(&mut self.tx[ti].entries);
        self.tx[ti].acks.retain(|a| a.at >= keep_from);
        let ri = self.rx_idx(dst_router, dst_port);
        // Link-death recovery: runs per fault event, not per cycle.
        let mut out = Vec::new();
        for e in entries {
            if !self.rx[ri].accepted(e.seq) {
                self.rx[ri].accept(e.seq);
                out.push(e);
            }
        }
        out
    }

    /// Exactly-once delivery check: marks packet `id` delivered and
    /// returns true if it had already been delivered (a duplicate
    /// ejection — must never happen while the link layer dedups).
    pub fn mark_delivered(&mut self, id: u64) -> bool {
        let (word, bit) = ((id / 64) as usize, id % 64);
        if word >= self.delivered_ids.len() {
            self.delivered_ids.resize(word + 1, 0);
        }
        let dup = self.delivered_ids[word] & (1 << bit) != 0;
        self.delivered_ids[word] |= 1 << bit;
        dup
    }
}

// ---------------------------------------------------------------------
// Checkpoint codec (see crate::snapshot)
// ---------------------------------------------------------------------

use crate::snapshot::{decode_packet_in, encode_packet, Dec, Enc, SnapshotError, PACKET_MIN_BYTES};
use ofar_topology::RouterId;

impl Llr {
    /// Append the complete link-layer state: every replay buffer, ack in
    /// flight, selective-repeat window, wire queue and counter, plus the
    /// wire-error RNG — everything needed for a bit-exact resume.
    pub(crate) fn snap_encode(&self, e: &mut Enc) {
        let Self {
            n_out,
            n_in,
            tx,
            rx,
            rng,
            retx_per_link,
            delivered_ids,
        } = self;
        e.var(*n_out as u64);
        e.var(*n_in as u64);
        e.var(LLR_WINDOW as u64);
        e.word(*rng);
        e.var(tx.len() as u64);
        for tx in tx {
            e.var(tx.next_seq.into());
            e.var(tx.entries.len() as u64);
            for en in &tx.entries {
                e.var(en.seq.into());
                e.u8(en.out_vc);
                e.var(en.retries.into());
                e.var(en.sent_at);
                e.u8(u8::from(en.lost));
                encode_packet(e, &en.pkt);
                e.var(en.crc.into());
            }
            e.var(tx.acks.len() as u64);
            for a in &tx.acks {
                e.var(a.at);
                e.var(a.seq.into());
                e.u8(u8::from(a.ok));
            }
        }
        e.var(rx.len() as u64);
        for rx in rx {
            e.var(rx.base.into());
            e.var(rx.mask);
            e.var(rx.wire.len() as u64);
            for w in &rx.wire {
                e.var(w.seq.into());
                e.var(w.wire_crc.into());
            }
        }
        e.var(retx_per_link.len() as u64);
        e.vars(retx_per_link);
        // A bitmap of mostly all-ones words: eight bytes each as words,
        // ten as varints.
        e.var(delivered_ids.len() as u64);
        delivered_ids.iter().for_each(|&w| e.word(w));
    }

    /// Rebuild the link-layer state written by [`Llr::snap_encode`],
    /// validating every dimension against the restoring fabric.
    pub(crate) fn snap_decode(d: &mut Dec<'_>, fab: &Fabric) -> Result<Self, SnapshotError> {
        let nr = fab.topo().num_routers();
        let n_out = d.var_usize()?;
        let n_in = d.var_usize()?;
        let window = d.var_usize()?;
        if n_out != fab.n_out() || n_in != fab.n_in() || window != LLR_WINDOW {
            return Err(SnapshotError::Malformed("LLR dimensions disagree"));
        }
        let rng = d.u64()?;
        // A sender is at least its sequence number and two counts.
        let ntx = d.len(3, "LLR tx count")?;
        if ntx != nr * n_out {
            return Err(SnapshotError::Malformed("LLR tx count disagrees"));
        }
        let mut tx = Vec::with_capacity(ntx);
        for i in 0..ntx {
            let next_seq = d.var_u32()?;
            // Four varints, two flag bytes, the packet.
            let n_entries = d.len(6 + PACKET_MIN_BYTES, "LLR replay buffer size")?;
            if n_entries > window {
                return Err(SnapshotError::Malformed(
                    "LLR replay buffer overflows its window",
                ));
            }
            let mut entries = VecDeque::with_capacity(n_entries);
            for _ in 0..n_entries {
                // Fields in wire order (a struct literal evaluates in
                // the order written).
                let entry = LlrEntry {
                    seq: d.var_u32()?,
                    out_vc: d.u8()?,
                    retries: d.var_u32()?,
                    sent_at: d.var()?,
                    lost: d.flag("bad LLR lost flag")?,
                    pkt: decode_packet_in(d, fab.topo())?,
                    crc: d.var_u32()?,
                };
                if entry.out_vc >= fab.out_link(RouterId::from(i / n_out), i % n_out).vcs {
                    return Err(SnapshotError::Malformed(
                        "LLR replay entry targets a VC out of range",
                    ));
                }
                entries.push_back(entry);
            }
            let n_acks = d.len(3, "LLR ack queue")?;
            let mut acks = VecDeque::with_capacity(n_acks);
            for _ in 0..n_acks {
                let at = d.var()?;
                let seq = d.var_u32()?;
                let ok = d.flag("bad LLR ack flag")?;
                acks.push_back(AckEvent { at, seq, ok });
            }
            tx.push(TxLink {
                next_seq,
                entries,
                acks,
            });
        }
        // A receiver is at least its window base, mask and one count.
        let nrx = d.len(3, "LLR rx count")?;
        if nrx != nr * n_in {
            return Err(SnapshotError::Malformed("LLR rx count disagrees"));
        }
        let mut rx = Vec::with_capacity(nrx);
        for _ in 0..nrx {
            let base = d.var_u32()?;
            let mask = d.var()?;
            let n_wire = d.len(2, "LLR wire queue")?;
            let mut wire = VecDeque::with_capacity(n_wire);
            for _ in 0..n_wire {
                let seq = d.var_u32()?;
                let wire_crc = d.var_u32()?;
                wire.push_back(WireMeta { seq, wire_crc });
            }
            rx.push(RxLink { base, mask, wire });
        }
        let n_retx = d.len(1, "LLR retx counters")?;
        if n_retx != nr * n_out {
            return Err(SnapshotError::Malformed("LLR retx counter count disagrees"));
        }
        let mut retx_per_link = Vec::with_capacity(n_retx);
        for _ in 0..n_retx {
            retx_per_link.push(d.var()?);
        }
        let n_ids = d.len(8, "LLR delivered-id bitmap")?;
        let delivered_ids = d.u64s(n_ids)?;
        Ok(Self {
            n_out,
            n_in,
            tx,
            rx,
            rng,
            retx_per_link,
            delivered_ids,
        })
    }

    /// Refuse a restored receiver whose wire-metadata queue does not
    /// hold exactly one entry per arrival in flight to its input, as
    /// [`Llr::receive`] expects; `in_flight(router, port)` counts them.
    pub(crate) fn check_wire(
        &self,
        in_flight: impl Fn(usize, usize) -> usize,
    ) -> Result<(), SnapshotError> {
        for (i, rx) in self.rx.iter().enumerate() {
            if rx.wire.len() != in_flight(i / self.n_in, i % self.n_in) {
                return Err(SnapshotError::Malformed(
                    "LLR wire queue disagrees with the arrivals in flight",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofar_topology::NodeId;

    fn pkt(id: u64) -> Packet {
        Packet {
            id,
            dst: NodeId::new(1),
            ..Packet::default()
        }
    }

    #[test]
    fn rx_window_accepts_once_and_slides() {
        let mut rx = RxLink::default();
        assert!(!rx.accepted(0));
        rx.accept(0);
        assert!(rx.accepted(0));
        assert_eq!(rx.base, 1);
        // out-of-order accept holds the base until the gap fills
        rx.accept(2);
        assert!(rx.accepted(2));
        assert!(!rx.accepted(1));
        assert_eq!(rx.base, 1);
        rx.accept(1);
        assert_eq!(rx.base, 3);
        // far behind the window counts as accepted
        rx.base = 1000;
        assert!(rx.accepted(3));
    }

    #[test]
    fn fate_sampling_is_deterministic_and_ber_zero_is_clean() {
        let fab = Fabric::new(crate::config::SimConfig::paper(2));
        let mut a = Llr::new(&fab, 7);
        let mut b = Llr::new(&fab, 7);
        for _ in 0..100 {
            assert_eq!(a.sample_fate(0.05, 8), b.sample_fate(0.05, 8));
        }
        let mut c = Llr::new(&fab, 9);
        for _ in 0..1000 {
            assert_eq!(c.sample_fate(0.0, 8), Fate::Good);
        }
    }

    #[test]
    fn fate_rates_track_the_ber() {
        let fab = Fabric::new(crate::config::SimConfig::paper(2));
        let mut l = Llr::new(&fab, 11);
        let n = 20_000;
        let fails = (0..n)
            .filter(|_| l.sample_fate(0.01, 8) != Fate::Good)
            .count();
        // packet failure probability = 1 - 0.99^8 ≈ 0.0773
        let p = fails as f64 / n as f64;
        assert!((p - 0.0773).abs() < 0.01, "observed failure rate {p}");
    }

    #[test]
    fn send_receive_ack_roundtrip_frees_the_entry() {
        let fab = Fabric::new(crate::config::SimConfig::paper(2));
        let mut l = Llr::new(&fab, 3);
        let (seq, wire_crc) = l.record_send(0, 2, 1, pkt(5), 10, Fate::Good);
        assert_eq!(l.tx_occupancy(0, 2), 1);
        l.push_wire(1, 3, seq, wire_crc);
        let (verdict, rseq) = l.receive(1, 3, &pkt(5));
        assert_eq!((verdict, rseq), (RxVerdict::Accept, seq));
        // a duplicate copy of the same seq is rejected
        l.push_wire(1, 3, seq, wire_crc);
        assert_eq!(l.receive(1, 3, &pkt(5)).0, RxVerdict::Duplicate);
        l.push_ack(0, 2, seq, true, 30);
        assert_eq!(l.drain_acks(0, 2, 29), 0);
        assert_eq!(l.tx_occupancy(0, 2), 1, "ack not due yet");
        l.drain_acks(0, 2, 30);
        assert_eq!(l.tx_occupancy(0, 2), 0);
    }

    #[test]
    fn corrupted_wire_image_fails_crc_and_nack_marks_lost() {
        let fab = Fabric::new(crate::config::SimConfig::paper(2));
        let mut l = Llr::new(&fab, 3);
        let (seq, wire_crc) = l.record_send(0, 2, 0, pkt(9), 0, Fate::Corrupt);
        l.push_wire(1, 3, seq, wire_crc);
        assert_eq!(l.receive(1, 3, &pkt(9)).0, RxVerdict::CrcDrop);
        l.push_ack(0, 2, seq, false, 5);
        assert_eq!(l.drain_acks(0, 2, 5), 1);
        let (rseq, retries) = l.next_retransmit(0, 2).expect("entry must be lost");
        assert_eq!((rseq, retries), (seq, 0));
        let (_, p, wire_crc2, _) = l.record_retransmit(0, 2, seq, 7, Fate::Good);
        assert_eq!(p.id, 9);
        l.push_wire(1, 3, seq, wire_crc2);
        assert_eq!(l.receive(1, 3, &pkt(9)).0, RxVerdict::Accept);
        assert_eq!(l.link_retransmits(0, 2), 1);
    }

    #[test]
    fn timeout_backs_off_exponentially_and_caps() {
        let t0 = Llr::timeout(10, 8, 0, 6);
        assert_eq!(t0, 2 * 10 + 8 + LLR_TIMEOUT_SLACK);
        assert_eq!(Llr::timeout(10, 8, 3, 6), t0 << 3);
        assert_eq!(Llr::timeout(10, 8, 50, 6), t0 << 6, "cap at 2^6");
    }

    #[test]
    fn expire_marks_only_overdue_entries() {
        let fab = Fabric::new(crate::config::SimConfig::paper(2));
        let mut l = Llr::new(&fab, 3);
        let (seq, _) = l.record_send(0, 2, 0, pkt(1), 0, Fate::Drop);
        // The sender cannot observe the wire: the dropped transfer stays
        // outstanding (not lost) until its timeout passes.
        assert!(l.next_retransmit(0, 2).is_none());
        let deadline = Llr::timeout(10, 8, 0, 6);
        assert_eq!(l.expire(0, 2, deadline - 1, 10, 8, 6), 0);
        assert_eq!(l.expire(0, 2, deadline, 10, 8, 6), 1);
        assert_eq!(l.next_retransmit(0, 2), Some((seq, 0)));
    }

    #[test]
    fn take_undelivered_returns_unacked_and_dedups_flying_copies() {
        let fab = Fabric::new(crate::config::SimConfig::paper(2));
        let mut l = Llr::new(&fab, 5);
        let (s1, c1) = l.record_send(0, 2, 0, pkt(1), 0, Fate::Good);
        let (_s2, _) = l.record_send(0, 2, 0, pkt(2), 0, Fate::Drop);
        // first packet lands and is accepted
        l.push_wire(1, 3, s1, c1);
        assert_eq!(l.receive(1, 3, &pkt(1)).0, RxVerdict::Accept);
        l.push_ack(0, 2, s1, true, 9);
        l.push_ack(0, 2, s1, true, 10);
        let forced = l.take_undelivered(0, 2, 1, 3, 10);
        assert_eq!(forced.len(), 1, "only the undelivered entry is forced");
        assert_eq!(forced[0].pkt.id, 2);
        assert_eq!(l.tx_occupancy(0, 2), 0);
        let acks: Vec<u64> = l.tx[l.tx_idx(0, 2)].acks.iter().map(|a| a.at).collect();
        assert_eq!(acks, [10], "only the acks landing before keep_from go");
    }

    #[test]
    fn mark_delivered_detects_duplicates() {
        let fab = Fabric::new(crate::config::SimConfig::paper(2));
        let mut l = Llr::new(&fab, 1);
        assert!(!l.mark_delivered(0));
        assert!(!l.mark_delivered(129));
        assert!(l.mark_delivered(0));
        assert!(l.mark_delivered(129));
        assert!(!l.mark_delivered(64));
    }
}
