//! Packets, in-transit routing state and routing requests.

use ofar_topology::{GroupId, NodeId};

/// Header flag: the packet has already taken its one allowed global
/// misroute (§IV-A).
pub const FLAG_GLOBAL_MISROUTED: u8 = 1 << 0;
/// Header flag: the packet has taken its one allowed local misroute in
/// the *current* group; cleared when the packet changes group (§IV-A).
pub const FLAG_LOCAL_MISROUTED: u8 = 1 << 1;
/// The packet is currently travelling on the escape ring (§IV-C).
pub const FLAG_ON_RING: u8 = 1 << 2;
/// Mechanism-private header flag, free for policies to use (e.g. PAR's
/// "adaptive decision still pending" marker). The engine never touches it.
pub const FLAG_AUX: u8 = 1 << 7;

/// A packet. Sized for hot simulator queues: it stays well under a cache
/// line and is `Copy`. The default is all zeroes — what a vacant FIFO
/// head holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Packet {
    /// Unique id (injection order).
    pub id: u64,
    /// Cycle the packet was generated (source-queue time counts towards
    /// latency, which is what makes saturation visible). 32 bits: no run
    /// passes [`crate::LAST_CYCLE`].
    pub injected_at: u32,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Valiant intermediate group, when one was chosen at injection and
    /// has not been reached yet (VAL, PB and PAR). Cleared by the engine
    /// on arrival at the intermediate group.
    pub intermediate: Option<GroupId>,
    /// Misroute/ring header flags.
    pub flags: u8,
    /// Remaining escape-ring abandonments (livelock bound, §IV-C).
    pub ring_exits_left: u8,
    /// Local link hops taken so far (used for VC selection and path-length
    /// invariants).
    pub local_hops: u8,
    /// Global link hops taken so far.
    pub global_hops: u8,
    /// Hops taken along the escape ring (not part of the canonical hop
    /// ladder; diagnostics and livelock analysis).
    pub ring_hops: u8,
    /// Cycles this packet has spent blocked at the head of its current
    /// input VC (reset by the engine on every grant). Policies use it as
    /// a congestion-persistence signal — e.g. OFAR's escape-ring
    /// patience (§IV-C: the ring is a *last* resort).
    pub wait: u8,
    /// Group the packet is currently in (kept by the engine so the
    /// local-misroute flag can be reset on group change).
    pub cur_group: GroupId,
}

impl Packet {
    /// Whether `flag` (one of the `FLAG_*` bits) is set.
    #[inline]
    pub fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    /// Set `flag` (one of the `FLAG_*` bits).
    #[inline]
    pub fn set(&mut self, flag: u8) {
        self.flags |= flag;
    }

    /// Clear `flag` (one of the `FLAG_*` bits).
    #[inline]
    pub fn clear(&mut self, flag: u8) {
        self.flags &= !flag;
    }

    /// Landing at a router of group `g`: entering a new group clears the
    /// per-group local-misroute flag and retires a reached Valiant
    /// intermediate (§IV-A).
    #[inline]
    pub fn land_in(&mut self, g: GroupId) {
        if self.cur_group != g {
            self.cur_group = g;
            self.clear(FLAG_LOCAL_MISROUTED);
            if self.intermediate == Some(g) {
                self.intermediate = None;
            }
        }
    }

    /// Whether the packet is on the escape ring.
    #[inline]
    pub fn on_ring(&self) -> bool {
        self.has(FLAG_ON_RING)
    }

    /// Total link hops taken.
    #[inline]
    pub fn hops(&self) -> u32 {
        self.local_hops as u32 + self.global_hops as u32
    }

    /// The header bytes covered by the link-level CRC: the immutable
    /// identity fields plus the link-local sequence number `seq`. Routing
    /// state (flags, hop counts, `wait`) is deliberately excluded — it
    /// legitimately differs between a transmission and its replay-buffer
    /// copy is irrelevant anyway because the replayed copy is byte-exact.
    /// Covering the stable identity keeps a corrupted wire image
    /// detectable without making the CRC depend on mutable scratch state.
    #[inline]
    pub fn fingerprint(&self, seq: u32) -> [u8; 24] {
        let mut out = [0u8; 24];
        out[..8].copy_from_slice(&self.id.to_le_bytes());
        out[8..12].copy_from_slice(&self.src.0.to_le_bytes());
        out[12..16].copy_from_slice(&self.dst.0.to_le_bytes());
        out[16..20].copy_from_slice(&seq.to_le_bytes());
        out[20..24].copy_from_slice(&self.injected_at.to_le_bytes());
        out
    }
}

/// Semantic class of a routing request; the engine uses it to perform the
/// header-flag bookkeeping of §IV-A and the bubble check of §IV-C.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// Deliver to the attached destination node.
    Eject,
    /// The minimal (or Valiant-minimal) next hop.
    Minimal,
    /// Non-minimal local hop (sets [`FLAG_LOCAL_MISROUTED`]).
    MisrouteLocal,
    /// Non-minimal global hop (sets [`FLAG_GLOBAL_MISROUTED`]).
    MisrouteGlobal,
    /// Enter the escape ring from the canonical network (bubble rule:
    /// needs space for *two* packets downstream).
    RingEnter,
    /// Advance along the escape ring (needs space for one packet).
    RingAdvance,
    /// Leave the escape ring through a canonical output (decrements
    /// `ring_exits_left`). Ejection from the ring is `Eject` and is
    /// always allowed.
    RingExit,
}

/// A routing request emitted by a policy for the packet at the head of an
/// input VC: "move this packet to output port `out_port`, into downstream
/// VC `out_vc`".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Output port index (router-local).
    pub out_port: u16,
    /// Downstream VC index the packet will occupy.
    pub out_vc: u8,
    /// Request class for flag/bubble bookkeeping.
    pub kind: RequestKind,
}

impl Request {
    /// Convenience constructor.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SimConfig::validate bounds ports by MAX_PORTS and VCs by MAX_VCS: RadixTooLarge and TooManyVcs"
    )]
    pub fn new(out_port: usize, out_vc: usize, kind: RequestKind) -> Self {
        Self {
            out_port: out_port as u16,
            out_vc: out_vc as u8,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_set_clear_roundtrip() {
        let mut p = Packet::default();
        assert!(!p.has(FLAG_GLOBAL_MISROUTED));
        p.set(FLAG_GLOBAL_MISROUTED);
        p.set(FLAG_ON_RING);
        assert!(p.has(FLAG_GLOBAL_MISROUTED));
        assert!(p.on_ring());
        p.clear(FLAG_ON_RING);
        assert!(!p.on_ring());
        assert!(p.has(FLAG_GLOBAL_MISROUTED));
    }

    #[test]
    fn packet_stays_small() {
        // Every VC head, FIFO tail, wheel arrival and replay copy is one:
        // 40 bytes, with a 32-bit `injected_at`.
        assert!(std::mem::size_of::<Packet>() <= 40);
    }
}
