//! Simulator configuration.
//!
//! Defaults reproduce the methodology of §V of the paper: packets of
//! 8 phits, 3 VCs on local links and injection queues, 2 VCs on global
//! links, 32-phit local FIFOs, 256-phit global FIFOs, 10-cycle local and
//! 100-cycle global link latencies, and an iterative separable batch
//! allocator with three iterations.
//!
//! What no run varies is a constant beside [`SimConfig`]: the link
//! latencies, the global FIFO depth, the physical ring's VC count, the
//! allocator's iterations and the LLR window and timeout slack. What the
//! experiments and property tests do vary — VC counts (Fig. 9), the
//! other buffer depths, the packet size, the ring model, BER, the LLR
//! retry budget and backoff cap, the congestion-management tuning — is
//! a field.

use ofar_topology::DragonflyParams;
use std::fmt;

/// A violated configuration invariant, reported by
/// [`SimConfig::validate`]. Each variant carries enough context to print
/// an actionable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `packet_size == 0`.
    ZeroPacketSize,
    /// A canonical buffer cannot hold one whole packet (VCT requirement).
    BufferTooSmall {
        /// Which buffer (`buf_local`, `buf_global`, `buf_injection`).
        name: &'static str,
        /// Configured capacity in phits.
        cap: usize,
        /// Packet size in phits.
        packet: usize,
    },
    /// The ring buffer cannot hold two packets (bubble condition, §IV-C).
    RingBufferNoBubble {
        /// Configured `buf_ring` capacity in phits.
        cap: usize,
    },
    /// Some link class has zero virtual channels.
    NoVcs,
    /// `h < 2`: the Dragonfly degenerates (no meaningful global
    /// diversity, and the §VII multi-ring story needs `h ≥ 2`).
    RadixTooSmall {
        /// Configured `h`.
        h: usize,
    },
    /// `p == 0` or `a < 2`: no node to inject or no local link, and the
    /// closed-form addressing divides by both.
    DegenerateGroup,
    /// More ports per router — `p + a − 1 + h`, plus one per ring of a
    /// physical escape subnetwork — than [`MAX_PORTS`].
    #[expect(missing_docs, reason = "the variant's doc names both fields")]
    RadixTooLarge { ports: usize, max: usize },
    /// Some port would carry more VCs (an embedded ring adds one escape
    /// VC to its landing ports) than [`MAX_VCS`].
    #[expect(missing_docs, reason = "the variant's doc names both fields")]
    TooManyVcs { vcs: usize, max: usize },
    /// An escape subnetwork was requested with zero rings.
    NoEscapeRing,
    /// More escape rings than the `h` edge-disjoint ones that exist.
    TooManyRings {
        /// Requested ring count.
        requested: usize,
        /// Configured `h` (the maximum).
        h: usize,
    },
    /// Multiple embedded rings need an even group size `a` (the Walecki
    /// decomposition used for rings beyond the first requires it).
    OddGroupMultiRing {
        /// Configured group size.
        a: usize,
    },
    /// An embedded escape ring needs at least two local VCs under the
    /// deadlock-avoidance ladder.
    EmbeddedRingTooFewVcs {
        /// Configured `vcs_local`.
        vcs_local: usize,
    },
    /// `ber` outside `[0, 1)` — a per-phit error probability of 1 or more
    /// can never deliver anything. (No payload: the offending `f64` would
    /// cost this enum its `Eq`.)
    BerOutOfRange,
    /// `llr_retry_budget == 0`: the link would escalate to fail-stop on
    /// its first wire error.
    ZeroLlrRetryBudget,
    /// `cm_target_occupancy` outside `(0, 1]` — the congestion sensor
    /// compares an occupancy *fraction* against it, so a target of 0
    /// throttles forever and a target above 1 never engages. (No
    /// payload: the offending `f64` would cost this enum its `Eq`.)
    CmTargetOutOfRange,
    /// `cm_hysteresis` outside `[0, cm_target_occupancy)` — the release
    /// threshold `target − hysteresis` must stay positive or a throttled
    /// NIC can never recover full rate.
    CmHysteresisOutOfRange,
    /// `cm_min_rate` outside `(0, 1]` — a floor of 0 would let the
    /// throttle block injection outright (starvation), and a floor above
    /// 1 is not a floor.
    CmMinRateOutOfRange,
}

/// Local link latency in cycles (§V: 10).
pub const LAT_LOCAL: u64 = 10;

/// Global link latency in cycles (§V: 100). A physical ring wire takes
/// the latency of the topology step it spans.
pub const LAT_GLOBAL: u64 = 100;

/// Capacity of each global-link VC FIFO, in phits (§V: 256).
pub const BUF_GLOBAL: usize = 256;

/// Virtual channels on the physical ring ports (§V: the same as local
/// links, "for regularity"; constant even when Fig. 9 reduces
/// `vcs_local`).
pub const VCS_RING: usize = 3;

/// Iterations of the separable batch allocator (§V: 3).
pub const ALLOC_ITERS: usize = 3;

/// Sender replay-buffer depth per link, in packets. The receiver tracks
/// acceptance in a 64-bit selective-repeat bitmap, hence at most 64.
pub const LLR_WINDOW: usize = 8;

/// Extra cycles beyond one round trip before a retransmit timeout
/// fires. It exceeds the ack turnaround jitter (one allocator pass), so
/// a timeout is never spurious on a healthy link.
pub const LLR_TIMEOUT_SLACK: u64 = 64;

const _: () = assert!(LLR_WINDOW >= 1 && LLR_WINDOW <= 64);

/// Most ports a router may have: the allocator keeps its matched and
/// proposed sets in one `u64` each (and ports travel as `u16`, the at
/// most `h` ring indices as `i8`). The 64-port router of §I has 63.
pub const MAX_PORTS: usize = u64::BITS as usize;

/// Most VCs a port may have: VC indices and counts travel as `u8`.
pub const MAX_VCS: usize = u8::MAX as usize;

/// The last cycle a run may reach: `Packet::injected_at` and the
/// allocator's least-recently-served stamps (cycle + 1) are 32-bit, so
/// [`crate::Network::step`] refuses to run the cycle whose stamp would
/// not fit. 2³² − 1 cycles is about 54,000 times the paper's longest run.
pub const LAST_CYCLE: u64 = u32::MAX as u64;

/// A run of `cycles` cycles from cycle `from` would pass [`LAST_CYCLE`]:
/// refused before it starts, by every surface that takes a run length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PastLastCycle {
    /// The cycle the run would start at.
    pub from: u64,
    /// The cycles asked for.
    pub cycles: u64,
}

impl PastLastCycle {
    /// `Ok` when `cycles` more cycles from cycle `from` end at or before
    /// [`LAST_CYCLE`].
    pub fn check(from: u64, cycles: u64) -> Result<(), Self> {
        match from.checked_add(cycles) {
            Some(end) if end <= LAST_CYCLE => Ok(()),
            _ => Err(Self { from, cycles }),
        }
    }
}

impl fmt::Display for PastLastCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles from cycle {} run past the last cycle {LAST_CYCLE} (cycle stamps are 32-bit)",
            self.cycles, self.from
        )
    }
}

impl std::error::Error for PastLastCycle {}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::ZeroPacketSize => write!(f, "packet_size must be positive"),
            Self::BufferTooSmall { name, cap, packet } => write!(
                f,
                "{name} ({cap} phits) cannot hold one {packet}-phit packet \
                 (VCT needs whole-packet buffers)"
            ),
            Self::RingBufferNoBubble { cap } => write!(
                f,
                "buf_ring ({cap} phits) must hold two packets for the bubble condition"
            ),
            Self::NoVcs => write!(f, "every link class needs at least one VC"),
            Self::RadixTooSmall { h } => {
                write!(
                    f,
                    "h = {h} is below the minimum of 2 (degenerate Dragonfly)"
                )
            }
            Self::DegenerateGroup => {
                write!(
                    f,
                    "a router needs a node (p >= 1), a group two routers (a >= 2)"
                )
            }
            Self::RadixTooLarge { ports, max } => write!(
                f,
                "{ports} ports per router exceed the {max} the allocator's bit words hold"
            ),
            Self::TooManyVcs { vcs, max } => {
                write!(f, "{vcs} VCs on one port exceed the maximum of {max}")
            }
            Self::NoEscapeRing => write!(f, "an escape subnetwork needs at least one ring"),
            Self::TooManyRings { requested, h } => write!(
                f,
                "at most h = {h} edge-disjoint escape rings exist (requested {requested})"
            ),
            Self::OddGroupMultiRing { a } => write!(
                f,
                "multiple embedded rings need an even group size (a = {a} is odd)"
            ),
            Self::EmbeddedRingTooFewVcs { vcs_local } => write!(
                f,
                "an embedded escape ring needs vcs_local >= 2 (got {vcs_local})"
            ),
            Self::BerOutOfRange => write!(f, "ber must lie in [0, 1)"),
            Self::ZeroLlrRetryBudget => {
                write!(
                    f,
                    "llr_retry_budget must be positive (0 escalates on first error)"
                )
            }
            Self::CmTargetOutOfRange => {
                write!(f, "cm_target_occupancy must lie in (0, 1]")
            }
            Self::CmHysteresisOutOfRange => write!(
                f,
                "cm_hysteresis must lie in [0, cm_target_occupancy) so the \
                 release threshold stays positive"
            ),
            Self::CmMinRateOutOfRange => write!(
                f,
                "cm_min_rate must lie in (0, 1] (a zero floor starves injection)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// How the escape subnetwork is realized (§IV-C, §VII).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum RingMode {
    /// No escape ring. Only safe for routings that are deadlock-free by
    /// VC ordering (MIN, VAL, PB, PAR).
    #[default]
    None,
    /// A dedicated physical ring: two extra ports per router and one
    /// extra (uni-directional pair) wire per router.
    Physical,
    /// The ring embedded on the base topology: one extra *escape* virtual
    /// channel on each link that belongs to the Hamiltonian cycle.
    Embedded,
}

/// Full simulator configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Topology sizing.
    pub params: DragonflyParams,
    /// Packet size in phits (paper: 8).
    pub packet_size: usize,
    /// Virtual channels per local-link input (paper: 3).
    pub vcs_local: usize,
    /// Virtual channels per global-link input (paper: 2).
    pub vcs_global: usize,
    /// Virtual channels per injection queue (paper: 3).
    pub vcs_injection: usize,
    /// Capacity of each local-link VC FIFO, in phits (paper: 32).
    pub buf_local: usize,
    /// Capacity of each injection VC FIFO, in phits.
    pub buf_injection: usize,
    /// Capacity of each ring VC FIFO, in phits (physical and embedded).
    pub buf_ring: usize,
    /// Escape subnetwork model.
    pub ring: RingMode,
    /// Maximum number of times a packet may abandon the escape ring
    /// (livelock bound, §IV-C). Ejection never counts.
    pub max_ring_exits: u8,
    /// Number of escape rings to embed/attach (§VII fault-tolerance
    /// extension; up to `h` pairwise edge-disjoint rings exist).
    pub escape_rings: usize,
    /// RNG seed (packet destinations are chosen by the traffic layer; the
    /// engine RNG covers allocator and misroute tie-breaking).
    pub seed: u64,
    /// Per-phit Bernoulli bit-error rate of every network link, in
    /// `[0, 1)`. Nonzero enables the link-level retransmission layer;
    /// per-link overrides via [`crate::fault::FaultKind::SetLinkBer`].
    pub ber: f64,
    /// Backoff cap: the timeout doubles per retry up to a factor of
    /// `2^llr_backoff_cap`.
    pub llr_backoff_cap: u32,
    /// Retries allowed per packet before the link is declared
    /// persistently failing and escalated to the §VII fail-stop path.
    pub llr_retry_budget: u32,
    /// Enable the congestion-management layer: per-NIC token-bucket
    /// injection throttling driven by per-router occupancy sensing, plus
    /// escape-ring admission protection in OFAR. Throttling only delays
    /// `on_inject`; packets already in flight are never slowed, so CDG
    /// certification and conformance envelopes are unchanged.
    pub cm_enabled: bool,
    /// Sensed-occupancy fraction at which a router's NICs throttle to
    /// `cm_min_rate`, in `(0, 1]`.
    pub cm_target_occupancy: f64,
    /// Hysteresis band: a throttled router returns to full rate only
    /// once sensed occupancy falls below `cm_target_occupancy −
    /// cm_hysteresis`. Must lie in `[0, cm_target_occupancy)`.
    pub cm_hysteresis: f64,
    /// Throttled injection rate floor as a fraction of full rate, in
    /// `(0, 1]`. Strictly positive so the throttle can never block
    /// injection outright.
    pub cm_min_rate: f64,
}

impl SimConfig {
    /// The paper's §V configuration for a balanced maximum-size Dragonfly
    /// with the given `h` (the paper evaluates `h = 6`).
    pub fn paper(h: usize) -> Self {
        Self {
            params: DragonflyParams::balanced(h),
            packet_size: 8,
            vcs_local: 3,
            vcs_global: 2,
            vcs_injection: 3,
            buf_local: 32,
            buf_injection: 32,
            buf_ring: 32,
            ring: RingMode::None,
            max_ring_exits: 4,
            escape_rings: 1,
            seed: 0xD5A6_0F17,
            ber: 0.0,
            llr_backoff_cap: 6,
            llr_retry_budget: 16,
            cm_enabled: false,
            cm_target_occupancy: 0.55,
            cm_hysteresis: 0.15,
            cm_min_rate: 0.1,
        }
    }

    /// The reduced-resource configuration of Fig. 9: 2 VCs on local links
    /// and 1 on global links, embedded ring.
    pub fn reduced_vcs(h: usize) -> Self {
        Self {
            vcs_local: 2,
            vcs_global: 1,
            vcs_injection: 2,
            ring: RingMode::Embedded,
            ..Self::paper(h)
        }
    }

    /// Override the escape ring model.
    pub fn with_ring(mut self, ring: RingMode) -> Self {
        self.ring = ring;
        self
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the per-phit bit-error rate (nonzero enables LLR).
    pub fn with_ber(mut self, ber: f64) -> Self {
        self.ber = ber;
        self
    }

    /// Enable the congestion-management layer with the default tuning
    /// (target occupancy 0.55, hysteresis 0.15, rate floor 0.1).
    pub fn with_cm(mut self) -> Self {
        self.cm_enabled = true;
        self
    }

    /// Validate invariants the engine depends on.
    ///
    /// # Errors
    /// Returns the first violated constraint as a typed [`ConfigError`]
    /// (its `Display` impl yields a human-readable description).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.packet_size == 0 {
            return Err(ConfigError::ZeroPacketSize);
        }
        if self.params.h < 2 {
            return Err(ConfigError::RadixTooSmall { h: self.params.h });
        }
        for (name, cap) in [
            ("buf_local", self.buf_local),
            ("buf_global", BUF_GLOBAL),
            ("buf_injection", self.buf_injection),
        ] {
            if cap < self.packet_size {
                return Err(ConfigError::BufferTooSmall {
                    name,
                    cap,
                    packet: self.packet_size,
                });
            }
        }
        if self.ring != RingMode::None && self.buf_ring < 2 * self.packet_size {
            return Err(ConfigError::RingBufferNoBubble { cap: self.buf_ring });
        }
        if self.vcs_local == 0 || self.vcs_global == 0 || self.vcs_injection == 0 {
            return Err(ConfigError::NoVcs);
        }
        if self.ring != RingMode::None {
            if self.escape_rings == 0 {
                return Err(ConfigError::NoEscapeRing);
            }
            if self.escape_rings > self.params.h {
                return Err(ConfigError::TooManyRings {
                    requested: self.escape_rings,
                    h: self.params.h,
                });
            }
            if self.escape_rings > 1 && self.params.a % 2 == 1 {
                return Err(ConfigError::OddGroupMultiRing { a: self.params.a });
            }
            if self.ring == RingMode::Embedded && self.vcs_local < 2 {
                return Err(ConfigError::EmbeddedRingTooFewVcs {
                    vcs_local: self.vcs_local,
                });
            }
        }
        if !(0.0..1.0).contains(&self.ber) {
            return Err(ConfigError::BerOutOfRange);
        }
        if self.llr_retry_budget == 0 {
            return Err(ConfigError::ZeroLlrRetryBudget);
        }
        if !(self.cm_target_occupancy > 0.0 && self.cm_target_occupancy <= 1.0) {
            return Err(ConfigError::CmTargetOutOfRange);
        }
        if !(self.cm_hysteresis >= 0.0 && self.cm_hysteresis < self.cm_target_occupancy) {
            return Err(ConfigError::CmHysteresisOutOfRange);
        }
        if !(self.cm_min_rate > 0.0 && self.cm_min_rate <= 1.0) {
            return Err(ConfigError::CmMinRateOutOfRange);
        }
        // Last, so that whatever failed before these existed still
        // fails the same way.
        let DragonflyParams { p, a, h } = self.params;
        if p == 0 || a < 2 {
            return Err(ConfigError::DegenerateGroup);
        }
        let ring_ports = usize::from(self.ring == RingMode::Physical) * self.escape_rings;
        let ports = [a - 1, h, ring_ports]
            .iter()
            .fold(p, |sum, &n| sum.saturating_add(n));
        if ports > MAX_PORTS {
            return Err(ConfigError::RadixTooLarge {
                ports,
                max: MAX_PORTS,
            });
        }
        // An embedded ring adds one escape VC to its landing ports.
        let escape_vc = usize::from(self.ring == RingMode::Embedded);
        let vcs = self
            .vcs_local
            .max(self.vcs_global)
            .saturating_add(escape_vc);
        let vcs = vcs.max(self.vcs_injection).max(VCS_RING);
        if vcs > MAX_VCS {
            return Err(ConfigError::TooManyVcs { vcs, max: MAX_VCS });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_methodology() {
        let c = SimConfig::paper(6);
        assert_eq!(c.packet_size, 8);
        assert_eq!((c.vcs_local, c.vcs_global, c.vcs_injection), (3, 2, 3));
        assert_eq!(VCS_RING, c.vcs_local);
        assert_eq!((c.buf_local, BUF_GLOBAL), (32, 256));
        assert_eq!((LAT_LOCAL, LAT_GLOBAL), (10, 100));
        assert_eq!(ALLOC_ITERS, 3);
        assert_eq!((LLR_WINDOW, LLR_TIMEOUT_SLACK), (8, 64));
        assert_eq!(c.params.nodes(), 5256);
        c.validate().unwrap();
    }

    #[test]
    fn reduced_vc_config_matches_fig9() {
        let c = SimConfig::reduced_vcs(4);
        assert_eq!((c.vcs_local, c.vcs_global), (2, 1));
        assert_eq!(c.ring, RingMode::Embedded);
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_sub_packet_buffers() {
        let mut c = SimConfig::paper(2);
        c.buf_local = 4;
        let err = c.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::BufferTooSmall {
                name: "buf_local",
                cap: 4,
                packet: 8
            }
        );
        assert!(err.to_string().contains("buf_local"));
    }

    #[test]
    fn validation_rejects_bubble_less_ring_buffers() {
        let mut c = SimConfig::paper(2).with_ring(RingMode::Embedded);
        c.buf_ring = 8;
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::RingBufferNoBubble { cap: 8 });
        assert!(err.to_string().contains("bubble"));
    }

    #[test]
    fn validation_rejects_degenerate_radix() {
        let mut c = SimConfig::paper(2);
        c.params = DragonflyParams::balanced(1);
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::RadixTooSmall { h: 1 }
        );
    }

    #[test]
    fn validation_bounds_the_radix_by_the_allocator_word() {
        // h = 16 is the 64-port router of §I: 63 canonical ports, and a
        // physical ring takes the last one.
        let mut c = SimConfig::paper(16);
        assert_eq!(c.params.ports_per_router(), MAX_PORTS - 1);
        c.validate().unwrap();
        c.ring = RingMode::Physical;
        c.validate().unwrap();
        c.escape_rings = 2;
        let err = c.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::RadixTooLarge {
                ports: MAX_PORTS + 1,
                max: MAX_PORTS
            }
        );
        assert!(err.to_string().contains("65 ports"));
        // Embedded rings add VCs, not ports.
        c.ring = RingMode::Embedded;
        c.validate().unwrap();
        let mut c = SimConfig::paper(2);
        c.params.p = MAX_PORTS - c.params.a - c.params.h + 1;
        c.validate().unwrap();
        c.params.p += 1;
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::RadixTooLarge { ports: 65, .. }
        ));
        c.params.p = usize::MAX;
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::RadixTooLarge { .. }
        ));
    }

    #[test]
    fn validation_bounds_the_vcs_of_a_port() {
        let mut c = SimConfig::paper(2);
        c.vcs_injection = MAX_VCS;
        c.validate().unwrap();
        c.vcs_injection += 1;
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::TooManyVcs {
                vcs: 256,
                max: MAX_VCS
            }
        );
        // An embedded ring's landing ports carry one VC more.
        let mut c = SimConfig::paper(2).with_ring(RingMode::Embedded);
        c.vcs_global = MAX_VCS - 1;
        c.validate().unwrap();
        c.vcs_global = MAX_VCS;
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::TooManyVcs { vcs: 256, .. }
        ));
        // A physical ring adds no escape VC to a global port.
        c.ring = RingMode::Physical;
        c.validate().unwrap();
        c.vcs_injection = MAX_VCS + 1;
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::TooManyVcs { .. }
        ));
    }

    #[test]
    fn validation_rejects_groups_the_addressing_cannot_divide_by() {
        for (p, a) in [(0, 4), (2, 1), (2, 0)] {
            let mut c = SimConfig::paper(2);
            (c.params.p, c.params.a) = (p, a);
            assert_eq!(c.validate().unwrap_err(), ConfigError::DegenerateGroup);
        }
    }

    #[test]
    fn validation_rejects_zero_vcs_and_ring_excess() {
        let mut c = SimConfig::paper(2);
        c.vcs_global = 0;
        assert_eq!(c.validate().unwrap_err(), ConfigError::NoVcs);

        let mut c = SimConfig::paper(2).with_ring(RingMode::Embedded);
        c.escape_rings = 5;
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::TooManyRings { requested: 5, h: 2 }
        );
    }

    #[test]
    fn validation_rejects_bad_llr_parameters() {
        let mut c = SimConfig::paper(2);
        c.ber = 1.0;
        assert_eq!(c.validate().unwrap_err(), ConfigError::BerOutOfRange);
        c.ber = -0.1;
        assert_eq!(c.validate().unwrap_err(), ConfigError::BerOutOfRange);
        c.ber = 0.1;
        c.validate().unwrap();

        c.llr_retry_budget = 0;
        assert_eq!(c.validate().unwrap_err(), ConfigError::ZeroLlrRetryBudget);
        c.llr_retry_budget = 1;
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_cm_parameters() {
        let mut c = SimConfig::paper(2).with_cm();
        assert!(c.cm_enabled);
        c.validate().unwrap();

        c.cm_target_occupancy = 0.0;
        assert_eq!(c.validate().unwrap_err(), ConfigError::CmTargetOutOfRange);
        c.cm_target_occupancy = 1.5;
        assert_eq!(c.validate().unwrap_err(), ConfigError::CmTargetOutOfRange);
        c.cm_target_occupancy = f64::NAN;
        assert_eq!(c.validate().unwrap_err(), ConfigError::CmTargetOutOfRange);
        c.cm_target_occupancy = 1.0;
        c.validate().unwrap();

        c.cm_hysteresis = -0.1;
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::CmHysteresisOutOfRange
        );
        c.cm_hysteresis = 1.0; // == target: release threshold hits zero
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::CmHysteresisOutOfRange
        );
        c.cm_hysteresis = 0.0;
        c.validate().unwrap();

        c.cm_min_rate = 0.0;
        assert_eq!(c.validate().unwrap_err(), ConfigError::CmMinRateOutOfRange);
        c.cm_min_rate = 1.1;
        assert_eq!(c.validate().unwrap_err(), ConfigError::CmMinRateOutOfRange);
        c.cm_min_rate = 1.0;
        c.validate().unwrap();
    }

    #[test]
    fn cm_bounds_hold_even_when_disabled() {
        // The snapshot codec round-trips the cm fields regardless of
        // cm_enabled, so validate() polices them unconditionally.
        let mut c = SimConfig::paper(2);
        assert!(!c.cm_enabled);
        c.cm_min_rate = 0.0;
        assert_eq!(c.validate().unwrap_err(), ConfigError::CmMinRateOutOfRange);
    }

    #[test]
    fn validation_rejects_embedded_ring_with_single_local_vc() {
        let mut c = SimConfig::paper(2).with_ring(RingMode::Embedded);
        c.vcs_local = 1;
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::EmbeddedRingTooFewVcs { vcs_local: 1 }
        );
    }
}
