//! Deterministic checkpoint/restart: a versioned binary codec for the
//! complete live state of a [`crate::network::Network`].
//!
//! ## Why hand-rolled
//!
//! The build is offline (no serde), and the format must be *stable and
//! checkable*: a snapshot written by one run is read back by a different
//! process, possibly after a crash, so every section carries its own
//! CRC-32 ([`crate::crc`]) and the whole
//! file is sealed by a trailing checksum. A corrupted, truncated or
//! mismatched file must fail closed with a typed [`SnapshotError`] —
//! never a panic, never a silently wrong resume.
//!
//! ## Layout
//!
//! The frame, CONFIG and POLICY are fixed-width little-endian. Every
//! integer of STATE is an unsigned LEB128 varint ([`Enc::var`]: seven
//! bits a byte, one byte below 128, two below 16,384), but for the
//! words of random or packed bits — the LLR's RNG state and its
//! delivered-id bitmap — which stay eight bytes ([`Enc::word`]).
//!
//! ```text
//! magic            8 B   b"OFARSNAP"
//! version          u32   SNAPSHOT_VERSION
//! fingerprint      u32   CRC-32 of the CONFIG section payload
//! section*               tag u8, len u32, crc u32, payload
//!   CONFIG (1)           canonical SimConfig + mechanism name
//!   POLICY (2)           opaque mechanism state (Policy::save_state)
//!   STATE  (3)           routers, queues, stats, faults, LLR (varints)
//! file checksum    u32   CRC-32 of every preceding byte
//! ```
//!
//! The *fingerprint* is the identity of the simulated machine: restoring
//! into a network whose own canonical config/mechanism encoding hashes
//! differently is refused ([`SnapshotError::ConfigMismatch`]) before any
//! state is touched. Because the CONFIG section embeds the full
//! [`SimConfig`] and the mechanism name, a snapshot is also
//! *self-describing*: [`peek_header`] recovers enough to rebuild the
//! network from the file alone (`ofar-sim --replay`).
//!
//! ## Adding a field
//!
//! Every layout is written through one cursor, [`Enc`], and read through
//! its counterpart, [`Dec`]. A new field of the STATE section
//! (`network/state.rs`) is one `Enc` call in `encode_state` — an integer
//! through [`Enc::var`], a flag or tag through [`Enc::u8`] — one `Dec`
//! call in `decode_state` followed by `l.field(d, || label)`, and a
//! [`SNAPSHOT_VERSION`] bump — nothing else. The label is what
//! `Network::locate_state_field` prints; a count is read with
//! [`Dec::len`], given the byte size of its smallest item, each varint
//! counted at its one-byte floor; `labels_cover_the_state_section`
//! (`tests/snapshot_roundtrip.rs`) fails if the announcement is
//! forgotten. The decoder accepts only what the encoder writes —
//! minimal varints, flags of 0 or 1, set keys ascending — so a file it
//! restores saves back byte for byte
//! (`crates/engine/tests/state_mutation.rs`).
//!
//! ## Bit-exactness guarantee
//!
//! Restore is exact: running N+M cycles produces the same [`crate::stats::Stats`] and
//! delivery stream as running N cycles, snapshotting, restoring and
//! running M more. Everything with dynamics is captured — VC FIFOs,
//! link/credit pipelines, LLR replay buffers and seq/ack windows, fault
//! state and pending plan events, policy-internal RNGs and tables, and
//! the engine counters. Snapshots are taken at step boundaries, where
//! the per-cycle scratch state of the allocator is empty by construction.

#![allow(
    clippy::cast_possible_truncation,
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "the byte cursor and the file frame run between steps, never inside one; each slice is cut to the length its conversion needs"
)]

use crate::config::{RingMode, SimConfig};
use crate::crc::{crc32, Crc32};
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// File magic: the first eight bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"OFARSNAP";

/// Current format version. Bumped on any layout change; older readers
/// refuse newer files ([`SnapshotError::UnsupportedVersion`]).
///
/// v3: the POLICY section of the RNG-carrying mechanisms encodes a
/// *lane table* (one RNG stream per shard) instead of a single stream —
/// see `ofar-routing`'s `RngLanes::save`.
///
/// v4: the STATE section no longer carries the per-port link phit
/// counters (and their `Option` tag) after the delivery log; per-link
/// counting is a [`crate::Tap::Transmit`] tap outside snapshots.
///
/// v5: the CONFIG section no longer carries the seven model constants of
/// [`crate::config`] (`LAT_LOCAL` … `LLR_TIMEOUT_SLACK`), 56 bytes; the
/// STATE section is unchanged.
///
/// v6: every integer of the STATE section is an unsigned LEB128 varint
/// ([`Enc::var`]) but the RNG state and bitmap words ([`Enc::word`]);
/// the header, the section headers, CONFIG and POLICY are unchanged.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Section tag: canonical configuration + mechanism name.
pub(crate) const SEC_CONFIG: u8 = 1;
/// Section tag: opaque policy state.
pub(crate) const SEC_POLICY: u8 = 2;
/// Section tag: engine state.
pub(crate) const SEC_STATE: u8 = 3;
/// Bytes of a section header: tag `u8`, payload length `u32`, payload
/// CRC `u32`.
const SECTION_HEADER: usize = 9;

/// Why a snapshot could not be written, read or restored. Every failure
/// mode of a foreign byte stream maps here; restore never panics on bad
/// input and never partially applies a bad file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's format version is not one this build reads.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The file was written for a different simulated machine: its
    /// config fingerprint does not match the restoring network's.
    ConfigMismatch {
        /// Fingerprint of the restoring network's configuration.
        expected: u32,
        /// Fingerprint recorded in the file.
        found: u32,
    },
    /// The file was written under a different routing mechanism.
    MechanismMismatch {
        /// Mechanism of the restoring network.
        expected: String,
        /// Mechanism recorded in the file.
        found: String,
    },
    /// The file ends before its declared length (or is shorter than the
    /// fixed header).
    Truncated,
    /// The whole-file checksum does not match: the file was corrupted
    /// after (or while) being written.
    FileChecksum,
    /// A section's CRC-32 does not match its payload.
    SectionChecksum {
        /// Tag of the corrupt section.
        tag: u8,
    },
    /// The bytes decode to a structurally impossible state (a length
    /// that disagrees with the configuration, an out-of-range enum tag,
    /// a buffer overflow…). The payload names the first inconsistency.
    Malformed(&'static str),
    /// The policy rejected its saved state.
    Policy(String),
    /// The configuration the file names is one the deadlock verifier
    /// refuses to certify; the payload is its reason. Returned by
    /// callers that gate a run on certification (`ofar-sim --replay`),
    /// never by the codec.
    Uncertified(String),
    /// Running the file on for the cycles asked would pass
    /// [`crate::LAST_CYCLE`]. Returned by callers that run a restored
    /// network on (`ofar-sim --replay`), never by the codec.
    PastLastCycle(crate::PastLastCycle),
    /// An I/O error while reading or writing a snapshot file.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            Self::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            Self::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot is for a different configuration \
                 (fingerprint {found:#010x}, this network is {expected:#010x})"
            ),
            Self::MechanismMismatch { expected, found } => write!(
                f,
                "snapshot was taken under mechanism {found}, this network runs {expected}"
            ),
            Self::Truncated => write!(f, "snapshot file is truncated"),
            Self::FileChecksum => write!(f, "snapshot file checksum mismatch (corrupted file)"),
            Self::SectionChecksum { tag } => {
                write!(f, "snapshot section {tag} checksum mismatch")
            }
            Self::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            Self::Policy(why) => write!(f, "policy state rejected: {why}"),
            Self::Uncertified(why) => write!(f, "snapshot configuration not certified: {why}"),
            Self::PastLastCycle(past) => write!(f, "{past}"),
            Self::Io(why) => write!(f, "snapshot I/O error: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------
// The byte cursor
// ---------------------------------------------------------------------

/// Byte sink, little-endian where fixed-width: the one writer behind
/// every binary layout of the workspace (the three snapshot sections,
/// the mechanisms' `save_state`, the checkpoint envelope). It is the
/// buffer it appends to: wrap one to continue it, take `.0` back when
/// done.
#[derive(Debug, Default)]
pub struct Enc(pub Vec<u8>);

impl Enc {
    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    /// Four bytes, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Eight bytes, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// `usize` travels as `u64` so the format is width-independent.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// `f64` travels as its IEEE-754 bit pattern (bit-exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Each word as by [`Enc::u64`], no length prefix.
    pub fn u64s(&mut self, vs: &[u64]) {
        vs.iter().for_each(|&v| self.u64(v));
    }
    /// Raw bytes, no length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }
    /// An unsigned LEB128 varint: seven value bits per byte, low group
    /// first, the high bit set on every byte but the last — one byte
    /// below 2^7, two below 2^14, at most ten.
    #[inline]
    pub fn var(&mut self, v: u64) {
        if v < 1 << 7 {
            self.0.push(v as u8);
        } else if v < 1 << 14 {
            self.0.extend_from_slice(&[v as u8 | 0x80, (v >> 7) as u8]);
        } else {
            let mut v = v;
            while v >= 0x80 {
                self.0.push(v as u8 | 0x80);
                v >>= 7;
            }
            self.0.push(v as u8);
        }
    }
    /// Each value as by [`Enc::var`], no length prefix.
    pub fn vars<T: Copy + Into<u64>>(&mut self, vs: &[T]) {
        vs.iter().for_each(|&v| self.var(v.into()));
    }
    /// A word of bits rather than a count or a stamp — an RNG state, a
    /// bitmap — as by [`Enc::u64`]: fixed eight bytes, where a varint of
    /// a random or all-ones word would take nine or ten.
    pub fn word(&mut self, v: u64) {
        self.u64(v);
    }
    /// A `u32` length, then the UTF-8 bytes.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked reader, the counterpart of [`Enc`]: every read can
/// fail with [`SnapshotError::Truncated`] (or, for a varint, with
/// [`SnapshotError::Malformed`]) instead of panicking.
#[derive(Debug)]
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes consumed so far (the STATE decoder's field labelling).
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Forget the bytes not yet consumed: every further read fails, so a
    /// decoder that has found what it was run for stops there.
    pub(crate) fn end(&mut self) {
        self.data = &self.data[..self.pos];
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }
    /// Four bytes, little-endian.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    /// Eight bytes, little-endian.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    /// `n` words as by [`Dec::u64`].
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, SnapshotError> {
        let raw = self.bytes(n.checked_mul(8).ok_or(SnapshotError::Truncated)?)?;
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().unwrap());
        Ok(raw.chunks_exact(8).map(word).collect())
    }
    /// A `u64` that must fit this platform's `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Malformed("usize overflow"))
    }
    /// A varint written by [`Enc::var`]. Every value has exactly one
    /// encoding: a run longer than ten bytes, a value past `u64::MAX` and
    /// a zero last byte after the first (a value padded to more bytes
    /// than it needs) are `Malformed`.
    #[inline]
    pub fn var(&mut self) -> Result<u64, SnapshotError> {
        match self.data[self.pos..] {
            [b0, ..] if b0 < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b0))
            }
            [b0, b1, ..] if (1..0x80).contains(&b1) => {
                self.pos += 2;
                Ok(u64::from(b0 & 0x7F) | u64::from(b1) << 7)
            }
            _ => self.var_long(),
        }
    }
    /// [`Dec::var`] past its one- and two-byte fast paths.
    fn var_long(&mut self) -> Result<u64, SnapshotError> {
        let mut v = 0;
        for i in 0..10 {
            let b = *self
                .data
                .get(self.pos + i)
                .ok_or(SnapshotError::Truncated)?;
            v |= u64::from(b & 0x7F) << (7 * i);
            if b < 0x80 {
                if i == 9 && b > 1 {
                    return Err(SnapshotError::Malformed("varint overflows u64"));
                }
                if b == 0 && i > 0 {
                    return Err(SnapshotError::Malformed("varint is not minimal"));
                }
                self.pos += i + 1;
                return Ok(v);
            }
        }
        Err(SnapshotError::Malformed("varint longer than ten bytes"))
    }
    /// A varint that must fit a `u32`.
    #[inline]
    pub fn var_u32(&mut self) -> Result<u32, SnapshotError> {
        u32::try_from(self.var()?).map_err(|_| SnapshotError::Malformed("varint overflows u32"))
    }
    /// A varint that must fit this platform's `usize`.
    #[inline]
    pub fn var_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.var()?).map_err(|_| SnapshotError::Malformed("usize overflow"))
    }
    /// A flag byte: 0 or 1, anything else `Malformed(what)`.
    pub fn flag(&mut self, what: &'static str) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed(what)),
        }
    }
    /// An IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A string written by [`Enc::str`].
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.u32()? as usize;
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| SnapshotError::Malformed("non-UTF-8 string"))
    }

    /// Read the varint count of a sequence whose items take at least
    /// `item_bytes` each. Refused (`Malformed(what)`) when that many
    /// items cannot fit in the bytes that remain — so a hostile count is
    /// turned away before anything is allocated for it, and what a valid
    /// one reserves is proportional to the file.
    pub fn len(&mut self, item_bytes: usize, what: &'static str) -> Result<usize, SnapshotError> {
        let n = self.var_usize()?;
        self.fits(n, item_bytes, what)
    }
    /// [`Dec::len`] for a count written by [`Enc::usize`].
    pub fn fixed_len(
        &mut self,
        item_bytes: usize,
        what: &'static str,
    ) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        self.fits(n, item_bytes, what)
    }
    /// `n`, if `n` items of `item_bytes` fit in the bytes that remain.
    fn fits(
        &self,
        n: usize,
        item_bytes: usize,
        what: &'static str,
    ) -> Result<usize, SnapshotError> {
        if n.saturating_mul(item_bytes) > self.remaining() {
            return Err(SnapshotError::Malformed(what));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// Packet codec (shared by the router, queue and LLR sections)
// ---------------------------------------------------------------------

/// Shortest encoding of one packet: no Valiant intermediate, each of
/// `id`, `injected_at`, `src`, `dst` and `cur_group` a one-byte varint,
/// plus the intermediate's tag and the six `u8` fields. What a count of
/// packets is checked against by [`Dec::len`].
pub(crate) const PACKET_MIN_BYTES: usize = 12;

/// Append the full wire image of one packet header: its integers as
/// varints, its tag and `u8` fields as bytes.
pub(crate) fn encode_packet(e: &mut Enc, p: &crate::packet::Packet) {
    let crate::packet::Packet {
        id,
        injected_at,
        src,
        dst,
        intermediate,
        flags,
        ring_exits_left,
        local_hops,
        global_hops,
        ring_hops,
        wait,
        cur_group,
    } = *p;
    e.var(id);
    e.var(injected_at.into());
    e.var(src.0.into());
    e.var(dst.0.into());
    match intermediate {
        None => e.u8(0),
        Some(g) => {
            e.u8(1);
            e.var(g.0.into());
        }
    }
    e.bytes(&[
        flags,
        ring_exits_left,
        local_hops,
        global_hops,
        ring_hops,
        wait,
    ]);
    e.var(cur_group.0.into());
}

/// Decode one packet header written by [`encode_packet`].
pub(crate) fn decode_packet(d: &mut Dec<'_>) -> Result<crate::packet::Packet, SnapshotError> {
    let id = d.var()?;
    let injected_at = u32::try_from(d.var()?)
        .map_err(|_| SnapshotError::Malformed("injected_at past the last cycle"))?;
    let src = ofar_topology::NodeId::new(d.var_u32()?);
    let dst = ofar_topology::NodeId::new(d.var_u32()?);
    let intermediate = match d.u8()? {
        0 => None,
        1 => Some(ofar_topology::GroupId::new(d.var_u32()?)),
        _ => return Err(SnapshotError::Malformed("bad Option tag in packet")),
    };
    let t = d.bytes(6)?;
    Ok(crate::packet::Packet {
        id,
        injected_at,
        src,
        dst,
        intermediate,
        flags: t[0],
        ring_exits_left: t[1],
        local_hops: t[2],
        global_hops: t[3],
        ring_hops: t[4],
        wait: t[5],
        cur_group: ofar_topology::GroupId::new(d.var_u32()?),
    })
}

/// [`decode_packet`] for a packet of `topo`'s network: one that names a
/// node or group outside it is `Malformed`, not restored for the
/// resumed run to index its tables with.
pub(crate) fn decode_packet_in(
    d: &mut Dec<'_>,
    topo: &ofar_topology::Dragonfly,
) -> Result<crate::packet::Packet, SnapshotError> {
    let p = decode_packet(d)?;
    let node = |n: ofar_topology::NodeId| n.idx() < topo.num_nodes();
    let group = |g: ofar_topology::GroupId| g.idx() < topo.num_groups();
    if node(p.src) && node(p.dst) && group(p.cur_group) && p.intermediate.is_none_or(group) {
        Ok(p)
    } else {
        Err(SnapshotError::Malformed(
            "packet names a node or group outside the network",
        ))
    }
}

// ---------------------------------------------------------------------
// Canonical configuration encoding (the machine identity)
// ---------------------------------------------------------------------

/// Canonical byte encoding of a configuration + mechanism name. The
/// CRC-32 of these bytes is the snapshot's *config fingerprint*.
pub(crate) fn encode_config(cfg: &SimConfig, mechanism: &str) -> Vec<u8> {
    let SimConfig {
        params: ofar_topology::DragonflyParams { p, a, h },
        packet_size,
        vcs_local,
        vcs_global,
        vcs_injection,
        buf_local,
        buf_injection,
        buf_ring,
        ring,
        max_ring_exits,
        escape_rings,
        seed,
        ber,
        llr_backoff_cap,
        llr_retry_budget,
        cm_enabled,
        cm_target_occupancy,
        cm_hysteresis,
        cm_min_rate,
    } = *cfg;
    let mut e = Enc::default();
    e.usize(p);
    e.usize(a);
    e.usize(h);
    e.usize(packet_size);
    e.usize(vcs_local);
    e.usize(vcs_global);
    e.usize(vcs_injection);
    e.usize(buf_local);
    e.usize(buf_injection);
    e.usize(buf_ring);
    e.u8(match ring {
        RingMode::None => 0,
        RingMode::Physical => 1,
        RingMode::Embedded => 2,
    });
    e.u8(max_ring_exits);
    e.usize(escape_rings);
    e.u64(seed);
    e.f64(ber);
    e.u32(llr_backoff_cap);
    e.u32(llr_retry_budget);
    e.u8(u8::from(cm_enabled));
    e.f64(cm_target_occupancy);
    e.f64(cm_hysteresis);
    e.f64(cm_min_rate);
    e.str(mechanism);
    e.0
}

/// Decode the CONFIG section back into a configuration + mechanism name.
pub(crate) fn decode_config(data: &[u8]) -> Result<(SimConfig, String), SnapshotError> {
    let mut d = Dec::new(data);
    let params = ofar_topology::DragonflyParams {
        p: d.usize()?,
        a: d.usize()?,
        h: d.usize()?,
    };
    let cfg = SimConfig {
        params,
        packet_size: d.usize()?,
        vcs_local: d.usize()?,
        vcs_global: d.usize()?,
        vcs_injection: d.usize()?,
        buf_local: d.usize()?,
        buf_injection: d.usize()?,
        buf_ring: d.usize()?,
        ring: match d.u8()? {
            0 => RingMode::None,
            1 => RingMode::Physical,
            2 => RingMode::Embedded,
            _ => return Err(SnapshotError::Malformed("unknown ring mode")),
        },
        max_ring_exits: d.u8()?,
        escape_rings: d.usize()?,
        seed: d.u64()?,
        ber: d.f64()?,
        llr_backoff_cap: d.u32()?,
        llr_retry_budget: d.u32()?,
        cm_enabled: d.flag("unknown cm_enabled flag")?,
        cm_target_occupancy: d.f64()?,
        cm_hysteresis: d.f64()?,
        cm_min_rate: d.f64()?,
    };
    let mech = d.str()?;
    if !d.is_empty() {
        return Err(SnapshotError::Malformed("trailing bytes in CONFIG"));
    }
    cfg.validate()
        .map_err(|_| SnapshotError::Malformed("embedded configuration fails validation"))?;
    Ok((cfg, mech))
}

/// Config fingerprint: CRC-32 of the canonical configuration encoding.
pub fn config_fingerprint(cfg: &SimConfig, mechanism: &str) -> u32 {
    crc32(&encode_config(cfg, mechanism))
}

// ---------------------------------------------------------------------
// File framing
// ---------------------------------------------------------------------

/// Assemble a complete snapshot file in one buffer. CONFIG is the
/// (small) canonical encoding the fingerprint is taken of; POLICY and
/// STATE are encoded in place by their closures, which only append.
/// Every payload byte is checksummed once: a section's CRC is folded
/// into the file checksum by [`Crc32::combine`], not recomputed.
pub(crate) fn write_frame(
    config: &[u8],
    policy: impl FnOnce(&mut Enc),
    state: impl FnOnce(&mut Enc),
) -> Vec<u8> {
    let mut e = Enc::default();
    e.bytes(&SNAPSHOT_MAGIC);
    e.u32(SNAPSHOT_VERSION);
    e.u32(crc32(config));
    let mut file = Crc32::default();
    file.update(&e.0);
    write_section(&mut e, &mut file, SEC_CONFIG, |e| e.bytes(config));
    write_section(&mut e, &mut file, SEC_POLICY, policy);
    write_section(&mut e, &mut file, SEC_STATE, state);
    e.u32(file.finish());
    e.0
}

/// Append one section: reserve its header, let `encode` append the
/// payload, then patch the length and CRC in and fold both into `file`.
fn write_section(e: &mut Enc, file: &mut Crc32, tag: u8, encode: impl FnOnce(&mut Enc)) {
    let header = e.0.len();
    e.u8(tag);
    e.bytes(&[0; SECTION_HEADER - 1]);
    let payload = e.0.len();
    encode(e);
    let len = e.0.len() - payload;
    let crc = crc32(&e.0[payload..]);
    let len_field = u32::try_from(len).expect("snapshot section over 4 GiB");
    e.0[header + 1..header + 5].copy_from_slice(&len_field.to_le_bytes());
    e.0[header + 5..payload].copy_from_slice(&crc.to_le_bytes());
    file.update(&e.0[header..payload]);
    file.combine(crc, len);
}

/// The parsed frame of a validated snapshot: section payload slices.
#[derive(Debug)]
pub(crate) struct Frame<'a> {
    pub(crate) fingerprint: u32,
    pub(crate) config: &'a [u8],
    pub(crate) policy: &'a [u8],
    pub(crate) state: &'a [u8],
}

/// Validate the envelope (magic, version, per-section and whole-file
/// checksums) and split it into its sections. The state bytes are
/// untrusted until the caller decodes them, but they are at least the
/// bytes that were written.
///
/// Every payload byte is checksummed once: walking the sections yields
/// their CRCs, and the file checksum follows from those by
/// [`Crc32::combine`]. The walk runs before the file checksum has vouched
/// for the lengths it reads, so it trusts none of them — a length is a
/// bounds-checked offset and nothing more — and its verdict is held back
/// until the file checksum and the version have been judged: every
/// input meets the checks in the order magic, file checksum, version,
/// sections in file order, missing section.
pub(crate) fn parse_frame(bytes: &[u8]) -> Result<Frame<'_>, SnapshotError> {
    // Fixed header (16) + three empty sections + trailer (4).
    if bytes.len() < 16 + 3 * SECTION_HEADER + 4 {
        return Err(SnapshotError::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    // "Does not even look like a snapshot" comes first, for nicer
    // operator errors.
    if body[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut file = Crc32::default();
    file.update(&body[..16]);
    let sections = walk_sections(&body[16..], &mut file);
    // Only a walk that accepted every section has folded the whole body
    // into `file`; any other file is checksummed the plain way.
    let file_crc = match sections {
        Ok(_) => file.finish(),
        Err(_) => crc32(body),
    };
    if file_crc != Dec::new(trailer).u32()? {
        return Err(SnapshotError::FileChecksum);
    }
    let d = &mut Dec::new(&body[8..16]);
    let version = d.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let fingerprint = d.u32()?;
    let [config, policy, state] = sections?;
    Ok(Frame {
        fingerprint,
        config,
        policy,
        state,
    })
}

/// Split the section area of a snapshot into its CONFIG, POLICY and
/// STATE payloads, folding every header and payload into `file` on the
/// way; the first defect in file order is the error.
fn walk_sections<'a>(area: &'a [u8], file: &mut Crc32) -> Result<[&'a [u8]; 3], SnapshotError> {
    let d = &mut Dec::new(area);
    let mut sections: [Option<&[u8]>; 3] = [None; 3];
    while !d.is_empty() {
        let at = d.pos();
        let tag = d.u8()?;
        let len = d.u32()? as usize;
        let crc = d.u32()?;
        let payload = d.bytes(len)?;
        if crc32(payload) != crc {
            return Err(SnapshotError::SectionChecksum { tag });
        }
        file.update(&area[at..at + SECTION_HEADER]);
        file.combine(crc, len);
        let slot = match tag {
            SEC_CONFIG => 0,
            SEC_POLICY => 1,
            SEC_STATE => 2,
            _ => return Err(SnapshotError::Malformed("unknown section tag")),
        };
        if sections[slot].replace(payload).is_some() {
            return Err(SnapshotError::Malformed("duplicate section"));
        }
    }
    match sections {
        [Some(config), Some(policy), Some(state)] => Ok([config, policy, state]),
        _ => Err(SnapshotError::Malformed("missing section")),
    }
}

// ---------------------------------------------------------------------
// Snapshot diffing
// ---------------------------------------------------------------------

/// The first divergence between two snapshot files, named at section
/// granularity; `Network::locate_state_field` refines a STATE offset
/// to a field path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionDiff {
    /// Which section diverges first: `"config"`, `"policy"` or
    /// `"state"` (sections are compared in file order).
    pub section: &'static str,
    /// Byte offset of the first differing byte within that section's
    /// payload. When the payloads differ only in length, the offset is
    /// the shorter length.
    pub offset: usize,
    /// Payload lengths `(a, b)` of the diverging section.
    pub lens: (usize, usize),
}

impl fmt::Display for SectionDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} section diverges at byte {} (lens {} vs {})",
            self.section, self.offset, self.lens.0, self.lens.1
        )
    }
}

/// First differing byte offset of two slices, if any (length mismatch
/// with a common prefix reports the shorter length).
fn first_mismatch(a: &[u8], b: &[u8]) -> Option<usize> {
    let n = a.len().min(b.len());
    match a[..n].iter().zip(&b[..n]).position(|(x, y)| x != y) {
        Some(i) => Some(i),
        None if a.len() != b.len() => Some(n),
        None => None,
    }
}

/// Compare two snapshot files section by section and name the first
/// divergent section. `Ok(None)` means byte-identical payloads (the
/// commutativity certificate's pass condition). Either file failing to
/// parse is an error, not a diff.
pub fn diff_snapshots(a: &[u8], b: &[u8]) -> Result<Option<SectionDiff>, SnapshotError> {
    let fa = parse_frame(a)?;
    let fb = parse_frame(b)?;
    for (section, pa, pb) in [
        ("config", fa.config, fb.config),
        ("policy", fa.policy, fb.policy),
        ("state", fa.state, fb.state),
    ] {
        if let Some(offset) = first_mismatch(pa, pb) {
            return Ok(Some(SectionDiff {
                section,
                offset,
                lens: (pa.len(), pb.len()),
            }));
        }
    }
    Ok(None)
}

/// Everything needed to rebuild a network from a snapshot file alone:
/// the embedded configuration and mechanism name. Returned by
/// [`peek_header`] without decoding (or trusting) the state payload.
#[derive(Clone, Debug)]
pub struct SnapshotHeader {
    /// Format version of the file.
    pub version: u32,
    /// Config fingerprint recorded in the file.
    pub fingerprint: u32,
    /// The full simulated-machine configuration.
    pub config: SimConfig,
    /// Display name of the routing mechanism ("OFAR", "PB", …).
    pub mechanism: String,
}

/// Validate a snapshot's envelope and decode its self-describing header.
pub fn peek_header(bytes: &[u8]) -> Result<SnapshotHeader, SnapshotError> {
    let frame = parse_frame(bytes)?;
    let (config, mechanism) = decode_config(frame.config)?;
    Ok(SnapshotHeader {
        version: SNAPSHOT_VERSION,
        fingerprint: frame.fingerprint,
        config,
        mechanism,
    })
}

// ---------------------------------------------------------------------
// File I/O (atomic)
// ---------------------------------------------------------------------

/// Write `bytes` to `path` atomically — the one atomic writer of the
/// workspace (snapshots, checkpoints, store objects, reports). The full
/// content lands in a sibling temporary — the file name with `.tmp`
/// appended, so `x.snap` and `x.txt` never share one — which is then
/// renamed over the target: a crash mid-write never leaves a
/// half-written file under the final name. (A truncated temporary can
/// survive a crash; nothing reads files of that name.)
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("path has no file name"))?
        .to_os_string();
    tmp.push(".tmp");
    let tmp = path.with_file_name(tmp);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Read a snapshot file into memory. Does not validate — pair with
/// [`peek_header`] or `Network::restore_snapshot`, which do.
pub fn read_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    Ok(std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot file around three literal payloads.
    fn frame(config: &[u8], policy: &[u8], state: &[u8]) -> Vec<u8> {
        write_frame(config, |e| e.bytes(policy), |e| e.bytes(state))
    }

    #[test]
    fn frame_roundtrip_and_sections() {
        let f = frame(b"cfg", b"pol", b"state");
        let p = parse_frame(&f).unwrap();
        assert_eq!(p.config, b"cfg");
        assert_eq!(p.policy, b"pol");
        assert_eq!(p.state, b"state");
        assert_eq!(p.fingerprint, crc32(b"cfg"));
    }

    #[test]
    fn a_repeated_section_is_refused() {
        // A second CONFIG section spliced in before the trailer, the
        // file re-sealed: everything checksums, and the later section
        // must not silently win.
        let mut f = frame(b"cfg", b"pol", b"state");
        f.truncate(f.len() - 4);
        let mut e = Enc(f);
        e.u8(SEC_CONFIG);
        e.u32(3);
        e.u32(crc32(b"CFG"));
        e.bytes(b"CFG");
        e.u32(crc32(&e.0));
        assert_eq!(
            parse_frame(&e.0).unwrap_err(),
            SnapshotError::Malformed("duplicate section")
        );
    }

    /// One packet whose fields all differ, with or without a Valiant
    /// intermediate.
    fn packet(intermediate: Option<u32>) -> crate::packet::Packet {
        crate::packet::Packet {
            id: 0x0102_0304_0506_0708,
            injected_at: 0x1112_1314,
            src: ofar_topology::NodeId::new(0x2122_2324),
            dst: ofar_topology::NodeId::new(0x3132_3334),
            intermediate: intermediate.map(ofar_topology::GroupId::new),
            flags: 0x41,
            ring_exits_left: 0x42,
            local_hops: 0x43,
            global_hops: 0x44,
            ring_hops: 0x45,
            wait: 0x46,
            cur_group: ofar_topology::GroupId::new(0x5152_5354),
        }
    }

    fn encoded(p: &crate::packet::Packet) -> Vec<u8> {
        let mut e = Enc::default();
        encode_packet(&mut e, p);
        e.0
    }

    #[test]
    fn a_packet_round_trips_with_and_without_an_intermediate() {
        // `id` is nine varint bytes, `injected_at` and the three 30-bit
        // ids five each, then the tag and six `u8` fields; the group adds
        // five.
        for (g, len) in [(None, 36), (Some(0x6162_6364), 41)] {
            let p = packet(g);
            let bytes = encoded(&p);
            assert_eq!(bytes.len(), len);
            let mut d = Dec::new(&bytes);
            assert_eq!(decode_packet(&mut d), Ok(p));
            assert!(d.is_empty());
        }
        // Every varint at its one-byte floor.
        let mut small = packet(None);
        small.id = 1;
        small.injected_at = 2;
        small.src = ofar_topology::NodeId::new(3);
        small.dst = ofar_topology::NodeId::new(4);
        small.cur_group = ofar_topology::GroupId::new(5);
        assert_eq!(encoded(&small).len(), PACKET_MIN_BYTES);
    }

    #[test]
    fn every_strict_prefix_of_a_packet_is_truncated() {
        for g in [None, Some(7)] {
            let bytes = encoded(&packet(g));
            for n in 0..bytes.len() {
                assert_eq!(
                    decode_packet(&mut Dec::new(&bytes[..n])),
                    Err(SnapshotError::Truncated),
                    "{g:?}, {n} bytes"
                );
            }
        }
    }

    #[test]
    fn an_intermediate_tag_of_2_is_malformed() {
        let mut bytes = encoded(&packet(Some(7)));
        // The tag follows `id` (nine bytes), `injected_at`, `src` and
        // `dst` (five each).
        let tag = 9 + 3 * 5;
        assert_eq!(bytes[tag], 1);
        bytes[tag] = 2;
        assert_eq!(
            decode_packet(&mut Dec::new(&bytes)),
            Err(SnapshotError::Malformed("bad Option tag in packet"))
        );
    }

    /// The LEB128 image of `v`, spelled out byte by byte.
    fn var_bytes(v: u64) -> Vec<u8> {
        let mut e = Enc::default();
        e.var(v);
        e.0
    }

    #[test]
    fn varints_round_trip_at_every_length_boundary() {
        for (v, len) in [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u32::MAX), 5),
            (1 << 63, 10),
            (u64::MAX, 10),
        ] {
            let bytes = var_bytes(v);
            assert_eq!(bytes.len(), len, "{v}");
            let mut d = Dec::new(&bytes);
            assert_eq!(d.var(), Ok(v));
            assert!(d.is_empty(), "{v}: bytes left over");
            for n in 0..len {
                assert_eq!(
                    Dec::new(&bytes[..n]).var(),
                    Err(SnapshotError::Truncated),
                    "{v}: {n}-byte prefix"
                );
            }
        }
        assert_eq!(var_bytes(300), [0xAC, 0x02]);
        assert_eq!(var_bytes(u64::MAX)[9], 1);
    }

    #[test]
    fn a_varint_has_exactly_one_encoding() {
        let refused = |bytes: &[u8]| match Dec::new(bytes).var() {
            Err(SnapshotError::Malformed(why)) => why,
            other => panic!("{bytes:02x?}: {other:?}"),
        };
        // Padded: zero as two bytes, 1 as three, u64::MAX with an 11th.
        assert_eq!(refused(&[0x80, 0x00]), "varint is not minimal");
        assert_eq!(refused(&[0x81, 0x80, 0x00]), "varint is not minimal");
        let mut eleven = var_bytes(u64::MAX);
        eleven[9] |= 0x80;
        eleven.push(0);
        assert_eq!(refused(&eleven), "varint longer than ten bytes");
        assert_eq!(refused(&[0x80; 11]), "varint longer than ten bytes");
        // A tenth byte above 1 carries bits past 2^64.
        for last in [2, 0x40, 0x7F] {
            let mut over = vec![0xFF; 9];
            over.push(last);
            assert_eq!(refused(&over), "varint overflows u64");
        }
        // A narrower target refuses what does not fit it.
        assert_eq!(
            Dec::new(&var_bytes(1 << 32)).var_u32(),
            Err(SnapshotError::Malformed("varint overflows u32"))
        );
        assert_eq!(
            Dec::new(&var_bytes(u64::from(u32::MAX))).var_u32(),
            Ok(u32::MAX)
        );
    }

    #[test]
    fn a_count_must_fit_the_bytes_that_remain() {
        let mut e = Enc::default();
        e.var(3);
        e.bytes(&[0; 23]);
        // 3 × 8 > 23: refused by name before anything is read or reserved.
        assert_eq!(
            Dec::new(&e.0).len(8, "count"),
            Err(SnapshotError::Malformed("count"))
        );
        e.u8(0);
        assert_eq!(Dec::new(&e.0).len(8, "count"), Ok(3));
        // A count whose byte size overflows is refused the same way, as
        // is a fixed-width one.
        let mut e = Enc::default();
        e.var(u64::MAX / 2);
        assert_eq!(
            Dec::new(&e.0).len(12, "count"),
            Err(SnapshotError::Malformed("count"))
        );
        let mut e = Enc::default();
        e.usize(2);
        e.bytes(&[0; 15]);
        assert_eq!(
            Dec::new(&e.0).fixed_len(8, "count"),
            Err(SnapshotError::Malformed("count"))
        );
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let f = frame(b"configuration", b"policy-bytes", b"state-bytes");
        for i in 0..f.len() {
            let mut bad = f.clone();
            bad[i] ^= 0x40;
            assert!(
                parse_frame(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let f = frame(b"cfg", b"", b"some state");
        for n in 0..f.len() {
            assert!(parse_frame(&f[..n]).is_err(), "truncation to {n} accepted");
        }
    }

    #[test]
    fn version_bump_is_refused() {
        let mut f = frame(b"c", b"p", b"s");
        // Patch the version field and re-seal the file checksum.
        f[8] = (SNAPSHOT_VERSION + 1) as u8;
        let n = f.len();
        let crc = crc32(&f[..n - 4]);
        f[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            parse_frame(&f).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: SNAPSHOT_VERSION + 1
            }
        );
    }

    #[test]
    fn config_encoding_roundtrips() {
        let mut cfg = SimConfig::paper(3).with_seed(77);
        cfg.ber = 1e-5;
        let bytes = encode_config(&cfg, "OFAR");
        let (back, mech) = decode_config(&bytes).unwrap();
        assert_eq!(back, cfg);
        assert_eq!(mech, "OFAR");
        assert_eq!(config_fingerprint(&cfg, "OFAR"), crc32(&bytes));
        assert_ne!(
            config_fingerprint(&cfg, "OFAR"),
            config_fingerprint(&cfg, "MIN")
        );
    }

    /// The CONFIG section is the machine's identity: any change to its
    /// bytes moves every fingerprint, so it must come with a
    /// [`SNAPSHOT_VERSION`] bump and a new pin here.
    #[test]
    fn config_bytes_are_pinned() {
        let bytes = encode_config(&SimConfig::paper(4), "OFAR");
        assert_eq!((bytes.len(), crc32(&bytes)), (147, 3_994_990_923));
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join("ofar-snap-test");
        let path = dir.join("t.snap");
        let f = frame(b"a", b"b", b"c");
        write_atomic(&path, &f).unwrap();
        assert_eq!(read_file(&path).unwrap(), f);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sibling_files_do_not_share_a_temporary() {
        // `stall-7.snap` and `stall-7.txt` differ only in extension. A
        // stale temporary of one (a writer killed mid-write) must be
        // neither clobbered nor consumed by writing the other.
        let dir = std::env::temp_dir().join("ofar-snap-siblings");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("stall-7.snap.tmp"), b"half a snapshot").unwrap();
        write_atomic(&dir.join("stall-7.txt"), b"report").unwrap();
        assert_eq!(
            std::fs::read(dir.join("stall-7.snap.tmp")).unwrap(),
            b"half a snapshot"
        );
        assert_eq!(std::fs::read(dir.join("stall-7.txt")).unwrap(), b"report");
        assert!(
            !dir.join("stall-7.txt.tmp").exists(),
            "temporary left behind"
        );
        assert!(
            !dir.join("stall-7.tmp").exists(),
            "extension-replacing name"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
