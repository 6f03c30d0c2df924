//! Snapshot/restart correctness: restoring a snapshot is *bit-exact*
//! (run N+M cycles ≡ run N, snapshot, restore into a fresh process
//! image, run M — identical counters and delivery streams, for every
//! mechanism, under faults and link errors), and every corrupted file is
//! refused with a typed error, without panicking and without touching
//! the network it was offered to.

use ofar::engine::config::LAT_GLOBAL;
use ofar::engine::crc32;
use ofar::prelude::*;
use proptest::prelude::*;

const H: usize = 2;

/// A run harness with fault flaps and a lossy link, exercising every
/// stateful subsystem a snapshot must carry: VC buffers, credits, link
/// pipelines, LLR replay buffers, fault state, policy and traffic RNGs.
struct Harness {
    net: Network<Mechanism>,
    source: OpenLoop,
}

impl Harness {
    fn new(kind: MechanismKind, seed: u64, ber: f64, faults: bool) -> Self {
        Self::build(kind, seed, ber, faults, false)
    }

    /// `cm: true` enables the congestion-management layer and swaps the
    /// traffic for an overload (ADV+1 at 0.8 phits/node/cycle), so the
    /// snapshot is taken with hot EWMA sensors, short token buckets and
    /// an engaged ring guard — the CM state a resume must carry exactly.
    fn build(kind: MechanismKind, seed: u64, ber: f64, faults: bool, cm: bool) -> Self {
        let mut cfg = SimConfig::paper(H).with_seed(seed);
        cfg.ber = ber;
        if cm {
            cfg = cfg.with_cm();
        }
        let mut h = Self::on(cfg, kind, seed, faults);
        h.net.enable_delivery_log();
        h
    }

    /// The same harness on any machine, delivery log left off.
    fn on(cfg: SimConfig, kind: MechanismKind, seed: u64, faults: bool) -> Self {
        let cm = cfg.cm_enabled;
        let cfg = kind.adapt_config(cfg);
        let mut net = Network::new(cfg, kind.build(&cfg, seed));
        let topo = Dragonfly::new(cfg.params);
        if faults {
            let r0 = RouterId::new(0);
            let plan = FaultPlan::random_global_failures(&topo, 2, 450, 0xFA1).transient_link(
                300,
                900,
                r0,
                topo.global_neighbor(r0, 0).0,
            );
            net.set_fault_plan(plan);
        }
        let spec = if cm {
            TrafficSpec::adversarial(1)
        } else {
            TrafficSpec::mix2(H)
        };
        let load = if cm { 0.8 } else { 0.3 };
        let source = OpenLoop::new(&topo, spec, load, cfg.packet_size, seed);
        Self { net, source }
    }

    fn drive(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.source.cycle(|src, dst| self.net.generate(src, dst));
            self.net.step();
        }
    }

    /// Full observable history: every engine counter plus the exact
    /// delivery stream.
    fn signature(&mut self) -> (Vec<u64>, Vec<(u64, u32)>) {
        (
            self.net.stats().counters().to_vec(),
            self.net.take_delivery_log(),
        )
    }
}

/// run(n + m) ≡ run(n) → snapshot → restore into a fresh network → run(m).
fn assert_resume_bit_exact(kind: MechanismKind, seed: u64, n: u64, m: u64, ber: f64) {
    // The uninterrupted reference.
    let mut reference = Harness::new(kind, seed, ber, true);
    reference.drive(n + m);
    let want = reference.signature();

    // The interrupted run: snapshot at n...
    let mut first = Harness::new(kind, seed, ber, true);
    first.drive(n);
    let bytes = first.net.save_snapshot();

    // ...restored into a *fresh* network (no shared state with `first`),
    // with the traffic RNG streams carried over exactly as the
    // checkpoint layer does.
    let mut resumed = Harness::new(kind, seed, ber, false);
    resumed
        .net
        .restore_snapshot(&bytes)
        .unwrap_or_else(|e| panic!("{kind}: restore failed: {e}"));
    resumed
        .source
        .gen
        .set_rng_state(first.source.gen.rng_state());
    resumed
        .source
        .bern
        .set_rng_state(first.source.bern.rng_state());
    assert_eq!(resumed.net.now(), n, "{kind}: clock not restored");
    resumed.drive(m);
    let got = resumed.signature();

    assert_eq!(want.0, got.0, "{kind}: counters diverge after resume");
    assert_eq!(
        want.1, got.1,
        "{kind}: delivery stream diverges after resume"
    );
}

/// Same contract with the congestion-management layer on: the snapshot
/// is taken mid-overload, so the occupancy EWMAs, per-NIC token-bucket
/// levels, hysteresis latches and ring-guard wait counters must all
/// round-trip bit-exactly or the resumed throttle decisions diverge.
fn assert_cm_resume_bit_exact(kind: MechanismKind, seed: u64, n: u64, m: u64) {
    let mut reference = Harness::build(kind, seed, 0.0, false, true);
    reference.drive(n + m);
    let want = reference.signature();

    let mut first = Harness::build(kind, seed, 0.0, false, true);
    first.drive(n);
    assert!(
        first.net.stats().cm_throttle_deferrals > 0,
        "{kind}: split point must land mid-throttle or the test is vacuous"
    );
    let bytes = first.net.save_snapshot();

    let mut resumed = Harness::build(kind, seed, 0.0, false, true);
    resumed
        .net
        .restore_snapshot(&bytes)
        .unwrap_or_else(|e| panic!("{kind}: restore failed: {e}"));
    resumed
        .source
        .gen
        .set_rng_state(first.source.gen.rng_state());
    resumed
        .source
        .bern
        .set_rng_state(first.source.bern.rng_state());
    resumed.drive(m);
    let got = resumed.signature();

    assert_eq!(want.0, got.0, "{kind}: CM counters diverge after resume");
    assert_eq!(
        want.1, got.1,
        "{kind}: CM delivery stream diverges after resume"
    );
}

#[test]
fn resume_is_bit_exact_for_every_mechanism() {
    for kind in MechanismKind::paper_set() {
        // n = 600 lands mid-flap (transient link down 300..900) with a
        // nonzero BER, so the snapshot carries a degraded fault state
        // and in-flight LLR replay buffers.
        assert_resume_bit_exact(kind, 17, 600, 700, 2e-5);
    }
}

#[test]
fn resume_is_bit_exact_with_congestion_management() {
    // OFAR adds the ring-guard wait state on top of the shared
    // bucket/EWMA machinery but spreads occupancy well enough that its
    // sensors only cross the throttle target around cycle 2800 at this
    // load; VAL congests its randomized middle hops within 750 cycles.
    // Both split mid-overload (deferrals > 0 is asserted).
    assert_cm_resume_bit_exact(MechanismKind::Ofar, 29, 3_000, 600);
    assert_cm_resume_bit_exact(MechanismKind::Valiant, 31, 800, 600);
}

#[test]
fn resume_is_bit_exact_for_par() {
    // PAR is outside paper_set() but carries its own RNG.
    assert_resume_bit_exact(MechanismKind::Par, 23, 500, 500, 2e-5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The split point must not matter: any prefix length n, any
    /// continuation m, any seed.
    #[test]
    fn resume_is_bit_exact_at_any_split(
        seed in 1u64..1_000,
        n in 50u64..900,
        m in 50u64..400,
    ) {
        assert_resume_bit_exact(MechanismKind::Ofar, seed, n, m, 2e-5);
    }

    /// Any single corrupted byte is detected: restore returns a typed
    /// error (no panic) and leaves the target network untouched, proven
    /// by running it on and comparing against an undisturbed twin.
    #[test]
    fn corrupted_byte_is_rejected_and_leaves_network_intact(
        seed in 1u64..100,
        pos_sel in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let mut h = Harness::new(MechanismKind::Ofar, seed, 2e-5, true);
        h.drive(400);
        let mut bytes = h.net.save_snapshot();
        let pos = pos_sel % bytes.len();
        bytes[pos] ^= 1 << bit;

        let mut victim = Harness::new(MechanismKind::Ofar, seed, 2e-5, true);
        victim.drive(100);
        let mut twin = Harness::new(MechanismKind::Ofar, seed, 2e-5, true);
        twin.drive(100);

        let err = victim.net.restore_snapshot(&bytes);
        prop_assert!(err.is_err(), "flip of byte {pos} bit {bit} accepted");
        victim.drive(300);
        twin.drive(300);
        prop_assert_eq!(victim.signature(), twin.signature(),
            "failed restore perturbed the network");
    }
}

#[test]
fn truncation_is_rejected_at_every_length() {
    let mut h = Harness::new(MechanismKind::Ofar, 5, 0.0, false);
    h.drive(200);
    let bytes = h.net.save_snapshot();
    let mut victim = Harness::new(MechanismKind::Ofar, 5, 0.0, false);
    let pristine = victim.net.save_snapshot();
    // Every cut re-checksums the prefix, so trying all of them is
    // quadratic in the file size while almost all take the same
    // whole-file-checksum exit. Sample by structure instead: every cut
    // through the headers and the first payloads, every cut around each
    // boundary the frame parser looks at (section header, payload start
    // and end, trailer), and a prime stride over the rest.
    let mut edges = vec![16, bytes.len() - 4];
    for (pos, len) in sections(&bytes) {
        edges.extend([pos, pos + 9, pos + 9 + len]);
    }
    assert_eq!(edges.len(), 2 + 3 * 3, "three sections expected");
    let cuts = (0..bytes.len())
        .filter(|&cut| cut < 4096 || cut % 997 == 0 || edges.iter().any(|&e| cut.abs_diff(e) <= 9));
    for cut in cuts {
        assert!(
            victim.net.restore_snapshot(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes accepted"
        );
    }
    assert_eq!(victim.net.save_snapshot(), pristine, "victim was touched");
}

/// (Header offset, payload length) of each section of a well-formed
/// snapshot, in file order.
fn sections(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut found = Vec::new();
    let mut pos = 16;
    while pos < bytes.len() - 4 {
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
        found.push((pos, len));
        pos += 9 + len;
    }
    found
}

/// Rewrite the trailer so the whole-file checksum holds again.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 4;
    let fixed = crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&fixed.to_le_bytes());
}

/// The checks run in one order — magic, whole-file checksum, version,
/// sections in file order, missing section — and each corrupt file is
/// refused by the *first* one it fails. In particular nothing a section
/// header says is believed before the file checksum has vouched for it:
/// a damaged length in an unsealed file is a checksum failure, never a
/// `Truncated` (or a panic) from following the length.
#[test]
fn validation_order_is_pinned() {
    use ofar::engine::{peek_header, SNAPSHOT_VERSION};
    let mut h = Harness::new(MechanismKind::Ofar, 5, 0.0, false);
    h.drive(200);
    let clean = h.net.save_snapshot();
    assert!(peek_header(&clean).is_ok());
    let refused = |bytes: &[u8]| peek_header(bytes).unwrap_err();
    let edited = |at: usize, mask: u8, sealed: bool| {
        let mut bad = clean.clone();
        bad[at] ^= mask;
        if sealed {
            reseal(&mut bad);
        }
        bad
    };
    let sections = sections(&clean);
    assert_eq!(sections.len(), 3);
    assert!(sections.iter().all(|&(_, len)| len > 1));

    for (i, &(at, len)) in sections.iter().enumerate() {
        let tag = i as u8 + 1;
        // A payload byte: the file checksum catches it; with the trailer
        // forged, the section's own CRC does.
        for byte in [at + 9, at + 9 + len / 2, at + 9 + len - 1] {
            assert_eq!(
                refused(&edited(byte, 0x10, false)),
                SnapshotError::FileChecksum
            );
            assert_eq!(
                refused(&edited(byte, 0x10, true)),
                SnapshotError::SectionChecksum { tag }
            );
        }
        // Every byte of the length field, grown and shrunk. Unsealed it
        // is a checksum failure whatever the length now points at.
        for byte in at + 1..at + 5 {
            for mask in [0x01, 0x80, 0xFF] {
                assert_eq!(
                    refused(&edited(byte, mask, false)),
                    SnapshotError::FileChecksum,
                    "section {tag}: length byte {} ^ {mask:#04x}, unsealed",
                    byte - at - 1
                );
            }
        }
        // Sealed, the length is followed: inside the file the section
        // CRC then covers other bytes; past its end it is a truncation
        // (one byte more already is, for STATE, the last section).
        let with_len = |len: usize| {
            let mut bad = clean.clone();
            bad[at + 1..at + 5].copy_from_slice(&(len as u32).to_le_bytes());
            reseal(&mut bad);
            bad
        };
        let grown = if i == 2 {
            SnapshotError::Truncated
        } else {
            SnapshotError::SectionChecksum { tag }
        };
        assert_eq!(refused(&with_len(len + 1)), grown);
        assert_eq!(
            refused(&with_len(len - 1)),
            SnapshotError::SectionChecksum { tag }
        );
        assert_eq!(refused(&with_len(clean.len())), SnapshotError::Truncated);
        assert_eq!(
            refused(&with_len(u32::MAX as usize)),
            SnapshotError::Truncated
        );
        // The stored CRC and the tag.
        assert_eq!(
            refused(&edited(at + 5, 0x01, false)),
            SnapshotError::FileChecksum
        );
        assert_eq!(
            refused(&edited(at + 5, 0x01, true)),
            SnapshotError::SectionChecksum { tag }
        );
        assert_eq!(
            refused(&edited(at, 0x40, false)),
            SnapshotError::FileChecksum
        );
        assert_eq!(
            refused(&edited(at, 0x40, true)),
            SnapshotError::Malformed("unknown section tag")
        );
    }
    // POLICY relabelled CONFIG; STATE cut away.
    let (policy_at, _) = sections[1];
    assert_eq!(
        refused(&edited(policy_at, 0x03, true)),
        SnapshotError::Malformed("duplicate section")
    );
    let (state_at, _) = sections[2];
    let mut short = clean[..state_at + 4].to_vec();
    reseal(&mut short);
    assert_eq!(refused(&short), SnapshotError::Malformed("missing section"));

    // Magic beats the checksum; the checksum beats the version; the
    // version beats whatever the sections hold.
    assert_eq!(refused(&edited(0, 0x20, false)), SnapshotError::BadMagic);
    assert_eq!(
        refused(&edited(8, 0x04, false)),
        SnapshotError::FileChecksum
    );
    let mut future = edited(8, 0x04, false);
    future[state_at + 9] ^= 1;
    future[policy_at] = 0x7F;
    reseal(&mut future);
    assert_eq!(
        refused(&future),
        SnapshotError::UnsupportedVersion {
            found: SNAPSHOT_VERSION ^ 4
        }
    );

    // A cut file is too short to be a snapshot, or fails its checksum.
    for cut in (0..clean.len()).filter(|cut| cut % 211 == 0 || clean.len() - cut < 16) {
        let want = if cut < 16 + 3 * 9 + 4 {
            SnapshotError::Truncated
        } else {
            SnapshotError::FileChecksum
        };
        assert_eq!(refused(&clean[..cut]), want, "cut to {cut} bytes");
    }
}

#[test]
fn future_format_version_is_refused() {
    let mut h = Harness::new(MechanismKind::Min, 5, 0.0, false);
    h.drive(100);
    let mut bytes = h.net.save_snapshot();
    // Bump the version field (bytes 8..12, after the magic) and patch the
    // whole-file checksum so only the version is wrong.
    let v = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    bytes[8..12].copy_from_slice(&(v + 1).to_le_bytes());
    reseal(&mut bytes);
    match h.net.restore_snapshot(&bytes) {
        Err(SnapshotError::UnsupportedVersion { found }) => assert_eq!(found, v + 1),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn config_mismatch_is_refused() {
    let mut h = Harness::new(MechanismKind::Ofar, 5, 0.0, false);
    h.drive(100);
    let bytes = h.net.save_snapshot();
    // Same mechanism, different seed — the config fingerprint differs.
    let mut other = Harness::new(MechanismKind::Ofar, 6, 0.0, false);
    match other.net.restore_snapshot(&bytes) {
        Err(SnapshotError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn mechanism_mismatch_is_refused() {
    // VAL and PB adapt SimConfig identically (no ring, same VCs), so the
    // only difference is the mechanism itself.
    let mut h = Harness::new(MechanismKind::Valiant, 5, 0.0, false);
    h.drive(100);
    let bytes = h.net.save_snapshot();
    let mut other = Harness::new(MechanismKind::Pb, 5, 0.0, false);
    match other.net.restore_snapshot(&bytes) {
        Err(SnapshotError::MechanismMismatch { .. }) => {}
        other => panic!("expected MechanismMismatch, got {other:?}"),
    }
}

#[test]
fn garbage_and_empty_files_are_refused() {
    let mut h = Harness::new(MechanismKind::Min, 5, 0.0, false);
    assert!(h.net.restore_snapshot(&[]).is_err());
    assert!(h.net.restore_snapshot(b"not a snapshot at all").is_err());
    let zeros = vec![0u8; 4096];
    assert!(h.net.restore_snapshot(&zeros).is_err());
}

// ---------------------------------------------------------------------
// Snapshot diffing: which section, which byte, which field.
// ---------------------------------------------------------------------

/// Apply `edit` to the payload of the `idx`-th section (0 = config,
/// 1 = policy, 2 = state) and re-seal the section and file checksums,
/// so the edited frame still *parses*: the change is visible only to
/// whoever reads the payload — the diff, or the STATE decoder's own
/// validation.
fn edit_section(bytes: &[u8], idx: usize, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let (pos, len) = sections(bytes)[idx];
    let payload = pos + 9;
    assert!(len > 0, "section {idx} is empty");
    edit(&mut out[payload..payload + len]);
    let crc = crc32(&out[payload..payload + len]);
    out[pos + 5..pos + 9].copy_from_slice(&crc.to_le_bytes());
    reseal(&mut out);
    out
}

/// Flip one bit of byte 0 in the `idx`-th section's payload — exactly
/// like a state difference between two valid runs.
fn flip_bit_in_section(bytes: &[u8], idx: usize) -> Vec<u8> {
    edit_section(bytes, idx, |payload| payload[0] ^= 1)
}

#[test]
fn equal_runs_and_roundtrips_diff_clean() {
    use ofar::engine::diff_snapshots;
    // Two independently-built identical runs must diff to None...
    let mut a = Harness::new(MechanismKind::Ofar, 9, 0.0, false);
    let mut b = Harness::new(MechanismKind::Ofar, 9, 0.0, false);
    a.drive(300);
    b.drive(300);
    let sa = a.net.save_snapshot();
    let sb = b.net.save_snapshot();
    assert_eq!(diff_snapshots(&sa, &sb).unwrap(), None);
    // ...and so must a snapshot taken again after restore (round trip).
    let mut fresh = Harness::new(MechanismKind::Ofar, 9, 0.0, false);
    fresh.net.restore_snapshot(&sa).unwrap();
    let again = fresh.net.save_snapshot();
    assert_eq!(diff_snapshots(&sa, &again).unwrap(), None);
}

/// Source queues are FIFOs of the arena whose tails sit in a pool that
/// grows 1,024 entries at a time. One queue chained through five of
/// those chunks, other nodes' packets linked in between and entries
/// recycled by 200 cycles of injection, must encode the bytes it always
/// did — whether it is restored into a fresh network or over one that
/// already holds queued packets of its own.
#[test]
fn source_queues_deeper_than_a_pool_chunk_round_trip() {
    let cfg = SimConfig::paper(H).with_seed(5);
    let build = || Harness::on(cfg, MechanismKind::Ofar, 5, false).net;
    let nodes = Dragonfly::new(cfg.params).num_nodes();
    let mut deep = build();
    for i in 0..5_000 {
        deep.generate(NodeId::new(0), NodeId::from(1 + i % (nodes - 1)));
        if i % 50 == 0 {
            deep.generate(NodeId::from(1 + i / 50 % (nodes - 1)), NodeId::new(0));
        }
    }
    deep.run(200);
    assert!(deep.source_queue_len(NodeId::new(0)) > 4 * 1_024);
    let bytes = deep.save_snapshot();

    let mut fresh = build();
    fresh.restore_snapshot(&bytes).unwrap();
    assert_eq!(fresh.save_snapshot(), bytes, "save → restore → save");

    let mut busy = build();
    for i in 0..60 * nodes {
        busy.generate(NodeId::from(i % nodes), NodeId::from((i + 1) % nodes));
    }
    busy.run(50);
    busy.restore_snapshot(&bytes).unwrap();
    assert_eq!(busy.audit_now(), [], "restored over queued packets");
    assert_eq!(busy.save_snapshot(), bytes);
    busy.run(300);
    deep.run(300);
    assert_eq!(busy.audit_now(), []);
    assert_eq!(busy.save_snapshot(), deep.save_snapshot());
}

/// The packets of each source queue in a STATE payload: per node, the
/// offset of each packet's wire image, head first. A packet is 35 bytes,
/// 39 with an intermediate group (the `Option` tag at byte 24).
fn source_queues(net: &Network<Mechanism>, payload: &[u8]) -> Vec<Vec<usize>> {
    let mut at = (0..payload.len())
        .find(|&o| net.locate_state_field(payload, o) == "source-queue count")
        .unwrap();
    let nodes = count_at(payload, at);
    at += 8;
    (0..nodes)
        .map(|_| {
            let n = count_at(payload, at);
            at += 8;
            (0..n)
                .map(|_| {
                    let pkt = at;
                    at += if payload[pkt + 24] == 0 { 35 } else { 39 };
                    pkt
                })
                .collect()
        })
        .collect()
}

/// A packet behind a source-queue head has not met `on_inject`: it is
/// exactly as `generate` made it, and the engine keeps only what the
/// node does not imply. A file queueing anything else there is refused.
#[test]
fn a_source_queue_tail_that_is_not_fresh_is_refused() {
    let mut h = Harness::new(MechanismKind::Ofar, 9, 0.0, false);
    h.drive(100);
    let node = NodeId::new(0);
    for _ in 0..3 {
        h.net.generate(node, NodeId::new(5));
    }
    let clean = h.net.save_snapshot();
    let mut payload = Vec::new();
    edit_section(&clean, 2, |p| payload = p.to_vec());
    let tail = source_queues(&h.net, &payload)[node.idx()][1];
    assert_eq!(
        h.net.locate_state_field(&payload, tail),
        format!("src_q[{}]", node.idx())
    );
    let set = |at: usize, v: u8| edit_section(&clean, 2, |p| p[at] = v);
    let cases = [
        ("a local hop taken", set(tail + 27, 1)),
        ("a foreign source", set(tail + 16, 1)),
        (
            "an intermediate group",
            splice_section(&clean, 2, |p| {
                p.splice(tail + 24..tail + 25, [1, 3, 0, 0, 0]);
            }),
        ),
        (
            "a ring exit spent",
            set(tail + 26, h.net.cfg().max_ring_exits - 1),
        ),
    ];

    let mut victim = Harness::new(MechanismKind::Ofar, 9, 0.0, false);
    victim.drive(100);
    let pristine = victim.net.save_snapshot();
    for (what, bytes) in cases {
        match victim.net.restore_snapshot(&bytes) {
            Err(SnapshotError::Malformed(_)) => {}
            other => panic!("{what}: expected Malformed, got {other:?}"),
        }
        assert_eq!(
            victim.net.save_snapshot(),
            pristine,
            "{what}: victim touched"
        );
    }
    victim.net.restore_snapshot(&clean).unwrap();
}

/// VAL and PB pick an intermediate group in `on_inject`, which edits the
/// source-queue head in place and leaves it there while its injection
/// buffer is full. Saved mid-burst with such heads waiting in front of
/// queued packets, the file restores and re-saves byte for byte, and
/// the resumed run stays with the uninterrupted one.
#[test]
fn a_burst_with_edited_heads_round_trips() {
    for kind in [MechanismKind::Valiant, MechanismKind::Pb] {
        let cfg = kind.adapt_config(SimConfig::paper(H).with_seed(3));
        let build = || Network::new(cfg, kind.build(&cfg, 3));
        let mut net = build();
        let topo = Dragonfly::new(cfg.params);
        OpenLoop::fill(&topo, TrafficSpec::adversarial(1), 40, 3, |src, dst| {
            net.generate(src, dst)
        });
        net.run(300);
        let bytes = net.save_snapshot();
        let mut payload = Vec::new();
        edit_section(&bytes, 2, |p| payload = p.to_vec());
        let edited_heads = source_queues(&net, &payload)
            .iter()
            .filter(|q| q.len() > 1 && payload[q[0] + 24] == 1)
            .count();
        assert!(
            edited_heads > 0,
            "{kind}: no queued packet behind an edited head"
        );

        let mut fresh = build();
        fresh.restore_snapshot(&bytes).unwrap();
        assert_eq!(
            fresh.save_snapshot(),
            bytes,
            "{kind}: save → restore → save"
        );
        fresh.run(300);
        net.run(300);
        assert_eq!(
            fresh.save_snapshot(),
            net.save_snapshot(),
            "{kind}: resumed"
        );
    }
}

#[test]
fn single_bit_flip_names_the_diverging_section() {
    use ofar::engine::diff_snapshots;
    let mut h = Harness::new(MechanismKind::Ofar, 9, 0.0, false);
    h.drive(300);
    let clean = h.net.save_snapshot();
    for (idx, want) in [(0, "config"), (1, "policy"), (2, "state")] {
        let dirty = flip_bit_in_section(&clean, idx);
        let d = diff_snapshots(&clean, &dirty)
            .unwrap()
            .unwrap_or_else(|| panic!("flip in {want} must surface"));
        assert_eq!(d.section, want, "flip in section {idx}");
        assert_eq!(d.offset, 0, "flip was at payload byte 0");
    }
}

#[test]
fn named_diff_resolves_a_state_flip_to_its_field() {
    // Byte 0 of the STATE payload is the cycle counter; the section
    // diff finds the flipped byte and the schema walker names it. A
    // policy flip is attributed to its section and stays opaque.
    use ofar::engine::diff_snapshots;
    let mut h = Harness::new(MechanismKind::Ofar, 9, 0.0, false);
    h.drive(300);
    let clean = h.net.save_snapshot();
    let d = diff_snapshots(&clean, &flip_bit_in_section(&clean, 2))
        .unwrap()
        .expect("state flip must surface");
    assert_eq!(d.section, "state");
    let mut state = Vec::new();
    edit_section(&clean, 2, |p| state = p.to_vec());
    assert_eq!(h.net.locate_state_field(&state, d.offset), "now");
    let d = diff_snapshots(&clean, &flip_bit_in_section(&clean, 1))
        .unwrap()
        .expect("policy flip must surface");
    assert_eq!((d.section, d.offset), ("policy", 0));
}

// ---------------------------------------------------------------------
// Link-event stamps: the engine files every restored arrival and credit
// into the timing-wheel slot of its landing cycle, so a stamp the live
// engine could not have produced must be refused, not filed.
// ---------------------------------------------------------------------

/// Offset, inside the STATE payload, of the first link pipeline whose
/// field label ends with `suffix` (`.arrivals` / `.credit_events`) and
/// that holds at least `min` entries. The pipeline starts with its
/// `u64` entry count; entries follow, each led by its `u64` stamp.
fn find_pipeline(net: &Network<Mechanism>, state: &[u8], suffix: &str, min: u64) -> usize {
    // Every pipeline is at least its 8-byte count long, so a stride of
    // 8 cannot step over one.
    for probe in (0..state.len()).step_by(8) {
        let label = net.locate_state_field(state, probe);
        if !label.ends_with(suffix) {
            continue;
        }
        let mut start = probe;
        while start > 0 && net.locate_state_field(state, start - 1) == label {
            start -= 1;
        }
        if u64::from_le_bytes(state[start..start + 8].try_into().unwrap()) >= min {
            return start;
        }
    }
    panic!("no {suffix} pipeline with {min} entries in this snapshot");
}

#[test]
fn impossible_event_stamps_are_refused() {
    let mut h = Harness::new(MechanismKind::Ofar, 9, 0.0, false);
    h.drive(300);
    let now = h.net.now();
    let clean = h.net.save_snapshot();
    let mut payload = Vec::new();
    let resealed = edit_section(&clean, 2, |p| payload = p.to_vec());
    assert_eq!(
        resealed, clean,
        "an identity edit re-seals to the same bytes"
    );

    let arrivals = find_pipeline(&h.net, &payload, ".arrivals", 1);
    // One entry of a credit pipeline: stamp u64, vc u8, phits u32.
    let credits = find_pipeline(&h.net, &payload, ".credit_events", 2);
    let put = |at: usize, v: u64| {
        edit_section(&clean, 2, |p| {
            p[at..at + 8].copy_from_slice(&v.to_le_bytes())
        })
    };
    let first_credit = u64::from_le_bytes(payload[credits + 8..credits + 16].try_into().unwrap());
    let cases = [
        ("a stamp in the past", put(arrivals + 8, now - 1)),
        (
            "a stamp beyond the largest link latency",
            put(arrivals + 8, now + LAT_GLOBAL + 1),
        ),
        (
            "a stamp not after its predecessor",
            put(credits + 8 + 13, first_credit),
        ),
    ];

    let mut victim = Harness::new(MechanismKind::Ofar, 9, 0.0, false);
    victim.drive(100);
    let pristine = victim.net.save_snapshot();
    for (what, bytes) in cases {
        match victim.net.restore_snapshot(&bytes) {
            Err(SnapshotError::Malformed(_)) => {}
            other => panic!("{what}: expected Malformed, got {other:?}"),
        }
        assert_eq!(
            victim.net.save_snapshot(),
            pristine,
            "{what}: victim touched"
        );
    }
    // The unedited file still restores.
    victim.net.restore_snapshot(&clean).unwrap();
}

// ---------------------------------------------------------------------
// Length prefixes: a count is believed only as far as the bytes that
// remain could hold it.
// ---------------------------------------------------------------------

#[test]
fn hostile_length_prefix_is_refused_before_it_is_allocated_for() {
    let mut h = Harness::new(MechanismKind::Ofar, 9, 0.0, false);
    h.drive(300);
    let clean = h.net.save_snapshot();
    let mut payload = Vec::new();
    edit_section(&clean, 2, |p| payload = p.to_vec());
    // No queue could be told from its count alone that it does not hold
    // 2^24 entries; the bytes left in the section say so. Believed, each
    // count would reserve hundreds of MB before the first read fails.
    let bomb = 1u64 << 24;
    let delivered_log = (0..payload.len())
        .find(|&o| h.net.locate_state_field(&payload, o) == "delivered_log")
        .unwrap();
    let counts = [
        (
            "a source queue",
            find_pipeline(&h.net, &payload, "src_q[0]", 0),
        ),
        ("a VC buffer", find_pipeline(&h.net, &payload, ".fifo", 0)),
        (
            "an arrival pipeline",
            find_pipeline(&h.net, &payload, ".arrivals", 0),
        ),
        (
            "a credit pipeline",
            find_pipeline(&h.net, &payload, ".credit_events", 0),
        ),
        // Its count follows the one-byte presence tag.
        ("the delivery log", delivered_log + 1),
    ];

    let mut victim = Harness::new(MechanismKind::Ofar, 9, 0.0, false);
    victim.drive(100);
    let pristine = victim.net.save_snapshot();
    for (what, at) in counts {
        let bytes = edit_section(&clean, 2, |p| {
            p[at..at + 8].copy_from_slice(&bomb.to_le_bytes())
        });
        match victim.net.restore_snapshot(&bytes) {
            Err(SnapshotError::Malformed(_)) => {}
            other => panic!("{what}: expected Malformed, got {other:?}"),
        }
        assert_eq!(
            victim.net.save_snapshot(),
            pristine,
            "{what}: victim touched"
        );
    }
}

// ---------------------------------------------------------------------
// Arena bounds: the flat router state is filled from the file slot by
// slot and lane by lane, each checked against the capacity the fabric
// records for it — a CRC-valid file cannot over-fill a VC, address a VC
// its port does not have, or grant more credits than the far buffer
// holds.
// ---------------------------------------------------------------------

/// [`edit_section`] for an edit that changes the payload's length.
fn splice_section(bytes: &[u8], idx: usize, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let (pos, len) = sections(bytes)[idx];
    let mut payload = bytes[pos + 9..pos + 9 + len].to_vec();
    edit(&mut payload);
    let mut out = bytes[..pos + 1].to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&bytes[pos + 9 + len..bytes.len() - 4]);
    let sealed = crc32(&out);
    out.extend_from_slice(&sealed.to_le_bytes());
    out
}

#[test]
fn arena_bounds_are_enforced_on_restore() {
    let mut h = Harness::new(MechanismKind::Ofar, 9, 0.0, false);
    h.drive(300);
    let clean = h.net.save_snapshot();
    let mut payload = Vec::new();
    edit_section(&clean, 2, |p| payload = p.to_vec());

    // A VC buffer holding a packet: its count, then the packets. Refill
    // it with 64 copies of its head — no VC of the paper's
    // configuration holds more than 32.
    let fifo = find_pipeline(&h.net, &payload, ".fifo", 1);
    let label = h.net.locate_state_field(&payload, fifo);
    let end = (fifo..payload.len())
        .find(|&o| h.net.locate_state_field(&payload, o) != label)
        .unwrap();
    let queued = u64::from_le_bytes(payload[fifo..fifo + 8].try_into().unwrap()) as usize;
    let head = payload[fifo + 8..fifo + 8 + (end - fifo - 8) / queued].to_vec();
    let over_full = splice_section(&clean, 2, |p| {
        p.splice(
            fifo..end,
            [64u64.to_le_bytes().to_vec(), head.repeat(64)].concat(),
        );
    });

    // An arrival in flight: stamp u64, then the VC it lands in.
    let arrivals = find_pipeline(&h.net, &payload, ".arrivals", 1);
    let vc_out_of_range = edit_section(&clean, 2, |p| p[arrivals + 16] = 200);

    let credits = (0..payload.len())
        .find(|&o| {
            h.net
                .locate_state_field(&payload, o)
                .ends_with(".credits[0]")
        })
        .unwrap();
    let credits_above_capacity = edit_section(&clean, 2, |p| {
        p[credits..credits + 4].copy_from_slice(&u32::MAX.to_le_bytes())
    });

    let mut victim = Harness::new(MechanismKind::Ofar, 9, 0.0, false);
    victim.drive(100);
    let pristine = victim.net.save_snapshot();
    for (what, bytes) in [
        ("an over-full VC", over_full),
        ("an arrival for a VC out of range", vc_out_of_range),
        ("credits above capacity", credits_above_capacity),
    ] {
        match victim.net.restore_snapshot(&bytes) {
            Err(SnapshotError::Malformed(_)) => {}
            other => panic!("{what}: expected Malformed, got {other:?}"),
        }
        assert_eq!(
            victim.net.save_snapshot(),
            pristine,
            "{what}: victim touched"
        );
    }
    victim.net.restore_snapshot(&clean).unwrap();
}

// ---------------------------------------------------------------------
// Link-layer and fault state: a receiver's wire-metadata queue pairs
// one-to-one with the arrivals in flight to its input, a replay entry
// holds a reservation on a VC its link has, and a pending one-shot fault
// is removed as its count reaches zero. A file breaking any of these
// restores a state the live engine can never hold, so it is refused.
// ---------------------------------------------------------------------

/// The `u64` count written at `at`.
fn count_at(payload: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(payload[at..at + 8].try_into().unwrap())
}

/// Offsets, inside the STATE payload, of the `out_vc` byte of the first
/// LLR replay entry and of the count of the first non-empty receiver
/// wire queue. Walks the `"llr"` field in the order the engine writes
/// it: presence tag; `n_out`, `n_in`, window, RNG; each sender (next
/// sequence number, replay entries, acks); each receiver (window base
/// and mask, wire queue).
fn llr_offsets(net: &Network<Mechanism>, payload: &[u8]) -> (usize, usize) {
    let count = |at: usize| count_at(payload, at) as usize;
    // The field comes after every per-router one; each lookup decodes
    // the section up to its offset, so search rather than scan.
    let at_or_after_llr = |o: usize| {
        let label = net.locate_state_field(payload, o);
        label == "llr" || label.starts_with("cm") || label.starts_with("delivered_per_src")
    };
    let (mut lo, mut hi) = (0, payload.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at_or_after_llr(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    assert_eq!(net.locate_state_field(payload, lo), "llr");
    assert_eq!(payload[lo], 1, "LLR is on");
    let mut at = lo + 1 + 4 * 8;
    let mut first_vc = None;
    let senders = count(at);
    at += 8;
    for _ in 0..senders {
        let entries = count(at + 4);
        at += 12;
        for _ in 0..entries {
            first_vc.get_or_insert(at + 4);
            // seq, out_vc, retries, sent_at, lost; the packet's ids,
            // stamp and endpoints; its optional intermediate group.
            at += 18 + 24;
            at += if payload[at] == 1 { 5 } else { 1 };
            // flags and hop counters, current group, CRC.
            at += 6 + 4 + 4;
        }
        at += 8 + 13 * count(at);
    }
    let receivers = count(at);
    at += 8;
    for _ in 0..receivers {
        at += 12;
        if count(at) > 0 {
            return (first_vc.expect("a replay entry"), at);
        }
        at += 8;
    }
    panic!("no wire metadata in flight in this snapshot");
}

#[test]
fn link_and_fault_states_the_engine_cannot_hold_are_refused() {
    let cfg = SimConfig::paper(H).with_seed(9).with_ber(2e-3);
    let mut h = Harness::on(cfg, MechanismKind::Ofar, 9, false);
    h.drive(400);
    let clean = h.net.save_snapshot();
    let mut payload = Vec::new();
    edit_section(&clean, 2, |p| payload = p.to_vec());
    let (out_vc, wire) = llr_offsets(&h.net, &payload);
    // One wire-metadata entry (sequence number, CRC) spliced out of its
    // queue: the arrival it travelled with would land with none.
    let wire_short = splice_section(&clean, 2, |p| {
        let n = count_at(p, wire);
        p[wire..wire + 8].copy_from_slice(&(n - 1).to_le_bytes());
        p.drain(wire + 8..wire + 16);
    });
    let replay_vc_out_of_range = edit_section(&clean, 2, |p| p[out_vc] = 200);

    // A one-shot corruption scheduled at cycle 1 on an idle network is
    // still pending after three cycles: the fault state then holds one
    // entry, whose count follows the two empty fail-stop sets' counts,
    // the pending map's count and the link's two routers.
    let mut idle = Harness::on(cfg, MechanismKind::Ofar, 9, false);
    let r0 = RouterId::new(0);
    let topo = Dragonfly::new(cfg.params);
    idle.net
        .set_fault_plan(FaultPlan::new().corrupt_phit_at(1, r0, topo.global_neighbor(r0, 0).0));
    idle.net.run(3);
    let pending = idle.net.save_snapshot();
    let mut idle_payload = Vec::new();
    edit_section(&pending, 2, |p| idle_payload = p.to_vec());
    let fault_state = (0..idle_payload.len())
        .find(|&o| idle.net.locate_state_field(&idle_payload, o) == "fault state")
        .unwrap();
    let one_shot = fault_state + 4 * 8;
    assert_eq!(idle_payload[one_shot..one_shot + 4], 1u32.to_le_bytes());
    let zero_pending = edit_section(&pending, 2, |p| {
        p[one_shot..one_shot + 4].copy_from_slice(&0u32.to_le_bytes())
    });

    let mut victim = Harness::on(cfg, MechanismKind::Ofar, 9, false);
    victim.drive(100);
    let pristine = victim.net.save_snapshot();
    for (what, bytes) in [
        ("a wire queue one short of its arrivals", wire_short),
        (
            "a replay entry for a VC out of range",
            replay_vc_out_of_range,
        ),
        ("a pending one-shot fault count of zero", zero_pending),
    ] {
        match victim.net.restore_snapshot(&bytes) {
            Err(SnapshotError::Malformed(_)) => {}
            other => panic!("{what}: expected Malformed, got {other:?}"),
        }
        assert_eq!(
            victim.net.save_snapshot(),
            pristine,
            "{what}: victim touched"
        );
    }
    victim.net.restore_snapshot(&clean).unwrap();
    victim.net.restore_snapshot(&pending).unwrap();
}

// ---------------------------------------------------------------------
// The labels cover the section: `locate_state_field` is the STATE
// decoder itself run with a probe, so there is no second schema to keep
// in step — what is left to pin is that the decoder names everything it
// reads, once, in the order it reads it.
// ---------------------------------------------------------------------

/// Sort key of a field label: its fixed pieces ranked by where the
/// schema puts them, its indices as they are. Panics on a piece the
/// schema does not have.
fn schema_key(label: &str) -> Vec<usize> {
    const ORDER: [&str; 30] = [
        "now",
        "next_id",
        "faults_ever",
        "plan_cursor",
        "fault plan",
        "fault state",
        "stats.",
        "source-queue count",
        "src_q[",
        "inj_busy[",
        "router_last_grant[",
        "delivered_log",
        "router[",
        "].input[",
        "].output[",
        "].vc[",
        "].fifo",
        "].arrivals",
        "].credits[",
        "].credit_events",
        "].busy_until",
        "].vc_served_at[",
        "].in_served_at[",
        "llr",
        "cm presence tag",
        "cm.tokens[",
        "cm.cong[",
        "cm.throttled[",
        "delivered_per_src[",
        "]",
    ];
    let rank = |piece: &str| {
        ORDER
            .iter()
            .position(|p| *p == piece)
            .unwrap_or_else(|| panic!("label {label:?}: {piece:?} is not in the schema"))
    };
    if let Some(counter) = label.strip_prefix("stats.") {
        let names = ofar::engine::Stats::counter_names();
        return vec![
            rank("stats."),
            names.iter().position(|n| *n == counter).unwrap(),
        ];
    }
    let mut key = Vec::new();
    let mut rest = label;
    while !rest.is_empty() {
        let digits = rest.starts_with(|c: char| c.is_ascii_digit());
        let end = rest
            .find(|c: char| c.is_ascii_digit() != digits)
            .unwrap_or(rest.len());
        let (piece, tail) = rest.split_at(end);
        key.push(if digits {
            piece.parse().unwrap()
        } else {
            rank(piece)
        });
        rest = tail;
    }
    key
}

/// Encoded width of a fixed-size field, `None` for the ones that carry a
/// count or an `Option` tag. A field read without being announced would
/// pass for part of the next one; this is what gives it away.
fn fixed_width(label: &str) -> Option<usize> {
    let stem = label.trim_end_matches(|c: char| c.is_ascii_digit() || c == '[' || c == ']');
    let is = |names: &[&str]| names.iter().any(|n| stem.ends_with(n));
    if is(&[
        "fault plan",
        "fault state",
        "src_q",
        "delivered_log",
        ".fifo",
        ".arrivals",
        ".credit_events",
        "llr",
    ]) {
        None
    } else if is(&["faults_ever", "cm presence tag", "cm.throttled"]) {
        Some(1)
    } else if is(&[".credits", "cm.tokens", "cm.cong"]) {
        Some(4)
    } else {
        Some(8)
    }
}

#[test]
fn labels_cover_the_state_section() {
    // Probing every offset decodes the section once per byte, so the
    // machine is the smallest h = 2 Dragonfly there is (10 routers, one
    // node each) — the schema does not depend on the scale.
    let machine = |ber: f64, cm: bool| {
        let mut cfg = SimConfig::paper(H).with_seed(9);
        cfg.params = DragonflyParams { p: 1, a: 2, h: H };
        cfg.ber = ber;
        if cm {
            cfg.with_cm()
        } else {
            cfg
        }
    };
    // (what, configuration, fault plan, delivery log, a field this
    //  variant is there to fill)
    let variants = [
        ("plain OFAR", machine(0.0, false), false, false, "now"),
        ("LLR + fault plan", machine(2e-5, false), true, false, "llr"),
        ("CM", machine(0.0, true), false, false, "cm.tokens[0]"),
        (
            "delivery log",
            machine(0.0, false),
            false,
            true,
            "delivered_log",
        ),
    ];
    for (what, cfg, faults, log, filled) in variants {
        let mut h = Harness::on(cfg, MechanismKind::Ofar, 9, faults);
        if log {
            h.net.enable_delivery_log();
        }
        h.drive(400);
        assert!(h.net.stats().delivered_packets > 50, "{what}: idle run");
        let clean = h.net.save_snapshot();
        let mut state = Vec::new();
        edit_section(&clean, 2, |p| state = p.to_vec());

        // Every byte maps to a field...
        let mut runs: Vec<(String, usize)> = Vec::new();
        for offset in 0..state.len() {
            let label = h.net.locate_state_field(&state, offset);
            assert!(
                !label.starts_with("unmappable") && !label.starts_with("past the end"),
                "{what}: byte {offset} of {}: {label}",
                state.len()
            );
            match runs.last_mut() {
                Some((last, len)) if *last == label => *len += 1,
                _ => runs.push((label, 1)),
            }
        }
        // ...the walk ends exactly where the section does...
        assert_eq!(
            h.net.locate_state_field(&state, state.len()),
            "past the end of STATE",
            "{what}"
        );
        // ...and each field is one contiguous run of its own width, in
        // schema order.
        for (label, len) in &runs {
            assert!(
                fixed_width(label).is_none_or(|w| w == *len),
                "{what}: {label} spans {len} bytes"
            );
        }
        for pair in runs.windows(2) {
            assert!(
                schema_key(&pair[0].0) < schema_key(&pair[1].0),
                "{what}: {:?} is followed by {:?}",
                pair[0].0,
                pair[1].0
            );
        }
        let stats: Vec<&str> = runs
            .iter()
            .filter_map(|(label, _)| label.strip_prefix("stats."))
            .collect();
        assert_eq!(stats, ofar::engine::Stats::counter_names(), "{what}");
        // More than the one-byte "absent" tag an unused part leaves.
        assert!(
            runs.iter().any(|(l, len)| l == filled && *len > 1),
            "{what}: {filled} is absent"
        );
    }
}

// ---------------------------------------------------------------------
// Replaying a snapshot file: the post-mortem path behind
// `ofar-sim --replay`.
// ---------------------------------------------------------------------

/// A snapshot saved mid-burst and replayed from its file starts at the
/// saved cycle, continues its clock one trace line per cycle, drains
/// exactly where the uninterrupted network does, and is audited clean.
#[test]
fn a_snapshot_replays_from_its_file_to_the_drained_end() {
    let kind = MechanismKind::Ofar;
    let cfg = kind.adapt_config(SimConfig::paper(H).with_seed(3));
    let mut net = Network::new(cfg, kind.build(&cfg, 3));
    let topo = Dragonfly::new(cfg.params);
    OpenLoop::fill(&topo, TrafficSpec::adversarial(1), 4, 3, |src, dst| {
        net.generate(src, dst)
    });
    net.run(150);
    assert!(!net.drained(), "the snapshot must be taken mid-burst");
    let saved_at = net.now();
    let path = std::env::temp_dir().join(format!("ofar-replay-{}.snap", std::process::id()));
    ofar::engine::write_atomic(&path, &net.save_snapshot()).unwrap();
    let rep = replay_snapshot(&path, 100_000);
    std::fs::remove_file(&path).ok();
    let rep = rep.unwrap();

    while !net.drained() {
        net.step();
    }
    assert_eq!(rep.mechanism, kind.name());
    assert_eq!(rep.start_cycle, saved_at);
    let cycles: Vec<u64> = rep.trace.iter().map(|t| t.cycle).collect();
    assert_eq!(cycles, (saved_at + 1..=net.now()).collect::<Vec<_>>());
    assert!(rep.drained);
    assert_eq!(rep.end_cycle, net.now());
    assert_eq!(rep.stats.counters(), net.stats().counters());
    assert!(
        rep.audit.is_clean() && rep.audit.checks > 0,
        "{}",
        rep.audit
    );
}

/// A MIN snapshot whose CONFIG section names PAR, every checksum sealed
/// again: a valid file that pairs a mechanism with a configuration it
/// cannot run (PAR needs a fourth local VC).
fn min_snapshot_naming_par() -> Vec<u8> {
    let kind = MechanismKind::Min;
    let cfg = kind.adapt_config(SimConfig::paper(H));
    let mut net = Network::new(cfg, kind.build(&cfg, 1));
    net.run(20);
    let mut bytes = net.save_snapshot();
    let (at, len) = sections(&bytes)[0];
    assert_eq!(bytes[at], 1, "CONFIG is the first section");
    let name = at + 9 + len - 3..at + 9 + len;
    assert_eq!(&bytes[name.clone()], b"MIN");
    bytes[name].copy_from_slice(b"PAR");
    // The section checksum and the fingerprint are both the payload's.
    let crc = crc32(&bytes[at + 9..at + 9 + len]).to_le_bytes();
    bytes[at + 5..at + 9].copy_from_slice(&crc);
    bytes[12..16].copy_from_slice(&crc);
    reseal(&mut bytes);
    bytes
}

/// Replay builds its network like a fresh run, adapting the file's
/// configuration to the mechanism it names: a header pairing PAR with
/// three local VCs no longer matches and is refused with a typed error,
/// where building PAR on the file's configuration as it stands panicked.
#[test]
fn a_replay_pairing_a_mechanism_with_a_config_it_cannot_run_is_refused() {
    let bytes = min_snapshot_naming_par();
    let header = ofar::engine::peek_header(&bytes).expect("the checksums hold");
    assert_eq!(
        (header.mechanism.as_str(), header.config.vcs_local),
        ("PAR", 3)
    );
    let path = std::env::temp_dir().join(format!("ofar-par-{}.snap", std::process::id()));
    ofar::engine::write_atomic(&path, &bytes).unwrap();
    let rep = replay_snapshot(&path, 100);
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(rep, Err(SnapshotError::ConfigMismatch { .. })),
        "{rep:?}"
    );
}
