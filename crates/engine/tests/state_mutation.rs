//! Fail closed, by search: a real STATE section, mutated at random and
//! sealed again so that every change reaches the decoder. Whatever the
//! bytes, `restore_snapshot` returns rather than panics, and a file it
//! accepts is one it writes back byte for byte — every value has one
//! encoding, and the decoder takes nothing it would not save again.
//!
//! Run in the dev profile (`cargo test -p ofar-engine --tests`), where
//! overflow checks are on.

use ofar_engine::snapshot::{Dec, Enc};
use ofar_engine::{crc32, Network, SimConfig, SnapshotError};
use ofar_routing::{Mechanism, MechanismKind};
use ofar_topology::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 2_000;

/// An h=2 OFAR network on lossy links (`ber > 0`, so the snapshot
/// carries LLR replay buffers), built afresh for `seed`.
fn network() -> Network<Mechanism> {
    let kind = MechanismKind::Ofar;
    let cfg = kind.adapt_config(SimConfig::paper(2).with_seed(7).with_ber(2e-3));
    Network::new(cfg, kind.build(&cfg, 7))
}

/// A snapshot taken mid-run: 300 cycles of uniform random traffic at
/// about 0.4 phits per node and cycle.
fn mid_run_snapshot() -> Vec<u8> {
    let mut net = network();
    let nodes = net.num_nodes();
    let mut rng = SmallRng::seed_from_u64(1);
    for _ in 0..300 {
        for src in 0..nodes {
            if rng.gen_bool(0.05) {
                let dst = (src + rng.gen_range(1..nodes)) % nodes;
                net.generate(NodeId::from(src), NodeId::from(dst));
            }
        }
        net.step();
    }
    net.save_snapshot()
}

/// Offset of the STATE section's header (tag 3) and its payload length.
fn state_section(bytes: &[u8]) -> (usize, usize) {
    let mut at = 16;
    loop {
        let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
        if bytes[at] == 3 {
            return (at, len);
        }
        at += 9 + len;
    }
}

/// `bytes` with the STATE payload replaced by `payload`, its length,
/// section CRC and file checksum written to match.
fn with_state(bytes: &[u8], payload: &[u8]) -> Vec<u8> {
    let (at, len) = state_section(bytes);
    let mut out = bytes[..at + 1].to_vec();
    out.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&bytes[at + 9 + len..bytes.len() - 4]);
    let sealed = crc32(&out);
    out.extend_from_slice(&sealed.to_le_bytes());
    out
}

/// One seeded mutation of a STATE payload: a byte flipped, the tail
/// cut, a byte inserted, or a varint stretched (a byte below 0x80 — the
/// last of a varint, where it is one — padded with a zero byte after
/// it: the same value, not minimally encoded).
fn mutate(rng: &mut SmallRng, payload: &mut Vec<u8>) -> &'static str {
    match rng.gen_range(0..4u8) {
        0 => {
            let at = rng.gen_range(0..payload.len());
            payload[at] ^= rng.gen_range(1..=255u8);
            "flip"
        }
        1 => {
            payload.truncate(rng.gen_range(0..payload.len()));
            "cut"
        }
        2 => {
            let at = rng.gen_range(0..=payload.len());
            payload.insert(at, rng.gen_range(0..=255u8));
            "insert"
        }
        _ => loop {
            let at = rng.gen_range(0..payload.len());
            if payload[at] < 0x80 {
                payload[at] |= 0x80;
                payload.insert(at + 1, 0);
                break "stretch";
            }
        },
    }
}

#[test]
fn a_mutated_state_section_is_refused_or_saved_back_exactly() {
    let clean = mid_run_snapshot();
    let (at, len) = state_section(&clean);
    let payload = &clean[at + 9..at + 9 + len];
    assert_eq!(
        with_state(&clean, payload),
        clean,
        "an identity edit re-seals"
    );
    let mut victim = network();
    victim.restore_snapshot(&clean).unwrap();
    let llr = victim.stats().llr_retransmits;
    assert!(llr > 0, "the link layer has retransmitted nothing");

    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let (mut accepted, mut refused) = (0, 0);
    for case in 0..CASES {
        let mut edited = payload.to_vec();
        let how = mutate(&mut rng, &mut edited);
        let bytes = with_state(&clean, &edited);
        match victim.restore_snapshot(&bytes) {
            Ok(()) => {
                accepted += 1;
                assert!(
                    victim.save_snapshot() == bytes,
                    "case {case} ({how}): accepted, but saves back other bytes"
                );
            }
            Err(_) => refused += 1,
        }
    }
    // Neither verdict may be vacuous: a flipped counter is another valid
    // state, a stretched varint never is.
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
}

/// The varint at `at` in `payload`: its value and the offset past it.
fn var_at(payload: &[u8], at: usize) -> (u64, usize) {
    let mut d = Dec::new(&payload[at..]);
    let v = d.var().unwrap();
    (v, payload.len() - d.remaining())
}

/// A packet whose destination lies outside the network is refused on
/// restore, not handed to the resumed run to route by.
#[test]
fn a_packet_naming_a_node_outside_the_network_is_refused() {
    let clean = mid_run_snapshot();
    let (at, len) = state_section(&clean);
    let payload = &clean[at + 9..at + 9 + len];
    let mut victim = network();
    // The first VC FIFO holding a packet: the field starts where its
    // label first appears, with its varint packet count.
    let mut last = String::new();
    let fifo = (0..payload.len())
        .find(|&o| {
            let label = victim.locate_state_field(payload, o);
            let start = label != last;
            last = label;
            start && last.ends_with(".fifo") && var_at(payload, o).0 > 0
        })
        .expect("a mid-run snapshot has a queued packet");
    // The packet follows its count: `id`, `injected_at`, `src`, then `dst`.
    let dst = (0..3).fold(var_at(payload, fifo).1, |o, _| var_at(payload, o).1);
    let edited = put_var(payload, dst, 1_000_000);
    assert_eq!(
        victim.restore_snapshot(&with_state(&clean, &edited)),
        Err(SnapshotError::Malformed(
            "packet names a node or group outside the network"
        ))
    );
    victim.restore_snapshot(&clean).unwrap();
}

/// `payload` with the varint at `at` replaced by `v`.
fn put_var(payload: &[u8], at: usize, v: u64) -> Vec<u8> {
    let mut e = Enc::default();
    e.var(v);
    let mut edited = payload.to_vec();
    edited.splice(at..var_at(payload, at).1, e.0);
    edited
}

/// A cycle field at 2³², one past the last cycle the engine's 32-bit
/// stamps hold, each edit sealed again: the clock, a least-recently-
/// served stamp at either arbiter, and a buffered packet's generation
/// cycle are each refused with their own `Malformed`, rather than
/// restored for the resumed run to truncate.
#[test]
fn a_cycle_field_past_the_last_cycle_is_refused() {
    let clean = mid_run_snapshot();
    let (at, len) = state_section(&clean);
    let payload = &clean[at + 9..at + 9 + len];
    let mut victim = network();
    // Where the first field whose label ends with each suffix starts —
    // for the FIFO, the first that holds a packet.
    let suffixes = ["vc_served_at[0]", "in_served_at[0]", ".fifo"];
    let mut starts = [None; 3];
    let mut last = String::new();
    for o in 0..payload.len() {
        let label = victim.locate_state_field(payload, o);
        if label != last {
            for (suffix, start) in suffixes.iter().zip(&mut starts) {
                let queued = *suffix != ".fifo" || var_at(payload, o).0 > 0;
                if start.is_none() && label.ends_with(suffix) && queued {
                    *start = Some(o);
                }
            }
            last = label;
        }
        if starts.iter().all(Option::is_some) {
            break;
        }
    }
    let [Some(vc), Some(input), Some(fifo)] = starts else {
        panic!("a mid-run snapshot has every field: {starts:?}");
    };
    // The packet follows its count: `id`, then `injected_at`.
    let injected_at = var_at(payload, var_at(payload, fifo).1).1;
    let mut wrong = Vec::new();
    for (field, offset, why) in [
        ("now", 0, "now past the last cycle"),
        ("vc_served_at", vc, "LRS stamp past the last cycle"),
        ("in_served_at", input, "LRS stamp past the last cycle"),
        (
            "injected_at",
            injected_at,
            "injected_at past the last cycle",
        ),
    ] {
        let edited = put_var(payload, offset, 1 << 32);
        let got = victim.restore_snapshot(&with_state(&clean, &edited));
        if got != Err(SnapshotError::Malformed(why)) {
            wrong.push(format!("{field}: {got:?}"));
        }
        victim.restore_snapshot(&clean).unwrap();
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}
