//! Periodic auto-checkpoints for long steady-state runs.
//!
//! A checkpoint is one file holding everything a run needs to continue
//! bit-exactly: the engine snapshot (see `ofar_engine::snapshot`), the
//! traffic-generator and injection-process RNG streams, the cycle
//! counter, the latency counts of the network's [`Recorder`] if its hooks
//! keep one, and — once the measurement window has opened — the stats
//! baseline captured at its start. Files are written atomically and
//! carry a whole-file CRC-32, so a kill mid-write leaves either the
//! previous checkpoint or a file that fails validation and is skipped;
//! resume picks the newest *valid* checkpoint for the run's key.
//!
//! Enabled via the environment (`OFAR_CHECKPOINT_EVERY` = cycles between
//! checkpoints, `OFAR_CHECKPOINT_DIR` = directory, default
//! `results/checkpoints`) or programmatically with
//! [`CheckpointPolicy::every`], passed to [`crate::run::steady`].

use ofar_engine::snapshot::{Dec, Enc};
use ofar_engine::{
    crc32, write_atomic, Hooks, Network, Policy, Recorder, SnapshotError, Stats, STATS_COUNTERS,
};
use ofar_traffic::{Bernoulli, TrafficGen};
use std::path::PathBuf;

use crate::env::{self, EnvError};
use crate::run::{Point, Shape, Tunables};
use crate::store::point_key;

/// Checkpoint file magic (distinct from the engine snapshot's, which is
/// nested inside).
const CKPT_MAGIC: [u8; 8] = *b"OFARCKPT";
/// Checkpoint container format version. Version 2 added the recorder;
/// a version 1 file is refused, so its run starts over.
const CKPT_VERSION: u32 = 2;
/// Upper bound accepted for the nested snapshot length (allocation
/// guard against corrupt length fields).
const CKPT_SNAP_BOUND: usize = 1 << 28;
/// Newest checkpoints retained per run key: the latest, and the one
/// before it in case the latest fails validation.
const CHECKPOINTS_KEPT: usize = 2;

/// When and where to take checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Cycles between checkpoints; `None` disables both saving and
    /// resuming.
    pub interval: Option<u64>,
    /// Directory holding the checkpoint files.
    pub dir: PathBuf,
}

impl CheckpointPolicy {
    /// Checkpointing off (the default when the environment says nothing).
    pub fn disabled() -> Self {
        Self {
            interval: None,
            dir: PathBuf::from("results/checkpoints"),
        }
    }

    /// Checkpoint every `cycles` cycles into `dir`.
    pub fn every(cycles: u64, dir: impl Into<PathBuf>) -> Self {
        Self {
            interval: (cycles > 0).then_some(cycles),
            dir: dir.into(),
        }
    }

    /// Read `OFAR_CHECKPOINT_EVERY` / `OFAR_CHECKPOINT_DIR` from the
    /// environment (see [`crate::env`]). An unset or zero `EVERY`
    /// disables checkpointing; one that is not an integer is an error,
    /// and so is an empty `DIR`, whose files would land in the working
    /// directory where resume never looks.
    pub fn from_env() -> Result<Self, EnvError> {
        let every = env::parsed("OFAR_CHECKPOINT_EVERY")?.unwrap_or(0);
        let dir: PathBuf =
            env::parsed("OFAR_CHECKPOINT_DIR")?.unwrap_or_else(|| Self::disabled().dir);
        if dir.as_os_str().is_empty() {
            return Err(EnvError {
                name: "OFAR_CHECKPOINT_DIR".to_string(),
                value: String::new(),
                expected: "non-empty directory path".to_string(),
            });
        }
        Ok(Self::every(every, dir))
    }

    /// Whether checkpointing is active.
    pub fn enabled(&self) -> bool {
        self.interval.is_some()
    }

    /// Whether a checkpoint is owed after completing `cycle` of `total`
    /// (never at the very end — the run is about to finish anyway).
    pub(crate) fn due(&self, cycle: u64, total: u64) -> bool {
        matches!(self.interval, Some(e) if cycle.is_multiple_of(e) && cycle < total)
    }

    fn file(&self, key: u32, cycle: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{key:08x}-{cycle:016x}.bin"))
    }

    /// Write a checkpoint for run `key` after `cycle` cycles, then prune
    /// all but the newest two.
    pub fn save<P: Policy, H: Hooks>(
        &self,
        key: u32,
        cycle: u64,
        start: Option<&Stats>,
        net: &Network<P, H>,
        gen: &TrafficGen,
        bern: &Bernoulli,
    ) -> Result<(), SnapshotError> {
        let bytes = encode(
            key,
            cycle,
            start,
            gen.rng_state(),
            bern.rng_state(),
            net.hooks().recorder(),
            &net.save_snapshot(),
        );
        write_atomic(&self.file(key, cycle), &bytes)?;
        self.prune(key);
        Ok(())
    }

    /// Remove all but the newest [`CHECKPOINTS_KEPT`] checkpoints
    /// of run `key` (best-effort).
    fn prune(&self, key: u32) {
        for (_, path) in self.list(key).into_iter().skip(CHECKPOINTS_KEPT) {
            std::fs::remove_file(path).ok();
        }
    }

    /// `(cycle, path)` of every file named like a checkpoint of `key`,
    /// newest first.
    fn list(&self, key: u32) -> Vec<(u64, PathBuf)> {
        let prefix = format!("ckpt-{key:08x}-");
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut files: Vec<_> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let hex = name.strip_prefix(&prefix)?.strip_suffix(".bin")?;
                let cycle = u64::from_str_radix(hex, 16).ok()?;
                Some((cycle, e.path()))
            })
            .collect();
        files.sort_by_key(|&(cycle, _)| std::cmp::Reverse(cycle));
        files
    }

    /// Load the newest checkpoint of run `key` that decodes and
    /// validates; corrupt or truncated files are skipped, not fatal.
    /// Returns `None` when checkpointing is disabled.
    pub fn resume(&self, key: u32) -> Option<Checkpoint> {
        if !self.enabled() {
            return None;
        }
        self.list(key).into_iter().find_map(|(_, path)| {
            let bytes = std::fs::read(path).ok()?;
            decode(&bytes, key)
        })
    }
}

/// A decoded, checksum-verified checkpoint, ready to restore.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Cycles already simulated when the checkpoint was taken.
    pub cycle: u64,
    /// Stats baseline at the start of the measurement window, if the
    /// window had already opened.
    pub start: Option<Stats>,
    gen_rng: [u64; 4],
    bern_rng: [u64; 4],
    recorder: Option<Recorder>,
    snap: Vec<u8>,
}

impl Checkpoint {
    /// Restore the network, its recorder and both RNG streams. The
    /// nested engine snapshot re-validates its own checksums and the
    /// configuration fingerprint, so a checkpoint can never be replayed
    /// onto a different experiment. A network whose hooks keep a
    /// [`Recorder`] is refused, untouched, a checkpoint that carries
    /// none or one over another window: its percentiles would miss the
    /// packets before the checkpoint.
    pub fn restore<P: Policy, H: Hooks>(
        &self,
        net: &mut Network<P, H>,
        gen: &mut TrafficGen,
        bern: &mut Bernoulli,
    ) -> Result<(), SnapshotError> {
        // Checked before anything is restored, so a refusal leaves `net`
        // as it was.
        let recorder = match (net.hooks().recorder(), &self.recorder) {
            (None, _) => None,
            (Some(live), Some(saved)) if live.same_window(saved) => Some(saved.clone()),
            (Some(_), _) => {
                return Err(SnapshotError::Malformed(
                    "no recorder over the run's window",
                ));
            }
        };
        net.restore_snapshot(&self.snap)?;
        if let (Some(live), Some(saved)) = (net.hooks_mut().recorder_mut(), recorder) {
            *live = saved;
        }
        gen.set_rng_state(self.gen_rng);
        bern.set_rng_state(self.bern_rng);
        Ok(())
    }
}

/// Key identifying one steady-state run: its [`point_key`] and the debug
/// rendering of its [`Tunables`] (so an ablation run never resumes a
/// differently-tuned checkpoint), hashed to a u32 used in checkpoint
/// file names.
///
/// # Panics
/// On a point that is not [`Shape::Steady`].
pub fn run_key(point: &Point) -> u32 {
    let Shape::Steady { load, opts } = point.shape else {
        panic!("not a steady point: {:?}", point.shape);
    };
    let (cfg, kind, spec, seed) = (&point.cfg, point.kind, &point.traffic, point.seed);
    let key = point_key(cfg, kind, spec, load, opts, seed);
    let Tunables { ofar, pb } = point.tunables;
    crc32(format!("ckpt {key} tunables={ofar:?}/{pb:?}").as_bytes())
}

/// Serialize a checkpoint: magic, version, run key, cycle, optional
/// stats baseline, both RNG streams, optional recorder, the nested
/// engine snapshot, and a whole-file CRC-32 trailer.
fn encode(
    key: u32,
    cycle: u64,
    start: Option<&Stats>,
    gen_rng: [u64; 4],
    bern_rng: [u64; 4],
    recorder: Option<&Recorder>,
    snap: &[u8],
) -> Vec<u8> {
    let mut e = Enc(Vec::with_capacity(snap.len() + 64 + STATS_COUNTERS * 8));
    e.bytes(&CKPT_MAGIC);
    e.u32(CKPT_VERSION);
    e.u32(key);
    e.u64(cycle);
    match start {
        None => e.u8(0),
        Some(s) => {
            e.u8(1);
            e.u64s(&s.counters());
        }
    }
    e.u64s(&gen_rng);
    e.u64s(&bern_rng);
    match recorder {
        None => e.u8(0),
        Some(r) => {
            e.u8(1);
            r.encode(&mut e);
        }
    }
    e.u32(u32::try_from(snap.len()).expect("snapshot over 4 GiB"));
    e.bytes(snap);
    e.u32(crc32(&e.0));
    e.0
}

/// Parse and validate a checkpoint file. Any defect — bad checksum,
/// magic, version, key mismatch, short or oversized payload — yields
/// `None`: a corrupt checkpoint is treated as absent, never trusted.
fn decode(bytes: &[u8], expect_key: u32) -> Option<Checkpoint> {
    let (body, trailer) = bytes.split_at(bytes.len().checked_sub(4)?);
    if crc32(body) != Dec::new(trailer).u32().ok()? {
        return None;
    }
    let d = &mut Dec::new(body);
    if d.bytes(CKPT_MAGIC.len()).ok()? != CKPT_MAGIC
        || d.u32().ok()? != CKPT_VERSION
        || d.u32().ok()? != expect_key
    {
        return None;
    }
    let cycle = d.u64().ok()?;
    let start = match d.u8().ok()? {
        0 => None,
        1 => {
            let mut counters = [0u64; STATS_COUNTERS];
            for c in &mut counters {
                *c = d.u64().ok()?;
            }
            let mut s = Stats::default();
            s.set_counters(&counters);
            Some(s)
        }
        _ => return None,
    };
    let mut rngs = [[0u64; 4]; 2];
    for w in rngs.iter_mut().flatten() {
        *w = d.u64().ok()?;
    }
    let recorder = match d.u8().ok()? {
        0 => None,
        1 => Some(Recorder::decode(d).ok()?),
        _ => return None,
    };
    let snap_len = d.u32().ok()? as usize;
    if snap_len > CKPT_SNAP_BOUND || d.remaining() != snap_len {
        return None;
    }
    Some(Checkpoint {
        cycle,
        start,
        gen_rng: rngs[0],
        bern_rng: rngs[1],
        recorder,
        snap: d.bytes(snap_len).ok()?.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::SteadyOpts;
    use ofar_engine::snapshot::Enc;
    use ofar_engine::{NoHooks, SimConfig, Tap};
    use ofar_routing::MechanismKind;
    use ofar_traffic::TrafficSpec;

    /// A recorder that has seen three packets, one per bucket.
    fn recorder() -> Recorder {
        let mut r = Recorder::since(4).with_series(10, 3);
        for (at, latency) in [(4, 30), (15, 31), (29, 90)] {
            r.tap(Tap::Delivered(at, latency));
        }
        r
    }

    #[test]
    fn encode_decode_roundtrip() {
        let start = Stats {
            delivered_packets: 77,
            latency_sum: 1234,
            ..Default::default()
        };
        let snap = vec![1u8, 2, 3, 4, 5];
        let r = recorder();
        let bytes = encode(
            0xAB,
            4096,
            Some(&start),
            [1, 2, 3, 4],
            [5, 6, 7, 8],
            Some(&r),
            &snap,
        );
        let ck = decode(&bytes, 0xAB).expect("valid checkpoint must decode");
        assert_eq!(ck.cycle, 4096);
        assert_eq!(ck.start.as_ref().unwrap().delivered_packets, 77);
        assert_eq!(ck.gen_rng, [1, 2, 3, 4]);
        assert_eq!(ck.bern_rng, [5, 6, 7, 8]);
        assert_eq!(ck.recorder, Some(r));
        assert_eq!(ck.snap, snap);
        // warmup-phase checkpoint has no baseline
        let bytes2 = encode(0xAB, 10, None, [1, 2, 3, 4], [5, 6, 7, 8], None, &snap);
        let ck2 = decode(&bytes2, 0xAB).unwrap();
        assert!(ck2.start.is_none() && ck2.recorder.is_none());
    }

    /// Format pin: the envelope bytes of a fixed checkpoint, with and
    /// without a stats baseline and a recorder. `CKPT_VERSION` is 2; a
    /// codec refactor must leave length and CRC-32 exactly as they are.
    #[test]
    fn envelope_bytes_are_pinned() {
        let mut start = Stats::default();
        let mut counters = start.counters();
        for (i, c) in counters.iter_mut().enumerate() {
            *c = 1_000_003 * (i as u64 + 1);
        }
        start.set_counters(&counters);
        let snap: Vec<u8> = (0..=255u8).collect();
        let gen = [0x0123_4567_89AB_CDEF, 2, 3, u64::MAX];
        let bern = [5, 6, 0xFEDC_BA98_7654_3210, 8];
        let r = recorder();
        let with = encode(
            0xDEAD_BEEF,
            123_456_789,
            Some(&start),
            gen,
            bern,
            Some(&r),
            &snap,
        );
        let without = encode(0xDEAD_BEEF, 50, None, gen, bern, None, &snap);
        // The CRC of a whole sealed file is the CRC-32 residue whatever
        // the content, so the pin is over the body the trailer seals.
        let pin = |file: &[u8]| (file.len(), crc32(&file[..file.len() - 4]));
        assert_eq!(pin(&with), (1402, 1_576_988_792));
        assert_eq!(pin(&without), (354, 2_493_766_495));
        let ck = decode(&with, 0xDEAD_BEEF).unwrap();
        assert_eq!(ck.start.unwrap().counters(), counters);
    }

    #[test]
    fn corruption_and_mismatch_fail_closed() {
        let r = recorder();
        let bytes = encode(
            0xAB,
            4096,
            None,
            [1, 2, 3, 4],
            [5, 6, 7, 8],
            Some(&r),
            &[9, 9],
        );
        assert!(decode(&bytes, 0xCD).is_none(), "wrong run key");
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut], 0xAB).is_none(), "truncation at {cut}");
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(decode(&bad, 0xAB).is_none(), "bit flip at byte {i}");
        }
    }

    #[test]
    fn due_respects_interval_and_end() {
        let p = CheckpointPolicy::every(100, "x");
        assert!(p.due(100, 1000));
        assert!(!p.due(150, 1000));
        assert!(!p.due(1000, 1000), "no checkpoint at the finish line");
        assert!(!CheckpointPolicy::disabled().due(100, 1000));
    }

    /// A network that keeps a recorder takes a checkpoint's counts over
    /// its own window, and refuses, untouched, one without them.
    #[test]
    fn a_recording_network_needs_the_checkpoints_recorder() {
        use ofar_engine::Fabric;
        use ofar_traffic::OpenLoop;
        let kind = MechanismKind::Min;
        let cfg = kind.adapt_config(SimConfig::paper(2));
        let mut source = Network::new(cfg, kind.build(&cfg, 1));
        source.run(50);
        let topo = *source.fabric().topo();
        let OpenLoop { mut gen, mut bern } =
            OpenLoop::new(&topo, TrafficSpec::uniform(), 0.1, cfg.packet_size, 1);
        let (g, b) = (gen.rng_state(), bern.rng_state());
        let snap = source.save_snapshot();
        let saved = Recorder::since(4).with_series(10, 3);
        let without = decode(&encode(7, 50, None, g, b, None, &snap), 7).unwrap();
        let with = decode(&encode(7, 50, None, g, b, Some(&recorder()), &snap), 7).unwrap();
        let fresh = |r: Recorder| Network::with_hooks(Fabric::new(cfg), kind.build(&cfg, 1), r);

        let mut net = fresh(saved.clone());
        assert!(without.restore(&mut net, &mut gen, &mut bern).is_err());
        let mut other_window = fresh(Recorder::since(5).with_series(10, 3));
        assert!(with
            .restore(&mut other_window, &mut gen, &mut bern)
            .is_err());
        assert_eq!((net.now(), other_window.now()), (0, 0));

        with.restore(&mut net, &mut gen, &mut bern).unwrap();
        assert_eq!((net.now(), net.hooks()), (50, &recorder()));
        // A network without a recorder takes either.
        without.restore(&mut source, &mut gen, &mut bern).unwrap();
        with.restore(&mut source, &mut gen, &mut bern).unwrap();
    }

    /// `ck` in the version 1 layout: the same fields, no recorder.
    fn as_v1(ck: &Checkpoint, key: u32) -> Vec<u8> {
        let mut e = Enc(Vec::new());
        e.bytes(&CKPT_MAGIC);
        e.u32(1);
        e.u32(key);
        e.u64(ck.cycle);
        match &ck.start {
            None => e.u8(0),
            Some(s) => {
                e.u8(1);
                e.u64s(&s.counters());
            }
        }
        e.u64s(&ck.gen_rng);
        e.u64s(&ck.bern_rng);
        e.u32(ck.snap.len() as u32);
        e.bytes(&ck.snap);
        e.u32(crc32(&e.0));
        e.0
    }

    /// A version 1 file holds no recorder, so resuming from it would
    /// drop the packets the window recorded before it: it is refused, and
    /// the run starts over to the uninterrupted point.
    #[test]
    fn a_version_1_checkpoint_is_ignored() {
        let dir = std::env::temp_dir().join(format!("ofar-ckpt-v1-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (cfg, kind, spec) = (
            SimConfig::paper(2),
            MechanismKind::Ofar,
            TrafficSpec::uniform(),
        );
        let opts = SteadyOpts {
            warmup: 300,
            measure: 900,
        };
        let plain = crate::steady_state(cfg, kind, &spec, 0.3, opts, 5);
        let policy = CheckpointPolicy::every(400, &dir);
        let point = Point::new(cfg, kind, &spec, 5, Shape::Steady { load: 0.3, opts });
        crate::run::steady(&point, &policy, NoHooks);
        let key = run_key(&point);
        // Pinned: a key that moves renames every checkpoint file, and a
        // resume no longer finds the ones already on disk.
        assert_eq!(key, 0x1459_08be);
        let (cycle, path) = policy.list(key).into_iter().next().expect("a checkpoint");
        let ck = decode(&std::fs::read(&path).unwrap(), key).unwrap();
        assert!(cycle > opts.warmup && ck.recorder.as_ref().unwrap().recorded() > 0);
        for (_, old) in policy.list(key) {
            std::fs::remove_file(old).unwrap();
        }
        std::fs::write(&path, as_v1(&ck, key)).unwrap();
        assert!(policy.resume(key).is_none(), "a version 1 file decodes");
        let (resumed, NoHooks) = crate::run::steady(&point, &policy, NoHooks);
        assert_eq!(resumed, plain);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sound envelope around a snapshot this build does not read (a
    /// version 5 one, from before the STATE section's varints): the
    /// snapshot refuses to restore, so the run starts over to the
    /// uninterrupted point.
    #[test]
    fn a_checkpoint_of_a_version_5_snapshot_is_ignored() {
        let dir = std::env::temp_dir().join(format!("ofar-ckpt-v5-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (cfg, kind, spec) = (
            SimConfig::paper(2),
            MechanismKind::Ofar,
            TrafficSpec::uniform(),
        );
        let opts = SteadyOpts {
            warmup: 300,
            measure: 900,
        };
        let plain = crate::steady_state(cfg, kind, &spec, 0.3, opts, 5);
        let policy = CheckpointPolicy::every(400, &dir);
        let point = Point::new(cfg, kind, &spec, 5, Shape::Steady { load: 0.3, opts });
        crate::run::steady(&point, &policy, NoHooks);
        let key = run_key(&point);
        let (cycle, path) = policy.list(key).into_iter().next().expect("a checkpoint");
        let ck = decode(&std::fs::read(&path).unwrap(), key).unwrap();
        for (_, old) in policy.list(key) {
            std::fs::remove_file(old).unwrap();
        }
        let le = |v: u32| {
            let mut e = Enc(Vec::new());
            e.u32(v);
            e.0
        };
        let mut snap = ck.snap.clone();
        snap[8..12].copy_from_slice(&le(5));
        let body = snap.len() - 4;
        let sealed = crc32(&snap[..body]);
        snap[body..].copy_from_slice(&le(sealed));
        let file = encode(
            key,
            cycle,
            ck.start.as_ref(),
            ck.gen_rng,
            ck.bern_rng,
            ck.recorder.as_ref(),
            &snap,
        );
        std::fs::write(&path, file).unwrap();
        let found = policy.resume(key).expect("the envelope decodes");
        let mut net = crate::run::network(&point, NoHooks);
        assert_eq!(
            net.restore_snapshot(&found.snap),
            Err(SnapshotError::UnsupportedVersion { found: 5 })
        );
        let (resumed, NoHooks) = crate::run::steady(&point, &policy, NoHooks);
        assert_eq!(resumed, plain);
        std::fs::remove_dir_all(&dir).ok();
    }
}
