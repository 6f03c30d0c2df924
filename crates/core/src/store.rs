//! Experiment results on disk: a content-addressed store with a
//! manifest, written via atomic tmp-file + rename.
//!
//! Each completed point is an *object* — a file named by the CRC-32 of
//! its content under `objects/` — and the `MANIFEST` file maps
//! `content-hash → point-key`, itself rewritten atomically on every
//! update. A killed writer therefore leaves only whole files behind, and
//! a reader verifies each object's checksum, so a torn object reads as
//! missing. Its reader is `benchmark/`'s `sweep_grid` workload. A killed
//! run resumes through [`crate::checkpoint`], not through this store.
//!
//! The store is deliberately dumb: string keys, string values, no
//! background state. Point (de)serialization for [`SteadyPoint`] is
//! provided alongside ([`point_to_line`] / [`point_from_line`]) using
//! exact bit patterns for the floating-point fields, so a stored point
//! is the point, not a rounding of it.

use crate::run::{SteadyOpts, SteadyPoint};
use ofar_engine::{config_fingerprint, crc32, SimConfig};
use ofar_routing::MechanismKind;
use ofar_traffic::TrafficSpec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A directory of completed experiment points: `MANIFEST` plus
/// content-addressed object files. See the module docs.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    /// key → content hash, mirrored from `MANIFEST`.
    index: BTreeMap<String, u32>,
}

impl ResultStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(root.join("objects"))?;
        let mut index = BTreeMap::new();
        if let Ok(manifest) = std::fs::read_to_string(root.join("MANIFEST")) {
            for line in manifest.lines() {
                // Unparseable lines (a torn write from a crashed process
                // predating the atomic rewrite) are skipped, not fatal:
                // their points simply re-run.
                if let Some((hash, key)) = line.split_once('\t') {
                    if let Ok(h) = u32::from_str_radix(hash, 16) {
                        index.insert(key.to_string(), h);
                    }
                }
            }
        }
        Ok(Self { root, index })
    }

    /// Number of completed points recorded in the manifest.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no completed points.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn object_path(&self, hash: u32) -> PathBuf {
        self.root.join("objects").join(format!("{hash:08x}.res"))
    }

    /// Fetch a completed point's content, verifying its checksum. A
    /// missing or corrupt object (truncated write at kill time) returns
    /// `None` — the caller recomputes and overwrites it.
    pub fn get(&self, key: &str) -> Option<String> {
        let hash = *self.index.get(key)?;
        let content = std::fs::read_to_string(self.object_path(hash)).ok()?;
        (crc32(content.as_bytes()) == hash).then_some(content)
    }

    /// Record a completed point. The object file lands first (atomic
    /// tmp + rename), then the manifest is rewritten the same way, so a
    /// kill between the two leaves an orphan object but never a manifest
    /// entry pointing at nothing durable.
    pub fn put(&mut self, key: &str, content: &str) -> std::io::Result<()> {
        assert!(
            !key.contains('\t') && !key.contains('\n'),
            "store keys must be single-line, tab-free"
        );
        let hash = crc32(content.as_bytes());
        write_atomic_text(&self.object_path(hash), content)?;
        self.index.insert(key.to_string(), hash);
        let mut manifest = String::new();
        for (k, h) in &self.index {
            manifest.push_str(&format!("{h:08x}\t{k}\n"));
        }
        write_atomic_text(&self.root.join("MANIFEST"), &manifest)
    }
}

/// [`ofar_engine::write_atomic`] for text: a crash never leaves a torn
/// file at the final name.
pub fn write_atomic_text(path: &Path, content: &str) -> std::io::Result<()> {
    ofar_engine::write_atomic(path, content.as_bytes())
}

/// Canonical key of one sweep point: every input that affects the
/// result, including the config/mechanism fingerprint and the exact bit
/// pattern of the offered load.
pub fn point_key(
    cfg: &SimConfig,
    kind: MechanismKind,
    spec: &TrafficSpec,
    load: f64,
    opts: SteadyOpts,
    seed: u64,
) -> String {
    let cfg = kind.adapt_config(*cfg);
    format!(
        "cfg={:08x} spec={} load={:016x} warmup={} measure={} seed={}",
        config_fingerprint(&cfg, kind.name()),
        spec.label(),
        load.to_bits(),
        opts.warmup,
        opts.measure,
        seed
    )
}

/// Serialize a [`SteadyPoint`] to one line, floats as exact bit
/// patterns. Inverse: [`point_from_line`].
pub fn point_to_line(p: &SteadyPoint) -> String {
    format!(
        "v1 {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {} {}",
        p.load.to_bits(),
        p.throughput.to_bits(),
        p.avg_latency.to_bits(),
        p.p50_latency.to_bits(),
        p.p99_latency.to_bits(),
        p.avg_hops.to_bits(),
        p.misroute_rate.to_bits(),
        p.ring_entries,
        p.delivered
    )
}

/// Parse a line written by [`point_to_line`]; `None` on any mismatch.
pub fn point_from_line(line: &str) -> Option<SteadyPoint> {
    let mut it = line.split_ascii_whitespace();
    if it.next()? != "v1" {
        return None;
    }
    let mut f =
        || -> Option<f64> { Some(f64::from_bits(u64::from_str_radix(it.next()?, 16).ok()?)) };
    let load = f()?;
    let throughput = f()?;
    let avg_latency = f()?;
    let p50_latency = f()?;
    let p99_latency = f()?;
    let avg_hops = f()?;
    let misroute_rate = f()?;
    let ring_entries = it.next()?.parse().ok()?;
    let delivered = it.next()?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    Some(SteadyPoint {
        load,
        throughput,
        avg_latency,
        p50_latency,
        p99_latency,
        avg_hops,
        misroute_rate,
        ring_entries,
        delivered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ofar-store-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let dir = tmpdir("roundtrip");
        let mut s = ResultStore::open(&dir).unwrap();
        assert!(s.is_empty());
        s.put("key a", "value a").unwrap();
        s.put("key b", "value b").unwrap();
        assert_eq!(s.get("key a").as_deref(), Some("value a"));
        let s2 = ResultStore::open(&dir).unwrap();
        assert_eq!(s2.len(), 2);
        assert_eq!(s2.get("key b").as_deref(), Some("value b"));
        assert_eq!(s2.get("key c"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_object_reads_as_missing() {
        let dir = tmpdir("corrupt");
        let mut s = ResultStore::open(&dir).unwrap();
        s.put("k", "payload").unwrap();
        let hash = crc32(b"payload");
        std::fs::write(s.object_path(hash), "torn!").unwrap();
        assert_eq!(s.get("k"), None, "corrupt object must not be served");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn point_line_roundtrip_is_bit_exact() {
        let p = SteadyPoint {
            load: 0.3,
            throughput: 0.2987654321,
            avg_latency: 123.456,
            p50_latency: 101.0,
            p99_latency: 999.0,
            avg_hops: 3.75,
            misroute_rate: 0.0625,
            ring_entries: 42,
            delivered: 123_456,
        };
        let line = point_to_line(&p);
        let q = point_from_line(&line).unwrap();
        assert_eq!(p.load.to_bits(), q.load.to_bits());
        assert_eq!(p.throughput.to_bits(), q.throughput.to_bits());
        assert_eq!(p.misroute_rate.to_bits(), q.misroute_rate.to_bits());
        assert_eq!(p.ring_entries, q.ring_entries);
        assert_eq!(p.delivered, q.delivered);
        assert_eq!(point_from_line("v0 junk"), None);
        assert_eq!(point_from_line(&format!("{line} extra")), None);
    }
}
