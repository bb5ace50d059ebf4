//! Disk persistence for [`SimCache`]: versioned, fingerprint-keyed
//! snapshots so a warm cache survives restarts.
//!
//! The paper's economics rest on amortizing simulation across runs;
//! CAPSim amortizes through a learned predictor and Pac-Sim through
//! reused sampled regions (PAPERS.md). [`SimCache::save_to`] /
//! [`SimCache::load_from`] give the memo cache the same property: a
//! tuning service can write its cache on shutdown and start warm, and a
//! snapshot can ship between machines — the fingerprint covers target,
//! backend, configuration and limits, so a stale or foreign entry can
//! only ever miss, never corrupt a result.
//!
//! # Format and versioning
//!
//! A snapshot is one JSON object (`{"schema": "simtune-simcache-v6",
//! "entries": [...]}`). Each entry stores its fingerprint — the 16-byte
//! digest of [`crate::memo`], as 32 lowercase hex characters; the
//! reader accepts any even-length hex string, keys being opaque bytes
//! to the cache — plus the memoized [`SimReport`] flattened into
//! counter arrays (instruction mix, six counters per cache level, DRAM
//! traffic) and the run's host nanoseconds.
//! Entries are sorted by fingerprint, so equal caches serialize to
//! byte-identical files.
//!
//! The `schema` string is the only compatibility contract: readers
//! accept exactly their own version and reject everything else. There
//! are no migrations — a cache is a cache, and the cost of a rejected
//! snapshot is one cold start.
//!
//! # Crash-safety contract
//!
//! * **Writes are atomic**: [`SimCache::save_to`] (and
//!   [`atomic_write`]) serialize to a temporary file in the destination
//!   directory and `rename` it into place, so a reader observes either
//!   the old snapshot or the new one — never a truncated hybrid, even
//!   if the writer is killed mid-write or the disk fills.
//! * **Loads never fail the service**: a missing file is a cold start;
//!   a corrupt, truncated or version-mismatched file is *also* a cold
//!   start — logged, counted in
//!   [`SnapshotStats`](crate::metrics::SnapshotStats), and reported as
//!   [`SnapshotLoad::Rejected`] — because refusing to boot over a bad
//!   cache file would invert the cache's value. Only genuine I/O errors
//!   (permissions, hardware) surface as `Err`.
//! * **Replays are bit-identical**: a loaded entry is byte-for-byte the
//!   stored report (`host_nanos` included), so a warm run scores
//!   exactly what the cold run that wrote the snapshot scored —
//!   enforced by the round-trip differential test in
//!   `crates/core/tests/snapshot_roundtrip.rs`.

use crate::backend::SimReport;
use crate::memo::SimCache;
use serde::{Deserialize, Serialize};
use simtune_cache::{CacheStats, HierarchyStats};
use simtune_hw::CycleBreakdown;
use simtune_isa::{InstMix, SimStats};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Version tag accepted by this reader; anything else is rejected (and
/// degrades to a cold start). v2: fingerprints gained the replay-engine
/// identity, so v1 snapshots (keyed without an `engine=` line) are
/// refused rather than replayed under ambiguous keys. v3: fingerprints
/// are re-keyed on [fidelity digests](crate::SimBackend::fidelity_digest)
/// instead of the old `(backend, fidelity, memo key)` triple, and
/// reports gained an optional [`CycleBreakdown`] — v2 snapshots are
/// refused (logged cold start) rather than replayed under stale keys.
/// v4: entries lost the `fidelity`/`fraction` members (reports no
/// longer carry a fidelity enum; the tier lives in the fingerprint's
/// digest) — v3 snapshots are refused the same way. v5: keys are
/// 128-bit digests of the canonical request instead of its full text, so
/// a v4 entry could never be looked up again — v4 snapshots are refused
/// too. v6: entries lost the flag that marked a report scaled up from a
/// prefix run (the sampled tier, the only one that did, is gone) — v5
/// snapshots are refused the same way.
pub const SNAPSHOT_SCHEMA: &str = "simtune-simcache-v6";

/// Outcome of [`SimCache::load_from`]. Every variant leaves the cache
/// usable; only I/O errors surface as `Err`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotLoad {
    /// No snapshot exists at the path — plain cold start.
    Missing,
    /// Snapshot restored; carries the number of entries inserted.
    Loaded(usize),
    /// Snapshot refused (corrupt, truncated or version-mismatched);
    /// carries the reason. The cache starts cold.
    Rejected(String),
}

/// Writes `bytes` to `path` atomically: serialize to a sibling
/// temporary file, then `rename` into place. A crash mid-write leaves
/// either the previous file or no file — never a truncated one. Parent
/// directories are created as needed.
///
/// # Errors
///
/// Propagates filesystem errors from the write or the rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => {
            fs::create_dir_all(dir)?;
            dir.to_path_buf()
        }
        _ => std::path::PathBuf::from("."),
    };
    // Unique per call (`SimService` is `Sync`: threads of one process
    // save to one path): concurrent writers race on the rename (last
    // one wins, which is fine — both files are complete), never on the
    // temporary file itself.
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

#[derive(Debug, Serialize, Deserialize)]
struct PersistedCacheStats {
    counters: [u64; 6],
}

impl From<CacheStats> for PersistedCacheStats {
    fn from(s: CacheStats) -> Self {
        PersistedCacheStats {
            counters: [
                s.read_hits,
                s.read_misses,
                s.read_replacements,
                s.write_hits,
                s.write_misses,
                s.write_replacements,
            ],
        }
    }
}

impl From<PersistedCacheStats> for CacheStats {
    fn from(p: PersistedCacheStats) -> Self {
        let [rh, rm, rr, wh, wm, wr] = p.counters;
        CacheStats {
            read_hits: rh,
            read_misses: rm,
            read_replacements: rr,
            write_hits: wh,
            write_misses: wm,
            write_replacements: wr,
        }
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct PersistedStats {
    mix: [u64; 8],
    l1d: PersistedCacheStats,
    l1i: PersistedCacheStats,
    l2: PersistedCacheStats,
    l3: Option<PersistedCacheStats>,
    dram: [u64; 2],
    host_nanos: u64,
}

impl From<&SimStats> for PersistedStats {
    fn from(s: &SimStats) -> Self {
        let m = s.inst_mix;
        PersistedStats {
            mix: [
                m.int_alu,
                m.fp_alu,
                m.vec_alu,
                m.loads,
                m.stores,
                m.branches,
                m.branches_taken,
                m.other,
            ],
            l1d: s.cache.l1d.into(),
            l1i: s.cache.l1i.into(),
            l2: s.cache.l2.into(),
            l3: s.cache.l3.map(Into::into),
            dram: [s.cache.dram_reads, s.cache.dram_writes],
            host_nanos: s.host_nanos,
        }
    }
}

impl From<PersistedStats> for SimStats {
    fn from(p: PersistedStats) -> Self {
        let [int_alu, fp_alu, vec_alu, loads, stores, branches, branches_taken, other] = p.mix;
        SimStats {
            inst_mix: InstMix {
                int_alu,
                fp_alu,
                vec_alu,
                loads,
                stores,
                branches,
                branches_taken,
                other,
            },
            cache: HierarchyStats {
                l1d: p.l1d.into(),
                l1i: p.l1i.into(),
                l2: p.l2.into(),
                l3: p.l3.map(Into::into),
                dram_reads: p.dram[0],
                dram_writes: p.dram[1],
            },
            host_nanos: p.host_nanos,
        }
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct PersistedEntry {
    /// Hex-encoded canonical fingerprint (raw bytes, not UTF-8).
    key: String,
    backend: String,
    stats: PersistedStats,
    /// Bit patterns (`f64::to_bits`) of the cycle breakdown's
    /// `[pipeline, memory, control]` components, so the replay is
    /// bit-identical; `null` for tiers without a timing model.
    cycles: Option<[u64; 3]>,
}

impl PersistedEntry {
    fn new(key: &[u8], report: SimReport) -> Self {
        PersistedEntry {
            key: encode_hex(key),
            backend: report.backend,
            stats: (&report.stats).into(),
            cycles: report.cycles.map(|c| {
                [
                    c.pipeline.to_bits(),
                    c.memory.to_bits(),
                    c.control.to_bits(),
                ]
            }),
        }
    }
}

/// About what one entry of a bundled tier takes in the document.
const ENTRY_BYTES: usize = 352;

/// The snapshot document. [`SimCache::save_to`] writes its encoding
/// entry by entry; the reader parses it whole.
#[derive(Debug, Serialize, Deserialize)]
struct PersistedSnapshot {
    schema: String,
    entries: Vec<PersistedEntry>,
}

fn encode_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    out
}

/// Decodes over the raw bytes — a `str` index could land inside a
/// multi-byte character of a hostile file and panic.
fn decode_hex(s: &str) -> Result<Vec<u8>, String> {
    let nibble = |i: usize, c: u8| {
        char::from(c)
            .to_digit(16)
            .map(|d| d as u8)
            .ok_or_else(|| format!("bad hex key byte at {i}"))
    };
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex key".into());
    }
    s.as_bytes()
        .chunks_exact(2)
        .enumerate()
        .map(|(i, pair)| Ok(nibble(2 * i, pair[0])? << 4 | nibble(2 * i, pair[1])?))
        .collect()
}

/// Parses and validates a snapshot document; any defect is a rejection
/// reason, never a panic.
fn decode_snapshot(json: &str) -> Result<Vec<(Vec<u8>, SimReport)>, String> {
    let snap: PersistedSnapshot =
        serde_json::from_str(json).map_err(|e| format!("malformed snapshot: {e}"))?;
    if snap.schema != SNAPSHOT_SCHEMA {
        return Err(format!(
            "schema {:?} does not match {SNAPSHOT_SCHEMA:?}",
            snap.schema
        ));
    }
    snap.entries
        .into_iter()
        .map(|e| {
            let key = decode_hex(&e.key)?;
            let report = SimReport {
                stats: e.stats.into(),
                backend: e.backend,
                cycles: e.cycles.map(|[p, m, c]| CycleBreakdown {
                    pipeline: f64::from_bits(p),
                    memory: f64::from_bits(m),
                    control: f64::from_bits(c),
                }),
            };
            Ok((key, report))
        })
        .collect()
}

impl SimCache {
    /// Writes every resident entry to `path` as a versioned snapshot,
    /// atomically (temp file + rename in the destination directory).
    /// Returns the number of entries written. Entries are sorted by
    /// fingerprint, so equal caches produce byte-identical files.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; serialization itself cannot fail.
    pub fn save_to(&self, path: &Path) -> io::Result<usize> {
        // The document of `PersistedSnapshot`, serialized one entry at a
        // time into one buffer: besides the key list, the text is the
        // only copy of the cache a save holds, so a server saving after
        // every batch of requests keeps no second cache resident.
        let mut keys = self.export_keys();
        keys.sort_unstable();
        let mut json = String::with_capacity(64 + keys.len() * ENTRY_BYTES);
        json.push_str("{\"schema\":");
        SNAPSHOT_SCHEMA.serialize(&mut json);
        json.push_str(",\"entries\":[");
        let mut n = 0;
        for key in &keys {
            // An entry cleared since the keys were listed is left out.
            let Some(report) = self.peek(key) else {
                continue;
            };
            if n > 0 {
                json.push(',');
            }
            PersistedEntry::new(key, report).serialize(&mut json);
            n += 1;
        }
        json.push_str("]}");
        atomic_write(path, json.as_bytes())?;
        self.snap_saved.fetch_add(1, Ordering::Relaxed);
        Ok(n)
    }

    /// Restores entries from a snapshot written by [`SimCache::save_to`],
    /// inserting them into this cache.
    ///
    /// Degrades instead of failing: a missing file returns
    /// [`SnapshotLoad::Missing`]; a corrupt, truncated or
    /// version-mismatched snapshot logs a warning, bumps the rejection
    /// counter in [`SimCache::snapshot_stats`] and returns
    /// [`SnapshotLoad::Rejected`] — the service starts cold either way.
    ///
    /// # Errors
    ///
    /// Only genuine I/O errors (permissions, hardware) surface as `Err`;
    /// [`std::io::ErrorKind::NotFound`] is matched on the read itself
    /// (no TOCTOU `exists()` probe) and mapped to `Missing`.
    pub fn load_from(&self, path: &Path) -> io::Result<SnapshotLoad> {
        // Read as bytes: a file that is not UTF-8 is a corrupt snapshot,
        // not an I/O error.
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(SnapshotLoad::Missing),
            Err(e) => return Err(e),
        };
        let decoded = std::str::from_utf8(&bytes)
            .map_err(|e| format!("snapshot is not UTF-8: {e}"))
            .and_then(decode_snapshot);
        match decoded {
            Ok(entries) => {
                let n = entries.len();
                for (key, report) in entries {
                    self.insert(key, report);
                }
                self.snap_loaded.fetch_add(n as u64, Ordering::Relaxed);
                Ok(SnapshotLoad::Loaded(n))
            }
            Err(reason) => {
                self.snap_rejected.fetch_add(1, Ordering::Relaxed);
                crate::log::warn(format!(
                    "ignoring cache snapshot {}: {reason} (cold start)",
                    path.display()
                ));
                Ok(SnapshotLoad::Rejected(reason))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report shaped like `tier`'s: pipelined ones carry a cycle
    /// breakdown.
    fn report(n: u64, tier: &str) -> SimReport {
        SimReport {
            stats: SimStats {
                inst_mix: InstMix {
                    int_alu: n,
                    loads: n + 1,
                    ..Default::default()
                },
                cache: HierarchyStats {
                    l1d: CacheStats {
                        read_hits: n,
                        ..Default::default()
                    },
                    l3: n.is_multiple_of(2).then(CacheStats::default),
                    dram_reads: n,
                    ..Default::default()
                },
                host_nanos: n * 7,
            },
            backend: tier.into(),
            // Pipelined entries carry a breakdown with a fractional
            // component, so the round-trip exercises the bit-exact
            // f64 encoding.
            cycles: (tier == "pipelined").then_some(CycleBreakdown {
                pipeline: n as f64 + 0.5,
                memory: n as f64 * 3.0,
                control: n as f64,
            }),
        }
    }

    /// A current-schema snapshot of one zeroed entry under `key`, with
    /// `extra_members` spliced into the entry.
    fn one_entry_snapshot(key: &str, extra_members: &str) -> String {
        format!(
            r#"{{"schema":"{SNAPSHOT_SCHEMA}","entries":[{{"key":"{key}","backend":"b",{extra_members}"stats":{{"mix":[0,0,0,0,0,0,0,0],"l1d":{{"counters":[0,0,0,0,0,0]}},"l1i":{{"counters":[0,0,0,0,0,0]}},"l2":{{"counters":[0,0,0,0,0,0]}},"l3":null,"dram":[0,0],"host_nanos":0}},"cycles":null}}]}}"#
        )
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "simtune_snapshot_unit_{}_{name}",
            std::process::id()
        ))
    }

    #[test]
    fn save_load_roundtrips_every_fidelity() {
        let cache = SimCache::new();
        let fids = ["accurate", "fast-count", "pipelined", "board", "custom"];
        for (i, f) in fids.iter().enumerate() {
            // Non-UTF-8 keys: raw bytes including 0xFF.
            cache.insert(vec![0xFF, i as u8, 0x00, 0x80], report(i as u64, f));
        }
        let path = tmp("roundtrip.json");
        assert_eq!(cache.save_to(&path).unwrap(), fids.len());
        let fresh = SimCache::new();
        assert_eq!(
            fresh.load_from(&path).unwrap(),
            SnapshotLoad::Loaded(fids.len())
        );
        for (i, f) in fids.iter().enumerate() {
            let got = fresh.peek(&[0xFF, i as u8, 0x00, 0x80]).unwrap();
            assert_eq!(got, report(i as u64, f));
        }
        assert_eq!(fresh.snapshot_stats().loaded_entries, fids.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_saves_to_one_path_never_expose_a_partial_file() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        const WRITERS: usize = 8;
        // Differently sized snapshots, so a writer truncating another's
        // temporary mid-write leaves a file that does not parse.
        let caches: Vec<SimCache> = (0..WRITERS)
            .map(|t| {
                let cache = SimCache::new();
                for i in 0..(t as u32 + 1) * 40 {
                    cache.insert(i.to_le_bytes().to_vec(), report(u64::from(i), "accurate"));
                }
                cache
            })
            .collect();
        let dir = tmp("concurrent");
        let path = dir.join("cache.json");
        let start = Barrier::new(WRITERS + 1);
        let done = AtomicBool::new(false);
        let (saves, loads) = std::thread::scope(|s| {
            let loader = s.spawn(|| {
                start.wait();
                let mut loads = Vec::new();
                while !done.load(Ordering::SeqCst) {
                    loads.push(SimCache::new().load_from(&path));
                }
                loads
            });
            let writers: Vec<_> = caches
                .iter()
                .map(|cache| {
                    s.spawn(|| {
                        start.wait();
                        (0..20).map(|_| cache.save_to(&path)).collect::<Vec<_>>()
                    })
                })
                .collect();
            let saves: Vec<_> = writers
                .into_iter()
                .flat_map(|w| w.join().expect("writer thread"))
                .collect();
            done.store(true, Ordering::SeqCst);
            (saves, loader.join().expect("loader thread"))
        });
        for load in loads {
            let load = load.expect("no I/O error");
            assert!(!matches!(load, SnapshotLoad::Rejected(_)), "{load:?}");
        }
        for save in saves {
            save.expect("every save lands");
        }
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_is_a_clean_cold_start() {
        let cache = SimCache::new();
        let outcome = cache.load_from(&tmp("never_written.json")).unwrap();
        assert_eq!(outcome, SnapshotLoad::Missing);
        assert_eq!(cache.snapshot_stats().rejected_snapshots, 0);
    }

    #[test]
    fn truncated_snapshot_degrades_to_cold_start() {
        let cache = SimCache::new();
        cache.insert(vec![1, 2, 3], report(1, "accurate"));
        let path = tmp("truncated.json");
        cache.save_to(&path).unwrap();
        // Simulate a crash mid-write with a non-atomic writer: chop the
        // file in half.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let fresh = SimCache::new();
        let outcome = fresh.load_from(&path).unwrap();
        assert!(matches!(outcome, SnapshotLoad::Rejected(_)), "{outcome:?}");
        assert!(fresh.is_empty());
        assert_eq!(fresh.snapshot_stats().rejected_snapshots, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_degrades_to_cold_start() {
        let path = tmp("version.json");
        atomic_write(&path, br#"{"schema":"simtune-simcache-v999","entries":[]}"#).unwrap();
        let cache = SimCache::new();
        match cache.load_from(&path).unwrap() {
            SnapshotLoad::Rejected(reason) => assert!(reason.contains("v999"), "{reason}"),
            other => panic!("expected rejection, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_snapshot_is_refused_with_a_captured_warning() {
        // Pre-v3 snapshots were keyed before the fidelity-digest re-key
        // and carry no `cycles` member; replaying them would resurrect
        // entries under stale fingerprints, so the reader refuses them.
        let path = tmp("v2.json");
        atomic_write(&path, br#"{"schema":"simtune-simcache-v2","entries":[]}"#).unwrap();
        let cache = SimCache::new();
        let (outcome, logs) = crate::log::capture(|| cache.load_from(&path).unwrap());
        match outcome {
            SnapshotLoad::Rejected(reason) => assert!(reason.contains("v2"), "{reason}"),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(logs.len(), 1, "{logs:?}");
        assert!(logs[0].contains("cold start"), "{logs:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_snapshot_byte_that_is_not_utf8_is_a_rejection_not_an_error() {
        let cache = SimCache::new();
        cache.insert(vec![1, 2, 3], report(1, "accurate"));
        let path = tmp("not_utf8.json");
        cache.save_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] |= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        let fresh = SimCache::new();
        let outcome = fresh.load_from(&path).unwrap();
        assert!(matches!(outcome, SnapshotLoad::Rejected(_)), "{outcome:?}");
        assert_eq!(fresh.snapshot_stats().rejected_snapshots, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_fidelity_rejects_the_snapshot() {
        // The v3-era `fidelity`/`fraction` members are unknown to this
        // reader: an entry that still carries them rejects the file even
        // under the current schema tag.
        let path = tmp("fidelity.json");
        let json = one_entry_snapshot("00", r#""fidelity":"quantum","fraction":null,"#);
        atomic_write(&path, json.as_bytes()).unwrap();
        let cache = SimCache::new();
        assert!(matches!(
            cache.load_from(&path).unwrap(),
            SnapshotLoad::Rejected(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn equal_caches_serialize_to_identical_bytes() {
        let a = SimCache::new();
        let b = SimCache::with_shards(4);
        for i in 0..8u8 {
            // Insert in different orders; sorting canonicalizes.
            a.insert(vec![i, 0xAB], report(i as u64, "accurate"));
            b.insert(vec![7 - i, 0xAB], report((7 - i) as u64, "accurate"));
        }
        let (pa, pb) = (tmp("detA.json"), tmp("detB.json"));
        a.save_to(&pa).unwrap();
        b.save_to(&pb).unwrap();
        assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn a_streamed_save_is_the_serialized_document() {
        let cache = SimCache::with_shards(4);
        let tiers = ["accurate", "board", "pipelined", "fast-count"];
        for i in 0..12u8 {
            cache.insert(
                vec![i.wrapping_mul(37), i],
                report(i.into(), tiers[i as usize % 4]),
            );
        }
        let path = tmp("streamed.json");
        assert_eq!(cache.save_to(&path).unwrap(), 12);
        let mut keys = cache.export_keys();
        keys.sort();
        let whole = PersistedSnapshot {
            schema: SNAPSHOT_SCHEMA.to_string(),
            entries: keys
                .iter()
                .map(|k| PersistedEntry::new(k, cache.peek(k).unwrap()))
                .collect(),
        };
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            serde_json::to_string(&whole).unwrap()
        );
        std::fs::remove_file(&path).ok();
        // An empty cache writes an empty document.
        SimCache::new().save_to(&path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!(r#"{{"schema":"{SNAPSHOT_SCHEMA}","entries":[]}}"#)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hex_rejects_garbage() {
        assert!(decode_hex("0").is_err());
        assert!(decode_hex("zz").is_err());
        assert!(decode_hex("+f").is_err(), "a sign is not a hex digit");
        assert_eq!(decode_hex("00ff").unwrap(), vec![0x00, 0xFF]);
        assert_eq!(decode_hex("aBCd").unwrap(), vec![0xAB, 0xCD]);
        let every_byte: Vec<u8> = (0..=255).collect();
        assert_eq!(decode_hex(&encode_hex(&every_byte)).unwrap(), every_byte);
        assert!(encode_hex(&every_byte).ends_with("fdfeff"));
    }

    #[test]
    fn a_non_ascii_hex_key_is_a_rejection_not_a_panic() {
        // "aé1" is four bytes (even), and a `str` slice of its first two
        // would end inside `é`.
        let path = tmp("non_ascii_key.json");
        let json = one_entry_snapshot("aé1", "");
        atomic_write(&path, json.as_bytes()).unwrap();
        let cache = SimCache::new();
        match cache.load_from(&path).unwrap() {
            SnapshotLoad::Rejected(reason) => assert!(reason.contains("hex"), "{reason}"),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(cache.is_empty());
        assert_eq!(cache.snapshot_stats().rejected_snapshots, 1);
        std::fs::remove_file(&path).ok();
    }

    fn cases(default: u32) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// A saved snapshot of every tier's report shape, as bytes.
    fn saved_snapshot() -> Vec<u8> {
        let cache = SimCache::new();
        let tiers = ["accurate", "fast-count", "pipelined", "board"];
        for i in 0..4u8 {
            cache.insert(vec![i, 0xFF, i ^ 0x5A], report(i.into(), tiers[i as usize]));
        }
        let path = tmp("hostile_source.json");
        cache.save_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(cases(64)))]

        /// A snapshot cut off at any byte, or with any one bit flipped,
        /// loads or is rejected as a cold start: never a panic, never an
        /// `Err`.
        #[test]
        fn a_truncated_or_bit_flipped_snapshot_loads_or_is_rejected(
            at in proptest::prelude::any::<usize>(),
            bit in 0u8..8,
            flip in proptest::prelude::any::<bool>(),
        ) {
            let mut bytes = saved_snapshot();
            let at = at % bytes.len();
            if flip {
                bytes[at] ^= 1 << bit;
            } else {
                bytes.truncate(at);
            }
            let path = tmp(&format!("hostile_{:?}.json", std::thread::current().id()));
            std::fs::write(&path, &bytes).unwrap();
            let cache = SimCache::new();
            let outcome = cache.load_from(&path);
            std::fs::remove_file(&path).ok();
            let rejected = cache.snapshot_stats().rejected_snapshots;
            match outcome {
                Ok(SnapshotLoad::Loaded(n)) => proptest::prop_assert!(n <= 4 && rejected == 0),
                Ok(SnapshotLoad::Rejected(_)) => proptest::prop_assert_eq!(rejected, 1),
                other => proptest::prop_assert!(false, "{other:?}"),
            }
        }
    }
}
