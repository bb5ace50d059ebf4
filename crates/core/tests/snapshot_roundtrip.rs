//! Property test: a `SimCache` snapshot is a lossless, layout-free
//! round trip. Whatever mix of report shapes and shard counts produced
//! the cache, `save_to` → `load_from` must rebuild
//! bit-identical `SimReport`s — and two equal caches must serialize to
//! byte-identical files, so snapshots can be compared and deduplicated
//! by content.

use proptest::prelude::*;
use simtune_core::{CycleBreakdown, SimCache, SimReport, SnapshotLoad, SNAPSHOT_SCHEMA};
use simtune_isa::SimStats;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Keys are opaque bytes to the cache (production ones are 16-byte
/// digests), so the keys here vary in length and deliberately include
/// non-UTF-8 bytes.
fn key(idx: u8) -> Vec<u8> {
    let mut k = vec![0xFF, idx, 0x00];
    k.extend(format!("snap-{idx}").into_bytes());
    k.extend(std::iter::repeat_n(idx, usize::from(idx) % 5));
    k
}

/// A report shaped by `selector`: one in five carries a cycle breakdown
/// (the pipelined tier's), the rest are plain.
fn report(marker: u64, selector: u8) -> SimReport {
    SimReport {
        stats: SimStats {
            host_nanos: marker,
            ..SimStats::default()
        },
        backend: format!("backend-{}", selector % 3),
        // Fractional components so the round trip covers the bit-exact
        // f64 encoding, not just integral values.
        cycles: (selector % 5 == 3).then_some(CycleBreakdown {
            pipeline: marker as f64 + 0.25,
            memory: (marker % 97) as f64 / 3.0,
            control: (marker % 13) as f64,
        }),
    }
}

/// A process-unique, test-unique temp path; proptest shrinking reruns
/// cases, so every invocation gets a fresh file.
fn temp_snapshot() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "simtune_snapshot_prop_{}_{n}.json",
        std::process::id()
    ))
}

fn fill(cache: &SimCache, idxs: &[u8], markers: &[u64], selectors: &[u8]) {
    for (i, &idx) in idxs.iter().enumerate() {
        cache.insert(
            key(idx),
            report(markers[i % markers.len()], selectors[i % selectors.len()]),
        );
    }
}

/// One entry under `schema`, with `old_members` spliced in after its
/// backend: v4 and v5 wrote a member there that v6 dropped, so passing
/// it gives the shape the previous writers produced.
fn one_entry_snapshot(schema: &str, key_hex: &str, old_members: &str) -> String {
    let level = r#"{"counters":[1,2,3,4,5,6]}"#;
    format!(
        r#"{{"schema":"{schema}","entries":[{{"key":"{key_hex}","backend":"accurate",{old_members}"stats":{{"mix":[1,2,3,4,5,6,7,8],"l1d":{level},"l1i":{level},"l2":{level},"l3":null,"dram":[9,10],"host_nanos":11}},"cycles":null}}]}}"#
    )
}

/// The schema bumps: a well-formed v4 snapshot (keyed on the hex of the
/// request's full text) and a well-formed v5 one (keyed on a digest),
/// each exactly as its writer shaped it, are refused to a logged cold
/// start; a v6 entry under a 32-hex-character digest key loads and
/// re-saves byte-identically.
#[test]
fn v4_and_v5_are_refused_and_v6_roundtrips_byte_identically() {
    assert_eq!(SNAPSHOT_SCHEMA, "simtune-simcache-v6");
    let path = temp_snapshot();
    let text_key: String = b"target=riscv-u74 lanes=1 inst_bytes=4\nfidelity=[accurate @ cfg]\n"
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    let digest_key = "00ff7f80a5c3e1d2b4968778695a4b3c";
    let old = r#""extrapolated":false,"#;
    let cache = SimCache::new();
    for (rejected, old_snapshot) in [
        one_entry_snapshot("simtune-simcache-v4", &text_key, old),
        one_entry_snapshot("simtune-simcache-v5", digest_key, old),
    ]
    .iter()
    .enumerate()
    {
        std::fs::write(&path, old_snapshot).expect("writes");
        let (outcome, logs) = simtune_core::log::capture(|| cache.load_from(&path).expect("reads"));
        assert!(matches!(outcome, SnapshotLoad::Rejected(_)), "{outcome:?}");
        assert!(cache.is_empty());
        assert_eq!(
            cache.snapshot_stats().rejected_snapshots,
            rejected as u64 + 1
        );
        assert_eq!(logs.len(), 1, "{logs:?}");
        assert!(logs[0].contains("cold start"), "{logs:?}");
    }

    let v6 = one_entry_snapshot(SNAPSHOT_SCHEMA, digest_key, "");
    std::fs::write(&path, &v6).expect("writes");
    assert_eq!(
        cache.load_from(&path).expect("reads"),
        SnapshotLoad::Loaded(1)
    );
    let again = temp_snapshot();
    cache.save_to(&again).expect("re-saves");
    assert_eq!(std::fs::read_to_string(&again).expect("re-saved bytes"), v6);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&again).ok();
}

/// A 200 KB snapshot nesting 100 000 arrays deep (what a `--cache`
/// path can point at) is a logged cold start; skipping it recursed
/// once per level and overflowed the stack of the booting server.
#[test]
fn a_deeply_nested_snapshot_is_a_logged_cold_start() {
    let path = temp_snapshot();
    let depth = 100_000;
    let deep = format!(
        r#"{{"schema":"{SNAPSHOT_SCHEMA}","entries":{}{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    std::fs::write(&path, deep).expect("writes");
    let cache = SimCache::new();
    let (outcome, logs) = simtune_core::log::capture(|| cache.load_from(&path).expect("reads"));
    match outcome {
        SnapshotLoad::Rejected(reason) => assert!(reason.contains("nest deeper"), "{reason}"),
        other => panic!("expected a rejection, got {other:?}"),
    }
    assert!(cache.is_empty());
    assert_eq!(logs.len(), 1, "{logs:?}");
    assert!(logs[0].contains("cold start"), "{logs:?}");
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Across shard layouts: every surviving entry loads
    /// back bit-identical, and re-saving the loaded cache reproduces
    /// the original file byte for byte.
    #[test]
    fn snapshot_roundtrips_sharded_caches(
        idxs in prop::collection::vec(0u8..32, 1..80),
        markers in prop::collection::vec(0u64..100_000, 1..80),
        selectors in prop::collection::vec(any::<u8>(), 1..80),
        save_shards in 1usize..9,
        load_shards in 1usize..9,
    ) {
        let path = temp_snapshot();
        let original = SimCache::with_shards(save_shards);
        fill(&original, &idxs, &markers, &selectors);
        let written = original.save_to(&path).expect("saves");
        prop_assert_eq!(written, original.len());

        let restored = SimCache::with_shards(load_shards);
        let loaded = restored.load_from(&path).expect("reads");
        prop_assert_eq!(loaded, SnapshotLoad::Loaded(written));
        prop_assert_eq!(restored.len(), original.len());
        for &idx in &idxs {
            let k = key(idx);
            prop_assert_eq!(original.lookup(&k), restored.lookup(&k));
        }

        // Equal contents ⇒ equal bytes, regardless of shard layout.
        let again = temp_snapshot();
        restored.save_to(&again).expect("re-saves");
        prop_assert_eq!(
            std::fs::read(&path).expect("original bytes"),
            std::fs::read(&again).expect("re-saved bytes")
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&again).ok();
    }
}
