//! Property test: the lock-striped `SimCache` is observably identical
//! to the historical single-lock cache on every fingerprint and every
//! operation sequence — sharding only changes contention, never
//! behavior.

use proptest::prelude::*;
use simtune_core::{SimCache, SimReport};
use simtune_isa::SimStats;

/// A distinct, variable-length fingerprint per key index, so keys
/// exercise different shards and different byte lengths.
fn key(idx: u8) -> Vec<u8> {
    let mut k = format!("fingerprint-{idx}-").into_bytes();
    k.extend(std::iter::repeat_n(idx, usize::from(idx) % 7));
    k
}

fn report(marker: u64) -> SimReport {
    SimReport {
        stats: SimStats {
            host_nanos: marker,
            ..SimStats::default()
        },
        backend: "accurate".into(),
        cycles: None,
    }
}

/// Zips the vendored stub's parallel vectors into an op sequence (the
/// stub has no tuple strategies).
fn zip_ops(idxs: &[u8], inserts: &[bool], markers: &[u64]) -> Vec<(u8, bool, u64)> {
    idxs.iter()
        .enumerate()
        .map(|(i, &idx)| (idx, inserts[i % inserts.len()], markers[i % markers.len()]))
        .collect()
}

/// Replays one op sequence on both layouts, asserting lockstep
/// observable equality after every step.
fn assert_equivalent(
    single: &SimCache,
    sharded: &SimCache,
    ops: &[(u8, bool, u64)],
) -> Result<(), TestCaseError> {
    for &(idx, is_insert, marker) in ops {
        let k = key(idx);
        if is_insert {
            single.insert(k.clone(), report(marker));
            sharded.insert(k, report(marker));
        } else {
            let a = single.lookup(&k);
            let b = sharded.lookup(&k);
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(single.len(), sharded.len());
        prop_assert_eq!(single.stats(), sharded.stats());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-lock and 8-way sharded caches agree on every
    /// fingerprint, every lookup result and every counter.
    #[test]
    fn sharded_cache_matches_single_lock(
        idxs in prop::collection::vec(0u8..24, 1..120),
        inserts in prop::collection::vec(any::<bool>(), 1..120),
        markers in prop::collection::vec(0u64..1000, 1..120),
    ) {
        let ops = zip_ops(&idxs, &inserts, &markers);
        let single = SimCache::with_shards(1);
        let sharded = SimCache::with_shards(8);
        assert_equivalent(&single, &sharded, &ops)?;
    }
}
