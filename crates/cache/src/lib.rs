//! Parameterizable N-way set-associative cache hierarchy model.
//!
//! This crate is the stand-in for gem5's classic cache system in the paper:
//! the instruction-accurate simulator replicates the *geometry* of the
//! target CPU's caches (Table I of the paper) and reports, per cache, the
//! read/write hit, miss and replacement counts that feed the score
//! predictor (Section III-D).
//!
//! The model is deliberately functional rather than timed: an access either
//! hits or walks down the hierarchy, and the only outputs are statistics.
//! Timing is layered on top by `simtune-hw`.
//!
//! # What a cache costs
//!
//! A tuning run builds one hierarchy per trial, and most trials touch a
//! sliver of it (the x86 L3 alone is 524 288 lines), so the model is laid
//! out for a trial to pay for the sets it touches and nothing else:
//!
//! * **Flat.** A [`Cache`] is three arrays — a packed word per way (tag,
//!   valid, dirty), replacement state sized by policy, a stamp per set —
//!   indexed by shift and mask. Zero means empty.
//! * **Generation-stamped.** A set is live only while its stamp equals
//!   the cache's generation; a stale set is zeroed the first time it is
//!   touched. [`Cache::flush`] is one increment. When the 32-bit
//!   generation would wrap, the stamps are zeroed once.
//! * **Recycled.** Dropping a cache parks its arrays on a private,
//!   process-wide list (at most 64 entries, the oldest displaced first)
//!   and [`Cache::new`] takes arrays of its shape from there before it
//!   allocates. Because inherited sets are stale, a cache on used arrays
//!   is observably a new cache: same outcomes, same counters, the
//!   `Random` policy's stream restarted at its seed. The list is
//!   process-wide because hierarchies are built on whichever thread runs
//!   the trial and those threads come and go with each tuning run.
//!
//! [`CacheHierarchy::new`] plus drop is under a microsecond for every
//! preset once the first hierarchy of that geometry has been dropped.
//! The nested model this replaced survives as the test oracle
//! (`src/reference.rs`).
//!
//! # Example
//!
//! ```
//! use simtune_cache::{CacheHierarchy, HierarchyConfig, ServicedBy};
//!
//! let mut h = CacheHierarchy::new(HierarchyConfig::x86_ryzen_5800x());
//! // First touch misses all the way to memory...
//! assert_eq!(h.data_read(0x1000), ServicedBy::Memory);
//! // ...the second touch of the same line hits in L1D.
//! assert_eq!(h.data_read(0x1008), ServicedBy::L1d);
//! assert_eq!(h.stats().l1d.read_hits, 1);
//! ```

mod cache;
mod config;
mod hierarchy;
#[cfg(test)]
mod reference;
mod replacement;
mod stats;

pub use cache::{AccessKind, Cache, CacheOutcome, ResidentLine};
pub use config::{CacheConfig, ConfigError, HierarchyConfig};
pub use hierarchy::{CacheHierarchy, ServicedBy};
pub use replacement::ReplacementPolicy;
pub use stats::{CacheStats, HierarchyStats};

/// Iterator over the cache-line base addresses touched by an access of
/// `size` bytes at `addr` for a given line size.
///
/// Scalar accesses touch one line; vector loads/stores may straddle a line
/// boundary and touch two. An access that runs past the top of the
/// address space touches the lines up to `u64::MAX` and stops there (the
/// simulator's memory then faults it; the lines it reached were
/// accessed).
///
/// # Example
///
/// ```
/// let lines: Vec<u64> = simtune_cache::lines_touched(60, 8, 64).collect();
/// assert_eq!(lines, vec![0, 64]);
/// ```
#[inline]
pub fn lines_touched(addr: u64, size: u64, line_bytes: u64) -> impl Iterator<Item = u64> {
    debug_assert!(line_bytes.is_power_of_two());
    let first = addr & !(line_bytes - 1);
    let last = addr.saturating_add(size.max(1) - 1) & !(line_bytes - 1);
    std::iter::successors(Some(first), move |&l| l.checked_add(line_bytes))
        .take_while(move |&l| l <= last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_touched_single_line() {
        let v: Vec<u64> = lines_touched(64, 4, 64).collect();
        assert_eq!(v, vec![64]);
    }

    #[test]
    fn lines_touched_straddles_boundary() {
        let v: Vec<u64> = lines_touched(126, 8, 64).collect();
        assert_eq!(v, vec![64, 128]);
    }

    #[test]
    fn lines_touched_stops_at_the_top_of_the_address_space() {
        // `addr + size - 1` does not fit 64 bits here.
        let v: Vec<u64> = lines_touched(u64::MAX - 3, 8, 64).collect();
        assert_eq!(v, vec![0xFFFF_FFFF_FFFF_FFC0]);
        let v: Vec<u64> = lines_touched(u64::MAX - 64, 256, 64).collect();
        assert_eq!(v, vec![0xFFFF_FFFF_FFFF_FF80, 0xFFFF_FFFF_FFFF_FFC0]);
        let v: Vec<u64> = lines_touched(u64::MAX, 1, 1).collect();
        assert_eq!(v, vec![u64::MAX]);
    }

    #[test]
    fn lines_touched_zero_size_counts_one_line() {
        let v: Vec<u64> = lines_touched(10, 0, 64).collect();
        assert_eq!(v, vec![0]);
    }
}
