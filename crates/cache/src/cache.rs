use crate::replacement;
use crate::{CacheConfig, CacheStats, ReplacementPolicy};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Kind of a cache access, as seen by one cache level.
///
/// Instruction fetches are issued to the L1I as [`AccessKind::Read`] by the
/// hierarchy; write-backs arriving from an upper level are
/// [`AccessKind::Write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load or instruction fetch.
    Read,
    /// Store or write-back from an upper level.
    Write,
}

/// Result of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Base address of a dirty line evicted by the fill, if any. The
    /// hierarchy forwards it to the next level as a write (write-back).
    pub writeback: Option<u64>,
}

/// Where a line a read left resident sits in one cache: its line
/// address, set and way, and the cache's residency epoch when the read
/// returned. Only a fill that evicts a valid line and a flush can take
/// a line out of a cache, and both move the epoch, so while the epoch
/// stands the line is still in that way. Returned and taken back by
/// [`crate::CacheHierarchy::fetch_run`]; opaque outside this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentLine {
    line: u64,
    set: usize,
    way: usize,
    epoch: u64,
}

/// A way's word holds a line.
const VALID: u64 = 1;
/// The line was written since its fill.
const DIRTY: u64 = 1 << 1;
/// A way's word is `tag << TAG_SHIFT | DIRTY? | VALID?`; zero is an empty
/// way. [`CacheConfig::new`] rejects geometries whose tag would not fit
/// the remaining [`crate::config::TAG_BITS`] bits.
const TAG_SHIFT: u32 = u64::BITS - crate::config::TAG_BITS;

/// The arrays behind one cache: everything whose size grows with the
/// geometry, and the only part of a [`Cache`] that outlives it (see
/// [`IDLE`]).
///
/// A set's words and replacement state mean something only while its
/// stamp equals `generation`; any other stamp marks the set *stale* —
/// left over from before the last [`Store::invalidate_all`], possibly by
/// another cache — and [`Cache::access`] zeroes a stale set before it
/// first uses it. Every stamp is at most `generation`, so raising
/// `generation` by one empties the whole cache in O(1).
#[derive(Debug, Clone, Default)]
struct Store {
    /// One word per way, set-major: set `s` is `words[s * ways..][..ways]`.
    words: Vec<u64>,
    /// Replacement state, set-major, `state_words` per set (see
    /// [`ReplacementPolicy::state_words`]).
    repl: Vec<u64>,
    /// One generation stamp per set.
    stamps: Vec<u32>,
    generation: u32,
}

impl Store {
    /// All-zero arrays (the allocator hands large zeroed blocks out
    /// without touching their pages) at generation zero.
    fn zeroed(sets: usize, ways: usize, state_words: usize) -> Store {
        Store {
            words: vec![0; sets * ways],
            repl: vec![0; sets * state_words],
            stamps: vec![0; sets],
            generation: 0,
        }
    }

    /// True if `self` can back a cache of this shape. Stale sets are
    /// zeroed before use, so nothing but the three lengths matters.
    fn fits(&self, sets: usize, ways: usize, state_words: usize) -> bool {
        self.stamps.len() == sets
            && self.words.len() == sets * ways
            && self.repl.len() == sets * state_words
    }

    /// Makes every set stale: one increment, or — once in 2³² times,
    /// when the generation would wrap onto stamps still in the array —
    /// one pass that zeroes the stamps.
    fn invalidate_all(&mut self) {
        match self.generation.checked_add(1) {
            Some(next) => self.generation = next,
            None => {
                self.stamps.fill(0);
                self.generation = 1;
            }
        }
    }
}

/// Most stores [`IDLE`] keeps. Sixteen pool workers (the `n_parallel`
/// clamp) each between two trials on a four-level hierarchy park 64.
const IDLE_CAP: usize = 64;

/// Stores of dropped caches, waiting for the next [`Cache::new`] of
/// their shape; oldest first.
///
/// Building a cache is on every trial's path, and for a 32 MiB L3 the
/// arrays are 8 MiB that a short trial barely touches: allocating them
/// zeroed and freeing them again costs milliseconds (the allocator
/// recycles the block and must clear all of it), while a recycled store
/// costs one generation increment. The list is process-wide rather than
/// per thread or per owner because hierarchies are built wherever a
/// trial happens to run — pool workers, `hw::measure`, tests, the
/// benchmark's direct calls — and sessions and their workers are born
/// and die with each tuning run: a store parked by one thread is the
/// store the next thread needs.
///
/// Bound: at most [`IDLE_CAP`] stores, each holding the pages its past
/// owners touched and never more than 16 bytes per line plus 4 per set;
/// a store arriving at a full list displaces the oldest, so shapes
/// nobody builds any more age out.
static IDLE: Mutex<Vec<Store>> = Mutex::new(Vec::new());

/// Locks [`IDLE`]. A poisoned lock is taken over: the list is touched
/// only by `Vec::{push, remove}`, which leave it valid at every step.
fn idle() -> MutexGuard<'static, Vec<Store>> {
    IDLE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One N-way set-associative, write-back, write-allocate cache.
///
/// Addresses are byte addresses; the cache operates on aligned lines.
/// Misses allocate (fill) the line immediately — the atomic-mode
/// abstraction of gem5, where an access completes in a single transaction.
///
/// Building, flushing and dropping a cache cost nothing per line — the
/// arrays are flat, generation-stamped and recycled between caches of
/// one shape (see the crate documentation) — and none of it is
/// observable: a cache built on used arrays returns the same outcomes
/// and counters as one built on fresh memory.
///
/// # Example
///
/// ```
/// use simtune_cache::{AccessKind, Cache, CacheConfig, ReplacementPolicy};
///
/// # fn main() -> Result<(), simtune_cache::ConfigError> {
/// let cfg = CacheConfig::new("L1D", 1024, 4, 4, 64, ReplacementPolicy::Lru)?;
/// let mut c = Cache::new(cfg);
/// assert!(!c.access(0x40, AccessKind::Read).hit);
/// assert!(c.access(0x40, AccessKind::Read).hit);
/// assert_eq!(c.stats().read_hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    store: Store,
    stats: CacheStats,
    tick: u64,
    rng_state: u64,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
    ways: usize,
    /// `config.policy` as it resolves at `ways`.
    policy: ReplacementPolicy,
    /// Words of `store.repl` per set.
    state_words: usize,
    /// Residency epoch: moved by every fill that evicts a valid line and
    /// by every flush (see [`ResidentLine`]).
    epoch: u64,
    /// Calls to [`Cache::read_run`], for tests of the handle.
    #[cfg(test)]
    run_lookups: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache with the given geometry, on
    /// recycled arrays when a dropped cache of the same shape left some.
    ///
    /// # Panics
    ///
    /// Panics if `config`'s public fields were edited into a geometry
    /// [`CacheConfig::new`] rejects.
    pub fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .expect("cache configuration must validate");
        let ways = config.associativity as usize;
        let sets = config.num_sets as usize;
        let policy = config.policy.resolve(ways);
        let state_words = policy.state_words(ways);
        let recycled = {
            let mut idle = idle();
            // Newest first: its pages are the likeliest still in the
            // host's caches.
            idle.iter()
                .rposition(|s| s.fits(sets, ways, state_words))
                .map(|i| idle.remove(i))
        };
        let mut store = recycled.unwrap_or_else(|| Store::zeroed(sets, ways, state_words));
        store.invalidate_all();
        Cache {
            line_shift: config.line_bytes.trailing_zeros(),
            set_bits: config.num_sets.trailing_zeros(),
            set_mask: config.num_sets - 1,
            config,
            store,
            stats: CacheStats::default(),
            tick: 0,
            // Arbitrary non-zero seed; deterministic across runs.
            rng_state: 0x2545F4914F6CDD1D,
            ways,
            policy,
            state_words,
            epoch: 0,
            #[cfg(test)]
            run_lookups: 0,
        }
    }

    /// A new cache standing at `generation`, on arrays as a long life
    /// leaves them: whatever their last owner wrote, under stamps from
    /// generations 1 to 3 — the first ones a wrap comes round to.
    #[cfg(test)]
    pub(crate) fn at_generation(config: CacheConfig, generation: u32) -> Self {
        assert!(generation > 3, "the planted stamps must be stale");
        let mut cache = Cache::new(config);
        for (set, stamp) in cache.store.stamps.iter_mut().enumerate() {
            *stamp = 1 + set as u32 % 3;
        }
        cache.store.generation = generation;
        cache
    }

    /// Runs [`Cache::read_run`] looked up.
    #[cfg(test)]
    pub(crate) fn run_lookups(&self) -> u64 {
        self.run_lookups
    }

    /// Accesses made so far: the logical clock LRU and FIFO stamp ways
    /// with.
    #[cfg(test)]
    pub(crate) fn tick(&self) -> u64 {
        self.tick
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics but keeps cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates every line (the paper flushes caches before each
    /// benchmark repetition) in O(1), by starting a new generation.
    /// Dirty data is dropped, not written back, because the model
    /// carries no payload bytes.
    pub fn flush(&mut self) {
        self.store.invalidate_all();
        self.epoch += 1;
    }

    /// True if the line containing `addr` is currently resident (test and
    /// debugging aid; does not touch statistics or replacement state).
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let want = (tag << TAG_SHIFT) | VALID;
        self.store.stamps[set] == self.store.generation
            && self.store.words[set * self.ways..][..self.ways]
                .iter()
                .any(|&w| w & !DIRTY == want)
    }

    /// Performs one access. On a miss the line is allocated immediately;
    /// if the victim was valid, the replacement is counted and, if the
    /// victim was dirty, its base address is returned for write-back.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> CacheOutcome {
        self.access_way(addr, kind).0
    }

    /// `n` back-to-back reads of the line holding `addr`, in one call:
    /// the first is a real [`Cache::access`] and its outcome is the
    /// run's; the other `n - 1` can only hit the way the first one
    /// touched or filled, so they are credited to it (see
    /// [`Cache::credit_hits`]). Also says where the line is now.
    /// Indistinguishable afterwards from `n` single reads;
    /// `reference.rs` holds it to that.
    pub(crate) fn read_run(&mut self, addr: u64, n: u64) -> (CacheOutcome, ResidentLine) {
        assert!(n > 0, "a run has a first access");
        #[cfg(test)]
        {
            self.run_lookups += 1;
        }
        let (outcome, set, way) = self.access_way(addr, AccessKind::Read);
        if n > 1 {
            self.credit_hits(set, way, n - 1);
        }
        let resident = ResidentLine {
            line: addr >> self.line_shift,
            set,
            way,
            epoch: self.epoch,
        };
        (outcome, resident)
    }

    /// `n` back-to-back reads of the line holding `addr`, credited as
    /// hits without a lookup, if `resident` names that line and the
    /// epoch has not moved since it was returned: the line is then still
    /// in its way, and `n` reads would hit it. False, and nothing done,
    /// otherwise.
    #[inline]
    pub(crate) fn credit_resident(&mut self, addr: u64, n: u64, resident: ResidentLine) -> bool {
        let ResidentLine {
            line,
            set,
            way,
            epoch,
        } = resident;
        let stands = line == addr >> self.line_shift && epoch == self.epoch;
        if stands {
            self.credit_hits(set, way, n);
        }
        stands
    }

    /// Credits `n` read hits to the line in `way` of `set`, as `n`
    /// reads of it would leave the cache: the tick advances by `n`,
    /// `read_hits` grows by `n` and the way's replacement state is
    /// touched once, at the final tick — LRU keeps the last stamp, a
    /// repeated tree-PLRU touch changes no bit, FIFO and `Random`
    /// ignore hits.
    #[inline]
    fn credit_hits(&mut self, set: usize, way: usize, n: u64) {
        self.tick += n;
        self.stats.read_hits += n;
        let state = &mut self.store.repl[set * self.state_words..][..self.state_words];
        replacement::on_access(self.policy, state, self.ways, way, self.tick, false);
    }

    /// [`Cache::access`], also naming the set and the way the line is in
    /// afterwards.
    #[inline(always)]
    fn access_way(&mut self, addr: u64, kind: AccessKind) -> (CacheOutcome, usize, usize) {
        self.tick += 1;
        let (set, tag) = self.locate(addr);
        let (ways, policy, tick) = (self.ways, self.policy, self.tick);
        let words = &mut self.store.words[set * ways..][..ways];
        let state = &mut self.store.repl[set * self.state_words..][..self.state_words];
        let stamp = &mut self.store.stamps[set];
        if *stamp != self.store.generation {
            words.fill(0);
            state.fill(0);
            *stamp = self.store.generation;
        }
        let want = (tag << TAG_SHIFT) | VALID;

        // Hit path.
        if let Some(way) = words.iter().position(|&w| w & !DIRTY == want) {
            replacement::on_access(policy, state, ways, way, tick, false);
            if kind == AccessKind::Write {
                words[way] |= DIRTY;
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            let outcome = CacheOutcome {
                hit: true,
                writeback: None,
            };
            return (outcome, set, way);
        }

        // Miss: pick a way (an invalid one if available, otherwise the
        // policy's victim), fill it, and report any dirty eviction.
        let way = match words.iter().position(|&w| w & VALID == 0) {
            Some(w) => w,
            None => {
                self.rng_state ^= self.rng_state << 13;
                self.rng_state ^= self.rng_state >> 7;
                self.rng_state ^= self.rng_state << 17;
                replacement::victim(policy, state, ways, self.rng_state)
            }
        };
        let victim = words[way];
        let replaced = victim & VALID != 0;
        self.epoch += u64::from(replaced);
        // Only a valid way is ever marked dirty.
        let writeback = (victim & DIRTY != 0)
            .then(|| (((victim >> TAG_SHIFT) << self.set_bits) | set as u64) << self.line_shift);
        words[way] = match kind {
            AccessKind::Read => want,
            AccessKind::Write => want | DIRTY,
        };
        replacement::on_access(policy, state, ways, way, tick, true);
        match kind {
            AccessKind::Read => {
                self.stats.read_misses += 1;
                if replaced {
                    self.stats.read_replacements += 1;
                }
            }
            AccessKind::Write => {
                self.stats.write_misses += 1;
                if replaced {
                    self.stats.write_replacements += 1;
                }
            }
        }
        let outcome = CacheOutcome {
            hit: false,
            writeback,
        };
        (outcome, set, way)
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_bits;
        (set, tag)
    }
}

impl Drop for Cache {
    /// Parks the arrays on the idle list for the next cache of this
    /// shape; whatever the list displaces is freed after the lock.
    fn drop(&mut self) {
        let store = std::mem::take(&mut self.store);
        let displaced = {
            let mut idle = idle();
            let oldest = (idle.len() >= IDLE_CAP).then(|| idle.remove(0));
            idle.push(store);
            oldest
        };
        drop(displaced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheHierarchy, HierarchyConfig, HierarchyStats};

    fn small(policy: ReplacementPolicy) -> Cache {
        // 2 sets x 2 ways x 64 B lines = 256 B.
        Cache::new(CacheConfig::new("t", 256, 2, 2, 64, policy).expect("valid"))
    }

    #[test]
    fn miss_then_hit_same_line() {
        let mut c = small(ReplacementPolicy::Lru);
        assert!(!c.access(0, AccessKind::Read).hit);
        assert!(c.access(63, AccessKind::Read).hit, "same line must hit");
        assert!(!c.access(64, AccessKind::Read).hit, "next line is a miss");
    }

    #[test]
    fn conflict_eviction_in_one_set() {
        let mut c = small(ReplacementPolicy::Lru);
        // Set 0 holds lines with addresses 0, 128, 256, ... (2 sets, 64 B).
        c.access(0, AccessKind::Read);
        c.access(128, AccessKind::Read);
        // Third distinct line in set 0 evicts the LRU (address 0).
        let out = c.access(256, AccessKind::Read);
        assert!(!out.hit);
        assert!(!c.contains(0), "LRU line must be gone");
        assert!(c.contains(128));
        assert!(c.contains(256));
        assert_eq!(c.stats().read_replacements, 1);
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = small(ReplacementPolicy::Lru);
        c.access(0, AccessKind::Write); // dirty line at 0
        c.access(128, AccessKind::Read);
        let out = c.access(256, AccessKind::Read);
        assert_eq!(out.writeback, Some(0), "dirty victim must be written back");
        // Clean eviction produces no write-back.
        let out2 = c.access(384, AccessKind::Read); // evicts 128 (clean)
        assert_eq!(out2.writeback, None);
    }

    #[test]
    fn write_hit_marks_line_dirty() {
        let mut c = small(ReplacementPolicy::Lru);
        c.access(0, AccessKind::Read); // clean fill
        c.access(0, AccessKind::Write); // dirty it via a hit
        c.access(128, AccessKind::Read);
        let out = c.access(256, AccessKind::Read);
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    fn stats_split_by_kind() {
        let mut c = small(ReplacementPolicy::Lru);
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write);
        c.access(64, AccessKind::Write);
        let s = *c.stats();
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.write_hits, 1);
        assert_eq!(s.write_misses, 1);
        assert_eq!(s.accesses(), 3);
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = small(ReplacementPolicy::Lru);
        c.access(0, AccessKind::Write);
        assert!(c.contains(0));
        c.flush();
        assert!(!c.contains(0));
        assert!(!c.access(0, AccessKind::Read).hit);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small(ReplacementPolicy::Lru);
        c.access(0, AccessKind::Read);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.access(0, AccessKind::Read).hit);
    }

    #[test]
    fn occupancy_never_exceeds_associativity() {
        let mut c = small(ReplacementPolicy::Random);
        for i in 0..100u64 {
            c.access(i * 64, AccessKind::Read);
        }
        // 2 sets x 2 ways: at most 4 lines resident.
        let resident = (0..100u64).filter(|i| c.contains(i * 64)).count();
        assert!(resident <= 4, "resident {resident} > capacity");
    }

    #[test]
    fn a_stamp_wrap_clears_once_and_carries_on() {
        let config = CacheConfig::new("t", 256, 2, 2, 64, ReplacementPolicy::Lru).expect("valid");
        let mut c = Cache::at_generation(config, u32::MAX - 1);
        // A dirty line left in set 0 back in generation 1.
        assert_eq!(c.store.stamps[0], 1);
        c.store.words[0] = (9 << TAG_SHIFT) | VALID | DIRTY;
        assert!(!c.contains(9 * 128), "stale");
        c.access(64, AccessKind::Write);
        c.flush(); // generation u32::MAX
        assert!(!c.contains(64));
        c.access(64, AccessKind::Write);
        c.flush(); // wraps round to generation 1: the stamps go to zero
        assert_eq!(c.store.generation, 1);
        assert!(!c.contains(9 * 128), "generation 1's leftovers stay dead");
        assert!(!c.contains(64));
        let out = c.access(0, AccessKind::Read);
        assert_eq!((out.hit, out.writeback), (false, None));
        assert!(c.access(0, AccessKind::Read).hit);
        assert_eq!(c.access(128, AccessKind::Read).writeback, None);
        assert_eq!(c.access(256, AccessKind::Read).writeback, None, "no ghost");
    }

    #[test]
    fn a_cache_on_used_arrays_is_a_new_cache() {
        // A shape no other test builds.
        let config =
            CacheConfig::new("t", 7 * 2 * 32, 2, 7, 32, ReplacementPolicy::Random).expect("valid");
        let trace: Vec<u64> = (0..200u64).map(|i| (i * 37) % 29 * 32).collect();
        let run = |c: &mut Cache| -> (Vec<CacheOutcome>, CacheStats) {
            let outcomes = trace
                .iter()
                .map(|&a| c.access(a, AccessKind::Write))
                .collect();
            (outcomes, *c.stats())
        };
        // Another test's drop can displace a parked store before it is
        // taken back, so ask until the arrays did come back.
        for _ in 0..16 {
            let mut first = Cache::new(config.clone());
            let want = run(&mut first);
            let used = first.store.words.as_ptr();
            drop(first);
            let mut second = Cache::new(config.clone());
            if second.store.words.as_ptr() != used {
                continue;
            }
            assert!(!second.contains(trace[199]));
            assert_eq!(second.stats().accesses(), 0);
            // Same hits, same write-backs, same random victims: tick and
            // the xorshift stream restarted with the cache.
            assert_eq!(run(&mut second), want);
            return;
        }
        panic!("a dropped cache's arrays never reached the next cache of its shape");
    }

    #[test]
    fn a_read_run_leaves_the_arrays_as_that_many_single_reads_do() {
        // Later outcomes cannot tell a way stamped at the run's first
        // tick from one stamped at its last (nothing else in the set is
        // touched in between), so this looks at the arrays themselves.
        for policy in ReplacementPolicy::all() {
            for ways in [2, 3, 4] {
                let config = CacheConfig::new("t", 2 * ways * 64, 2, ways, 64, policy);
                let config = config.expect("valid");
                let mut single = Cache::new(config.clone());
                let mut run = Cache::new(config);
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                for op in 0..500 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let addr = (x >> 16) % (2 * (ways + 2) * 64);
                    if x & 1 == 0 {
                        single.access(addr, AccessKind::Write);
                        run.access(addr, AccessKind::Write);
                    } else {
                        let n = 1 + (x >> 40) % 5;
                        let outcomes: Vec<_> = (0..n)
                            .map(|_| single.access(addr, AccessKind::Read))
                            .collect();
                        assert_eq!(run.read_run(addr, n).0, outcomes[0]);
                    }
                    assert_eq!((run.tick, run.stats), (single.tick, single.stats));
                    let (set, _) = run.locate(addr);
                    let ways = ways as usize;
                    assert_eq!(
                        run.store.words[set * ways..][..ways],
                        single.store.words[set * ways..][..ways]
                    );
                    assert_eq!(
                        run.store.repl[set * run.state_words..][..run.state_words],
                        single.store.repl[set * run.state_words..][..run.state_words],
                        "{policy} x {ways}, op {op}"
                    );
                }
            }
        }
    }

    #[test]
    fn clone_is_a_deep_copy() {
        let mut original = small(ReplacementPolicy::Lru);
        original.access(0, AccessKind::Write);
        original.access(128, AccessKind::Read);
        let stats = *original.stats();
        let mut copy = original.clone();
        assert!(copy.contains(0) && copy.contains(128));
        assert_eq!(*copy.stats(), stats);
        copy.access(256, AccessKind::Read); // evicts 0 in the copy
        copy.access(64, AccessKind::Read);
        assert!(!copy.contains(0) && copy.contains(64));
        assert!(original.contains(0) && !original.contains(256) && !original.contains(64));
        copy.flush();
        drop(copy);
        assert!(original.contains(0) && original.contains(128));
        assert_eq!(*original.stats(), stats);
    }

    /// One round of the threaded test: a hierarchy built, driven by a
    /// seeded mix of reads, writes and fetches, and dropped.
    fn drive(config: &HierarchyConfig, seed: u64) -> HierarchyStats {
        let mut h = CacheHierarchy::new(config.clone());
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x >> 16) % (256 << 10);
            match x & 3 {
                0 => h.data_write(addr),
                1 => h.fetch(addr),
                _ => h.data_read(addr),
            };
        }
        h.stats()
    }

    #[test]
    fn hierarchies_built_on_shared_arrays_stay_isolated_across_threads() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 2_000;
        const SEEDS: u64 = 16;
        // The two L1 shapes collide on purpose: an L1D store parked by
        // one machine's hierarchy backs the other's L1I next.
        let configs = [
            HierarchyConfig::riscv_u74(),
            HierarchyConfig::x86_ryzen_5800x(),
        ];
        let shape = |c: &CacheConfig| (c.num_sets, c.associativity, c.policy);
        assert_eq!(shape(&configs[0].l1d), shape(&configs[1].l1i));
        let want: Vec<Vec<HierarchyStats>> = configs
            .iter()
            .map(|c| (0..SEEDS).map(|seed| drive(c, seed)).collect())
            .collect();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (configs, want, start) = (&configs, &want, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..ROUNDS {
                        let (which, seed) = ((t + round) % 2, (t * 5 + round) as u64 % SEEDS);
                        assert_eq!(
                            drive(&configs[which], seed),
                            want[which][seed as usize],
                            "thread {t} round {round}"
                        );
                        assert!(idle().len() <= IDLE_CAP);
                    }
                });
            }
        });
        assert!(idle().len() <= IDLE_CAP);
    }

    #[test]
    fn one_off_geometries_age_out_of_the_idle_list() {
        for ways in 1..=200u64 {
            let config = CacheConfig::new(
                "one-off",
                ways * 96 * 16,
                16,
                ways * 3,
                32,
                ReplacementPolicy::Fifo,
            );
            drop(Cache::new(config.expect("valid")));
            assert!(idle().len() <= IDLE_CAP, "after {ways} one-off shapes");
        }
        // Displacement takes the oldest: the first one-off is long gone.
        assert!(!idle().iter().any(|s| s.fits(16, 3, 3)));
    }

    #[test]
    fn address_reconstruction_roundtrip() {
        let mut c = Cache::new(
            CacheConfig::new("t", 4096, 16, 4, 64, ReplacementPolicy::Lru).expect("valid"),
        );
        // Fill one set with dirty lines, then overflow and verify the
        // write-back address is a line the set actually held.
        let base = 7 * 64; // set 7
        let stride = 16 * 64;
        for w in 0..4u64 {
            c.access(base + w * stride, AccessKind::Write);
        }
        let out = c.access(base + 4 * stride, AccessKind::Write);
        let wb = out.writeback.expect("victim was dirty");
        assert_eq!(wb, base, "LRU victim is the first line filled");
    }
}
