//! The oracle for [`Cache`]: the nested model the flat one replaced —
//! one `Vec` of ways per set, a `SetState` with its own tick `Vec`
//! beside each, every line zeroed at construction — kept as it was,
//! and a proptest holding the flat, recycled model to it access by
//! access. It knows nothing of runs, so it is also what pins the
//! one-call forms: a read run on a [`Cache`] against that many single
//! accesses of the nested model, and [`CacheHierarchy::fetch_run`]
//! against that many [`CacheHierarchy::fetch`] calls — and, with the
//! [`ResidentLine`] handles a caller keeps, fresh and stale, against
//! that many fetches on a hierarchy of nested caches.

use crate::{
    AccessKind, Cache, CacheConfig, CacheHierarchy, CacheOutcome, CacheStats, HierarchyConfig,
    HierarchyStats, ReplacementPolicy, ResidentLine, ServicedBy,
};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
}

/// Per-set replacement bookkeeping.
#[derive(Debug, Clone)]
struct SetState {
    policy: ReplacementPolicy,
    /// LRU: last-touch tick per way. FIFO: fill tick per way.
    ticks: Vec<u64>,
    /// Tree-PLRU node bits.
    plru_bits: u64,
}

impl SetState {
    fn new(policy: ReplacementPolicy, ways: usize) -> Self {
        SetState {
            policy,
            ticks: vec![0; ways],
            plru_bits: 0,
        }
    }

    /// True PLRU iff the ways are a power of two in `2..=64`, else LRU.
    fn is_tree(&self) -> bool {
        let n = self.ticks.len();
        n.is_power_of_two() && n > 1 && n <= 64
    }

    fn on_access(&mut self, way: usize, tick: u64, fill: bool) {
        match self.policy {
            ReplacementPolicy::Lru => self.ticks[way] = tick,
            ReplacementPolicy::Fifo => {
                if fill {
                    self.ticks[way] = tick;
                }
            }
            ReplacementPolicy::Random => {}
            ReplacementPolicy::TreePlru => {
                if self.is_tree() {
                    self.plru_touch(way);
                } else {
                    self.ticks[way] = tick;
                }
            }
        }
    }

    fn victim(&self, rng_draw: u64) -> usize {
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => self.oldest(),
            ReplacementPolicy::Random => (rng_draw % self.ticks.len() as u64) as usize,
            ReplacementPolicy::TreePlru => {
                if self.is_tree() {
                    self.plru_victim()
                } else {
                    self.oldest()
                }
            }
        }
    }

    fn oldest(&self) -> usize {
        (0..self.ticks.len())
            .min_by_key(|&way| self.ticks[way])
            .unwrap_or(0)
    }

    fn plru_touch(&mut self, way: usize) {
        let levels = self.ticks.len().trailing_zeros();
        let mut node = 0usize;
        for level in 0..levels {
            let bit_of_way = (way >> (levels - 1 - level)) & 1;
            if bit_of_way == 0 {
                self.plru_bits |= 1 << node;
            } else {
                self.plru_bits &= !(1 << node);
            }
            node = 2 * node + 1 + bit_of_way;
        }
    }

    fn plru_victim(&self) -> usize {
        let levels = self.ticks.len().trailing_zeros();
        let (mut node, mut way) = (0usize, 0usize);
        for _ in 0..levels {
            let bit = ((self.plru_bits >> node) & 1) as usize;
            way = (way << 1) | bit;
            node = 2 * node + 1 + bit;
        }
        way
    }
}

/// The nested cache model.
struct RefCache {
    sets: Vec<Vec<Line>>,
    states: Vec<SetState>,
    stats: CacheStats,
    tick: u64,
    rng_state: u64,
    line_shift: u32,
    set_mask: u64,
}

impl RefCache {
    fn new(config: &CacheConfig) -> Self {
        let ways = config.associativity as usize;
        let nsets = config.num_sets as usize;
        RefCache {
            sets: vec![vec![Line::default(); ways]; nsets],
            states: vec![SetState::new(config.policy, ways); nsets],
            stats: CacheStats::default(),
            tick: 0,
            rng_state: 0x2545F4914F6CDD1D,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: config.num_sets - 1,
        }
    }

    fn flush(&mut self) {
        for line in self.sets.iter_mut().flatten() {
            *line = Line::default();
        }
    }

    fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }

    fn access(&mut self, addr: u64, kind: AccessKind) -> CacheOutcome {
        self.tick += 1;
        let (set_idx, tag) = self.locate(addr);
        let set_bits = self.set_mask.count_ones();
        let set = &mut self.sets[set_idx];
        let state = &mut self.states[set_idx];

        if let Some(way) = set.iter().position(|l| l.valid && l.tag == tag) {
            state.on_access(way, self.tick, false);
            if kind == AccessKind::Write {
                set[way].dirty = true;
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            return CacheOutcome {
                hit: true,
                writeback: None,
            };
        }

        let way = match set.iter().position(|l| !l.valid) {
            Some(w) => w,
            None => {
                self.rng_state ^= self.rng_state << 13;
                self.rng_state ^= self.rng_state >> 7;
                self.rng_state ^= self.rng_state << 17;
                state.victim(self.rng_state)
            }
        };
        let victim = set[way];
        let writeback = (victim.valid && victim.dirty)
            .then(|| ((victim.tag << set_bits) | set_idx as u64) << self.line_shift);
        set[way] = Line {
            valid: true,
            dirty: kind == AccessKind::Write,
            tag,
        };
        state.on_access(way, self.tick, true);
        let (misses, replacements) = match kind {
            AccessKind::Read => (
                &mut self.stats.read_misses,
                &mut self.stats.read_replacements,
            ),
            AccessKind::Write => (
                &mut self.stats.write_misses,
                &mut self.stats.write_replacements,
            ),
        };
        *misses += 1;
        *replacements += u64::from(victim.valid);
        CacheOutcome {
            hit: false,
            writeback,
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        (set, line_addr >> self.set_mask.count_ones())
    }
}

/// [`CacheHierarchy`]'s walk over nested caches, for hierarchies
/// without an L3.
struct RefHierarchy {
    l1d: RefCache,
    l1i: RefCache,
    l2: RefCache,
    dram_reads: u64,
    dram_writes: u64,
}

impl RefHierarchy {
    fn new(config: &HierarchyConfig) -> Self {
        assert!(config.l3.is_none(), "the nested walk stops at L2");
        RefHierarchy {
            l1d: RefCache::new(&config.l1d),
            l1i: RefCache::new(&config.l1i),
            l2: RefCache::new(&config.l2),
            dram_reads: 0,
            dram_writes: 0,
        }
    }

    fn fetch(&mut self, addr: u64) -> ServicedBy {
        let out = self.l1i.access(addr, AccessKind::Read);
        self.below(addr, out, ServicedBy::L1i)
    }

    fn data(&mut self, addr: u64, kind: AccessKind) -> ServicedBy {
        let out = self.l1d.access(addr, kind);
        self.below(addr, out, ServicedBy::L1d)
    }

    /// An L1 answered `out`: write its victim back to L2, then fill
    /// from L2 or memory on a miss.
    fn below(&mut self, addr: u64, out: CacheOutcome, l1: ServicedBy) -> ServicedBy {
        if let Some(wb) = out.writeback {
            let out2 = self.l2.access(wb, AccessKind::Write);
            self.dram_writes += u64::from(out2.writeback.is_some());
        }
        if out.hit {
            return l1;
        }
        let out2 = self.l2.access(addr, AccessKind::Read);
        self.dram_writes += u64::from(out2.writeback.is_some());
        if out2.hit {
            ServicedBy::L2
        } else {
            self.dram_reads += 1;
            ServicedBy::Memory
        }
    }

    fn flush(&mut self) {
        self.l1d.flush();
        self.l1i.flush();
        self.l2.flush();
    }

    fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1d: self.l1d.stats,
            l1i: self.l1i.stats,
            l2: self.l2.stats,
            l3: None,
            dram_reads: self.dram_reads,
            dram_writes: self.dram_writes,
        }
    }
}

/// Associativities worth drawing: every small one, the PLRU tree's
/// widest, and both sides of where it gives way to LRU.
const WAYS: [u64; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 16, 63, 64, 128];

/// A valid geometry from three draws.
fn geometry(set_bits: u32, line_bits: u32, ways: usize, policy: usize) -> CacheConfig {
    // Index and offset take at least two address bits (the tag's width).
    let line_bits = line_bits.max(2u32.saturating_sub(set_bits));
    let (sets, line, ways) = (1u64 << set_bits, 1u64 << line_bits, WAYS[ways]);
    let policy = ReplacementPolicy::all()[policy];
    CacheConfig::new("prop", sets * ways * line, sets, ways, line, policy).expect("valid geometry")
}

/// Turns a draw into an address. Tags come from a range three wider
/// than the associativity and three draws in four land in one set, so
/// even a 128-way set can fill and evict inside a sequence; one draw in
/// eight is mirrored to the top of the address space, where the tag's
/// high bits are all set.
fn address(config: &CacheConfig, draw: u64) -> u64 {
    let (sets, line) = (config.num_sets, config.line_bytes);
    let r = draw >> 9;
    let set = if r & 3 == 0 { (r >> 5) % sets } else { 0 };
    let tag = (r >> 16) % (config.associativity + 3);
    let low = (tag * sets + set) * line + (r >> 32) % line;
    if r & 28 == 0 {
        !low
    } else {
        low
    }
}

fn kind(draw: u64) -> AccessKind {
    if draw >> 63 == 0 {
        AccessKind::Read
    } else {
        AccessKind::Write
    }
}

/// Where the cache under test comes from.
#[derive(Debug, Clone, Copy)]
enum Origin {
    /// `Cache::new`, on whatever the idle list holds.
    New,
    /// `Cache::new` right after a cache of the same shape, dirtied by a
    /// different sequence, was dropped.
    Dirtied,
    /// The same, this many generations below the stamp's wrap and with
    /// the dirtied sets stamped as the generations after the wrap.
    NearWrap(u32),
}

impl Origin {
    /// From a draw in `0..6`: one in six new, two dirtied, three 0 to 2
    /// generations below the wrap.
    fn from_draw(draw: u32) -> Origin {
        match draw {
            0 => Origin::New,
            1 | 2 => Origin::Dirtied,
            below => Origin::NearWrap(below - 3),
        }
    }
}

fn build(config: &CacheConfig, origin: Origin, draws: &[u64]) -> Cache {
    if !matches!(origin, Origin::New) {
        let mut other = Cache::new(config.clone());
        for &draw in draws {
            let draw = draw.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15;
            other.access(address(config, draw), kind(draw));
        }
    }
    match origin {
        Origin::New | Origin::Dirtied => Cache::new(config.clone()),
        Origin::NearWrap(below) => Cache::at_generation(config.clone(), u32::MAX - below),
    }
}

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(256)))]

    /// Every outcome, every `contains` answer and the final counters of
    /// the flat model equal the nested model's, wherever the flat
    /// model's arrays came from and across `flush`, `reset_stats` and
    /// drop-and-rebuild points.
    #[test]
    fn flat_model_matches_the_nested_reference(
        set_bits in 0u32..7,
        line_bits in 0u32..8,
        ways in 0usize..WAYS.len(),
        policy in 0usize..4,
        origin in 0u32..6,
        draws in prop::collection::vec(any::<u64>(), 1..1500),
    ) {
        let config = geometry(set_bits, line_bits, ways, policy);
        let origin = Origin::from_draw(origin);
        let mut flat = build(&config, origin, &draws);
        let mut nested = RefCache::new(&config);
        for (i, &draw) in draws.iter().enumerate() {
            match draw % 512 {
                0 => {
                    flat.flush();
                    nested.flush();
                }
                1 => {
                    flat.reset_stats();
                    nested.stats = CacheStats::default();
                }
                2 => {
                    // Dropped mid-sequence and built again: the arrays
                    // come back through the idle list, the cache new.
                    drop(flat);
                    flat = Cache::new(config.clone());
                    nested = RefCache::new(&config);
                }
                _ => {
                    let addr = address(&config, draw);
                    let (got, want) = (flat.access(addr, kind(draw)), nested.access(addr, kind(draw)));
                    prop_assert!(
                        got == want,
                        "op {i}, access {addr:#x}: {got:?}, nested {want:?} ({config:?}, {origin:?})"
                    );
                }
            }
            let probe = address(&config, draw.rotate_right(29));
            prop_assert!(
                flat.contains(probe) == nested.contains(probe),
                "op {i}, contains({probe:#x}): nested {} ({config:?}, {origin:?})",
                nested.contains(probe)
            );
        }
        prop_assert_eq!(*flat.stats(), nested.stats);
    }

    /// A burst of reads of one line issued to the flat model as one
    /// `read_run` leaves it where the nested model is after that many
    /// single reads: the burst's outcome, every later outcome and
    /// write-back (so every later victim), every `contains` answer, the
    /// counters and the tick — under all four policies, the PLRU → LRU
    /// fallbacks, and on recycled and near-wrap stores.
    #[test]
    fn a_read_run_is_that_many_single_reads(
        set_bits in 0u32..4,
        line_bits in 0u32..8,
        ways in 0usize..WAYS.len(),
        policy in 0usize..4,
        origin in 0u32..6,
        draws in prop::collection::vec(any::<u64>(), 1..1000),
    ) {
        let config = geometry(set_bits, line_bits, ways, policy);
        let origin = Origin::from_draw(origin);
        let mut flat = build(&config, origin, &draws);
        let mut nested = RefCache::new(&config);
        for (i, &draw) in draws.iter().enumerate() {
            let addr = address(&config, draw);
            // One op in four is a burst of 2 to 41 reads, each at its
            // own offset into the line.
            if draw & 3 == 0 {
                let n = 2 + (draw >> 3) % 40;
                let line = addr & !(config.line_bytes - 1);
                let got = flat.read_run(addr, n).0;
                let want = nested.access(addr, AccessKind::Read);
                prop_assert!(
                    got == want,
                    "op {i}, {n} x {addr:#x}: {got:?}, nested {want:?} ({config:?}, {origin:?})"
                );
                for k in 1..n {
                    let offset = (draw >> k) % config.line_bytes;
                    let rest = nested.access(line + offset, AccessKind::Read);
                    prop_assert!(rest.hit && rest.writeback.is_none(), "op {i}: read {k} of {n}");
                }
            } else {
                let got = flat.access(addr, kind(draw));
                let want = nested.access(addr, kind(draw));
                prop_assert!(
                    got == want,
                    "op {i}, access {addr:#x}: {got:?}, nested {want:?} ({config:?}, {origin:?})"
                );
            }
            let probe = address(&config, draw.rotate_right(29));
            prop_assert_eq!(flat.contains(probe), nested.contains(probe));
            prop_assert!(
                flat.tick() == nested.tick && *flat.stats() == nested.stats,
                "op {i}: tick {} and {:?}, nested {} and {:?} ({config:?}, {origin:?})",
                flat.tick(), flat.stats(), nested.tick, nested.stats
            );
        }
    }

    /// `fetch_run(addr, n)` on one hierarchy against `n` `fetch` calls
    /// on its twin, with data reads and writes (which share L2 and L3
    /// with the fetches) between the runs: the same answer to every
    /// call and the same counters throughout — with and without an L3,
    /// under every policy, and counting only (which hands out no
    /// handle).
    #[test]
    fn a_fetch_run_is_that_many_fetches(
        l1_ways in 1u64..5,
        policy in 0usize..4,
        l3 in any::<bool>(),
        counting in 0u32..4,
        draws in prop::collection::vec(any::<u64>(), 1..1000),
    ) {
        const LINE: u64 = 16;
        let level = |name: &str, sets: u64, ways: u64| {
            let policy = ReplacementPolicy::all()[policy];
            CacheConfig::new(name, sets * ways * LINE, sets, ways, LINE, policy)
                .expect("valid geometry")
        };
        let config = HierarchyConfig {
            name: "prop".into(),
            l1d: level("L1D", 2, l1_ways),
            l1i: level("L1I", 2, l1_ways),
            l2: level("L2", 4, 4),
            l3: l3.then(|| level("L3", 8, 4)),
        };
        let build = || match counting {
            0 => CacheHierarchy::counting_only(LINE),
            _ => CacheHierarchy::new(config.clone()),
        };
        let (mut single, mut runs) = (build(), build());
        for (i, &draw) in draws.iter().enumerate() {
            // Code and data share 64 lines, so they meet in L2 and L3.
            let addr = (draw >> 8) % (64 * LINE);
            match draw % 8 {
                0..=2 => {
                    let n = 1 + (draw >> 40) % 24;
                    let (first, rest, handle) = runs.fetch_run(addr, n, None);
                    prop_assert_eq!(handle.is_none(), runs.is_counting_only());
                    let line = addr & !(LINE - 1);
                    prop_assert!(single.fetch(addr) == first, "op {i}: head of a run of {n}");
                    for k in 1..n {
                        let got = single.fetch(line + (draw >> k) % LINE);
                        prop_assert!(
                            got == rest,
                            "op {i}: fetch {k} of {n} was {got:?}, the run said {rest:?}"
                        );
                    }
                }
                3..=5 => prop_assert_eq!(single.data_read(addr), runs.data_read(addr)),
                6 => prop_assert_eq!(single.data_write(addr), runs.data_write(addr)),
                _ => prop_assert_eq!(single.fetch(addr), runs.fetch(addr)),
            }
            prop_assert!(
                single.stats() == runs.stats(),
                "op {i}: {:?}, with runs {:?} ({config:?})",
                single.stats(), runs.stats()
            );
        }
    }

    /// `fetch_run` with the handles a caller keeps — the last one for
    /// the line, none, or any kept earlier: stale across a flush or an
    /// eviction from its set, or naming another line — on an L1I of any
    /// geometry under all four policies, against that many single
    /// fetches on the nested hierarchy, with data reads, writes, single
    /// fetches and flushes between the runs. Every outcome, `contains`
    /// answer and counter is equal throughout, and a handle is honoured
    /// (no lookup, the handle handed back as it came) exactly when it
    /// names the run's line and the L1I neither evicted nor flushed
    /// since it was issued.
    #[test]
    fn a_fetch_run_honours_a_handle_only_while_its_line_cannot_have_moved(
        set_bits in 0u32..5,
        line_bits in 0u32..8,
        ways in 0usize..WAYS.len(),
        policy in 0usize..4,
        draws in prop::collection::vec(any::<u64>(), 1..1000),
    ) {
        let l1i = geometry(set_bits, line_bits, ways, policy);
        let (line, policy) = (l1i.line_bytes, l1i.policy);
        let level = |name: &str, sets: u64, ways: u64| {
            CacheConfig::new(name, sets * ways * line, sets, ways, line, policy)
                .expect("valid geometry")
        };
        let config = HierarchyConfig {
            name: "prop".into(),
            // Four sets and up: a one-byte line still leaves the tag its
            // two address bits.
            l1d: level("L1D", 4, 2),
            l1i: l1i.clone(),
            l2: level("L2", 8, 4),
            l3: None,
        };
        let mut flat = CacheHierarchy::new(config.clone());
        let mut nested = RefHierarchy::new(&config);
        // Every handle issued: the line it was issued for, and the L1I
        // evictions plus flushes the nested model had made by then.
        let mut issued: Vec<(u64, ResidentLine, u64)> = Vec::new();
        let mut flushes = 0u64;
        for (i, &draw) in draws.iter().enumerate() {
            let addr = address(&l1i, draw);
            let line_addr = addr & !(line - 1);
            match draw % 16 {
                0 => {
                    flat.flush();
                    nested.flush();
                    flushes += 1;
                }
                1..=8 => {
                    let n = 1 + (draw >> 40) % 24;
                    let kept = match (draw >> 4) % 4 {
                        0 => None,
                        3 => issued.get((draw >> 48) as usize % issued.len().max(1)),
                        _ => issued.iter().rev().find(|&&(l, ..)| l == line_addr),
                    };
                    let moves = nested.l1i.stats.read_replacements + flushes;
                    let honour = kept.is_some_and(|&(l, _, at)| l == line_addr && at == moves);
                    let handle = kept.map(|&(_, h, _)| h);
                    let lookups = flat.l1i().run_lookups();
                    let (first, rest, got) = flat.fetch_run(addr, n, handle);
                    let got = got.expect("a modelled hierarchy hands out handles");
                    let honoured = flat.l1i().run_lookups() == lookups;
                    prop_assert!(
                        honoured == honour && (!honoured || Some(got) == handle),
                        "op {i}: {handle:?} -> {got:?}, honoured {honoured}, due {honour}"
                    );
                    let want = nested.fetch(addr);
                    prop_assert!(first == want, "op {i}: run of {n}: {first:?} vs {want:?}");
                    for k in 1..n {
                        let want = nested.fetch(line_addr + (draw >> k) % line);
                        prop_assert!(rest == want, "op {i}: {k} of {n}: {rest:?} vs {want:?}");
                    }
                    issued.push((line_addr, got, nested.l1i.stats.read_replacements + flushes));
                }
                9..=11 => {
                    prop_assert_eq!(flat.data_read(addr), nested.data(addr, AccessKind::Read));
                }
                12..=14 => {
                    prop_assert_eq!(flat.data_write(addr), nested.data(addr, AccessKind::Write));
                }
                _ => prop_assert_eq!(flat.fetch(addr), nested.fetch(addr)),
            }
            let probe = address(&l1i, draw.rotate_right(29));
            prop_assert_eq!(flat.l1i().contains(probe), nested.l1i.contains(probe));
            prop_assert!(
                flat.stats() == nested.stats(),
                "op {i}: {:?}, nested {:?} ({config:?})",
                flat.stats(), nested.stats()
            );
        }
    }
}
