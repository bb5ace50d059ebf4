/// Replacement policy for a set-associative cache.
///
/// The paper's gem5 setup uses the classic cache's default LRU; the other
/// policies exist for the replacement-policy ablation experiment and to
/// model targets whose L1 uses pseudo-random replacement (as some ARM
/// cores do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way (gem5 classic default).
    #[default]
    Lru,
    /// Evict the way filled the longest ago regardless of later touches.
    Fifo,
    /// Evict a pseudo-randomly chosen way (deterministic xorshift stream).
    Random,
    /// Tree pseudo-LRU for power-of-two associativities from 2 to 64
    /// (the tree's node bits fit one word); falls back to true LRU
    /// otherwise (e.g. the 3-way ARM L1I, or a 128-way fully
    /// associative cache).
    TreePlru,
}

impl ReplacementPolicy {
    /// All policies, for ablation sweeps.
    pub fn all() -> [ReplacementPolicy; 4] {
        [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
            ReplacementPolicy::TreePlru,
        ]
    }

    /// Short lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Fifo => "fifo",
            ReplacementPolicy::Random => "random",
            ReplacementPolicy::TreePlru => "plru",
        }
    }
}

impl std::fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Widest set a tree-PLRU word covers: `ways - 1` node bits in one `u64`.
const PLRU_MAX_WAYS: usize = 64;

impl ReplacementPolicy {
    /// The policy a set of `ways` ways actually runs: `TreePlru` is a
    /// true tree only for a power-of-two associativity with
    /// `1 < ways <= 64` (its node bits fit one word) and is `Lru`
    /// everywhere else; the other three policies run as named.
    pub(crate) fn resolve(self, ways: usize) -> ReplacementPolicy {
        let tree = ways.is_power_of_two() && ways > 1 && ways <= PLRU_MAX_WAYS;
        match self {
            ReplacementPolicy::TreePlru if !tree => ReplacementPolicy::Lru,
            policy => policy,
        }
    }

    /// Words of replacement state one set of `ways` ways needs under
    /// this (resolved) policy: a tick per way for LRU (last touch) and
    /// FIFO (fill), one word of node bits for tree-PLRU, none for
    /// `Random`.
    pub(crate) fn state_words(self, ways: usize) -> usize {
        match self {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => ways,
            ReplacementPolicy::Random => 0,
            ReplacementPolicy::TreePlru => 1,
        }
    }
}

/// Records a touch of `way` at logical time `tick` in one set's `state`
/// (`policy.state_words(ways)` words, `policy` resolved). `fill` is true
/// when the touch is a line fill rather than a hit (FIFO only advances
/// on fills).
#[inline]
pub(crate) fn on_access(
    policy: ReplacementPolicy,
    state: &mut [u64],
    ways: usize,
    way: usize,
    tick: u64,
    fill: bool,
) {
    match policy {
        ReplacementPolicy::Lru => state[way] = tick,
        ReplacementPolicy::Fifo => {
            if fill {
                state[way] = tick;
            }
        }
        ReplacementPolicy::Random => {}
        ReplacementPolicy::TreePlru => plru_touch(&mut state[0], ways, way),
    }
}

/// Chooses the victim way of a full set. `rng_draw` is a fresh
/// pseudo-random value supplied by the cache (used only by `Random`).
#[inline]
pub(crate) fn victim(
    policy: ReplacementPolicy,
    state: &[u64],
    ways: usize,
    rng_draw: u64,
) -> usize {
    match policy {
        ReplacementPolicy::Lru | ReplacementPolicy::Fifo => oldest(state),
        ReplacementPolicy::Random => (rng_draw % ways as u64) as usize,
        ReplacementPolicy::TreePlru => plru_victim(state[0], ways),
    }
}

fn oldest(ticks: &[u64]) -> usize {
    ticks
        .iter()
        .enumerate()
        .min_by_key(|&(_, &t)| t)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Walk the PLRU tree from the root towards `way`, flipping each node
/// to point *away* from the path taken. `ways` is a power of two in
/// `2..=64` (see [`ReplacementPolicy::resolve`]), so every node index is
/// below 63.
fn plru_touch(bits: &mut u64, ways: usize, way: usize) {
    let levels = ways.trailing_zeros();
    let mut node = 0usize; // root of the implicit binary tree
    for level in 0..levels {
        let bit_of_way = (way >> (levels - 1 - level)) & 1;
        if bit_of_way == 0 {
            *bits |= 1 << node; // point at right subtree
        } else {
            *bits &= !(1 << node); // point at left subtree
        }
        node = 2 * node + 1 + bit_of_way;
    }
}

/// Follow the PLRU pointers from the root to a leaf.
fn plru_victim(bits: u64, ways: usize) -> usize {
    let levels = ways.trailing_zeros();
    let mut node = 0usize;
    let mut way = 0usize;
    for _ in 0..levels {
        let bit = ((bits >> node) & 1) as usize;
        way = (way << 1) | bit;
        node = 2 * node + 1 + bit;
    }
    way
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zeroed state for one set under `policy` as it resolves at `ways`.
    fn set(policy: ReplacementPolicy, ways: usize) -> (ReplacementPolicy, Vec<u64>) {
        let policy = policy.resolve(ways);
        (policy, vec![0; policy.state_words(ways)])
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (p, mut s) = set(ReplacementPolicy::Lru, 4);
        for (tick, way) in [(1, 0), (2, 1), (3, 2), (4, 3), (5, 0)] {
            on_access(p, &mut s, 4, way, tick, false);
        }
        // Way 1 was touched at tick 2, the oldest.
        assert_eq!(victim(p, &s, 4, 0), 1);
    }

    #[test]
    fn fifo_ignores_hits() {
        let (p, mut s) = set(ReplacementPolicy::Fifo, 2);
        on_access(p, &mut s, 2, 0, 1, true); // fill way 0 first
        on_access(p, &mut s, 2, 1, 2, true); // fill way 1 second
        on_access(p, &mut s, 2, 0, 3, false); // hit on way 0 must not refresh it
        assert_eq!(victim(p, &s, 2, 0), 0);
    }

    #[test]
    fn random_uses_the_draw() {
        let (p, s) = set(ReplacementPolicy::Random, 4);
        assert!(s.is_empty(), "random keeps no per-set state");
        assert_eq!(victim(p, &s, 4, 0), 0);
        assert_eq!(victim(p, &s, 4, 5), 1);
        assert_eq!(victim(p, &s, 4, 7), 3);
    }

    #[test]
    fn plru_cycles_through_all_ways() {
        // Touch each chosen victim: over `n` evictions every way must be
        // chosen exactly once (standard tree-PLRU property starting from a
        // cold state) — up to the widest set one word of node bits holds.
        for ways in [8, 64] {
            let (p, mut s) = set(ReplacementPolicy::TreePlru, ways);
            assert_eq!((p, s.len()), (ReplacementPolicy::TreePlru, 1));
            let mut seen = std::collections::HashSet::new();
            for tick in 0..ways as u64 {
                let v = victim(p, &s, ways, 0);
                assert!(seen.insert(v), "way {v} of {ways} evicted twice");
                on_access(p, &mut s, ways, v, tick, true);
            }
            assert_eq!(seen.len(), ways);
        }
    }

    #[test]
    fn plru_with_non_power_of_two_falls_back_to_lru() {
        let (p, mut s) = set(ReplacementPolicy::TreePlru, 3);
        assert_eq!(p, ReplacementPolicy::Lru);
        on_access(p, &mut s, 3, 0, 10, false);
        on_access(p, &mut s, 3, 1, 11, false);
        on_access(p, &mut s, 3, 2, 12, false);
        assert_eq!(victim(p, &s, 3, 0), 0);
    }

    #[test]
    fn plru_wider_than_its_word_falls_back_to_lru() {
        // 128 ways would need 127 node bits, and a set has one u64.
        let (p, mut s) = set(ReplacementPolicy::TreePlru, 128);
        assert_eq!((p, s.len()), (ReplacementPolicy::Lru, 128));
        for way in 0..128 {
            on_access(p, &mut s, 128, way, 1 + way as u64, true);
        }
        on_access(p, &mut s, 128, 0, 200, false);
        assert_eq!(victim(p, &s, 128, 0), 1, "way 0 was refreshed by the hit");
        assert_eq!(
            ReplacementPolicy::TreePlru.resolve(1),
            ReplacementPolicy::Lru
        );
        assert_eq!(
            ReplacementPolicy::TreePlru.resolve(64),
            ReplacementPolicy::TreePlru
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ReplacementPolicy::Lru.to_string(), "lru");
        assert_eq!(ReplacementPolicy::all().len(), 4);
    }
}
