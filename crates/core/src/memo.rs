//! Cross-loop simulation memoization: a canonical-fingerprint →
//! [`SimReport`] cache shared by [`crate::SimSession`]s.
//!
//! Autotuning traffic revisits work constantly: fidelity escalation
//! re-simulates finalists, workflows re-collect groups they already
//! measured, repeated tuning sessions over one kernel re-propose
//! schedules the last session scored. Every such revisit used to pay a
//! full backend execution even though the simulator is deterministic —
//! identical program, input data, target, cache configuration, backend
//! and limits always produce identical statistics. [`SimCache`] turns
//! that determinism into speed: the first execution stores its
//! [`SimReport`] under a canonical fingerprint; every later lookup with
//! the same fingerprint returns the stored report without touching the
//! backend.
//!
//! # Fingerprint
//!
//! The key is a 16-byte digest of everything result-relevant and
//! nothing else, streamed word by word (no intermediate text or buffer)
//! in one canonical, endian-fixed order:
//!
//! * the target ISA (name, vector lanes, instruction bytes),
//! * the fidelity digest ([`crate::SimBackend::fidelity_digest`]) — one
//!   canonical string naming the tier and every configuration knob, in
//!   [`crate::FidelitySpec`] grammar for the bundled backends,
//! * the replay [`EngineKind`] — engines are bit-identical by contract,
//!   but the fingerprint still separates them so an equivalence bug can
//!   never let one engine's report masquerade as another's,
//! * the [`RunLimits`],
//! * the program: instruction count, then every instruction's
//!   [`canonical_words`](simtune_isa::Inst::canonical_words) (opcode,
//!   registers, immediate *bits*, resolved branch targets),
//! * the prepared data segments: count, then each segment's base,
//!   length and bit-exact `f32` contents.
//!
//! Strings and sequences are length-prefixed, so no two distinct
//! requests share a word stream; the stream is hashed with
//! SipHash-1-3 (128-bit output, fixed key).
//!
//! **What a digest key promises.** Equal requests always collide. Two
//! *different* requests share a key only if the hash collides: for `n`
//! distinct simulations the odds are about n²/2¹²⁹ (10⁹ entries:
//! ~10⁻²¹), after which one would be served the other's report. That is
//! a content-identity argument, not a security one — the key is public
//! and the digest is not a MAC, so someone who chooses raw programs
//! freely could in principle search for a collision. It is acceptable
//! here because nobody does choose them: the service compiles every
//! program itself from `(workload, schedule)` requests, tenants never
//! submit raw programs, and a snapshot file is as trusted as the
//! process that reads it.
//!
//! The executable's *name* is deliberately excluded: tuning loops stamp
//! a fresh name on every trial ("conv2d g3 t17"), and two differently
//! named builds of the same schedule are the same simulation.
//!
//! Backends whose results are not a pure function of the above opt out
//! by returning `None` from [`crate::SimBackend::fidelity_digest`] (the default
//! — only the bundled deterministic tiers opt in), and cache hits are
//! byte-identical replays: even `host_nanos` is the stored value, so
//! downstream scoring sees exactly what a re-run of the original
//! simulation reported.
//!
//! # Sharding
//!
//! The map is split into lock-striped shards (16 by default, selected
//! by a hash of the fingerprint bytes), so the concurrent workers of a
//! [`crate::SimSession`]'s persistent pool no longer serialize their
//! inserts behind one mutex — the "remove synchronization on shared
//! simulator state" lesson of the GPU-simulator parallelization work in
//! PAPERS.md. [`SimCache::with_shards`]`(1)` degenerates to the
//! historical single-lock cache; a property test
//! (`crates/core/tests/memo_sharding.rs`) asserts the two agree on
//! every fingerprint and every operation sequence.
//!
//! Hit/miss counters are surfaced as
//! [`MemoCacheStats`](crate::metrics::MemoCacheStats) through
//! [`SimCache::stats`].
//!
//! # Request keys
//!
//! A fingerprint needs the built program, and building costs more than
//! everything else a warm trial does. So the tuning loop also keys a
//! candidate *before* it builds it: a 16-byte request key, the same
//! SipHash-1-3 over the
//! [`ComputeDef`](simtune_tensor::ComputeDef) (its `Debug` text), the
//! schedule's fields, the target ISA, the builder's `data_seed` and the
//! session context the fingerprint covers (fidelity digest,
//! `max_insts`, engine label). Beside its shards the cache keeps one map
//! from request key to the program fingerprint that request built. The
//! contract runs one way: equal request keys build equal programs, so
//! they share a fingerprint; several requests may still build one
//! program. A request whose mapping and report are both resident is
//! answered without building, fingerprinting or submitting anything
//! (the session-score evaluator of `crate::autotune`, through
//! `SimSession::recall`); otherwise it builds and submits as before, and
//! `Batch::plan` records the mapping from the fingerprint it computes
//! anyway.
//!
//! The map lives in memory only. It is cleared whenever the shards are,
//! is not written to snapshots (a server booted from one rebuilds each
//! distinct request once and simulates nothing), and needs no codegen
//! version: a process only ever meets its own code generator.

use crate::metrics::{MemoCacheStats, SnapshotStats};
use crate::runner::KernelBuilder;
use crate::SimReport;
use simtune_isa::{EngineKind, Executable, RunLimits};
use simtune_tensor::{Schedule, SubVar, VarRef};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LockResult, Mutex, MutexGuard};

/// Locks a shard even when a previous holder panicked: the guarded map
/// is plain data whose invariants hold between statements, and a
/// long-lived service must keep answering other tenants after one
/// tenant's thread dies mid-operation.
fn relock<T>(result: LockResult<MutexGuard<'_, T>>) -> MutexGuard<'_, T> {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Default lock-stripe count: enough that 16 workers rarely collide,
/// small enough that clearing the cache stays cheap.
const DEFAULT_SHARDS: usize = 16;

/// A shareable, thread-safe memo cache of simulation results.
///
/// Attach one to a session with
/// [`crate::SimSessionBuilder::memo_cache`]; share one `Arc<SimCache>`
/// across sessions (and across tuning loops) to deduplicate work
/// globally. Lookups and insertions are guarded per lock-striped shard
/// — the critical section is a hash-map probe, negligible next to a
/// backend execution, and concurrent workers only contend when their
/// fingerprints land on the same stripe.
///
/// Deduplication of *in-flight* work is handled one level up:
/// [`crate::SimSession`] resolves lookups at submission time and turns
/// duplicates of an executing fingerprint into followers of that
/// execution, so within one session a fingerprint simulates at most
/// once and the hit/miss counters are deterministic at every
/// `n_parallel` (see `crates/core/src/pool.rs`).
/// A tuning loop answers a revisited candidate before building it, from
/// the [request-key](self#request-keys) map kept beside the shards.
///
/// The cache is unbounded: nothing is evicted until [`SimCache::clear`],
/// which is right for tuning sessions whose candidate streams are
/// bounded by `n_trials`.
///
/// # Example
///
/// A session with an attached cache answers a revisited candidate
/// without executing the backend again:
///
/// ```
/// use simtune_cache::HierarchyConfig;
/// use simtune_core::{SimCache, SimSession};
/// use simtune_isa::{Executable, Gpr, Inst, ProgramBuilder, TargetIsa};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), simtune_core::CoreError> {
/// let cache = Arc::new(SimCache::new());
/// let session = SimSession::builder()
///     .accurate(&HierarchyConfig::tiny_for_tests())
///     .memo_cache(cache.clone())
///     .build()?;
///
/// let mut b = ProgramBuilder::new();
/// b.push(Inst::Li { rd: Gpr(1), imm: 3 });
/// b.push(Inst::Halt);
/// let exe = Executable::new("demo", b.build().unwrap(), TargetIsa::riscv_u74());
///
/// let first = session.run(&[exe.clone()]).remove(0).expect("simulates");
/// let second = session.run(&[exe]).remove(0).expect("served from cache");
/// assert_eq!(first.stats, second.stats);
/// assert_eq!(cache.stats().misses, 1, "one backend execution");
/// assert_eq!(cache.stats().hits, 1, "one memoized replay");
/// # Ok(())
/// # }
/// ```
/// One lock stripe: fingerprint → memoized report.
type Shard = Mutex<HashMap<Vec<u8>, SimReport>>;

/// A candidate's key before it is built (see the module docs).
pub(crate) type RequestKey = [u8; 16];

pub struct SimCache {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; the shard count is a power of two.
    mask: usize,
    /// Request key → fingerprint of the program that request built.
    requests: Mutex<HashMap<RequestKey, [u8; 16]>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Snapshot persistence counters (see `crate::snapshot`).
    pub(crate) snap_loaded: AtomicU64,
    pub(crate) snap_rejected: AtomicU64,
    pub(crate) snap_saved: AtomicU64,
}

impl Default for SimCache {
    fn default() -> Self {
        SimCache::with_shards(DEFAULT_SHARDS)
    }
}

impl fmt::Debug for SimCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("SimCache")
            .field("entries", &self.len())
            .field("shards", &self.shards.len())
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl SimCache {
    /// Creates an empty, unbounded cache with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty, unbounded cache striped over `shards` locks
    /// (rounded up to a power of two, at least 1). `with_shards(1)` is
    /// the historical single-lock cache; higher counts only change
    /// contention, never observable behavior.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "a cache needs at least one shard");
        let count = shards.next_power_of_two();
        SimCache {
            shards: (0..count).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: count - 1,
            requests: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            snap_loaded: AtomicU64::new(0),
            snap_rejected: AtomicU64::new(0),
            snap_saved: AtomicU64::new(0),
        }
    }

    /// Number of lock stripes (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Hit/miss counters accumulated over the cache's lifetime.
    pub fn stats(&self) -> MemoCacheStats {
        MemoCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Counters for the snapshot persistence path: entries loaded from
    /// disk, snapshots rejected (corrupt or version-mismatched, each a
    /// degraded cold start), and snapshots written.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        SnapshotStats {
            loaded_entries: self.snap_loaded.load(Ordering::Relaxed),
            rejected_snapshots: self.snap_rejected.load(Ordering::Relaxed),
            saved_snapshots: self.snap_saved.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized reports.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| relock(s.lock()).len()).sum()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and the request map with them (counters are
    /// kept). Locks every shard in index order, the one consistent
    /// order, so two concurrent clears cannot deadlock.
    pub fn clear(&self) {
        let mut guards: Vec<MutexGuard<'_, _>> =
            self.shards.iter().map(|s| relock(s.lock())).collect();
        for guard in &mut guards {
            guard.clear();
        }
        relock(self.requests.lock()).clear();
    }

    fn shard(&self, key: &[u8]) -> &Shard {
        // FNV-1a over the fingerprint bytes; the fingerprint already
        // contains every distinguishing byte, so any mixing hash
        // spreads stripes evenly.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h as usize) & self.mask]
    }

    /// The resident report of the program `request` built, without
    /// touching the counters; `None` when the request was never recorded
    /// or its report is not resident (in flight, failed or cleared).
    pub(crate) fn recall(&self, request: &RequestKey) -> Option<SimReport> {
        let program = *relock(self.requests.lock()).get(request)?;
        self.peek(&program)
    }

    /// Records that `request` built the program fingerprinted `program`.
    pub(crate) fn remember(&self, request: RequestKey, program: &[u8]) {
        let mut fingerprint = [0u8; 16];
        fingerprint.copy_from_slice(program);
        relock(self.requests.lock()).insert(request, fingerprint);
    }

    /// Every resident fingerprint, shard by shard — the snapshot
    /// writer's index. Entries inserted concurrently may or may not be
    /// included; each shard is internally consistent.
    pub(crate) fn export_keys(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(relock(shard.lock()).keys().cloned());
        }
        out
    }

    /// Looks a fingerprint up, counting the hit or miss.
    pub fn lookup(&self, key: &[u8]) -> Option<SimReport> {
        let found = self.peek(key);
        match &found {
            Some(_) => self.note_hit(),
            None => self.note_miss(),
        }
        found
    }

    /// Looks a fingerprint up without touching the hit/miss counters —
    /// for callers (like the session's batch planner) that account for
    /// the outcome themselves.
    pub(crate) fn peek(&self, key: &[u8]) -> Option<SimReport> {
        relock(self.shard(key).lock()).get(key).cloned()
    }

    pub(crate) fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Stores a report under a fingerprint.
    pub fn insert(&self, key: Vec<u8>, report: SimReport) {
        relock(self.shard(&key).lock()).insert(key, report);
    }
}

/// Streaming SipHash-`C`-`D` with 128-bit output (Aumasson & Bernstein's
/// published construction) over the little-endian byte image of a
/// stream of `u64` words. Hand-written because the digest is persisted
/// in snapshots: it must not change with the toolchain, the host's
/// endianness or `std::hash`'s unspecified internals. The unit tests
/// check the 2-4 instance against the reference implementation's
/// vectors.
#[derive(Clone)]
struct SipHash128<const C: usize, const D: usize> {
    v: [u64; 4],
    words: u64,
}

/// The fingerprint's instance: one compression round, three finalisation
/// rounds and the all-zero key — the variant rustc's `StableHasher`
/// computes incremental-compilation fingerprints with, the same job
/// (content identity, no adversary).
type Digest128 = SipHash128<1, 3>;

impl<const C: usize, const D: usize> SipHash128<C, D> {
    fn keyed(k0: u64, k1: u64) -> Self {
        SipHash128 {
            v: [
                k0 ^ 0x736f_6d65_7073_6575,
                k1 ^ 0x646f_7261_6e64_6f6d ^ 0xee,
                k0 ^ 0x6c79_6765_6e65_7261,
                k1 ^ 0x7465_6462_7974_6573,
            ],
            words: 0,
        }
    }

    fn rounds(&mut self, n: usize) {
        let [mut v0, mut v1, mut v2, mut v3] = self.v;
        for _ in 0..n {
            v0 = v0.wrapping_add(v1);
            v1 = v1.rotate_left(13) ^ v0;
            v0 = v0.rotate_left(32);
            v2 = v2.wrapping_add(v3);
            v3 = v3.rotate_left(16) ^ v2;
            v0 = v0.wrapping_add(v3);
            v3 = v3.rotate_left(21) ^ v0;
            v2 = v2.wrapping_add(v1);
            v1 = v1.rotate_left(17) ^ v2;
            v2 = v2.rotate_left(32);
        }
        self.v = [v0, v1, v2, v3];
    }

    fn compress(&mut self, m: u64) {
        self.v[3] ^= m;
        self.rounds(C);
        self.v[0] ^= m;
    }

    fn word(&mut self, w: u64) {
        self.compress(w);
        self.words = self.words.wrapping_add(1);
    }

    /// A length-prefixed byte string, zero-padded to whole words (the
    /// prefix keeps the padding unambiguous).
    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut le = [0u8; 8];
            le[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(le));
        }
    }

    fn finish(mut self) -> [u8; 16] {
        // SipHash's last block: the byte length mod 256 in the top
        // byte; the stream is whole words, so no tail bytes below it.
        self.compress(self.words.wrapping_mul(8) << 56);
        self.v[2] ^= 0xee;
        self.rounds(D);
        let lo = self.v[0] ^ self.v[1] ^ self.v[2] ^ self.v[3];
        self.v[1] ^= 0xdd;
        self.rounds(D);
        let hi = self.v[0] ^ self.v[1] ^ self.v[2] ^ self.v[3];
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&lo.to_le_bytes());
        out[8..].copy_from_slice(&hi.to_le_bytes());
        out
    }
}

/// Builds the canonical fingerprint of one simulation request: a
/// 16-byte SipHash-1-3 digest of the target, fidelity digest, engine
/// label, limits, program
/// ([`canonical_words`](simtune_isa::Inst::canonical_words) per
/// instruction) and bit-exact data segments — everything
/// result-relevant, and not the executable's name.
///
/// Equal requests always share a key; different requests share one only
/// on a hash collision, about n²/2¹²⁹ for `n` distinct simulations. The
/// digest identifies content and is not a MAC: it is sound for programs
/// this process compiles itself (the service builds every program from
/// `(workload, schedule)` requests), not as a defence against someone
/// free to craft raw programs.
///
/// Public (re-exported as `memo_fingerprint`) so the differential and
/// property suites can assert the collision contract — equal (program,
/// data, target, fidelity digest, limits, engine) collide, any differing
/// component misses — directly against the real key. `fidelity_digest`
/// is the backend's [`crate::SimBackend::fidelity_digest`]: one
/// canonical string naming the tier and every configuration knob.
pub fn fingerprint(
    exe: &Executable,
    fidelity_digest: &str,
    limits: &RunLimits,
    engine: EngineKind,
) -> Vec<u8> {
    let mut h = Digest128::keyed(0, 0);
    // Target ISA: everything that changes execution or fetch layout.
    let t = &exe.target;
    h.bytes(t.name.as_bytes());
    h.word(t.vector_lanes as u64);
    h.word(t.inst_bytes);
    h.bytes(fidelity_digest.as_bytes());
    h.bytes(engine.label().as_bytes());
    h.word(limits.max_insts);
    // Program: two words per instruction, branch targets resolved.
    let insts = exe.program.insts();
    h.word(insts.len() as u64);
    for inst in insts {
        let [head, imm] = inst.canonical_words();
        h.word(head);
        h.word(imm);
    }
    // Data segments: bit-exact, so value-identical but bit-different
    // floats (e.g. -0.0 vs 0.0) fingerprint apart, matching simulator
    // behavior exactly. Two values per word; the length prefix keeps an
    // odd tail's zero padding unambiguous.
    h.word(exe.data_segments.len() as u64);
    for (base, values) in &exe.data_segments {
        h.word(*base);
        h.word(values.len() as u64);
        for pair in values.chunks(2) {
            let lo = u64::from(pair[0].to_bits());
            let hi = pair.get(1).map_or(0, |v| u64::from(v.to_bits()));
            h.word(lo | hi << 32);
        }
    }
    h.finish().to_vec()
}

/// The request keys of one tuning run (see [request keys](self#request-keys)):
/// the kernel, target, data seed and session context are hashed once,
/// and each candidate's schedule onto a copy of that prefix.
pub(crate) struct RequestKeys {
    prefix: Digest128,
}

impl RequestKeys {
    /// Keys for `builder`'s candidates on a session with this fidelity
    /// digest, limits and engine.
    pub(crate) fn new(
        builder: &KernelBuilder,
        fidelity_digest: &str,
        limits: &RunLimits,
        engine: EngineKind,
    ) -> Self {
        let mut h = Digest128::keyed(0, 0);
        // A request key never leaves the process, so `Debug` text is a
        // faithful enough encoding of the kernel and the target.
        h.bytes(format!("{:?}", builder.def()).as_bytes());
        h.bytes(format!("{:?}", builder.target()).as_bytes());
        h.word(builder.data_seed);
        h.bytes(fidelity_digest.as_bytes());
        h.word(limits.max_insts);
        h.bytes(engine.label().as_bytes());
        RequestKeys { prefix: h }
    }

    /// The key of building `schedule`: every field, length-prefixed.
    pub(crate) fn key(&self, schedule: &Schedule) -> RequestKey {
        let mut h = self.prefix.clone();
        h.word(schedule.splits.len() as u64);
        for split in &schedule.splits {
            hash_var(&mut h, split.var);
            h.word(split.factors.len() as u64);
            for &factor in &split.factors {
                h.word(factor as u64);
            }
        }
        for subs in [&schedule.order, &schedule.unroll] {
            h.word(subs.len() as u64);
            for &sub in subs {
                hash_sub(&mut h, sub);
            }
        }
        for annotation in [schedule.vectorize, schedule.parallel] {
            match annotation {
                None => h.word(0),
                Some(sub) => {
                    h.word(1);
                    hash_sub(&mut h, sub);
                }
            }
        }
        h.finish()
    }
}

fn hash_var(h: &mut Digest128, var: VarRef) {
    let (kind, axis) = match var {
        VarRef::Spatial(axis) => (0, axis),
        VarRef::Reduce(axis) => (1, axis),
    };
    h.word(kind);
    h.word(axis as u64);
}

fn hash_sub(h: &mut Digest128, sub: SubVar) {
    hash_var(h, sub.var);
    h.word(sub.piece as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimBackend;
    use simtune_isa::{Gpr, Inst, ProgramBuilder, SimStats, TargetIsa};

    fn exe(name: &str, imm: i64, data: Vec<f32>) -> Executable {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li { rd: Gpr(1), imm });
        b.push(Inst::Halt);
        Executable::new(name, b.build().unwrap(), TargetIsa::riscv_u74())
            .with_segment(0x100_0000, data)
    }

    fn key_of(e: &Executable) -> Vec<u8> {
        fingerprint(
            e,
            "accurate @ cfg",
            &RunLimits::default(),
            EngineKind::Decoded,
        )
    }

    #[test]
    fn fingerprint_ignores_name_but_covers_everything_else() {
        let a = exe("first", 7, vec![1.0, 2.0]);
        let renamed = exe("second", 7, vec![1.0, 2.0]);
        assert_eq!(key_of(&a), key_of(&renamed), "name must not matter");
        assert_eq!(key_of(&a).len(), 16, "a key is the digest, nothing more");

        let other_prog = exe("first", 8, vec![1.0, 2.0]);
        assert_ne!(key_of(&a), key_of(&other_prog), "program must matter");

        let other_data = exe("first", 7, vec![1.0, 2.5]);
        assert_ne!(key_of(&a), key_of(&other_data), "data must matter");

        let mut other_target = exe("first", 7, vec![1.0, 2.0]);
        other_target.target = TargetIsa::x86_ryzen_5800x();
        assert_ne!(key_of(&a), key_of(&other_target), "target must matter");

        // Any change to the fidelity digest — tier, parameters or the
        // embedded hierarchy — must re-key the simulation.
        for digest in [
            "fast-count @ line_bytes=64",
            "accurate @ other-cfg",
            "pipelined:btb=512,ras=8 @ cfg",
            "pipelined:btb=256,ras=8 @ cfg",
        ] {
            let other = fingerprint(&a, digest, &RunLimits::default(), EngineKind::Decoded);
            assert_ne!(key_of(&a), other, "fidelity digest must matter ({digest})");
        }

        let other_limits = fingerprint(
            &a,
            "accurate @ cfg",
            &RunLimits { max_insts: 5 },
            EngineKind::Decoded,
        );
        assert_ne!(key_of(&a), other_limits, "limits must matter");

        for engine in [EngineKind::Interp, EngineKind::Threaded, EngineKind::Batch] {
            let other_engine = fingerprint(&a, "accurate @ cfg", &RunLimits::default(), engine);
            assert_ne!(key_of(&a), other_engine, "engine must matter ({engine})");
        }
    }

    #[test]
    fn siphash_2_4_matches_the_reference_vectors() {
        // `vectors_sip128` of the reference implementation: key
        // 00 01 .. 0f, message 00 01 .. (n-1); entries n = 0 and n = 8
        // are the whole-word messages this hasher can express.
        let key = |lo: u8| u64::from_le_bytes(std::array::from_fn(|i| lo + i as u8));
        let hex = |bytes: [u8; 16]| bytes.map(|b| format!("{b:02x}")).concat();
        let empty = SipHash128::<2, 4>::keyed(key(0), key(8));
        assert_eq!(hex(empty.finish()), "a3817f04ba25a8e66df67214c7550293");
        let mut one_word = SipHash128::<2, 4>::keyed(key(0), key(8));
        one_word.word(key(0));
        assert_eq!(hex(one_word.finish()), "3b62a9ba6258f5610f83e264f31497b4");
    }

    #[test]
    fn byte_strings_are_length_prefixed() {
        // Without the prefix, trailing zero bytes and the split between
        // two adjacent strings would vanish into the word padding.
        let digest = |parts: &[&[u8]]| {
            let mut h = Digest128::keyed(0, 0);
            parts.iter().for_each(|p| h.bytes(p));
            h.finish()
        };
        assert_ne!(digest(&[b"ab"]), digest(&[b"ab\0"]));
        assert_ne!(digest(&[b"ab", b"c"]), digest(&[b"a", b"bc"]));
        assert_ne!(digest(&[b"12345678", b""]), digest(&[b"", b"12345678"]));
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache = SimCache::new();
        let e = exe("e", 1, vec![]);
        let key = key_of(&e);
        assert!(cache.lookup(&key).is_none());
        let report = SimReport {
            stats: SimStats::default(),
            backend: "accurate".into(),
            cycles: None,
        };
        cache.insert(key.clone(), report.clone());
        assert_eq!(cache.lookup(&key).as_ref(), Some(&report));
        assert_eq!(cache.len(), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.lookups(), 2);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        assert_eq!(SimCache::with_shards(1).shard_count(), 1);
        assert_eq!(SimCache::with_shards(3).shard_count(), 4);
        assert_eq!(SimCache::new().shard_count(), DEFAULT_SHARDS);
    }

    #[test]
    fn sharded_and_single_lock_agree_on_a_spread_of_keys() {
        // The property test in tests/memo_sharding.rs covers arbitrary
        // interleavings; this is the deterministic smoke version.
        let single = SimCache::with_shards(1);
        let sharded = SimCache::with_shards(16);
        let report = |n: u64| SimReport {
            stats: SimStats {
                host_nanos: n,
                ..SimStats::default()
            },
            backend: "accurate".into(),
            cycles: None,
        };
        for i in 0..64u64 {
            let key = key_of(&exe("e", i as i64, vec![i as f32]));
            single.insert(key.clone(), report(i));
            sharded.insert(key.clone(), report(i));
            assert_eq!(single.lookup(&key), sharded.lookup(&key));
        }
        assert_eq!(single.len(), sharded.len());
        assert_eq!(single.stats(), sharded.stats());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_are_rejected() {
        let _ = SimCache::with_shards(0);
    }

    #[test]
    fn custom_backends_opt_out_by_default() {
        let opaque = crate::backend::stub::StubBackend::marker("opaque");
        assert_eq!(opaque.fidelity_digest(), None);
    }

    const DIGEST: &str = "accurate @ cfg";

    fn request_keys(builder: &KernelBuilder) -> RequestKeys {
        RequestKeys::new(builder, DIGEST, &RunLimits::default(), EngineKind::Decoded)
    }

    /// The one-way contract: over the conv groups, matmul, sketch and
    /// template schedules, on both targets, every schedule built twice
    /// by two builders — equal request keys always fingerprint equal.
    #[test]
    fn request_key_contract_equal_keys_build_equal_programs() {
        use rand::{rngs::StdRng, SeedableRng};
        use simtune_tensor::{
            conv2d_bias_relu, matmul, ConfigSpace, Conv2dShape, SketchGenerator, TargetIsa,
        };
        let convs = Conv2dShape::paper_groups()
            .into_iter()
            .map(|g| (conv2d_bias_relu(&g.scaled(8, 8)), true));
        let defs: Vec<_> = convs.chain([(matmul(8, 8, 8), false)]).collect();
        for target in [TargetIsa::riscv_u74(), TargetIsa::x86_ryzen_5800x()] {
            for (def, conv) in &defs {
                let generator = SketchGenerator::new(def, target.clone());
                let mut rng = StdRng::seed_from_u64(7);
                let mut schedules: Vec<Schedule> = (0..10)
                    .map(|_| generator.schedule(&generator.random(&mut rng)))
                    .collect();
                let space = if *conv {
                    ConfigSpace::conv2d(def, &target)
                } else {
                    ConfigSpace::matmul(def, &target)
                };
                schedules.extend((0..6).filter_map(|i| {
                    let cfg = space.config_from_index(i * 7 % space.len());
                    space.schedule(def, &cfg).ok()
                }));
                let keys = request_keys(&KernelBuilder::new(def.clone(), target.clone()));
                let mut programs: HashMap<RequestKey, Option<Vec<u8>>> = HashMap::new();
                for schedule in schedules.iter().chain(&schedules) {
                    let builder = KernelBuilder::new(def.clone(), target.clone());
                    let program = builder.build(schedule, "contract").ok().map(|exe| {
                        fingerprint(&exe, DIGEST, &RunLimits::default(), EngineKind::Decoded)
                    });
                    let known = programs
                        .entry(keys.key(schedule))
                        .or_insert(program.clone());
                    assert_eq!(
                        *known, program,
                        "{} on {}: one request key, two programs",
                        def.name, target.name
                    );
                }
                assert!(programs.len() > 1, "the schedules must differ");
            }
        }
    }

    #[test]
    fn request_key_covers_every_component() {
        use simtune_tensor::{matmul, Split, TargetIsa};
        let def = matmul(8, 8, 8);
        let builder = KernelBuilder::new(def.clone(), TargetIsa::riscv_u74());
        let mut base = Schedule::default_for(&def);
        base.splits.push(Split {
            var: VarRef::Spatial(0),
            factors: vec![2],
        });
        let key = |b: &KernelBuilder, s: &Schedule| request_keys(b).key(s);
        let reference = key(&builder, &base);
        assert_eq!(reference, key(&builder.clone(), &base.clone()));

        let mut others = Vec::new();
        others.push(key(
            &KernelBuilder::new(matmul(8, 8, 9), TargetIsa::riscv_u74()),
            &base,
        ));
        others.push(key(
            &KernelBuilder::new(def.clone(), TargetIsa::x86_ryzen_5800x()),
            &base,
        ));
        let mut reseeded = builder.clone();
        reseeded.data_seed += 1;
        others.push(key(&reseeded, &base));
        let limits = RunLimits::default();
        for digest in ["accurate @ other-cfg", "fast-count @ line_bytes=64"] {
            others
                .push(RequestKeys::new(&builder, digest, &limits, EngineKind::Decoded).key(&base));
        }
        let short = RunLimits { max_insts: 5 };
        others.push(RequestKeys::new(&builder, DIGEST, &short, EngineKind::Decoded).key(&base));
        for engine in [EngineKind::Interp, EngineKind::Threaded, EngineKind::Batch] {
            others.push(RequestKeys::new(&builder, DIGEST, &limits, engine).key(&base));
        }
        let edits: [fn(&mut Schedule); 7] = [
            |s| s.splits[0].factors[0] = 4,
            |s| s.splits[0].var = VarRef::Spatial(1),
            |s| s.splits.clear(),
            |s| s.order.swap(0, 1),
            |s| s.unroll.push(s.order[2]),
            |s| s.vectorize = Some(s.order[2]),
            |s| s.parallel = Some(s.order[0]),
        ];
        for edit in edits {
            let mut schedule = base.clone();
            edit(&mut schedule);
            others.push(key(&builder, &schedule));
        }
        let mut repieced = base.clone();
        repieced.order[0].piece = 1;
        others.push(key(&builder, &repieced));

        for (i, other) in others.iter().enumerate() {
            assert_ne!(*other, reference, "variant {i} kept the key");
        }
        let distinct: std::collections::HashSet<_> = others.iter().collect();
        assert_eq!(distinct.len(), others.len(), "two variants share a key");
    }

    #[test]
    fn recall_needs_the_mapping_and_the_report() {
        let cache = SimCache::new();
        let report = SimReport::full(SimStats::default(), "accurate");
        let program = key_of(&exe("e", 1, vec![]));
        let request = [7u8; 16];
        assert!(cache.recall(&request).is_none(), "never recorded");
        // A request whose simulation failed is recorded, but a failed
        // report is never memoized: it recalls nothing and builds again.
        cache.remember(request, &program);
        assert!(cache.recall(&request).is_none(), "recorded, not resident");
        cache.insert(program.clone(), report.clone());
        assert_eq!(cache.recall(&request), Some(report.clone()));
        assert_eq!(cache.stats().lookups(), 0, "a recall counts nothing itself");
        // A clear drops the mapping with the reports.
        cache.clear();
        cache.insert(program, report);
        assert!(cache.recall(&request).is_none(), "cleared with the shards");
    }
}
