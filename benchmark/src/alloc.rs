//! The one call the benchmark makes into the allocator.

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
compile_error!("the benchmark calls glibc's malloc_trim; build it against glibc on Linux");

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands every free page of the heap — all arenas — back to the kernel.
///
/// A trial under the x86 hierarchy allocates and frees ~12 MB in ~65 000
/// small chunks (`Vec<Vec<Line>>`: one `Vec` per cache set). Whether
/// glibc returns those pages when the trial ends, so that the next trial
/// faults every one of them in again (~3 600 faults, 8.8 ms a trial), or
/// keeps them (no faults, 3.7 ms) depends on whether a freed chunk parked
/// in a thread cache happens to sit above them, which changes with the
/// programs a seed generates: out of twelve seeds, nine ran
/// `replay_short_x86` entirely in the first state and three entirely in
/// the second, 115 against 265 trials/s. The shipped binaries show the
/// first state (`strategy_sweep --arch x86`: ~3 500 faults per replay),
/// and so did the probe the workload was designed around, so the script
/// puts every trial in it: the allocator's settings stay at their
/// defaults, and a trial's pages are returned at the latest here.
pub fn release_free_pages() {
    // SAFETY: `malloc_trim` takes no pointers; it locks each arena while
    // it works, so it may run beside allocating threads.
    unsafe { malloc_trim(0) };
}
