use simtune_cache::CacheHierarchy;

/// A PC-indexed stride prefetcher, as found in all three target cores.
///
/// Each table entry tracks the last line address and observed stride for
/// one load/store instruction (identified by its program counter). Two
/// consecutive accesses with the same stride *confirm* the stream; from
/// then on, each access prefetches the next `degree` lines into the cache
/// hierarchy. Prefetching acts on the timing model's private hierarchy —
/// its effect (hiding miss latency for regular streams, polluting the
/// cache for irregular ones) is invisible to the instruction-accurate
/// statistics the score predictor consumes, which is a deliberate source
/// of model mismatch.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    entries: Vec<Entry>,
    degree: usize,
    line_bytes: u64,
    issued: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    pc: usize,
    valid: bool,
    last_line: u64,
    stride: i64,
    confidence: u8,
}

impl StridePrefetcher {
    /// Creates a prefetcher with `streams` table entries fetching
    /// `degree` lines ahead. `streams == 0` disables prefetching.
    pub fn new(streams: usize, degree: usize, line_bytes: u64) -> Self {
        StridePrefetcher {
            entries: vec![Entry::default(); streams],
            degree,
            line_bytes,
            issued: 0,
        }
    }

    /// Total prefetch requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Observes a demand access by instruction `pc` to `line_addr` and
    /// issues prefetches into `hier` once the stream is confirmed.
    pub fn observe(&mut self, pc: usize, line_addr: u64, hier: &mut CacheHierarchy) {
        if self.entries.is_empty() {
            return;
        }
        // Every preset's table is a power of two: mask, not divide.
        let len = self.entries.len();
        let idx = if len.is_power_of_two() {
            pc & (len - 1)
        } else {
            pc % len
        };
        let e = &mut self.entries[idx];
        if !e.valid || e.pc != pc {
            *e = Entry {
                pc,
                valid: true,
                last_line: line_addr,
                stride: 0,
                confidence: 0,
            };
            return;
        }
        // Wrapping: the hook fires before memory range-checks the
        // address, so a hostile program can hand in any two lines.
        let stride = (line_addr as i64).wrapping_sub(e.last_line as i64);
        if stride == 0 {
            // Same line again: nothing to learn.
            return;
        }
        if stride == e.stride {
            e.confidence = e.confidence.saturating_add(1);
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        e.last_line = line_addr;
        if e.confidence >= 2 {
            let (stride, degree, line) = (e.stride, self.degree, self.line_bytes);
            for k in 1..=degree {
                let next = (line_addr as i64).wrapping_add(stride.wrapping_mul(k as i64));
                if next >= 0 {
                    // Prefetches are reads: they fill but do not dirty.
                    let _ = hier.data_read(next as u64 & !(line - 1));
                    self.issued += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtune_cache::HierarchyConfig;

    fn hier() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::tiny_for_tests())
    }

    #[test]
    fn disabled_prefetcher_is_inert() {
        let mut p = StridePrefetcher::new(0, 2, 64);
        let mut h = hier();
        p.observe(10, 0, &mut h);
        p.observe(10, 64, &mut h);
        p.observe(10, 128, &mut h);
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn confirmed_stream_prefetches_next_lines() {
        let mut p = StridePrefetcher::new(4, 1, 64);
        let mut h = hier();
        // Three accesses with stride 64 from the same pc confirm the
        // stream on the third.
        p.observe(10, 0, &mut h);
        p.observe(10, 64, &mut h); // stride learned, confidence 0
        p.observe(10, 128, &mut h); // confidence 1
        p.observe(10, 192, &mut h); // confidence 2 -> prefetch 256
        assert!(p.issued() >= 1);
        assert_eq!(h.data_read(256), simtune_cache::ServicedBy::L1d);
    }

    #[test]
    fn irregular_stream_never_confirms() {
        let mut p = StridePrefetcher::new(4, 1, 64);
        let mut h = hier();
        for addr in [0u64, 64, 320, 128, 1024, 64, 4096] {
            p.observe(10, addr, &mut h);
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn strides_across_the_sign_boundary_wrap_instead_of_panicking() {
        let mut p = StridePrefetcher::new(4, 2, 64);
        let mut h = hier();
        let far = (i64::MIN + 64) as u64;
        for addr in [0x1000, far, 0x1000, far, 0x1000] {
            p.observe(10, addr, &mut h);
        }
        assert_eq!(p.issued(), 0, "alternating strides never confirm");
    }

    #[test]
    fn pc_conflicts_reset_entries() {
        let mut p = StridePrefetcher::new(2, 1, 64);
        let mut h = hier();
        // pcs 3 and 5 collide in a 2-entry table: streams keep resetting.
        for i in 0..10u64 {
            p.observe(3, i * 64, &mut h);
            p.observe(5, 4096 + i * 64, &mut h);
        }
        assert_eq!(p.issued(), 0, "thrashing table cannot confirm streams");
        // A table that is not a power of two indexes by remainder: pcs 2
        // and 5 collide in three entries (a mask would keep them apart).
        let mut p = StridePrefetcher::new(3, 1, 64);
        for i in 0..10u64 {
            p.observe(2, i * 64, &mut h);
            p.observe(5, 4096 + i * 64, &mut h);
        }
        assert_eq!(p.issued(), 0, "pcs 2 and 5 share an entry");
        for i in 0..10u64 {
            p.observe(3, i * 64, &mut h);
            p.observe(4, 4096 + i * 64, &mut h);
        }
        assert!(p.issued() > 0, "pcs 3 and 4 do not");
    }
}
