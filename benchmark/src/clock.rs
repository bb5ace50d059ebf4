//! Clocks, the memory high-water mark and order statistics.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux clocks and /proc; build it on 64-bit Linux");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU nanoseconds this process has consumed on all of its threads.
/// `/proc/self/stat` counts in 10 ms ticks, too coarse for millisecond
/// ops, hence the direct clock read.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // 64-bit Linux, enforced by the cfg guard above) that outlives the
    // call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Samples the fast value is the mean of.
const FASTEST: usize = 3;

/// The fast rep time: the mean of the three fastest reps.
///
/// Interference on a shared box is one-sided — a neighbour only ever
/// slows a rep down — and on this box it arrives in plateaus: for
/// seconds to minutes at a time a vCPU runs ~1.5x slower, then recovers.
/// Low order statistics of the rep times therefore measure the program
/// and the upper ones the neighbours, and the lower tail is tight (the
/// 1st and 10th fastest of 100 reps differ by ~3 %) because nothing
/// makes a rep faster than the uncontended machine. Three reps need only
/// three calm moments in a run, however many reps it has: a quantile (the
/// quartile the issue proposed, the decile an earlier draft used) reads
/// the plateau's value whenever less than that share of the run was
/// calm, and runs of which nine tenths are slow do happen here.
pub fn fast(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fast value of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(FASTEST);
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(fast(&xs), 2.0);
        assert_eq!(fast(&[7.0, 5.0]), 6.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn cpu_clock_advances_and_rss_is_positive() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_ns() > a);
        assert!(peak_rss_mb() > 0.0);
    }
}
