//! Measurement primitives: CPU clocks, peak RSS, the counting allocator,
//! order statistics and telemetry-histogram deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ganglia::telemetry::{bucket_lower_bound, HistogramSnapshot, Snapshot};

/// System allocator wrapped with an allocation counter (allocations and
/// reallocations), as `repro_ingest` does, kept both process-wide and
/// per thread.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread being torn down may still allocate.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a relaxed atomic with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made by the whole process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; both clock ids exist
    // on every Linux kernel this benchmark targets.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// User plus system CPU of every thread in the process (what `ps`
/// reports as the process's CPU time).
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User plus system CPU of the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A fixed CPU-bound probe (integer hashing over a fixed input), timed
/// in milliseconds, so machine speed drift between two sets of runs is
/// visible next to the figures it would distort.
pub fn speed_probe_ms() -> f64 {
    let start = std::time::Instant::now();
    let mut state = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..40_000_000u64 {
        state ^= i;
        state = state.wrapping_mul(0x1000_0000_01b3);
    }
    std::hint::black_box(state);
    start.elapsed().as_secs_f64() * 1e3
}

/// Value at quantile `q` of `values` (nearest rank on a sorted copy);
/// 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` by the same nearest-rank rule as [`quantile`], so
/// a tail percentile never reads below it; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest whole percentile with at least `beyond` samples above
/// it, and the value there: `(percentile, value)`. `None` when there
/// are too few samples for any percentile at or above the median.
pub fn tail(values: &[f64], beyond: usize) -> Option<(u32, f64)> {
    let n = values.len();
    (50..=99u32).rev().find_map(|p| {
        let rank = ((p as f64 / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= beyond).then(|| (p, quantile(values, p as f64 / 100.0)))
    })
}

/// The observations a histogram gained between two snapshots, as a
/// histogram of their own (bucket-wise difference; extremes widened to
/// the bucket bounds, which is what quantile interpolation needs).
pub fn histogram_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets: Vec<u64> = after
        .buckets
        .iter()
        .zip(before.buckets.iter().chain(std::iter::repeat(&0)))
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let count = buckets.iter().sum();
    let first = buckets.iter().position(|&b| b > 0);
    let last = buckets.iter().rposition(|&b| b > 0);
    HistogramSnapshot {
        count,
        sum: after.sum.saturating_sub(before.sum),
        min: first.map_or(u64::MAX, |i| bucket_lower_bound(i).max(after.min)),
        max: last
            .map_or(0, |i| {
                if i + 1 < buckets.len() {
                    bucket_lower_bound(i + 1) - 1
                } else {
                    u64::MAX
                }
            })
            .min(after.max),
        buckets,
    }
}

/// A counter's gain between two snapshots.
pub fn counter_between(after: &Snapshot, before: &Snapshot, name: &str) -> u64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values, 10), Some((90, 90.0)));
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&few, 10), None);
        let some: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&some, 10).map(|t| t.0), Some(75));
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_delta_keeps_only_new_observations() {
        let registry = ganglia::telemetry::Registry::new();
        let h = registry.histogram("x_us");
        for v in [10, 20, 30] {
            h.record(v);
        }
        let before = registry.snapshot();
        for v in [1000, 1100, 1200] {
            h.record(v);
        }
        let after = registry.snapshot();
        let delta = histogram_delta(
            after.histogram("x_us").unwrap(),
            before.histogram("x_us").unwrap(),
        );
        assert_eq!(delta.count, 3);
        assert!((512..=2047).contains(&delta.quantile(0.5)));
        assert_eq!(counter_between(&after, &before, "missing"), 0);
    }

    #[test]
    fn cpu_clocks_advance() {
        let before = thread_cpu();
        std::hint::black_box(speed_probe_ms());
        assert!(thread_cpu() > before);
        assert!(process_cpu() >= thread_cpu());
        assert!(peak_rss_mib() > 0.0);
    }
}
