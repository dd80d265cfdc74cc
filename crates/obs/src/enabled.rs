//! The real implementation, compiled when the `obs` feature is on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::{bucket_index, CounterSnapshot, HistogramSnapshot, Snapshot, BUCKETS};

/// A monotonically increasing event counter.
///
/// Increments are `Relaxed` atomic adds: cross-thread visibility of exact
/// intermediate values is not needed, only the final tally (reads in
/// [`snapshot`] see every increment that happened-before the snapshot
/// call). When an attribution [`Scope`](crate::Scope) is live on the
/// recording thread, the delta is also propagated to the scope's
/// sub-registry.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    fn new(name: &'static str) -> Self {
        Counter { name, value: AtomicU64::new(0) }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.add_unscoped(n);
        if crate::scope::any_active() {
            crate::scope::propagate_counter(self.name, n);
        }
    }

    /// Adds `n` without scope propagation — what the scope layer calls on
    /// its own sub-registry instances (propagating those would recurse).
    #[inline]
    pub(crate) fn add_unscoped(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A log₂-bucketed distribution of `u64` values (sizes in bytes, latencies
/// in nanoseconds), with count, saturating sum, min and max. Like
/// [`Counter`], records propagate to any live attribution scope on the
/// recording thread.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new(name: &'static str) -> Self {
        Histogram {
            name,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_unscoped(value);
        if crate::scope::any_active() {
            crate::scope::propagate_histogram(self.name, value);
        }
    }

    /// Records without scope propagation — what the scope layer calls on
    /// its own sub-registry instances (propagating those would recurse).
    pub(crate) fn record_unscoped(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap: a u64 nanosecond sum overflows only
        // after ~584 years of accumulated time, but byte sums can get big.
        let mut sum = self.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(value);
            match self.sum.compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(actual) => sum = actual,
            }
        }
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let v = b.load(Ordering::Relaxed);
                    (v > 0).then_some((i as u32, v))
                })
                .collect(),
        }
    }
}

/// An RAII scope timer: records elapsed nanoseconds into its histogram
/// when dropped.
#[must_use = "a Span records on drop; binding it to `_` drops immediately"]
#[derive(Debug)]
pub struct Span {
    histogram: &'static Histogram,
    start: Instant,
}

impl Span {
    /// Starts timing now; the elapsed time lands in `histogram` on drop.
    #[inline]
    pub fn enter(histogram: &'static Histogram) -> Span {
        Span { histogram, start: Instant::now() }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        self.histogram.record(self.start.elapsed().as_nanos() as u64);
    }
}

/// A name → leaked-metric registry. One global instance backs the public
/// `counter()`/`histogram()` entry points; the scope layer keeps one more
/// per attribution label. Metrics live for the process lifetime so hot
/// paths hold plain `&'static` handles and never lock.
pub(crate) struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry { counters: Mutex::new(BTreeMap::new()), histograms: Mutex::new(BTreeMap::new()) }
    }

    pub(crate) fn counter(&self, name: &'static str) -> &'static Counter {
        let mut map = lock_ignore_poison(&self.counters);
        map.entry(name).or_insert_with(|| Box::leak(Box::new(Counter::new(name))))
    }

    pub(crate) fn histogram(&self, name: &'static str) -> &'static Histogram {
        let mut map = lock_ignore_poison(&self.histograms);
        map.entry(name).or_insert_with(|| Box::leak(Box::new(Histogram::new(name))))
    }

    /// Copies this registry's metrics into a [`Snapshot`] with no scope
    /// section (sub-snapshots are flat), sorted by name.
    pub(crate) fn snapshot_flat(&self) -> Snapshot {
        let counters = lock_ignore_poison(&self.counters)
            .iter()
            .map(|(name, c)| CounterSnapshot { name: name.to_string(), value: c.value() })
            .collect();
        let histograms =
            lock_ignore_poison(&self.histograms).iter().map(|(name, h)| h.snapshot(name)).collect();
        Snapshot { counters, histograms, scopes: Vec::new() }
    }

    /// Zeroes every metric (names stay registered).
    pub(crate) fn reset(&self) {
        for c in lock_ignore_poison(&self.counters).values() {
            c.reset();
        }
        for h in lock_ignore_poison(&self.histograms).values() {
            h.reset();
        }
    }
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Returns (registering on first use) the counter named `name`.
///
/// Prefer the [`crate::counter!`] macro in hot paths — it caches the
/// lookup per call site.
pub fn counter(name: &'static str) -> &'static Counter {
    registry().counter(name)
}

/// Returns (registering on first use) the histogram named `name`.
///
/// Prefer the [`crate::histogram!`] macro in hot paths — it caches the
/// lookup per call site.
pub fn histogram(name: &'static str) -> &'static Histogram {
    registry().histogram(name)
}

/// Copies every registered metric into a serializable [`Snapshot`],
/// sorted by name, including one sub-snapshot per attribution scope label
/// (see [`crate::scope!`]).
pub fn snapshot() -> Snapshot {
    let mut snap = registry().snapshot_flat();
    snap.scopes = crate::scope::scope_snapshots();
    snap
}

/// Zeroes every registered metric, scoped ones included (names and scope
/// labels stay registered). Used by benches to isolate phases and by
/// tests.
pub fn reset() {
    registry().reset();
    crate::scope::reset_scopes();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket_index;

    // The registry is process-global, so every test uses unique metric
    // names instead of reset() (tests run concurrently).

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Powers of two open a new bucket; their predecessors close one.
        for bits in 1..64u32 {
            let boundary = 1u64 << bits;
            assert_eq!(bucket_index(boundary), bits as usize + 1, "2^{bits}");
            assert_eq!(bucket_index(boundary - 1), bits as usize, "2^{bits}-1");
        }
    }

    #[test]
    fn histogram_extreme_values() {
        let h = histogram("test.extremes");
        h.record(0);
        h.record(u64::MAX);
        let snap = h.snapshot("test.extremes");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, u64::MAX);
        // 0 + u64::MAX saturates at u64::MAX rather than wrapping to
        // u64::MAX - 1 on a further record.
        h.record(u64::MAX);
        assert_eq!(h.snapshot("test.extremes").sum, u64::MAX);
        let snap = h.snapshot("test.extremes");
        assert_eq!(snap.buckets, vec![(0, 1), (64, 2)]);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = histogram("test.boundaries");
        for v in [1u64, 2, 3, 4, 7, 8] {
            h.record(v);
        }
        // 1 | 2,3 | 4..7 | 8..15
        let snap = h.snapshot("test.boundaries");
        assert_eq!(snap.buckets, vec![(1, 1), (2, 2), (3, 2), (4, 1)]);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 8);
        assert_eq!(snap.sum, 25);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let snap = histogram("test.empty").snapshot("test.empty");
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0, "min must not leak the u64::MAX sentinel");
        assert_eq!(snap.max, 0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let c = counter("test.concurrent");
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn concurrent_histogram_records_are_lossless() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 5_000;
        let h = histogram("test.concurrent_hist");
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for v in 1..=PER_THREAD {
                        h.record(v);
                    }
                });
            }
        });
        let snap = h.snapshot("test.concurrent_hist");
        assert_eq!(snap.count, THREADS * PER_THREAD);
        assert_eq!(snap.sum, THREADS * PER_THREAD * (PER_THREAD + 1) / 2);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, PER_THREAD);
    }

    #[test]
    fn span_records_on_drop() {
        let h = histogram("test.span_ns");
        {
            let _timer = Span::enter(h);
            std::hint::black_box(0u64);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn macros_cache_the_same_metric_per_name() {
        fn site_a() {
            crate::counter!("test.macro_shared").inc();
        }
        fn site_b() {
            crate::counter!("test.macro_shared").inc();
        }
        site_a();
        site_b();
        assert_eq!(counter("test.macro_shared").value(), 2);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        counter("test.sorted_b").inc();
        counter("test.sorted_a").add(3);
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(snap.counter("test.sorted_a"), 3);
        assert_eq!(snap.counter("test.absent"), 0);
    }
}
